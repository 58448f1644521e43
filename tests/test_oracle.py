"""Brute-force reference path: evidence folding, table diffing, the audit."""

import random

import pytest

from generators import random_instance, random_ocf
from spohn import (
    INF,
    NEG_INF,
    OCF,
    ORACLE_STATE_LIMIT,
    EmptyProposition,
    EvidenceSpec,
    ImpossibleEvidence,
    InfluenceDiagram,
    Proposition,
    SpohnError,
    SpohnianNetwork,
    StateSpace,
    TooLargeForOracle,
    Variable,
    compare,
    ensure_tractable,
    independence_audit,
    oracle_revise,
)


class TestOracleRevise:
    def test_matches_plain_revision_for_one_piece(self, five_node_net):
        joint = five_node_net.joint()
        ev = EvidenceSpec("B", values=("b1",), strength=3)
        prop = Proposition.constrain(joint.space, {"B": ("b1",)})
        assert oracle_revise(joint, [ev]) == joint.revise(prop, 3)

    def test_certain_pieces_commute(self, five_node_net):
        joint = five_node_net.joint()
        e1 = EvidenceSpec("B", values=("b1",))
        e2 = EvidenceSpec("E", values=("e1",))
        one_way = oracle_revise(joint, [e1, e2])
        other_way = oracle_revise(joint, [e2, e1])
        assert one_way == other_way
        # both equal conditioning on the conjunction in one step
        both = Proposition.constrain(joint.space, {"B": ("b1",), "E": ("e1",)})
        assert one_way == joint.revise(both, INF)

    def test_empty_evidence_is_identity(self, five_node_net):
        joint = five_node_net.joint()
        assert oracle_revise(joint, []) == joint

    def test_refuses_target_payloads(self, penguin_space, five_node_net):
        joint = five_node_net.joint()
        spec = EvidenceSpec("B", target=(0, 1))
        with pytest.raises(ValueError, match="target"):
            oracle_revise(joint, [spec])


def _revise_item_by_item(kappa, evidence):
    for ev in evidence:
        kappa = kappa.revise(Proposition.constrain(kappa.space, {ev.variable: ev.values}), ev.strength)
    return kappa


def _outcome(call):
    """OCF and the ranks a call returns, or the class and text of its error."""
    try:
        return OCF, call().ranks
    except SpohnError as e:
        return type(e), str(e)


class TestCertainRuns:
    """oracle_revise conditions once per run of certain items; the result,
    or the error, is that of revising item by item."""

    def test_matches_item_by_item_revision_on_random_joints(self):
        rng = random.Random(61)
        seen = {"OCF": 0, "ImpossibleEvidence": 0, "EmptyProposition": 0}
        checked = 0
        while checked < 150:
            space = StateSpace(tuple(
                Variable(f"V{k}", tuple(f"v{j}" for j in range(rng.randint(2, 4))))
                for k in range(rng.randint(1, 7))
            ))
            if space.size > 4096:
                continue
            kappa = random_ocf(rng, space, p_inf=rng.choice((0.0, 0.3, 0.6)))
            evidence = []
            for _ in range(rng.randint(1, 6)):
                var = rng.choice(space.variables)
                values = rng.sample(var.domain, rng.randint(1, len(var.domain)))
                strength = rng.choice((INF, INF, NEG_INF, NEG_INF, rng.randint(-3, 3)))
                evidence.append(EvidenceSpec(var.name, values=values, strength=strength))
            want = _outcome(lambda: _revise_item_by_item(kappa, evidence))
            assert _outcome(lambda: oracle_revise(kappa, evidence)) == want
            seen[want[0].__name__] += 1
            checked += 1
        assert min(seen.values()) >= 10, seen

    def test_a_run_with_two_faults_raises_the_first(self, five_node_net):
        # B=b1 then B=b0 rules the second out; -inf on all of E's domain is
        # empty. Either comes first, alone or in one run with the other.
        joint = five_node_net.joint()
        first = EvidenceSpec("B", values=("b1",))
        ruled_out = EvidenceSpec("B", values=("b0",))
        empty = EvidenceSpec("E", values=("e0", "e1"), strength=NEG_INF)
        after = EvidenceSpec("C", values=("c1",), strength=NEG_INF)
        for evidence, error in (
            ([first, ruled_out], ImpossibleEvidence),
            ([empty], EmptyProposition),
            ([first, empty, after], EmptyProposition),
            ([first, ruled_out, empty], ImpossibleEvidence),
            ([first, empty, ruled_out], EmptyProposition),
            ([after, first, ruled_out, empty, after], ImpossibleEvidence),
        ):
            want = _outcome(lambda: _revise_item_by_item(joint, evidence))
            assert want[0] is error
            assert _outcome(lambda: oracle_revise(joint, evidence)) == want

    def test_a_conjunction_with_no_finite_cell_raises_at_its_item(self):
        space = StateSpace((Variable("X", ("a", "b")), Variable("Y", ("u", "v"))))
        kappa = OCF(space, (0, INF, 1, 2))  # (a, v) is impossible
        evidence = [EvidenceSpec("X", values=("a",)), EvidenceSpec("Y", values=("u",), strength=NEG_INF)]
        want = _outcome(lambda: _revise_item_by_item(kappa, evidence))
        assert want == (ImpossibleEvidence, "the proposition is already ruled out")
        assert _outcome(lambda: oracle_revise(kappa, evidence)) == want

    def test_one_revision_per_run_of_certain_items(self, five_node_net, monkeypatch):
        joint = five_node_net.joint()
        evidence = [
            EvidenceSpec("B", values=("b1",)),
            EvidenceSpec("E", values=("e0",), strength=NEG_INF),
            EvidenceSpec("A", values=("a0",), strength=2),
            EvidenceSpec("D", values=("d0",), strength=-1),
            EvidenceSpec("C", values=("c0",), strength=NEG_INF),
            EvidenceSpec("A", values=("a0", "a1")),
        ]
        want = _revise_item_by_item(joint, evidence)
        revisions = []
        plain = OCF.revise

        def counted(self, prop, strength):
            revisions.append(strength)
            return plain(self, prop, strength)

        monkeypatch.setattr(OCF, "revise", counted)
        assert oracle_revise(joint, evidence) == want
        # Two finite items, one of them negative (revised as its complement
        # at 1), and two runs of certain items.
        assert revisions == [INF, 2, -1, 1, INF]


class TestEnsureTractable:
    @staticmethod
    def _binary_space(n):
        return StateSpace(
            tuple(Variable(f"V{i}", ("f", "t")) for i in range(n))
        )

    def test_accepts_the_limit_exactly(self):
        space = self._binary_space(12)
        assert space.size == ORACLE_STATE_LIMIT
        ensure_tractable(space)

    def test_rejects_one_variable_past_it(self):
        space = self._binary_space(13)
        with pytest.raises(TooLargeForOracle, match="8192"):
            ensure_tractable(space)

    def test_takes_the_space_alone(self):
        # Dummies are counted where the joint's variables are known.
        with pytest.raises(TypeError):
            ensure_tractable(self._binary_space(2), 1)

    def test_guard_sits_on_the_revision_entry_point(self):
        space = self._binary_space(13)
        kappa = OCF(space, (0,) * space.size)
        with pytest.raises(TooLargeForOracle):
            oracle_revise(kappa, [])


class TestCompare:
    def test_consistent_network_matches_its_own_joint(self, five_node_net):
        report = compare(five_node_net, five_node_net.joint())
        assert report.passed
        assert report.first_divergence is None
        assert report.to_lines() == ["match"]

    def test_flags_the_first_divergent_cell(self, five_node_net):
        tables = dict(five_node_net.tables)
        ranks = list(tables["D"].ranks)
        ranks[1] += 1
        tables["D"] = OCF(tables["D"].space, tuple(ranks))
        perturbed = SpohnianNetwork(five_node_net.diagram, tables)
        report = compare(perturbed, five_node_net.joint())
        assert not report.passed
        assert report.first_divergence == ("D", ("b0", "c0", "d1"), 2, 1)
        lines = report.to_lines()
        assert lines[0] == "DIVERGENCE"
        assert lines[1] == "node=D state=b0,c0,d1 engine=2 oracle=1"


    def test_reports_what_a_cell_walk_finds_first(self):
        # Random networks with INF cells, some tables changed in a few cells
        # (to INF, or from INF): the report names the first differing cell
        # of the first differing family in declared order.
        rng = random.Random(17)
        for _ in range(60):
            net = random_instance(rng, rng.randint(2, 6), p_inf=0.3)
            tables = dict(net.tables)
            for name in rng.sample(net.diagram.names, rng.randint(0, 2)):
                ranks = list(tables[name].ranks)
                for i in rng.sample(range(len(ranks)), rng.randint(1, 2)):
                    if ranks[i] is INF or ranks[i] > 0:  # every 0 stays
                        ranks[i] = 0 if ranks[i] is INF else rng.choice((INF, ranks[i] + 1))
                tables[name] = OCF(tables[name].space, ranks)
            want = None
            for name in net.diagram.names:
                got, oracle = tables[name], net.tables[name]
                diff = [i for i in range(len(got.ranks)) if got.ranks[i] != oracle.ranks[i]]
                if diff:
                    i = diff[0]
                    want = (name, got.space.state_at(i), got.ranks[i], oracle.ranks[i])
                    break
            report = compare(SpohnianNetwork(net.diagram, tables), net.joint())
            assert report.first_divergence == want
            assert report.passed == (want is None)


class TestIndependenceAudit:
    def test_disconnected_pair_is_separated_and_independent(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        dia = InfluenceDiagram((a, b), ())
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 1)),
                "B": OCF(StateSpace((b,)), (0, 2)),
            },
        )
        report = independence_audit(net.joint(), dia)
        assert report.passed
        assert len(report.independence_audit) == 1
        entry = report.independence_audit[0]
        assert (entry.x, entry.y, entry.given) == ("A", "B", ())
        assert entry.separated and entry.independent
        assert report.to_lines()[1] == (
            "pair=A,B given=- separated=true independent=true"
        )

    def test_five_node_topology(self, five_node_net):
        report = independence_audit(five_node_net.joint(), five_node_net.diagram)
        # 10 pairs, conditioning sets of size 0..2 drawn from the other three
        assert len(report.independence_audit) == 70
        assert report.passed
        by_key = {(e.x, e.y, e.given): e for e in report.independence_audit}
        # B screens A off from D
        screened = by_key[("A", "D", ("B",))]
        assert screened.separated and screened.independent
        # the co-parents of D are connected only through a head-to-head node,
        # which never separates, yet these tables make them independent anyway
        coparents = by_key[("B", "C", ())]
        assert not coparents.separated
        assert coparents.independent

    def test_separation_is_sound_on_random_networks(self):
        rng = random.Random(47)
        for _ in range(8):
            net = random_instance(rng, rng.randint(2, 6), p_detach=0.2)
            report = independence_audit(net.joint(), net.diagram)
            assert report.passed
            for entry in report.independence_audit:
                if entry.separated:
                    assert entry.independent

    def test_max_given_bounds_the_conditioning_sets(self, five_node_net):
        report = independence_audit(
            five_node_net.joint(), five_node_net.diagram, max_given=0
        )
        assert len(report.independence_audit) == 10
        assert all(e.given == () for e in report.independence_audit)
