"""Brute-force reference path: evidence folding, table diffing, the audit."""

import random

import pytest

from generators import random_instance
from spohn import (
    INF,
    OCF,
    ORACLE_STATE_LIMIT,
    EvidenceSpec,
    InfluenceDiagram,
    Proposition,
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
