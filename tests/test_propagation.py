import random
import re

import pytest

from spohn import (
    INF,
    NEG_INF,
    OCF,
    EvidenceSpec,
    InfluenceDiagram,
    Proposition,
    Schedule,
    SpohnianNetwork,
    StateSpace,
    Variable,
    augment_with_dummy,
    compare,
    oracle_impose,
    oracle_revise,
    propagate_certain_multi,
    propagate_single,
    propagate_uncertain_multi,
)
from spohn.errors import (
    ContradictoryEvidence,
    DuplicateTargetVariable,
    EmptyProposition,
    ImpossibleEvidence,
    InvalidNetwork,
    SpaceMismatch,
    UnknownValue,
    UnknownVariable,
)

from generators import (
    random_certain_evidence,
    random_instance,
    random_network,
    random_target,
    random_value_evidence,
)


def oracle_matches(net, evidence, result):
    report = compare(result, oracle_revise(net.joint(), evidence))
    assert report.passed, report.first_divergence
    return True


class TestEvidenceSpec:
    def test_needs_exactly_one_payload(self):
        with pytest.raises(ValueError):
            EvidenceSpec("X")
        with pytest.raises(ValueError):
            EvidenceSpec("X", values=("a",), target=(0, 1))
        with pytest.raises(ValueError):
            EvidenceSpec("X", values=())
        with pytest.raises(ValueError, match="takes no strength"):
            EvidenceSpec("X", target=(0, 1), strength=3)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule("lifo")
        with pytest.raises(ValueError):
            Schedule("random")
        with pytest.raises(ValueError):
            Schedule("fifo", seed=5)
        assert Schedule.seeded(3).seed == 3


class TestSingleEvidence:
    def test_bird_lesson_updates_the_chain(self, penguin_net):
        ev = EvidenceSpec(
            "species", values=("PENGUIN", "TYPICAL-BIRD"), strength=1
        )
        post = propagate_single(penguin_net, ev)
        assert post.tables["flight"].ranks == (2, 1, 0, 1, 1, 1)
        assert post.marginal("species").ranks == (1, 0, 1)
        oracle_matches(penguin_net, [ev], post)

    def test_random_instances_match_the_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            net = random_instance(rng, rng.randint(2, 7))
            ev = random_value_evidence(rng, net)
            oracle_matches(net, [ev], propagate_single(net, ev))

    def test_instances_with_impossible_cells_match_too(self):
        rng = random.Random(32)
        done = 0
        while done < 20:
            net = random_instance(rng, rng.randint(2, 6), p_inf=0.15)
            ev = random_value_evidence(rng, net)
            prior = net.marginal(ev.variable)
            prop = Proposition.constrain(prior.space, {ev.variable: ev.values})
            if prior.rank_of(prop) is INF:
                continue  # evidence itself ruled out; different contract
            oracle_matches(net, [ev], propagate_single(net, ev))
            done += 1

    def test_zero_strength_still_normalizes_toward_the_evidence(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=0)
        post = propagate_single(penguin_net, ev)
        oracle_matches(penguin_net, [ev], post)
        assert post.marginal("species").ranks[0] == 0

    def test_certain_strength_conditions(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=INF)
        post = propagate_single(penguin_net, ev)
        assert post.marginal("species").ranks == (0, INF, INF)
        assert post.marginal("flight").ranks == (1, 0)
        oracle_matches(penguin_net, [ev], post)

    def test_negative_infinite_strength_excludes_the_values(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=NEG_INF)
        post = propagate_single(penguin_net, ev)
        assert post.marginal("species").ranks[0] is INF

    @pytest.mark.parametrize(
        "strength, error", [(NEG_INF, ImpossibleEvidence), (-1, EmptyProposition)]
    )
    def test_disbelieving_the_full_domain_is_refused(self, penguin_net, strength, error):
        everything = penguin_net.diagram.variable("species").domain
        trace = []
        with pytest.raises(error):
            propagate_single(
                penguin_net,
                EvidenceSpec("species", values=everything, strength=strength),
                trace=trace,
            )
        assert trace == []

    @pytest.mark.parametrize("strength", [2, INF])
    def test_unknown_value_raises_before_any_message(self, penguin_net, strength):
        trace = []
        with pytest.raises(UnknownValue):
            propagate_single(
                penguin_net,
                EvidenceSpec("species", values=("DODO",), strength=strength),
                trace=trace,
            )
        assert trace == []

    @pytest.mark.parametrize("strength", [2, INF])
    def test_ruled_out_evidence_raises_before_any_message(self, strength):
        a = Variable("A", ("a0", "a1"))
        net = SpohnianNetwork(
            InfluenceDiagram((a,), ()), {"A": OCF(StateSpace((a,)), (0, INF))}
        )
        trace = []
        with pytest.raises(ImpossibleEvidence):
            propagate_single(
                net, EvidenceSpec("A", values=("a1",), strength=strength), trace=trace
            )
        assert trace == []

    def test_families_off_the_component_are_untouched(self):
        a, b, c = (Variable(n, (n.lower() + "0", n.lower() + "1")) for n in "ABC")
        dia = InfluenceDiagram((a, b, c), (("A", "B"),))
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 1)),
                "B": OCF(StateSpace((a, b)), (0, 2, 1, 1)),
                "C": OCF(StateSpace((c,)), (0, 4)),
            },
        )
        post = propagate_single(net, EvidenceSpec("A", values=("a1",), strength=2))
        assert post.tables["C"] == net.tables["C"]
        assert post.tables["B"] != net.tables["B"]

    def test_invalid_network_is_rejected_up_front(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        dia = InfluenceDiagram((a, b), (("A", "B"),))
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 2)),
                "B": OCF(StateSpace((a, b)), (0, 1, 0, 1)),
            },
        )
        with pytest.raises(InvalidNetwork):
            propagate_single(net, EvidenceSpec("A", values=("a0",), strength=1))

    def test_target_payload_is_refused(self, penguin_net):
        with pytest.raises(ValueError):
            propagate_single(penguin_net, EvidenceSpec("flight", target=(0, 1)))

    def test_unknown_variable_raises(self, penguin_net):
        with pytest.raises(UnknownVariable):
            propagate_single(penguin_net, EvidenceSpec("beak", values=("x",), strength=1))

    def test_trace_is_sequential_and_parseable(self, five_node_net):
        trace = []
        propagate_single(
            five_node_net,
            EvidenceSpec("A", values=("a1",), strength=2),
            trace=trace,
        )
        assert [t.seq for t in trace] == list(range(1, len(trace) + 1))
        assert trace[0].edge == ("A", "A")
        pat = re.compile(r"^seq=\d+ edge=\w+->\w+ var=\w+ deltas=\[[-0-9a-z,]+\]$")
        for entry in trace:
            assert pat.match(entry.format()), entry.format()
        # injection, then one entry per delivery: B from A and D from B. C's
        # marginal is untouched (the update reaches it only through the
        # collider at D), so D sends nothing on to C and E stays silent.
        assert [(t.edge, t.variable) for t in trace] == [
            (("A", "A"), "A"),
            (("A", "B"), "A"),
            (("B", "D"), "B"),
        ]


class TestCertainMulti:
    def test_matches_oracle_conjunction(self):
        rng = random.Random(41)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 7), p_detach=0.0)
            k = rng.randint(1, min(3, len(net.diagram.names)))
            evidence = random_certain_evidence(rng, net, k)
            result = propagate_certain_multi(net, evidence, Schedule.fifo())
            oracle_matches(net, evidence, result)

    def test_every_schedule_lands_on_the_same_tables(self):
        rng = random.Random(42)
        for _ in range(5):
            net = random_instance(rng, 6, p_detach=0.0)
            evidence = random_certain_evidence(rng, net, 2)
            baseline = propagate_certain_multi(net, evidence, Schedule.fifo())
            for seed in range(12):
                again = propagate_certain_multi(net, evidence, Schedule.seeded(seed))
                assert again == baseline

    def test_evidence_order_in_the_list_does_not_matter(self):
        rng = random.Random(43)
        net = random_instance(rng, 6, p_detach=0.0)
        evidence = random_certain_evidence(rng, net, 3)
        forward = propagate_certain_multi(net, evidence, Schedule.fifo())
        backward = propagate_certain_multi(net, evidence[::-1], Schedule.fifo())
        assert forward == backward

    def test_diagram_queries_stay_local(self, monkeypatch):
        # Per-node work must not scan the whole diagram: the engine reads no
        # incident_edges, and families are looked up a bounded number of
        # times per node.
        n = 200
        variables = tuple(Variable(f"V{i}", ("x", "y")) for i in range(n))
        chain = InfluenceDiagram(variables, tuple((f"V{i}", f"V{i + 1}") for i in range(n - 1)))
        net = random_network(random.Random(44), chain)
        evidence = [
            EvidenceSpec("V0", values=("x",), strength=INF),
            EvidenceSpec(f"V{n - 1}", values=("y",), strength=INF),
        ]
        calls = {"incident_edges": 0, "family_variables": 0}
        for name in calls:
            real = getattr(InfluenceDiagram, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(InfluenceDiagram, name, counted)
        propagate_certain_multi(net, evidence, Schedule.fifo())
        assert calls["incident_edges"] == 0
        assert calls["family_variables"] <= 2 * n

    def test_each_edge_marginal_is_read_once(self, monkeypatch):
        # The engine makes no validation pass of its own: validation's
        # per-edge read is its starting snapshots, so a call projects each
        # edge's two tables once, plus the observed table twice (its prior
        # marginal and the injection).
        n = 200
        variables = tuple(Variable(f"V{i}", ("x", "y")) for i in range(n))
        chain = InfluenceDiagram(variables, tuple((f"V{i}", f"V{i + 1}") for i in range(n - 1)))
        net = random_network(random.Random(45), chain)
        evidence = [EvidenceSpec(f"V{n // 2}", values=("y",), strength=INF)]
        expected = propagate_certain_multi(net, evidence, Schedule.fifo())
        calls = {"validate": 0, "projection": 0}
        for name, owner in (("validate", SpohnianNetwork), ("projection", StateSpace)):
            real = getattr(owner, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(owner, name, counted)
        assert propagate_certain_multi(net, evidence, Schedule.fifo()) == expected
        assert calls["validate"] == 0
        assert calls["projection"] <= 2 * len(chain.edges) + 2

    def test_repeated_variable_evidence_is_a_conjunction(self, five_node_net):
        evidence = [
            EvidenceSpec("B", values=("b0", "b1"), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        result = propagate_certain_multi(five_node_net, evidence, Schedule.fifo())
        oracle_matches(five_node_net, evidence, result)
        assert result.marginal("B").ranks == (INF, 0)

    def test_contradiction_is_reported(self, five_node_net):
        evidence = [
            EvidenceSpec("B", values=("b0",), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        with pytest.raises(ContradictoryEvidence):
            propagate_certain_multi(five_node_net, evidence, Schedule.fifo())

    def test_indirect_contradiction_travels_the_network(self):
        # B's table rules out b1 under a0; making both certain is contradictory
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        dia = InfluenceDiagram((a, b), (("A", "B"),))
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 1)),
                "B": OCF(StateSpace((a, b)), (0, INF, 1, 2)),
            },
        )
        evidence = [
            EvidenceSpec("A", values=("a0",), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        with pytest.raises(ContradictoryEvidence):
            propagate_certain_multi(net, evidence, Schedule.fifo())

    def test_evidence_already_ruled_out_raises(self):
        a = Variable("A", ("a0", "a1"))
        dia = InfluenceDiagram((a,), ())
        net = SpohnianNetwork(dia, {"A": OCF(StateSpace((a,)), (0, INF))})
        with pytest.raises(ImpossibleEvidence):
            propagate_certain_multi(
                net, [EvidenceSpec("A", values=("a1",), strength=INF)], Schedule.fifo()
            )

    def test_finite_strength_is_refused(self, five_node_net):
        with pytest.raises(ValueError):
            propagate_certain_multi(
                five_node_net,
                [EvidenceSpec("B", values=("b0",), strength=2)],
                Schedule.fifo(),
            )


class TestDummyNodes:
    def test_pair_table_holds_target_under_observed(self):
        a = Variable("A", ("a0", "a1"))
        dia = InfluenceDiagram((a,), ())
        net = SpohnianNetwork(dia, {"A": OCF(StateSpace((a,)), (0, 1))})
        target = OCF(StateSpace((a,)), (1, 0))
        augmented, dummy = augment_with_dummy(net, "A", target)
        assert dummy.domain == ("observed", "unobserved")
        table = augmented.tables[dummy.name]
        # offset is 1: rows are (target + 1, current) per value
        assert table.ranks == (2, 0, 1, 1)
        # attaching the dummy must not move A's marginal
        assert augmented.marginal("A").ranks == (0, 1)
        assert augmented.validate().ok

    def test_conditional_on_observed_is_the_target(self):
        rng = random.Random(51)
        for _ in range(40):
            dom = tuple(f"x{i}" for i in range(rng.randint(2, 4)))
            v = Variable("V", dom)
            dia = InfluenceDiagram((v,), ())
            current = random_target(rng, dom, p_inf=0.2)
            target = random_target(rng, dom, p_inf=0.2)
            if any(
                t is not INF and c is INF for t, c in zip(target, current)
            ):
                net = SpohnianNetwork(dia, {"V": OCF(StateSpace((v,)), current)})
                with pytest.raises(ImpossibleEvidence):
                    augment_with_dummy(net, "V", OCF(StateSpace((v,)), target))
                continue
            net = SpohnianNetwork(dia, {"V": OCF(StateSpace((v,)), current)})
            augmented, dummy = augment_with_dummy(
                net, "V", OCF(StateSpace((v,)), target)
            )
            pair = augmented.tables[dummy.name]
            observed = Proposition.constrain(
                pair.space, {dummy.name: ("observed",)}
            )
            k_obs = pair.rank_of(observed)
            got = tuple(
                pair.cond_rank(
                    Proposition.constrain(pair.space, {"V": (val,)}), observed
                )
                for val in dom
            )
            assert got == target
            assert augmented.marginal("V").ranks == current
            assert k_obs is not INF

    def test_dummy_name_avoids_collisions(self):
        a = Variable("A", ("a0", "a1"))
        shadow = Variable("_observe_A", ("u", "v"))
        dia = InfluenceDiagram((a, shadow), ())
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 1)),
                "_observe_A": OCF(StateSpace((shadow,)), (0, 0)),
            },
        )
        _, dummy = augment_with_dummy(net, "A", OCF(StateSpace((a,)), (0, 2)))
        assert dummy.name == "__observe_A"

    def test_target_over_the_wrong_space_is_rejected(self, penguin_net):
        flight = penguin_net.diagram.variable("flight")
        bad = OCF(StateSpace((flight,)), (0, 1))
        with pytest.raises(SpaceMismatch):
            augment_with_dummy(penguin_net, "species", bad)


class TestUncertainMulti:
    def test_single_target_imposes_the_marginal(self, five_node_net):
        b = five_node_net.diagram.variable("B")
        target = OCF(StateSpace((b,)), (3, 0))
        post = propagate_uncertain_multi(
            five_node_net, [("B", target)], Schedule.fifo()
        )
        assert post.marginal("B").ranks == (3, 0)
        assert set(post.diagram.names) == set(five_node_net.diagram.names)

    def test_single_target_matches_the_oracle_pipeline(self):
        rng = random.Random(52)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 6), p_detach=0.0)
            name = rng.choice(net.diagram.names)
            var = net.diagram.variable(name)
            target = OCF(StateSpace((var,)), random_target(rng, var.domain))
            post = propagate_uncertain_multi(net, [(name, target)], Schedule.fifo())
            report = compare(post, oracle_impose(net, [(name, target)]))
            assert report.passed, report.first_divergence
            assert post.marginal(name).ranks == target.ranks

    def test_multi_target_matches_the_oracle_pipeline(self):
        rng = random.Random(53)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 6), max_domain=2, p_detach=0.1)
            names = rng.sample(net.diagram.names, rng.randint(2, len(net.diagram.names)))
            targets = []
            for name in names:
                var = net.diagram.variable(name)
                targets.append((name, OCF(StateSpace((var,)), random_target(rng, var.domain))))
            post = propagate_uncertain_multi(net, targets, Schedule.seeded(rng.randrange(99)))
            report = compare(post, oracle_impose(net, targets))
            assert report.passed, report.first_divergence

    def test_target_is_the_first_message(self, five_node_net):
        c = five_node_net.diagram.variable("C")
        trace = []
        propagate_uncertain_multi(
            five_node_net, [("C", OCF(StateSpace((c,)), (2, 0)))], trace=trace
        )
        # target (2, 0) minus the current marginal (0, 3)
        assert (trace[0].edge, trace[0].variable, trace[0].deltas) == (
            ("C", "C"),
            "C",
            (2, -3),
        )
        assert {t.edge[1] for t in trace} <= set(five_node_net.diagram.names)

    @pytest.mark.parametrize(
        "over, ranks, error",
        [("B", (0, 1), SpaceMismatch), ("A", (1, 0), ImpossibleEvidence)],
    )
    def test_bad_targets_raise_before_any_message(self, over, ranks, error):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = SpohnianNetwork(
            InfluenceDiagram((a, b), ()),
            {"A": OCF(StateSpace((a,)), (0, INF)), "B": OCF(StateSpace((b,)), (0, 1))},
        )
        bad = OCF(StateSpace((net.diagram.variable(over),)), ranks)
        trace = []
        with pytest.raises(error):
            propagate_uncertain_multi(
                net, [("B", OCF(StateSpace((b,)), (1, 0))), ("A", bad)], trace=trace
            )
        assert trace == []

    def test_target_equal_to_the_current_marginal_changes_nothing(self, five_node_net):
        c = five_node_net.diagram.variable("C")
        target = OCF(StateSpace((c,)), five_node_net.marginal("C").ranks)
        post = propagate_uncertain_multi(five_node_net, [("C", target)], Schedule.fifo())
        assert post == five_node_net

    def test_duplicate_targets_are_rejected(self, five_node_net):
        b = five_node_net.diagram.variable("B")
        t = OCF(StateSpace((b,)), (0, 1))
        with pytest.raises(DuplicateTargetVariable):
            propagate_uncertain_multi(five_node_net, [("B", t), ("B", t)], Schedule.fifo())

    def test_no_targets_is_the_identity(self, five_node_net):
        assert propagate_uncertain_multi(five_node_net, [], Schedule.fifo()) is five_node_net

    def test_dependent_targets_drift_from_their_marginals(self):
        # the combination method merges independent update sources; imposing
        # targets on a variable and its child does not pin both marginals
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        dia = InfluenceDiagram((a, b), (("A", "B"),))
        net = SpohnianNetwork(
            dia,
            {
                "A": OCF(StateSpace((a,)), (0, 0)),
                "B": OCF(StateSpace((a, b)), (0, 2, 2, 0)),
            },
        )
        targets = [
            ("A", OCF(StateSpace((a,)), (0, 2))),
            ("B", OCF(StateSpace((b,)), (0, 3))),
        ]
        post = propagate_uncertain_multi(net, targets, Schedule.fifo())
        # frozen drift: each source also shifts the other variable, so both
        # marginals land past their stipulated targets
        assert post.marginal("A").ranks == (0, 4)
        assert post.marginal("B").ranks == (0, 5)
        # the engine still agrees with brute force on the combined update
        report = compare(post, oracle_impose(net, targets))
        assert report.passed, report.first_divergence
