import copy
import operator
import pickle
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    oracle_posterior,
    oracle_revise,
    propagate,
    propagate_certain_multi,
    propagate_single,
    propagate_uncertain_multi,
)
from spohn.errors import (
    ContradictoryEvidence,
    TooLargeForOracle,
    SpohnError,
    DuplicateTargetVariable,
    EmptyProposition,
    ImpossibleEvidence,
    InvalidNetwork,
    SpaceMismatch,
    UnknownValue,
    UnknownVariable,
)

import spohn
import spohn.network
import spohn.ocf
import spohn.propagation
from spohn.oracle import ORACLE_STATE_LIMIT
from spohn.ranks import rank_delta, s_normalize

from generators import (
    random_certain_evidence,
    random_instance,
    random_mixed_evidence,
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

    @pytest.mark.parametrize("strength", ["inf", None, True, False, 1.5, float("inf")])
    def test_strength_is_an_int_or_an_infinity(self, strength):
        with pytest.raises(ValueError, match="strength must be"):
            EvidenceSpec("X", values=("a",), strength=strength)

    @pytest.mark.parametrize("target", [(1, 2), (0, -1), (0, "inf"), (0, True), (False, 1), (0, None)])
    def test_target_entries_are_ranks_with_a_zero(self, target):
        with pytest.raises(ValueError, match="target needs ranks"):
            EvidenceSpec("X", target=target)

    def test_values_must_not_be_a_string(self):
        # A bare string would split into its characters, one value each.
        with pytest.raises(ValueError, match="not a string"):
            EvidenceSpec("species", values="PENGUIN")
        assert EvidenceSpec("species", values=["PENGUIN"]).values == ("PENGUIN",)

    def test_a_target_may_rule_values_out(self):
        assert EvidenceSpec("X", target=[INF, 0]).target == (INF, 0)

    def test_schedule_validation(self):
        # A schedule is its seed, given by keyword: there is no policy
        # argument, and a string is never taken as a seed.
        for args, kwargs in ((("lifo",), {}), (("random",), {}), (("fifo",), {"seed": 5})):
            with pytest.raises(TypeError):
                Schedule(*args, **kwargs)
        assert Schedule() == Schedule.fifo() and Schedule.fifo().seed is None
        assert Schedule(seed=3) == Schedule.seeded(3) and Schedule.seeded(3).seed == 3
        with pytest.raises(ValueError, match="random schedule needs a seed"):
            Schedule.seeded(None)

    def test_a_seed_that_is_not_an_int_is_refused_at_construction(self):
        # Refused before the engine builds a message, not by random's TypeError.
        for seed in ("abc", 2.5, True, False, [1], 3.0):
            for make in (lambda: Schedule(seed=seed), lambda: Schedule.seeded(seed)):
                with pytest.raises(ValueError, match=r"^schedule seed must be an int, got "):
                    make()
        assert Schedule(seed=2**80).seed == 2**80 and Schedule.seeded(-5).seed == -5


class TestSingleEvidence:
    def test_bird_lesson_updates_the_chain(self, penguin_net):
        ev = EvidenceSpec(
            "species", values=("PENGUIN", "TYPICAL-BIRD"), strength=1
        )
        post = propagate(penguin_net, [ev])
        assert post.tables["flight"].ranks == (2, 1, 0, 1, 1, 1)
        assert post.marginal("species").ranks == (1, 0, 1)
        oracle_matches(penguin_net, [ev], post)

    def test_random_instances_match_the_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            net = random_instance(rng, rng.randint(2, 7))
            ev = random_value_evidence(rng, net)
            oracle_matches(net, [ev], propagate(net, [ev]))

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
            oracle_matches(net, [ev], propagate(net, [ev]))
            done += 1

    def test_zero_strength_still_normalizes_toward_the_evidence(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=0)
        post = propagate(penguin_net, [ev])
        oracle_matches(penguin_net, [ev], post)
        assert post.marginal("species").ranks[0] == 0

    def test_certain_strength_conditions(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=INF)
        post = propagate(penguin_net, [ev])
        assert post.marginal("species").ranks == (0, INF, INF)
        assert post.marginal("flight").ranks == (1, 0)
        oracle_matches(penguin_net, [ev], post)

    def test_negative_infinite_strength_excludes_the_values(self, penguin_net):
        ev = EvidenceSpec("species", values=("PENGUIN",), strength=NEG_INF)
        post = propagate(penguin_net, [ev])
        assert post.marginal("species").ranks[0] is INF

    @pytest.mark.parametrize(
        "strength, error", [(NEG_INF, ImpossibleEvidence), (-1, EmptyProposition)]
    )
    def test_disbelieving_the_full_domain_is_refused(self, penguin_net, strength, error):
        everything = penguin_net.diagram.variable("species").domain
        trace = []
        with pytest.raises(error):
            propagate(
                penguin_net,
                [EvidenceSpec("species", values=everything, strength=strength)],
                trace=trace,
            )
        assert trace == []

    @pytest.mark.parametrize("strength", [2, INF, NEG_INF, -1])
    def test_unknown_value_raises_before_any_message(self, penguin_net, strength):
        trace = []
        with pytest.raises(UnknownValue):
            propagate(
                penguin_net,
                [EvidenceSpec("species", values=("DODO",), strength=strength)],
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
            propagate(
                net, [EvidenceSpec("A", values=("a1",), strength=strength)], trace=trace
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
        post = propagate(net, [EvidenceSpec("A", values=("a1",), strength=2)])
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
            propagate(net, [EvidenceSpec("A", values=("a0",), strength=1)])

    def test_unknown_variable_raises(self, penguin_net):
        with pytest.raises(UnknownVariable):
            propagate(penguin_net, [EvidenceSpec("beak", values=("x",), strength=1)])

    def test_trace_is_sequential_and_parseable(self, five_node_net):
        trace = []
        propagate(
            five_node_net,
            [EvidenceSpec("A", values=("a1",), strength=2)],
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

    def test_a_reused_trace_numbers_each_call_from_one(self, five_node_net):
        evidence = [EvidenceSpec("B", values=("b1",)), EvidenceSpec("E", values=("e1",))]
        for schedule in (Schedule.fifo(), Schedule.seeded(7)):
            alone: list = []
            propagate(five_node_net, evidence, schedule, alone)
            trace: list = []
            propagate(five_node_net, evidence[:1], schedule, trace)
            earlier = list(trace)
            propagate(five_node_net, evidence, schedule, trace)
            assert trace[: len(earlier)] == earlier and trace[len(earlier):] == alone
            assert [t.seq for t in alone] == list(range(1, len(alone) + 1))


class TestCertainMulti:
    def test_matches_oracle_conjunction(self):
        rng = random.Random(41)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 7), p_detach=0.0)
            k = rng.randint(1, min(3, len(net.diagram.names)))
            evidence = random_certain_evidence(rng, net, k)
            result = propagate(net, evidence, Schedule.fifo())
            oracle_matches(net, evidence, result)

    def test_every_schedule_lands_on_the_same_tables(self):
        rng = random.Random(42)
        for _ in range(5):
            net = random_instance(rng, 6, p_detach=0.0)
            evidence = random_certain_evidence(rng, net, 2)
            baseline = propagate(net, evidence, Schedule.fifo())
            for seed in range(12):
                again = propagate(net, evidence, Schedule.seeded(seed))
                assert again == baseline

    def test_evidence_order_in_the_list_does_not_matter(self):
        rng = random.Random(43)
        net = random_instance(rng, 6, p_detach=0.0)
        evidence = random_certain_evidence(rng, net, 3)
        forward = propagate(net, evidence, Schedule.fifo())
        backward = propagate(net, evidence[::-1], Schedule.fifo())
        assert forward == backward

    def test_diagram_queries_stay_local(self, monkeypatch):
        # Per-node work must not scan the whole diagram: the engine reads no
        # incident_edges, and families are looked up a bounded number of
        # times per node, on a call whose messages reach every node.
        net, evidence = _copying_chain(200)
        calls = {"incident_edges": 0, "family_variables": 0}
        for name in calls:
            real = getattr(InfluenceDiagram, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(InfluenceDiagram, name, counted)
        trace = []
        propagate(net, evidence, Schedule.fifo(), trace)
        assert {entry.edge[1] for entry in trace} == set(net.diagram.names)
        assert calls["incident_edges"] == 0
        assert calls["family_variables"] <= 2 * len(net.diagram.names)

    def test_each_edge_marginal_is_read_once(self, monkeypatch):
        # The engine makes no validate() call of its own: its gate reads each
        # edge's two tables once per network, so a call projects at most each
        # edge's two tables once, plus the observed table twice (its prior
        # marginal and the injection). The one observation in the middle
        # reaches every node.
        net, _ = _copying_chain(200)
        evidence = [EvidenceSpec("V100", values=("y",), strength=INF)]
        trace = []
        expected = propagate(net, evidence, Schedule.fifo(), trace)
        assert {entry.edge[1] for entry in trace} == set(net.diagram.names)
        net = SpohnianNetwork(net.diagram, dict(net.tables))
        calls = {"validate": 0, "projection": 0}
        for name, owner in (("validate", SpohnianNetwork), ("projection", StateSpace)):
            real = getattr(owner, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(owner, name, counted)
        assert propagate(net, evidence, Schedule.fifo()) == expected
        assert calls["validate"] == 0
        assert calls["projection"] <= 2 * len(net.diagram.edges) + 2

    def test_each_edge_keeps_one_snapshot(self, monkeypatch):
        # Both ends of an edge share one snapshot of its marginal, which
        # starts as the shared variable's marginal read through marginal():
        # a call reads each edge's starting marginal at most once, plus one
        # marginal per send. Surprising observations at both ends of a
        # copying chain send a message each way along every edge. The gate
        # is computed first, so its validation passes are not counted.
        net, evidence = _copying_chain(200)
        net._gate
        calls = 0
        real = spohn.ocf._least_ranks

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(spohn.propagation, "_least_ranks", counted)
        monkeypatch.setattr(spohn.network, "_least_ranks", counted)
        trace = []
        propagate(net, evidence, Schedule.fifo(), trace)
        assert len(trace) == len(evidence) + 2 * len(net.diagram.edges)
        assert calls <= len(net.diagram.edges) + len(trace)

    def test_repeated_variable_evidence_is_a_conjunction(self, five_node_net):
        evidence = [
            EvidenceSpec("B", values=("b0", "b1"), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        result = propagate(five_node_net, evidence, Schedule.fifo())
        oracle_matches(five_node_net, evidence, result)
        assert result.marginal("B").ranks == (INF, 0)

    def test_contradiction_is_reported(self, five_node_net):
        evidence = [
            EvidenceSpec("B", values=("b0",), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        with pytest.raises(ContradictoryEvidence):
            propagate(five_node_net, evidence, Schedule.fifo())

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
            propagate(net, evidence, Schedule.fifo())

    def test_evidence_already_ruled_out_raises(self):
        a = Variable("A", ("a0", "a1"))
        dia = InfluenceDiagram((a,), ())
        net = SpohnianNetwork(dia, {"A": OCF(StateSpace((a,)), (0, INF))})
        with pytest.raises(ImpossibleEvidence):
            propagate(
                net, [EvidenceSpec("A", values=("a1",), strength=INF)], Schedule.fifo()
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
        # One check, one text, whether the engine or the dummy reads it.
        text = r"^target for species must be a single-variable ranking over it, got one over \('flight',\)$"
        with pytest.raises(SpaceMismatch, match=text):
            augment_with_dummy(penguin_net, "species", bad)
        with pytest.raises(SpaceMismatch, match=text):
            propagate_uncertain_multi(penguin_net, [("species", bad)])


class TestUncertainMulti:
    def test_single_target_imposes_the_marginal(self, five_node_net):
        post = propagate(
            five_node_net, [EvidenceSpec("B", target=(3, 0))], Schedule.fifo()
        )
        assert post.marginal("B").ranks == (3, 0)
        assert set(post.diagram.names) == set(five_node_net.diagram.names)

    def test_single_target_matches_the_oracle_pipeline(self):
        rng = random.Random(52)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 6), p_detach=0.0)
            name = rng.choice(net.diagram.names)
            var = net.diagram.variable(name)
            evidence = [EvidenceSpec(name, target=random_target(rng, var.domain))]
            post = propagate(net, evidence, Schedule.fifo())
            report = compare(post, oracle_posterior(net, evidence))
            assert report.passed, report.first_divergence
            assert post.marginal(name).ranks == evidence[0].target

    def test_multi_target_matches_the_oracle_pipeline(self):
        rng = random.Random(53)
        for _ in range(25):
            net = random_instance(rng, rng.randint(2, 6), max_domain=2, p_detach=0.1)
            names = rng.sample(net.diagram.names, rng.randint(2, len(net.diagram.names)))
            evidence = [
                EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))
                for name in names
            ]
            post = propagate(net, evidence, Schedule.seeded(rng.randrange(99)))
            report = compare(post, oracle_posterior(net, evidence))
            assert report.passed, report.first_divergence

    def test_target_is_the_first_message(self, five_node_net):
        trace = []
        propagate(five_node_net, [EvidenceSpec("C", target=(2, 0))], trace=trace)
        # target (2, 0) minus the current marginal (0, 3)
        assert (trace[0].edge, trace[0].variable, trace[0].deltas) == (
            ("C", "C"),
            "C",
            (2, -3),
        )
        assert {t.edge[1] for t in trace} <= set(five_node_net.diagram.names)

    @pytest.mark.parametrize(
        "variable, ranks, error",
        [("B", (0, 1, 2), SpaceMismatch), ("A", (1, 0), ImpossibleEvidence)],
    )
    def test_bad_targets_raise_before_any_message(self, variable, ranks, error):
        # A target of the wrong length, or one that gives a ruled-out value a
        # finite rank, after an item that alone would send messages.
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = SpohnianNetwork(
            InfluenceDiagram((a, b), ()),
            {"A": OCF(StateSpace((a,)), (0, INF)), "B": OCF(StateSpace((b,)), (0, 1))},
        )
        trace = []
        with pytest.raises(error):
            propagate(
                net,
                [EvidenceSpec("B", values=("b1",), strength=2), EvidenceSpec(variable, target=ranks)],
                trace=trace,
            )
        assert trace == []

    def test_target_equal_to_the_current_marginal_changes_nothing(self, five_node_net):
        target = EvidenceSpec("C", target=five_node_net.marginal("C").ranks)
        post = propagate(five_node_net, [target], Schedule.fifo())
        assert post == five_node_net

    def test_duplicate_targets_are_rejected(self, five_node_net):
        t = EvidenceSpec("B", target=(0, 1))
        with pytest.raises(DuplicateTargetVariable):
            propagate(five_node_net, [t, t], Schedule.fifo())

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
        evidence = [EvidenceSpec("A", target=(0, 2)), EvidenceSpec("B", target=(0, 3))]
        post = propagate(net, evidence, Schedule.fifo())
        # frozen drift: each source also shifts the other variable, so both
        # marginals land past their stipulated targets
        assert post.marginal("A").ranks == (0, 4)
        assert post.marginal("B").ranks == (0, 5)
        # the engine still agrees with brute force on the combined update
        report = compare(post, oracle_posterior(net, evidence))
        assert report.passed, report.first_divergence


class TestPropagate:
    def test_no_evidence_is_the_identity(self, five_node_net):
        for schedule in (Schedule.fifo(), Schedule.seeded(3)):
            assert propagate(five_node_net, [], schedule) is five_node_net

    def test_two_targets_on_one_variable_are_refused(self, five_node_net):
        trace = []
        with pytest.raises(DuplicateTargetVariable, match="'B'"):
            propagate(
                five_node_net,
                [
                    EvidenceSpec("B", values=("b1",)),
                    EvidenceSpec("B", target=(0, 1)),
                    EvidenceSpec("B", target=(1, 0)),
                ],
                trace=trace,
            )
        assert trace == []

    def test_value_items_may_repeat_a_variable(self, five_node_net):
        evidence = [
            EvidenceSpec("B", values=("b1",), strength=2),
            EvidenceSpec("B", values=("b1",), strength=INF),
            EvidenceSpec("B", target=(1, 0)),
        ]
        post = propagate(five_node_net, evidence)
        assert post.marginal("B").ranks == (INF, 0)

    @pytest.mark.parametrize("target", [(0,), (0, 1, 2)])
    def test_target_of_the_wrong_length_raises_before_any_message(self, five_node_net, target):
        trace = []
        with pytest.raises(SpohnError, match="needs 2 ranks"):
            propagate(
                five_node_net,
                [EvidenceSpec("A", values=("a1",)), EvidenceSpec("B", target=target)],
                trace=trace,
            )
        assert trace == []

    def test_each_older_name_is_propagate(self):
        # The mode rules are the CLI's: the library's older names take any
        # mix, a target and a finite strength included, and give propagate's
        # tables and trace.
        rng = random.Random(62)
        for _ in range(30):
            net = random_instance(rng, rng.randint(2, 5), max_domain=2, p_detach=0.2)

            def unit(variable):
                return StateSpace((net.diagram.variable(variable),))

            name = rng.choice(net.diagram.names)
            target = OCF(unit(name), random_target(rng, net.diagram.variable(name).domain))
            evidence = [
                ev for ev in random_mixed_evidence(rng, net, rng.randint(2, 4))
                if ev.variable != name or ev.target is None
            ] + [random_value_evidence(rng, net), EvidenceSpec(name, target=target.ranks)]
            targets = [(ev.variable, OCF(unit(ev.variable), ev.target)) for ev in evidence if ev.target]
            schedule = Schedule.seeded(rng.randrange(99))
            calls = [
                (lambda tr: propagate_certain_multi(net, evidence, schedule, tr), evidence, schedule),
                (lambda tr: propagate_uncertain_multi(net, targets, schedule, tr),
                 [ev for ev in evidence if ev.target], schedule),
                (lambda tr: propagate_single(net, evidence[-2], tr), evidence[-2:-1], Schedule.fifo()),
                (lambda tr: propagate_single(net, evidence[-1], tr), evidence[-1:], Schedule.fifo()),
            ]
            for call, items, order in calls:
                got, want = [], []
                post = call(got)
                assert post == propagate(net, items, order, want)
                assert got == want
                report = compare(post, oracle_posterior(net, items))
                assert report.passed, report.first_divergence

    def test_the_older_names_are_outside_all_and_still_resolve(self):
        older = ("propagate_single", "propagate_certain_multi", "propagate_uncertain_multi")
        assert not set(older) & set(spohn.__all__)
        assert all(hasattr(spohn, name) for name in spohn.__all__)
        for name in older:
            assert getattr(spohn, name) is getattr(spohn.propagation, name)

    def test_a_generator_is_read_as_its_list(self, five_node_net):
        # propagate and oracle_posterior each read their evidence once, so a
        # generator gives the list's tables, FIFO trace and oracle joint,
        # or the same error. The first case is docs/evidence_certain.json.
        rng = random.Random(66)
        cases = [("certain", five_node_net, [EvidenceSpec("B", values=("b1",)), EvidenceSpec("E", values=("e1",))])]
        for _ in range(20):
            net = random_instance(rng, rng.randint(2, 5), max_domain=2, p_detach=0.2)
            name = rng.choice(net.diagram.names)
            target = EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))
            cases += [
                ("value", net, [random_value_evidence(rng, net)]),
                ("certain", net, random_certain_evidence(rng, net, rng.randint(1, 2))),
                ("target", net, [target]),
                ("mixed", net, random_mixed_evidence(rng, net, rng.randint(2, 4))),
            ]

        def caught(call):
            try:
                return call()
            except SpohnError as exc:
                return type(exc), str(exc)

        def outcome(net, read):
            trace = []
            post = caught(lambda: propagate(net, read(), trace=trace))
            return post, trace, caught(lambda: oracle_posterior(net, read()))

        updated = set()
        for kind, net, evidence in cases:
            listed = outcome(net, lambda: list(evidence))
            assert outcome(net, lambda: (ev for ev in evidence)) == listed
            if isinstance(listed[0], SpohnianNetwork) and listed[1]:
                updated.add(kind)
        assert updated == {"value", "certain", "target", "mixed"}

    def test_mixed_evidence_is_oracle_impose_on_targets_read_on_the_prior(self):
        rng = random.Random(61)
        for _ in range(40):
            net = random_instance(rng, rng.randint(2, 5), p_detach=0.2)
            evidence = random_mixed_evidence(rng, net, rng.randint(1, 4))
            post = propagate(net, evidence, Schedule.seeded(rng.randrange(99)))
            report = compare(post, oracle_posterior(net, evidence))
            assert report.passed, report.first_divergence
            assert propagate(net, evidence) == post


def _independent_chain(n):
    """A binary chain V0 -> ... -> V{n-1} whose every conditional row is the
    same min-zero row, so a rank-0 observation moves one edge's marginal."""
    variables = tuple(Variable(f"V{i}", ("x", "y")) for i in range(n))
    chain = InfluenceDiagram(variables, tuple((f"V{i}", f"V{i + 1}") for i in range(n - 1)))
    tables = {"V0": OCF(StateSpace(variables[:1]), (0, 2))}
    for i in range(1, n):
        # parent marginal (0, 2) plus the child's row (0, 2)
        tables[f"V{i}"] = OCF(StateSpace(variables[i - 1 : i + 1]), (0, 2, 2, 4))
    return SpohnianNetwork(chain, tables)


def _copying_chain(n):
    """A binary chain V0 -> ... -> V{n-1} in which each node copies its
    parent's value at rank 1 per flip, with certain observations against
    the prior at both ends: every table changes, whatever is observed."""
    variables = tuple(Variable(f"V{i}", ("x", "y")) for i in range(n))
    chain = InfluenceDiagram(variables, tuple((f"V{i}", f"V{i + 1}") for i in range(n - 1)))
    tables = {"V0": OCF(StateSpace(variables[:1]), (0, 1))}
    for i in range(1, n):
        tables[f"V{i}"] = OCF(StateSpace(variables[i - 1 : i + 1]), (0, 1, 2, 1))
    evidence = [
        EvidenceSpec("V0", values=("y",), strength=INF),
        EvidenceSpec(f"V{n - 1}", values=("x",), strength=INF),
    ]
    return SpohnianNetwork(chain, tables), evidence


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls[name] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWarmCalls:
    def test_a_warm_call_touches_only_the_families_its_messages_reach(self, monkeypatch):
        n = 2000
        net = _independent_chain(n)
        propagate(net, [EvidenceSpec("V10", values=("y",))])
        calls = {"_check": 0, "__post_init__": 0}
        _counting(monkeypatch, SpohnianNetwork, "_check", calls)
        _counting(monkeypatch, OCF, "__post_init__", calls)
        trace = []
        out = propagate(net, [EvidenceSpec("V1000", values=("x",))], trace=trace)
        monkeypatch.undo()
        touched = {t.edge[1] for t in trace}
        assert touched == {"V1000", "V1001"}
        assert calls["_check"] == 0
        assert calls["__post_init__"] <= len(touched)
        for name in net.diagram.names:
            if name not in touched:
                assert out.tables[name] is net.tables[name]
        assert out.marginal("V1000").ranks == (0, INF)
        rebuilt = SpohnianNetwork(out.diagram, dict(out.tables))
        assert out == rebuilt
        assert pickle.loads(pickle.dumps(out)) == out
        assert copy.deepcopy(out) == out

    def test_a_second_read_builds_no_spaces(self, monkeypatch):
        # Reads share the diagram's one-variable spaces, and engine results
        # share the diagram: once every node has been read, reading all
        # marginals of the network or of a result builds no StateSpace and
        # checks no OCF: a read table keeps its marginal, and a touched
        # table's marginal is built unchecked.
        n = 2000
        net = _independent_chain(n)
        out = propagate(net, [EvidenceSpec("V1000", values=("x",))])
        first = [net.marginal(name) for name in net.diagram.names]
        for m in (net, out):
            spaces, ocfs = {"__post_init__": 0}, {"__post_init__": 0}
            _counting(monkeypatch, StateSpace, "__post_init__", spaces)
            _counting(monkeypatch, OCF, "__post_init__", ocfs)
            again = [m.marginal(name) for name in m.diagram.names]
            monkeypatch.undo()
            assert spaces["__post_init__"] == 0
            assert ocfs["__post_init__"] == 0
        assert again[0] is out.tables["V0"]
        assert all(a.space is f.space for a, f in zip(again, first))
        assert again[1000].ranks == (0, INF)

    def test_a_call_on_read_marginals_passes_over_no_input_table(self, monkeypatch):
        # Every edge's starting snapshot is the marginal already kept on the
        # input table, so every least-rank pass the call makes is over a
        # working vector (a list), never over an input table (a tuple).
        net, evidence = _copying_chain(200)
        for name in net.diagram.names:
            net.marginal(name)
        net._gate
        passed_over = []
        real = spohn.ocf._least_ranks

        def counted(ranks, *args):
            passed_over.append(type(ranks))
            return real(ranks, *args)

        monkeypatch.setattr(spohn.propagation, "_least_ranks", counted)
        monkeypatch.setattr(spohn.network, "_least_ranks", counted)
        trace = []
        propagate(net, evidence, Schedule.fifo(), trace)
        assert len(trace) == len(evidence) + 2 * len(net.diagram.edges)
        assert passed_over and set(passed_over) == {list}

    def test_results_inherit_the_marginals_read_on_their_input(self):
        # The memo lives on the table, and a result shares every table its
        # messages did not reach, so reading such a node on the result
        # returns the input's read itself; a touched node's read is its
        # new table's projection.
        net = _independent_chain(300)
        first = {name: net.marginal(name) for name in net.diagram.names}
        trace = []
        out = propagate(net, [EvidenceSpec("V150", values=("x",))], trace=trace)
        touched = {t.edge[1] for t in trace}
        assert touched == {"V150", "V151"}
        for name in net.diagram.names:
            if name in touched:
                assert out.marginal(name) == out.tables[name].marginalize((name,))
                assert out.marginal(name) is not first[name]
            else:
                assert out.marginal(name) is first[name]
        assert out.marginal("V150").ranks == (0, INF)

    def test_reads_on_results_are_their_table_and_joint_projection(self):
        # Read every marginal before and after each call, so results start
        # with the memos their input's reads left on shared tables.
        rng = random.Random(69)
        for _ in range(40):
            net = random_instance(rng, rng.randint(2, 6), p_inf=0.1)
            before = {name: net.marginal(name) for name in net.diagram.names}
            evidence = random_mixed_evidence(rng, net, rng.randint(1, 3))
            schedule = rng.choice([Schedule.fifo(), Schedule.seeded(rng.randrange(99))])
            trace = []
            try:
                out = propagate(net, evidence, schedule, trace)
            except (ImpossibleEvidence, ContradictoryEvidence):
                continue
            touched = {t.edge[1] for t in trace}
            joint = out.joint()
            for name in out.diagram.names:
                marg = out.marginal(name)
                assert marg == out.tables[name].marginalize((name,))
                assert marg == joint.marginalize((name,))
                if name not in touched:
                    assert marg is before[name]

    def test_a_shift_stays_with_its_sender(self):
        # Observing the last node's surprising value adds 2 to its parent's
        # marginal at every value, which s-normalization undoes: no message
        # leaves the observed node, and every other table and its read
        # marginal is the input's own.
        net = _independent_chain(10)
        first = {name: net.marginal(name) for name in net.diagram.names}
        evidence = [EvidenceSpec("V9", values=("y",))]
        expected = SpohnianNetwork.from_joint(oracle_revise(net.joint(), evidence), net.diagram)
        for schedule in (Schedule.fifo(), Schedule.seeded(5)):
            trace = []
            out = propagate(net, evidence, schedule, trace)
            assert [t.format() for t in trace] == ["seq=1 edge=V9->V9 var=V9 deltas=[inf,0]"]
            for name in net.diagram.names[:-1]:
                assert out.tables[name] is net.tables[name]
                assert out.marginal(name) is first[name]
            assert out.tables["V9"].ranks == (INF, 0, INF, 2)
            assert out == expected

    def test_the_rooting_is_made_once_for_calls_with_several_observations(self):
        # A single observation roots its own wave; several share the
        # network's rooting, made on the first such call and handed on to
        # results like the gate, so no warm call walks the whole network.
        net = _independent_chain(50)
        one = [EvidenceSpec("V10", values=("y",))]
        single = propagate(net, one)
        assert "_rooting" not in net.__dict__ and "_rooting" not in single.__dict__
        two = one + [EvidenceSpec("V30", values=("y",))]
        out = propagate(net, two)
        rooting = net.__dict__["_rooting"]
        assert out.__dict__["_rooting"] is rooting
        assert propagate(out, two).__dict__["_rooting"] is rooting
        depth, up = rooting
        assert depth["V0"] == 0 and up["V0"] == -1 and depth["V49"] == 49

    def test_first_repeated_and_rebuilt_calls_agree(self):
        rng = random.Random(61)
        for _ in range(30):
            net = random_instance(rng, rng.randint(2, 7), p_inf=0.1)
            name = rng.choice(net.diagram.names)
            target = [EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))]
            single = [random_value_evidence(rng, net)]
            certain = [
                EvidenceSpec(n, values=(rng.choice(net.diagram.variable(n).domain),))
                for n in rng.sample(net.diagram.names, 2)
            ]
            calls = [lambda m, tr: propagate(m, single, trace=tr)]
            for schedule in (Schedule.fifo(), Schedule.seeded(rng.randrange(99))):
                for evidence in (certain, target):
                    calls.append(lambda m, tr, s=schedule, ev=evidence: propagate(m, ev, s, tr))
            for call in calls:
                first = SpohnianNetwork(net.diagram, dict(net.tables))
                runs = [_outcome(call, first), _outcome(call, first)]
                rebuilt = pickle.loads(pickle.dumps(first))
                assert "_gate" in first.__dict__ and "_gate" not in rebuilt.__dict__
                runs.append(_outcome(call, rebuilt))
                assert runs[0] == runs[1] == runs[2]
                out = runs[0][1]
                if isinstance(out, SpohnianNetwork):
                    # an output shares its input's gate, which must be what
                    # a fresh check of the output finds
                    fresh = SpohnianNetwork(out.diagram, dict(out.tables))
                    assert out._gate == fresh._check()

    def test_invalid_network_fails_the_same_way_every_call(self):
        rng = random.Random(62)
        seen = 0
        while seen < 20:
            net = random_instance(rng, rng.randint(2, 6))
            node = rng.choice(net.diagram.names)
            table = net.tables[node]
            ranks = list(table.ranks)
            ranks[rng.randrange(len(ranks))] += 1
            if 0 not in ranks:
                continue
            tables = {**net.tables, node: OCF(table.space, tuple(ranks))}
            bent = SpohnianNetwork(net.diagram, tables)
            problems = bent.validate().problems
            if not problems:
                continue
            evidence = [EvidenceSpec(node, values=(table.space.variable(node).domain[0],))]
            for _ in range(2):
                with pytest.raises(InvalidNetwork) as err:
                    propagate(bent, evidence)
                assert str(err.value) == "; ".join(problems)
            seen += 1

    def test_validate_repeats_its_edge_pass_on_every_call(self, monkeypatch):
        net = random_instance(random.Random(63), 8, p_detach=0.0)
        propagate(net, [random_value_evidence(random.Random(64), net)])
        calls = {"_check": 0}
        _counting(monkeypatch, SpohnianNetwork, "_check", calls)
        for k in range(1, 4):
            assert net.validate().ok
            assert calls["_check"] == k

    def test_contradiction_names_the_first_dead_node_in_declaration_order(self):
        # B's contradiction wipes out B, then A and C. Declared C, B, A, so
        # C is named, though B went infinite first and A's message came first.
        c, b, a = (Variable(v, (v.lower() + "0", v.lower() + "1")) for v in "CBA")
        dia = InfluenceDiagram((c, b, a), (("A", "B"), ("B", "C")))
        net = random_network(random.Random(65), dia)
        evidence = [
            EvidenceSpec("B", values=("b0",), strength=INF),
            EvidenceSpec("B", values=("b1",), strength=INF),
        ]
        for schedule in (Schedule.fifo(), Schedule.seeded(3)):
            with pytest.raises(ContradictoryEvidence, match="every cell of C's table"):
                propagate(net, evidence, schedule)


# Derandomized, so every run replays the same examples.
BOUNDED = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _shaped_network(rng, shape, n):
    """A chain, star or random polytree over n variables with coin-flipped
    edge directions (at most four parents per node), declared in shuffled
    order so that any node can be the root of the engine's rooting. Some
    have impossible cells, so some evidence contradicts."""
    variables = [
        Variable(f"V{i}", tuple(f"v{i}_{j}" for j in range(rng.randint(2, 3))))
        for i in range(n)
    ]
    parents = [0] * n
    edges = []
    for i in range(1, n):
        j = i - 1 if shape == "chain" else 0 if shape == "star" else rng.randrange(i)
        if rng.random() < 0.5 and parents[j] < 3:
            edges.append((f"V{i}", f"V{j}"))
            parents[j] += 1
        else:
            edges.append((f"V{j}", f"V{i}"))
            parents[i] += 1
    rng.shuffle(variables)
    diagram = InfluenceDiagram(tuple(variables), tuple(edges))
    return random_network(rng, diagram, p_inf=rng.choice((0.0, 0.2)))


def _observed_value(rng, net, name):
    """A surprising value (finite rank above 0) or a rank-0 one, at random."""
    domain = net.diagram.variable(name).domain
    ranks = net.marginal(name).ranks
    surprising = [v for v, r in zip(domain, ranks) if r is not INF and r > 0]
    if surprising and rng.random() < 0.5:
        return rng.choice(surprising)
    return rng.choice([v for v, r in zip(domain, ranks) if r == 0])


class TestBoundedDeliveries:
    @BOUNDED
    @given(st.sampled_from(["chain", "star", "polytree"]), st.integers(0, 2**32 - 1))
    def test_at_most_one_message_per_directed_edge(self, shape, seed):
        rng = random.Random(seed)
        net = _shaped_network(rng, shape, rng.randint(2, 14))
        names = net.diagram.names
        certain = [
            EvidenceSpec(name, values=(_observed_value(rng, net, name),))
            for name in rng.sample(names, rng.randint(1, min(8, len(names))))
        ]
        targets = [
            EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))
            for name in rng.sample(names, rng.randint(1, min(4, len(names))))
        ]
        calls = [
            (certain, lambda: oracle_revise(net.joint(), certain), 0),
            (targets, lambda: oracle_posterior(net, targets), len(targets)),
        ]
        for evidence, oracle, dummies in calls:
            trace = []
            try:
                out = propagate(net, evidence, Schedule.fifo(), trace)
            except SpohnError as exc:
                out = (type(exc), str(exc))
            edges = [t.edge for t in trace]
            assert len(edges) == len(set(edges)), edges
            try:
                again = propagate(net, evidence, Schedule.seeded(seed))
            except SpohnError as exc:
                again = (type(exc), str(exc))
            assert again == out
            if isinstance(out, SpohnianNetwork) and (
                net.diagram.space.size << dummies <= ORACLE_STATE_LIMIT
            ):
                assert out == SpohnianNetwork.from_joint(oracle(), net.diagram)

    @BOUNDED
    @given(st.sampled_from(["chain", "star", "polytree"]), st.integers(0, 2**32 - 1))
    def test_one_observation_goes_breadth_first(self, shape, seed):
        rng = random.Random(seed)
        net = _shaped_network(rng, shape, rng.randint(2, 14))
        name = rng.choice(net.diagram.names)
        value = _observed_value(rng, net, name)
        target = EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))
        hops = _hops(net.diagram, name)
        observations = [
            EvidenceSpec(name, values=(value,), strength=s) for s in (rng.randint(0, 4), INF, NEG_INF)
        ]
        for ev in observations + [target]:
            trace = []
            try:
                propagate(net, [ev], trace=trace)
            except SpohnError:
                pass  # refused evidence sends nothing; a contradiction shows after the wave
            edges = [t.edge for t in trace]
            assert len(edges) == len(set(edges)), edges
            if not edges:
                continue
            assert edges[0] == (name, name)
            senders = [hops[sender] for sender, _ in edges]
            assert senders == sorted(senders), edges
            for sender, receiver in edges[1:]:
                assert hops[receiver] == hops[sender] + 1, edges


def _hub_star(leaves):
    """Hub H (three values, marginal 0, 1, 2) with binary leaves L1..Ln, each
    table the hub's marginal plus one conditional row per hub value, so an
    observation at a leaf moves the hub's marginal."""
    hub = Variable("H", ("h0", "h1", "h2"))
    variables = [hub] + [Variable(f"L{i}", ("l0", "l1")) for i in range(1, leaves + 1)]
    diagram = InfluenceDiagram(tuple(variables), tuple(("H", v.name) for v in variables[1:]))
    tables = {"H": OCF(StateSpace((hub,)), (0, 1, 2))}
    for leaf in variables[1:]:
        tables[leaf.name] = OCF(StateSpace((hub, leaf)), (0, 3, 3, 1, 2, 3))
    return SpohnianNetwork(diagram, tables)


def _replayed_changes(net, trace):
    """Replay a trace on the input tables and check each message entry by
    entry: its deltas are rank_delta of the sender's marginal of the shared
    variable just before sending and of the edge's last sent marginal,
    which starts as the input's, and they are not one finite number at
    every value that last sent marginal leaves finite, a shift that
    s-normalization would undo. Returns the number of messages checked."""
    work = {name: list(table.ranks) for name, table in net.tables.items()}
    last = {}
    checked = 0

    def marginal(node, variable):
        digits = net.tables[node].space.projection((variable,))
        card = len(net.diagram.variable(variable).domain)
        least = [INF] * card
        for r, j in zip(work[node], digits):
            least[j] = min(least[j], r)
        return least

    for entry in trace:
        sender, receiver = entry.edge
        variable = entry.variable
        if sender != receiver:
            key = frozenset(entry.edge)
            now = marginal(sender, variable)
            before = last.get(key, net.marginal(variable).ranks)
            assert len(entry.deltas) == len(now)
            for d, c, b in zip(entry.deltas, now, before):
                assert d == rank_delta(c, b), entry
            shifts = {d for d, b in zip(entry.deltas, before) if b is not INF}
            assert len(shifts) > 1 or INF in shifts, entry
            last[key] = now
            checked += 1
        _add_deltas(work[receiver], entry.deltas, net.tables[receiver].space.projection((variable,)))
    return checked


def _add_deltas(vector, deltas, digit_of):
    """The engine's delivery as a cell loop, kept as the reference: add
    deltas[digit_of[i]] into vector[i] in place; INF absorbs."""
    for i, j in enumerate(digit_of):
        dd = deltas[j]
        if dd is INF:
            vector[i] = INF
        elif dd != 0 and vector[i] is not INF:
            vector[i] += dd


SIGNED = st.one_of(st.integers(-(2**70), 2**70), st.integers(-5, 5), st.just(INF))


class TestSpreadDelivery:
    """A delivery adds its change spread over the receiver's cells,
    list(map(add, work, spread)), and leaves INF to absorb through its own
    __add__ and __radd__; the cell loop above is the reference."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_spread_addition_is_the_cell_loop(self, data):
        card = data.draw(st.integers(1, 4))
        deltas = tuple(data.draw(st.lists(SIGNED, min_size=card, max_size=card)))
        digit_of = data.draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=12))
        work = data.draw(st.lists(SIGNED, min_size=len(digit_of), max_size=len(digit_of)))
        want = list(work)
        _add_deltas(want, deltas, digit_of)
        got = list(map(operator.add, work, [deltas[j] for j in digit_of]))
        assert got == want
        assert [r is INF for r in got] == [r is INF for r in want]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]))
    def test_the_engine_delivers_as_the_cell_loop(self, seed, p_inf):
        # Finite strengths and targets send signed changes; impossible
        # cells put INF in the working vectors. Replaying the trace through
        # the cell loop and s-normalizing gives every output table.
        rng = random.Random(seed)
        net = random_instance(rng, rng.randint(2, 9), p_inf=p_inf)
        evidence = random_mixed_evidence(rng, net, rng.randint(1, 4))
        for schedule in (Schedule.fifo(), Schedule.seeded(seed)):
            trace = []
            try:
                out = propagate(net, evidence, schedule, trace)
            except ContradictoryEvidence:
                out = None
            except SpohnError:  # refused before any delivery
                assert trace == []
                continue
            work = {}
            for entry in trace:
                node = entry.edge[1]
                cells = work.setdefault(node, list(net.tables[node].ranks))
                _add_deltas(cells, entry.deltas, net.tables[node].space.projection((entry.variable,)))
            if out is None:
                assert any(all(r is INF for r in cells) for cells in work.values())
                continue
            for node, table in out.tables.items():
                if node in work:
                    assert table.ranks == s_normalize(work[node]), node
                else:
                    assert table is net.tables[node]


class TestFanOut:
    def test_a_hub_computes_one_change_for_all_its_children(self, monkeypatch):
        # One surprising leaf observation: the leaf reports to the hub, and
        # the hub sends the same change to every other leaf. The number of
        # rank_delta calls is bounded by the hub's cardinality, whatever the
        # number of leaves.
        counts = {}
        for leaves in (5, 50, 500):
            net = _hub_star(leaves)
            calls = [0]
            real = spohn.propagation.rank_delta

            def counted(a, b):
                calls[0] += 1
                return real(a, b)

            monkeypatch.setattr(spohn.propagation, "rank_delta", counted)
            trace = []
            out = propagate(net, [EvidenceSpec("L1", values=("l1",))], trace=trace)
            monkeypatch.undo()
            assert len(trace) == 1 + leaves
            fan = [t for t in trace if t.edge[0] == "H"]
            assert len(fan) == leaves - 1
            assert all(t.deltas is fan[0].deltas for t in fan)
            assert fan[0].deltas == (3, 0, 1)
            assert out.marginal("H").ranks == (2, 0, 2)
            assert _replayed_changes(net, trace) == leaves
            counts[leaves] = calls[0]
        assert counts[5] == counts[50] == counts[500] <= 2 * 3

    def test_no_message_is_a_shift_that_normalization_undoes(self):
        # Every kind of evidence, impossible cells, both schedules; a
        # contradiction is checked on the messages it sent.
        rng = random.Random(75)
        for _ in range(80):
            net = random_instance(rng, rng.randint(2, 8), p_inf=rng.choice((0.0, 0.2)))
            evidence = random_mixed_evidence(rng, net, rng.randint(1, 4))
            for schedule in (Schedule.fifo(), Schedule.seeded(rng.randrange(99))):
                trace = []
                try:
                    out = propagate(net, evidence, schedule, trace)
                except SpohnError:
                    out = None
                _replayed_changes(net, trace)
                try:
                    joint = oracle_posterior(net, evidence)
                except TooLargeForOracle:
                    continue
                except SpohnError:
                    joint = None
                if out is not None and joint is not None:
                    assert out == SpohnianNetwork.from_joint(joint, net.diagram)

    def test_fifo_seeded_and_oracle_agree_on_stars_and_polytrees(self):
        rng = random.Random(73)
        for shape in ("star", "polytree") * 6:
            n = rng.choice((8, 40, 120))
            net = _shaped_network(rng, shape, n)
            names = net.diagram.names
            if rng.random() < 0.5:
                net.marginal(rng.choice(names))  # some edges start from a kept memo
            certain = [
                EvidenceSpec(name, values=(_observed_value(rng, net, name),))
                for name in rng.sample(names, rng.randint(1, 4))
            ]
            targets = [
                EvidenceSpec(name, target=random_target(rng, net.diagram.variable(name).domain))
                for name in rng.sample(names, 2)
            ]
            single = [EvidenceSpec(names[0], values=(_observed_value(rng, net, names[0]),),
                                   strength=rng.randint(0, 3))]
            calls = [
                (certain, lambda: oracle_revise(net.joint(), certain), 0),
                (targets, lambda: oracle_posterior(net, targets), len(targets)),
                (single, lambda: oracle_revise(net.joint(), single), 0),
            ]
            for evidence, oracle, dummies in calls:
                trace = []
                try:
                    out = propagate(net, evidence, Schedule.fifo(), trace)
                except SpohnError as exc:
                    out = (type(exc), str(exc))
                if isinstance(out, SpohnianNetwork):
                    assert _replayed_changes(net, trace) == len(trace) - len(
                        [t for t in trace if t.edge[0] == t.edge[1]]
                    )
                for seed in (1, 2):
                    seeded_trace = []
                    try:
                        again = propagate(net, evidence, Schedule.seeded(seed), seeded_trace)
                    except SpohnError as exc:
                        again = (type(exc), str(exc))
                    assert again == out
                    if isinstance(again, SpohnianNetwork):
                        _replayed_changes(net, seeded_trace)
                if isinstance(out, SpohnianNetwork) and (
                    net.diagram.space.size << dummies <= ORACLE_STATE_LIMIT
                ):
                    assert out == SpohnianNetwork.from_joint(oracle(), net.diagram)


def _hops(diagram, source):
    """Hop distance from source to each node it reaches, edge directions ignored."""
    adjacent = {name: [] for name in diagram.names}
    for a, b in diagram.edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    hops = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for n in frontier:
            for m in adjacent[n]:
                if m not in hops:
                    hops[m] = hops[n] + 1
                    reached.append(m)
        frontier = reached
    return hops


def _outcome(call, net):
    trace = []
    try:
        out = call(net, trace)
    except (ImpossibleEvidence, ContradictoryEvidence) as exc:
        out = (type(exc), str(exc))
    return [t.format() for t in trace], out
