"""Acceptance gate: one test per shipping criterion, each timed and exact.

Every criterion prints a single pass/fail line (visible under -s, and in
the captured output otherwise); the assertions themselves are exact
integer equalities, never tolerances.
"""

import functools
import random
import time

from generators import (
    min_zero_row,
    random_certain_evidence,
    random_instance,
    random_mixed_evidence,
    random_network,
    random_ocf,
    random_target,
    random_value_evidence,
)
from spohn import (
    INF,
    OCF,
    ORACLE_STATE_LIMIT,
    EvidenceSpec,
    InfluenceDiagram,
    Proposition,
    Schedule,
    SpohnianNetwork,
    StateSpace,
    Variable,
    augment_with_dummy,
    oracle_posterior,
    oracle_revise,
    propagate,
    propagate_certain_multi,
    propagate_single,
    propagate_uncertain_multi,
    serialize_network,
)


def timed(number: int, limit: float):
    """Run the criterion body, print its pass/fail line, enforce the limit."""

    def wrap(body):
        @functools.wraps(body)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                body(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number}: FAIL ({elapsed:.3f}s, limit {limit}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number}: PASS ({elapsed:.3f}s, limit {limit}s)")
            assert elapsed < limit
        return run

    return wrap


@functools.lru_cache(maxsize=1)
def _single_evidence_instances():
    """200 (network, finite evidence, oracle posterior joint) triples.

    Shared by criteria 3 and 4: the screening-off audit runs on exactly the
    instances whose propagation was checked.
    """
    rng = random.Random(2026)
    out = []
    while len(out) < 200:
        net = random_instance(rng, rng.randint(2, 7), p_detach=0.1)
        ev = random_value_evidence(rng, net)
        out.append((net, ev, oracle_revise(net.joint(), [ev])))
    return out


@timed(1, 0.001)
def test_criterion_1_worked_example_columns(penguin_space, prior):
    bird = Proposition.constrain(penguin_space, {"species": ("PENGUIN", "TYPICAL-BIRD")})
    penguin = Proposition.constrain(penguin_space, {"species": ("PENGUIN",)})
    flys = Proposition.constrain(penguin_space, {"flight": ("FLYS",)})
    not_flys = Proposition.constrain(penguin_space, {"flight": ("NOT-FLYS",)})
    t1 = prior.revise(bird, 1)
    assert t1.ranks == (2, 1, 0, 1, 1, 1)
    assert t1.is_believed(flys)
    t2 = t1.revise(penguin, 1)
    assert t2.ranks == (1, 0, 1, 2, 2, 2)
    assert t2.is_believed(not_flys)


@timed(2, 5.0)
def test_criterion_2_decomposition_and_round_trip():
    rng = random.Random(2101)
    # five-term identity on the five-node shape, random domain sizes
    edges = (("A", "B"), ("B", "D"), ("C", "D"), ("C", "E"))
    for _ in range(100):
        variables = tuple(
            Variable(n, tuple(f"{n.lower()}{i}" for i in range(rng.randint(2, 3))))
            for n in "ABCDE"
        )
        net = random_network(rng, InfluenceDiagram(variables, edges))
        joint = net.joint()
        tb, td, te = net.tables["B"], net.tables["D"], net.tables["E"]
        mb, mc = net.marginal("B"), net.marginal("C")
        for i, r in enumerate(joint.ranks):
            a, b, c, d, e = joint.space.state_at(i)
            five = (
                tb.ranks[tb.space.index_of((a, b))]
                + td.ranks[td.space.index_of((b, c, d))]
                + te.ranks[te.space.index_of((c, e))]
                - mb.ranks[mb.space.index_of((b,))]
                - mc.ranks[mc.space.index_of((c,))]
            )
            assert five == r
    # family projection of a factorized joint composes back to it
    for k in range(100):
        net = random_instance(rng, rng.randint(1, 6), p_inf=0.2 if k % 2 else 0.0)
        joint = net.joint()
        rebuilt = SpohnianNetwork.from_joint(joint, net.diagram)
        assert rebuilt.joint() == joint


@timed(3, 10.0)
def test_criterion_3_single_evidence_matches_oracle():
    instances = _single_evidence_instances()
    assert len(instances) >= 200
    for net, ev, posterior_joint in instances:
        engine = propagate_single(net, ev)
        expected = SpohnianNetwork.from_joint(posterior_joint, net.diagram)
        assert engine == expected


@timed(4, 10.0)
def test_criterion_4_parents_screen_off_ancestors_after_update():
    for net, _, posterior_joint in _single_evidence_instances():
        d = net.diagram
        order = {n: i for i, n in enumerate(d.names)}
        for node in d.names:
            parents = set(d.parents(node))
            extras = [a for a in d.ancestors(node) if a not in parents]
            if not extras:
                continue
            fam = sorted(parents | {node}, key=order.get)
            with_anc = sorted(set(fam) | set(extras), key=order.get)
            cond = sorted(parents, key=order.get)
            cond_anc = sorted(set(cond) | set(extras), key=order.get)
            m_full = posterior_joint.marginalize(tuple(with_anc))
            m_fam = posterior_joint.marginalize(tuple(fam))
            m_cond = posterior_joint.marginalize(tuple(cond))
            m_cond_anc = posterior_joint.marginalize(tuple(cond_anc))
            space = m_full.space
            to_fam = space.projection(tuple(fam))
            to_cond = space.projection(tuple(cond))
            to_cond_anc = space.projection(tuple(cond_anc))
            for i, r in enumerate(m_full.ranks):
                given_all = m_cond_anc.ranks[to_cond_anc[i]]
                if given_all is INF:
                    continue
                with_extras = r - given_all
                parents_only = m_fam.ranks[to_fam[i]] - m_cond.ranks[to_cond[i]]
                assert with_extras == parents_only


@timed(5, 30.0)
def test_criterion_5_every_schedule_lands_on_the_same_tables():
    rng = random.Random(2105)
    for _ in range(50):
        net = random_instance(rng, rng.randint(2, 7), p_detach=0.0)
        evidence = random_certain_evidence(rng, net, rng.randint(1, min(3, len(net.diagram.names))))
        first = propagate_certain_multi(net, evidence, Schedule.fifo())
        reference = serialize_network(first)
        for seed in range(50):
            again = propagate_certain_multi(net, evidence, Schedule.seeded(seed))
            assert serialize_network(again) == reference
        posterior_joint = oracle_revise(net.joint(), evidence)
        assert first == SpohnianNetwork.from_joint(posterior_joint, net.diagram)

    # target evidence: several targets, same engine, same guarantee
    for _ in range(50):
        net = random_instance(rng, rng.randint(2, 5), p_detach=0.0)
        names = rng.sample(net.diagram.names, rng.randint(1, min(3, len(net.diagram.names))))
        targets = []
        for name in names:
            var = net.diagram.variable(name)
            targets.append((name, OCF(StateSpace((var,)), random_target(rng, var.domain))))
        first = propagate_uncertain_multi(net, targets, Schedule.fifo())
        reference = serialize_network(first)
        for seed in range(50):
            again = propagate_uncertain_multi(net, targets, Schedule.seeded(seed))
            assert serialize_network(again) == reference
        evidence = [EvidenceSpec(n, target=t.ranks) for n, t in targets]
        assert first == SpohnianNetwork.from_joint(oracle_posterior(net, evidence), net.diagram)

    # finite evidence is the target its revision produces, under any schedule
    for _ in range(50):
        net = random_instance(rng, rng.randint(2, 7), p_detach=0.0)
        ev = random_value_evidence(rng, net)
        prior = net.marginal(ev.variable)
        prop = Proposition.constrain(prior.space, {ev.variable: ev.values})
        target = [(ev.variable, prior.revise(prop, ev.strength))]
        single = propagate_single(net, ev)
        for seed in range(50):
            assert propagate_uncertain_multi(net, target, Schedule.seeded(seed)) == single

    # any mix of certain, finite, -inf and target items, value items free to
    # repeat a variable: one rule, and the oracle's one entry for any mix
    for _ in range(50):
        net = random_instance(rng, rng.randint(2, 5), p_detach=0.0)
        evidence = random_mixed_evidence(rng, net, rng.randint(2, 4))
        first = propagate(net, evidence, Schedule.fifo())
        reference = serialize_network(first)
        for seed in range(50):
            again = propagate(net, evidence, Schedule.seeded(seed))
            assert serialize_network(again) == reference
        posterior_joint = oracle_posterior(net, evidence)
        assert first == SpohnianNetwork.from_joint(posterior_joint, net.diagram)


def test_oracle_posterior_needs_no_dummy_for_the_first_finite_item():
    # Revising the prior joint by the first finite item (A, alpha) adds
    # exactly prior.revise(A, alpha) - prior on A's variable: the same as a
    # dummy child for it. Build the all-dummies joint inline, every
    # non-certain item with a dummy whose target is read on the prior.
    rng = random.Random(2155)
    checked = 0
    while checked < 100:
        net = random_instance(rng, rng.randint(2, 5), p_detach=0.2)
        evidence = random_mixed_evidence(rng, net, rng.randint(2, 5))
        finite = [ev for ev in evidence if type(ev.strength) is int]
        dummied = [ev for ev in evidence if ev.target is not None] + finite
        if len(finite) < 2 or net.diagram.space.size << len(dummied) > ORACLE_STATE_LIMIT:
            continue
        augmented = net
        for ev in dummied:
            prior = net.marginal(ev.variable)
            if ev.target is not None:
                target = OCF(prior.space, ev.target)
            else:
                prop = Proposition.constrain(prior.space, {ev.variable: ev.values})
                target = prior.revise(prop, ev.strength)
            augmented, _ = augment_with_dummy(augmented, ev.variable, target)
        conditions = [ev for ev in evidence if ev.values is not None and type(ev.strength) is not int]
        conditions += [
            EvidenceSpec(d, values=("observed",))
            for d in augmented.diagram.names[len(net.diagram.names):]
        ]
        all_dummies = oracle_revise(augmented.joint(), conditions).marginalize(net.diagram.names)
        assert oracle_posterior(net, evidence) == all_dummies
        checked += 1


@timed(6, 10.0)
def test_criterion_6_revision_properties():
    rng = random.Random(2106)

    def fresh(n_values: int, name: str = "X") -> tuple[StateSpace, OCF]:
        var = Variable(name, tuple(f"{name.lower()}{i}" for i in range(n_values)))
        space = StateSpace((var,))
        return space, random_ocf(rng, space)

    def proper_subset(domain) -> tuple[str, ...]:
        return tuple(rng.sample(domain, rng.randint(1, len(domain) - 1)))

    # revision lands on a consistent state that accepts the evidence
    for _ in range(1000):
        space, kappa = fresh(rng.randint(2, 6))
        prop = Proposition.constrain(space, {"X": proper_subset(space.variables[0].domain)})
        post = kappa.revise(prop, rng.randint(0, 5))
        assert min(post.ranks) == 0
        assert post.rank_of(prop) == 0

    # updates on independent variables commute
    for _ in range(1000):
        x = Variable("X", tuple(f"x{i}" for i in range(rng.randint(2, 3))))
        y = Variable("Y", tuple(f"y{i}" for i in range(rng.randint(2, 3))))
        space = StateSpace((x, y))
        kx = min_zero_row(rng, len(x.domain))
        ky = min_zero_row(rng, len(y.domain))
        kappa = OCF(
            space,
            tuple(kx[i] + ky[j] for i in range(len(x.domain)) for j in range(len(y.domain))),
        )
        p = Proposition.constrain(space, {"X": proper_subset(x.domain)})
        q = Proposition.constrain(space, {"Y": proper_subset(y.domain)})
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        assert kappa.revise(p, a).revise(q, b) == kappa.revise(q, b).revise(p, a)

    # a revision is undone by re-revising on the complement at its old strength
    for _ in range(1000):
        space, kappa = fresh(rng.randint(2, 6))
        prop = Proposition.constrain(space, {"X": proper_subset(space.variables[0].domain)})
        post = kappa.revise(prop, rng.randint(0, 5))
        assert post.revise(~prop, kappa.belief_strength(~prop)) == kappa

    # the evidence ends up disbelieved-in-reverse exactly at strength alpha
    for _ in range(1000):
        space, kappa = fresh(rng.randint(2, 6))
        prop = Proposition.constrain(space, {"X": proper_subset(space.variables[0].domain)})
        alpha = rng.randint(0, 5)
        post = kappa.revise(prop, alpha)
        assert post.rank_of(prop) == 0
        assert post.rank_of(~prop) == alpha
        if alpha > 0:
            assert post.belief_strength(prop) == alpha


@timed(7, 5.0)
def test_criterion_7_dummy_children_encode_uncertain_evidence():
    rng = random.Random(2107)
    # observation column equals the target, the variable's own marginal
    # stays put until the dummy is actually observed
    for _ in range(200):
        net = random_instance(rng, rng.randint(1, 4), p_detach=0.2)
        name = rng.choice(net.diagram.names)
        domain = net.diagram.variable(name).domain
        var = net.diagram.variable(name)
        target = OCF(
            StateSpace((var,)), random_target(rng, domain, p_inf=0.15)
        )
        augmented, dummy = augment_with_dummy(net, name, target)
        joint = augmented.joint()
        pair = joint.marginalize((name, dummy.name))
        observed = min(
            pair.ranks[pair.space.index_of((v, "observed"))] for v in domain
        )
        for j, v in enumerate(domain):
            cell = pair.ranks[pair.space.index_of((v, "observed"))]
            assert cell - observed == target.ranks[j]
        assert joint.marginalize((name,)) == net.joint().marginalize((name,))

    # single-target runs equal the brute-force pipeline and pin the marginal
    for _ in range(60):
        net = random_instance(rng, rng.randint(1, 4), p_detach=0.1)
        name = rng.choice(net.diagram.names)
        var = net.diagram.variable(name)
        target = OCF(StateSpace((var,)), random_target(rng, var.domain))
        engine = propagate_uncertain_multi(net, [(name, target)])
        assert engine.marginal(name) == target
        back = oracle_posterior(net, [EvidenceSpec(name, target=target.ranks)])
        assert engine == SpohnianNetwork.from_joint(back, net.diagram)

    # pinned caveat: targets on dependent variables need not both hold
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
    assert post.marginal("A").ranks == (0, 4)
    assert post.marginal("B").ranks == (0, 5)
