"""Spohn's laws of revision, checked on generated networks far past the
oracle's 4096 states: chains, stars and forests of up to 1000 nodes.

Every draw comes from a fixed seed, so a failure replays as it stands.
"""

import random
from functools import cache

import pytest

from spohn import INF, EvidenceSpec, Proposition, Schedule, propagate

from generators import random_diagram, random_mixed_evidence, random_network

CASES = [(shape, n) for shape in ("chain", "star", "forest") for n in (12, 200, 1000)]


@cache
def network(shape, n):
    # No impossible cells, so any observations on distinct variables, and
    # random_mixed_evidence's mixes, are jointly consistent.
    rng = random.Random(f"{shape}-{n}")
    return random_network(rng, random_diagram(rng, n, shape=shape, p_detach=0.05))


def draw_proposition(rng, net):
    """A variable and a non-empty proper subset of its domain."""
    name = rng.choice(net.diagram.names)
    domain = net.diagram.variable(name).domain
    return name, tuple(rng.sample(domain, rng.randint(1, len(domain) - 1)))


def draw_certain(rng, net):
    names = set()
    evidence = []
    while len(evidence) < 3:
        name, values = draw_proposition(rng, net)
        if name not in names:
            names.add(name)
            evidence.append(EvidenceSpec(name, values=values))
    return evidence


def beta(kappa, name, values):
    return kappa.belief_strength(Proposition.constrain(kappa.space, {name: values}))


@pytest.mark.parametrize("shape, n", CASES)
def test_reversibility(shape, n):
    # (A, alpha) and then (not-A, beta(not-A)) read on the prior give back
    # every input table: revision keeps the ranks within A and within not-A.
    net = network(shape, n)
    rng = random.Random(f"reverse-{shape}-{n}")
    for k in range(4):
        name, values = draw_proposition(rng, net)
        prior = net.marginal(name)
        rest = tuple(v for v in prior.space.variables[0].domain if v not in values)
        post = propagate(net, [EvidenceSpec(name, values=values, strength=rng.randint(0, 6))])
        undo = EvidenceSpec(name, values=rest, strength=beta(prior, name, rest))
        back = propagate(post, [undo], Schedule.seeded(k) if k % 2 else Schedule.fifo())
        for node in net.diagram.names:
            assert back.tables[node] == net.tables[node], (name, values, node)


@pytest.mark.parametrize("shape, n", CASES)
def test_success(shape, n):
    net = network(shape, n)
    rng = random.Random(f"success-{shape}-{n}")
    for _ in range(3):
        name, values = draw_proposition(rng, net)
        alpha = rng.randint(1, 6)
        post = propagate(net, [EvidenceSpec(name, values=values, strength=alpha)])
        assert beta(post.marginal(name), name, values) == alpha, (name, values)
    # After certain evidence every family that holds an observed variable
    # rules out its rejected values.
    evidence = draw_certain(rng, net)
    post = propagate(net, evidence, Schedule.seeded(n))
    for ev in evidence:
        holders = [t for t in post.tables.values() if ev.variable in t.space.names]
        assert len(holders) > 1 or not net.diagram.children(ev.variable)
        for table in holders:
            at = table.space.names.index(ev.variable)
            for i, r in enumerate(table.ranks):
                if table.space.state_at(i)[at] not in ev.values:
                    assert r is INF, (ev.variable, table.space.names)


@pytest.mark.parametrize("shape, n", CASES)
def test_idempotence(shape, n):
    # A certain observation repeated on its own result changes no table, and
    # nothing is delivered beyond the injections.
    net = network(shape, n)
    evidence = draw_certain(random.Random(f"idempotence-{shape}-{n}"), net)
    post = propagate(net, evidence)
    for schedule in (Schedule.fifo(), Schedule.seeded(n)):
        trace = []
        assert propagate(post, evidence, schedule, trace) == post
        assert sorted(t.edge for t in trace) == sorted((ev.variable, ev.variable) for ev in evidence)


@pytest.mark.parametrize("shape, n", CASES)
def test_locality(shape, n):
    # Every family that no message reaches keeps the input's table object;
    # messages never leave the components that hold the evidence.
    net = network(shape, n)
    component = {name: name for name in net.diagram.names}

    def root(name):
        while component[name] != name:
            name = component[name]
        return name

    for a, b in net.diagram.edges:
        component[root(a)] = root(b)
    rng = random.Random(f"locality-{shape}-{n}")
    for schedule in (Schedule.fifo(), Schedule.seeded(n)):
        evidence = random_mixed_evidence(rng, net, rng.randint(1, 3))
        trace = []
        post = propagate(net, evidence, schedule, trace)
        reached = {t.edge[1] for t in trace}
        observed = {root(ev.variable) for ev in evidence}
        assert {root(name) for name in reached} <= observed
        for node in net.diagram.names:
            if node not in reached:
                assert post.tables[node] is net.tables[node], node
