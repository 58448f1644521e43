"""Seeded random generators shared by the property and acceptance tests.

Every generator takes an explicit random.Random so any failure replays
from its seed; nothing touches the global RNG.
"""

from __future__ import annotations

import random

from spohn import (
    INF,
    NEG_INF,
    OCF,
    EvidenceSpec,
    InfluenceDiagram,
    Proposition,
    SpohnianNetwork,
    StateSpace,
    Variable,
)


def topological(diagram: InfluenceDiagram) -> list[str]:
    remaining = {n: set(diagram.parents(n)) for n in diagram.names}
    out: list[str] = []
    while remaining:
        ready = [n for n in diagram.names if n in remaining and not remaining[n]]
        for n in ready:
            out.append(n)
            del remaining[n]
        for deps in remaining.values():
            deps.difference_update(ready)
    return out


def random_diagram(
    rng: random.Random,
    n_vars: int,
    max_domain: int = 3,
    p_detach: float = 0.1,
    shape: str = "forest",
) -> InfluenceDiagram:
    """Random singly connected DAG. A forest hooks each node after the first
    onto an earlier one (unless it starts a fresh component), direction
    coin-flipped. Flipping directions on a forest cannot create a cycle or a
    second path. A chain hooks each node onto the one before it, direction
    coin-flipped; a star makes V0 the one parent of every other node."""
    variables = tuple(
        Variable(f"V{i}", tuple(f"v{i}_{j}" for j in range(rng.randint(2, max_domain))))
        for i in range(n_vars)
    )
    edges = []
    for i in range(1, n_vars):
        if shape == "star":
            edges.append(("V0", f"V{i}"))
            continue
        if shape == "forest" and rng.random() < p_detach:
            continue
        j = rng.randrange(i) if shape == "forest" else i - 1
        pair = (f"V{j}", f"V{i}")
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    return InfluenceDiagram(variables, tuple(edges))


def min_zero_row(rng: random.Random, n: int, max_rank: int = 4, p_inf: float = 0.0):
    row = [INF if rng.random() < p_inf else rng.randint(0, max_rank) for _ in range(n)]
    row[rng.randrange(n)] = 0
    return row


def random_network(
    rng: random.Random,
    diagram: InfluenceDiagram,
    max_rank: int = 4,
    p_inf: float = 0.0,
) -> SpohnianNetwork:
    """Family-factorized tables: a fresh min-zero conditional row per parent
    state, lifted by the sum of the parents' marginals. Parents of a node
    live in disjoint subtrees, so their joint rank really is that sum and
    every cross-table marginal agrees by construction."""
    marginals: dict[str, list] = {}
    tables: dict[str, OCF] = {}
    for name in topological(diagram):
        family = diagram.family_variables(name)
        space = StateSpace(tuple(diagram.variable(n) for n in family))
        child_pos = family.index(name)
        parent_pos = [i for i in range(len(family)) if i != child_pos]
        dom = diagram.variable(name).domain
        rows: dict[tuple, list] = {}
        ranks = []
        for i in range(space.size):
            state = space.state_at(i)
            key = tuple(state[p] for p in parent_pos)
            if key not in rows:
                rows[key] = min_zero_row(rng, len(dom), max_rank, p_inf)
            base = 0
            for p in parent_pos:
                pdom = diagram.variable(family[p]).domain
                base = base + marginals[family[p]][pdom.index(state[p])]
            ranks.append(base + rows[key][dom.index(state[child_pos])])
        per_value = {v: INF for v in dom}
        for i, r in enumerate(ranks):
            v = space.state_at(i)[child_pos]
            if r < per_value[v]:
                per_value[v] = r
        marginals[name] = [per_value[v] for v in dom]
        tables[name] = OCF(space, tuple(ranks))
    return SpohnianNetwork(diagram, tables)


def random_instance(
    rng: random.Random,
    n_vars: int,
    max_domain: int = 3,
    max_rank: int = 4,
    p_inf: float = 0.0,
    p_detach: float = 0.1,
) -> SpohnianNetwork:
    return random_network(
        rng,
        random_diagram(rng, n_vars, max_domain, p_detach),
        max_rank,
        p_inf,
    )


def random_value_evidence(
    rng: random.Random,
    net: SpohnianNetwork,
    max_strength: int = 4,
) -> EvidenceSpec:
    name = rng.choice(net.diagram.names)
    dom = net.diagram.variable(name).domain
    values = tuple(rng.sample(dom, rng.randint(1, len(dom) - 1)))
    return EvidenceSpec(name, values=values, strength=rng.randint(0, max_strength))


def random_certain_evidence(
    rng: random.Random,
    net: SpohnianNetwork,
    n_observed: int,
    tries: int = 200,
) -> list[EvidenceSpec]:
    """Jointly consistent single-value certain observations on distinct
    variables; retries until the conjunction has finite prior rank."""
    joint = net.joint()
    for _ in range(tries):
        names = rng.sample(net.diagram.names, n_observed)
        chosen = {n: (rng.choice(net.diagram.variable(n).domain),) for n in names}
        prop = Proposition.constrain(joint.space, chosen)
        if joint.rank_of(prop) is not INF:
            return [
                EvidenceSpec(n, values=v, strength=INF) for n, v in chosen.items()
            ]
    raise AssertionError("could not draw consistent certain evidence")


def random_target(rng: random.Random, domain, max_rank: int = 4, p_inf: float = 0.0):
    return tuple(min_zero_row(rng, len(domain), max_rank, p_inf))


def random_mixed_evidence(
    rng: random.Random, net: SpohnianNetwork, n_items: int
) -> list[EvidenceSpec]:
    """Targets, and value items at strength inf, -inf or a signed int, in
    random order. Targets go on distinct variables; value items may repeat
    one. The certain items leave every variable a value, so on a network
    without impossible cells the mix is consistent."""
    names = net.diagram.names
    possible = {n: set(net.diagram.variable(n).domain) for n in names}
    out = [
        EvidenceSpec(n, target=random_target(rng, net.diagram.variable(n).domain))
        for n in rng.sample(names, rng.randint(0, min(2, n_items, len(names))))
    ]
    while len(out) < n_items:
        name = rng.choice(names)
        dom = net.diagram.variable(name).domain
        values = tuple(rng.sample(dom, rng.randint(1, len(dom) - 1)))
        strength = rng.choice([INF, NEG_INF, rng.randint(-4, 4)])
        if strength is INF or strength is NEG_INF:
            kept = set(values) if strength is INF else set(dom) - set(values)
            if not possible[name] & kept:
                continue
            possible[name] &= kept
        out.append(EvidenceSpec(name, values=values, strength=strength))
    rng.shuffle(out)
    return out


def targets_read_on_prior(
    net: SpohnianNetwork, evidence: list[EvidenceSpec]
) -> list[tuple[str, OCF]]:
    """Each item as the target oracle_impose takes: a target as given, a
    value item (A, alpha) as prior.revise(A, alpha)."""
    out = []
    for ev in evidence:
        prior = net.marginal(ev.variable)
        if ev.target is not None:
            out.append((ev.variable, OCF(prior.space, ev.target)))
        else:
            prop = Proposition.constrain(prior.space, {ev.variable: ev.values})
            out.append((ev.variable, prior.revise(prop, ev.strength)))
    return out


def random_ocf(
    rng: random.Random,
    space: StateSpace,
    max_rank: int = 6,
    p_inf: float = 0.0,
) -> OCF:
    return OCF(space, tuple(min_zero_row(rng, space.size, max_rank, p_inf)))
