"""Seeded generator of benchmark networks and evidence.

Shapes are chains, stars (hub -> leaves, so the hub's own table stays one
variable) and random polytrees with at most MAX_PARENTS parents per node.
Domains have 2 or 3 values. Tables are coherent by construction: in a
polytree the parents of a node are a priori independent, so each family
table is the sum of the parents' marginals plus a min-zero conditional row
per parent configuration. Every rank is finite, so any evidence drawn here
is consistent with the network.

Everything takes an explicit random.Random: the same seed gives the same
networks, documents and evidence. Nothing here is timed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

SHAPES = ("chain", "star", "polytree")
MAX_PARENTS = 3
MAX_RANK = 4


@dataclass(frozen=True)
class NetSpec:
    """A generated network in plain Python data, independent of spohn."""

    shape: str
    domains: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[tuple[int, ...], ...]
    marginals: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.domains)

    def family(self, node: int) -> tuple[int, ...]:
        """Family members in declaration (index) order, the canonical layout."""
        return tuple(sorted(self.parents[node] + (node,)))


def name(i: int) -> str:
    return f"V{i}"


def _structure(rng: random.Random, shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i - 1, i) for i in range(1, n)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape != "polytree":
        raise ValueError(f"unknown shape {shape!r}")
    indeg = [0] * n
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        # A new node is a tree's leaf, so either direction keeps the skeleton
        # a tree; pointing into j is allowed only while j has room for a parent.
        if rng.random() < 0.5 and indeg[j] < MAX_PARENTS:
            edges.append((i, j))
            indeg[j] += 1
        else:
            edges.append((j, i))
            indeg[i] += 1
    return edges


def _topological(n: int, parents: list[list[int]], children: list[list[int]]) -> list[int]:
    indeg = [len(ps) for ps in parents]
    ready = [i for i in range(n) if indeg[i] == 0]
    out = []
    while ready:
        i = ready.pop()
        out.append(i)
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return out


def _min_zero_row(rng: random.Random, k: int) -> list[int]:
    row = [rng.randint(0, MAX_RANK) for _ in range(k)]
    row[rng.randrange(k)] = 0
    return row


def _domains(rng: random.Random, n: int, threes: int) -> tuple[tuple[str, ...], ...]:
    """threes variables with 3 values at random positions, the rest with 2.

    A fixed count keeps table sizes, and so the work per network, the same
    from seed to seed.
    """
    three = set(rng.sample(range(n), threes))
    return tuple(
        tuple(f"v{i}_{j}" for j in range(3 if i in three else 2)) for i in range(n)
    )


def make_network(
    rng: random.Random, shape: str, n: int, threes: int | None = None
) -> NetSpec:
    """A network of n variables; half of them 3-valued unless threes is given."""
    domains = _domains(rng, n, n // 2 if threes is None else threes)
    edges = _structure(rng, shape, n)
    parents: list[list[int]] = [[] for _ in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        parents[b].append(a)
        children[a].append(b)
    for ps in parents:
        ps.sort()
    tables: list[tuple[int, ...]] = [()] * n
    marginals: list[tuple[int, ...]] = [()] * n
    for node in _topological(n, parents, children):
        family = sorted(parents[node] + [node])
        child_pos = family.index(node)
        card = len(domains[node])
        rows: dict[tuple[int, ...], list[int]] = {}
        ranks = []
        best = [None] * card
        for digits in itertools.product(*(range(len(domains[m])) for m in family)):
            key = digits[:child_pos] + digits[child_pos + 1:]
            row = rows.get(key)
            if row is None:
                row = rows[key] = _min_zero_row(rng, card)
            lift = sum(
                marginals[m][d] for m, d in zip(family, digits) if m != node
            )
            r = lift + row[digits[child_pos]]
            ranks.append(r)
            c = digits[child_pos]
            if best[c] is None or r < best[c]:
                best[c] = r
        tables[node] = tuple(ranks)
        marginals[node] = tuple(best)
    return NetSpec(
        shape,
        domains,
        tuple(edges),
        tuple(tuple(ps) for ps in parents),
        tuple(tables),
        tuple(marginals),
    )


def network_document(spec: NetSpec) -> str:
    """The network in the JSON document format the spohn CLI reads."""
    doc = {
        "variables": [
            {"name": name(i), "domain": list(dom)} for i, dom in enumerate(spec.domains)
        ],
        "edges": [[name(a), name(b)] for a, b in spec.edges],
        "tables": {
            name(i): {
                "order": [name(m) for m in spec.family(i)],
                "ranks": list(spec.tables[i]),
            }
            for i in range(spec.n)
        },
    }
    return json.dumps(doc)


def to_network(spec: NetSpec):
    """The network as spohn objects, validated."""
    from spohn import OCF, InfluenceDiagram, SpohnianNetwork, StateSpace, Variable

    variables = tuple(Variable(name(i), dom) for i, dom in enumerate(spec.domains))
    diagram = InfluenceDiagram(variables, tuple((name(a), name(b)) for a, b in spec.edges))
    tables = {
        name(i): OCF(StateSpace(tuple(variables[m] for m in spec.family(i))), spec.tables[i])
        for i in range(spec.n)
    }
    net = SpohnianNetwork(diagram, tables)
    report = net.validate()
    if not report.ok:
        raise AssertionError(f"generated network is invalid: {report.problems[:3]}")
    return net


# Evidence is kept as plain dicts in the evidence document's own format, so
# the same object serves the CLI (as JSON) and the library (via to_specs).

MODES = ("certain-1", "certain-8", "single", "uncertain-4")


def _pick_value(rng: random.Random, spec: NetSpec, node: int, surprising: bool) -> str:
    """A surprising value (rank > 0) if asked for and there is one, else a rank-0 value."""
    marg = spec.marginals[node]
    pool = [j for j, r in enumerate(marg) if r > 0] if surprising else []
    pool = pool or [j for j, r in enumerate(marg) if r == 0]
    return spec.domains[node][rng.choice(pool)]


def make_evidence(
    rng: random.Random, spec: NetSpec, mode: str, surprising: bool = False
) -> list[dict]:
    """Evidence for one operation; value observations pick surprising values
    when asked, rank-0 values otherwise. Workloads ask for both kinds in
    equal numbers, since the kind changes how far the update spreads."""
    if mode.startswith("certain-"):
        k = int(mode.split("-")[1])
        nodes = rng.sample(range(spec.n), k)
        return [
            {"variable": name(v), "values": [_pick_value(rng, spec, v, surprising)],
             "strength": "inf"}
            for v in nodes
        ]
    if mode == "single":
        v = rng.randrange(spec.n)
        return [
            {"variable": name(v), "values": [_pick_value(rng, spec, v, surprising)],
             "strength": rng.randint(0, MAX_RANK)}
        ]
    if mode.startswith("uncertain-"):
        k = int(mode.split("-")[1])
        nodes = rng.sample(range(spec.n), k)
        return [
            {"variable": name(v), "target": _min_zero_row(rng, len(spec.domains[v]))}
            for v in nodes
        ]
    raise ValueError(f"unknown mode {mode!r}")


def cli_mode(mode: str) -> str:
    """The spohn --mode that takes this evidence kind."""
    return mode.split("-")[0]


def evidence_document(evidence: list[dict]) -> str:
    return json.dumps({"evidence": evidence})


def to_specs(evidence: list[dict]):
    """The evidence as spohn EvidenceSpec objects."""
    from spohn import INF, EvidenceSpec

    out = []
    for item in evidence:
        if "target" in item:
            out.append(EvidenceSpec(item["variable"], target=tuple(item["target"])))
        else:
            s = item["strength"]
            out.append(
                EvidenceSpec(item["variable"], values=tuple(item["values"]),
                             strength=INF if s == "inf" else s)
            )
    return out
