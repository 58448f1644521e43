"""Evidence propagation on singly connected Spohnian networks.

One asynchronous message engine carries every evidence regime. Messages
carry per-value changes in implausibility for the shared variable of an
edge. Because deliveries add deltas, the totals telescope and the final
tables do not depend on delivery order; constant offsets picked up from
cross traffic vanish in the single s-normalization performed per node at
quiescence. Normalizing earlier would bake the constants in, so nothing is
normalized mid-flight.

The three entry points differ only in the first message each observation
injects at its own variable:

- propagate_single: finite evidence (A, alpha) injects the revised
  marginal minus the prior one, prior.revise(A, alpha) - prior. Strength
  inf is certain evidence on A, strength -inf certain evidence on the rest
  of the domain.

- propagate_certain_multi: certain evidence injects 0 on the accepted
  values and inf on the others.

- propagate_uncertain_multi: a target marginal injects target - current.
  That is the lambda-message of a binary dummy child observed with
  certainty (augment_with_dummy, kept as the oracle's reference
  construction) less a constant, and normalization removes the constant.
  With one target the final marginal equals the target exactly; with
  several targets on dependent variables the imposed marginals can land
  elsewhere, which is inherent to the construction and pinned by a
  regression test rather than "fixed".

Each run first builds, in one pass over the edges, a per-run adjacency
table: for every node its incident edges in declaration order, each with
the receiver, the shared variable, its digit map in the node's table, its
cardinality and the outbound snapshot, all taken from the validation pass.
A queued message carries the position of its arrival edge in the
receiver's list, so a delivery costs time in the receiving family only,
never a scan of the diagram, and a run is linear in the size of the
network. The table lives only for the run; nothing is cached on the
diagram or the network.

The engine mutates only its own per-node working vectors; input networks
are never modified.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .diagram import InfluenceDiagram
from .errors import (
    AllInfinite,
    ContradictoryEvidence,
    DuplicateTargetVariable,
    ImpossibleEvidence,
    InvalidNetwork,
    SpaceMismatch,
    UnknownValue,
)
from .network import SpohnianNetwork
from .ocf import OCF, Proposition, StateSpace, Variable, _least_ranks
from .ranks import INF, NEG_INF, BeliefStrength, Rank, rank_delta, s_normalize


@dataclass(frozen=True)
class EvidenceSpec:
    """One observation: either a value proposition with a strength, or a
    whole target marginal for the variable (used by the uncertain mode)."""

    variable: str
    values: tuple[str, ...] | None = None
    target: tuple[Rank, ...] | None = None
    strength: BeliefStrength = INF

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))
        if self.target is not None:
            object.__setattr__(self, "target", tuple(self.target))
        if (self.values is None) == (self.target is None):
            raise ValueError("evidence needs exactly one of values or target")
        if self.values is not None and not self.values:
            raise ValueError("evidence value list must be non-empty")
        if self.target is not None and self.strength is not INF:
            raise ValueError("target evidence takes no strength")


@dataclass(frozen=True)
class TraceEntry:
    """One delivered message: per-value implausibility changes for one
    variable, sent along edge (sender, receiver); injections use (v, v).
    deltas is indexed by the variable's domain order."""

    seq: int
    edge: tuple[str, str]
    variable: str
    deltas: tuple[Rank, ...]

    def format(self) -> str:
        rendered = ",".join(str(d) for d in self.deltas)
        return (
            f"seq={self.seq} edge={self.edge[0]}->{self.edge[1]} "
            f"var={self.variable} deltas=[{rendered}]"
        )


@dataclass(frozen=True)
class Schedule:
    """Delivery order for the message engine.

    fifo is fully deterministic; seeded draws the next message uniformly
    with a fixed seed, so runs are reproducible and every enqueued message
    is still delivered exactly once.
    """

    policy: str = "fifo"
    seed: int | None = None

    def __post_init__(self):
        if self.policy not in ("fifo", "random"):
            raise ValueError(f"unknown schedule policy {self.policy!r}")
        if self.policy == "random" and self.seed is None:
            raise ValueError("random schedule needs a seed")
        if self.policy == "fifo" and self.seed is not None:
            raise ValueError("fifo schedule takes no seed")

    @classmethod
    def fifo(cls) -> Schedule:
        return cls("fifo")

    @classmethod
    def seeded(cls, seed: int) -> Schedule:
        return cls("random", seed)


def _require_valid(net: SpohnianNetwork) -> list[tuple]:
    report, ends = net._check()
    if not report.ok:
        raise InvalidNetwork("; ".join(report.problems))
    return ends


def _marginal_ranks(net: SpohnianNetwork, variable: str, card: int) -> list[Rank]:
    """The variable's marginal ranks, read off its own table."""
    table = net.tables[variable]
    return _least_ranks(table.ranks, table.space.projection((variable,)), card)


def _add_deltas(vector: list[Rank], deltas: Sequence[Rank], digit_of: Sequence[int]) -> None:
    """Add deltas[digit_of[i]] into vector[i] in place; INF absorbs."""
    for i, j in enumerate(digit_of):
        dd = deltas[j]
        if dd is INF:
            vector[i] = INF
        elif dd != 0 and vector[i] is not INF:
            vector[i] += dd


def _certain_deltas(
    net: SpohnianNetwork, variable: str, values: Sequence[str]
) -> tuple[Rank, ...]:
    """First message of certain evidence: 0 on the accepted values, inf elsewhere."""
    domain = net.diagram.variable(variable).domain
    for v in values:
        if v not in domain:
            raise UnknownValue(f"variable {variable!r} has no value {v!r}")
    prior = _marginal_ranks(net, variable, len(domain))
    if all(r is INF for v, r in zip(domain, prior) if v in values):
        raise ImpossibleEvidence(
            f"evidence on {variable} is already ruled out by the network"
        )
    return tuple(0 if v in values else INF for v in domain)


def _target_deltas(
    net: SpohnianNetwork, variable: str, target: OCF
) -> tuple[Rank, ...]:
    """First message of a target marginal: target minus current."""
    var = net.diagram.variable(variable)
    if target.space != StateSpace((var,)):
        raise SpaceMismatch(
            f"target for {variable} must be a single-variable ranking over it, "
            f"got one over {target.space.names}"
        )
    current = _marginal_ranks(net, variable, len(var.domain))
    if any(t is not INF and c is INF for t, c in zip(target.ranks, current)):
        raise ImpossibleEvidence(
            f"target gives finite rank to an impossible value of {variable}"
        )
    return tuple(map(rank_delta, target.ranks, current))


def _run(
    net: SpohnianNetwork,
    ends: Sequence[tuple],
    injections: Sequence[tuple[str, tuple[Rank, ...]]],
    schedule: Schedule,
    trace: list[TraceEntry] | None,
) -> SpohnianNetwork:
    """Deliver each (variable, deltas) injection and every message it sets off.

    Every delivery adds the message's per-value deltas into the receiving
    family's working vector, advances the arrival edge's outbound snapshot
    by the same deltas (so nothing a neighbor said is echoed back at it),
    and forwards the change in each other shared marginal since it was last
    sent. Tables are s-normalized once, at quiescence; a node whose vector
    has gone entirely infinite names the contradiction.
    """
    d = net.diagram
    vec: dict[str, list[Rank]] = {
        node: list(net.tables[node].ranks) for node in d.names
    }
    # Per-run adjacency, built in one pass over validation's per-edge ends:
    # each node's incident edges in declaration order, as (receiver, shared
    # variable, its digit map in the node's table, cardinality, position of
    # the same edge in the receiver's list). In parallel, the outbound
    # snapshot per incident edge: the shared marginal as of the last send,
    # advanced by arrivals over that edge.
    links: dict[str, list[tuple[str, str, list[int], int, int]]] = {
        node: [] for node in d.names
    }
    snap: dict[str, list[list[Rank]]] = {node: [] for node in d.names}
    for (a, b), (digit_a, marg_a, digit_b, marg_b) in zip(d.edges, ends):
        card = len(marg_a)
        at_a, at_b = len(links[a]), len(links[b])
        links[a].append((b, a, digit_a, card, at_b))
        links[b].append((a, a, digit_b, card, at_a))
        snap[a].append(marg_a)
        snap[b].append(marg_b)

    # Pending messages as (sender, receiver, arrival, variable, deltas);
    # arrival is the edge's position in the receiver's links, -1 for an
    # injection.
    queue = deque((v, v, -1, v, deltas) for v, deltas in injections)
    rng = random.Random(schedule.seed) if schedule.policy == "random" else None
    seq = 0
    while queue:
        if rng is None:
            sender, node, arrival, variable, deltas = queue.popleft()
        else:
            i = rng.randrange(len(queue))
            sender, node, arrival, variable, deltas = queue[i]
            del queue[i]
        seq += 1
        if trace is not None:
            trace.append(TraceEntry(seq, (sender, node), variable, deltas))
        node_links = links[node]
        snaps = snap[node]
        work = vec[node]
        if arrival >= 0:
            _add_deltas(work, deltas, node_links[arrival][2])
            _add_deltas(snaps[arrival], deltas, range(len(deltas)))
        else:
            _add_deltas(work, deltas, net.tables[node].space.projection((variable,)))
        for k, (receiver, shared, digit_s, card, back) in enumerate(node_links):
            if k == arrival:
                continue
            current = _least_ranks(work, digit_s, card)
            snapshot = snaps[k]
            change = tuple(rank_delta(current[j], snapshot[j]) for j in range(card))
            if any(dd != 0 for dd in change):
                snaps[k] = current
                queue.append((node, receiver, back, shared, change))

    new_tables: dict[str, OCF] = {}
    for node in d.names:
        try:
            normalized = s_normalize(vec[node])
        except AllInfinite as exc:
            raise ContradictoryEvidence(
                f"evidence drives every cell of {node}'s table to infinity"
            ) from exc
        new_tables[node] = OCF(net.tables[node].space, normalized)
    return SpohnianNetwork(d, new_tables)


def propagate_single(
    net: SpohnianNetwork,
    evidence: EvidenceSpec,
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """Assimilate one observation of any strength and return the updated network.

    A finite strength injects the change revision makes to the observed
    variable's marginal. Strength inf conditions on the accepted values,
    strength -inf on the rest of the domain.
    """
    ends = _require_valid(net)
    if evidence.values is None:
        raise ValueError("single-evidence propagation needs a value proposition")
    observed, values, strength = evidence.variable, evidence.values, evidence.strength
    domain = net.diagram.variable(observed).domain
    if strength is NEG_INF:
        values = tuple(v for v in domain if v not in values)
        if not values:
            raise ImpossibleEvidence("certainly disbelieving the full domain is contradictory")
        strength = INF
    if strength is INF:
        deltas = _certain_deltas(net, observed, values)
    else:
        prior = net.marginal(observed)
        post = prior.revise(Proposition.constrain(prior.space, {observed: values}), strength)
        deltas = tuple(map(rank_delta, post.ranks, prior.ranks))
    return _run(net, ends, [(observed, deltas)], Schedule.fifo(), trace)


def propagate_certain_multi(
    net: SpohnianNetwork,
    evidence: Sequence[EvidenceSpec],
    schedule: Schedule = Schedule.fifo(),
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """Assimilate several pieces of certain evidence by message passing."""
    ends = _require_valid(net)
    for ev in evidence:
        if ev.values is None:
            raise ValueError("certain propagation needs value evidence, not targets")
        if ev.strength is not INF:
            raise ValueError("certain propagation requires strength inf for every item")
    injections = [
        (ev.variable, _certain_deltas(net, ev.variable, ev.values)) for ev in evidence
    ]
    return _run(net, ends, injections, schedule, trace)


def propagate_uncertain_multi(
    net: SpohnianNetwork,
    targets: Sequence[tuple[str, OCF]],
    schedule: Schedule = Schedule.fifo(),
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """Impose target marginals by message passing; see the module docstring
    for what several targets on dependent variables do."""
    ends = _require_valid(net)
    seen: set[str] = set()
    for name, _ in targets:
        if name in seen:
            raise DuplicateTargetVariable(f"two targets for variable {name!r}")
        seen.add(name)
    if not targets:
        return net
    injections = [(name, _target_deltas(net, name, target)) for name, target in targets]
    return _run(net, ends, injections, schedule, trace)


def augment_with_dummy(
    net: SpohnianNetwork, variable: str, target: OCF
) -> tuple[SpohnianNetwork, Variable]:
    """Attach a binary dummy child whose observation imposes the target.

    This is the reference construction the oracle conditions on; the engine
    injects the equivalent first message instead. The dummy's pair table
    puts target + offset under "observed" and the current marginal under
    "unobserved"; the offset keeps the variable's marginal untouched until
    the dummy is actually observed.
    """
    d = net.diagram
    var = d.variable(variable)
    want = StateSpace((var,))
    if target.space != want:
        raise SpaceMismatch(
            f"target for {variable} must be a single-variable ranking over it, "
            f"got one over {target.space.names}"
        )
    current = net.marginal(variable).ranks
    offset = 0
    for j, t in enumerate(target.ranks):
        if t is INF:
            continue
        c = current[j]
        if c is INF:
            raise ImpossibleEvidence(
                f"target gives finite rank to an impossible value of {variable}"
            )
        offset = max(offset, c - t)
    name = f"_observe_{variable}"
    taken = set(d.names)
    while name in taken:
        name = "_" + name
    dummy = Variable(name, ("observed", "unobserved"))
    pair_space = StateSpace((var, dummy))
    ranks: list[Rank] = []
    for j in range(len(var.domain)):
        ranks.append(target.ranks[j] + offset)
        ranks.append(current[j])
    new_diagram = InfluenceDiagram(
        d.variables + (dummy,), d.edges + ((variable, name),)
    )
    tables = dict(net.tables)
    tables[name] = OCF(pair_space, tuple(ranks))
    return SpohnianNetwork(new_diagram, tables), dummy
