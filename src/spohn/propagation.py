"""Evidence propagation on singly connected Spohnian networks.

One asynchronous message engine carries every evidence regime. Messages
carry per-value changes in implausibility for the shared variable of an
edge. Because deliveries add deltas, the totals telescope and the final
tables do not depend on delivery order; constant offsets picked up from
cross traffic vanish in the single s-normalization performed per node at
quiescence. Normalizing earlier would bake the constants in, so nothing is
normalized mid-flight.

A ranking matters only up to that normalization (conditioning is
k(.|A) = k(.) - k(A), a uniform shift), so a change that it would undo is
not sent: one that is the same finite number, 0 included, at every value
the edge's snapshot leaves finite. The sender keeps the constant and the
snapshot stays put, so the edge's two ends then differ on the shared
marginal by a finite constant, in either direction. Each end's least rank
is its marginal's least rank, so after s-normalization they agree: the
absorption invariant of Jensen, Lauritzen & Olesen (1990), under which an
absorption that would only add a constant can be left out. A change that
is INF where the snapshot is finite is never such a shift, so values newly
ruled out, and contradictions, travel as before; where the snapshot is
already INF the change is 0 and could only touch INF cells. A family that
only such shifts would reach, say one d-separated from the evidence, stays
the input's own OCF. Injections are always delivered.

One rule carries every observation: propagate takes any mix of them, and
they differ only in the first message each injects at its own variable:

- a value proposition A at strength inf injects 0 on the accepted values
  and inf on the others; strength -inf does the same for the rest of the
  domain; a finite strength alpha injects prior.revise(A, alpha) - prior.

- a target marginal injects target - current. That is the lambda-message
  of a binary dummy child observed with certainty (augment_with_dummy,
  kept as the oracle's reference construction) less a constant, and
  normalization removes the constant. With one target the final marginal
  equals the target exactly; with several targets on dependent variables
  the imposed marginals can land elsewhere, which is inherent to the
  construction and pinned by a regression test rather than "fixed".

propagate is the one entry. propagate_single, propagate_certain_multi
and propagate_uncertain_multi are propagate under older names, left out of
spohn.__all__ and kept only because the benchmark harness (perfbench/)
resolves them by name to time them. They check no evidence kinds: which
kinds a command-line mode takes is the CLI's rule (cli._mode_evidence).

The engine's adjacency is computed once per network, together with its
validation gate (SpohnianNetwork._gate), and engine outputs share it:
for every node its incident edges in declaration order, each with the
receiver, the shared variable, its digit map in the node's table, its
cardinality, the position of the same edge in the receiver's list and
the diagram's edge tuple. A delivery costs time in the receiving family
only, never a scan of the diagram. A family's working vector is made
when it first receives a message, from its own table, and only those
families are s-normalized and rebuilt; every other output table is the
input's own OCF. Both ends of an edge share one snapshot, keyed by the
edge tuple: the shared marginal as last sent, and before the first send
the input's, read through marginal() and inherited with untouched tables.
Valid tables agree on it and delivery is synchronous, so a message moves the
receiver's marginal by exactly the sender's change, INF entries included.

Pending work is a set of dirty marks, not of messages: a delivery marks
the receiver's other edges, and popping a mark sends the change in each
shared marginal since the last send, so changes queued on one edge
coalesce into one message. A pop computes each marginal it sends once, and
the change from each distinct snapshot of the node's own marginal once:
its edges to children that hold the same snapshot (on a first send, all
of them) get one immutable change, so a hub's fan-out costs one change,
not one per child. A delivery adds the change spread over the receiver's
cells, one list(map(add)) with INF absorbing through its own addition,
and a call spreads each change once per digit map, so a fan-out spreads
its change once per table shape. Under the default schedule marks pop in
the collect-then-distribute order of Jensen, Lauritzen & Olesen (1990)
over a rooting of each component: edges toward the root deepest sender
first, then edges away from it shallowest sender first. Each node then sends
toward the root once, after its whole subtree has reported, and away
from it once, after hearing from every side, so a call delivers at most
one message per directed edge, whatever the number of observations.
Shenoy (1991) shows that OCFs satisfy the axioms this order needs. One
store holds the marks: a bucket per key, -depth for an up mark and depth
for a down mark, popped in ascending key order. A call with several
observations keys them by the network's rooting
(SpohnianNetwork._rooting: the first declared node of each component is
its root), computed on the first such call and shared with engine outputs
like the gate. A call with one observation roots its tree at the
observed node and grows that rooting with the wave, so it costs no pass
over the network; every mark it sets is a down mark, so the same buckets
pop breadth first from the observation.
A warm call therefore costs O(touched families + messages), plus one copy
of the table mapping.

The engine mutates only its own per-node working vectors; input networks
are never modified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add
from typing import Iterable, Sequence

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
from .ranks import INF, NEG_INF, BeliefStrength, Rank, _rank_texts, is_rank, rank_delta, s_normalize


@dataclass(frozen=True)
class EvidenceSpec:
    """One observation: either a value proposition with a strength, or a
    whole target marginal for the variable."""

    variable: str
    values: tuple[str, ...] | None = None
    target: tuple[Rank, ...] | None = None
    strength: BeliefStrength = INF

    def __post_init__(self):
        if isinstance(self.values, str):
            raise ValueError(f"values must be a sequence of values, not a string: {self.values!r}")
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
        if type(self.strength) is not int and self.strength not in (INF, NEG_INF):
            raise ValueError(f"strength must be an int, INF or NEG_INF, not {self.strength!r}")
        if self.target is not None and not (all(map(is_rank, self.target)) and 0 in self.target):
            raise ValueError("a target needs ranks (non-negative ints or INF), one of them 0")


@dataclass(frozen=True)
class TraceEntry:
    """One delivered message: per-value implausibility changes for one
    variable, sent along edge (sender, receiver); injections use (v, v).
    deltas is indexed by the variable's domain order, and seq is the
    delivery's place in this call's trace, counted from 1."""

    seq: int
    edge: tuple[str, str]
    variable: str
    deltas: tuple[Rank, ...]

    def format(self) -> str:
        head = f"seq={self.seq} edge={self.edge[0]}->{self.edge[1]}"
        rendered = ",".join(_rank_texts(self.deltas, f"trace entry {head}"))
        return f"{head} var={self.variable} deltas=[{rendered}]"


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """Delivery order for the message engine. A schedule is its seed.

    None, the default (fifo()), is fully deterministic: the injections in
    the order given, then collect then distribute over a rooting of each
    component, which delivers at most one message per directed edge; a
    single observation is its own root, so its wave goes breadth first. A
    seed (seeded()) draws the next injection or dirty mark uniformly, so
    runs are reproducible; an edge may then carry several messages, and
    the tables come out the same.
    """

    seed: int | None = None

    def __post_init__(self):
        if self.seed is not None and (type(self.seed) is bool or not isinstance(self.seed, int)):
            raise ValueError(f"schedule seed must be an int, got {self.seed!r}")

    @classmethod
    def fifo(cls) -> Schedule:
        return cls()

    @classmethod
    def seeded(cls, seed: int) -> Schedule:
        if seed is None:
            raise ValueError("random schedule needs a seed")
        return cls(seed=seed)


def _require_valid(net: SpohnianNetwork) -> dict[str, list[tuple]]:
    report, links = net._gate
    if not report.ok:
        raise InvalidNetwork("; ".join(report.problems))
    return links


def _message(marginal: Sequence[Rank], last: Sequence[Rank]) -> tuple[Rank, ...] | None:
    """The change from an edge's snapshot last to the sender's marginal, or
    None where s-normalization would undo it: where the change is one
    finite number, 0 included, at every value last leaves finite (module
    docstring). At a value last rules out the change is 0 (rank_delta), and
    it could only add to cells that are already INF."""
    change = tuple(map(rank_delta, marginal, last))
    shift = None
    for d, s in zip(change, last):
        if s is not INF:
            if d is INF or shift is not None and d != shift:
                return change
            shift = d
    return None


def _run(
    net: SpohnianNetwork,
    links: dict[str, list[tuple]],
    injections: Sequence[tuple[str, tuple[Rank, ...]]],
    schedule: Schedule,
    trace: list[TraceEntry] | None,
) -> SpohnianNetwork:
    """Deliver each (variable, deltas) injection and every message it sets off.

    An edge's snapshot starts as the input's marginal of the shared
    variable, read through marginal() (module docstring). Every delivery
    adds the message's per-value deltas, spread over the node's cells
    through the edge's digit map, to the node's working vector (on its
    first delivery, to its table) as a new vector; the spread is made once
    per (change, digit map) in the call. It then marks the node's other
    edges dirty: its edge toward the root (an up mark) and its edges away
    from it (one down mark). Popping a mark sends, on each of its edges,
    the change in the shared marginal since the edge's snapshot, unless
    s-normalization would undo it (_message), and makes that marginal the
    snapshot, so nothing a neighbor said is echoed back at it; pending
    changes on an edge coalesce into that one message.
    Each distinct shared variable's marginal is computed once per pop, and
    so is the change from each distinct snapshot of the node's own
    marginal: edges to children that hold the same snapshot share one
    change tuple. Edges toward parents compute their own. A stored
    snapshot is never mutated.

    Under FIFO (no seed) the injections go first, in order; then marks pop
    from one bucket store, up marks deepest sender first and down marks
    shallowest sender first, so each node sends up after all its subtrees
    have reported and down after it has heard from every side: at most one
    message per directed edge. A seeded schedule draws the next injection
    or mark uniformly. Several injections use the network's rooting; a
    single one is the root of its own, which its wave extends as it
    reaches each node, so it sets only down marks and they pop breadth
    first.

    Touched tables are s-normalized once, at quiescence, when every edge's
    two marginals agree up to a constant per edge, and equal after
    normalization; the first node in declaration order whose vector has
    gone entirely infinite names the contradiction. A traced delivery is
    numbered by its place in this call's entries of trace, which may
    already hold earlier ones.
    """
    tables = net.tables
    depth_of, up_of = net._rooting if len(injections) > 1 else ({}, {})
    vec: dict[str, list[Rank]] = {}
    snap: dict[tuple[str, str], list[Rank]] = {}
    # Per (change, digit map), by ids, the two and the change spread over the
    # map's cells: holding both keeps their ids from being reused.
    spreads: dict[tuple[int, int], tuple] = {}
    before = len(trace) if trace is not None else 0

    def deliver(sender: str, node: str, arrival: int, variable: str, deltas) -> None:
        # arrival is the edge's position in the node's links, -1 for an injection.
        if trace is not None:
            trace.append(TraceEntry(len(trace) - before + 1, (sender, node), variable, deltas))
        node_links = links[node]
        digit_of = node_links[arrival][2] if arrival >= 0 else tables[node].space.projection((variable,))
        held = spreads.get((id(deltas), id(digit_of)))
        if held is None:
            held = spreads[id(deltas), id(digit_of)] = (deltas, digit_of, [deltas[j] for j in digit_of])
        work = vec.get(node)
        # INF absorbs through its own __add__ and __radd__.
        vec[node] = list(map(add, tables[node].ranks if work is None else work, held[2]))
        depth = depth_of.get(node)
        if depth is None:
            # One injection: the tree is rooted at it and grows with the wave.
            depth = depth_of[node] = depth_of[sender] + 1 if arrival >= 0 else 0
            up_of[node] = arrival
        up = up_of[node]
        downs = len(node_links) - (up >= 0)
        if arrival != up:
            if up >= 0:
                mark(node, -depth)
            if arrival >= 0:
                downs -= 1
        if downs:
            mark(node, depth)

    def send(node: str, key: int) -> None:
        # key < 0: the node's up mark; key >= 0: its down mark.
        node_links, work, up = links[node], vec[node], up_of[node]
        # The node's own marginal now and in the input, shared by its edges
        # to children, and per snapshot of it (by id) the snapshot and its
        # message: holding the snapshot keeps its id from being reused.
        own = start = None
        changes: dict[int, tuple] = {}
        for k in (up,) if key < 0 else range(len(node_links)):
            if k == up and key >= 0:
                continue
            receiver, shared, digit_s, card, back, edge = node_links[k]
            last = snap.get(edge)
            if shared != node:
                marginal = _least_ranks(work, digit_s, card)
                if last is None:
                    # Valid tables agree with the shared node's own marginal.
                    last = net.marginal(shared).ranks
                change = _message(marginal, last)
            else:
                if own is None:
                    own = _least_ranks(work, digit_s, card)
                if last is None:
                    if start is None:
                        start = net.marginal(node).ranks
                    last = start
                if id(last) not in changes:
                    changes[id(last)] = (last, _message(own, last))
                marginal, change = own, changes[id(last)][1]
            if change is not None:
                snap[edge] = marginal
                deliver(node, receiver, back, shared, change)

    if schedule.seed is not None:
        rng = random.Random(schedule.seed)
        # Pending (node, key, deltas): deltas for an injection, None for a mark.
        pool: list[tuple] = [(v, 0, deltas) for v, deltas in injections]
        marked: set[tuple[str, int]] = set()

        def mark(node: str, key: int) -> None:
            if (node, key) not in marked:
                marked.add((node, key))
                pool.append((node, key, None))

        while pool:
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            node, key, deltas = pool.pop()
            if deltas is None:
                marked.discard((node, key))
                send(node, key)
            else:
                deliver(node, node, -1, node, deltas)
    else:
        # Marks by key, -depth for up marks and depth for down marks, so
        # ascending keys are collect then distribute; every mark a pop sets
        # has a larger key than the one popped. One injection sets down
        # marks only, so the buckets pop breadth first from it.
        buckets: dict[int, dict[str, None]] = {}
        keys: list[int] = []

        def mark(node: str, key: int) -> None:
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
                heappush(keys, key)
            bucket[node] = None

        for v, deltas in injections:
            deliver(v, v, -1, v, deltas)
        while keys:
            key = heappop(keys)
            for node in buckets.pop(key):
                send(node, key)

    # The read-only proxy's copy() copies its dict whole; dict(tables) would
    # go key by key.
    new_tables = tables.copy()
    dead: dict[str, AllInfinite] = {}
    for node, work in vec.items():
        try:
            # Valid: s_normalize leaves a 0 and no negative rank, cell for cell.
            new_tables[node] = OCF._trusted(tables[node].space, s_normalize(work))
        except AllInfinite as exc:
            dead[node] = exc
    if dead:
        node = next(n for n in net.diagram.names if n in dead)
        raise ContradictoryEvidence(
            f"evidence drives every cell of {node}'s table to infinity"
        ) from dead[node]
    return net._revised(new_tables)


def _checked_marginal(
    net: SpohnianNetwork, variable: str, target: Sequence[Rank]
) -> tuple[Rank, ...]:
    """The variable's current marginal, with a target checked against it:
    one rank per value, and no finite rank for a value already ruled out."""
    current = net.marginal(variable).ranks
    if len(target) != len(current):
        raise SpaceMismatch(f"target for {variable} needs {len(current)} ranks, got {len(target)}")
    if any(t is not INF and c is INF for t, c in zip(target, current)):
        raise ImpossibleEvidence(f"target gives finite rank to an impossible value of {variable}")
    return current


def _first_message(net: SpohnianNetwork, ev: EvidenceSpec) -> tuple[Rank, ...]:
    """The message an observation injects at its own variable (module docstring)."""
    variable = ev.variable
    domain = net.diagram.variable(variable).domain
    if ev.target is not None:
        return tuple(map(rank_delta, ev.target, _checked_marginal(net, variable, ev.target)))
    values, strength = ev.values, ev.strength
    for v in values:
        if v not in domain:
            raise UnknownValue(f"variable {variable!r} has no value {v!r}")
    if strength is NEG_INF:
        values = tuple(v for v in domain if v not in values)
        if not values:
            raise ImpossibleEvidence("certainly disbelieving the full domain is contradictory")
        strength = INF
    if strength is INF:
        prior = net.marginal(variable).ranks
        if all(r is INF for v, r in zip(domain, prior) if v in values):
            raise ImpossibleEvidence(
                f"evidence on {variable} is already ruled out by the network"
            )
        return tuple(0 if v in values else INF for v in domain)
    prior = net.marginal(variable)
    post = prior.revise(Proposition.constrain(prior.space, {variable: values}), strength)
    return tuple(map(rank_delta, post.ranks, prior.ranks))


def propagate(
    net: SpohnianNetwork,
    evidence: Iterable[EvidenceSpec],
    schedule: Schedule = Schedule.fifo(),
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """Assimilate any mix of observations and return the updated network.

    The result is the family projection of oracle_posterior's joint: each
    item's target read on the prior, a target as given and a value item
    (A, alpha) as prior.revise(A, alpha). evidence may be any iterable of
    EvidenceSpec, and is read once.
    Value items may repeat a variable; two targets on one may not. Every
    first message is computed, and every error raised, before any delivery.
    """
    links = _require_valid(net)
    evidence = list(evidence)
    seen: set[str] = set()
    for name in (ev.variable for ev in evidence if ev.target is not None):
        if name in seen:
            raise DuplicateTargetVariable(f"two targets for variable {name!r}")
        seen.add(name)
    if not evidence:
        return net
    injections = [(ev.variable, _first_message(net, ev)) for ev in evidence]
    return _run(net, links, injections, schedule, trace)


def propagate_single(
    net: SpohnianNetwork,
    evidence: EvidenceSpec,
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """propagate of one observation, under FIFO, by an older name."""
    return propagate(net, [evidence], trace=trace)


def propagate_certain_multi(
    net: SpohnianNetwork,
    evidence: Sequence[EvidenceSpec],
    schedule: Schedule = Schedule.fifo(),
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """propagate by an older name."""
    return propagate(net, evidence, schedule, trace)


def propagate_uncertain_multi(
    net: SpohnianNetwork,
    targets: Sequence[tuple[str, OCF]],
    schedule: Schedule = Schedule.fifo(),
    trace: list[TraceEntry] | None = None,
) -> SpohnianNetwork:
    """propagate of target marginals, each a one-variable OCF, by an older
    name; see the module docstring for what several targets on dependent
    variables do."""
    _require_valid(net)
    return propagate(net, _target_evidence(net, targets), schedule, trace)


def _target_evidence(
    net: SpohnianNetwork, targets: Sequence[tuple[str, OCF]]
) -> list[EvidenceSpec]:
    """(name, one-variable OCF) targets as evidence items, each checked to
    lie on its variable's own space."""
    evidence = []
    for name, target in targets:
        if target.space != net.diagram._unit_space(name):
            raise SpaceMismatch(
                f"target for {name} must be a single-variable ranking over it, "
                f"got one over {target.space.names}"
            )
        evidence.append(EvidenceSpec(name, target=target.ranks))
    return evidence


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
    # The engine's input checks, and their texts.
    _target_evidence(net, [(variable, target)])
    current = _checked_marginal(net, variable, target.ranks)
    offset = max([0] + [c - t for t, c in zip(target.ranks, current) if t is not INF])
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
