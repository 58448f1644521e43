"""Influence diagrams: DAGs of variables, restricted to singly connected shape.

Singly connected means the undirected skeleton is a forest: between any two
nodes there is at most one undirected path. That is what lets evidence
propagate by local messages, and what makes the connector of a family
unique. Validation reports problems instead of raising, so a malformed
diagram can still be loaded, inspected and explained.

Path separation here is the head-to-tail / tail-to-tail kind: a path is
blocked by a set when some interior member of the set does NOT have both
arrows pointing into it. Two linked nodes are never separated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import UnknownVariable
from .ocf import StateSpace, Variable


@dataclass(frozen=True)
class Family:
    """A node together with its parents, parents in declared order."""

    child: str
    parents: tuple[str, ...]

    @property
    def members(self) -> tuple[str, ...]:
        return self.parents + (self.child,)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class InfluenceDiagram:
    """Variables plus directed edges. Construction is permissive: cycles and
    extra undirected paths are reported by validate(), not rejected here."""

    variables: tuple[Variable, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "edges", tuple((str(a), str(b)) for a, b in self.edges)
        )
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in diagram")
        known = set(names)
        for a, b in self.edges:
            if a not in known:
                raise UnknownVariable(f"edge endpoint {a!r} is not a variable")
            if b not in known:
                raise UnknownVariable(f"edge endpoint {b!r} is not a variable")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge in diagram")

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(self.variables)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.names}
        for a, b in self.edges:
            out[b].append(a)
        order = self.space._position
        return {n: tuple(sorted(ps, key=order.__getitem__)) for n, ps in out.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.names}
        for a, b in self.edges:
            out[a].append(b)
        order = self.space._position
        return {n: tuple(sorted(cs, key=order.__getitem__)) for n, cs in out.items()}

    @cached_property
    def _edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _neighbors(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.names}
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        order = self.space._position
        return {n: tuple(sorted(set(ns), key=order.__getitem__)) for n, ns in out.items()}

    def variable(self, name: str) -> Variable:
        return self.space.variable(name)

    def parents(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._children[name]

    def neighbors(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._neighbors[name]

    def incident_edges(self, name: str) -> tuple[tuple[str, str], ...]:
        """Edges touching the node, in declaration order."""
        self.variable(name)
        return tuple(e for e in self.edges if name in e)

    def ancestors(self, name: str) -> tuple[str, ...]:
        """Every node with a directed path into the named one, declaration order."""
        self.variable(name)
        seen: set[str] = set()
        stack = list(self._parents[name])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(self._parents[n])
        return tuple(n for n in self.names if n in seen)

    def family(self, child: str) -> Family:
        return Family(child, self.parents(child))

    def family_variables(self, child: str) -> tuple[str, ...]:
        """The family's members in diagram declaration order."""
        members = {*self.parents(child), child}
        return tuple(sorted(members, key=self.space._position.__getitem__))

    def validate(self) -> ValidationReport:
        """Check acyclicity and single-connectedness, naming offenders."""
        problems: list[str] = []
        cycle = self._find_directed_cycle()
        if cycle:
            problems.append("directed cycle: " + " -> ".join(cycle))
        clash = self._find_multiply_connected_pair()
        if clash:
            a, b = clash
            problems.append(
                f"multiply-connected: more than one undirected path between {a} and {b}"
            )
        return ValidationReport(not problems, tuple(problems))

    def _find_directed_cycle(self) -> list[str] | None:
        indeg = {n: 0 for n in self.names}
        for _, b in self.edges:
            indeg[b] += 1
        queue = deque(n for n in self.names if indeg[n] == 0)
        seen = 0
        while queue:
            n = queue.popleft()
            seen += 1
            for m in self._children[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if seen == len(self.names):
            return None
        # Prune the leftover nodes that only lead out of the cycles, so every
        # one kept has a child kept; then walk from the first declared one
        # until a node repeats.
        stuck = {n for n in self.names if indeg[n] > 0}
        outdeg = {n: sum(m in stuck for m in self._children[n]) for n in stuck}
        dead_ends = [n for n in stuck if outdeg[n] == 0]
        while dead_ends:
            n = dead_ends.pop()
            stuck.discard(n)
            for p in self._parents[n]:
                if p in stuck:
                    outdeg[p] -= 1
                    if outdeg[p] == 0:
                        dead_ends.append(p)
        start = min(stuck, key=self.space._position.__getitem__)
        trail = [start]
        positions = {start: 0}
        cur = start
        while True:
            cur = next(m for m in self._children[cur] if m in stuck)
            if cur in positions:
                return trail[positions[cur]:] + [cur]
            positions[cur] = len(trail)
            trail.append(cur)

    def _find_multiply_connected_pair(self) -> tuple[str, str] | None:
        parent: dict[str, str] = {n: n for n in self.names}

        def find(n: str) -> str:
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        for a, b in self.edges:
            if a == b:
                return (a, b)
            ra, rb = find(a), find(b)
            if ra == rb:
                return (a, b)
            parent[ra] = rb
        return None

    def undirected_paths(self, x: str, y: str) -> Iterator[list[str]]:
        """All simple undirected paths from x to y (exhaustive DFS)."""
        self.variable(x)
        self.variable(y)
        stack: list[tuple[str, list[str]]] = [(x, [x])]
        while stack:
            node, path = stack.pop()
            if node == y:
                if len(path) > 1 or x == y:
                    yield path
                continue
            for m in self._neighbors[node]:
                if m not in path:
                    stack.append((m, path + [m]))

    def _path_blocked(self, path: list[str], gamma: frozenset[str]) -> bool:
        for i in range(1, len(path) - 1):
            mid = path[i]
            if mid not in gamma:
                continue
            into_left = (path[i - 1], mid) in self._edge_set
            into_right = (path[i + 1], mid) in self._edge_set
            if not (into_left and into_right):
                return True  # head-to-tail or tail-to-tail at a member
        return False

    def separated(self, x: str, y: str, gamma: Iterable[str] = ()) -> bool:
        """True when every undirected path from x to y is blocked by gamma."""
        g = frozenset(gamma)
        for n in g:
            self.variable(n)
        if x == y:
            raise ValueError("separation of a variable from itself is undefined")
        if x in g or y in g:
            raise ValueError("the separating set must not contain x or y")
        self.variable(x)
        self.variable(y)
        return all(self._path_blocked(p, g) for p in self.undirected_paths(x, y))

    def unique_connector(self, fam: Family, observed: str) -> str | None:
        """The family member every path from the observed variable enters through.

        None when the observed variable is in a different component. Assumes
        the diagram is singly connected, which makes the member unique.
        """
        self.variable(observed)
        members = set(fam.members)
        if observed in members:
            return observed
        seen = {observed}
        queue = deque([observed])
        while queue:
            n = queue.popleft()
            if n in members:
                return n
            for m in self._neighbors[n]:
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        return None
