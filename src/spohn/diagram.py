"""Influence diagrams: DAGs of variables, restricted to singly connected shape.

Singly connected means the undirected skeleton is a forest: between any two
nodes there is at most one undirected path. That is what lets evidence
propagate by local messages, and what makes the connector of a family
unique. Validation reports problems instead of raising, so a malformed
diagram can still be loaded, inspected and explained.

Path separation here is the head-to-tail / tail-to-tail kind: a path is
blocked by a set when some interior member of the set does NOT have both
arrows pointing into it. Two linked nodes are never separated.

separated() decides it in one reachability walk (Geiger, Verma & Pearl,
1990), linear in the diagram: from x, step to any neighbour, but enter a
member of the set only from one of its parents and leave it only to its
parents. Cutting out the loop between two visits of a node keeps that rule,
as a member is entered and left through its parents on both visits, so a
walk reaches y exactly when an unblocked simple path does, on any diagram,
cycles and self-loops included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import UnknownVariable
from .ocf import StateSpace, Variable


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
            self, "edges", tuple([(str(a), str(b)) for a, b in self.edges])
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

    def __reduce__(self):
        # Rebuild through the constructor, so the cached properties (joint
        # space and its projection cache, kept one-variable spaces, families,
        # adjacency maps) are neither pickled nor copied.
        return type(self), (self.variables, self.edges)

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(self.variables)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def _position(self) -> dict[str, int]:
        """Declaration index per name. The joint space has the same map, but
        building that space lays out its strides, O(n^2) bits over n
        variables, so lookups do not go through it."""
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        return _adjacency(((b, a) for a, b in self.edges), self.names, self._position)

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        return _adjacency(self.edges, self.names, self._position)

    @cached_property
    def _unit_spaces(self) -> dict[str, StateSpace]:
        return {}

    @cached_property
    def _families(self) -> dict[str, tuple[tuple[str, ...], tuple[Variable, ...]]]:
        """Per node, its family's names and variables in declaration order:
        derived once for family_variables, the parser and the constructor."""
        variables, position = self.variables, self._position
        members = [{i} for i in range(len(variables))]
        for a, b in self.edges:
            members[position[b]].add(position[a])
        families = [tuple([variables[i] for i in sorted(kept)]) for kept in members]
        return {v.name: (tuple([u.name for u in f]), f) for v, f in zip(variables, families)}

    def variable(self, name: str) -> Variable:
        pos = self._position.get(name)
        if pos is None:
            raise UnknownVariable(f"unknown variable {name!r}")
        return self.variables[pos]

    def _unit_space(self, name: str) -> StateSpace:
        """The node's one-variable space, made on first use and kept, so
        every marginal read of the node shares it and its projection cache."""
        space = self._unit_spaces.get(name)
        if space is None:
            space = self._unit_spaces[name] = StateSpace((self.variable(name),))
        return space

    def parents(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._children[name]

    def neighbors(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        both = {*self._parents[name], *self._children[name]}
        return tuple(sorted(both, key=self._position.__getitem__))

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

    def family_variables(self, child: str) -> tuple[str, ...]:
        """The family's members in diagram declaration order."""
        self.variable(child)
        return self._families[child][0]

    def validate(self) -> ValidationReport:
        """Check acyclicity and single-connectedness, naming offenders.
        A directed cycle, self-loops included, is an undirected one too, so
        the cycle search runs only when union-find has found a clash."""
        clash = self._find_multiply_connected_pair()
        if clash is None:
            return ValidationReport(True, ())
        cycle = self._find_directed_cycle()
        problems = ["directed cycle: " + " -> ".join(cycle)] if cycle else []
        a, b = clash
        problems.append(
            f"multiply-connected: more than one undirected path between {a} and {b}"
        )
        return ValidationReport(False, tuple(problems))

    def _find_directed_cycle(self) -> list[str] | None:
        # Peeling sources keeps what lies downstream of a cycle, then peeling
        # sinks keeps what lies upstream of one: every node kept has a child
        # kept. Walk from the first declared one until a node repeats.
        kept = _peel(_peel(set(self.names), self._parents, self._children),
                     self._children, self._parents)
        if not kept:
            return None
        positions: dict[str, int] = {}
        cur = min(kept, key=self._position.__getitem__)
        while cur not in positions:
            positions[cur] = len(positions)
            cur = next(m for m in self._children[cur] if m in kept)
        return list(positions)[positions[cur]:] + [cur]

    def _find_multiply_connected_pair(self) -> tuple[str, str] | None:
        parent: dict[str, str] = {n: n for n in self.names}

        def find(n: str) -> str:
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return (a, b)
            parent[ra] = rb
        return None

    def separated(self, x: str, y: str, gamma: Iterable[str] = ()) -> bool:
        """True when every undirected path from x to y is blocked by gamma."""
        if isinstance(gamma, str):
            raise ValueError(f"expected a collection of variable names, not a string: {gamma!r}")
        g = frozenset(gamma)
        for n in g:
            self.variable(n)
        if x == y:
            raise ValueError("separation of a variable from itself is undefined")
        if x in g or y in g:
            raise ValueError("the separating set must not contain x or y")
        self.variable(x)
        self.variable(y)
        parents = self._parents
        seen = {x}
        todo = [x]
        for n in todo:  # todo grows as it is walked
            for m in self.neighbors(n):
                if (n in g and m not in parents[n]) or (m in g and n not in parents[m]):
                    continue  # a member is left to, and entered from, its parents only
                if m == y:
                    return False
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return True

    def unique_connector(self, family: Iterable[str], observed: str) -> str | None:
        """The family member every path from the observed variable enters
        through; family is the members' names, as family_variables gives them.

        None when the observed variable is in a different component. Assumes
        the diagram is singly connected, which makes the member unique.
        """
        self.variable(observed)
        members = set(family)
        if observed in members:
            return observed
        seen = {observed}
        queue = deque([observed])
        while queue:
            n = queue.popleft()
            if n in members:
                return n
            for m in self.neighbors(n):
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        return None


def _adjacency(links: Iterable, names: tuple, order: dict) -> dict[str, tuple[str, ...]]:
    """Per name, the far ends of its (name, far end) links, ordered by order."""
    out: dict[str, list[str]] = {n: [] for n in names}
    for n, m in links:
        out[n].append(m)
    return {n: tuple(sorted(ms, key=order.__getitem__)) for n, ms in out.items()}


def _peel(nodes: set[str], before: dict, after: dict) -> set[str]:
    """What is left of nodes after repeatedly removing any node with no
    before-neighbor left; after is before's inverse relation."""
    left = {n: sum(m in nodes for m in before[n]) for n in nodes}
    free = [n for n, k in left.items() if not k]
    for n in free:  # free grows as it is walked
        for m in after[n]:
            if m in left:
                left[m] -= 1
                if not left[m]:
                    free.append(m)
    return {n for n, k in left.items() if k}
