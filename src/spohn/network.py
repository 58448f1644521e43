"""Spohnian networks: an influence diagram plus one rank table per family.

Each node carries an OCF over itself and its parents (variables kept in
diagram declaration order). The joint ranking is the sum of the family
tables less the marginals that neighboring tables share: a node's own
marginal is shared on every edge to a child, so it is subtracted once per
child. On a polytree the families form a tree joined by these
single-variable separators, so when every edge agrees on its marginal the
tables are exactly the family marginals of that joint, whether or not a
node's parents are independent (evidence at or below a collider makes
them dependent). validate() checks the diagram's shape and the shared
marginals: a network is valid exactly when both ends of every edge agree
on its marginal, so the message engine keeps one snapshot per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .diagram import InfluenceDiagram, ValidationReport
from .errors import InconsistentTables, SpaceMismatch
from .ocf import OCF, _least_ranks
from .ranks import INF, Rank


@dataclass(frozen=True)
class SpohnianNetwork:
    diagram: InfluenceDiagram
    tables: Mapping[str, OCF] = field(repr=False)

    def __post_init__(self):
        names = self.diagram.names
        missing = set(names) - set(self.tables)
        if missing:
            raise ValueError(f"missing tables for {sorted(missing)}")
        extra = set(self.tables) - set(names)
        if extra:
            raise ValueError(f"tables for unknown variables {sorted(extra)}")
        families = self.diagram._families
        canonical: dict[str, OCF] = {}
        for node in names:
            table = self.tables[node]
            fam, want = families[node]
            # Parsed tables hold the family's own tuple: identity answers first.
            if table.space.variables is not want and table.space.variables != want:
                raise SpaceMismatch(
                    f"table for {node} is over {table.space.names}, expected {fam}"
                )
            canonical[node] = table
        object.__setattr__(self, "tables", MappingProxyType(canonical))

    def __reduce__(self):
        # The read-only mapping does not pickle; rebuild through the constructor.
        return type(self), (self.diagram, dict(self.tables))

    def marginal(self, name: str) -> OCF:
        """The single-variable ranking of a node, read off its own table.

        A root's table is its marginal and is returned as is. Any other
        node's marginal is one least-rank pass over its table, on the
        diagram's one-variable space for the node, kept on the immutable
        table; engine results share every table their messages did not
        reach, so they inherit it. The memo is returned before any other
        work, but only when it lies on this diagram's space, so a table
        shared with another diagram never returns that one's marginal.
        Equal to table.marginalize((name,)), and on a valid network to
        joint().marginalize((name,)); an unknown name raises UnknownVariable.
        """
        table = self.tables.get(name)
        if table is not None:
            marg = table._marginal
            if marg is not None and marg.space is self.diagram._unit_spaces.get(name):
                return marg
        space = self.diagram._unit_space(name)
        if len(table.space.variables) == 1:
            return table
        ranks = _least_ranks(table.ranks, table.space.projection((name,)), space.size)
        # Valid: the least ranks of a valid table, so one of them is 0.
        marg = OCF._trusted(space, tuple(ranks))
        object.__setattr__(table, "_marginal", marg)
        return marg

    def joint(self) -> OCF:
        """Assemble the full ranking: family tables minus shared marginals.

        Every table is added once; a node's own marginal, read off its own
        table, is subtracted once per child. Tables that fail validate() can
        sum to a negative rank or to no rank-0 state: InconsistentTables.
        """
        full = self.diagram.space
        total: list[Rank] | None = None
        for node in self.diagram.names:
            table = self.tables[node]
            cells = table.ranks
            shared = len(self.diagram.children(node))
            if shared:
                own, marg = table.space.projection((node,)), self.marginal(node).ranks
                cells = [t if t is INF else t - shared * marg[x] for t, x in zip(cells, own)]
            proj = full.projection(table.space.names)
            if total is None:  # the first family's column seeds the sum
                total = [cells[j] for j in proj]
            else:
                total = [t + cells[j] for t, j in zip(total, proj)]
        try:
            return OCF(full, tuple(total))
        except ValueError as exc:
            raise InconsistentTables(f"node tables do not compose: {exc}") from exc

    @classmethod
    def from_joint(cls, kappa: OCF, diagram: InfluenceDiagram) -> SpohnianNetwork:
        """Project a joint ranking onto every family of the diagram."""
        if kappa.space.variables != diagram.variables:
            raise SpaceMismatch(
                "joint ranking must be over the diagram's variables in declared order"
            )
        tables = {
            node: kappa.marginalize(diagram.family_variables(node))
            for node in diagram.names
        }
        return cls(diagram, tables)

    def validate(self) -> ValidationReport:
        """Diagram shape plus marginal agreement across every edge: both
        ends' tables must give the shared variable the same marginal.
        Recomputed on every call: an engine output inherits its input's
        gate (_revised), so this is the one check of its own tables."""
        return self._check()[0]

    @cached_property
    def _gate(self) -> tuple[ValidationReport, dict[str, list[tuple]]]:
        """_check(), once per network: the message engine's gate and adjacency.

        Sound because the diagram is immutable and tables is a read-only
        mapping over OCFs, which are immutable too. Pickling and copying
        rebuild through the constructor, so the copy computes its own.
        """
        return self._check()

    def _check(self) -> tuple[ValidationReport, dict[str, list[tuple]]]:
        """validate()'s report plus, per node, its incident edges in
        declaration order as (receiver, shared variable, its digit map in the
        node's table, cardinality, position of the same edge in the
        receiver's list, the edge's own tuple from diagram.edges: both ends
        hold it, and the engine keys its one snapshot per edge by it). A
        digit map depends only on (size, stride, cardinality), so all tables
        of one shape share the first one's projection. Each parent's digit
        map in its own table, its own marginal and its cardinality are
        computed once for all its edges to children."""
        d = self.diagram
        problems = list(d.validate().problems)
        links: dict[str, list[tuple]] = {node: [] for node in d.names}
        maps: dict[tuple[int, int, int], list[int]] = {}
        parents: dict[str, tuple[list[int], list[Rank], int]] = {}

        def digit_map(space, name: str, card: int) -> list[int]:
            key = (space.size, space.strides[space.names.index(name)], card)
            if key not in maps:
                maps[key] = space.projection((name,))
            return maps[key]

        for edge in d.edges:
            a, b = edge
            entry = parents.get(a)
            if entry is None:
                ta, card = self.tables[a], len(d.variable(a).domain)
                digit_a = digit_map(ta.space, a, card)
                entry = parents[a] = (digit_a, _least_ranks(ta.ranks, digit_a, card), card)
            digit_a, own, card = entry
            tb = self.tables[b]
            digit_b = digit_map(tb.space, a, card)
            if own != _least_ranks(tb.ranks, digit_b, card):
                problems.append(f"edge {a}->{b}: tables disagree on the marginal of {a}")
            at_a, at_b = len(links[a]), len(links[b])
            links[a].append((b, a, digit_a, card, at_b, edge))
            links[b].append((a, a, digit_b, card, at_a, edge))
        return ValidationReport(not problems, tuple(problems)), links

    @cached_property
    def _rooting(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per node, its depth and the position of its edge toward the root
        in its _gate adjacency (-1 at a root); the first declared node of
        each component is its root. Computed once per network, on the first
        engine call with several observations, and shared with engine
        outputs like _gate."""
        links = self._gate[1]
        depth: dict[str, int] = {}
        up: dict[str, int] = {}
        for root in self.diagram.names:
            if root in depth:
                continue
            depth[root], up[root] = 0, -1
            order = [root]
            for node in order:  # breadth first: order grows as it is walked
                below = depth[node] + 1
                for receiver, _, _, _, back, _ in links[node]:
                    if receiver not in depth:
                        depth[receiver], up[receiver] = below, back
                        order.append(receiver)
        return depth, up

    def _revised(self, tables: dict[str, OCF]) -> SpohnianNetwork:
        """The message engine's output: this diagram, tables over the same
        spaces (so the constructor's space checks are skipped), and this
        network's gate, adjacency and, once computed, rooting. It validates
        by construction: at quiescence every edge's two marginals agree, and
        s-normalization shifts both by the same least rank."""
        out = object.__new__(type(self))
        object.__setattr__(out, "diagram", self.diagram)
        object.__setattr__(out, "tables", MappingProxyType(tables))
        out.__dict__["_gate"] = self._gate
        if "_rooting" in self.__dict__:
            out.__dict__["_rooting"] = self._rooting
        return out
