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
marginals, which are the message engine's starting snapshots: a network
is valid exactly when every edge's two starting snapshots agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .diagram import InfluenceDiagram, ValidationReport
from .errors import InconsistentTables, SpaceMismatch
from .ocf import OCF, _least_ranks
from .ranks import INF, Rank


@dataclass(frozen=True, eq=False)
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
        canonical: dict[str, OCF] = {}
        for node in names:
            table = self.tables[node]
            fam = self.diagram.family_variables(node)
            want = tuple(self.diagram.variable(n) for n in fam)
            if table.space.variables != want:
                raise SpaceMismatch(
                    f"table for {node} is over {table.space.names}, expected {fam}"
                )
            canonical[node] = table
        object.__setattr__(self, "tables", MappingProxyType(canonical))

    def __reduce__(self):
        # The read-only mapping does not pickle; rebuild through the constructor.
        return type(self), (self.diagram, dict(self.tables))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpohnianNetwork):
            return NotImplemented
        return self.diagram == other.diagram and self.tables == other.tables

    def marginal(self, name: str) -> OCF:
        """The single-variable ranking of a node, read off its own table."""
        self.diagram.variable(name)
        return self.tables[name].marginalize((name,))

    def joint(self) -> OCF:
        """Assemble the full ranking: family tables minus shared marginals.

        Every table is added once; a node's own marginal, read off its own
        table, is subtracted once per child. Tables that fail validate() can
        sum to a negative rank or to no rank-0 state: InconsistentTables.
        """
        full = self.diagram.space
        total: list[Rank] = [0] * full.size
        for node in self.diagram.names:
            table = self.tables[node]
            cells = table.ranks
            shared = len(self.diagram.children(node))
            if shared:
                own = table.space.projection((node,))
                marg = _least_ranks(cells, own, len(self.diagram.variable(node).domain))
                cells = [t if t is INF else t - shared * marg[x] for t, x in zip(cells, own)]
            proj = full.projection(table.space.names)
            total = [t + cells[j] for t, j in zip(total, proj)]
        try:
            return OCF(full, tuple(total))
        except ValueError as exc:
            raise InconsistentTables(f"node tables do not compose: {exc}") from exc

    @classmethod
    def from_joint(cls, kappa: OCF, diagram: InfluenceDiagram) -> SpohnianNetwork:
        """Project a joint ranking onto every family of the diagram."""
        if kappa.space.variables != diagram.space.variables:
            raise SpaceMismatch(
                "joint ranking must be over the diagram's variables in declared order"
            )
        tables = {
            node: kappa.marginalize(diagram.family_variables(node))
            for node in diagram.names
        }
        return cls(diagram, tables)

    def validate(self) -> ValidationReport:
        """Diagram shape plus marginal agreement across every edge: its two
        starting snapshots in the message engine must be equal."""
        return self._check()[0]

    def _check(self) -> tuple[ValidationReport, list[tuple]]:
        """validate()'s report plus, per edge (a, b) in declaration order, a's
        digit map and marginal in a's table, then the same in b's table."""
        problems = list(self.diagram.validate().problems)
        ends = []
        for a, b in self.diagram.edges:
            card = len(self.diagram.variable(a).domain)
            ta, tb = self.tables[a], self.tables[b]
            digit_a, digit_b = ta.space.projection((a,)), tb.space.projection((a,))
            marg_a = _least_ranks(ta.ranks, digit_a, card)
            marg_b = _least_ranks(tb.ranks, digit_b, card)
            if marg_a != marg_b:
                problems.append(f"edge {a}->{b}: tables disagree on the marginal of {a}")
            ends.append((digit_a, marg_a, digit_b, marg_b))
        return ValidationReport(not problems, tuple(problems)), ends
