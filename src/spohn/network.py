"""Spohnian networks: an influence diagram plus one rank table per family.

Each node carries an OCF over itself and its parents (variables kept in
diagram declaration order). The joint ranking is assembled by the
conditional chain rule: every node contributes its family rank minus its
own table's parent marginal. Networks produced by from_joint are coherent
by construction; validate() checks the structural half (diagram shape) and
the semantic half (neighboring tables agree on shared marginals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        object.__setattr__(self, "tables", canonical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpohnianNetwork):
            return NotImplemented
        return self.diagram == other.diagram and self.tables == other.tables

    def marginal(self, name: str) -> OCF:
        """The single-variable ranking of a node, read off its own table."""
        self.diagram.variable(name)
        return self.tables[name].marginalize((name,))

    def joint(self) -> OCF:
        """Assemble the full ranking by the conditional chain rule."""
        full = self.diagram.space
        total: list[Rank] = [0] * full.size
        for node in self.diagram.names:
            table = self.tables[node]
            proj_fam = full.projection(table.space.names)
            parents = self.diagram.parents(node)
            tranks = table.ranks
            if parents:
                size = table.space.size // len(self.diagram.variable(node).domain)
                pranks = _least_ranks(tranks, table.space.projection(parents), size)
                proj_par = full.projection(parents)
            for i in range(full.size):
                if total[i] is INF:
                    continue
                t = tranks[proj_fam[i]]
                if t is INF:
                    total[i] = INF
                    continue
                if parents:
                    p = pranks[proj_par[i]]
                    if p is INF:
                        raise InconsistentTables(
                            f"table for {node}: finite cell under an impossible parent configuration"
                        )
                    total[i] += t - p
                else:
                    total[i] += t
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
        """Diagram shape plus marginal agreement across every edge."""
        problems = list(self.diagram.validate().problems)
        for parent, child in self.diagram.edges:
            card = len(self.diagram.variable(parent).domain)
            child_t, parent_t = self.tables[child], self.tables[parent]
            from_child = _least_ranks(child_t.ranks, child_t.space.projection((parent,)), card)
            from_parent = _least_ranks(parent_t.ranks, parent_t.space.projection((parent,)), card)
            if from_child != from_parent:
                problems.append(
                    f"edge {parent}->{child}: tables disagree on the marginal of {parent}"
                )
        return ValidationReport(not problems, tuple(problems))
