"""Brute-force reference path over the full joint ranking.

The oracle ignores the network structure entirely: it folds evidence into
the joint OCF one revision at a time, then projects the result back onto
families. Target marginals take the long way round: explicit dummy
children (augment_with_dummy), conditioned on being observed. Agreement
between that and the message engine is the strongest correctness check
this package has, so nothing here may ever share code with the
propagation module's update logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Sequence

from .diagram import InfluenceDiagram
from .errors import TooLargeForOracle
from .network import SpohnianNetwork
from .ocf import OCF, Proposition, StateSpace, Variable
from .propagation import EvidenceSpec, augment_with_dummy

# Exhaustive enumeration is the point; past 12 bits of state space it stops
# being a test tool and starts being a space heater.
ORACLE_STATE_LIMIT = 4096


def ensure_tractable(space: StateSpace, dummies: int = 0) -> None:
    """Refuse a space the oracle cannot enumerate, counting dummies extra
    binary variables that will join it before the joint is built."""
    _ensure_tractable_over(space.variables, dummies)


def _ensure_tractable_over(variables: Sequence[Variable], dummies: int = 0) -> None:
    """ensure_tractable for the space over these variables, without building
    it: a space lays out its strides at construction, O(n^2) bits over n
    variables, which a diagram's joint space should not spend to be refused."""
    size = prod(len(v.domain) for v in variables) << dummies
    if size > ORACLE_STATE_LIMIT:
        try:
            count = str(size)
        except ValueError:  # past sys.get_int_max_str_digits()
            count = f"at least 2**{size.bit_length() - 1}"
        raise TooLargeForOracle(f"state space has {count} states, oracle limit is {ORACLE_STATE_LIMIT}")


@dataclass(frozen=True)
class AuditEntry:
    x: str
    y: str
    given: tuple[str, ...]
    separated: bool
    independent: bool


@dataclass(frozen=True)
class OracleReport:
    passed: bool
    first_divergence: tuple | None = None
    independence_audit: tuple[AuditEntry, ...] = ()

    def to_lines(self) -> list[str]:
        lines = ["match" if self.passed else "DIVERGENCE"]
        if self.first_divergence is not None:
            node, state, engine, oracle = self.first_divergence
            lines.append(
                f"node={node} state={','.join(state)} engine={engine} oracle={oracle}"
            )
        for e in self.independence_audit:
            given = ",".join(e.given) if e.given else "-"
            lines.append(
                f"pair={e.x},{e.y} given={given} "
                f"separated={str(e.separated).lower()} independent={str(e.independent).lower()}"
            )
        return lines


def oracle_revise(kappa: OCF, evidence: Sequence[EvidenceSpec]) -> OCF:
    """Fold value evidence into the joint, in order, by plain revision."""
    ensure_tractable(kappa.space)
    out = kappa
    for ev in evidence:
        if ev.values is None:
            raise ValueError("the oracle folds value evidence, not target marginals")
        prop = Proposition.constrain(out.space, {ev.variable: ev.values})
        out = out.revise(prop, ev.strength)
    return out


def oracle_impose(net: SpohnianNetwork, targets: Sequence[tuple[str, OCF]]) -> OCF:
    """Posterior joint over the network's own variables after imposing targets.

    The reference construction: one binary dummy child per target
    (augment_with_dummy), the augmented joint conditioned on every dummy
    being observed, and the dummies projected away.
    """
    augmented = net
    for name, target in targets:
        augmented, _ = augment_with_dummy(augmented, name, target)
    _ensure_tractable_over(augmented.diagram.variables)
    dummies = augmented.diagram.names[len(net.diagram.names):]
    conditioned = oracle_revise(
        augmented.joint(), [EvidenceSpec(d, values=("observed",)) for d in dummies]
    )
    return conditioned.marginalize(net.diagram.names)


def compare(result: SpohnianNetwork, oracle_joint: OCF) -> OracleReport:
    """Project the oracle joint onto families and diff against the engine's tables."""
    expected = SpohnianNetwork.from_joint(oracle_joint, result.diagram)
    for node in result.diagram.names:
        got = result.tables[node]
        want = expected.tables[node]
        for i, (g, w) in enumerate(zip(got.ranks, want.ranks)):
            if g != w:
                state = got.space.state_at(i)
                return OracleReport(False, (node, state, g, w))
    return OracleReport(True)


def independence_audit(
    kappa: OCF, diagram: InfluenceDiagram, max_given: int = 2
) -> OracleReport:
    """Tabulate path separation against rank independence for every pair.

    Separation (head-to-tail or tail-to-tail blocking) is a structural
    statement; independence is a numeric one. They are recorded side by
    side rather than asserted equal: blocked paths do imply independence
    on coherent networks, but unseparated pairs may still be numerically
    independent for particular tables.
    """
    ensure_tractable(kappa.space)
    names = diagram.names
    entries: list[AuditEntry] = []
    for x, y in combinations(names, 2):
        rest = [n for n in names if n != x and n != y]
        for k in range(min(max_given, len(rest)) + 1):
            for given in combinations(rest, k):
                entries.append(
                    AuditEntry(
                        x,
                        y,
                        given,
                        diagram.separated(x, y, given),
                        kappa.is_independent(x, y, given),
                    )
                )
    # Separation must imply independence; the converse is allowed to fail.
    sound = all(e.independent for e in entries if e.separated)
    return OracleReport(sound, independence_audit=tuple(entries))
