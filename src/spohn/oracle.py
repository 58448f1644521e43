"""Brute-force reference path over the full joint ranking.

The oracle ignores the network structure entirely. oracle_posterior takes
any mix of evidence, as propagate does, and reads each item's target on
the prior: it folds the infinite items and the first finite one into the
joint OCF by plain revision, each run of infinite items as one
conditioning, and imposes every other item the long way round, through
an explicit dummy child (augment_with_dummy) conditioned on being
observed. It then projects the result back onto families.
Agreement between that and the message engine is the strongest
correctness check this package has, so nothing here may ever share code
with the propagation module's update logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import prod
from typing import Iterable, Sequence

from .diagram import InfluenceDiagram
from .errors import SpohnError, TooLargeForOracle
from .network import SpohnianNetwork
from .ocf import OCF, Proposition, StateSpace, Variable
from .propagation import EvidenceSpec, augment_with_dummy
from .ranks import INF, NEG_INF, _rank_texts

# Exhaustive enumeration is the point; past 12 bits of state space it stops
# being a test tool and starts being a space heater.
ORACLE_STATE_LIMIT = 4096


def ensure_tractable(space: StateSpace) -> None:
    """Refuse a space the oracle cannot enumerate."""
    _ensure_tractable_over(space.variables)


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
            head = f"node={node} state={','.join(state)}"
            engine, oracle = _rank_texts((engine, oracle), f"the divergence at {head}")
            lines.append(f"{head} engine={engine} oracle={oracle}")
        for e in self.independence_audit:
            given = ",".join(e.given) if e.given else "-"
            lines.append(
                f"pair={e.x},{e.y} given={given} "
                f"separated={str(e.separated).lower()} independent={str(e.independent).lower()}"
            )
        return lines


def oracle_revise(kappa: OCF, evidence: Sequence[EvidenceSpec]) -> OCF:
    """Fold value evidence into the joint, in order, by plain revision.

    A run of certain items (strength inf or -inf, the latter counting as its
    complement) is one conditioning on their conjunction, since conditioning
    composes: kappa(.|A)(.|B) = kappa(.|A and B) (Spohn 1988). Finite items
    revise one at a time.
    """
    ensure_tractable(kappa.space)
    out = kappa
    for certain, run in groupby(evidence, lambda ev: ev.strength is INF or ev.strength is NEG_INF):
        if certain:
            out = _condition(out, list(run))
            continue
        for ev in run:
            out = out.revise(_proposition(out.space, ev), ev.strength)
    return out


def _proposition(space: StateSpace, ev: EvidenceSpec) -> Proposition:
    if ev.values is None:
        raise ValueError("the oracle folds value evidence, not target marginals")
    return Proposition.constrain(space, {ev.variable: ev.values})


def _condition(kappa: OCF, run: list[EvidenceSpec]) -> OCF:
    """Condition on a run of certain items in one revision. Where an item
    is malformed, or the conjunction is empty or has no finite cell, the
    run is walked item by item instead, which raises what revising with
    that item would."""
    space = kappa.space
    both = full = (1 << space.size) - 1
    try:
        for ev in run:
            # Never empty itself: an EvidenceSpec has values. Its complement may be.
            mask = _proposition(space, ev).mask
            both &= mask if ev.strength is INF else full ^ mask
        return kappa.revise(Proposition(space, both), INF)
    except (SpohnError, ValueError):
        pass
    for ev in run:
        kappa = kappa.revise(_proposition(space, ev), ev.strength)
    return kappa


def _plan(
    net: SpohnianNetwork, evidence: Sequence[EvidenceSpec]
) -> tuple[list[EvidenceSpec], list[EvidenceSpec]]:
    """How oracle_posterior takes a call apart: the value items it folds
    into the prior joint, the first finite one first and then every
    infinite one, and the items that each get a dummy child, every target
    and every later finite one. Refuses a call whose joint, dummies
    included, the oracle cannot enumerate."""
    finite = [ev for ev in evidence if type(ev.strength) is int]  # a target's is INF
    infinite = [ev for ev in evidence if ev.values is not None and type(ev.strength) is not int]
    dummied = [ev for ev in evidence if ev.target is not None] + finite[1:]
    _ensure_tractable_over(net.diagram.variables, len(dummied))
    return finite[:1] + infinite, dummied


def oracle_posterior(net: SpohnianNetwork, evidence: Iterable[EvidenceSpec]) -> OCF:
    """Posterior joint over the network's own variables after any mix of
    evidence, any iterable of EvidenceSpec as propagate takes, read once;
    propagate's tables must be its family projections.

    Each item's target is read on the prior: a target as given, a value
    item (A, alpha) as prior.revise(A, alpha). An item of infinite strength
    conditions the joint. The first finite one revises the prior joint,
    which adds exactly prior.revise(A, alpha) - prior on A's variable, so it
    needs no dummy. Every other item gets its own binary dummy child
    (augment_with_dummy); the joint is conditioned on every dummy being
    observed, and the dummies are projected away.
    """
    folded, dummied = _plan(net, list(evidence))
    augmented = net
    for ev in dummied:
        prior = net.marginal(ev.variable)
        if ev.target is not None:
            target = OCF(prior.space, ev.target)
        else:
            prop = Proposition.constrain(prior.space, {ev.variable: ev.values})
            target = prior.revise(prop, ev.strength)
        augmented, _ = augment_with_dummy(augmented, ev.variable, target)
    dummies = augmented.diagram.names[len(net.diagram.names):]
    observed = [EvidenceSpec(d, values=("observed",)) for d in dummies]
    return oracle_revise(augmented.joint(), folded + observed).marginalize(net.diagram.names)


def compare(result: SpohnianNetwork, oracle_joint: OCF) -> OracleReport:
    """Project the oracle joint onto families and diff against the engine's tables."""
    expected = SpohnianNetwork.from_joint(oracle_joint, result.diagram)
    for node in result.diagram.names:
        got = result.tables[node]
        want = expected.tables[node]
        # One tuple comparison per family, in C, INF cells by identity;
        # only a family that differs is walked cell by cell.
        if got.ranks == want.ranks:
            continue
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
