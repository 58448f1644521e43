"""Rank arithmetic.

A rank is a grade of implausibility: a non-negative int, or the single
absorbing infinity INF for the impossible. Finite ranks are plain Python
ints, so ordinary arithmetic, min() and sorting just work; INF is a
dedicated singleton (not a large sentinel integer) that absorbs addition
and finite subtraction and refuses INF - INF, which is never meaningful
and always signals a bug upstream.

Signed intermediate values (message deltas, belief strengths) reuse the
same representation but may be negative; NEG_INF exists only as a belief
strength, never as a rank.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, TypeAlias, Union

from .errors import AllInfinite, DocumentError, RankArithmeticError


class _Infinity:
    """Absorbing infinite rank. One instance, INF."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (int, _Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Infinity):
            raise RankArithmeticError("inf - inf is undefined")
        if isinstance(other, int):
            return self
        return NotImplemented

    def __rsub__(self, other):
        raise RankArithmeticError("cannot subtract inf from a finite rank")

    def __neg__(self):
        return NEG_INF

    # INF is strictly above every int and equal only to itself.
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return isinstance(other, (int, _NegInfinity))

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("spohn.INF")

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return "INF"


class _NegInfinity:
    """Mirror of INF for belief strengths; no additive arithmetic."""

    __slots__ = ()

    def __neg__(self):
        return INF

    def __lt__(self, other):
        return isinstance(other, (int, _Infinity))

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("spohn.NEG_INF")

    def __repr__(self):
        return "-inf"

    def __reduce__(self):
        return "NEG_INF"


INF = _Infinity()
NEG_INF = _NegInfinity()


Rank: TypeAlias = Union[int, _Infinity]
BeliefStrength: TypeAlias = Union[int, _Infinity, _NegInfinity]


def is_rank(value: object) -> bool:
    """True for a non-negative int or INF (bools excluded)."""
    if isinstance(value, _Infinity):
        return True
    return type(value) is int and value >= 0


def _rank_texts(ranks: Sequence[Rank], holder: str, inf: str = "inf") -> list[str]:
    """Each rank, or signed change, in decimal and INF as inf. The engine
    can add ranks past sys.get_int_max_str_digits(), the limit str() has
    for an int, from inputs within it: that is a DocumentError naming the
    holder, raised before any text of the sequence is written."""
    try:
        return [inf if r is INF else str(r) for r in ranks]
    except ValueError as exc:
        raise DocumentError(
            f"{holder} holds a rank of more than {sys.get_int_max_str_digits()} digits, too long to write"
        ) from exc


def rank_delta(new: Rank, old: Rank) -> Rank:
    """Change in implausibility, new relative to old.

    A value already impossible stays impossible, so inf-to-inf counts as
    no change; inf-to-finite would resurrect an excluded value and is a bug.
    """
    if isinstance(new, _Infinity):
        return 0 if isinstance(old, _Infinity) else INF
    if isinstance(old, _Infinity):
        raise RankArithmeticError("a finite rank cannot replace an infinite one")
    return new - old


def s_normalize(entries: Iterable[Rank]) -> tuple[Rank, ...]:
    """Shift a signed rank vector so its least finite entry becomes 0.

    Infinite entries stay infinite. Raises AllInfinite when nothing is
    finite, which is how contradictory certain evidence announces itself.
    A vector whose least finite entry is already 0 is returned as is.
    """
    values = tuple(entries)
    low = INF
    for v in values:
        if v is not INF and (low is INF or v < low):
            low = v
    if low is INF:
        raise AllInfinite("no finite entry to normalize against")
    if low == 0:
        return values
    return tuple(v if v is INF else v - low for v in values)
