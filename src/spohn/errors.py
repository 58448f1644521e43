"""Exception types raised by the ranking engine.

Everything derives from SpohnError so callers can catch the library in one
clause.
"""

from __future__ import annotations


class SpohnError(Exception):
    """Base class for all errors raised by this package."""


class RankArithmeticError(SpohnError):
    """Internal arithmetic breach, e.g. infinity minus infinity."""


class AllInfinite(SpohnError):
    """A rank vector to be normalized has no finite entry."""


class EmptyProposition(SpohnError):
    """An operation received the empty proposition where it is undefined."""


class FullProposition(SpohnError):
    """An operation received the full state space where it is undefined."""


class EmptyCondition(SpohnError):
    """Conditioning on an empty or infinitely implausible proposition."""


class ImpossibleEvidence(SpohnError):
    """Evidence whose proposition already has infinite rank."""


class UnknownVariable(SpohnError):
    """A variable name not present in the state space or diagram."""


class UnknownValue(SpohnError):
    """A value label not present in the named variable's domain."""


class SpaceMismatch(SpohnError):
    """Two operands are defined over different state spaces."""


class InconsistentTables(SpohnError):
    """Node tables that cannot be stitched into a joint ranking."""


class InvalidNetwork(SpohnError):
    """A propagation entry point was handed a network that fails validation."""


class ContradictoryEvidence(SpohnError):
    """Jointly unsatisfiable certain evidence; some node table went all-infinite."""


class DuplicateTargetVariable(SpohnError):
    """Two target marginals were supplied for the same variable."""


class InvalidTarget(SpohnError):
    """A target marginal whose minimum rank is not zero."""


class TooLargeForOracle(SpohnError):
    """State space exceeds the brute-force comparison guard."""


class DocumentError(SpohnError):
    """Malformed network or evidence document."""
