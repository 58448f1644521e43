"""Exact Spohnian belief revision on singly connected networks."""

from .diagram import InfluenceDiagram, ValidationReport
from .documents import parse_evidence, parse_network, serialize_network
from .errors import (
    AllInfinite,
    ContradictoryEvidence,
    DocumentError,
    DuplicateTargetVariable,
    EmptyCondition,
    EmptyProposition,
    FullProposition,
    ImpossibleEvidence,
    InconsistentTables,
    InvalidNetwork,
    InvalidTarget,
    RankArithmeticError,
    SpaceMismatch,
    SpohnError,
    TooLargeForOracle,
    UnknownValue,
    UnknownVariable,
)
from .network import SpohnianNetwork
from .ocf import OCF, Proposition, StateSpace, Variable
from .oracle import (
    ORACLE_STATE_LIMIT,
    OracleReport,
    compare,
    ensure_tractable,
    independence_audit,
    oracle_posterior,
    oracle_revise,
)
# propagate_single, propagate_certain_multi and propagate_uncertain_multi
# stay importable, outside __all__: the benchmark harness resolves them by
# name (see the propagation module docstring).
from .propagation import (
    EvidenceSpec,
    Schedule,
    TraceEntry,
    augment_with_dummy,
    propagate,
    propagate_certain_multi,
    propagate_single,
    propagate_uncertain_multi,
)
from .ranks import INF, NEG_INF, BeliefStrength, Rank, rank_delta, s_normalize

__all__ = [
    "AllInfinite",
    "BeliefStrength",
    "ContradictoryEvidence",
    "DocumentError",
    "DuplicateTargetVariable",
    "EmptyCondition",
    "EmptyProposition",
    "EvidenceSpec",
    "FullProposition",
    "INF",
    "ImpossibleEvidence",
    "InconsistentTables",
    "InfluenceDiagram",
    "InvalidNetwork",
    "InvalidTarget",
    "NEG_INF",
    "OCF",
    "ORACLE_STATE_LIMIT",
    "OracleReport",
    "Proposition",
    "Rank",
    "RankArithmeticError",
    "Schedule",
    "SpaceMismatch",
    "SpohnError",
    "SpohnianNetwork",
    "StateSpace",
    "TooLargeForOracle",
    "TraceEntry",
    "UnknownValue",
    "UnknownVariable",
    "ValidationReport",
    "Variable",
    "augment_with_dummy",
    "compare",
    "ensure_tractable",
    "independence_audit",
    "oracle_posterior",
    "oracle_revise",
    "parse_evidence",
    "parse_network",
    "propagate",
    "rank_delta",
    "s_normalize",
    "serialize_network",
]

__version__ = "0.1.0"
