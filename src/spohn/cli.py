"""Command-line front end.

    spohn validate NETWORK
    spohn query NETWORK (--marginal VAR | --joint | --believe PROP | --beta PROP)
    spohn propagate NETWORK EVIDENCE --mode {single,certain,uncertain}
                    [--seed N] [--trace] [--out FILE]
    spohn compare NETWORK EVIDENCE --mode {single,certain,uncertain} [--seed N]

PROP is VAR=VALUE or VAR=VALUE1,VALUE2. Each --mode takes one kind of
evidence: single one value observation, certain value observations of
strength "inf", uncertain targets; a document that mixes kinds is refused
(the library's propagate takes any mix). --seed draws a random delivery
order in certain and uncertain mode; it has no effect with --mode single,
whose one observation always spreads breadth first. The updated network
document goes to stdout (or --out); trace lines go to stderr. Exit codes:
0 ok, 1 validation or parse failure, 2 contradictory evidence, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .documents import parse_evidence, parse_network, serialize_network
from .errors import (
    ContradictoryEvidence,
    DocumentError,
    RankArithmeticError,
    SpohnError,
)
from .network import SpohnianNetwork
from .ocf import OCF, Proposition, StateSpace
from .oracle import compare as oracle_compare
from .oracle import _ensure_tractable_over, oracle_impose, oracle_revise
from .propagation import EvidenceSpec, Schedule, TraceEntry, propagate
from .ranks import INF, _rank_texts


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {what} {path!r}: not UTF-8") from exc


def _parse_prop(text: str) -> tuple[str, tuple[str, ...]]:
    """Split VAR=VALUE[,VALUE...]; the names are checked where they are used."""
    name, sep, raw = text.partition("=")
    if not sep or not name or not raw:
        raise DocumentError(f"bad proposition {text!r}, expected VAR=VALUE[,VALUE...]")
    return name, tuple(v for v in raw.split(",") if v)


def _schedule(args: argparse.Namespace) -> Schedule:
    # One observation always spreads breadth first: --seed leaves single mode alone.
    return Schedule(seed=None if args.mode == "single" else args.seed)


def _mode_evidence(
    mode: str, evidence: list[EvidenceSpec]
) -> list[EvidenceSpec]:
    if mode == "single":
        if len(evidence) != 1 or evidence[0].values is None:
            raise DocumentError("single mode takes exactly one value observation")
    elif mode == "certain":
        for ev in evidence:
            if ev.values is None:
                raise DocumentError("certain mode takes value observations only")
            if ev.strength is not INF:
                raise DocumentError('certain mode requires strength "inf" on every entry')
    else:
        for ev in evidence:
            if ev.target is None:
                raise DocumentError("uncertain mode takes target observations only")
    return evidence


def _targets(net: SpohnianNetwork, evidence: list[EvidenceSpec]) -> list[tuple[str, OCF]]:
    """Target evidence as the (name, OCF) pairs oracle_impose takes."""
    out = []
    for ev in evidence:
        var = net.diagram.variable(ev.variable)
        out.append((ev.variable, OCF(StateSpace((var,)), ev.target)))
    return out


def cmd_validate(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    report = net.validate()
    if report.ok:
        print("ok")
        return 0
    for problem in report.problems:
        print(f"invalid: {problem}")
    return 1


def cmd_query(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    if args.marginal is not None:
        marg = net.marginal(args.marginal)
        domain = marg.space.variables[0].domain
        print(" ".join(f"{v}:{r}" for v, r in zip(domain, marg.ranks)))
        return 0
    if args.joint:
        _ensure_tractable_over(net.diagram.variables)
        joint = net.joint()
        for i, r in enumerate(_rank_texts(joint.ranks, "the joint ranking")):
            print(f"{','.join(joint.space.state_at(i))}:{r}")
        return 0
    text = args.believe if args.believe is not None else args.beta
    name, values = _parse_prop(text)
    marg = net.marginal(name)
    prop = Proposition.constrain(marg.space, {name: values})
    if args.believe is not None:
        held = marg.is_believed(prop)
        if prop.is_full:
            print("believed" if held else "not believed")
        else:
            beta = marg.belief_strength(prop)
            print(f"{'believed' if held else 'not believed'} (beta={beta})")
        return 0
    print(marg.belief_strength(prop))
    return 0


def cmd_propagate(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    evidence = _mode_evidence(args.mode, parse_evidence(_read(args.evidence, "evidence file"), net))
    trace: list[TraceEntry] | None = [] if args.trace else None
    result = propagate(net, evidence, _schedule(args), trace)
    if trace is not None:
        # Every line first: a change too long to write leaves no partial trace.
        lines = [entry.format() for entry in trace]
        for line in lines:
            print(line, file=sys.stderr)
    doc = serialize_network(result)
    if args.out:
        try:
            Path(args.out).write_text(doc, encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"cannot write output file {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(doc)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    evidence = _mode_evidence(args.mode, parse_evidence(_read(args.evidence, "evidence file"), net))
    uncertain = args.mode == "uncertain"
    # Refuse before running anything: in uncertain mode the oracle's joint
    # carries one binary dummy per target.
    _ensure_tractable_over(net.diagram.variables, len(evidence) if uncertain else 0)
    engine = propagate(net, evidence, _schedule(args))
    if uncertain:
        oracle_joint = oracle_impose(net, _targets(net, evidence))
    else:
        oracle_joint = oracle_revise(net.joint(), evidence)
    report = oracle_compare(engine, oracle_joint)
    for line in report.to_lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spohn",
        description="Exact belief revision on singly connected Spohnian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="read marginals, joints, beliefs")
    p.add_argument("network")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--marginal", metavar="VAR")
    g.add_argument("--joint", action="store_true")
    g.add_argument("--believe", metavar="PROP")
    g.add_argument("--beta", metavar="PROP")
    p.set_defaults(func=cmd_query)

    for name, func in (("propagate", cmd_propagate), ("compare", cmd_compare)):
        p = sub.add_parser(
            name,
            help="apply evidence" if name == "propagate" else "diff engine against the oracle",
        )
        p.add_argument("network")
        p.add_argument("evidence")
        p.add_argument("--mode", choices=("single", "certain", "uncertain"), required=True)
        p.add_argument(
            "--seed", type=int,
            help="random delivery order (certain and uncertain mode; no effect with --mode single)",
        )
        if name == "propagate":
            p.add_argument("--trace", action="store_true")
            p.add_argument("--out", metavar="FILE")
        p.set_defaults(func=func)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContradictoryEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RankArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except SpohnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
