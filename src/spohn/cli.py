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
invariant breach; a closed output stream also exits 1, with no traceback.
main() runs the command with the cyclic garbage collector paused and then
restores the caller's setting; library calls leave it alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from pathlib import Path
from typing import Sequence

from .documents import parse_evidence, parse_network, serialize_network
from .errors import (
    ContradictoryEvidence,
    DocumentError,
    RankArithmeticError,
    SpohnError,
)
from .ocf import Proposition
from .oracle import compare as oracle_compare
from .oracle import _ensure_tractable_over, _plan, oracle_posterior
from .propagation import EvidenceSpec, Schedule, TraceEntry, _require_valid, propagate
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
    values = tuple(raw.split(","))
    if not sep or not name or not all(values):
        raise DocumentError(f"bad proposition {text!r}, expected VAR=VALUE[,VALUE...]")
    return name, values


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
    if args.joint:
        _ensure_tractable_over(net.diagram.variables)
    _require_valid(net)  # an invalid network's tables are no joint's marginals
    if args.marginal is not None:
        marg = net.marginal(args.marginal)
        domain = marg.space.variables[0].domain
        print(" ".join(f"{v}:{r}" for v, r in zip(domain, marg.ranks)))
        return 0
    if args.joint:
        joint = net.joint()
        for state, r in zip(joint.space.states(), _rank_texts(joint.ranks, "the joint ranking")):
            print(f"{','.join(state)}:{r}")
        return 0
    name, values = _parse_prop(args.believe if args.believe is not None else args.beta)
    marg = net.marginal(name)
    prop = Proposition.constrain(marg.space, {name: values})
    if args.believe is None:
        print(marg.belief_strength(prop))
    elif prop.is_full:  # every rank-0 state satisfies it
        print("believed")
    else:  # a proper proposition is believed when its strength is positive
        beta = marg.belief_strength(prop)
        print(f"{'believed' if beta > 0 else 'not believed'} (beta={beta})")
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
    _plan(net, evidence)  # refuse a joint, dummies included, before running anything
    engine = propagate(net, evidence, _schedule(args))
    report = oracle_compare(engine, oracle_posterior(net, evidence))
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


def _run(args: argparse.Namespace) -> int:
    """The command's exit code; a library error is one line on stderr."""
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A command leaves cyclic garbage that does not grow with its documents,
    # so full collections over every family's objects would free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # A reader closed stdout, or stderr before the trace or an error line
        # was written. Point both at os.devnull, so that the flush at exit
        # writes nowhere instead of failing again.
        with open(os.devnull, "w") as devnull:
            for stream in (sys.stdout, sys.stderr):
                with suppress(OSError, ValueError):  # an in-process caller's stream may have no file
                    os.dup2(devnull.fileno(), stream.fileno())
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
