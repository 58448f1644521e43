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
invariant breach. A usage error also exits 2, through argparse, with its
usage line on stderr. An output stream that cannot be written also exits 1,
with no traceback: a closed pipe silently, any other failed write to
stdout, text that its encoding cannot take too, with one error line on
stderr.
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
from typing import Iterable, Sequence

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


class _WriteFailed(Exception):
    """A write to sys.stdout or sys.stderr, named by stream, failed with an
    OSError other than a broken pipe, or with text that the stream's
    encoding cannot take."""

    def __init__(self, stream: str, error: OSError | UnicodeEncodeError):
        super().__init__(stream, error)
        self.stream, self.error = stream, error


def _write(stream: str, text: str) -> None:
    """Write text whole to sys.stdout or sys.stderr, named by stream, and
    flush it. An unbuffered stream's text layer drops what a short write
    leaves out, so the bytes go to its binary layer until all are written.
    A reader that closed the pipe raises BrokenPipeError; any other failed
    write, an encoding error too, raises _WriteFailed. A stream with no
    binary layer takes the text."""
    out = getattr(sys, stream)
    try:
        binary = getattr(out, "buffer", None)
        if binary is None:
            out.write(text)
            out.flush()
            return
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[binary.write(data):]
        binary.flush()
    except BrokenPipeError:
        raise
    except (OSError, UnicodeEncodeError) as exc:
        raise _WriteFailed(stream, exc) from exc


def _write_lines(stream: str, lines: Iterable[str]) -> None:
    """Write the lines, each ended by a newline, in one _write."""
    _write(stream, "".join([f"{line}\n" for line in lines]))


def cmd_validate(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    report = net.validate()
    if report.ok:
        _write_lines("stdout", ["ok"])
        return 0
    _write_lines("stdout", [f"invalid: {problem}" for problem in report.problems])
    return 1


def cmd_query(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    if args.joint:
        _ensure_tractable_over(net.diagram.variables)
    _require_valid(net)  # an invalid network's tables are no joint's marginals
    if args.marginal is not None:
        marg = net.marginal(args.marginal)
        domain = marg.space.variables[0].domain
        _write_lines("stdout", [" ".join(f"{v}:{r}" for v, r in zip(domain, marg.ranks))])
        return 0
    if args.joint:
        joint = net.joint()
        ranks = _rank_texts(joint.ranks, "the joint ranking")
        _write_lines("stdout", [f"{','.join(s)}:{r}" for s, r in zip(joint.space.states(), ranks)])
        return 0
    name, values = _parse_prop(args.believe if args.believe is not None else args.beta)
    marg = net.marginal(name)
    prop = Proposition.constrain(marg.space, {name: values})
    if args.believe is None:
        line = str(marg.belief_strength(prop))
    elif prop.is_full:  # every rank-0 state satisfies it
        line = "believed"
    else:  # a proper proposition is believed when its strength is positive
        beta = marg.belief_strength(prop)
        line = f"{'believed' if beta > 0 else 'not believed'} (beta={beta})"
    _write_lines("stdout", [line])
    return 0


def cmd_propagate(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    evidence = _mode_evidence(args.mode, parse_evidence(_read(args.evidence, "evidence file"), net))
    trace: list[TraceEntry] | None = [] if args.trace else None
    result = propagate(net, evidence, _schedule(args), trace)
    if trace is not None:
        # Every line first: a change too long to write leaves no partial trace.
        _write_lines("stderr", [entry.format() for entry in trace])
    doc = serialize_network(result)
    if args.out:
        try:
            Path(args.out).write_text(doc, encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"cannot write output file {args.out!r}: {exc}") from exc
    else:
        _write("stdout", doc)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network, "network file"))
    evidence = _mode_evidence(args.mode, parse_evidence(_read(args.evidence, "evidence file"), net))
    _plan(net, evidence)  # refuse a joint, dummies included, before running anything
    engine = propagate(net, evidence, _schedule(args))
    report = oracle_compare(engine, oracle_posterior(net, evidence))
    _write_lines("stdout", report.to_lines())
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, usage and error text go through
    _write, so a stream that cannot take them fails as a command's output
    does; argparse's own writer drops the OSError."""

    def _print_message(self, message: str, file=None) -> None:
        _write("stdout" if file is sys.stdout else "stderr", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        _write_lines("stderr", [f"error: {exc}"])
        return 2
    except RankArithmeticError as exc:
        _write_lines("stderr", [f"internal error: {exc}"])
        return 3
    except SpohnError as exc:
        _write_lines("stderr", [f"error: {exc}"])
        return 1


def _silence_streams() -> None:
    """Point stdout and stderr at os.devnull, so that the flush at exit
    writes what a failed write left buffered nowhere instead of failing
    again."""
    with open(os.devnull, "w") as devnull:
        for stream in (sys.stdout, sys.stderr):
            with suppress(OSError, ValueError):  # an in-process caller's stream may have no file
                os.dup2(devnull.fileno(), stream.fileno())


def main(argv: Sequence[str] | None = None) -> int:
    # A command leaves cyclic garbage that does not grow with its documents,
    # so full collections over every family's objects would free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    except BrokenPipeError:
        # A reader closed stdout, or stderr before the help, the trace or an
        # error line was written.
        _silence_streams()
        return 1
    except _WriteFailed as exc:
        if exc.stream == "stdout":
            with suppress(OSError, _WriteFailed):  # a stderr that fails too stays silent
                _write_lines("stderr", [f"error: cannot write to stdout: {exc.error}"])
        _silence_streams()
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
