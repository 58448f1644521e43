"""Benchmark for spohn: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload {cli-cold,engine-warm,oracle-small}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; spohn is imported from ./src. Inputs are
generated from --seed. The workload's setup runs SETUP_REPEATS times
(setup_s is their median); then whole rounds of operations run, one at a
time in a closed loop, while another round fits into --seconds of CPU
time (at least one round always runs). Every output is checked for
exactness outside the timed region.

Times are process CPU time, normalised to a reference machine speed. The
program is single-threaded and CPU-bound, so CPU time is its wall time
minus the time the process was not running. On a shared virtual machine
the CPU time of identical work still drifts, by up to 2x within a minute,
so every measured time is scaled by CALIBRATION_S over the time of a fixed
pure-Python loop run right before and after it (see Clock).

--trace 0 reports the end-to-end metrics. --trace 1 runs every operation
twice, once plain and once with the per-layer wrappers installed, requires
the two outputs to be identical, and reports per-layer metrics per
operation plus the tracing overhead. Human-readable lines go first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import process_time
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# CPU seconds of calibrate() on the reference machine (a 2-vCPU VM at its
# usual speed); reported times are seconds at that speed.
CALIBRATION_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "nodes_per_s": "nodes/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "scale_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, per operation of the traced run: "<span>.calls" and
# "<span>.s" (self time) for spans, plus counters and the tracing overhead.
PER_LAYER_SPANS = {
    "cli.main": ("s",),
    "documents.parse_network": ("calls", "s"),
    "documents.parse_evidence": ("s",),
    "documents.serialize_network": ("s",),
    "network.construct": ("calls", "s"),
    "network.validate": ("calls", "s"),
    "network.marginal": ("calls", "s"),
    "network.joint": ("s",),
    "network.from_joint": ("s",),
    "diagram.family_variables": ("calls", "s"),
    "diagram.incident_edges": ("calls", "s"),
    "diagram.unique_connector": ("calls", "s"),
    "diagram.validate": ("s",),
    "diagram.construct": ("calls",),
    "ocf.marginalize": ("calls", "s"),
    "ocf.projection": ("calls", "s"),
    "ocf.construct": ("calls", "s"),
    "ocf.revise": ("calls", "s"),
    "ocf.constrain": ("s",),
    "ocf.belief_strength": ("calls", "s"),
    "ranks.s_normalize": ("calls", "s"),
    "ranks.rank_delta": ("calls", "s"),
    "propagation.single": ("s",),
    "propagation.certain": ("s",),
    "propagation.uncertain": ("s",),
    "propagation.augment_with_dummy": ("calls", "s"),
    "oracle.oracle_revise": ("s",),
    "oracle.compare": ("s",),
}
PER_LAYER_COUNTERS = {
    "documents.bytes_in": "B/op",
    "documents.bytes_out": "B/op",
    "ocf.projection.hit_ratio": "ratio",
    "propagation.messages": "msgs/op",
    "propagation.messages_per_node": "msgs/node",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "s/op" if kind == "s" else "calls/op"
    units.update(PER_LAYER_COUNTERS)
    return units


def import_program() -> None:
    """Put ./src first on the path and import spohn from there, or exit."""
    src = ROOT / "src"
    if not (src / "spohn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spohn sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import spohn

    if Path(spohn.__file__).resolve().parent != src / "spohn":
        sys.exit(f"perfbench: imported spohn from {spohn.__file__}, not from {src}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scale_ratio(samples: list[tuple[int, tuple, float]]) -> float:
    """Seconds per node at the largest size over the same at the smallest,
    counting only (shape, mode)s the largest size runs."""
    sizes = sorted({n for n, _, _ in samples})
    big, small = sizes[-1], sizes[0]
    keys = {k for n, k, _ in samples if n == big}

    def per_node(size):
        chosen = [(n, t) for n, k, t in samples if n == size and k in keys]
        return sum(t for _, t in chosen) / sum(n for n, _ in chosen)

    return per_node(big) / per_node(small)


def calibrate() -> float:
    """CPU time of a fixed dict-and-sort loop that runs no spohn code."""
    gc.disable()
    try:
        t0 = process_time()
        table = {}
        for i in range(8000):
            table[(i, i % 97)] = i * 7919 % 10007
        ordered = sorted(table, key=table.__getitem__)
        sum(k[1] for k in ordered[:1000])
        return process_time() - t0
    finally:
        gc.enable()


class Clock:
    """Times calls in CPU seconds at the reference machine speed.

    Each call's CPU time is multiplied by CALIBRATION_S over the mean of the
    calibration loops just before and just after it, which cancels the
    machine's drift in speed while keeping the program's own costs.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors: list[float] = []

    def time(self, fn) -> tuple[Any, float, float]:
        """(result, normalised seconds, CPU seconds) of fn()."""
        t0 = process_time()
        result = fn()
        cpu = process_time() - t0
        after = calibrate()
        factor = CALIBRATION_S / ((self.last + after) / 2)
        self.last = after
        self.factors.append(factor)
        return result, cpu * factor, cpu


def settle() -> None:
    """Collect garbage and freeze what survives, so that collections inside
    a timed call see only the call's own objects, not the benchmark's."""
    gc.collect()
    gc.freeze()


def interleave(ops: list) -> list:
    """Spread each network size evenly over the round, so that slow drifts
    in machine speed fall on every size alike."""
    by_size: dict[int, list] = defaultdict(list)
    for op in ops:
        by_size[op.n].append(op)
    keyed = [
        ((i + 0.5) / len(group), n, op)
        for n, group in by_size.items()
        for i, op in enumerate(group)
    ]
    return [op for *_, op in sorted(keyed, key=lambda k: k[:2])]


class Run:
    """Closed-loop measurement of one workload."""

    def __init__(self, workload, seconds: float, traced: bool, clock: Clock):
        self.workload = workload
        self.clock = clock
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple[int, tuple, float]] = []   # (n, key, seconds)
        self.traced_s = 0.0
        self.traced_nodes = 0
        self.traced_ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tier_layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.tier_time: dict[int, float] = defaultdict(float)

    def measure(self) -> None:
        from workloads import OpFailed
        from spohn import SpohnError

        tracer = None
        if self.traced:
            import tracer as tracing

            tracer = tracing.Tracer()
        busy = last_round = 0.0
        r = 0
        while r == 0 or busy + last_round <= self.seconds:
            began = busy
            for op in interleave(self.workload.round(r)):
                self.attempted += 1
                try:
                    output, elapsed, cpu = self._timed(op)
                    busy += cpu
                    ok = op.check(output)
                    if ok and tracer is not None:
                        ok, cpu = self._traced(op, tracer, output)
                        busy += cpu
                except (SpohnError, OpFailed, AssertionError) as exc:
                    print(f"failed: {op.key} n={op.n}: {exc}", file=sys.stderr)
                    self.failed += 1
                    continue
                if not ok:
                    print(f"wrong output: {op.key} n={op.n}", file=sys.stderr)
                    self.failed += 1
                    continue
                self.samples.append((op.n, op.key, elapsed))
            last_round = busy - began
            r += 1
        self.rounds = r

    def _timed(self, op):
        inputs = op.prepare()
        settle()
        raw, elapsed, cpu = self.clock.time(lambda: op.run(inputs))
        return op.collect(raw), elapsed, cpu

    def _traced(self, op, tracer, plain_output) -> tuple[bool, float]:
        """Run the operation again with the wrappers installed; the output
        must be identical to the plain run's."""
        inputs = op.prepare()
        settle()
        with tracer:
            raw, elapsed, cpu = self.clock.time(lambda: op.run(inputs))
        output = op.collect(raw)
        calls, self_s, counts = tracer.take()
        scale = elapsed / cpu if cpu else 1.0
        self.traced_s += elapsed
        self.traced_nodes += op.n
        self.traced_ops += 1
        self.tier_time[op.n] += elapsed
        for name, v in calls.items():
            self.calls[name] += v
        for name, v in self_s.items():
            self.self_s[name] += v * scale
            self.tier_layers[op.n][name.split(".", 1)[0]] += v * scale
        for name, v in counts.items():
            self.counts[name] += v
        return output == plain_output, cpu

    def end_to_end(self, setups: list[float]) -> dict[str, float]:
        times = [t for _, _, t in self.samples]
        busy = sum(times)
        ms = [t * 1000 for t in times]
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / busy,
            "nodes_per_s": sum(n for n, _, _ in self.samples) / busy,
            "latency_p50_ms": quantile(ms, 50),
            "latency_p90_ms": quantile(ms, 90),
            "scale_ratio": scale_ratio(self.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        ops = self.traced_ops
        out = {}
        for span, kinds in PER_LAYER_SPANS.items():
            if "calls" in kinds:
                out[f"{span}.calls"] = self.calls.get(span, 0) / ops
            if "s" in kinds:
                out[f"{span}.s"] = self.self_s.get(span, 0.0) / ops
        proj_calls = self.calls.get("ocf.projection", 0)
        untraced_busy = sum(t for _, _, t in self.samples)
        out.update({
            "documents.bytes_in": self.counts["bytes_in"] / ops,
            "documents.bytes_out": self.counts["bytes_out"] / ops,
            "ocf.projection.hit_ratio": self.counts["projection_hits"] / proj_calls if proj_calls else 0.0,
            "propagation.messages": self.counts["messages"] / ops,
            "propagation.messages_per_node": self.counts["messages"] / self.traced_nodes,
            "trace.ops_per_s": ops / self.traced_s,
            "trace.untraced_ops_per_s": len(self.samples) / untraced_busy,
            "trace.overhead": 1 - (ops / self.traced_s) / (len(self.samples) / untraced_busy),
        })
        return out

    def report_layers(self) -> None:
        """Traced time split by layer self time, largest first: per network
        size and over the whole workload."""
        rows = {f"n={n}": (self.tier_layers[n], self.tier_time[n]) for n in sorted(self.tier_layers)}
        overall: dict[str, float] = defaultdict(float)
        for layers, _ in rows.values():
            for layer, v in layers.items():
                overall[layer] += v
        rows["all"] = (overall, self.traced_s)
        for label, (layers, total) in rows.items():
            shares = sorted(layers.items(), key=lambda kv: -kv[1])
            rest = total - sum(v for _, v in shares)
            text = " ".join(f"{layer}={v / total:.1%}" for layer, v in shares)
            print(f"layer share {label}: {text} outside-spans={rest / total:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    # On SIGTERM, unwind through the finally below so the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setups.append(clock.time(workload.setup)[1])
        settle()
        run = Run(workload, args.seconds, bool(args.trace), clock)
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.samples:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{len(run.samples)} operations timed, {run.failed} failed of {run.attempted}")
    print(f"failed_ratio {run.failed / run.attempted:.6f} ratio")
    print(f"speed factor median {statistics.median(clock.factors):.4f} "
          f"range {min(clock.factors):.4f}-{max(clock.factors):.4f} (1 = reference speed)")
    if args.trace:
        run.report_layers()
        metrics = run.per_layer()
        units = per_layer_units()
    else:
        metrics = run.end_to_end(setups)
        units = END_TO_END
        print(f"latency samples {len(run.samples)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
