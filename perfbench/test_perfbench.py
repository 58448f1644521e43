"""Tests of the benchmark itself: generator, exactness checks, tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import inspect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spohn  # noqa: E402

import gen  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


@pytest.mark.parametrize("shape", gen.SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_generated_networks_are_valid_with_bounded_families(shape, seed):
    spec = gen.make_network(random.Random(seed), shape, 60)
    net = gen.to_network(spec)          # raises unless validate() passes
    assert net.validate().ok
    for node in net.diagram.names:
        assert len(net.diagram.parents(node)) <= gen.MAX_PARENTS
        assert 2 <= len(net.diagram.variable(node).domain) <= 3
        assert net.marginal(node).ranks == spec.marginals[int(node[1:])]
    if shape == "star":
        assert net.diagram.parents("V0") == ()
        assert len(net.tables["V0"].space.names) == 1


def test_generation_is_deterministic_per_seed():
    def build(seed):
        rng = random.Random(seed)
        spec = gen.make_network(rng, "polytree", 40)
        return gen.network_document(spec), [gen.make_evidence(rng, spec, m) for m in gen.MODES]

    assert build(3) == build(3)
    assert build(3) != build(4)


def test_document_parses_to_the_generated_network():
    spec = gen.make_network(random.Random(5), "polytree", 30)
    assert spohn.parse_network(gen.network_document(spec)) == gen.to_network(spec)


def test_oracle_small_joints_fit_the_oracle_after_augmentation(tmp_path):
    wl = workloads.OracleSmall(0, str(tmp_path))
    wl.setup()
    for (n, shape, mode), entries in wl.pool.items():
        targets = int(mode.split("-")[1]) if mode.startswith("uncertain") else 0
        for spec, _ in entries:
            size = 2 ** targets
            for dom in spec.domains:
                size *= len(dom)
            assert size <= spohn.ORACLE_STATE_LIMIT


class SmallCli(workloads.CliCold):
    TIERS = {10: (gen.MODES, 1, 1), 20: (("certain-1", "single"), 1, 2)}


class SmallEngine(workloads.EngineWarm):
    POOL = {10: 2, 20: 1}


def _altered_document(text: str) -> str:
    """The document with one finite, non-zero rank raised by one."""
    doc = json.loads(text)
    ranks, i = next(
        (table["ranks"], i)
        for table in doc["tables"].values()
        for i, r in enumerate(table["ranks"])
        if r != "inf" and r > 0
    )
    ranks[i] += 1
    return json.dumps(doc, indent=2) + "\n"


def test_cli_check_accepts_output_and_rejects_one_altered_cell(tmp_path):
    wl = SmallCli(1, str(tmp_path))
    wl.setup()
    for op in wl.round(0):
        text = op.collect(op.run(op.prepare()))
        assert op.check(text)
        assert not op.check(_altered_document(text))


def test_engine_check_accepts_output_and_rejects_one_altered_cell(tmp_path):
    wl = SmallEngine(1, str(tmp_path))
    wl.setup()
    for op in wl.round(0):
        result, betas = op.collect(op.run(op.prepare()))
        assert op.check((result, betas))
        node = next(
            n for n in result.diagram.names
            if any(r is not spohn.INF and r > 0 for r in result.tables[n].ranks)
        )
        table = result.tables[node]
        i = next(i for i, r in enumerate(table.ranks) if r is not spohn.INF and r > 0)
        ranks = list(table.ranks)
        ranks[i] += 1
        tables = dict(result.tables)
        tables[node] = spohn.OCF(table.space, tuple(ranks))
        altered = spohn.SpohnianNetwork(result.diagram, tables)
        assert not op.check((altered, betas))


def test_oracle_small_operations_match_the_oracle(tmp_path):
    wl = workloads.OracleSmall(2, str(tmp_path))
    wl.setup()
    for op in wl.round(0):
        assert op.check(op.collect(op.run(op.prepare())))


def _attributes():
    """Every attribute of every spohn module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "spohn" or name.startswith("spohn."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if inspect.isclass(value) and value.__module__.startswith("spohn"):
                    for ckey, cvalue in vars(value).items():
                        out[(name, key, ckey)] = cvalue
    return out


def test_tracer_install_and_remove_leave_spohn_as_it_was():
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        during = _attributes()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= len(TARGETS)
        assert spohn.propagation.rank_delta is not before[("spohn.ranks", "rank_delta")]
    finally:
        tracer.remove()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_messages_and_keeps_outputs(tmp_path):
    spec = gen.make_network(random.Random(9), "star", 40)
    net = gen.to_network(spec)
    evidence = gen.to_specs(gen.make_evidence(random.Random(9), spec, "certain-8"))
    trace: list = []
    plain = spohn.propagate_certain_multi(net, evidence, trace=trace)
    tracer = Tracer()
    with tracer:
        traced = spohn.propagate_certain_multi(net, evidence)
    calls, self_s, counts = tracer.take()
    assert traced == plain
    assert counts["messages"] == len(trace) > 0
    assert calls["propagation.certain"] == 1
    assert all(v >= 0 for v in self_s.values())


def test_clock_scales_cpu_time_by_the_calibration_around_the_call(monkeypatch):
    loops = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(bench, "calibrate", lambda: next(loops))
    clock = bench.Clock()
    result, seconds, cpu = clock.time(lambda: sum(range(100000)))
    assert result == sum(range(100000))
    assert seconds == pytest.approx(cpu * bench.CALIBRATION_S / 0.003)
    clock.time(lambda: None)
    assert clock.factors == pytest.approx([bench.CALIBRATION_S / 0.003, bench.CALIBRATION_S / 0.005])


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_in_the_last_line(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "3", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = bench.per_layer_units() if trace == "1" else bench.END_TO_END
    assert set(result["metrics"]) == set(names)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
