"""The three benchmark workloads.

Each workload is set up from a seed, then hands out rounds of operations.
A round has a fixed composition (the same sizes, shapes and evidence modes
every time), so a run that completes whole rounds measures the same mix
whatever its length. An operation is the timed program call; collecting
its output and checking it for exactness happen outside the timed region.

All calls go through attributes of the spohn modules (spohn.cli.main,
spohn.propagate_certain_multi, ...) so the tracer's wrappers see them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import spohn
import spohn.cli

import gen

SEEDED_SCHEDULE = 7919  # any fixed seed: the check needs one non-FIFO order


class OpFailed(Exception):
    """The program reported an error for an operation that should succeed."""


@dataclass
class Op:
    n: int                                          # nodes in the operation's network
    key: tuple[str, str]                            # (shape, mode), matched across sizes
    run: Callable[[Any], Any]                       # the timed call, given prepare()
    check: Callable[[Any], bool]                    # untimed: is the output exact?
    collect: Callable[[Any], Any] = lambda raw: raw     # untimed: raw result -> output
    prepare: Callable[[], Any] = lambda: None           # untimed: fresh inputs for run


# --- references shared by cli-cold and engine-warm -------------------------

def engine_call(net, mode: str, evidence, schedule=None):
    """The library call for one evidence set; FIFO unless a schedule is given."""
    kind = gen.cli_mode(mode)
    if kind == "single":
        return spohn.propagate_single(net, evidence)
    sched = schedule or spohn.Schedule.fifo()
    if kind == "certain":
        return spohn.propagate_certain_multi(net, evidence, sched)
    return spohn.propagate_uncertain_multi(net, evidence, sched)


def library_evidence(net, mode: str, items: list[dict]):
    """Evidence in the form engine_call takes for the mode."""
    specs = gen.to_specs(items)
    kind = gen.cli_mode(mode)
    if kind == "single":
        return specs[0]
    if kind == "certain":
        return specs
    return [
        (ev.variable, spohn.OCF(spohn.StateSpace((net.diagram.variable(ev.variable),)), ev.target))
        for ev in specs
    ]


def reference(net, mode: str, items: list[dict]):
    """The result an operation must reproduce, reached another way.

    certain and uncertain: the same regime under a seeded random schedule.
    single: the uncertain engine with target prior.revise(prop, strength).
    Raises AssertionError when the reference itself is not a valid result.
    """
    kind = gen.cli_mode(mode)
    evidence = library_evidence(net, mode, items)
    seeded = spohn.Schedule.seeded(SEEDED_SCHEDULE)
    if kind == "single":
        prior = net.marginal(evidence.variable)
        prop = spohn.Proposition.constrain(prior.space, {evidence.variable: evidence.values})
        target = prior.revise(prop, evidence.strength)
        ref = spohn.propagate_uncertain_multi(net, [(evidence.variable, target)], seeded)
    else:
        ref = engine_call(net, mode, evidence, seeded)
    report = ref.validate()
    if not report.ok:
        raise AssertionError(f"reference result is invalid: {report.problems[:3]}")
    if kind == "certain":
        for ev in evidence:
            marg = ref.marginal(ev.variable)
            domain = marg.space.variables[0].domain
            for value, r in zip(domain, marg.ranks):
                if value not in ev.values and r is not spohn.INF:
                    raise AssertionError(f"{ev.variable}={value} kept rank {r}, not inf")
    return ref


def best_value_betas(result) -> list:
    """β of each variable's first rank-0 value, read through the library."""
    out = []
    for name in result.diagram.names:
        marg = result.marginal(name)
        prop = spohn.Proposition.of_states(marg.space, (marg.ranks.index(0),))
        out.append(marg.belief_strength(prop))
    return out


def expected_betas(result) -> list:
    """The same β values from the definition: rank of the complement."""
    out = []
    for name in result.diagram.names:
        table = result.tables[name]
        pos = table.space.names.index(name)
        card = len(table.space.variables[pos].domain)
        stride = table.space.strides[pos]
        best = [spohn.INF] * card
        for i, r in enumerate(table.ranks):
            j = (i // stride) % card
            if r < best[j]:
                best[j] = r
        j0 = best.index(0)
        out.append(min(r for j, r in enumerate(best) if j != j0))
    return out


# --- cli-cold ---------------------------------------------------------------

class CliCold:
    """In-process `spohn propagate` on documents, sizes 100 to 3000.

    The n=3000 tier runs the cheapest mode only: with the current engine one
    n=3000 call takes 1.4-5.5 s on a 2-vCPU machine, and all four modes
    would not fit in a run. scale_ratio compares n=3000 with n=100 over
    those same (shape, mode)s.
    """

    name = "cli-cold"
    # size -> (modes, networks per shape, executions per input and round).
    # n=3000 inputs run three times: their times vary most, and a repeat
    # needs no new reference.
    TIERS = {
        100: (gen.MODES, 3, 1),
        1000: (gen.MODES, 1, 1),
        3000: (("certain-1",), 1, 3),
    }

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs: list = []
        self._refs: dict = {}
        self._nets: dict = {}

    def setup(self) -> None:
        self.inputs = []
        rng = random.Random(f"{self.name}:{self.seed}")
        for n, (modes, copies, _) in self.TIERS.items():
            for shape in gen.SHAPES:
                for c in range(copies):
                    spec = gen.make_network(rng, shape, n)
                    net_path = os.path.join(self.workdir, f"net-{n}-{shape}-{c}.json")
                    with open(net_path, "w", encoding="utf-8") as f:
                        f.write(gen.network_document(spec))
                    for mode in modes:
                        items = gen.make_evidence(rng, spec, mode, surprising=c % 2 == 1)
                        ev_path = os.path.join(self.workdir, f"ev-{n}-{shape}-{c}-{mode}.json")
                        with open(ev_path, "w", encoding="utf-8") as f:
                            f.write(gen.evidence_document(items))
                        self.inputs.append((spec, net_path, mode, items, ev_path))
        # Warm-up: one call on the smallest document.
        op = self._op(0)
        op.collect(op.run(op.prepare()))

    def _op(self, index: int) -> Op:
        spec, net_path, mode, items, ev_path = self.inputs[index]
        out_path = os.path.join(self.workdir, "out.json")
        argv = ["propagate", net_path, ev_path, "--mode", gen.cli_mode(mode), "--out", out_path]

        def run(_):
            return spohn.cli.main(argv)

        def collect(rc):
            if rc != 0:
                raise OpFailed(f"spohn propagate exited {rc} on {ev_path}")
            with open(out_path, encoding="utf-8") as f:
                text = f.read()
            os.remove(out_path)
            return text

        def check(text):
            ref = self._refs.get(index)
            if ref is None:
                net = self._nets.get(net_path)
                if net is None:
                    net = self._nets[net_path] = gen.to_network(spec)
                ref = self._refs[index] = spohn.serialize_network(reference(net, mode, items))
            return text == ref

        return Op(spec.n, (spec.shape, mode), run, check, collect)

    def round(self, r: int) -> list[Op]:
        return [
            self._op(i)
            for i, (spec, *_) in enumerate(self.inputs)
            for _ in range(self.TIERS[spec.n][2])
        ]


# --- engine-warm ------------------------------------------------------------

class EngineWarm:
    """Library sessions built once; each operation applies one evidence set
    and reads β of every variable of the result.

    The n=1000 sessions carry the workload; the n=100 sessions are the base
    of scale_ratio. Every round applies each session's whole evidence pool.
    """

    name = "engine-warm"
    POOL = {100: 2, 1000: 4}            # size -> evidence sets per (shape, mode)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sessions: list = []
        self._refs: dict = {}

    def setup(self) -> None:
        self.sessions = []
        rng = random.Random(f"{self.name}:{self.seed}")
        for n, pool in self.POOL.items():
            for shape in gen.SHAPES:
                spec = gen.make_network(rng, shape, n)
                net = gen.to_network(spec)
                pools = {}
                for mode in gen.MODES:
                    pools[mode] = []
                    for i in range(pool):
                        items = gen.make_evidence(rng, spec, mode, surprising=i % 2 == 1)
                        pools[mode].append((items, library_evidence(net, mode, items)))
                self.sessions.append((spec, net, pools))
        for s in range(len(self.sessions)):
            op = self._op(s, "certain-1", 0)
            op.collect(op.run(op.prepare()))

    def _op(self, s: int, mode: str, idx: int) -> Op:
        spec, net, pools = self.sessions[s]
        items, evidence = pools[mode][idx]

        def run(_):
            result = engine_call(net, mode, evidence)
            return result, best_value_betas(result)

        def check(output):
            result, betas = output
            ref = self._refs.get((s, mode, idx))
            if ref is None:
                ref = self._refs[(s, mode, idx)] = reference(net, mode, items)
            return (
                result.tables == ref.tables
                and result.validate().ok
                and betas == expected_betas(ref)
            )

        return Op(spec.n, (spec.shape, mode), run, check)

    def round(self, r: int) -> list[Op]:
        return [
            self._op(s, mode, idx)
            for s, (_, _, pools) in enumerate(self.sessions)
            for mode in gen.MODES
            for idx in range(len(pools[mode]))
        ]


# --- oracle-small -----------------------------------------------------------

class OracleSmall:
    """Engine call plus brute-force oracle on fresh small networks.

    Sizes 5 and 10; the uncertain mode adds one binary dummy per target, so
    its networks keep the joint at 4096 / 2**targets states or fewer and the
    oracle's 4096-state limit holds after augmentation. Each network has as
    many 3-valued variables as that limit allows, up to half of them, so the
    joint size of a (size, mode) is the same for every seed.
    """

    name = "oracle-small"
    MODES = ("certain-1", "certain-3", "single", "uncertain-2")
    TIERS = {5: 1, 10: 2}               # size -> operations per (shape, mode) per round
    POOL = 8                            # networks per (size, shape, mode), cycled

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.pool: dict = {}

    def setup(self) -> None:
        self.pool = {}
        rng = random.Random(f"{self.name}:{self.seed}")
        for n in self.TIERS:
            for shape in gen.SHAPES:
                for mode in self.MODES:
                    targets = int(mode.split("-")[1]) if mode.startswith("uncertain") else 0
                    limit = spohn.ORACLE_STATE_LIMIT >> targets
                    threes = max(
                        t for t in range(n // 2 + 1) if 3 ** t * 2 ** (n - t) <= limit
                    )
                    entries = []
                    for i in range(self.POOL):
                        spec = gen.make_network(rng, shape, n, threes)
                        entries.append(
                            (spec, gen.make_evidence(rng, spec, mode, surprising=i % 2 == 1))
                        )
                    self.pool[(n, shape, mode)] = entries
        op = self._op(10, "polytree", "certain-1", 0)
        op.collect(op.run(op.prepare()))

    def _op(self, n: int, shape: str, mode: str, idx: int) -> Op:
        spec, items = self.pool[(n, shape, mode)][idx]
        kind = gen.cli_mode(mode)

        def prepare():
            # Fresh objects for every call, so no cache is warm.
            net = gen.to_network(spec)
            return net, library_evidence(net, mode, items)

        def run(inputs):
            # The same steps as `spohn compare`.
            net, evidence = inputs
            if kind == "uncertain":
                augmented = net
                for name, target in evidence:
                    augmented, _ = spohn.augment_with_dummy(augmented, name, target)
                spohn.ensure_tractable(augmented.diagram.space)
                engine = engine_call(net, mode, evidence)
                dummies = [d for d in augmented.diagram.names if d not in net.diagram.names]
                conditioned = spohn.oracle_revise(
                    augmented.joint(),
                    [spohn.EvidenceSpec(d, values=("observed",)) for d in dummies],
                )
                oracle_joint = conditioned.marginalize(net.diagram.names)
            else:
                spohn.ensure_tractable(net.diagram.space)
                engine = engine_call(net, mode, evidence)
                specs = [evidence] if kind == "single" else evidence
                oracle_joint = spohn.oracle_revise(net.joint(), specs)
            return spohn.compare(engine, oracle_joint)

        def check(report):
            return report.passed

        return Op(n, (shape, mode), run, check, prepare=prepare)

    def round(self, r: int) -> list[Op]:
        ops = []
        for n, per in self.TIERS.items():
            for shape in gen.SHAPES:
                for mode in self.MODES:
                    for k in range(per):
                        ops.append(self._op(n, shape, mode, (r * per + k) % self.POOL))
        return ops


WORKLOADS = {w.name: w for w in (CliCold, EngineWarm, OracleSmall)}
