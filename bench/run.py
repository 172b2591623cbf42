"""Seeded end-to-end and per-layer benchmark for gndes.

Usage, from the root of a repository checkout::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One run generates the workload's batch of instances from the seed, writes
each with ``io.instance_to_text`` and parses it back (set-up, repeated and
timed), then solves the whole batch with ``run_abrd`` or ``run_l_apx`` again
and again for ``--seconds`` seconds.  Every solve is checked: each output
reply must be feasible, the reported cost must equal a fresh ``total_cost``,
exact Shapley outputs must be budget balanced, FPL regrets must be finite,
and repeated solves of one instance must agree.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` passes alternate between untraced and traced solves; traced
passes wrap the library's layer functions from outside (see ``tracer.py``)
and the run reports per-layer metrics plus the tracing overhead.  The spans
of the last traced pass are written to ``bench/out/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every solve passed its checks.  ``--workload all`` runs every
workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from workloads import WORKLOADS, Job  # also puts the checkout's src/ on sys.path

from gndes import (  # noqa: E402  (after workloads set the import path)
    FplConfig,
    GndesError,
    budget_balance_check,
    initial_profile,
    instance_to_text,
    parse_instance_text,
    run_abrd,
    run_l_apx,
    total_cost,
    validate_reply,
)
from tracer import Tracer, attach_cap_counter, layer_metrics  # noqa: E402

SETUP_REPEATS = 7
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

# The machine's speed drifts by up to half from one second to the next
# (other tenants share its cores), so every timed region is scaled by a
# calibration kernel timed right before and right after it.  The kernels are
# the benchmark's own code, so a change to the library cannot change them.
# Reported times are seconds at the speed where the kernel takes its
# reference time.


def _python_kernel() -> int:
    """Integer arithmetic with tuple keys and dict updates, like the
    library's interpreted inner loops."""
    table: dict[tuple[str, int], int] = {}
    for i in range(20_000):
        key = ("e", i & 127)
        table[key] = table.get(key, 0) + i * i
    return len(table)


def _numpy_kernel() -> float:
    """Permute, gather and prefix-sum arrays of a few megabytes, like
    sampled Shapley shares, whose speed follows memory bandwidth rather
    than the interpreter."""
    rng = np.random.Generator(np.random.PCG64(1))
    perms = rng.permuted(np.tile(np.arange(6), (50_000, 1)), axis=1)
    csum = np.cumsum(np.arange(1.0, 7.0)[perms], axis=1)
    return float(csum[np.arange(50_000), np.argmax(perms == 2, axis=1)].sum())


# kernel and its reference time in seconds
KERNELS = {"python": (_python_kernel, 0.005), "numpy": (_numpy_kernel, 0.010)}
# the kernel each workload's solves are scaled by; set-up always uses python
SOLVE_KERNEL = {"machines-sampled": "numpy"}


class Clock:
    """Times regions in wall seconds scaled to the reference speed."""

    def __init__(self, kernel: str):
        self.kernel, self.reference = KERNELS[kernel]
        self.samples: list[float] = []
        self.calibrate()

    def calibrate(self):
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)

    def factor(self) -> float:
        """Scale factor for a region that started right after the previous
        calibration and ended just now; the new calibration also opens the
        next region."""
        self.calibrate()
        return self.reference / ((self.samples[-2] + self.samples[-1]) / 2.0)


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares the metrics a run
    with or without tracing must report."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    jobs: list[Job]
    seconds: list[float]
    write_s: list[float]
    parse_s: list[float]
    problems: list[str]


def set_up(workload: str, seed: int, clock: Clock) -> Setup:
    """Generate, write and parse the batch SETUP_REPEATS times, the route
    ``gndes solve --instance`` takes; the last repetition's instances are
    the ones solved."""
    setup = Setup([], [], [], [], [])
    clock.calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        generated = WORKLOADS[workload](seed)
        t1 = perf_counter()
        texts = [instance_to_text(job.instance) for job in generated]
        t2 = perf_counter()
        parsed = [parse_instance_text(text) for text in texts]
        t3 = perf_counter()
        scale = clock.factor()
        setup.seconds.append(scale * (t3 - t0))
        setup.write_s.append(scale * (t2 - t1))
        setup.parse_s.append(scale * (t3 - t2))
    for job, inst, text in zip(generated, parsed, texts):
        if inst != job.instance or instance_to_text(inst) != text:
            setup.problems.append(f"{job.label}: instance does not survive write and parse")
        setup.jobs.append(Job(job.label, inst, job.config))
    return setup


# ---------------------------------------------------------------------------
# solving and checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Solved:
    job: Job
    seconds: float
    steps: int
    cost: float
    profile: tuple
    regrets: tuple[float, ...] = ()
    error: str = ""


def solve(job: Job, clock: Clock, tracer: Optional[Tracer]) -> Solved:
    fpl = isinstance(job.config, FplConfig)
    fn = run_l_apx if fpl else run_abrd
    t0 = perf_counter()
    try:
        if tracer is None:
            result = fn(job.instance, job.config)
        else:
            result = tracer.span("solve.run_l_apx" if fpl else "solve.run_abrd",
                                 fn, job.instance, job.config)
    except GndesError as exc:
        return Solved(job, (perf_counter() - t0) * clock.factor(), 0, math.nan, (),
                      error=f"{type(exc).__name__}: {exc}")
    seconds = (perf_counter() - t0) * clock.factor()
    if fpl:
        return Solved(job, seconds, result.rounds, result.cost, result.profile,
                      tuple(result.regrets))
    return Solved(job, seconds, len(result.trace) - 1, result.output_cost,
                  result.output_profile)


def check(solved: Solved) -> list[str]:
    """Problems with one solve's output; empty when it is correct."""
    if solved.error:
        return [solved.error]
    job, inst = solved.job, solved.job.instance
    if len(solved.profile) != inst.n_requests:
        return [f"{len(solved.profile)} replies for {inst.n_requests} requests"]
    problems = []
    users: dict[str, list[tuple[int, int]]] = {}
    for req, reply in zip(inst.requests, solved.profile):
        verdict = validate_reply(inst, req, reply)
        if not verdict:
            problems.append(f"request {req.id}: infeasible reply ({verdict.reason})")
        for e in reply:
            users.setdefault(e, []).append((req.id, req.weight(e)))
    fresh = total_cost(inst, solved.profile)
    if not math.isclose(solved.cost, fresh, rel_tol=1e-9):
        problems.append(f"reported cost {solved.cost!r} != total_cost {fresh!r}")
    if getattr(job.config, "mechanism", None) == "shapley-exact":
        report = budget_balance_check("shapley-exact", [
            (inst.resource_by_id[e], inst.exponents, tuple(u)) for e, u in sorted(users.items())])
        if not report.ok:
            problems.append(f"exact Shapley shares off budget balance by {report.max_rel_gap!r}")
    if not all(math.isfinite(r) for r in solved.regrets):
        problems.append(f"non-finite FPL regret in {solved.regrets!r}")
    return problems


class Checker:
    """Checks every solve.  A verdict is reused when an instance's output is
    identical to one already checked, and every later solve of an instance
    must reproduce its first solve's output exactly."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, solved: Solved):
        self.attempted += 1
        key = (solved.job.label, solved.cost, solved.profile, solved.regrets, solved.error)
        if key not in self.verdicts:
            self.verdicts[key] = check(solved)
        problems = list(self.verdicts[key])
        if key != self.first.setdefault(solved.job.label, key):
            problems.append("output differs from the first solve of this instance")
        if problems:
            self.failed += 1
            self.problems.extend(f"{solved.job.label}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pass:
    traced: bool
    seconds: tuple[float, ...]        # per job, in batch order
    steps: int
    cost: float


def batch_seconds(passes: list[Pass]) -> float:
    """Time to solve the batch once: each job's median over the passes,
    summed, so one slow moment affects one job's sample only."""
    return sum(statistics.median(times) for times in zip(*(p.seconds for p in passes)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    caps = attach_cap_counter()
    setup = set_up(workload, seed, Clock("python"))
    clock = Clock(SOLVE_KERNEL.get(workload, "python"))
    # the design each request would build alone: the yardstick for the output
    standalone = sum(total_cost(job.instance, initial_profile(job.instance))
                     for job in setup.jobs)
    checker = Checker()
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    layers: list[dict[str, float]] = []
    step_durations: list[float] = []
    pass_wall: dict[bool, list[float]] = {False: [], True: []}

    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p0 = perf_counter()
        caps_before = caps.count
        if traced:
            tracer.clear()
            tracer.install()
        clock.calibrate()
        try:
            results = [solve(job, clock, tracer if traced else None) for job in setup.jobs]
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rounds = sum(r.steps for r in results if isinstance(r.job.config, FplConfig))
            layers.append(layer_metrics(tracer, caps.count - caps_before, rounds,
                                        step_durations))
        for solved in results:
            checker(solved)
        passes.append(Pass(traced, tuple(r.seconds for r in results),
                           sum(r.steps for r in results), sum(r.cost for r in results)))
        pass_wall[traced].append(perf_counter() - p0)
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        if perf_counter() - start + statistics.median(pass_wall[next_traced]) > seconds:
            break

    untraced = [p for p in passes if not p.traced]
    run_s = batch_seconds(untraced)
    if trace:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = max(values) if name.endswith("_max") else statistics.fmean(values)
        if len(step_durations) > 1:
            cuts = statistics.quantiles(step_durations, n=10, method="inclusive")
        else:
            cuts = (step_durations or [0.0]) * 9
        metrics["engine.step_ms_p50"] = 1e3 * cuts[4]
        metrics["engine.step_ms_p90"] = 1e3 * cuts[8]
        metrics["io.write_s"] = statistics.median(setup.write_s)
        metrics["io.parse_s"] = statistics.median(setup.parse_s)
        traced_s = batch_seconds([p for p in passes if p.traced])
        metrics["trace.overhead_frac"] = traced_s / run_s - 1.0
        metrics["bench.calibration_ms"] = 1e3 * statistics.median(clock.samples)
        metrics["output.cost_ratio"] = passes[0].cost / standalone
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_csv(os.path.join(OUT_DIR, f"spans-{workload}.csv"))
        for name in tracer.absent:
            print(f"absent: {name} (its metrics read 0)")
    else:
        metrics = {
            "setup_s": statistics.median(setup.seconds),
            "run_s": run_s,
            "steps_per_s": passes[0].steps / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = declared_units(trace)
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
                         f"disagree with {SPEC}")
    # one attempt per instance round trip and one per solve
    attempted = len(setup.jobs) + checker.attempted
    failed = len(setup.problems) + checker.failed
    print(f"{workload}: seed {seed}, {len(setup.jobs)} instances, {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced)")
    print(f"  attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.6g}); "
          f"output cost {passes[0].cost:.9g} ({passes[0].cost / standalone:.6g} of the "
          f"standalone design); sample-cap warnings {caps.count}")
    for problem in (setup.problems + checker.problems)[:20]:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:<14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
