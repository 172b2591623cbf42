"""Traces and reports must stay byte-identical to the files in tests/golden.

Each case renders one seeded run or report and compares it with its golden
file byte for byte, once with the interpreter's own ``sum()`` and once with
``compensated_sum``, the float summation of CPython 3.12 and 3.13.  The
library adds floats only with ``instance.left_sum``, so the files hold
whichever way the interpreter's ``sum()`` adds floats.  Traces and reports
print 9 digits, so one case, ``full_precision.txt``, prints what a run
decides on as ``float.hex``: every step's cost, deltas and potential, the
best cost, t* and the selected players of the golden ABRD cases and of the
first instance of each ABRD benchmark workload at seed 1
(``bench/workloads.py``), the FPL regrets and costs, and H_n for n < 60;
``grid_prop_convergence.txt`` does the same for every ``grid-prop`` job at
seeds 1 and 7, each run to convergence.  Another, ``guarantees.txt``, pins what a user reads of a guarantee, and
the ``cli_*.txt`` cases pin what the other commands print and every file
they write, as a session of ``gndes`` commands in one temporary directory.
After a deliberate change of output, rewrite the files, the demos' outputs
(``tests/test_demos.py``) included, with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import builtins
import contextlib
import dataclasses
import io
import json
import math
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gndes import (AbrdConfig, ExplicitReplies, ExponentProfile, Instance, MachineChoice,
                   Request, ResourceParams, Routing, cli, run_abrd, sharing)
from gndes.analysis import nash_report_csv, poa_lower_bound_instance, smoothness_report_csv
from gndes.bounds import harmonic, smoothness_constants, theoretical_bounds
from gndes.engine import run_report, trace_to_csv
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx
from gndes.io import instance_to_text, parse_instance_text
from gndes.sharing import MECHANISMS, rep_expansion_check

from helpers import grid_graph, random_share_query, rng_for, seeded_case
from test_demos import DEMOS, demo_output, golden_name

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _abrd_run(case):
    inst, mechanism = seeded_case(case)
    return inst, run_abrd(inst, AbrdConfig(mechanism=mechanism, step_budget_override=4))


def _abrd(case):
    inst, result = _abrd_run(case)
    return trace_to_csv(result) + run_report(inst, result)


def _fpl_run():
    inst, _ = seeded_case("fpl")
    return run_l_apx(inst, FplConfig(seed=1, rounds=3), collect_trace=True)


def _fpl():
    result = _fpl_run()
    return repr(result.regrets) + "\n" + regret_trace_to_csv(result)


def _hex(x):
    return "" if x is None else float.hex(x)


def _hex_trace(label, result):
    """A run's trace and best cost as ``float.hex`` lines."""
    lines = [f"{label}: step,player,delta_selected,delta_total,cost,potential"]
    for rec in result.trace:
        lines.append(f"{rec.step},{'' if rec.player is None else rec.player},"
                     f"{_hex(rec.delta_selected)},{_hex(rec.delta_total)},"
                     f"{_hex(rec.cost)},{_hex(rec.potential)}")
    lines.append(f"best_cost {_hex(result.best_cost)} t* {result.t_star}")
    return lines


def _bench_workloads():
    return runpy.run_path(str(WORKLOADS), run_name="bench_workloads")["WORKLOADS"]


def _full_precision():
    workloads = _bench_workloads()
    runs = [(f"abrd {case}", _abrd_run(case)[1])
            for case in ("routing", "steiner", "forest", "directed", "explicit")]
    for name in ("grid-prop", "steiner-shapley", "machines-sampled"):
        job = workloads[name](1)[0]
        runs.append((f"bench {name} seed 1 {job.label}", run_abrd(job.instance, job.config)))
    lines = [line for label, result in runs for line in _hex_trace(label, result)]
    fpl_job = workloads["fpl-grid"](1)[0]
    for label, result in (("fpl routing", _fpl_run()),
                          (f"bench fpl-grid seed 1 {fpl_job.label}",
                           run_l_apx(fpl_job.instance, fpl_job.config))):
        lines.append(f"{label}: cost {_hex(result.cost)} regrets "
                     + " ".join(_hex(r) for r in result.regrets))
    lines += [f"H_{n} {_hex(harmonic(n))}" for n in range(1, 60)]
    return "\n".join(lines) + "\n"


def _grid_prop_convergence():
    """Every ``grid-prop`` benchmark job at seeds 1 and 7, run to
    convergence with its mechanism and seed, as ``float.hex`` traces: the
    routing searches decide every step of these runs."""
    lines = []
    for seed in (1, 7):
        for job in _bench_workloads()["grid-prop"](seed):
            result = run_abrd(job.instance,
                              AbrdConfig(mechanism="proportional", seed=job.config.seed))
            assert result.converged_at is not None
            lines += _hex_trace(f"grid-prop seed {seed} {job.label}", result)
    return "\n".join(lines) + "\n"


def _sampled_capped():
    # 12 players whose subset sums all differ share two parallel edges, so
    # every share on the crowded edge is sampled; 10 samples cap each count
    exp = ExponentProfile((1.5,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    edges = ExplicitReplies((frozenset({"e1"}), frozenset({"e2"})))
    reqs = tuple(Request(id=i, kind=edges, default_weight=100_000 + 7 * 2 ** i)
                 for i in range(1, 13))
    inst = Instance(exp, res, reqs)
    config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=2,
                        step_budget_override=4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharing, "MAX_SAMPLES", 10)
        result = run_abrd(inst, config)
    assert result.sample_cap_hits > 0
    return trace_to_csv(result) + run_report(inst, result)


def _sampled_randomized():
    # 10 players whose subset sums all differ choose among 4 machines, so
    # the crowded machines' shares are sampled; randomized selection leaves
    # some steps without an update, and the next pass, over an unchanged
    # profile, must still redraw every sampled share from its own step's
    # stream
    exp = ExponentProfile((1.5,))
    ids = ("m1", "m2", "m3", "m4")
    res = tuple(ResourceParams(m, 1.0 + k, (1.0,)) for k, m in enumerate(ids))
    reqs = tuple(Request(id=i, kind=MachineChoice(ids), default_weight=100_000 + 7 * 2 ** i)
                 for i in range(1, 11))
    inst = Instance(exp, res, reqs)
    config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=3,
                        selection="randomized", output="last", step_budget_override=8)
    result = run_abrd(inst, config)
    assert result.sampled_shares > 0
    assert any(rec.player is None for rec in result.trace[1:])
    return (trace_to_csv(result) + run_report(inst, result)
            + f"sampled shares {result.sampled_shares}, capped {result.sample_cap_hits}\n")


def _duplicate_players():
    # four classes of identical routing players on a 4x4 grid (same
    # endpoints and weights; player 4's explicit weight equals its default);
    # in each run some member of a class moves while another keeps the
    # class's reply, so the two then see different tolls
    rng = np.random.default_rng(11)
    g = grid_graph(4)
    res = tuple(ResourceParams(e.id, float(rng.uniform(1, 9)), (float(rng.uniform(0.1, 0.9)),))
                for e in g.edges)
    classes = {1: (Routing("v00", "v33"), {}, 1), 2: (Routing("v30", "v03"), {}, 2),
               3: (Routing("v10", "v23"), {"d11": 3}, 1), 4: (Routing("v00", "v33"), {}, 2)}
    members = (1, 2, 3, 1, 4, 2, 1, 3, 4, 2, 1, 2)
    reqs = tuple(Request(i, kind, {"h00": 1} if i == 4 else weights, default_weight)
                 for i, (kind, weights, default_weight)
                 in enumerate((classes[c] for c in members), start=1))
    inst = Instance(ExponentProfile((2.0,)), res, reqs, g)
    out = []
    for mechanism in ("proportional", "shapley-exact", "shapley-sampled"):
        config = AbrdConfig(mechanism=mechanism, epsilon=0.05, seed=4, output="last",
                            step_budget_override=10)
        with pytest.MonkeyPatch.context() as patch:
            # free sampling set-up makes the grid's crowded edges sample
            patch.setattr(sharing, "SAMPLING_NS", 0)
            result = run_abrd(inst, config)
        movers = {rec.player for rec in result.trace[1:]} - {None}
        assert ({members[i - 1] for i in movers}
                & {c for i, c in enumerate(members, start=1) if i not in movers})
        out.append(trace_to_csv(result) + run_report(inst, result)
                   + f"sampled shares {result.sampled_shares},"
                     f" capped {result.sample_cap_hits}\n")
    return "".join(out)


def _poa_n2(kind):
    inst = poa_lower_bound_instance(4.0, 1.0, 2.0)
    mechanism = "shapley-exact"
    if kind == "nash":
        return nash_report_csv(inst, mechanism)[1]
    return smoothness_report_csv(inst, mechanism, *smoothness_constants(inst, mechanism))[1]


def _resources(*specs):
    return [{"id": rid, "sigma": sigma, "xis": xis} for rid, sigma, xis in specs]


_SQUARE = {"directed": False, "vertices": ["p", "q", "r", "s"],
           "edges": [{"id": e, "tail": e[0], "head": e[1]}
                     for e in ("pq", "qr", "rs", "sp", "pr")]}
_ONE_WAY_SQUARE = {"directed": True, "vertices": ["a", "b", "c", "d"],
                   "edges": [{"id": e, "tail": e[0], "head": e[1]}
                             for e in ("ab", "bc", "cd", "da", "ac", "ca")]}
_SQUARE_RESOURCES = _resources(("pq", 1.0, [0.5, 0.0]), ("qr", 3.0, [0.25, 0.75]),
                               ("rs", 0.0, [1.5, 0.1]), ("sp", 2.5, [0.0, 0.3]),
                               ("pr", 6.0, [0.2, 0.2]))
_ONE_WAY_RESOURCES = _resources(("ab", 1.0, [0.3, 0.6]), ("bc", 2.0, [0.7, 0.0]),
                                ("cd", 0.5, [0.0, 1.2]), ("da", 4.0, [0.9, 0.4]),
                                ("ac", 7.0, [0.1, 0.1]), ("ca", 3.0, [0.6, 2.0]))

# instance files whose oracle ratio rho is 1, 2 and 3 or more, by label
GUARANTEE_INSTANCES = {
    "machines, rho 1": {
        "alphas": [2.0, 3.0],
        "resources": _resources(("m1", 3.0, [1.0, 0.0]), ("m2", 0.5, [0.2, 0.4]),
                                ("m3", 2.0, [0.0, 0.7])),
        "requests": [
            {"id": 1, "kind": {"type": "machine_choice", "machines": ["m1", "m2", "m3"]}},
            {"id": 2, "weight_all": 2,
             "kind": {"type": "machine_choice", "machines": ["m1", "m2"]}},
            {"id": 3, "weights": {"m2": 3},
             "kind": {"type": "machine_choice", "machines": ["m2", "m3"]}}]},
    "explicit replies, rho 1": {
        "alphas": [1.5],
        "resources": _resources(("a", 1.0, [1.0]), ("b", 4.0, [0.5]), ("c", 0.0, [2.0])),
        "requests": [
            {"id": 1, "kind": {"type": "explicit", "replies": [["a"], ["b", "c"]]}},
            {"id": 2, "weight_all": 2,
             "kind": {"type": "explicit", "replies": [["a", "b"], ["c"]]}}]},
    "set connectivity, rho 2": {
        "alphas": [2.5, 1.25], "resources": _SQUARE_RESOURCES, "graph": _SQUARE,
        "requests": [
            {"id": 1, "kind": {"type": "set_connectivity", "terminals": ["p", "q", "r"]}},
            {"id": 2, "weight_all": 2,
             "kind": {"type": "set_connectivity", "terminals": ["q", "s"]}}]},
    "multi-routing, rho 2": {
        "alphas": [2.0, 3.5], "resources": _SQUARE_RESOURCES, "graph": _SQUARE,
        "requests": [
            {"id": 1, "kind": {"type": "multi_routing", "pairs": [["p", "r"], ["q", "s"]]}},
            {"id": 2, "weight_all": 2,
             "kind": {"type": "multi_routing", "pairs": [["p", "q"]]}}]},
    "directed multi-routing with 3 pairs, rho 3": {
        "alphas": [2.0, 1.5], "resources": _ONE_WAY_RESOURCES, "graph": _ONE_WAY_SQUARE,
        "requests": [
            {"id": 1, "kind": {"type": "multi_routing",
                               "pairs": [["a", "c"], ["b", "d"], ["c", "a"]]}},
            {"id": 2, "weight_all": 3,
             "kind": {"type": "routing", "source": "a", "target": "d"}}]},
    "strong connectivity of 4 terminals, rho 4": {
        "alphas": [1.8, 2.2], "resources": _ONE_WAY_RESOURCES, "graph": _ONE_WAY_SQUARE,
        "requests": [
            {"id": 1, "kind": {"type": "set_connectivity", "terminals": ["a", "b", "c", "d"]}},
            {"id": 2, "weight_all": 2,
             "kind": {"type": "set_connectivity", "terminals": ["a", "c"]}}]},
}


def _cli_output(*argv):
    """Exit code, stdout and stderr of one ``gndes`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _bounds_fields(inst, mechanism, epsilon):
    b = theoretical_bounds(inst, mechanism, epsilon)
    return " ".join(f"{f.name}={getattr(b, f.name)}" if f.name == "T"
                    else f"{f.name}={float.hex(getattr(b, f.name))}"
                    for f in dataclasses.fields(b))


def _guarantees():
    """Every guarantee a user can read: ``gndes bounds`` and ``gndes smooth``
    as text and JSON under both --csm choices, the ``TheoreticalBounds``
    fields as ``float.hex`` under every mechanism, and both sides of the
    expansion inequality on seeded queries with one and two exponents."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "instance.json")
        for label, doc in GUARANTEE_INSTANCES.items():
            text = json.dumps(doc)
            Path(path).write_text(text, encoding="utf-8")
            lines.append(f"== {label}")
            for csm in ("proportional", "shapley"):
                for command, extra in (("bounds", ()), ("smooth", ("--pairs", "400"))):
                    for fmt in ((), ("--json",)):
                        argv = (command, "--instance", path, "--csm", csm, *extra, *fmt)
                        lines.append("$ gndes " + " ".join(argv).replace(path, "FILE"))
                        lines.append(_cli_output(*argv).rstrip("\n"))
            inst = parse_instance_text(text)
            for mechanism in MECHANISMS:
                for epsilon in (0.01, 0.1):
                    lines.append(f"{mechanism} eps {epsilon}: "
                                 + _bounds_fields(inst, mechanism, epsilon))
    rng = rng_for(22)
    queries = [random_share_query(rng) for _ in range(24)]
    assert {q.exponents.q for q in queries} == {1, 2}
    for k, q in enumerate(queries):
        for mechanism in MECHANISMS:
            chk = rep_expansion_check(mechanism, q)
            lines.append(f"query {k} q={q.exponents.q} {mechanism}: share {float.hex(chk.share)}"
                         f" bound {float.hex(chk.bound)} ok {chk.ok}")
    return "\n".join(lines) + "\n"


def _session(instances, commands):
    """Each command's exit code, stdout and stderr (``_cli_output``) and then
    every file it wrote, run in one temporary directory that holds the
    instance files ``instances`` names; ``DIR`` stands for that directory
    in the commands and in what they print."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, inst in instances.items():
            Path(tmp, name).write_text(instance_to_text(inst), encoding="utf-8")
        seen = set(instances)
        for command in commands:
            lines.append(f"$ gndes {command}")
            lines.append(_cli_output(*command.replace("DIR", tmp).split())
                         .replace(tmp, "DIR").rstrip("\n"))
            for name in sorted(p.name for p in Path(tmp).iterdir() if p.name not in seen):
                seen.add(name)
                lines.append(f"--- DIR/{name}")
                lines.append(Path(tmp, name).read_text(encoding="utf-8").rstrip("\n"))
    return "\n".join(lines) + "\n"


def _guarantee_instance(label):
    return parse_instance_text(json.dumps(GUARANTEE_INSTANCES[label]))


def _cli_solve():
    """``gndes solve`` as text and JSON, with the trace it writes, under
    every mechanism, both selections and output modes, a step cap and the
    brute-force optimum."""
    return _session(
        {"routing.json": seeded_case("routing")[0], "steiner.json": seeded_case("steiner")[0],
         "explicit.json": seeded_case("explicit")[0],
         "machines.json": _guarantee_instance("machines, rho 1")},
        ["solve --instance DIR/routing.json --csm proportional --max-steps 4"
         " --trace DIR/routing.csv",
         "solve --instance DIR/routing.json --csm proportional --max-steps 4 --json",
         "solve --instance DIR/steiner.json --max-steps 3 --epsilon 0.05 --trace DIR/steiner.csv",
         "solve --instance DIR/explicit.json --brute",
         "solve --instance DIR/explicit.json --brute --json",
         "solve --instance DIR/machines.json --csm shapley-sampled --seed 3"
         " --selection rand --output last --trace DIR/machines.csv",
         "solve --instance DIR/machines.json --csm shapley-sampled --seed 3"
         " --selection rand --output last --json",
         "solve --instance DIR/machines.json --max-steps 0 --json",
         "solve --instance DIR/missing.json"])


def _cli_enumeration():
    """``gndes brute``, ``nash`` and ``smooth --csv`` as text and JSON with
    the CSV files they write, and ``poa-gen`` with the instance it writes."""
    return _session(
        {"explicit.json": seeded_case("explicit")[0],
         "machines.json": _guarantee_instance("machines, rho 1")},
        ["brute --instance DIR/explicit.json",
         "brute --instance DIR/explicit.json --json",
         "nash --instance DIR/machines.json --csv DIR/nash.csv",
         "nash --instance DIR/machines.json --csm proportional --json",
         "nash --instance DIR/explicit.json",
         "smooth --instance DIR/machines.json --pairs 30 --seed 5 --csv DIR/smooth.csv",
         "poa-gen --sigma 4 --xi 1 --alpha 2 --q 2 --out DIR/poa.json",
         "nash --instance DIR/poa.json --json"])


def _cli_fpl():
    """``gndes fpl`` as text and JSON, with and without a lower bound, and
    the regret trace it writes."""
    return _session(
        {"routing.json": seeded_case("fpl")[0]},
        ["fpl --instance DIR/routing.json --seed 1 --rounds 3 --trace DIR/regret.csv",
         "fpl --instance DIR/routing.json --seed 1 --rounds 3 --lb 2.5",
         "fpl --instance DIR/routing.json --seed 2 --rounds 2 --json"])


CASES = {
    "abrd_routing.txt": lambda: _abrd("routing"),
    "abrd_steiner.txt": lambda: _abrd("steiner"),
    "abrd_forest.txt": lambda: _abrd("forest"),
    "abrd_directed.txt": lambda: _abrd("directed"),
    "abrd_explicit.txt": lambda: _abrd("explicit"),
    "fpl_routing.txt": _fpl,
    "sampled_capped.txt": _sampled_capped,
    "sampled_randomized.txt": _sampled_randomized,
    "duplicate_players.txt": _duplicate_players,
    "full_precision.txt": _full_precision,
    "grid_prop_convergence.txt": _grid_prop_convergence,
    "guarantees.txt": _guarantees,
    "cli_solve.txt": _cli_solve,
    "cli_enumeration.txt": _cli_enumeration,
    "cli_fpl.txt": _cli_fpl,
    "poa_n2_nash.csv": lambda: _poa_n2("nash"),
    "poa_n2_smoothness.csv": lambda: _poa_n2("smoothness"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


_LONG_MIN, _LONG_MAX = -(1 << 63), (1 << 63) - 1


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 and 3.13 compute it.

    Exact ints are added exactly while the total fits a C long.  Once the
    total is an exact float, exact floats are added with Neumaier's
    compensation and the compensation is added at the end when it is
    nonzero and finite; ints that fit a C long are added to the running
    total plainly.  Any other item, and everything after it, goes through
    ``+``.  CPython 3.11 and older add every float plainly.
    """
    items = iter(iterable)
    total = start
    if type(total) is int and _LONG_MIN <= total <= _LONG_MAX:
        for item in items:
            total = total + item
            if not (type(item) in (int, bool) and _LONG_MIN <= total <= _LONG_MAX):
                break
        else:
            return total
    if type(total) is float:
        hi, lo = total, 0.0
        for item in items:
            if type(item) is float:
                t = hi + item
                if abs(hi) >= abs(item):
                    lo += (hi - t) + item
                else:
                    lo += (item - t) + hi
                hi = t
            elif isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                hi += float(item)
            else:
                total = (hi + lo if lo and math.isfinite(lo) else hi) + item
                break
        else:
            return hi + lo if lo and math.isfinite(lo) else hi
    for item in items:
        total = total + item
    return total


def test_compensated_sum_adds_as_cpython_3_12_does():
    # the example of the CPython 3.12 changelog, and sums whose plain
    # left fold loses the small terms
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e16, 1.0, 1.0]) == 1e16 + 2.0
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([], 0.5) == 0.5 and compensated_sum([]) == 0
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, True])) is int
    assert compensated_sum([2 ** 70, 1]) == 2 ** 70 + 1
    assert repr(compensated_sum([-0.0], -0.0)) == "-0.0"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file_under_compensated_sum(name, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render(), encoding="utf-8", newline="\n")
    for demo in DEMOS:
        (GOLDEN / golden_name(demo)).write_text(demo_output(demo), encoding="utf-8",
                                                newline="\n")
