"""Traces and reports must stay byte-identical to the files in tests/golden.

Each case renders one seeded run or report and compares it with its golden
file byte for byte, once with the interpreter's own ``sum()`` and once with
``compensated_sum``, the float summation of CPython 3.12 and 3.13, so the
files hold whichever way the interpreter adds floats.  After a deliberate change of
output, rewrite the files, the demos' outputs (``tests/test_demos.py``)
included, with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import builtins
import math
from pathlib import Path

import numpy as np
import pytest

from gndes import (AbrdConfig, ExplicitReplies, ExponentProfile, Instance, MachineChoice,
                   Request, ResourceParams, Routing, run_abrd, sharing)
from gndes.analysis import nash_report_csv, poa_lower_bound_instance, smoothness_report_csv
from gndes.bounds import gamma_alpha, lambda_alpha
from gndes.engine import run_report, trace_to_csv
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx
from gndes.sharing import rep_expansion_constants

from helpers import grid_graph, seeded_case
from test_demos import DEMOS, demo_output, golden_name

GOLDEN = Path(__file__).resolve().parent / "golden"


def _abrd(case):
    inst, mechanism = seeded_case(case)
    result = run_abrd(inst, AbrdConfig(mechanism=mechanism, step_budget_override=4))
    return trace_to_csv(result) + run_report(inst, result)


def _fpl():
    inst, _ = seeded_case("fpl")
    result = run_l_apx(inst, FplConfig(seed=1, rounds=3), collect_trace=True)
    return repr(result.regrets) + "\n" + regret_trace_to_csv(result)


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
    constants = rep_expansion_constants(mechanism, inst.exponents)
    lam = gamma_alpha(inst) + lambda_alpha(constants, inst.exponents.alpha_max)
    return smoothness_report_csv(inst, mechanism, lam, 0.5)[1]


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
