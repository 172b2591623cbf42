"""Traces and reports must stay byte-identical to the files in tests/golden.

Each case renders one seeded run or report and compares it with its golden
file byte for byte.  After a deliberate change of output, rewrite the files,
the demos' outputs (``tests/test_demos.py``) included, with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from gndes import (AbrdConfig, ExplicitReplies, ExponentProfile, Instance, MachineChoice,
                   Request, ResourceParams, run_abrd, sharing)
from gndes.analysis import nash_report_csv, poa_lower_bound_instance, smoothness_report_csv
from gndes.bounds import gamma_alpha, lambda_alpha
from gndes.engine import run_report, trace_to_csv
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx
from gndes.sharing import rep_expansion_constants

from helpers import seeded_case
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
    "poa_n2_nash.csv": lambda: _poa_n2("nash"),
    "poa_n2_smoothness.csv": lambda: _poa_n2("smoothness"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render(), encoding="utf-8", newline="\n")
    for demo in DEMOS:
        (GOLDEN / golden_name(demo)).write_text(demo_output(demo), encoding="utf-8",
                                                newline="\n")
