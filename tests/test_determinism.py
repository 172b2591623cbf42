"""Results must not depend on the interpreter's hash seed.

Replies are frozensets, whose iteration order follows ``PYTHONHASHSEED``,
and summing floats in a different order can change the last bits.  Each
case solves one seeded instance in two fresh interpreters with different
hash seeds and compares ``repr`` of every delta of every step, or of every
regret of a perturbed-leader run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gndes

SRC = str(Path(gndes.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

SOLVE = r"""
import sys
from gndes import AbrdConfig, run_abrd
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx
from helpers import seeded_case

case = sys.argv[1]
inst, mechanism = seeded_case(case)
if case == "fpl":
    result = run_l_apx(inst, FplConfig(seed=1, rounds=3), collect_trace=True)
    print(repr(result.regrets))
    print(regret_trace_to_csv(result))
else:
    result = run_abrd(inst, AbrdConfig(mechanism=mechanism, step_budget_override=4))
    for rec in result.trace[1:]:
        print(repr(rec.deltas))
"""


def solve_under_hash_seed(case: str, hash_seed: int) -> str:
    path = [SRC, TESTS, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", SOLVE, case], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("case", ["routing", "steiner", "explicit", "fpl"])
def test_deltas_do_not_depend_on_hash_seed(case):
    first = solve_under_hash_seed(case, 0)
    assert first                            # deltas per step, or regrets and trace
    assert solve_under_hash_seed(case, 1) == first
