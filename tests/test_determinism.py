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

SOLVE = r"""
import sys
import numpy as np
from gndes import (AbrdConfig, Edge, ExplicitReplies, ExponentProfile, HostGraph,
                   Instance, Request, ResourceParams, Routing, SetConnectivity, run_abrd)
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx

def grid(k):
    v = lambda i, j: f"v{i}{j}"
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append(Edge(f"h{i}{j}", v(i, j), v(i, j + 1)))
            if i + 1 < k:
                edges.append(Edge(f"d{i}{j}", v(i, j), v(i + 1, j)))
    return HostGraph(False, tuple(v(i, j) for i in range(k) for j in range(k)), tuple(edges))

def resources(rng, ids):
    return tuple(ResourceParams(e, float(rng.uniform(1, 9)), (float(rng.uniform(0.1, 0.9)),))
                 for e in ids)

rng = np.random.default_rng(0)
exp = ExponentProfile((2.0,))
case = sys.argv[1]
if case in ("routing", "fpl"):
    g = grid(5)
    reqs = [Request(i, Routing(f"v{int(rng.integers(5))}0", f"v{int(rng.integers(5))}4"),
                    default_weight=int(rng.integers(1, 3))) for i in range(1, 9)]
    inst, mechanism = Instance(exp, resources(rng, [e.id for e in g.edges]), tuple(reqs), g), \
        "proportional"
elif case == "steiner":
    g = grid(4)
    reqs = [Request(i, SetConnectivity(tuple(
                g.vertices[t] for t in rng.choice(len(g.vertices), size=3, replace=False))))
            for i in range(1, 6)]
    inst, mechanism = Instance(exp, resources(rng, [e.id for e in g.edges]), tuple(reqs), g), \
        "shapley-exact"
else:
    ids = [f"r{k}" for k in range(10)]
    reqs = [Request(i, ExplicitReplies(tuple(
                frozenset(rng.choice(ids, size=5, replace=False).tolist()) for _ in range(3))),
                default_weight=int(rng.integers(1, 3)))
            for i in range(1, 6)]
    inst, mechanism = Instance(exp, resources(rng, ids), tuple(reqs)), "shapley-exact"

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
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SOLVE, case], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("case", ["routing", "steiner", "explicit", "fpl"])
def test_deltas_do_not_depend_on_hash_seed(case):
    first = solve_under_hash_seed(case, 0)
    assert first                            # deltas per step, or regrets and trace
    assert solve_under_hash_seed(case, 1) == first
