"""Results must not depend on the interpreter's hash seed.

Replies are frozensets, whose iteration order follows ``PYTHONHASHSEED``,
and summing floats in a different order can change the last bits.  Each
case solves one seeded instance in two fresh interpreters with different
hash seeds and compares ``repr`` of every delta of every step, or of every
regret of a perturbed-leader run.  Error messages that name one of several
unknown resources must name the same one under every hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gndes

SRC = str(Path(gndes.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

# A step record keeps only the updated player's delta, so every pass is
# rebuilt from the profile after k steps (the last profile of a run cut at k)
# and its full delta vector printed, after checking it against the record.
SOLVE = r"""
import sys
from dataclasses import replace
from gndes import AbrdConfig, delta_vector, run_abrd
from gndes.fpl import FplConfig, regret_trace_to_csv, run_l_apx
from helpers import pass_view, seeded_case

case = sys.argv[1]
inst, mechanism = seeded_case(case)
if case == "fpl":
    result = run_l_apx(inst, FplConfig(seed=1, rounds=3), collect_trace=True)
    print(repr(result.regrets))
    print(regret_trace_to_csv(result))
else:
    config = AbrdConfig(mechanism=mechanism, step_budget_override=4)
    result = run_abrd(inst, config)
    position = {req.id: pos for pos, req in enumerate(inst.requests)}
    for k, rec in enumerate(result.trace[1:]):
        cut = run_abrd(inst, replace(config, output="last", step_budget_override=k))
        dpass = delta_vector(pass_view(inst, config, cut.output_profile, k + 1, 4))
        assert dpass.total == rec.delta_total
        if rec.player is not None:
            assert dpass.deltas[position[rec.player]] == rec.delta_selected
        print(repr(dpass.deltas))
"""


# a reply of six undeclared resources, met by the parser, the reply check and
# the load vector; each names the least of them
UNKNOWN = r"""
import json
from gndes import ExponentProfile, Instance, MachineChoice, Request, ResourceParams, load_vector
from gndes.errors import GndesError
from gndes.io import parse_instance_text

reply = frozenset("uvwxyz")
doc = {"alphas": [2.0], "resources": [{"id": "m", "sigma": 1.0, "xis": [1.0]}],
       "requests": [{"id": 1, "kind": {"type": "explicit", "replies": [sorted(reply)]}}]}
inst = Instance(ExponentProfile((2.0,)), (ResourceParams("m", 1.0, (1.0,)),),
                (Request(id=1, kind=MachineChoice(("m",))),))
for attempt in (lambda: parse_instance_text(json.dumps(doc)),
                lambda: inst.check_reply_resources(reply),
                lambda: load_vector(inst, (reply,))):
    try:
        attempt()
    except GndesError as exc:
        print(exc)
"""


def run_under_hash_seed(script: str, hash_seed: int, *args: str) -> str:
    path = [SRC, TESTS, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("case", ["routing", "steiner", "explicit", "fpl"])
def test_deltas_do_not_depend_on_hash_seed(case):
    first = run_under_hash_seed(SOLVE, 0, case)
    assert first                            # deltas per step, or regrets and trace
    assert run_under_hash_seed(SOLVE, 1, case) == first


def test_unknown_resource_messages_do_not_depend_on_hash_seed():
    outputs = {run_under_hash_seed(UNKNOWN, seed) for seed in range(6)}
    assert outputs == {"request 1: reply uses unknown resource 'u'\n"
                       "reply uses unknown resource 'u'\n"
                       "reply of request 1 uses unknown resource 'u'\n"}
