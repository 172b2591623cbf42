"""Every demo script runs to completion against the library in this checkout
and prints exactly its golden output, ``tests/golden/demo_NN.txt`` for
``demos/NN_*.py``.  ``PYTHONPATH=src python tests/test_golden.py`` rewrites
these files along with the other golden files.

A demo runs in a process of its own, which the suite's ``filterwarnings``
does not reach, so it runs under ``-W error::RuntimeWarning`` (a numpy
overflow fails it as it fails a test) and must leave stderr empty."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gndes

SRC = str(Path(gndes.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_name(demo: Path) -> str:
    return f"demo_{demo.name[:2]}.txt"


def demo_output(demo: Path) -> str:
    """The demo's standard output; fails if the demo exits nonzero or
    writes to stderr."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    out = demo_output(demo)
    assert out.strip()
    assert out == (GOLDEN / golden_name(demo)).read_text(encoding="utf-8")
