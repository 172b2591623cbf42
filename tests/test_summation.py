"""One summation rule: the library's float totals are left folds.

CPython 3.12 made ``sum()`` add floats with compensation, so a float total
taken with the built-in moves in its last bits with the interpreter, and
``best_cost``, t* or the selected player can move with them.  The library
takes its float totals with ``instance.left_sum``, a plain left fold from
0.0, which is what ``sum()`` computes on 3.10 and 3.11; the built-in adds
only integer weights.
"""

import ast
import math
import operator
import struct
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gndes
from gndes.instance import left_sum

PACKAGE = Path(gndes.__file__).resolve().parent

# the only totals taken with the built-in: each adds integer weights
INTEGER_SUMS = {
    ("sharing.py", "ShareQuery.load"),
    ("analysis.py", "budget_balance_check"),
    ("fpl.py", "normalize_costs"),
}


def builtin_sum_uses(path: Path) -> list[tuple[str, str, int]]:
    """(file, enclosing qualified name, line) of every use of the name ``sum``."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id == "sum":
            uses.append((path.name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return uses


def test_src_takes_no_float_total_with_the_builtin_sum():
    uses = [use for path in sorted(PACKAGE.glob("*.py")) for use in builtin_sum_uses(path)]
    assert [use for use in uses if use[:2] not in INTEGER_SUMS] == []
    assert {use[:2] for use in uses} == INTEGER_SUMS


def bits(x) -> tuple[str, bytes]:
    return type(x).__name__, struct.pack("<d", x)


specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
terms = st.lists(
    st.one_of(st.floats(), specials, st.floats().map(np.float64),
              specials.map(np.float64)),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(values=terms)
def test_left_sum_is_a_left_fold_from_zero(values):
    with np.errstate(all="ignore"):
        assert bits(left_sum(values)) == bits(reduce(operator.add, values, 0.0))
        assert bits(left_sum(iter(values))) == bits(left_sum(values))


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from CPython 3.12 sum() adds floats with compensation")
@settings(max_examples=300, deadline=None)
@given(values=terms)
def test_left_sum_equals_the_builtin_sum_bit_for_bit_before_3_12(values):
    with np.errstate(all="ignore"):
        assert bits(left_sum(values)) == bits(sum(values))


def test_left_sum_of_nothing_is_the_float_zero():
    # sum([]) is the int 0; left_sum([]) is 0.0.  No call site passes an
    # empty iterable: an instance has at least one resource and request,
    # every reply is nonempty (routing ends differ, Steiner requests have two
    # terminals or a nonempty pair list, explicit replies are nonempty), every
    # resource has a positive factor (h_value), a resource in use has a user
    # (the potential's tables) and harmonic(n) is taken for n >= 1
    assert repr(left_sum([])) == "0.0" and repr(left_sum(iter(()))) == "0.0"
    assert repr(left_sum([-0.0])) == "0.0"
