"""One overflow rule: what happens past the largest double is decided in two
helpers of ``instance``.

The paper's costs sigma + sum_j xi_j l^alpha_j grow superadditively, and the
Shapley shares and the potential carry binomial weights, so costs, constants
and counts can leave the double range.  ``instance.finite`` refuses a value
whose true size is past a double with the error its caller names, and
``instance.float_or_exact`` keeps a float formula's bits wherever it gives a
finite value and otherwise computes the value exactly and rounds it once.
No other function of the package names ``OverflowError`` or
``ZeroDivisionError``.
"""

import ast
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import gndes
from gndes import ExponentProfile, ResourceParams, instance, rep_cost
from gndes.errors import ConfigError, GndesError, InstanceError
from gndes.sharing import h_value

from helpers import reference_h_value, reference_rep_cost

PACKAGE = Path(gndes.__file__).resolve().parent

HELPERS = {("instance.py", "finite"), ("instance.py", "float_or_exact")}
GUARDED = frozenset({"OverflowError", "ZeroDivisionError"})


def guard_names(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, enclosing qualified name, line) of every use of an arithmetic
    error's name."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id in GUARDED:
            uses.append((filename, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_only_the_two_helpers_name_an_arithmetic_error():
    uses = [use for path in sorted(PACKAGE.glob("*.py"))
            for use in guard_names(path.read_text(encoding="utf-8"), path.name)]
    assert [use for use in uses if use[:2] not in HELPERS] == []
    assert {use[:2] for use in uses} == HELPERS


def test_the_scan_sees_a_hand_written_guard():
    source = ("def f(x):\n"
              "    try:\n"
              "        return 1.0 / x\n"
              "    except (OverflowError, ZeroDivisionError):\n"
              "        return 0.0\n"
              "class C:\n"
              "    def g(self):\n"
              "        raise OverflowError\n")
    assert guard_names(source, "m.py") == [
        ("m.py", "f", 4), ("m.py", "f", 4), ("m.py", "C.g", 8)]


class TestFinite:
    def refusal(self, *args):
        return ConfigError(f"past a double: {args}")

    def test_a_value_that_fits_is_returned(self):
        assert instance.finite(lambda: 2.0 ** 1023, self.refusal) == 2.0 ** 1023
        assert instance.finite(pow, self.refusal, 3, 4) == 81

    @pytest.mark.parametrize("compute", [lambda: 2.0 ** 1024, lambda: 1e308 * 10.0,
                                         lambda: float(10 ** 400)],
                             ids=["raises", "returns-inf", "int-to-float"])
    def test_a_value_past_a_double_raises_the_refusal(self, compute):
        with pytest.raises(ConfigError, match=r"^past a double: \(\)$"):
            instance.finite(compute, self.refusal)

    def test_the_refusal_gets_the_arguments(self):
        with pytest.raises(ConfigError, match=r"^past a double: \(10.0, 400\)$"):
            instance.finite(pow, self.refusal, 10.0, 400)

    def test_other_errors_pass_through(self):
        with pytest.raises(ZeroDivisionError):
            instance.finite(lambda: 1.0 / 0.0, self.refusal)


class TestFloatOrExact:
    def test_a_finite_float_keeps_its_bits(self):
        exact_calls = []
        value = instance.float_or_exact(lambda: 0.1 + 0.2, lambda: exact_calls.append(1))
        assert value.hex() == (0.1 + 0.2).hex() and exact_calls == []

    @pytest.mark.parametrize("fast", [lambda: 1.0 / (2.0 * (10 ** 200) ** 2),
                                      lambda: 1.0 / (1e-200 * 1e-200),
                                      lambda: 1e308 * 10.0,
                                      lambda: (1e308 * 10.0) / (1e308 * 10.0)],
                             ids=["int-to-float", "zero-divisor", "inf", "nan"])
    def test_a_failed_formula_takes_the_exact_value(self, fast):
        assert instance.float_or_exact(fast, lambda: Fraction(3, 7)) == Fraction(3, 7)


def bits_or_error(call):
    try:
        value = call()
    except GndesError as error:
        return type(error).__name__, str(error)
    return type(value).__name__, struct.pack("<d", value)


LARGEST = sys.float_info.max
factors = st.one_of(st.just(0.0),
                    st.floats(5e-324, sys.float_info.min, exclude_max=True),
                    st.floats(1e-300, 1e300))


@st.composite
def cost_cases(draw):
    q = draw(st.integers(1, 3))
    alphas = tuple(draw(st.lists(st.floats(1.0, 12.0, exclude_min=True),
                                 min_size=q, max_size=q)))
    xis = tuple(draw(st.lists(factors, min_size=q, max_size=q)))
    assume(any(xis))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, LARGEST)))
    # near the load where one positive term reaches the largest double
    xi, alpha = draw(st.sampled_from([(x, a) for x, a in zip(xis, alphas) if x]))
    log_edge = (math.log(LARGEST) - math.log(xi)) / alpha
    if log_edge < 690.0:
        edge = math.exp(log_edge)
        near_edge = st.integers(max(1, int(edge * (1 - 1e-9)) - 2), int(edge * (1 + 1e-9)) + 2)
    else:   # past every load a double holds, 1.8e308
        near_edge = st.integers(10 ** 300, 10 ** 310)
    load = draw(st.one_of(st.integers(0, 50), st.integers(1, 10 ** 12), near_edge,
                          st.integers(2 ** 1023, 2 ** 1100)))
    return ResourceParams("r", sigma, xis), ExponentProfile(alphas), load


@settings(max_examples=600, deadline=None)
@given(case=cost_cases())
def test_the_shared_fold_keeps_rep_cost_and_h_value_bit_for_bit(case):
    params, exponents, load = case
    assert (bits_or_error(lambda: rep_cost(params, exponents, load))
            == bits_or_error(lambda: reference_rep_cost(params, exponents, load)))
    assert (bits_or_error(lambda: h_value(params, exponents, load))
            == bits_or_error(lambda: reference_h_value(params, exponents, load)))


@pytest.mark.parametrize("alpha", [2.0, 3.0, 7.5])
def test_the_fold_keeps_its_bits_on_both_sides_of_the_edge(alpha):
    params, exponents = ResourceParams("r", 1.0, (1.0,)), ExponentProfile((alpha,))
    edge = LARGEST ** (1.0 / alpha)
    loads = range(int(edge * (1 - 1e-12)), int(edge * (1 + 1e-12)), max(1, int(edge * 1e-14)))
    for cost, reference in ((rep_cost, reference_rep_cost), (h_value, reference_h_value)):
        outcomes = [bits_or_error(lambda: cost(params, exponents, load)) for load in loads]
        assert outcomes == [bits_or_error(lambda: reference(params, exponents, load))
                            for load in loads]
        assert {kind for kind, _ in outcomes} == {"float", "InstanceError"}
