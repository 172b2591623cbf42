import math

import pytest

from gndes import (
    ConfigError,
    ExplicitReplies,
    ExponentProfile,
    Instance,
    MachineChoice,
    Request,
    ResourceParams,
    gamma_alpha,
    theoretical_bounds,
)
from gndes.sharing import ExpansionTerm, RepExpansionConstants, rep_expansion_constants

from helpers import random_explicit_instance, rng_for


def machine_instance(resources, n_players=1):
    ids = tuple(r.id for r in resources)
    exp = ExponentProfile(tuple([2.0] * len(resources[0].xis)))
    reqs = tuple(
        Request(id=i, kind=MachineChoice(ids)) for i in range(1, n_players + 1))
    return Instance(exp, tuple(resources), reqs)


def test_gamma_alpha_single_edge():
    inst = machine_instance([ResourceParams("e", 4.0, (1.0,))])
    assert gamma_alpha(inst) == pytest.approx(2.0)


def test_gamma_alpha_takes_worst_resource():
    inst = machine_instance(
        [ResourceParams("a", 4.0, (1.0,)), ResourceParams("b", 9.0, (1.0,))])
    assert gamma_alpha(inst) == pytest.approx(3.0)


def test_gamma_alpha_skips_zero_factors():
    # the zero-factor term would divide by zero; the other term is used
    exp = ExponentProfile((2.0, 3.0))
    inst = Instance(
        exp,
        (ResourceParams("e", 8.0, (0.0, 1.0)),),
        (Request(id=1, kind=MachineChoice(("e",))),),
    )
    assert gamma_alpha(inst) == pytest.approx((8.0 / 2.0) ** (1.0 / 3.0))


def two_player_parallel_instance():
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    reqs = tuple(
        Request(id=i, kind=ExplicitReplies((frozenset({"e1"}), frozenset({"e2"}))))
        for i in (1, 2))
    return Instance(exp, res, reqs)


def test_step_budget_frozen_example():
    # N=2, alpha=2, rho=1, eps=0.01, Shapley constants: recompute the closed
    # form independently and pin the value
    inst = two_player_parallel_instance()
    constants = rep_expansion_constants("shapley", inst.exponents)
    b = theoretical_bounds(inst, rho=1.0, epsilon=0.01, constants=constants)

    eps1 = 1.01 / 0.99
    a = 1.5
    q = 2 * eps1 * 2 * a / (1 - eps1 * eps1 * 0.5)
    t = math.ceil(q * math.log(a * 2 * 2 ** 2.0))
    assert t == 32
    assert b.T == 32
    assert b.A == pytest.approx(1.5)
    assert b.B == 2.0
    assert b.mu == pytest.approx(0.5)
    assert b.epsilon1 == pytest.approx(eps1)


def test_lambda_alpha_shapley_alpha2():
    exp = ExponentProfile((2.0,))
    constants = rep_expansion_constants("shapley", exp)
    inst = two_player_parallel_instance()
    b = theoretical_bounds(inst, 1.0, 0.01, constants)
    # z_max = ceil(max(9, 4)) = 9, K = 2: (2*2*9)^(2+1)
    assert b.lambda_alpha == pytest.approx(36.0 ** 3)
    assert b.lam == pytest.approx(b.gamma_alpha + b.lambda_alpha)


def test_epsilon_too_large_rejected():
    inst = two_player_parallel_instance()
    constants = rep_expansion_constants("shapley", inst.exponents)
    # eps1^2 >= 2 at eps = 0.2
    with pytest.raises(ConfigError):
        theoretical_bounds(inst, 1.0, 0.2, constants)
    theoretical_bounds(inst, 1.0, 0.17, constants)  # eps1^2 = 1.988... is fine


@pytest.mark.parametrize("mechanism", ["proportional", "shapley"])
def test_ratio_bound_exceeds_rho(mechanism):
    rng = rng_for(11)
    for _ in range(20):
        inst = random_explicit_instance(rng)
        constants = rep_expansion_constants(mechanism, inst.exponents)
        rho = float(rng.uniform(1.0, 3.0))
        b = theoretical_bounds(inst, rho, 0.01, constants)
        assert b.ratio_bound > b.rho
        assert b.T >= 1
        assert b.mu < 1.0 / (b.rho * b.epsilon1 ** 2)


def one_machine_instance(alpha, n_players=1):
    res = ResourceParams("m", 1.0, (1.0,))
    reqs = tuple(Request(id=i, kind=MachineChoice(("m",))) for i in range(1, n_players + 1))
    return Instance(ExponentProfile((alpha,)), (res,), reqs)


# K = 1 and z = 0.5, so lambda_alpha = 2^(alpha + 1) stays finite up to alpha 1022
SMALL_CONSTANTS = RepExpansionConstants("proportional", ((ExpansionTerm(0.0, 1.0, 0.5),),))


@pytest.mark.parametrize("name, alpha, rho, epsilon, constants, n", [
    ("lambda_alpha", 25.0, 1.0, 0.01, None, 1),
    # the Shapley binomial factor is itself infinite here
    ("lambda_alpha", 300.0, 1.0, 0.01, None, 1),
    ("lambda", 24.0, 2.0, 0.01, None, 1),
    # eps1^2 just below 2 leaves 1 - rho eps1^2 mu near 1e-9
    ("the ratio bound", 24.0, 1.0, 0.171572875, None, 1),
    ("the log term of T", 700.0, 1.0, 0.01, SMALL_CONSTANTS, 3),
], ids=["lambda_alpha-25", "lambda_alpha-300", "lambda-24", "ratio-bound-24", "log-term-700"])
def test_constants_beyond_a_double_raise(name, alpha, rho, epsilon, constants, n):
    inst = one_machine_instance(alpha, n)
    constants = constants or rep_expansion_constants("shapley", inst.exponents)
    with pytest.raises(ConfigError) as info:
        theoretical_bounds(inst, rho, epsilon, constants)
    assert str(info.value) == f"{name} exceeds the largest double at alpha_max = {alpha:g}"


@pytest.mark.parametrize("mechanism, alpha", [("shapley", 700.0), ("proportional", 1100.0)])
def test_expansion_constants_beyond_a_double_raise(mechanism, alpha):
    with pytest.raises(ConfigError) as info:
        rep_expansion_constants(mechanism, ExponentProfile((alpha,)))
    assert str(info.value) == f"expansion constants exceed the largest double at alpha = {alpha:g}"


def test_largest_fitting_constants_are_unchanged():
    inst = one_machine_instance(24.0)
    constants = rep_expansion_constants("shapley", inst.exponents)
    b = theoretical_bounds(inst, 1.0, 0.01, constants)
    assert b.lambda_alpha == (2.0 * 2 * math.ceil(3.0 ** 24.0)) ** 25.0
    assert b.lam == b.gamma_alpha + b.lambda_alpha * 1.0 ** 24.0
