import math

import pytest
from hypothesis import given, settings, strategies as st

from gndes import (
    ConfigError,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    Request,
    ResourceParams,
    SetConnectivity,
    bounds,
    gamma_alpha,
    smoothness_constants,
    theoretical_bounds,
)
from gndes.sharing import RepExpansionConstants, rep_expansion_constants

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
    b = theoretical_bounds(inst, "shapley-exact", 0.01)

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
    inst = two_player_parallel_instance()
    b = theoretical_bounds(inst, "shapley-exact", 0.01)
    # z_max = ceil(max(9, 4)) = 9, K = 2: (2*2*9)^(2+1)
    assert b.lambda_alpha == pytest.approx(36.0 ** 3)
    assert b.lam == pytest.approx(b.gamma_alpha + b.lambda_alpha)


def test_epsilon_too_large_rejected():
    inst = two_player_parallel_instance()
    # eps1^2 >= 2 at eps = 0.2
    with pytest.raises(ConfigError):
        theoretical_bounds(inst, "shapley-exact", 0.2)
    theoretical_bounds(inst, "shapley-exact", 0.17)  # eps1^2 = 1.988... is fine


@pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"],
                         ids=["proportional", "shapley"])
def test_ratio_bound_exceeds_rho(mechanism, monkeypatch):
    rng = rng_for(11)
    for _ in range(20):
        inst = random_explicit_instance(rng)
        rho = float(rng.uniform(1.0, 3.0))
        # every request's oracle reports rho
        monkeypatch.setattr(bounds, "oracle_rho", lambda instance, request: rho)
        b = theoretical_bounds(inst, mechanism, 0.01)
        assert b.rho == rho
        assert b.ratio_bound > b.rho
        assert b.T >= 1
        assert b.mu < 1.0 / (b.rho * b.epsilon1 ** 2)


def one_machine_instance(alpha, n_players=1):
    res = ResourceParams("m", 1.0, (1.0,))
    reqs = tuple(Request(id=i, kind=MachineChoice(("m",))) for i in range(1, n_players + 1))
    return Instance(ExponentProfile((alpha,)), (res,), reqs)


def steiner_path_instance(alpha):
    """One Steiner request on the path a - b - c: its oracle has rho 2."""
    g = HostGraph(False, ("a", "b", "c"), (Edge("ab", "a", "b"), Edge("bc", "b", "c")))
    res = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges)
    reqs = (Request(id=1, kind=SetConnectivity(("a", "b", "c"))),)
    return Instance(ExponentProfile((alpha,)), res, reqs, g)


# z = 0, so lambda_alpha = 0 at any alpha
ZERO_CONSTANTS = RepExpansionConstants(((0.0, 0.0),))


@pytest.mark.parametrize("name, alpha, epsilon, make, constants", [
    ("lambda_alpha", 25.0, 0.01, one_machine_instance, None),
    # the Shapley binomial factor is itself infinite here
    ("lambda_alpha", 300.0, 0.01, one_machine_instance, None),
    # rho = 2 carries lambda_alpha * rho^24 past a double
    ("lambda", 24.0, 0.01, steiner_path_instance, None),
    # eps1^2 just below 2 leaves 1 - rho eps1^2 mu near 1e-9
    ("the ratio bound", 24.0, 0.171572875, one_machine_instance, None),
    ("the log term of T", 700.0, 0.01, lambda alpha: one_machine_instance(alpha, 3),
     ZERO_CONSTANTS),
], ids=["lambda_alpha-25", "lambda_alpha-300", "lambda-24", "ratio-bound-24", "log-term-700"])
def test_constants_beyond_a_double_raise(monkeypatch, name, alpha, epsilon, make, constants):
    inst = make(alpha)
    if constants is not None:
        monkeypatch.setattr(bounds, "rep_expansion_constants",
                            lambda mechanism, exponents: constants)
    with pytest.raises(ConfigError) as info:
        theoretical_bounds(inst, "shapley-exact", epsilon)
    assert str(info.value) == f"{name} exceeds the largest double at alpha_max = {alpha:g}"


@pytest.mark.parametrize("mechanism, alpha", [("shapley-exact", 700.0), ("proportional", 1100.0)],
                         ids=["shapley-700.0", "proportional-1100.0"])
def test_expansion_constants_beyond_a_double_raise(mechanism, alpha):
    with pytest.raises(ConfigError) as info:
        rep_expansion_constants(mechanism, ExponentProfile((alpha,)))
    assert str(info.value) == f"expansion constants exceed the largest double at alpha = {alpha:g}"


def test_largest_fitting_constants_are_unchanged():
    inst = one_machine_instance(24.0)
    b = theoretical_bounds(inst, "shapley-exact", 0.01)
    assert b.lambda_alpha == (2.0 * 2 * math.ceil(3.0 ** 24.0)) ** 25.0
    assert b.lam == b.gamma_alpha + b.lambda_alpha * 1.0 ** 24.0


def test_rho_is_the_largest_factor_the_oracles_report():
    # a machine request (rho 1) beside a Steiner request (rho 2)
    path = steiner_path_instance(2.0)
    machine = ResourceParams("m", 1.0, (1.0,))
    inst = Instance(path.exponents, path.resources + (machine,),
                    path.requests + (Request(id=2, kind=MachineChoice(("m",))),), path.graph)
    for mechanism in ("proportional", "shapley-exact", "shapley-sampled"):
        b = theoretical_bounds(inst, mechanism, 0.01)
        assert b.rho == 2.0 and b.mu == 0.25


def test_sampled_shapley_has_the_exact_shapley_guarantee():
    inst = two_player_parallel_instance()
    assert (theoretical_bounds(inst, "shapley-sampled", 0.05)
            == theoretical_bounds(inst, "shapley-exact", 0.05))
    assert (smoothness_constants(inst, "shapley-sampled")
            == smoothness_constants(inst, "shapley-exact"))


@pytest.mark.parametrize("name", ["shapley", "bogus"])
def test_unknown_mechanism_has_no_guarantee(name):
    inst = two_player_parallel_instance()
    for derive in (lambda: theoretical_bounds(inst, name, 0.01),
                   lambda: smoothness_constants(inst, name)):
        with pytest.raises(ConfigError, match=f"unknown mechanism '{name}'"):
            derive()


@pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
def test_smoothness_constants_are_the_bounds_at_rho_one(mechanism):
    rng = rng_for(12)
    for _ in range(20):
        inst = random_explicit_instance(rng)
        b = theoretical_bounds(inst, mechanism, 0.01)
        assert b.rho == 1.0
        lam, mu = smoothness_constants(inst, mechanism)
        assert (lam.hex(), mu.hex()) == (b.lam.hex(), b.mu.hex())
        assert lam == b.gamma_alpha + b.lambda_alpha


def one_factor_instance(sigma, xi, alpha):
    return Instance(ExponentProfile((alpha,)), (ResourceParams("m", sigma, (xi,)),),
                    (Request(id=1, kind=MachineChoice(("m",))),))


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_a_subnormal_factor_makes_gamma_infinite(alpha):
    # at alpha 1.5, (alpha - 1) * xi underflows to 0
    inst = one_factor_instance(1.0, 5e-324, alpha)
    assert gamma_alpha(inst) == math.inf
    message = f"^lambda exceeds the largest double at alpha_max = {alpha:g}$"
    with pytest.raises(ConfigError, match=message):
        theoretical_bounds(inst, "proportional", 0.01)
    with pytest.raises(ConfigError, match=message):
        smoothness_constants(inst, "proportional")


def test_a_subnormal_factor_without_startup_cost_adds_nothing():
    inst = one_factor_instance(0.0, 5e-324, 1.5)
    assert gamma_alpha(inst) == 0.0
    assert theoretical_bounds(inst, "proportional", 0.01).gamma_alpha == 0.0


@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(0.0, 1e6), xi=st.floats(1e-300, 1e6),
       alpha=st.floats(1.0, 30.0, exclude_min=True))
def test_gamma_alpha_keeps_its_bits_on_normal_factors(sigma, xi, alpha):
    inst = one_factor_instance(sigma, xi, alpha)
    assert gamma_alpha(inst).hex() == ((sigma / ((alpha - 1.0) * xi)) ** (1.0 / alpha)).hex()
