import math
from fractions import Fraction

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
    MultiRouting,
    Request,
    ResourceParams,
    SetConnectivity,
    bounds,
    gamma_alpha,
    smoothness_constants,
    theoretical_bounds,
)
from gndes.sharing import (RepExpansionConstants, ShareQuery, rep_expansion_check,
                           rep_expansion_constants)

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
    # z_1 = 3^300 and z_2 fit in a double, (4 ceil z_1)^301 does not
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


def shapley_z2_by_running_product(alpha: float) -> float:
    """z_2 as a float running product, the formula kept where it is finite."""
    k = math.floor((alpha + 1.0) / 2.0)
    num = 1.0
    for m in range(k):
        num *= alpha - m
    return 2.0 * (num / math.factorial(k))


def test_the_shapley_binomial_keeps_its_bits_up_to_alpha_268():
    alphas = [1.05, 1.5, 2.5, 7.25, 100.5, 267.75] + [float(a) for a in range(2, 269)]
    for alpha in alphas:
        ((_, z2),) = rep_expansion_constants("shapley-exact", ExponentProfile((alpha,))).z
        assert z2.hex() == shapley_z2_by_running_product(alpha).hex()
    assert shapley_z2_by_running_product(269.0) == math.inf


@pytest.mark.parametrize("alpha", [269.0, 300.0, 340.0, 341.0, 646.0])
def test_the_shapley_binomial_fits_wherever_three_to_the_alpha_does(alpha):
    ((z1, z2),) = rep_expansion_constants("shapley-exact", ExponentProfile((alpha,))).z
    k = math.floor((alpha + 1.0) / 2.0)
    assert z1 == 3.0 ** alpha
    assert z2 == float(2 * math.comb(int(alpha), k)) < z1


def test_a_real_exponent_past_the_running_product_rounds_the_exact_binomial():
    alpha = 300.5
    num = Fraction(1)
    for m in range(150):
        num *= Fraction(alpha) - m
    ((_, z2),) = rep_expansion_constants("shapley-exact", ExponentProfile((alpha,))).z
    assert z2 == float(2 * num / math.factorial(150))


def test_the_expansion_check_bounds_a_share_at_alpha_300():
    query = ShareQuery(ResourceParams("r", 1.0, (1e-100,)), ExponentProfile((300.0,)),
                       ((1, 1), (2, 2)), target=1)
    check = rep_expansion_check("shapley-exact", query)
    assert check.ok and math.isfinite(check.bound)


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


@pytest.mark.parametrize("directed, pairs, rho", [
    (False, (("s", "u"), ("u", "s")), 2.0),
    (False, (("s", "u"),), 2.0),
    (True, (("s", "u"), ("u", "s")), 2.0),
    (True, (("s", "u"),), 1.0),
], ids=["undirected-both-ways", "undirected-once", "directed-both-ways", "directed-once"])
def test_a_reversed_pair_counts_only_on_a_directed_graph(directed, pairs, rho):
    # undirected, any pair set takes the moat oracle's factor 2, so listing
    # (u, s) beside (s, u) loosens nothing; directed, (u, s) is a second
    # demand with a path of its own, and the union heuristic's factor is the
    # number of pairs
    g = HostGraph(directed, ("s", "u"), (Edge("su", "s", "u"), Edge("us", "u", "s")))
    res = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges)
    inst = Instance(ExponentProfile((2.0,)), res, (Request(id=1, kind=MultiRouting(pairs)),), g)
    assert theoretical_bounds(inst, "shapley-exact", 0.01).rho == rho


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
    # (alpha - 1) * xi underflows to 0 at alpha 1.5 and to a subnormal at 3,
    # so the float quotient is inf, yet gamma_alpha fits in a double: the
    # expected values are (1 / ((alpha - 1) 5e-324))^(1/alpha) worked out in
    # mpmath at 50 digits and rounded once
    inst = one_factor_instance(1.0, 5e-324, alpha)
    expected = {1.5: 5.472220127961797e215, 3.0: 4.660098708109119e107}[alpha]
    assert gamma_alpha(inst) == expected
    b = theoretical_bounds(inst, "proportional", 0.01)
    assert b.gamma_alpha == expected and math.isfinite(b.lam)
    assert smoothness_constants(inst, "proportional") == (b.gamma_alpha + b.lambda_alpha, 0.5)


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
