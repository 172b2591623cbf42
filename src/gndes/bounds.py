"""Closed-form constants behind the dynamics' guarantees.

For a mechanism with expansion constants {K_j, z_{k,j}} and an oracle ratio
rho, the induced game is (lambda, mu)-smooth with

    lambda = gamma_alpha + lambda_alpha * rho**alpha_max,   mu = 1 / (2 rho),

where gamma_alpha = max_e min_j (sigma_e / ((alpha_j - 1) xi_{e,j}))**(1/alpha_j)
and lambda_alpha = max_j (2 K_j ceil(max z))**(alpha_max + 1).  With the
(A, B)-bounded potential (A = H_N, B = ceil(alpha_max)) the step budget is
T = ceil(Q ln(A B N**alpha_max)) for Q = 2 eps1 N A / (1 - rho eps1^2 mu),
and the best profile seen within T steps costs at most

    ratio_bound = 2 rho eps1^2 lambda / (1 - rho eps1^2 mu)

times the optimum, with eps1 = (1 + eps) / (1 - eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .instance import Instance, left_sum
from .sharing import RepExpansionConstants


def harmonic(n: int) -> float:
    return left_sum(1.0 / k for k in range(1, n + 1))


def gamma_alpha(instance: Instance) -> float:
    """max over resources of the best (sigma/((alpha-1) xi))^(1/alpha); terms
    with a zero factor are skipped (they would divide by zero and can never
    attain the minimum)."""
    best = 0.0
    alphas = instance.exponents.alphas
    for res in instance.resources:
        candidates = [
            (res.sigma / ((a - 1.0) * xi)) ** (1.0 / a)
            for xi, a in zip(res.xis, alphas) if xi > 0
        ]
        best = max(best, min(candidates))
    return best


def _finite(name: str, alpha_max: float, compute) -> float:
    """``compute()``, or ConfigError when it exceeds the largest double."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ConfigError(f"{name} exceeds the largest double at alpha_max = {alpha_max:g}")
    return value


def lambda_alpha(constants: RepExpansionConstants, alpha_max: float) -> float:
    return _finite("lambda_alpha", alpha_max, lambda: max(
        (2.0 * k * math.ceil(constants.z_max)) ** (alpha_max + 1.0)
        for k in constants.k_values()
    ))


@dataclass(frozen=True)
class TheoreticalBounds:
    epsilon1: float
    gamma_alpha: float
    lambda_alpha: float
    lam: float            # smoothness lambda
    mu: float             # smoothness mu = 1/(2 rho)
    A: float              # potential lower factor, H_N
    B: float              # potential upper factor, ceil(alpha_max)
    Q: float
    T: int                # step budget
    ratio_bound: float
    rho: float


def theoretical_bounds(instance: Instance, rho: float, epsilon: float,
                       constants: RepExpansionConstants) -> TheoreticalBounds:
    if rho < 1.0:
        raise ConfigError("oracle ratio rho must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    eps1 = (1.0 + epsilon) / (1.0 - epsilon)
    mu = 1.0 / (2.0 * rho)
    denom = 1.0 - rho * eps1 * eps1 * mu
    if denom <= 0.0:
        raise ConfigError(
            f"epsilon {epsilon} too large: rho*eps1^2*mu = {rho * eps1 * eps1 * mu:.6f} >= 1")

    alpha_max = instance.exponents.alpha_max
    n = instance.n_requests
    g = gamma_alpha(instance)
    la = lambda_alpha(constants, alpha_max)
    lam = _finite("lambda", alpha_max, lambda: g + la * rho ** alpha_max)
    ratio_bound = _finite("the ratio bound", alpha_max,
                          lambda: 2.0 * rho * eps1 * eps1 * lam / denom)
    a = harmonic(n)
    b = float(math.ceil(alpha_max))
    q = 2.0 * eps1 * n * a / denom
    log_term = _finite("the log term of T", alpha_max,
                       lambda: math.log(a * b * float(n) ** alpha_max))
    t = math.ceil(q * log_term)
    return TheoreticalBounds(
        epsilon1=eps1,
        gamma_alpha=g,
        lambda_alpha=la,
        lam=lam,
        mu=mu,
        A=a,
        B=b,
        Q=q,
        T=max(1, t),
        ratio_bound=ratio_bound,
        rho=rho,
    )
