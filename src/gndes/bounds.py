"""Closed-form constants behind the dynamics' guarantees.

For a mechanism with expansion constants {K_j, z_{k,j}} and an oracle ratio
rho, the induced game is (lambda, mu)-smooth with

    lambda = gamma_alpha + lambda_alpha * rho**alpha_max,   mu = 1 / (2 rho),

where gamma_alpha = max_e min_j (sigma_e / ((alpha_j - 1) xi_{e,j}))**(1/alpha_j)
and lambda_alpha = max_j (2 K_j ceil(max z))**(alpha_max + 1).  Both
mechanisms have K_j = 2 (``sharing.rep_expansion_constants``), so
lambda_alpha = (4 ceil(max z))**(alpha_max + 1); rho is the largest factor
``oracles.oracle_rho`` reports over the instance's requests.  With the
(A, B)-bounded potential (A = H_N, B = ceil(alpha_max)) the step budget is
T = ceil(Q ln(A B N**alpha_max)) for Q = 2 eps1 N A / (1 - rho eps1^2 mu),
and the best profile seen within T steps costs at most

    ratio_bound = 2 rho eps1^2 lambda / (1 - rho eps1^2 mu)

times the optimum, with eps1 = (1 + eps) / (1 - eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ConfigError
from .instance import Instance, finite, float_or_exact, left_sum
from .oracles import oracle_rho
from .sharing import RepExpansionConstants, rep_expansion_constants


def harmonic(n: int) -> float:
    return left_sum(1.0 / k for k in range(1, n + 1))


def gamma_alpha(instance: Instance) -> float:
    """max over resources of the best (sigma/((alpha-1) xi))^(1/alpha); terms
    with a zero factor are skipped (they would divide by zero and can never
    attain the minimum)."""
    best = 0.0
    alphas = instance.exponents.alphas
    for res in instance.resources:
        best = max(best, min(_gamma_term(res.sigma, xi, a)
                             for xi, a in zip(res.xis, alphas) if xi > 0))
    return best


def _gamma_term(sigma: float, xi: float, alpha: float) -> float:
    """(sigma / ((alpha - 1) xi))^(1/alpha); where a subnormal xi makes the
    float quotient overflow or divide by 0, the quotient is taken exactly
    and its root to 60 digits, then rounded once (to inf past a double)."""
    def exact() -> float:
        quotient = Fraction(sigma) / ((Fraction(alpha) - 1) * Fraction(xi))
        with localcontext() as ctx:
            ctx.prec = 60
            root = (Decimal(quotient.numerator) / quotient.denominator) ** (1 / Decimal(alpha))
        return float(root)

    return float_or_exact(lambda: (sigma / ((alpha - 1.0) * xi)) ** (1.0 / alpha), exact)


def _past_a_double(name: str, alpha_max: float):
    """The refusal :func:`instance.finite` raises when ``name`` does not fit."""
    return lambda: ConfigError(f"{name} exceeds the largest double at alpha_max = {alpha_max:g}")


def _lambda(instance: Instance, constants: RepExpansionConstants,
            rho: float) -> tuple[float, float, float]:
    """gamma_alpha, lambda_alpha and lambda at oracle ratio ``rho``."""
    alpha_max = instance.exponents.alpha_max
    g = gamma_alpha(instance)
    la = finite(lambda: (4.0 * math.ceil(constants.z_max)) ** (alpha_max + 1.0),
                _past_a_double("lambda_alpha", alpha_max))
    lam = finite(lambda: g + la * rho ** alpha_max, _past_a_double("lambda", alpha_max))
    return g, la, lam


def smoothness_constants(instance: Instance, mechanism: str) -> tuple[float, float]:
    """(lambda, mu) of the game under exact best responses: the lambda of
    :func:`theoretical_bounds` at rho = 1, and mu = 1/(2 rho) = 1/2."""
    constants = rep_expansion_constants(mechanism, instance.exponents)
    return _lambda(instance, constants, 1.0)[2], 0.5


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

    def named(self) -> list[tuple[str, float]]:
        """(name, value) of each constant in field order; a name is the
        constant's JSON key, ``lambda`` for ``lam``."""
        return [("lambda" if f.name == "lam" else f.name, getattr(self, f.name))
                for f in fields(self)]

    def labelled(self, **labels: str) -> list[tuple[str, float]]:
        """The constants as reports list them: rho first, then the rest of
        :meth:`named` in order, a name replaced by its label in ``labels``."""
        *rest, rho = self.named()
        return [(labels.get(name, name), value) for name, value in [rho, *rest]]


def theoretical_bounds(instance: Instance, mechanism: str, epsilon: float) -> TheoreticalBounds:
    """The guarantee of an ABRD run on ``instance`` under ``mechanism``."""
    constants = rep_expansion_constants(mechanism, instance.exponents)
    rho = max(oracle_rho(instance, req) for req in instance.requests)
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
    g, la, lam = _lambda(instance, constants, rho)
    ratio_bound = finite(lambda: 2.0 * rho * eps1 * eps1 * lam / denom,
                         _past_a_double("the ratio bound", alpha_max))
    a = harmonic(n)
    b = float(math.ceil(alpha_max))
    q = 2.0 * eps1 * n * a / denom
    log_term = finite(lambda: math.log(a * b * float(n) ** alpha_max),
                      _past_a_double("the log term of T", alpha_max))
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
