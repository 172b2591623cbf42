"""Separable, uniform cost-sharing mechanisms.

A mechanism splits each resource's cost F_e(l_e) among the requests using it,
as a function of the weight multiset on that resource alone.  Implemented
here:

* proportional: a user pays (w_i / l_e) * F_e(l_e), exactly.
* Shapley, exact: expected marginal contribution over a uniformly random
  arrival order, computed by the subset-coefficient formula over a table
  that counts the other users' subsets by (size, weight sum).
* Shapley, sampled: the startup part sigma_e/|S_e| is exact; the power part
  is estimated by averaging marginal contributions over the number of
  uniform permutations it is given.  A Hoeffding count gives a
  multiplicative (1 +- epsilon) guarantee at a configured confidence, and
  :func:`samples_needed` asks for it only when the counting table is
  expected to take longer than drawing it, by measured costs of both;
  otherwise the share is the exact one, which meets the band with
  probability 1.  The dynamics (``engine.PassView.tolls``) make that
  choice per share; :func:`cost_share` prices the exact mechanisms only.

Both exact mechanisms are budget balanced: the shares on a resource sum to
its cost.  Both depend on the other users only through their weight
multiset, never through their ids or order.  The same counting table gives
the exact potential (``analysis.potential``).

A :class:`CountingTables` store keeps counting tables by weight multiset
and h values by (resource id, weight sum), so the exact shares and the
potential of one run count each multiset once; a share computed without
a store uses a fresh one.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InstanceError
from .instance import (ExponentProfile, ResourceParams, _cost_past_a_double, _power_fold, finite,
                       float_or_exact, rep_cost)

logger = logging.getLogger(__name__)

MAX_SAMPLES = 200_000
# permutation entries (samples x users) a sampled share holds in memory at once
SAMPLE_BLOCK = 1 << 18

MECHANISMS = ("proportional", "shapley-exact", "shapley-sampled")


@dataclass(frozen=True)
class ShareQuery:
    """The per-resource view a mechanism consumes.

    ``users`` is the multiset of (request id, weight on this resource) for
    every request whose reply contains the resource, both integers (a float
    or a string is refused, not truncated); ``target`` must be one of those
    ids.
    """

    resource: ResourceParams
    exponents: ExponentProfile
    users: tuple[tuple[int, int], ...]
    target: int

    def __post_init__(self):
        try:
            users = tuple(sorted((operator.index(i), operator.index(w)) for i, w in self.users))
        except TypeError:
            raise InstanceError(
                "request ids and weights in a share query must be integers") from None
        object.__setattr__(self, "users", users)
        ids = [i for i, _ in users]
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate request ids in a share query")
        if self.target not in set(ids):
            raise InstanceError(f"target {self.target} is not among the resource's users")
        for _, w in users:
            if w < 1:
                raise InstanceError("weights must be >= 1")

    @classmethod
    def _of_checked(cls, resource: ResourceParams, exponents: ExponentProfile,
                    users: tuple[tuple[int, int], ...], target: int) -> ShareQuery:
        """The query on users already checked as ``__post_init__`` checks
        them: integer (request id, weight) pairs sorted by id, the ids
        distinct, every weight at least 1 and ``target`` among them.  Such
        users are not sorted or checked again (``analysis.ProfileState``
        keeps them so), and the query equals ``ShareQuery`` of the same
        fields."""
        query = object.__new__(cls)
        object.__setattr__(query, "resource", resource)
        object.__setattr__(query, "exponents", exponents)
        object.__setattr__(query, "users", users)
        object.__setattr__(query, "target", target)
        return query

    @property
    def target_weight(self) -> int:
        for i, w in self.users:
            if i == self.target:
                return w
        raise AssertionError("unreachable")

    @property
    def load(self) -> int:
        return sum(w for _, w in self.users)


def h_value(resource: ResourceParams, exponents: ExponentProfile, weight_sum: float) -> float:
    """Pure power part of the cost: sum_j xi_j * weight_sum**alpha_j, 0 at 0."""
    if weight_sum < 0:
        raise InstanceError("weight sum must be >= 0")
    if weight_sum == 0:
        return 0.0
    return finite(_power_fold, _cost_past_a_double, 0.0, resource, exponents, weight_sum)


def proportional_share(query: ShareQuery) -> float:
    load = query.load
    full = rep_cost(query.resource, query.exponents, load)
    return (query.target_weight / load) * full


def subset_sums_by_size(weights: Sequence[int]) -> list[dict[int, int]]:
    """Count the subsets of ``weights`` by size and weight sum.

    Entry k maps each weight sum of a k-subset to the number of k-subsets
    with that sum, in increasing order of the sum.  Built by 0/1-knapsack
    counting in O(n^2 * L) dictionary updates for n weights summing to L;
    the counts are exact integers, so the table does not depend on the
    order of ``weights``.
    """
    table: list[dict[int, int]] = [{0: 1}]
    for w in weights:
        table.append({})
        # larger sizes first, so each weight joins a subset at most once
        for k in range(len(table) - 2, -1, -1):
            larger = table[k + 1]
            for total, count in table[k].items():
                larger[total + w] = larger.get(total + w, 0) + count
    return [dict(sorted(sums.items())) for sums in table]


class CountingTables:
    """Counting tables and h values kept for the queries of one instance.

    A table of :func:`subset_sums_by_size` is kept by the sorted weight
    tuple it counts, and an h value by resource id and weight sum, so one
    store must serve the resources and exponents of a single instance.
    Tables are exact integers and h values are the floats
    :func:`h_value` returns, so whatever reads them is bit for bit what it
    would be without the store.

    The store keeps two generations: :meth:`age` makes what is held the
    old generation and drops the previous old one, and a lookup that finds
    an entry only in the old generation copies it to the current one.  So
    after ``age`` only the entries used since the ``age`` before it are
    held.
    """

    def __init__(self):
        self._tables: dict[tuple[int, ...], list[dict[int, int]]] = {}
        self._h: dict[str, dict[int, float]] = {}
        self._old_tables: dict[tuple[int, ...], list[dict[int, int]]] = {}
        self._old_h: dict[str, dict[int, float]] = {}

    def table(self, weights: Sequence[int]) -> list[dict[int, int]]:
        """:func:`subset_sums_by_size` of ``weights``, built once per multiset."""
        key = tuple(sorted(weights))
        table = self._tables.get(key)
        if table is None:
            table = self._old_tables.get(key)
            if table is None:
                table = subset_sums_by_size(key)
            self._tables[key] = table
        return table

    def h_values(self, resource: ResourceParams, exponents: ExponentProfile,
                 sums: set[int]) -> dict[int, float]:
        """A map from weight sums to :func:`h_value` on the resource that
        holds at least ``sums``; each value is evaluated once."""
        held = self._h.get(resource.id)
        if held is None:
            held = self._h[resource.id] = {}
        missing = sums - held.keys()
        if missing:
            old = self._old_h.get(resource.id, {})
            for s in missing:
                value = old.get(s)
                held[s] = h_value(resource, exponents, s) if value is None else value
        return held

    def age(self):
        """Start a new generation; entries not used since the last call go."""
        self._old_tables, self._tables = self._tables, {}
        self._old_h, self._h = self._h, {}


def shapley_exact(query: ShareQuery, tables: Optional[CountingTables] = None) -> float:
    """Exact Shapley share via the subset-coefficient formula.

    A subset of k of the other users precedes the target in a uniform
    arrival order with probability 1/(n * C(n-1, k)), and the marginal
    depends only on its weight sum, so the formula runs over the table of
    :func:`subset_sums_by_size`: O(n^2 * L) for n users of load L.  The
    table and the h values come from ``tables`` (a fresh
    :class:`CountingTables` when None), built there only if missing.
    """
    if tables is None:
        tables = CountingTables()
    n = len(query.users)
    res, exp = query.resource, query.exponents
    w_target = query.target_weight

    table = tables.table([w for i, w in query.users if i != query.target])
    # the marginal depends on the sum alone, so it is shared across sizes
    sums = set().union(*table)
    h = tables.h_values(res, exp, sums | {s + w_target for s in sums})
    marginals = {s: h[s + w_target] - h[s] for s in sums}

    shapley_h = 0.0
    for size, sums_of_size in enumerate(table):
        orders = n * math.comb(n - 1, size)
        for total, count in sums_of_size.items():
            shapley_h += count / orders * marginals[total]
    return res.sigma / n + shapley_h


def hoeffding_sample_count(query: ShareQuery, epsilon: float, delta: float) -> int:
    """Permutations needed so the estimate is within (1 +- epsilon) of the
    true share with probability >= 1 - delta, before any cap.

    h is convex with h(0) = 0, so the target's marginal h(s + w) - h(s)
    grows with the weight s of the users before it: each sampled marginal
    lies in [h(w), h(L) - h(L - w)] for target weight w and load L.  The
    true share is at least sigma/|S_e| + h(w), so an additive error of
    epsilon times that lower bound suffices.  Where the float quotient
    fails, the count is the ceiling of the exact one of the same floats.
    """
    if not 0 < epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    if not sys.float_info.min <= delta < 1:   # ln(2/delta) overflows below a normal double
        raise ConfigError(f"confidence delta must lie in [{sys.float_info.min!r}, 1)")
    res, exp, n = query.resource, query.exponents, len(query.users)
    load, w = query.load, query.target_weight

    def quotient(h_load, h_rest, least, sigma, log_term, epsilon):
        spread = (h_load - h_rest) - least
        return spread * spread * log_term / (2 * (epsilon * (sigma / n + least)) ** 2)

    args = (h_value(res, exp, load), h_value(res, exp, load - w), h_value(res, exp, w),
            res.sigma, math.log(2.0 / delta), epsilon)
    return max(1, math.ceil(float_or_exact(lambda: quotient(*args),
                                           lambda: quotient(*map(Fraction, args)))))


# Costs of the two ways to a share, fitted by relative least squares to
# timings of shapley_exact on 120 queries (2 to 39 users, weights up to 10^6)
# and of shapley_sampled on 54 (2 to 32 users, 300 to 30,000 permutations),
# CPython 3.11 and numpy 2.4 on a 2-vCPU Intel Xeon VM.  The counting table
# takes about 150 ns per cell for each other user it adds and 1.65 us per h
# evaluation, two per distinct sum; sampling takes about 70 us, plus 90 ns
# per permutation and 21 ns per user in it.  Only the ratios matter.
TABLE_NS_PER_CELL_USER = 150
TABLE_NS_PER_CELL = 3_300
SAMPLING_NS = 70_000
SAMPLE_NS = 90
SAMPLE_NS_PER_USER = 21


def table_cells_bound(query: ShareQuery) -> int:
    """Most (size, sum) cells the counting table of :func:`shapley_exact`
    can have: one per sub-multiset of the other users' weights, and for each
    size k at most C(n-1, k) and at most the integers between the sums of
    the k lightest and the k heaviest of them."""
    others = sorted(w for i, w in query.users if i != query.target)
    k_max = len(others)
    cells = lightest = heaviest = 0
    for k in range(k_max + 1):
        cells += min(math.comb(k_max, k), heaviest - lightest + 1)
        if k < k_max:
            lightest += others[k]
            heaviest += others[k_max - 1 - k]
    return min(cells, math.prod(c + 1 for c in Counter(others).values()))


def samples_needed(query: ShareQuery, epsilon: float, delta: float) -> int:
    """Permutations a ``shapley-sampled`` share draws before the cap: 0 when
    the counting table of :func:`shapley_exact` is expected to take no
    longer than drawing :func:`hoeffding_sample_count` permutations, so the
    share is exact, and that count otherwise.  Both times come from the
    measured costs above, with :func:`table_cells_bound` cells."""
    n = len(query.users)
    m = hoeffding_sample_count(query, epsilon, delta)
    cell_ns = TABLE_NS_PER_CELL_USER * (n - 1) + TABLE_NS_PER_CELL
    sampling_ns = SAMPLING_NS + m * (SAMPLE_NS + SAMPLE_NS_PER_USER * n)
    # the bound is at most 2^(n-1), which settles most queries at no cost
    if (cell_ns << (n - 1)) <= sampling_ns or table_cells_bound(query) * cell_ns <= sampling_ns:
        return 0
    return m


def shapley_sampled(query: ShareQuery, rng: np.random.Generator, samples: int) -> float:
    """Sampled Shapley share: sigma/|S_e| plus the mean marginal of the power
    part over ``samples`` uniform random permutations, at most
    ``MAX_SAMPLES`` of them; a capped count voids the epsilon guarantee and
    is logged at debug level."""
    if samples < 1:
        raise ConfigError(f"a sampled share needs at least one permutation, got {samples}")
    n = len(query.users)
    res, exp = query.resource, query.exponents
    # h at the load bounds every h drawn below, so none overflows if it fits
    full = h_value(res, exp, query.load)
    if n == 1:
        # sole user: every permutation yields the same marginal
        return res.sigma + full
    if samples > MAX_SAMPLES:
        # at debug level: a run counts its capped shares and reports them once
        logger.debug(
            "sample count %d for resource %r capped at %d; the epsilon guarantee is void",
            samples, res.id, MAX_SAMPLES)
    m = min(samples, MAX_SAMPLES)

    weights = np.array([w for _, w in query.users], dtype=np.float64)
    target_index = next(k for k, (i, _) in enumerate(query.users) if i == query.target)
    # permutations are drawn in blocks of rows to bound memory; the generator
    # shuffles row by row, so the draws equal one m-row draw
    rows = max(1, SAMPLE_BLOCK // n)
    after = np.empty(m)
    for start in range(0, m, rows):
        size = min(rows, m - start)
        perms = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        csum = np.cumsum(weights[perms], axis=1)
        tpos = np.argmax(perms == target_index, axis=1)
        after[start:start + size] = csum[np.arange(size), tpos]
    before = after - weights[target_index]

    def h_vec(x):
        out = np.zeros_like(x)
        positive = x > 0
        for xi, a in zip(res.xis, exp.alphas):
            if xi:
                out[positive] += xi * np.power(x[positive], a)
        return out

    marginals = h_vec(after) - h_vec(before)
    return res.sigma / n + float(marginals.mean())


def whp_delta(steps: int, n_requests: int, n_resources: int) -> float:
    """Per-share failure probability so that all T*N*|E| shares of a run are
    within band with high probability.  When 2 (T N |E|)^2 is past the
    largest double, the exact quotient rounds to a subnormal or to 0.0."""
    count = max(1, steps) * n_requests * n_resources
    return float_or_exact(lambda: 1.0 / (2.0 * count ** 2), lambda: 1 / (2 * count ** 2))


def cost_share(mechanism: str, query: ShareQuery,
               tables: Optional[CountingTables] = None) -> float:
    """Exact share under "proportional" or "shapley-exact"; exact Shapley
    shares read their counting tables and h values from ``tables``, if
    given.  A sampled share is priced by the dynamics, which decide its
    count (:func:`samples_needed`) and draw it (:func:`shapley_sampled`)."""
    if mechanism == "proportional":
        return proportional_share(query)
    if mechanism == "shapley-exact":
        return shapley_exact(query, tables)
    raise ConfigError(f"no exact share for mechanism {mechanism!r}")


# ---------------------------------------------------------------------------
# expansion certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepExpansionConstants:
    """Per-exponent constants (z_1, z_2) certifying the share bound

        f_{i,e} <= sigma_e + sum_j xi_j (z_1 w_i^alpha_j + z_2 (l - w_i)^(alpha_j - 1) w_i),

    the expansion with K_j = 2 terms, (x, y) = (0, alpha_j) and
    (alpha_j - 1, 1), that both mechanisms have.
    """

    z: tuple[tuple[float, float], ...]

    @property
    def z_max(self) -> float:
        return max(max(z_j) for z_j in self.z)


def _binom_real(alpha, k: int):
    """binom(alpha, k) for real alpha, in the arithmetic of alpha (float or Fraction)."""
    num = 1
    for m in range(k):
        num *= alpha - m
    return num / math.factorial(k)


def _constants_past_a_double(alpha: float) -> ConfigError:
    return ConfigError(f"expansion constants exceed the largest double at alpha = {alpha:g}")


def rep_expansion_constants(mechanism: str, exponents: ExponentProfile) -> RepExpansionConstants:
    """Expansion constants of a mechanism of :data:`MECHANISMS`.

    proportional: z_1 = z_2 = 2^{alpha-1};
    Shapley, exact or sampled: z_1 = 3^alpha, z_2 = 2 * binom(alpha, floor((alpha+1)/2)).
    """
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}")
    z = []
    for a in exponents.alphas:
        if mechanism == "proportional":
            z.append((finite(lambda a: 2.0 ** (a - 1.0), _constants_past_a_double, a),) * 2)
        else:
            # z_2 <= z_1 = 3^alpha fits, though its binomial's running product may not
            k = math.floor((a + 1.0) / 2.0)
            z.append((finite(lambda a: 3.0 ** a, _constants_past_a_double, a),
                      float_or_exact(lambda: 2.0 * _binom_real(a, k),
                                     lambda: float(2 * _binom_real(Fraction(a), k)))))
    return RepExpansionConstants(tuple(z))


@dataclass(frozen=True)
class ExpansionCheck:
    share: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.share <= self.bound * (1.0 + 1e-9) + 1e-12


def rep_expansion_check(mechanism: str, query: ShareQuery) -> ExpansionCheck:
    """Evaluate both sides of the expansion inequality on one query; a
    Shapley mechanism is checked with its exact share."""
    constants = rep_expansion_constants(mechanism, query.exponents)
    share = cost_share("proportional" if mechanism == "proportional" else "shapley-exact",
                       query)
    res = query.resource
    w = float(query.target_weight)
    rest = float(query.load - query.target_weight)
    bound = res.sigma
    for xi, a, (z1, z2) in zip(res.xis, query.exponents.alphas, constants.z):
        if xi:
            bound += xi * (z1 * w ** a + z2 * rest ** (a - 1.0) * w)
    return ExpansionCheck(share=share, bound=bound)
