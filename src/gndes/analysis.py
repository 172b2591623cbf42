"""Verification suite: potential function, brute-force optimum, equilibrium
enumeration, smoothness checks and the worst-case instance family.

Everything here reads an instance and a mechanism with exact shares and
changes neither; the one mutable object is :class:`ProfileState`, a
profile that its owner updates one reply at a time.  The state also holds
the one deviation rule: a player's share on a resource is priced against
everybody else's replies, with her joined to its users when her reply does
not hold it (:meth:`ProfileState.share_query`).  The dynamics' tolls and
the walks here (:meth:`ProfileState.player_cost`) both use it, so a walk
builds one state per profile or pair, not one per deviation.  Every verdict
compares floats by ``instance.exceeds``, against the magnitudes compared and
never an absolute slack, so no verdict depends on the unit of cost.
Enumerations refuse (never silently truncate) when the fixed limits would
be exceeded, so derived expected values stay trustworthy.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterable, Optional, Sequence

from .bounds import harmonic
from .errors import ConfigError, EnumerationLimitError, InfeasibleError, InstanceError
from .instance import (
    REL_TOL,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    Request,
    ResourceParams,
    Routing,
    StrategyProfile,
    check_profile,
    exceeds,
    finite,
    float_or_exact,
    left_sum,
    rep_cost,
    total_cost,
    validate_reply,
)
from .io import csv_text, fmt
from .rng import keyed_rng
from .sharing import CountingTables, ShareQuery, cost_share, shapley_exact

def _check_position(instance: Instance, position: int):
    if position not in range(instance.n_requests):
        raise InstanceError(f"position {position} is outside range({instance.n_requests})")


class ProfileState:
    """One profile grouped by resource, kept current as single replies change.

    ``users`` maps each resource in use to its (request id, weight) pairs,
    sorted by request id (an instance keeps its requests in id order).
    :meth:`move` takes the mover's pair off the resources her old reply
    leaves and puts it on those her new reply enters, in id order, and
    touches no other resource.  The potential and the cost are kept as one
    cached term per resource: a move drops the potential terms of the
    resources it changes and reprices their costs, and :meth:`potential`
    recomputes only the missing terms.

    ``tables`` is the state's :class:`sharing.CountingTables`: the
    potential reads its counting tables and h values there (a run prices
    it under ``shapley-exact`` only, ``engine.run_abrd``), and so do the
    exact shares of every pass over the state (``engine.PassView``) and of
    :meth:`player_cost`.  Each :meth:`move` ages the store, so it holds
    only what was used since the move before.
    """

    def __init__(self, instance: Instance, profile: StrategyProfile):
        check_profile(instance, profile)
        self.instance = instance
        self.profile = tuple(profile)
        grouped: dict[str, list[tuple[int, int]]] = {}
        for req, reply in zip(instance.requests, self.profile):
            for e in reply:
                grouped.setdefault(e, []).append((req.id, req.weight(e)))
        self.users: dict[str, tuple[tuple[int, int], ...]] = {
            e: tuple(users) for e, users in grouped.items()}
        self.tables = CountingTables()
        self._terms: dict[str, float] = {}
        self._costs = {e: self._price(e) for e in self.users}

    def move(self, position: int, reply: frozenset[str]):
        """Replace the reply at ``position``, one of ``range(n_requests)``; it
        may name only the instance's resources."""
        _check_position(self.instance, position)
        self.instance.check_reply_resources(reply)
        old = self.profile[position]
        self.profile = self.profile[:position] + (reply,) + self.profile[position + 1:]
        req = self.instance.requests[position]
        for e in old ^ reply:
            users = self.users.get(e, ())
            at = bisect_left(users, (req.id,))
            if e in reply:
                self.users[e] = users[:at] + ((req.id, req.weight(e)),) + users[at:]
            elif len(users) > 1:
                self.users[e] = users[:at] + users[at + 1:]
            else:
                del self.users[e]
            self._terms.pop(e, None)
            self._costs[e] = self._price(e)
        self.tables.age()

    def _price(self, resource_id: str) -> float:
        load = 0
        for _, w in self.users.get(resource_id, ()):
            load += w
        return rep_cost(self.instance.resource_by_id[resource_id], self.instance.exponents, load)

    def cost(self) -> float:
        """The profile's total cost, bit for bit as ``instance.total_cost``
        prices it: the kept per-resource costs folded in instance order."""
        costs = self._costs
        return left_sum(costs.get(res.id, 0.0) for res in self.instance.resources)

    def potential(self) -> float:
        """:func:`potential`, summed over the resources in instance order."""
        total = 0.0
        for res in self.instance.resources:
            users = self.users.get(res.id)
            if users is None:
                continue
            if res.id not in self._terms:
                n = len(users)
                table = self.tables.table([w for _, w in users])
                h = self.tables.h_values(res, self.instance.exponents, set().union(*table))
                term = res.sigma * harmonic(n)
                for k in range(1, n + 1):
                    # past 1,020 users C(n, k) k and a count can be past a
                    # double, though this size's term is at most h(L)
                    orders, sums = math.comb(n, k) * k, table[k].items()
                    term += float_or_exact(
                        lambda: 1.0 / orders * left_sum(count * h[s] for s, count in sums),
                        lambda: float(reduce(operator.add, (count * Fraction(h[s])
                                                            for s, count in sums)) / orders))
                self._terms[res.id] = term
            total += self._terms[res.id]
        return total

    def share_query(self, position: int, resource_id: str) -> ShareQuery:
        """The query of the player at ``position`` on a resource, with her
        joined to its users when her reply does not hold it."""
        req = self.instance.requests[position]
        users = self.users.get(resource_id, ())
        if resource_id not in self.profile[position]:
            at = bisect_left(users, (req.id,))  # she joins in id order
            users = users[:at] + ((req.id, req.weight(resource_id)),) + users[at:]
        # Request checked that ids and weights are integers and weights at
        # least 1, and Instance that the ids are distinct
        return ShareQuery._of_checked(self.instance.resource_by_id[resource_id],
                                      self.instance.exponents, users, req.id)

    def player_cost(self, mechanism: str, position: int, reply: frozenset[str]) -> float:
        """Her exact cost were she to play ``reply`` against the others."""
        self.instance.check_reply_resources(reply)
        return left_sum(cost_share(mechanism, self.share_query(position, e), tables=self.tables)
                        for e in sorted(reply))


# ---------------------------------------------------------------------------
# potential function
# ---------------------------------------------------------------------------

def potential(instance: Instance, profile: StrategyProfile) -> float:
    """Potential of the Shapley-sharing game, by the order-free subset form

        Phi = sum_e sum_{k=1}^{|S_e|} [ sigma_e/k
              + sum_{T subset of S_e, |T|=k} h_e(T) / (C(|S_e|,k) k) ],

    where the inner sum runs over the (size, weight sum) counts of
    :func:`sharing.subset_sums_by_size`, one term per resource
    (:meth:`ProfileState.potential`).
    """
    return ProfileState(instance, profile).potential()


def potential_by_prefix(instance: Instance, profile: StrategyProfile,
                        orders: Optional[dict[str, Sequence[int]]] = None) -> float:
    """Potential by the prefix definition: for an arbitrary fixed order of
    each resource's users, sum each user's exact share within the prefix
    ending at her.  Agrees with :func:`potential` for every order.  An
    order for an id that is no resource, or one that does not permute its
    resource's users (an unused resource has none), is refused."""
    state = ProfileState(instance, profile)
    orders = orders or {}
    for res_id, order in orders.items():
        if res_id not in instance.resource_by_id:
            raise InstanceError(f"order for unknown resource {res_id!r}")
        users = dict(state.users.get(res_id, ()))
        if len(order) != len(users) or set(order) != users.keys():
            raise InstanceError(f"order for resource {res_id!r} must permute its users")
    total = 0.0
    for res in instance.resources:
        users = dict(state.users.get(res.id, ()))
        order = tuple(orders.get(res.id, sorted(users)))
        for m, rid in enumerate(order):
            prefix = tuple((j, users[j]) for j in order[:m + 1])
            query = ShareQuery(res, instance.exponents, prefix, target=rid)
            total += shapley_exact(query)
    return total


@dataclass(frozen=True)
class PotentialBoundsReport:
    profiles_tested: int
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def potential_bounds_check(instance: Instance,
                           profiles: Iterable[StrategyProfile]) -> PotentialBoundsReport:
    """Check C(p)/ceil(alpha_max) <= Phi(p) <= H_N * C(p) on each profile."""
    b = math.ceil(instance.exponents.alpha_max)
    a = harmonic(instance.n_requests)
    tested = violations = 0
    for p in profiles:
        tested += 1
        state = ProfileState(instance, p)
        c, phi = state.cost(), state.potential()
        violations += exceeds(c / b, phi, c) or exceeds(phi, a * c)
    return PotentialBoundsReport(profiles_tested=tested, violations=violations)


@dataclass(frozen=True)
class ExactnessCheck:
    delta_potential: float
    delta_cost: float
    magnitude: float      # the largest of the potentials and costs subtracted

    @property
    def ok(self) -> bool:
        return not exceeds(abs(self.delta_potential - self.delta_cost), 0.0, self.magnitude)


def potential_exactness_check(instance: Instance, profile: StrategyProfile,
                              position: int, new_reply: frozenset[str]) -> ExactnessCheck:
    """Under exact Shapley shares a unilateral deviation changes the potential
    by exactly the deviator's cost change.  Both potentials and both costs
    are priced on one :class:`ProfileState`, moved once."""
    _check_position(instance, position)
    state = ProfileState(instance, profile)
    before = state.potential()
    new_cost = state.player_cost("shapley-exact", position, new_reply)
    old_cost = state.player_cost("shapley-exact", position, profile[position])
    state.move(position, new_reply)
    after = state.potential()
    return ExactnessCheck(delta_potential=after - before, delta_cost=new_cost - old_cost,
                          magnitude=max(before, after, new_cost, old_cost))


# ---------------------------------------------------------------------------
# strategy-space enumeration
# ---------------------------------------------------------------------------

# reply collections other than paths are enumerated as all 2^|E| edge subsets
MAX_SUBSET_EDGES = 12
MAX_PATHS = 10_000
MAX_PROFILES = 10_000_000


def _simple_paths(graph: HostGraph, source: str, target: str) -> list[frozenset[str]]:
    """Every simple path from ``source`` to another vertex ``target``, as its
    edge set, in depth-first order over the adjacency lists.  The search
    keeps its own stack, so a path may be as long as the graph."""
    out: list[frozenset[str]] = []
    visited = {source}
    # the current path: its edges, and each vertex with its untried neighbours
    edges: list[str] = []
    frames = [(source, iter(graph.adjacency[source]))]
    while frames:
        for v, eid in frames[-1][1]:
            if v == target:
                out.append(frozenset(edges + [eid]))
                if len(out) > MAX_PATHS:
                    raise EnumerationLimitError(
                        f"more than {MAX_PATHS} simple paths from {source!r} to {target!r}")
            elif v not in visited:
                visited.add(v)
                edges.append(eid)
                frames.append((v, iter(graph.adjacency[v])))
                break
        else:
            visited.remove(frames.pop()[0])
            del edges[-1:]  # the source's frame has no edge
    # a simple path is determined by its edge set, so no two paths repeat
    return out


def candidate_replies(instance: Instance, request: Request) -> list[frozenset[str]]:
    """The full reply collection of a request, enumerated deterministically.

    Refuses with EnumerationLimitError when MAX_PATHS or MAX_SUBSET_EDGES
    would be exceeded.
    """
    kind = request.kind
    if isinstance(kind, ExplicitReplies):
        return list(kind.replies)
    if isinstance(kind, MachineChoice):
        return [frozenset({m}) for m in kind.machines]
    graph = instance.graph
    if isinstance(kind, Routing):
        return _simple_paths(graph, kind.source, kind.target)
    edge_ids = sorted(e.id for e in graph.edges)
    if len(edge_ids) > MAX_SUBSET_EDGES:
        raise EnumerationLimitError(
            f"{len(edge_ids)} edges exceed the subset-enumeration cap {MAX_SUBSET_EDGES}")
    out = []
    for mask in range(1, 1 << len(edge_ids)):
        reply = frozenset(edge_ids[i] for i in range(len(edge_ids)) if mask >> i & 1)
        if validate_reply(instance, request, reply):
            out.append(reply)
    return out


def enumerate_profiles(instance: Instance) -> tuple[list[list[frozenset[str]]], int]:
    """Every request's reply collection and the number of profiles; no
    profile exists when a request has no feasible reply."""
    candidates = [candidate_replies(instance, req) for req in instance.requests]
    count = 1
    for req, c in zip(instance.requests, candidates):
        if not c:
            raise InfeasibleError(f"request {req.id} has no feasible reply")
        count *= len(c)
        if count > MAX_PROFILES:
            raise EnumerationLimitError(
                f"profile space exceeds {MAX_PROFILES}; refusing to enumerate")
    return candidates, count


def brute_force_opt(instance: Instance) -> tuple[StrategyProfile, float]:
    """Exact minimizer of the total cost over the full profile space."""
    candidates, _ = enumerate_profiles(instance)
    best_profile, best_cost = None, math.inf
    for combo in product(*candidates):
        cost = total_cost(instance, combo)
        if cost < best_cost:
            best_profile, best_cost = combo, cost
    return tuple(best_profile), best_cost


# ---------------------------------------------------------------------------
# equilibria and the price of anarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoaReport:
    nash_profiles: tuple[StrategyProfile, ...]
    worst_nash_cost: Optional[float]
    opt_cost: float

    @property
    def poa(self) -> Optional[float]:
        if self.worst_nash_cost is None:
            return None
        return self.worst_nash_cost / self.opt_cost


def _iter_equilibrium_rows(instance: Instance, mechanism: str):
    """Yield (profile, cost, is_nash) for every enumerable profile, in the
    product order of :func:`brute_force_opt`."""
    candidates, _ = enumerate_profiles(instance)
    for combo in product(*candidates):
        profile = tuple(combo)
        state = ProfileState(instance, profile)
        is_nash = True
        for pos in range(instance.n_requests):
            own = state.player_cost(mechanism, pos, profile[pos])
            for alt in candidates[pos]:
                if alt == profile[pos]:
                    continue
                if exceeds(own, state.player_cost(mechanism, pos, alt)):
                    is_nash = False
                    break
            if not is_nash:
                break
        yield profile, state.cost(), is_nash


def _poa_report(rows) -> PoaReport:
    nash: list[StrategyProfile] = []
    worst = None
    opt_cost = math.inf
    for profile, cost, is_nash in rows:
        opt_cost = min(opt_cost, cost)
        if is_nash:
            nash.append(profile)
            worst = cost if worst is None else max(worst, cost)
    return PoaReport(nash_profiles=tuple(nash), worst_nash_cost=worst, opt_cost=opt_cost)


def enumerate_nash(instance: Instance, mechanism: str) -> PoaReport:
    """All pure equilibria under an exact mechanism, against the deviation
    space given by the enumerated reply collections, and the optimum cost
    from the same pass over the profiles."""
    return _poa_report(_iter_equilibrium_rows(instance, mechanism))


def _profile_label(profile: StrategyProfile) -> str:
    return ";".join("|".join(sorted(reply)) for reply in profile)


def nash_report_csv(instance: Instance, mechanism: str) -> tuple[PoaReport, str]:
    """One row per enumerated profile: its cost and whether it is a NE.
    Returns the :func:`enumerate_nash` report of the same walk beside it."""
    rows = list(_iter_equilibrium_rows(instance, mechanism))
    return _poa_report(rows), csv_text("profile,cost,is_nash", (
        (_profile_label(profile), cost, is_nash) for profile, cost, is_nash in rows))


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessReport:
    lam: float
    mu: float
    pairs_tested: int
    max_ratio: float
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _profile_at(candidates: list[list[frozenset[str]]], index: int) -> StrategyProfile:
    out = []
    for cands in candidates:
        index, pick = divmod(index, len(cands))
        out.append(cands[pick])
    return tuple(out)


def _iter_smoothness_rows(instance: Instance, mechanism: str, lam: float, mu: float,
                          max_pairs: int, seed: int):
    """Yield (p, p', lhs, C(p), C(p'), ok) over the checked pairs."""
    if max_pairs < 1:
        raise ConfigError(f"the number of pairs must be >= 1, got {max_pairs}")
    candidates, count = enumerate_profiles(instance)

    def rows(p, deviations):
        state = ProfileState(instance, p)
        c_p = state.cost()
        for p_prime, c_prime in deviations:
            lhs = left_sum(state.player_cost(mechanism, pos, p_prime[pos])
                           for pos in range(instance.n_requests))
            yield p, p_prime, lhs, c_p, c_prime, not exceeds(lhs, lam * c_prime + mu * c_p)

    if count * count <= max_pairs:
        # p leads, so each profile gets one state, and each is priced once as a p'
        priced = [(tuple(c), total_cost(instance, c)) for c in product(*candidates)]
        for p, _ in priced:
            yield from rows(p, priced)
    else:
        rng = keyed_rng(seed, "smoothness")
        for _ in range(max_pairs):
            p = _profile_at(candidates, int(rng.integers(count)))
            p_prime = _profile_at(candidates, int(rng.integers(count)))
            yield from rows(p, [(p_prime, total_cost(instance, p_prime))])


def _smoothness_report(lam: float, mu: float, rows) -> SmoothnessReport:
    max_ratio = -math.inf
    violations = 0
    tested = 0
    for _, _, lhs, c_p, c_prime, ok in rows:
        tested += 1
        max_ratio = max(max_ratio, (lhs - mu * c_p) / c_prime)
        if not ok:
            violations += 1
    return SmoothnessReport(lam=lam, mu=mu, pairs_tested=tested,
                            max_ratio=max_ratio, violations=violations)


def smoothness_check(instance: Instance, mechanism: str, lam: float, mu: float,
                     max_pairs: int = 10_000, seed: int = 0) -> SmoothnessReport:
    """Verify sum_i C_i(p'_i, p_{-i}) <= lam*C(p') + mu*C(p) over ordered
    profile pairs: exhaustively when the pair count fits max_pairs, otherwise
    on max_pairs seeded samples.  max_pairs must be at least 1."""
    return _smoothness_report(
        lam, mu, _iter_smoothness_rows(instance, mechanism, lam, mu, max_pairs, seed))


def smoothness_report_csv(instance: Instance, mechanism: str, lam: float, mu: float,
                          max_pairs: int = 10_000, seed: int = 0
                          ) -> tuple[SmoothnessReport, str]:
    """One row per checked pair: deviation sum, both costs, verdict.
    Returns the :func:`smoothness_check` report of the same pairs beside it."""
    rows = list(_iter_smoothness_rows(instance, mechanism, lam, mu, max_pairs, seed))
    return _smoothness_report(lam, mu, rows), csv_text(
        "profile,deviation_profile,deviation_sum,cost_p,cost_p_prime,ok",
        ((_profile_label(p), _profile_label(p_prime), *rest) for p, p_prime, *rest in rows))


# ---------------------------------------------------------------------------
# budget balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetBalanceReport:
    queries_tested: int
    max_rel_gap: float

    @property
    def ok(self) -> bool:
        return self.max_rel_gap <= REL_TOL


def budget_balance_check(mechanism: str,
                         queries: Iterable[tuple[ResourceParams, ExponentProfile,
                                                 tuple[tuple[int, int], ...]]]
                         ) -> BudgetBalanceReport:
    """Shares on each queried resource must sum to its cost exactly."""
    tested = 0
    worst = 0.0
    for res, exp, users in queries:
        tested += 1
        total = 0.0
        for rid, _ in users:
            total += cost_share(mechanism, ShareQuery(res, exp, users, target=rid))
        full = rep_cost(res, exp, sum(w for _, w in users))
        # an unused resource costs 0 and balances; any other costs more than 0
        worst = max(worst, abs(total - full) / full if users else 0.0)
    return BudgetBalanceReport(queries_tested=tested, max_rel_gap=worst)


# ---------------------------------------------------------------------------
# worst-case family
# ---------------------------------------------------------------------------

MAX_POA_REQUESTS = 100_000
MAX_POA_EXPONENTS = 100


def poa_lower_bound_instance(sigma: float, xi: float, alpha: float, q: int = 1) -> Instance:
    """Hub-and-spoke family with a price of anarchy of at least N/3.

    N = (sigma/xi)^(1/alpha) unit-weight routing requests share a source s.
    Each request i can go directly (edge e{i}, cost parameters sigma, xi) or
    through the hub (edge estar priced at N/(N+1) of (sigma, xi), then f{i}
    priced at sigma/(N+1) with factor 3 xi/(N+1)).  All going direct is an
    equilibrium; all going through the hub costs less than 3(sigma + xi).
    An N above MAX_POA_REQUESTS or a q above MAX_POA_EXPONENTS is refused.

    For q >= 2 the q-1 extra exponents are 1 + (alpha-1)/2, with factors at
    0.1 of the strict admissibility bound xi_1/(q N^alpha_j (N+1)).
    """
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if q > MAX_POA_EXPONENTS:
        raise ConfigError(f"q = {q} exceeds the cap of {MAX_POA_EXPONENTS} exponents")
    if sigma <= 0 or xi <= 0:
        raise ConfigError("sigma and xi must be positive")
    if alpha <= 1:
        raise ConfigError("alpha must exceed 1")
    n_real = (sigma / xi) ** (1.0 / alpha)
    if not math.isfinite(n_real):
        raise ConfigError(f"(sigma/xi)^(1/alpha) = {n_real} is not a finite number")
    n = round(n_real)
    if n > MAX_POA_REQUESTS:
        raise ConfigError(f"N = {n_real:.6g} exceeds the cap of {MAX_POA_REQUESTS} requests")
    if n < 2 or exceeds(abs(n_real - n), 0.0, n_real, n):
        reason = f"(sigma/xi)^(1/alpha) = {n_real:.6g} is not an integer >= 2"
        suggestion = finite(lambda k: xi * k ** alpha, lambda k: ConfigError(
            f"{reason}; the nearest valid sigma, xi * {k}^alpha, exceeds the largest double"),
            max(2, n))
        # integer xi and alpha give an integer, printed as a real all the same
        raise ConfigError(f"{reason}; nearest valid sigma is {fmt(float(suggestion))}")

    tail_alphas = [1.0 + (alpha - 1.0) / 2.0] * (q - 1)

    def xi_vector(xi1: float) -> tuple[float, ...]:
        tails = tuple(0.1 * xi1 / (q * float(n) ** a * (n + 1)) for a in tail_alphas)
        return (xi1, *tails)

    frac = n / (n + 1.0)
    resources = [ResourceParams("estar", sigma * frac, xi_vector(xi * frac))]
    edges = [Edge("estar", "s", "tstar")]
    requests = []
    for i in range(1, n + 1):
        resources.append(ResourceParams(f"e{i}", sigma, xi_vector(xi)))
        resources.append(ResourceParams(f"f{i}", sigma / (n + 1.0),
                                        xi_vector(3.0 * xi / (n + 1.0))))
        edges.append(Edge(f"e{i}", "s", f"t{i}"))
        edges.append(Edge(f"f{i}", "tstar", f"t{i}"))
        requests.append(Request(id=i, kind=Routing("s", f"t{i}")))
    graph = HostGraph(directed=True,
                      vertices=("s", "tstar", *(f"t{i}" for i in range(1, n + 1))),
                      edges=tuple(edges))
    return Instance(exponents=ExponentProfile((alpha, *tail_alphas)), resources=tuple(resources),
                    requests=tuple(requests), graph=graph)
