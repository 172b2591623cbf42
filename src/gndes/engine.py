"""Approximate best-response dynamics over the induced cost-sharing game.

One step: every player gets a toll function built from her (possibly
sampled) cost shares against the frozen previous profile, her oracle reply
under those tolls is her approximate best response, and

    delta_i = Ctilde_i(previous profile) - eps1 * Ctilde_i(reply, rest)

measures her scaled improvement, eps1 = (1+eps)/(1-eps).  If no delta is
positive the dynamics converge; otherwise one player updates:

* deterministic selection: the smallest index with delta_i > 0 and
  delta_i >= min(Delta/N, max_j delta_j) (such a player always exists by
  pigeonhole);
* randomized selection: a uniformly random player updates iff her delta is
  positive, with the step budget inflated to N*T^2.

The step budget T is bounded through the potential Phi of the exact
Shapley game (``bounds.theoretical_bounds``, in closed form), and a run
reads only its deltas, so no run needs Phi itself; it is tracked, one
trace column, under ``shapley-exact`` alone, where its counting tables are
the shares' own.  A sampled run builds a table only for a share that
``sharing.samples_needed`` leaves exact, so its work stays polynomial
(claim 3).  The Delta/N rule still drops Phi under sampling: if every
share in the mover's delta lies within (1 +- eps) of the exact one, then
Ctilde_i(S) <= (1+eps) C_i(S) and Ctilde_i(reply) >= (1-eps) C_i(reply),
so Phi, whose change on her move is C_i(reply) - C_i(S), falls by at least
delta_i / (1+eps) >= Delta / (N (1+eps)).  An exact share is in that band
always, a sampled one except with the run's per-share probability
(``sharing.whp_delta``), and a capped one (``sharing.MAX_SAMPLES``) has no
such guarantee.

One step is one ``PassView`` over the run's ``analysis.ProfileState``: the
frozen profile, its resources' users read from the state (so a view is
valid until the state's next move) and the shares already computed against
them, shared by every player's ABR.  Each move regroups and reprices only
the resources it changed, and the state keeps the run's cost
(``ProfileState.cost``); the starting profile is priced with
``total_cost``.  Toll rows are kept per run and patched per move
(``TollRows``): a pass computes a player's tolls again only on the
resources whose users changed since her row was built and on those where
her toll was sampled, since a sampled toll holds for one pass.  Players of
one request class (same kind and weights, any id) holding equal replies
face equal rows, so a pass runs one ABR per class and reply and hands its
answer and row to the others; the exception is a row with a sampled entry,
drawn from its own player's stream, so each player of such a group runs an
ABR of its own.  The starting profile likewise runs the oracle once per
class.

A pass runs in two loops (:func:`delta_vector`).  The first decides who
runs an ABR and builds each such row once.  The second runs the ABRs as
one ``oracles.Sweep`` over those rows: each ABR is ``reply_oracle`` on
the sweep and its position, and the sweep builds the guide of a routing
target's searches the first time it answers one.  The starting profile
is one sweep too.  A guide only prunes a search; the ``oracles`` module
docstring proves every reply and toll total bit for bit the unguided
one.

The run returns the cheapest profile seen (output mode "best") or the final
one ("last"), the full per-step trace, and the theoretical constants.  Its
report is one list of facts (:func:`run_facts`), whose text and JSON
projections are :func:`run_report` and :func:`result_to_json_dict`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from . import analysis, sharing
from .bounds import TheoreticalBounds, theoretical_bounds
from .errors import ConfigError
from .instance import Instance, StrategyProfile, float_or_exact, left_sum, rep_cost, total_cost
from .io import csv_text, facts_doc, facts_text
from .oracles import OracleAnswer, Sweep, reply_oracle
from .rng import keyed_rng
from .sharing import MECHANISMS, cost_share, samples_needed, whp_delta


@dataclass(frozen=True)
class AbrdConfig:
    epsilon: float = 0.01
    seed: int = 0
    mechanism: str = "shapley-exact"
    selection: str = "deterministic"          # or "randomized"
    output: str = "best"                      # or "last"
    step_budget_override: Optional[int] = None

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        if self.selection not in ("deterministic", "randomized"):
            raise ConfigError(f"unknown selection rule {self.selection!r}")
        if self.output not in ("best", "last"):
            raise ConfigError(f"unknown output mode {self.output!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if self.step_budget_override is not None and self.step_budget_override < 0:
            raise ConfigError("step budget override must be >= 0")


@dataclass(frozen=True)
class StepRecord:
    step: int
    player: Optional[int]                     # request id of the updated player
    delta_selected: Optional[float]           # that player's delta
    delta_total: Optional[float]
    cost: float
    potential: Optional[float]
    converged: bool


@dataclass(frozen=True)
class RunResult:
    output_profile: StrategyProfile
    t_star: int
    trace: tuple[StepRecord, ...]
    bounds: TheoreticalBounds
    step_budget: int
    config: AbrdConfig
    sampled_shares: int = 0                   # shares estimated by sampling
    sample_cap_hits: int = 0                  # of those, shares whose count was capped

    @property
    def best_cost(self) -> float:
        return self.trace[self.t_star].cost

    @property
    def output_cost(self) -> float:
        return self.best_cost if self.config.output == "best" else self.trace[-1].cost

    @property
    def converged_at(self) -> Optional[int]:
        last = self.trace[-1]
        return last.step if last.converged else None

    @property
    def budget_overridden(self) -> bool:
        return self.config.step_budget_override is not None


def initial_profile(instance: Instance) -> StrategyProfile:
    """Each request answers the oracle under standalone tolls F_e(w_i(e)).

    The tolls are priced once per weight row (``Instance.weight_rows``) and
    the oracle runs once per request class (``Instance.request_classes``):
    the members of a class get the reply of its first member.  The first
    members are answered in one ``oracles.Sweep`` over their rows, as the
    leaders of a pass are (:func:`delta_vector`)."""
    tolls_by_row: dict[int, dict[str, float]] = {}
    first: dict[int, int] = {}   # class -> its first position
    for pos, (req, row, cls) in enumerate(zip(instance.requests, instance.weight_rows,
                                              instance.request_classes)):
        if cls not in first:
            first[cls] = pos
            if row not in tolls_by_row:
                tolls_by_row[row] = {
                    res.id: rep_cost(res, instance.exponents, req.weight(res.id))
                    for res in instance.resources
                }
    sweep = Sweep(instance, {pos: tolls_by_row[instance.weight_rows[pos]]
                             for pos in first.values()})
    replies = {cls: reply_oracle(sweep, pos).reply for cls, pos in first.items()}
    return tuple(replies[cls] for cls in instance.request_classes)


class TollRows:
    """Every player's toll row, kept across the passes of one run.

    ``tolls`` maps a position to its row: a toll per resource, in instance
    resource order.  ``stale`` maps it to the resources whose entries the
    next pass computes again: those whose users changed since the row was
    last brought up to date, and those whose share was sampled, because a
    sampled share is drawn from its pass's own stream.  A position without a
    row has every resource stale.

    :meth:`advance` brings the store to a pass's profile by diffing it with
    the profile the store last saw: a changed reply changes the users of
    exactly the resources in its old reply xor its new one.  So the store
    needs no hook in ``analysis.ProfileState.move``.  A row handed out is
    never changed: a pass patches a copy and keeps that, so players of one
    class can hold one row object (:meth:`share`).
    """

    def __init__(self):
        self.profile: StrategyProfile = ()
        self.tolls: dict[int, dict[str, float]] = {}
        self.stale: dict[int, set[str]] = {}

    def advance(self, profile: StrategyProfile):
        changed = set()
        for old, new in zip(self.profile, profile):
            if old is not new:
                changed |= old ^ new
        if changed:
            for stale in self.stale.values():
                stale |= changed
        self.profile = profile

    def share(self, position: int, source: int):
        """Give ``position`` the row of ``source``, a player of the same
        request class with an equal reply whose row is up to date and holds
        nothing sampled: the two rows are equal entry by entry."""
        self.tolls[position] = self.tolls[source]
        self.stale[position] = set()


class PassView:
    """One delta pass: every player's tolls against one frozen profile.

    ``state`` is the run's ``analysis.ProfileState``, read, not copied: a
    toll prices the query of ``ProfileState.share_query``, the one place a
    player's share against the others is formed, so the view is valid until
    the state's next move.  ``shares`` memoizes exact shares by (resource,
    whether the player is on it, the player's weight there).  An exact share
    depends on the other users only through their weight multiset, bit for
    bit.  Every player off a resource sees all of its users as the others,
    and every player of one weight on it sees the same multiset without one
    user of that weight, so each group shares one entry.  Under
    ``shapley-sampled`` the view decides each share's sample count, the one
    place that does: ``sharing.samples_needed`` reads only the multiset, so
    the shares it leaves exact are memoized the same way.  A share that does
    sample draws that count from a stream per player and ``step``
    (``sharing.shapley_sampled``), within epsilon of the exact share except
    with probability ``delta``.  Sampled shares are not memoized; they are
    counted in ``sampled_shares``, and those whose sample count was capped
    also in ``sample_cap_hits``.

    Rows are kept per run and patched per move: ``rows`` is the run's
    :class:`TollRows`, so a player's entries are computed again only on the
    resources whose users changed since her row was built and on those where
    her share was sampled; ``built`` holds the positions whose rows this
    pass brought up to date.  ``sweep`` is the ``oracles.Sweep`` over the
    rows of the pass's leaders, which :func:`delta_vector` builds once its
    rows are, and through which their ABRs are answered (None until then).
    Exact shares read their counting tables and h values from the state's
    ``tables`` store, which outlives the pass and, under ``shapley-exact``,
    the only mechanism whose run tracks the potential, is shared with the
    state's potential.  A toll is the share
    itself, so a run on an instance with every cost multiplied by a power
    of two makes the same moves, its costs, deltas and potentials
    multiplied by that power.

    A round of FPL (``fpl.run_l_apx``) is a toll pass of the proportional
    game: one view per round over that round's state, with one store for
    the run.
    """

    def __init__(self, state: analysis.ProfileState, config: AbrdConfig, step: int,
                 delta: float, rows: TollRows):
        self.instance = state.instance
        self.config = config
        self.profile = state.profile
        self.state = state
        self.step = step
        self.delta = delta
        self.sampled = config.mechanism == "shapley-sampled"
        self.exact_mechanism = "shapley-exact" if self.sampled else config.mechanism
        self.shares: dict[tuple[str, bool, int], float] = {}
        self.sampled_shares = 0
        self.sample_cap_hits = 0
        self.rows = rows
        self.rows.advance(self.profile)
        self.built: set[int] = set()
        self.sweep: Optional[Sweep] = None

    def tolls(self, position: int) -> dict[str, float]:
        """Tolls for one player: her share on each resource if she joined
        the others there.  For resources in her own reply this is exactly
        her current (estimated) share.  Only the stale entries of her kept
        row are computed, each only when no earlier player of the pass
        computed it, and then on the state's query
        (``analysis.ProfileState.share_query``).  A toll is the share as it
        is, nonnegative and in the instance's cost unit; the oracles take a
        zero toll as it is.  A row built in this pass is handed out again as
        it is, so its sampled entries are drawn and counted once."""
        instance, config, rows = self.instance, self.config, self.rows
        if position in self.built:
            return rows.tolls[position]
        row = rows.tolls.get(position)
        if row is None:
            row, changed = {}, [res.id for res in instance.resources]
        else:
            changed = rows.stale[position]
            if not changed:
                return row
            row = dict(row)
        req = instance.requests[position]
        weights, default_weight = req.weights, req.default_weight
        own = self.profile[position]
        memo = self.shares
        stale = set()
        for e in changed:
            w = weights.get(e, default_weight)
            on = e in own
            key = (e, on, w)
            share = memo.get(key)
            if share is None:
                query = self.state.share_query(position, e)
                needed = samples_needed(query, config.epsilon, self.delta) if self.sampled else 0
                if needed:
                    stale.add(e)
                    self.sampled_shares += 1
                    self.sample_cap_hits += needed > sharing.MAX_SAMPLES
                    # called through the module so that wrappers on
                    # sharing.shapley_sampled (the benchmark's tracer) see it
                    share = sharing.shapley_sampled(
                        query, keyed_rng(config.seed, "share", self.step, req.id, e), needed)
                else:
                    # a sampled share that needs no samples is the exact
                    # Shapley share, so it is memoized like any exact share
                    share = memo[key] = cost_share(self.exact_mechanism, query,
                                                   tables=self.state.tables)
            row[e] = share
        rows.tolls[position], rows.stale[position] = row, stale
        self.built.add(position)
        return row


def approximate_best_response(view: PassView, position: int) -> tuple[OracleAnswer, float]:
    """ABR of one player to everybody else's replies in the pass's profile.

    Returns the oracle answer (whose toll_total is the player's estimated
    cost at the new reply) together with her estimated current cost.  The
    oracle runs on the pass's sweep (``view.sweep``) when that holds her
    row, as it holds every leader's once :func:`delta_vector` has built it,
    and otherwise on a sweep of her row alone, with the same answer.
    """
    tolls = view.tolls(position)
    sweep = view.sweep if view.sweep and position in view.sweep.rows else None
    answer = reply_oracle(sweep or Sweep(view.instance, {position: tolls}), position)
    current = left_sum(tolls[e] for e in sorted(view.profile[position]))
    return answer, current


@dataclass(frozen=True)
class DeltaPass:
    deltas: tuple[float, ...]
    total: float
    proposals: tuple[OracleAnswer, ...]


def delta_vector(view: PassView) -> DeltaPass:
    """Fresh ABRs and improvement estimates for every player of the pass.

    Players of one request class (``Instance.request_classes``) that hold
    equal replies face equal toll rows and so get equal ABRs: the first of
    them, the leader, runs ``approximate_best_response`` and the others
    take its answer, its current cost and its row (:meth:`TollRows.share`).
    A sampled entry is drawn from its player's own stream, so an ABR is
    reused only when its row came out with nothing sampled; then no other
    row of the group samples either (``sharing.samples_needed`` reads only
    the weight multiset), and the view's sampled-share counters count what
    a pass over every player would.

    The pass runs in two loops.  The first decides the leaders and builds
    each leader's row, once.  The second runs the leaders' ABRs through one
    ``oracles.Sweep`` over those rows (``view.sweep``), whose guides prune
    the routing searches and leave every answer bit for bit as it was."""
    eps1 = (1.0 + view.config.epsilon) / (1.0 - view.config.epsilon)
    rows = view.rows
    first: dict[tuple[int, frozenset[str]], int] = {}   # (class, reply) -> who answered
    answered_by = []
    for pos, cls in enumerate(view.instance.request_classes):
        key = (cls, view.profile[pos])
        leader = first.get(key)
        if leader is None:
            view.tolls(pos)
            if not rows.stale[pos]:
                first[key] = pos
            answered_by.append(pos)
        else:
            rows.share(pos, leader)
            answered_by.append(leader)
    leaders = [pos for pos, leader in enumerate(answered_by) if pos == leader]
    view.sweep = Sweep(view.instance, {pos: rows.tolls[pos] for pos in leaders})
    answers = {pos: approximate_best_response(view, pos) for pos in leaders}
    abrs = [answers[leader] for leader in answered_by]
    deltas = tuple(current - eps1 * answer.toll_total for answer, current in abrs)
    return DeltaPass(deltas=deltas, total=left_sum(deltas),
                     proposals=tuple(answer for answer, _ in abrs))


def _select(config: AbrdConfig, dpass: DeltaPass, step: int) -> Optional[int]:
    """Position of the player who updates after a pass with a positive
    delta, or None when randomized selection drew a player without one."""
    deltas = dpass.deltas
    if config.selection == "deterministic":
        # the mean can round above every delta when all of them tie
        threshold = min(dpass.total / len(deltas), max(deltas))
        return next((pos for pos, d in enumerate(deltas) if d > 0.0 and d >= threshold), None)
    pick = int(keyed_rng(config.seed, "select", step).integers(len(deltas)))
    return pick if deltas[pick] > 0.0 else None


def step_budget(instance: Instance, config: AbrdConfig, bounds: TheoreticalBounds) -> int:
    """The steps a run may take: the override if the config sets one, else
    T under deterministic selection and N*T^2 under randomized selection."""
    if config.step_budget_override is not None:
        return config.step_budget_override
    return instance.n_requests * bounds.T ** 2 if config.selection == "randomized" else bounds.T


def run_abrd(instance: Instance, config: AbrdConfig) -> RunResult:
    bounds = theoretical_bounds(instance, config.mechanism, config.epsilon)
    budget = step_budget(instance, config, bounds)
    delta = whp_delta(budget, instance.n_requests, len(instance.resources))
    if config.mechanism == "shapley-sampled" and delta < sys.float_info.min:
        raise ConfigError("the step budget is too large for shapley-sampled: "
                          "the per-share failure probability underflows")
    # only the exact Shapley game's potential is tracked: proportional
    # sharing has none, and a sampled run reads only its deltas (module
    # docstring), so it builds counting tables only for its exact shares
    tracks_potential = config.mechanism == "shapley-exact"

    state = analysis.ProfileState(instance, initial_profile(instance))
    cost = total_cost(instance, state.profile)
    potential = state.potential() if tracks_potential else None
    trace = [StepRecord(step=0, player=None, delta_selected=None, delta_total=None,
                        cost=cost, potential=potential, converged=False)]
    best_profile, best_cost, t_star = state.profile, cost, 0   # the first least cost
    sampled_shares = sample_cap_hits = 0
    rows = TollRows()

    for t in range(1, budget + 1):
        view = PassView(state, config, t, delta, rows)
        dpass = delta_vector(view)
        sampled_shares += view.sampled_shares
        sample_cap_hits += view.sample_cap_hits
        converged = all(d <= 0.0 for d in dpass.deltas)
        chosen = None if converged else _select(config, dpass, t)
        if chosen is not None:
            state.move(chosen, dpass.proposals[chosen].reply)
            cost = state.cost()
            potential = state.potential() if tracks_potential else None
            if cost < best_cost:
                best_profile, best_cost, t_star = state.profile, cost, t
        trace.append(StepRecord(
            step=t, player=None if chosen is None else instance.requests[chosen].id,
            delta_selected=None if chosen is None else dpass.deltas[chosen],
            delta_total=dpass.total, cost=cost, potential=potential, converged=converged))
        if converged:
            break

    return RunResult(
        output_profile=best_profile if config.output == "best" else state.profile,
        t_star=t_star,
        trace=tuple(trace),
        bounds=bounds,
        step_budget=budget,
        config=config,
        sampled_shares=sampled_shares,
        sample_cap_hits=sample_cap_hits,
    )


# ---------------------------------------------------------------------------
# trace and report emission
# ---------------------------------------------------------------------------

def trace_to_csv(result: RunResult) -> str:
    """Columns: step, player, delta_selected, Delta, cost, potential,
    converged.  The step-0 row and rows without an update leave the player
    and delta_selected fields empty; the potential is empty unless the run
    is ``shapley-exact``."""
    return csv_text("step,player,delta_selected,Delta,cost,potential,converged",
                    ((rec.step, rec.player, rec.delta_selected, rec.delta_total, rec.cost,
                      rec.potential, rec.converged) for rec in result.trace))


# the run report's title and label width
RUN_REPORT = "abrd run report", 17


def run_facts(instance: Instance, result: RunResult,
              opt_cost: Optional[float] = None) -> list[tuple]:
    """The run report as one list of (JSON key, text label, value) facts,
    which ``io.facts_doc`` and ``io.facts_text`` project; given the optimum
    ``opt_cost``, it also reports the empirical ratio of the output cost to
    it.  The JSON nests the constants under "bounds"; the text lists them
    one per line."""
    config = result.config
    sampled = config.mechanism == "shapley-sampled"
    facts = [
        ("mechanism", "mechanism", config.mechanism),
        ("selection", "selection", config.selection),
        ("output_mode", "output mode", config.output),
        ("seed", "seed", config.seed),
        ("players", "players", instance.n_requests),
        ("resources", "resources", len(instance.resources)),
        ("bounds", None, dict(result.bounds.labelled())),
        *((None, label, value) for label, value in result.bounds.labelled(
            A="A (harmonic)", B="B (ceil alpha)", T="T (step budget)",
            ratio_bound="ratio bound")),
        ("step_budget", None, result.step_budget),
        ("budget_overridden", None, result.budget_overridden),
        (None, "budget used", f"{result.step_budget}"
         + ("  (override; ratio guarantee void)" if result.budget_overridden else "")),
    ]
    if sampled:
        budget, n, m = max(1, result.step_budget), instance.n_requests, len(instance.resources)
        fail = float_or_exact(lambda: 1.0 / (2.0 * budget * n * m),
                              lambda: 1 / (2 * budget * n * m))
        facts.append((None, "sampling failure probability <= ", fail))
        facts.append((None, "potential", "not tracked: its counting tables are the "
                                           "work sampled shares avoid"))
        if result.sample_cap_hits:
            facts.append((None, "epsilon guarantee void on ",
                          f"{result.sample_cap_hits} of {result.sampled_shares} sampled shares"))
    facts += [
        ("steps_recorded", "steps recorded", len(result.trace) - 1),
        ("converged_at", None, result.converged_at),
        (None, "converged", f"at step {result.converged_at}" if result.converged_at else "no"),
        ("t_star", "t*", result.t_star),
        ("initial_cost", "initial cost", result.trace[0].cost),
        ("best_cost", "best cost", result.best_cost),
        ("output_cost", "output cost", result.output_cost),
        ("output_profile", None, [sorted(r) for r in result.output_profile]),
    ]
    if sampled:
        facts += [("sampled_shares", None, result.sampled_shares),
                  ("sample_cap_hits", None, result.sample_cap_hits)]
    if opt_cost is not None:
        facts += [("opt_cost", "brute-force opt", opt_cost),
                  ("ratio", "empirical ratio", result.output_cost / opt_cost)]
    return facts


def run_report(instance: Instance, result: RunResult, opt_cost: Optional[float] = None) -> str:
    """The run's text report, the text projection of :func:`run_facts`."""
    return facts_text(*RUN_REPORT, run_facts(instance, result, opt_cost))


def result_to_json_dict(instance: Instance, result: RunResult,
                        opt_cost: Optional[float] = None) -> dict:
    """The run's JSON document, the JSON projection of :func:`run_facts`."""
    return facts_doc(run_facts(instance, result, opt_cost))
