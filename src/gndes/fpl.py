"""Learning-based alternative for routing-only instances.

Each player runs follow-the-perturbed-leader over her cumulative
proportional-fair tolls: in every round she takes the cheapest path under
(cumulative toll + fresh uniform perturbation), all players move
simultaneously, and the output is the profile of a uniformly random round.
Costs are pre-scaled so every per-edge share lies in [0, 1], which the
regret bound needs.

Regret is measured against the best fixed path in hindsight.  A fixed
path's hindsight total is the sum of the player's cumulative per-edge tolls
along it, so that minimum is one shortest-path query on the cumulative
tolls (an offline linear optimizer suffices, as in Kalai & Vempala 2005).
No path is enumerated, so there is no cap on the number of paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, InfeasibleError
from .instance import (
    HostGraph,
    Instance,
    Request,
    ResourceParams,
    Routing,
    StrategyProfile,
    load_vector,
    rep_cost,
    total_cost,
)
from .oracles import clamp_toll, routing_oracle
from .rng import keyed_rng

ROUNDS_CAP = 100_000


@dataclass(frozen=True)
class FplConfig:
    seed: int = 0
    rounds: Optional[int] = None      # None: min(4 N^2 |V|^2 |E|, ROUNDS_CAP)


@dataclass(frozen=True)
class RegretTraceRow:
    round: int
    player: int
    realized_toll: float
    best_fixed_toll: float


@dataclass(frozen=True)
class LApxResult:
    profile: StrategyProfile
    cost: float                         # on the original, unscaled instance
    regrets: tuple[float, ...]          # per player, in scaled toll units
    scale: float
    rounds: int
    theoretical_rounds: int
    eta: float
    chosen_round: int
    trace: tuple[RegretTraceRow, ...] = field(default=(), repr=False)


def theoretical_round_count(instance: Instance) -> int:
    n = instance.n_requests
    v = len(instance.graph.vertices)
    m = len(instance.graph.edges)
    return 4 * n * n * v * v * m


def normalize_costs(instance: Instance) -> tuple[Instance, float]:
    """Divide every sigma and factor by S = max_e F_e(sum_i max_e' w_i(e'))
    (clamped to >= 1) so any conceivable per-edge share lies in [0, 1]."""
    for req in instance.requests:
        if not isinstance(req.kind, Routing):
            raise ConfigError("cost normalization applies to routing-only instances")
    worst_load = sum(
        max(req.weight(res.id) for res in instance.resources)
        for req in instance.requests)
    scale = max(
        (rep_cost(res, instance.exponents, worst_load) for res in instance.resources),
        default=1.0)
    scale = max(scale, 1.0)
    scaled = Instance(
        exponents=instance.exponents,
        resources=tuple(
            ResourceParams(r.id, r.sigma / scale, tuple(x / scale for x in r.xis))
            for r in instance.resources),
        requests=instance.requests,
        graph=instance.graph,
    )
    return scaled, scale


def fpl_step(graph: HostGraph, source: str, target: str,
             cumulative: dict[str, float], eta: float,
             rng: np.random.Generator) -> frozenset[str]:
    """One perturbed-leader decision: cheapest path under cumulative tolls
    plus i.i.d. uniform [0, eta] noise per edge, drawn fresh."""
    noise = rng.uniform(0.0, eta, size=len(graph.edges))
    # HostGraph keeps its edges sorted by id, so the noise lands on the
    # same edge whatever order the graph was built in
    tolls = {
        e.id: clamp_toll(cumulative.get(e.id, 0.0) + float(u))
        for e, u in zip(graph.edges, noise)
    }
    return routing_oracle(graph, source, target, tolls).reply


def _proportional_toll_row(scaled: Instance, loads: dict[str, int],
                           profile: StrategyProfile, position: int,
                           costs: dict[tuple[str, int], float]) -> dict[str, float]:
    """tau_i(e) = player i's proportional share on e with i joined to the
    round's users of e, given the round's loads.  ``costs`` holds the
    round's F_e(joined load) by (resource id, joined load), filled here, so
    players who see the same load on a resource share one evaluation."""
    req = scaled.requests[position]
    row = {}
    for res in scaled.resources:
        w = req.weight(res.id)
        joined = loads[res.id] + (0 if res.id in profile[position] else w)
        cost = costs.get((res.id, joined))
        if cost is None:
            cost = costs[res.id, joined] = rep_cost(res, scaled.exponents, joined)
        row[res.id] = (w / joined) * cost
    return row


def _best_fixed_toll(graph: HostGraph, req: Request, cumulative: dict[str, float]) -> float:
    """Hindsight total of the player's best fixed path."""
    return routing_oracle(graph, req.kind.source, req.kind.target, cumulative).toll_total


def run_l_apx(instance: Instance, config: FplConfig = FplConfig(),
              collect_trace: bool = False) -> LApxResult:
    """Run follow-the-perturbed-leader with perturbation scale
    eta = sqrt(rounds / |E|)."""
    scaled, scale = normalize_costs(instance)
    graph = scaled.graph
    n = scaled.n_requests
    m = len(graph.edges)
    if m == 0:
        kind = scaled.requests[0].kind
        raise InfeasibleError(f"no path from {kind.source!r} to {kind.target!r}")
    theoretical = theoretical_round_count(scaled)
    rounds = config.rounds if config.rounds is not None else min(theoretical, ROUNDS_CAP)
    if rounds < 1:
        raise ConfigError("round count must be >= 1")
    eta = (rounds / m) ** 0.5

    chosen = int(keyed_rng(config.seed, "output").integers(1, rounds + 1))
    cumulative = [{res.id: 0.0 for res in scaled.resources} for _ in range(n)]
    realized = [0.0] * n
    trace: list[RegretTraceRow] = []

    for t in range(1, rounds + 1):
        replies = []
        for pos, req in enumerate(scaled.requests):
            rng = keyed_rng(config.seed, "fpl", t, req.id)
            replies.append(fpl_step(graph, req.kind.source, req.kind.target,
                                    cumulative[pos], eta, rng))
        profile = tuple(replies)
        if t == chosen:
            out_profile = profile
        loads = load_vector(scaled, profile)
        costs: dict[tuple[str, int], float] = {}
        for pos, req in enumerate(scaled.requests):
            row = _proportional_toll_row(scaled, loads, profile, pos, costs)
            # a left fold, not sum(): from CPython 3.12 sum() adds floats
            # with compensation, which would change the regrets' last bits
            toll = 0.0
            for e in sorted(profile[pos]):
                toll += row[e]
            realized[pos] += toll
            for e, tau in row.items():
                cumulative[pos][e] += tau
            if collect_trace:
                trace.append(RegretTraceRow(
                    round=t, player=req.id, realized_toll=toll,
                    best_fixed_toll=_best_fixed_toll(graph, req, cumulative[pos])))

    regrets = tuple(
        realized[pos] - _best_fixed_toll(graph, req, cumulative[pos])
        for pos, req in enumerate(scaled.requests))
    return LApxResult(
        profile=out_profile,
        cost=total_cost(instance, out_profile),
        regrets=regrets,
        scale=scale,
        rounds=rounds,
        theoretical_rounds=theoretical,
        eta=eta,
        chosen_round=chosen,
        trace=tuple(trace),
    )


def regret_trace_to_csv(result: LApxResult) -> str:
    lines = ["round,player,realized_toll,best_fixed_toll"]
    for row in result.trace:
        lines.append(f"{row.round},{row.player},"
                     f"{format(row.realized_toll, '.9g')},{format(row.best_fixed_toll, '.9g')}")
    return "\n".join(lines) + "\n"
