"""Learning-based alternative for routing-only instances.

Each player runs follow-the-perturbed-leader over her cumulative
proportional-fair tolls: in every round she takes the cheapest path under
(cumulative toll + fresh uniform perturbation), all players move
simultaneously, and the output is the profile of a uniformly random round.
Costs are pre-scaled so every per-edge share lies in [0, 1], which the
regret bound needs.

A round of FPL is a toll pass of the proportional game: one
``engine.PassView`` over the run's one ``analysis.ProfileState``, which
starts at the all-empty profile and each round moves the players whose
reply changed.  So a player's tolls are her proportional shares with her
joined to each edge's users, recomputed only on the edges whose users
changed since the round before.

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

from .analysis import ProfileState
from .engine import AbrdConfig, PassView
from .errors import ConfigError, InfeasibleError
from .instance import (
    HostGraph,
    Instance,
    Request,
    ResourceParams,
    Routing,
    StrategyProfile,
    left_sum,
    rep_cost,
    total_cost,
)
from .io import csv_text
from .oracles import routing_oracle
from .rng import keyed_rng

ROUNDS_CAP = 100_000

# the settings of a round's toll pass
PROPORTIONAL = AbrdConfig(mechanism="proportional")


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
    so any conceivable per-edge share lies in [0, 1], the largest reaching
    1 whatever the instance's cost unit: multiplying every cost by a power
    of two multiplies S by it and leaves the scaled instance unchanged."""
    for req in instance.requests:
        if not isinstance(req.kind, Routing):
            raise ConfigError("cost normalization applies to routing-only instances")
    worst_load = sum(
        max(req.weight(res.id) for res in instance.resources)
        for req in instance.requests)
    scale = max(rep_cost(res, instance.exponents, worst_load) for res in instance.resources)
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
        e.id: cumulative.get(e.id, 0.0) + float(u)
        for e, u in zip(graph.edges, noise)
    }
    return routing_oracle(graph, source, target, tolls).reply


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
    # the output round is drawn as a 64-bit integer
    if not 1 <= rounds < 2 ** 63:
        raise ConfigError(f"round count must lie in [1, 2^63 - 1], got {rounds}")
    eta = (rounds / m) ** 0.5

    chosen = int(keyed_rng(config.seed, "output").integers(1, rounds + 1))
    cumulative = [{res.id: 0.0 for res in scaled.resources} for _ in range(n)]
    realized = [0.0] * n
    trace: list[RegretTraceRow] = []
    state = ProfileState(scaled, (frozenset(),) * n)

    for t in range(1, rounds + 1):
        for pos, req in enumerate(scaled.requests):
            rng = keyed_rng(config.seed, "fpl", t, req.id)
            reply = fpl_step(graph, req.kind.source, req.kind.target, cumulative[pos], eta, rng)
            if reply != state.profile[pos]:
                state.move(pos, reply)
        profile = state.profile
        if t == chosen:
            out_profile = profile
        # delta is read only under shapley-sampled
        view = PassView(state, PROPORTIONAL, t, 0.1)
        for pos, req in enumerate(scaled.requests):
            row = view.tolls(pos)
            toll = left_sum(row[e] for e in sorted(profile[pos]))
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
    return csv_text("round,player,realized_toll,best_fixed_toll",
                    ((row.round, row.player, row.realized_toll, row.best_fixed_toll)
                     for row in result.trace))
