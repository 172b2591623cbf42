"""Seeded instance generators for the benchmark workloads.

Every generator takes the workload seed and returns a batch of ``Job``s: an
instance plus the solver settings the benchmark runs it with.  The same seed
always yields the same batch.  Why each workload exists is recorded in
BENCHMARK.json.  A batch holds several instances, each solved for a fixed
number of steps or rounds, so one pass does about the same amount of work
whatever the seed; the sizes keep a pass to a few seconds on one core while
preserving the layer each workload is meant to stress.

Run this file to see what a seed generates::

    python3 bench/workloads.py --seed 1 [--workload grid-prop]

It prints each instance's players, resources and the largest number of
users on one resource in the dynamics' starting profile.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

# the library is imported from the checkout this file sits in, never from an
# installed copy, so the benchmark always measures the sources beside it
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "gndes" / "__init__.py").is_file():
    raise SystemExit(f"error: no gndes sources at {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from gndes import (  # noqa: E402
    AbrdConfig,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    FplConfig,
    HostGraph,
    Instance,
    MachineChoice,
    MultiRouting,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    initial_profile,
)


@dataclass(frozen=True)
class Job:
    label: str
    instance: Instance
    config: Union[AbrdConfig, FplConfig]


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def _grid(rows: int, cols: int, prefix: str = "") -> tuple[list[str], list[Edge]]:
    """Undirected rows x cols grid; vertex ``{prefix}r{i}c{j}``."""
    def v(i, j):
        return f"{prefix}r{i}c{j}"
    vertices = [v(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append(Edge(f"{prefix}h{i}_{j}", v(i, j), v(i, j + 1)))
            if i + 1 < rows:
                edges.append(Edge(f"{prefix}v{i}_{j}", v(i, j), v(i + 1, j)))
    return vertices, edges


def _resources(rng: np.random.Generator, edges: list[Edge],
               xi_ranges: tuple[tuple[float, float], ...]) -> tuple[ResourceParams, ...]:
    return tuple(
        ResourceParams(e.id, float(rng.uniform(5.0, 20.0)),
                       tuple(float(rng.uniform(lo, hi)) for lo, hi in xi_ranges))
        for e in edges)


def _routing_grid(rng: np.random.Generator, size: int, players: int,
                  max_weight: int, rows: Optional[tuple[int, ...]] = None) -> Instance:
    """size x size grid, one resource per edge, alpha 2, routing players from
    a left-column vertex to a right-column vertex, each in a random row drawn
    from ``rows`` (every row when None)."""
    vertices, edges = _grid(size, size)
    rows = tuple(range(size)) if rows is None else rows
    requests = tuple(
        Request(id=i, kind=Routing(f"r{rows[int(rng.integers(len(rows)))]}c0",
                                   f"r{rows[int(rng.integers(len(rows)))]}c{size - 1}"),
                default_weight=int(rng.integers(1, max_weight + 1)))
        for i in range(1, players + 1))
    return Instance(ExponentProfile((2.0,)), _resources(rng, edges, ((0.1, 0.5),)),
                    requests, HostGraph(False, tuple(vertices), tuple(edges)))


def _solver_seed(seed: int, k: int) -> int:
    """Each instance of a batch gets its own solver seed, so random choices
    (FPL's output round, sampled shares) do not repeat across the batch."""
    return seed * 1000 + k


GRID_PROP_INSTANCES = 8
GRID_PROP_SIZE = 8
GRID_PROP_PLAYERS = 60
GRID_PROP_STEPS = 6           # convergence takes 20-50 steps at this size


def grid_prop(seed: int) -> list[Job]:
    return [Job(f"grid{k}",
                _routing_grid(_rng(seed, 1, k), GRID_PROP_SIZE, GRID_PROP_PLAYERS, 1),
                AbrdConfig(mechanism="proportional", seed=_solver_seed(seed, k),
                           step_budget_override=GRID_PROP_STEPS))
            for k in range(GRID_PROP_INSTANCES)]


STEINER_INSTANCES = 40
STEINER_PLAYERS = 12          # the exact-Shapley ceiling: every player uses the bridge
STEINER_STEPS = 2             # convergence takes 2-11 steps per instance


def _barbell(rng: np.random.Generator) -> Instance:
    """Two 3x3 grids joined by one bridge edge; every request has terminals
    in both halves, so every reply crosses the bridge."""
    left_v, left_e = _grid(3, 3, "L")
    right_v, right_e = _grid(3, 3, "R")
    bridge = Edge("bridge", f"Lr{int(rng.integers(3))}c2", f"Rr{int(rng.integers(3))}c0")
    edges = left_e + right_e + [bridge]
    requests = []
    for i in range(1, STEINER_PLAYERS + 1):
        weight = int(rng.integers(1, 4))
        if i % 2:
            terms = [str(rng.choice(left_v)), str(rng.choice(right_v))]
            third = [v for v in left_v + right_v if v not in terms]
            terms.append(str(rng.choice(third)))
            kind = SetConnectivity(tuple(terms))
        else:
            kind = MultiRouting(tuple((str(rng.choice(left_v)), str(rng.choice(right_v)))
                                      for _ in range(2)))
        requests.append(Request(id=i, kind=kind, default_weight=weight))
    return Instance(ExponentProfile((2.0, 3.0)),
                    _resources(rng, edges, ((0.1, 0.5), (0.01, 0.05))),
                    tuple(requests), HostGraph(False, tuple(left_v + right_v), tuple(edges)))


def steiner_shapley(seed: int) -> list[Job]:
    return [Job(f"barbell{k}", _barbell(_rng(seed, 2, k)),
                AbrdConfig(mechanism="shapley-exact", seed=_solver_seed(seed, k),
                           step_budget_override=STEINER_STEPS))
            for k in range(STEINER_INSTANCES)]


MACHINES_INSTANCES = 20
MACHINES_PLAYERS = 6
MACHINES_STEPS = 1            # convergence takes 2-5 steps per instance


def _machines(rng: np.random.Generator) -> Instance:
    """Four machines; odd players pick one of three machines, even players
    one of three listed machine pairs."""
    machines = [f"m{k}" for k in range(4)]
    resources = tuple(ResourceParams(m, float(rng.uniform(5.0, 20.0)),
                                     (float(rng.uniform(0.1, 0.5)),)) for m in machines)
    pairs = [frozenset((a, b)) for k, a in enumerate(machines) for b in machines[k + 1:]]
    requests = []
    for i in range(1, MACHINES_PLAYERS + 1):
        if i % 2:
            allowed = rng.choice(len(machines), size=3, replace=False)
            kind = MachineChoice(tuple(machines[k] for k in sorted(allowed)))
        else:
            picks = rng.choice(len(pairs), size=3, replace=False)
            kind = ExplicitReplies(tuple(pairs[k] for k in sorted(picks)))
        requests.append(Request(id=i, kind=kind, default_weight=int(rng.integers(1, 5))))
    return Instance(ExponentProfile((2.0,)), resources, tuple(requests))


def machines_sampled(seed: int) -> list[Job]:
    return [Job(f"machines{k}", _machines(_rng(seed, 3, k)),
                AbrdConfig(mechanism="shapley-sampled", seed=_solver_seed(seed, k),
                           step_budget_override=MACHINES_STEPS))
            for k in range(MACHINES_INSTANCES)]


FPL_INSTANCES = 4
FPL_SIZE = 5                  # 6x6 exceeds the path enumeration cap
FPL_PLAYERS = 6
FPL_ROUNDS = 10               # enough rounds that per-round bookkeeping outweighs enumeration
# players run between rows 1 and 3, where every source/target pair has
# 5.2k-5.3k simple paths; over all rows the count ranges from 3.9k to 8.6k,
# which would make per-round work depend on the seed more than on the code
FPL_ROWS = (1, 3)


def fpl_grid(seed: int) -> list[Job]:
    return [Job(f"fplgrid{k}",
                _routing_grid(_rng(seed, 4, k), FPL_SIZE, FPL_PLAYERS, 2, FPL_ROWS),
                FplConfig(seed=_solver_seed(seed, k), rounds=FPL_ROUNDS))
            for k in range(FPL_INSTANCES)]


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "grid-prop": grid_prop,
    "steiner-shapley": steiner_shapley,
    "machines-sampled": machines_sampled,
    "fpl-grid": fpl_grid,
}


def describe(job: Job) -> str:
    inst = job.instance
    users: dict[str, int] = {}
    for reply in initial_profile(inst):
        for e in reply:
            users[e] = users.get(e, 0) + 1
    kinds = sorted({type(r.kind).__name__ for r in inst.requests})
    weights = sorted({r.default_weight for r in inst.requests})
    return (f"{job.label}: players={inst.n_requests} resources={len(inst.resources)} "
            f"max_users_per_resource={max(users.values())} "
            f"weights={weights[0]}-{weights[-1]} kinds={','.join(kinds)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        print(f"{name} (seed {args.seed})")
        for job in WORKLOADS[name](args.seed):
            print("  " + describe(job))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
