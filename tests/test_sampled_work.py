"""Claim (3): a ``shapley-sampled`` run does only polynomial work.

Exact weighted Shapley shares need counting tables that grow with the
weights, so sampled shares are what keep a run strongly polynomial.  A
sampled run tracks no potential (``engine.run_abrd``), and it builds a
counting table only for a share that ``sharing.samples_needed`` left
exact.  These tests run sampled dynamics with ``ProfileState.potential``
made to fail, record every table ``sharing.subset_sums_by_size`` builds,
and check each against the weight multisets of the queries that
``samples_needed`` settled as exact.
"""

import pytest

from gndes import (AbrdConfig, ExponentProfile, Instance, MachineChoice, Request,
                   ResourceParams, analysis, engine, run_abrd, sharing)

from helpers import seeded_case
from test_engine import heavy_players_on_parallel_edges


def heavy_machines(n, machines=2):
    """n machine-choice players of weights 10^5 + 7 * 2^i, whose subset sums
    all differ, on machines with sigma = xi = 1 and alpha = 1.5."""
    ids = tuple(f"m{k}" for k in range(1, machines + 1))
    res = tuple(ResourceParams(m, 1.0, (1.0,)) for m in ids)
    reqs = tuple(Request(id=i + 1, kind=MachineChoice(ids), default_weight=100_000 + 7 * 2 ** i)
                 for i in range(n))
    return Instance(ExponentProfile((1.5,)), res, reqs)


@pytest.fixture
def table_log(monkeypatch):
    """Watch a run: ``ProfileState.potential`` fails if called, and the
    returned dict collects the weight tuples of the queries that
    ``samples_needed`` left exact ("exact") and the tables built, each as
    its weight tuple and cell count ("built")."""
    log = {"exact": set(), "built": []}
    needed, build = engine.samples_needed, sharing.subset_sums_by_size

    def watched_needed(query, epsilon, delta):
        m = needed(query, epsilon, delta)
        if m == 0:
            log["exact"].add(tuple(sorted(w for i, w in query.users if i != query.target)))
        return m

    def watched_build(weights):
        table = build(weights)
        log["built"].append((tuple(weights), sum(map(len, table))))
        return table

    def no_potential(state):
        raise AssertionError("a sampled run priced the potential")

    monkeypatch.setattr(engine, "samples_needed", watched_needed)
    monkeypatch.setattr(sharing, "subset_sums_by_size", watched_build)
    monkeypatch.setattr(analysis.ProfileState, "potential", no_potential)
    return log


def assert_only_exact_tables(log):
    assert log["built"]
    for weights, _ in log["built"]:
        assert weights in log["exact"]


@pytest.mark.parametrize("case", ["routing", "steiner", "forest", "directed", "explicit"])
def test_seeded_cases_build_only_the_tables_of_exact_shares(table_log, case):
    inst, _ = seeded_case(case)
    result = run_abrd(inst, AbrdConfig(mechanism="shapley-sampled", step_budget_override=4))
    assert all(rec.potential is None for rec in result.trace)
    assert_only_exact_tables(table_log)


@pytest.mark.parametrize("make, config", [
    (lambda: heavy_players_on_parallel_edges([100_000 + 7 * 2 ** k for k in range(12)]),
     AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=2, step_budget_override=4)),
    (lambda: heavy_machines(10, machines=4),
     AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=3, selection="randomized",
                output="last", step_budget_override=8)),
], ids=["parallel-edges", "four-machines-randomized"])
def test_sampling_runs_build_only_the_tables_of_exact_shares(table_log, make, config):
    result = run_abrd(make(), config)
    assert result.sampled_shares > 0
    assert_only_exact_tables(table_log)


@pytest.mark.parametrize("n", [16, 18, 20])
def test_heavy_weights_build_few_table_cells(table_log, n):
    # every share on the crowded machine is sampled; a table of its users
    # would have 2^(n-1) cells or more, the potential's 2^n
    result = run_abrd(heavy_machines(n), AbrdConfig(mechanism="shapley-sampled", epsilon=0.15,
                                                    step_budget_override=3))
    assert result.sampled_shares >= 3 * n
    assert_only_exact_tables(table_log)
    assert sum(cells for _, cells in table_log["built"]) <= 16
