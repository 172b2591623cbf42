"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is seeded; expected values come from independent oracles
(exhaustive enumeration, the closed-form constants, exact share formulas).
"""

import math
import statistics
import time

import pytest

from gndes import (
    AbrdConfig,
    total_cost,
)
from gndes.analysis import (
    brute_force_opt,
    enumerate_nash,
    poa_lower_bound_instance,
    potential,
    potential_by_prefix,
    potential_exactness_check,
    smoothness_check,
)
from gndes.bounds import gamma_alpha, harmonic, lambda_alpha
from gndes.engine import run_abrd, trace_to_csv
from gndes.fpl import FplConfig, run_l_apx
from gndes.instance import (
    Edge,
    ExponentProfile,
    HostGraph,
    Instance,
    Request,
    ResourceParams,
    Routing,
    rep_cost,
)
from gndes.oracles import routing_oracle
from gndes.rng import keyed_rng
from gndes.sharing import (
    ShareQuery,
    hoeffding_sample_count,
    proportional_share,
    rep_expansion_constants,
    shapley_exact,
    shapley_sampled,
)

from helpers import (
    random_connected_graph,
    random_explicit_instance,
    random_routing_instance,
    random_share_query,
    random_tolls,
    rng_for,
)

_SUITE_START = time.monotonic()

REL = 1e-9


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


# ---------------------------------------------------------------------------
# shared pools
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def instance_pool():
    """200 random instances with N <= 4 players and <= 5 resources."""
    rng = rng_for(2024)
    return [random_explicit_instance(rng, max_players=4, max_resources=5)
            for _ in range(200)]


def _random_profile(rng, inst):
    return tuple(
        req.kind.replies[int(rng.integers(len(req.kind.replies)))]
        for req in inst.requests)


@pytest.fixture(scope="module")
def ratio_runs():
    """Criterion-5 corpus: 50 brute-forceable runs with exact oracles."""
    rng = rng_for(555)
    runs = []
    for k in range(50):
        if k % 2 == 0:
            inst = random_explicit_instance(rng, max_players=4, max_resources=5)
        else:
            inst = random_routing_instance(rng, max_players=3)
        config = AbrdConfig(mechanism="shapley-exact", epsilon=0.01, seed=1000 + k)
        result = run_abrd(inst, config, brute_force=brute_force_opt)
        runs.append((inst, config, result))
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_budget_balance():
    rng = rng_for(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        q = random_share_query(rng, max_users=8, max_weight=5)
        full = rep_cost(q.resource, q.exponents, q.load)
        for share_fn in (proportional_share, shapley_exact):
            total = sum(
                share_fn(ShareQuery(q.resource, q.exponents, q.users, target=rid))
                for rid, _ in q.users)
            worst = max(worst, abs(total - full) / max(abs(full), 1e-12))
    elapsed = time.monotonic() - start
    assert worst <= REL
    assert elapsed < 5.0
    report(1, f"1000 random queries budget-balanced, worst gap {worst:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_02_potential_correctness(instance_pool):
    rng = rng_for(202)
    checked_orders = checked_deviations = 0
    for inst in instance_pool:
        profile = _random_profile(rng, inst)
        reference = potential(inst, profile)
        for variant in range(3):
            order_map = {}
            for res in inst.resources:
                users = [req.id for req, rep in zip(inst.requests, profile)
                         if res.id in rep]
                if variant == 1:
                    users = users[::-1]
                elif variant == 2:
                    users = [users[i] for i in rng.permutation(len(users))]
                order_map[res.id] = tuple(users)
            prefix = potential_by_prefix(inst, profile, order_map)
            assert abs(prefix - reference) <= REL * max(abs(reference), 1.0)
            checked_orders += 1
        for pos, req in enumerate(inst.requests):
            for alt in req.kind.replies:
                assert potential_exactness_check(inst, profile, pos, alt).ok
                checked_deviations += 1
    report(2, f"{len(instance_pool)} instances: {checked_orders} order checks, "
              f"{checked_deviations} deviation identities")


def test_criterion_03_bounded_potential(instance_pool):
    rng = rng_for(303)
    tested = 0
    for inst in instance_pool:
        b = math.ceil(inst.exponents.alpha_max)
        a = harmonic(inst.n_requests)
        for _ in range(100):
            profile = _random_profile(rng, inst)
            c = total_cost(inst, profile)
            phi = potential(inst, profile)
            slack = REL * max(c, phi, 1.0)
            assert c / b <= phi + slack
            assert phi <= a * c + slack
            tested += 1
    report(3, f"{tested} profiles inside [C/ceil(alpha), H_N*C], zero violations")


def test_criterion_04_smoothness():
    rng = rng_for(404)
    instances = []
    while len(instances) < 8:
        inst = random_explicit_instance(rng, max_players=4, max_resources=4)
        space = 1
        for req in inst.requests:
            space *= len(req.kind.replies)
        # keep instances whose full ordered-pair grid fits the 1e4 budget
        if 16 <= space <= 100:
            instances.append(inst)
    pairs_total = 0
    for inst in instances:
        for mechanism in ("proportional", "shapley-exact"):
            constants = rep_expansion_constants(mechanism, inst.exponents)
            lam = gamma_alpha(inst) + lambda_alpha(constants, inst.exponents.alpha_max)
            rep = smoothness_check(inst, mechanism, lam, 0.5, max_pairs=10_000)
            assert rep.ok
            pairs_total += rep.pairs_tested
    report(4, f"{pairs_total} ordered profile pairs over {len(instances)} instances, "
              f"both mechanisms, zero violations")


def test_criterion_05_end_to_end_ratio(ratio_runs):
    ratios = []
    for inst, config, result in ratio_runs:
        assert result.bounds.rho == 1.0
        limit = result.bounds.ratio_bound
        ratio = result.output_cost / result.opt_cost
        assert ratio <= limit * (1 + REL)
        ratios.append(ratio)
    median = statistics.median(ratios)
    # the median threshold is a sanity report, not an asserted guarantee
    report(5, f"{len(ratios)} runs within the ratio bound; median ratio "
              f"{median:.4f} (sanity target <= 1.5: {'met' if median <= 1.5 else 'MISSED'})")


def test_criterion_06_initialization_bound(ratio_runs):
    for inst, _, result in ratio_runs:
        p0_cost = result.trace[0].cost
        limit = inst.n_requests ** inst.exponents.alpha_max * result.opt_cost
        assert p0_cost <= limit * (1 + REL)
    report(6, f"C(p0) <= N^alpha_max * C* on all {len(ratio_runs)} instances")


def test_criterion_07_poa_family():
    for n in (2, 3, 4, 5):
        inst = poa_lower_bound_instance(float(n * n), 1.0, 2.0)
        direct = tuple(frozenset({f"e{i}"}) for i in range(1, n + 1))
        for mechanism in ("proportional", "shapley-exact"):
            rep = enumerate_nash(inst, mechanism)
            assert direct in rep.nash_profiles
            assert rep.poa >= n / 3.0
            constants = rep_expansion_constants(mechanism, inst.exponents)
            lam = gamma_alpha(inst) + lambda_alpha(constants, inst.exponents.alpha_max)
            assert rep.poa <= lam / (1 - 0.5)
    report(7, "N in {2,3,4,5}: all-direct is a NE under both mechanisms, "
              "PoA >= N/3 and below the smoothness ceiling")


def test_criterion_08_shapley_sampling():
    rng = rng_for(808)
    epsilon, delta = 0.1, 0.05
    trials = 1000
    in_band = 0
    for k in range(trials):
        exp = ExponentProfile((float(rng.uniform(1.1, 2.5)),))
        res = ResourceParams("r", float(rng.uniform(0.5, 5.0)),
                             (float(rng.uniform(0.1, 2.0)),))
        n = int(rng.integers(2, 5))
        users = tuple((i + 1, int(rng.integers(1, 4))) for i in range(n))
        target = int(rng.integers(1, n + 1))
        q = ShareQuery(res, exp, users, target=target)
        exact = shapley_exact(q)
        est = shapley_sampled(q, keyed_rng(k, "accept8"),
                              hoeffding_sample_count(q, epsilon, delta))
        if (1 - epsilon) * exact <= est <= (1 + epsilon) * exact:
            in_band += 1
    assert in_band / trials >= 0.95
    report(8, f"{in_band}/{trials} sampled shares inside the (1 +- 0.1) band")


def test_criterion_09_oracles():
    rng = rng_for(909)

    # routing against exhaustive path enumeration
    def all_paths(graph, source, target):
        out = []

        def dfs(u, visited, edges):
            if u == target:
                out.append(frozenset(edges))
                return
            for v, eid in graph.adjacency[u]:
                if v not in visited:
                    dfs(v, visited | {v}, edges + (eid,))

        dfs(source, {source}, ())
        return out

    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 9)), int(rng.integers(0, 4)))
        tolls = random_tolls(rng, g)
        verts = list(g.vertices)
        a, b = rng.choice(len(verts), size=2, replace=False)
        best = min(sum(tolls[e] for e in p) for p in all_paths(g, verts[a], verts[b]))
        ans = routing_oracle(g, verts[a], verts[b], tolls)
        assert abs(ans.toll_total - best) <= 1e-12 * max(1.0, best)

    # tree and forest oracles against subset brute force on <= 12 edges
    from itertools import combinations

    from gndes.instance import MultiRouting, SetConnectivity, validate_reply
    from gndes.oracles import steiner_forest_oracle, steiner_tree_oracle

    def subset_opt(graph, tolls, inst):
        ids = sorted(e.id for e in graph.edges)
        best = None
        for k in range(len(ids) + 1):
            for combo in combinations(ids, k):
                reply = frozenset(combo)
                if validate_reply(inst, inst.requests[0], reply):
                    tot = sum(tolls[e] for e in reply)
                    if best is None or tot < best:
                        best = tot
        return best

    checked = 0
    max_edges_seen = 0
    while checked < 30:
        g = random_connected_graph(rng, int(rng.integers(4, 9)), int(rng.integers(0, 6)))
        if len(g.edges) > 12:
            continue
        max_edges_seen = max(max_edges_seen, len(g.edges))
        tolls = random_tolls(rng, g)
        resources = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges)
        k = int(rng.integers(2, min(4, len(g.vertices)) + 1))
        terms = tuple(g.vertices[i]
                      for i in rng.choice(len(g.vertices), size=k, replace=False))
        tree_inst = Instance(ExponentProfile((2.0,)), resources,
                             (Request(id=1, kind=SetConnectivity(terms)),), g)
        ans = steiner_tree_oracle(g, terms, tolls)
        assert validate_reply(tree_inst, tree_inst.requests[0], ans.reply)
        assert ans.toll_total <= 2.0 * subset_opt(g, tolls, tree_inst) + 1e-9

        a, b = rng.choice(len(g.vertices), size=2, replace=False)
        c, d = rng.choice(len(g.vertices), size=2, replace=False)
        pairs = ((g.vertices[a], g.vertices[b]), (g.vertices[c], g.vertices[d]))
        forest_inst = Instance(ExponentProfile((2.0,)), resources,
                               (Request(id=1, kind=MultiRouting(pairs)),), g)
        ans = steiner_forest_oracle(g, pairs, tolls)
        assert validate_reply(forest_inst, forest_inst.requests[0], ans.reply)
        assert ans.toll_total <= 2.0 * subset_opt(g, tolls, forest_inst) + 1e-9
        checked += 1
    report(9, "routing exact on 100 graphs; tree/forest feasible and within "
              f"2x brute force on {checked} instances (up to {max_edges_seen} edges)")


def test_criterion_10_fpl_regret():
    g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
    inst = Instance(
        ExponentProfile((2.0,)),
        (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 5.0, (1.0,))),
        (Request(id=1, kind=Routing("s", "t")),),
        g,
    )
    v, m = 2, 2
    rates = []
    for rounds in (100, 400, 1600):
        regs = [run_l_apx(inst, FplConfig(seed=s, rounds=rounds)).regrets[0]
                for s in range(30)]
        mean = sum(regs) / len(regs)
        assert mean <= 2 * v * math.sqrt(m * rounds)
        rates.append(mean / rounds)
    assert rates[0] > rates[1] > rates[2]
    report(10, f"mean regret within 2|V|sqrt(|E|T') and regret/T' decreasing: "
               f"{[f'{r:.5f}' for r in rates]}")


def test_criterion_11_determinism(ratio_runs):
    for inst, config, result in ratio_runs:
        rerun = run_abrd(inst, config, brute_force=brute_force_opt)
        assert trace_to_csv(rerun) == trace_to_csv(result)
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 300.0
    report(11, f"{len(ratio_runs)} re-runs byte-identical; acceptance suite took "
               f"{elapsed:.1f}s (< 300s)")
