import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from gndes import (
    ConfigError,
    Edge,
    InfeasibleError,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    Request,
    ResourceParams,
    Routing,
    analysis,
    fpl,
    rep_cost,
    sharing,
)
from gndes.analysis import brute_force_opt, candidate_replies
from gndes.bounds import smoothness_constants
from gndes.fpl import (
    ROUNDS_CAP,
    FplConfig,
    fpl_step,
    normalize_costs,
    run_l_apx,
    theoretical_round_count,
)
from gndes.instance import total_cost
from gndes.rng import keyed_rng

from helpers import (
    random_connected_graph,
    random_exponents,
    random_resource,
    reference_proportional_toll_rows,
    rng_for,
)


def single_edge_instance():
    g = HostGraph(False, ("s", "t"), (Edge("e", "s", "t"),))
    return Instance(
        ExponentProfile((2.0,)),
        (ResourceParams("e", 6.0, (1.0,)),),
        (Request(id=1, kind=Routing("s", "t"), weights={"e": 3}),),
        g,
    )


def two_edge_instance(sigma2=5.0):
    g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
    return Instance(
        ExponentProfile((2.0,)),
        (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", sigma2, (1.0,))),
        (Request(id=1, kind=Routing("s", "t")),),
        g,
    )


def grid_instance(rng, k, n_players):
    """k x k undirected grid, one resource per edge, weighted random pairs."""
    v = lambda i, j: f"v{i}_{j}"
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append(Edge(f"h{i}_{j}", v(i, j), v(i, j + 1)))
            if i + 1 < k:
                edges.append(Edge(f"d{i}_{j}", v(i, j), v(i + 1, j)))
    graph = HostGraph(False, tuple(v(i, j) for i in range(k) for j in range(k)), tuple(edges))
    return routing_instance(rng, graph, n_players)


def parallel_edge_instance(rng, n_players):
    """A chain of two or three hops, each a bundle of one to three parallel edges."""
    hops = int(rng.integers(2, 4))
    edges = [Edge(f"p{h}_{b}", f"u{h}", f"u{h + 1}")
             for h in range(hops) for b in range(int(rng.integers(1, 4)))]
    graph = HostGraph(False, tuple(f"u{h}" for h in range(hops + 1)), tuple(edges))
    return routing_instance(rng, graph, n_players)


def routing_instance(rng, graph, n_players):
    exp = random_exponents(rng)
    resources = tuple(random_resource(rng, e.id, exp.q) for e in graph.edges)
    requests = []
    for i in range(1, n_players + 1):
        a, b = rng.choice(len(graph.vertices), size=2, replace=False)
        weights = {e.id: int(rng.integers(1, 4)) for e in graph.edges if rng.random() < 0.3}
        requests.append(Request(id=i, kind=Routing(graph.vertices[a], graph.vertices[b]),
                                weights=weights, default_weight=int(rng.integers(1, 3))))
    return Instance(exp, resources, tuple(requests), graph)


def enumerated_run_l_apx(instance, seed, rounds):
    """Reference: FPL with the best fixed path found by keeping a running
    total for every enumerated simple path, and loads rebuilt per player.
    Returns (output profile, cost, chosen round, regrets, trace rows,
    each player's total realized toll)."""
    scaled, _ = normalize_costs(instance)
    n = scaled.n_requests
    eta = (rounds / len(scaled.graph.edges)) ** 0.5
    cumulative = [{r.id: 0.0 for r in scaled.resources} for _ in range(n)]
    path_totals = [dict.fromkeys(candidate_replies(scaled, req), 0.0) for req in scaled.requests]
    realized = [0.0] * n
    profiles, trace = [], []
    for t in range(1, rounds + 1):
        profile = tuple(
            fpl_step(scaled.graph, req.kind.source, req.kind.target, cumulative[pos], eta,
                     keyed_rng(seed, "fpl", t, req.id))
            for pos, req in enumerate(scaled.requests))
        profiles.append(profile)
        for pos, req in enumerate(scaled.requests):
            loads = {r.id: 0 for r in scaled.resources}
            for other, reply in zip(scaled.requests, profile):
                for e in reply:
                    loads[e] += other.weight(e)
            row = {}
            for res in scaled.resources:
                w = req.weight(res.id)
                joined = loads[res.id] + (0 if res.id in profile[pos] else w)
                row[res.id] = (w / joined) * rep_cost(res, scaled.exponents, joined)
            toll = sum(row[e] for e in profile[pos])
            realized[pos] += toll
            for e, tau in row.items():
                cumulative[pos][e] += tau
            for path in path_totals[pos]:
                path_totals[pos][path] += sum(row[e] for e in path)
            trace.append((t, req.id, toll, min(path_totals[pos].values())))
    regrets = [realized[pos] - min(path_totals[pos].values()) for pos in range(n)]
    chosen = int(keyed_rng(seed, "output").integers(1, rounds + 1))
    out = profiles[chosen - 1]
    return out, total_cost(instance, out), chosen, regrets, trace, realized


class TestNormalization:
    def test_single_edge_scale(self):
        scaled, scale = normalize_costs(single_edge_instance())
        assert scale == pytest.approx(15.0)
        assert rep_cost(scaled.resources[0], scaled.exponents, 3) == pytest.approx(1.0)

    def test_small_instance_is_scaled_up(self):
        # the largest conceivable cost reaches 1 whatever the cost unit
        g = HostGraph(False, ("s", "t"), (Edge("e", "s", "t"),))
        inst = Instance(
            ExponentProfile((2.0,)),
            (ResourceParams("e", 0.1, (0.05,)),),
            (Request(id=1, kind=Routing("s", "t")),),
            g,
        )
        scaled, scale = normalize_costs(inst)
        assert scale == pytest.approx(0.15)
        assert scaled.resources[0].sigma == pytest.approx(2.0 / 3.0)
        assert rep_cost(scaled.resources[0], scaled.exponents, 1) == pytest.approx(1.0)

    def test_scale_comes_from_worst_edge(self):
        inst = two_edge_instance()
        _, scale = normalize_costs(inst)
        assert scale == pytest.approx(6.0)  # F_e2(1) = 5 + 1 over F_e1(1) = 2

    def test_rejects_non_routing(self):
        inst = Instance(
            ExponentProfile((2.0,)),
            (ResourceParams("m", 1.0, (1.0,)),),
            (Request(id=1, kind=MachineChoice(("m",))),),
        )
        with pytest.raises(ConfigError):
            normalize_costs(inst)

    def test_normalization_preserves_argmin(self):
        rng = rng_for(71)
        for _ in range(10):
            inst = two_edge_instance(sigma2=float(rng.uniform(0.5, 8.0)))
            scaled, _ = normalize_costs(inst)
            p_orig, _ = brute_force_opt(inst)
            p_scaled, _ = brute_force_opt(scaled)
            assert p_orig == p_scaled


class TestFplStep:
    def test_single_path_always_chosen(self):
        g = HostGraph(False, ("s", "t"), (Edge("e", "s", "t"),))
        for seed in range(5):
            reply = fpl_step(g, "s", "t", {"e": 0.3}, 1.0, keyed_rng(seed))
            assert reply == frozenset({"e"})

    def test_zero_tolls_split_evenly(self):
        g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
        counts = {"e1": 0, "e2": 0}
        trials = 800
        for seed in range(trials):
            reply = fpl_step(g, "s", "t", {}, 1.0, keyed_rng(seed, "fair"))
            counts[next(iter(reply))] += 1
        # chi-squared with 1 dof at the 0.001 level
        expected = trials / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 10.83

    def test_large_gap_dominates_perturbation(self):
        g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
        for seed in range(20):
            reply = fpl_step(g, "s", "t", {"e1": 0.0, "e2": 100.0}, 1.0, keyed_rng(seed))
            assert reply == frozenset({"e1"})


class TestRunLApx:
    def test_single_path_zero_regret(self):
        result = run_l_apx(single_edge_instance(), FplConfig(seed=1, rounds=50))
        assert result.regrets[0] == pytest.approx(0.0, abs=1e-12)
        assert result.cost == pytest.approx(15.0)

    def test_graph_without_edges_is_infeasible(self):
        inst = Instance(ExponentProfile((2.0,)), (ResourceParams("e", 1.0, (1.0,)),),
                        (Request(id=1, kind=Routing("a", "b")),),
                        HostGraph(False, ("a", "b"), ()))
        for rounds in (None, 5):
            with pytest.raises(InfeasibleError, match="no path from 'a' to 'b'"):
                run_l_apx(inst, FplConfig(rounds=rounds))

    def test_regret_rate_decreases(self):
        inst = two_edge_instance()
        rates = []
        for rounds in (100, 400, 1600):
            regs = []
            for seed in range(10):
                r = run_l_apx(inst, FplConfig(seed=seed, rounds=rounds))
                regs.append(r.regrets[0])
            rates.append(sum(regs) / len(regs) / rounds)
        assert rates[0] > rates[1] > rates[2]

    def test_regret_bound(self):
        inst = two_edge_instance()
        v, m = 2, 2
        for rounds in (100, 400):
            regs = [run_l_apx(inst, FplConfig(seed=s, rounds=rounds)).regrets[0]
                    for s in range(10)]
            assert sum(regs) / len(regs) <= 2 * v * math.sqrt(m * rounds)

    def test_deterministic_per_seed(self):
        inst = two_edge_instance()
        a = run_l_apx(inst, FplConfig(seed=9, rounds=60), collect_trace=True)
        b = run_l_apx(inst, FplConfig(seed=9, rounds=60), collect_trace=True)
        assert a.profile == b.profile and a.regrets == b.regrets and a.trace == b.trace

    def test_theoretical_round_count(self):
        inst = two_edge_instance()
        assert theoretical_round_count(inst) == 4 * 1 * 4 * 2
        result = run_l_apx(inst, FplConfig(seed=0))
        assert result.rounds == min(32, ROUNDS_CAP)
        assert result.theoretical_rounds == 32

    def test_two_player_cost_within_smooth_bound(self):
        # average output cost over seeds against the conditional guarantee
        # 2 (lambda + 1/LB) C'*, lambda = gamma_alpha + lambda_alpha of the
        # exact game, with LB = C'* known by brute force
        g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
        inst = Instance(
            ExponentProfile((2.0,)),
            (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,))),
            tuple(Request(id=i, kind=Routing("s", "t")) for i in (1, 2)),
            g,
        )
        scaled, scale = normalize_costs(inst)
        _, opt_scaled = brute_force_opt(scaled)
        lam, _ = smoothness_constants(inst, "proportional")
        bound = 2 * (lam + 1 / opt_scaled)
        costs = [run_l_apx(inst, FplConfig(seed=s, rounds=200)).cost / scale
                 for s in range(10)]
        assert sum(costs) / len(costs) <= bound * opt_scaled

    def test_each_resource_load_is_priced_once_per_round(self, monkeypatch):
        # unit players see one of two joined loads on a resource in a round,
        # the load itself or one more, so a round prices at most 2|E| costs
        inst = grid_instance(rng_for(75), 3, 6)
        inst = Instance(inst.exponents, inst.resources,
                        tuple(Request(id=r.id, kind=r.kind) for r in inst.requests), inst.graph)
        expected = run_l_apx(inst, FplConfig(seed=4, rounds=5), collect_trace=True)
        priced = []
        monkeypatch.setattr(sharing, "rep_cost",
                            lambda res, exp, load: priced.append(load) or rep_cost(res, exp, load))
        result = run_l_apx(inst, FplConfig(seed=4, rounds=5), collect_trace=True)
        edges = len(inst.graph.edges)
        assert 0 < len(priced) <= edges + 2 * edges * 5 < edges + 6 * edges * 5
        assert result.regrets == expected.regrets and result.trace == expected.trace

    def test_a_run_moves_one_state(self, monkeypatch):
        # one state, at the all-empty profile, serves every round's toll pass
        inst = grid_instance(rng_for(76), 3, 4)
        built = []
        init = analysis.ProfileState.__init__
        monkeypatch.setattr(analysis.ProfileState, "__init__",
                            lambda state, instance, profile: built.append(profile)
                            or init(state, instance, profile))
        run_l_apx(inst, FplConfig(seed=3, rounds=12))
        assert built == [(frozenset(),) * inst.n_requests]


def small_routing_instance(rng, directed):
    """Three to six vertices, one to five players, every weight in 1..3;
    a directed pair is drawn among the vertices its source reaches."""
    exp = random_exponents(rng)
    graph = random_connected_graph(rng, int(rng.integers(3, 7)), int(rng.integers(0, 5)),
                                   directed)
    requests = []
    for i in range(1, int(rng.integers(1, 6)) + 1):
        source = graph.vertices[int(rng.integers(len(graph.vertices)))]
        root = graph.indexed_adjacency[0][source]
        reached = graph.walk(root, {e.id for e in graph.edges})
        targets = [graph.vertices[v] for v in sorted(reached) if v != root]
        if not targets:
            return None
        weights = {e.id: int(rng.integers(1, 4)) for e in graph.edges if rng.random() < 0.5}
        target = targets[int(rng.integers(len(targets)))]
        requests.append(Request(id=i, kind=Routing(source, target), weights=weights,
                                default_weight=int(rng.integers(1, 4))))
    resources = tuple(random_resource(rng, e.id, exp.q) for e in graph.edges)
    return Instance(exp, resources, tuple(requests), graph)


def run_digest(result):
    return (result.profile, result.cost.hex(), [r.hex() for r in result.regrets],
            result.scale.hex(), result.chosen_round,
            [(row.round, row.player, row.realized_toll.hex(), row.best_fixed_toll.hex())
             for row in result.trace])


class CheckedView(fpl.PassView):
    """A round's toll pass that checks each row against the proportional
    rows FPL priced itself before (``helpers.reference_proportional_toll_rows``)."""

    rows_checked = 0

    def tolls(self, position):
        row = super().tolls(position)
        expected = reference_proportional_toll_rows(self.instance, self.profile)[position]
        assert {e: t.hex() for e, t in row.items()} == {e: t.hex() for e, t in expected.items()}
        CheckedView.rows_checked += 1
        return row


class ReferenceView:
    """A round priced by the reference rows alone."""

    def __init__(self, state, config, step, delta):
        self.rows = reference_proportional_toll_rows(state.instance, state.profile)

    def tolls(self, position):
        return self.rows[position]


class TestOneTollPass:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), directed=st.booleans(),
           rounds=st.integers(min_value=1, max_value=6))
    def test_each_round_prices_the_reference_rows(self, seed, directed, rounds):
        inst = small_routing_instance(rng_for(seed), directed)
        assume(inst is not None)
        config = FplConfig(seed=seed % 97, rounds=rounds)
        plain = run_l_apx(inst, config, collect_trace=True)
        with pytest.MonkeyPatch.context() as patch:
            CheckedView.rows_checked = 0
            patch.setattr(fpl, "PassView", CheckedView)
            checked = run_l_apx(inst, config, collect_trace=True)
            assert CheckedView.rows_checked == rounds * inst.n_requests
            patch.setattr(fpl, "PassView", ReferenceView)
            reference = run_l_apx(inst, config, collect_trace=True)
        assert run_digest(plain) == run_digest(checked) == run_digest(reference)


class TestHindsightByShortestPath:
    def check_against_enumeration(self, inst, seed, rounds):
        profile, cost, chosen, regrets, trace, realized = enumerated_run_l_apx(inst, seed, rounds)
        result = run_l_apx(inst, FplConfig(seed=seed, rounds=rounds), collect_trace=True)
        assert result.profile == profile
        assert result.cost == cost
        assert result.chosen_round == chosen
        total = dict(zip((req.id for req in inst.requests), realized))
        for pos, req in enumerate(inst.requests):
            assert abs(result.regrets[pos] - regrets[pos]) <= 1e-12 * total[req.id]
        assert len(result.trace) == len(trace)
        for row, (t, player, toll, best) in zip(result.trace, trace):
            assert (row.round, row.player) == (t, player)
            assert abs(row.realized_toll - toll) <= 1e-12 * total[player]
            assert abs(row.best_fixed_toll - best) <= 1e-12 * total[player]

    def test_grids_match_enumeration(self):
        rng = rng_for(72)
        for case in range(10):
            inst = grid_instance(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
            self.check_against_enumeration(inst, seed=case, rounds=int(rng.integers(1, 25)))

    def test_parallel_edges_match_enumeration(self):
        rng = rng_for(73)
        for case in range(10):
            inst = parallel_edge_instance(rng, int(rng.integers(1, 5)))
            self.check_against_enumeration(inst, seed=case, rounds=int(rng.integers(1, 25)))

    def test_six_by_six_grid_needs_no_enumeration(self):
        # many vertex pairs of a 6x6 grid have over 10,000 simple paths
        inst = grid_instance(rng_for(74), 6, 4)
        result = run_l_apx(inst, FplConfig(seed=3, rounds=5))
        assert len(result.regrets) == 4
        assert all(math.isfinite(r) for r in result.regrets)
