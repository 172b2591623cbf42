import runpy
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from gndes import (
    AbrdConfig,
    ConfigError,
    Edge,
    EnumerationLimitError,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    InfeasibleError,
    Instance,
    InstanceError,
    MachineChoice,
    MultiRouting,
    ProfileState,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    ShareQuery,
    initial_profile,
    run_abrd,
    total_cost,
)
from gndes import analysis
from gndes.analysis import (
    MAX_PATHS,
    MAX_PROFILES,
    brute_force_opt,
    budget_balance_check,
    candidate_replies,
    enumerate_nash,
    enumerate_profiles,
    nash_report_csv,
    poa_lower_bound_instance,
    potential,
    potential_bounds_check,
    potential_by_prefix,
    potential_exactness_check,
    smoothness_check,
    smoothness_report_csv,
)
from gndes.bounds import harmonic, smoothness_constants
from gndes.io import csv_text

from helpers import (
    grid_graph,
    random_connected_graph,
    random_explicit_instance,
    random_exponents,
    random_resource,
    random_toll_multigraph,
    reference_player_cost,
    reference_simple_paths,
    reference_smoothness_rows,
    rng_for,
)


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def one_edge_instance(weights=(1, 2), sigma=6.0):
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("m", sigma, (1.0,)),)
    reqs = tuple(
        Request(id=i + 1, kind=ExplicitReplies((frozenset({"m"}),)), weights={"m": w})
        for i, w in enumerate(weights))
    return Instance(exp, res, reqs)


def parallel_edges_instance():
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    reqs = tuple(
        Request(id=i, kind=ExplicitReplies((frozenset({"e1"}), frozenset({"e2"}))))
        for i in (1, 2))
    return Instance(exp, res, reqs)


class TestPotential:
    def test_two_user_example(self):
        inst = one_edge_instance()
        p = (frozenset({"m"}), frozenset({"m"}))
        assert potential(inst, p) == pytest.approx(16.0)

    def test_single_user_equals_full_cost(self):
        inst = one_edge_instance(weights=(3,))
        p = (frozenset({"m"}),)
        assert potential(inst, p) == pytest.approx(15.0)

    def test_unused_edges_contribute_nothing(self):
        inst = parallel_edges_instance()
        p = (frozenset({"e1"}), frozenset({"e1"}))
        only_e1 = potential(inst, p)
        assert only_e1 == pytest.approx(
            1.0 * harmonic(2) + (1 + 1) / 2 + 4 / 2)

    def test_prefix_form_matches_for_any_order(self):
        inst = one_edge_instance()
        p = (frozenset({"m"}), frozenset({"m"}))
        assert potential_by_prefix(inst, p) == pytest.approx(16.0)
        assert potential_by_prefix(inst, p, {"m": (2, 1)}) == pytest.approx(16.0)

    def test_prefix_equivalence_random_sweep(self):
        rng = rng_for(51)
        for _ in range(20):
            inst = random_explicit_instance(rng, max_players=4, max_resources=4)
            profile = tuple(req.kind.replies[0] for req in inst.requests)
            reference = potential(inst, profile)
            for variant in range(3):
                order_map = {}
                for res in inst.resources:
                    users = [req.id for req, rep in zip(inst.requests, profile)
                             if res.id in rep]
                    perm = list(users)
                    if variant == 1:
                        perm = perm[::-1]
                    elif variant == 2:
                        perm = [perm[k] for k in rng.permutation(len(perm))]
                    order_map[res.id] = tuple(perm)
                assert potential_by_prefix(inst, profile, order_map) == pytest.approx(
                    reference, rel=1e-9)


M = frozenset({"m"})


@pytest.mark.parametrize("profile, message", [
    ((M,), "^profile has 1 replies for 2 requests$"),
    ((M, frozenset({"zz"})), "^reply of request 2 uses unknown resource 'zz'$"),
    ((M, M, M), "^profile has 3 replies for 2 requests$"),
], ids=["short", "unknown-resource", "long"])
@pytest.mark.parametrize("evaluate", [
    potential,
    lambda inst, p: ProfileState(inst, p).player_cost("shapley-exact", 0, p[0]),
    potential_by_prefix,
], ids=["potential", "player_cost", "potential_by_prefix"])
def test_malformed_profile_is_refused_like_total_cost(profile, message, evaluate):
    inst = one_edge_instance()
    with pytest.raises(InstanceError, match=message):
        total_cost(inst, profile)
    with pytest.raises(InstanceError, match=message):
        evaluate(inst, profile)


def machines_instance(sigmas, xis, alpha, weights):
    """Unit-free machine choice: every player may use any one machine."""
    exp = ExponentProfile((alpha,))
    res = tuple(ResourceParams(f"m{k}", sigma, (xi,))
                for k, (sigma, xi) in enumerate(zip(sigmas, xis)))
    ids = tuple(r.id for r in res)
    reqs = tuple(Request(id=i + 1, kind=MachineChoice(ids), default_weight=w)
                 for i, w in enumerate(weights))
    return Instance(exp, res, reqs)


class TestPotentialManyUsers:
    def test_matches_prefix_form_up_to_25_users(self):
        rng = rng_for(71)
        for n in (13, 18, 25):
            inst = machines_instance([float(rng.uniform(0, 5)) for _ in range(2)],
                                     [float(rng.uniform(0.1, 2)) for _ in range(2)],
                                     float(rng.uniform(1.05, 3.5)),
                                     [int(w) for w in rng.integers(1, 6, size=n)])
            for on_m0 in (n, n - 4):
                profile = tuple(frozenset({"m0" if pos < on_m0 else "m1"})
                                for pos in range(n))
                orders = {"m0": tuple(int(i) + 1 for i in rng.permutation(on_m0))}
                reference = potential(inst, profile)
                assert potential_by_prefix(inst, profile) == pytest.approx(
                    reference, rel=1e-12)
                assert potential_by_prefix(inst, profile, orders) == pytest.approx(
                    reference, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(),
           n=st.integers(min_value=2, max_value=40),
           n_machines=st.integers(min_value=2, max_value=4),
           alpha=st.floats(min_value=1.05, max_value=3.0))
    def test_exactness_up_to_40_players(self, data, n, n_machines, alpha):
        sigmas = data.draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                                    min_size=n_machines, max_size=n_machines))
        xis = data.draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                                 min_size=n_machines, max_size=n_machines))
        weights = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                                     min_size=n, max_size=n))
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=n_machines - 1),
                                   min_size=n, max_size=n))
        position = data.draw(st.integers(min_value=0, max_value=n - 1))
        target = data.draw(st.integers(min_value=0, max_value=n_machines - 1))
        inst = machines_instance(sigmas, xis, alpha, weights)
        profile = tuple(frozenset({f"m{k}"}) for k in picks)
        check = potential_exactness_check(inst, profile, position, frozenset({f"m{target}"}))
        assert check.ok, check


    @staticmethod
    def one_machine(n):
        return Instance(ExponentProfile((2.0,)), (ResourceParams("m", 1.0, (1.0,)),),
                        tuple(Request(id=i, kind=MachineChoice(("m",)))
                              for i in range(1, n + 1)))

    @pytest.mark.parametrize("n", [1021, 1100])
    def test_past_1020_users_the_potential_is_exact(self, n):
        # from n = 1,021 on, C(n, k) k and the subset counts pass a double;
        # for unit users h(k) = k^2 and the k-term is k, so the potential
        # is sigma H_n + xi n(n+1)/2
        profile = (frozenset({"m"}),) * n
        assert potential(self.one_machine(n), profile) == pytest.approx(
            harmonic(n) + n * (n + 1) / 2, rel=1e-9)

    @pytest.mark.parametrize("mechanism", ["shapley-exact", "shapley-sampled"])
    def test_a_run_past_1020_users_completes(self, mechanism):
        config = AbrdConfig(mechanism=mechanism, step_budget_override=1)
        result = run_abrd(self.one_machine(1021), config)
        assert result.output_cost == 1.0 + 1021.0 ** 2
        if mechanism == "shapley-sampled":
            # a sampled run does not track the potential
            assert result.trace[0].potential is None
        else:
            assert result.trace[0].potential == pytest.approx(
                harmonic(1021) + 1021 * 1022 / 2, rel=1e-9)


class TestPotentialBounds:
    def test_example_numbers(self):
        inst = one_edge_instance()
        p = (frozenset({"m"}), frozenset({"m"}))
        c = total_cost(inst, p)
        phi = potential(inst, p)
        assert c / 2 == pytest.approx(7.5)
        assert phi == pytest.approx(16.0)
        assert harmonic(2) * c == pytest.approx(22.5)
        assert c / 2 <= phi <= harmonic(2) * c

    def test_single_user_upper_bound_tight(self):
        inst = one_edge_instance(weights=(3,))
        report = potential_bounds_check(inst, [(frozenset({"m"}),)])
        assert report.ok

    def test_random_profiles(self):
        rng = rng_for(53)
        for _ in range(15):
            inst = random_explicit_instance(rng, max_players=4, max_resources=4)
            profiles = []
            for _ in range(20):
                profiles.append(tuple(
                    req.kind.replies[int(rng.integers(len(req.kind.replies)))]
                    for req in inst.requests))
            assert potential_bounds_check(inst, profiles).ok


class TestPotentialExactness:
    def test_parallel_edge_move(self):
        inst = parallel_edges_instance()
        shared = (frozenset({"e1"}), frozenset({"e1"}))
        check = potential_exactness_check(inst, shared, 0, frozenset({"e2"}))
        assert check.delta_cost == pytest.approx(-0.5)
        assert check.delta_potential == pytest.approx(-0.5)
        assert check.ok

    def test_no_move_is_zero(self):
        inst = parallel_edges_instance()
        shared = (frozenset({"e1"}), frozenset({"e1"}))
        check = potential_exactness_check(inst, shared, 0, frozenset({"e1"}))
        assert check.delta_potential == 0.0 and check.delta_cost == 0.0

    @pytest.mark.parametrize("position", [-1, 2])
    def test_a_position_outside_the_requests_raises(self, position):
        inst = parallel_edges_instance()
        shared = (frozenset({"e1"}), frozenset({"e1"}))
        with pytest.raises(InstanceError, match=rf"^position {position} is outside range\(2\)$"):
            potential_exactness_check(inst, shared, position, frozenset({"e2"}))

    def test_random_unilateral_deviations(self):
        rng = rng_for(59)
        for _ in range(15):
            inst = random_explicit_instance(rng, max_players=3, max_resources=4)
            profile = tuple(req.kind.replies[0] for req in inst.requests)
            for pos, req in enumerate(inst.requests):
                for alt in req.kind.replies:
                    assert potential_exactness_check(inst, profile, pos, alt).ok

    @pytest.mark.parametrize("workload", ["steiner-shapley", "machines-sampled"])
    def test_one_state_gives_the_bits_of_three(self, workload):
        # the check prices both potentials and both costs on one state that
        # it moves; the reference builds a state for each potential and one
        # for the costs.  60 deviations on a walk over the first instance of
        # the benchmark workload at seed 1: another player's reply or a
        # random set of resources
        workloads = runpy.run_path(str(WORKLOADS), run_name="bench_workloads")["WORKLOADS"]
        inst = workloads[workload](1)[0].instance
        profile = initial_profile(inst)
        ids = [res.id for res in inst.resources]
        rng = rng_for(61)
        for _ in range(60):
            pos = int(rng.integers(inst.n_requests))
            if rng.random() < 0.5:
                reply = profile[int(rng.integers(inst.n_requests))]
            else:
                reply = frozenset(rng.choice(ids, size=int(rng.integers(1, 4)),
                                             replace=False).tolist())
            check = potential_exactness_check(inst, profile, pos, reply)
            deviated = profile[:pos] + (reply,) + profile[pos + 1:]
            state = ProfileState(inst, profile)
            expected = (potential(inst, deviated) - potential(inst, profile),
                        state.player_cost("shapley-exact", pos, reply)
                        - state.player_cost("shapley-exact", pos, profile[pos]))
            assert (check.delta_potential.hex(), check.delta_cost.hex()) == tuple(
                x.hex() for x in expected)
            assert check.ok
            profile = deviated


class TestBruteForce:
    def test_parallel_edges(self):
        inst = parallel_edges_instance()
        profile, cost = brute_force_opt(inst)
        assert cost == pytest.approx(4.0)
        assert profile[0] != profile[1]

    def test_single_player(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 3.0, (1.0,)))
        inst = Instance(exp, res, (Request(id=1, kind=MachineChoice(("m1", "m2"))),))
        _, cost = brute_force_opt(inst)
        assert cost == pytest.approx(2.0)

    def test_refusal_over_truncation(self):
        # eight players on eight machines: 8^8 profiles, refused before any
        machines = tuple(f"m{k}" for k in range(8))
        inst = Instance(ExponentProfile((2.0,)),
                        tuple(ResourceParams(m, 1.0, (1.0,)) for m in machines),
                        tuple(Request(id=i, kind=MachineChoice(machines)) for i in range(1, 9)))
        assert 8 ** 8 > MAX_PROFILES
        with pytest.raises(EnumerationLimitError, match=f"exceeds {MAX_PROFILES}"):
            brute_force_opt(inst)

    def test_path_cap_refusal(self):
        # corner to corner of a 6x6 grid: over a million simple paths,
        # refused at the first one past the cap
        g = grid_graph(6)
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=Routing("v00", "v55")),), g)
        with pytest.raises(EnumerationLimitError, match=f"more than {MAX_PATHS} simple paths"):
            candidate_replies(inst, inst.requests[0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), directed=st.booleans())
    def test_simple_paths_match_the_recursive_search(self, seed, directed):
        # parallel edges, self-loops and unreachable targets included
        graph, _ = random_toll_multigraph(rng_for(seed), directed)
        for s in graph.vertices:
            for t in graph.vertices:
                if s != t:
                    assert (analysis._simple_paths(graph, s, t)
                            == reference_simple_paths(graph, s, t))

    @pytest.mark.parametrize("cap", [0, 1, 5, 11, 12, 13])
    def test_the_path_cap_refuses_as_the_recursive_search_did(self, monkeypatch, cap):
        g = grid_graph(3)
        monkeypatch.setattr(analysis, "MAX_PATHS", cap)
        outcomes = []
        for search in (analysis._simple_paths, reference_simple_paths):
            try:
                outcomes.append(search(g, "v00", "v22"))
            except EnumerationLimitError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], list) == (cap >= 12)


class TestEnumerateProfiles:
    def test_request_without_a_reply_is_infeasible(self):
        # request 2 routes s -> t, but the only edge runs t -> s
        g = HostGraph(True, ("s", "t"), (Edge("ts", "t", "s"),))
        inst = Instance(ExponentProfile((2.0,)), (ResourceParams("ts", 1.0, (1.0,)),),
                        (Request(id=1, kind=Routing("t", "s")),
                         Request(id=2, kind=Routing("s", "t")),
                         Request(id=3, kind=Routing("s", "t"))), g)
        with pytest.raises(InfeasibleError, match="^request 2 has no feasible reply$"):
            enumerate_profiles(inst)
        for run in (brute_force_opt, lambda i: enumerate_nash(i, "shapley-exact"),
                    lambda i: smoothness_check(i, "shapley-exact", 1.0, 0.5)):
            with pytest.raises(InfeasibleError):
                run(inst)


class TestNash:
    def test_csv_report_is_the_enumerate_nash_report(self):
        for inst in (parallel_edges_instance(), poa_lower_bound_instance(9.0, 1.0, 2.0)):
            report, text = nash_report_csv(inst, "shapley-exact")
            assert report == enumerate_nash(inst, "shapley-exact")
            assert len(text.splitlines()) == 1 + 2 ** inst.n_requests

    def test_parallel_edges_split_is_nash(self):
        inst = parallel_edges_instance()
        report = enumerate_nash(inst, "shapley-exact")
        assert all(p[0] != p[1] for p in report.nash_profiles)
        assert len(report.nash_profiles) == 2
        assert report.poa == pytest.approx(1.0)

    def test_single_player_best_reply_unique_nash(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 3.0, (1.0,)))
        inst = Instance(exp, res, (Request(id=1, kind=MachineChoice(("m1", "m2"))),))
        report = enumerate_nash(inst, "shapley-exact")
        assert report.nash_profiles == ((frozenset({"m1"}),),)

    def test_robust_poa_consistency(self):
        # worst NE cost stays below (lambda/(1-mu)) * optimum with the
        # certified smoothness constants, on every enumerable instance, and
        # the optimum is brute_force_opt's, also when several profiles tie
        # for it (players copied from the first one swap replies at equal
        # cost)
        rng = rng_for(63)
        ties = 0
        for mechanism in ("proportional", "shapley-exact"):
            for _ in range(8):
                inst = random_explicit_instance(rng, max_players=3, max_resources=4)
                twins = replace(inst, requests=tuple(
                    replace(inst.requests[0], id=req.id) for req in inst.requests))
                for inst in (inst, twins):
                    lam, mu = smoothness_constants(inst, mechanism)
                    report = enumerate_nash(inst, mechanism)
                    assert report.opt_cost == brute_force_opt(inst)[1]
                    if report.worst_nash_cost is not None:
                        assert report.worst_nash_cost <= (lam / mu) * report.opt_cost
                    costs = [total_cost(inst, p) for p in product(
                        *(candidate_replies(inst, req) for req in inst.requests))]
                    ties += costs.count(min(costs)) > 1
        assert ties > 0

    def test_sampled_mechanism_rejected(self):
        state = ProfileState(parallel_edges_instance(), (frozenset({"e1"}), frozenset({"e1"})))
        with pytest.raises(ConfigError):
            state.player_cost("shapley-sampled", 0, frozenset({"e1"}))


class TestSmoothness:
    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
    def test_parallel_edges_exhaustive(self, mechanism):
        inst = parallel_edges_instance()
        lam, mu = smoothness_constants(inst, mechanism)
        report = smoothness_check(inst, mechanism, lam, mu)
        assert report.pairs_tested == 16
        assert report.ok
        assert report.max_ratio <= lam

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_pairs_rejected(self, pairs):
        inst = parallel_edges_instance()
        for check in (smoothness_check, smoothness_report_csv):
            with pytest.raises(ConfigError, match=f"got {pairs}$"):
                check(inst, "shapley-exact", 1.0, 0.5, max_pairs=pairs)

    @pytest.mark.parametrize("pairs", [5, 16, 17])
    def test_csv_report_is_the_check_report(self, pairs):
        inst = parallel_edges_instance()
        report, text = smoothness_report_csv(inst, "shapley-exact", 3.0, 0.5,
                                             max_pairs=pairs, seed=4)
        assert report == smoothness_check(inst, "shapley-exact", 3.0, 0.5,
                                          max_pairs=pairs, seed=4)
        assert report.pairs_tested == len(text.splitlines()) - 1 == min(pairs, 16)

    def test_identical_profiles_satisfied_by_budget_balance(self):
        inst = parallel_edges_instance()
        report = smoothness_check(inst, "shapley-exact", 1.0, 0.5)
        # lambda = 1, mu = 0.5 is far below the certified constants, but the
        # diagonal pairs (p = p') hold whenever lambda >= 1 - mu
        assert report.pairs_tested == 16

    def test_random_instances_with_certified_constants(self):
        rng = rng_for(61)
        for mechanism in ("proportional", "shapley-exact"):
            for _ in range(6):
                inst = random_explicit_instance(rng, max_players=3, max_resources=4)
                lam, mu = smoothness_constants(inst, mechanism)
                report = smoothness_check(inst, mechanism, lam, mu, max_pairs=400,
                                          seed=int(rng.integers(10_000)))
                assert report.ok


def random_five_kind_instance(rng, directed):
    """Routing, multi-routing, set-connectivity, machine-choice and
    explicit-reply players on a small graph's edges, one of each kind first;
    a directed graph has both orientations of every edge, so every routing
    player has a path and set connectivity asks for strong connectivity."""
    exp = random_exponents(rng)
    graph = random_connected_graph(rng, n_vertices=4, n_extra_edges=1)
    if directed:
        graph = HostGraph(True, graph.vertices, graph.edges + tuple(
            Edge(f"r{e.id}", e.head, e.tail) for e in graph.edges))
    ids = [e.id for e in graph.edges]
    requests = []
    for i in range(1, int(rng.integers(5, 7)) + 1):
        v = [graph.vertices[k] for k in rng.choice(4, size=4, replace=False)]
        picks = [rng.choice(ids, size=int(rng.integers(1, 3)), replace=False).tolist()
                 for _ in range(2)]
        kind = [Routing(v[0], v[1]), MultiRouting(((v[0], v[1]), (v[2], v[3]))),
                SetConnectivity(tuple(v[:3])), MachineChoice(tuple(picks[0])),
                ExplicitReplies(tuple(dict.fromkeys(frozenset(r) for r in picks)))
                ][i - 1 if i <= 5 else int(rng.integers(5))]
        requests.append(Request(id=i, kind=kind, weights={
            e: int(rng.integers(1, 5)) for e in ids if rng.random() < 0.5},
            default_weight=int(rng.integers(1, 4))))
    return Instance(exp, tuple(random_resource(rng, e, exp.q) for e in ids),
                    tuple(requests), graph)


class TestDeviationRule:
    """``ProfileState.player_cost`` prices a player on any reply against one
    state of the others' replies, bit for bit as a fresh state of the
    deviated profile did (``helpers.reference_player_cost``)."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), directed=st.booleans(),
           mechanism=st.sampled_from(["proportional", "shapley-exact"]))
    def test_every_reply_is_priced_as_by_a_fresh_deviated_state(self, seed, directed,
                                                                mechanism):
        rng = rng_for(seed)
        inst = random_five_kind_instance(rng, directed)
        candidates = [candidate_replies(inst, req) for req in inst.requests]
        assume(all(candidates))
        profile = tuple(c[int(rng.integers(len(c)))] for c in candidates)
        state = ProfileState(inst, profile)
        for pos, alternatives in enumerate(candidates):
            for alt in alternatives:
                trial = profile[:pos] + (alt,) + profile[pos + 1:]
                assert (float.hex(state.player_cost(mechanism, pos, alt))
                        == float.hex(reference_player_cost(inst, mechanism, trial, pos)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), directed=st.booleans())
    def test_state_built_queries_equal_checked_ones(self, seed, directed):
        # ShareQuery sorts and checks the users it is given; the state builds
        # its queries from users it keeps sorted by id, without those checks
        rng = rng_for(seed)
        inst = random_five_kind_instance(rng, directed)
        ids = rng.choice(range(-40, 40), size=inst.n_requests, replace=False)
        inst = replace(inst, requests=tuple(replace(req, id=int(i))
                                            for req, i in zip(inst.requests, ids)))
        candidates = [candidate_replies(inst, req) for req in inst.requests]
        assume(all(candidates))
        state = ProfileState(inst, tuple(c[int(rng.integers(len(c)))] for c in candidates))
        for _ in range(3):
            for pos, req in enumerate(inst.requests):
                for res in inst.resources:
                    users = [(other.id, other.weight(res.id))
                             for other, reply in zip(inst.requests, state.profile)
                             if res.id in reply or other is req]
                    shuffled = [users[k] for k in rng.permutation(len(users))]
                    checked = ShareQuery(res, inst.exponents, shuffled, target=req.id)
                    built = state.share_query(pos, res.id)
                    assert built == checked and built.users == tuple(users)
            pos = int(rng.integers(inst.n_requests))
            state.move(pos, candidates[pos][int(rng.integers(len(candidates[pos])))])

    def test_a_reply_naming_an_unknown_resource_is_refused(self):
        state = ProfileState(parallel_edges_instance(), (frozenset({"e1"}),) * 2)
        with pytest.raises(InstanceError, match="^reply uses unknown resource 'zz'$"):
            state.player_cost("shapley-exact", 0, frozenset({"e1", "zz"}))

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        init = ProfileState.__init__

        def counted(self, *args):
            builds.append(args[1])
            init(self, *args)

        monkeypatch.setattr(ProfileState, "__init__", counted)
        return builds

    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
    def test_nash_builds_one_state_per_profile(self, monkeypatch, mechanism):
        inst = machines_instance([2.0, 3.0, 5.0], [1.0, 0.5, 0.2], 2.0, [1, 2, 3, 4])
        _, count = enumerate_profiles(inst)
        builds = self.count_builds(monkeypatch)
        report = enumerate_nash(inst, mechanism)
        assert len(builds) == count == 81
        assert builds == list(product(*(candidate_replies(inst, r) for r in inst.requests)))
        assert report.nash_profiles

    @pytest.mark.parametrize("pairs", [81 * 81, 500])
    def test_smoothness_builds_one_state_per_pair(self, monkeypatch, pairs):
        # a sampled pair builds a state of its own; the exhaustive walk runs
        # p' fastest, so its pairs of one p share that p's state
        inst = machines_instance([2.0, 3.0, 5.0], [1.0, 0.5, 0.2], 2.0, [1, 2, 3, 4])
        lam, mu = smoothness_constants(inst, "shapley-exact")
        _, count = enumerate_profiles(inst)
        builds = self.count_builds(monkeypatch)
        report = smoothness_check(inst, "shapley-exact", lam, mu, max_pairs=pairs, seed=3)
        assert report.pairs_tested == pairs
        if pairs == count * count:
            assert builds == list(product(*(candidate_replies(inst, r) for r in inst.requests)))
        else:
            assert len(builds) == pairs

    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
    def test_exhaustive_smoothness_rows_are_the_pairwise_walk(self, monkeypatch, mechanism):
        # two weighted players on five machines: 625 pairs from 25 states,
        # each row the one a fresh state and pricing per pair gives
        rng = rng_for(3)
        inst = machines_instance([float(rng.uniform(0.5, 3.0)) for _ in range(5)],
                                 [float(rng.uniform(0.5, 2.0)) for _ in range(5)], 2.5, [2, 3])
        priced = []
        real = analysis.total_cost
        monkeypatch.setattr(analysis, "total_cost",
                            lambda i, p: priced.append(p) or real(i, p))
        report, text = smoothness_report_csv(inst, mechanism, 2.0, 0.5)
        assert len(priced) == 25 and report.pairs_tested == 625
        reference = list(reference_smoothness_rows(inst, mechanism, 2.0, 0.5))
        label = lambda p: ";".join("|".join(sorted(r)) for r in p)
        assert text == csv_text(
            "profile,deviation_profile,deviation_sum,cost_p,cost_p_prime,ok",
            ((label(p), label(p_prime), *rest) for p, p_prime, *rest in reference))
        assert report.violations == sum(not ok for *_, ok in reference)


class TestBudgetBalanceCheck:
    def test_sweep(self):
        rng = rng_for(67)
        queries = []
        for _ in range(50):
            inst = random_explicit_instance(rng, max_players=4, max_resources=3)
            res = inst.resources[0]
            users = tuple((req.id, req.weight(res.id)) for req in inst.requests)
            queries.append((res, inst.exponents, users))
        for mechanism in ("proportional", "shapley-exact"):
            assert budget_balance_check(mechanism, queries).ok


class TestPoaFamily:
    def test_rejects_non_integral_ratio(self):
        with pytest.raises(ConfigError, match="nearest valid sigma"):
            poa_lower_bound_instance(15.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            poa_lower_bound_instance(1.0, 1.0, 2.0)   # N = 1

    @pytest.mark.parametrize("sigma", [float("inf"), 1e400, float("nan")])
    def test_rejects_a_ratio_that_is_not_finite(self, sigma):
        with pytest.raises(ConfigError, match="is not a finite number"):
            poa_lower_bound_instance(sigma, 1.0, 2.0)

    def test_rejects_q_below_one(self):
        for q in (0, -1):
            with pytest.raises(ConfigError, match="q must be >= 1"):
                poa_lower_bound_instance(16.0, 1.0, 2.0, q=q)

    def test_refuses_more_requests_than_the_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_POA_REQUESTS", 3)
        assert poa_lower_bound_instance(9.0, 1.0, 2.0).n_requests == 3
        with pytest.raises(ConfigError, match="= 4 exceeds the cap of 3 requests"):
            poa_lower_bound_instance(16.0, 1.0, 2.0)

    def test_n4_shape_and_costs(self):
        inst = poa_lower_bound_instance(16.0, 1.0, 2.0)
        assert len(inst.resources) == 9 and inst.n_requests == 4
        direct = tuple(frozenset({f"e{i}"}) for i in range(1, 5))
        via_hub = tuple(frozenset({"estar", f"f{i}"}) for i in range(1, 5))
        assert total_cost(inst, direct) == pytest.approx(68.0)
        assert total_cost(inst, via_hub) == pytest.approx(40.8)

    def test_deviation_from_all_direct_costs_more(self):
        inst = poa_lower_bound_instance(16.0, 1.0, 2.0)
        # single-user shares equal full edge costs for any budget-balanced
        # mechanism: 13.6 + 3.8 = 17.4 > 17
        estar = inst.resource_by_id["estar"]
        f1 = inst.resource_by_id["f1"]
        deviation = (estar.sigma + estar.xis[0]) + (f1.sigma + f1.xis[0])
        stay = 16.0 + 1.0
        assert deviation == pytest.approx(17.4)
        assert deviation > stay

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_measured_poa_exceeds_n_over_3(self, n):
        inst = poa_lower_bound_instance(float(n * n), 1.0, 2.0)
        for mechanism in ("proportional", "shapley-exact"):
            report = enumerate_nash(inst, mechanism)
            direct = tuple(frozenset({f"e{i}"}) for i in range(1, n + 1))
            assert direct in report.nash_profiles
            assert report.poa >= n / 3.0

    def test_non_integer_exponent(self):
        # sigma = 8, xi = 1, alpha = 1.5 gives N = 8^(2/3) = 4 exactly
        inst = poa_lower_bound_instance(8.0, 1.0, 1.5)
        assert inst.n_requests == 4
        report = enumerate_nash(inst, "shapley-exact")
        direct = tuple(frozenset({f"e{i}"}) for i in range(1, 5))
        assert direct in report.nash_profiles
        assert report.poa >= 4 / 3.0

    def test_two_exponent_variant_keeps_shape(self):
        inst = poa_lower_bound_instance(16.0, 1.0, 2.0, q=2)
        assert inst.exponents.q == 2
        assert inst.exponents.alphas[1] == pytest.approx(1.5)
        # tail factors sit a factor 10 inside the admissible region
        estar = inst.resource_by_id["estar"]
        bound = estar.xis[0] / (2 * 4 ** 1.5 * 5)
        assert estar.xis[1] <= bound * (1 + 1e-12)
