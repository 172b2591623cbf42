import math
from dataclasses import replace

import pytest

from gndes import (
    AbrdConfig,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    Request,
    ResourceParams,
    Routing,
    approximate_best_response,
    delta_vector,
    initial_profile,
    oracles,
    run_abrd,
    sharing,
    total_cost,
)
from gndes.analysis import brute_force_opt
from gndes.bounds import harmonic, theoretical_bounds
from gndes.engine import (
    run_facts,
    run_report,
    step_budget,
    trace_to_csv,
)
from gndes.errors import ConfigError
from gndes.io import facts_doc
from gndes.rng import keyed_rng
from gndes.sharing import samples_needed, shapley_sampled, whp_delta

from helpers import grid_graph, pass_view, random_explicit_instance, rng_for


def parallel_edges_instance(kind="explicit"):
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    if kind == "explicit":
        reqs = tuple(
            Request(id=i, kind=ExplicitReplies((frozenset({"e1"}), frozenset({"e2"}))))
            for i in (1, 2))
        return Instance(exp, res, reqs)
    g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
    reqs = tuple(Request(id=i, kind=Routing("s", "t")) for i in (1, 2))
    return Instance(exp, res, reqs, g)


def unit_players_on_parallel_edges(n_players):
    """n unit routing players on two parallel s-t edges (sigma 1, xi 1,
    alpha 2); all start on e1, and the optimum splits them evenly."""
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
    reqs = tuple(Request(id=i, kind=Routing("s", "t")) for i in range(1, n_players + 1))
    return Instance(exp, res, reqs, g)


class TestInitialProfile:
    def test_machine_standalone_tolls(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 5.0, (1.0,)))
        inst = Instance(exp, res, (
            Request(id=1, kind=MachineChoice(("m1", "m2")), weights={"m1": 2, "m2": 2}),))
        # standalone tolls F(2): m1 -> 5, m2 -> 9
        assert initial_profile(inst) == (frozenset({"m1"}),)

    def test_routing_tie_break(self):
        inst = parallel_edges_instance("routing")
        assert initial_profile(inst) == (frozenset({"e1"}), frozenset({"e1"}))

    def test_explicit_minimizes_standalone_cost(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("a", 0.0, (1.0,)), ResourceParams("b", 1.0, (1.0,)),
               ResourceParams("c", 10.0, (1.0,)))
        replies = (frozenset({"a", "b"}), frozenset({"c"}))
        inst = Instance(exp, res, (Request(id=1, kind=ExplicitReplies(replies)),))
        # standalone totals: {a,b} -> 0+1 + 1+1 = 3, {c} -> 11
        assert initial_profile(inst) == (frozenset({"a", "b"}),)


class TestAbr:
    def test_parallel_edge_example(self):
        inst = parallel_edges_instance()
        config = AbrdConfig(mechanism="shapley-exact", epsilon=0.01)
        profile = (frozenset({"e1"}), frozenset({"e1"}))
        answer, current = approximate_best_response(
            pass_view(inst, config, profile, 1, 1), 0)
        # sharing e1 costs 2.5 under exact Shapley; e2 alone costs F(1) = 2
        assert current == pytest.approx(2.5)
        assert answer.reply == frozenset({"e2"})
        assert answer.toll_total == pytest.approx(2.0)

    def test_reduces_to_standalone_when_alone(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 3.0, (1.0,)))
        inst = Instance(exp, res, (Request(id=1, kind=MachineChoice(("m1", "m2"))),))
        config = AbrdConfig()
        answer, _ = approximate_best_response(
            pass_view(inst, config, (frozenset({"m2"}),), 1, 1), 0)
        assert answer.reply == frozenset({"m1"})
        assert answer.toll_total == pytest.approx(2.0)

    def test_a_swept_view_answers_a_player_it_did_not_sweep(self):
        # the second routing player shares the first one's class, reply and
        # row, so the pass's sweep holds the first alone; an ABR of the
        # second on that view answers through a sweep of her own row
        inst = parallel_edges_instance("routing")
        profile = (frozenset({"e1"}), frozenset({"e1"}))
        view = pass_view(inst, AbrdConfig(), profile, 1, 1)
        dpass = delta_vector(view)
        assert list(view.sweep.rows) == [0]
        assert approximate_best_response(view, 1) == (dpass.proposals[1], pytest.approx(2.5))


class TestDeltaVector:
    def test_positive_at_shared_profile(self):
        inst = parallel_edges_instance()
        config = AbrdConfig(epsilon=0.01)
        profile = (frozenset({"e1"}), frozenset({"e1"}))
        dpass = delta_vector(pass_view(inst, config, profile, 1, 1))
        eps1 = 1.01 / 0.99
        expected = 2.5 - eps1 * 2.0
        assert dpass.deltas == pytest.approx((expected, expected))
        assert dpass.total == pytest.approx(2 * expected)

    def test_nonpositive_at_equilibrium(self):
        inst = parallel_edges_instance()
        config = AbrdConfig(epsilon=0.01)
        profile = (frozenset({"e1"}), frozenset({"e2"}))
        dpass = delta_vector(pass_view(inst, config, profile, 1, 1))
        assert all(d <= 0 for d in dpass.deltas)

    def test_single_player_at_best_reply(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 3.0, (1.0,)))
        inst = Instance(exp, res, (Request(id=1, kind=MachineChoice(("m1", "m2"))),))
        dpass = delta_vector(pass_view(inst, AbrdConfig(), (frozenset({"m1"}),), 1, 1))
        assert dpass.deltas[0] <= 0


class TestRunAbrd:
    def test_parallel_edges_reach_optimum(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(epsilon=0.01))
        assert result.trace[0].cost == pytest.approx(5.0)
        assert result.trace[1].player == 1          # smallest index moves first
        assert result.output_cost == pytest.approx(4.0)
        assert brute_force_opt(inst)[1] == pytest.approx(4.0)
        assert result.converged_at == 2

    @pytest.mark.parametrize("n_players, mechanism, optimum", [
        (7, "proportional", 27.0),
        (7, "shapley-exact", 27.0),
        (12, "shapley-exact", 74.0),
    ])
    def test_tied_deltas_still_select_a_player(self, n_players, mechanism, optimum):
        # every player on e1 has the same delta, and their mean can round
        # above each of them
        result = run_abrd(unit_players_on_parallel_edges(n_players),
                          AbrdConfig(mechanism=mechanism))
        assert result.converged_at is not None
        assert result.output_cost == pytest.approx(optimum)

    def test_fourteen_players_on_one_edge_under_exact_shapley(self):
        result = run_abrd(unit_players_on_parallel_edges(14),
                          AbrdConfig(mechanism="shapley-exact"))
        assert result.trace[0].cost == pytest.approx(197.0)
        assert result.converged_at is not None
        assert result.output_cost == pytest.approx(100.0)
        assert all(rec.potential is not None for rec in result.trace)

    def test_single_player_converges_immediately(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 3.0, (1.0,)))
        inst = Instance(exp, res, (Request(id=1, kind=MachineChoice(("m1", "m2"))),))
        result = run_abrd(inst, AbrdConfig())
        assert result.converged_at == 1
        assert result.output_cost == pytest.approx(2.0)

    def test_already_optimal_explicit_instance(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("a", 1.0, (1.0,)),)
        inst = Instance(exp, res, (
            Request(id=1, kind=ExplicitReplies((frozenset({"a"}),))),))
        result = run_abrd(inst, AbrdConfig())
        assert result.output_cost == pytest.approx(brute_force_opt(inst)[1])

    def test_one_sweep_for_the_start_and_one_per_pass(self, monkeypatch):
        # initial_profile answers in one oracles.Sweep and each pass in one
        # more, and each sweep builds one tree per routing target it answers
        ends = [("v00", "v22"), ("v20", "v22"), ("v02", "v22"), ("v22", "v00"), ("v12", "v00")]
        g = grid_graph(3)
        res = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges)
        inst = Instance(ExponentProfile((2.0,)), res, tuple(
            Request(id=i, kind=Routing(*pair), default_weight=i)
            for i, pair in enumerate(ends, 1)), g)
        sweeps, trees = [], []
        init, tree = oracles.Sweep.__init__, oracles.lower_bound_tree
        monkeypatch.setattr(oracles.Sweep, "__init__",
                            lambda sweep, *args: sweeps.append(1) or init(sweep, *args))
        monkeypatch.setattr(oracles, "lower_bound_tree",
                            lambda *args: trees.append(1) or tree(*args))
        result = run_abrd(inst, AbrdConfig())
        assert result.converged_at is not None and result.converged_at > 1
        assert len(sweeps) == 1 + result.converged_at
        assert len(trees) == 2 * len(sweeps)

    def test_budget_zero_reports_initial_profile(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(step_budget_override=0))
        assert len(result.trace) == 1
        assert result.output_cost == pytest.approx(5.0)
        assert result.budget_overridden

    def test_best_output_is_min_over_trace(self):
        rng = rng_for(17)
        for _ in range(10):
            inst = random_explicit_instance(rng)
            result = run_abrd(inst, AbrdConfig(seed=1))
            costs = [rec.cost for rec in result.trace]
            assert result.best_cost == pytest.approx(min(costs))
            assert result.trace[result.t_star].cost == pytest.approx(min(costs))

    @pytest.mark.parametrize("output", ["best", "last"])
    @pytest.mark.parametrize("selection", ["deterministic", "randomized"])
    def test_output_profile_has_the_output_cost(self, output, selection):
        # the first instance of seed 43 ends above its initial cost, so its
        # best and last profiles differ
        rng = rng_for(43)
        for k in range(10):
            inst = random_explicit_instance(rng, max_players=5, max_resources=5)
            result = run_abrd(inst, AbrdConfig(seed=k, output=output, selection=selection,
                                               step_budget_override=k % 4 or None))
            if k == 0 and selection == "deterministic":
                assert result.best_cost < result.trace[-1].cost
            assert total_cost(inst, result.output_profile) == result.output_cost
            expected = result.t_star if output == "best" else len(result.trace) - 1
            assert result.output_cost == result.trace[expected].cost

    @pytest.mark.parametrize("selection", ["deterministic", "randomized"])
    def test_potential_strictly_decreases_on_updates(self, selection):
        rng = rng_for(19)
        for _ in range(10):
            inst = random_explicit_instance(rng, max_players=3, max_resources=4)
            result = run_abrd(inst, AbrdConfig(seed=2, selection=selection))
            for prev, rec in zip(result.trace, result.trace[1:]):
                if rec.player is not None:
                    assert rec.potential < prev.potential + 1e-12

    def test_proportional_trace_omits_potential(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(mechanism="proportional"))
        assert all(rec.potential is None for rec in result.trace)

    def test_last_mode_within_potential_gap_of_best(self):
        rng = rng_for(23)
        for k in range(14):
            inst = random_explicit_instance(rng, max_players=3, max_resources=4)
            # truncated budgets exercise genuinely non-converged runs
            override = (k % 3) if k % 3 else None
            result = run_abrd(inst, AbrdConfig(seed=3, output="last",
                                               step_budget_override=override))
            bound = (math.ceil(inst.exponents.alpha_max)
                     * harmonic(inst.n_requests) * result.best_cost)
            assert result.output_cost <= bound * (1 + 1e-9)

    def test_converged_profile_satisfies_smooth_ratio(self):
        rng = rng_for(29)
        for _ in range(10):
            inst = random_explicit_instance(rng, max_players=3, max_resources=4)
            result = run_abrd(inst, AbrdConfig(seed=4))
            if result.converged_at is not None:
                b = result.bounds
                limit = (b.rho * b.epsilon1 ** 2 * b.lam
                         / (1 - b.rho * b.epsilon1 ** 2 * b.mu))
                final_cost = result.trace[-1].cost
                assert final_cost <= limit * brute_force_opt(inst)[1] * (1 + 1e-9)

    def test_initial_profile_bound(self):
        rng = rng_for(33)
        for _ in range(10):
            inst = random_explicit_instance(rng, max_players=3, max_resources=4)
            _, opt = brute_force_opt(inst)
            p0_cost = total_cost(inst, initial_profile(inst))
            n_pow = inst.n_requests ** inst.exponents.alpha_max
            assert p0_cost <= n_pow * opt * (1 + 1e-9)

    def test_randomized_selection_budget_and_convergence(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(selection="randomized", seed=5))
        assert result.step_budget == inst.n_requests * result.bounds.T ** 2
        assert result.converged_at is not None
        assert result.best_cost == pytest.approx(4.0)

    @pytest.mark.parametrize("config, budget", [
        (AbrdConfig(), 32),
        (AbrdConfig(selection="randomized"), 2 * 32 ** 2),
        (AbrdConfig(selection="randomized", step_budget_override=5), 5),
        (AbrdConfig(step_budget_override=0), 0),
    ])
    def test_one_rule_sets_the_step_budget(self, config, budget):
        inst = parallel_edges_instance()
        bounds = theoretical_bounds(inst, config.mechanism, config.epsilon)
        assert step_budget(inst, config, bounds) == budget
        assert run_abrd(inst, config).step_budget == budget

    def test_deterministic_traces_are_byte_identical(self):
        inst = parallel_edges_instance()
        for mech in ("proportional", "shapley-exact", "shapley-sampled"):
            config = AbrdConfig(mechanism=mech, seed=11)
            a = trace_to_csv(run_abrd(inst, config))
            b = trace_to_csv(run_abrd(inst, config))
            assert a == b

    def test_sampled_mechanism_still_finds_optimum(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(mechanism="shapley-sampled", seed=7))
        assert result.output_cost == pytest.approx(brute_force_opt(inst)[1])

    def test_report_mentions_override(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(step_budget_override=1))
        text = run_report(inst, result)
        assert "ratio guarantee void" in text

    def test_directed_instance_uses_heuristic_rho(self):
        from gndes import Edge, HostGraph, MultiRouting, SetConnectivity, validate_reply

        g = HostGraph(True, ("a", "b", "c", "d"),
                      (Edge("ab", "a", "b"), Edge("bc", "b", "c"),
                       Edge("cd", "c", "d"), Edge("da", "d", "a"),
                       Edge("ac", "a", "c"), Edge("bd", "b", "d")))
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=MultiRouting((("a", "c"), ("b", "d")))),
             Request(id=2, kind=SetConnectivity(("a", "b", "c")))),
            g,
        )
        # max(2 pairs, 3 cycle legs)
        assert theoretical_bounds(inst, "shapley-exact", 0.01).rho == 3.0
        result = run_abrd(inst, AbrdConfig(seed=0))
        assert result.bounds.rho == 3.0
        assert result.output_cost / brute_force_opt(inst)[1] <= result.bounds.ratio_bound
        for req, reply in zip(inst.requests, result.output_profile):
            assert validate_reply(inst, req, reply)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            AbrdConfig(mechanism="nonsense")
        with pytest.raises(ConfigError):
            AbrdConfig(epsilon=1.5)
        with pytest.raises(ConfigError):
            AbrdConfig(selection="sometimes")


def small_machines_instance():
    """Machine-choice and explicit-reply players of weights 1-4 on three
    machines."""
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("m0", 5.0, (0.3,)), ResourceParams("m1", 8.0, (0.2,)),
           ResourceParams("m2", 12.0, (0.4,)))
    both = ExplicitReplies((frozenset({"m0", "m1"}), frozenset({"m2"})))
    reqs = (Request(id=1, kind=MachineChoice(("m0", "m1", "m2")), default_weight=3),
            Request(id=2, kind=both, default_weight=2),
            Request(id=3, kind=MachineChoice(("m0", "m2")), default_weight=4),
            Request(id=4, kind=both, weights={"m2": 3}, default_weight=1))
    return Instance(exp, res, reqs)


def heavy_players_on_parallel_edges(weights):
    exp = ExponentProfile((1.5,))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    edges = ExplicitReplies((frozenset({"e1"}), frozenset({"e2"})))
    reqs = tuple(Request(id=i, kind=edges, default_weight=w)
                 for i, w in enumerate(weights, start=1))
    return Instance(exp, res, reqs)


class TestSampledRuns:
    @pytest.mark.parametrize("make", [
        parallel_edges_instance,
        lambda: parallel_edges_instance("routing"),
        small_machines_instance,
    ], ids=["explicit", "routing", "machines"])
    def test_trace_equals_exact_when_counting_is_cheaper(self, make):
        inst = make()
        exact = run_abrd(inst, AbrdConfig(mechanism="shapley-exact", seed=3))
        sampled = run_abrd(inst, AbrdConfig(mechanism="shapley-sampled", seed=3))
        assert len(exact.trace) > 2
        # every column but the potential, which a sampled run does not track
        assert [replace(rec, potential=None) for rec in exact.trace] == list(sampled.trace)
        assert all(rec.potential is None for rec in sampled.trace)
        assert sampled.output_profile == exact.output_profile
        assert (sampled.sampled_shares, sampled.sample_cap_hits) == (0, 0)
        assert "epsilon guarantee void" not in run_report(inst, sampled)
        doc = facts_doc(run_facts(inst, sampled))
        assert (doc["sampled_shares"], doc["sample_cap_hits"]) == (0, 0)

    def test_capped_run_reports_the_void_guarantee(self, monkeypatch):
        # 12 players of weights 10^5 + 7 * 2^k, whose subset sums all differ,
        # start on e1.  Each step, every player's share on the resource with
        # 11 or 12 users would fill a counting table of 2^10 or 2^11 cells,
        # which takes longer than the about 3,000 permutations Hoeffding
        # asks for, so it is sampled and capped at 10; the share on the
        # resource with one or two users is exact and counts as neither
        inst = heavy_players_on_parallel_edges([100_000 + 7 * 2 ** k for k in range(12)])
        config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=2,
                            step_budget_override=2)
        monkeypatch.setattr(sharing, "MAX_SAMPLES", 10)
        result = run_abrd(inst, config)
        assert result.sampled_shares == result.sample_cap_hits == 2 * 12
        assert (f"  epsilon guarantee void on {result.sample_cap_hits} of "
                f"{result.sampled_shares} sampled shares\n") in run_report(inst, result)
        doc = facts_doc(run_facts(inst, result))
        assert doc["sampled_shares"] == result.sampled_shares
        assert doc["sample_cap_hits"] == result.sample_cap_hits
        assert run_abrd(inst, config) == result

        # uncapped, the engine's sampled share draws the count samples_needed
        # decides from the share's own stream
        monkeypatch.undo()
        profile = initial_profile(inst)
        view = pass_view(inst, config, profile, 1, 2)
        tolls = view.tolls(0)
        assert view.sampled_shares == 1 and view.sample_cap_hits == 0
        query = view.state.share_query(0, "e1")
        share = shapley_sampled(query, keyed_rng(2, "share", 1, 1, "e1"),
                                samples_needed(query, 0.15, whp_delta(2, 12, 2)))
        assert tolls["e1"] == share

        small = parallel_edges_instance()
        exact = run_abrd(small, AbrdConfig())
        assert "sampled_shares" not in facts_doc(run_facts(small, exact))
        assert "epsilon guarantee void" not in run_report(small, exact)

    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
    def test_a_budget_past_a_double_runs_as_usual_without_sampling(self, mechanism):
        inst = parallel_edges_instance()
        huge = run_abrd(inst, AbrdConfig(mechanism=mechanism, step_budget_override=10 ** 400))
        usual = run_abrd(inst, AbrdConfig(mechanism=mechanism))
        assert huge.step_budget == 10 ** 400
        assert huge.trace == usual.trace and huge.converged_at is not None

    def test_a_sampled_run_whose_failure_probability_underflows_is_refused(self):
        # on two players and two resources 1 / (2 (T N |E|)^2) falls below
        # the least normal double from T = 10^154 on, and to 0.0 from 10^162
        inst = parallel_edges_instance()
        for budget in (10 ** 154, 10 ** 162, 10 ** 400):
            config = AbrdConfig(mechanism="shapley-sampled", step_budget_override=budget)
            with pytest.raises(ConfigError, match="^the step budget is too large for "
                                                  "shapley-sampled"):
                run_abrd(inst, config)
        result = run_abrd(inst, replace(config, step_budget_override=10 ** 153))
        assert result.converged_at is not None

    def test_report_of_a_budget_past_a_double(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig(mechanism="shapley-sampled", step_budget_override=2))
        for budget, fail in ((10 ** 400, "0"), (10 ** 320, "1.24998608e-321")):
            text = run_report(inst, replace(result, step_budget=budget))
            assert f"  sampling failure probability <= {fail}\n" in text


class TestTraceCsv:
    def test_schema(self):
        inst = parallel_edges_instance()
        result = run_abrd(inst, AbrdConfig())
        lines = trace_to_csv(result).splitlines()
        assert lines[0] == "step,player,delta_selected,Delta,cost,potential,converged"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "" and first[2] == "" and first[3] == ""
        assert lines[-1].endswith("true")
