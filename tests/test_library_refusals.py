"""Every input the library refuses, with the error class and message a caller
sees.  Each case is a refusal that no other test reaches."""

import re

import pytest

from gndes import (AbrdConfig, Edge, ExponentProfile, HostGraph, Instance, MachineChoice,
                   Request, ResourceParams, analysis, validate_reply)
from gndes.analysis import poa_lower_bound_instance, potential_by_prefix
from gndes.bounds import theoretical_bounds
from gndes.errors import ConfigError, InstanceError
from gndes.oracles import (_dispatch, directed_multi_routing_oracle, explicit_oracle,
                           lower_bound_tree, shortest_paths, steiner_forest_oracle,
                           steiner_tree_oracle, strong_connectivity_oracle)
from gndes.sharing import ShareQuery, h_value, hoeffding_sample_count

EXPONENTS = ExponentProfile((2.0,))
MACHINES = tuple(ResourceParams(m, 1.0, (1.0,)) for m in ("m1", "m2"))
# request 1 may use m1 only; request 2 may use either machine
TWO_MACHINES = Instance(EXPONENTS, MACHINES, (
    Request(id=1, kind=MachineChoice(("m1",))),
    Request(id=2, kind=MachineChoice(("m1", "m2")))))


def path_graph(directed: bool) -> HostGraph:
    return HostGraph(directed, ("a", "b", "c"), (Edge("ab", "a", "b"), Edge("bc", "b", "c")))


def refused(error: type, message: str):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


class TestOracles:
    TOLLS = {"ab": 1.0, "bc": 1.0}

    def test_a_missing_toll(self):
        with refused(InstanceError, "no toll given for resource 'x'"):
            explicit_oracle([frozenset({"x"})], {"y": 1.0})

    def test_a_lower_row_without_a_toll(self):
        with refused(InstanceError, "no toll given for resource 'bc'"):
            lower_bound_tree(path_graph(False), "a", {"ab": 1.0})

    @pytest.mark.parametrize("targets", [["b"], ["b", "c"], []])
    def test_a_guide_for_another_search(self, targets):
        guide = lower_bound_tree(path_graph(False), "c", self.TOLLS)
        with refused(ConfigError, "a guide serves one search, for its own target"):
            shortest_paths(path_graph(False), "a", targets, self.TOLLS, guide)

    def test_explicit_oracle_without_replies(self):
        with refused(InstanceError, "empty reply list"):
            explicit_oracle([], self.TOLLS)

    def test_steiner_tree_oracle_on_a_directed_graph(self):
        with refused(ConfigError, "set connectivity oracle requires an undirected graph"):
            steiner_tree_oracle(path_graph(True), ["a", "c"], self.TOLLS)

    @pytest.mark.parametrize("terminals", [[], ["a"], ["a", "a"]])
    def test_steiner_tree_oracle_on_fewer_than_two_terminals(self, terminals):
        with refused(InstanceError, "need at least two terminals"):
            steiner_tree_oracle(path_graph(False), terminals, self.TOLLS)

    def test_steiner_forest_oracle_on_a_directed_graph(self):
        with refused(ConfigError, "multi-routing oracle requires an undirected graph"):
            steiner_forest_oracle(path_graph(True), [("a", "c")], self.TOLLS)

    def test_steiner_forest_oracle_without_pairs(self):
        with refused(InstanceError, "need at least one terminal pair"):
            steiner_forest_oracle(path_graph(False), [], self.TOLLS)

    def test_steiner_forest_oracle_on_a_degenerate_pair(self):
        with refused(InstanceError, "degenerate pair ('b','b')"):
            steiner_forest_oracle(path_graph(False), [("a", "c"), ("b", "b")], self.TOLLS)

    def test_directed_multi_routing_oracle_without_pairs(self):
        with refused(InstanceError, "need at least one terminal pair"):
            directed_multi_routing_oracle(path_graph(True), [], self.TOLLS)

    @pytest.mark.parametrize("terminals", [["a"], ["c", "c"]])
    def test_strong_connectivity_oracle_on_fewer_than_two_terminals(self, terminals):
        with refused(InstanceError, "need at least two terminals"):
            strong_connectivity_oracle(path_graph(True), terminals, self.TOLLS)

    def test_dispatch_on_an_unsupported_request_kind(self):
        # an instance refuses such a request, so only a direct call meets it
        with refused(InstanceError, "unsupported request kind str"):
            _dispatch(TWO_MACHINES, Request(id=3, kind="ring"))


class TestConfigAndInstance:
    def test_an_unknown_output_mode(self):
        with refused(ConfigError, "unknown output mode 'first'"):
            AbrdConfig(output="first")

    def test_a_negative_budget_override(self):
        with refused(ConfigError, "step budget override must be >= 0"):
            AbrdConfig(step_budget_override=-1)

    def test_an_empty_exponent_profile(self):
        with refused(InstanceError, "exponent profile needs at least one exponent"):
            ExponentProfile(())

    def test_a_duplicate_edge_id(self):
        with refused(InstanceError, "duplicate edge id 'ab'"):
            HostGraph(False, ("a", "b", "c"), (Edge("ab", "a", "b"), Edge("ab", "b", "c")))

    def test_a_machine_outside_the_list_is_no_reply(self):
        verdict = validate_reply(TWO_MACHINES, TWO_MACHINES.requests[0], frozenset({"m2"}))
        assert (verdict.ok, verdict.reason) == (False, "machine 'm2' not in the allowed list")


class TestAnalysis:
    PROFILE = (frozenset({"m1"}), frozenset({"m1"}))

    @pytest.mark.parametrize("order", [[1], [1, 3], [1, 2, 2], [2, 2], [1, "2"]])
    def test_potential_by_prefix_on_an_order_that_is_not_a_permutation(self, order):
        with refused(InstanceError, "order for resource 'm1' must permute its users"):
            potential_by_prefix(TWO_MACHINES, self.PROFILE, {"m1": order})

    def test_potential_by_prefix_on_an_order_for_an_unused_resource(self):
        with refused(InstanceError, "order for resource 'm2' must permute its users"):
            potential_by_prefix(TWO_MACHINES, self.PROFILE, {"m2": [7, 8, 9]})

    def test_potential_by_prefix_on_an_order_for_an_id_that_is_no_resource(self):
        with refused(InstanceError, "order for unknown resource 'nowhere'"):
            potential_by_prefix(TWO_MACHINES, self.PROFILE, {"m1": [2, 1], "nowhere": [1]})

    def test_poa_instance_with_q_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_POA_EXPONENTS", 3)
        assert poa_lower_bound_instance(4.0, 1.0, 2.0, q=3).exponents.q == 3
        with refused(ConfigError, "q = 4 exceeds the cap of 3 exponents"):
            poa_lower_bound_instance(4.0, 1.0, 2.0, q=4)

    @pytest.mark.parametrize("sigma, xi", [(0.0, 1.0), (4.0, 0.0), (-4.0, 1.0), (4.0, -1.0)])
    def test_poa_instance_without_positive_sigma_and_xi(self, sigma, xi):
        with refused(ConfigError, "sigma and xi must be positive"):
            poa_lower_bound_instance(sigma, xi, 2.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0])
    def test_poa_instance_with_alpha_at_most_one(self, alpha):
        with refused(ConfigError, "alpha must exceed 1"):
            poa_lower_bound_instance(4.0, 1.0, alpha)


class TestSharingAndBounds:
    def test_h_value_of_a_negative_sum(self):
        with refused(InstanceError, "weight sum must be >= 0"):
            h_value(MACHINES[0], EXPONENTS, -1)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
    def test_hoeffding_sample_count_with_epsilon_outside_the_unit_interval(self, epsilon):
        query = ShareQuery(MACHINES[0], EXPONENTS, ((1, 1), (2, 2)), target=1)
        with refused(ConfigError, "epsilon must lie in (0, 1)"):
            hoeffding_sample_count(query, epsilon, 0.05)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
    def test_theoretical_bounds_with_epsilon_outside_the_unit_interval(self, epsilon):
        with refused(ConfigError, "epsilon must lie in (0, 1)"):
            theoretical_bounds(TWO_MACHINES, "shapley-exact", epsilon)
