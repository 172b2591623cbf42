import math

import pytest
from hypothesis import given, strategies as st

from gndes import (
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    InstanceError,
    MachineChoice,
    MultiRouting,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    load_vector,
    rep_cost,
    total_cost,
    validate_reply,
)

from helpers import directed_grid_graph, grid_graph, random_explicit_instance, rng_for


def simple_instance():
    exp = ExponentProfile((2.0,))
    resources = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,)))
    requests = (
        Request(id=1, kind=ExplicitReplies((frozenset({"e1"}), frozenset({"e2"})))),
        Request(id=2, kind=ExplicitReplies((frozenset({"e1"}), frozenset({"e2"})))),
    )
    return Instance(exp, resources, requests)


class TestRepCost:
    def test_zero_load_costs_nothing(self):
        params = ResourceParams("e", 1.0, (1.0,))
        assert rep_cost(params, ExponentProfile((2.0,)), 0) == 0.0

    def test_single_term(self):
        params = ResourceParams("e", 1.0, (1.0,))
        assert rep_cost(params, ExponentProfile((2.0,)), 3) == 10.0

    def test_two_terms(self):
        params = ResourceParams("e", 6.0, (1.0, 2.0))
        assert rep_cost(params, ExponentProfile((2.0, 3.0)), 2) == pytest.approx(26.0)

    def test_negative_load_rejected(self):
        params = ResourceParams("e", 1.0, (1.0,))
        with pytest.raises(InstanceError):
            rep_cost(params, ExponentProfile((2.0,)), -1)

    @pytest.mark.parametrize("xi, alpha, load", [(1.0, 200.0, 60), (10.0, 1023.9, 2)],
                             ids=["power-overflows", "product-overflows"])
    def test_beyond_a_double_raises(self, xi, alpha, load):
        params = ResourceParams("e", 1.0, (xi,))
        with pytest.raises(InstanceError) as info:
            rep_cost(params, ExponentProfile((alpha,)), load)
        assert str(info.value) == (
            f"cost of resource 'e' at load {load} exceeds the largest double")

    @given(
        a=st.integers(min_value=1, max_value=50),
        b=st.integers(min_value=1, max_value=50),
        alpha=st.floats(min_value=1.01, max_value=4.0),
        xi=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_power_part_superadditive(self, a, b, alpha, xi):
        params = ResourceParams("e", 0.0, (xi,))
        exp = ExponentProfile((alpha,))
        joint = rep_cost(params, exp, a + b)
        split = rep_cost(params, exp, a) + rep_cost(params, exp, b)
        assert joint >= split - 1e-9 * joint


class TestLoadsAndCost:
    def test_shared_edge_loads_add(self):
        inst = simple_instance()
        p = (frozenset({"e1"}), frozenset({"e1"}))
        assert load_vector(inst, p) == {"e1": 2, "e2": 0}

    def test_weighted_single_user(self):
        exp = ExponentProfile((2.0,))
        inst = Instance(
            exp,
            (ResourceParams("m", 6.0, (1.0,)),),
            (Request(id=1, kind=MachineChoice(("m",)), weights={"m": 3}),),
        )
        p = (frozenset({"m"}),)
        assert load_vector(inst, p) == {"m": 3}
        assert total_cost(inst, p) == pytest.approx(15.0)

    def test_disjoint_replies(self):
        inst = simple_instance()
        p = (frozenset({"e1"}), frozenset({"e2"}))
        assert load_vector(inst, p) == {"e1": 1, "e2": 1}
        assert total_cost(inst, p) == pytest.approx(4.0)

    def test_shared_vs_split_costs(self):
        inst = simple_instance()
        assert total_cost(inst, (frozenset({"e1"}), frozenset({"e1"}))) == pytest.approx(5.0)

    def test_unknown_resource_in_reply(self):
        inst = simple_instance()
        with pytest.raises(InstanceError):
            load_vector(inst, (frozenset({"zz"}), frozenset({"e2"})))

    def test_total_cost_is_sum_of_rep_costs(self):
        rng = rng_for(7)
        for _ in range(25):
            inst = random_explicit_instance(rng)
            profile = tuple(req.kind.replies[0] for req in inst.requests)
            loads = load_vector(inst, profile)
            expected = sum(
                rep_cost(r, inst.exponents, loads[r.id]) for r in inst.resources)
            assert total_cost(inst, profile) == pytest.approx(expected, rel=1e-12)


def path_graph():
    return HostGraph(
        directed=False,
        vertices=("s", "a", "t"),
        edges=(Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("st", "s", "t")),
    )


class TestValidateReply:
    def test_routing_path_ok(self):
        g = path_graph()
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=Routing("s", "t")),),
            g,
        )
        assert validate_reply(inst, inst.requests[0], frozenset({"sa", "at"}))
        assert not validate_reply(inst, inst.requests[0], frozenset({"sa"}))

    def test_set_connectivity_missing_terminal(self):
        g = path_graph()
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=SetConnectivity(("s", "t"))),),
            g,
        )
        verdict = validate_reply(inst, inst.requests[0], frozenset({"sa"}))
        assert not verdict and "terminal" in verdict.reason

    def test_set_connectivity_requires_connected_subgraph(self):
        g = HostGraph(
            directed=False,
            vertices=("a", "b", "c", "d"),
            edges=(Edge("ab", "a", "b"), Edge("cd", "c", "d"), Edge("bc", "b", "c")),
        )
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=SetConnectivity(("a", "b"))),),
            g,
        )
        # {ab} spans and connects; adding the floating edge cd breaks it
        assert validate_reply(inst, inst.requests[0], frozenset({"ab"}))
        assert not validate_reply(inst, inst.requests[0], frozenset({"ab", "cd"}))

    def test_machine_choice_must_be_singleton(self):
        inst = Instance(
            ExponentProfile((2.0,)),
            (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 1.0, (1.0,))),
            (Request(id=1, kind=MachineChoice(("m1", "m2"))),),
        )
        assert not validate_reply(inst, inst.requests[0], frozenset({"m1", "m2"}))
        assert validate_reply(inst, inst.requests[0], frozenset({"m2"}))

    def test_multi_routing_pairs(self):
        g = HostGraph(
            directed=False,
            vertices=("v1", "v2", "v3", "v4"),
            edges=(Edge("a", "v1", "v2"), Edge("b", "v2", "v3"), Edge("c", "v3", "v4")),
        )
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=MultiRouting((("v1", "v2"), ("v3", "v4")))),),
            g,
        )
        assert validate_reply(inst, inst.requests[0], frozenset({"a", "c"}))
        assert not validate_reply(inst, inst.requests[0], frozenset({"a", "b"}))

    def test_explicit_reply_must_be_listed(self):
        inst = simple_instance()
        ok = validate_reply(inst, inst.requests[0], frozenset({"e1"}))
        bad = validate_reply(inst, inst.requests[0], frozenset({"e1", "e2"}))
        assert ok and not bad

    def test_directed_strong_connectivity(self):
        g = HostGraph(
            directed=True,
            vertices=("a", "b"),
            edges=(Edge("ab", "a", "b"), Edge("ba", "b", "a")),
        )
        inst = Instance(
            ExponentProfile((2.0,)),
            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
            (Request(id=1, kind=SetConnectivity(("a", "b"))),),
            g,
        )
        assert validate_reply(inst, inst.requests[0], frozenset({"ab", "ba"}))
        assert not validate_reply(inst, inst.requests[0], frozenset({"ab"}))


PATH = HostGraph(False, ("a", "b", "c"), (Edge("ab", "a", "b"), Edge("bc", "b", "c")))
PATH_RESOURCES = tuple(ResourceParams(e, 1.0, (1.0,)) for e in ("ab", "bc", "m"))
M = MachineChoice(("m",))


def invalid(message, *kinds, resources=PATH_RESOURCES, graph=PATH, **fields):
    """An instance case that breaks one rule: one request of id 1 per kind."""
    requests = tuple(Request(id=1, kind=kind, **fields) for kind in kinds)
    return pytest.param(resources, requests, graph, message, id=message)


INVALID = [
    invalid("duplicate resource ids", M, resources=PATH_RESOURCES + PATH_RESOURCES[:1]),
    invalid("instance needs at least one resource", M, resources=(), graph=None),
    invalid("graph edge 'ca' is not a declared resource", M,
            graph=HostGraph(False, PATH.vertices, PATH.edges + (Edge("ca", "c", "a"),))),
    invalid("instance needs at least one request"),
    invalid("duplicate request ids", M, M),
    invalid("request 1: weight on unknown resource 'z'", M, weights={"z": 2}),
    invalid("request 1: unknown terminal vertex", Routing("a", "z")),
    invalid("request 1: source equals target", Routing("b", "b")),
    invalid("request 1: needs at least one terminal pair", MultiRouting(())),
    invalid("request 1: unknown terminal vertex", MultiRouting((("a", "c"), ("z", "b")))),
    invalid("request 1: degenerate terminal pair (b,b)", MultiRouting((("a", "c"), ("b", "b")))),
    invalid("request 1: needs at least two terminals", SetConnectivity(("a", "a"))),
    invalid("request 1: unknown terminal vertex 'z'", SetConnectivity(("a", "z"))),
    invalid("request 1: empty machine list", MachineChoice(())),
    invalid("request 1: unknown machine 'z'", MachineChoice(("m", "z"))),
    invalid("request 1: empty reply list", ExplicitReplies(())),
    invalid("request 1: replies must be nonempty", ExplicitReplies((frozenset("m"), frozenset()))),
    invalid("request 1: reply uses unknown resource 'y'", ExplicitReplies((frozenset("zy"),))),
    invalid("request 1: unsupported kind str", "teleport"),
]


class TestRepeatedEntries:
    @pytest.mark.parametrize("kind, field, kept", [
        (MachineChoice(("m2", "m1", "m2", "m1")), "machines", ("m2", "m1")),
        (ExplicitReplies(({"b"}, {"a", "b"}, frozenset("ba"), {"b"})), "replies",
         (frozenset("b"), frozenset("ab"))),
        (MultiRouting((("s", "u"), ("u", "s"), ["s", "u"])), "pairs", (("s", "u"), ("u", "s"))),
        (SetConnectivity(("c", "a", "c")), "terminals", ("a", "c")),
    ])
    def test_a_kind_keeps_each_entry_once_in_first_seen_order(self, kind, field, kept):
        assert getattr(kind, field) == kept
        assert kind == type(kind)(kept)


class TestInstanceValidation:
    @pytest.mark.parametrize("resources, requests, graph, message", INVALID)
    def test_each_rule_has_its_message(self, resources, requests, graph, message):
        with pytest.raises(InstanceError) as info:
            Instance(ExponentProfile((2.0,)), resources, requests, graph)
        assert str(info.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: ResourceParams("e", math.nan, (1.0,)), "resource 'e': sigma must be finite"),
        (lambda: ResourceParams("e", math.inf, (1.0,)), "resource 'e': sigma must be finite"),
        (lambda: ResourceParams("e", 1.0, (1.0, math.nan)),
         "resource 'e': factors must be finite"),
        (lambda: ResourceParams("e", 1.0, (math.inf,)), "resource 'e': factors must be finite"),
        (lambda: ExponentProfile((2.0, math.inf)), "every exponent must be finite, got inf"),
        (lambda: ExponentProfile((math.nan,)), "every exponent must exceed 1, got nan"),
    ], ids=["sigma-nan", "sigma-inf", "xi-nan", "xi-inf", "alpha-inf", "alpha-nan"])
    def test_non_finite_numbers_rejected(self, make, message):
        with pytest.raises(InstanceError) as info:
            make()
        assert str(info.value) == message

    def test_graph_kind_needs_graph(self):
        with pytest.raises(InstanceError):
            Instance(
                ExponentProfile((2.0,)),
                (ResourceParams("e", 1.0, (1.0,)),),
                (Request(id=1, kind=Routing("s", "t")),),
            )

    def test_alpha_must_exceed_one(self):
        with pytest.raises(InstanceError):
            ExponentProfile((1.0,))

    def test_weights_integral_and_positive(self):
        with pytest.raises(InstanceError):
            Request(id=1, kind=MachineChoice(("m",)), weights={"m": 0})

    @pytest.mark.parametrize("rid", ["1", 1.0, True, None])
    def test_request_ids_are_integers(self, rid):
        with pytest.raises(InstanceError, match="^request id .* must be an integer$"):
            Request(id=rid, kind=MachineChoice(("m",)))

    def test_xis_need_a_positive_entry(self):
        with pytest.raises(InstanceError):
            ResourceParams("e", 1.0, (0.0, 0.0))

    def test_xis_length_checked_against_q(self):
        with pytest.raises(InstanceError):
            Instance(
                ExponentProfile((2.0, 3.0)),
                (ResourceParams("m", 1.0, (1.0,)),),
                (Request(id=1, kind=MachineChoice(("m",))),),
            )

    def test_deterministic_ordering(self):
        exp = ExponentProfile((2.0,))
        res = (ResourceParams("b", 1.0, (1.0,)), ResourceParams("a", 1.0, (1.0,)))
        reqs = (
            Request(id=2, kind=MachineChoice(("a",))),
            Request(id=1, kind=MachineChoice(("b",))),
        )
        inst = Instance(exp, res, reqs)
        assert [r.id for r in inst.resources] == ["a", "b"]
        assert [r.id for r in inst.requests] == [1, 2]


class TestGridHelper:
    @pytest.mark.parametrize("k", [12, 16])
    def test_large_grids_name_every_vertex_and_edge_once(self, k):
        # HostGraph refuses a repeated edge id but would merge a repeated
        # vertex name, so the vertex count is checked on the names
        g = grid_graph(k)
        assert len(set(g.vertices)) == len(g.vertices) == k * k
        assert len({e.id for e in g.edges}) == len(g.edges) == 2 * k * (k - 1)
        assert {(e.tail, e.head) for e in g.edges if e.id == "h1_10"} == {("v1_10", "v1_11")}
        assert len(directed_grid_graph(k).edges) == 4 * k * (k - 1)

    def test_grids_up_to_10_keep_their_names(self):
        # ids decide ties, so seeded runs on these grids depend on them
        g = grid_graph(10)
        assert g.vertices == tuple(f"v{i}{j}" for i in range(10) for j in range(10))
        assert {(e.id, e.tail, e.head) for e in g.edges} == (
            {(f"h{i}{j}", f"v{i}{j}", f"v{i}{j + 1}") for i in range(10) for j in range(9)}
            | {(f"d{i}{j}", f"v{i}{j}", f"v{i + 1}{j}") for i in range(9) for j in range(10)})
