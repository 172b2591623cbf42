import heapq
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from gndes import (
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    InfeasibleError,
    Instance,
    MachineChoice,
    MultiRouting,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    oracles,
    validate_reply,
)
from gndes.analysis import candidate_replies
from gndes.errors import InstanceError
from gndes.oracles import (
    OracleAnswer,
    Sweep,
    directed_multi_routing_oracle,
    explicit_oracle,
    lower_bound_tree,
    machine_oracle,
    oracle_rho,
    reply_oracle,
    routing_oracle,
    shortest_path,
    shortest_paths,
    steiner_forest_oracle,
    steiner_tree_oracle,
    strong_connectivity_oracle,
)

from helpers import (
    absorbing_tolls,
    directed_grid_graph,
    grid_graph,
    random_connected_graph,
    random_explicit_instance,
    random_toll_multigraph,
    random_tolls,
    reference_shortest_path,
    reference_shortest_paths,
    reference_steiner_forest,
    reference_steiner_tree,
    rng_for,
    with_zero_tolls,
)


def triangle():
    return HostGraph(
        directed=False,
        vertices=("a", "s", "t"),
        edges=(Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("st", "s", "t")),
    )


def all_simple_path_sets(graph, source, target):
    """Exhaustive enumeration, the independent oracle for routing tests."""
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


def instance_for(graph, kind):
    resources = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in graph.edges)
    return Instance(ExponentProfile((2.0,)), resources,
                    (Request(id=1, kind=kind),), graph)


class TestRouting:
    def test_triangle(self):
        ans = routing_oracle(triangle(), "s", "t", {"sa": 1.0, "at": 1.0, "st": 3.0})
        assert ans.reply == frozenset({"sa", "at"})
        assert ans.toll_total == pytest.approx(2.0)
        inst = instance_for(triangle(), Routing("s", "t"))
        assert oracle_rho(inst, inst.requests[0]) == 1.0

    def test_single_edge(self):
        g = HostGraph(False, ("s", "t"), (Edge("e", "s", "t"),))
        ans = routing_oracle(g, "s", "t", {"e": 7.0})
        assert ans.reply == frozenset({"e"}) and ans.toll_total == pytest.approx(7.0)

    def test_disconnected(self):
        g = HostGraph(False, ("s", "t", "u"), (Edge("e", "s", "u"),))
        with pytest.raises(InfeasibleError):
            routing_oracle(g, "s", "t", {"e": 1.0})

    def test_lexicographic_tie_break(self):
        # two equal-cost paths s-a-t and s-b-t: the vertex-lex smaller wins
        g = HostGraph(False, ("a", "b", "s", "t"),
                      (Edge("e1", "s", "a"), Edge("e2", "a", "t"),
                       Edge("e3", "s", "b"), Edge("e4", "b", "t")))
        tolls = {"e1": 1.0, "e2": 1.0, "e3": 1.0, "e4": 1.0}
        assert routing_oracle(g, "s", "t", tolls).reply == frozenset({"e1", "e2"})

    def test_parallel_edges_pick_cheaper_then_smaller_id(self):
        g = HostGraph(False, ("s", "t"),
                      (Edge("p1", "s", "t"), Edge("p2", "s", "t")))
        assert routing_oracle(g, "s", "t", {"p1": 2.0, "p2": 1.0}).reply == frozenset({"p2"})
        assert routing_oracle(g, "s", "t", {"p1": 1.0, "p2": 1.0}).reply == frozenset({"p1"})

    def test_directed_respects_orientation(self):
        g = HostGraph(True, ("s", "t"), (Edge("st", "s", "t"), Edge("ts", "t", "s")))
        ans = routing_oracle(g, "s", "t", {"st": 5.0, "ts": 1.0})
        assert ans.reply == frozenset({"st"})

    def test_matches_exhaustive_enumeration(self):
        rng = rng_for(21)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 8)),
                                       int(rng.integers(0, 4)))
            tolls = random_tolls(rng, g)
            verts = list(g.vertices)
            s, t = rng.choice(len(verts), size=2, replace=False)
            source, target = verts[s], verts[t]
            best = min(sum(tolls[e] for e in p)
                       for p in all_simple_path_sets(g, source, target))
            ans = routing_oracle(g, source, target, tolls)
            assert ans.toll_total == pytest.approx(best, rel=1e-12)

    def test_invariant_under_uniform_scaling(self):
        rng = rng_for(22)
        for _ in range(10):
            g = random_connected_graph(rng, 6, 3)
            tolls = random_tolls(rng, g)
            a = routing_oracle(g, "v0", "v1", tolls)
            scaled = {e: 7.5 * t for e, t in tolls.items()}
            b = routing_oracle(g, "v0", "v1", scaled)
            assert a.reply == b.reply


class TestShortestPathAgainstNetworkx:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_networkx(self, directed):
        nx = pytest.importorskip("networkx")
        rng = rng_for(24 if directed else 23)
        outcomes = {"path": 0, "infeasible": 0}
        for _ in range(80):
            n = int(rng.integers(2, 9))
            vertices = [f"v{k}" for k in range(n)]
            # random endpoints, so parallel edges, loops and unreachable pairs all occur
            ends = rng.integers(n, size=(int(rng.integers(0, 2 * n)), 2))
            edges = [Edge(f"e{k}", vertices[a], vertices[b]) for k, (a, b) in enumerate(ends)]
            g = HostGraph(directed, tuple(vertices), tuple(edges))
            tolls = {e: t * 10.0 ** float(rng.uniform(-3, 3))
                     for e, t in random_tolls(rng, g).items()}
            ref = nx.MultiDiGraph() if directed else nx.MultiGraph()
            ref.add_nodes_from(vertices)
            for e in g.edges:
                ref.add_edge(e.tail, e.head, key=e.id, toll=tolls[e.id])
            s, t = rng.choice(n, size=2, replace=False)
            source, target = vertices[s], vertices[t]
            if not nx.has_path(ref, source, target):
                outcomes["infeasible"] += 1
                with pytest.raises(InfeasibleError):
                    shortest_path(g, source, target, tolls)
                continue
            outcomes["path"] += 1
            path, edge_ids, dist = shortest_path(g, source, target, tolls)
            expected = nx.shortest_path_length(ref, source, target, weight="toll")
            assert dist == pytest.approx(expected, rel=1e-12)
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path) == len(edge_ids) + 1
            for u, v, eid in zip(path, path[1:], edge_ids):
                e = g.edge_by_id[eid]
                assert (e.tail, e.head) == (u, v) or (not directed and (e.head, e.tail) == (u, v))
            assert sum(tolls[e] for e in sorted(edge_ids)) == pytest.approx(dist, rel=1e-12)
        assert outcomes["path"] > 10 and outcomes["infeasible"] > 10


class TestCandidatePathsAgainstNetworkx:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_all_simple_edge_paths(self, directed):
        """The routing reply collection is every simple s-t path, each once,
        on multigraphs with loops, parallel edges and unreachable pairs."""
        nx = pytest.importorskip("networkx")
        rng = rng_for(26 if directed else 25)
        sizes = []
        for _ in range(150):
            n = int(rng.integers(2, 7))
            vertices = [f"v{k}" for k in range(n)]
            ends = rng.integers(n, size=(int(rng.integers(0, 4 * n)), 2))
            edges = [Edge(f"e{k}", vertices[a], vertices[b]) for k, (a, b) in enumerate(ends)]
            g = HostGraph(directed, tuple(vertices), tuple(edges))
            ref = nx.MultiDiGraph() if directed else nx.MultiGraph()
            ref.add_nodes_from(vertices)
            for e in g.edges:
                ref.add_edge(e.tail, e.head, key=e.id)
            s, t = rng.choice(n, size=2, replace=False)
            inst = Instance(ExponentProfile((2.0,)),
                            tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges) or
                            (ResourceParams("spare", 1.0, (1.0,)),),
                            (Request(id=1, kind=Routing(vertices[s], vertices[t])),), g)
            replies = candidate_replies(inst, inst.requests[0])
            expected = {frozenset(key for _, _, key in path)
                        for path in nx.all_simple_edge_paths(ref, vertices[s], vertices[t])}
            assert len(set(replies)) == len(replies)
            assert set(replies) == expected
            sizes.append(len(replies))
        assert sizes.count(0) > 10 and sum(k > 1 for k in sizes) > 20

class TestMachine:
    def test_cheapest(self):
        assert machine_oracle(("m1", "m2"), {"m1": 5.0, "m2": 9.0}).reply == frozenset({"m1"})

    def test_tie_break_smallest_id(self):
        assert machine_oracle(("m2", "m1"), {"m1": 4.0, "m2": 4.0}).reply == frozenset({"m1"})

    def test_single(self):
        ans = machine_oracle(("m",), {"m": 3.0})
        assert ans.reply == frozenset({"m"}) and ans.toll_total == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            machine_oracle((), {})


class TestExplicit:
    def test_picks_cheapest(self):
        ans = explicit_oracle((frozenset({"e1"}), frozenset({"e2"})), {"e1": 3.0, "e2": 2.0})
        assert ans.reply == frozenset({"e2"})

    def test_single_option(self):
        ans = explicit_oracle((frozenset({"e1", "e2"}),), {"e1": 1.0, "e2": 2.0})
        assert ans.reply == frozenset({"e1", "e2"}) and ans.toll_total == pytest.approx(3.0)

    def test_tie_prefers_first_listed(self):
        ans = explicit_oracle((frozenset({"e2"}), frozenset({"e1"})), {"e1": 2.0, "e2": 2.0})
        assert ans.reply == frozenset({"e2"})


def brute_force_subset_opt(graph, tolls, feasible):
    ids = sorted(e.id for e in graph.edges)
    best = None
    for k in range(len(ids) + 1):
        for combo in combinations(ids, k):
            reply = frozenset(combo)
            if feasible(reply):
                total = sum(tolls[e] for e in reply)
                if best is None or total < best:
                    best = total
    return best


class TestSteinerTree:
    def test_path_instance(self):
        g = HostGraph(False, ("a", "t1", "t2"),
                      (Edge("x", "t1", "a"), Edge("y", "a", "t2")))
        ans = steiner_tree_oracle(g, ("t1", "t2"), {"x": 1.0, "y": 1.0})
        assert ans.reply == frozenset({"x", "y"})
        assert ans.toll_total == pytest.approx(2.0)

    def test_star(self):
        g = HostGraph(False, ("c", "t1", "t2", "t3"),
                      (Edge("s1", "c", "t1"), Edge("s2", "c", "t2"), Edge("s3", "c", "t3")))
        ans = steiner_tree_oracle(g, ("t1", "t2", "t3"),
                                  {"s1": 1.0, "s2": 1.0, "s3": 1.0})
        assert ans.reply == frozenset({"s1", "s2", "s3"})
        assert ans.toll_total == pytest.approx(3.0)

    def test_prunes_dead_leaves(self):
        g = HostGraph(False, ("a", "b", "t1", "t2"),
                      (Edge("ab", "a", "b"), Edge("t1a", "t1", "a"), Edge("at2", "a", "t2")))
        ans = steiner_tree_oracle(g, ("t1", "t2"),
                                  {"ab": 0.1, "t1a": 1.0, "at2": 1.0})
        assert "ab" not in ans.reply

    def test_prunes_leaves_left_by_the_mst(self):
        # the shortest paths a-b (via p, s) and b-c (via r, q) close a cycle
        # through x; the MST of their union drops e6, leaving the dead branch
        # x-q-r, which pruning must remove
        g = HostGraph(False, ("a", "b", "c", "p", "q", "r", "s", "x"),
                      (Edge("ax", "a", "x"), Edge("cx", "c", "x"),
                       Edge("e1", "x", "p"), Edge("e2", "p", "s"), Edge("e3", "s", "b"),
                       Edge("e4", "x", "q"), Edge("e5", "q", "r"), Edge("e6", "r", "b")))
        tolls = {"ax": 10.0, "cx": 10.0, **{f"e{k}": 1.0 for k in range(1, 7)}}
        ans = steiner_tree_oracle(g, ("a", "b", "c"), tolls)
        assert ans.reply == frozenset({"ax", "cx", "e1", "e2", "e3"})
        assert ans.toll_total == 23.0

    def test_unreachable_terminals(self):
        g = HostGraph(False, ("t1", "t2", "x"), (Edge("e", "t1", "x"),))
        with pytest.raises(InfeasibleError):
            steiner_tree_oracle(g, ("t1", "t2"), {"e": 1.0})

    def test_within_factor_two_of_brute_force(self):
        rng = rng_for(31)
        inst_count = 0
        while inst_count < 25:
            g = random_connected_graph(rng, int(rng.integers(4, 7)),
                                       int(rng.integers(1, 4)))
            if len(g.edges) > 10:
                continue
            inst_count += 1
            tolls = random_tolls(rng, g)
            k = int(rng.integers(2, min(4, len(g.vertices)) + 1))
            terms = tuple(
                g.vertices[i] for i in rng.choice(len(g.vertices), size=k, replace=False))
            inst = instance_for(g, SetConnectivity(terms))
            ans = steiner_tree_oracle(g, terms, tolls)
            assert validate_reply(inst, inst.requests[0], ans.reply)
            assert ans.toll_total == pytest.approx(sum(tolls[e] for e in ans.reply))
            opt = brute_force_subset_opt(
                g, tolls,
                lambda reply: bool(validate_reply(inst, inst.requests[0], reply)))
            assert ans.toll_total <= 2.0 * opt + 1e-9


class TestSteinerForest:
    def test_single_pair_matches_routing(self):
        g = triangle()
        tolls = {"sa": 1.0, "at": 1.0, "st": 3.0}
        forest = steiner_forest_oracle(g, (("s", "t"),), tolls)
        path = routing_oracle(g, "s", "t", tolls)
        assert forest.toll_total == pytest.approx(path.toll_total)

    def test_disjoint_pairs_take_disjoint_paths(self):
        g = HostGraph(False, ("a", "b", "c", "d"),
                      (Edge("ab", "a", "b"), Edge("cd", "c", "d")))
        ans = steiner_forest_oracle(g, (("a", "b"), ("c", "d")), {"ab": 1.0, "cd": 2.0})
        assert ans.reply == frozenset({"ab", "cd"})

    def test_path_with_two_pairs_drops_middle_edge(self):
        g = HostGraph(False, ("v1", "v2", "v3", "v4"),
                      (Edge("a", "v1", "v2"), Edge("b", "v2", "v3"), Edge("c", "v3", "v4")))
        ans = steiner_forest_oracle(g, (("v1", "v2"), ("v3", "v4")),
                                    {"a": 1.0, "b": 1.0, "c": 1.0})
        assert ans.reply == frozenset({"a", "c"})
        assert ans.toll_total == pytest.approx(2.0)

    def test_unreachable_pair(self):
        g = HostGraph(False, ("a", "b", "c"), (Edge("ab", "a", "b"),))
        with pytest.raises(InfeasibleError):
            steiner_forest_oracle(g, (("a", "c"),), {"ab": 1.0})

    def test_within_factor_two_of_brute_force(self):
        rng = rng_for(37)
        inst_count = 0
        while inst_count < 25:
            g = random_connected_graph(rng, int(rng.integers(4, 7)),
                                       int(rng.integers(1, 4)))
            if len(g.edges) > 10:
                continue
            inst_count += 1
            tolls = random_tolls(rng, g)
            n_pairs = int(rng.integers(1, 3))
            pairs = []
            for _ in range(n_pairs):
                a, b = rng.choice(len(g.vertices), size=2, replace=False)
                pairs.append((g.vertices[a], g.vertices[b]))
            inst = instance_for(g, MultiRouting(tuple(pairs)))
            ans = steiner_forest_oracle(g, pairs, tolls)
            assert validate_reply(inst, inst.requests[0], ans.reply)
            assert ans.toll_total == pytest.approx(sum(tolls[e] for e in ans.reply))
            opt = brute_force_subset_opt(
                g, tolls,
                lambda reply: bool(validate_reply(inst, inst.requests[0], reply)))
            assert ans.toll_total <= 2.0 * opt + 1e-9


def random_multigraph(rng):
    """Connected undirected graph on 3 to 5 vertices, with parallel edges and
    self-loops added at random."""
    g = random_connected_graph(rng, int(rng.integers(3, 6)), int(rng.integers(0, 3)))
    edges = list(g.edges)
    for k in range(int(rng.integers(0, 3))):
        e = edges[int(rng.integers(len(edges)))]
        edges.append(Edge(f"p{k}", e.tail, e.head))
    for k in range(int(rng.integers(0, 2))):
        v = g.vertices[int(rng.integers(len(g.vertices)))]
        edges.append(Edge(f"l{k}", v, v))
    return HostGraph(False, g.vertices, tuple(edges))


def random_terminals(rng, graph):
    k = int(rng.integers(2, min(4, len(graph.vertices)) + 1))
    return tuple(graph.vertices[i]
                 for i in rng.choice(len(graph.vertices), size=k, replace=False))


def enumerated_optimum(graph, kind, tolls):
    """Least total toll over every feasible reply (all edge subsets)."""
    inst = instance_for(graph, kind)
    return min(sum(tolls[e] for e in sorted(reply))
               for reply in candidate_replies(inst, inst.requests[0]))


class TestSteinerOraclesAgainstReferences:
    def test_tree_within_twice_the_optimum(self):
        rng = rng_for(43)
        for _ in range(40):
            g = random_multigraph(rng)
            tolls = random_tolls(rng, g)
            terms = random_terminals(rng, g)
            inst = instance_for(g, SetConnectivity(terms))
            ans = steiner_tree_oracle(g, terms, tolls)
            assert validate_reply(inst, inst.requests[0], ans.reply)
            assert ans.toll_total <= 2.0 * enumerated_optimum(g, inst.requests[0].kind, tolls)

    def test_forest_within_twice_the_optimum(self):
        rng = rng_for(47)
        for _ in range(40):
            g = random_multigraph(rng)
            tolls = random_tolls(rng, g)
            pairs = []
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.choice(len(g.vertices), size=2, replace=False)
                pairs.append((g.vertices[a], g.vertices[b]))
            inst = instance_for(g, MultiRouting(tuple(pairs)))
            ans = steiner_forest_oracle(g, pairs, tolls)
            assert validate_reply(inst, inst.requests[0], ans.reply)
            assert ans.toll_total <= 2.0 * enumerated_optimum(g, inst.requests[0].kind, tolls)

    def test_tree_matches_networkx_kou(self):
        """networkx's method="kou" is the same metric-closure construction
        (Kou, Markowsky & Berman 1981); with continuous random tolls no two
        candidate trees tie, so both must pick a tree of the same toll."""
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.approximation import steiner_tree
        rng = rng_for(53)
        for _ in range(40):
            g = random_multigraph(rng)
            tolls = random_tolls(rng, g)
            terms = random_terminals(rng, g)
            multi = nx.MultiGraph()
            multi.add_nodes_from(g.vertices)
            for e in g.edges:
                multi.add_edge(e.tail, e.head, key=e.id, weight=tolls[e.id])
            reference = steiner_tree(multi, list(terms), method="kou")
            expected = sum(w for _, _, w in reference.edges(data="weight"))
            assert steiner_tree_oracle(g, terms, tolls).toll_total == pytest.approx(
                expected, rel=1e-12)


def outcome(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except (InfeasibleError, InstanceError) as exc:
        return type(exc).__name__, str(exc)


def same_answer(new, ref):
    """Equal replies and bit-equal toll totals (or the same error)."""
    if isinstance(ref, OracleAnswer):
        return (isinstance(new, OracleAnswer) and new.reply == ref.reply
                and new.toll_total.hex() == ref.toll_total.hex())
    return new == ref


def random_pairs(rng, graph, low=1, high=3):
    return [tuple(graph.vertices[int(i)]
                  for i in rng.choice(len(graph.vertices), size=2, replace=False))
            for _ in range(int(rng.integers(low, high + 1)))]


class TestAgainstEarlierImplementations:
    """The oracles against the plainer implementations they replaced
    (``helpers.reference_*``), on multigraphs with loops, parallel edges and,
    in many cases, integer tolls that tie or absorbing tolls that tie through
    different parents, and in the searches, the forest and the tree a
    quarter of zero tolls: same replies, bit-equal toll totals, same
    errors."""

    def test_forest_matches_reverse_deletion(self):
        rng = rng_for(59)
        infeasible = 0
        for case in range(2400):
            g, tolls = random_toll_multigraph(rng, integer_tolls=case % 2 == 0)
            tolls = with_zero_tolls(rng, tolls)
            pairs = random_pairs(rng, g)
            new = outcome(steiner_forest_oracle, g, pairs, tolls)
            ref = outcome(reference_steiner_forest, g, pairs, tolls)
            assert same_answer(new, ref), (case, pairs)
            infeasible += not isinstance(ref, OracleAnswer)
        assert 100 < infeasible < 2000

    def test_forest_matches_reverse_deletion_on_grids(self):
        # 6x6 to 10x10 grids, where a growth round examines far fewer edges
        # than there are: real tolls, integer tolls that tie, and tolls with
        # +inf on one row's downward edges and on some others, so a pair
        # across that row makes a step of +inf, which sends every
        # candidate's toll left to 0; a pair shares an endpoint with the
        # one before it a quarter of the time
        rng = rng_for(83)
        infinite = 0
        for case in range(240):
            k = int(rng.integers(6, 11))
            g = grid_graph(k)
            if case % 3 == 1:
                tolls = {e.id: float(rng.integers(1, 4)) for e in g.edges}
            else:
                tolls = random_tolls(rng, g)
            if case % 3 == 2:
                row = int(rng.integers(k - 1))
                tolls.update((e.id, math.inf) for e in g.edges
                             if e.id.startswith(f"d{row}") or rng.random() < 0.1)
            pairs = random_pairs(rng, g, 1, 4)
            for k in range(1, len(pairs)):
                if rng.random() < 0.25:
                    s, t = pairs[k]
                    shared = pairs[k - 1][int(rng.integers(2))]
                    pairs[k] = (shared, t if t != shared else s)
            new = outcome(steiner_forest_oracle, g, pairs, tolls)
            ref = outcome(reference_steiner_forest, g, pairs, tolls)
            assert isinstance(ref, OracleAnswer) and same_answer(new, ref), (case, pairs)
            infinite += ref.toll_total == math.inf
        assert 40 < infinite < 80

    @pytest.mark.parametrize("directed", [False, True])
    def test_shortest_paths_match_one_search_per_target(self, directed):
        # a third of the cases have absorbing tolls on up to 9 vertices
        rng = rng_for(61 + directed)
        for case in range(450):
            absorbing = case % 3 == 2
            g, tolls = random_toll_multigraph(rng, directed, 9 if absorbing else 7,
                                              integer_tolls=case % 3 == 0)
            if absorbing:
                tolls = absorbing_tolls(rng, g)
            tolls = with_zero_tolls(rng, tolls)
            source = g.vertices[int(rng.integers(len(g.vertices)))]
            targets = [v for v in g.vertices if v != source and rng.random() < 0.7]
            found = shortest_paths(g, source, targets, tolls)
            ref_found = reference_shortest_paths(g, source, targets, tolls)
            assert found.keys() == ref_found.keys(), case
            for t in targets:
                ref = outcome(reference_shortest_path, g, source, t, tolls)
                assert outcome(shortest_path, g, source, t, tolls) == ref
                if t in found:
                    assert found[t] == ref_found[t] == ref, (case, t)
                    assert found[t][2].hex() == ref_found[t][2].hex() == ref[2].hex()
                else:
                    assert ref[0] == "InfeasibleError"

    @pytest.mark.parametrize("directed", [False, True])
    def test_a_guided_search_matches_the_unguided_one(self, directed):
        # lower rows equal to the tolls, zero, and random in between, on
        # the cases of the test above: the same found set, paths and bits
        rng = rng_for(67 + directed)
        unreachable = 0
        for case in range(450):
            absorbing = case % 3 == 2
            g, tolls = random_toll_multigraph(rng, directed, 9 if absorbing else 7,
                                              integer_tolls=case % 3 == 0)
            if absorbing:
                tolls = absorbing_tolls(rng, g)
            tolls = with_zero_tolls(rng, tolls)
            source, target = (g.vertices[int(k)] for k in
                              rng.choice(len(g.vertices), size=2, replace=False))
            unguided = shortest_paths(g, source, (target,), tolls)
            unreachable += target not in unguided
            lowers = [tolls, dict.fromkeys(tolls, 0.0),
                      {e: t * float(rng.uniform()) if rng.random() < 0.7 else t
                       for e, t in tolls.items()}]
            for lower in lowers:
                assert all(lower[e] <= tolls[e] for e in tolls)
                guide = lower_bound_tree(g, target, lower)
                guided = shortest_paths(g, source, (target,), tolls, guide)
                assert guided.keys() == unguided.keys(), case
                if target in guided:
                    assert guided[target] == unguided[target], case
                    assert guided[target][2].hex() == unguided[target][2].hex()
                    answer = routing_oracle(g, source, target, tolls, guide)
                    assert answer == routing_oracle(g, source, target, tolls)
        assert 20 < unreachable < 400

    def test_a_guide_prunes_a_grid_search(self, monkeypatch):
        # on an 8x8 grid under tolls within 10% of each other, a search
        # across the grid guided by its own tolls pushes only vertices near
        # the shortest path, under a third of what the unguided one pushes
        g = grid_graph(8)
        rng = rng_for(73)
        pushes = []

        def push(heap, item):
            pushes.append(item[1])
            heapq.heappush(heap, item)

        for _ in range(10):
            tolls = {e.id: float(rng.uniform(1.0, 1.1)) for e in g.edges}
            row, col = (int(k) for k in rng.integers(8, size=2))
            source, target = f"v{row}0", f"v{col}7"
            counts = []
            for guide in (None, lower_bound_tree(g, target, tolls)):
                pushes.clear()
                monkeypatch.setattr(oracles, "heapq", SimpleNamespace(
                    heappop=heapq.heappop, heappush=push))
                found = shortest_paths(g, source, (target,), tolls, guide)
                monkeypatch.undo()
                counts.append(len(pushes))
                assert found[target] == reference_shortest_path(g, source, target, tolls)
            assert counts[1] * 3 < counts[0], counts

    def test_equal_distances_settle_by_full_key(self):
        # p and q both lie at 2e5, p by s-c-p and q by s-a-q, and the q-p
        # toll is absorbed: 2e5 + 1e-12 == 2e5.  q's key (s, a, q) is below
        # p's (s, c, p), so q settles first and offers p the key (s, a, q, p),
        # which wins.  Settling the tied p and q by vertex index instead would
        # settle p first and answer s-c-p.
        g = HostGraph(False, ("a", "c", "p", "q", "s"),
                      (Edge("sa", "s", "a"), Edge("aq", "a", "q"),
                       Edge("sc", "s", "c"), Edge("cp", "c", "p"), Edge("pq", "p", "q")))
        tolls = {"sa": 1e5, "aq": 1e5, "sc": 1e5, "cp": 1e5, "pq": 1e-12}
        assert 2e5 + tolls["pq"] == 2e5
        expected = (("s", "a", "q", "p"), ("sa", "aq", "pq"), 2e5)
        assert shortest_path(g, "s", "p", tolls) == expected
        assert shortest_paths(g, "s", ("p", "c"), tolls)["p"] == expected
        assert reference_shortest_paths(g, "s", ("p",), tolls)["p"] == expected

    def test_a_key_changed_at_a_tie_reorders_the_waiting_vertices(self):
        # a and e wait at 2e5; a settles first and absorbs d and g into the
        # wait, then d's offer to e at the same distance gives e the key
        # b-c-f-a-d-e, now below g's b-c-f-a-g, so e settles before g and
        # g's key becomes b-c-f-a-d-e-g
        g = HostGraph(False, ("a", "b", "c", "d", "e", "f", "g"),
                      (Edge("bc", "b", "c"), Edge("cf", "c", "f"), Edge("fa", "f", "a"),
                       Edge("fe", "f", "e"), Edge("ad", "a", "d"), Edge("ag", "a", "g"),
                       Edge("ed", "e", "d"), Edge("eg", "e", "g")))
        tolls = {"bc": 1e5, "fa": 1e5, "fe": 1e5,
                 "cf": 1e-12, "ad": 1e-12, "ag": 1e-12, "ed": 1e-12, "eg": 1e-12}
        expected = (("b", "c", "f", "a", "d", "e", "g"), ("bc", "cf", "fa", "ad", "ed", "eg"), 2e5)
        assert shortest_path(g, "b", "g", tolls) == expected
        assert reference_shortest_paths(g, "b", ("g",), tolls)["g"] == expected

    def test_equal_distance_offer_reparents_on_a_smaller_key(self):
        # b settles at 1 and offers t the key (3, s-b-t); a settles at 2 and
        # offers (3, s-a-t), the same distance by a lex-smaller path
        g = HostGraph(False, ("a", "b", "s", "t"),
                      (Edge("sa", "s", "a"), Edge("at", "a", "t"),
                       Edge("sb", "s", "b"), Edge("bt", "b", "t")))
        tolls = {"sa": 2.0, "at": 1.0, "sb": 1.0, "bt": 2.0}
        assert shortest_path(g, "s", "t", tolls) == (("s", "a", "t"), ("sa", "at"), 3.0)

    def test_tree_matches_pairwise_closure(self):
        rng = rng_for(67)
        for case in range(600):
            g, tolls = random_toll_multigraph(rng, integer_tolls=case % 2 == 0)
            tolls = with_zero_tolls(rng, tolls)
            terms = random_terminals(rng, g)
            new = outcome(steiner_tree_oracle, g, terms, tolls)
            assert same_answer(new, outcome(reference_steiner_tree, g, terms, tolls)), case

    @pytest.mark.parametrize("cycle", [False, True])
    def test_directed_heuristics_match_pairwise_union(self, cycle):
        def reference(graph, pairs, tolls):
            union = set()
            for s, t in pairs:
                union.update(reference_shortest_path(graph, s, t, tolls)[1])
            return OracleAnswer(frozenset(union), sum(tolls[e] for e in sorted(union)))

        rng = rng_for(71 + cycle)
        for case in range(400):
            g, tolls = random_toll_multigraph(rng, True, integer_tolls=case % 2 == 0)
            if cycle:
                terms = sorted(random_terminals(rng, g))
                pairs = list(zip(terms, terms[1:] + terms[:1]))
                new = outcome(strong_connectivity_oracle, g, terms, tolls)
            else:
                pairs = random_pairs(rng, g, 1, 4)
                new = outcome(directed_multi_routing_oracle, g, pairs, tolls)
            assert same_answer(new, outcome(reference, g, pairs, tolls)), case


class TestOracleErrors:
    def disconnected(self, directed=False):
        # a - b   c - d   e
        return HostGraph(directed, ("a", "b", "c", "d", "e"),
                         (Edge("ab", "a", "b"), Edge("cd", "c", "d")))

    TOLLS = {"ab": 1.0, "cd": 1.0}

    def test_tree_names_the_first_unconnected_pair(self):
        with pytest.raises(InfeasibleError, match="terminals 'a' and 'c' are not connected"):
            steiner_tree_oracle(self.disconnected(), ("e", "c", "b", "a"), self.TOLLS)
        with pytest.raises(InfeasibleError, match="terminals 'c' and 'e' are not connected"):
            steiner_tree_oracle(self.disconnected(), ("e", "d", "c"), self.TOLLS)

    def test_tree_unknown_terminal(self):
        with pytest.raises(InstanceError, match="unknown endpoint vertex"):
            steiner_tree_oracle(self.disconnected(), ("a", "b", "z"), self.TOLLS)

    def test_directed_union_names_the_first_failing_pair(self):
        g = self.disconnected(directed=True)
        with pytest.raises(InfeasibleError, match="no path from 'b' to 'a'"):
            directed_multi_routing_oracle(g, (("a", "b"), ("b", "a"), ("a", "c")), self.TOLLS)
        with pytest.raises(InfeasibleError, match="no path from 'a' to 'e'"):
            directed_multi_routing_oracle(g, (("a", "b"), ("a", "e"), ("c", "c")), self.TOLLS)
        with pytest.raises(InstanceError, match="source equals target"):
            directed_multi_routing_oracle(g, (("a", "b"), ("c", "c"), ("a", "e")), self.TOLLS)

    def test_forest_unknown_endpoint(self):
        with pytest.raises(InstanceError, match="unknown endpoint vertex"):
            steiner_forest_oracle(self.disconnected(), (("a", "b"), ("c", "z")), self.TOLLS)

    def test_missing_toll(self):
        with pytest.raises(InstanceError, match="no toll given for resource 'cd'"):
            shortest_paths(self.disconnected(), "d", ("c",), {"ab": 1.0})

    def test_unknown_endpoints(self):
        with pytest.raises(InstanceError, match="unknown endpoint vertex"):
            shortest_paths(self.disconnected(), "z", ("a",), self.TOLLS)
        with pytest.raises(InstanceError, match="unknown endpoint vertex"):
            shortest_path(self.disconnected(), "a", "z", self.TOLLS)

    def test_shortest_paths_reports_only_reachable_targets(self):
        found = shortest_paths(self.disconnected(), "a", ("e", "b", "c"), self.TOLLS)
        assert found == {"b": (("a", "b"), ("ab",), 1.0)}


class TestSearchInputs:
    @pytest.mark.parametrize("directed", [False, True])
    def test_int_and_numpy_tolls_give_bit_equal_float_totals(self, directed):
        rng = rng_for(73 + directed)
        for case in range(100):
            g, tolls = random_toll_multigraph(rng, directed, integer_tolls=case % 2 == 0)
            source = g.vertices[0]
            for given in ({e: int(t) for e, t in tolls.items()} if case % 2 == 0 else tolls,
                          {e: np.float64(t) for e, t in tolls.items()}):
                found = shortest_paths(g, source, g.vertices, given)
                ref = reference_shortest_paths(g, source, g.vertices, tolls)
                assert found == ref
                for t, (_, _, total) in found.items():
                    assert type(total) is float and total.hex() == ref[t][2].hex()

    @staticmethod
    def multigraph(directed):
        # a loop, two parallel edges given out of id order, vertices unsorted
        return HostGraph(directed, ("x", "b", "a"),
                         (Edge("l", "a", "a"), Edge("p2", "a", "b"), Edge("p1", "a", "b"),
                          Edge("q", "b", "x"), Edge("r", "x", "a"), Edge("m", "x", "x")))

    @pytest.mark.parametrize("build", ["grid", "directed grid", "multigraph",
                                       "directed multigraph"])
    def test_index_is_built_once_and_agrees_with_adjacency(self, build):
        g = {"grid": lambda: grid_graph(4), "directed grid": lambda: directed_grid_graph(3),
             "multigraph": lambda: self.multigraph(False),
             "directed multigraph": lambda: self.multigraph(True)}[build]()
        index, neighbors = g.indexed_adjacency
        assert g.indexed_adjacency is g.indexed_adjacency
        assert list(index) == list(g.vertices) and list(index.values()) == list(range(len(g.vertices)))
        assert len(neighbors) == len(g.vertices)
        for v, i in index.items():
            assert [(g.vertices[w], eid) for w, eid in neighbors[i]] == list(g.adjacency[v])
        # the incidence over edge indices, for the Steiner forest's borders
        ends, incident = g.indexed_incidence
        assert g.indexed_incidence is g.indexed_incidence
        assert ends == tuple((index[e.tail], index[e.head]) for e in g.edges)
        assert len(incident) == len(g.vertices)
        for v, i in index.items():
            # every edge at v by index, in edge (so id) order, loops left out
            assert list(incident[i]) == [k for k, e in enumerate(g.edges)
                                         if v in (e.tail, e.head) and e.tail != e.head]
        loops = {k for k, e in enumerate(g.edges) if e.tail == e.head}
        assert loops == ({0, 1} if "multigraph" in build else set())
        assert not loops & {k for at in incident for k in at}


class TestDirectedHeuristics:
    def cycle_graph(self):
        return HostGraph(True, ("a", "b", "c"),
                         (Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")))

    def test_strong_connectivity_cycle(self):
        g = self.cycle_graph()
        tolls = {"ab": 1.0, "bc": 1.0, "ca": 1.0}
        ans = strong_connectivity_oracle(g, ("a", "b", "c"), tolls)
        inst = instance_for(g, SetConnectivity(("a", "b", "c")))
        assert validate_reply(inst, inst.requests[0], ans.reply)
        assert oracle_rho(inst, inst.requests[0]) == 3.0

    def test_directed_multi_routing_union(self):
        g = self.cycle_graph()
        tolls = {"ab": 1.0, "bc": 1.0, "ca": 1.0}
        ans = directed_multi_routing_oracle(g, (("a", "b"), ("b", "c")), tolls)
        assert ans.reply == frozenset({"ab", "bc"})
        inst = instance_for(g, MultiRouting((("a", "b"), ("b", "c"))))
        assert oracle_rho(inst, inst.requests[0]) == 2.0


def both_ways(graph):
    """The directed graph with both orientations of every edge, so every
    terminal reaches every other."""
    arcs = (*graph.edges, *(Edge("r" + e.id, e.head, e.tail) for e in graph.edges))
    return HostGraph(True, graph.vertices, arcs)


def graph_case(kind_of, directed=False):
    def build(rng):
        g = random_connected_graph(rng, 5, 2)
        if directed:
            g = both_ways(g)
        tolls = random_tolls(rng, g)
        return instance_for(g, kind_of(g.vertices)), tolls
    return build


def resource_tolls(rng, inst):
    return {r.id: float(rng.uniform(0.2, 3.0)) for r in inst.resources}


def machine_case(rng):
    resources = tuple(ResourceParams(f"m{k}", 1.0, (1.0,)) for k in range(4))
    request = Request(id=1, kind=MachineChoice(("m2", "m0", "m3")))
    inst = Instance(ExponentProfile((2.0,)), resources, (request,))
    return inst, resource_tolls(rng, inst)


def explicit_case(rng):
    inst = random_explicit_instance(rng)
    return inst, resource_tolls(rng, inst)


# one small seeded instance builder per oracle that reply_oracle dispatches to
DISPATCH_CASES = {
    "routing": graph_case(lambda v: Routing(v[0], v[1])),
    "machine choice": machine_case,
    "explicit replies": explicit_case,
    "multi-routing": graph_case(lambda v: MultiRouting(((v[0], v[2]), (v[1], v[3])))),
    "set connectivity": graph_case(lambda v: SetConnectivity((v[0], v[2], v[4]))),
    "directed multi-routing": graph_case(
        lambda v: MultiRouting(((v[0], v[2]), (v[3], v[1]))), directed=True),
    "strong connectivity": graph_case(
        lambda v: SetConnectivity((v[0], v[2], v[4])), directed=True),
}


class TestDispatchAndClamping:
    def test_every_answer_validates(self):
        # the reply is feasible, its total is its tolls' sum, and the total is
        # within the factor oracle_rho reports of the best reply there is
        for case, build in DISPATCH_CASES.items():
            rng = rng_for(41)
            for _ in range(20):
                inst, tolls = build(rng)
                request = inst.requests[0]
                ans = reply_oracle(Sweep(inst, {0: tolls}), 0)
                assert validate_reply(inst, request, ans.reply), case
                assert ans.toll_total == pytest.approx(
                    sum(tolls[e] for e in sorted(ans.reply)), rel=1e-12), case
                best = min(sum(tolls[e] for e in sorted(reply))
                           for reply in candidate_replies(inst, request))
                assert ans.toll_total <= oracle_rho(inst, request) * best * (1 + 1e-12), case


def mixed_instance(rng, directed):
    """A graph that need not be connected, with parallel edges and
    self-loops, and two to eight requests of the five kinds on it; the
    routing targets are drawn from two vertices, so they repeat."""
    while True:
        g, _ = random_toll_multigraph(rng, directed, 7)
        if len(g.edges) >= 2:
            break
    ids = [e.id for e in g.edges]
    targets = rng.choice(len(g.vertices), size=2, replace=False)
    requests = []
    for _ in range(int(rng.integers(2, 9))):
        pick = int(rng.integers(5))
        if pick == 0:
            target = int(targets[int(rng.integers(2))])
            source = int(rng.choice([v for v in range(len(g.vertices)) if v != target]))
            requests.append(Routing(g.vertices[source], g.vertices[target]))
        elif pick == 1:
            requests.append(MultiRouting(tuple(random_pairs(rng, g))))
        elif pick == 2:
            requests.append(SetConnectivity(random_terminals(rng, g)))
        elif pick == 3:
            machines = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
            requests.append(MachineChoice(tuple(machines.tolist())))
        else:
            requests.append(ExplicitReplies(tuple(
                frozenset(rng.choice(ids, size=int(rng.integers(1, 3)), replace=False).tolist())
                for _ in range(int(rng.integers(1, 4))))))
    resources = tuple(ResourceParams(e, 1.0, (1.0,)) for e in ids)
    return Instance(ExponentProfile((2.0,)), resources,
                    tuple(Request(id=i, kind=kind) for i, kind in enumerate(requests, 1)), g)


def random_rows(rng, inst):
    """A toll row for a random nonempty subset of the positions, each
    listing the resources in instance order: a row of an earlier position
    (the same object), a base row with each toll raised by up to half, or
    a fresh row; about a quarter of the tolls are zero.  Integer and
    absorbed tolls make ties."""
    mode = int(rng.integers(3))
    graph = inst.graph

    def fresh():
        if mode == 2:
            return with_zero_tolls(rng, absorbing_tolls(rng, graph))
        if mode == 1:
            return with_zero_tolls(rng, {e.id: float(rng.integers(1, 4)) for e in graph.edges})
        return with_zero_tolls(rng, random_tolls(rng, graph))

    base = fresh()
    rows = {}
    for pos in range(inst.n_requests):
        if rng.random() < 0.2:
            continue
        pick = rng.random()
        if rows and pick < 0.3:
            rows[pos] = list(rows.values())[int(rng.integers(len(rows)))]
        elif pick < 0.7:
            rows[pos] = {e: t * float(rng.uniform(1.0, 1.5)) for e, t in base.items()}
        else:
            rows[pos] = fresh()
    return rows or {0: base}


def unguided(inst, request, row):
    """The reply of the request's kind's own oracle, called with the row
    directly and no guide."""
    kind, graph = request.kind, inst.graph
    if isinstance(kind, Routing):
        return routing_oracle(graph, kind.source, kind.target, row)
    if isinstance(kind, MachineChoice):
        return machine_oracle(kind.machines, row)
    if isinstance(kind, ExplicitReplies):
        return explicit_oracle(kind.replies, row)
    if isinstance(kind, MultiRouting):
        oracle = directed_multi_routing_oracle if graph.directed else steiner_forest_oracle
        return oracle(graph, kind.pairs, row)
    oracle = strong_connectivity_oracle if graph.directed else steiner_tree_oracle
    return oracle(graph, kind.terminals, row)


def routing_and_more():
    """Three routing requests to two targets on a 3x3 grid, then one
    request of each other kind."""
    g = grid_graph(3)
    ids = [e.id for e in g.edges]
    kinds = [Routing("v00", "v22"), Routing("v20", "v22"), Routing("v22", "v00"),
             SetConnectivity(("v00", "v22")), MultiRouting((("v00", "v12"),)),
             MachineChoice(tuple(ids[:3])), ExplicitReplies((frozenset(ids[:2]),))]
    resources = tuple(ResourceParams(e, 1.0, (1.0,)) for e in ids)
    return Instance(ExponentProfile((2.0,)), resources,
                    tuple(Request(id=i, kind=k) for i, k in enumerate(kinds, 1)), g)


class TestSweep:
    @pytest.mark.parametrize("directed", [False, True])
    def test_guided_replies_match_the_unguided_ones(self, directed):
        # every position of a sweep gets the reply and the toll total's bits
        # its kind's oracle gives under its row with no guide (or the same
        # error), and the sweep then holds one guide per routing target
        rng = rng_for(97 + directed)
        guided_searches = 0
        for case in range(150):
            inst = mixed_instance(rng, directed)
            rows = random_rows(rng, inst)
            sweep = Sweep(inst, rows)
            kinds = [inst.requests[pos].kind for pos in rows]
            for pos, row in rows.items():
                assert same_answer(outcome(reply_oracle, sweep, pos),
                                   outcome(unguided, inst, inst.requests[pos], row)), case
            assert sweep.trees.keys() == {k.target for k in kinds if isinstance(k, Routing)}, case
            guided_searches += sum(isinstance(k, Routing) for k in kinds)
        assert guided_searches > 100

    def test_a_routing_request_gets_its_targets_guide(self, monkeypatch):
        # reply_oracle binds the sweep's guide of the target into the
        # routing search and hands no other oracle a guide
        inst = routing_and_more()
        tolls = random_tolls(rng_for(101), inst.graph)
        sweep = Sweep(inst, dict.fromkeys(range(4), tolls))
        seen = []
        search = oracles.shortest_paths

        def recorded(graph, source, targets, tolls, guide=None):
            seen.append(guide)
            return search(graph, source, targets, tolls, guide)

        monkeypatch.setattr(oracles, "shortest_paths", recorded)
        for pos in range(4):
            reply_oracle(sweep, pos)
        assert list(sweep.trees) == ["v22", "v00"]
        assert seen == [sweep.trees["v22"], sweep.trees["v22"], sweep.trees["v00"], None]

    def test_trees_are_built_lazily(self, monkeypatch):
        # a sweep builds no tree until a routing position is answered, then
        # one per routing target answered, and none for the other kinds; it
        # keeps its own copy of the rows it was given
        inst = routing_and_more()
        built = []
        tree = oracles.lower_bound_tree
        monkeypatch.setattr(oracles, "lower_bound_tree",
                            lambda graph, target, lower: built.append(target)
                            or tree(graph, target, lower))
        rows = dict.fromkeys(range(inst.n_requests), random_tolls(rng_for(109), inst.graph))
        sweep = Sweep(inst, rows)
        rows.clear()
        assert built == []
        for pos in range(3, inst.n_requests):
            reply_oracle(sweep, pos)
        assert built == []
        for pos in (0, 1, 0, 2, 1, 2):
            reply_oracle(sweep, pos)
        assert built == ["v22", "v00"]

    def test_rows_are_read_by_resource_id(self):
        # a row may list its resources in any order: two of three rows
        # reversed still give every routing request its unguided reply
        g = grid_graph(4)
        resources = tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges)
        rng = rng_for(103)
        checked = 0
        for case in range(100):
            picks = [rng.choice(len(g.vertices), size=2, replace=False) for _ in range(3)]
            inst = Instance(ExponentProfile((2.0,)), resources, tuple(
                Request(id=i, kind=Routing(g.vertices[int(s)], g.vertices[int(t)]))
                for i, (s, t) in enumerate(picks, 1)), g)
            rows = {pos: random_tolls(rng, g) for pos in range(3)}
            for pos in (1, 2):
                rows[pos] = dict(reversed(rows[pos].items()))
            sweep = Sweep(inst, rows)
            for pos, row in rows.items():
                assert same_answer(outcome(reply_oracle, sweep, pos),
                                   outcome(unguided, inst, inst.requests[pos], row)), case
                checked += 1
        assert checked == 300

    def test_a_row_without_a_resource_is_refused(self):
        g = grid_graph(2)
        inst = Instance(ExponentProfile((2.0,)),
                        tuple(ResourceParams(e.id, 1.0, (1.0,)) for e in g.edges),
                        (Request(id=1, kind=Routing("v00", "v11")),), g)
        row = random_tolls(rng_for(107), g)
        missing = min(row)
        del row[missing]
        with pytest.raises(InstanceError, match=f"no toll given for resource {missing!r}"):
            Sweep(inst, {0: row})
