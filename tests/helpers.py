"""Seeded random generators shared by the unit and acceptance tests."""

from __future__ import annotations

import heapq
import math
from itertools import product

import numpy as np

from gndes import (
    Edge,
    ExplicitReplies,
    InfeasibleError,
    ExponentProfile,
    HostGraph,
    Instance,
    MultiRouting,
    PassView,
    ProfileState,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
)
from gndes import analysis
from gndes.errors import EnumerationLimitError, InstanceError
from gndes.instance import exceeds, left_sum, load_vector, rep_cost, total_cost
from gndes.oracles import OracleAnswer
from gndes.sharing import ShareQuery, cost_share, whp_delta


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def pass_view(instance: Instance, config, profile, step: int, planned_budget: int) -> PassView:
    """The delta pass at ``step`` of a run whose step budget is ``planned_budget``."""
    delta = whp_delta(planned_budget, instance.n_requests, len(instance.resources))
    return PassView(ProfileState(instance, profile), config, step, delta)


def random_exponents(rng, max_q: int = 2, alpha_max: float = 4.0) -> ExponentProfile:
    q = int(rng.integers(1, max_q + 1))
    return ExponentProfile(tuple(float(rng.uniform(1.05, alpha_max)) for _ in range(q)))


def random_resource(rng, rid: str, q: int, max_sigma: float = 5.0) -> ResourceParams:
    sigma = float(rng.uniform(0.0, max_sigma))
    xis = [float(rng.uniform(0.1, 2.0)) if rng.random() < 0.8 else 0.0 for _ in range(q)]
    if not any(xis):
        xis[int(rng.integers(q))] = float(rng.uniform(0.1, 2.0))
    return ResourceParams(rid, sigma, tuple(xis))


def random_share_query(rng, max_users: int = 8, max_weight: int = 5) -> ShareQuery:
    exp = random_exponents(rng)
    res = random_resource(rng, "r", exp.q)
    n = int(rng.integers(1, max_users + 1))
    users = tuple((i, int(rng.integers(1, max_weight + 1))) for i in range(1, n + 1))
    target = int(rng.integers(1, n + 1))
    return ShareQuery(res, exp, users, target=target)


def random_explicit_instance(rng, max_players: int = 4, max_resources: int = 5,
                             max_weight: int = 4) -> Instance:
    exp = random_exponents(rng)
    n_res = int(rng.integers(2, max_resources + 1))
    resources = tuple(random_resource(rng, f"r{k}", exp.q) for k in range(n_res))
    ids = [r.id for r in resources]
    n_players = int(rng.integers(1, max_players + 1))
    requests = []
    for i in range(1, n_players + 1):
        n_replies = int(rng.integers(2, 4))
        replies = []
        for _ in range(n_replies):
            size = int(rng.integers(1, min(3, n_res) + 1))
            replies.append(frozenset(rng.choice(ids, size=size, replace=False).tolist()))
        weights = {e: int(rng.integers(1, max_weight + 1)) for e in ids
                   if rng.random() < 0.5}
        requests.append(Request(id=i, kind=ExplicitReplies(tuple(dict.fromkeys(replies))),
                                weights=weights,
                                default_weight=int(rng.integers(1, max_weight + 1))))
    return Instance(exp, resources, tuple(requests))


def random_connected_graph(rng, n_vertices: int, n_extra_edges: int,
                           directed: bool = False) -> HostGraph:
    """Random spanning tree plus extra edges; connected by construction."""
    vertices = [f"v{k}" for k in range(n_vertices)]
    edges = []
    order = rng.permutation(n_vertices)
    for idx in range(1, n_vertices):
        a = vertices[order[int(rng.integers(idx))]]
        b = vertices[order[idx]]
        edges.append((a, b))
    for _ in range(n_extra_edges):
        a, b = rng.choice(n_vertices, size=2, replace=False)
        edges.append((vertices[a], vertices[b]))
    return HostGraph(
        directed=directed,
        vertices=tuple(vertices),
        edges=tuple(Edge(f"e{k}", a, b) for k, (a, b) in enumerate(edges)),
    )


def random_routing_instance(rng, max_players: int = 3, n_vertices: int = 4,
                            n_extra_edges: int = 2, max_weight: int = 3) -> Instance:
    exp = random_exponents(rng)
    graph = random_connected_graph(rng, n_vertices, n_extra_edges)
    resources = tuple(random_resource(rng, e.id, exp.q) for e in graph.edges)
    n_players = int(rng.integers(1, max_players + 1))
    requests = []
    for i in range(1, n_players + 1):
        a, b = rng.choice(n_vertices, size=2, replace=False)
        requests.append(Request(
            id=i, kind=Routing(f"v{a}", f"v{b}"),
            default_weight=int(rng.integers(1, max_weight + 1))))
    return Instance(exp, resources, tuple(requests), graph)


def random_tolls(rng, graph: HostGraph, low: float = 0.2, high: float = 3.0) -> dict[str, float]:
    return {e.id: float(rng.uniform(low, high)) for e in graph.edges}


def grid_graph(k: int) -> HostGraph:
    """The undirected k x k grid on vertices v00 .. v(k-1)(k-1).  Past k = 10
    an underscore separates the two indices (v0_0 .. v11_11 at k = 12), so
    that no two vertices or edges share a name."""
    sep = "" if k <= 10 else "_"
    v = lambda i, j: f"v{i}{sep}{j}"
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append(Edge(f"h{i}{sep}{j}", v(i, j), v(i, j + 1)))
            if i + 1 < k:
                edges.append(Edge(f"d{i}{sep}{j}", v(i, j), v(i + 1, j)))
    return HostGraph(False, tuple(v(i, j) for i in range(k) for j in range(k)), tuple(edges))


def directed_grid_graph(k: int) -> HostGraph:
    """The k x k grid with both orientations of every edge: ``h``/``d`` arcs
    point right and down, ``H``/``D`` arcs left and up."""
    und = grid_graph(k)
    back = {"h": "H", "d": "D"}
    arcs = [*und.edges, *(Edge(back[e.id[0]] + e.id[1:], e.head, e.tail) for e in und.edges)]
    return HostGraph(True, und.vertices, tuple(arcs))


def seeded_case(case: str) -> tuple[Instance, str]:
    """One fixed seeded instance per case ("routing" and "fpl" share a 5x5
    grid; "steiner"; "forest"; "directed"; "explicit"), with the mechanism it
    is solved under."""
    rng = np.random.default_rng(0)
    exp = ExponentProfile((2.0,))

    def resources(ids):
        return tuple(ResourceParams(e, float(rng.uniform(1, 9)), (float(rng.uniform(0.1, 0.9)),))
                     for e in ids)

    if case in ("routing", "fpl"):
        g = grid_graph(5)
        reqs = [Request(i, Routing(f"v{int(rng.integers(5))}0", f"v{int(rng.integers(5))}4"),
                        default_weight=int(rng.integers(1, 3))) for i in range(1, 9)]
        return Instance(exp, resources([e.id for e in g.edges]), tuple(reqs), g), "proportional"
    if case == "steiner":
        g = grid_graph(4)
        reqs = [Request(i, SetConnectivity(tuple(
                    g.vertices[t] for t in rng.choice(len(g.vertices), size=3, replace=False))))
                for i in range(1, 6)]
        return Instance(exp, resources([e.id for e in g.edges]), tuple(reqs), g), "shapley-exact"
    if case in ("forest", "directed"):
        g = grid_graph(4) if case == "forest" else directed_grid_graph(4)

        def terminals(size):
            return [g.vertices[t] for t in rng.choice(len(g.vertices), size=size, replace=False)]

        reqs = []
        for i in range(1, 7):
            if case == "forest" or i % 2:
                ends = terminals(4)
                kind = MultiRouting(((ends[0], ends[1]), (ends[2], ends[3])))
            else:
                kind = SetConnectivity(tuple(terminals(3)))
            reqs.append(Request(i, kind, default_weight=int(rng.integers(1, 3))))
        mechanism = "shapley-exact" if case == "forest" else "proportional"
        return Instance(exp, resources([e.id for e in g.edges]), tuple(reqs), g), mechanism
    ids = [f"r{k}" for k in range(10)]
    reqs = [Request(i, ExplicitReplies(tuple(
                frozenset(rng.choice(ids, size=5, replace=False).tolist()) for _ in range(3))),
                default_weight=int(rng.integers(1, 3)))
            for i in range(1, 6)]
    return Instance(exp, resources(ids), tuple(reqs)), "shapley-exact"


def random_toll_multigraph(rng, directed: bool = False, max_vertices: int = 7,
                      integer_tolls: bool = False) -> tuple[HostGraph, dict[str, float]]:
    """A graph that need not be connected, with parallel edges and
    self-loops, and tolls that tie often when ``integer_tolls`` is set."""
    n = int(rng.integers(2, max_vertices + 1))
    vertices = [f"v{k}" for k in range(n)]
    edges = []
    for k in range(int(rng.integers(0, 2 * n + 1))):
        a, b = (int(x) for x in rng.integers(n, size=2))
        if a == b and rng.random() < 0.7:
            b = (a + 1) % n
        edges.append(Edge(f"e{k}", vertices[a], vertices[b]))
    graph = HostGraph(directed, tuple(vertices), tuple(edges))
    if integer_tolls:
        tolls = {e.id: float(rng.integers(1, 4)) for e in edges}
    else:
        tolls = {e.id: float(rng.uniform(0.2, 3.0)) for e in edges}
    return graph, tolls


def with_zero_tolls(rng, tolls: dict[str, float]) -> dict[str, float]:
    """The tolls with about a quarter of them set to 0.0: a share can be 0,
    and the oracles take a zero toll as it is."""
    return {e: 0.0 if rng.random() < 0.25 else t for e, t in tolls.items()}


def absorbing_tolls(rng, graph: HostGraph) -> dict[str, float]:
    """Tolls of 1e5 and 2e5 mixed with 1e-12, which a distance of 1e5 or
    more absorbs (d + 1e-12 == d), so paths through different parents tie
    at one distance."""
    return {e.id: float(rng.choice([1e5, 2e5, 1e-12])) for e in graph.edges}


# ---------------------------------------------------------------------------
# reference oracles: earlier, plainer implementations that the differential
# tests in test_oracles.py hold the library's oracles to
# ---------------------------------------------------------------------------

def name_adjacency(graph: HostGraph) -> dict[str, tuple[tuple[str, str], ...]]:
    """vertex -> sorted (neighbor, edge id) pairs, built from the edge list
    alone by the graph rules: an edge's arc follows its direction, and the
    reverse arc is there too when undirected; self-loops are dropped and
    parallel edges kept.  The references read it, not the library's views,
    so a fault in those views cannot hide in a reference too."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        if e.tail != e.head:
            adj[e.tail].append((e.head, e.id))
            if not graph.directed:
                adj[e.head].append((e.tail, e.id))
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def reference_shortest_path(graph: HostGraph, source: str, target: str, tolls):
    """One Dijkstra per query, stopping at the target."""
    if source == target:
        raise InstanceError("source equals target")
    adjacency = name_adjacency(graph)
    if source not in adjacency or target not in adjacency:
        raise InstanceError("unknown endpoint vertex")
    heap = [(0.0, (source,), ())]
    settled = set()
    while heap:
        dist, path, edges = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            return path, edges, dist
        for v, eid in adjacency[u]:
            if v in settled:
                continue
            heapq.heappush(heap, (dist + float(tolls[eid]), path + (v,), edges + (eid,)))
    raise InfeasibleError(f"no path from {source!r} to {target!r}")


def reference_shortest_paths(graph: HostGraph, source: str, targets, tolls):
    """One Dijkstra for several targets whose heap entries carry whole
    (dist, vertex path, edge path) keys, so the pop order is total."""
    adjacency = name_adjacency(graph)
    if source not in adjacency:
        raise InstanceError("unknown endpoint vertex")
    pending = {t for t in targets if t in adjacency}
    found = {}
    heap = [(0.0, (source,), ())]
    settled = set()
    while pending and heap:
        dist, path, edges = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u in pending:
            found[u] = (path, edges, dist)
            pending.discard(u)
            if not pending:
                break
        for v, eid in adjacency[u]:
            if v in settled:
                continue
            try:
                toll = float(tolls[eid])
            except KeyError:
                raise InstanceError(f"no toll given for resource {eid!r}") from None
            heapq.heappush(heap, (dist + toll, path + (v,), edges + (eid,)))
    return found


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _kruskal(vertices, edges):
    uf = _UnionFind(vertices)
    return [eid for eid, u, v, _ in sorted(edges, key=lambda t: (t[3], t[0]))
            if uf.union(u, v)]


def reference_steiner_tree(graph: HostGraph, terminals, tolls) -> OracleAnswer:
    """Metric-closure MST with the closure from one shortest-path query per
    pair of terminals."""
    terms = tuple(sorted(set(terminals)))
    closure, paths = [], {}
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            try:
                _, edges, dist = reference_shortest_path(graph, a, b, tolls)
            except InfeasibleError:
                raise InfeasibleError(f"terminals {a!r} and {b!r} are not connected") from None
            closure.append(((a, b), a, b, dist))
            paths[(a, b)] = edges
    union_edges = {eid for pair in _kruskal(set(terms), closure) for eid in paths[pair]}
    sub_vertices, sub_edges = set(), []
    for eid in sorted(union_edges):
        e = graph.edge_by_id[eid]
        sub_vertices.update((e.tail, e.head))
        sub_edges.append((eid, e.tail, e.head, float(tolls[eid])))
    tree = set(_kruskal(sub_vertices, sub_edges))
    while True:
        degree = {}
        for eid in tree:
            e = graph.edge_by_id[eid]
            degree.setdefault(e.tail, []).append(eid)
            degree.setdefault(e.head, []).append(eid)
        dead = [v for v, inc in degree.items() if len(inc) == 1 and v not in terms]
        if not dead:
            break
        for v in dead:
            tree.difference_update(degree[v])
    return OracleAnswer(frozenset(tree), sum(float(tolls[e]) for e in sorted(tree)))


def reference_steiner_forest(graph: HostGraph, pairs, tolls) -> OracleAnswer:
    """Moat growing over a union-find, then reverse deletion that rebuilds
    the union-find for every trial."""
    vertices = set(graph.vertices)
    uf = _UnionFind(vertices)
    remaining = {e.id: float(tolls[e.id]) for e in graph.edges if e.tail != e.head}
    forest = []
    while True:
        active = set()
        for s, t in pairs:
            rs, rt = uf.find(s), uf.find(t)
            if rs != rt:
                active.update((rs, rt))
        if not active:
            break
        candidates = []
        for eid in sorted(remaining):
            e = graph.edge_by_id[eid]
            ru, rv = uf.find(e.tail), uf.find(e.head)
            rate = (ru in active) + (rv in active)
            if ru != rv and rate:
                candidates.append((remaining[eid] / rate, eid, rate))
        if not candidates:
            raise InfeasibleError("some terminal pair is not connected in the graph")
        step, chosen, _ = min(candidates)
        for _, eid, rate in candidates:
            remaining[eid] = max(0.0, remaining[eid] - step * rate)
        e = graph.edge_by_id[chosen]
        uf.union(e.tail, e.head)
        forest.append(chosen)
        del remaining[chosen]
    kept = list(forest)
    for eid in reversed(forest):
        trial = [x for x in kept if x != eid]
        uf = _UnionFind(vertices)
        for x in trial:
            uf.union(graph.edge_by_id[x].tail, graph.edge_by_id[x].head)
        if all(uf.find(s) == uf.find(t) for s, t in pairs):
            kept = trial
    return OracleAnswer(frozenset(kept), sum(float(tolls[e]) for e in kept))


# -- the cost and power folds as rep_cost and h_value wrote them before they
# -- shared one fold; the fold is held to these bit for bit

def reference_rep_cost(params: ResourceParams, exponents: ExponentProfile, load: int) -> float:
    if load < 0:
        raise InstanceError(f"negative load {load} on resource {params.id!r}")
    if load == 0:
        return 0.0
    total = params.sigma
    try:
        x = float(load)
        for xi, alpha in zip(params.xis, exponents.alphas):
            if xi:
                total += xi * x ** alpha
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise InstanceError(f"cost of resource {params.id!r} at load {load} exceeds the largest double")
    return total


def reference_h_value(resource: ResourceParams, exponents: ExponentProfile, weight_sum) -> float:
    if weight_sum < 0:
        raise InstanceError("weight sum must be >= 0")
    if weight_sum == 0:
        return 0.0
    try:
        value = left_sum(xi * float(weight_sum) ** a
                         for xi, a in zip(resource.xis, exponents.alphas) if xi)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise InstanceError(
            f"cost of resource {resource.id!r} at load {weight_sum} exceeds the largest double")
    return value


# -- a player's cost as analysis priced it before ProfileState held the
# -- deviation rule: a fresh state of the deviated profile per call

def reference_player_cost(instance: Instance, mechanism: str, profile, position: int) -> float:
    users = ProfileState(instance, profile).users
    req = instance.requests[position]
    total = 0.0
    for e in sorted(profile[position]):
        query = ShareQuery(instance.resource_by_id[e], instance.exponents, users[e],
                           target=req.id)
        total += cost_share(mechanism, query)
    return total


# -- simple paths as analysis enumerated them before the search kept its own
# -- stack: one recursive call per vertex of the path

def reference_simple_paths(graph: HostGraph, source: str, target: str) -> list[frozenset[str]]:
    adjacency = name_adjacency(graph)
    out: list[frozenset[str]] = []

    def dfs(u: str, visited: set[str], edges: tuple[str, ...]):
        if u == target:
            out.append(frozenset(edges))
            if len(out) > analysis.MAX_PATHS:
                raise EnumerationLimitError(
                    f"more than {analysis.MAX_PATHS} simple paths from {source!r} to {target!r}")
            return
        for v, eid in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            dfs(v, visited, edges + (eid,))
            visited.remove(v)

    dfs(source, {source}, ())
    return out


# -- an FPL round's toll row as fpl priced it before a round was a toll pass
# -- of the proportional game: loads grouped per round, F_e memoized by
# -- (resource, joined load)

def reference_proportional_toll_row(scaled: Instance, loads: dict[str, int], profile,
                                    position: int,
                                    costs: dict[tuple[str, int], float]) -> dict[str, float]:
    req = scaled.requests[position]
    row = {}
    for res in scaled.resources:
        w = req.weight(res.id)
        joined = loads[res.id] + (0 if res.id in profile[position] else w)
        cost = costs.get((res.id, joined))
        if cost is None:
            cost = costs[res.id, joined] = rep_cost(res, scaled.exponents, joined)
        row[res.id] = (w / joined) * cost
    return row


def reference_proportional_toll_rows(scaled: Instance, profile) -> list[dict[str, float]]:
    """Every player's row of one round, sharing the round's memo."""
    loads = load_vector(scaled, profile)
    costs: dict[tuple[str, int], float] = {}
    return [reference_proportional_toll_row(scaled, loads, profile, pos, costs)
            for pos in range(scaled.n_requests)]


# -- the exhaustive smoothness walk as it ran before it built one state per
# -- leading profile: a fresh state and two pricings per ordered pair

def reference_smoothness_rows(instance: Instance, mechanism: str, lam: float, mu: float):
    candidates, _ = analysis.enumerate_profiles(instance)
    profiles = [tuple(c) for c in product(*candidates)]
    for p in profiles:
        for p_prime in profiles:
            state = ProfileState(instance, p)
            lhs = left_sum(state.player_cost(mechanism, pos, p_prime[pos])
                           for pos in range(instance.n_requests))
            c_p = total_cost(instance, p)
            c_prime = total_cost(instance, p_prime)
            yield p, p_prime, lhs, c_p, c_prime, not exceeds(lhs, lam * c_prime + mu * c_p)
