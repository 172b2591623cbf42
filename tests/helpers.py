"""Seeded random generators shared by the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from gndes import (
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    PassView,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
)
from gndes.sharing import ShareQuery, whp_delta


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def pass_view(instance: Instance, config, profile, step: int, planned_budget: int) -> PassView:
    """The delta pass at ``step`` of a run whose step budget is ``planned_budget``."""
    delta = whp_delta(planned_budget, instance.n_requests, len(instance.resources))
    return PassView(instance, config, profile, step, delta)


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
    """The undirected k x k grid on vertices v00 .. v(k-1)(k-1)."""
    v = lambda i, j: f"v{i}{j}"
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append(Edge(f"h{i}{j}", v(i, j), v(i, j + 1)))
            if i + 1 < k:
                edges.append(Edge(f"d{i}{j}", v(i, j), v(i + 1, j)))
    return HostGraph(False, tuple(v(i, j) for i in range(k) for j in range(k)), tuple(edges))


def seeded_case(case: str) -> tuple[Instance, str]:
    """One fixed seeded instance per case ("routing" and "fpl" share a 5x5
    grid; "steiner"; "explicit"), with the mechanism it is solved under."""
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
    ids = [f"r{k}" for k in range(10)]
    reqs = [Request(i, ExplicitReplies(tuple(
                frozenset(rng.choice(ids, size=5, replace=False).tolist()) for _ in range(3))),
                default_weight=int(rng.integers(1, 3)))
            for i in range(1, 6)]
    return Instance(exp, resources(ids), tuple(reqs)), "shapley-exact"
