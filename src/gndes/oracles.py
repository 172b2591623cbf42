"""Toll-minimizing reply oracles, one per request kind.

Every oracle takes a strictly positive toll per resource and returns a
feasible reply whose total toll is within its guaranteed factor rho of the
minimum.  Tie-breaking is fixed (lexicographic paths, smallest ids) and toll
totals over a reply are summed in sorted resource order, so runs are
reproducible whatever the interpreter's hash seed.

* routing: Dijkstra, exact (rho = 1).
* machine choice / explicit lists: direct argmin, exact.
* set connectivity (undirected): metric-closure MST, rho = 2.
* multi-routing (undirected): primal-dual moat growing with reverse
  deletion, rho = 2.
* directed multi-routing / set strong connectivity: union of pairwise
  shortest paths, a heuristic whose only guarantee is the trivial factor
  equal to the number of pairs, which :func:`oracle_rho` reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ConfigError, InfeasibleError, InstanceError
from .instance import (
    ExplicitReplies,
    HostGraph,
    Instance,
    MachineChoice,
    MultiRouting,
    Request,
    Routing,
    SetConnectivity,
)

TOLL_FLOOR = 1e-12

Tolls = Mapping[str, float]


@dataclass(frozen=True)
class OracleAnswer:
    reply: frozenset[str]
    toll_total: float


def clamp_tolls(tolls: Tolls) -> dict[str, float]:
    """Tolls must be strictly positive; sampled shares can round to 0, so the
    engine clamps to TOLL_FLOOR before oracle calls."""
    return {e: (t if t > TOLL_FLOOR else TOLL_FLOOR) for e, t in tolls.items()}


def _toll(tolls: Tolls, edge_id: str) -> float:
    try:
        return float(tolls[edge_id])
    except KeyError:
        raise InstanceError(f"no toll given for resource {edge_id!r}") from None


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def shortest_path(graph: HostGraph, source: str, target: str,
                  tolls: Tolls) -> tuple[tuple[str, ...], tuple[str, ...], float]:
    """Minimum-toll simple path; ties resolved by lexicographic vertex order,
    then by edge ids (relevant for parallel edges).

    Returns (vertex sequence, edge ids, total toll).
    """
    if source == target:
        raise InstanceError("source equals target")
    if source not in graph.adjacency or target not in graph.adjacency:
        raise InstanceError("unknown endpoint vertex")
    # heap keys (dist, vertex path, edge path) make the pop order total,
    # so the first settlement of each vertex is both cheapest and lex-min
    heap: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = [(0.0, (source,), ())]
    settled: set[str] = set()
    while heap:
        dist, path, edges = heapq.heappop(heap)
        u = path[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            return path, edges, dist
        for v, eid in graph.adjacency[u]:
            if v in settled:
                continue
            heapq.heappush(heap, (dist + _toll(tolls, eid), path + (v,), edges + (eid,)))
    raise InfeasibleError(f"no path from {source!r} to {target!r}")


def routing_oracle(graph: HostGraph, source: str, target: str, tolls: Tolls) -> OracleAnswer:
    _, edges, total = shortest_path(graph, source, target, tolls)
    return OracleAnswer(reply=frozenset(edges), toll_total=total)


def machine_oracle(machines: Sequence[str], tolls: Tolls) -> OracleAnswer:
    if not machines:
        raise InstanceError("empty machine list")
    best = min(machines, key=lambda m: (_toll(tolls, m), m))
    return OracleAnswer(reply=frozenset({best}), toll_total=_toll(tolls, best))


def explicit_oracle(replies: Sequence[frozenset[str]], tolls: Tolls) -> OracleAnswer:
    if not replies:
        raise InstanceError("empty reply list")
    best_reply, best_total = None, None
    for rep in replies:
        total = sum(_toll(tolls, e) for e in sorted(rep))
        if best_total is None or total < best_total:
            best_reply, best_total = rep, total
    return OracleAnswer(reply=frozenset(best_reply), toll_total=best_total)


# ---------------------------------------------------------------------------
# Steiner tree (metric-closure MST)
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _mst_edges(vertices: set[str], edges: list[tuple[Hashable, str, str, float]]) -> list:
    """Kruskal over (id, tail, head, weight) tuples, ties broken by id;
    returns the chosen ids."""
    uf = _UnionFind(vertices)
    chosen = []
    for eid, u, v, _ in sorted(edges, key=lambda t: (t[3], t[0])):
        if uf.union(u, v):
            chosen.append(eid)
    return chosen


def steiner_tree_oracle(graph: HostGraph, terminals: Sequence[str], tolls: Tolls) -> OracleAnswer:
    """Metric-closure MST construction: complete graph on the terminals under
    shortest-path tolls, its MST expanded back to paths, an MST of that
    subgraph, then non-terminal leaves pruned.  Guaranteed within twice the
    optimal Steiner toll."""
    if graph.directed:
        raise ConfigError("set connectivity oracle requires an undirected graph")
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise InstanceError("need at least two terminals")

    closure: list[tuple[tuple[str, str], str, str, float]] = []
    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            try:
                _, edges, dist = shortest_path(graph, a, b, tolls)
            except InfeasibleError:
                raise InfeasibleError(f"terminals {a!r} and {b!r} are not connected") from None
            closure.append(((a, b), a, b, dist))
            paths[(a, b)] = edges

    union_edges = {eid for pair in _mst_edges(set(terms), closure) for eid in paths[pair]}

    # MST of the expanded subgraph, then prune dead leaves
    sub_vertices: set[str] = set()
    sub_edges = []
    for eid in sorted(union_edges):
        e = graph.edge_by_id[eid]
        sub_vertices.update((e.tail, e.head))
        sub_edges.append((eid, e.tail, e.head, _toll(tolls, eid)))
    tree = set(_mst_edges(sub_vertices, sub_edges))

    term_set = set(terms)
    while True:
        degree: dict[str, list[str]] = {}
        for eid in tree:
            e = graph.edge_by_id[eid]
            degree.setdefault(e.tail, []).append(eid)
            degree.setdefault(e.head, []).append(eid)
        dead = [v for v, inc in degree.items() if len(inc) == 1 and v not in term_set]
        if not dead:
            break
        for v in dead:
            for eid in degree[v]:
                tree.discard(eid)

    total = sum(_toll(tolls, e) for e in sorted(tree))
    return OracleAnswer(reply=frozenset(tree), toll_total=total)


# ---------------------------------------------------------------------------
# Steiner forest (primal-dual moat growing)
# ---------------------------------------------------------------------------

def steiner_forest_oracle(graph: HostGraph, pairs: Sequence[tuple[str, str]],
                          tolls: Tolls) -> OracleAnswer:
    """Moat-growing 2-approximation with reverse deletion.

    Duals grow at unit rate around every active component (one containing
    exactly one endpoint of some pair); the edge that goes tight first is
    added and its endpoints' components merged.  Afterwards edges are removed
    in reverse addition order whenever feasibility survives.
    """
    if graph.directed:
        raise ConfigError("multi-routing oracle requires an undirected graph")
    if not pairs:
        raise InstanceError("need at least one terminal pair")
    pair_list = [(s, t) for s, t in pairs]
    for s, t in pair_list:
        if s == t:
            raise InstanceError(f"degenerate pair ({s!r},{t!r})")

    vertices = set(graph.vertices)
    uf = _UnionFind(vertices)
    remaining = {e.id: _toll(tolls, e.id) for e in graph.edges if e.tail != e.head}

    def active_components() -> set[str]:
        active = set()
        for s, t in pair_list:
            rs, rt = uf.find(s), uf.find(t)
            if rs != rt:
                active.add(rs)
                active.add(rt)
        return active

    forest: list[str] = []
    while True:
        active = active_components()
        if not active:
            break
        candidates = []
        for eid in sorted(remaining):
            e = graph.edge_by_id[eid]
            ru, rv = uf.find(e.tail), uf.find(e.head)
            if ru == rv:
                continue
            rate = (ru in active) + (rv in active)
            if rate == 0:
                continue
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
            e = graph.edge_by_id[x]
            uf.union(e.tail, e.head)
        if all(uf.find(s) == uf.find(t) for s, t in pair_list):
            kept = trial

    total = sum(_toll(tolls, e) for e in kept)
    return OracleAnswer(reply=frozenset(kept), toll_total=total)


# ---------------------------------------------------------------------------
# directed heuristics (no constant-factor oracle exists; rho is the trivial
# bound given by the number of shortest paths in the union)
# ---------------------------------------------------------------------------

def _union_of_shortest_paths(graph: HostGraph, pairs: Sequence[tuple[str, str]],
                             tolls: Tolls) -> OracleAnswer:
    union: set[str] = set()
    for s, t in pairs:
        _, edges, _ = shortest_path(graph, s, t, tolls)
        union.update(edges)
    total = sum(_toll(tolls, e) for e in sorted(union))
    return OracleAnswer(reply=frozenset(union), toll_total=total)


def directed_multi_routing_oracle(graph: HostGraph, pairs: Sequence[tuple[str, str]],
                                  tolls: Tolls) -> OracleAnswer:
    if not pairs:
        raise InstanceError("need at least one terminal pair")
    return _union_of_shortest_paths(graph, pairs, tolls)


def strong_connectivity_oracle(graph: HostGraph, terminals: Sequence[str],
                               tolls: Tolls) -> OracleAnswer:
    """Cycle heuristic: shortest paths t_1 -> t_2 -> ... -> t_k -> t_1."""
    terms = tuple(sorted(set(terminals)))
    if len(terms) < 2:
        raise InstanceError("need at least two terminals")
    cycle = [(terms[i], terms[(i + 1) % len(terms)]) for i in range(len(terms))]
    return _union_of_shortest_paths(graph, cycle, tolls)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def oracle_rho(instance: Instance, request: Request) -> float:
    """Guaranteed factor of the oracle that reply_oracle would use."""
    kind = request.kind
    if isinstance(kind, (Routing, MachineChoice, ExplicitReplies)):
        return 1.0
    if isinstance(kind, MultiRouting):
        return 2.0 if not instance.graph.directed else float(len(kind.pairs))
    if isinstance(kind, SetConnectivity):
        return 2.0 if not instance.graph.directed else float(len(kind.terminals))
    raise InstanceError(f"unsupported request kind {type(kind).__name__}")


def reply_oracle(instance: Instance, request: Request, tolls: Tolls) -> OracleAnswer:
    """Select and run the oracle matching the request kind."""
    kind = request.kind
    graph = instance.graph
    if isinstance(kind, Routing):
        return routing_oracle(graph, kind.source, kind.target, tolls)
    if isinstance(kind, MachineChoice):
        return machine_oracle(kind.machines, tolls)
    if isinstance(kind, ExplicitReplies):
        return explicit_oracle(kind.replies, tolls)
    if isinstance(kind, MultiRouting):
        if graph.directed:
            return directed_multi_routing_oracle(graph, kind.pairs, tolls)
        return steiner_forest_oracle(graph, kind.pairs, tolls)
    if isinstance(kind, SetConnectivity):
        if graph.directed:
            return strong_connectivity_oracle(graph, kind.terminals, tolls)
        return steiner_tree_oracle(graph, kind.terminals, tolls)
    raise InstanceError(f"unsupported request kind {type(kind).__name__}")
