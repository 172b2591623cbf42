"""Toll-minimizing reply oracles, one per request kind.

Every oracle takes a strictly positive toll per resource and returns a
feasible reply whose total toll is within its guaranteed factor rho of the
minimum.  Tie-breaking is fixed (lexicographic paths, smallest ids) and toll
totals over a reply are summed in sorted resource order, so runs are
reproducible whatever the interpreter's hash seed.

Every graph oracle searches with :func:`shortest_paths`, one Dijkstra from
a source that stops once all its targets are settled; which vertex settles
when does not depend on the targets, so a search for many targets returns
for each the path a search for it alone would.

* routing: Dijkstra, exact (rho = 1).
* machine choice / explicit lists: direct argmin, exact.
* set connectivity (undirected): metric-closure MST, rho = 2; the closure
  on k terminals takes k - 1 searches.
* multi-routing (undirected): primal-dual moat growing with reverse
  deletion, rho = 2.  The grown edges form a forest, so reverse deletion
  keeps exactly the union of the pairs' paths in it, which one walk per
  pair finds.
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


def clamp_toll(toll: float) -> float:
    """Tolls must be strictly positive, and sampled shares can round to 0;
    this raises a toll to at least TOLL_FLOOR."""
    return toll if toll > TOLL_FLOOR else TOLL_FLOOR


def clamp_tolls(tolls: Tolls) -> dict[str, float]:
    """:func:`clamp_toll` applied to every toll."""
    return {e: clamp_toll(t) for e, t in tolls.items()}


def _toll(tolls: Tolls, edge_id: str) -> float:
    try:
        return float(tolls[edge_id])
    except KeyError:
        raise InstanceError(f"no toll given for resource {edge_id!r}") from None


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

Path = tuple[tuple[str, ...], tuple[str, ...], float]


def _check_endpoint(graph: HostGraph, vertex: str) -> None:
    if vertex not in graph.adjacency:
        raise InstanceError("unknown endpoint vertex")


def shortest_paths(graph: HostGraph, source: str, targets: Iterable[str],
                   tolls: Tolls) -> dict[str, Path]:
    """Minimum-toll simple paths from one source to several targets; ties
    resolved by lexicographic vertex order, then by edge ids (relevant for
    parallel edges).

    Vertices are settled until every target is, so one search serves them
    all.  The order of settlement does not depend on the targets, so each
    path is exactly the one a search for that target alone would return.

    Returns target -> (vertex sequence, edge ids, total toll) for the targets
    that are reachable; a target that is the source gets the empty path.
    """
    _check_endpoint(graph, source)
    adjacency = graph.adjacency
    pending = {t for t in targets if t in adjacency}
    found: dict[str, Path] = {}
    # heap keys (dist, vertex path, edge path) make the pop order total,
    # so the first settlement of each vertex is both cheapest and lex-min
    heap: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = [(0.0, (source,), ())]
    settled: set[str] = set()
    pop, push = heapq.heappop, heapq.heappush
    while pending and heap:
        dist, path, edges = pop(heap)
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
            push(heap, (dist + _toll(tolls, eid), path + (v,), edges + (eid,)))
    return found


def shortest_path(graph: HostGraph, source: str, target: str, tolls: Tolls) -> Path:
    """Minimum-toll simple path from source to target, by the tie rule of
    :func:`shortest_paths`.

    Returns (vertex sequence, edge ids, total toll).
    """
    if source == target:
        raise InstanceError("source equals target")
    _check_endpoint(graph, target)
    found = shortest_paths(graph, source, (target,), tolls)
    if target not in found:
        raise InfeasibleError(f"no path from {source!r} to {target!r}")
    return found[target]


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

    # the closure from k-1 searches, one from each terminal to the larger ones
    closure: list[tuple[tuple[str, str], str, str, float]] = []
    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for i, a in enumerate(terms[:-1]):
        found = shortest_paths(graph, a, terms[i + 1:], tolls)
        for b in terms[i + 1:]:
            if b not in found:
                _check_endpoint(graph, b)
                raise InfeasibleError(f"terminals {a!r} and {b!r} are not connected")
            _, edges, dist = found[b]
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
    added and its endpoints' components merged.  An edge inside one component
    never goes tight again, so it leaves the scan for good.

    Reverse deletion (drop the grown edges in reverse order whenever every
    pair stays connected) is taken in closed form: it keeps exactly the edges
    on some pair's path in the grown forest.  Paths in a forest are unique,
    so an edge on no pair's path can go without changing any pair's path,
    and an edge on one cannot go at all.
    """
    if graph.directed:
        raise ConfigError("multi-routing oracle requires an undirected graph")
    if not pairs:
        raise InstanceError("need at least one terminal pair")
    pair_list = [(s, t) for s, t in pairs]
    for s, t in pair_list:
        if s == t:
            raise InstanceError(f"degenerate pair ({s!r},{t!r})")
    for pair in pair_list:
        for v in pair:
            _check_endpoint(graph, v)

    # component label of each vertex; members of each label
    label = {v: v for v in graph.vertices}
    members = {v: [v] for v in graph.vertices}
    live = [(e.id, e.tail, e.head) for e in graph.edges if e.tail != e.head]
    remaining = {eid: _toll(tolls, eid) for eid, _, _ in live}

    forest: list[tuple[str, str, str]] = []
    apart = pair_list  # the pairs whose endpoints lie in different components
    while apart:
        active = {label[v] for pair in apart for v in pair}
        candidates = []
        crossing = []
        for edge in live:
            eid, u, v = edge
            lu, lv = label[u], label[v]
            if lu == lv:
                continue
            crossing.append(edge)
            rate = (lu in active) + (lv in active)
            if rate:
                candidates.append((remaining[eid] / rate, eid, rate))
        live = crossing
        if not candidates:
            raise InfeasibleError("some terminal pair is not connected in the graph")
        step, chosen, _ = min(candidates)
        for _, eid, rate in candidates:
            remaining[eid] = max(0.0, remaining[eid] - step * rate)
        e = graph.edge_by_id[chosen]
        big, small = label[e.tail], label[e.head]
        if len(members[big]) < len(members[small]):
            big, small = small, big
        for x in members[small]:
            label[x] = big
        members[big] += members.pop(small)
        forest.append((chosen, e.tail, e.head))
        apart = [(s, t) for s, t in apart if label[s] != label[t]]

    adjacency: dict[str, list[tuple[str, str]]] = {}
    for eid, u, v in forest:
        adjacency.setdefault(u, []).append((v, eid))
        adjacency.setdefault(v, []).append((u, eid))
    used: set[str] = set()
    for s, t in pair_list:
        used.update(_forest_path(adjacency, s, t))
    kept = [eid for eid, _, _ in forest if eid in used]

    total = sum(_toll(tolls, e) for e in kept)
    return OracleAnswer(reply=frozenset(kept), toll_total=total)


def _forest_path(adjacency: Mapping[str, list[tuple[str, str]]], s: str, t: str) -> list[str]:
    """Edge ids of the unique s-t path in a forest that connects s and t."""
    via: dict[str, tuple[str, str]] = {s: ("", "")}
    stack = [s]
    while t not in via:
        u = stack.pop()
        for v, eid in adjacency[u]:
            if v not in via:
                via[v] = (u, eid)
                stack.append(v)
    path = []
    while t != s:
        t, eid = via[t]
        path.append(eid)
    return path


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
