"""Toll-minimizing reply oracles, one per request kind.

Every oracle takes a nonnegative toll per resource and returns a
feasible reply whose total toll is within its guaranteed factor rho of the
minimum.  Tie-breaking is fixed (lexicographic paths, smallest ids) and toll
totals over a reply are summed in a fixed order, as one left fold
(``instance.left_sum`` over sorted resource ids, or the order a path or the
grown forest lists its edges), so runs are reproducible whatever the
interpreter's hash seed or version.

Every graph oracle searches with :func:`shortest_paths`, one Dijkstra over
vertex indices with parent links from a source that stops once all its
targets are settled; which vertex settles when does not depend on the
targets, so a search for many targets returns for each the path a search
for it alone would.  Its paths are the least by (distance, vertex path,
edge path): an offer at equal distance reparents a vertex when its full
key is smaller, and vertices waiting at one distance settle by full key.

A routing search can be guided (:class:`GuidedTolls`).  A guide
(:func:`lower_bound_tree`) is one reverse Dijkstra from the target t
under a lower row L, at most the searched tolls on every resource: it
gives each vertex v a bound h(v) and a tree path from v to t.  The search
folds its own tolls from the left along the tree path from its source s,
an upper bound UB on the distance of t, and never pushes a vertex v at a
distance nd with nd + h(v) > UB * (1 + 5 * |V| * u), u the unit roundoff.
Its answer is the unguided one bit for bit:

1. Rounding is monotone and tolls are nonnegative, so the distance d(x)
   the search gives a vertex is the least left fold of the tolls over the
   s-x walks, and UB, one such fold for t, is at least d(t).  Likewise
   h(x) is at most the right fold of L, so of the tolls, over any x-t
   walk.
2. Call x relevant when some s-t walk through x has the left fold d(t).
   Cutting a cycle out of the walk's part before x or after it leaves a
   fold of at most d(t), so of d(t), so the walk can be taken with at most
   n = 2|V| - 2 edges.  A fold of k nonnegative terms lies within a factor
   (1 +- u)^(k-1) of their exact sum, so fl(d(x) + h(x)) is at most
   d(t) ((1+u)/(1-u))^(n-1), and that is at most the computed bound,
   which is at least UB (1 + 5|V|u)(1-u)^2, whenever 13|V|u <= 1, that is
   for every graph under 2^49 vertices.  No offer of d(x) to a relevant x
   is dropped.
3. An offer that reaches a vertex y at d(y) comes from a vertex whose
   parent path, that offer and a walk on from a relevant y form a walk as
   in 2, so from a relevant vertex, and an offer the guide drops or that a
   dropped vertex never makes is above the distance it would reach.  So,
   in the unguided settle order, each relevant vertex gets the same offers
   at its distance from the same relevant vertices, and the same
   distance, parent and full key, in both searches; relevant vertices
   settle in the same order.  The target is relevant when it is
   reachable, and a guided search finds no path the unguided one does not.

One dispatch maps each request to its oracle and to the factor rho that
oracle guarantees: :func:`reply_oracle` runs the one and :func:`oracle_rho`
reports the other.

* routing: Dijkstra, exact (rho = 1).
* machine choice / explicit lists: direct argmin, exact.
* set connectivity (undirected): metric-closure MST, rho = 2; the closure
  on k terminals takes k - 1 searches, and the tree is trimmed to the
  paths between terminals.
* multi-routing (undirected): primal-dual moat growing with reverse
  deletion, rho = 2.  A growth round examines only the borders of the
  active components, not every edge: an edge left out has rate 0 that
  round, so its toll left does not change, and the decrement it owes from
  the last round it was a candidate is applied when it is next examined.
  Each edge thus meets the same float operations in the same order as in a
  full scan, and the forest is bit for bit the one a full scan grows.  The
  grown edges form a forest, so reverse deletion keeps exactly the union of
  the pairs' paths in it.
* directed multi-routing / set strong connectivity: union of pairwise
  shortest paths, a heuristic whose only guarantee is the trivial factor
  equal to the number of pairs.

Both Steiner oracles merge components with one helper (Kruskal's merge
and the moats' merge are the same relabelling of the smaller component; the
moats' merge also joins their borders) and keep the edges of a forest that
lie on some pair's path with one walk.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

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
    left_sum,
)

Tolls = Mapping[str, float]


@dataclass(frozen=True)
class OracleAnswer:
    reply: frozenset[str]
    toll_total: float


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


@dataclass(frozen=True)
class Guide:
    """A lower-bound tree toward one target, over the vertex indices of
    :attr:`HostGraph.indexed_adjacency`: ``target``'s index, per vertex a
    lower bound ``h`` on its toll distance to the target, and ``toward``,
    its next (vertex, edge id) on a tree path to it, None where there is
    no path or at the target."""
    target: int
    h: list[float]
    toward: list[Optional[tuple[int, str]]]


def lower_bound_tree(graph: HostGraph, target: str, lower: Tolls) -> Guide:
    """One Dijkstra from ``target`` along the arcs reversed
    (:attr:`HostGraph.indexed_predecessors`) under the row ``lower``.  It
    guides every search toward ``target`` whose tolls are at least
    ``lower`` on every resource (the module docstring proves the answer
    unchanged)."""
    _check_endpoint(graph, target)
    into = graph.indexed_predecessors
    root = graph.indexed_adjacency[0][target]
    h = [math.inf] * len(into)
    h[root] = 0.0
    toward: list[Optional[tuple[int, str]]] = [None] * len(into)
    heap = [(0.0, root)]
    pop, push = heapq.heappop, heapq.heappush
    try:
        while heap:
            d, v = pop(heap)
            if d > h[v]:
                continue  # pushed before v's bound dropped
            for u, eid in into[v]:
                nd = d + float(lower[eid])
                if nd < h[u]:
                    h[u] = nd
                    toward[u] = (v, eid)
                    push(heap, (nd, u))
    except KeyError:
        raise InstanceError(f"no toll given for resource {eid!r}") from None
    return Guide(root, h, toward)


class GuidedTolls(dict):
    """A toll row that carries the :class:`Guide` of its routing search.
    Every oracle reads it as tolls; :func:`routing_oracle` hands the guide
    to its search, which needs the guide's lower row to be at most these
    tolls on every resource."""

    __slots__ = ("guide",)

    def __init__(self, tolls: Tolls, guide: Guide):
        super().__init__(tolls)
        self.guide = guide


# the unit roundoff of a double, for the guided search's margin
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


def shortest_paths(graph: HostGraph, source: str, targets: Iterable[str],
                   tolls: Tolls, guide: Optional[Guide] = None) -> dict[str, Path]:
    """Minimum-toll simple paths from one source to several targets; ties
    resolved by lexicographic vertex order, then by edge ids (relevant for
    parallel edges).

    One Dijkstra over vertex indices with parent links.  Each vertex keeps
    the least (distance, vertex path, edge path) key among the paths its
    settled neighbors offer: an offer at equal distance reparents it when
    its full key is smaller.  Vertices settle by distance, and several
    waiting at one distance settle by full key, which decides the reply
    only when a toll is absorbed (d + toll == d).  Full keys are built from
    the parent links only for the targets and where distances tie, and kept
    for settled vertices.

    Vertices are settled until every target is, so one search serves them
    all.  The order of settlement does not depend on the targets, so each
    path is exactly the one a search for that target alone would return.

    A ``guide`` (:func:`lower_bound_tree`) for the one target searched
    leaves out the vertices that lie on no shortest path to it and changes
    nothing else (see the module docstring); its lower row must be at most
    ``tolls`` on every resource.

    Returns target -> (vertex sequence, edge ids, total toll) for the targets
    that are reachable; a target that is the source gets the empty path.
    """
    _check_endpoint(graph, source)
    index, neighbors = graph.indexed_adjacency
    names = graph.vertices
    pending = {index[t] for t in targets if t in index}
    if guide is None:
        h, bound = [0.0] * len(neighbors), math.inf
    else:
        if pending != {guide.target}:
            raise ConfigError("a guide serves one search, for its own target")
        # the tolls folded along the tree path: at least the target's distance
        h, upper, v = guide.h, 0.0, index[source]
        while v != guide.target and upper < math.inf:
            if guide.toward[v] is None:
                upper = math.inf
            else:
                v, eid = guide.toward[v]
                upper += _toll(tolls, eid)
        bound = upper * (1.0 + 5 * len(neighbors) * _UNIT_ROUNDOFF)
    found: dict[str, Path] = {}
    root = index[source]
    dist = [math.inf] * len(neighbors)
    dist[root] = 0.0
    parent: list[tuple[int, str]] = [(root, "")] * len(neighbors)
    settled = [False] * len(neighbors)
    routes = {root: ((source,), ())}  # settled vertices' full keys, once built

    def route(v: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """v's full key (vertex path, edge path) by its parent links."""
        chain = []
        while v not in routes:
            chain.append(v)
            v = parent[v][0]
        path, edges = routes[v]
        for v in reversed(chain):
            path, edges = path + (names[v],), edges + (parent[v][1],)
            if settled[v]:
                routes[v] = path, edges
        return path, edges

    heap = [(0.0, root)]
    pop, push = heapq.heappop, heapq.heappush
    # the vertices waiting at the popped distance d when several do, least
    # full key last; an absorbed toll (d + toll == d) pushes one more at d or
    # changes one's key, and the order is then taken again
    tied: list[int] = []
    reorder = False
    try:
        while pending and (heap or tied):
            if not tied:
                d, u = pop(heap)
                if d > dist[u]:
                    continue  # pushed before u's distance dropped
                if heap and heap[0][0] == d:
                    tied.append(u)
            if tied:
                while heap and heap[0][0] == d:
                    v = pop(heap)[1]
                    if dist[v] == d:
                        tied.append(v)
                    reorder = True
                if reorder:
                    tied.sort(key=route, reverse=True)
                    reorder = False
                u = tied.pop()
            settled[u] = True
            if u in pending:
                found[names[u]] = (*route(u), d)
                pending.discard(u)
                if not pending:
                    break
            for v, eid in neighbors[u]:
                if settled[v]:
                    continue
                nd = d + float(tolls[eid])
                if nd < dist[v]:
                    if nd + h[v] > bound:
                        continue  # on no shortest path to the guide's target
                    dist[v] = nd
                    parent[v] = (u, eid)
                    push(heap, (nd, v))
                elif nd == dist[v]:
                    # v's parent p settled before u.  At one distance that
                    # puts p's key below u's, and unless u's parent is as
                    # close as u (an absorbed toll), p is not on u's path
                    # either, so the offer loses
                    p = parent[v][0]
                    if dist[p] == d and dist[parent[u][0]] < d:
                        continue
                    path, edges = route(u)
                    if (path + (names[v],), edges + (eid,)) < route(v):
                        parent[v] = (u, eid)
                        reorder = reorder or nd == d
    except KeyError:
        raise InstanceError(f"no toll given for resource {eid!r}") from None
    return found


def shortest_path(graph: HostGraph, source: str, target: str, tolls: Tolls,
                  guide: Optional[Guide] = None) -> Path:
    """Minimum-toll simple path from source to target, by the tie rule of
    :func:`shortest_paths`, which the ``guide`` is handed to.

    Returns (vertex sequence, edge ids, total toll).
    """
    if source == target:
        raise InstanceError("source equals target")
    _check_endpoint(graph, target)
    found = shortest_paths(graph, source, (target,), tolls, guide)
    if target not in found:
        raise InfeasibleError(f"no path from {source!r} to {target!r}")
    return found[target]


def routing_oracle(graph: HostGraph, source: str, target: str, tolls: Tolls) -> OracleAnswer:
    """The shortest path, guided when the tolls are :class:`GuidedTolls`."""
    _, edges, total = shortest_path(graph, source, target, tolls, getattr(tolls, "guide", None))
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
        total = left_sum(_toll(tolls, e) for e in sorted(rep))
        if best_total is None or total < best_total:
            best_reply, best_total = rep, total
    return OracleAnswer(reply=frozenset(best_reply), toll_total=best_total)


# ---------------------------------------------------------------------------
# Steiner tree (metric-closure MST)
# ---------------------------------------------------------------------------

def _merge(label, members: dict, a, b, *joined: dict) -> bool:
    """Merge the components of a and b (vertex -> component label, label ->
    its vertices), relabelling the smaller one; False if they are one
    component already.  Each of ``joined`` maps labels to lists that are
    joined as the members are.  Kruskal and the forest's moats both merge
    here."""
    big, small = label[a], label[b]
    if big == small:
        return False
    if len(members[big]) < len(members[small]):
        big, small = small, big
    for x in members[small]:
        label[x] = big
    for parts in (members, *joined):
        parts[big] += parts.pop(small)
    return True


def _mst_edges(edges: list[tuple[Hashable, str, str, float]]) -> list:
    """Kruskal over (id, tail, head, weight) tuples, ties broken by id;
    returns the chosen tuples."""
    label = {v: v for _, tail, head, _ in edges for v in (tail, head)}
    members = {v: [v] for v in label}
    return [edge for edge in sorted(edges, key=lambda t: (t[3], t[0]))
            if _merge(label, members, edge[1], edge[2])]


def steiner_tree_oracle(graph: HostGraph, terminals: Sequence[str], tolls: Tolls) -> OracleAnswer:
    """Metric-closure MST construction: complete graph on the terminals under
    shortest-path tolls, its MST expanded back to paths, an MST of that
    subgraph, then the union of the paths in that tree from the first
    terminal to each other one, which is what pruning non-terminal leaves
    until none is left would keep.  Guaranteed within twice the optimal
    Steiner toll."""
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

    union_edges = {eid for pair, _, _, _ in _mst_edges(closure) for eid in paths[pair]}

    # MST of the expanded subgraph, trimmed to the paths between terminals
    sub_edges = []
    for eid in sorted(union_edges):
        e = graph.edge_by_id[eid]
        sub_edges.append((eid, e.tail, e.head, _toll(tolls, eid)))
    tree = [edge[:3] for edge in _mst_edges(sub_edges)]
    kept = _forest_paths(tree, [(terms[0], t) for t in terms[1:]])

    total = left_sum(_toll(tolls, e) for e in sorted(kept))
    return OracleAnswer(reply=frozenset(kept), toll_total=total)


# ---------------------------------------------------------------------------
# Steiner forest (primal-dual moat growing)
# ---------------------------------------------------------------------------

def steiner_forest_oracle(graph: HostGraph, pairs: Sequence[tuple[str, str]],
                          tolls: Tolls) -> OracleAnswer:
    """Moat-growing 2-approximation with reverse deletion.

    Duals grow at unit rate around every active component (one containing
    exactly one endpoint of some pair); the edge that goes tight first is
    added and its endpoints' components merged.  Each edge keeps the toll
    it has left to pay, and a round lowers it by the round's step times its
    rate (how many of its ends lie in active components), never below 0;
    the edge with the least (left / rate, edge id) is chosen.

    A round examines only the borders of the active components: each
    component keeps the edges at its vertices, joined on merge, and drops
    those that have fallen inside it when it next scans them.  An edge with
    both ends active is met from both and handled once.  The rounds an
    edge is not examined are exactly those in which it has rate 0 and its
    toll left does not change, so each edge stores the round it was last a
    candidate in and its rate then, and its pending decrement is applied
    when it is next examined.  Every edge thus goes through the same float
    operations in the same order as in a scan of every edge per round, and
    the grown forest and its toll total are bit for bit the same.

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

    # over vertex and edge indices; edge index order is id order
    index = graph.indexed_adjacency[0]
    ends, incident = graph.indexed_incidence
    edges = graph.edges
    edge_toll = [_toll(tolls, e.id) if u != v else 0.0 for e, (u, v) in zip(edges, ends)]
    remaining = list(edge_toll)
    label = list(range(len(incident)))  # component label of each vertex
    members = {v: [v] for v in label}  # label -> its vertices
    borders = {v: list(at) for v, at in enumerate(incident)}  # label -> edges at it
    steps: list[float] = []  # each round's step
    last = [-1] * len(edges)  # the round each edge was last a candidate in
    rates = [0] * len(edges)  # and its rate then

    forest: list[int] = []
    terminal_pairs = [(index[s], index[t]) for s, t in pair_list]
    apart = terminal_pairs  # the pairs whose endpoints lie in different components
    while apart:
        now = len(steps)
        active = {label[v] for pair in apart for v in pair}
        step, chosen = math.inf, len(edges)
        for c in active:
            border = []
            for i in borders[c]:
                u, v = ends[i]
                lu, lv = label[u], label[v]
                if lu == lv:
                    continue
                border.append(i)
                j = last[i]
                if j == now:
                    continue
                left = remaining[i]
                if j >= 0:
                    # the decrement pending since round j, then max(0.0, left)
                    # bit for bit (it too gives 0.0 for nan and -0.0)
                    left -= steps[j] * rates[i]
                    left = remaining[i] = left if left > 0.0 else 0.0
                last[i] = now
                if (lv if lu == c else lu) in active:  # both ends grow
                    rates[i] = 2
                    key = left / 2
                else:
                    rates[i] = 1
                    key = left  # left / 1, the same double
                if key < step or key == step and i < chosen:
                    step, chosen = key, i
            borders[c] = border
        if chosen == len(edges):
            raise InfeasibleError("some terminal pair is not connected in the graph")
        steps.append(step)
        _merge(label, members, *ends[chosen], borders)
        forest.append(chosen)
        apart = [(s, t) for s, t in apart if label[s] != label[t]]

    used = _forest_paths(((i, *ends[i]) for i in forest), terminal_pairs)
    kept = [i for i in forest if i in used]

    total = left_sum(edge_toll[i] for i in kept)
    return OracleAnswer(reply=frozenset(edges[i].id for i in kept), toll_total=total)


def _forest_paths(forest: Iterable[tuple[Hashable, Hashable, Hashable]],
                  pairs: Iterable[tuple[Hashable, Hashable]]) -> set:
    """Edge ids on the unique path between the ends of each pair in a forest
    of (id, u, v) edges that connects every pair."""
    adjacency: dict = {}
    for eid, u, v in forest:
        adjacency.setdefault(u, []).append((v, eid))
        adjacency.setdefault(v, []).append((u, eid))
    # one depth-first search per source, resumed for each of its pairs; in a
    # forest the search's parent links give the unique path back to it
    searches: dict = {}
    used = set()
    for s, t in pairs:
        via, stack = searches.setdefault(s, ({s: (s, "")}, [s]))
        while t not in via:
            u = stack.pop()
            for v, eid in adjacency[u]:
                if v not in via:
                    via[v] = (u, eid)
                    stack.append(v)
        while t != s:
            t, eid = via[t]
            used.add(eid)
    return used


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
    total = left_sum(_toll(tolls, e) for e in sorted(union))
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

def _dispatch(instance: Instance, request: Request) -> tuple[Callable[[Tolls], OracleAnswer], float]:
    """The oracle for the request kind, bound to everything but the tolls,
    and the factor it guarantees."""
    kind = request.kind
    graph = instance.graph
    if isinstance(kind, Routing):
        return partial(routing_oracle, graph, kind.source, kind.target), 1.0
    if isinstance(kind, MachineChoice):
        return partial(machine_oracle, kind.machines), 1.0
    if isinstance(kind, ExplicitReplies):
        return partial(explicit_oracle, kind.replies), 1.0
    if isinstance(kind, MultiRouting):
        if graph.directed:
            return (partial(directed_multi_routing_oracle, graph, kind.pairs),
                    float(len(kind.pairs)))
        return partial(steiner_forest_oracle, graph, kind.pairs), 2.0
    if isinstance(kind, SetConnectivity):
        if graph.directed:
            return (partial(strong_connectivity_oracle, graph, kind.terminals),
                    float(len(kind.terminals)))
        return partial(steiner_tree_oracle, graph, kind.terminals), 2.0
    raise InstanceError(f"unsupported request kind {type(kind).__name__}")


def oracle_rho(instance: Instance, request: Request) -> float:
    """Guaranteed factor of the oracle that reply_oracle would use."""
    return _dispatch(instance, request)[1]


def reply_oracle(instance: Instance, request: Request, tolls: Tolls) -> OracleAnswer:
    """Select and run the oracle matching the request kind."""
    return _dispatch(instance, request)[0](tolls)
