"""Data model for generalized network design instances.

A resource ``e`` carries a startup-plus-power cost function of the load
``l``::

    F_e(0) = 0
    F_e(l) = sigma_e + sum_j xi_{e,j} * l**alpha_j     (l > 0)

with global exponents ``alpha_j > 1`` shared by every resource of an
instance.  Each of the ``N`` requests is served by a *reply* (a resource
subset drawn from its reply collection) and contributes its integer weight
``w_i(e)`` to the load on every resource of its reply.  Weights are
unrelated: a request may weigh differently on different resources.

A :class:`StrategyProfile` is one reply per request; it is the unit the
dynamics engine mutates.  Loads are exact integers, costs are doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Callable, Collection, Hashable, Iterable, Mapping, Optional, Union

from .errors import GndesError, InstanceError

ReplySet = frozenset[str]
StrategyProfile = tuple[ReplySet, ...]
LoadVector = dict[str, int]


# ---------------------------------------------------------------------------
# resource side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """Global exponents alpha_1..alpha_q, each finite and > 1, shared by all resources."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 1:
            raise InstanceError("exponent profile needs at least one exponent")
        for a in self.alphas:
            if not a > 1.0:
                raise InstanceError(f"every exponent must exceed 1, got {a}")
            if not math.isfinite(a):
                raise InstanceError(f"every exponent must be finite, got {a}")

    @property
    def q(self) -> int:
        return len(self.alphas)

    @property
    def alpha_max(self) -> float:
        return max(self.alphas)


@dataclass(frozen=True)
class ResourceParams:
    """One resource: finite startup cost sigma >= 0 and finite factors xi_j >= 0.

    At least one factor must be positive; the xis tuple must match the
    instance's exponent count (checked at Instance construction where q is
    known).
    """

    id: str
    sigma: float
    xis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "xis", tuple(float(x) for x in self.xis))
        if self.sigma < 0:
            raise InstanceError(f"resource {self.id!r}: sigma must be >= 0")
        if not math.isfinite(self.sigma):
            raise InstanceError(f"resource {self.id!r}: sigma must be finite")
        if any(x < 0 for x in self.xis):
            raise InstanceError(f"resource {self.id!r}: factors must be >= 0")
        if not all(map(math.isfinite, self.xis)):
            raise InstanceError(f"resource {self.id!r}: factors must be finite")
        if not any(x > 0 for x in self.xis):
            raise InstanceError(f"resource {self.id!r}: needs at least one positive factor")


def left_sum(values: Iterable[float]) -> float:
    """The values added one at a time from the left, starting at 0.0.

    The library takes its float totals with this fold, over terms in an
    order each caller fixes.  It is what ``sum()`` computes on CPython 3.10
    and 3.11; from 3.12 ``sum()`` adds floats with compensation, so a total
    taken with it would move in its last bits with the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


REL_TOL = 1e-9


def exceeds(a: float, b: float, *scale: float) -> bool:
    """Whether ``a`` is above ``b`` by more than REL_TOL of the largest
    magnitude among ``a``, ``b`` and ``scale``: the library's one tolerance
    rule.  Costs have no unit, so no verdict compares them with an absolute
    threshold, and multiplying every cost by a power of two changes none.
    Two values differ when ``exceeds(abs(a - b), 0.0, a, b)``."""
    return a - b > REL_TOL * max(abs(a), abs(b), *map(abs, scale))


def finite(compute: Callable[..., float], refusal: Callable[..., GndesError], *args) -> float:
    """``compute(*args)``, a float formula, where its value fits in a double;
    where it is past one (the formula raises OverflowError or returns inf),
    the error ``refusal(*args)`` is raised.  With :func:`float_or_exact`, the
    library's one overflow rule."""
    try:
        value = compute(*args)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise refusal(*args)
    return value


def float_or_exact(fast: Callable[[], float], exact: Callable[[], Real]) -> Real:
    """``fast()``, a float formula, bits and all, where its value is finite;
    where an intermediate overflows or a divisor underflows to 0, ``exact()``:
    the same value in int or ``Fraction`` arithmetic, rounded only once (to a
    double, or up to a whole count by the caller)."""
    try:
        value = fast()
    except (OverflowError, ZeroDivisionError):
        return exact()
    return value if math.isfinite(value) else exact()


def _power_fold(start: float, params: ResourceParams, exponents: ExponentProfile, load) -> float:
    """``start`` plus xi_j * load**alpha_j over the positive factors, from the
    left: :func:`rep_cost` starts at sigma, ``sharing.h_value`` at 0.0."""
    total = start
    x = float(load)
    for xi, alpha in zip(params.xis, exponents.alphas):
        if xi:
            total += xi * x ** alpha
    return total


def _cost_past_a_double(start, params: ResourceParams, exponents, load) -> InstanceError:
    return InstanceError(f"cost of resource {params.id!r} at load {load} exceeds the largest double")


def rep_cost(params: ResourceParams, exponents: ExponentProfile, load: int) -> float:
    """Cost of a resource at an integer load; exactly 0 at load 0."""
    if load < 0:
        raise InstanceError(f"negative load {load} on resource {params.id!r}")
    if load == 0:
        return 0.0
    return finite(_power_fold, _cost_past_a_double, params.sigma, params, exponents, load)


# ---------------------------------------------------------------------------
# graph side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class HostGraph:
    """Optional host graph; edge ids double as resource ids.

    Parallel edges and self-loops are permitted.  Self-loops never help
    connectivity and are excluded from traversal.

    Its views are cached on first use: :attr:`edge_by_id`, and over vertex
    indices :attr:`indexed_adjacency`, whose one loop over the edges decides
    the graph's rules (arcs follow an edge's direction, self-loops are
    dropped, parallel edges kept), and :attr:`indexed_predecessors` and
    :attr:`indexed_incidence`, both derived from its arcs.  :meth:`walk` is
    the one traversal of a subgraph: it follows the cached arcs whose edge
    id it is given, so it drops self-loops as they do.
    """

    directed: bool
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        seen = set()
        vset = set(self.vertices)
        for e in self.edges:
            if e.id in seen:
                raise InstanceError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.tail not in vset or e.head not in vset:
                raise InstanceError(f"edge {e.id!r} references unknown vertex")

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def indexed_adjacency(self) -> tuple[dict[str, int], tuple[tuple[tuple[int, str], ...], ...]]:
        """The graph's arcs over vertex indices, the one place its rules are
        decided: vertex -> its index in :attr:`vertices` (sorted, so index
        order is name order), and per index the (neighbor index, edge id)
        pairs of its arcs, sorted.  Each edge gives its tail->head arc, and
        the reverse arc too when undirected; a self-loop gives none, and
        parallel edges are kept."""
        index = {v: i for i, v in enumerate(self.vertices)}
        arcs: list[list[tuple[int, str]]] = [[] for _ in self.vertices]
        for e in self.edges:
            u, v = index[e.tail], index[e.head]
            if u != v:
                arcs[u].append((v, e.id))
                if not self.directed:
                    arcs[v].append((u, e.id))
        return index, tuple(tuple(sorted(at)) for at in arcs)

    @cached_property
    def indexed_predecessors(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Per vertex index the (neighbor index, edge id) pairs of the arcs
        into it, which a search toward the vertex walks backward.  An
        undirected graph's are its :attr:`indexed_adjacency`."""
        neighbors = self.indexed_adjacency[1]
        if not self.directed:
            return neighbors
        into: list[list[tuple[int, str]]] = [[] for _ in neighbors]
        for u, arcs in enumerate(neighbors):
            for v, eid in arcs:
                into[v].append((u, eid))
        return tuple(map(tuple, into))

    @cached_property
    def indexed_incidence(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
        """The edges over indices: per index into :attr:`edges` (sorted, so
        index order is id order) its (tail, head) vertex indices as in
        :attr:`indexed_adjacency`, and per vertex index the indices of the
        edges of its out- and in-arcs, in edge order (so no self-loop)."""
        index, out = self.indexed_adjacency
        ends = tuple((index[e.tail], index[e.head]) for e in self.edges)
        number = {e.id: k for k, e in enumerate(self.edges)}
        return ends, tuple(tuple(sorted({number[eid] for _, eid in arcs + into}))
                           for arcs, into in zip(out, self.indexed_predecessors))

    def walk(self, root: int, edge_ids: Collection[str],
             backward: bool = False) -> dict[int, tuple[int, str]]:
        """Depth-first search from the vertex index ``root`` over the arcs of
        :attr:`indexed_adjacency` (against them, :attr:`indexed_predecessors`,
        when ``backward``) whose edge id is in ``edge_ids``: each vertex index
        reached, mapped to the vertex it was reached from and the edge id; the
        root maps to ``(root, "")``.  In a forest the links lead back to the
        root along the unique path."""
        arcs = self.indexed_predecessors if backward else self.indexed_adjacency[1]
        via = {root: (root, "")}
        stack = [root]
        while stack:
            u = stack.pop()
            for v, eid in arcs[u]:
                if v not in via and eid in edge_ids:
                    via[v] = (u, eid)
                    stack.append(v)
        return via


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

# a repeated entry of a request kind adds no strategy and no connection
# demand, so each kind keeps it once: terminals sorted, pairs, machines and
# replies in first-seen order

@dataclass(frozen=True)
class Routing:
    source: str
    target: str


@dataclass(frozen=True)
class MultiRouting:
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(dict.fromkeys((s, t) for s, t in self.pairs)))


@dataclass(frozen=True)
class SetConnectivity:
    terminals: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(sorted(set(self.terminals))))


@dataclass(frozen=True)
class MachineChoice:
    machines: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(dict.fromkeys(self.machines)))


@dataclass(frozen=True)
class ExplicitReplies:
    replies: tuple[ReplySet, ...]

    def __post_init__(self):
        object.__setattr__(self, "replies", tuple(dict.fromkeys(map(frozenset, self.replies))))


RequestKind = Union[Routing, MultiRouting, SetConnectivity, MachineChoice, ExplicitReplies]

GRAPH_KINDS = (Routing, MultiRouting, SetConnectivity)


@dataclass(frozen=True)
class Request:
    """One request: an integer id, integer weights per resource plus a reply
    collection kind.

    ``weights`` holds explicit per-resource weights; resources absent from the
    map weigh ``default_weight`` (the file format's "weight_all", 1 if
    unspecified).  All weights are integers >= 1.
    """

    id: int
    kind: RequestKind
    weights: Mapping[str, int] = field(default_factory=dict)
    default_weight: int = 1

    def __post_init__(self):
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise InstanceError(f"request id {self.id!r} must be an integer")
        object.__setattr__(self, "weights", dict(self.weights))
        for e, w in self.weights.items():
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InstanceError(f"request {self.id}: weight on {e!r} must be an integer >= 1")
        dw = self.default_weight
        if not isinstance(dw, int) or isinstance(dw, bool) or dw < 1:
            raise InstanceError(f"request {self.id}: default weight must be an integer >= 1")

    def weight(self, resource_id: str) -> int:
        return self.weights.get(resource_id, self.default_weight)


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------

def _first_seen_index(keys: Iterable[Hashable]) -> tuple[int, ...]:
    """Each key's index among the distinct keys, in order of first sight."""
    index: dict[Hashable, int] = {}
    return tuple(index.setdefault(key, len(index)) for key in keys)


@dataclass(frozen=True)
class Instance:
    exponents: ExponentProfile
    resources: tuple[ResourceParams, ...]
    requests: tuple[Request, ...]
    graph: Optional[HostGraph] = None

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(sorted(self.resources, key=lambda r: r.id)))
        object.__setattr__(self, "requests", tuple(sorted(self.requests, key=lambda r: r.id)))
        self._validate()

    # -- derived views -----------------------------------------------------

    @cached_property
    def resource_by_id(self) -> dict[str, ResourceParams]:
        return {r.id: r for r in self.resources}

    @cached_property
    def weight_rows(self) -> tuple[int, ...]:
        """Each request's weight row, an index numbered in request order:
        two requests share one when they weigh the same on every resource."""
        ids = [res.id for res in self.resources]
        return _first_seen_index(tuple(req.weights.get(e, req.default_weight) for e in ids)
                                 for req in self.requests)

    @cached_property
    def request_classes(self) -> tuple[int, ...]:
        """Each request's class, an index numbered in request order: two
        requests share one when they have equal kinds and the same weight
        row, so they differ only in their ids.  The oracle and the shares
        see a request only through its kind and weights, so players of one
        class holding equal replies face equal toll rows."""
        return _first_seen_index(zip((req.kind for req in self.requests), self.weight_rows))

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        q = self.exponents.q
        ids = [r.id for r in self.resources]
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate resource ids")
        if not self.resources:
            raise InstanceError("instance needs at least one resource")
        for r in self.resources:
            if len(r.xis) != q:
                raise InstanceError(f"resource {r.id!r}: expected {q} factors, got {len(r.xis)}")
        if self.graph is not None:
            for e in self.graph.edges:
                if e.id not in self.resource_by_id:
                    raise InstanceError(f"graph edge {e.id!r} is not a declared resource")
        if not self.requests:
            raise InstanceError("instance needs at least one request")
        req_ids = [r.id for r in self.requests]
        if len(set(req_ids)) != len(req_ids):
            raise InstanceError("duplicate request ids")
        vset = frozenset(self.graph.vertices) if self.graph is not None else frozenset()
        for req in self.requests:
            for e in req.weights:
                if e not in self.resource_by_id:
                    raise InstanceError(f"request {req.id}: weight on unknown resource {e!r}")
            self._validate_kind(req, vset)

    def _validate_kind(self, req: Request, vset: frozenset[str]):
        kind = req.kind
        if isinstance(kind, GRAPH_KINDS):
            if self.graph is None:
                raise InstanceError(f"request {req.id}: kind requires a host graph")
            if isinstance(kind, Routing):
                if kind.source not in vset or kind.target not in vset:
                    raise InstanceError(f"request {req.id}: unknown terminal vertex")
                if kind.source == kind.target:
                    raise InstanceError(f"request {req.id}: source equals target")
            elif isinstance(kind, MultiRouting):
                if not kind.pairs:
                    raise InstanceError(f"request {req.id}: needs at least one terminal pair")
                for s, t in kind.pairs:
                    if s not in vset or t not in vset:
                        raise InstanceError(f"request {req.id}: unknown terminal vertex")
                    if s == t:
                        raise InstanceError(f"request {req.id}: degenerate terminal pair ({s},{t})")
            else:
                if len(kind.terminals) < 2:
                    raise InstanceError(f"request {req.id}: needs at least two terminals")
                for t in kind.terminals:
                    if t not in vset:
                        raise InstanceError(f"request {req.id}: unknown terminal vertex {t!r}")
        elif isinstance(kind, MachineChoice):
            if not kind.machines:
                raise InstanceError(f"request {req.id}: empty machine list")
            for m in kind.machines:
                if m not in self.resource_by_id:
                    raise InstanceError(f"request {req.id}: unknown machine {m!r}")
        elif isinstance(kind, ExplicitReplies):
            if not kind.replies:
                raise InstanceError(f"request {req.id}: empty reply list")
            for rep in kind.replies:
                if not rep:
                    raise InstanceError(f"request {req.id}: replies must be nonempty")
                for e in sorted(rep):
                    if e not in self.resource_by_id:
                        raise InstanceError(f"request {req.id}: reply uses unknown resource {e!r}")
        else:
            raise InstanceError(f"request {req.id}: unsupported kind {type(kind).__name__}")

    # -- cost primitives ----------------------------------------------------

    def check_reply_resources(self, reply: Iterable[str]):
        unknown = [e for e in reply if e not in self.resource_by_id]
        if unknown:
            raise InstanceError(f"reply uses unknown resource {min(unknown)!r}")


def check_profile(instance: Instance, profile: StrategyProfile):
    """Raise InstanceError unless the profile holds one reply per request and
    its replies name only the instance's resources."""
    if len(profile) != instance.n_requests:
        raise InstanceError(
            f"profile has {len(profile)} replies for {instance.n_requests} requests")
    known = instance.resource_by_id.keys()
    for req, reply in zip(instance.requests, profile):
        if not known >= reply:
            unknown = min(e for e in reply if e not in known)
            raise InstanceError(f"reply of request {req.id} uses unknown resource {unknown!r}")


def load_vector(instance: Instance, profile: StrategyProfile) -> LoadVector:
    """Per-resource loads induced by a profile; unused resources map to 0."""
    check_profile(instance, profile)
    loads = {r.id: 0 for r in instance.resources}
    for req, reply in zip(instance.requests, profile):
        for e in reply:
            loads[e] += req.weight(e)
    return loads


def total_cost(instance: Instance, profile: StrategyProfile) -> float:
    loads = load_vector(instance, profile)
    return left_sum(
        rep_cost(r, instance.exponents, loads[r.id]) for r in instance.resources)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Feasibility:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_reply(instance: Instance, request: Request, reply: ReplySet) -> Feasibility:
    """Check one reply against the request's reply collection.

    Raises InstanceError for structural problems (unknown resource ids);
    returns a verdict naming the first violated requirement otherwise.
    """
    instance.check_reply_resources(reply)
    kind = request.kind

    if isinstance(kind, MachineChoice):
        if len(reply) != 1:
            return Feasibility(False, "reply must be a single machine")
        (m,) = tuple(reply)
        if m not in kind.machines:
            return Feasibility(False, f"machine {m!r} not in the allowed list")
        return Feasibility(True)

    if isinstance(kind, ExplicitReplies):
        if frozenset(reply) in kind.replies:
            return Feasibility(True)
        return Feasibility(False, "reply is not one of the listed options")

    graph = instance.graph
    stray = [eid for eid in reply if eid not in graph.edge_by_id]
    if stray:
        raise InstanceError(f"unknown edge id {min(stray)!r}")
    index = graph.indexed_adjacency[0]

    def reaches(s: str, t: str) -> bool:
        # a terminal that is no vertex reaches only itself
        return s == t or s in index and index.get(t) in graph.walk(index[s], reply)

    if isinstance(kind, Routing):
        if reaches(kind.source, kind.target):
            return Feasibility(True)
        return Feasibility(False, f"no path from {kind.source!r} to {kind.target!r}")

    if isinstance(kind, MultiRouting):
        for s, t in kind.pairs:
            if not reaches(s, t):
                return Feasibility(False, f"pair ({s!r},{t!r}) not connected")
        return Feasibility(True)

    # set connectivity: the reply-induced subgraph itself must be connected
    # (strongly connected in directed graphs) and span every terminal; a
    # self-loop's vertex belongs to it, though the walk never takes the loop
    edges = [graph.edge_by_id[eid] for eid in reply]
    verts = {e.tail for e in edges} | {e.head for e in edges}
    for t in kind.terminals:
        if t not in verts:
            return Feasibility(False, f"terminal {t!r} not covered by the reply")
    if not verts:
        return Feasibility(False, "empty reply cannot span the terminals")
    spanned = {index[v] for v in verts}
    start = min(spanned)
    if graph.walk(start, reply).keys() != spanned:
        return Feasibility(False, "reply subgraph is not connected")
    if graph.directed and graph.walk(start, reply, backward=True).keys() != spanned:
        return Feasibility(False, "reply subgraph is not strongly connected")
    return Feasibility(True)
