"""Instance files: a JSON document with top-level keys "alphas", "resources",
optional "graph" and "requests".  Unknown keys are rejected at every level, and
every malformed file raises ParseError naming the offending field or line.  One
table gives each request kind its tag and each field's reader and writer.  The
writer's canonical form (fixed key order, two-space indent, sorted collections,
a trailing newline) makes write(parse(file)) byte-identical for such files.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InstanceError, ParseError
from .instance import (Edge, ExplicitReplies, ExponentProfile, HostGraph, Instance, MachineChoice,
                       MultiRouting, Request, ResourceParams, Routing, SetConnectivity, finite)

# ---------------------------------------------------------------------------
# shape readers: each owns one check and its message
# ---------------------------------------------------------------------------

def _keys(*required: str, optional: tuple[str, ...] = ()) -> tuple[frozenset, frozenset]:
    """The (allowed, required) key sets of an object."""
    return frozenset(required + optional), frozenset(required)


def _object(value, path: str, keys: tuple[frozenset, frozenset] | None = None) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object")
    if keys is not None:
        allowed, required = keys
        if not allowed.issuperset(value):
            raise ParseError(f"{path}: unknown key(s) {sorted(value.keys() - allowed)}")
        if not required.issubset(value):
            raise ParseError(f"{path}: missing key(s) {sorted(required - value.keys())}")
    return value


def _list(value, path: str, item) -> list:
    """``value`` as a list, each element read by ``item`` at ``path[i]``."""
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number")
    if isinstance(value, float):
        return value
    # an integer literal can be past a double, where a float one reads as inf
    return finite(float, lambda _: ParseError(f"{path}: integer exceeds the largest double"),
                  value)


# ---------------------------------------------------------------------------
# request kinds
# ---------------------------------------------------------------------------

def _tuple_of(item):
    """A reader of a list whose elements ``item`` reads, giving a tuple."""
    return lambda value, path: tuple(_list(value, path, item))


def _pair(value, path: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{path}: expected [source, target]")
    return _str(value[0], path + "[0]"), _str(value[1], path + "[1]")


def _reply(value, path: str) -> frozenset[str]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of resource ids")
    return frozenset(_str(e, path) for e in value)


def _kind(tag: str, *fields) -> tuple:
    """A table row: the tag, the (name, read, write) fields in order, the key sets."""
    return tag, fields, _keys(*(name for name, _, _ in fields), optional=("type",))


_KINDS = {
    Routing: _kind("routing", ("source", _str, str), ("target", _str, str)),
    MultiRouting: _kind("multi_routing", ("pairs", _tuple_of(_pair),
                                          lambda pairs: [[s, t] for s, t in pairs])),
    SetConnectivity: _kind("set_connectivity", ("terminals", _tuple_of(_str), list)),
    MachineChoice: _kind("machine_choice", ("machines", _tuple_of(_str), list)),
    ExplicitReplies: _kind("explicit", ("replies", _tuple_of(_reply),
                                        lambda replies: [sorted(rep) for rep in replies])),
}


def _parse_kind(obj, path: str):
    tag = _object(obj, path).get("type")
    for cls, (kind_tag, fields, keys) in _KINDS.items():
        if kind_tag == tag:
            _object(obj, path, keys)
            return cls(*[read(obj[name], f"{path}.{name}") for name, read, _ in fields])
    raise ParseError(f"{path}.type: unknown request kind {tag!r}")


def _kind_to_dict(kind) -> dict[str, Any]:
    tag, fields, _ = _KINDS[type(kind)]
    return {"type": tag, **{name: write(getattr(kind, name)) for name, _, write in fields}}


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

_TOP_KEYS = _keys("alphas", "resources", "requests", optional=("graph",))
_RESOURCE_KEYS = _keys("id", "sigma", "xis")
_GRAPH_KEYS = _keys("directed", "vertices", "edges")
_EDGE_KEYS = _keys("id", "tail", "head")
_REQUEST_KEYS = _keys("id", "kind", optional=("weights", "weight_all"))


def _resource(obj, path: str) -> ResourceParams:
    _object(obj, path, _RESOURCE_KEYS)
    return ResourceParams(_str(obj["id"], path + ".id"), _number(obj["sigma"], path + ".sigma"),
                          tuple(_list(obj["xis"], path + ".xis", _number)))


def _edge(obj, path: str) -> Edge:
    _object(obj, path, _EDGE_KEYS)
    return Edge(_str(obj["id"], path + ".id"), _str(obj["tail"], path + ".tail"),
                _str(obj["head"], path + ".head"))


def _graph(obj) -> HostGraph:
    _object(obj, "graph", _GRAPH_KEYS)
    if not isinstance(obj["directed"], bool):
        raise ParseError("graph.directed: expected a boolean")
    return HostGraph(obj["directed"], tuple(_list(obj["vertices"], "graph.vertices", _str)),
                     tuple(_list(obj["edges"], "graph.edges", _edge)))


def _request(obj, path: str) -> Request:
    _object(obj, path, _REQUEST_KEYS)
    weights = {}
    if "weights" in obj:
        weights = {e: _int(w, f"{path}.weights[{e!r}]")
                   for e, w in _object(obj["weights"], path + ".weights").items()}
    return Request(
        weights=weights,
        default_weight=_int(obj["weight_all"], path + ".weight_all") if "weight_all" in obj else 1,
        id=_int(obj["id"], path + ".id"),
        kind=_parse_kind(obj["kind"], path + ".kind"),
    )


def _instance(doc) -> Instance:
    _object(doc, "top level", _TOP_KEYS)
    if not isinstance(doc["alphas"], list) or not doc["alphas"]:
        raise ParseError("alphas: expected a nonempty list of numbers")
    alphas = _list(doc["alphas"], "alphas", _number)
    resources = _list(doc["resources"], "resources", _resource)
    graph = _graph(doc["graph"]) if "graph" in doc else None
    requests = _list(doc["requests"], "requests", _request)
    return Instance(ExponentProfile(tuple(alphas)), tuple(resources), tuple(requests), graph)


def parse_instance_text(text: str) -> Instance:
    try:
        return _instance(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


def parse_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text at byte {exc.start}: {exc.reason}") from exc
    return parse_instance_text(text)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

def _request_to_dict(req: Request) -> dict[str, Any]:
    out: dict[str, Any] = {"id": req.id}
    if req.default_weight != 1:
        out["weight_all"] = req.default_weight
    if req.weights:
        out["weights"] = {e: req.weights[e] for e in sorted(req.weights)}
    out["kind"] = _kind_to_dict(req.kind)
    return out


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "alphas": list(instance.exponents.alphas),
        "resources": [{"id": r.id, "sigma": r.sigma, "xis": list(r.xis)}
                      for r in instance.resources],
    }
    graph = instance.graph
    if graph is not None:
        doc["graph"] = {
            "directed": graph.directed,
            "vertices": list(graph.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in graph.edges],
        }
    doc["requests"] = [_request_to_dict(req) for req in instance.requests]
    return doc


def instance_to_text(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def write_instance(instance: Instance, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")
