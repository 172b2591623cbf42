"""Instance files and the one output rule.

Instance files are a JSON document with top-level keys "alphas",
"resources", optional "graph" and "requests".  One table per record (the
top level, a resource, the graph, an edge, a request and each request kind)
lists its keys in file order, each with its reader, its writer, the model
attribute it fills and, for an optional key, the default the reader
supplies and the writer leaves out; one reader and one writer walk those
rows.  Unknown keys are rejected at every level, and every malformed file
raises ParseError naming the offending field or line.  The writer's
canonical form (fixed key order, sorted collections) makes
write(parse(file)) byte-identical for such files.

The output rule: every number, report, CSV row, JSON document and file the
package writes goes through the helpers at the end of this module.
:func:`fmt` prints one value (a real to 9 significant digits, ``None``
empty, a bool ``true``/``false``, anything else by ``str``), and
:func:`report_text`, :func:`csv_text` (LF-ended rows) and :func:`json_text`
(strict JSON with a two-space indent and a trailing newline; a non-finite
number raises ``ValueError``) build on it; :func:`write_text` writes UTF-8
with LF line endings whatever the platform.

A command's report is one list of facts, each a (JSON key, text label,
value) triple, with two projections: :func:`facts_doc`, its JSON document,
holds the facts that have a key, and :func:`facts_text`, its text report,
prints the facts that have a label, each in list order.  A key of ``None``
marks a line only the text prints, a label of ``None`` a field only the
JSON holds; a fact with both prints as the ``fmt`` of its JSON value.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Iterable

from .errors import InstanceError, ParseError
from .instance import (Edge, ExplicitReplies, ExponentProfile, HostGraph, Instance, MachineChoice,
                       MultiRouting, Request, ResourceParams, Routing, SetConnectivity, finite)

# ---------------------------------------------------------------------------
# shape readers: each owns one check and its message
# ---------------------------------------------------------------------------

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


def _tuple_of(item):
    """A reader of a list whose elements ``item`` reads, giving a tuple."""
    return lambda value, path: tuple(_list(value, path, item))


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{path}: expected a boolean")
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


def _alphas(value, path: str) -> ExponentProfile:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty list of numbers")
    return ExponentProfile(tuple(_list(value, path, _number)))


def _weights(value, path: str) -> dict[str, int]:
    return {e: _int(w, f"{path}[{e!r}]") for e, w in _object(value, path).items()}


def _pair(value, path: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{path}: expected [source, target]")
    return _str(value[0], path + "[0]"), _str(value[1], path + "[1]")


def _reply(value, path: str) -> frozenset[str]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of resource ids")
    return frozenset(_str(e, path) for e in value)


# ---------------------------------------------------------------------------
# one table per record, walked by one reader and one writer
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _same(value):
    return value


def _field(key: str, read, write=_same, attr: str | None = None, default=_REQUIRED) -> tuple:
    """One key of a record: its reader, its writer, the model attribute it
    fills (the key itself unless named) and, for an optional key, the
    default the reader supplies and the writer leaves out."""
    return key, attr or key, read, write, default


def _record(cls, *fields, extra: tuple[str, ...] = ()) -> tuple:
    """A table row: the model class, its fields in file order, the
    (allowed, required) key sets (``extra`` keys are allowed and not read),
    and for the reader each field's (key, position among the class's
    attributes, reader) and the arguments that hold every default."""
    attrs = [f.name for f in dataclasses.fields(cls)]
    reads = tuple((key, attrs.index(attr), read) for key, attr, read, _, _ in fields)
    defaults = [default for *_, default in sorted(fields, key=lambda f: attrs.index(f[1]))]
    required = [key for key, _, _, _, default in fields if default is _REQUIRED]
    keys = frozenset([key for key, *_ in fields] + list(extra)), frozenset(required)
    return cls, fields, keys, reads, defaults


def _read(row, obj, path: str):
    """The record ``row`` describes, read from ``obj`` at ``path`` ("" at the top level)."""
    cls, _, keys, reads, defaults = row
    _object(obj, path or "top level", keys)
    prefix = path + "." if path else ""
    # a positional call builds a dataclass faster than a keyword call
    args = defaults.copy()
    for key, slot, read in reads:
        if key in obj:
            args[slot] = read(obj[key], prefix + key)
    return cls(*args)


def _write(row, record) -> dict[str, Any]:
    """``record`` as the object ``row`` describes, without the keys that hold their default."""
    doc = {}
    for key, attr, _, write, default in row[1]:
        value = getattr(record, attr)
        if default is _REQUIRED or value != default:
            doc[key] = write(value)
    return doc


def _records(row) -> tuple:
    """The reader and the writer of a list of ``row`` records."""
    return _tuple_of(partial(_read, row)), lambda records: [_write(row, r) for r in records]


def _kind(cls, tag: str, *fields) -> tuple:
    """A request kind: its class, then its "type" tag and its table row."""
    return cls, (tag, _record(cls, *fields, extra=("type",)))


_KINDS = dict([
    _kind(Routing, "routing", _field("source", _str, str), _field("target", _str, str)),
    _kind(MultiRouting, "multi_routing",
          _field("pairs", _tuple_of(_pair), lambda pairs: [[s, t] for s, t in pairs])),
    _kind(SetConnectivity, "set_connectivity", _field("terminals", _tuple_of(_str), list)),
    _kind(MachineChoice, "machine_choice", _field("machines", _tuple_of(_str), list)),
    _kind(ExplicitReplies, "explicit",
          _field("replies", _tuple_of(_reply), lambda replies: [sorted(rep) for rep in replies])),
])


def _read_kind(obj, path: str):
    tag = _object(obj, path).get("type")
    for kind_tag, row in _KINDS.values():
        if kind_tag == tag:
            return _read(row, obj, path)
    raise ParseError(f"{path}.type: unknown request kind {tag!r}")


def _write_kind(kind) -> dict[str, Any]:
    tag, row = _KINDS[type(kind)]
    return {"type": tag, **_write(row, kind)}


_REQUEST = _record(
    Request,
    _field("id", _int),
    _field("weight_all", _int, attr="default_weight", default=1),
    _field("weights", _weights, lambda weights: {e: weights[e] for e in sorted(weights)},
           default={}),
    _field("kind", _read_kind, _write_kind))
_EDGE = _record(Edge, _field("id", _str), _field("tail", _str), _field("head", _str))
_GRAPH = _record(HostGraph, _field("directed", _bool), _field("vertices", _tuple_of(_str), list),
                 _field("edges", *_records(_EDGE)))
_RESOURCE = _record(ResourceParams, _field("id", _str), _field("sigma", _number),
                    _field("xis", _tuple_of(_number), list))
_TOP = _record(
    Instance,
    _field("alphas", _alphas, lambda exponents: list(exponents.alphas), attr="exponents"),
    _field("resources", *_records(_RESOURCE)),
    _field("graph", partial(_read, _GRAPH), partial(_write, _GRAPH), default=None),
    _field("requests", *_records(_REQUEST)))


# ---------------------------------------------------------------------------
# reader and writer of a whole file
# ---------------------------------------------------------------------------

def parse_instance_text(text: str) -> Instance:
    try:
        return _read(_TOP, json.loads(text), "")
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


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return _write(_TOP, instance)


def instance_to_text(instance: Instance) -> str:
    return json_text(instance_to_dict(instance))


def write_instance(instance: Instance, path: str):
    write_text(path, instance_to_text(instance))


# ---------------------------------------------------------------------------
# the output rule
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """One printed value: a real to 9 significant digits, ``None`` empty, a
    bool ``true`` or ``false``, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def report_text(title: str, rows: Iterable[tuple[str, Any]], width: int) -> str:
    """A titled report, one line per (label, value) row: two spaces, the
    label padded to ``width``, then the value.  A label of ``width`` or more
    characters is not padded, so it carries its own space."""
    lines = [title, *(f"  {label:<{width}}{fmt(value)}" for label, value in rows)]
    return "\n".join(lines) + "\n"


def facts_doc(facts: Iterable[tuple[str | None, str | None, Any]]) -> dict[str, Any]:
    """The JSON projection of a report: the facts that have a key, in list order."""
    return {key: value for key, _, value in facts if key is not None}


def facts_text(title: str, width: int,
               facts: Iterable[tuple[str | None, str | None, Any]]) -> str:
    """The text projection of a report: :func:`report_text` of the facts
    that have a label, in list order."""
    return report_text(title, ((label, value) for _, label, value in facts
                               if label is not None), width)


def csv_text(header: str, rows: Iterable[Iterable[Any]]) -> str:
    """A CSV document: the header line, then one line per row of values."""
    lines = [header, *(",".join(map(fmt, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """``doc`` as strict JSON: a nan or an infinity raises ``ValueError``
    instead of printing ``NaN`` or ``Infinity``."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
