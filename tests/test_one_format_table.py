"""One table per record of the instance format.

``io`` declares each record of an instance file (the top level, a resource,
the graph, an edge, a request and each request kind) once, as a table row:
each key with its reader, its writer, the model attribute it fills and, for
an optional key, the default the reader supplies and the writer leaves out.
One reader and one writer walk those rows.  So no code outside the tables
reads a record field by a string subscript (``obj["id"]``, ``obj.get("id")``,
``"id" in obj``) or builds a record dict (``{"id": ...}``, ``dict(id=...)``).
The kind tag ``"type"`` is the one exception: it picks the kind's row.

An optional key's default is the model's own default for the attribute it
fills, so a file that leaves the key out reads as the model built without it.
"""

import ast
import dataclasses
from pathlib import Path

from gndes import io
from gndes.instance import Instance, Request

IO_SOURCE = Path(io.__file__).read_text(encoding="utf-8")

# the key that picks a request kind's row
TAG = "type"

ROWS = [io._TOP, io._RESOURCE, io._GRAPH, io._EDGE, io._REQUEST,
        *(row for _, row in io._KINDS.values())]


def _key(node):
    """The string a node spells literally, or None."""
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _is_table(stmt) -> bool:
    """A module-level assignment to a constant, such as ``_REQUEST = ...``."""
    return isinstance(stmt, ast.Assign) and all(
        isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)


def record_forms(source: str) -> list[tuple[str, int]]:
    """(form, line) of every record key read or written by its literal name
    outside the tables, the kind tag aside, in line order."""
    tree = ast.parse(source)
    tables = {id(node) for stmt in tree.body if _is_table(stmt) for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if id(node) in tables:
            continue
        if isinstance(node, ast.Subscript):
            found.append((f"[{_key(node.slice)!r}]", node.lineno, _key(node.slice)))
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            found.append((f"{_key(node.left)!r} in", node.lineno, _key(node.left)))
        elif isinstance(node, ast.Dict):
            found += [(f"{{{_key(k)!r}: }}", node.lineno, _key(k)) for k in node.keys if k]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("get", "pop", "setdefault") and node.args:
                key = _key(node.args[0])
                found.append((f".{node.func.attr}({key!r})", node.lineno, key))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            found += [(f"dict({kw.arg}=)", node.lineno, kw.arg) for kw in node.keywords if kw.arg]
    return sorted(((form, line) for form, line, key in found if key not in (None, TAG)),
                  key=lambda form: (form[1], form[0]))


def test_io_names_record_keys_only_in_its_tables():
    assert record_forms(IO_SOURCE) == []
    keys = {key for _, fields, *_ in ROWS for key, *_ in fields}
    assert keys == {"alphas", "resources", "graph", "requests", "id", "sigma", "xis",
                    "directed", "vertices", "edges", "tail", "head", "weight_all", "weights",
                    "kind", "source", "target", "pairs", "terminals", "machines", "replies"}


def test_the_scan_sees_each_record_form():
    source = ("_TABLE = {'id': 1, 'sigma': obj['sigma']}\n"
              "def f(obj, key, tag):\n"
              "    a = obj['id']\n"
              "    b = obj.get('weights', {})\n"
              "    c = obj.pop('graph')\n"
              "    if 'weight_all' in obj or 'kind' not in obj:\n"
              "        pass\n"
              "    d = {'id': a, 'kind': b}\n"
              "    e = dict(tail=a, **obj)\n"
              "    g = obj[key], obj.get(key), key in obj, {key: a}\n"
              "    return {'type': tag, **d}, obj['type'], obj.get('type'), 'type' in obj\n")
    assert record_forms(source) == [
        ("['id']", 3), (".get('weights')", 4), (".pop('graph')", 5), ("'kind' in", 6),
        ("'weight_all' in", 6), ("{'id': }", 8), ("{'kind': }", 8), ("dict(tail=)", 9)]


def test_each_table_fills_every_attribute_of_its_model_once():
    for cls, fields, *_ in ROWS:
        assert sorted(attr for _, attr, *_ in fields) == sorted(
            f.name for f in dataclasses.fields(cls)), cls.__name__


def model_default(cls, attr):
    """The default of a dataclass attribute, or ``MISSING`` when it has none."""
    field = next(f for f in dataclasses.fields(cls) if f.name == attr)
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def default_mismatches(rows) -> list[tuple[str, str]]:
    """(class, attribute) of every optional key whose table default is not
    the model's default for the attribute it fills."""
    found = []
    for cls, fields, *_ in rows:
        for _, attr, _, _, default in fields:
            if default is io._REQUIRED:
                continue
            expected = model_default(cls, attr)
            if type(default) is not type(expected) or default != expected:
                found.append((cls.__name__, attr))
    return found


def test_each_optional_key_defaults_as_the_model_does():
    assert default_mismatches(ROWS) == []
    optional = {(cls, attr) for cls, fields, *_ in ROWS
                for _, attr, _, _, default in fields if default is not io._REQUIRED}
    assert optional == {(Request, "default_weight"), (Request, "weights"), (Instance, "graph")}


def test_the_default_check_sees_each_mismatch():
    rows = [io._record(Request, io._field("id", io._int),
                       io._field("weight_all", io._int, attr="default_weight", default=2),
                       io._field("weights", io._int, default=None),
                       io._field("kind", io._int, default=None)),
            io._record(Instance, io._field("graph", io._int, default=False))]
    assert default_mismatches(rows) == [("Request", "default_weight"), ("Request", "weights"),
                                        ("Request", "kind"), ("Instance", "graph")]
