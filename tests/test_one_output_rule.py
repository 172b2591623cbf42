"""One output rule: ``io`` formats every number, CSV row, JSON document and
file the package writes.

``io.fmt`` prints a value (a real to 9 significant digits, ``None`` empty,
a bool ``true``/``false``, anything else by ``str``); ``io.report_text``,
``io.csv_text`` and ``io.json_text`` build reports, CSV and JSON on it, and
``io.write_text`` writes a file.  No other module of the package holds a
``.9g`` format, a ``"true"`` or ``"false"`` literal, a ``json.dump`` or
``json.dumps`` call, or an ``open`` for writing.

Only ``cli`` talks to the terminal: no other module imports ``logging`` or
``warnings``, calls ``print`` or names ``sys.stdout`` or ``sys.stderr``.  A
library call reports what it did through what it returns (a capped sampled
share is counted in the run's record, ``RunResult.sample_cap_hits``) or
refuses through a ``GndesError``.
"""

import ast
import json
import math
from pathlib import Path

import pytest

import gndes
from gndes import io
from gndes.bounds import TheoreticalBounds

PACKAGE = Path(gndes.__file__).resolve().parent

# "?" marks a mode that is not a literal
WRITE_MODES = frozenset("wax+?")


def _open_mode(call: ast.Call, at: int):
    """The mode of an ``open`` call whose mode is its positional argument
    ``at``: "r" when it has none, "?" when it is not a literal."""
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else "?"


def output_forms(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, form, line) of every output form that belongs to ``io``, in
    line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".9g" in node.value:
                found.append((filename, ".9g", node.lineno))
            if node.value in ("true", "false"):
                found.append((filename, repr(node.value), node.lineno))
        elif isinstance(node, ast.Call):
            method = isinstance(node.func, ast.Attribute)  # json.dump, Path.open
            name = node.func.attr if method else getattr(node.func, "id", None)
            if name in ("dump", "dumps"):
                found.append((filename, name, node.lineno))
            # open(path, mode) and Path.open(mode)
            elif name == "open" and WRITE_MODES & set(_open_mode(node, 0 if method else 1)):
                found.append((filename, "open for writing", node.lineno))
    return sorted(found, key=lambda form: form[2])


def test_only_io_holds_an_output_form():
    found = [form for path in sorted(PACKAGE.glob("*.py"))
             for form in output_forms(path.read_text(encoding="utf-8"), path.name)]
    assert [form for form in found if form[0] != "io.py"] == []
    assert {form[1] for form in found} == {".9g", "'true'", "'false'", "dumps",
                                           "open for writing"}


def test_the_scan_sees_each_forbidden_form():
    source = ("import json\n"
              "def f(x, fh, path):\n"
              "    a = format(x, '.9g')\n"
              "    b = f'{x:.9g}'\n"
              "    c = 'true' if x else 'false'\n"
              "    json.dump(x, fh)\n"
              "    d = json.dumps(x)\n"
              "    with open(path, 'w') as out:\n"
              "        pass\n"
              "    with open(path, mode='a', encoding='utf-8') as out:\n"
              "        pass\n"
              "    with path.open('x+') as out:\n"
              "        pass\n"
              "    with open(path) as fh, open(path, 'rb') as raw:\n"
              "        pass\n")
    assert output_forms(source, "m.py") == [
        ("m.py", ".9g", 3), ("m.py", ".9g", 4), ("m.py", "'true'", 5), ("m.py", "'false'", 5),
        ("m.py", "dump", 6), ("m.py", "dumps", 7), ("m.py", "open for writing", 8),
        ("m.py", "open for writing", 10), ("m.py", "open for writing", 12)]


STREAM_MODULES = frozenset({"logging", "warnings"})
STREAMS = frozenset({"stdout", "stderr"})


def stream_forms(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, form, line) of every form that reaches the terminal itself
    (an import of ``logging`` or ``warnings``, a ``print`` call, a
    ``sys.stdout`` or ``sys.stderr``), in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(filename, f"import {alias.name.split('.')[0]}", node.lineno)
                      for alias in node.names if alias.name.split(".")[0] in STREAM_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top in STREAM_MODULES:
                found.append((filename, f"import {top}", node.lineno))
            elif top == "sys":
                found += [(filename, f"sys.{alias.name}", node.lineno)
                          for alias in node.names if alias.name in STREAMS]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            found.append((filename, "print", node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and getattr(node.value, "id", None) == "sys"):
            found.append((filename, f"sys.{node.attr}", node.lineno))
    return sorted(found, key=lambda form: form[2])


def test_only_cli_talks_to_the_terminal():
    found = [form for path in sorted(PACKAGE.glob("*.py"))
             for form in stream_forms(path.read_text(encoding="utf-8"), path.name)]
    assert [form for form in found if form[0] != "cli.py"] == []
    assert {form[1] for form in found} == {"print", "sys.stdout", "sys.stderr"}


def test_the_scan_sees_each_terminal_form():
    source = ("import logging\n"
              "import logging.handlers, os\n"
              "from logging import getLogger\n"
              "import warnings as w\n"
              "from warnings import warn\n"
              "from sys import stderr, argv\n"
              "import sys\n"
              "def f(x):\n"
              "    print(x)\n"
              "    sys.stdout.write(x)\n"
              "    out = sys.stderr\n"
              "    x.print(x)\n"
              "    return sys.argv, sys.float_info\n")
    assert stream_forms(source, "m.py") == [
        ("m.py", "import logging", 1), ("m.py", "import logging", 2),
        ("m.py", "import logging", 3), ("m.py", "import warnings", 4),
        ("m.py", "import warnings", 5), ("m.py", "sys.stderr", 6), ("m.py", "print", 9),
        ("m.py", "sys.stdout", 10), ("m.py", "sys.stderr", 11)]


class TestFmt:
    @pytest.mark.parametrize("value, text", [
        (None, ""), (True, "true"), (False, "false"), (0.1 + 0.2, "0.3"),
        (1 / 3, "0.333333333"), (2.0, "2"), (1e300, "1e+300"), (-math.inf, "-inf"),
        (12_345_678_901, "12345678901"), ("shapley-exact", "shapley-exact"),
    ])
    def test_one_value(self, value, text):
        assert io.fmt(value) == text

    def test_a_csv_document(self):
        assert io.csv_text("a,b,c", [(1, None, True), ("x", 0.5, False)]) == (
            "a,b,c\n1,,true\nx,0.5,false\n")
        assert io.csv_text("a", []) == "a\n"

    def test_a_report(self):
        assert io.report_text("title", [("key", 1 / 3), ("a much longer label ", "x")], 6) == (
            "title\n  key   0.333333333\n  a much longer label x\n")

    def test_a_json_document(self):
        doc = {"b": [1, 2.5], "a": None}
        assert io.json_text(doc) == json.dumps(doc, indent=2) + "\n"

    def test_a_file_is_utf8_with_lf_endings(self, tmp_path):
        path = tmp_path / "out.txt"
        io.write_text(str(path), "λ\nμ\n")
        assert path.read_bytes() == "λ\nμ\n".encode("utf-8")


def test_the_guarantee_is_listed_once_in_field_order():
    b = TheoreticalBounds(*(float(k) for k in range(1, 12)))
    names = [name for name, _ in b.named()]
    assert names == ["epsilon1", "gamma_alpha", "lambda_alpha", "lambda", "mu", "A", "B", "Q",
                     "T", "ratio_bound", "rho"]
    assert b.labelled(T="T (step budget)")[:2] == [("rho", 11.0), ("epsilon1", 1.0)]
    assert b.labelled(T="T (step budget)")[9] == ("T (step budget)", 9.0)
