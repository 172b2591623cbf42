"""One report rule: each command's report is one list of facts.

A fact is a (JSON key, text label, value) triple.  ``io.facts_doc`` keeps
the facts that have a key as the JSON document and ``io.facts_text`` prints
the facts that have a label as the text report, each in list order, so a
fact with both is written once and prints as the ``fmt`` of its JSON value.
``cli._emit`` prints one projection or the other.  So no module but ``io``
calls ``json_text`` or ``report_text``, ``cli._emit`` aside, and no command
hands ``_emit`` a dict display of its own.

Every ``--json`` document is strict JSON: ``io.json_text`` refuses a nan or
an infinity instead of printing ``NaN`` or ``Infinity``.
"""

import ast
import json
import math
from pathlib import Path

import pytest

import gndes
from gndes import cli, io
from gndes.analysis import poa_lower_bound_instance
from gndes.io import fmt, instance_to_text

from helpers import seeded_case
from test_golden import GUARANTEE_INSTANCES

PACKAGE = Path(gndes.__file__).resolve().parent

PROJECTIONS = frozenset({"json_text", "report_text"})


def _name(func) -> str | None:
    """The name a call spells: ``f`` for ``f(...)`` and ``m.f(...)``."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _dict_display(node) -> bool:
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and _name(node.func) == "dict")


def report_forms(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, form, line) of every report form that belongs to ``io`` or
    ``cli._emit``, in line order: a ``json_text`` or ``report_text`` call
    outside ``io.py`` and the ``_emit`` of ``cli.py``, and an ``_emit`` call
    that passes a dict display (``{...}``, a dict comprehension or
    ``dict(...)``) as an argument."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = _name(node.func)
            allowed = filename == "io.py" or (filename, function) == ("cli.py", "_emit")
            if name in PROJECTIONS and not allowed:
                found.append((filename, name, node.lineno))
            if name == "_emit" and any(map(_dict_display, [*node.args,
                                                           *(kw.value for kw in node.keywords)])):
                found.append((filename, "dict display to _emit", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda form: form[2])


def test_only_io_and_emit_project_a_report():
    found = [form for path in sorted(PACKAGE.glob("*.py"))
             for form in report_forms(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_scan_sees_each_report_form():
    source = ("from gndes import io\n"
              "def f(doc, rows):\n"
              "    return json_text(doc) + io.report_text('t', rows, 4)\n"
              "def _emit(args, title, width, facts):\n"
              "    return json_text(facts)\n"
              "def _cmd_a(args, instance):\n"
              "    _emit(args, {'cost': 1}, 'text')\n"
              "    _emit(args, dict(cost=1), 'text')\n"
              "    _emit(args, {k: v for k, v in instance}, 'text')\n"
              "    _emit(args, 't', 4, facts={'cost': 1})\n"
              "    _emit(args, 't', 4, [('bounds', None, {'rho': 1})])\n"
              "    return facts_text('t', 4, []), facts_doc([])\n")
    assert report_forms(source, "m.py") == [
        ("m.py", "json_text", 3), ("m.py", "report_text", 3), ("m.py", "json_text", 5),
        ("m.py", "dict display to _emit", 7), ("m.py", "dict display to _emit", 8),
        ("m.py", "dict display to _emit", 9), ("m.py", "dict display to _emit", 10)]
    # cli's _emit is the one place outside io that projects a report
    assert [form for _, form, _ in report_forms(source, "cli.py")] == [
        "json_text", "report_text", *["dict display to _emit"] * 4]
    assert report_forms(source, "io.py") == [
        ("io.py", "dict display to _emit", line) for line in (7, 8, 9, 10)]


def test_the_projections_split_one_fact_list():
    facts = [("a", "a", 1.0 / 3), (None, "note: ", "x"), ("json_only", None, [1, 2]),
             ("b", "a much longer label ", None), ("c", "c", True)]
    assert io.facts_doc(facts) == {"a": 1.0 / 3, "json_only": [1, 2], "b": None, "c": True}
    assert io.facts_text("title", 6, facts) == (
        "title\n  a     0.333333333\n  note: x\n"
        "  a much longer label \n  c     true\n")


# ---------------------------------------------------------------------------
# each printed fact with a key and a label reads the same in both outputs
# ---------------------------------------------------------------------------

def _strict(constant):
    raise ValueError(f"not strict JSON: {constant}")


def strict_json(text: str):
    """``text`` parsed as strict JSON: ``NaN``, ``Infinity`` and
    ``-Infinity`` are refused."""
    return json.loads(text, parse_constant=_strict)


def mismatches(width: int, facts, text: str, doc: dict) -> list[str]:
    """The keys of the facts that have a key and a label whose line in the
    text report ``text`` is not the label, padded to ``width``, followed by
    ``fmt`` of the key's value in the parsed JSON document ``doc``."""
    lines = text.splitlines()[1:]
    return [key for key, label, _ in facts if key is not None and label is not None
            and f"  {label:<{width}}{fmt(doc[key])}" not in lines]


def test_the_fact_check_sees_a_mismatch():
    facts = [("cost", "cost", 2.0), ("mu", "mu", 0.5), ("rounds", None, 3)]
    text = "report\n  cost  2\n  mu    0.25\n"
    assert mismatches(6, facts, text, {"cost": 2.0, "mu": 0.5, "rounds": 3}) == ["mu"]
    assert mismatches(6, facts, text, {"cost": 2.5, "mu": 0.25, "rounds": 3}) == ["cost"]


# twelve machine-choice players on two machines whose weight sums all differ,
# so the sampled Shapley mechanism samples their shares
SAMPLED_MACHINES = json.dumps({
    "alphas": [1.5],
    "resources": [{"id": m, "sigma": 1.0, "xis": [1.0]} for m in ("m1", "m2")],
    "requests": [{"id": i, "weight_all": 100_000 + 7 * 2 ** i,
                  "kind": {"type": "machine_choice", "machines": ["m1", "m2"]}}
                 for i in range(1, 13)]})

POA = instance_to_text(poa_lower_bound_instance(4.0, 1.0, 2.0))

COMMANDS = {
    "poa": (POA, [
        ["solve", "--brute"],
        ["solve", "--csm", "proportional", "--selection", "rand", "--output", "last"],
        ["brute"], ["nash"], ["smooth", "--pairs", "30"], ["fpl", "--rounds", "20"],
        ["fpl", "--rounds", "5", "--lb", "2.5"], ["bounds"]]),
    # fpl runs on routing instances only
    "sampled machines": (SAMPLED_MACHINES, [
        ["solve", "--csm", "shapley-sampled", "--epsilon", "0.15", "--max-steps", "3",
         "--brute"],
        ["brute"], ["nash", "--csm", "proportional"], ["smooth", "--pairs", "30"],
        ["bounds", "--epsilon", "0.05"]]),
}


def run_command(tmp_path, capsys, text: str, command: list[str]):
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main([command[0], "--instance", str(path), *command[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", [
    pytest.param((case, command), id=f"{case}: {' '.join(command)}")
    for case, (_, commands) in COMMANDS.items() for command in commands])
def test_a_fact_prints_its_json_value(command, tmp_path, capsys, monkeypatch):
    case, command = command
    emitted = []
    emit = cli._emit

    def recording_emit(args, title, width, facts):
        emitted.append((width, facts))
        emit(args, title, width, facts)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    text_code, text, _ = run_command(tmp_path, capsys, COMMANDS[case][0], command)
    json_code, doc, _ = run_command(tmp_path, capsys, COMMANDS[case][0], [*command, "--json"])
    assert text_code in (0, 1) and json_code == text_code
    (width, facts), _ = emitted
    both = [key for key, label, _ in facts if key is not None and label is not None]
    assert both, "the report shares no fact between its outputs"
    assert mismatches(width, facts, text, strict_json(doc)) == []
    if command[:3] == ["solve", "--csm", "shapley-sampled"]:
        assert strict_json(doc)["sampled_shares"] > 0


# ---------------------------------------------------------------------------
# strict JSON
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_a_non_finite_number(value):
    with pytest.raises(ValueError):
        io.json_text({"ratio": value})
    with pytest.raises(ValueError):
        io.json_text({"nested": [1.0, {"cost": value}]})


def test_the_strict_parser_refuses_what_json_dumps_allows():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            strict_json(json.dumps({"ratio": value}))


GOLDEN_INSTANCES = {
    **{case: instance_to_text(seeded_case(case)[0])
       for case in ("routing", "steiner", "explicit", "fpl")},
    "machines": json.dumps(GUARANTEE_INSTANCES["machines, rho 1"]),
    "poa": instance_to_text(poa_lower_bound_instance(4.0, 1.0, 2.0, q=2)),
}

JSON_COMMANDS = [["solve", "--max-steps", "4"], ["solve", "--brute"], ["brute"], ["nash"],
                 ["smooth", "--pairs", "30"], ["fpl", "--rounds", "3"], ["bounds"]]


@pytest.mark.parametrize("case", sorted(GOLDEN_INSTANCES))
def test_every_json_document_is_strict(case, tmp_path, capsys):
    parsed = 0
    for command in JSON_COMMANDS:
        code, out, err = run_command(tmp_path, capsys, GOLDEN_INSTANCES[case],
                                     [*command, "--json"])
        if code in (0, 1):
            assert isinstance(strict_json(out), dict), command
            parsed += 1
        else:
            # a refused command prints no document
            assert code in (2, 3, 4) and out == "" and err, command
    assert parsed >= 2
