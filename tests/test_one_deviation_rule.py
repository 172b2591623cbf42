"""One deviation rule.

A player's share against everybody else's replies is formed in one place,
``analysis.ProfileState.share_query``: her query on a resource is its users,
with her joined to them when her reply does not hold it.  The dynamics'
tolls (``engine.PassView.tolls``) and the verification walks
(``ProfileState.player_cost``) both price deviations through it, so the
engine builds no share query of its own, and the module-level
``analysis.player_cost``, which rebuilt a profile per deviation, is gone.
A round of FPL is a toll pass of the proportional game, so ``fpl`` groups
no loads and prices no cost but the one that scales the instance.
"""

import ast
from pathlib import Path

import gndes
from gndes import analysis

PACKAGE = Path(gndes.__file__).resolve().parent


def calls(path: Path, callee: str, outside: str = "") -> list[tuple[str, int]]:
    """(file, line) of every call of ``callee``, by name or attribute, that
    does not lie in the module-level function named ``outside``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef) and top.name == outside:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append((path.name, node.lineno))
    return found


def test_the_engine_builds_no_share_query():
    assert calls(PACKAGE / "engine.py", "ShareQuery") == []


def test_fpl_prices_its_rounds_with_the_toll_pass():
    fpl = PACKAGE / "fpl.py"
    assert calls(fpl, "load_vector") == []
    assert calls(fpl, "rep_cost", outside="normalize_costs") == []
    # the scan does see the one pricing that scales the instance
    assert len(calls(fpl, "rep_cost")) == 1


def test_the_module_level_player_cost_is_gone():
    assert not hasattr(analysis, "player_cost")


def test_the_scan_finds_every_kind_of_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .sharing import ShareQuery\n"
        "a = ShareQuery(res, exp, users, target=1)\n"
        "b = sharing.ShareQuery(res, exp, users, target=1)\n"
        "c = isinstance(a, ShareQuery)\n", encoding="utf-8")
    assert calls(source, "ShareQuery") == [("sample.py", 2), ("sample.py", 3)]


def test_the_scan_skips_only_the_named_function(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def normalize_costs(i):\n"
        "    return rep_cost(r, e, 1)\n"
        "def row(i):\n"
        "    return instance.rep_cost(r, e, 2) + [load_vector(i, p) for p in ps][0]\n"
        "class View:\n"
        "    def normalize_costs(self):\n"
        "        return rep_cost(r, e, 3)\n"
        "x = rep_cost(r, e, 4)\n", encoding="utf-8")
    assert calls(source, "rep_cost", outside="normalize_costs") == [
        ("sample.py", 4), ("sample.py", 7), ("sample.py", 8)]
    assert calls(source, "load_vector") == [("sample.py", 4)]
