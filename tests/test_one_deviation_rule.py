"""One deviation rule.

A player's share against everybody else's replies is formed in one place,
``analysis.ProfileState.share_query``: her query on a resource is its users,
with her joined to them when her reply does not hold it.  The dynamics'
tolls (``engine.PassView.tolls``) and the verification walks
(``ProfileState.player_cost``) both price deviations through it, so the
engine builds no share query of its own, and the module-level
``analysis.player_cost``, which rebuilt a profile per deviation, is gone.
"""

import ast
from pathlib import Path

import gndes
from gndes import analysis

PACKAGE = Path(gndes.__file__).resolve().parent


def query_builds(path: Path) -> list[tuple[str, int]]:
    """(file, line) of every call of ``ShareQuery``, by name or attribute."""
    builds = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ShareQuery":
                builds.append((path.name, node.lineno))
    return builds


def test_the_engine_builds_no_share_query():
    assert query_builds(PACKAGE / "engine.py") == []


def test_the_module_level_player_cost_is_gone():
    assert not hasattr(analysis, "player_cost")


def test_the_scan_finds_every_kind_of_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .sharing import ShareQuery\n"
        "a = ShareQuery(res, exp, users, target=1)\n"
        "b = sharing.ShareQuery(res, exp, users, target=1)\n"
        "c = isinstance(a, ShareQuery)\n", encoding="utf-8")
    assert query_builds(source) == [("sample.py", 2), ("sample.py", 3)]
