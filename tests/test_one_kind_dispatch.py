"""One module knows the request kinds: ``oracles``.

``oracles._dispatch`` maps a request kind to its oracle, and
``oracles.Sweep`` owns the guides: it picks the routing searches among
its positions and builds their lower-bound trees.  The run loop builds a
sweep over its rows, answers each position with ``reply_oracle`` and
names no kind, no guide and no guide builder, so a new kind or a new way
to search one changes ``oracles`` alone; a kind test in the run loop
would be a second dispatch that could disagree with the first.
"""

import ast
from pathlib import Path

import gndes

PACKAGE = Path(gndes.__file__).resolve().parent

CALLERS = ("engine.py",)
KIND_NAMES = {"Routing", "MultiRouting", "SetConnectivity", "MachineChoice",
              "ExplicitReplies", "GRAPH_KINDS", "lower_bound_tree", "search_guides",
              "Guide"}


def kind_uses(path: Path) -> list[tuple[str, str, int]]:
    """(file, name, line) of every name, import, attribute or called
    attribute that is a request kind, the guide or a guide builder."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            continue
        uses += [(path.name, name, node.lineno) for name in names if name in KIND_NAMES]
    return sorted(uses)


def test_the_run_loop_names_no_request_kind():
    assert [use for name in CALLERS for use in kind_uses(PACKAGE / name)] == []


def test_the_scan_finds_every_kind_of_use(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .instance import Routing, GRAPH_KINDS as graph_kinds\n"
        "from .oracles import lower_bound_tree as tree, Guide\n"
        "from . import instance, oracles\n"
        "x = isinstance(kind, instance.MultiRouting)\n"
        "y = oracles.lower_bound_tree(graph, target, row)\n"
        "z = SetConnectivity, instance.MachineChoice, ExplicitReplies\n"
        "g: dict[str, oracles.Guide] = search_guides(instance, rows)\n", encoding="utf-8")
    assert kind_uses(source) == [
        ("sample.py", "ExplicitReplies", 6),
        ("sample.py", "GRAPH_KINDS", 1),
        ("sample.py", "Guide", 2),
        ("sample.py", "Guide", 7),
        ("sample.py", "MachineChoice", 6),
        ("sample.py", "MultiRouting", 4),
        ("sample.py", "Routing", 1),
        ("sample.py", "SetConnectivity", 6),
        ("sample.py", "lower_bound_tree", 2),
        ("sample.py", "lower_bound_tree", 5),
        ("sample.py", "search_guides", 7),
    ]
