"""One call derives a run's guarantee.

``bounds.theoretical_bounds(instance, mechanism, epsilon)`` works out the
oracle ratio rho and the expansion constants itself, and
``bounds.smoothness_constants(instance, mechanism)`` gives the exact game's
(lambda, mu) from the same formula.  So the run loop and the command line
name none of the parts a guarantee is built from; a caller that assembled
one from parts could report constants that ``solve`` never met.
"""

import ast
from pathlib import Path

import gndes

PACKAGE = Path(gndes.__file__).resolve().parent

CALLERS = ("engine.py", "cli.py")
PARTS = {"rep_expansion_constants", "gamma_alpha", "lambda_alpha", "oracle_rho"}


def part_uses(path: Path) -> list[tuple[str, str, int]]:
    """(file, name, line) of every name, import or called attribute that is
    a part.  Reading a ``TheoreticalBounds`` field of the same name (the
    reports print ``b.gamma_alpha``) is not a use."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            names = [node.func.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            continue
        uses += [(path.name, name, node.lineno) for name in names if name in PARTS]
    return sorted(uses)


def test_run_loop_and_command_line_name_no_part_of_a_guarantee():
    assert [use for name in CALLERS for use in part_uses(PACKAGE / name)] == []


def test_the_scan_finds_every_kind_of_use(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .sharing import rep_expansion_constants as constants\n"
        "from . import bounds\n"
        "x = bounds.gamma_alpha(instance)\n"
        "y = oracle_rho(instance, request)\n"
        "z = b.gamma_alpha + b.lambda_alpha\n", encoding="utf-8")
    assert part_uses(source) == [
        ("sample.py", "gamma_alpha", 3),
        ("sample.py", "oracle_rho", 4),
        ("sample.py", "rep_expansion_constants", 1),
    ]
