"""One stream rule: every random draw comes from a stream that ``rng`` keys.

``rng.keyed_rng(seed, tag, ...)`` is the one source of randomness.  Each
call site names its stream by a string-literal tag as the second argument,
and no two call sites share a tag, so two kinds of draw never read the same
stream.  No module but ``rng.py`` calls into ``numpy.random`` or ``random``;
an annotation such as ``np.random.Generator`` is not a call and stays
allowed.
"""

import ast
from collections import Counter
from pathlib import Path

import gndes

PACKAGE = Path(gndes.__file__).resolve().parent

RANDOM_MODULES = ("numpy.random", "random")


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _in_random_module(name: str) -> bool:
    return any(name == module or name.startswith(module + ".") for module in RANDOM_MODULES)


def stream_tags(source: str, filename: str) -> list[tuple[str, object, int]]:
    """(file, tag, line) of every ``keyed_rng`` call, in line order; the tag
    is None where the second argument is not a string literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (_dotted(node.func) or "").split(".")[-1] == "keyed_rng":
            tag = node.args[1] if len(node.args) > 1 else None
            literal = isinstance(tag, ast.Constant) and isinstance(tag.value, str)
            found.append((filename, tag.value if literal else None, node.lineno))
    return sorted(found, key=lambda site: site[2])


def shared_tags(sites) -> list[str]:
    """The tags that more than one call site names."""
    counts = Counter(tag for _, tag, _ in sites if tag is not None)
    return sorted(tag for tag, count in counts.items() if count > 1)


def random_uses(source: str, filename: str) -> list[tuple[str, str, int]]:
    """(file, name, line) of every import of ``numpy.random`` or ``random``
    and every call into them, in line order; names are resolved through the
    module's import aliases, so ``np.random.default_rng`` reads
    ``numpy.random.default_rng``."""
    tree = ast.parse(source)
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a, "import a.b as c" binds c to a.b
                name = alias.name if alias.asname else alias.name.partition(".")[0]
                aliases[alias.asname or name] = name
                if _in_random_module(alias.name):
                    found.append((filename, f"import {alias.name}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = full
                if _in_random_module(full):
                    found.append((filename, f"from {node.module} import {alias.name}",
                                  node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            resolved = ".".join(filter(None, (aliases.get(head, head), rest)))
            if head in aliases and _in_random_module(resolved):
                found.append((filename, resolved, node.lineno))
    return sorted(found, key=lambda use: use[2])


def _package_sources():
    return [(path.name, path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]


def test_each_stream_has_a_literal_tag_of_its_own():
    sites = [site for name, source in _package_sources() for site in stream_tags(source, name)]
    assert [site for site in sites if site[1] is None] == []
    assert shared_tags(sites) == []
    assert sorted(tag for _, tag, _ in sites) == ["fpl", "output", "select", "share",
                                                  "smoothness"]


def test_only_rng_draws_from_a_random_module():
    uses = [use for name, source in _package_sources() for use in random_uses(source, name)]
    assert [use for use in uses if use[0] != "rng.py"] == []
    # the scan sees the stream that rng builds
    assert {use[1] for use in uses} == {"numpy.random.SeedSequence", "numpy.random.Generator",
                                        "numpy.random.PCG64"}


def test_the_scan_sees_each_violation():
    source = ("import random\n"
              "import numpy as np\n"
              "from numpy.random import default_rng\n"
              "from numpy import random as npr\n"
              "from .rng import keyed_rng\n"
              "from . import rng\n"
              "def f(seed, step, g: np.random.Generator) -> np.random.Generator:\n"
              "    a = keyed_rng(seed, step)\n"
              "    b = keyed_rng(seed)\n"
              "    c = keyed_rng(seed, 'share', step)\n"
              "    d = rng.keyed_rng(seed, 'share')\n"
              "    e = np.random.default_rng(seed)\n"
              "    h = random.random()\n"
              "    k = default_rng(seed)\n"
              "    m = npr.permutation(3)\n"
              "    n = isinstance(g, np.random.Generator) and g.integers(3)\n"
              "    return keyed_rng(seed, 'select')\n")
    sites = stream_tags(source, "m.py")
    assert sites == [("m.py", None, 8), ("m.py", None, 9), ("m.py", "share", 10),
                     ("m.py", "share", 11), ("m.py", "select", 17)]
    assert shared_tags(sites) == ["share"]
    assert random_uses(source, "m.py") == [
        ("m.py", "import random", 1), ("m.py", "from numpy.random import default_rng", 3),
        ("m.py", "from numpy import random", 4), ("m.py", "numpy.random.default_rng", 12),
        ("m.py", "random.random", 13), ("m.py", "numpy.random.default_rng", 14),
        ("m.py", "numpy.random.permutation", 15)]
