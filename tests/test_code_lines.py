"""The code-line counter (``tools/code_lines.py``) skips exactly blank,
comment and docstring lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_only_code_lines_count():
    source = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        no docstring"""
        return (math.pi,
                text)
'''
    # import, class, def, the two lines of text and of the return
    assert code_lines.code_lines(source) == 7


def test_every_module_of_the_package_is_listed(capsys):
    package = Path(__file__).resolve().parent.parent / "src" / "gndes"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        *sorted(path.name for path in package.glob("*.py")), "total"]
    assert int(lines[-1].split()[1]) == sum(int(line.split()[1]) for line in lines[:-1])
