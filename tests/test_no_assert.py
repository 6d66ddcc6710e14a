"""lcdkit keeps its checks under ``python -O``.

``-O`` strips ``assert`` statements, so a check written as one would
vanish there: every invariant in ``src/lcdkit/*.py`` raises explicitly,
and no ``assert`` statement appears anywhere in those files.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcdkit"


def _assert_lines(source):
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_no_assert_statement():
    found = sorted((path.name, line)
                   for path in SRC.glob("*.py")
                   for line in _assert_lines(path.read_text()))
    assert found == []


def test_guard_sees_nested_asserts():
    source = ("x = 1\n"
              "class A:\n"
              "    def f(self):\n"
              "        if x:\n"
              "            assert x, 'message'\n"
              "# assert in a comment\n"
              "s = 'assert x'\n")
    assert _assert_lines(source) == [5]
    assert len(list(SRC.glob("*.py"))) > 5
