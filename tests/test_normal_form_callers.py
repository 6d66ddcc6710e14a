"""No library module reaches the Gram normal forms.

Every construction reads its witness off the code's own generator, so
no module of ``src/lcdkit`` other than ``normal_form`` imports
``normal_form``, and none names ``gf2.congruent_normal_form`` outside
its definition and ``normal_form``.  What still calls them is the
benchmark's trace hooks and their own tests; this guard goes when they
are deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcdkit"


def _normal_form_uses(source):
    """(line, what) for each import of normal_form and each name
    congruent_normal_form in source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import normal_form")
                      for alias in node.names
                      if "normal_form" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if ("normal_form" in (node.module or "").split(".")
                    or "normal_form" in names):
                found.append((node.lineno, "import normal_form"))
            if "congruent_normal_form" in names:
                found.append((node.lineno, "congruent_normal_form"))
        elif (isinstance(node, ast.Name)
              and node.id == "congruent_normal_form"
              or isinstance(node, ast.Attribute)
              and node.attr == "congruent_normal_form"):
            found.append((node.lineno, "congruent_normal_form"))
    return sorted(found)


def test_no_library_module_reaches_the_normal_forms():
    found = [(path.name, use)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "normal_form.py"
             for use in _normal_form_uses(path.read_text())]
    assert found == []


def test_guard_sees_every_form():
    source = ("from . import normal_form as nf\n"
              "from .normal_form import orthonormal_basis\n"
              "import lcdkit.normal_form\n"
              "from lcdkit import gf2, normal_form\n"
              "from .gf2 import congruent_normal_form\n"
              "def congruent_normal_form(rows):\n"
              "    return gf2.congruent_normal_form(rows)\n"
              "cnf = congruent_normal_form\n")
    assert _normal_form_uses(source) == [
        (1, "import normal_form"), (2, "import normal_form"),
        (3, "import normal_form"), (4, "import normal_form"),
        (5, "congruent_normal_form"), (7, "congruent_normal_form"),
        (8, "congruent_normal_form")]  # line 6, the definition, is none
