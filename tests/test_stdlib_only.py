"""lcdkit imports nothing outside the standard library.

Other packages (numpy among them) may be installed where the tests run,
but lcdkit does not depend on them: every ``import`` in
``src/lcdkit/*.py`` must name a standard-library module or lcdkit.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcdkit"


def _top_level_modules(source):
    """The top-level module of each absolute import in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_standard_library_only():
    outside = sorted(
        (path.name, mod)
        for path in SRC.glob("*.py")
        for mod in _top_level_modules(path.read_text())
        if mod != "lcdkit" and mod not in sys.stdlib_module_names)
    assert outside == []


def test_guard_sees_every_import_form():
    source = ("import numpy as np\n"
              "import os.path, scipy.linalg\n"
              "from pytest import raises\n"
              "from . import gf2\n"
              "def f():\n"
              "    from lcdkit.codes import LinearCode\n")
    assert list(_top_level_modules(source)) == [
        "numpy", "os", "scipy", "pytest", "lcdkit"]
    assert len(list(SRC.glob("*.py"))) > 5
