"""No public lcdkit name, and no record field, that nothing but the
tests reaches.

Every public function, class and method defined in ``src/lcdkit`` must
be named somewhere in ``src/lcdkit`` outside its own definition, or in
``perfbench/``, unless ``ALLOWED`` lists it with the reason it stays.
Names are matched by identifier, so a method counts as reached when any
attribute of that name is read; the check errs towards passing.  In
``perfbench/`` a name counts only as code: a name, an attribute, an
imported name, or a part of a string constant that is a dotted
identifier (the hook targets), never a word of a comment or docstring.

Every annotated field of a ``@dataclass`` or ``NamedTuple`` class must
be read as an attribute (``.name``) somewhere in ``src/lcdkit``, its own
class's methods included, or in ``perfbench/``, under the same
``ALLOWED`` rule.  A field only tests read is data its producer computes
for no one.

Every module-level UPPER_CASE constant of ``src/lcdkit`` must be read
(loaded by name or attribute) somewhere in ``src/lcdkit``, or named in
``perfbench/``, under the same ``ALLOWED`` rule: a knob that nothing
reads tunes nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lcdkit"
PERFBENCH = ROOT / "perfbench"

# qualified name -> why it stays although only tests call it
ALLOWED = {
    "codes.LinearCode.dual":
        "the dual code C⊥ of the documented code API; the hull and "
        "acceptance tests check hulls and duality against it",
    "expansion.expansion_indices":
        "the extension-field parameters of the paper's lower bound on "
        "d_LCD(n, k) by expanded codes",
}


def _public_defs():
    """Qualified name -> bare name of each public def in src/lcdkit."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and \
                            not m.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{m.name}"] = m.name
    return defs


def _names_used_in_src():
    """Identifiers src/lcdkit reads, each outside the def of that name."""
    used = set()

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            else:
                name = None
            if name is not None and name not in enclosing:
                used.add(name)
            walk(child, enclosing)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), frozenset())
    return used


def _names_in_perfbench():
    # perfbench names its hook targets in strings such as
    # "LinearCode.min_distance", so those count part by part
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    re.fullmatch(r"[\w.]+", node.value):
                names.update(node.value.split("."))
    return names


def _unreached():
    reached = _names_used_in_src() | _names_in_perfbench()
    return {q for q, name in _public_defs().items() if name not in reached}


def _is_record(node):
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators) or \
        any(isinstance(b, ast.Name) and b.id == "NamedTuple"
            for b in node.bases)


def _record_fields():
    """Qualified name -> field name of each dataclass/NamedTuple field."""
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or not _is_record(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    fields[f"{path.stem}.{node.name}.{stmt.target.id}"] = \
                        stmt.target.id
    return fields


def _attributes_read(paths):
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread_fields():
    read = _attributes_read(SRC.glob("*.py")) | \
        _attributes_read(PERFBENCH.glob("*.py"))
    return {q for q, name in _record_fields().items() if name not in read}


def _constants():
    """Qualified name -> name of each module-level UPPER_CASE constant."""
    consts = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for t in targets:
                if isinstance(t, ast.Name) and \
                        re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id):
                    consts[f"{path.stem}.{t.id}"] = t.id
    return consts


def _names_loaded_in_src():
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _unread_constants():
    read = _names_loaded_in_src() | _names_in_perfbench()
    return {q for q, name in _constants().items() if name not in read}


def test_no_unreached_public_name():
    extra = sorted(_unreached() - ALLOWED.keys())
    assert not extra, (
        "public names only tests reach; use, delete or allow them: "
        f"{extra}")


def test_no_unread_field():
    extra = sorted(_unread_fields() - ALLOWED.keys())
    assert not extra, (
        "record fields only tests read; use, delete or allow them: "
        f"{extra}")


def test_no_unread_constant():
    extra = sorted(_unread_constants() - ALLOWED.keys())
    assert not extra, (
        "module constants nothing reads; use, delete or allow them: "
        f"{extra}")


def test_allowlist_is_current():
    # an allowed name that is gone, or now reached, leaves the list
    stale = sorted(ALLOWED.keys() - _unreached() - _unread_fields()
                   - _unread_constants())
    assert not stale, f"stale ALLOWED entries: {stale}"
