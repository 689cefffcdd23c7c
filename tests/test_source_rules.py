"""Static rules on the library source.

Every failure in the library is a typed `AviboundError` (or a built-in such
as `ValueError` for malformed arguments).  An `assert` vanishes under
`python -O`, and a broad `except` swallows real bugs, so neither may appear
in `src/avibound`.  Every field of `Caps` and `Tolerances` must be read
somewhere in `src/avibound`, so no dead knob survives its last reader.  Every
name a module lists in `__all__` must be bound in that module, so no export
outlives the code it named.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from avibound.config import Caps, Tolerances

SRC = Path(__file__).resolve().parent.parent / "src" / "avibound"
MODULES = sorted(SRC.glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None:
                yield node.lineno, "bare except"
            elif any(isinstance(n, ast.Name) and n.id in BROAD for n in names):
                yield node.lineno, "broad except"


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_broad_except(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line}: {what}" for line, what in _violations(tree)]
    assert not found, found


def test_rules_catch_each_form():
    source = (
        "assert x\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    kinds = [what for _, what in _violations(ast.parse(source))]
    assert kinds == ["assert statement", "bare except", "broad except", "broad except"]


def _attributes_read(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("cls", [Caps, Tolerances], ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    read = set()
    for path in MODULES:
        read |= _attributes_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{cls.__name__} fields never read in src/avibound: {unread}"


def test_attribute_scan_ignores_stores():
    tree = ast.parse("caps.row_cap\ncaps.dim_cap = 3\nf(caps.subset_budget)\n")
    assert _attributes_read(tree) == {"row_cap", "subset_budget"}


def test_one_factorization_name():
    # every simplex factorization goes through optkernel.lu_factor, which
    # the benchmark counts by patching that one name
    imported = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = {alias.name for alias in node.names}
                imported += [f"{path.name}: {n}" for n in names & {"lu_factor", "lu_solve"}]
    assert not imported, imported


def _stale_exports(tree):
    """Names listed in a module's `__all__` that its top level never binds."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_exists(path):
    stale = _stale_exports(ast.parse(path.read_text(encoding="utf-8")))
    assert not stale, f"{path.name}: __all__ names nothing bound: {stale}"


def test_export_rule_catches_stale_name():
    source = (
        "import numpy as np\n"
        "from .sets import box\n"
        "LIMIT: int = 3\n"
        "def f():\n    pass\n"
        "class C:\n    pass\n"
        "__all__ = ['np', 'box', 'LIMIT', 'f', 'C', 'Removed']\n"
    )
    assert _stale_exports(ast.parse(source)) == ["Removed"]
