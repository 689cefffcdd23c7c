"""Static rules on the library source.

Every failure in the library is a typed `AviboundError` (or a built-in such
as `ValueError` for malformed arguments).  An `assert` vanishes under
`python -O`, and a broad `except` swallows real bugs, so neither may appear
in `src/avibound`.  Every field of the config objects `SolverConfig`,
`LipschitzCheckConfig` and `SectionSamplerConfig` must be read somewhere in
`src/avibound`, so no dead knob survives its last reader.  Every
name a module lists in `__all__` must be bound in that module, so no export
outlives the code it named.  Every public function, method and class in
`src/avibound` must be referenced by name somewhere in `src/`, `tests/` or
`scripts/`, and every module-level private function, class and constant
must be read there, so no dead code outlives its last caller.  A public
definition that nothing in `src/`, `scripts/` or `perfbench/` references,
only tests, must be listed in `TEST_ONLY`, which must name exactly those,
so no public name lives on for its tests alone unnoticed.  No function in
`src/avibound` imports: every import sits at the top of its module, where
the layering between modules shows.  Every flag a CLI subcommand defines
must be read by that subcommand's handler, so no option is parsed and
then ignored.  Every name a module of `src/avibound` imports at its top
level must be read in that module or listed in its `__all__`, so no import
outlives the code that used it.  Every `raise CapExceeded` sits in a routine
that counts the work its budget bounds, so no proxy cap (on a dimension or
a row count) comes back at a call site.  Every parameter of every function
and lambda in `src/avibound`, except `self` and `cls`, must be read in its
body, so a `tol` that a routine takes and no longer passes on (a dead
pass-through left behind when the solves below it stopped taking one)
fails here.  The layers below the verdicts, `sets`, `optkernel` and
`polyhedra`, import nothing from `ratios`, where the comparison slack
`CMP_TOL` lives: each owns its slack as a constant (`optkernel.FEAS_TOL`,
`polyhedra.GEOM_TOL`), so the comparison slack cannot leak back into the
geometry or the kernel.  Only `sets` and `optkernel` read or write a
`._cache` attribute, so each entry of a set's cache (the box bounds, the
phase-one point, the stacked projection rows, the kept optimal cells) has
one owner that decides when it is filled and what it may be trusted for.
Each entry has one writing routine, listed in `CACHE_WRITERS` (only
`feasible_witness` writes the phase-one entry, so a set's phase-one point
is always the one its own phase one found), and no other entry is
written.  Only `optkernel` calls `.box_bounds()`, where `feasible_witness`
reads a box's emptiness and point off it, so no other module grows its own
box rule.  Only `optkernel` imports from `scipy.linalg`, where the LAPACK
routines are bound once (`lu_factor`, `lu_solve`, the Gram solve), so no
other module calls a scipy wrapper whose checks and bits may differ.  Arrays are
validated where they enter the program: only the public constructors and
the public functions listed in `VALIDATORS` call `_as_vector` or
`_as_matrix`, each as often as listed, so no validation pass comes back
inside the program, and the hot path's one call sits in `sets._screened`,
under the screen of the vectors it takes as handed.  No module of
`src/avibound` names `lstsq`, and `solve_projection_qp` calls
`feasible_witness` only on its box path and where the dual loop finds no
row to drop: the loop keeps its working rows independent and asks phase
one only for a verdict on emptiness, so neither a least-squares fallback
nor a phase-one start comes back into the projection.  The routines that run once per projection or
once per iterate, listed in `HOT_ROUTINES`, write no `@`: their vector
products are `ndarray.dot` calls, which give the same bits at about half
the dispatch cost, so no `@` creeps back onto the hot path.  Only
`sets._screened` reads `flags.c_contiguous`: the hot path screens the
vectors it takes as handed in that one routine, so no inline copy of the
screen comes back.  Every routine that calls `lu_factor` is listed in
`LU_FACTORIZERS` with its number of calls: the simplex factors each basis
in `_bland_iterate` and hands the factors on, so no read-off of a point or
of duals factors a basis again.
"""

import argparse
import ast
import collections
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from avibound import cli
from avibound.bounds import LipschitzCheckConfig
from avibound.gpm import SectionSamplerConfig
from avibound.solvers import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "avibound"
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


@pytest.mark.parametrize("cls", [SolverConfig, LipschitzCheckConfig, SectionSamplerConfig],
                         ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    read = set()
    for path in MODULES:
        read |= _attributes_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{cls.__name__} fields never read in src/avibound: {unread}"


def test_attribute_scan_ignores_stores():
    tree = ast.parse("cfg.step\ncfg.method = 3\nf(cfg.x0)\n")
    assert _attributes_read(tree) == {"step", "x0"}


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


def _scipy_linalg_imports(tree):
    """Lines of every import of or from `scipy.linalg`, and of every
    `scipy.linalg` attribute read."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            names = ["scipy.linalg"] if ast.unparse(node.value) == "scipy" else []
        else:
            continue
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "optkernel.py"],
                         ids=lambda p: p.name)
def test_only_the_kernel_imports_scipy_linalg(path):
    found = _scipy_linalg_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} imports from scipy.linalg at lines {found}"


def test_scipy_linalg_rule_catches_an_import():
    polyhedra = (SRC / "polyhedra.py").read_text(encoding="utf-8")
    assert _scipy_linalg_imports(ast.parse(polyhedra)) == []
    lines = polyhedra.splitlines(keepends=True)
    at = lines.index("import numpy as np\n") + 1
    lines.insert(at, "from scipy.linalg import null_space\n")
    assert _scipy_linalg_imports(ast.parse("".join(lines))) == [at + 1]
    source = (
        "from scipy import linalg\n"
        "import scipy.linalg as sla\n"
        "from scipy.linalg.lapack import dgesdd\n"
        "x = scipy.linalg.svd(a)\n"
        "from scipy.optimize import linprog\n"
        "import scipy\n"
        "y = np.linalg.svd(a)\n"
    )
    assert _scipy_linalg_imports(ast.parse(source)) == [1, 2, 3, 4]
    assert _scipy_linalg_imports(
        ast.parse((SRC / "optkernel.py").read_text(encoding="utf-8"))) != []


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


def _names_referenced(tree):
    """Every name a Name or an Attribute reads (Load context, so an
    assignment does not count) and every name an import alias mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _unreferenced(tree, referenced):
    """Public functions, methods and classes of `tree` not in `referenced`."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]


def _unread_private(tree, referenced):
    """Module-level private functions, classes and constants of `tree` not in `referenced`."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]


def _referenced_anywhere():
    referenced = set()
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            referenced |= _names_referenced(ast.parse(path.read_text(encoding="utf-8")))
    return referenced


def _dead(rule):
    referenced = _referenced_anywhere()
    return [
        f"{path.name}: {name}"
        for path in MODULES
        for name in rule(ast.parse(path.read_text(encoding="utf-8")), referenced)
    ]


def test_every_public_definition_is_referenced():
    dead = _dead(_unreferenced)
    assert not dead, f"public definitions nothing references: {dead}"


def test_every_private_definition_is_read():
    dead = _dead(_unread_private)
    assert not dead, f"module-level private definitions nothing reads: {dead}"


def test_reference_rule_catches_dead_definitions():
    defined = ast.parse(
        "def called():\n    pass\n"
        "def dead():\n    pass\n"
        "def imported():\n    pass\n"
        "def aliased():\n    pass\n"
        "class Box:\n"
        "    def method(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    using = ast.parse(
        "from m import imported\n"
        "import pkg.aliased as other\n"
        "called(Box().method)\n"
    )
    assert _unreferenced(defined, _names_referenced(using)) == ["dead", "orphan"]
    private = ast.parse(
        "_LIMIT = 3\n"
        "_STORED: int = 4\n"
        "def _helper():\n    return _LIMIT\n"
        "def _dead():\n    _STORED = 5\n"
        "class _Box:\n"
        "    def _orphan(self):\n        pass\n"
        "__all__ = []\n"
        "_helper()\n"
    )
    assert _unread_private(private, _names_referenced(private)) == ["_STORED", "_dead", "_Box"]


# Public definitions that only tests call.  The rule below asserts this set
# exactly, so a new public name whose only callers are tests fails until it
# is listed, and so does an entry that the program comes to call or that is
# deleted.
TEST_ONLY = {"check_lipschitz_holdout", "regenerate", "uniform_in"}


def _program_sources():
    """Path -> source of every module under `src/`, `scripts/` and `perfbench/`."""
    return {path: path.read_text(encoding="utf-8")
            for folder in ("src", "scripts", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


def _test_only(sources):
    """Public definitions of `src/avibound` that no source in `sources` references."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    referenced = set().union(*map(_names_referenced, trees.values()))
    return {name for path in MODULES for name in _unreferenced(trees[path], referenced)}


def test_public_definitions_only_tests_call_are_listed():
    found = _test_only(_program_sources())
    assert found == TEST_ONLY, (f"only tests call {sorted(found - TEST_ONLY)}; "
                                f"listed but not test-only: {sorted(TEST_ONLY - found)}")


def test_test_only_rule_catches_an_unlisted_function():
    sources = _program_sources()
    sources[SRC / "gpm.py"] += "\n\ndef only_tested():\n    return 0\n"
    assert _test_only(sources) == TEST_ONLY | {"only_tested"}


def _function_imports(tree):
    """(line, innermost function) of every import inside a function body."""
    found = {}
    for node in ast.walk(tree):  # breadth first: inner functions come later
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found[inner.lineno] = node.name
    return sorted(found.items())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = _function_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, [f"{path.name}:{line} in {name}" for line, name in found]


def test_import_rule_catches_function_imports():
    source = (
        "import math\n"
        "from .sets import box\n"
        "def f():\n    import json\n"
        "class C:\n"
        "    import os\n"
        "    def method(self):\n"
        "        def inner():\n            from .avi import residual\n"
        "async def g():\n    from . import bounds\n"
    )
    assert _function_imports(ast.parse(source)) == [(4, "f"), (9, "inner"), (11, "g")]


def _unused_imports(tree):
    """Names imported at module level that the module neither reads nor
    lists in `__all__`; `from __future__` imports are directives, not names."""
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {elt.value for elt in node.value.elts}
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name}: imported and never read: {unused}"


def test_unused_import_rule_catches_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from .errors import DimensionMismatch, EmptySet\n"
        "from .sets import PolyhedralSet, _as_matrix, _as_vector, box\n"
        "__all__ = ['box']\n"
        "def f(S: PolyhedralSet):\n"
        "    scipy.linalg.norm(np.zeros(1))\n"
        "    raise EmptySet(_as_vector(S, 1, 'x'))\n"
        "def g():\n    math = 3\n"
    )
    assert _unused_imports(ast.parse(source)) == ["math", "DimensionMismatch", "_as_matrix"]


def _handler_reads(handler):
    """Names the handler reads as `args.<name>`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            read.add(node.attr)
    return read


def _unread_flags(parser):
    """(subcommand, dest) of every flag that its subcommand's handler never reads."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in subparsers.choices.items():
        read = _handler_reads(sub.get_default("handler"))
        unread += [(name, a.dest) for a in sub._actions if a.dest != "help" and a.dest not in read]
    return unread


def test_every_cli_flag_is_read():
    unread = _unread_flags(cli.build_parser())
    assert not unread, f"flags their subcommand never reads: {unread}"


def _toy_handler(args):
    return args.used


def test_flag_rule_catches_an_unread_flag():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("toy")
    for flag in ("--used", "--unused"):
        p.add_argument(flag)
    p.set_defaults(handler=_toy_handler)
    assert _unread_flags(parser) == [("toy", "unused")]


def _unread_parameters(tree):
    """(line, function, parameter) of every parameter, but `self` and `cls`,
    that its function's or lambda's body never reads; a read inside a nested
    function counts, a default value or a decorator does not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, p) for p in params
                      if p not in ("self", "cls") and p not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, [f"{path.name}:{line} {name}({param})" for line, name, param in unread]


def test_parameter_rule_catches_a_dead_pass_through():
    source = (
        "def residual(inst, x, tol=DEFAULT):\n    return project(inst, x)\n"
        "def outer(a, *rest, scale=1.0, **extra):\n"
        "    def inner(b):\n        return a + b * scale\n"
        "    return inner(rest), extra\n"
        "class Box:\n"
        "    def method(self, size):\n        self.size = 3\n"
        "    @classmethod\n"
        "    def build(cls, tol):\n        return cls()\n"
        "key = lambda z, unused: z\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        (1, "residual", "tol"), (8, "method", "size"), (11, "build", "tol"),
        (13, "<lambda>", "unused"),
    ]


# The routines that count the work their budget bounds: the rays double
# description keeps (or its one cut would keep, counted in closed form for a
# corank-one projection cone), the patterns the face search collects, and the
# sizes a generator is asked for.
CAP_GUARDS = {
    ("polyhedra.py", "_extreme_rays"),
    ("polyhedra.py", "_corank_one_rays"),
    ("avi.py", "_face_templates"),
    ("instgen.py", "TruncationFamily.instance"),
    ("instgen.py", "generate_random_avi"),
}


def _scoped_nodes(tree):
    """(node, enclosing routine) for every node of tree but the function and
    class definitions themselves, in source order; the routine is qualified
    by its classes and functions, and "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            found.append((child, scope))
            visit(child, scope)

    visit(tree, "")
    return found


def _cap_raises(tree):
    """(line, enclosing routine) of every `raise CapExceeded`."""
    found = []
    for node, scope in _scoped_nodes(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name == "CapExceeded":
                found.append((node.lineno, scope))
    return found


def test_caps_sit_in_the_routines_that_count_their_work():
    raising = {
        (path.name, scope)
        for path in MODULES
        for _, scope in _cap_raises(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert raising == CAP_GUARDS, (
        f"CapExceeded raised outside the guards: {sorted(raising - CAP_GUARDS)}; "
        f"guards that no longer raise it: {sorted(CAP_GUARDS - raising)}"
    )


def test_cap_rule_catches_a_call_site_cap():
    source = (
        "def _extreme_rays(H, G):\n    raise CapExceeded('budget')\n"
        "class Family:\n"
        "    def instance(self, n):\n        raise CapExceeded(f'{n}')\n"
        "def enumerate_vertices(S):\n"
        "    if S.ambient_dim > 10:\n        raise errors.CapExceeded\n"
        "    raise NumericalBreakdown('not pointed')\n"
        "raise CapExceeded('module level')\n"
    )
    assert _cap_raises(ast.parse(source)) == [
        (2, "_extreme_rays"), (5, "Family.instance"), (8, "enumerate_vertices"), (10, ""),
    ]


# The layers below the verdicts: they decide with their own constants, and
# the comparison slack of `ratios` enters only above them.
BELOW_RATIOS = ("sets.py", "optkernel.py", "polyhedra.py")


def _ratios_imports(tree):
    """Lines of every import of the `ratios` module or of a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "ratios" or (
                not node.module and any(a.name == "ratios" for a in node.names)
            ):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "ratios" for a in node.names):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("name", BELOW_RATIOS)
def test_lower_layers_import_no_config(name):
    found = _ratios_imports(ast.parse((SRC / name).read_text(encoding="utf-8")))
    assert not found, f"{name} imports ratios at lines {found}"


def test_layering_rule_catches_a_config_import():
    source = (
        "import numpy as np\n"
        "from .ratios import CMP_TOL\n"
        "from .sets import PolyhedralSet\n"
        "from . import ratios, errors\n"
        "import avibound.ratios\n"
        "from avibound.ratios import holdout\n"
        "from .ratios_extra import other\n"
    )
    assert _ratios_imports(ast.parse(source)) == [2, 4, 5, 6]


# Each entry of a set's cache and the one routine that writes it, so an
# entry always holds what its own routine computed for that set: a set's
# phase-one point is the one its own phase one found, and its cell the one
# its last projection ended on.
CACHE_WRITERS = {
    "phase one": ("optkernel.py", "feasible_witness"),
    "box": ("sets.py", "PolyhedralSet.box_bounds"),
    "projection rows": ("optkernel.py", "_projection_rows"),
    "cells": ("optkernel.py", "_keep_cell"),
}

# The modules that own the entries of a set's cache, the only ones that
# read or write one: `sets` its box bounds, `optkernel` its phase-one point,
# projection rows and kept optimal cells.
CACHE_OWNERS = {path for path, _ in CACHE_WRITERS.values()}


def _cache_accesses(tree):
    """Lines of every read, write or deletion of a `._cache` attribute."""
    return sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    })


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in CACHE_OWNERS],
                         ids=lambda p: p.name)
def test_only_the_owners_touch_a_cache(path):
    found = _cache_accesses(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} touches a ._cache at lines {found}"


def test_cache_rule_catches_an_access():
    source = (
        "S._cache['box'] = None\n"
        "point = inst.c_set._cache.get('phase one')\n"
        "del S._cache\n"
        "cache = {}\n"
        "S.cache_size\n"
        "getattr(S, 'cached')\n"
    )
    assert _cache_accesses(ast.parse(source)) == [1, 2, 3]


# Methods that change a list, dict or array in place.
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
            "update", "setdefault", "popitem", "fill", "put", "resize", "setflags"}


def _cache_writes(tree):
    """(line, enclosing routine, entry) of every write or deletion of a
    `._cache` entry: a store or `del` on a subscript of a `._cache` or of
    one of its entries, a method call on a `._cache` other than `get`, or a
    `MUTATORS` call on an entry (`S._cache[...]` or `S._cache.get(...)`).
    The entry is the first string constant the subscripts or the call's
    arguments name, None when they name none."""

    def on_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def on_entry(node):
        return (isinstance(node, ast.Subscript) and on_cache(node.value)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and on_cache(node.func.value) and node.func.attr == "get")

    def entry(nodes):
        names = [n.value for node in nodes for n in ast.walk(node)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        return names[0] if names else None

    found = []
    for node, scope in _scoped_nodes(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if on_cache(node.value):
                found.append((node.lineno, scope, entry([node.slice])))
            elif on_entry(node.value):
                found.append((node.lineno, scope, entry([node.value, node.slice])))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if on_cache(node.func.value) and node.func.attr != "get":
                found.append((node.lineno, scope, entry([*node.args, *node.keywords])))
            elif on_entry(node.func.value) and node.func.attr in MUTATORS:
                found.append((node.lineno, scope, entry([node.func.value])))
    return found


def _writers(sources):
    """{(entry, (file name, routine))} of the cache writes in `sources`, a
    map from file name to source text."""
    return {
        (entry, (name, scope))
        for name, source in sources.items()
        for _, scope, entry in _cache_writes(ast.parse(source))
    }


def test_each_cache_entry_has_its_one_writer():
    writes = _writers({path.name: path.read_text(encoding="utf-8") for path in MODULES})
    assert writes == set(CACHE_WRITERS.items()), writes


def test_cache_writer_rule_catches_a_write():
    source = (
        "def feasible_witness(S):\n"
        "    S._cache['phase one'] = solve(S)\n"
        "    return S._cache['phase one']\n"
        "def seed(S, x):\n"
        "    if 'phase one' not in S._cache:\n"
        "        S._cache['phase one'] = x\n"
        "class Piece:\n"
        "    def reset(self):\n"
        "        del self.c_set._cache['phase one']\n"
        "        self._cache.setdefault('phase one', None)\n"
        "        self._cache.update({'phase one': None})\n"
        "        self._cache.get('phase one')\n"
        "        self._cache['box'] = None\n"
        "S._cache.pop('phase one')\n"
        "def _keep_cell(S, cell):\n"
        "    S._cache['cells'] = (cell,)\n"
        "    rows = S._cache['projection rows'] = stack(S)\n"
        "    S._cache[key] = cell\n"
        "    S._cache.clear()\n"
        "    S._cache.get('gram')\n"
        "def solve_projection_qp(S, u):\n"
        "    S._cache['cells'].insert(0, S._cache['cells'].pop(2))\n"
        "    S._cache.get('cells', [])[0] = cell\n"
        "    del S._cache['cells'][3:]\n"
        "    S._cache['projection rows'][0].copy()\n"
        "    S._cache['cells'][0]\n"
    )
    assert _cache_writes(ast.parse(source)) == [
        (2, "feasible_witness", "phase one"), (6, "seed", "phase one"),
        (9, "Piece.reset", "phase one"), (10, "Piece.reset", "phase one"),
        (11, "Piece.reset", "phase one"), (13, "Piece.reset", "box"), (14, "", "phase one"),
        (16, "_keep_cell", "cells"), (17, "_keep_cell", "projection rows"),
        (18, "_keep_cell", None), (19, "_keep_cell", None),
        (22, "solve_projection_qp", "cells"), (22, "solve_projection_qp", "cells"),
        (23, "solve_projection_qp", "cells"), (24, "solve_projection_qp", "cells"),
    ]


def test_a_lookup_that_reorders_the_cells_itself_fails_the_rule():
    # the lookup's move of a hit to the front goes through `_keep_cell`;
    # the same move written in `solve_projection_qp` is a second writer
    path = SRC / "optkernel.py"
    source = path.read_text(encoding="utf-8")
    move = "                    _keep_cell(S, cell)\n"
    assert source.count(move) == 1
    inline = ('                    S._cache["cells"] = (cell, *(c for c in S._cache["cells"]'
              ' if c is not cell))\n')
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    sources[path.name] = source.replace(move, inline)
    writes = _writers(sources)
    assert ("cells", ("optkernel.py", "solve_projection_qp")) in writes
    assert writes != set(CACHE_WRITERS.items())


def _box_bounds_calls(tree):
    """Lines of every call of a `.box_bounds()` method."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "box_bounds"
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "optkernel.py"],
                         ids=lambda p: p.name)
def test_only_the_kernel_reads_box_bounds(path):
    found = _box_bounds_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} calls .box_bounds() at lines {found}"


def test_box_bounds_rule_catches_a_call():
    source = (
        "bounds = S.box_bounds()\n"
        "if inst.c_set.box_bounds() is None:\n"
        "    lo, hi = self.box_bounds()\n"
        "box_bounds(S)\n"
        "S.box_bounds\n"
        "S.box_bound()\n"
    )
    assert _box_bounds_calls(ast.parse(source)) == [1, 2, 3]


# The routines that validate arrays where they enter the program, with the
# number of `_as_vector`/`_as_matrix` calls each makes: the public
# constructors and the public functions' own arguments.  `sets._screened`'s
# one runs only when its screen fails, for the projection's target and the
# residual's point, which call none themselves (a 0 entry: the rule fails on
# any call there); the LP's one runs on every objective, which it copies
# into C order.  Every other routine takes the arrays it is handed, or
# computes, as validated.
VALIDATORS = {
    ("avi.py", "AviInstance.__post_init__"): 2,
    ("avi.py", "inverse_residual"): 1,
    ("avi.py", "is_solution"): 1,
    ("bounds.py", "verify_upper_lipschitz_inverse"): 1,
    ("gpm.py", "GpMultifunction.__post_init__"): 6,
    ("gpm.py", "evaluate"): 1,
    ("gpm.py", "gap_dual"): 1,
    ("gpm.py", "gap_primal"): 1,
    ("optkernel.py", "solve_lp"): 1,
    ("optkernel.py", "solve_projection_qp"): 0,
    ("polyhedra.py", "cone_generators"): 1,
    ("polyhedra.py", "distance"): 1,
    ("sets.py", "PolyhedralSet.__post_init__"): 4,
    ("sets.py", "PolyhedralSet.contains"): 1,
    ("sets.py", "_screened"): 1,
    ("solvers.py", "solve"): 1,
}


def _validation_calls(tree):
    """Calls of `_as_vector` or `_as_matrix`, by name or as an attribute,
    counted by enclosing routine."""
    return collections.Counter(
        scope for node, scope in _scoped_nodes(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("_as_vector", "_as_matrix")
    )


def test_arrays_are_validated_where_they_enter():
    found = collections.Counter({
        (path.name, scope): count
        for path in MODULES
        for scope, count in _validation_calls(ast.parse(path.read_text(encoding="utf-8"))).items()
    })
    # Counter equality reads a missing routine as 0 calls
    assert found == collections.Counter(VALIDATORS)


def test_validation_rule_catches_a_call_in_the_kernel():
    optkernel = (SRC / "optkernel.py").read_text(encoding="utf-8")
    assert _validation_calls(ast.parse(optkernel))["solve_projection_qp"] == 0
    lines = optkernel.splitlines(keepends=True)
    at = lines.index("    k_eq = S.num_eq\n")
    lines.insert(at, '    u = _as_vector(u, n, "target")\n')
    assert _validation_calls(ast.parse("".join(lines)))["solve_projection_qp"] == 1
    source = (
        "def distance(S, x):\n    x = _as_vector(x, 2, 'x')\n"
        "class Piece:\n"
        "    def section(self, y):\n"
        "        return sets._as_matrix(y, 2, 'y'), _as_vector(y, 2, 'y')\n"
        "_as_vector([0.0], 1, 'module level')\n"
        "as_vector(x)\n"
        "_as_vector\n"
    )
    assert _validation_calls(ast.parse(source)) == {"distance": 1, "Piece.section": 2, "": 1}


# Every routine that calls `lu_factor`, with the number of calls it makes.
# The simplex factors each basis it visits in `_bland_iterate`, which hands
# the factors, basic values and duals of its final basis on; `_phase_one`
# factors only where its pivot-out moved the basis (once in that loop, once
# after it for the final basis), and the read-off of x and the LP's duals
# factor nothing.  `polyhedra._extreme_rays` factors the rows of the
# simplicial cone its double description starts from.
LU_FACTORIZERS = {
    ("optkernel.py", "_bland_iterate"): 1,
    ("optkernel.py", "_phase_one"): 2,
    ("polyhedra.py", "_extreme_rays"): 1,
}


def _lu_factor_calls(tree):
    """Calls of `lu_factor`, by name or as an attribute, counted by
    enclosing routine."""
    return collections.Counter(
        scope for node, scope in _scoped_nodes(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lu_factor"
    )


def _factorizers(sources):
    """`lu_factor` calls by (module, routine) over `sources`, module file
    names mapped to their text."""
    return collections.Counter({
        (name, scope): count
        for name, text in sources.items()
        for scope, count in _lu_factor_calls(ast.parse(text)).items()
    })


def test_each_simplex_basis_is_factored_in_one_place():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    # Counter equality reads a missing routine as 0 calls
    assert _factorizers(sources) == collections.Counter(LU_FACTORIZERS)


def test_factorization_rule_catches_a_refactoring_read_off():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    lines = sources["optkernel.py"].splitlines(keepends=True)
    at = lines.index("    v = np.zeros(columns)\n")
    lines.insert(at + 1, "    x_b = lu_solve(lu_factor(A[:, basis]), b)\n")
    sources["optkernel.py"] = "".join(lines)
    found = _factorizers(sources)
    assert found[("optkernel.py", "_basic_point")] == 1
    assert found != collections.Counter(LU_FACTORIZERS)
    source = (
        "def _basic_point(A, b, basis):\n    return lu_solve(lu_factor(A[:, basis]), b)\n"
        "class Cone:\n"
        "    def rays(self, G):\n"
        "        return optkernel.lu_factor(G), scipy.linalg.lu_factor(G)\n"
        "lu_factor(np.eye(2))\n"
        "lu_solve(lu, b)\n"
        "lu_factor\n"
    )
    assert _lu_factor_calls(ast.parse(source)) == {"_basic_point": 1, "Cone.rays": 2, "": 1}


def _lstsq_names(tree):
    """Lines of every name, attribute or import of `lstsq`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "lstsq"
        or isinstance(node, ast.Attribute) and node.attr == "lstsq"
        or isinstance(node, ast.ImportFrom) and any(a.name == "lstsq" for a in node.names)
    )


def _stray_phase_ones(tree):
    """Lines of the calls of `feasible_witness` in `solve_projection_qp`
    outside its box path, the body of its `if bounds is not None:`, and
    outside the loop's branch with no row to drop, `if not droppable.any():`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "solve_projection_qp":
            allowed = {
                id(inner) for branch in ast.walk(node)
                if isinstance(branch, ast.If)
                and ast.unparse(branch.test) in ("bounds is not None", "not droppable.any()")
                for statement in branch.body for inner in ast.walk(statement)
            }
            found += [
                call.lineno for call in ast.walk(node)
                if isinstance(call, ast.Call) and id(call) not in allowed
                and getattr(call.func, "id", None) == "feasible_witness"
            ]
    return sorted(found)


def test_the_projection_needs_no_lstsq_and_no_phase_one():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not _lstsq_names(tree), f"{path.name} names lstsq"
        assert not _stray_phase_ones(tree), path.name


def test_projection_rules_catch_an_injected_call():
    optkernel = (SRC / "optkernel.py").read_text(encoding="utf-8")
    lines = optkernel.splitlines(keepends=True)
    at = lines.index("    k_eq = S.num_eq\n")
    lines.insert(at, "    start = feasible_witness(S)\n")
    injected = ast.parse("".join(lines))
    assert _stray_phase_ones(injected) == [at + 1]
    source = (
        "x = np.linalg.lstsq(G, h, rcond=None)[0]\n"
        "from numpy.linalg import lstsq, solve\n"
        "y = lstsq(G, h)\n"
        "z = np.linalg.solve(G, h)\n"
        "def solve_projection_qp(S, u):\n"
        "    bounds = S.box_bounds()\n"
        "    if bounds is not None:\n"
        "        return feasible_witness(S)\n"
        "    if not droppable.any():\n"
        "        empty = feasible_witness(S) is None\n"
        "    if droppable.any():\n"
        "        return feasible_witness(S)\n"
        "    return feasible_witness(S)\n"
        "def enumerate_vertices(S):\n"
        "    return feasible_witness(S)\n"
    )
    tree = ast.parse(source)
    assert _lstsq_names(tree) == [1, 2, 3]
    assert _stray_phase_ones(tree) == [12, 13]


# The routines that run once per projection or once per iterate.  Their
# vector products are `ndarray.dot` calls, which reach the same BLAS routine
# as `@` at about half its dispatch cost, with the same bits
# (`tests/test_hot_path.py`).  `optkernel._gram_solve` stays off the list:
# its `G @ G.T` may take BLAS's syrk path, which `.dot` need not match.
HOT_ROUTINES = {
    ("sets.py", "_satisfies_rows"),
    ("sets.py", "_screened"),
    ("optkernel.py", "solve_projection_qp"),
    ("avi.py", "residual"),
    ("solvers.py", "solve"),
}


def _matmuls(tree):
    """(line, enclosing routine) of every `@` and `@=`."""
    return [
        (node.lineno, scope) for node, scope in _scoped_nodes(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_the_hot_routines_make_no_matmul():
    scopes, found = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes |= {(path.name, scope) for _, scope in _scoped_nodes(tree)}
        found += [(path.name, line, scope) for line, scope in _matmuls(tree)
                  if (path.name, scope) in HOT_ROUTINES]
    assert HOT_ROUTINES <= scopes, f"hot routines not found: {sorted(HOT_ROUTINES - scopes)}"
    assert not found, f"`@` in a hot routine, where `ndarray.dot` belongs: {found}"


def test_matmul_rule_catches_an_injected_product():
    optkernel = (SRC / "optkernel.py").read_text(encoding="utf-8")
    lines = optkernel.splitlines(keepends=True)
    at = lines.index("    k_eq = S.num_eq\n")
    lines.insert(at, "    probe = S.ineq_lhs @ u\n")
    assert (at + 1, "solve_projection_qp") in _matmuls(ast.parse("".join(lines)))
    source = (
        "def residual(inst, x):\n    return x - inst.m_op @ x\n"
        "def solve(inst, x):\n    x @= inst.m_op\n"
        "def _gram_solve(G, rhs):\n    return G @ G.T\n"
        "class Cell:\n    def test(self, u):\n        return self.G.dot(u) @ u\n"
        "y = A @ b\n"
        "z = A.dot(b)\n"
    )
    assert _matmuls(ast.parse(source)) == [
        (2, "residual"), (4, "solve"), (6, "_gram_solve"), (9, "Cell.test"), (10, ""),
    ]


def _contiguity_reads(tree):
    """(line, enclosing routine) of every read of an attribute `c_contiguous`."""
    return [
        (node.lineno, scope) for node, scope in _scoped_nodes(tree)
        if isinstance(node, ast.Attribute) and node.attr == "c_contiguous"
    ]


def test_one_screen_reads_the_memory_layout():
    # the hot path screens the vectors it takes as handed in one place,
    # `sets._screened`, so no second copy of the screen drifts from it
    found = {(path.name, scope) for path in MODULES
             for _, scope in _contiguity_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("sets.py", "_screened")}


def test_screen_rule_catches_a_second_screen():
    avi = (SRC / "avi.py").read_text(encoding="utf-8")
    lines = avi.splitlines(keepends=True)
    at = lines.index('    x = _screened(x, inst.dim, "x")[0]\n')
    lines[at + 1:at + 1] = ["    if not x.flags.c_contiguous:\n", "        x = x.copy()\n"]
    assert (at + 2, "residual") in _contiguity_reads(ast.parse("".join(lines)))
    source = (
        "def screen(v):\n    return v.flags.c_contiguous\n"
        "class Cell:\n    def test(self, u):\n        return u.flags.c_contiguous\n"
        "ok = np.ascontiguousarray(v).flags.c_contiguous\n"
        "contiguous = v.flags.f_contiguous\n"
    )
    assert _contiguity_reads(ast.parse(source)) == [(2, "screen"), (5, "Cell.test"), (6, "")]
