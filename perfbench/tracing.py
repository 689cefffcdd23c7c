"""Spans and counters recorded from outside the program.

The tracer wraps the public functions of each avibound layer.  Modules bind
kernel names at import time (``from .optkernel import solve_lp``), so
patching only the defining module would miss most calls: `Tracer.installed`
replaces the function in every loaded ``avibound`` module that holds it, and
puts the originals back on exit.

A span is (name, start, end, parent, task).  Spans stay in memory until the
run ends; self time is a span's duration minus the durations of its direct
children, which never overlap because the run is serial.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter

# Public functions wrapped in a span, by layer.
SPANNED = {
    "optkernel": ("solve_feasibility", "solve_projection_qp", "solve_lp"),
    "polyhedra": ("is_nonempty", "enumerate_vertices", "cone_generators",
                  "hausdorff", "distance"),
    "avi": ("inverse_residual", "residual", "is_solution"),
    "gpm": ("gap_primal", "gap_dual", "domain_contains",
            "estimate_lipschitz_modulus"),
    "bounds": ("verify_error_bound", "verify_upper_lipschitz_inverse"),
    "solvers": ("solve",),
    "instgen": ("generate_random_avi",),
}
# Classmethods wrapped in a span: (layer, class, method).
SPANNED_CLASSMETHODS = (("bounds", "SolutionGeometry", "from_instance"),)
# Names only counted, one per call: the scipy LU factorization that
# optkernel binds (one per simplex pivot plus refactorizations).
COUNTED = {"optkernel": ("lu_factor",)}


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _on_inverse_residual(counts, fn, args, kwargs, result):
    inst = _bound_args(fn, args, kwargs)["inst"]
    counts["avi.patterns_examined"] += 1 << inst.num_constraints
    counts["avi.pieces_kept"] += len(result)


def _on_verify_error_bound(counts, fn, args, kwargs, result):
    counts["bounds.samples_requested"] += _bound_args(fn, args, kwargs)["num_samples"]
    counts["bounds.samples_kept"] += result.num_samples


def _on_estimate_lipschitz_modulus(counts, fn, args, kwargs, result):
    _, report = result
    counts["gpm.pairs_requested"] += report.num_pairs_requested
    counts["gpm.pairs_used"] += report.num_ratios
    counts["gpm.pairs_excluded"] += report.num_excluded_unbounded


def _on_solve(counts, fn, args, kwargs, result):
    counts["solvers.iterations"] += result.iterations


ON_RESULT = {
    "avi.inverse_residual": _on_inverse_residual,
    "bounds.verify_error_bound": _on_verify_error_bound,
    "gpm.estimate_lipschitz_modulus": _on_estimate_lipschitz_modulus,
    "solvers.solve": _on_solve,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tasks = []
        self.outermost = []  # no ancestor span carries the same name
        self.counts = Counter()
        self.task = -1
        self._stack = []
        self._active = Counter()

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self.task)
        self.outermost.append(self._active[name] == 0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    def _spanned(self, name, fn):
        on_result = ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span around code of the benchmark itself, such as one task."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "avibound" or key.startswith("avibound."))]
        patches = []

        def patch_everywhere(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, value))
                        setattr(module, attr, replacement)

        try:
            for layer, names in SPANNED.items():
                module = sys.modules["avibound." + layer]
                for fname in names:
                    original = getattr(module, fname)
                    patch_everywhere(original, self._spanned(f"{layer}.{fname}", original))
            for layer, names in COUNTED.items():
                module = sys.modules["avibound." + layer]
                for fname in names:
                    original = getattr(module, fname)
                    patches.append((module, fname, original))
                    setattr(module, fname, self._counted(f"{layer}.{fname}", original))
            for layer, cls_name, method in SPANNED_CLASSMETHODS:
                cls = getattr(sys.modules["avibound." + layer], cls_name)
                descriptor = cls.__dict__[method]
                func = descriptor.__func__
                patches.append((cls, method, descriptor))
                setattr(cls, method, classmethod(
                    self._spanned(f"{layer}.{cls_name}.{method}", func)))
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": [
                [n, s, e, p, t]
                for n, s, e, p, t in zip(self.names, self.starts, self.ends,
                                         self.parents, self.tasks)
            ],
            "counts": dict(self.counts),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    `traced_s` is the wall time of the traced tasks; `*.subtree_frac` is the
    share of it spent inside outermost spans of that name.  `overhead_frac`
    is the tracer's share of the traced time, measured by the caller.
    """
    feas = "optkernel.solve_feasibility"
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child_s = [0.0] * len(durations)
    feas_child = [False] * len(durations)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_s[parent] += durations[i]
            if tracer.names[i] == feas:
                feas_child[parent] = True
    calls, self_s, total_s, subtree_s, with_feas = (Counter() for _ in range(5))
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += durations[i] - child_s[i]
        total_s[name] += durations[i]
        if tracer.outermost[i]:
            subtree_s[name] += durations[i]
        if feas_child[i]:
            with_feas[name] += 1
    counts = tracer.counts
    metrics = {}

    def calls_and_self(name):
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (self_s[name], "s")

    def subtree(name):
        metrics[name + ".subtree_frac"] = (_ratio(subtree_s[name], traced_s), "frac")

    proj = "optkernel.solve_projection_qp"
    calls_and_self(feas)
    subtree(feas)
    calls_and_self(proj)
    metrics[proj + ".phase_one_frac"] = (_ratio(with_feas[proj], calls[proj]), "frac")
    subtree(proj)
    calls_and_self("optkernel.solve_lp")
    subtree("optkernel.solve_lp")
    metrics["optkernel.lu_factor.calls"] = (counts["optkernel.lu_factor.calls"], "count")

    nonempty = "polyhedra.is_nonempty"
    metrics[nonempty + ".calls"] = (calls[nonempty], "count")
    metrics[nonempty + ".solve_frac"] = (_ratio(with_feas[nonempty], calls[nonempty]), "frac")
    calls_and_self("polyhedra.enumerate_vertices")
    metrics["polyhedra.cone_generators.calls"] = (calls["polyhedra.cone_generators"], "count")
    calls_and_self("polyhedra.hausdorff")
    subtree("polyhedra.hausdorff")
    calls_and_self("polyhedra.distance")

    calls_and_self("avi.inverse_residual")
    examined = counts["avi.patterns_examined"]
    kept = counts["avi.pieces_kept"]
    metrics["avi.patterns_examined"] = (examined, "count")
    metrics["avi.pieces_kept"] = (kept, "count")
    metrics["avi.pieces_kept_frac"] = (_ratio(kept, examined), "frac")
    calls_and_self("avi.residual")
    metrics["avi.is_solution.calls"] = (calls["avi.is_solution"], "count")

    for name in ("gpm.gap_primal", "gpm.gap_dual", "gpm.domain_contains"):
        calls_and_self(name)
    modulus = "gpm.estimate_lipschitz_modulus"
    metrics[modulus + ".self_s"] = (self_s[modulus], "s")
    metrics["gpm.pairs_used_frac"] = (
        _ratio(counts["gpm.pairs_used"], counts["gpm.pairs_requested"]), "frac")
    metrics["gpm.pairs_excluded"] = (counts["gpm.pairs_excluded"], "count")

    bound = "bounds.verify_error_bound"
    requested = counts["bounds.samples_requested"]
    metrics[bound + ".self_s"] = (self_s[bound], "s")
    metrics["bounds.samples_per_s"] = (_ratio(requested, total_s[bound]), "1/s")
    metrics["bounds.samples_kept_frac"] = (_ratio(counts["bounds.samples_kept"], requested), "frac")
    metrics["bounds.geometry_s"] = (total_s["bounds.SolutionGeometry.from_instance"], "s")
    lipschitz = "bounds.verify_upper_lipschitz_inverse"
    metrics[lipschitz + ".self_s"] = (self_s[lipschitz], "s")

    calls_and_self("solvers.solve")
    iterations = counts["solvers.iterations"]
    metrics["solvers.iterations"] = (iterations, "count")
    metrics["solvers.s_per_iteration"] = (_ratio(total_s["solvers.solve"], iterations), "s")

    metrics["instgen.generate_random_avi.s"] = (total_s["instgen.generate_random_avi"], "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics
