"""Command-line surface: generation, solving, enumeration and verification.

Exit codes: 0 all requested verdicts pass, 1 a verdict failed, 2 usage
error, 3 a cap or resource limit was hit.  Reports are written as JSON (plus
CSV for traces and tables) under --out; every run prints a one-line verdict
summary to stdout.  Each subcommand ends in `_emit`, which prints that line
and writes its reports; each suite entry ends in `_write_entry`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import gpm as gpm_mod
from . import instgen
from . import solvers as solvers_mod
from .avi import AviInstance, enumerate_solution_set, is_solution, residual
from .errors import (
    AviboundError,
    CapExceeded,
    DegenerateSampler,
    DimensionMismatch,
    NumericalBreakdown,
    SchemaError,
)
from .gpm import GpMultifunction
from .polyhedra import PolyhedralSet, distance, enumerate_vertices
from .ratios import CMP_TOL
from .rng import SplitMix64, derive_seed

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_RESOURCE_ERRORS = (CapExceeded, DegenerateSampler, NumericalBreakdown, MemoryError)
_USAGE_ERRORS = (SchemaError, DimensionMismatch, ValueError)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc


def _parse_dims(text: str) -> list:
    dims = [int(part) for part in text.split(",") if part.strip() != ""]
    if not dims:
        raise ValueError(f"no dimension in {text!r}")
    return dims


def _write_text(text: str, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(payload: dict, path: str) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _emit(out, line: str, outputs: dict, code: int) -> int:
    """Print a subcommand's summary line, write each named output under `out`
    when it is set (a dict as JSON, a string as text) and return `code`."""
    print(line)
    if out:
        for name, content in outputs.items():
            path = os.path.join(out, name)
            if isinstance(content, str):
                _write_text(content, path)
            else:
                _write_json(content, path)
    return code


def _load(path: str, cls, what: str):
    obj = instgen.load(path)
    if not isinstance(obj, cls):
        raise SchemaError(f"{path} does not hold {what}")
    return obj


def _piece_payload(pieces, vertex_sets) -> list:
    return [
        {
            "set": piece.to_json_dict(),
            "vertices": [[float(v) for v in vert] for vert in vs.vertices],
            "rays": [[float(v) for v in ray] for ray in vs.recession_rays],
            "bounded": vs.is_bounded,
        }
        for piece, vs in zip(pieces, vertex_sets)
    ]


def cmd_generate(args) -> int:
    name = args.name or f"{args.monotonicity}_n{args.n}_m{args.m}_s{args.seed}"
    inst = instgen.generate_random_avi(
        n=args.n, m=args.m, monotonicity=args.monotonicity, seed=args.seed
    )
    instance_path = os.path.join(args.out, "instances", f"{name}.json")
    manifest_path = os.path.join(args.out, "manifests", f"{name}.manifest.json")
    instgen.save(inst, instance_path)
    manifest = instgen.InstanceManifest(
        name=name,
        seed=args.seed,
        params={"n": args.n, "m": args.m, "monotonicity": args.monotonicity},
        path=instance_path,
    )
    instgen.save(manifest, manifest_path)
    print(f"generate: wrote {instance_path} (+ manifest)")
    return EXIT_PASS


def cmd_project(args) -> int:
    target_set = instgen.load(args.instance)
    if isinstance(target_set, AviInstance):
        target_set = target_set.c_set
    if not isinstance(target_set, PolyhedralSet):
        raise SchemaError("project needs an AVI instance or a polyhedral set")
    x = _parse_vector(args.x)
    dist, point = distance(target_set, x)
    formatted = "[" + ", ".join(f"{v:g}" for v in point) + "]"
    return _emit(args.out, f"project: point={formatted} distance={dist:g}", {
        "projection.json": {
            "kind": "projection",
            "x": [float(v) for v in x],
            "point": [float(v) for v in point],
            "distance": dist,
        },
    }, EXIT_PASS)


def cmd_residual(args) -> int:
    inst = _load(args.instance, AviInstance, "an AVI instance")
    x = _parse_vector(args.x)
    val = residual(inst, x)
    r_formatted = "[" + ", ".join(f"{v:g}" for v in val.r) + "]"
    return _emit(args.out, f"residual: r={r_formatted}, norm={val.norm:g}", {
        "residual.json": {
            "kind": "residual",
            "x": [float(v) for v in x],
            "r": [float(v) for v in val.r],
            "projected_point": [float(v) for v in val.projected_point],
            "norm": val.norm,
        },
    }, EXIT_PASS)


def cmd_solve(args) -> int:
    inst = _load(args.instance, AviInstance, "an AVI instance")
    cfg = solvers_mod.SolverConfig(
        method=args.method,
        step=args.step,
        max_iters=args.max_iters,
        stop_residual=args.stop_residual,
        x0=_parse_vector(args.x0) if args.x0 else None,
    )
    trace = solvers_mod.solve(inst, cfg)
    return _emit(
        args.out,
        f"solve: method={trace.method} converged={trace.converged} "
        f"iters={trace.iterations} final_residual={trace.records[-1].residual_norm:g}",
        {"solve_trace.json": trace.to_json_dict(), "solve_trace.csv": trace.to_csv()},
        EXIT_PASS if trace.converged else EXIT_FAIL,
    )


def _checked_pieces(inst):
    """(pieces, vertex sets, sound): the solution set's pieces, each one's
    vertices and rays, and whether every vertex passes the direct solution
    test `is_solution` (the first failure decides)."""
    pieces = enumerate_solution_set(inst)
    vertex_sets = [enumerate_vertices(piece) for piece in pieces]
    sound = all(is_solution(inst, v) for vs in vertex_sets for v in vs.vertices)
    return pieces, vertex_sets, sound


def cmd_enumerate(args) -> int:
    inst = _load(args.instance, AviInstance, "an AVI instance")
    pieces, vertex_sets, sound = _checked_pieces(inst)
    return _emit(
        args.out,
        f"enumerate: pieces={len(pieces)} vertex_check={'pass' if sound else 'fail'}",
        {"solution_set.json": {
            "kind": "solution_set",
            "num_pieces": len(pieces),
            "vertex_check": sound,
            "pieces": _piece_payload(pieces, vertex_sets),
        }},
        EXIT_PASS if sound else EXIT_FAIL,
    )


def cmd_verify_error_bound(args) -> int:
    inst = _load(args.instance, AviInstance, "an AVI instance")
    report = bounds_mod.verify_error_bound(inst, epsilon=args.eps, num_samples=args.samples,
                                           master_seed=args.seed)
    return _emit(
        args.out,
        f"verify-error-bound: passed={report.passed} c_emp={report.c_emp:g} "
        f"epsilon={report.epsilon:g} samples={report.num_samples}",
        {"error_bound.json": report.to_json_dict(),
         "error_bound_trace.csv": "samples,c_emp\n" + "".join(
             f"{c},{v}\n" for c, v in report.ratio_trace)},
        EXIT_PASS if report.passed else EXIT_FAIL,
    )


def cmd_verify_lipschitz(args) -> int:
    inst = _load(args.instance, AviInstance, "an AVI instance")
    ybar = _parse_vector(args.ybar) if args.ybar else np.zeros(inst.dim)
    radii = (tuple(float(r) for r in args.radii.split(",")) if args.radii
             else bounds_mod.DEFAULT_RADIUS_LADDER)
    cfg = bounds_mod.LipschitzCheckConfig(
        base_point=ybar,
        radius_ladder=radii,
        samples_per_radius=max(1, args.samples // len(radii)),
        master_seed=args.seed,
    )
    report = bounds_mod.verify_upper_lipschitz_inverse(inst, cfg)
    return _emit(
        args.out,
        f"verify-lipschitz: passed={report.passed} c_emp={report.c_emp:g} "
        f"samples={report.num_samples}",
        {"lipschitz.json": report.to_json_dict()},
        EXIT_PASS if report.passed else EXIT_FAIL,
    )


def _section_gap_checks(f, seed: int, salt: int, scale: float, count: int):
    """(minimax report, domain report) of `f` at `count` probe points, each
    coordinate `scale` times a normal draw from the stream of (seed, salt)."""
    rng = SplitMix64(derive_seed(seed, salt))
    points = [
        np.array([scale * rng.normal() for _ in range(f.input_dim)]) for _ in range(count)
    ]
    return gpm_mod.verify_minimax(f, points), gpm_mod.verify_domain_characterization(f, points)


def cmd_verify_minimax(args) -> int:
    f = _load(args.instance, GpMultifunction, "a multifunction")
    minimax, domain = _section_gap_checks(f, args.seed, 0x3A, 2.0, args.samples)
    ok = minimax.passed and domain.passed
    return _emit(
        args.out,
        f"verify-minimax: passed={ok} max_gap={minimax.max_gap:g} "
        f"domain_mismatches={len(domain.mismatches)}",
        {"minimax.json": minimax.to_json_dict(), "domain.json": domain.to_json_dict()},
        EXIT_PASS if ok else EXIT_FAIL,
    )


def cmd_truncation_study(args) -> int:
    family = instgen.TruncationFamily(args.family)
    dims = _parse_dims(args.dims)
    table = bounds_mod.truncation_study(family, dims, num_samples=args.samples,
                                        master_seed=args.seed)
    cs = ", ".join(f"c({row.dim})={row.c_emp:.3g}" for row in table.rows)
    return _emit(
        args.out,
        f"truncation-study: spectrum={args.family} {cs}",
        {"truncation.json": table.to_json_dict(), "truncation.csv": table.to_csv()},
        EXIT_PASS,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        # a check on no samples passes vacuously
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        return args.handler(args)
    except _RESOURCE_ERRORS as exc:
        print(f"error (resource/cap): {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _USAGE_ERRORS as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AviboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avibound",
        description="Verify residual error bounds for affine variational inequalities.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def common(p, instance=True, seed=False, samples=False):
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON path")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if samples:
            p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", default=None, help="report output directory")

    p = sub.add_parser("generate", help="generate a random instance + manifest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--monotonicity", choices=instgen.MONOTONICITY_CLASSES,
                   default="strongly_monotone")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--out", default="data")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("project", help="project a point onto the constraint set")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("residual", help="evaluate the natural residual at a point")
    common(p)
    p.add_argument("--x", required=True)
    p.set_defaults(handler=cmd_residual)

    p = sub.add_parser("solve", help="run a projection-type solver")
    common(p)
    p.add_argument("--method", choices=("extragradient", "projected_fixed_point"),
                   default="extragradient")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--stop-residual", type=float, default=1e-6)
    p.add_argument("--x0", default=None)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("enumerate", help="enumerate the solution set pieces")
    common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify-error-bound", help="empirical local error bound check")
    common(p, seed=True, samples=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.set_defaults(handler=cmd_verify_error_bound)

    p = sub.add_parser("verify-lipschitz", help="upper Lipschitz check of the inverse residual")
    common(p, seed=True, samples=True)
    p.add_argument("--ybar", default=None, help="base point (default origin)")
    p.add_argument("--radii", default=None, help="comma-separated radius ladder")
    p.set_defaults(handler=cmd_verify_lipschitz)

    p = sub.add_parser("verify-minimax", help="primal/dual section-gap equality check")
    common(p, seed=True, samples=True)
    p.set_defaults(handler=cmd_verify_minimax)

    p = sub.add_parser("truncation-study", help="error-bound constants along a diagonal family")
    common(p, instance=False, seed=True, samples=True)
    p.add_argument("--family", choices=("harmonic", "constant"), required=True)
    p.add_argument("--dims", default="5,10,20,40")
    p.set_defaults(handler=cmd_truncation_study)

    p = sub.add_parser("suite", help="run the canned verification suite")
    common(p, instance=False, seed=True)
    p.set_defaults(handler=cmd_suite)

    return parser


# --- canned suite runner ----------------------------------------------------


def _write_entry(entry, failures: list, out_dir: str, **reports) -> bool:
    """Write a suite entry's header and `reports`; returns whether it passed."""
    _write_json(
        {
            "kind": "suite_entry",
            "name": entry.name,
            "entry_kind": entry.kind,
            "passed": not failures,
            "failures": failures,
            **reports,
        },
        os.path.join(out_dir, f"{entry.name}.json"),
    )
    return not failures


def _run_avi_entry(entry, seed, out_dir):
    inst = entry.payload
    expectations = entry.expectations
    failures = []
    pieces, vertex_sets, vertex_ok = _checked_pieces(inst)
    if not vertex_ok:
        failures.append("piece vertex failed direct solution check")
    found_points = [v for vs in vertex_sets for v in vs.vertices]
    for target in expectations.get("solution_points", []):
        if not any(np.linalg.norm(np.array(target) - v) <= CMP_TOL for v in found_points):
            failures.append(f"expected solution point {target} not found")
    for point, inside in expectations.get("solution_samples", []):
        member = any(p.contains(point, 1e-8) for p in pieces)
        if member != inside:
            failures.append(f"membership of {point} expected {inside}")
    report = bounds_mod.verify_error_bound(
        inst, epsilon=0.5, num_samples=240, master_seed=seed,
        geometry=bounds_mod.SolutionGeometry.from_pieces(pieces, vertex_sets),
    )
    if not report.passed:
        failures.append("error bound report failed")
    c_range = expectations.get("error_bound_c")
    if c_range and not (c_range[0] <= report.c_emp <= c_range[1]):
        failures.append(f"c_emp {report.c_emp} outside {c_range}")
    lip_range = expectations.get("lipschitz_inverse_c")
    lip_payload = None
    if lip_range:
        cfg = bounds_mod.LipschitzCheckConfig(
            base_point=np.zeros(inst.dim), master_seed=seed
        )
        lip = bounds_mod.verify_upper_lipschitz_inverse(inst, cfg)
        lip_payload = lip.to_json_dict()
        if not (lip_range[0] <= lip.c_emp <= lip_range[1]):
            failures.append(f"lipschitz c_emp {lip.c_emp} outside {lip_range}")
    solve_payload = None
    if expectations.get("monotone"):
        trace = solvers_mod.solve(
            inst, solvers_mod.SolverConfig(stop_residual=1e-6, max_iters=10_000)
        )
        solve_payload = trace.to_json_dict()
        if not trace.converged:
            failures.append("extragradient did not converge")
    return _write_entry(entry, failures, out_dir, error_bound=report.to_json_dict(),
                        lipschitz=lip_payload, solve=solve_payload)


def _run_gpm_entry(entry, seed, out_dir):
    f = entry.payload
    expectations = entry.expectations
    failures = []
    minimax, domain = _section_gap_checks(f, seed, 0x617, 1.5, 10)
    if not minimax.passed:
        failures.append(f"minimax gap {minimax.max_gap}")
    if not domain.passed:
        failures.append("domain characterization mismatch")
    modulus_payload = None
    if expectations.get("bounded_sections"):
        cfg = gpm_mod.SectionSamplerConfig(num_pairs=160, master_seed=seed)
        c_emp, est = gpm_mod.estimate_lipschitz_modulus(f, cfg)
        modulus_payload = est.to_json_dict()
        mod_range = expectations.get("modulus")
        if mod_range and not (mod_range[0] <= c_emp <= mod_range[1]):
            failures.append(f"modulus {c_emp} outside {mod_range}")
        matrix = expectations.get("modulus_matrix")
        if matrix is not None:
            top = float(np.linalg.norm(np.array(matrix), 2))
            if not (0.9 * top <= c_emp <= 1.001 * top):
                failures.append(f"modulus {c_emp} vs spectral norm {top}")
    return _write_entry(entry, failures, out_dir, minimax=minimax.to_json_dict(),
                        domain=domain.to_json_dict(), modulus=modulus_payload)


def _run_truncation_entry(entry, seed, out_dir):
    family = entry.payload
    failures = []
    table = bounds_mod.truncation_study(
        family, dims=[3, 6], num_samples=150, master_seed=seed
    )
    cs = table.c_values()
    if entry.expectations.get("growing") and not cs[-1] >= cs[0]:
        failures.append(f"expected growth, got {cs}")
    c_range = entry.expectations.get("c_range")
    if c_range and not all(c_range[0] <= c <= c_range[1] for c in cs):
        failures.append(f"constants {cs} outside {c_range}")
    return _write_entry(entry, failures, out_dir, table=table.to_json_dict())


def run_suite(seed: int, out_dir: str) -> dict:
    """Run every canned entry; returns the summary payload."""
    entries = instgen.canned_suite()
    os.makedirs(out_dir, exist_ok=True)
    runners = {"avi": _run_avi_entry, "gpm": _run_gpm_entry,
               "truncation": _run_truncation_entry}
    results = [
        (entry.name, runners[entry.kind](entry, derive_seed(seed, index), out_dir))
        for index, entry in enumerate(entries)
    ]
    summary = {
        "kind": "suite_summary",
        "seed": seed,
        "entries": [{"name": name, "passed": ok} for name, ok in results],
        "passed": all(ok for _, ok in results),
    }
    _write_json(summary, os.path.join(out_dir, "suite_summary.json"))
    return summary


def cmd_suite(args) -> int:
    out_dir = args.out or "reports"
    summary = run_suite(args.seed, out_dir)
    for entry in summary["entries"]:
        print(f"suite[{entry['name']}]: {'pass' if entry['passed'] else 'FAIL'}")
    print(f"suite: passed={summary['passed']} reports={out_dir}")
    return EXIT_PASS if summary["passed"] else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
