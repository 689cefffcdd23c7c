"""Command-line surface: generation, solving, enumeration and verification.

Exit codes: 0 all requested verdicts pass, 1 a verdict failed, 2 usage
error, 3 a cap or resource limit was hit.  Reports are written as JSON (plus
CSV for traces and tables) under --out; every run prints a one-line verdict
summary to stdout.
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
from .config import DEFAULT_CAPS, DEFAULT_TOL, Tolerances
from .errors import (
    AviboundError,
    CapExceeded,
    DegenerateSampler,
    DimensionMismatch,
    EmptySet,
    NoSolution,
    NumericalBreakdown,
    SchemaError,
)
from .gpm import GpMultifunction
from .polyhedra import PolyhedralSet, enumerate_vertices
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
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _tolerances(args) -> Tolerances:
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    return DEFAULT_TOL.with_cmp(args.tol)


def _write_json(payload: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_text(text: str, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_avi(path: str) -> AviInstance:
    obj = instgen.load(path)
    if not isinstance(obj, AviInstance):
        raise SchemaError(f"{path} does not hold an AVI instance")
    return obj


def _load_gpm(path: str) -> GpMultifunction:
    obj = instgen.load(path)
    if not isinstance(obj, GpMultifunction):
        raise SchemaError(f"{path} does not hold a multifunction")
    return obj


def _piece_payload(pieces, caps, tol) -> list:
    payload = []
    for piece in pieces:
        entry = {"set": piece.to_json_dict()}
        try:
            vs = enumerate_vertices(piece, caps, tol)
            entry["vertices"] = [[float(v) for v in vert] for vert in vs.vertices]
            entry["rays"] = [[float(v) for v in ray] for ray in vs.recession_rays]
            entry["bounded"] = vs.is_bounded
        except CapExceeded:
            entry["vertices"] = None
        payload.append(entry)
    return payload


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
    obj = instgen.load(args.instance)
    if isinstance(obj, AviInstance):
        target_set = obj.c_set
    elif isinstance(obj, PolyhedralSet):
        target_set = obj
    else:
        raise SchemaError("project needs an AVI instance or a polyhedral set")
    x = _parse_vector(args.x)
    tol = _tolerances(args)
    from .polyhedra import distance

    dist, point = distance(target_set, x, tol)
    formatted = "[" + ", ".join(f"{v:g}" for v in point) + "]"
    print(f"project: point={formatted} distance={dist:g}")
    if args.out:
        _write_json(
            {
                "kind": "projection",
                "x": [float(v) for v in x],
                "point": [float(v) for v in point],
                "distance": dist,
            },
            os.path.join(args.out, "projection.json"),
        )
    return EXIT_PASS


def cmd_residual(args) -> int:
    inst = _load_avi(args.instance)
    x = _parse_vector(args.x)
    val = residual(inst, x, _tolerances(args))
    r_formatted = "[" + ", ".join(f"{v:g}" for v in val.r) + "]"
    print(f"residual: r={r_formatted}, norm={val.norm:g}")
    if args.out:
        _write_json(
            {
                "kind": "residual",
                "x": [float(v) for v in x],
                "r": [float(v) for v in val.r],
                "projected_point": [float(v) for v in val.projected_point],
                "norm": val.norm,
            },
            os.path.join(args.out, "residual.json"),
        )
    return EXIT_PASS


def cmd_solve(args) -> int:
    inst = _load_avi(args.instance)
    cfg = solvers_mod.SolverConfig(
        method=args.method,
        step=args.step,
        max_iters=args.max_iters,
        stop_residual=args.stop_residual,
        x0=_parse_vector(args.x0) if args.x0 else None,
    )
    trace = solvers_mod.solve(inst, cfg, _tolerances(args))
    print(
        f"solve: method={trace.method} converged={trace.converged} "
        f"iters={trace.iterations} final_residual={trace.records[-1].residual_norm:g}"
    )
    if args.out:
        _write_json(trace.to_json_dict(), os.path.join(args.out, "solve_trace.json"))
        _write_text(trace.to_csv(), os.path.join(args.out, "solve_trace.csv"))
    return EXIT_PASS if trace.converged else EXIT_FAIL


def cmd_enumerate(args) -> int:
    inst = _load_avi(args.instance)
    tol = _tolerances(args)
    pieces = enumerate_solution_set(inst, DEFAULT_CAPS, tol)
    sound = all(
        is_solution(inst, v, tol)
        for piece in pieces
        for v in enumerate_vertices(piece, DEFAULT_CAPS, tol).vertices
    )
    print(f"enumerate: pieces={len(pieces)} vertex_check={'pass' if sound else 'fail'}")
    if args.out:
        _write_json(
            {
                "kind": "solution_set",
                "num_pieces": len(pieces),
                "vertex_check": sound,
                "pieces": _piece_payload(pieces, DEFAULT_CAPS, tol),
            },
            os.path.join(args.out, "solution_set.json"),
        )
    return EXIT_PASS if sound else EXIT_FAIL


def cmd_verify_error_bound(args) -> int:
    inst = _load_avi(args.instance)
    report = bounds_mod.verify_error_bound(
        inst,
        epsilon=args.eps,
        num_samples=args.samples,
        master_seed=args.seed,
        tol=_tolerances(args),
    )
    print(
        f"verify-error-bound: passed={report.passed} c_emp={report.c_emp:g} "
        f"epsilon={report.epsilon:g} samples={report.num_samples}"
    )
    if args.out:
        _write_json(report.to_json_dict(), os.path.join(args.out, "error_bound.json"))
        trace_csv = "samples,c_emp\n" + "".join(
            f"{c},{v}\n" for c, v in report.ratio_trace
        )
        _write_text(trace_csv, os.path.join(args.out, "error_bound_trace.csv"))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify_lipschitz(args) -> int:
    inst = _load_avi(args.instance)
    ybar = _parse_vector(args.ybar) if args.ybar else np.zeros(inst.dim)
    radii = tuple(float(r) for r in args.radii.split(",")) if args.radii else (0.05, 0.2, 0.8)
    cfg = bounds_mod.LipschitzCheckConfig(
        base_point=ybar,
        radius_ladder=radii,
        samples_per_radius=max(1, args.samples // max(len(radii), 1)),
        master_seed=args.seed,
    )
    report = bounds_mod.verify_upper_lipschitz_inverse(inst, cfg, tol=_tolerances(args))
    print(
        f"verify-lipschitz: passed={report.passed} c_emp={report.c_emp:g} "
        f"samples={report.num_samples}"
    )
    if args.out:
        _write_json(report.to_json_dict(), os.path.join(args.out, "lipschitz.json"))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify_minimax(args) -> int:
    f = _load_gpm(args.instance)
    rng = SplitMix64(derive_seed(args.seed, 0x3A))
    points = [
        np.array([2.0 * rng.normal() for _ in range(f.input_dim)])
        for _ in range(args.samples)
    ]
    minimax = gpm_mod.verify_minimax(f, points, _tolerances(args))
    domain = gpm_mod.verify_domain_characterization(f, points, _tolerances(args))
    ok = minimax.passed and domain.passed
    print(
        f"verify-minimax: passed={ok} max_gap={minimax.max_gap:g} "
        f"domain_mismatches={len(domain.mismatches)}"
    )
    if args.out:
        _write_json(minimax.to_json_dict(), os.path.join(args.out, "minimax.json"))
        _write_json(domain.to_json_dict(), os.path.join(args.out, "domain.json"))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_truncation_study(args) -> int:
    family = instgen.TruncationFamily(args.family)
    dims = _parse_dims(args.dims)
    table = bounds_mod.truncation_study(
        family, dims, num_samples=args.samples, master_seed=args.seed,
        tol=_tolerances(args),
    )
    cs = ", ".join(f"c({row.dim})={row.c_emp:.3g}" for row in table.rows)
    print(f"truncation-study: spectrum={args.family} {cs}")
    if args.out:
        _write_json(table.to_json_dict(), os.path.join(args.out, "truncation.json"))
        _write_text(table.to_csv(), os.path.join(args.out, "truncation.csv"))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except _RESOURCE_ERRORS as exc:
        print(f"error (resource/cap): {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _USAGE_ERRORS as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptySet, NoSolution, AviboundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avibound",
        description="Verify residual error bounds for affine variational inequalities.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def common(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--tol", type=float, default=None, help="comparison tolerance")
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
    common(p)
    p.add_argument("--eps", type=float, default=1.0)
    p.set_defaults(handler=cmd_verify_error_bound)

    p = sub.add_parser("verify-lipschitz", help="upper Lipschitz check of the inverse residual")
    common(p)
    p.add_argument("--ybar", default=None, help="base point (default origin)")
    p.add_argument("--radii", default=None, help="comma-separated radius ladder")
    p.set_defaults(handler=cmd_verify_lipschitz)

    p = sub.add_parser("verify-minimax", help="primal/dual section-gap equality check")
    common(p)
    p.set_defaults(handler=cmd_verify_minimax)

    p = sub.add_parser("truncation-study", help="error-bound constants along a diagonal family")
    common(p, instance=False)
    p.add_argument("--family", choices=("harmonic", "constant"), required=True)
    p.add_argument("--dims", default="5,10,20,40")
    p.set_defaults(handler=cmd_truncation_study)

    p = sub.add_parser("suite", help="run the canned verification suite")
    common(p, instance=False)
    p.set_defaults(handler=cmd_suite)

    return parser


# --- canned suite runner ----------------------------------------------------


def _run_avi_entry(entry, seed, out_dir, tol):
    inst = entry.payload
    expectations = entry.expectations
    failures = []
    pieces = enumerate_solution_set(inst, DEFAULT_CAPS, tol)
    vertex_ok = True
    found_points = []
    for piece in pieces:
        vs = enumerate_vertices(piece, DEFAULT_CAPS, tol)
        for v in vs.vertices:
            found_points.append(v)
            if not is_solution(inst, v, tol):
                vertex_ok = False
    if not vertex_ok:
        failures.append("piece vertex failed direct solution check")
    for target in expectations.get("solution_points", []):
        if not any(np.linalg.norm(np.array(target) - v) <= 1e-6 for v in found_points):
            failures.append(f"expected solution point {target} not found")
    for point, inside in expectations.get("solution_samples", []):
        member = any(p.contains(point, 1e-8) for p in pieces)
        if member != inside:
            failures.append(f"membership of {point} expected {inside}")
    report = bounds_mod.verify_error_bound(
        inst, epsilon=0.5, num_samples=240, master_seed=seed, tol=tol
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
        lip = bounds_mod.verify_upper_lipschitz_inverse(inst, cfg, tol=tol)
        lip_payload = lip.to_json_dict()
        if not (lip_range[0] <= lip.c_emp <= lip_range[1]):
            failures.append(f"lipschitz c_emp {lip.c_emp} outside {lip_range}")
    solve_payload = None
    if expectations.get("monotone"):
        trace = solvers_mod.solve(
            inst,
            solvers_mod.SolverConfig(stop_residual=1e-6, max_iters=10_000),
            tol,
        )
        solve_payload = trace.to_json_dict()
        if not trace.converged:
            failures.append("extragradient did not converge")
    payload = {
        "kind": "suite_entry",
        "name": entry.name,
        "entry_kind": "avi",
        "passed": not failures,
        "failures": failures,
        "error_bound": report.to_json_dict(),
        "lipschitz": lip_payload,
        "solve": solve_payload,
    }
    _write_json(payload, os.path.join(out_dir, f"{entry.name}.json"))
    return not failures


def _run_gpm_entry(entry, seed, out_dir, tol):
    f = entry.payload
    expectations = entry.expectations
    failures = []
    rng = SplitMix64(derive_seed(seed, 0x617))
    points = [
        np.array([1.5 * rng.normal() for _ in range(f.input_dim)]) for _ in range(10)
    ]
    minimax = gpm_mod.verify_minimax(f, points, tol)
    if not minimax.passed:
        failures.append(f"minimax gap {minimax.max_gap}")
    domain = gpm_mod.verify_domain_characterization(f, points, tol)
    if not domain.passed:
        failures.append("domain characterization mismatch")
    modulus_payload = None
    if expectations.get("bounded_sections"):
        cfg = gpm_mod.SectionSamplerConfig(num_pairs=160, master_seed=seed)
        c_emp, est = gpm_mod.estimate_lipschitz_modulus(f, cfg, tol=tol)
        modulus_payload = est.to_json_dict()
        mod_range = expectations.get("modulus")
        if mod_range and not (mod_range[0] <= c_emp <= mod_range[1]):
            failures.append(f"modulus {c_emp} outside {mod_range}")
        matrix = expectations.get("modulus_matrix")
        if matrix is not None:
            top = float(np.linalg.norm(np.array(matrix), 2))
            if not (0.9 * top <= c_emp <= 1.001 * top):
                failures.append(f"modulus {c_emp} vs spectral norm {top}")
    payload = {
        "kind": "suite_entry",
        "name": entry.name,
        "entry_kind": "gpm",
        "passed": not failures,
        "failures": failures,
        "minimax": minimax.to_json_dict(),
        "domain": domain.to_json_dict(),
        "modulus": modulus_payload,
    }
    _write_json(payload, os.path.join(out_dir, f"{entry.name}.json"))
    return not failures


def _run_truncation_entry(entry, seed, out_dir, tol):
    family = entry.payload
    failures = []
    table = bounds_mod.truncation_study(
        family, dims=[3, 6], num_samples=150, master_seed=seed, tol=tol
    )
    cs = table.c_values()
    if entry.expectations.get("growing") and not cs[-1] >= cs[0]:
        failures.append(f"expected growth, got {cs}")
    c_range = entry.expectations.get("c_range")
    if c_range and not all(c_range[0] <= c <= c_range[1] for c in cs):
        failures.append(f"constants {cs} outside {c_range}")
    payload = {
        "kind": "suite_entry",
        "name": entry.name,
        "entry_kind": "truncation",
        "passed": not failures,
        "failures": failures,
        "table": table.to_json_dict(),
    }
    _write_json(payload, os.path.join(out_dir, f"{entry.name}.json"))
    return not failures


def run_suite(seed: int, out_dir: str, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Run every canned entry; returns the summary payload."""
    entries = instgen.canned_suite()
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for index, entry in enumerate(entries):
        entry_seed = derive_seed(seed, index)
        if entry.kind == "avi":
            ok = _run_avi_entry(entry, entry_seed, out_dir, tol)
        elif entry.kind == "gpm":
            ok = _run_gpm_entry(entry, entry_seed, out_dir, tol)
        else:
            ok = _run_truncation_entry(entry, entry_seed, out_dir, tol)
        results.append((entry.name, ok))
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
    summary = run_suite(args.seed, out_dir, tol=_tolerances(args))
    for entry in summary["entries"]:
        print(f"suite[{entry['name']}]: {'pass' if entry['passed'] else 'FAIL'}")
    print(f"suite: passed={summary['passed']} reports={out_dir}")
    return EXIT_PASS if summary["passed"] else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
