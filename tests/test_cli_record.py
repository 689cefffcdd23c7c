"""Report-byte regression for every subcommand but `suite`.

Each run below calls `avibound` in-process from a scratch directory with
relative paths, since a manifest records its instance path.  The sha256 of
its stdout and stderr, its exit code and the sha256 of every file it writes
are recorded in tests/data/cli_reports_sha256.json, so a change to a
summary line, an exit code, an error message, a verdict, a sampled value or
the serialization changes the record.  `suite --seed 3` has its own record
(tests/test_cli.py).  Regenerate the file only for an intended change of
the report bytes:
    PYTHONPATH=src python tests/test_cli_record.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from avibound import instgen
from avibound.cli import main

_RECORD = Path(__file__).parent / "data" / "cli_reports_sha256.json"

_AVIS = ("lcp_1d", "ray_2d", "zero_op_box2")
_GPMS = ("gpm_identity", "gpm_abs_interval", "gpm_scaled", "gpm_box_sections",
         "gpm_affine_2d")

_RUNS = {
    "generate": ["generate", "--n", "2", "--m", "3", "--seed", "9", "--out", "generate"],
    "project": ["project", "--instance", "ray_2d.json", "--x", "2,-1", "--out", "project"],
    # a polyhedral set, and no --out: the summary line alone
    "project-onto-a-set": ["project", "--instance", "box2_set.json", "--x", "2,0.5"],
    "residual": ["residual", "--instance", "ray_2d.json", "--x", "2,-1",
                 "--out", "residual"],
    "enumerate": ["enumerate", "--instance", "zero_op_box2.json", "--out", "enumerate"],
    "verify-error-bound": ["verify-error-bound", "--instance", "ray_2d.json",
                           "--samples", "60", "--seed", "5", "--out", "error_bound"],
    "solve-extragradient": ["solve", "--instance", "lcp_1d.json", "--x0", "4",
                            "--out", "solve_eg"],
    "solve-projected_fixed_point": ["solve", "--instance", "lcp_1d.json", "--x0", "4",
                                    "--method", "projected_fixed_point",
                                    "--out", "solve_pfp"],
    "solve-not-converged": ["solve", "--instance", "lcp_1d.json", "--x0", "4",
                            "--max-iters", "3", "--out", "solve_short"],
    "verify-lipschitz": ["verify-lipschitz", "--instance", "lcp_1d.json", "--ybar", "0",
                         "--samples", "24", "--seed", "5", "--out", "lipschitz"],
    # the base preimage R^{-1}(1, 0) of the ray instance is empty
    "verify-lipschitz-empty-base": ["verify-lipschitz", "--instance", "ray_2d.json",
                                    "--ybar", "1,0", "--samples", "36", "--seed", "6",
                                    "--out", "lipschitz_empty"],
    **{
        f"verify-minimax-{name}": ["verify-minimax", "--instance", f"{name}.json",
                                   "--samples", "6", "--seed", "2", "--out", name]
        for name in _GPMS
    },
    "truncation-study": ["truncation-study", "--family", "harmonic", "--dims", "3,6",
                         "--samples", "60", "--seed", "3", "--out", "truncation"],
    # each loader's refusal of the other kind of file
    "residual-of-a-gpm": ["residual", "--instance", "gpm_identity.json", "--x", "1"],
    "verify-minimax-of-an-avi": ["verify-minimax", "--instance", "lcp_1d.json"],
    "project-of-a-gpm": ["project", "--instance", "gpm_identity.json", "--x", "1"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record_runs(workdir: Path) -> dict:
    """Run every entry of `_RUNS` in `workdir`; returns the record."""
    suite = {entry.name: entry.payload for entry in instgen.canned_suite()}
    for name in _AVIS + _GPMS:
        instgen.save(suite[name], str(workdir / f"{name}.json"))
    instgen.save(suite["zero_op_box2"].c_set, str(workdir / "box2_set.json"))
    inputs = set(workdir.iterdir())
    record = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in _RUNS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            record[name] = {
                "exit": code,
                "stdout": _sha(out.getvalue().encode()),
                "stderr": _sha(err.getvalue().encode()),
                "files": {},
            }
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path not in inputs:
            name = path.relative_to(workdir)
            run = next(run for run, argv in _RUNS.items()
                       if "--out" in argv and argv[argv.index("--out") + 1] == name.parts[0])
            record[run]["files"][str(name)] = _sha(path.read_bytes())
    return record


def test_cli_reports_are_unchanged(tmp_path):
    expected = json.loads(_RECORD.read_text())
    actual = _record_runs(tmp_path)
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _RECORD.write_text(json.dumps(_record_runs(Path(tmp)), indent=1) + "\n")
