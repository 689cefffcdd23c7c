import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from avibound import instgen
from avibound.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

# sha256 of every report that `avibound suite --seed 3` writes.  Any change to
# a verdict, a sampled value or the serialization changes a digest.
# Regenerate the file only for an intended change of the report bytes:
#     PYTHONPATH=src python tests/test_cli.py
_SUITE_RECORD = Path(__file__).parent / "data" / "suite_seed3_sha256.json"

KIND_TO_SCHEMA = {
    "avi": "avi_instance.schema.json",
    "gpm": "gpm_instance.schema.json",
    "manifest": "manifest.schema.json",
    "polyhedral_set": "polyhedral_set.schema.json",
    "error_bound": "bound_report.schema.json",
    "upper_lipschitz_inverse": "bound_report.schema.json",
    "minimax_report": "minimax_report.schema.json",
    "domain_report": "domain_report.schema.json",
    "lipschitz_estimate": "lipschitz_estimate.schema.json",
    "truncation_table": "truncation_table.schema.json",
    "solve_trace": "solve_trace.schema.json",
    "solution_set": "solution_set.schema.json",
    "suite_summary": "suite_summary.schema.json",
    "suite_entry": "suite_entry.schema.json",
}


def validate_against_schema(payload: dict):
    import jsonschema
    from referencing import Registry, Resource

    kind = payload.get("kind")
    assert kind in KIND_TO_SCHEMA, f"no schema registered for kind {kind!r}"
    resources = []
    for schema_file in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(schema_file.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / KIND_TO_SCHEMA[kind]).read_text())
    jsonschema.validate(payload, schema, registry=registry)


@pytest.fixture()
def lcp_file(tmp_path):
    inst = [e for e in instgen.canned_suite() if e.name == "lcp_1d"][0].payload
    path = tmp_path / "lcp1d.json"
    instgen.save(inst, str(path))
    return str(path)


@pytest.fixture()
def gpm_file(tmp_path):
    f = [e for e in instgen.canned_suite() if e.name == "gpm_identity"][0].payload
    path = tmp_path / "gpm.json"
    instgen.save(f, str(path))
    return str(path)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, lcp_file):
        result = subprocess.run(
            [sys.executable, "-m", "avibound.cli", "residual",
             "--instance", lcp_file, "--x", "3", "--definitely-not-a-flag"],
            capture_output=True,
        )
        assert result.returncode == 2

    def test_unknown_command_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "avibound.cli", "frobnicate"], capture_output=True
        )
        assert result.returncode == 2

    def test_cap_exceeded_exits_3(self, tmp_path, capsys, monkeypatch):
        # 25 constraint rows, which the solution pieces keep as inactive
        # rows: nothing caps the row count, and far rows add few rays
        inst = instgen.generate_random_avi(n=2, m=16, monotonicity="indefinite", seed=1)
        import numpy as np

        from avibound import polyhedra
        from avibound.avi import AviInstance
        from avibound.polyhedra import PolyhedralSet

        extra = [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
                 [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, 2.0]]
        A = np.vstack([inst.c_set.ineq_lhs, extra])
        b = np.concatenate([inst.c_set.ineq_rhs, np.full(len(extra), 100.0)])
        fat = AviInstance(
            m_op=inst.m_op, q=inst.q, c_set=PolyhedralSet(2, ineq_lhs=A, ineq_rhs=b)
        )
        assert fat.num_constraints == 25
        path = tmp_path / "fat.json"
        instgen.save(fat, str(path))
        assert main(["enumerate", "--instance", str(path)]) == 0
        assert "enumerate: pieces=1 vertex_check=pass" in capsys.readouterr().out
        # the budget is on the rays double description keeps: the face
        # search of `inverse_residual` reads the minimal faces of
        # zero_op_box2's C, whose 4 vertices exceed a budget of 3, off one
        # double description before any piece is built
        box2 = [e for e in instgen.canned_suite() if e.name == "zero_op_box2"][0].payload
        path = tmp_path / "box2.json"
        instgen.save(box2, str(path))
        monkeypatch.setattr(polyhedra, "_RAY_BUDGET", 3)
        assert main(["enumerate", "--instance", str(path)]) == 3
        assert "rays after a cut, budget 3" in capsys.readouterr().err

    def test_dimension_11_enumerates(self, tmp_path, capsys):
        # no cap on the ambient dimension as such
        inst = instgen.generate_random_avi(
            n=11, m=3, monotonicity="strongly_monotone", seed=1
        )
        path = tmp_path / "n11.json"
        instgen.save(inst, str(path))
        assert main(["enumerate", "--instance", str(path)]) == 0
        assert "enumerate: pieces=1 vertex_check=pass" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes, message", [
        (["--n", "0", "--m", "1"], "n must be at least 1"),
        (["--n", "2", "--m", "-1"], "m must be nonnegative"),
    ])
    def test_degenerate_generate_sizes_exit_2(self, tmp_path, sizes, message):
        # in a subprocess with a timeout, so that a generator that never
        # returns fails the test instead of hanging it
        result = subprocess.run(
            [sys.executable, "-m", "avibound.cli", "generate", *sizes,
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert message in result.stderr
        assert not any(tmp_path.iterdir())

    def test_negative_max_iters_exits_2(self, lcp_file, capsys):
        code = main(["solve", "--instance", lcp_file, "--x0", "4", "--max-iters", "-1"])
        assert code == 2
        assert "max_iters must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
    def test_invalid_epsilon_exits_2(self, lcp_file, eps, capsys):
        code = main([
            "verify-error-bound", "--instance", lcp_file, "--eps", eps, "--samples", "40",
        ])
        assert code == 2
        assert "epsilon must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [
        ("--stop-residual", "stop_residual"), ("--step", "step"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_solver_setting_exits_2(self, lcp_file, flag, field, value, capsys):
        code = main([
            "solve", "--instance", lcp_file, "--x0", "4", "--max-iters", "50", flag, value,
        ])
        assert code == 2
        assert f"{field} must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("radii", ["nan", "0.05,nan", "0.05,inf", "-1,0.2", "0.2,0.05"])
    def test_invalid_radius_ladder_exits_2(self, lcp_file, radii, capsys):
        code = main([
            "verify-lipschitz", "--instance", lcp_file, "--ybar", "0",
            "--samples", "6", f"--radii={radii}",
        ])
        assert code == 2
        assert "radius ladder must be finite, positive and increasing" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv,message", [
        (["verify-minimax", "gpm", "--samples", "0"], "--samples must be at least 1"),
        (["verify-minimax", "gpm", "--samples", "-4"], "--samples must be at least 1"),
        (["verify-lipschitz", "lcp", "--samples", "0"], "--samples must be at least 1"),
        (["verify-error-bound", "lcp", "--samples", "0"], "--samples must be at least 1"),
        (["truncation-study", "harmonic", "--dims", "3", "--samples", "0"],
         "--samples must be at least 1"),
        (["truncation-study", "harmonic", "--dims", ""], "no dimension in ''"),
    ], ids=["minimax-0", "minimax-neg", "lipschitz-0", "error-bound-0", "truncation-0",
            "truncation-no-dims"])
    def test_vacuous_sample_counts_exit_2(self, lcp_file, gpm_file, argv, message, capsys):
        # zero samples would make every verdict pass without a single check
        command, target, *rest = argv
        source = {"lcp": ["--instance", lcp_file], "gpm": ["--instance", gpm_file],
                  "harmonic": ["--family", "harmonic"]}[target]
        assert main([command, *source, *rest]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, rest", [
        ("project", ["--instance", "a.json", "--x", "3"]),
        ("residual", ["--instance", "a.json", "--x", "3"]),
        ("verify-lipschitz", ["--instance", "a.json", "--ybar", "0"]),
        ("solve", ["--instance", "a.json", "--x0", "4"]),
        ("enumerate", ["--instance", "a.json"]),
        ("verify-error-bound", ["--instance", "a.json"]),
        ("verify-minimax", ["--instance", "f.json"]),
        ("truncation-study", ["--family", "harmonic"]),
        ("suite", []),
    ], ids=["project", "residual", "verify-lipschitz", "solve", "enumerate",
            "verify-error-bound", "verify-minimax", "truncation-study", "suite"])
    def test_tol_is_not_a_flag_of_project_or_residual(self, command, rest, capsys):
        # no subcommand takes a tolerance: verdicts compare at ratios.CMP_TOL,
        # the geometry dedups at polyhedra.GEOM_TOL and the solver stops at
        # --stop-residual alone; parsing fails before any file is read
        with pytest.raises(SystemExit) as exc:
            main([command, *rest, "--tol", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1" in capsys.readouterr().err

    def test_missing_instance_exits_2(self, tmp_path):
        assert main(["residual", "--instance", str(tmp_path / "nope.json"), "--x", "1"]) == 2

    def test_residual_matches_worked_example(self, lcp_file, capsys):
        assert main(["residual", "--instance", lcp_file, "--x", "3"]) == 0
        out = capsys.readouterr().out
        assert "r=[2]" in out
        assert "norm=2" in out


class TestReports:
    def test_error_bound_report_validates(self, lcp_file, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main([
            "verify-error-bound", "--instance", lcp_file, "--eps", "1.0",
            "--samples", "120", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "error_bound.json").read_text())
        validate_against_schema(payload)
        assert payload["passed"] is True
        assert (out / "error_bound_trace.csv").exists()

    def test_lipschitz_report_validates(self, lcp_file, tmp_path):
        out = tmp_path / "reports"
        code = main([
            "verify-lipschitz", "--instance", lcp_file, "--ybar", "0",
            "--samples", "24", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        validate_against_schema(json.loads((out / "lipschitz.json").read_text()))
        # no --radii means the default ladder, spelled out here
        spelled = tmp_path / "spelled"
        code = main([
            "verify-lipschitz", "--instance", lcp_file, "--ybar", "0",
            "--samples", "24", "--seed", "5", "--radii", "0.05,0.2,0.8", "--out", str(spelled),
        ])
        assert code == 0
        assert (spelled / "lipschitz.json").read_bytes() == (out / "lipschitz.json").read_bytes()

    def test_minimax_reports_validate(self, gpm_file, tmp_path):
        out = tmp_path / "reports"
        code = main([
            "verify-minimax", "--instance", gpm_file, "--samples", "6",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        validate_against_schema(json.loads((out / "minimax.json").read_text()))
        validate_against_schema(json.loads((out / "domain.json").read_text()))

    def test_solve_and_enumerate_reports_validate(self, lcp_file, tmp_path):
        out = tmp_path / "reports"
        assert main(["solve", "--instance", lcp_file, "--x0", "4", "--out", str(out)]) == 0
        validate_against_schema(json.loads((out / "solve_trace.json").read_text()))
        csv_text = (out / "solve_trace.csv").read_text()
        assert csv_text.startswith("iter,residual,distance")
        assert main(["enumerate", "--instance", lcp_file, "--out", str(out)]) == 0
        validate_against_schema(json.loads((out / "solution_set.json").read_text()))

    def test_enumerate_reads_each_piece_once(self, tmp_path, monkeypatch):
        # the vertex check and the report share one enumeration per piece
        from avibound import cli

        calls = []
        original = cli.enumerate_vertices

        def counting(piece):
            calls.append(piece)
            return original(piece)

        monkeypatch.setattr(cli, "enumerate_vertices", counting)
        box2 = [e for e in instgen.canned_suite() if e.name == "zero_op_box2"][0].payload
        path = tmp_path / "box2.json"
        instgen.save(box2, str(path))
        out = tmp_path / "reports"
        assert main(["enumerate", "--instance", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "solution_set.json").read_text())
        assert report["num_pieces"] == len(calls) == 9

    def test_truncation_report_validates(self, tmp_path):
        out = tmp_path / "reports"
        code = main([
            "truncation-study", "--family", "constant", "--dims", "2,3",
            "--samples", "80", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        validate_against_schema(json.loads((out / "truncation.json").read_text()))

    def test_generated_instance_and_manifest_validate(self, tmp_path):
        out = tmp_path / "data"
        code = main([
            "generate", "--n", "2", "--m", "3", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        (instance_path,) = (out / "instances").glob("*.json")
        (manifest_path,) = (out / "manifests").glob("*.json")
        validate_against_schema(json.loads(instance_path.read_text()))
        validate_against_schema(json.loads(manifest_path.read_text()))

    def test_every_file_kind_has_a_schema(self, tmp_path):
        # one object of each kind `instgen.save` writes and `instgen.load`
        # reads, saved and checked against its schema
        suite = {entry.name: entry.payload for entry in instgen.canned_suite()}
        examples = {
            "avi": suite["lcp_1d"],
            "gpm": suite["gpm_abs_interval"],
            "polyhedral_set": suite["zero_op_box2"].c_set,
            "manifest": instgen.InstanceManifest(
                name="demo", seed=3, path="instances/demo.json",
                params={"n": 2, "m": 3, "monotonicity": "indefinite"}),
        }
        for kind in instgen._KINDS:
            assert kind in examples, f"no example of file kind {kind!r}"
            path = tmp_path / f"{kind}.json"
            instgen.save(examples[kind], str(path))
            payload = json.loads(path.read_text())
            assert payload["kind"] == kind
            validate_against_schema(payload)


class TestSuite:
    def test_avi_entry_enumerates_each_piece_once(self, tmp_path, monkeypatch):
        # the vertex check and the error bound's geometry share one
        # enumeration of the solution set and one of each piece's vertices
        from avibound import bounds, cli

        calls = {"pieces": 0, "sets": 0}

        def counting(name, original):
            def wrapper(arg):
                calls[name] += 1
                return original(arg)
            return wrapper

        for module in (cli, bounds):
            monkeypatch.setattr(module, "enumerate_vertices",
                                counting("pieces", module.enumerate_vertices))
            monkeypatch.setattr(module, "enumerate_solution_set",
                                counting("sets", module.enumerate_solution_set))
        entry = [e for e in instgen.canned_suite() if e.name == "zero_op_box2"][0]
        assert cli._run_avi_entry(entry, 7, str(tmp_path))
        assert calls == {"pieces": 9, "sets": 1}

    def test_suite_writes_reports_and_passes(self, tmp_path):
        out = tmp_path / "reports"
        code = main(["suite", "--seed", "7", "--out", str(out)])
        assert code == 0
        files = list(out.glob("*.json"))
        assert len(files) >= 8
        summary = json.loads((out / "suite_summary.json").read_text())
        validate_against_schema(summary)
        assert summary["passed"] is True
        for entry_file in files:
            payload = json.loads(entry_file.read_text())
            if payload.get("kind") == "suite_entry":
                validate_against_schema(payload)

    def test_suite_reports_are_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["suite", "--seed", "3", "--out", str(first)]) == 0
        assert main(["suite", "--seed", "3", "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "suite_summary.json" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        expected = json.loads(_SUITE_RECORD.read_text())
        actual = _suite_digests(first)
        assert list(actual) == list(expected)
        for name in expected:
            assert actual[name] == expected[name], name


def _suite_digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if main(["suite", "--seed", "3", "--out", tmp]) != 0:
            raise SystemExit("suite --seed 3 failed")
        _SUITE_RECORD.write_text(json.dumps(_suite_digests(Path(tmp)), indent=1) + "\n")
