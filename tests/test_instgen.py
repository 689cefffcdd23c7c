import json

import numpy as np
import pytest

from avibound import CapExceeded, SchemaError
from avibound.avi import AviInstance, enumerate_solution_set
from avibound.gpm import GpMultifunction, verify_minimax
from avibound.instgen import (
    InstanceManifest,
    SuiteEntry,
    TruncationFamily,
    canned_suite,
    canonical_json,
    generate_random_avi,
    load,
    save,
)
from avibound.polyhedra import enumerate_vertices, is_nonempty
from avibound.rng import SplitMix64


class TestGenerateRandomAvi:
    def test_determinism(self):
        a = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=7)
        b = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=7)
        np.testing.assert_array_equal(a.m_op, b.m_op)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.c_set.ineq_lhs, b.c_set.ineq_lhs)

    def test_seed_changes_instance(self):
        a = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=7)
        b = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=8)
        assert not np.allclose(a.m_op, b.m_op)

    def test_strongly_monotone_has_unique_solution(self):
        inst = generate_random_avi(n=1, m=1, monotonicity="strongly_monotone", seed=7)
        pieces = enumerate_solution_set(inst)
        points = set()
        for piece in pieces:
            for v in enumerate_vertices(piece).vertices:
                points.add(tuple(np.round(v, 7)))
        assert len(points) == 1

    def test_strongly_monotone_matrix_is_positive_definite(self):
        for seed in range(5):
            inst = generate_random_avi(n=4, m=6, monotonicity="strongly_monotone", seed=seed)
            eigs = np.linalg.eigvalsh((inst.m_op + inst.m_op.T) / 2)
            assert np.min(eigs) >= 1.0 - 1e-9

    def test_skew_matrix_and_bounded_set(self):
        inst = generate_random_avi(n=3, m=6, monotonicity="monotone_skew", seed=3)
        np.testing.assert_allclose(inst.m_op, -inst.m_op.T, atol=1e-12)
        vs = enumerate_vertices(inst.c_set)
        assert vs.is_bounded

    def test_skew_needs_enough_rows(self):
        with pytest.raises(ValueError):
            generate_random_avi(n=4, m=3, monotonicity="monotone_skew", seed=1)

    def test_constraint_sets_nonempty(self):
        for seed in range(10):
            for kind in ("strongly_monotone", "indefinite"):
                inst = generate_random_avi(n=3, m=5, monotonicity=kind, seed=seed)
                assert is_nonempty(inst.c_set)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            generate_random_avi(n=51, m=5, monotonicity="indefinite", seed=0)
        with pytest.raises(CapExceeded):
            generate_random_avi(n=3, m=17, monotonicity="indefinite", seed=0)

    @pytest.mark.parametrize("n, m, message", [
        (0, 0, "n must be at least 1"),
        (-2, 0, "n must be at least 1"),
        (3, -1, "m must be nonnegative"),
    ])
    def test_degenerate_sizes_raise(self, n, m, message):
        # m < 0 would give a C without rows; n < 1 with rows to draw redraws
        # a length-0 row forever, so that case runs in a subprocess with a
        # timeout, in test_cli.py
        with pytest.raises(ValueError, match=message):
            generate_random_avi(n=n, m=m, monotonicity="indefinite", seed=0)


class TestTruncationFamily:
    def test_harmonic_diagonal(self):
        fam = TruncationFamily("harmonic")
        np.testing.assert_allclose(fam.diagonal(4), [1.0, 0.5, 1 / 3, 0.25])

    def test_instance_shapes(self):
        inst = TruncationFamily("constant").instance(5)
        assert inst.dim == 5
        assert inst.num_constraints == 5
        np.testing.assert_allclose(inst.m_op, np.eye(5))

    def test_unknown_spectrum(self):
        with pytest.raises(ValueError):
            TruncationFamily("quadratic")


class TestCannedSuite:
    def test_has_at_least_eight_entries(self):
        assert len(canned_suite()) >= 8

    def test_names_unique(self):
        names = [e.name for e in canned_suite()]
        assert len(names) == len(set(names))

    def test_avi_entries_have_nonempty_solution_sets(self):
        for entry in canned_suite():
            if entry.kind == "avi":
                assert enumerate_solution_set(entry.payload), entry.name

    def test_gpm_entries_pass_minimax(self):
        rng = SplitMix64(55)
        for entry in canned_suite():
            if entry.kind != "gpm":
                continue
            f = entry.payload
            xs = [
                np.array([2 * rng.normal() for _ in range(f.input_dim)])
                for _ in range(4)
            ]
            assert verify_minimax(f, xs).passed, entry.name


class TestSerialization:
    def test_avi_round_trip(self, tmp_path):
        inst = generate_random_avi(n=2, m=3, monotonicity="indefinite", seed=11)
        path = tmp_path / "instances" / "a.json"
        save(inst, str(path))
        clone = load(str(path))
        assert isinstance(clone, AviInstance)
        np.testing.assert_array_equal(clone.m_op, inst.m_op)
        np.testing.assert_array_equal(clone.q, inst.q)
        np.testing.assert_array_equal(clone.c_set.ineq_rhs, inst.c_set.ineq_rhs)

    def test_gpm_round_trip(self, tmp_path):
        f = GpMultifunction(
            input_dim=1, output_dim=1, a1=[[-2.0]], a2=[[1.0]], z=[0.0]
        )
        path = tmp_path / "f.json"
        save(f, str(path))
        clone = load(str(path))
        assert isinstance(clone, GpMultifunction)
        np.testing.assert_array_equal(clone.a1, f.a1)

    def test_corrupt_json_raises_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"schema_version": "2", "kind": "avi"}))
        with pytest.raises(SchemaError):
            load(str(path))

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": "mystery"}))
        with pytest.raises(SchemaError):
            load(str(path))

    def test_manifest_regeneration_is_byte_identical(self, tmp_path):
        params = {"n": 3, "m": 4, "monotonicity": "strongly_monotone"}
        manifest = InstanceManifest(
            name="demo", seed=13, params=params, path=str(tmp_path / "demo.json")
        )
        save(manifest.regenerate(), manifest.path)
        first = open(manifest.path, "rb").read()
        save(manifest, str(tmp_path / "demo.manifest.json"))
        loaded = load(str(tmp_path / "demo.manifest.json"))
        assert loaded == manifest
        save(loaded.regenerate(), loaded.path)
        second = open(loaded.path, "rb").read()
        assert first == second

    def test_manifest_reader_rejects_json_array(self, tmp_path):
        path = tmp_path / "list.manifest.json"
        path.write_text(json.dumps([{"schema_version": "1", "kind": "manifest"}]))
        with pytest.raises(SchemaError, match="top-level JSON must be an object"):
            load(str(path))

    def test_canonical_json_is_stable(self):
        payload = {"b": 1, "a": [1.5, 2.25]}
        assert canonical_json(payload) == canonical_json(dict(reversed(payload.items())))
