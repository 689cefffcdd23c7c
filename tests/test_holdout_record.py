"""Holdout, tail-bound and local-radius regression.

`num_checked` and the exact violation records of `check_lipschitz_holdout`
and `check_tail_bound`, and the `find_local_radius` curves, are hashed per
case and recorded in tests/data/holdout_sha256.json; any change to which
pairs or iterates are checked, to the slack test, to a ratio or to a
stability flag changes a digest.  Each check runs at the default slack 1.05,
where it passes, and at a small slack, where it fails often, so that the
violation records themselves are pinned.  Numbers are hashed by value
(`float(...)`, `int(...)`, `bool(...)`), not by numpy scalar type.
Regenerate the file only for an intended change of these outcomes:
    PYTHONPATH=src python tests/test_holdout_record.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from avibound.bounds import find_local_radius
from avibound.gpm import SectionSamplerConfig, check_lipschitz_holdout, estimate_lipschitz_modulus
from avibound.instgen import canned_suite, generate_random_avi
from avibound.rng import derive_seed
from avibound.solvers import SolverConfig, annotate_distances, check_tail_bound, solve

_RECORD = Path(__file__).parent / "data" / "holdout_sha256.json"
_HOLDOUT_SLACKS = (1.05, 0.5)
_TAIL_SLACKS = (1.05, 0.3)


def _feed(digest, values):
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(repr(value.shape).encode() + value.astype(float).tobytes())
        elif isinstance(value, (bool, np.bool_)):
            digest.update(repr(bool(value)).encode())
        elif isinstance(value, (int, np.integer)):
            digest.update(repr(int(value)).encode())
        else:
            digest.update(repr(float(value)).encode())
        digest.update(b",")


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        _feed(digest, record)
        digest.update(b";")
    return digest.hexdigest()


def _check_entry(report):
    return {"num_checked": report.num_checked, "violations": len(report.violations),
            "sha256": _digest(report.violations)}


def _holdout_cases():
    entries = [
        e for e in canned_suite()
        if e.kind == "gpm" and e.expectations.get("bounded_sections")
    ]
    record = {}
    for index, entry in enumerate(entries):
        c_emp, estimate = estimate_lipschitz_modulus(
            entry.payload, SectionSamplerConfig(num_pairs=100, master_seed=derive_seed(900, index))
        )
        record[f"{entry.name}/estimate"] = {
            "num_ratios": estimate.num_ratios,
            "sha256": _digest([(c_emp,), *estimate.trace, estimate.witness_pair]),
        }
        holdout_cfg = SectionSamplerConfig(num_pairs=100, master_seed=derive_seed(901, index))
        for slack in _HOLDOUT_SLACKS:
            holdout = check_lipschitz_holdout(entry.payload, c_emp, holdout_cfg, slack=slack)
            record[f"{entry.name}/holdout{slack}"] = _check_entry(holdout)
    return record


def _curve_entry(radius):
    return {"epsilon": radius.epsilon,
            "sha256": _digest([(radius.c_emp, radius.stabilized), *radius.curve])}


def _tail_cases():
    record = {}
    for e in canned_suite():
        if e.kind == "avi" and "error_bound_c" in e.expectations:
            radius = find_local_radius(e.payload, num_samples=120, master_seed=920)
            record[f"{e.name}/radius"] = _curve_entry(radius)
    for seed in (1, 2, 3):
        inst = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=seed)
        radius = find_local_radius(inst, num_samples=150, master_seed=derive_seed(910, seed))
        record[f"strongly_monotone{seed}/radius"] = _curve_entry(radius)
        trace = annotate_distances(inst, solve(inst, SolverConfig(stop_residual=1e-6)))
        for slack in _TAIL_SLACKS:
            tail = check_tail_bound(trace, radius.c_emp, radius.epsilon, slack=slack)
            record[f"strongly_monotone{seed}/tail{slack}"] = _check_entry(tail)
    return record


def _run_cases():
    return {**_holdout_cases(), **_tail_cases()}


def test_holdout_and_tail_outcomes_are_unchanged():
    expected = json.loads(_RECORD.read_text())
    actual = _run_cases()
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    _RECORD.write_text(json.dumps(_run_cases(), indent=1) + "\n")
