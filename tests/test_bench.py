"""The perf harness's regression gate (:func:`repro.bench.compare`).

The measuring half of the harness is exercised by ``repro bench`` in
CI; these tests pin the comparison semantics the CI job relies on:
ratios may wobble within the tolerance, a drop beyond it fails, a
missing gate fails loudly, and reports from different modes refuse to
compare (their workloads differ, so their ratios do too).
"""

from __future__ import annotations

import argparse
import json

import repro.bench
from repro.bench import BENCH_VERSION, GATED_COMPONENTS, compare


def report(mode="quick", **gates):
    # Every synthetic report satisfies the absolute floors by default
    # so the relative-gate tests stay focused on the ratio semantics.
    base = {"batched_service_speedup": 1.4}
    base.update(gates)
    return {"mode": mode, "gates": base}


def test_equal_reports_pass():
    baseline = report(feature_matrix_speedup=10.0, name_clustering_speedup=60.0)
    assert compare(baseline, baseline) == []


def test_wobble_within_tolerance_passes():
    baseline = report(feature_matrix_speedup=10.0)
    current = report(feature_matrix_speedup=8.1)  # -19%, tolerance 20%
    assert compare(current, baseline) == []


def test_drop_beyond_tolerance_fails():
    baseline = report(feature_matrix_speedup=10.0)
    current = report(feature_matrix_speedup=7.9)  # -21%
    failures = compare(current, baseline)
    assert len(failures) == 1
    assert "feature_matrix_speedup" in failures[0]


def test_tolerance_is_configurable():
    baseline = report(feature_matrix_speedup=10.0)
    current = report(feature_matrix_speedup=9.4)
    assert compare(current, baseline, tolerance=0.1) == []
    assert compare(current, baseline, tolerance=0.05) != []


def test_missing_gate_fails():
    baseline = report(feature_matrix_speedup=10.0, name_clustering_speedup=60.0)
    current = report(feature_matrix_speedup=10.0)
    failures = compare(current, baseline)
    assert any("name_clustering_speedup" in f for f in failures)


def test_extra_current_gates_pass_trivially():
    baseline = report(feature_matrix_speedup=10.0)
    current = report(feature_matrix_speedup=10.0, brand_new_speedup=1.0)
    assert compare(current, baseline) == []


def test_mode_mismatch_fails():
    baseline = report(mode="full", feature_matrix_speedup=10.0)
    current = report(mode="quick", feature_matrix_speedup=10.0)
    failures = compare(current, baseline)
    assert any("mode mismatch" in f for f in failures)


def test_improvements_never_fail():
    baseline = report(feature_matrix_speedup=10.0)
    current = report(feature_matrix_speedup=300.0)
    assert compare(current, baseline) == []


def _main_args(**overrides):
    defaults = dict(full=False, seed=7, out=None, compare=None, tolerance=0.2)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def _stub_report(mode="quick"):
    return {
        "schema_version": BENCH_VERSION,
        "mode": mode,
        "seed": 7,
        "python": "3",
        "numpy": "1",
        "components": {},
        "gates": {"feature_matrix_speedup": 10.0},
    }


def test_report_is_stamped_with_schema_version(monkeypatch, tmp_path, capsys):
    """``--out`` reports carry ``schema_version``."""
    monkeypatch.setattr(
        repro.bench, "run_bench", lambda mode, seed: _stub_report(mode)
    )
    out = tmp_path / "BENCH_test.json"
    assert repro.bench.main(_main_args(out=str(out))) == 0
    written = json.loads(out.read_text())
    assert written["schema_version"] == BENCH_VERSION


def test_missing_baseline_warns_and_passes(monkeypatch, tmp_path, capsys):
    """``--compare MISSING`` is a bootstrap case: warning + exit 0."""
    monkeypatch.setattr(
        repro.bench, "run_bench", lambda mode, seed: _stub_report(mode)
    )
    missing = tmp_path / "BENCH_baseline.json"
    assert repro.bench.main(_main_args(compare=str(missing))) == 0
    err = capsys.readouterr().err
    assert "not found" in err
    assert "skipping" in err


def test_present_baseline_still_gates(monkeypatch, tmp_path):
    """A real baseline file keeps the exit-1 regression behaviour."""
    monkeypatch.setattr(
        repro.bench, "run_bench", lambda mode, seed: _stub_report(mode)
    )
    baseline = tmp_path / "BENCH_baseline.json"
    regressing = dict(_stub_report(), gates={"feature_matrix_speedup": 100.0})
    baseline.write_text(json.dumps(regressing))
    assert repro.bench.main(_main_args(compare=str(baseline))) == 1


def test_gated_components_include_the_service_and_smo_ratios():
    # batched_service graduated to gated once the harness was made fair
    # (training hoisted out of the timed region, best-of-N repeats,
    # per-served normalisation)
    assert "batched_service" in GATED_COMPONENTS
    assert "feature_matrix" in GATED_COMPONENTS
    assert "name_clustering" in GATED_COMPONENTS


def test_batched_service_must_strictly_beat_unbatched():
    baseline = report()
    losing = report(batched_service_speedup=0.99)
    failures = compare(losing, baseline)
    assert any(
        "batched_service_speedup" in f and "absolute floor" in f
        for f in failures
    )
    # exactly 1.0 is not a win either: the floor is strict
    at_par = report(batched_service_speedup=1.0)
    assert any(
        "batched_service_speedup" in f for f in compare(at_par, baseline)
    )


def test_absolute_floor_fails_even_when_the_baseline_also_lost():
    """A regressed baseline must not grandfather a losing fast path."""
    both_losing_baseline = report(batched_service_speedup=0.9)
    both_losing_current = report(batched_service_speedup=0.9)
    failures = compare(both_losing_current, both_losing_baseline)
    assert any("batched_service_speedup" in f for f in failures)
