"""Tests for the perf-regression gate (``benchmarks/compare.py``).

The gate is stdlib-only and lives outside the package, so it is loaded
here straight from its file path.  Coverage pins the contract CI
relies on: counters exact, timing tolerant/advisory, budget mismatch
incomparable, and the 0/1/2 exit-code mapping.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

COMPARE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
)
_spec = importlib.util.spec_from_file_location("bench_compare", COMPARE_PATH)
compare_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_mod)


def report(**overrides) -> dict:
    base = {
        "budget": 20000,
        "workloads": {
            "compress:baseline": {
                "guest_instructions": 20755,
                "interp_seconds": 0.13,
                "optimized_seconds": 0.12,
                "cms_vs_interp_speedup": 1.08,
                "identical_output": True,
            },
        },
    }
    base.update(overrides)
    return base


def test_identical_reports_pass():
    status, findings = compare_mod.compare(report(), report())
    assert status == compare_mod.OK
    assert findings == []


def test_counter_change_is_a_regression():
    current = report()
    current["workloads"]["compress:baseline"]["guest_instructions"] += 1
    status, findings = compare_mod.compare(report(), current)
    assert status == compare_mod.REGRESSION
    assert any("guest_instructions" in f for f in findings)


def test_bool_counter_flip_is_a_regression():
    current = report()
    current["workloads"]["compress:baseline"]["identical_output"] = False
    status, _ = compare_mod.compare(report(), current)
    assert status == compare_mod.REGRESSION


def test_timing_within_band_passes():
    current = report()
    current["workloads"]["compress:baseline"]["optimized_seconds"] = 0.15
    status, findings = compare_mod.compare(
        report(), current, timing_tolerance=0.5
    )
    assert status == compare_mod.OK
    assert findings == []


def test_timing_outside_band_fails_unless_advisory():
    current = report()
    current["workloads"]["compress:baseline"]["optimized_seconds"] = 0.60
    status, findings = compare_mod.compare(report(), current)
    assert status == compare_mod.REGRESSION
    status, findings = compare_mod.compare(
        report(), current, timing_advisory=True
    )
    assert status == compare_mod.OK
    assert any(f.startswith("advisory") for f in findings)


def test_budget_mismatch_is_incomparable():
    status, findings = compare_mod.compare(report(), report(budget=40000))
    assert status == compare_mod.INCOMPARABLE
    assert any("budget" in f for f in findings)


def test_missing_metric_is_incomparable():
    current = report()
    del current["workloads"]["compress:baseline"]["cms_vs_interp_speedup"]
    status, findings = compare_mod.compare(report(), current)
    assert status == compare_mod.INCOMPARABLE


def test_new_metric_is_noted_but_passes():
    current = report()
    current["workloads"]["compress:baseline"]["new_counter"] = 5
    status, findings = compare_mod.compare(report(), current)
    assert status == compare_mod.OK
    assert any("new metrics" in f for f in findings)


def test_timing_key_classification():
    for key in (
        "interp_seconds",
        "optimized_ips",
        "cms_vs_interp_speedup",
    ):
        assert compare_mod.is_timing_key(key), key
    for key in ("guest_instructions", "identical_output", "budget"):
        assert not compare_mod.is_timing_key(key), key


def test_main_exit_codes(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(report()))

    current.write_text(json.dumps(report()))
    assert compare_mod.main([str(baseline), str(current)]) == 0

    regressed = report()
    regressed["workloads"]["compress:baseline"]["guest_instructions"] = 1
    current.write_text(json.dumps(regressed))
    assert compare_mod.main([str(baseline), str(current)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    current.write_text(json.dumps(report(budget=None)))
    assert compare_mod.main([str(baseline), str(current)]) == 2


def test_committed_baseline_matches_gate_budget():
    baseline_path = COMPARE_PATH.parent / "baselines" / "BENCH_wallclock.json"
    baseline = json.loads(baseline_path.read_text())
    # The CI perf-gate runs with REPRO_WALLCLOCK_BUDGET=20000; the
    # committed baseline must have been generated the same way or every
    # gate run would exit 2 (incomparable).
    assert baseline["budget"] == 20000
    assert baseline["workloads"]
