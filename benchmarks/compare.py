"""Diff two BENCH_*.json reports against tolerance bands.

The CI ``perf-gate`` job runs ``bench_wallclock.py`` under a fixed
instruction budget, then invokes this tool against the committed
baseline in ``benchmarks/baselines/``.  Exit status is the gate: 0
when the current report is within tolerance, 1 on any regression, 2
when the reports are not comparable (different budget or structure).

Metric classification follows the observability layer's split:

* **counter metrics** (guest instruction counts, molecule counts,
  ``identical_output`` flags, ...) are deterministic for a fixed
  budget and must match the baseline exactly (``--counter-tolerance``
  can relax this to a relative band if a future metric needs it);
* **timing metrics** (any leaf whose name contains ``seconds``,
  ``ips``, or ``speedup``) are host-dependent and are
  checked against ``--timing-tolerance`` — or only reported, never
  failed, under ``--timing-advisory`` (what CI uses: budgeted smoke
  runs are dominated by startup noise).

Usage::

    python benchmarks/compare.py BASELINE.json CURRENT.json \
        [--timing-advisory | --timing-tolerance 0.5] \
        [--counter-tolerance 0.0]

Stdlib-only on purpose, so the gate runs before any package install.
"""

from __future__ import annotations

import argparse
import json
import sys

TIMING_MARKERS = ("seconds", "ips", "speedup")

OK, REGRESSION, INCOMPARABLE = 0, 1, 2


def is_timing_key(key: str) -> bool:
    return any(marker in key for marker in TIMING_MARKERS)


def flatten(tree: dict, prefix: str = "") -> dict:
    """``{"a": {"b": 1}} -> {"a.b": 1}`` over dicts (lists stay leaves)."""
    flat: dict = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def relative_delta(base, current) -> float:
    if base == current:
        return 0.0
    if not isinstance(base, (int, float)) or isinstance(base, bool):
        return float("inf")
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        return float("inf")
    if base == 0:
        return float("inf")
    return abs(current - base) / abs(base)


def compare(
    baseline: dict,
    current: dict,
    counter_tolerance: float = 0.0,
    timing_tolerance: float = 0.5,
    timing_advisory: bool = False,
) -> tuple[int, list[str]]:
    """Return (exit status, human-readable findings)."""
    findings: list[str] = []
    base_flat = flatten(baseline)
    cur_flat = flatten(current)

    if base_flat.get("budget") != cur_flat.get("budget"):
        findings.append(
            "INCOMPARABLE budget: baseline "
            f"{base_flat.get('budget')!r} vs current "
            f"{cur_flat.get('budget')!r} (regenerate the baseline with "
            "the gate's budget env: REPRO_WALLCLOCK_BUDGET or "
            "REPRO_SCENARIO_BUDGET)"
        )
        return INCOMPARABLE, findings

    missing = sorted(set(base_flat) - set(cur_flat))
    extra = sorted(set(cur_flat) - set(base_flat))
    if missing:
        findings.append(f"INCOMPARABLE missing metrics: {', '.join(missing)}")
    if extra:
        # New metrics are fine (the report grew); note them only.
        findings.append(
            f"note: new metrics not in baseline: {', '.join(extra)}"
        )
    if missing:
        return INCOMPARABLE, findings

    status = OK
    for key in sorted(base_flat):
        base_value = base_flat[key]
        cur_value = cur_flat[key]
        if key == "budget":
            continue
        delta = relative_delta(base_value, cur_value)
        if is_timing_key(key):
            if delta <= timing_tolerance:
                continue
            label = (
                f"timing {key}: baseline {base_value!r} vs "
                f"{cur_value!r} (delta {delta:.1%}, band "
                f"{timing_tolerance:.0%})"
            )
            if timing_advisory:
                findings.append(f"advisory {label}")
            else:
                findings.append(f"REGRESSION {label}")
                status = REGRESSION
        else:
            if delta <= counter_tolerance:
                continue
            findings.append(
                f"REGRESSION counter {key}: baseline {base_value!r} vs "
                f"{cur_value!r}"
            )
            status = REGRESSION
    return status, findings


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json reports; nonzero exit on "
        "regression"
    )
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument("current", help="freshly produced report")
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.0,
        help="relative band for counter metrics (default: exact)",
    )
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=0.5,
        help="relative band for timing metrics (default 0.5)",
    )
    parser.add_argument(
        "--timing-advisory",
        action="store_true",
        help="report timing deviations without failing on them",
    )
    args = parser.parse_args(argv)

    status, findings = compare(
        load(args.baseline),
        load(args.current),
        counter_tolerance=args.counter_tolerance,
        timing_tolerance=args.timing_tolerance,
        timing_advisory=args.timing_advisory,
    )
    for finding in findings:
        print(finding)
    if status == OK:
        print(f"ok: {args.current} within tolerance of {args.baseline}")
    elif status == REGRESSION:
        print("FAIL: perf-gate regression (see findings above)")
    else:
        print("FAIL: reports are not comparable")
    return status


if __name__ == "__main__":
    sys.exit(main())
