"""Wall-clock performance of the simulator itself.

Every other benchmark in this directory compares *molecule counts* —
the paper's metric, measuring the quality of the code CMS generates.
This one times the *host*: how many guest instructions per second the
reproduction retires, with the interpreter's decode cache, the template
JIT and the software TLB always on.

Coverage: one boot (``dos_boot``), one app kernel (``compress``), and
one SMC-heavy workload (``quake_demo2``, the self-modifying renderer).
Each row also times an interpreter-only run of the same workload and
asserts its console output matches.  The **headline gate** asserts the
paper's premise holds in wall-clock terms: the CMS path beats
interpretation on every workload (``cms_vs_interp_speedup >= 1.0``,
measured margins are 1.4-3.7x), and the template JIT actually
dispatched and lowered code.

Beside the timings, each row records exact engagement counters: the
decode cache's hits and misses, ``jit_dispatches``, ``jit_compiles``
(templates lowered: only warm translations get one, so a dispatch alone
does not prove the template ran) and ``jit_slow_mem_ops`` (JIT memory
accesses that left the inline plain-RAM path).  They are deterministic at a fixed budget, so the
budgeted ``compare.py`` run pins exactly how much each fast path is
used.

Results land in three places: the usual ``results.txt`` table, a
machine-readable ``BENCH_wallclock.json`` at the repo root, and the
pytest output.  ``REPRO_WALLCLOCK_BUDGET=<n>`` caps every run at n
guest instructions for CI smoke runs; with a reduced budget every
timing assertion is skipped (startup costs dominate tiny runs) but
identity, engagement and report shape are still checked.
"""

from __future__ import annotations

import json
import os

from common import BASELINE, emit_telemetry, print_table, run_timed

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_wallclock.json")

# (workload, role) rows, each run translating and interpreter-only.
ROWS = [
    ("dos_boot", "boot"),
    ("compress", "app"),
    ("quake_demo2", "smc"),
]

MIN_CMS_SPEEDUP = 1.0  # every workload: CMS path vs interpreter-only


def _budget() -> int | None:
    raw = os.environ.get("REPRO_WALLCLOCK_BUDGET", "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise SystemExit(
            f"REPRO_WALLCLOCK_BUDGET must be an instruction count, "
            f"got {raw!r}") from None
    if budget <= 0:
        raise SystemExit(
            f"REPRO_WALLCLOCK_BUDGET must be positive, got {budget}")
    return budget


def _modeled_per_instr(result) -> float:
    """Modeled cycles per *translated* guest instruction — the static
    schedule-quality counter, deterministic for a fixed budget."""
    stats = result.system.stats
    if not stats.guest_instructions_translated:
        return 0.0
    return round(stats.modeled_cycles_translated
                 / stats.guest_instructions_translated, 4)


def _measure(name: str, budget: int | None) -> dict:
    secs, result = run_timed(name, BASELINE, budget)
    # The headline measurement: the translating CMS path against a
    # pure-interpretation run of the same guest.
    interp_secs, interp_result = run_timed(
        name, BASELINE.interpreter_only(), budget)
    assert interp_result.console_output == result.console_output, (
        f"{name}: console output diverged vs the interpreter"
    )
    instructions = result.guest_instructions
    system = result.system
    return {
        "config": "baseline",
        "guest_instructions": instructions,
        "optimized_seconds": round(secs, 4),
        "optimized_ips": round(instructions / secs) if secs else 0,
        "molecules_per_instruction": round(result.mpx, 3),
        "identical_output": True,
        "interp_seconds": round(interp_secs, 4),
        "cms_vs_interp_speedup": (
            round(interp_secs / secs, 3) if secs else 0.0),
        "icache_hits": system.icache.hits,
        "icache_misses": system.icache.misses,
        "jit_dispatches": system.stats.jit_dispatches,
        "jit_compiles": system.stats.jit_compiles,
        "jit_slow_mem_ops": system.stats.jit_slow_mem_ops,
        "modeled_cycles_per_instr": _modeled_per_instr(result),
    }


def _collect() -> dict:
    budget = _budget()
    workloads = {}
    for name, role in ROWS:
        workloads[f"{name}:baseline"] = {"workload": name, "role": role,
                                         **_measure(name, budget)}
    return {"budget": budget, "workloads": workloads}


def test_wallclock(benchmark):
    report = benchmark.pedantic(_collect, rounds=1, iterations=1)
    _emit(report)
    _check(report)


def _emit(report: dict) -> None:
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit_telemetry("bench-wallclock", report)
    table = []
    for key, row in report["workloads"].items():
        table.append((
            key,
            f"{row['optimized_ips']:>9,} ips  "
            f"vs-interp {row['cms_vs_interp_speedup']:.2f}x  "
            f"icache {row['icache_hits']:,}/{row['icache_misses']:,}  "
            f"jit {row['jit_dispatches']:,} "
            f"({row['jit_compiles']:,} compiles, "
            f"{row['jit_slow_mem_ops']:,} slow mem ops)",
        ))
    budget = report["budget"]
    print_table(
        "Wall-clock (host instructions/second, CMS vs interpreter-only)",
        table,
        footer=f"budget={'full' if budget is None else budget}; "
               "console output identical to the interpreter in every row; "
               "icache = decode-cache hits/misses",
    )


def _check(report: dict) -> None:
    for key, row in report["workloads"].items():
        assert row["identical_output"]
        assert row["optimized_ips"] > 0
        assert row["icache_hits"] > 0, f"{key}: decode cache never hit"
    if report["budget"] is not None:
        return  # CI smoke: identity and shape only; timing is noise.
    # The headline gate: the CMS path must beat interpretation in
    # wall-clock terms on every workload (the paper's premise).
    for key, row in report["workloads"].items():
        cms = row["cms_vs_interp_speedup"]
        assert cms >= MIN_CMS_SPEEDUP, (
            f"{key}: CMS path is slower than the interpreter "
            f"({cms:.3f}x < {MIN_CMS_SPEEDUP}x)"
        )
        assert row["jit_dispatches"] > 0, (
            f"{key}: template JIT never dispatched on a translating run"
        )
        assert row["jit_compiles"] > 0, (
            f"{key}: no translation warmed up enough to be lowered"
        )


if __name__ == "__main__":
    report = _collect()
    _emit(report)
    _check(report)
    print("ok")
