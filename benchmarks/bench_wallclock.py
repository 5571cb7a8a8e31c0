"""Wall-clock performance of the simulator itself.

Every other benchmark in this directory compares *molecule counts* —
the paper's metric, measuring the quality of the code CMS generates.
This one times the *host*: how many guest instructions per second the
reproduction retires, and how much the host-speed dials in
``CMSConfig`` (``HOST_SPEED_DIALS``: the decode cache, the template JIT
and the software TLB) buy over the seed's execution paths.  The two
metrics are deliberately orthogonal: every row below asserts that
console output and molecule counts are bit-identical with the
optimizations on and off, so the dials can never change *what* is
computed, only how fast the host computes it.

Coverage: one boot (``dos_boot``), one app kernel (``compress``), and
one SMC-heavy workload (``quake_demo2``, the self-modifying renderer).
Each translating row also times an interpreter-only run of the same
workload, and the **headline gate** asserts the paper's premise holds
in wall-clock terms: with the template JIT on, the CMS path beats
interpretation on every workload (``cms_vs_interp_speedup >= 1.0``,
measured margins are 1.6-3.7x).  The interpreter-dominated quake row
keeps its own 2x optimized-vs-seed gate.

The ablation attributes the win per dial, each measured best-of-3 on a
run mode where its mechanism is actually live (the template JIT is a
no-op interpreter-only; the decode cache is most of the interpreter's
win).  ``decode_cache`` and ``template_jit`` have decisive margins and
hard floors; ``mmu_tlb`` gates at "never hurts" (>= 0.85 best-of-3).
Every host-speed dial has exactly one row here (a tier-1 test pins
this), so a dial cannot exist without its measurement.

Superblock traces change the comparison's character: unlike the host
dials above, trace formation changes *what code CMS generates*, so
molecule counts legitimately differ with traces on and off.  The trace
section therefore asserts console identity only, and reports both
metrics sides by side: wall clock (best of 3 per side) and the
deterministic code-quality counters — executed host molecules, the
end-to-end mol/instr metric, and the scheduler cost model's modeled
cycles per translated instruction (``modeled_cycles_translated /
guest_instructions_translated``), all pinned exactly by the perf gate
at fixed budget.  The full-budget gates put the teeth where the signal
is: every workload that forms a trace must *execute* strictly fewer
host molecules with traces on (the unroll judge's promise, checked
end-to-end), at least one workload must improve the paper's mol/instr
metric outright (quake_demo2 — long enough that the one-time
translation charge amortizes), and wall clock may never fall below the
never-catastrophic floor.  Wall-clock *improvement* is reported but
floor-gated only at 0.9x: the measured execution win (7-19% fewer
molecules) is worth a few percent of host time at these run lengths,
which is inside run-to-run noise on a shared runner (see
EXPERIMENTS.md, "Trace formation").

Results land in three places: the usual ``results.txt`` table, a
machine-readable ``BENCH_wallclock.json`` at the repo root, and the
pytest output.  ``REPRO_WALLCLOCK_BUDGET=<n>`` caps every run at n
guest instructions for CI smoke runs; with a reduced budget every
timing assertion is skipped (startup costs dominate tiny runs) but
identity and report shape are still checked.
"""

from __future__ import annotations

import json
import os

from common import BASELINE, emit_telemetry, print_table, run_timed

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_wallclock.json")

# (workload, role, interpreter-only?) rows.  The interpreter-only
# quake_demo2 row is the "interpreter-dominated workload" of the
# original acceptance criterion: no translations, every instruction
# through decode+dispatch, SMC stores invalidating the decode cache.
ROWS = [
    ("dos_boot", "boot", False),
    ("compress", "app", False),
    ("quake_demo2", "smc", False),
    ("quake_demo2", "interp", True),
]
INTERP_DOMINATED = ("quake_demo2", True)

MIN_SPEEDUP = 2.0  # interp-dominated row, optimized vs seed paths
MIN_CMS_SPEEDUP = 1.0  # every workload: CMS path vs interpreter-only

# Per-dial ablation: (dial, workload, interp_only?, min slowdown_without).
# Each dial is measured on a mode where its mechanism is exercised;
# floors below 1.0 are noise guards for percent-level dials (see module
# docstring), not claims that the dial is free.
ABLATIONS = (
    ("decode_cache", "compress", True, 1.3),
    ("template_jit", "compress", False, 1.5),
    # The software TLB is live only once the guest turns paging on
    # (dos_boot never does): with it off, every access (and every
    # dispatcher mapping probe) walks the guest page table through the
    # bus.  winnt_boot pages from early in its boot.
    ("mmu_tlb", "winnt_boot", True, 0.85),
)
ABLATION_ROUNDS = 3  # best-of-N timing for every ablation config

# Superblock traces (PR 7): on/off per workload, best-of-3 each side.
# quake_demo2 is the workload where the mechanism pays off end to end
# (hot render loops promote to unrolled traces and the run is long
# enough to amortize the translation charge); compress and dos_boot
# mostly measure that trace formation never costs more than the floor
# allows.
TRACE_ROWS = ("compress", "dos_boot", "quake_demo2")
MIN_TRACE_BEST_SPEEDUP = 0.9  # the best row must be near-par or better
# Per-row catastrophe floor only: in-suite timing (one long-lived pytest
# process, dozens of runs of allocator/GC pressure ahead of this bench)
# swings individual rows far more than standalone best-of-3 does —
# quake has measured 0.67x in-suite minutes after 1.06x standalone.
MIN_TRACE_FLOOR = 0.5


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


def _config(interp_only: bool, **dials):
    config = BASELINE.interpreter_only() if interp_only else BASELINE
    if dials:
        from dataclasses import replace
        config = replace(config, **dials)
    return config


def _modeled_per_instr(result) -> float:
    """Modeled cycles per *translated* guest instruction — the static
    schedule-quality counter, deterministic for a fixed budget."""
    stats = result.system.stats
    if not stats.guest_instructions_translated:
        return 0.0
    return round(stats.modeled_cycles_translated
                 / stats.guest_instructions_translated, 4)


def _measure(name: str, interp_only: bool, budget: int | None) -> dict:
    optimized = _config(interp_only)
    seed = optimized.seed_performance()
    seed_secs, seed_result = run_timed(name, seed, budget)
    opt_secs, opt_result = run_timed(name, optimized, budget)
    # The dials must be invisible to everything the paper measures.
    # With the template JIT among them, this doubles as a system-level
    # JIT-vs-simulated-VLIW identity check on every benchmark workload.
    assert opt_result.console_output == seed_result.console_output, (
        f"{name}: console output diverged with optimizations on"
    )
    assert opt_result.total_molecules == seed_result.total_molecules, (
        f"{name}: molecule counts diverged with optimizations on"
    )
    assert opt_result.guest_instructions == seed_result.guest_instructions
    instructions = opt_result.guest_instructions
    row = {
        "config": "interp-only" if interp_only else "baseline",
        "guest_instructions": instructions,
        "seed_seconds": round(seed_secs, 4),
        "optimized_seconds": round(opt_secs, 4),
        "seed_ips": round(instructions / seed_secs) if seed_secs else 0,
        "optimized_ips": round(instructions / opt_secs) if opt_secs else 0,
        "speedup": round(seed_secs / opt_secs, 3) if opt_secs else 0.0,
        "molecules_per_instruction": round(opt_result.mpx, 3),
        "identical_output": True,
    }
    if not interp_only:
        # The headline measurement: the translating CMS path against a
        # pure-interpretation run of the same guest.
        interp_secs, interp_result = run_timed(
            name, _config(True), budget)
        assert interp_result.console_output == opt_result.console_output, (
            f"{name}: console output diverged vs the interpreter"
        )
        row["interp_seconds"] = round(interp_secs, 4)
        row["cms_vs_interp_speedup"] = (
            round(interp_secs / opt_secs, 3) if opt_secs else 0.0
        )
        row["jit_dispatches"] = opt_result.system.stats.jit_dispatches
        row["modeled_cycles_per_instr"] = _modeled_per_instr(opt_result)
    return row


def _best_of(name: str, config, budget: int | None,
             rounds: int = ABLATION_ROUNDS) -> tuple[float, object]:
    best_secs, best_result = run_timed(name, config, budget)
    for _ in range(rounds - 1):
        secs, result = run_timed(name, config, budget)
        if secs < best_secs:
            best_secs, best_result = secs, result
    return best_secs, best_result


def _ablate(budget: int | None) -> dict:
    """Per-dial attribution: all-on vs exactly one dial off, each on a
    run mode where the dial's mechanism is live, best-of-N both sides."""
    out = {}
    all_on_cache: dict[tuple[str, bool], tuple[float, object]] = {}
    for dial, name, interp_only, minimum in ABLATIONS:
        key = (name, interp_only)
        if key not in all_on_cache:
            all_on_cache[key] = _best_of(name, _config(interp_only), budget)
        all_on_secs, all_on = all_on_cache[key]
        secs, result = _best_of(
            name, _config(interp_only, **{dial: False}), budget)
        assert result.console_output == all_on.console_output, dial
        assert result.total_molecules == all_on.total_molecules, dial
        out[dial] = {
            "workload": name,
            "mode": "interp-only" if interp_only else "baseline",
            "all_on_seconds": round(all_on_secs, 4),
            "seconds_without": round(secs, 4),
            "slowdown_without": round(secs / all_on_secs, 3)
            if all_on_secs else 0.0,
            "min_slowdown": minimum,
        }
    return out


def _trace_compare(budget: int | None) -> dict:
    """Trace formation on vs off, best-of-N wall clock per side.

    Console output must be identical — traces may change the generated
    code (molecule counts differ by design) but never what the guest
    computes.  Alongside wall clock, each row reports the cost model's
    modeled cycles per translated instruction and the trace-shape
    counters, all deterministic at fixed budget."""
    from dataclasses import replace

    out = {}
    for name in TRACE_ROWS:
        on_secs, on = _best_of(name, BASELINE, budget)
        off_secs, off = _best_of(
            name, replace(BASELINE, trace_formation=False), budget)
        assert on.console_output == off.console_output, (
            f"{name}: console output diverged with trace formation on"
        )
        assert on.guest_instructions == off.guest_instructions, (
            f"{name}: guest instruction counts diverged with traces on"
        )
        stats = on.system.stats
        out[name] = {
            "on_seconds": round(on_secs, 4),
            "off_seconds": round(off_secs, 4),
            "trace_speedup": round(off_secs / on_secs, 3)
            if on_secs else 0.0,
            "host_molecules_on": stats.host_molecules,
            "host_molecules_off": off.system.stats.host_molecules,
            "mpx_on": round(on.mpx, 3),
            "mpx_off": round(off.mpx, 3),
            "modeled_cycles_per_instr_on": _modeled_per_instr(on),
            "modeled_cycles_per_instr_off": _modeled_per_instr(off),
            "traces_formed": stats.traces_formed,
            "trace_promotions": stats.trace_promotions,
            "trace_splits": stats.trace_splits,
            "identical_output": True,
        }
    return out


def _collect() -> dict:
    budget = _budget()
    workloads = {}
    for name, role, interp_only in ROWS:
        key = f"{name}:{'interp' if interp_only else 'baseline'}"
        workloads[key] = {"workload": name, "role": role,
                          **_measure(name, interp_only, budget)}
    return {
        "budget": budget,
        "workloads": workloads,
        "ablation": _ablate(budget),
        "traces": _trace_compare(budget),
    }


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
        cms = row.get("cms_vs_interp_speedup")
        vs_interp = f"  vs-interp {cms:.2f}x" if cms is not None else ""
        table.append((
            key,
            f"{row['optimized_ips']:>9,} ips  "
            f"(seed {row['seed_ips']:>9,})  "
            f"speedup {row['speedup']:.2f}x{vs_interp}",
        ))
    for dial, entry in report["ablation"].items():
        table.append((
            f"ablate {dial}",
            f"{entry['slowdown_without']:.2f}x slower without  "
            f"({entry['workload']}, {entry['mode']}, "
            f"best of {ABLATION_ROUNDS})",
        ))
    for name, entry in report["traces"].items():
        saved = 1.0 - (entry["host_molecules_on"]
                       / entry["host_molecules_off"]
                       if entry["host_molecules_off"] else 1.0)
        table.append((
            f"traces {name}",
            f"{entry['trace_speedup']:.2f}x vs traces-off  "
            f"({saved:.1%} fewer molecules executed, "
            f"mpx {entry['mpx_on']:.2f} vs {entry['mpx_off']:.2f}, "
            f"modeled {entry['modeled_cycles_per_instr_on']:.2f} vs "
            f"{entry['modeled_cycles_per_instr_off']:.2f} cyc/instr, "
            f"{entry['traces_formed']} traces)",
        ))
    budget = report["budget"]
    print_table(
        "Wall-clock (host instructions/second, optimizations vs seed)",
        table,
        footer=f"budget={'full' if budget is None else budget}; "
               "output and molecule counts identical in every row",
    )


def _check(report: dict) -> None:
    key = (f"{INTERP_DOMINATED[0]}:"
           f"{'interp' if INTERP_DOMINATED[1] else 'baseline'}")
    dominated = report["workloads"][key]
    for row in report["workloads"].values():
        assert row["identical_output"]
        assert row["optimized_ips"] > 0
    for entry in report["traces"].values():
        assert entry["identical_output"]
    if report["budget"] is not None:
        return  # CI smoke: identity and shape only; timing is noise.
    assert dominated["speedup"] >= MIN_SPEEDUP, (
        f"interpreter-dominated speedup {dominated['speedup']:.2f}x "
        f"< {MIN_SPEEDUP}x"
    )
    # The headline gate: the CMS path must beat interpretation in
    # wall-clock terms on every workload (the paper's premise).
    for key, row in report["workloads"].items():
        cms = row.get("cms_vs_interp_speedup")
        if cms is None:
            continue
        assert cms >= MIN_CMS_SPEEDUP, (
            f"{key}: CMS path is slower than the interpreter "
            f"({cms:.3f}x < {MIN_CMS_SPEEDUP}x)"
        )
        assert row["jit_dispatches"] > 0, (
            f"{key}: template JIT never dispatched on a translating run"
        )
    for dial, entry in report["ablation"].items():
        assert entry["slowdown_without"] >= entry["min_slowdown"], (
            f"ablation {dial}: {entry['slowdown_without']:.3f}x < "
            f"{entry['min_slowdown']}x on {entry['workload']} "
            f"({entry['mode']})"
        )
    # Trace formation.  The deterministic gates carry the claim: every
    # workload that formed a trace must execute strictly fewer host
    # molecules, and at least one must improve end-to-end mol/instr
    # (amortizing its translation charge).  Wall clock is floor-gated
    # only — the few-percent execution win is real but inside runner
    # noise at these run lengths.
    mpx_improved = []
    for name, entry in report["traces"].items():
        if entry["traces_formed"]:
            assert entry["host_molecules_on"] < \
                entry["host_molecules_off"], (
                    f"traces {name}: formed {entry['traces_formed']} "
                    f"traces yet executed no fewer molecules "
                    f"({entry['host_molecules_on']} vs "
                    f"{entry['host_molecules_off']})"
                )
        if entry["mpx_on"] < entry["mpx_off"]:
            mpx_improved.append(name)
    assert mpx_improved, (
        "no workload improved mol/instr with traces on: "
        + str({name: (entry["mpx_on"], entry["mpx_off"])
               for name, entry in report["traces"].items()})
    )
    trace_speedups = {name: entry["trace_speedup"]
                      for name, entry in report["traces"].items()}
    best = max(trace_speedups.values())
    assert best >= MIN_TRACE_BEST_SPEEDUP, (
        f"every workload regressed past near-par with traces on "
        f"(best {best:.3f}x < {MIN_TRACE_BEST_SPEEDUP}x: "
        f"{trace_speedups})"
    )
    for name, speedup in trace_speedups.items():
        assert speedup >= MIN_TRACE_FLOOR, (
            f"traces {name}: {speedup:.3f}x < floor {MIN_TRACE_FLOOR}x"
        )


if __name__ == "__main__":
    report = _collect()
    _emit(report)
    _check(report)
    print("ok")
