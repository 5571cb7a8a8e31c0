"""The CMS benchmark: every workload, metric and check behind one command.

Usage::

    python3 perfbench/run.py --workload {kernels,guest-jit,paging} \\
        --seed N --seconds S --trace {0,1}

The workloads and why each was chosen are in ``perfbench/workloads.py``;
the layer map is in ``perfbench/layers.py``; ``perfbench/README.md``
explains the metrics.

One run:

1. builds the workload's guests from ``--seed`` and runs each under the
   interpreter-only oracle (``CMSConfig.interpreter_only()``), untimed,
   in this process.  That is the reference;
2. for ``--seconds``, starts repetitions one after another, each in a
   fresh process (``worker.py``).  With ``--trace 0`` every repetition
   is untraced; with ``--trace 1`` untraced and traced repetitions
   alternate, so the traced figures come with their overhead;
3. fails a repetition whose final guest state differs from the
   reference, that raised, that recorded a contained error or an audit
   repair, whose deterministic counters differ from the first
   repetition's, or -- traced -- whose wrapper call counts do not
   reconcile with the CMS's own counters;
4. prints a table, then as the last line one JSON object with the
   medians over repetitions: the end-to-end metrics with ``--trace 0``,
   the per-layer metrics with ``--trace 1``.  Times are scaled by the
   host-speed yardstick timed in the same repetition
   (``common.yardstick``); the table also shows the unscaled medians.

Options for the self-test only: ``--size tiny``, ``--corrupt-reference``
and ``--drop-wrapper NAME``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import common
import layers
import workloads

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mol_per_instr": "mol/instr",
    "pass_rate": "ratio",
}
MIN_UNTRACED = {0: 3, 1: 1}  # per --trace value
MIN_TRACED = {0: 0, 1: 2}
# A run must end within 180 s: the reference takes up to ~15 s, so no
# repetition starts after HARD_STOP_S and none may last REP_TIMEOUT_S.
HARD_STOP_S = 120.0
REP_TIMEOUT_S = 20.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--drop-wrapper", action="append", default=[],
                        choices=layers.WRAPPER_NAMES,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference(leg, seed: int):
    """Interpreter-only final state of one leg."""
    from repro.cms.config import CMSConfig
    from repro.cms.system import CodeMorphingSystem
    from repro.scenarios.runner import _build_machine, _outcome

    machine, entry = _build_machine(leg.program, seed)
    system = CodeMorphingSystem(machine, CMSConfig().interpreter_only())
    result = system.run(entry, max_instructions=leg.program.max_instructions)
    return _outcome(system, leg.program, result)


def corrupt(state):
    ram = bytearray(state.ram)
    ram[0x1000] ^= 0xFF  # the first byte of every guest's code
    return replace(state, ram=bytes(ram))


def spawn(args, traced: bool, index: int) -> tuple[dict | None, str]:
    """One repetition in a fresh process: (record, error text)."""
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": traced,
        "drop": args.drop_wrapper,
        "run_id": f"{args.workload}-seed{args.seed}-rep{index}",
        "spans_path": str(common.OUT / f"{args.workload}.spans"),
    }
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(common.HERE / "worker.py"),
             json.dumps(spec)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {REP_TIMEOUT_S} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"worker exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def signature(record: dict) -> list:
    """Deterministic per-leg facts every repetition must reproduce."""
    from repro.scenarios.runner import _counters

    return [(leg["name"], _counters(leg["stats"])) for leg in record["legs"]]


def check(record: dict, legs, refs) -> list[str]:
    """Why one repetition fails, if it does.  The state comparison is
    the fuzz oracle's ``compare``; like the scenario runner, it ignores
    the delivered-interrupt count of scenarios that leave it unpinned."""
    from repro.fuzz.oracle import compare

    reasons = []
    for leg, ref, got in zip(legs, refs, record["legs"]):
        diffs = compare(ref, common.decode_outcome(got["outcome"]))
        reasons += [f"{leg.name}: {d}" for d in diffs
                    if leg.pin_interrupts
                    or not d.startswith("interrupts_delivered:")]
        if got["contained_errors"] or got["audit_repairs"]:
            reasons.append(f"{leg.name}: contained_errors="
                           f"{got['contained_errors']} audit_repairs="
                           f"{got['audit_repairs']}")
    if "trace" in record:
        stats = {}
        for got in record["legs"]:
            for key, value in got["stats"].items():
                if isinstance(value, int):
                    stats[key] = stats.get(key, 0) + value
        reasons += layers.reconcile(record["trace"]["calls"], stats,
                                    len(record["legs"]))
    return reasons


def measure(args, legs, refs) -> list[dict]:
    """Repetitions for ``--seconds``; each dict has record and reasons."""
    plan = (False,) if args.trace == 0 else (False, True)
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        traced = sum(rep["traced"] for rep in reps)
        enough = traced >= MIN_TRACED[args.trace] and \
            len(reps) - traced >= MIN_UNTRACED[args.trace]
        if (enough and elapsed >= args.seconds) or elapsed > HARD_STOP_S:
            return reps
        is_traced = plan[len(reps) % len(plan)]
        record, error = spawn(args, is_traced, len(reps))
        reasons = [error] if record is None else check(record, legs, refs)
        reps.append({"traced": is_traced, "record": record,
                     "reasons": reasons})


def cross_check(reps: list[dict]) -> None:
    """Fail repetitions whose deterministic facts differ from the first
    completed one's; traced call counts must also agree."""
    done = [rep for rep in reps if rep["record"] is not None]
    if not done:
        return
    first = signature(done[0]["record"])
    for rep in done[1:]:
        if signature(rep["record"]) != first:
            rep["reasons"].append("counters differ between repetitions")
    traced = [rep for rep in done if rep["traced"]]
    for rep in traced[1:]:
        if rep["record"]["trace"]["calls"] != \
                traced[0]["record"]["trace"]["calls"]:
            rep["reasons"].append("call counts differ between traced "
                                  "repetitions")


def mol_per_instr(record: dict) -> float:
    molecules = sum(leg["stats"]["total_molecules"] for leg in record["legs"])
    instructions = sum(leg["stats"]["guest_instructions"]
                       for leg in record["legs"])
    return molecules / instructions


def records(reps: list[dict], traced: bool) -> list[dict]:
    return [rep["record"] for rep in reps
            if rep["record"] is not None and rep["traced"] == traced]


def host_scale(record: dict) -> float:
    """Factor that scales this repetition's times to the nominal host."""
    return common.YARDSTICK_NOMINAL_S / record["yardstick_s"]


def scaled_median(done: list[dict], value) -> float:
    return statistics.median(value(r) * host_scale(r) for r in done)


def end_to_end(reps: list[dict]) -> dict:
    done = records(reps, traced=False)
    failed = sum(bool(rep["reasons"]) for rep in reps)
    values = {"pass_rate": 1.0 - failed / len(reps)}
    if done:
        values["run_s"] = scaled_median(done, lambda r: r["run_s"])
        values["setup_s"] = scaled_median(done, lambda r: r["setup_s"])
        values["peak_rss_mb"] = statistics.median(
            r["peak_rss_mb"] for r in done)
        values["mol_per_instr"] = mol_per_instr(done[0])
    return values


def per_layer(reps: list[dict]) -> dict:
    """Per-layer metric values; self times are medians over traced
    repetitions, scaled like ``run_s``."""
    traced = records(reps, traced=True)
    untraced = records(reps, traced=False)
    if not traced or not untraced:
        return {}
    calls = traced[0]["trace"]["calls"]
    values = {}
    for name in layers.SPAN_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = scaled_median(
            traced, lambda r: r["trace"]["self_s"][name])
    for name in layers.COUNT_NAMES:
        values[name] = calls[name]
    values["cms.dispatches"] = sum(leg["stats"]["dispatches"]
                                   for leg in traced[0]["legs"])
    translate = calls["translator.translate"]
    values["translator.kept_ratio"] = (
        calls["translator.kept"] / translate if translate else 0.0)
    values["trace.overhead_ratio"] = (
        scaled_median(traced, lambda r: r["run_s"])
        / scaled_median(untraced, lambda r: r["run_s"]))
    return values


def print_layer_table(workload: str, values: dict) -> None:
    traced_run_s = sum(values[f"{name}.self_s"]
                       for name in layers.SPAN_NAMES)
    print(f"per-layer self time, {workload}: medians over traced "
          f"repetitions, share of their sum ({traced_run_s:.3f} s)")
    print(f"  {'layer':32s} {'calls':>10s} {'self_s':>9s} {'share':>6s}"
          f"  predicted to move")
    for name in sorted(layers.SPAN_NAMES,
                       key=lambda n: -values[f"{n}.self_s"]):
        self_s = values[f"{name}.self_s"]
        metric, where = layers.LAYERS[name]
        print(f"  {name:32s} {values[f'{name}.calls']:>10d} "
              f"{self_s:>9.4f} {100 * self_s / traced_run_s:>5.1f}%"
              f"  {' '.join(metric)} on {', '.join(where)}")
    for name in (*layers.COUNT_NAMES, "cms.dispatches",
                 "translator.kept_ratio", "trace.overhead_ratio"):
        print(f"  {name:32s} {values[name]:>10.4g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no CMS source tree at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.OUT.mkdir(exist_ok=True)

    legs = workloads.build(args.workload, args.seed, args.size)
    refs = [reference(leg, args.seed) for leg in legs]
    if args.corrupt_reference:
        refs = [corrupt(ref) for ref in refs]
    reps = measure(args, legs, refs)
    cross_check(reps)

    for index, rep in enumerate(reps):
        for reason in rep["reasons"]:
            print(f"repetition {index} failed: {reason}", file=sys.stderr)
    failed = sum(bool(rep["reasons"]) for rep in reps)

    if args.trace == 0:
        values, units = end_to_end(reps), E2E_UNITS
        print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
              f"{failed} failed")
        for name, value in values.items():
            print(f"  {name:14s} {value:.6g} {units[name]}")
        done = records(reps, traced=False)
        if done:
            print("  unscaled medians: " + ", ".join(
                f"{name} {statistics.median(r[name] for r in done):.4g} s"
                for name in ("run_s", "setup_s", "yardstick_s")))
    else:
        values, units = per_layer(reps), layers.UNITS
        if values:
            print_layer_table(args.workload, values)
    print(json.dumps({
        "correct": failed == 0 and set(values) == set(units),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
