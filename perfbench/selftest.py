"""Self-test of the benchmark: proves each check can fail.

Usage::

    python3 perfbench/selftest.py

Runs ``perfbench/run.py`` at the tiny size and checks that

* every metric named in ``BENCHMARK.json`` prints with its unit, on
  every workload, traced and untraced;
* a corrupted reference fails every repetition (``pass_rate`` 0);
* removing one layer wrapper makes count reconciliation fail;
* a missing or unknown workload name is rejected, and so is a run from
  a directory that holds only ``BENCHMARK.json`` and ``perfbench/``.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common
import workloads

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
RECONCILED = ("host.cpu.rollback", "host.jit.compile", "translator.kept")

failures: list[str] = []


def run(*argv: str, root=common.ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        failures.append(what)


def tiny(workload: str, trace: int, *extra: str):
    return run("--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra)


def metrics_match(result: dict | None, section: str) -> bool:
    if result is None:
        return False
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return got == wanted and all(
        isinstance(m["value"], (int, float))
        for m in result["metrics"].values())


def main() -> int:
    for workload in workloads.NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = tiny(workload, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{workload} trace {trace}: clean run")
            expect(metrics_match(result, section),
                   f"{workload} trace {trace}: every {section} metric "
                   f"with its unit")

    code, result, _ = tiny("guest-jit", 0, "--corrupt-reference")
    expect(code == 0 and result is not None and not result["correct"]
           and result["failed"] == result["attempted"]
           and result["metrics"]["pass_rate"]["value"] == 0.0,
           "corrupted reference: every repetition fails")

    for name in RECONCILED:
        code, result, stderr = tiny("guest-jit", 1, "--drop-wrapper", name)
        expect(code == 0 and result is not None and not result["correct"]
               and f"reconcile {name}" in stderr,
               f"wrapper {name} removed: reconciliation fails")

    code, result, _ = run("--seed", "1", "--seconds", "1", "--trace", "0")
    expect(code != 0 and result is None, "missing workload is rejected")
    code, result, _ = run("--workload", "nope", "--seconds", "1")
    expect(code != 0 and result is None, "unknown workload is rejected")

    bare = common.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    for path in common.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, result, _ = run("--workload", "kernels", "--seconds", "1",
                              root=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None,
           "run without the source tree fails without a result")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
