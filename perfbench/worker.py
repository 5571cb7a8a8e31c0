"""One benchmark repetition, in a fresh process.

Usage (by ``run.py``, never by hand)::

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed and size, whether to trace, and the
``time.monotonic()`` reading the parent took just before spawning this
process, so ``setup_s`` covers interpreter start, imports, guest
assembly and ``Machine``/``CodeMorphingSystem`` construction.  The
host-speed yardstick (``common.yardstick``) runs just before and just
after the run, outside both timed spans.  Every
repetition is a fresh process because the template JIT's code cache
(``repro.host.jit._CODE_CACHE``) is process-global: a second run in one
process would skip ``compile()`` and under-report both ``run_s`` and
``host.jit.compile``.

The last stdout line is one JSON object: timings, the deterministic
counters, and each leg's final architectural state for the parent to
compare against the interpreter-only reference.
"""

from __future__ import annotations

import json
import sys
import time

import common


def peak_rss_kib() -> int:
    """This process's peak resident set size.

    ``VmHWM`` rather than ``ru_maxrss``: a child's ``ru_maxrss`` starts
    from the parent's resident size at fork, which here holds the
    interpreter-only reference, so it would measure the parent.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer(spec["run_id"])
        layers.install(tracer, frozenset(spec["drop"]))

    from repro.cms.config import CMSConfig
    from repro.cms.system import CodeMorphingSystem
    from repro.scenarios.runner import _build_machine, _outcome

    import workloads

    config = CMSConfig()
    legs = workloads.build(spec["workload"], spec["seed"], spec["size"])
    systems = []
    for leg in legs:
        machine, entry = _build_machine(leg.program, spec["seed"])
        systems.append((leg, CodeMorphingSystem(machine, config), entry))
    if tracer is not None:
        tracer.reset()

    setup_s = time.monotonic() - spec["spawned"]
    yardstick_before = common.yardstick()
    started = time.monotonic()
    results = [system.run(entry,
                          max_instructions=leg.program.max_instructions)
               for leg, system, entry in systems]
    run_s = time.monotonic() - started
    peak_rss_mb = peak_rss_kib() / 1024

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "yardstick_s": (yardstick_before + common.yardstick()) / 2,
        "peak_rss_mb": peak_rss_mb,
        "legs": [],
    }
    if tracer is not None:
        record["trace"] = tracer.snapshot()
        tracer.write_spans(spec["spans_path"])
    for (leg, system, _), result in zip(systems, results):
        health = system.health_report(run_audit=True)
        record["legs"].append({
            "name": leg.name,
            "outcome": common.encode_outcome(
                _outcome(system, leg.program, result)),
            "stats": system.stats.as_dict(config.cost),
            "contained_errors": health.contained_errors,
            "audit_repairs": health.audit_repairs,
        })
    return record


if __name__ == "__main__":
    sys.path.insert(0, str(common.SRC))
    print(json.dumps(main(json.loads(sys.argv[1]))))
