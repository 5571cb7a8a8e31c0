"""Layer-by-layer tracing of the CMS, taken from outside the program.

``install`` wraps public functions of ``src/repro/`` modules at class or
module level.  It must run before any ``Machine`` or
``CodeMorphingSystem`` is built: the template JIT binds bound methods
such as ``cpu.commit``, ``cpu._load`` and ``machine.ram.read32`` into
generated code when it lowers a translation, and the CMS registers
``smc.on_ram_write`` as a bus store observer at construction.  A
method patched afterwards would be missed by those call sites.

Two kinds of wrapper:

* a *span* wrapper times the call.  It records a span (id, name,
  parent id, start, end) in memory and charges the call's self time --
  its duration minus the time of its child spans -- to its metric;
* a *count* wrapper only counts calls.  It is used where a timer would
  cost more than the work it times (RAM accessors, tcache inserts).

``LAYERS`` is the layer map: for each per-layer metric, the end-to-end
metric it should move and the workload where it should show.  Later
changes cite these names.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (metric, module, class or None for a module-level function, attributes).
# Several attributes may share one metric.
SPANS = (
    ("cms.dispatch", "repro.cms.system", "CodeMorphingSystem", ("run",)),
    ("interp.step", "repro.interp.interpreter", "Interpreter", ("step",)),
    ("translator.translate", "repro.translator.translator", "Translator",
     ("translate",)),
    ("host.jit.compile", "repro.host.jit", None, ("compile_translation",)),
    ("host.jit.run", "repro.host.jit", "TemplateJIT", ("run",)),
    ("host.cpu.run", "repro.host.cpu", "HostCPU", ("run",)),
    ("host.cpu.commit", "repro.host.cpu", "HostCPU", ("commit",)),
    ("host.cpu.rollback", "repro.host.cpu", "HostCPU", ("rollback",)),
    ("host.store_buffer.drain", "repro.host.store_buffer",
     "GatedStoreBuffer", ("drain",)),
    ("memory.bus.read", "repro.memory.bus", "MemoryBus", ("read",)),
    ("memory.bus.write", "repro.memory.bus", "MemoryBus", ("write",)),
    ("memory.bus.read_code_bytes", "repro.memory.bus", "MemoryBus",
     ("read_code_bytes",)),
    ("memory.mmu.translate", "repro.memory.mmu", "MMU", ("translate",)),
    ("memory.mmu.probe", "repro.memory.mmu", "MMU", ("probe",)),
    ("memory.protection.check_store", "repro.memory.protection",
     "ProtectionMap", ("check_store",)),
    ("cms.smc.on_ram_write", "repro.cms.smc", "SMCManager",
     ("on_ram_write",)),
    ("cms.smc.service", "repro.cms.smc", "SMCManager",
     ("service_inline", "on_protection_fault", "on_self_check_fail",
      "on_prologue_success")),
    ("cache.tcache.lookup", "repro.cache.tcache", "TranslationCache",
     ("lookup",)),
    ("devices.tick", "repro.machine", "Machine", ("tick",)),
)

COUNTS = (
    ("memory.ram.reads", "repro.memory.physical", "PhysicalMemory",
     ("read8", "read16", "read32", "read_bytes")),
    ("memory.ram.writes", "repro.memory.physical", "PhysicalMemory",
     ("write8", "write16", "write32", "write_bytes")),
    ("translator.kept", "repro.cache.tcache", "TranslationCache",
     ("insert",)),
)

SPAN_NAMES = tuple(name for name, *_ in SPANS)
COUNT_NAMES = tuple(name for name, *_ in COUNTS)
WRAPPER_NAMES = SPAN_NAMES + COUNT_NAMES

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict.fromkeys(COUNT_NAMES, "count"),
    "cms.dispatches": "count",
    "translator.kept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# The layer map: metric -> (end-to-end metrics it should move, the
# workloads where that should show).  perfbench/README.md gives the
# measured shares and the predictions that failed.
RUN = ("run_s",)
MEMORY = (("run_s", "peak_rss_mb"), ("kernels", "paging"))
LAYERS = {
    "cms.dispatch": (RUN, ("guest-jit",)),
    "cms.dispatches": (RUN, ("guest-jit",)),
    "interp.step": (RUN, ("guest-jit", "paging")),
    "translator.translate": (("run_s", "mol_per_instr"), ("paging",)),
    "translator.kept": (("run_s", "mol_per_instr"), ("paging",)),
    "translator.kept_ratio": (("run_s", "mol_per_instr"), ("paging",)),
    "host.jit.compile": (RUN, ("paging",)),
    "host.jit.run": (RUN, ("kernels",)),
    "host.cpu.run": (RUN, ("kernels", "guest-jit")),
    "host.cpu.commit": (RUN, ("kernels", "guest-jit")),
    "host.cpu.rollback": (RUN, ("kernels", "guest-jit")),
    "host.store_buffer.drain": (RUN, ("kernels", "guest-jit")),
    "memory.bus.read": MEMORY,
    "memory.bus.write": MEMORY,
    "memory.bus.read_code_bytes": MEMORY,
    "memory.mmu.translate": MEMORY,
    "memory.mmu.probe": MEMORY,
    "memory.protection.check_store": MEMORY,
    "memory.ram.reads": MEMORY,
    "memory.ram.writes": MEMORY,
    "cms.smc.on_ram_write": (("run_s", "mol_per_instr"),
                             ("guest-jit", "paging")),
    "cms.smc.service": (("run_s", "mol_per_instr"), ("guest-jit", "paging")),
    "cache.tcache.lookup": (RUN, ("guest-jit",)),
    "devices.tick": (RUN, ("paging",)),
    "trace.overhead_ratio": ((), ()),
}


class Tracer:
    """Per-process span recorder; one per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.calls = dict.fromkeys(WRAPPER_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        # Flat (id, name index, parent id, start ns, end ns) records.
        self.spans = array("q")
        self.current = -1  # id of the open span; -1 at the root
        self.next_id = 0
        self._child_ns: list[int] = []  # child time of each open span

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work)."""
        for name in self.calls:
            self.calls[name] = 0
        for name in self.self_ns:
            self.self_ns[name] = 0
        del self.spans[:]
        self.next_id = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
        }

    def write_spans(self, path) -> None:
        """Write the in-memory spans once: a JSON header line with the
        run id all of them share, then the raw native int64 records."""
        header = {"run_id": self.run_id, "names": list(SPAN_NAMES),
                  "fields": ["id", "name", "parent", "start_ns", "end_ns"],
                  "count": len(self.spans) // 5}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(handle)

    def span_wrapper(self, name: str, fn):
        index = SPAN_NAMES.index(name)
        calls = self.calls
        self_ns = self.self_ns
        child_ns = self._child_ns
        record = self.spans.extend
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            span_id = self.next_id
            self.next_id = span_id + 1
            self.current = span_id
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_ns[name] += duration - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration
                self.current = parent
                record((span_id, index, parent, start, end))

        return wrapper

    def count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer, skip: frozenset[str] = frozenset()) -> None:
    """Wrap every layer function, except the metrics named in ``skip``
    (the self-test drops one to prove reconciliation notices)."""
    unknown = skip - set(WRAPPER_NAMES)
    if unknown:
        raise ValueError(f"unknown wrapper(s): {sorted(unknown)}")
    for table, make in ((SPANS, tracer.span_wrapper),
                        (COUNTS, tracer.count_wrapper)):
        for name, module_name, class_name, attributes in table:
            if name in skip:
                continue
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            for attribute in attributes:
                setattr(owner, attribute,
                        make(name, getattr(owner, attribute)))


def reconcile(calls: dict, stats: dict, legs: int) -> list[str]:
    """Identities between wrapper call counts and the CMS's own
    counters; each broken one means a wrapper missed calls."""
    problems = [
        f"reconcile {name}: calls={calls[name]} expected={value}"
        for name, value in (
            ("cms.dispatch", legs),
            ("host.jit.compile",
             stats["jit_compiles"] + stats["jit_compile_failures"]),
            ("host.jit.run", stats["jit_dispatches"]),
            ("host.cpu.rollback", stats["rollbacks"]),
        ) if calls[name] != value]
    # Every tcache insert is a fresh translation or a translation-group
    # reactivation.  The dispatcher path counts a reactivation twice in
    # ``group_reactivations`` (once in SMCManager, once in the CMS), so
    # only bounds can be derived for the reactivation share.
    kept, made = calls["translator.kept"], stats["translations_made"]
    if not made <= kept <= made + stats["group_reactivations"]:
        problems.append(f"reconcile translator.kept: calls={kept} outside "
                        f"[{made}, {made + stats['group_reactivations']}]")
    return problems
