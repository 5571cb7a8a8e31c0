"""Shared test helpers.

The central correctness instrument is ``run_both``: execute the same
program on the pure interpreter (the reference) and under full CMS, and
compare architectural outcomes.  For deterministic workloads (no
asynchronous interrupts or DMA races) the comparison is exact: final
registers, flags, console output, and RAM contents.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import pytest

from repro import CMSConfig, CodeMorphingSystem, Machine, run_reference
from repro.machine import MachineConfig

# ----------------------------------------------------------------------
# Reproducible randomness: every random-using test (hypothesis property
# tests and the `fuzz_seed` fixture) derives its seed from one session
# seed, settable with `--fuzz-seed N` and printed in the header and on
# every failure.  Without the option a fresh seed is drawn per session,
# so repeated CI runs still explore new ground — reproducibly.
# ----------------------------------------------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed", type=int, default=None,
        help="session seed for property tests and fuzz fixtures "
             "(default: random, printed in the header)",
    )


def pytest_configure(config):
    seed = config.getoption("--fuzz-seed")
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    config._fuzz_session_seed = seed


def pytest_report_header(config):
    return (f"fuzz seed: {config._fuzz_session_seed} "
            f"(reproduce with --fuzz-seed={config._fuzz_session_seed})")


def _item_seed(item) -> int:
    """Per-test seed: stable across runs for a fixed session seed, but
    distinct between tests so they don't all walk the same stream."""
    return (item.config._fuzz_session_seed
            ^ zlib.crc32(item.nodeid.encode())) & 0xFFFFFFFF


@pytest.hookimpl(hookwrapper=True)
def pytest_collection_modifyitems(config, items):
    yield
    try:
        import hypothesis
    except ImportError:
        return
    for item in items:
        func = getattr(item, "obj", None)
        if func is None or not hasattr(func, "hypothesis"):
            continue
        # Bound methods reject attribute writes; seed the function.
        target = getattr(func, "__func__", func)
        hypothesis.seed(_item_seed(item))(target)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        seed = item.config._fuzz_session_seed
        report.sections.append((
            "fuzz seed",
            f"session seed {seed}; rerun with "
            f"`--fuzz-seed={seed}` to reproduce",
        ))


@pytest.fixture
def fuzz_seed(request) -> int:
    """A per-test seed derived from the session ``--fuzz-seed``."""
    return _item_seed(request.node)


@dataclass
class BothResults:
    ref_system: CodeMorphingSystem
    cms_system: CodeMorphingSystem
    ref_result: object
    cms_result: object

    @property
    def ref_machine(self) -> Machine:
        return self.ref_system.machine

    @property
    def cms_machine(self) -> Machine:
        return self.cms_system.machine


def build_machine(machine_config: MachineConfig | None = None) -> Machine:
    return Machine(machine_config)


# ----------------------------------------------------------------------
# Reference pins: each puts one slow path back under a built system, so
# a test can compare the fast machinery against what it replaced.
# ----------------------------------------------------------------------


def pin_vliw(system: CodeMorphingSystem) -> None:
    """Run every translation on the simulated VLIW, never the template
    JIT (``TemplateJIT.run`` has ``HostCPU.run``'s exact contract)."""
    system.jit.run = system.cpu.run


def pin_uncached_decode(system: CodeMorphingSystem) -> None:
    """Decode every interpreted instruction from its raw bytes."""
    system.interpreter.icache = None


class WalkEveryTime(dict):
    """An MMU ``_tlb`` that never keeps an entry: every access walks the
    guest page table."""

    def __setitem__(self, vpn, pte) -> None:
        pass


def pin_tlb_walks(system: CodeMorphingSystem) -> None:
    system.machine.mmu._tlb = WalkEveryTime()


# Each pin, keyed by the fast machinery it turns off.
REFERENCE_PINS = {
    "decode_cache": pin_uncached_decode,
    "mmu_tlb": pin_tlb_walks,
    "template_jit": pin_vliw,
}


def pin_eager_lowering(system) -> None:
    """Lower every translation on its first entry instead of once warm
    (``TemplateJIT.warm``), so a program too short to warm anything
    still runs its translations as templates.  Not a reference pin: it
    keeps the fast machinery on and only skips the cold tier."""
    system.jit.warm = lambda translation: True


def run_cms(source: str, config: CMSConfig | None = None,
            machine_config: MachineConfig | None = None,
            max_instructions: int = 5_000_000, pins=()):
    machine = Machine(machine_config)
    entry = machine.load_source(source)
    system = CodeMorphingSystem(machine, config or CMSConfig())
    for pin in pins:
        pin(system)
    result = system.run(entry, max_instructions=max_instructions)
    return system, result


def run_workload_cms(workload, config: CMSConfig, pins=()):
    return run_cms(workload.source, config, workload.machine_config,
                   workload.max_instructions, pins)


def run_both(source: str, config: CMSConfig | None = None,
             machine_config: MachineConfig | None = None,
             max_instructions: int = 5_000_000, pins=()) -> BothResults:
    ref_machine = Machine(machine_config)
    ref_entry = ref_machine.load_source(source)
    ref_system = CodeMorphingSystem(
        ref_machine, (config or CMSConfig()).interpreter_only()
    )
    ref_result = ref_system.run(ref_entry, max_instructions=max_instructions)

    cms_machine = Machine(machine_config)
    cms_entry = cms_machine.load_source(source)
    cms_system = CodeMorphingSystem(cms_machine, config or CMSConfig())
    for pin in pins:
        pin(cms_system)
    cms_result = cms_system.run(cms_entry, max_instructions=max_instructions)
    return BothResults(ref_system, cms_system, ref_result, cms_result)


def assert_nothing_contained(system: CodeMorphingSystem) -> None:
    """Outside a chaos run, fail on any contained error or audit repair
    (after a final audit): containment must never hide a bug."""
    if system.config.chaos_rate:
        return
    health = system.health_report(run_audit=True)
    assert not (health.contained_errors or health.audit_repairs), (
        f"containment hid a failure outside a chaos run:\n"
        f"{health.describe()}"
    )


def assert_equivalent(source: str, config: CMSConfig | None = None,
                      machine_config: MachineConfig | None = None,
                      max_instructions: int = 5_000_000,
                      compare_ram: bool = True, pins=()) -> BothResults:
    """Run both engines and assert exact architectural equivalence.

    Outside a chaos run, a contained error or an audit repair on the
    CMS side is a failure too: containment must never hide a bug.
    ``pins`` apply to the CMS side only.
    """
    both = run_both(source, config, machine_config, max_instructions, pins)
    assert_nothing_contained(both.cms_system)
    assert both.ref_result.halted, "reference run did not halt"
    assert both.cms_result.halted, "CMS run did not halt"
    assert both.cms_result.console_output == \
        both.ref_result.console_output, "console output diverged"
    ref_state = both.ref_system.state.snapshot()
    cms_state = both.cms_system.state.snapshot()
    assert cms_state == ref_state, (
        f"architectural state diverged:\n"
        f"  ref {both.ref_system.state.describe()}\n"
        f"  cms {both.cms_system.state.describe()}"
    )
    if compare_ram:
        ref_ram = both.ref_machine.ram.read_bytes(0, both.ref_machine.ram.size)
        cms_ram = both.cms_machine.ram.read_bytes(0, both.cms_machine.ram.size)
        if ref_ram != cms_ram:
            diffs = [i for i in range(len(ref_ram))
                     if ref_ram[i] != cms_ram[i]][:16]
            raise AssertionError(f"RAM diverged at {[hex(d) for d in diffs]}")
    return both


@pytest.fixture
def machine() -> Machine:
    return Machine()
