"""Template-JIT semantics tests (host/jit.py).

``TemplateJIT.run`` has ``HostCPU.run``'s exact contract: with the
simulated VLIW pinned in its place (``conftest.pin_vliw``), every run
must be molecule-identical and architecturally identical — the
generated Python only replaces the simulated VLIW's per-atom dispatch,
never what executes.  These tests pin that contract on the edges where
it is easiest to break: mid-translation faults, alias bailouts, SMC
invalidation, fuel exhaustion, compile failure, the inline
plain-RAM guard at the edges of MMIO pages, and the hand-offs from the
cold tier (the VLIW, until a translation is warm) to the template.
Tests that need a template on a program too short to warm one apply
``conftest.pin_eager_lowering``.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (assert_equivalent, pin_eager_lowering, pin_vliw,
                      run_cms, run_workload_cms)
from repro import CMSConfig
from repro.cache.tcache import Translation
from repro.cms.stats import CMSStats
from repro.cms.system import CodeMorphingSystem
from repro.host import jit as jit_module
from repro.host.atoms import AluOp, Atom, AtomKind
from repro.host.cpu import ExitKind, HostCPU
from repro.host.faults import HostFaultKind
from repro.host.molecule import Molecule
from repro.host.registers import R_EIP, TEMP_BASE
from repro.machine import Machine
from repro.memory.bus import MMIORegion
from repro.memory.finegrain import FineGrainCache
from repro.memory.protection import ProtectionMap
from repro.translator.policies import TranslationPolicy
from repro.workloads import get_workload

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)

HOT_LOOP = """
start:
    mov esi, 0
    mov ecx, 0
loop:
    mov eax, ecx
    imul eax, 13
    xor esi, eax
    inc ecx
    cmp ecx, 400
    jne loop
    cli
    hlt
"""

# Patches its own inner-loop immediate every frame (stylized SMC): the
# JIT-resident translation takes protection/self-check faults mid-run
# and is repeatedly invalidated and recompiled.
SMC_LOOP = """
start:
    mov edi, 0
    mov esi, 0
frame:
    mov eax, edi
    imul eax, 17
    add eax, 0x01010101
    mov ebx, patch_site + 2
    store [ebx], eax
    mov ecx, 0
inner:
patch_site:
    add esi, 0x11111111
    rol esi, 1
    inc ecx
    cmp ecx, 30
    jl inner
    inc edi
    cmp edi, 40
    jl frame
    cli
    hlt
"""


def _dial_invisible_stats(stats) -> dict:
    """Stats that must match with or without the VLIW pinned.

    Only the JIT's own accounting (dispatch/compile/bailout volume) may
    differ between the two engines.
    """
    out = stats.as_dict()
    return {name: value for name, value in out.items()
            if not name.startswith("jit_")}


def _assert_dial_invisible(source: str, config: CMSConfig) -> tuple:
    """Run ``source`` on the JIT and on the pinned VLIW; everything but
    the JIT's own counters must be identical, bit for bit."""
    on_system, on_result = run_cms(source, config)
    off_system, off_result = run_cms(source, config, pins=(pin_vliw,))
    assert on_result.halted and off_result.halted
    assert on_result.console_output == off_result.console_output
    assert on_system.state.snapshot() == off_system.state.snapshot()
    on_ram = on_system.machine.ram
    off_ram = off_system.machine.ram
    assert on_ram.read_bytes(0, on_ram.size) == \
        off_ram.read_bytes(0, off_ram.size)
    assert _dial_invisible_stats(on_system.stats) == \
        _dial_invisible_stats(off_system.stats)
    assert off_system.stats.jit_dispatches == 0
    return on_system, off_system


def _workload_on_jit_and_vliw(name: str, pins=()):
    """Run a workload on the JIT (with ``pins``) and on the pinned VLIW;
    console output and molecules must match.  Returns both results."""
    workload = get_workload(name)
    _, on = run_workload_cms(workload, FAST, pins)
    _, off = run_workload_cms(workload, FAST, (pin_vliw,))
    assert on.console_output == off.console_output
    assert on.stats.total_molecules(FAST.cost) == \
        off.stats.total_molecules(FAST.cost)
    return on, off


class TestDialInvisibility:
    def test_hot_loop_molecule_identical(self):
        on_system, _ = _assert_dial_invisible(HOT_LOOP, FAST)
        assert on_system.stats.jit_dispatches > 0
        assert on_system.stats.jit_compiles > 0
        assert on_system.stats.jit_compile_failures == 0

    def test_smc_loop_molecule_identical(self):
        on_system, _ = _assert_dial_invisible(SMC_LOOP, FAST)
        assert on_system.stats.smc_invalidations >= 1

    def test_equivalent_to_interpreter(self):
        both = assert_equivalent(HOT_LOOP, config=FAST)
        assert both.cms_system.stats.jit_dispatches > 0


class TestFaultBailouts:
    def test_mid_translation_fault_rolls_back_exactly(self):
        # The SMC store faults mid-translation out of JIT-generated
        # code; interpreter equivalence (registers, RAM, console)
        # proves the rollback restored the exact pre-dispatch state.
        both = assert_equivalent(SMC_LOOP, config=FAST,
                                 pins=(pin_eager_lowering,))
        stats = both.cms_system.stats
        assert stats.rollbacks >= 1
        fault_bails = [reason for reason in stats.jit_bailouts
                       if reason.startswith("fault-")]
        assert fault_bails, (
            f"no fault bailouts recorded: {dict(stats.jit_bailouts)}"
        )

    def test_alias_check_bailout(self):
        on, off = _workload_on_jit_and_vliw("alias_stress",
                                            (pin_eager_lowering,))
        stats = on.stats
        assert stats.jit_bailouts["fault-alias_violation"] >= 1
        assert stats.faults["ALIAS_VIOLATION"] >= 1

    def test_interrupt_bailout(self):
        on, _ = _workload_on_jit_and_vliw("dos_boot")
        assert on.stats.jit_bailouts["interrupt"] >= 1

    def test_fuel_exhaustion_mid_jit_block(self):
        config = replace(FAST, dispatch_fuel_molecules=8)
        on_system, _ = _assert_dial_invisible(HOT_LOOP, config)
        assert on_system.stats.jit_bailouts["fuel"] >= 1
        assert on_system.stats.fuel_exits >= 1


class TestInvalidation:
    def _jit_resident_translation(self):
        system, result = run_cms(HOT_LOOP, FAST)
        assert result.halted
        resident = [t for t in system.tcache.translations()
                    if t.host_code is not None]
        assert resident, "no JIT-resident translation after a hot loop"
        return system, resident

    def test_invalidation_drops_compiled_callable(self):
        system, resident = self._jit_resident_translation()
        for translation in resident:
            system.tcache.invalidate_translation(translation)
            assert translation.host_code is None
            assert not translation.valid

    def test_flush_drops_compiled_callable(self):
        system, resident = self._jit_resident_translation()
        system.tcache.flush()
        assert all(t.host_code is None for t in resident)

    def test_smc_invalidation_drops_compiled_callable(self):
        system, result = run_cms(SMC_LOOP, FAST)
        assert result.halted
        assert system.stats.smc_invalidations >= 1
        # Anything still resident must be valid; every invalidated
        # translation must have dropped its template on the way out.
        for translation in system.tcache.translations():
            if translation.host_code is not None:
                assert translation.valid


class TestFallbacks:
    def test_uncompilable_translation_falls_back_to_vliw(self, monkeypatch):
        monkeypatch.setattr(jit_module, "compile_translation",
                            lambda translation, cpu, stats=None: None)
        on_system, on_result = run_cms(HOT_LOOP, FAST)
        off_system, off_result = run_cms(HOT_LOOP, FAST, pins=(pin_vliw,))
        assert on_result.halted
        assert on_result.console_output == off_result.console_output
        assert _dial_invisible_stats(on_system.stats) == \
            _dial_invisible_stats(off_system.stats)
        stats = on_system.stats
        assert stats.jit_compile_failures >= 1
        assert stats.jit_bailouts["uncompilable"] >= 1
        assert stats.jit_compiles == 0

    def test_degraded_tiers_skip_the_jit(self):
        config = replace(FAST, degrade_tier_floor=2)
        system, result = run_cms(HOT_LOOP, config)
        assert result.halted
        assert system.stats.dispatches > 0
        assert system.stats.jit_dispatches == 0

    def test_warm_loaded_translations_recompile_lazily(self, tmp_path):
        path = str(tmp_path / "snap.json")
        cold = replace(FAST, snapshot_path=path, snapshot_save=True)
        cold_system, cold_result = run_cms(HOT_LOOP, cold)
        cold_system.shutdown()
        warm = replace(FAST, snapshot_path=path)
        warm_system, warm_result = run_cms(HOT_LOOP, warm)
        assert warm_result.halted
        assert warm_result.console_output == cold_result.console_output
        assert warm_system.stats.snapshot_translations_loaded >= 1
        # The callable is process-local: never persisted, rebuilt on
        # first dispatch of the reloaded translation.
        assert warm_system.stats.jit_compiles >= 1


# ----------------------------------------------------------------------
# The inline plain-RAM guard (MemoryBus.io_pages)
# ----------------------------------------------------------------------

# Kernel-style guest: every data access lands at DATA_BASE (1 MiB),
# above the framebuffer hole at 0xA0000.
HIGH_DATA_LOOP = """
start:
    mov esi, table
    mov edi, out
    mov ecx, 0
    mov ebx, 0
loop:
    loadx eax, [esi+ecx*4]
    add ebx, eax
    storex [edi+ecx*4], ebx
    loadbx edx, [esi+ecx]
    xor ebx, edx
    storebx [edi+ecx+256], ebx
    inc ecx
    cmp ecx, 64
    jne loop
    mov eax, 0
    mov ecx, 0
again:
    loadx edx, [edi+ecx*4]
    add eax, edx
    inc ecx
    cmp ecx, 64
    jne again
    cli
    hlt
    .org 0x100000
table:
""" + "\n".join(
    "    .word " + ", ".join(str((i * 12 + j) * 0x9E3779B1 & 0xFFFFFFFF)
                            for j in range(12))
    for i in range(6)) + """
out:
    .space 512
"""


class MemoryDevice:
    """Byte-array MMIO handler that records every access it serves."""

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)
        self.log: list[tuple] = []

    def mmio_read(self, offset: int, size: int) -> int:
        self.log.append(("r", offset, size))
        return int.from_bytes(self.data[offset:offset + size].ljust(
            size, b"\x00"), "little")

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.log.append(("w", offset, size, value))
        chunk = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        self.data[offset:offset + size] = chunk[:len(self.data) - offset]


# One extra region that is not page-aligned, inside RAM page 0xC1: the
# I/O page table must mark that whole page, and the slow path must
# still route each byte exactly.
EXTRA_BASE = 0xC1230
EXTRA_SIZE = 0x20


def _machine_with_extra_region():
    machine = Machine()
    device = MemoryDevice(EXTRA_SIZE)
    machine.bus.add_region(MMIORegion(EXTRA_BASE, EXTRA_SIZE, device,
                                      "extra"))
    return machine, device


def _run_on_extra_machine(source: str, config: CMSConfig, pins=()):
    machine, device = _machine_with_extra_region()
    entry = machine.load_source(source)
    system = CodeMorphingSystem(machine, config)
    for pin in pins:
        pin(system)
    result = system.run(entry, max_instructions=200_000)
    return system, result, device


_WINDOW_ADDRS = (
    list(range(0x9FFFC, 0xA0004))  # RAM -> framebuffer edge
    + list(range(0xAFFFC, 0xB0004))  # framebuffer -> RAM edge
    + list(range(EXTRA_BASE - 4, EXTRA_BASE + 4))
    + list(range(EXTRA_BASE + EXTRA_SIZE - 4, EXTRA_BASE + EXTRA_SIZE + 4))
    + [0xC1000, 0xC1FFC]  # plain RAM on the extra region's page
)


def _window_program(addr: int, store: bool, size: int) -> str:
    """A hot loop whose one access of interest moves to ``addr`` once
    the loop is translated.  Until then it touches plain RAM, so the
    translator sees no I/O there; the load follows a store through
    another pointer, so the scheduler hoists it (a reordered atom)."""
    if store:
        access = ("storeb [esi], ecx" if size == 1 else "store [esi], ecx")
    else:
        access = ("loadb eax, [esi]" if size == 1 else "load eax, [esi]")
    return f"""
start:
    mov esi, 0x100100
    mov edi, 0x100000
    mov ecx, 0
    mov ebx, 0
    mov eax, 0
loop:
    store [edi], ecx
    {access}
    add ebx, eax
    inc ecx
    cmp ecx, 30
    jne next
    mov esi, {addr:#x}
next:
    cmp ecx, 60
    jne loop
    cli
    hlt
"""


def _host_cpu(machine, pins=()):
    """A bare host CPU and JIT; ``pins`` apply to them as to a system."""
    cpu = HostCPU(machine, ProtectionMap(FineGrainCache(4)))
    stats = CMSStats()
    jit = jit_module.TemplateJIT(cpu, stats=stats)
    for pin in pins:
        pin(SimpleNamespace(cpu=cpu, jit=jit))
    return cpu, stats, jit


def _mol(*atoms) -> Molecule:
    molecule = Molecule()
    for atom in atoms:
        molecule.add(atom)
    return molecule


def _host_translation(*body, labels=None) -> Translation:
    """``body`` molecules, then commit and exit to 0x1000."""
    exit_atom = Atom(AtomKind.EXIT, exit_target=0x1000)
    return Translation(
        entry_eip=0x1000,
        molecules=[*body,
                   _mol(Atom(AtomKind.MOVI, rd=R_EIP, imm=0x1000),
                        Atom(AtomKind.COMMIT)),
                   _mol(exit_atom)],
        labels=labels or {"body": 0}, entry_label="body",
        policy=TranslationPolicy(), code_ranges=[(0x1000, 4)],
        code_snapshot=bytes(4), exit_atoms=[exit_atom])


class TestPlainRamGuard:
    def test_high_data_runs_inline_and_matches_interpreter(self):
        both = assert_equivalent(HIGH_DATA_LOOP, config=FAST)
        stats = both.cms_system.stats
        assert stats.jit_dispatches > 0
        assert stats.jit_slow_mem_ops == 0
        _assert_dial_invisible(HIGH_DATA_LOOP, FAST)

    def test_io_pages_mark_overlapping_pages_conservatively(self):
        machine, _ = _machine_with_extra_region()
        pages = machine.bus.io_pages
        assert len(pages) == machine.ram.size >> 12
        assert [p for p in range(len(pages)) if pages[p]] == \
            list(range(0xA0, 0xB0)) + [0xC1]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(addr=st.sampled_from(_WINDOW_ADDRS), store=st.booleans(),
           size=st.sampled_from([1, 4]))
    def test_window_accesses_agree_everywhere(self, addr, store, size):
        source = _window_program(addr, store, size)
        runs = [_run_on_extra_machine(source, FAST),
                _run_on_extra_machine(source, FAST, pins=(pin_vliw,)),
                _run_on_extra_machine(source, FAST.interpreter_only())]
        (on, _, on_dev), (off, _, off_dev), (ref, _, ref_dev) = runs
        assert all(result.halted for _, result, _ in runs)
        ram = [s.machine.ram.read_bytes(0, s.machine.ram.size)
               for s, _, _ in runs]
        assert ram[0] == ram[1] == ram[2]
        snaps = [s.state.snapshot() for s, _, _ in runs]
        assert snaps[0] == snaps[1] == snaps[2]
        fbs = [(s.machine.framebuffer.pixels,
                s.machine.framebuffer.pixel_writes) for s, _, _ in runs]
        assert fbs[0] == fbs[1] == fbs[2]
        assert on_dev.data == off_dev.data == ref_dev.data
        # The dial contract: device traffic, faults and every molecule
        # count match the simulated VLIW exactly.
        assert on_dev.log == off_dev.log
        assert on.machine.framebuffer.mmio_accesses == \
            off.machine.framebuffer.mmio_accesses
        assert _dial_invisible_stats(on.stats) == \
            _dial_invisible_stats(off.stats)
        assert on.interpreter.exceptions_delivered == \
            ref.interpreter.exceptions_delivered
        # The template inlines the access exactly when no page it
        # touches holds I/O; the loop's other store is plain RAM.
        pages = on.machine.bus.io_pages
        io_page = pages[addr >> 12] or pages[(addr + size - 1) >> 12]
        if on.stats.jit_dispatches:
            assert bool(on.stats.jit_slow_mem_ops) == bool(io_page)

    def test_reordered_straddling_load_faults_spec_mmio(self):
        # A 4-byte load at 0x9FFFE starts in RAM and ends in the
        # framebuffer: the hoisted (reordered) atom must take the slow
        # path and raise SPEC_MMIO, exactly as the VLIW does.
        source = _window_program(0x9FFFE, store=False, size=4)
        on, _, _ = _run_on_extra_machine(source, FAST,
                                         pins=(pin_eager_lowering,))
        off, _, _ = _run_on_extra_machine(source, FAST, pins=(pin_vliw,))
        assert on.stats.faults["SPEC_MMIO"] >= 1
        assert on.stats.faults == off.stats.faults
        assert on.stats.jit_bailouts["fault-spec_mmio"] >= 1

    @settings(max_examples=60, deadline=None)
    @given(addr=st.sampled_from(_WINDOW_ADDRS), size=st.sampled_from([1, 2, 4]),
           store=st.booleans(), reordered=st.booleans(), io_ok=st.booleans())
    def test_template_matches_vliw_at_host_level(self, addr, size, store,
                                                 reordered, io_ok):
        # Covers the 2-byte atoms no guest instruction produces.
        sides = []
        for use_jit in (True, False):
            machine, device = _machine_with_extra_region()
            cpu, stats, jit = _host_cpu(machine, (pin_eager_lowering,))
            access = Atom(AtomKind.ST, rs1=TEMP_BASE, rs2=TEMP_BASE + 1,
                          size=size, reordered=reordered, io_ok=io_ok) \
                if store else Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE,
                                   size=size, reordered=reordered,
                                   io_ok=io_ok)
            translation = _host_translation(
                _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=addr),
                     Atom(AtomKind.MOVI, rd=TEMP_BASE + 1, imm=0xA1B2C3D4)),
                _mol(access))
            info = (jit.run if use_jit else cpu.run)(translation)
            fault = info.fault
            sides.append((
                info.kind, fault and (fault.kind, fault.paddr),
                list(cpu.regs.working), list(cpu.regs.shadow),
                cpu.molecules_executed, cpu.atoms_executed,
                machine.ram.read_bytes(0, machine.ram.size),
                machine.framebuffer.pixels, device.data, device.log))
            if use_jit:
                pages = machine.bus.io_pages
                io_page = pages[addr >> 12] or \
                    pages[(addr + size - 1) >> 12]
                assert stats.jit_slow_mem_ops == (1 if io_page else 0)
                is_io = machine.bus.is_io(addr, size)
                spec = is_io and (reordered or not io_ok)
                assert (info.kind is ExitKind.FAULT) == spec
                if spec:
                    assert fault.kind is HostFaultKind.SPEC_MMIO
        assert sides[0] == sides[1]

    def test_region_added_after_compile_diverts_cached_template(self):
        machine = Machine()
        cpu, stats, jit = _host_cpu(machine, (pin_eager_lowering,))
        machine.ram.write32(0x100000, 0x11223344)
        translation = _host_translation(
            _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=0x100000)),
            _mol(Atom(AtomKind.LD, rd=0, rs1=TEMP_BASE, size=4,
                      io_ok=True)))

        assert jit.run(translation).kind is ExitKind.EXITED
        template = translation.host_code
        assert template is not None
        assert cpu.regs.shadow[0] == 0x11223344
        assert stats.jit_slow_mem_ops == 0

        device = MemoryDevice(0x10)
        device.data[:4] = (0xCAFEF00D).to_bytes(4, "little")
        machine.bus.add_region(MMIORegion(0x100000, 0x10, device, "late"))
        assert jit.run(translation).kind is ExitKind.EXITED
        assert translation.host_code is template  # no recompile
        assert stats.jit_compiles == 1
        assert stats.jit_slow_mem_ops == 1
        assert cpu.regs.shadow[0] == 0xCAFEF00D
        assert device.log == [("r", 0, 4)]


# ----------------------------------------------------------------------
# Tiered lowering: a translation runs on the simulated VLIW until warm,
# and the VLIW hands it to the template at chains and back-edges.
# ----------------------------------------------------------------------


def _vliw_molecules(cpu) -> list[int]:
    """A one-element list counting the molecules ``cpu.run`` executes
    from now on: the cold tier and every bailout run through it."""
    counted = [0]
    inner = cpu.run

    def run(*args, **kwargs):
        before = cpu.molecules_executed
        try:
            return inner(*args, **kwargs)
        finally:
            counted[0] += cpu.molecules_executed - before

    cpu.run = run
    return counted


def _lowering_points(jit) -> dict:
    """Translation id -> (molecules it had executed, its length), taken
    when the JIT first tries to lower it."""
    points = {}
    inner = jit.ensure_compiled

    def ensure_compiled(translation):
        points.setdefault(translation.id, (translation.executions_molecules,
                                           len(translation.molecules)))
        return inner(translation)

    jit.ensure_compiled = ensure_compiled
    return points


def _loop_translation(iterations: int) -> Translation:
    """``iterations`` passes over a two-molecule loop closed by an
    internal back-edge (``BRNZ`` to the ``loop`` label)."""
    return _host_translation(
        _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=iterations)),
        _mol(Atom(AtomKind.ALUI, aluop=AluOp.SUB, rd=TEMP_BASE,
                  rs1=TEMP_BASE, imm=1)),
        _mol(Atom(AtomKind.BRNZ, rs1=TEMP_BASE, label="loop")),
        labels={"body": 0, "loop": 1})


def _host_state(cpu, info, *translations) -> tuple:
    return (info.kind, info.molecules, info.chains_followed,
            list(cpu.regs.working), list(cpu.regs.shadow),
            cpu.molecules_executed, cpu.atoms_executed,
            [(t.entries, t.executions_molecules) for t in translations])


class TestTiering:
    def _chain_pair(self, warm_target: bool):
        """Run a cold translation chained to a target (warm or not) on
        the JIT and on the bare VLIW; both must agree exactly."""
        sides = []
        for use_jit in (False, True):  # the JIT side last, kept below
            cpu, stats, jit = _host_cpu(Machine())
            source = _host_translation(
                _mol(Atom(AtomKind.MOVI, rd=TEMP_BASE, imm=7)))
            target = _host_translation(
                _mol(Atom(AtomKind.ALUI, aluop=AluOp.ADD, rd=TEMP_BASE,
                          rs1=TEMP_BASE, imm=5)))
            source.exit_atoms[0].chained_translation = target
            if warm_target:
                jit.mark_warm(target)
            vliw = _vliw_molecules(cpu)
            info = (jit.run if use_jit else cpu.run)(source)
            assert info.translations_entered == [source, target]
            sides.append(_host_state(cpu, info, source, target))
        assert sides[0] == sides[1]
        return stats, vliw[0], source, target

    def test_cold_translation_hands_off_at_a_chain_to_a_warm_target(self):
        stats, vliw, source, target = self._chain_pair(warm_target=True)
        assert stats.jit_handoffs == 1
        assert stats.jit_compiles == 1
        assert source.host_code is None and target.host_code is not None
        assert vliw == len(source.molecules)  # the target ran as template

    def test_cold_chain_target_stays_on_the_vliw(self):
        stats, vliw, source, target = self._chain_pair(warm_target=False)
        assert stats.jit_handoffs == 0
        assert stats.jit_compiles == 0
        assert vliw == len(source.molecules) + len(target.molecules)

    def test_cold_loop_finishes_on_the_template_after_its_back_edge(self):
        sides = []
        for use_jit in (False, True):  # the JIT side last, kept below
            cpu, stats, jit = _host_cpu(Machine())
            loop = _loop_translation(100)
            vliw = _vliw_molecules(cpu)
            points = _lowering_points(jit)
            info = (jit.run if use_jit else cpu.run)(loop)
            assert info.kind is ExitKind.EXITED
            sides.append(_host_state(cpu, info, loop))
        assert sides[0] == sides[1]
        # The JIT side: cold until warm, lowered at a back-edge, then
        # every remaining iteration ran on the template.
        assert stats.jit_handoffs == 1
        assert loop.host_code is not None
        ran_cold, length = points[loop.id]
        assert ran_cold >= jit_module.WARM_PASSES * length
        assert vliw[0] == ran_cold
        assert info.molecules - ran_cold > 100

    def test_snapshot_loaded_translation_is_lowered_on_first_entry(
            self, tmp_path):
        path = str(tmp_path / "hot.cms-snapshot.json")
        machine = Machine()
        entry = machine.load_source(HOT_LOOP)
        cold = CodeMorphingSystem(
            machine, replace(FAST, snapshot_path=path, snapshot_save=True))
        cold_points = _lowering_points(cold.jit)
        assert cold.run(entry).halted
        cold.shutdown()
        # A fresh translation is lowered only once warm ...
        assert cold_points
        assert all(ran >= jit_module.WARM_PASSES * length
                   for ran, length in cold_points.values())

        machine = Machine()
        entry = machine.load_source(HOT_LOOP)
        warm = CodeMorphingSystem(machine, replace(FAST, snapshot_path=path))
        loaded = warm.tcache.translations()
        assert loaded
        assert warm.stats.snapshot_translations_loaded == len(loaded)
        warm_points = _lowering_points(warm.jit)
        assert warm.run(entry).halted
        # ... but a loaded one before it runs a single molecule.
        entered = [t for t in loaded if t.executions_molecules]
        assert entered
        assert all(warm_points[t.id][0] == 0 for t in entered)

    def test_fault_out_of_a_cold_translation_rolls_back_exactly(self):
        # SMC_LOOP's stores fault its translations before they warm up:
        # interpreter equivalence proves the VLIW-side rollback exact.
        both = assert_equivalent(SMC_LOOP, config=FAST)
        stats = both.cms_system.stats
        assert stats.jit_dispatches > 0
        assert stats.rollbacks >= 1
        assert sum(stats.faults.values()) >= 1
        # Every fault came out of the cold tier, none out of a template.
        assert not [reason for reason in stats.jit_bailouts
                    if reason.startswith("fault-")]


def _tier_record(system, result) -> dict:
    """Everything the choice of tier must leave unchanged."""
    cpu = system.cpu
    return {
        "console": result.console_output,
        "state": system.state.snapshot(),
        "molecules_executed": cpu.molecules_executed,
        "atoms_executed": cpu.atoms_executed,
        "translations": sorted(
            (t.entry_eip, t.entries, t.executions_molecules)
            for t in system.tcache.translations()),
        "stats": _dial_invisible_stats(system.stats),
    }


_TIER_SOURCES = {"hot-loop": HOT_LOOP, "smc-loop": SMC_LOOP}


def _run_tier_subject(name: str, pins):
    """A program of this file, or else a workload by name."""
    if name in _TIER_SOURCES:
        return run_cms(_TIER_SOURCES[name], FAST, pins=pins)
    return run_workload_cms(get_workload(name), FAST, pins)


class TestTierAgreement:
    @pytest.mark.parametrize(
        "name", ["hot-loop", "smc-loop", "compress", "dos_boot"])
    def test_tiered_eager_and_vliw_runs_agree(self, name):
        runs = {label: _run_tier_subject(name, pins) for label, pins in (
            ("tiered", ()), ("eager", (pin_eager_lowering,)),
            ("vliw", (pin_vliw,)))}
        records = {label: _tier_record(system, result)
                   for label, (system, result) in runs.items()}
        assert records["tiered"] == records["eager"] == records["vliw"]
        assert runs["tiered"][0].stats.jit_handoffs > 0
        assert runs["eager"][0].stats.jit_handoffs == 0
        assert runs["vliw"][0].stats.jit_dispatches == 0
