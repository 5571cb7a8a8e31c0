"""Template-JIT semantics tests (host/jit.py).

``TemplateJIT.run`` has ``HostCPU.run``'s exact contract: with the
simulated VLIW pinned in its place (``conftest.pin_vliw``), every run
must be molecule-identical and architecturally identical — the
generated Python only replaces the simulated VLIW's per-atom dispatch,
never what executes.  These tests pin that contract on the edges where
it is easiest to break: mid-translation faults, alias bailouts, SMC
invalidation, fuel exhaustion, compile failure, and the inline
plain-RAM guard at the edges of MMIO pages.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (assert_equivalent, pin_vliw, run_cms,
                      run_workload_cms)
from repro import CMSConfig
from repro.cache.tcache import Translation
from repro.cms.stats import CMSStats
from repro.cms.system import CodeMorphingSystem
from repro.host import jit as jit_module
from repro.host.atoms import Atom, AtomKind
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


def _workload_on_jit_and_vliw(name: str):
    """Run a workload on the JIT and on the pinned VLIW; console output
    and molecules must match.  Returns both results."""
    workload = get_workload(name)
    _, on = run_workload_cms(workload, FAST)
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
        both = assert_equivalent(SMC_LOOP, config=FAST)
        stats = both.cms_system.stats
        assert stats.rollbacks >= 1
        fault_bails = [reason for reason in stats.jit_bailouts
                       if reason.startswith("fault-")]
        assert fault_bails, (
            f"no fault bailouts recorded: {dict(stats.jit_bailouts)}"
        )

    def test_alias_check_bailout(self):
        on, off = _workload_on_jit_and_vliw("alias_stress")
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


def _host_cpu(machine):
    cpu = HostCPU(machine, ProtectionMap(FineGrainCache(4)))
    stats = CMSStats()
    return cpu, stats, jit_module.TemplateJIT(cpu, stats=stats)


def _mol(*atoms) -> Molecule:
    molecule = Molecule()
    for atom in atoms:
        molecule.add(atom)
    return molecule


def _host_translation(*body) -> Translation:
    """``body`` molecules, then commit and exit to 0x1000."""
    exit_atom = Atom(AtomKind.EXIT, exit_target=0x1000)
    return Translation(
        entry_eip=0x1000,
        molecules=[*body,
                   _mol(Atom(AtomKind.MOVI, rd=R_EIP, imm=0x1000),
                        Atom(AtomKind.COMMIT)),
                   _mol(exit_atom)],
        labels={"body": 0}, entry_label="body",
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
        on, _, _ = _run_on_extra_machine(source, FAST)
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
            cpu, stats, jit = _host_cpu(machine)
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
        cpu, stats, jit = _host_cpu(machine)
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
