"""Tests for guest-state views, the machine composition, the statistics
model, and configuration plumbing."""

from __future__ import annotations

import pytest

from repro.cms.config import CMSConfig, CostModel
from repro.cms.stats import CMSStats
from repro.host.registers import HostBackedGuestState, HostRegisterFile
from repro.isa import flags as fl
from repro.machine import (
    CONSOLE_MMIO_BASE,
    DMA_MMIO_BASE,
    TIMER_MMIO_BASE,
    Machine,
    MachineConfig,
)
from repro.state import FLAG_SLOTS, SimpleGuestState


class TestGuestStateViews:
    @pytest.mark.parametrize("state_factory", [
        SimpleGuestState,
        lambda: HostBackedGuestState(HostRegisterFile()),
    ])
    def test_register_roundtrip(self, state_factory):
        state = state_factory()
        for index in range(8):
            state.set_reg(index, 0x1000 + index)
        assert [state.get_reg(i) for i in range(8)] == \
            [0x1000 + i for i in range(8)]

    @pytest.mark.parametrize("state_factory", [
        SimpleGuestState,
        lambda: HostBackedGuestState(HostRegisterFile()),
    ])
    def test_values_masked(self, state_factory):
        state = state_factory()
        state.set_reg(0, 0x1_2345_6789)
        assert state.get_reg(0) == 0x2345_6789
        state.eip = 0x1_0000_0004
        assert state.eip == 4

    def test_eflags_always_one_bit(self):
        state = SimpleGuestState()
        assert state.eflags & fl.ALWAYS_ONE

    def test_eflags_pack_unpack_all_flags(self):
        state = SimpleGuestState()
        state.eflags = fl.CF | fl.ZF | fl.IF
        assert state.get_flag(FLAG_SLOTS.index("cf")) == 1
        assert state.get_flag(FLAG_SLOTS.index("zf")) == 1
        assert state.interrupts_enabled
        assert state.get_flag(FLAG_SLOTS.index("sf")) == 0
        repacked = state.eflags
        assert repacked & fl.CF and repacked & fl.ZF and repacked & fl.IF

    def test_set_arith_flags_respects_mask(self):
        state = SimpleGuestState()
        state.set_flag(FLAG_SLOTS.index("cf"), 1)
        state.set_arith_flags(fl.ZF, mask=fl.ZF | fl.SF)
        assert state.get_flag(FLAG_SLOTS.index("cf")) == 1  # untouched
        assert state.get_flag(FLAG_SLOTS.index("zf")) == 1
        assert state.get_flag(FLAG_SLOTS.index("sf")) == 0

    def test_host_backed_flag_helpers_match_generic(self):
        """HostBackedGuestState specializes set_arith_flags and
        interrupts_enabled; both must agree with GuestState's generic
        versions, and every write must land in working and shadow."""
        masks = (fl.ARITH_FLAGS, fl.ARITH_FLAGS & ~fl.CF, fl.ZF | fl.SF,
                 fl.ARITH_FLAGS | fl.IF, 0)
        for start in (0, 1):
            for flags in range(0, 0x1000, 0x41):
                for mask in masks:
                    simple = SimpleGuestState()
                    regfile = HostRegisterFile()
                    host = HostBackedGuestState(regfile)
                    for state in (simple, host):
                        for slot in range(len(FLAG_SLOTS)):
                            state.set_flag(slot, start)
                        state.set_arith_flags(flags, mask)
                    assert [host.get_flag(slot)
                            for slot in range(len(FLAG_SLOTS))] == \
                        [simple.get_flag(slot)
                         for slot in range(len(FLAG_SLOTS))]
                    assert host.interrupts_enabled is \
                        simple.interrupts_enabled
                    assert regfile.in_sync()

    def test_snapshot_hashable_and_sensitive(self):
        state = SimpleGuestState()
        first = state.snapshot()
        hash(first)
        state.set_reg(3, 1)
        assert state.snapshot() != first

    def test_describe_contains_registers(self):
        state = SimpleGuestState()
        state.set_reg(0, 0xAB)
        assert "eax=000000ab" in state.describe()


class TestMachineComposition:
    def test_default_memory_map(self):
        machine = Machine()
        assert machine.bus.is_io(CONSOLE_MMIO_BASE)
        assert machine.bus.is_io(TIMER_MMIO_BASE)
        assert machine.bus.is_io(DMA_MMIO_BASE)
        assert machine.bus.is_io(0xA0000)  # framebuffer
        assert not machine.bus.is_io(0x1000)

    def test_no_framebuffer_config(self):
        machine = Machine(MachineConfig(with_framebuffer=False))
        assert machine.framebuffer is None
        assert not machine.bus.is_io(0xA0000)

    def test_tick_advances_devices(self):
        machine = Machine()
        machine.timer.period = 10
        machine.timer.running = True
        machine.tick(25)
        assert machine.timer.fired == 2
        assert machine.instructions_retired == 25

    def test_load_source_returns_entry(self):
        machine = Machine()
        entry = machine.load_source(".org 0x3000\nstart: nop\nhlt\n")
        assert entry == 0x3000
        assert machine.ram.read8(0x3000) == 0  # NOP opcode

    def test_vread_vwrite_roundtrip(self):
        machine = Machine()
        machine.vwrite(0x2000, 0xDEADBEEF, 4)
        assert machine.vread(0x2000, 4) == 0xDEADBEEF

    def test_fetch_byte_rejects_mmio(self):
        from repro.isa.exceptions import GuestException

        machine = Machine()
        with pytest.raises(GuestException):
            machine.fetch_byte(CONSOLE_MMIO_BASE)


class TestStatsAndCost:
    def test_total_molecules_composition(self):
        cost = CostModel()
        stats = CMSStats()
        stats.host_molecules = 1000
        stats.interp_instructions = 10
        stats.guest_instructions_translated = 5
        stats.rollbacks = 2
        stats.dispatches = 3
        total = stats.total_molecules(cost)
        expected = (1000 + 10 * cost.interp_per_instruction
                    + 5 * cost.translate_per_instruction
                    + 2 * cost.rollback + 3 * cost.dispatch_lookup)
        assert total == expected

    def test_molecules_per_instruction_zero_safe(self):
        assert CMSStats().molecules_per_instruction(CostModel()) == 0.0

    def test_summary_mentions_faults(self):
        stats = CMSStats()
        stats.guest_instructions = 100
        stats.faults["ALIAS_VIOLATION"] = 3
        text = stats.summary(CostModel())
        assert "ALIAS_VIOLATION=3" in text

    def test_interpreter_only_config(self):
        config = CMSConfig().interpreter_only()
        assert config.translation_threshold > 10**9
        # Other dials preserved.
        assert config.fine_grain_protection == \
            CMSConfig().fine_grain_protection

    def test_configs_hashable_for_caching(self):
        # benchmarks/common.py memoizes on (workload, config).
        a = CMSConfig()
        b = CMSConfig()
        assert hash(a) == hash(b)
        assert a == b
