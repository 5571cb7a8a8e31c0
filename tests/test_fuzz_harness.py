"""Tier-1 tests for the differential fuzzing subsystem itself.

These keep the harness honest: programs must be deterministic in their
seed, must assemble and halt under the reference, the oracle must pass
on a small clean campaign, the injector must fire on schedule, the
corpus format must round-trip — and, most importantly, a deliberately
broken CMS dial must be *caught* and *shrunk* to a tiny reproducer
(the harness's whole reason to exist).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import CMSConfig, CodeMorphingSystem, Machine
from repro.fuzz import (FaultInjector, InjectionEvent, InjectionPlan,
                        entry_from_program, generate, load_corpus,
                        parse_entry, run_campaign, run_differential,
                        shrink_program, variant_by_name, write_entry)
from repro.fuzz.oracle import default_matrix, execute


class TestGenerator:
    def test_same_seed_same_program(self):
        assert generate(7).source == generate(7).source
        assert generate(7, inject=True).plan == generate(7, inject=True).plan

    def test_different_seeds_differ(self):
        assert generate(1).source != generate(2).source

    @pytest.mark.parametrize("seed", range(5))
    def test_programs_assemble_and_halt_on_reference(self, seed):
        program = generate(seed)
        outcome = execute(program, CMSConfig().interpreter_only())
        assert outcome.halted

    def test_injected_program_declares_stack_mask(self):
        program = generate(3, inject=True)
        assert program.plan is not None
        assert program.plan.expected_interrupts >= 1
        assert program.ram_masks()  # stack scratch region excluded
        assert generate(3).ram_masks() == []

    def test_body_instruction_count_ignores_labels(self):
        program = generate(0).with_body(
            ("    jz skip_0\n    add eax, ebx\nskip_0:",)
        )
        assert program.body_instruction_count() == 2


class TestOracle:
    def test_small_clean_campaign_has_no_mismatches(self):
        result = run_campaign(budget=8, seed=0,
                              variants=default_matrix()[:2], inject_every=0)
        assert result.ok
        assert result.trials == 8

    def test_injected_program_is_equivalent(self):
        program = generate(1000, inject=True)
        assert run_differential(program, default_matrix()[:2]) == []

    def test_variant_lookup(self):
        assert variant_by_name("full").name == "full"
        with pytest.raises(KeyError):
            variant_by_name("nope")

    def test_vliw_pinned_variant_never_enters_the_jit(self):
        variant = variant_by_name("vliw-pinned")
        systems = []
        variant.runner(generate(3), variant.config,
                       cms_factory=systems.append)
        stats = systems[0].stats
        assert stats.dispatches > 0
        assert stats.jit_dispatches == 0

    def test_eager_lowering_variant_lowers_on_first_entry(self):
        variant = variant_by_name("eager-lowering")
        systems = []
        variant.runner(generate(3), variant.config,
                       cms_factory=systems.append)
        stats = systems[0].stats
        assert stats.jit_dispatches > 0
        assert stats.jit_compiles > 0
        assert stats.jit_handoffs == 0  # nothing ever ran cold

    def test_containment_outside_chaos_is_a_mismatch(self):
        def crash_translator(system):
            def crash(entry_eip, policy):
                raise RuntimeError("synthetic translator bug")
            system.translator.translate = crash

        found = run_differential(generate(3), (variant_by_name("full"),),
                                 cms_factory=crash_translator)
        assert found and any(d.startswith("containment")
                             for d in found[0].diffs)


class TestInjector:
    def test_events_fire_at_device_time(self):
        machine = Machine()
        plan = InjectionPlan((
            InjectionEvent(kind="irq", at=10, line=3),
            InjectionEvent(kind="irq", at=30, line=4),
        ))
        injector = FaultInjector(machine, plan)
        machine.tick(9)
        assert injector.fired == 0
        machine.tick(1)
        assert injector.fired == 1
        machine.tick(25)
        assert injector.fired == 2
        assert injector.exhausted

    def test_dma_event_programs_engine(self):
        machine = Machine()
        plan = InjectionPlan((
            InjectionEvent(kind="dma", at=5, source=0x1000, dest=0x2000,
                           length=64),
        ))
        injector = FaultInjector(machine, plan)
        machine.tick(5)
        assert injector.fired == 1
        assert machine.dma.busy
        machine.tick(10)
        assert machine.dma.transfers_completed == 1

    def test_busy_dma_start_is_retried_not_dropped(self):
        machine = Machine()
        plan = InjectionPlan((
            InjectionEvent(kind="dma", at=5, source=0x1000, dest=0x2000,
                           length=512),
            InjectionEvent(kind="dma", at=6, source=0x1000, dest=0x3000,
                           length=64),
        ))
        injector = FaultInjector(machine, plan)
        machine.tick(6)
        assert injector.fired == 1 and injector.dma_retries == 1
        # Drain the first transfer (the engine moves at most 64 bytes
        # per tick call) and let the deterministic retry fire.
        for _ in range(40):
            machine.tick(10)
        assert injector.fired == 2
        assert machine.dma.transfers_completed == 2

    def test_plan_round_trips_through_json(self):
        plan = generate(42, inject=True).plan
        assert InjectionPlan.from_json(plan.to_json()) == plan


class TestCorpus:
    def test_entry_round_trips(self, tmp_path):
        program = generate(9, inject=True)
        entry = entry_from_program("sample", program, variant="full")
        path = write_entry(tmp_path, entry)
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].source == program.source
        assert loaded[0].seed == 9
        assert loaded[0].variant == "full"
        assert loaded[0].plan == program.plan
        assert loaded[0].ram_masks() == program.ram_masks()
        assert path.suffix == ".t86"

    def test_plain_entry_has_no_plan(self, tmp_path):
        program = generate(9)
        write_entry(tmp_path, entry_from_program("plain", program))
        loaded = load_corpus(tmp_path)[0]
        assert loaded.plan is None
        assert loaded.ram_masks() == []

    def test_parse_tolerates_missing_header(self):
        entry = parse_entry("raw", "start:\n    hlt\n")
        assert entry.source == "start:\n    hlt\n"
        assert entry.seed == 0 and entry.plan is None


def _break_store_forwarding(system: CodeMorphingSystem) -> None:
    """The deliberately-broken dial: loads never observe uncommitted
    stores (store-to-load forwarding disabled).  Only CMS is affected —
    the reference interpreter writes straight through the bus."""
    system.cpu.store_buffer.forward = \
        lambda paddr, size, memory_value: memory_value


class TestBrokenDialIsCaught:
    def test_mutation_found_shrunk_and_frozen(self, tmp_path):
        variant = variant_by_name("full")
        mismatch = None
        for index in range(40):
            program = generate(5000 + index)
            found = run_differential(program, (variant,),
                                     cms_factory=_break_store_forwarding)
            if found:
                mismatch = found[0]
                break
        assert mismatch is not None, \
            "broken store forwarding escaped 40 fuzz programs"
        assert mismatch.diffs

        def is_failing(candidate):
            return bool(run_differential(candidate, (variant,),
                                         cms_factory=_break_store_forwarding))

        shrunk = shrink_program(mismatch.program, is_failing)
        assert shrunk.body_instruction_count() <= 10
        # The shrunk program still witnesses the bug, and is clean on
        # the unbroken system.
        assert is_failing(shrunk)
        assert run_differential(shrunk, (variant,)) == []
        # Freeze and reload as a corpus seed.
        entry = entry_from_program("broken_dial", shrunk,
                                   variant=variant.name)
        write_entry(tmp_path, entry)
        replayed = load_corpus(tmp_path)[0]
        assert replayed.source == shrunk.source
