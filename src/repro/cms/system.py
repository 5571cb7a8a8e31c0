"""The Code Morphing System: the paper's Figure 1 control flow.

::

    Start -> interpret (profiling) --threshold--> translate -> tcache
               ^                                       |
               |     rollback + recover                v
               +---------------- fault <--- execute translation --chain--+
                                                       ^                 |
                                                       +-----------------+

``CodeMorphingSystem`` owns the guest machine, the host CPU, the
interpreter (running against the host's committed shadow state), the
translator, the translation cache, and the adaptive machinery.  Its
``run`` loop is the dispatcher: execute a translation when one exists
for the current EIP, interpret (and profile) otherwise, and convert
every exceptional host event into rollback + recovery + (eventually)
adaptive retranslation.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from repro.cache import persist
from repro.cache.groups import TranslationGroups
from repro.cache.tcache import Translation, TranslationCache, digest_bytes
from repro.cms.config import CMSConfig
from repro.cms.degrade import (ChaosMonkey, DegradationManager,
                               RuntimeAuditor, Tier)
from repro.cms.retranslation import AdaptiveController
from repro.cms.smc import SMCManager
from repro.cms.stats import CMSStats, HealthReport
from repro.cms.trace import Event, EventTrace
from repro.host.cpu import ExitKind, HostCPU
from repro.host.faults import HostFault, HostFaultKind
from repro.host.jit import TemplateJIT
from repro.host.registers import HostBackedGuestState
from repro.interp.interpreter import Halted, Interpreter
from repro.interp.profile import ExecutionProfile
from repro.isa.exceptions import GuestException
from repro.isa.icache import DecodedInstructionCache
from repro.machine import Machine
from repro.memory.finegrain import FineGrainCache
from repro.memory.physical import PAGE_SHIFT
from repro.memory.protection import ProtectionMap
from repro.obs import NULL_PHASES, Observability, ObservationBus
from repro.translator.translator import TranslationError, Translator


@dataclass
class RunResult:
    """Outcome of one ``run`` invocation."""

    halted: bool
    guest_instructions: int
    stats: CMSStats
    console_output: str

    def molecules_per_instruction(self, config: CMSConfig) -> float:
        return self.stats.molecules_per_instruction(config.cost)


class CodeMorphingSystem:
    """A full co-designed VM instance over one guest machine."""

    def __init__(self, machine: Machine,
                 config: CMSConfig | None = None) -> None:
        self.machine = machine
        self.config = config or CMSConfig()
        config = self.config

        fine_grain = (FineGrainCache(config.fine_grain_entries)
                      if config.fine_grain_protection else None)
        self.protection = ProtectionMap(
            fine_grain, fine_grain_enabled=config.fine_grain_protection
        )
        self.cpu = HostCPU(
            machine,
            self.protection,
            store_buffer_capacity=config.store_buffer_capacity,
            alias_entries=config.alias_entries,
        )
        self.state = HostBackedGuestState(self.cpu.regs)
        self.profile = ExecutionProfile()
        self.interpreter = Interpreter(machine, self.state, self.profile)
        self.translator = Translator(machine, self.profile,
                                     alias_entries=config.alias_entries,
                                     trace_min_reach=config.trace_min_reach)
        self.tcache = TranslationCache(config.tcache_capacity_molecules)
        self.groups = TranslationGroups()
        self.stats = CMSStats()
        self.trace = EventTrace()
        # Observability (PR 4): every runtime event is published on the
        # bus; the ring-buffer trace is one sink, and with obs enabled
        # the metrics registry and JSONL telemetry subscribe alongside
        # it.  With obs off, ``self.obs`` is None and the phase timer is
        # the null profiler, so every phase has one code path.
        self.bus = ObservationBus()
        self.bus.add_sink(self.trace)
        self.obs = Observability(config) if config.obs_enabled else None
        self._phases = NULL_PHASES
        if self.obs is not None:
            for sink in self.obs.event_sinks():
                self.bus.add_sink(sink)
            self._phases = self.obs.phases
        # One guest instruction per call: bound once, so with obs off
        # an interpreted step pays no phase entry at all.
        self._interpret = self._phases.timed("interpret",
                                             self.interpreter.step)
        self.controller = AdaptiveController(config)
        self.degrade = DegradationManager(
            config, self.stats, trace=self.bus,
            clock=lambda: self.machine.instructions_retired,
        )
        self.degrade.on_demote = self._on_region_demoted
        self.auditor = RuntimeAuditor(self)
        self.smc = SMCManager(config, self.tcache, self.groups,
                              self.protection, machine, self.stats,
                              self.controller, trace=self.bus,
                              degrade=self.degrade, phases=self._phases)

        self.interpreter.store_hook = self.smc.on_interpreter_store
        self.cpu.protection_service = self.smc.service_inline
        self.machine.bus.store_observers.append(self.smc.on_ram_write)
        self.tcache.on_flush = self._on_tcache_flush
        self.tcache.on_evict = self._on_tcache_evict
        self._halted = False

        # Host-speed dial (cost-model-invisible; the benchmark harness
        # flips it for attribution).
        machine.mmu.set_tlb_enabled(config.mmu_tlb)
        # Mapping-coherency feed (§3.6.1 under paging): when a page
        # table mutation touches a page that carries translated code,
        # chains into its translations are severed so the dispatcher
        # re-verifies the identity mapping before re-entering them.
        machine.mmu.mapping_observers.append(self._on_mapping_changed)
        # Template JIT (PR 6): committed translations lowered to
        # generated Python (host/jit.py).  Semantics-invisible like the
        # other wall-clock dials; degraded ladder tiers and quarantined
        # regions keep the simulated-VLIW path.
        self.jit = (TemplateJIT(self.cpu, stats=self.stats,
                                phases=self._phases)
                    if config.template_jit else None)
        self.icache = DecodedInstructionCache() if config.decode_cache \
            else None
        if self.icache is not None:
            self.interpreter.icache = self.icache
            # Same coherence feed the SMC manager uses: every RAM store
            # through the bus — interpreter stores, committed translated
            # stores draining at commit, DMA and disk writes.
            machine.bus.store_observers.append(self.icache.on_ram_write)

        # Chaos mode (fuzz harness): deterministically raise internal
        # errors inside the translator so the containment layer can be
        # audited end to end.  The wrapper sits *inside* the containment
        # boundaries, exactly where a real translator bug would fire.
        self.chaos = (ChaosMonkey(config.chaos_rate, config.chaos_seed,
                                  tenant=config.chaos_tenant)
                      if config.chaos_rate > 0.0 else None)
        if self.chaos is not None:
            inner_translate = self.translator.translate

            def chaotic_translate(entry_eip, policy):
                self.chaos.maybe_raise("translator.select")
                translation = inner_translate(entry_eip, policy)
                self.chaos.maybe_raise("translator.codegen")
                return translation

            self.translator.translate = chaotic_translate
        self._dispatches_since_audit = 0

        # Persistent snapshot (PR 5): warm-start from a prior run.  The
        # guest image is already in RAM at construction time, so every
        # persisted translation can be revalidated against it here.  A
        # bad snapshot (corrupt, wrong version, mismatched config) must
        # never prevent a cold start: the error is captured, not raised.
        self.snapshot_report: persist.SnapshotLoadReport | None = None
        self.snapshot_error: persist.SnapshotError | None = None
        self._shutdown_done = False
        if config.snapshot_path and os.path.exists(config.snapshot_path):
            try:
                self.snapshot_report = persist.load_snapshot(
                    self, config.snapshot_path)
            except persist.SnapshotError as error:
                self.snapshot_error = error

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, entry_eip: int | None = None,
            max_instructions: int = 50_000_000) -> RunResult:
        """Run until the guest halts or ``max_instructions`` retire."""
        if entry_eip is not None:
            self.state.eip = entry_eip
        machine = self.machine
        try:
            while machine.instructions_retired < max_instructions and \
                    not self._halted:
                self._dispatch_once()
        except Halted:
            self._halted = True
        self._finalize_stats()
        return RunResult(
            halted=self._halted,
            guest_instructions=machine.instructions_retired,
            stats=self.stats,
            console_output=machine.console.output,
        )

    def run_slice(self, guest_budget: int, should_preempt=None) -> bool:
        """Run up to ``guest_budget`` more guest instructions, then yield.

        The cooperative-scheduling entry point for fleet serving: the
        supervisor interleaves tenants by calling this round-robin.  The
        slice ends at the guest-instruction deadline, at a guest halt,
        or as soon as ``should_preempt()`` (the supervisor's watchdog
        hook, consulted between dispatches) returns True.  A single
        dispatch is itself bounded by ``dispatch_fuel_molecules`` — a
        runaway translation FUEL-exits and rolls back — so no one
        dispatch can hold the fleet hostage.

        Returns True while the guest can still make progress.
        """
        machine = self.machine
        deadline = machine.instructions_retired + guest_budget
        try:
            while machine.instructions_retired < deadline and \
                    not self._halted:
                self._dispatch_once()
                if should_preempt is not None and should_preempt():
                    break
        except Halted:
            self._halted = True
        return not self._halted

    def finalize_run(self) -> RunResult:
        """Close out a slice-driven run (what ``run`` does after its
        loop): fold engine counters into stats and build the result."""
        self._finalize_stats()
        return RunResult(
            halted=self._halted,
            guest_instructions=self.machine.instructions_retired,
            stats=self.stats,
            console_output=self.machine.console.output,
        )

    @property
    def halted(self) -> bool:
        return self._halted

    def _finalize_stats(self) -> None:
        self.stats.host_molecules = self.cpu.molecules_executed
        self.stats.guest_instructions = self.machine.instructions_retired
        self.stats.interrupts_delivered = \
            self.interpreter.interrupts_delivered
        self.stats.guest_exceptions_delivered = \
            self.interpreter.exceptions_delivered
        if self.chaos is not None:
            self.stats.chaos_injected = self.chaos.injected
        if self.obs is not None:
            self.obs.finalize(
                self.stats.as_dict(self.config.cost),
                run_info={
                    "halted": self._halted,
                    "guest_instructions": self.stats.guest_instructions,
                },
            )

    def shutdown(self) -> None:
        """End-of-run hook: persist the warm-start snapshot when
        configured.  Idempotent — ``run_workload`` and the fuzz harness
        call it once the run completes."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        config = self.config
        if config.snapshot_save and config.snapshot_path:
            self.save_snapshot(config.snapshot_path)

    def save_snapshot(self, path: str) -> dict:
        """Serialize the cache/controller/profile state to ``path``."""
        payload = persist.save_snapshot(self, path)
        self.bus.record(Event.SNAPSHOT_SAVE, None,
                        f"{len(payload['translations'])} translations")
        return payload

    def load_snapshot(self, path: str) -> persist.SnapshotLoadReport:
        """Load (and revalidate) a snapshot into this system."""
        report = persist.load_snapshot(self, path)
        self.snapshot_report = report
        return report

    def register_loaded_translation(self, translation: Translation) -> None:
        """Admit a snapshot-revalidated translation exactly like a
        fresh one: tcache insert, fine-grain protection, page-index
        recompute.  Chain patches were not persisted; the dispatcher
        re-establishes them lazily on first exit, as after a flush."""
        self.tcache.insert(translation)
        self.smc.protect_translation(translation)
        for page in translation.pages():
            self.smc.recompute_page(page)
        self.stats.snapshot_translations_loaded += 1
        self.bus.record(Event.SNAPSHOT_LOAD, translation.entry_eip)

    def note_snapshot_drop(self, entry_eip: int) -> None:
        """A persisted translation failed load-time revalidation."""
        self.stats.snapshot_translations_dropped += 1
        self.bus.record(Event.SNAPSHOT_DROP, entry_eip)

    # Code-identity window for the adaptive controller: wide enough to
    # distinguish rewritten first instructions, narrow enough that the
    # digest is independent of how large a region any one policy selects.
    _CODE_ID_WINDOW = 16

    def _code_identity(self, entry_eip: int) -> str | None:
        bus = self.machine.bus
        for size in (self._CODE_ID_WINDOW, 4, 1):
            try:
                return digest_bytes(bus.read_code_bytes(entry_eip, size))
            except GuestException:
                continue
        return None

    def live_policy_entries(self) -> set[int]:
        """Entries whose accumulated policy must survive pruning.

        Anything that may translate again soon keeps its policy, so the
        monotone no-bounce guarantee (§3) holds across flushes: resident
        translations, parked group versions, anchors hot enough to
        re-cross the threshold, and every ladder-tracked region.
        """
        live = {t.entry_eip for t in self.tcache.translations()}
        live.update(self.groups.entries())
        threshold = max(1, self.config.translation_threshold // 2)
        live.update(entry for entry, count
                    in self.profile.anchor_counts.items()
                    if count >= threshold)
        live.update(self.degrade.regions())
        return live

    def live_site_entries(self) -> set[int]:
        """Entries whose partial fault counters are worth keeping —
        only regions with a live translation (resident or grouped);
        counts are cheap to relearn, so pruning is aggressive."""
        live = {t.entry_eip for t in self.tcache.translations()}
        live.update(self.groups.entries())
        return live

    def prune_controller(self) -> int:
        """Drop adaptive-controller state for dead regions (PR 5)."""
        removed = self.controller.prune(self.live_policy_entries(),
                                        self.live_site_entries())
        if removed:
            self.stats.controller_pruned += removed
            self.bus.record(Event.CONTROLLER_PRUNE, None,
                            f"{removed} keys")
        return removed

    def health_report(self, run_audit: bool = True) -> HealthReport:
        """Audit the runtime (by default) and snapshot its health."""
        if run_audit:
            findings = self.auditor.audit()
        else:
            findings = self.auditor.last_findings
        if self.chaos is not None:
            self.stats.chaos_injected = self.chaos.injected
        stats = self.stats
        report = HealthReport(
            contained_errors=stats.contained_errors,
            quarantines=stats.quarantines,
            quarantined_regions=self.degrade.quarantined_regions(),
            storm_demotions=stats.storm_demotions,
            promotions=(stats.ladder_promotions
                        + stats.quarantine_readmissions),
            tier_census=self.degrade.tier_census(),
            audit_runs=stats.audit_runs,
            audit_repairs=stats.audit_repairs,
            audit_findings=list(findings),
            chaos_injected=stats.chaos_injected,
            incidents=[incident.describe()
                       for incident in self.degrade.incidents],
        )
        if self.obs is not None and self.obs.telemetry is not None:
            self.obs.telemetry.emit("health", asdict(report))
            self.obs.telemetry.flush()
        return report

    # ------------------------------------------------------------------
    # The dispatcher (Figure 1)
    # ------------------------------------------------------------------

    def _dispatch_once(self) -> None:
        """One dispatcher iteration inside the containment boundary.

        No internal CMS failure may escape this frame: anything that is
        not guest-semantic (``Halted`` is the guest stopping) is
        contained — state is rolled back to the last commit, the region
        is quarantined, and the interpreter makes one step of guaranteed
        forward progress.  With ``failure_containment`` off (ablation /
        debugging), internal errors propagate as before.
        """
        if not self.config.failure_containment:
            self._dispatch_inner()
            return
        try:
            self._dispatch_inner()
        except Halted:
            raise
        except Exception as error:  # noqa: BLE001 — the containment point
            self._contain_dispatch_error(error)

    def _contain_dispatch_error(self, error: Exception) -> None:
        """Last-resort recovery: rollback, quarantine, interpret."""
        self._rollback()
        entry = self.state.eip
        self._contain("dispatch", entry, error)
        # The interpreter is the trust root: if *it* cannot make
        # progress there is no sound fallback left, so its own errors
        # (beyond Halted) propagate.
        self._interp_step()

    def _contain(self, stage: str, entry_eip: int,
                 error: Exception) -> None:
        """Record an incident and quarantine ``entry_eip``'s region."""
        self.degrade.contain(stage, entry_eip, error)

    def _on_region_demoted(self, entry_eip: int) -> None:
        """Ladder demotion: retire the region's current translation so
        the next dispatch observes the new (more conservative) tier."""
        translation = self.tcache.lookup(entry_eip)
        if translation is not None:
            self.tcache.invalidate_translation(translation)
            for page in translation.pages():
                self.smc.recompute_page(page)
        self.controller.reset_region(entry_eip)

    def _maybe_audit(self) -> None:
        interval = self.config.audit_interval
        if interval <= 0:
            return
        self._dispatches_since_audit += 1
        if self._dispatches_since_audit < interval:
            return
        self._dispatches_since_audit = 0
        try:
            with self._phases.phase("audit"):
                self.auditor.audit()
        except Exception as error:  # noqa: BLE001 — audit must not kill us
            if not self.config.failure_containment:
                raise
            self._contain("audit", self.state.eip, error)

    def _dispatch_inner(self) -> None:
        state = self.state
        machine = self.machine
        # Pending interrupts are delivered at this precise boundary by
        # the interpreter (§3.3).
        if state.interrupts_enabled and machine.pic.has_pending():
            self.interpreter.step()
            return

        eip = state.eip
        # While paging is off every address is identity-mapped, so skip
        # the MMU walk entirely (the overwhelmingly common case: boots
        # run un-paged and apps identity-map code).
        if machine.mmu.paging_enabled and not self._identity_mapped(eip):
            self._interp_step()
            return
        translation = self.tcache.lookup(eip)
        if translation is None or not translation.valid:
            # A tcache miss at an anchor: count it and test the threshold
            # first, so cold code never enters the translate phase.
            counts = self.profile.anchor_counts
            counts[eip] = count = counts[eip] + 1
            if count < self.config.translation_threshold:
                self._interp_step()
                return
            with self._phases.phase("translate"):
                translation = self._maybe_translate(eip)
            if translation is None:
                self._interp_step()
                return
        if machine.mmu.paging_enabled and \
                not self._translation_mapped(translation):
            # Some *later* page of the region was remapped out from
            # under the translation (the entry check above only proves
            # the entry page): the host code no longer matches what the
            # guest would fetch, so interpret until the identity
            # mapping is restored.
            self._interp_step()
            return

        self.stats.dispatches += 1
        self._maybe_audit()
        jit = self.jit
        if jit is not None and \
                self.degrade.tier_of(eip) is not Tier.AGGRESSIVE:
            jit = None  # degraded regions stay on the simulated VLIW
        engine = self.cpu.run if jit is None else jit.run
        obs = self.obs
        if obs is not None:
            retired_before = machine.instructions_retired
            molecules_before = self.cpu.molecules_executed
        with self._phases.phase("execute" if jit is None else "jit-execute"):
            exit_info = engine(
                translation, fuel=self.config.dispatch_fuel_molecules
            )
        self.stats.chains_followed += exit_info.chains_followed
        current = exit_info.translations_entered[-1]
        current.entries += 1
        if obs is not None:
            # Committed work only: instructions_retired ticks at commit
            # and this reading precedes any rollback below, so faulted
            # (uncommitted) progress is never attributed to the region.
            obs.note_dispatch(
                current.entry_eip,
                machine.instructions_retired - retired_before,
                self.cpu.molecules_executed - molecules_before,
            )

        if exit_info.kind is ExitKind.EXITED:
            self.degrade.note_clean_dispatch(current.entry_eip)
            atom = exit_info.exit_atom
            if atom is not None and atom.prologue_success:
                self.smc.on_prologue_success(current)
                return
            if atom is not None:
                if current.trace_blocks > 1 and \
                        self._note_trace_exit(current, atom):
                    return  # split and replaced, or mispredict: no chain
                if self._maybe_promote_loop(current):
                    return  # promoted to an unrolled trace and replaced
                self._try_chain(current, atom)
            return
        if exit_info.kind is ExitKind.INTERRUPT:
            self._rollback(current)
            self.bus.record(Event.INTERRUPT, self.state.eip)
            return  # delivered at the top of the next iteration
        if exit_info.kind is ExitKind.FUEL:
            self._rollback(current)
            self.stats.fuel_exits += 1
            self._interp_step()
            return
        # FAULT
        assert exit_info.fault is not None
        self._rollback(current)
        self.bus.record(Event.ROLLBACK, self.state.eip,
                        exit_info.fault.kind.name)
        with self._phases.phase("fault-service"):
            self._handle_fault(exit_info.fault, current)

    def _identity_mapped(self, eip: int) -> bool:
        """Translations are only reused for identity-mapped code.

        Uses the MMU's host-side probe: a CMS-internal mapping check is
        not a guest access, so it must not bump the architectural
        ``mmu.translations``/``faults`` counters (an unmapped EIP's
        fetch fault surfaces in the interpreter, which *does* count).
        """
        mmu = self.machine.mmu
        if not mmu.paging_enabled:
            return True
        return mmu.probe(eip) == eip

    def _translation_mapped(self, translation: Translation) -> bool:
        """Every code page of the translation is identity-mapped.

        A translation's code ranges can span pages beyond the entry
        EIP's; reusing it is only sound while *all* of them still map
        identity (the host code was lifted from those physical bytes,
        and SMC write-protection watches those physical pages).  The
        result is cached against ``mmu.mapping_epoch`` so steady-state
        dispatch pays one integer compare; any page-table mutation
        bumps the epoch and forces a re-probe.
        """
        mmu = self.machine.mmu
        if not mmu.paging_enabled:
            return True
        epoch = mmu.mapping_epoch
        if translation.mapped_epoch == epoch:
            return True
        for page in translation.pages():
            base = page << PAGE_SHIFT
            if mmu.probe(base) != base:
                return False
        translation.mapped_epoch = epoch
        return True

    def _on_mapping_changed(self, vpn: int | None) -> None:
        """MMU mapping observer: a PTE (or the whole table) changed.

        Chains into translations on the affected page are severed so
        chained execution cannot bypass the dispatcher's mapping check;
        the translations stay resident and revalidate via
        ``_translation_mapped`` once identity is restored.
        """
        if vpn is None:
            victims = self.tcache.translations()
        else:
            victims = self.tcache.translations_on_page(vpn)
        for translation in victims:
            self.stats.mapping_unchains += \
                self.tcache.unchain_incoming(translation)

    def _rollback(self, translation: Translation | None = None) -> None:
        """Roll host state back under the rollback phase."""
        with self._phases.phase("rollback"):
            self.cpu.rollback()
        if self.obs is not None and translation is not None:
            self.obs.note_rollback(translation.entry_eip)
        self.stats.rollbacks += 1

    def _interp_step(self) -> None:
        outcome = self._interpret()
        if outcome.instr is not None or outcome.took_exception:
            self.stats.interp_instructions += 1
            if self.obs is not None:
                self.obs.note_interp()

    def _note_trace_exit(self, translation: Translation, atom) -> bool:
        """Account a superblock trace exit; split storming traces.

        An exit from any block before the last one means the trace
        mispredicted a biased branch (the guarded side exit fired).
        Recurring mispredicts feed the adaptive controller: the block
        cap is halved — monotonically, through the policy merge — and
        the trace retranslated, descending toward single-block regions
        exactly like other §3 escalations.  Returns True when the exit
        must not be chained: either the trace was retranslated (the
        atom belongs to a dead version) or the exit was counted as a
        mispredict — chaining one would hide every later occurrence
        from this accounting, freezing the counter below the split
        threshold.  An unchained mispredict pays a dispatcher
        round-trip per occurrence, which is exactly the cost signal
        that justifies the split.

        Unrolled-loop traces mostly don't mispredict: a side exit is the
        loop *completing* (the back edge is internal, so a side exit is
        the only way out), tallied separately.  The exception is a
        *shallow* loop — trip count below the unroll depth — which
        exits from an early copy on every entry without ever running a
        full pass over the peeled iterations; those exits count as
        mispredicts so the split ladder can walk the depth back down.
        """
        if translation.loop_trace:
            completing = atom.trace_block >= translation.trace_blocks - 1
            # Average entry executes at least one full pass: the depth
            # is earning its keep, so early exits are just the trip
            # count not being a multiple of it.
            earning = (translation.executions_molecules
                       >= translation.entries * translation.num_molecules)
            if completing or earning:
                self.stats.trace_loop_exits += 1
                return False
        elif atom.trace_block >= translation.trace_blocks - 1:
            return False
        translation.side_exits += 1
        self.stats.trace_side_exits += 1
        threshold = self.config.trace_mispredict_threshold
        if threshold <= 0 or translation.side_exits < threshold:
            return True  # counted; keep the exit visible (unchained)
        if translation.side_exits * 2 < translation.entries:
            return True  # mostly completes; tolerate the side exits
        entry = translation.entry_eip
        new_cap = max(1, translation.trace_blocks // 2)
        self.controller.set_policy(
            entry,
            self.controller.policy_for(entry).with_(max_blocks=new_cap),
        )
        self.stats.trace_splits += 1
        self.bus.record(Event.TRACE_SPLIT, entry,
                        f"blocks {translation.trace_blocks} -> {new_cap}")
        self._retranslate(translation, self.controller.policy_for(entry))
        return True

    def _maybe_promote_loop(self, translation: Translation) -> bool:
        """Escalate a runtime-proven hot loop to an unrolled trace.

        The inverse of :meth:`_note_trace_exit`'s demotion: the first
        translation of a loop is the cheap single body (low translation
        latency, the paper's first-gear choice); once it has executed
        ``trace_hot_molecules`` host molecules the dispatcher flips the
        ``unroll_loops`` policy bit and retranslates, letting the trace
        builder peel iterations and the scheduler overlap them.  The
        translator keeps the unroll only if the cost model says it
        schedules denser, and the bit is sticky in the controller, so a
        rejected unroll is never attempted again (and an SMC code-version
        reset clears it — new code re-proves its hotness).  Returns True
        when the translation was replaced.
        """
        config = self.config
        if (not config.trace_formation
                or not translation.loop_trace
                or translation.trace_blocks > 1
                or config.trace_hot_molecules <= 0
                or translation.executions_molecules
                < config.trace_hot_molecules):
            return False
        entry = translation.entry_eip
        policy = self.controller.policy_for(entry)
        if policy.unroll_loops or policy.max_blocks <= 1:
            return False  # already judged (or clamped single-block)
        self.controller.set_policy(entry, policy.with_(unroll_loops=True))
        self.stats.trace_promotions += 1
        self.bus.record(Event.TRACE_PROMOTE, entry,
                        f"hot loop ({translation.executions_molecules}"
                        f" molecules)")
        # The translation being promoted is the judge's comparison
        # baseline — no need to rebuild the single body it already is.
        self._retranslate(translation, self.controller.policy_for(entry),
                          unroll_baseline=translation)
        return True

    def _try_chain(self, source: Translation, atom) -> None:
        """Chain an exit, inside its own containment boundary: a failed
        chain patch simply leaves the exit unchained (one dispatcher
        round-trip per execution — slower, never wrong)."""
        if not self.config.failure_containment:
            self._try_chain_inner(source, atom)
            return
        try:
            if self.chaos is not None:
                self.chaos.maybe_raise("chain.patch")
            self._try_chain_inner(source, atom)
        except Exception as error:  # noqa: BLE001 — containment point
            self._contain("chain", source.entry_eip, error)

    def _try_chain_inner(self, source: Translation, atom) -> None:
        if atom.exit_target is not None:
            target = self.tcache.lookup(atom.exit_target)
            if target is None or not target.valid:
                return
            if self.machine.mmu.paging_enabled and \
                    not self._translation_mapped(target):
                return  # never chain past the dispatcher's mapping check
            self.tcache.chain(source, atom, target)
        else:
            # Indirect exit: install a monomorphic inline cache guarded
            # by the target EIP just observed.
            observed = self.state.eip
            target = self.tcache.lookup(observed)
            if target is None or not target.valid or target.prologue_armed:
                return
            if self.machine.mmu.paging_enabled and \
                    not self._translation_mapped(target):
                return  # never chain past the dispatcher's mapping check
            if atom.chained_translation is target and \
                    atom.chained_guard == observed:
                return
            self.tcache.chain_indirect(source, atom, target, observed)
            self.stats.indirect_chains += 1
        self.stats.chain_patches += 1
        self.bus.record(Event.CHAIN, source.entry_eip,
                          f"-> {target.entry_eip:#x}")

    # ------------------------------------------------------------------
    # Translation production
    # ------------------------------------------------------------------

    def _maybe_translate(self, eip: int) -> Translation | None:
        """Translate (or reactivate) a hot anchor; None to interpret."""
        # Code identity first: if the guest loaded different code at
        # this address, version-specific escalations (including a stale
        # interpreter pin in stop_addrs) are reset before they gate
        # anything.
        identity = self._code_identity(eip)
        if identity is not None:
            self.controller.observe_code(eip, identity)
        if eip in self.controller.policy_for(eip).stop_addrs:
            return None  # pinned to the interpreter (§3.2)
        if not self.degrade.allow_translation(eip):
            return None  # quarantined: interpret until probation expires
        try:
            reactivated = self.smc.try_group_reactivation(eip)
            if reactivated is not None:
                self.bus.record(Event.GROUP_REACTIVATE, eip)
                return reactivated
            policy = self.degrade.clamp(eip, self.controller.policy_for(eip))
            translation = self.translator.translate(eip, policy)
        except TranslationError:
            # A handled translator outcome — but a region that *keeps*
            # failing to translate re-tries on every hot dispatch, which
            # is itself a storm; the ladder eventually quarantines it.
            self.degrade.note_degrade_event(eip, "translation-error")
            return None
        except Exception as error:  # noqa: BLE001 — containment point
            if not self.config.failure_containment:
                raise
            self._contain("translate", eip, error)
            return None
        if translation is None:
            return None
        if self.machine.mmu.paging_enabled and \
                not self._translation_mapped(translation):
            # The translator read part of this region through a
            # non-identity mapping (the entry page was identity but a
            # later page was not); caching it would pin the wrong
            # physical bytes.  Interpret until the mapping settles.
            return None
        self.tcache.insert(translation)
        self.smc.protect_translation(translation)
        for page in translation.pages():
            self.smc.recompute_page(page)
        self.stats.translations_made += 1
        self.stats.guest_instructions_translated += \
            translation.guest_instr_count
        self._note_translation_shape(translation)
        if self.obs is not None:
            self.obs.note_translation(eip, translation.guest_instr_count)
        self.bus.record(Event.TRANSLATE, eip,
                        translation.policy.describe())
        return translation

    def _retranslate(self, translation: Translation, policy,
                     unroll_baseline: Translation | None = None) -> None:
        """Replace a failing translation with a more conservative one.

        The failing version is removed from the tcache — and, through
        removal, unchained in both directions — *before* the translator
        runs, so that no fallback path (``TranslationError``, a
        contained internal error, or an untranslatable region) can leave
        stale chained entries able to re-enter the dead translation.
        Its page protection is rebuilt in every outcome for the same
        reason: a dead translation must not keep granules protected.
        """
        entry = translation.entry_eip
        self.degrade.note_degrade_event(entry, "retranslate")
        self.tcache.invalidate_translation(translation)
        stale_pages = translation.pages()
        replacement = None
        try:
            with self._phases.phase("translate"):
                replacement = self.translator.translate(
                    entry, self.degrade.clamp(entry, policy),
                    unroll_baseline=unroll_baseline)
        except TranslationError:
            pass
        except Exception as error:  # noqa: BLE001 — containment point
            if not self.config.failure_containment:
                raise
            self._contain("retranslate", entry, error)
        if replacement is None or (
                self.machine.mmu.paging_enabled and
                not self._translation_mapped(replacement)):
            # No replacement — or the retranslator just read the region
            # through a non-identity mapping (same rule as first-time
            # translation).  Either way the region falls back to the
            # interpreter with its page protection rebuilt.
            for page in stale_pages:
                self.smc.recompute_page(page)
            return
        self.tcache.insert(replacement)
        self.smc.protect_translation(replacement)
        for page in stale_pages | replacement.pages():
            self.smc.recompute_page(page)
        self.stats.translations_made += 1
        self.stats.retranslations += 1
        if self.obs is not None:
            self.obs.note_translation(entry, replacement.guest_instr_count)
        self.bus.record(Event.RETRANSLATE, entry, policy.describe())
        self.stats.guest_instructions_translated += \
            replacement.guest_instr_count
        self._note_translation_shape(replacement)

    def _note_translation_shape(self, translation: Translation) -> None:
        """Thread trace-shape and cost-model counters through stats."""
        self.stats.modeled_cycles_translated += translation.modeled_cycles
        if translation.trace_blocks > 1:
            self.stats.traces_formed += 1
            self.stats.trace_blocks_chained += translation.trace_blocks

    # ------------------------------------------------------------------
    # Fault recovery (§3): rollback happened; decide and make progress
    # ------------------------------------------------------------------

    def _handle_fault(self, fault: HostFault,
                      translation: Translation) -> None:
        kind = fault.kind
        self.stats.faults[kind.name] += 1
        translation.fault_counts[kind] += 1
        if self.obs is not None:
            self.obs.note_fault(translation.entry_eip)
        self.bus.record(
            Event.FAULT,
            fault.guest_addr if fault.guest_addr is not None
            else translation.entry_eip,
            kind.name,
        )
        if kind is not HostFaultKind.PROTECTION:
            # Storm accounting: the same translation faulting repeatedly
            # inside the window walks the region down the degradation
            # ladder (protection-fault storms are throttled through the
            # SMC manager's invalidation feed instead).
            self.degrade.note_degrade_event(translation.entry_eip,
                                            kind.name.lower())

        if kind is HostFaultKind.PROTECTION:
            # Inline service already declined: genuine SMC, page-level
            # protection, or a spurious fault needing adaptation.  The
            # faulting store then re-executes through the interpreter.
            with self._phases.phase("smc-service"):
                self.smc.on_protection_fault(fault)
            self._interp_step()
            return
        if kind is HostFaultKind.SELF_CHECK:
            self._handle_self_check_fail(translation)
            return
        if kind is HostFaultKind.MMU_MUTATION:
            # Page-table store: the interpreter re-executes it from the
            # committed state so the mutation is immediately visible to
            # MMU walks (a buffered store would not be).  Regions that
            # keep mutating the table storm the ladder toward the
            # interpreter — the adaptive response, like §3.4's
            # interpret-only pinning.
            self._interp_step()
            return
        if kind is HostFaultKind.GUEST_FAULT:
            genuine = self._recovery_interpret(fault, translation)
            if genuine:
                self.stats.genuine_guest_faults += 1
                self.bus.record(Event.GENUINE_FAULT, fault.guest_addr)
            else:
                self.stats.speculative_guest_faults += 1
                self.bus.record(Event.SPECULATIVE_FAULT, fault.guest_addr)
            policy = self.controller.note_fault(translation, fault, genuine)
            if policy is not None:
                self.bus.record(Event.POLICY_ESCALATE,
                                  translation.entry_eip, policy.describe())
                self._retranslate(translation, policy)
            return
        # ALIAS_VIOLATION / SPEC_MMIO / STOREBUF_OVERFLOW: "rollback and
        # conservative re-execution in the interpreter" (§3.5), then
        # maybe retranslate.  Recovery interprets through the region
        # boundary so translation-entry profiling is not distorted by
        # mid-region addresses becoming anchors.
        policy = self.controller.note_fault(translation, fault, None)
        if policy is not None:
            self.bus.record(Event.POLICY_ESCALATE, translation.entry_eip,
                              policy.describe())
            self._retranslate(translation, policy)
        self._recovery_interpret(fault, translation)

    def _handle_self_check_fail(self, translation: Translation) -> None:
        """A self-checking translation's window check failed (§3.6.3).

        Two cases: (a) the translation patched its *own* bytes — the
        rollback discarded the write, so memory still matches the
        snapshot; the translation stays valid and the interpreter makes
        progress through the modifying store precisely.  (b) someone
        else rewrote the bytes — retire the stale version, reactivate a
        matching group member (§3.6.5), or leave retranslation to the
        dispatcher.
        """
        try:
            current = self.smc._read_ranges(translation.code_ranges)
        except GuestException:
            current = None
        if current == translation.code_snapshot:
            self._interp_step()  # self-writing region: case (a)
            return
        replacement = self.smc.on_self_check_fail(translation)
        if replacement is None:
            self._interp_step()

    def _recovery_interpret(self, fault: HostFault,
                            translation: Translation) -> bool:
        """Re-execute the rolled-back region in the interpreter.

        Returns True when the guest exception recurs at the same
        instruction (a genuine fault, delivered precisely by the
        interpreter) and False when the region re-executes cleanly (the
        fault was an artifact of speculation and is simply ignored,
        §3.2).
        """
        region_addrs = translation.region_addrs()
        cap = self.config.recovery_interp_cap
        for step in range(cap):
            if self.state.eip not in region_addrs:
                return False
            if step > 0 and self.state.eip == translation.entry_eip:
                return False  # one pass of a loop region completed
            outcome = self.interpreter.step()
            self.stats.recovery_interp_instructions += 1
            if outcome.took_exception:
                return True
        return False

    # ------------------------------------------------------------------

    def _on_tcache_flush(self) -> None:
        self.protection.clear()
        # Parked retired versions survive the flush, but their compiled
        # JIT callables must not: the flush's contract is that the whole
        # generation of generated host code is gone (reactivated
        # versions recompile on first dispatch).
        self.groups.drop_host_code()
        self.bus.record(Event.TCACHE_FLUSH)
        # The dead generation's controller state goes with it (anchors
        # survive, so any region hot enough to re-translate keeps its
        # accumulated policy — the monotone guarantee holds).
        self.prune_controller()

    def _on_tcache_evict(self, victims) -> None:
        """Rebuild protection for pages the cold generation occupied,
        and update group residency: a cold-evicted region's retired
        versions must not linger, or groups leak whole version lists
        for regions the cache decided were not worth keeping."""
        pages = set()
        for translation in victims:
            pages.update(translation.pages())
            if self.tcache.lookup(translation.entry_eip) is None:
                self.groups.drop_group(translation.entry_eip)
        for page in pages:
            self.smc.recompute_page(page)


def run_reference(machine: Machine, entry_eip: int,
                  max_instructions: int = 50_000_000) -> RunResult:
    """Run a workload on the pure interpreter (the correctness oracle)."""
    system = CodeMorphingSystem(
        machine, CMSConfig().interpreter_only()
    )
    return system.run(entry_eip, max_instructions)
