"""Configuration of the CMS runtime and its cost model.

The experiment harnesses (benchmarks/) work by toggling these dials and
comparing molecule counts, exactly as the paper's own simulator studies
do: suppress memory reordering (Figure 2), disable the alias hardware
(Figure 3), disable fine-grain protection (Table 1), force self-checking
translations (§3.6.3), disable self-revalidation (§3.6.2), and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: The host-speed dials: ``CMSConfig`` fields that change how fast the
#: simulator runs on the host, never what it computes.  Snapshot config
#: digests exclude them and ``seed_performance()`` turns them all off;
#: each one has its ablation row in ``benchmarks/bench_wallclock.py``.
HOST_SPEED_DIALS = ("decode_cache", "template_jit", "mmu_tlb")


@dataclass(frozen=True)
class CostModel:
    """Molecule-equivalent charges for work not executed as molecules.

    The host simulator counts real molecules for translated code; the
    activities below happen inside CMS native code that this
    reproduction models at the functional level, so their costs are
    charged explicitly.  Values are calibrated to the qualitative
    relations the paper states: interpretation is "much slower than
    executing translations"; the translator "can be a significant
    portion of execution time"; commits are "effectively free" and
    rollbacks "cost less than a couple of branch mispredictions".
    """

    interp_per_instruction: int = 40  # decode+dispatch+execute, native
    # Translation cost per guest instruction.  The real translator costs
    # thousands of host cycles per instruction but amortizes over
    # billions of executed instructions; our workloads retire ~10^5, so
    # the charge is scaled to keep the translator "a significant portion
    # of execution time" (§2) without letting one retranslation drown a
    # whole run's schedule effects.
    translate_per_instruction: int = 1200
    rollback: int = 6  # §3.1: a couple of mispredictions
    dispatch_lookup: int = 14  # tcache hash lookup, no-chain exit
    fault_service: int = 120  # native fault handler + CMS triage
    fine_grain_install: int = 180  # fg miss service (§3.6.1)
    interrupt_delivery: int = 60  # vectoring through the IVT
    chain_patch: int = 20  # one-time exit patching


@dataclass(frozen=True)
class CMSConfig:
    """All dials of the system."""

    # Figure-1 thresholds.
    translation_threshold: int = 20  # interpreted executions before translating
    max_region_instructions: int = 200
    commit_interval: int = 24

    # Speculation dials (Figures 2 and 3).
    reorder_memory: bool = True
    use_alias_hw: bool = True
    control_speculation: bool = True

    # Superblock/trace formation (PR 7).  When on, the translator chains
    # profile-biased successor blocks into one extended region with
    # guarded side exits; mispredicted side exits feed the adaptive
    # controller, which splits storming traces back toward single
    # blocks (§3.6.5-style).  These dials shape translations (molecule
    # streams differ with them), so they participate in the snapshot
    # config digest — only guest-visible output is invariant.
    trace_formation: bool = True
    # Benchmarked defaults (see EXPERIMENTS.md): 4 blocks / 8192 hot
    # molecules was the only dial point where a workload's wall clock
    # improved (quake_demo2) while the others paid just their one-time
    # translation cost; wider/earlier unrolls lose the amortization race.
    trace_max_blocks: int = 4  # superblock cap per translation
    trace_min_reach: float = 0.35  # min on-trace probability to keep growing
    trace_mispredict_threshold: int = 16  # early side exits before a split
    # Molecules a single-block loop translation must execute before the
    # dispatcher promotes it to an unrolled trace (adaptive escalation:
    # cold loops never pay the unroll's translation cost).
    trace_hot_molecules: int = 8192

    # SMC machinery (Table 1, §3.6.2-§3.6.5).
    fine_grain_protection: bool = True
    fine_grain_entries: int = 8
    self_revalidation: bool = True
    stylized_smc: bool = True
    translation_groups: bool = True
    force_self_check: bool = False  # experiment: all translations check

    # Adaptive retranslation (§3).
    adaptive_retranslation: bool = True
    fault_threshold: int = 3  # recurring faults before adapting
    revalidate_exec_ratio: float = 4.0  # executions per fault to prefer
    # self-revalidation over self-checking

    # Hardware sizes.
    store_buffer_capacity: int = 64
    alias_entries: int = 8
    tcache_capacity_molecules: int = 4_000_000

    # Engine guards.
    dispatch_fuel_molecules: int = 400_000  # watchdog per dispatch
    recovery_interp_cap: int = 512  # max recovery steps per fault

    # Failure containment & graceful degradation (PR 3).
    failure_containment: bool = True  # containment boundaries + ladder
    storm_window: int = 2500  # guest-instruction window for storm detection
    storm_threshold: int = 6  # degrade events in-window before demotion
    quarantine_probation: int = 50  # interpreter visits before re-admission
    ladder_promote_clean: int = 32  # clean dispatches per rung re-climbed
    degrade_tier_floor: int = 0  # start (and keep) every region >= this tier
    audit_interval: int = 2048  # dispatches between self-audits (0 = off)
    # Chaos mode (fuzz harness): probability that any one internal
    # translator/chain operation raises an injected error.  The
    # containment layer must keep every such failure guest-invisible.
    chaos_rate: float = 0.0
    chaos_seed: int = 0
    # Multi-instance identity (fleet serving): the chaos stream is
    # derived from ``(chaos_seed, chaos_tenant)``, so two tenants
    # sharing a base config fault independently, never in lockstep.
    chaos_tenant: int = 0

    # Observability (PR 4).  ``obs_enabled`` gates the whole layer —
    # phase timing, per-region hot-spot attribution, the metrics
    # registry, and JSONL telemetry; off (the default) every phase is
    # timed by the null profiler, which never reads a clock, and runs
    # are guaranteed molecule-identical to an obs-less build.
    # ``obs_jsonl_path`` additionally streams events and the run
    # summary to a rotated JSONL file.  The bucket bounds apply to
    # every histogram the runtime creates (fixed at construction;
    # deterministic).
    obs_enabled: bool = False
    obs_jsonl_path: str | None = None
    obs_histogram_buckets: tuple[int, ...] = tuple(2**i for i in range(13))

    # Persistent translation-cache snapshots (PR 5).  With a path set,
    # the system reloads a prior run's translations, adaptive policies,
    # and execution profile at construction time (every translation is
    # revalidated against current guest RAM, §3.6.2 generalized across
    # runs); ``snapshot_save`` additionally writes the snapshot back at
    # ``shutdown()``.  ``snapshot_strict_config`` rejects — whole, never
    # partially applied — a snapshot taken under a different
    # speculation/SMC dial set (run-local dials like obs/chaos and the
    # wall-clock flags are excluded from the comparison).
    snapshot_path: str | None = None
    snapshot_save: bool = False
    snapshot_strict_config: bool = True

    # Host-speed dials (``HOST_SPEED_DIALS``; see EXPERIMENTS.md).
    # These change how fast the *simulator* runs on the host, never
    # what it computes: molecule counts, CostModel charges, and console
    # output are bit-identical with every combination of these flags.
    # They exist so `benchmarks/bench_wallclock.py` can attribute the
    # speedup.
    decode_cache: bool = True  # memoize decode() keyed by paddr
    template_jit: bool = True  # lower committed translations to Python
    mmu_tlb: bool = True  # software TLB over the guest page table

    cost: CostModel = field(default_factory=CostModel)

    def interpreter_only(self) -> "CMSConfig":
        """A configuration that never translates (the reference engine)."""
        return replace(self, translation_threshold=2**62)

    def seed_performance(self) -> "CMSConfig":
        """Every host-speed dial off (the seed's execution paths)."""
        return replace(self, **dict.fromkeys(HOST_SPEED_DIALS, False))
