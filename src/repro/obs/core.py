"""The per-system observability facade.

One :class:`Observability` instance bundles the four pillars —
metrics registry, phase profiler, hot-spot profiler, telemetry sink —
behind the handful of calls the dispatcher makes.  The dispatcher
holds ``None`` instead when ``CMSConfig.obs_enabled`` is off, and
times its phases with ``NULL_PHASES`` (see :mod:`repro.obs.phases`).
"""

from __future__ import annotations

from repro.obs.bus import EventCountSink
from repro.obs.hotspots import HotSpotProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import PhaseProfiler
from repro.obs.telemetry import TelemetrySink


class Observability:
    """Metrics + phases + hot-spots + telemetry for one CMS instance."""

    def __init__(self, config) -> None:
        self.registry = MetricsRegistry(tuple(config.obs_histogram_buckets))
        self.phases = PhaseProfiler()
        self.hotspots = HotSpotProfiler()
        self.telemetry = (
            TelemetrySink(config.obs_jsonl_path)
            if config.obs_jsonl_path
            else None
        )
        self._dispatch_instr = self.registry.histogram(
            "dispatch.guest_instructions"
        )
        self._dispatch_mols = self.registry.histogram("dispatch.molecules")
        self._region_sizes = self.registry.histogram(
            "translation.guest_instructions"
        )

    def event_sinks(self) -> list:
        """The bus sinks this facade contributes."""
        sinks: list = [EventCountSink(self.registry)]
        if self.telemetry is not None:
            sinks.append(self.telemetry)
        return sinks

    # -- dispatcher feed ---------------------------------------------------

    def note_dispatch(
        self, entry_eip: int, instructions: int, molecules: int
    ) -> None:
        self.hotspots.note_dispatch(entry_eip, instructions, molecules)
        self._dispatch_instr.observe(instructions)
        self._dispatch_mols.observe(molecules)

    def note_fault(self, entry_eip: int) -> None:
        self.hotspots.note_fault(entry_eip)

    def note_rollback(self, entry_eip: int) -> None:
        self.hotspots.note_rollback(entry_eip)

    def note_translation(self, entry_eip: int, guest_instructions: int) -> None:
        self.hotspots.note_translation(entry_eip)
        self._region_sizes.observe(guest_instructions)

    def note_interp(self, instructions: int = 1) -> None:
        self.hotspots.note_interp(instructions)

    def dispatch_summary(self) -> dict:
        """Deterministic dispatch-size quantiles for per-run records.

        Interpolated from the fixed power-of-two histogram buckets, so
        the values depend only on the observation multiset — safe to
        gate exactly in CI (see the scenario matrix).
        """
        return {
            "count": self._dispatch_instr.count,
            "p50_instructions": round(self._dispatch_instr.quantile(0.5), 6),
            "p99_instructions": round(self._dispatch_instr.quantile(0.99), 6),
            "p50_molecules": round(self._dispatch_mols.quantile(0.5), 6),
            "p99_molecules": round(self._dispatch_mols.quantile(0.99), 6),
        }

    # -- finalization ------------------------------------------------------

    def finalize(self, stats_dict: dict, run_info: dict | None = None) -> None:
        """Fold run totals into the registry and emit the summary record."""
        self.registry.set_counters(stats_dict, prefix="stats.")
        if self.telemetry is None:
            return
        self.telemetry.emit(
            "run-summary",
            {
                "run": run_info or {},
                "metrics": self.registry.snapshot(),
                "phases": self.phases.snapshot(),
                "hotspots": self.hotspots.snapshot(),
            },
        )
        self.telemetry.flush()
