"""Persistence-layer tests (PR 5): snapshot save, load, revalidate.

The warm-start contract under test:

* a snapshot written at shutdown reloads into a fresh system as a
  byte-identical payload (save/load/save is a fixpoint);
* every reloaded translation is revalidated against current guest RAM
  §3.6.2-style — a one-byte code mutation drops exactly the
  translations whose recorded ranges overlap the mutated byte, never
  fewer (stale code must not run) and never more (unrelated work is
  kept);
* corrupted, truncated, or version-mismatched files are rejected whole
  before anything is applied, and the system still boots cold;
* a warm run is architecturally invisible: identical console output
  and final state, with (almost) no translator invocations.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CMSConfig, CodeMorphingSystem, Machine
from repro.cache import persist
from repro.cache.persist import (
    SNAPSHOT_VERSION,
    SnapshotError,
    inspect_snapshot,
    read_snapshot_file,
)
from repro.cms.config import HOST_SPEED_DIALS

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)

# Two hot loops => at least two distinct translated regions with
# disjoint code ranges, so revalidation drops can be selective.
PROGRAM = """
start:
    mov eax, 0
    mov ecx, 0
first:
    add eax, 7
    rol eax, 3
    inc ecx
    cmp ecx, 40
    jl first
    mov esi, 0
    mov ecx, 0
second:
    add esi, eax
    xor esi, 0x5a5a5a5a
    inc ecx
    cmp ecx, 40
    jl second
    cli
    hlt
"""


def cold_save(path: str, source: str = PROGRAM,
              config: CMSConfig = FAST):
    """Run a cold session that saves a snapshot at shutdown."""
    cfg = replace(config, snapshot_path=path, snapshot_save=True)
    machine = Machine()
    entry = machine.load_source(source)
    system = CodeMorphingSystem(machine, cfg)
    result = system.run(entry)
    system.shutdown()
    return system, result


def warm_system(path: str, source: str = PROGRAM,
                config: CMSConfig = FAST, mutate: int | None = None):
    """Build a fresh machine (optionally flipping one code byte) and a
    system that loads the snapshot at construction."""
    cfg = replace(config, snapshot_path=path)
    machine = Machine()
    entry = machine.load_source(source)
    if mutate is not None:
        original = machine.ram.read_bytes(mutate, 1)[0]
        machine.ram.write_bytes(mutate, bytes([original ^ 0xFF]))
    system = CodeMorphingSystem(machine, cfg)
    return system, entry


def run_reference(source: str, mutate_with: bytes | None = None,
                  mutate_at: int | None = None):
    machine = Machine()
    entry = machine.load_source(source)
    if mutate_at is not None:
        machine.ram.write_bytes(mutate_at, mutate_with)
    system = CodeMorphingSystem(machine, FAST.interpreter_only())
    result = system.run(entry)
    return system, result


@pytest.fixture
def snap_path(tmp_path):
    return str(tmp_path / "warm.cms-snapshot.json")


# Shared snapshot for the hypothesis properties: built once, read-only.
_SHARED: dict = {}


def shared_snapshot():
    if not _SHARED:
        handle, path = tempfile.mkstemp(suffix=".cms-snapshot.json")
        os.close(handle)
        os.unlink(path)
        system, result = cold_save(path)
        assert result.halted
        _SHARED["path"] = path
        _SHARED["payload"] = read_snapshot_file(path)
        with open(path, "rb") as fh:
            _SHARED["raw"] = fh.read()
        _SHARED["final_state"] = system.state.snapshot()
        _SHARED["console"] = result.console_output
        _SHARED["translations_cold"] = system.stats.translations_made
    return _SHARED


class TestRoundTrip:
    def test_cold_run_saves_a_valid_file(self, snap_path):
        system, result = cold_save(snap_path)
        assert result.halted
        assert system.stats.translations_made >= 2
        payload = read_snapshot_file(snap_path)
        assert payload["translations"]
        assert payload["resident"]
        info = inspect_snapshot(snap_path)
        assert info["resident"] == len(payload["resident"])

    def test_warm_load_registers_everything(self, snap_path):
        cold_save(snap_path)
        payload = read_snapshot_file(snap_path)
        system, _ = warm_system(snap_path)
        report = system.snapshot_report
        assert system.snapshot_error is None
        assert report is not None
        assert report.loaded == len(payload["resident"])
        assert report.dropped == 0
        assert system.stats.snapshot_translations_loaded == report.loaded
        for index in payload["resident"]:
            entry = payload["translations"][index]["entry_eip"]
            assert system.tcache.lookup(entry) is not None

    def test_warm_run_is_architecturally_invisible(self, snap_path):
        cold, cold_result = cold_save(snap_path)
        system, entry = warm_system(snap_path)
        warm_result = system.run(entry)
        assert warm_result.halted
        assert warm_result.console_output == cold_result.console_output
        assert system.state.snapshot() == cold.state.snapshot()
        # The point of warm start: the translator (almost) never runs.
        assert system.stats.translations_made < \
            cold.stats.translations_made

    def test_save_load_save_is_a_fixpoint(self, snap_path):
        cold_save(snap_path)
        saved = read_snapshot_file(snap_path)
        system, _ = warm_system(snap_path)
        rebuilt = persist.build_payload(system)
        assert persist._canonical(rebuilt) == persist._canonical(saved)

    def test_chain_patches_not_persisted(self, snap_path):
        cold_save(snap_path)
        system, _ = warm_system(snap_path)
        for translation in system.tcache.translations():
            assert not translation.incoming_chains
            for atom in translation.exit_atoms:
                assert atom.chained_translation is None


class TestRevalidation:
    def test_mutated_immediate_drops_only_its_region(self, snap_path):
        """Patch the imm32 of the second loop: the translation covering
        it is dropped at load, the first loop's survives, and the warm
        run matches the interpreter on the mutated image."""
        cold_save(snap_path)
        payload = read_snapshot_file(snap_path)
        machine = Machine()
        entry = machine.load_source(PROGRAM)
        ram = machine.ram.read_bytes(0, machine.ram.size)
        imm_addr = ram.find(bytes([0x5A] * 4))
        assert imm_addr > 0
        machine.ram.write_bytes(imm_addr, b"\x11")
        system = CodeMorphingSystem(
            machine, replace(FAST, snapshot_path=snap_path))
        report = system.snapshot_report
        expected_drops = {
            payload["translations"][i]["entry_eip"]
            for i in payload["resident"]
            if any(s <= imm_addr < s + n
                   for s, n in payload["translations"][i]["code_ranges"])
        }
        assert expected_drops, "immediate was not inside any translation"
        assert set(report.dropped_entries) == expected_drops
        assert report.loaded == len(payload["resident"]) - \
            len(report.dropped_entries)
        for dropped in report.dropped_entries:
            assert system.tcache.lookup(dropped) is None
        result = system.run(entry)
        ref_system, ref_result = run_reference(
            PROGRAM, mutate_with=b"\x11", mutate_at=imm_addr)
        assert result.halted and ref_result.halted
        assert result.console_output == ref_result.console_output
        assert system.state.snapshot() == ref_system.state.snapshot()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_one_byte_mutation_drops_exactly_overlapping(self, data):
        shared = shared_snapshot()
        payload = shared["payload"]
        ranges = [tuple(r)
                  for i in payload["resident"]
                  for r in payload["translations"][i]["code_ranges"]]
        start, length = data.draw(st.sampled_from(ranges))
        addr = start + data.draw(
            st.integers(min_value=0, max_value=length - 1))
        system, _ = warm_system(shared["path"], mutate=addr)
        report = system.snapshot_report
        expected = {
            payload["translations"][i]["entry_eip"]
            for i in payload["resident"]
            if any(s <= addr < s + n
                   for s, n in payload["translations"][i]["code_ranges"])
        }
        assert expected  # the byte came from a recorded range
        assert set(report.dropped_entries) == expected
        assert report.loaded + report.dropped == len(payload["resident"])
        for entry in expected:
            assert system.tcache.lookup(entry) is None


class TestRejection:
    def _reject(self, tmp_path, blob: bytes):
        path = str(tmp_path / "bad.json")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotError):
            read_snapshot_file(path)
        # The system must still come up cold (error captured, not
        # raised) and run normally.
        machine = Machine()
        entry = machine.load_source(PROGRAM)
        system = CodeMorphingSystem(
            machine, replace(FAST, snapshot_path=path))
        assert system.snapshot_error is not None
        assert system.snapshot_report is None
        assert system.stats.snapshot_translations_loaded == 0
        assert system.run(entry).halted

    def test_missing_file_is_a_cold_start(self, tmp_path):
        path = str(tmp_path / "never-written.json")
        machine = Machine()
        machine.load_source(PROGRAM)
        system = CodeMorphingSystem(
            machine, replace(FAST, snapshot_path=path))
        assert system.snapshot_error is None
        assert system.snapshot_report is None

    def test_garbage_rejected(self, tmp_path):
        self._reject(tmp_path, b"\x00\x01\x02 not json")

    def test_wrong_format_rejected(self, tmp_path):
        blob = json.dumps({"format": "something-else", "version": 1,
                           "checksum": "", "payload": {}}).encode()
        self._reject(tmp_path, blob)

    def test_future_version_rejected(self, tmp_path):
        raw = dict(json.loads(shared_snapshot()["raw"]))
        raw["version"] = SNAPSHOT_VERSION + 1
        self._reject(tmp_path, json.dumps(raw).encode())

    def test_checksum_mismatch_rejected(self, tmp_path):
        raw = dict(json.loads(shared_snapshot()["raw"]))
        raw["payload"] = dict(raw["payload"])
        raw["payload"]["resident"] = []
        self._reject(tmp_path, json.dumps(raw).encode())

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_corruption_rejected(self, data):
        """Flip one non-whitespace byte, or truncate anywhere before
        the closing brace: the file must be rejected whole."""
        blob = bytearray(shared_snapshot()["raw"])
        if data.draw(st.booleans()):
            positions = [i for i, b in enumerate(blob)
                         if b not in b" \t\r\n"]
            pos = data.draw(st.sampled_from(positions))
            blob[pos] ^= 0xFF
            corrupted = bytes(blob)
        else:
            cut = data.draw(st.integers(min_value=0,
                                        max_value=len(blob) - 2))
            corrupted = bytes(blob[:cut])
        handle, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(handle, "wb") as fh:
                fh.write(corrupted)
            with pytest.raises(SnapshotError):
                read_snapshot_file(path)
        finally:
            os.unlink(path)

    def test_strict_config_mismatch_rejected_whole(self, snap_path):
        cold_save(snap_path)
        other = replace(FAST, translation_threshold=9,
                        snapshot_path=snap_path)
        machine = Machine()
        machine.load_source(PROGRAM)
        system = CodeMorphingSystem(machine, other)
        assert system.snapshot_error is not None
        assert "configuration" in str(system.snapshot_error)
        assert system.stats.snapshot_translations_loaded == 0
        assert len(system.tcache) == 0

    @pytest.mark.parametrize("dial", HOST_SPEED_DIALS)
    def test_host_speed_dial_off_loads_under_strict_config(self, snap_path,
                                                           dial):
        cold_save(snap_path, config=replace(FAST, **{dial: False}))
        system, _ = warm_system(snap_path)
        assert system.config.snapshot_strict_config
        assert system.snapshot_error is None
        assert system.snapshot_report.config_matched
        assert system.stats.snapshot_translations_loaded > 0

    def test_lenient_config_mismatch_loads_anyway(self, snap_path):
        cold_save(snap_path)
        other = replace(FAST, translation_threshold=9,
                        snapshot_path=snap_path,
                        snapshot_strict_config=False)
        machine = Machine()
        machine.load_source(PROGRAM)
        system = CodeMorphingSystem(machine, other)
        assert system.snapshot_error is None
        assert system.snapshot_report is not None
        assert not system.snapshot_report.config_matched
        assert system.stats.snapshot_translations_loaded > 0


class TestWarmEquivalenceProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=3, max_value=9),
           st.integers(min_value=5, max_value=60))
    def test_warm_molecule_stream_matches_reference(
            self, seed, increment, trips):
        """Random loop parameters: the warm run (reloading whatever the
        cold run persisted) must match the pure interpreter exactly."""
        source = f"""
start:
    mov eax, {seed:#x}
    mov ecx, 0
body:
    add eax, {increment}
    rol eax, 1
    xor eax, {seed ^ 0xA5A5A5A5:#x}
    inc ecx
    cmp ecx, {trips}
    jl body
    cli
    hlt
"""
        handle, path = tempfile.mkstemp(suffix=".cms-snapshot.json")
        os.close(handle)
        os.unlink(path)
        try:
            cold_save(path, source=source)
            system, entry = warm_system(path, source=source)
            result = system.run(entry)
            ref_system, ref_result = run_reference(source)
            assert result.halted and ref_result.halted
            assert result.console_output == ref_result.console_output
            assert system.state.snapshot() == ref_system.state.snapshot()
        finally:
            if os.path.exists(path):
                os.unlink(path)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=3, max_value=12),
           st.sampled_from([8, 16, 24]))
    def test_fixpoint_across_dials(self, threshold, commit):
        config = replace(FAST, translation_threshold=threshold,
                         commit_interval=commit)
        handle, path = tempfile.mkstemp(suffix=".cms-snapshot.json")
        os.close(handle)
        os.unlink(path)
        try:
            cold_save(path, config=config)
            saved = read_snapshot_file(path)
            system, _ = warm_system(path, config=config)
            rebuilt = persist.build_payload(system)
            assert persist._canonical(rebuilt) == \
                persist._canonical(saved)
        finally:
            if os.path.exists(path):
                os.unlink(path)
