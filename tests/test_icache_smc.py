"""SMC coherence of the decoded-instruction cache.

The decode cache is a miniature code cache (§3.6): it may serve an
entry only while the bytes it was decoded from are unchanged.  These
tests patch code through every write path that reaches RAM — an
interpreter store, a DMA transfer, and a committed translated store —
and assert that the next fetch decodes the *new* bytes, by comparing
the full architectural outcome against a run that decodes every
instruction from raw bytes (the ``pin_uncached_decode`` reference).
A wrong result here would be silent staleness: the guest would keep
executing the old instruction.

Also covered: the cache's page-granular invalidation unit behavior and
the shape invariant that the host-speed machinery (decode cache,
template JIT, software TLB) never changes console output or molecule
counts against the slow paths it replaced.
"""

from __future__ import annotations

from repro import CMSConfig, CodeMorphingSystem
from repro.isa.icache import DecodedInstructionCache

from conftest import (assert_equivalent, pin_tlb_walks,
                      pin_uncached_decode, pin_vliw, run_cms,
                      run_workload_cms)

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)


def run_interp(source: str, cached: bool = True):
    """Run under the interpreter only, with or without the decode cache."""
    return run_cms(source, FAST.interpreter_only(),
                   max_instructions=2_000_000,
                   pins=() if cached else (pin_uncached_decode,))


def assert_same_outcome(source: str) -> CodeMorphingSystem:
    """Cache-on and cache-off interpreter runs must agree exactly."""
    on_system, on_result = run_interp(source, cached=True)
    off_system, off_result = run_interp(source, cached=False)
    assert on_result.halted and off_result.halted
    assert on_result.console_output == off_result.console_output
    assert on_system.state.snapshot() == off_system.state.snapshot()
    assert (on_result.stats.total_molecules(FAST.cost)
            == off_result.stats.total_molecules(FAST.cost))
    return on_system


# ----------------------------------------------------------------------
# Unit behavior
# ----------------------------------------------------------------------


class TestCacheUnit:
    def test_insert_then_lookup(self):
        cache = DecodedInstructionCache()
        cache.insert(0x100, 6, "payload")
        assert cache.entries.get(0x100) == "payload"
        assert len(cache) == 1

    def test_write_on_page_invalidates(self):
        cache = DecodedInstructionCache()
        cache.insert(0x100, 6, "payload")
        cache.on_ram_write(0x104, 4)  # overlaps the cached instruction
        assert 0x100 not in cache.entries
        assert cache.invalidations == 1

    def test_write_anywhere_on_page_invalidates(self):
        # Page granularity: a write to a different byte of the same
        # page still drops the entry (conservative, never stale).
        cache = DecodedInstructionCache()
        cache.insert(0x100, 6, "payload")
        cache.on_ram_write(0xF00, 1)
        assert 0x100 not in cache.entries

    def test_write_other_page_keeps_entry(self):
        cache = DecodedInstructionCache()
        cache.insert(0x100, 6, "payload")
        cache.on_ram_write(0x2000, 4)
        assert cache.entries.get(0x100) == "payload"
        assert cache.invalidations == 0

    def test_page_spanning_instruction_dropped_from_either_side(self):
        # An instruction straddling a page boundary is indexed on both
        # pages; a write to either page must drop it.
        for write_addr in (0xFFF, 0x1000):
            cache = DecodedInstructionCache()
            cache.insert(0xFFE, 6, "straddler")  # covers 0xFFE..0x1003
            cache.on_ram_write(write_addr, 1)
            assert 0xFFE not in cache.entries, hex(write_addr)

    def test_straddling_write_drops_both_pages(self):
        cache = DecodedInstructionCache()
        cache.insert(0x0FF0, 4, "low")
        cache.insert(0x1010, 4, "high")
        cache.on_ram_write(0x0FFE, 4)  # write straddles the boundary
        assert not cache.entries

    def test_range_write_drops_middle_pages(self):
        # A range spanning three pages (a device block write) must drop
        # the middle page too, not only the first and last.
        cache = DecodedInstructionCache()
        cache.insert(0x1100, 4, "middle")
        cache.on_ram_write(0x0F00, 0x1200)  # pages 0, 1 and 2
        assert 0x1100 not in cache.entries
        cache.insert(0x1100, 4, "middle")
        cache.invalidate_range(0x0800, 0x2000)  # pages 0, 1 and 2
        assert not cache.entries
        assert cache.invalidations == 2

    def test_capacity_flush(self):
        cache = DecodedInstructionCache(capacity=2)
        cache.insert(0x100, 4, "a")
        cache.insert(0x200, 4, "b")
        cache.insert(0x300, 4, "c")  # over capacity: full flush first
        assert cache.flushes == 1
        assert len(cache) == 1
        assert cache.entries.get(0x300) == "c"

    def test_invalidate_range(self):
        cache = DecodedInstructionCache()
        cache.insert(0x100, 4, "a")
        cache.insert(0x2000, 4, "b")
        cache.invalidate_range(0x0, 0x1800)
        assert 0x100 not in cache.entries
        assert cache.entries.get(0x2000) == "b"
        cache.invalidate_range(0x2000, 0)  # empty range is a no-op
        assert cache.entries.get(0x2000) == "b"


# ----------------------------------------------------------------------
# Coherence path (a): interpreter stores
# ----------------------------------------------------------------------


# The stylized-SMC kernel: the immediate of an instruction in a hot
# loop is rewritten before each entry.  With a stale decode cache the
# checksum in esi silently degenerates, so exact state equality against
# the cache-off run proves the next fetch decoded the new bytes.
PATCH_IMMEDIATE_PROGRAM = """
start:
    mov edi, 0
    mov esi, 0
frame:
    mov eax, edi
    imul eax, 17
    add eax, 0x01010101
    mov ebx, patch_site + 2   ; the imm32 field of the add below
    store [ebx], eax
    mov ecx, 0
inner:
patch_site:
    add esi, 0x11111111       ; immediate is rewritten every frame
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

# The opcode byte itself alternates between add and xor register forms.
PATCH_OPCODE_PROGRAM = """
start:
    mov edi, 0
    mov esi, 1
frame:
    mov eax, 0x20             ; ADD_RR
    test edi, 1
    jz patch
    mov eax, 0x24             ; XOR_RR
patch:
    mov ebx, mutating
    storeb [ebx], eax
    mov ecx, 0
inner:
mutating:
    add esi, edx
    rol esi, 1
    inc ecx
    cmp ecx, 25
    jl inner
    mov edx, esi
    and edx, 0xFF
    inc edi
    cmp edi, 30
    jl frame
    cli
    hlt
"""


class TestInterpreterStoreCoherence:
    def test_patched_immediate_next_fetch_sees_new_bytes(self):
        system = assert_same_outcome(PATCH_IMMEDIATE_PROGRAM)
        icache = system.icache
        assert icache.hits > 0, "cache never served a fetch"
        assert icache.invalidations > 0, "patches never invalidated"

    def test_patched_opcode_next_fetch_sees_new_bytes(self):
        system = assert_same_outcome(PATCH_OPCODE_PROGRAM)
        assert system.icache.invalidations > 0


# ----------------------------------------------------------------------
# Coherence path (b): DMA writes
# ----------------------------------------------------------------------


DMA_REWRITE_PROGRAM = """
start:
    mov esi, 0
    mov edi, 0
warm:
    mov esp, 0x8000
    call routine
    inc edi
    cmp edi, 30
    jl warm
    ; DMA the 'staging' bytes over 'routine' (adds 7 instead of 3)
    mov eax, staging
    out 0x50            ; DMA source
    mov eax, routine
    out 0x51            ; DMA destination
    mov eax, routine_len
    out 0x52            ; DMA length
    mov eax, 1
    out 0x53            ; start
wait:
    in 0x53
    test eax, eax
    jnz wait
    mov edi, 0
rerun:
    call routine
    inc edi
    cmp edi, 30
    jl rerun
    cli
    hlt
routine:
    add esi, 3
    ret
routine_end:
routine_len = routine_end - routine
staging:
    add esi, 7
    ret
"""


class TestDMACoherence:
    def test_dma_rewrite_next_fetch_sees_new_bytes(self):
        system = assert_same_outcome(DMA_REWRITE_PROGRAM)
        # esi = 30*3 + 30*7: wrong unless the post-DMA fetches decoded
        # the transferred bytes.
        assert system.state.get_reg(6) == 300
        assert system.icache.invalidations > 0
        assert system.machine.dma.transfers_completed >= 1


# ----------------------------------------------------------------------
# Coherence path (c): committed translated stores
# ----------------------------------------------------------------------


class TestTranslatedStoreCoherence:
    def test_translated_patcher_invalidates_decode_cache(self):
        # Under the translating config the patcher loop becomes a
        # translation; its store reaches RAM via the store-buffer
        # commit.  The interpreter (warm-up and recovery) keeps fetching
        # through the decode cache, which must observe those commits.
        both = assert_equivalent(PATCH_IMMEDIATE_PROGRAM, config=FAST)
        system = both.cms_system
        assert system.stats.translations_made >= 1
        icache = system.icache
        assert icache.hits > 0
        assert icache.invalidations > 0

    def test_translated_opcode_patcher(self):
        both = assert_equivalent(PATCH_OPCODE_PROGRAM, config=FAST)
        system = both.cms_system
        assert system.stats.translations_made >= 1
        assert system.icache.invalidations > 0


# ----------------------------------------------------------------------
# Shape invariance: the dials never change what is computed
# ----------------------------------------------------------------------


class TestDialsInvisible:
    def test_workload_identical_with_dials_off(self):
        from repro.workloads import ALL_WORKLOADS

        config = CMSConfig(translation_threshold=10)
        for name in ("dos_boot", "compress"):
            workload = ALL_WORKLOADS[name]
            _, on = run_workload_cms(workload, config)
            _, off = run_workload_cms(
                workload, config,
                (pin_vliw, pin_uncached_decode, pin_tlb_walks))
            assert on.console_output == off.console_output, name
            assert on.stats.total_molecules(config.cost) == \
                off.stats.total_molecules(config.cost), name
            assert on.guest_instructions == off.guest_instructions, name
