"""Tests for physical memory, bus routing, MMU, and protection."""

from __future__ import annotations

import pytest

from repro.isa.exceptions import GuestException, Vector
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.finegrain import (
    GRANULE_SIZE,
    FineGrainCache,
    granule_mask_for_range,
)
from repro.memory.mmu import MMU, PTE_PRESENT, PTE_WRITABLE
from repro.memory.physical import PAGE_SIZE, PhysicalMemory, page_of
from repro.memory.protection import ProtectionMap, StoreClass

from conftest import WalkEveryTime


class TestPhysicalMemory:
    def test_little_endian_roundtrip(self):
        ram = PhysicalMemory(PAGE_SIZE)
        ram.write32(0x10, 0xAABBCCDD)
        assert ram.read8(0x10) == 0xDD
        assert ram.read32(0x10) == 0xAABBCCDD

    def test_bounds(self):
        ram = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(IndexError):
            ram.read8(PAGE_SIZE)
        with pytest.raises(IndexError):
            ram.write32(PAGE_SIZE - 2, 1)

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)

    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE) == 1
        assert page_of(PAGE_SIZE - 1) == 0


class _StubDevice:
    def __init__(self):
        self.reads = []
        self.writes = []

    def mmio_read(self, offset, size):
        self.reads.append((offset, size))
        return 0x42

    def mmio_write(self, offset, value, size):
        self.writes.append((offset, value, size))


class TestBus:
    def make(self):
        ram = PhysicalMemory(2 * PAGE_SIZE)
        bus = MemoryBus(ram)
        device = _StubDevice()
        bus.add_region(MMIORegion(0x10000, 0x100, device, "stub"))
        return bus, device

    def test_ram_routing(self):
        bus, device = self.make()
        bus.write(0x100, 0xDEAD, 4)
        assert bus.read(0x100, 4) == 0xDEAD
        assert not device.writes

    def test_mmio_routing(self):
        bus, device = self.make()
        bus.write(0x10004, 7, 4)
        assert device.writes == [(4, 7, 4)]
        assert bus.read(0x10008, 1) == 0x42

    def test_is_io_boundaries(self):
        bus, _ = self.make()
        assert bus.is_io(0x10000)
        assert bus.is_io(0x100FF)
        assert not bus.is_io(0x10100)
        assert bus.is_io(0xFFFF, 2)  # straddles into the region

    def test_unmapped_raises_gp(self):
        bus, _ = self.make()
        with pytest.raises(GuestException) as excinfo:
            bus.read(0x900000, 4)
        assert excinfo.value.vector == Vector.GP

    def test_store_observers_fire_for_ram_only(self):
        bus, _ = self.make()
        seen = []
        bus.store_observers.append(lambda addr, size: seen.append((addr, size)))
        bus.write(0x200, 1, 4)
        bus.write(0x10000, 1, 4)  # MMIO: no observer
        assert seen == [(0x200, 4)]

    def test_overlapping_regions_rejected(self):
        bus, _ = self.make()
        with pytest.raises(ValueError):
            bus.add_region(MMIORegion(0x10080, 0x100, _StubDevice()))

    def test_read_code_bytes_rejects_mmio(self):
        bus, _ = self.make()
        with pytest.raises(GuestException):
            bus.read_code_bytes(0x10000, 4)


class TestMMU:
    def make(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        return ram, bus, mmu

    def test_identity_when_paging_off(self):
        _, _, mmu = self.make()
        assert mmu.translate(0x12345, is_write=True) == 0x12345

    def test_basic_mapping(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        # Map VPN 1 -> frame 3, present+writable.
        ram.write32(pt_base + 1 * 4, (3 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        assert mmu.translate(PAGE_SIZE + 0x10, False) == 3 * PAGE_SIZE + 0x10

    def test_not_present_faults(self):
        ram, _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE)
        mmu.enable_paging()
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0x0, False)
        exc = excinfo.value
        assert exc.vector == Vector.PF
        assert exc.error_code & 0x1 == 0  # not-present

    def test_write_protect_faults(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base, (2 * PAGE_SIZE) | PTE_PRESENT)  # read-only
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        assert mmu.translate(0x10, False) == 2 * PAGE_SIZE + 0x10
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0x10, True)
        assert excinfo.value.error_code & 0x3 == 0x3  # present + write

    def test_fault_address_recorded(self):
        _, _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE)
        mmu.enable_paging()
        with pytest.raises(GuestException) as excinfo:
            mmu.translate(0xABCD, False)
        assert excinfo.value.fault_addr == 0xABCD

    def test_range_crossing_pages_checks_both(self):
        ram, _, mmu = self.make()
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base, (2 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE)
        # VPN 1 not present.
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        with pytest.raises(GuestException):
            mmu.translate_range(PAGE_SIZE - 2, 4, False)


class TestMMUPageTableAlignment:
    """Regression: ``set_page_table`` must align *down to 4 bytes*.

    The pre-fix code had the ternary inverted — a misaligned base was
    page-aligned (dropping 0xF00 of the intended base) while an
    aligned base was left alone.  With a PTE written at the word-
    aligned base, translation through the buggy base reads the wrong
    table entirely.
    """

    def make(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        return ram, MMU(MemoryBus(ram))

    def test_misaligned_base_aligns_down_to_word(self):
        _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE + 0xF02)
        assert mmu.page_table_base == 8 * PAGE_SIZE + 0xF00

    def test_word_aligned_base_is_kept_exactly(self):
        _, mmu = self.make()
        mmu.set_page_table(8 * PAGE_SIZE + 0xF00)
        assert mmu.page_table_base == 8 * PAGE_SIZE + 0xF00

    def test_misaligned_base_still_reaches_its_table(self):
        ram, mmu = self.make()
        pt_base = 8 * PAGE_SIZE + 0x200  # word-aligned, NOT page-aligned
        ram.write32(pt_base, (3 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE)
        mmu.set_page_table(pt_base + 2)  # guest passed a sloppy base
        mmu.enable_paging()
        assert mmu.translate(0x10, False) == 3 * PAGE_SIZE + 0x10


class TestMMUProbe:
    """Regression: CMS-internal probes must not perturb architectural
    counters (``translations``/``faults``) — only probe telemetry."""

    def make_mapped(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base + 1 * 4, (1 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        return ram, bus, mmu

    def test_probe_resolves_like_translate(self):
        _, _, mmu = self.make_mapped()
        assert mmu.probe(PAGE_SIZE + 0x10) == PAGE_SIZE + 0x10

    def test_probe_unmapped_returns_none_instead_of_raising(self):
        _, _, mmu = self.make_mapped()
        assert mmu.probe(5 * PAGE_SIZE) is None

    def test_probe_leaves_architectural_counters_alone(self):
        _, _, mmu = self.make_mapped()
        mmu.translate(PAGE_SIZE, False)
        before = (mmu.translations, mmu.faults)
        mmu.probe(PAGE_SIZE)  # mapped
        mmu.probe(5 * PAGE_SIZE)  # not mapped: would have counted a fault
        assert (mmu.translations, mmu.faults) == before
        assert mmu.probes == 2

    def test_probe_identity_when_paging_off(self):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        mmu = MMU(MemoryBus(ram))
        assert mmu.probe(0x12345) == 0x12345
        assert mmu.translations == 0


class TestMMUTLB:
    def make_mapped(self, tlb=True):
        ram = PhysicalMemory(16 * PAGE_SIZE)
        bus = MemoryBus(ram)
        mmu = MMU(bus)
        if not tlb:
            mmu._tlb = WalkEveryTime()
        pt_base = 8 * PAGE_SIZE
        ram.write32(pt_base + 0 * 4, (2 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        ram.write32(pt_base + 1 * 4, (3 * PAGE_SIZE) | PTE_PRESENT |
                    PTE_WRITABLE)
        mmu.set_page_table(pt_base)
        mmu.enable_paging()
        return ram, bus, mmu, pt_base

    def test_second_translation_hits_the_tlb(self):
        _, _, mmu, _ = self.make_mapped()
        mmu.translate(0x10, False)
        mmu.translate(0x20, True)
        assert mmu.walks == 1
        assert mmu.tlb_hits == 1

    def test_pte_store_through_the_bus_invalidates_the_entry(self):
        _, bus, mmu, pt_base = self.make_mapped()
        assert mmu.translate(0x10, False) == 2 * PAGE_SIZE + 0x10
        bus.write(pt_base, (5 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        assert mmu.tlb_invalidations >= 1
        assert mmu.translate(0x10, False) == 5 * PAGE_SIZE + 0x10

    def test_unrelated_store_does_not_invalidate(self):
        _, bus, mmu, pt_base = self.make_mapped()
        mmu.translate(0x10, False)
        walks = mmu.walks
        bus.write(PAGE_SIZE, 0xAB, 4)  # outside the page table
        mmu.translate(0x10, False)
        assert mmu.walks == walks  # still served from the TLB

    def test_set_page_table_flushes_everything(self):
        _, _, mmu, pt_base = self.make_mapped()
        mmu.translate(0x10, False)
        epoch = mmu.mapping_epoch
        mmu.set_page_table(pt_base)
        assert mmu.mapping_epoch > epoch
        mmu.translate(0x10, False)
        assert mmu.walks == 2  # flushed: walked again

    def test_paging_toggle_flushes_everything(self):
        _, _, mmu, _ = self.make_mapped()
        mmu.translate(0x10, False)
        mmu.disable_paging()
        mmu.enable_paging()
        mmu.translate(0x10, False)
        assert mmu.walks == 2

    def test_tlb_off_matches_tlb_on_architecturally(self):
        _, bus_on, on, pt = self.make_mapped(tlb=True)
        _, bus_off, off, _ = self.make_mapped(tlb=False)
        for vaddr, is_write in ((0x10, False), (PAGE_SIZE + 4, True),
                                (0x10, False)):
            assert on.translate(vaddr, is_write) == \
                off.translate(vaddr, is_write)
        bus_on.write(pt, (6 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        bus_off.write(pt, (6 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        assert on.translate(0x10, False) == off.translate(0x10, False)
        assert off.tlb_hits == 0
        assert on.tlb_hits > 0

    def test_translate_range_spanning_pages_tracks_remapping(self):
        _, bus, mmu, pt_base = self.make_mapped()
        assert mmu.translate_range(PAGE_SIZE - 2, 4, False) == \
            2 * PAGE_SIZE + PAGE_SIZE - 2
        walks = mmu.walks
        # Remap the second page; the spanning check must re-validate it
        # (a fresh walk), not serve a stale TLB entry.
        bus.write(pt_base + 1 * 4,
                  (7 * PAGE_SIZE) | PTE_PRESENT | PTE_WRITABLE, 4)
        mmu.translate_range(PAGE_SIZE - 2, 4, False)
        assert mmu.walks == walks + 1
        # And dropping its present bit must fault the spanning access.
        bus.write(pt_base + 1 * 4, 0, 4)
        with pytest.raises(GuestException):
            mmu.translate_range(PAGE_SIZE - 2, 4, False)


class TestFineGrainCache:
    def test_miss_then_install_then_hit(self):
        cache = FineGrainCache(2)
        assert cache.lookup(5) is None
        cache.install(5, 0b1010)
        assert cache.lookup(5) == 0b1010
        assert cache.misses == 1 and cache.hits == 1

    def test_lru_eviction(self):
        cache = FineGrainCache(2)
        cache.install(1, 1)
        cache.install(2, 2)
        cache.lookup(1)  # make page 1 most recent
        cache.install(3, 3)  # evicts page 2
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.evictions == 1

    def test_granule_mask(self):
        assert granule_mask_for_range(0, 1) == 1
        assert granule_mask_for_range(0, GRANULE_SIZE) == 1
        assert granule_mask_for_range(0, GRANULE_SIZE + 1) == 0b11
        assert granule_mask_for_range(GRANULE_SIZE * 63, PAGE_SIZE) == \
            1 << 63


class TestProtectionMap:
    def make(self, fine_grain=True):
        cache = FineGrainCache(4) if fine_grain else None
        return ProtectionMap(cache, fine_grain_enabled=fine_grain)

    def test_unprotected_store_ok(self):
        protection = self.make()
        assert protection.check_store(0x1000, 4).store_class is StoreClass.OK

    def test_protected_page_misses_then_allows_data(self):
        protection = self.make()
        # Code occupies the first granule of page 1.
        protection.protect_range(PAGE_SIZE, 16)
        # First store to another granule: fine-grain cache miss.
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.FAULT_MISS
        protection.handle_miss(page_of(PAGE_SIZE))
        # Retry: data granule, allowed.
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.OK
        assert protection.fg_allowed_stores == 1

    def test_code_granule_faults(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.handle_miss(page_of(PAGE_SIZE))
        check = protection.check_store(PAGE_SIZE + 4, 4)
        assert check.store_class is StoreClass.FAULT_CODE

    def test_without_fine_grain_everything_faults(self):
        protection = self.make(fine_grain=False)
        protection.protect_range(PAGE_SIZE, 16)
        check = protection.check_store(PAGE_SIZE + 2048, 4)
        assert check.store_class is StoreClass.FAULT_PAGE

    def test_unprotect_page(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.unprotect_page(page_of(PAGE_SIZE))
        assert protection.check_store(PAGE_SIZE + 4, 4).store_class is \
            StoreClass.OK

    def test_straddling_store_checked_against_second_page(self):
        protection = self.make()
        protection.protect_range(2 * PAGE_SIZE, 16)
        check = protection.check_store(2 * PAGE_SIZE - 2, 4)
        assert check.faults

    def test_range_spanning_pages(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE - 8, 16)
        assert protection.is_protected(0)
        assert protection.is_protected(1)

    def test_set_page_mask_zero_clears(self):
        protection = self.make()
        protection.protect_range(PAGE_SIZE, 16)
        protection.set_page_mask(1, 0)
        assert not protection.is_protected(1)
