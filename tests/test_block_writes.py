"""Device block writes and the translator's pre-pipeline mapping check.

* ``MemoryBus.write_block`` lands a plain-RAM chunk with one copy and one
  observer range, and falls back to byte writes wherever that could
  differ: a chunk touching MMIO reaches the handler byte by byte, and a
  chunk running past RAM raises #GP at the same byte as byte writes.
* Block writes into translated code invalidate exactly the translations
  byte writes invalidate (the §3.6.1 rule is per page, not per byte).
* The DMA engine copies RAM to RAM in blocks but keeps the byte loop
  for MMIO sources and forward-overlapping copies, whose per-byte
  results a block copy would not reproduce.
* A DMA rewrite of a live PTE is one mapping change per PTE: the TLB
  entry goes and chains into the page are severed.
* ``Translator.translate`` refuses a region with a non-identity code
  page before running its pipeline.
"""

from __future__ import annotations

import pytest

from repro import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.devices.dma import DMAController
from repro.devices.pic import InterruptController
from repro.interp.profile import ExecutionProfile
from repro.isa.exceptions import GuestException
from repro.machine import Machine
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.mmu import PTE_PRESENT, PTE_WRITABLE
from repro.memory.physical import PAGE_SIZE, PhysicalMemory
from repro.translator.policies import TranslationPolicy
from repro.translator.translator import Translator

from conftest import run_cms

FAST = CMSConfig(translation_threshold=4, fault_threshold=2)
PT_BASE = 0x00200000


class RecordingDevice:
    """An MMIO handler that logs accesses; reads return a running count
    so that a read has a visible side effect."""

    def __init__(self) -> None:
        self.log: list[tuple] = []
        self.reads = 0

    def mmio_read(self, offset: int, size: int) -> int:
        self.reads += 1
        self.log.append(("r", offset, size))
        return self.reads

    def mmio_write(self, offset: int, value: int, size: int) -> None:
        self.log.append(("w", offset, value, size))


def _bus(ram_size: int = 4 * PAGE_SIZE, mmio_base: int | None = None):
    bus = MemoryBus(PhysicalMemory(ram_size))
    device = RecordingDevice()
    if mmio_base is not None:
        bus.add_region(MMIORegion(mmio_base, 0x10, device, "rec"))
    seen: list[tuple[int, int]] = []
    bus.store_observers.append(lambda addr, size: seen.append((addr, size)))
    return bus, device, seen


def _byte_writes(bus: MemoryBus, addr: int, data: bytes) -> None:
    """The byte-at-a-time device write that ``write_block`` replaces."""
    for offset, value in enumerate(data):
        bus.write(addr + offset, value, 1)


DATA = bytes(range(0x40, 0x50))


class TestWriteBlock:
    def test_plain_ram_chunk_is_one_observer_range(self):
        bus, _, seen = _bus()
        bus.write_block(PAGE_SIZE - 8, DATA)  # straddles a page boundary
        assert bus.ram.read_bytes(PAGE_SIZE - 8, len(DATA)) == DATA
        assert seen == [(PAGE_SIZE - 8, len(DATA))]

    def test_chunk_straddling_mmio_reaches_handler_byte_by_byte(self):
        results = []
        for write in (MemoryBus.write_block, _byte_writes):
            bus, device, seen = _bus(mmio_base=0x2000)
            write(bus, 0x2000 - 8, DATA)
            results.append((device.log, seen,
                            bus.ram.read_bytes(0x1FF0, 0x30), bus.io_writes))
        block, byte = results
        assert block == byte
        device_log = block[0]
        assert device_log == [("w", offset, DATA[8 + offset], 1)
                              for offset in range(8)]

    def test_chunk_past_ram_end_faults_at_the_same_byte(self):
        results = []
        for write in (MemoryBus.write_block, _byte_writes):
            bus, _, seen = _bus()
            with pytest.raises(GuestException) as info:
                write(bus, bus.ram.size - 5, DATA)
            results.append((info.value.vector, seen,
                            bus.ram.read_bytes(bus.ram.size - 16, 16)))
        block, byte = results
        assert block == byte
        assert block[1] == [(block[1][0][0] + i, 1) for i in range(5)]


# A hot routine whose head sits on page 2 and whose tail falls through
# a `jmp` onto page 3, so its translations cover both pages.
SPAN_PROGRAM = """
.org 0x00010000
start:
    mov esp, 0x0007F000
    mov esi, 0
    mov edi, 0
hot:
    call span
    add esi, eax
    inc edi
    cmp edi, 16
    jne hot
    cli
    hlt

.org 0x00002FF0
span:
    mov eax, 0x1111
    jmp span_tail

.org 0x00003000
span_tail:
    add eax, 0x2222
    ret
"""


def _coherence_state(system: CodeMorphingSystem):
    live = sorted(t.entry_eip for t in system.tcache.translations()
                  if t.valid)
    return (live, system.stats.smc_invalidations,
            [system.protection.page_mask(page) for page in (2, 3)])


class TestBlockWriteInvalidation:
    def test_block_write_invalidates_like_byte_writes(self):
        states = []
        for write in (MemoryBus.write_block, _byte_writes):
            system, result = run_cms(SPAN_PROGRAM, FAST)
            assert result.halted
            before = _coherence_state(system)
            assert len(before[0]) >= 2  # head and tail translated
            bus = system.machine.bus
            # Rewrite the bytes in place across the page boundary.
            write(bus, 0x2FF8, bus.ram.read_bytes(0x2FF8, 0x10))
            after = _coherence_state(system)
            assert after[1] > before[1]
            states.append(after)
        assert states[0] == states[1]


class TestDMABlocks:
    def _copy(self, bus, source, dest, length):
        dma = DMAController(bus, InterruptController())
        assert dma.start_transfer(source, dest, length)
        while dma.busy:
            dma.tick(1)
        return dma

    def _reference(self, bus, source, dest, length):
        for offset in range(length):
            bus.write(dest + offset, bus.read(source + offset, 1), 1)

    def test_ram_to_ram_chunk_is_one_range(self):
        bus, _, seen = _bus()
        bus.ram.write_bytes(0x100, DATA)
        dma = self._copy(bus, 0x100, 0x1800, len(DATA))
        assert bus.ram.read_bytes(0x1800, len(DATA)) == DATA
        assert seen == [(0x1800, len(DATA))]
        assert dma.bytes_copied == len(DATA)
        assert (dma.source, dma.dest) == (0x100 + len(DATA),
                                          0x1800 + len(DATA))

    @pytest.mark.parametrize("source, dest", [
        (0x100, 0x101),            # forward overlap: bytes replicate
        (0x101, 0x100),            # backward overlap
        (0x2000 - 4, 0x800),       # source straddles MMIO
        (0x800, 0x2000 - 4),       # destination straddles MMIO
    ])
    def test_matches_byte_copy(self, source, dest):
        results = []
        for block in (True, False):
            bus, device, seen = _bus(mmio_base=0x2000)
            bus.ram.write_bytes(0x100, DATA)
            bus.ram.write_bytes(0x1FFC, b"\xa1\xa2\xa3\xa4")
            if block:
                self._copy(bus, source, dest, 100)
            else:
                self._reference(bus, source, dest, 100)
            # A block chunk reports one range, so compare the bytes the
            # observers were told about, not the calls.
            observed = sorted(addr + i for addr, size in seen
                              for i in range(size))
            results.append((bus.ram.read_bytes(0, bus.ram.size),
                            device.log, observed))
        assert results[0] == results[1]

    def test_forward_overlap_replicates_first_byte(self):
        bus, _, _ = _bus()
        bus.ram.write_bytes(0x100, DATA)
        self._copy(bus, 0x100, 0x101, 8)
        assert bus.ram.read_bytes(0x100, 9) == bytes([DATA[0]] * 9)


# Paging on over an identity table, a hot call loop, then halt with
# paging still enabled so the chained translations stay resident.
PAGED_LOOP = """
.org 0x00010000
start:
    mov esp, 0x0007F000
    mov ebx, 0x00200000
    mov ecx, 0
ptbuild:
    mov eax, ecx
    shl eax, 12
    or eax, 3
    storex [ebx + ecx*4], eax
    inc ecx
    cmp ecx, 1024
    jne ptbuild
    mov eax, 0x00200000
    setpt eax
    pgon
    mov edi, 0
hot:
    call work
    inc edi
    cmp edi, 24
    jne hot
    cli
    hlt

.org 0x00030000
work:
    add esi, 7
    rol esi, 3
    ret
"""


class TestDMAPageTableRewrite:
    def test_pte_rewrite_is_one_mapping_change_per_pte(self):
        system, result = run_cms(PAGED_LOOP, FAST)
        assert result.halted
        machine = system.machine
        mmu = machine.mmu
        assert mmu.paging_enabled
        # The call loop's region runs through `work` (vpn 0x30) and
        # chains back into itself.
        chained = [t for t in system.tcache.translations_on_page(0x30)
                   if t.incoming_chains]
        assert chained
        assert mmu.probe(0x30000) == 0x30000  # TLB holds vpn 0x30
        assert 0x30 in mmu._tlb
        pte_addr = PT_BASE + 0x30 * 4
        # DMA the PTEs of vpns 0x30-0x31 over themselves (same values).
        staging = 0x00180000
        machine.ram.write_bytes(staging, machine.ram.read_bytes(pte_addr, 8))
        epoch = mmu.mapping_epoch
        evictions = mmu.tlb_invalidations
        unchains = system.stats.mapping_unchains
        assert machine.dma.start_transfer(staging, pte_addr, 8)
        machine.dma.tick(1)
        assert not machine.dma.busy
        assert mmu.mapping_epoch == epoch + 2  # once per PTE, not per byte
        assert 0x30 not in mmu._tlb
        assert mmu.tlb_invalidations == evictions + 1  # vpn 0x30's entry
        assert not any(t.incoming_chains for t in chained)
        assert system.stats.mapping_unchains > unchains
        # The mapping is unchanged, so the translations revalidate.
        assert all(system._translation_mapped(t) for t in chained)


class TestPrePipelineMappingCheck:
    # Head on vpn 0x302 (identity); tail on vpn 0x303, mapped to frame
    # 0x304 in the non-identity case.
    SOURCE = """
.org 0x00302FF0
span:
    mov eax, 0x1111
    jmp span_tail

.org 0x00303000
span_tail:
    add eax, 0x2222
    ret

.org 0x00304000
span_alt:
    add eax, 0x4444
    ret
"""

    def _translate(self, tail_frame: int):
        machine = Machine()
        machine.load_source(self.SOURCE)
        for vpn in range(1024):
            machine.ram.write32(PT_BASE + vpn * 4,
                                (vpn << 12) | PTE_PRESENT | PTE_WRITABLE)
        machine.ram.write32(PT_BASE + 0x303 * 4,
                            (tail_frame << 12) | PTE_PRESENT | PTE_WRITABLE)
        machine.mmu.set_page_table(PT_BASE)
        machine.mmu.enable_paging()
        translator = Translator(machine, ExecutionProfile())
        pipelines = []
        inner = translator._pipeline

        def counting_pipeline(*args, **kwargs):
            pipelines.append(args[0])
            return inner(*args, **kwargs)

        translator._pipeline = counting_pipeline
        translation = translator.translate(0x302FF0, TranslationPolicy())
        return machine, translation, pipelines

    def test_non_identity_tail_never_reaches_the_pipeline(self):
        _, translation, pipelines = self._translate(0x304)
        assert translation is None
        assert pipelines == []

    def test_identity_region_is_stamped_with_the_epoch(self):
        machine, translation, pipelines = self._translate(0x303)
        assert translation is not None
        assert len(pipelines) == 1
        assert translation.pages() == {0x302, 0x303}
        assert translation.mapped_epoch == machine.mmu.mapping_epoch
