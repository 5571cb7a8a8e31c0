"""The guest physical memory bus.

The bus routes physical addresses either to RAM or to memory-mapped I/O
regions owned by devices.  This is the distinction at the heart of the
paper's §3.4: *at translation time* a memory access cannot be classified
as RAM or I/O — only the bus knows, at runtime, per access.  The host's
speculatively reordered memory atoms consult ``is_io`` and fault when
they touch an I/O region.

Device MMIO side effects are irrevocable (paper: "they trigger
irrevocable interactions with external devices"), which is why the host
keeps stores gated in the store buffer until commit, and why reordered
accesses to these regions must abort.

Routing is the hottest query in the whole simulator (every data access
and, without the decode cache, every code byte consults it), so it runs
over base-sorted region arrays with ``bisect`` plus a pure-RAM fast
path for addresses below the lowest MMIO base.  It is the only router;
the property tests check it against a linear-scan model on randomized
region layouts.

Translated code gets a third, page-granular view, ``io_pages`` (see
``MemoryBus``): the template JIT inlines a load or store only when no
page it touches holds I/O, so plain RAM stays on the inline path
wherever it sits relative to the VGA hole.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.isa.exceptions import general_protection
from repro.memory.physical import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

MASK32 = 0xFFFFFFFF

_NO_MMIO_LIMIT = 1 << 62  # "lowest MMIO base" when there are no regions


class MMIOHandler(Protocol):
    """Interface a device exposes for a memory-mapped region."""

    def mmio_read(self, offset: int, size: int) -> int:  # pragma: no cover
        ...

    def mmio_write(self, offset: int, value: int, size: int) -> None:  # pragma: no cover
        ...


@dataclass
class MMIORegion:
    """A physical address window owned by a device."""

    base: int
    size: int
    handler: MMIOHandler
    name: str = "mmio"


class MemoryBus:
    """Routes physical accesses to RAM or MMIO regions.

    ``store_observers`` are callbacks ``(addr, size)`` invoked *after*
    every RAM write that goes through the bus; the CMS uses one to keep
    the translation cache coherent with memory written by the
    interpreter, committed translations, and DMA, and the decode cache
    uses another for the same invariant.  ``size`` is a byte count, not
    an access width: ``write_block`` reports a whole device chunk as
    one range, which may span pages, so an observer must act on every
    page of ``[addr, addr + size)``.

    Accesses are 1, 2, or 4 bytes on both the RAM and MMIO paths; any
    other size raises ``ValueError`` before any routing or counter
    side effect, so RAM and MMIO reject malformed accesses uniformly.

    ``io_pages`` is the I/O page table: a ``bytearray`` with one byte
    per RAM page, set for every page that an MMIO region overlaps.  A
    region that is not page-aligned marks its partial pages whole, so
    the table is conservative (a set byte means "maybe I/O", a clear
    one means "no byte of this page is I/O").  ``add_region`` updates
    it in place, so a reader holding the object always sees the
    current map.
    """

    def __init__(self, ram: PhysicalMemory) -> None:
        self.ram = ram
        self.regions: list[MMIORegion] = []
        self.store_observers: list[Callable[[int, int], None]] = []
        self.io_reads = 0
        self.io_writes = 0
        # Base-sorted routing arrays, rebuilt by add_region.
        self._sorted_regions: list[MMIORegion] = []
        self._bases: list[int] = []
        self._ends: list[int] = []
        self._ram_limit = _NO_MMIO_LIMIT  # lowest MMIO base
        self.io_pages = bytearray(ram.size >> PAGE_SHIFT)

    def add_region(self, region: MMIORegion) -> None:
        for existing in self.regions:
            if (region.base < existing.base + existing.size
                    and existing.base < region.base + region.size):
                raise ValueError(
                    f"MMIO region {region.name} overlaps {existing.name}"
                )
        self.regions.append(region)
        self._sorted_regions = sorted(self.regions, key=lambda r: r.base)
        self._bases = [r.base for r in self._sorted_regions]
        self._ends = [r.base + r.size for r in self._sorted_regions]
        self._ram_limit = self._bases[0] if self._bases else _NO_MMIO_LIMIT
        first = region.base >> PAGE_SHIFT
        last = min(region.base + region.size + PAGE_SIZE - 1,
                   self.ram.size) >> PAGE_SHIFT
        for page in range(first, last):
            self.io_pages[page] = 1

    # ------------------------------------------------------------------
    # Routing.  Regions never overlap, so the region containing ``addr``
    # (if any) is the one with the greatest base <= addr, and a region
    # intersecting [addr, addr+size) is either that one or the next.
    # ------------------------------------------------------------------

    def region_at(self, addr: int) -> MMIORegion | None:
        if addr < self._ram_limit:
            return None  # below every MMIO base: pure RAM
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._sorted_regions[i]
        return None

    def is_io(self, addr: int, size: int = 1) -> bool:
        """True if any byte of [addr, addr+size) falls in an MMIO region."""
        if addr + size <= self._ram_limit:
            return False  # wholly below every MMIO base: pure RAM
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return True
        i += 1
        return i < len(self._bases) and self._bases[i] < addr + size

    # ------------------------------------------------------------------
    # Access paths.  Reads/writes raise guest #GP for addresses that hit
    # neither RAM nor a device, matching a machine-check-free PC where
    # unmapped physical accesses just misbehave; faulting keeps bugs in
    # workloads loud.  Routing is by the access's first byte, as on the
    # seed bus; ``is_io`` is the conservative straddle check the
    # execution engines use before accessing.
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int) -> int:
        addr &= MASK32
        if size != 4 and size != 1 and size != 2:
            raise ValueError(f"unsupported access size {size} "
                             f"(must be 1, 2, or 4)")
        if addr + size <= self._ram_limit:
            region = None  # pure-RAM fast path: below every MMIO base
        else:
            region = self.region_at(addr)
        if region is not None:
            self.io_reads += 1
            return region.handler.mmio_read(addr - region.base, size) & (
                (1 << (8 * size)) - 1
            )
        ram = self.ram
        try:
            if size == 4:
                return ram.read32(addr)
            if size == 1:
                return ram.read8(addr)
            return ram.read16(addr)
        except IndexError:
            raise general_protection() from None

    def write(self, addr: int, value: int, size: int) -> None:
        addr &= MASK32
        if size != 4 and size != 1 and size != 2:
            raise ValueError(f"unsupported access size {size} "
                             f"(must be 1, 2, or 4)")
        if addr + size <= self._ram_limit:
            region = None
        else:
            region = self.region_at(addr)
        if region is not None:
            self.io_writes += 1
            region.handler.mmio_write(addr - region.base, value, size)
            return
        ram = self.ram
        try:
            if size == 4:
                ram.write32(addr, value)
            elif size == 1:
                ram.write8(addr, value)
            else:
                ram.write16(addr, value)
        except IndexError:
            raise general_protection() from None
        for observer in self.store_observers:
            observer(addr, size)

    def is_ram(self, addr: int, length: int) -> bool:
        """True if all of [addr, addr+length) is plain RAM: inside the
        RAM array and clear of every MMIO region."""
        return (0 <= addr and addr + length <= self.ram.size
                and not self.is_io(addr, length))

    def write_block(self, addr: int, data: bytes | bytearray) -> None:
        """Write ``data`` at ``addr`` as a device transfer (disk, DMA).

        A chunk that is plain RAM lands with one copy and one
        ``(addr, len(data))`` call per store observer — the §3.6.1 rule
        is per page, so nothing needs the bytes one at a time.  Any
        other chunk (one that touches MMIO or runs past the end of RAM)
        goes through ``write`` byte by byte, so device handlers see the
        same accesses and a #GP is raised at the same byte, with the
        same bytes written before it.
        """
        if not data:
            return
        addr &= MASK32
        if self.is_ram(addr, len(data)):
            self.ram.write_bytes(addr, data)
            for observer in self.store_observers:
                observer(addr, len(data))
            return
        write = self.write
        for offset, value in enumerate(data):
            write(addr + offset, value, 1)

    def read_code_bytes(self, addr: int, length: int) -> bytes:
        """Fetch code bytes from RAM, bypassing MMIO.

        Instruction fetch from device space is a workload bug; raise #GP
        if attempted.
        """
        if self.is_io(addr, length):
            raise general_protection()
        try:
            return self.ram.read_bytes(addr, length)
        except IndexError:
            raise general_protection() from None
