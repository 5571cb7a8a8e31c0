"""Flat guest physical RAM."""

from __future__ import annotations

PAGE_SIZE = 4096
PAGE_SHIFT = 12
MASK32 = 0xFFFFFFFF


def page_of(addr: int) -> int:
    """Return the page number containing physical address ``addr``."""
    return addr >> PAGE_SHIFT


def pages_of_ranges(ranges) -> set[int]:
    """Every page that a list of ``(start, length)`` byte ranges touches."""
    out: set[int] = set()
    for start, length in ranges:
        for page in range(page_of(start), page_of(start + length - 1) + 1):
            out.add(page)
    return out


class PhysicalMemory:
    """A contiguous byte-addressable guest RAM starting at address 0.

    Accesses outside the RAM raise ``IndexError``; the bus converts that
    into a guest #GP.  All multi-byte accesses are little-endian and may
    be unaligned (the ISA has no alignment requirement).
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"RAM size must be a positive page multiple: {size}")
        self.size = size
        self._data = bytearray(size)

    def read8(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            raise IndexError(addr)
        return self._data[addr]

    def read16(self, addr: int) -> int:
        if not 0 <= addr <= self.size - 2:
            raise IndexError(addr)
        return int.from_bytes(self._data[addr : addr + 2], "little")

    def read32(self, addr: int) -> int:
        if not 0 <= addr <= self.size - 4:
            raise IndexError(addr)
        return int.from_bytes(self._data[addr : addr + 4], "little")

    def write8(self, addr: int, value: int) -> None:
        if not 0 <= addr < self.size:
            raise IndexError(addr)
        self._data[addr] = value & 0xFF

    def write16(self, addr: int, value: int) -> None:
        if not 0 <= addr <= self.size - 2:
            raise IndexError(addr)
        self._data[addr : addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def write32(self, addr: int, value: int) -> None:
        if not 0 <= addr <= self.size - 4:
            raise IndexError(addr)
        self._data[addr : addr + 4] = (value & MASK32).to_bytes(4, "little")

    def read_bytes(self, addr: int, length: int) -> bytes:
        if not 0 <= addr <= self.size - length:
            raise IndexError(addr)
        return bytes(self._data[addr : addr + length])

    def write_bytes(self, addr: int, data: bytes | bytearray) -> None:
        if not 0 <= addr <= self.size - len(data):
            raise IndexError(addr)
        self._data[addr : addr + len(data)] = data

    def load_image(self, segments) -> None:
        """Copy an assembled ``Program``'s segments into RAM."""
        for segment in segments:
            self.write_bytes(segment.base, segment.data)
