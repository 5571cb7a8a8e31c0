"""The guest machine: RAM, bus, MMU, and the standard device complement.

A ``Machine`` is everything *outside* the CPU.  The pure interpreter and
the full CMS system both execute against the same ``Machine``, which is
what makes the golden equivalence tests possible: identical devices,
identical memory, two execution engines.

Default physical memory map::

    0x0000_0000 .. ram_size      guest RAM (default 4 MiB)
    0x000A_0000 .. +0x1_0000     framebuffer MMIO (shadows RAM, VGA-style)
    0xFFF0_0000 .. +0x1000       console MMIO window
    0xFFF1_0000 .. +0x1000       timer MMIO window
    0xFFF2_0000 .. +0x1000       DMA controller MMIO window
    0xFFF3_0000 .. +0x1000       network interface MMIO window
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.console import Console
from repro.devices.disk import Disk
from repro.devices.dma import DMAController
from repro.devices.framebuffer import Framebuffer
from repro.devices.nic import NetworkInterface
from repro.devices.pic import InterruptController
from repro.devices.port_bus import PortBus
from repro.devices.timer import Timer
from repro.isa.assembler import Program, assemble
from repro.isa.exceptions import general_protection
from repro.memory.bus import MemoryBus, MMIORegion
from repro.memory.mmu import MMU
from repro.memory.physical import PhysicalMemory

MASK32 = 0xFFFFFFFF

FRAMEBUFFER_BASE = 0x000A0000
CONSOLE_MMIO_BASE = 0xFFF00000
TIMER_MMIO_BASE = 0xFFF10000
DMA_MMIO_BASE = 0xFFF20000
NIC_MMIO_BASE = 0xFFF30000
MMIO_WINDOW_SIZE = 0x1000

DEFAULT_RAM_SIZE = 4 * 1024 * 1024


@dataclass
class MachineConfig:
    """Construction options for a guest machine."""

    ram_size: int = DEFAULT_RAM_SIZE
    with_framebuffer: bool = True
    framebuffer_base: int = FRAMEBUFFER_BASE
    timer_period: int = 10_000


class Machine:
    """Guest RAM, MMU, buses and devices, wired to a default map."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.ram = PhysicalMemory(self.config.ram_size)
        self.bus = MemoryBus(self.ram)
        self.mmu = MMU(self.bus)
        self.ports = PortBus()
        self.pic = InterruptController()
        self.console = Console()
        self.timer = Timer(self.pic, period=self.config.timer_period)
        self.dma = DMAController(self.bus, self.pic)
        self.disk = Disk(self.bus, self.pic)
        self.nic = NetworkInterface(self.bus, self.pic)
        self.framebuffer: Framebuffer | None = None

        self.pic.attach(self.ports)
        self.console.attach(self.ports)
        self.timer.attach(self.ports)
        self.dma.attach(self.ports)
        self.disk.attach(self.ports)
        self.nic.attach(self.ports)

        self.bus.add_region(
            MMIORegion(CONSOLE_MMIO_BASE, MMIO_WINDOW_SIZE, self.console,
                       "console")
        )
        self.bus.add_region(
            MMIORegion(TIMER_MMIO_BASE, MMIO_WINDOW_SIZE, self.timer, "timer")
        )
        self.bus.add_region(
            MMIORegion(DMA_MMIO_BASE, MMIO_WINDOW_SIZE, self.dma, "dma")
        )
        self.bus.add_region(
            MMIORegion(NIC_MMIO_BASE, MMIO_WINDOW_SIZE, self.nic, "nic")
        )
        if self.config.with_framebuffer:
            self.framebuffer = Framebuffer()
            self.framebuffer.attach(self.ports)
            self.bus.add_region(
                MMIORegion(self.config.framebuffer_base,
                           self.framebuffer.size, self.framebuffer,
                           "framebuffer")
            )

        # Bound ``tick`` methods, called once per retired instruction
        # while interpreting.
        self._tickers = tuple(device.tick for device in (
            self.timer, self.dma, self.disk, self.nic))
        self.instructions_retired = 0

    def add_ticker(self, device) -> None:
        """Register an extra device on the instruction-time tick list.

        Used by the fault-injection harness to advance schedule-driven
        injectors in device time, so that two machines running the same
        guest observe identical asynchronous event timing.
        """
        self._tickers = (*self._tickers, device.tick)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def load_program(self, program: Program) -> int:
        """Load an assembled program; returns its entry address."""
        self.ram.load_image(program.segments)
        return program.entry

    def load_source(self, source: str) -> int:
        """Assemble and load t86 source; returns the entry address."""
        return self.load_program(assemble(source))

    # ------------------------------------------------------------------
    # Virtual memory paths (MMU + bus)
    # ------------------------------------------------------------------

    def fetch_byte(self, vaddr: int) -> int:
        """Instruction fetch: one code byte at virtual ``vaddr``."""
        paddr = self.mmu.translate(vaddr & MASK32, is_write=False)
        if self.bus.is_io(paddr, 1):
            raise general_protection()
        try:
            return self.ram.read8(paddr)
        except IndexError:
            raise general_protection() from None

    def vread(self, vaddr: int, size: int) -> int:
        """Data read at virtual ``vaddr`` (may hit MMIO)."""
        paddr = self.mmu.translate_range(vaddr & MASK32, size, is_write=False)
        return self.bus.read(paddr, size)

    def vwrite(self, vaddr: int, value: int, size: int) -> None:
        """Data write at virtual ``vaddr`` (may hit MMIO)."""
        paddr = self.mmu.translate_range(vaddr & MASK32, size, is_write=True)
        self.bus.write(paddr, value, size)

    def vtranslate(self, vaddr: int, size: int, is_write: bool) -> int:
        """Translate without performing the access (the host's TLB path)."""
        mmu = self.mmu
        if not mmu.paging_enabled:
            return vaddr & MASK32  # identity, and nothing is counted
        return mmu.translate_range(vaddr & MASK32, size, is_write)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def tick(self, instructions: int) -> None:
        """Advance device time by ``instructions`` retired instructions."""
        if instructions <= 0:
            return
        self.instructions_retired += instructions
        for tick in self._tickers:
            tick(instructions)
