"""Host register file with working/shadow pairs.

Paper §2: the TM5800 has 64 general-purpose registers, "allowing the
architectural x86 registers to be assigned to dedicated native VLIW
registers, with an ample set available for use by CMS".  §3.1: "All
registers holding x86 state are shadowed".

Register convention used by this CMS:

======  =====================================================
0..7    guest GPRs (EAX..EDI), shadowed
8       guest EIP, shadowed
9       reserved scratch
10..15  guest flags, unpacked: CF, PF, ZF, SF, OF, IF, shadowed
16..63  CMS temporaries (shadowed too — rollback restores them,
        which is harmless since temps never live across commits)
======  =====================================================

Committed guest state *is* the shadow copy of registers 0..15; the
``HostBackedGuestState`` view lets the CMS-embedded interpreter operate
directly on committed state (it writes working and shadow together,
preserving the invariant that outside translation execution the two
copies agree).
"""

from __future__ import annotations

from repro.isa import flags as fl
from repro.state import FLAG_SLOT_BITS, FLAG_SLOTS, GuestState

MASK32 = 0xFFFFFFFF

NUM_HOST_REGS = 64
R_EIP = 8
R_FLAG_BASE = 10
R_CF = R_FLAG_BASE + 0
R_PF = R_FLAG_BASE + 1
R_ZF = R_FLAG_BASE + 2
R_SF = R_FLAG_BASE + 3
R_OF = R_FLAG_BASE + 4
R_IF = R_FLAG_BASE + 5
TEMP_BASE = 16
NUM_TEMPS = NUM_HOST_REGS - TEMP_BASE


class HostRegisterFile:
    """64 working registers, each with a shadow copy."""

    def __init__(self) -> None:
        self.working = [0] * NUM_HOST_REGS
        self.shadow = [0] * NUM_HOST_REGS
        self.commits = 0
        self.rollbacks = 0

    def get(self, index: int) -> int:
        return self.working[index]

    def set(self, index: int, value: int) -> None:
        self.working[index] = value & MASK32

    def commit(self) -> None:
        """Copy all working registers into their shadows (§3.1).

        Designed to be effectively free on the real hardware; the cost
        model charges zero molecules beyond the commit atom itself.
        """
        self.shadow[:] = self.working
        self.commits += 1

    def rollback(self) -> None:
        """Restore all working registers from their shadows (§3.1)."""
        self.working[:] = self.shadow
        self.rollbacks += 1

    def in_sync(self) -> bool:
        """True when working == shadow (the between-translations invariant)."""
        return self.working == self.shadow


class HostBackedGuestState(GuestState):
    """Committed guest state viewed through the host shadow registers.

    Writes update working and shadow together so that each interpreted
    instruction is, by definition, committed — exactly the paper's
    property that the interpreter "guarantees correct machine state at
    every instruction boundary".
    """

    def __init__(self, regfile: HostRegisterFile) -> None:
        # The register file updates both lists in place (commit and
        # rollback copy slices), so the view can hold them directly.
        self._working = regfile.working
        self._shadow = regfile.shadow

    # Every write stores working and shadow together.  The accessors
    # below each spell that out rather than share a helper: together
    # they run several times per interpreted instruction.

    def get_reg(self, index: int) -> int:
        return self._shadow[index]

    def set_reg(self, index: int, value: int) -> None:
        self._working[index] = self._shadow[index] = value & MASK32

    def get_flag(self, slot: int) -> int:
        return self._shadow[R_FLAG_BASE + slot]

    def set_flag(self, slot: int, value: int) -> None:
        index = R_FLAG_BASE + slot
        self._working[index] = self._shadow[index] = 1 if value else 0

    # GuestState's generic flag helpers, specialized to the register
    # file (same results).

    @property
    def interrupts_enabled(self) -> bool:
        return self._shadow[R_IF] != 0

    def set_arith_flags(self, flags: int, mask: int = fl.ARITH_FLAGS) -> None:
        working = self._working
        shadow = self._shadow
        for reg, bit in _FLAG_REG_BITS:
            if bit & mask:
                working[reg] = shadow[reg] = 1 if flags & bit else 0

    @property
    def eip(self) -> int:
        return self._shadow[R_EIP]

    @eip.setter
    def eip(self, value: int) -> None:
        self._working[R_EIP] = self._shadow[R_EIP] = value & MASK32


assert len(FLAG_SLOTS) == 6, "flag slot layout must match register plan"
_FLAG_REG_BITS = tuple((R_FLAG_BASE + slot, bit)
                       for slot, bit in enumerate(FLAG_SLOT_BITS))
