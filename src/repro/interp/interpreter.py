"""Precise reference interpreter for the t86 guest ISA.

The interpreter is the correctness anchor of the whole system:

* it executes one instruction at a time with no partial architectural
  updates — every register write happens only after every fault
  opportunity of that instruction has passed;
* it delivers exceptions and hardware interrupts at exact instruction
  boundaries;
* it is the recovery path after every host rollback (paper §3): CMS
  re-executes the rolled-back region here to decide whether a fault was
  genuine or an artifact of speculation.

The interpreter works against any ``GuestState`` implementation: a
``SimpleGuestState`` for the reference configuration, or the
host-shadow-register-backed state inside CMS, where each interpreted
instruction updates committed state directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import flags as fl
from repro.isa import registers as regs
from repro.isa.decoder import decode
from repro.isa.exceptions import GuestException
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine import Machine
from repro.state import FLAG_SLOTS, GuestState

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

IF_SLOT = FLAG_SLOTS.index("if_")
IVT_BASE = 0x0000  # physical base of the interrupt vector table


class Halted(Exception):
    """The guest executed ``hlt`` with interrupts disabled: workload end."""


@dataclass(slots=True)
class StepOutcome:
    """What one interpreter step did (consumed by profiling and CMS)."""

    addr: int
    instr: Instruction | None = None
    took_interrupt: bool = False
    took_exception: bool = False
    touched_mmio: bool = False


# x86 condition codes by ``index >> 1`` (the low bit negates), each
# reading only the flags it needs through ``get_flag`` (slots: CF 0,
# PF 1, ZF 2, SF 3, OF 4).
_CONDITIONS = (
    lambda flag: flag(4),  # jo/jno
    lambda flag: flag(0),  # jb/jae
    lambda flag: flag(2),  # je/jne
    lambda flag: flag(0) | flag(2),  # jbe/ja
    lambda flag: flag(3),  # js/jns
    lambda flag: flag(1),  # jp/jnp
    lambda flag: flag(3) ^ flag(4),  # jl/jge
    lambda flag: (flag(3) ^ flag(4)) | flag(2),  # jle/jg
)


class Interpreter:
    """Instruction-at-a-time execution with precise semantics."""

    def __init__(self, machine: Machine, state: GuestState,
                 profile=None) -> None:
        self.machine = machine
        self.state = state
        self.profile = profile
        # CMS hook called with (paddr, size) before every data store; the
        # SMC manager uses it to service protection events for stores
        # performed by the (native, hence hardware-checked) interpreter.
        self.store_hook = None
        # Optional DecodedInstructionCache.  Consulted only while paging
        # is disabled (identity mapping, so EIP is the physical address
        # the cache is keyed by); kept coherent by the owner through the
        # memory bus's store observers.
        self.icache = None
        self.steps = 0
        self.exceptions_delivered = 0
        self.interrupts_delivered = 0
        self._halted_waiting = False
        self._touched_mmio = False

    # ------------------------------------------------------------------
    # Top-level stepping
    # ------------------------------------------------------------------

    def step(self, tick: bool = True) -> StepOutcome:
        """Execute one instruction (or deliver one interrupt).

        Raises ``Halted`` when the machine executes ``hlt`` with
        interrupts disabled.  When ``tick`` is false the caller owns
        device time (used by CMS recovery re-execution, which replays
        instructions whose device time already passed).
        """
        state = self.state
        machine = self.machine
        if state.interrupts_enabled:
            vector = machine.pic.pending_vector()
            if vector is not None:
                try:
                    self._deliver_interrupt(vector)
                except GuestException:
                    raise Halted() from None  # fault during delivery
                self._halted_waiting = False
                return StepOutcome(addr=state.eip, took_interrupt=True)
        if self._halted_waiting:
            if not state.interrupts_enabled:
                raise Halted()
            # Waiting for an interrupt: let device time advance.
            if tick:
                machine.tick(1)
            return StepOutcome(addr=state.eip)

        addr = state.eip
        self._touched_mmio = False
        try:
            icache = self.icache
            if icache is not None and not machine.mmu.paging_enabled:
                entry = icache.entries.get(addr)
                if entry is None:
                    icache.misses += 1
                    instr = decode(machine, addr)
                    handler = _DISPATCH.get(instr.op)
                    if handler is None:
                        raise AssertionError(f"no handler for {instr.op!r}")
                    icache.insert(addr, instr.length, (instr, handler))
                else:
                    icache.hits += 1
                    instr, handler = entry
                handler(self, instr)
            else:
                instr = decode(machine, addr)
                self.execute(instr)
        except Halted:
            raise
        except GuestException as exc:
            try:
                self._deliver_exception(exc, addr)
            except GuestException:
                # A fault during exception delivery (e.g. the stack
                # pushed out of physical memory): the double/triple
                # fault of a real PC, which shuts the machine down.
                raise Halted() from None
            if tick:
                machine.tick(1)
            return StepOutcome(addr=addr, took_exception=True)
        self.steps += 1
        profile = self.profile
        if profile is not None:
            profile.on_exec(addr)
            if self._touched_mmio:
                profile.on_mmio(addr)
        if tick:
            machine.tick(1)
        # Positional: keyword construction costs measurably more, once
        # per instruction.  (addr, instr, took_interrupt, took_exception,
        # touched_mmio)
        return StepOutcome(addr, instr, False, False, self._touched_mmio)

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until ``hlt`` (with IF=0) or the step budget; returns steps."""
        done = 0
        try:
            for done in range(1, max_steps + 1):
                self.step()
        except Halted:
            pass
        return done

    # ------------------------------------------------------------------
    # Exception and interrupt delivery
    # ------------------------------------------------------------------

    def _read_vector(self, vector: int) -> int:
        return self.machine.bus.read(IVT_BASE + vector * 4, 4)

    def _push(self, value: int) -> None:
        state = self.state
        new_esp = (state.get_reg(regs.ESP) - 4) & MASK32
        self._store(new_esp, value, 4)
        state.set_reg(regs.ESP, new_esp)

    def _pop(self) -> int:
        state = self.state
        esp = state.get_reg(regs.ESP)
        value = self._load(esp, 4)
        state.set_reg(regs.ESP, (esp + 4) & MASK32)
        return value

    def _deliver_interrupt(self, vector: int) -> None:
        """Deliver a hardware interrupt at the current precise boundary."""
        state = self.state
        self._push(state.eflags)
        self._push(state.eip)
        state.set_flag(IF_SLOT, 0)
        state.eip = self._read_vector(vector)
        self.machine.pic.acknowledge(vector)
        self.interrupts_delivered += 1

    def _deliver_exception(self, exc: GuestException, instr_addr: int) -> None:
        """Deliver a fault: the pushed EIP re-executes the instruction."""
        state = self.state
        state.eip = instr_addr  # undo any partial EIP advance
        self._push(state.eflags)
        self._push(instr_addr)
        if exc.pushes_error_code:
            self._push(exc.error_code)
        state.set_flag(IF_SLOT, 0)
        state.eip = self._read_vector(exc.vector)
        self.exceptions_delivered += 1

    def deliver_guest_exception(self, exc: GuestException,
                                instr_addr: int) -> None:
        """Public hook used by CMS to deliver a fault found during recovery."""
        self._deliver_exception(exc, instr_addr)

    # ------------------------------------------------------------------
    # Data access helpers (order matters for precision)
    # ------------------------------------------------------------------

    def _load(self, vaddr: int, size: int) -> int:
        machine = self.machine
        paddr = machine.vtranslate(vaddr, size, is_write=False)
        bus = machine.bus
        if bus.is_io(paddr, size):
            self._touched_mmio = True
        return bus.read(paddr, size)

    def _store(self, vaddr: int, value: int, size: int) -> None:
        machine = self.machine
        paddr = machine.vtranslate(vaddr, size, is_write=True)
        bus = machine.bus
        if bus.is_io(paddr, size):
            self._touched_mmio = True
        elif self.store_hook is not None:
            self.store_hook(paddr, size)
        bus.write(paddr, value, size)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, instr: Instruction) -> None:
        """Execute one decoded instruction, updating state precisely."""
        handler = _DISPATCH.get(instr.op)
        if handler is None:
            raise AssertionError(f"no handler for {instr.op!r}")
        handler(self, instr)

    # -- address computation ------------------------------------------------

    def _ea(self, instr: Instruction) -> int:
        """Effective address for RM/MR/MI formats."""
        return (self.state.get_reg(instr.r2) + instr.disp) & MASK32

    def _ea_indexed(self, instr: Instruction) -> int:
        base = self.state.get_reg(instr.r2)
        index = self.state.get_reg(instr.index) << instr.scale_log2
        return (base + index + instr.disp) & MASK32

    # -- movement ------------------------------------------------------------

    def _op_nop(self, instr: Instruction) -> None:
        self.state.eip = instr.next_addr

    def _op_mov_rr(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self.state.get_reg(instr.r2))
        self.state.eip = instr.next_addr

    def _op_mov_ri(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, instr.imm)
        self.state.eip = instr.next_addr

    def _op_xchg(self, instr: Instruction) -> None:
        state = self.state
        a, b = state.get_reg(instr.r1), state.get_reg(instr.r2)
        state.set_reg(instr.r1, b)
        state.set_reg(instr.r2, a)
        state.eip = instr.next_addr

    def _op_load(self, instr: Instruction) -> None:
        value = self._load(self._ea(instr), 4)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadb(self, instr: Instruction) -> None:
        value = self._load(self._ea(instr), 1)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadx(self, instr: Instruction) -> None:
        value = self._load(self._ea_indexed(instr), 4)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_loadbx(self, instr: Instruction) -> None:
        value = self._load(self._ea_indexed(instr), 1)
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_store(self, instr: Instruction) -> None:
        self._store(self._ea(instr), self.state.get_reg(instr.r1), 4)
        self.state.eip = instr.next_addr

    def _op_storeb(self, instr: Instruction) -> None:
        self._store(self._ea(instr), self.state.get_reg(instr.r1), 1)
        self.state.eip = instr.next_addr

    def _op_storex(self, instr: Instruction) -> None:
        self._store(self._ea_indexed(instr), self.state.get_reg(instr.r1), 4)
        self.state.eip = instr.next_addr

    def _op_storebx(self, instr: Instruction) -> None:
        self._store(self._ea_indexed(instr), self.state.get_reg(instr.r1), 1)
        self.state.eip = instr.next_addr

    def _op_storei(self, instr: Instruction) -> None:
        self._store(self._ea(instr), instr.imm, 4)
        self.state.eip = instr.next_addr

    def _op_lea(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._ea(instr))
        self.state.eip = instr.next_addr

    def _op_leax(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._ea_indexed(instr))
        self.state.eip = instr.next_addr

    # -- two-operand ALU -------------------------------------------------

    def _binary(self, instr: Instruction, rhs: int) -> None:
        state = self.state
        op = instr.op
        lhs = state.get_reg(instr.r1)
        write = True
        if op in (Op.ADD_RR, Op.ADD_RI):
            result, flags = fl.flags_add(lhs, rhs)
        elif op in (Op.ADC_RR, Op.ADC_RI):
            result, flags = fl.flags_add(lhs, rhs, state.get_flag(0))
        elif op in (Op.SUB_RR, Op.SUB_RI):
            result, flags = fl.flags_sub(lhs, rhs)
        elif op in (Op.SBB_RR, Op.SBB_RI):
            result, flags = fl.flags_sub(lhs, rhs, state.get_flag(0))
        elif op in (Op.CMP_RR, Op.CMP_RI):
            result, flags = fl.flags_sub(lhs, rhs)
            write = False
        elif op in (Op.AND_RR, Op.AND_RI):
            result, flags = fl.flags_logic(lhs & rhs)
        elif op in (Op.TEST_RR, Op.TEST_RI):
            result, flags = fl.flags_logic(lhs & rhs)
            write = False
        elif op in (Op.OR_RR, Op.OR_RI):
            result, flags = fl.flags_logic(lhs | rhs)
        elif op in (Op.XOR_RR, Op.XOR_RI):
            result, flags = fl.flags_logic(lhs ^ rhs)
        elif op in (Op.IMUL_RR, Op.IMUL_RI):
            lhs_signed = lhs - (1 << 32) if lhs & SIGN32 else lhs
            rhs_signed = rhs - (1 << 32) if rhs & SIGN32 else rhs
            full = lhs_signed * rhs_signed
            result = full & MASK32
            flags = fl.flags_imul(result, full)
        else:
            raise AssertionError(f"not a binary op: {op!r}")
        if write:
            state.set_reg(instr.r1, result)
        state.set_arith_flags(flags)
        state.eip = instr.next_addr

    def _op_binary_rr(self, instr: Instruction) -> None:
        self._binary(instr, self.state.get_reg(instr.r2))

    def _op_binary_ri(self, instr: Instruction) -> None:
        self._binary(instr, instr.imm)

    # -- unary ALU ---------------------------------------------------------

    def _op_not(self, instr: Instruction) -> None:
        state = self.state
        state.set_reg(instr.r1, ~state.get_reg(instr.r1) & MASK32)
        state.eip = instr.next_addr

    def _op_neg(self, instr: Instruction) -> None:
        state = self.state
        result, flags = fl.flags_neg(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags)
        state.eip = instr.next_addr

    def _op_inc(self, instr: Instruction) -> None:
        state = self.state
        result, flags, mask = fl.flags_inc(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    def _op_dec(self, instr: Instruction) -> None:
        state = self.state
        result, flags, mask = fl.flags_dec(state.get_reg(instr.r1))
        state.set_reg(instr.r1, result)
        state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    def _op_mul(self, instr: Instruction) -> None:
        state = self.state
        full = state.get_reg(regs.EAX) * state.get_reg(instr.r1)
        low, high = full & MASK32, (full >> 32) & MASK32
        state.set_reg(regs.EAX, low)
        state.set_reg(regs.EDX, high)
        state.set_arith_flags(fl.flags_mul(low, high))
        state.eip = instr.next_addr

    def _op_div(self, instr: Instruction) -> None:
        from repro.isa.exceptions import divide_error

        state = self.state
        divisor = state.get_reg(instr.r1)
        dividend = (state.get_reg(regs.EDX) << 32) | state.get_reg(regs.EAX)
        if divisor == 0:
            raise divide_error(instr.addr)
        quotient, remainder = divmod(dividend, divisor)
        if quotient > MASK32:
            raise divide_error(instr.addr)
        state.set_reg(regs.EAX, quotient)
        state.set_reg(regs.EDX, remainder)
        state.eip = instr.next_addr

    def _op_idiv(self, instr: Instruction) -> None:
        from repro.isa.exceptions import divide_error

        state = self.state
        divisor = state.get_reg(instr.r1)
        divisor = divisor - (1 << 32) if divisor & SIGN32 else divisor
        dividend = (state.get_reg(regs.EDX) << 32) | state.get_reg(regs.EAX)
        dividend = dividend - (1 << 64) if dividend & (1 << 63) else dividend
        if divisor == 0:
            raise divide_error(instr.addr)
        quotient = int(dividend / divisor)  # truncate toward zero, like x86
        remainder = dividend - quotient * divisor
        if not -(1 << 31) <= quotient <= (1 << 31) - 1:
            raise divide_error(instr.addr)
        state.set_reg(regs.EAX, quotient & MASK32)
        state.set_reg(regs.EDX, remainder & MASK32)
        state.eip = instr.next_addr

    # -- shifts ----------------------------------------------------------

    _SHIFT_FUNCS = {
        Op.SHL_RI8: fl.flags_shl,
        Op.SHR_RI8: fl.flags_shr,
        Op.SAR_RI8: fl.flags_sar,
        Op.ROL_RI8: fl.flags_rol,
        Op.ROR_RI8: fl.flags_ror,
        Op.SHL_RCL: fl.flags_shl,
        Op.SHR_RCL: fl.flags_shr,
        Op.SAR_RCL: fl.flags_sar,
    }

    def _op_shift(self, instr: Instruction) -> None:
        state = self.state
        if instr.op in (Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
            count = state.get_reg(regs.ECX) & 0xFF
        else:
            count = instr.imm
        func = self._SHIFT_FUNCS[instr.op]
        result, flags, mask = func(state.get_reg(instr.r1), count)
        state.set_reg(instr.r1, result)
        if mask:
            state.set_arith_flags(flags, mask)
        state.eip = instr.next_addr

    # -- stack -------------------------------------------------------------

    def _op_push_r(self, instr: Instruction) -> None:
        self._push(self.state.get_reg(instr.r1))
        self.state.eip = instr.next_addr

    def _op_push_i(self, instr: Instruction) -> None:
        self._push(instr.imm)
        self.state.eip = instr.next_addr

    def _op_pop_r(self, instr: Instruction) -> None:
        self.state.set_reg(instr.r1, self._pop())
        self.state.eip = instr.next_addr

    def _op_pushf(self, instr: Instruction) -> None:
        self._push(self.state.eflags)
        self.state.eip = instr.next_addr

    def _op_popf(self, instr: Instruction) -> None:
        self.state.eflags = self._pop()
        self.state.eip = instr.next_addr

    # -- control flow ------------------------------------------------------

    def _op_jmp(self, instr: Instruction) -> None:
        self.state.eip = instr.branch_target

    def _op_jmp_r(self, instr: Instruction) -> None:
        self.state.eip = self.state.get_reg(instr.r1)

    def _op_call(self, instr: Instruction) -> None:
        self._push(instr.next_addr)
        self.state.eip = instr.branch_target

    def _op_call_r(self, instr: Instruction) -> None:
        target = self.state.get_reg(instr.r1)
        self._push(instr.next_addr)
        self.state.eip = target

    def _op_ret(self, instr: Instruction) -> None:
        self.state.eip = self._pop()

    def condition_code(self, index: int) -> bool:
        """Evaluate x86 condition code ``index`` (0..15)."""
        # Reads only the flags the condition needs (this runs on every
        # conditional branch the interpreter executes).
        value = _CONDITIONS[index >> 1](self.state.get_flag)
        taken = bool(value)
        if index & 1:
            taken = not taken
        return taken

    def _op_setcc(self, instr: Instruction) -> None:
        value = 1 if self.condition_code(instr.op - Op.SETO) else 0
        self.state.set_reg(instr.r1, value)
        self.state.eip = instr.next_addr

    def _op_cmovcc(self, instr: Instruction) -> None:
        if self.condition_code(instr.op - Op.CMOVO):
            self.state.set_reg(instr.r1, self.state.get_reg(instr.r2))
        self.state.eip = instr.next_addr

    def _op_jcc(self, instr: Instruction) -> None:
        taken = self.condition_code(instr.op - Op.JO)
        if self.profile is not None:
            self.profile.on_branch(instr.addr, taken)
        # ``branch_target`` without its format assertion: Jcc is REL.
        self.state.eip = ((instr.next_addr + instr.disp) & MASK32 if taken
                          else instr.next_addr)

    # -- I/O and system -----------------------------------------------------

    def _op_in(self, instr: Instruction) -> None:
        self.state.set_reg(regs.EAX, self.machine.ports.read(instr.imm))
        self.state.eip = instr.next_addr

    def _op_out(self, instr: Instruction) -> None:
        self.machine.ports.write(instr.imm, self.state.get_reg(regs.EAX))
        self.state.eip = instr.next_addr

    def _op_int(self, instr: Instruction) -> None:
        state = self.state
        self._push(state.eflags)
        self._push(instr.next_addr)
        state.set_flag(IF_SLOT, 0)
        state.eip = self._read_vector(instr.imm)

    def _op_iret(self, instr: Instruction) -> None:
        state = self.state
        eip = self._pop()
        state.eflags = self._pop()
        state.eip = eip

    def _op_hlt(self, instr: Instruction) -> None:
        if not self.state.interrupts_enabled:
            raise Halted()
        self.state.eip = instr.next_addr
        self._halted_waiting = True

    def _op_sti(self, instr: Instruction) -> None:
        self.state.set_flag(IF_SLOT, 1)
        self.state.eip = instr.next_addr

    def _op_cli(self, instr: Instruction) -> None:
        self.state.set_flag(IF_SLOT, 0)
        self.state.eip = instr.next_addr

    def _op_setpt(self, instr: Instruction) -> None:
        self.machine.mmu.set_page_table(self.state.get_reg(instr.r1))
        self.state.eip = instr.next_addr

    def _op_pgon(self, instr: Instruction) -> None:
        self.machine.mmu.enable_paging()
        self.state.eip = instr.next_addr

    def _op_pgoff(self, instr: Instruction) -> None:
        self.machine.mmu.disable_paging()
        self.state.eip = instr.next_addr


def _build_dispatch() -> dict[Op, object]:
    i = Interpreter
    table: dict[Op, object] = {
        Op.NOP: i._op_nop,
        Op.HLT: i._op_hlt,
        Op.STI: i._op_sti,
        Op.CLI: i._op_cli,
        Op.IRET: i._op_iret,
        Op.INT: i._op_int,
        Op.MOV_RR: i._op_mov_rr,
        Op.MOV_RI: i._op_mov_ri,
        Op.XCHG_RR: i._op_xchg,
        Op.LOAD: i._op_load,
        Op.STORE: i._op_store,
        Op.LOADX: i._op_loadx,
        Op.STOREX: i._op_storex,
        Op.LOADB: i._op_loadb,
        Op.STOREB: i._op_storeb,
        Op.LOADBX: i._op_loadbx,
        Op.STOREBX: i._op_storebx,
        Op.STOREI: i._op_storei,
        Op.LEA: i._op_lea,
        Op.LEAX: i._op_leax,
        Op.NOT_R: i._op_not,
        Op.NEG_R: i._op_neg,
        Op.INC_R: i._op_inc,
        Op.DEC_R: i._op_dec,
        Op.MUL_R: i._op_mul,
        Op.DIV_R: i._op_div,
        Op.IDIV_R: i._op_idiv,
        Op.PUSH_R: i._op_push_r,
        Op.PUSH_I: i._op_push_i,
        Op.POP_R: i._op_pop_r,
        Op.PUSHF: i._op_pushf,
        Op.POPF: i._op_popf,
        Op.JMP: i._op_jmp,
        Op.JMP_R: i._op_jmp_r,
        Op.CALL: i._op_call,
        Op.CALL_R: i._op_call_r,
        Op.RET: i._op_ret,
        Op.IN: i._op_in,
        Op.OUT: i._op_out,
        Op.SETPT: i._op_setpt,
        Op.PGON: i._op_pgon,
        Op.PGOFF: i._op_pgoff,
    }
    for op in (Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
               Op.CMP_RR, Op.TEST_RR, Op.ADC_RR, Op.SBB_RR, Op.IMUL_RR):
        table[op] = i._op_binary_rr
    for op in (Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI,
               Op.CMP_RI, Op.TEST_RI, Op.ADC_RI, Op.SBB_RI, Op.IMUL_RI):
        table[op] = i._op_binary_ri
    for op in (Op.SHL_RI8, Op.SHR_RI8, Op.SAR_RI8, Op.ROL_RI8, Op.ROR_RI8,
               Op.SHL_RCL, Op.SHR_RCL, Op.SAR_RCL):
        table[op] = i._op_shift
    for op_value in range(Op.JO, Op.JG + 1):
        table[Op(op_value)] = i._op_jcc
    for op_value in range(Op.SETO, Op.SETG + 1):
        table[Op(op_value)] = i._op_setcc
    for op_value in range(Op.CMOVO, Op.CMOVG + 1):
        table[Op(op_value)] = i._op_cmovcc
    return table


_DISPATCH = _build_dispatch()
