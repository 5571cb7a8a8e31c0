"""Template JIT: committed translations lowered to generated Python.

The simulated VLIW in :mod:`repro.host.cpu` walks molecule and atom
*objects*, paying a Python-level dispatch (one method call plus an
if-ladder) per atom.  That interpretive overhead — not the guest — is
what kept the translated path slower than the interpreter in
``BENCH_wallclock.json``.  This module removes it: each committed
translation is lowered once into a specialized Python function
(``exec``-compiled, constants folded, the RAM fast path inlined) whose
straight-line statements *are* the molecule sequence.

Semantics are bit-identical to ``HostCPU.run`` by construction:

* every molecule still performs the interrupt check and the fuel check
  at its boundary, in the same order;
* ``molecules_executed`` / ``atoms_executed`` / per-translation
  execution counters advance exactly as the simulated VLIW advances
  them (flushed in a ``finally`` so mid-molecule faults keep partial
  counts);
* alias record/check, the gated store buffer, fine-grain protection,
  MMIO routing, commit/rollback, and SMC invalidation all run through
  the same objects and counters — the generated code only *inlines*
  accesses its guard proves are plain RAM: paging off, every touched
  byte inside RAM, every touched page clear in the bus's I/O page
  table (``MemoryBus.io_pages``), and, for stores, every touched page
  unprotected and the store buffer not full.  Whenever any guard
  fails it falls back to the exact ``HostCPU`` helpers, and counts the
  fallback in ``CMSStats.jit_slow_mem_ops``;
* any host fault raises the same ``HostFaultError`` the dispatcher
  already handles, so rollback and recovery are unchanged.

The wall-clock dial contract of ``CMSConfig`` holds: with
``template_jit`` on or off, console output and every molecule count are
identical; only host seconds change.  The differential fuzz oracle
checks this over the whole dial matrix (``fuzz/oracle.py``).
"""

from __future__ import annotations

import hashlib

from repro.host.atoms import AluOp, AtomKind
from repro.host.cpu import ExitInfo, ExitKind
from repro.host.faults import HostFault, HostFaultError, HostFaultKind
from repro.host.registers import R_EIP, R_IF
from repro.host.store_buffer import BufferedStore
from repro.isa.flags import parity
from repro.memory.physical import PAGE_SHIFT
from repro.obs.phases import NULL_PHASES

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

# Generated-function status codes (first element of the return tuple).
_EXIT = 0  # an EXIT atom finished its molecule; aux = the exit atom
_INTERRUPT = 1  # pending interrupt at a molecule boundary
_FUEL = 2  # molecule budget exhausted at a molecule boundary
_RESUME = 3  # pc left the template's arms; aux = pc for the VLIW


class _Unsupported(Exception):
    """The translation contains something the template cannot lower."""


# ----------------------------------------------------------------------
# Expression lowering
# ----------------------------------------------------------------------


def _signed(expr: str) -> str:
    """32-bit two's-complement reinterpretation of a masked value."""
    return f"({expr} if {expr} < {SIGN32} else {expr} - {1 << 32})"


def _alu_expr(op: AluOp, a: str, b: str, bc: int | None) -> str:
    """Python expression for ``a op b``.

    ``a``/``b`` are expressions yielding 32-bit-masked ints; when the
    right operand is an immediate, ``bc`` carries its folded value so
    shift counts and sign conversions happen at compile time.
    """
    if op is AluOp.ADD:
        return f"({a} + {b}) & {MASK32}"
    if op is AluOp.SUB:
        return f"({a} - {b}) & {MASK32}"
    if op is AluOp.AND:
        return f"{a} & {b}"
    if op is AluOp.OR:
        return f"{a} | {b}"
    if op is AluOp.XOR:
        return f"{a} ^ {b}"
    if op is AluOp.SHL:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"({a} << {count}) & {MASK32}"
    if op is AluOp.SHR:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"{a} >> {count}"
    if op is AluOp.SAR:
        count = f"({b} & 31)" if bc is None else str(bc & 31)
        return f"({_signed(a)} >> {count}) & {MASK32}"
    if op is AluOp.MUL:
        return f"({a} * {b}) & {MASK32}"
    if op is AluOp.UMULH:
        return f"({a} * {b}) >> 32"
    if op is AluOp.SMULH:
        sb = _signed(b) if bc is None else str(
            bc - (1 << 32) if bc & SIGN32 else bc)
        return f"(({_signed(a)} * {sb}) >> 32) & {MASK32}"
    if op is AluOp.PARITY:
        return f"par({a})"
    if op is AluOp.CMPEQ:
        return f"(1 if {a} == {b} else 0)"
    if op is AluOp.CMPNE:
        return f"(1 if {a} != {b} else 0)"
    if op is AluOp.CMPLTU:
        return f"(1 if {a} < {b} else 0)"
    if op is AluOp.CMPLEU:
        return f"(1 if {a} <= {b} else 0)"
    if op in (AluOp.CMPLTS, AluOp.CMPLES):
        cmp = "<" if op is AluOp.CMPLTS else "<="
        sb = _signed(b) if bc is None else str(
            bc - (1 << 32) if bc & SIGN32 else bc)
        return f"(1 if {_signed(a)} {cmp} {sb} else 0)"
    raise _Unsupported(f"ALU op {op}")


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------


class _Codegen:
    """Builds the source of one translation's template function."""

    def __init__(self, translation, cpu, stats=None) -> None:
        self.t = translation
        self.cpu = cpu
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._atom_names: dict[int, str] = {}
        self.stats = stats
        # Accesses that end inside RAM on pages clear in the bus's I/O
        # page table can never be I/O, and the PhysicalMemory accessors
        # cannot fault on them.  The table itself is bound late (like
        # the protected-page set), so a region added after compilation
        # still diverts this template's accesses to the slow path.
        self.ram_size = cpu.machine.ram.size
        self.sb_capacity = cpu.store_buffer.capacity

    def bind(self, atom) -> str:
        """Name an atom object for slow-path references."""
        name = self._atom_names.get(id(atom))
        if name is None:
            name = f"a{len(self._atom_names)}"
            self._atom_names[id(atom)] = name
            self.consts[name] = atom
        return name

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # -- per-atom statements -------------------------------------------

    def _fault_args(self, atom) -> str:
        ga = atom.guest_addr
        return "guest_addr=" + (str(ga) if ga is not None else "None")

    def _alias_lines(self, atom, depth: int, store: bool) -> None:
        """Alias record/check in the VLIW's order (loads record first,
        stores check first) with the fault raised inline."""
        record = f"arec({atom.alias_entry}, x, {atom.size})"
        if store and atom.alias_check:
            self._alias_check(atom, depth)
        if atom.alias_entry is not None:
            self.emit(depth, record)
        if not store and atom.alias_check:
            self._alias_check(atom, depth)

    def _alias_check(self, atom, depth: int) -> None:
        self.emit(depth, f"vi = achk({atom.alias_check}, x, {atom.size})")
        self.emit(depth, "if vi is not None:")
        self.emit(depth + 1,
                  f"raise HFE(HF(AVK, {self._fault_args(atom)}, paddr=x, "
                  f"detail='entry ' + str(vi)))")

    def _addr_line(self, atom, depth: int) -> None:
        if atom.disp:
            self.emit(depth, f"x = (w[{atom.rs1}] + {atom.disp}) & {MASK32}")
        else:
            self.emit(depth, f"x = w[{atom.rs1}]")

    def _ram_guards(self, size: int) -> list[str]:
        """Conditions, any of which sends an access to the slow path:
        paging on, bytes past the end of RAM, or an I/O page touched."""
        guards = [
            "mmu.paging_enabled",
            f"x > {self.ram_size - size}",
            f"iop[x >> {PAGE_SHIFT}]",
        ]
        if size > 1:
            guards.append(f"iop[(x + {size - 1}) >> {PAGE_SHIFT}]")
        return guards

    def _slow_call(self, call: str, depth: int) -> None:
        """The exact ``HostCPU`` helper, counted.  The count goes straight
        to the stats object rather than through a local flushed in the
        ``finally``: CPython copies a ``finally`` body once per
        ``return`` inside the ``try``, and a template has several per
        molecule, so every line there multiplies the code object."""
        if self.stats is not None:
            self.emit(depth, "stats.jit_slow_mem_ops += 1")
        self.emit(depth, call)

    def _load(self, atom, depth: int) -> None:
        name = self.bind(atom)
        self._addr_line(atom, depth)
        self.emit(depth, "if " + " or ".join(self._ram_guards(atom.size))
                  + ":")
        self._slow_call(f"ld({name})", depth + 1)
        self.emit(depth, "else:")
        self._alias_lines(atom, depth + 1, store=False)
        reader = {1: "rd1", 2: "rd2b", 4: "rd4"}[atom.size]
        self.emit(depth + 1, f"v = {reader}(x)")
        # Store-forwarding with the buffer's O(1) bounds reject inlined:
        # most loads miss the buffered range and skip the call entirely.
        self.emit(depth + 1, f"if x < sb._hi and x + {atom.size} > sb._lo:")
        self.emit(depth + 2, f"v = fwd(x, {atom.size}, v)")
        self.emit(depth + 1, f"w[{atom.rd}] = v")

    def _store(self, atom, depth: int) -> None:
        name = self.bind(atom)
        self._addr_line(atom, depth)
        size = atom.size
        guards = self._ram_guards(size)
        guards.append(f"(x >> {PAGE_SHIFT}) in pgs")
        if size > 1:
            guards.append(f"((x + {size - 1}) >> {PAGE_SHIFT}) in pgs")
        guards.append(f"len(ent) >= {self.sb_capacity}")
        self.emit(depth, "if " + " or ".join(guards) + ":")
        self._slow_call(f"st({name})", depth + 1)
        self.emit(depth, "else:")
        self._alias_lines(atom, depth + 1, store=True)
        self.emit(depth + 1, f"v = w[{atom.rs2}]")
        self.emit(depth + 1, f"ent.append(BS(x, {size}, v, False))")
        self.emit(depth + 1, "sb.total_buffered += 1")
        self.emit(depth + 1, "ovl[x] = v & 255")
        for i in range(1, size):
            self.emit(depth + 1, f"ovl[x + {i}] = (v >> {8 * i}) & 255")
        self.emit(depth + 1, "if x < sb._lo:")
        self.emit(depth + 2, "sb._lo = x")
        self.emit(depth + 1, f"if x + {size} > sb._hi:")
        self.emit(depth + 2, f"sb._hi = x + {size}")

    def _plain_atom(self, atom, depth: int) -> None:
        kind = atom.kind
        if kind is AtomKind.MOVI:
            self.emit(depth, f"w[{atom.rd}] = {atom.imm & MASK32}")
        elif kind is AtomKind.MOV:
            self.emit(depth, f"w[{atom.rd}] = w[{atom.rs1}]")
        elif kind is AtomKind.ALU:
            expr = _alu_expr(atom.aluop, f"w[{atom.rs1}]",
                             f"w[{atom.rs2}]", None)
            self.emit(depth, f"w[{atom.rd}] = {expr}")
        elif kind is AtomKind.ALUI:
            imm = atom.imm & MASK32
            expr = _alu_expr(atom.aluop, f"w[{atom.rs1}]", str(imm), imm)
            self.emit(depth, f"w[{atom.rd}] = {expr}")
        elif kind is AtomKind.SEL:
            self.emit(depth,
                      f"w[{atom.rd}] = w[{atom.rs2}] if w[{atom.rs1}] "
                      f"else w[{atom.rs3}]")
        elif kind is AtomKind.LD:
            self._load(atom, depth)
        elif kind is AtomKind.ST:
            self._store(atom, depth)
        elif kind is AtomKind.COMMIT:
            self.emit(depth, f"cmt({atom.instr_count})")
        elif kind in (AtomKind.DIVU, AtomKind.DIVS):
            self.emit(depth, f"dv({self.bind(atom)})")
        elif kind is AtomKind.PORT_IN:
            self.emit(depth, f"w[{atom.rd}] = pin({atom.imm})")
            self.emit(depth, "cpu._io_uncommitted = True")
        elif kind is AtomKind.PORT_OUT:
            self.emit(depth, f"pout({atom.imm}, w[{atom.rs1}])")
            self.emit(depth, "cpu._io_uncommitted = True")
        elif kind is AtomKind.FAIL:
            self.emit(depth,
                      f"raise HFE(HF(SCK, {self._fault_args(atom)}, "
                      f"detail={atom.fail_reason!r}))")
        elif kind is AtomKind.NOPA:
            pass
        else:
            raise _Unsupported(f"atom kind {kind}")

    # Atoms whose execution can raise (or call arbitrary code): the
    # batched atom counter must be flushed *before* each of these so a
    # mid-molecule fault leaves the same partial count the VLIW leaves.
    _FLUSH_KINDS = frozenset({
        AtomKind.LD, AtomKind.ST, AtomKind.COMMIT, AtomKind.DIVU,
        AtomKind.DIVS, AtomKind.PORT_IN, AtomKind.PORT_OUT, AtomKind.FAIL,
    })

    _BRANCH_KINDS = frozenset({AtomKind.BR, AtomKind.BRZ, AtomKind.BRNZ})

    # -- per-molecule lowering -----------------------------------------

    def _branch_cond(self, atom) -> str | None:
        """Taken-condition expression (None = unconditional)."""
        if atom.kind is AtomKind.BR:
            return None
        if atom.kind is AtomKind.BRZ:
            return f"not w[{atom.rs1}]"
        return f"w[{atom.rs1}]"

    def _molecule(self, pc: int, molecule, depth: int) -> None:
        t = self.t
        atoms = molecule.atoms
        self.emit(depth,
                  f"if sh[{R_IF}] and not cpu._io_uncommitted and pend():")
        self.emit(depth + 1, f"return ({_INTERRUPT}, None)")
        self.emit(depth, "if m >= fuel:")
        self.emit(depth + 1, f"return ({_FUEL}, None)")
        self.emit(depth, "m += 1")

        exit_atom = next(
            (atom for atom in atoms if atom.kind is AtomKind.EXIT), None)
        branches = [atom for atom in atoms
                    if atom.kind in self._BRANCH_KINDS]
        # Branches followed by more atoms in the same molecule must read
        # their condition at their own position (the VLIW executes
        # left-to-right) but transfer control only after the molecule
        # finishes; ``np`` latches the taken target.
        last_is_branch = bool(atoms) and atoms[-1] in branches
        defer = branches and not (
            len(branches) == 1 and last_is_branch and exit_atom is None)
        if defer:
            self.emit(depth, f"np = {pc + 1}")

        pending = 0  # atoms counted but not yet flushed into ``a``
        for atom in atoms:
            if atom.kind in self._FLUSH_KINDS:
                self.emit(depth, f"a += {pending + 1}")
                pending = 0
                self._plain_atom(atom, depth)
                continue
            pending += 1
            if atom.kind is AtomKind.EXIT:
                continue  # handled after the molecule completes
            if atom.kind in self._BRANCH_KINDS:
                target = t.labels[atom.label]
                cond = self._branch_cond(atom)
                if defer:
                    if cond is None:
                        self.emit(depth, f"np = {target}")
                    else:
                        self.emit(depth, f"if {cond}:")
                        self.emit(depth + 1, f"np = {target}")
                # Non-deferred: the branch is the molecule's last atom;
                # emitted below, after the count flush.
                continue
            self._plain_atom(atom, depth)
        if pending:
            self.emit(depth, f"a += {pending}")

        if exit_atom is not None:
            self.emit(depth, f"return ({_EXIT}, {self.bind(exit_atom)})")
        elif defer:
            # Taken-to-fallthrough branches are the same as not taken.
            self.emit(depth, f"if np != {pc + 1}:")
            self.emit(depth + 1, "pc = np")
            self.emit(depth + 1, "continue")
        elif branches:
            atom = branches[0]
            target = t.labels[atom.label]
            cond = self._branch_cond(atom)
            if target != pc + 1:
                if cond is None:
                    self.emit(depth, f"pc = {target}")
                    self.emit(depth, "continue")
                else:
                    self.emit(depth, f"if {cond}:")
                    self.emit(depth + 1, f"pc = {target}")
                    self.emit(depth + 1, "continue")

    # -- whole-function assembly ---------------------------------------

    def generate(self) -> tuple[str, dict]:
        t = self.t
        cpu = self.cpu
        machine = cpu.machine
        self.consts.update(
            cpu=cpu, t=t,
            w=cpu.regs.working, sh=cpu.regs.shadow,
            mmu=machine.mmu, pend=machine.pic.has_pending,
            ld=cpu._load, st=cpu._store, dv=cpu._divide, cmt=cpu.commit,
            pin=machine.ports.read, pout=machine.ports.write,
            arec=cpu.alias.record, achk=cpu.alias.check,
            sb=cpu.store_buffer,
            ent=cpu.store_buffer._entries, ovl=cpu.store_buffer._overlay,
            fwd=cpu.store_buffer.forward,
            rd1=machine.ram.read8, rd2b=machine.ram.read16,
            rd4=machine.ram.read32,
            pgs=cpu.protection._pages, iop=machine.bus.io_pages,
            BS=BufferedStore, HFE=HostFaultError, HF=HostFault,
            AVK=HostFaultKind.ALIAS_VIOLATION,
            SCK=HostFaultKind.SELF_CHECK,
            par=parity,
        )
        if self.stats is not None:
            self.consts["stats"] = self.stats
        arms = sorted(set(t.labels.values()))
        count = len(t.molecules)
        if any(arm < 0 or arm > count for arm in arms):
            raise _Unsupported("label outside molecule range")
        arms = [arm for arm in arms if arm < count]
        self.emit(1, "def _jit(fuel, pc):")
        self.emit(2, "m = 0")
        self.emit(2, "a = 0")
        self.emit(2, "try:")
        self.emit(3, "while 1:")
        for index, arm in enumerate(arms):
            end = arms[index + 1] if index + 1 < len(arms) else count
            self.emit(4, f"if pc == {arm}:")
            for pc in range(arm, end):
                self._molecule(pc, t.molecules[pc], 5)
            self.emit(5, f"pc = {end}")
        self.emit(4, f"return ({_RESUME}, pc)")
        self.emit(2, "finally:")
        self.emit(3, "cpu.molecules_executed += m")
        self.emit(3, "cpu.atoms_executed += a")
        self.emit(3, "t.executions_molecules += m")
        self.emit(1, "return _jit")
        params = ", ".join(self.consts)
        header = f"def _make({params}):"
        return "\n".join([header, *self.lines, ""]), self.consts


# Process-wide cache of compiled template code objects, keyed by the
# sha256 of the generated source.  The source embeds everything the
# code object depends on (molecule structure, folded constants,
# ``ram_size``/``sb_capacity``); all per-CPU state is late-bound via
# ``_make``, so one code object serves every tenant whose translation
# lowers to the same text.  ``compile`` dominates template cost, so a
# fleet of tenants running the same guest code pays it once.
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_MAX = 4096


def compile_translation(translation, cpu, stats=None):
    """Lower one translation; returns the template function or None.

    ``None`` means the translation stays on the simulated-VLIW path —
    lowering is best-effort and unsupported shapes are not an error.
    """
    try:
        source, consts = _Codegen(translation, cpu, stats).generate()
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        code = _CODE_CACHE.get(key)
        if code is None:
            code = compile(source, "<jit-template>", "exec")
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            _CODE_CACHE[key] = code
        elif stats is not None:
            stats.jit_code_cache_hits += 1
        env: dict = {}
        exec(code, env)  # noqa: S102 — our own generated source
        return env["_make"](**consts)
    except Exception:
        return None


# ----------------------------------------------------------------------
# The driver: a JIT-aware mirror of ``HostCPU.run``
# ----------------------------------------------------------------------


class TemplateJIT:
    """Compiles translations lazily and dispatches their templates.

    One instance per :class:`CodeMorphingSystem`; ``run`` has the exact
    contract of ``HostCPU.run`` (same ``ExitInfo``, same counters, same
    chain following) and bails out to the simulated VLIW for anything
    the template could not lower.
    """

    def __init__(self, cpu, stats=None, phases=NULL_PHASES) -> None:
        self.cpu = cpu
        self.stats = stats
        self.phases = phases
        self._uncompilable: set[int] = set()  # translation ids

    def ensure_compiled(self, translation):
        """Compile (or fetch) the translation's template function."""
        fn = translation.host_code
        if fn is not None:
            return fn
        if translation.id in self._uncompilable:
            return None
        with self.phases.phase("jit-compile"):
            fn = compile_translation(translation, self.cpu, self.stats)
        stats = self.stats
        if fn is None:
            self._uncompilable.add(translation.id)
            if stats is not None:
                stats.jit_compile_failures += 1
            return None
        translation.host_code = fn
        if stats is not None:
            stats.jit_compiles += 1
        return fn

    def _bail(self, reason: str) -> None:
        if self.stats is not None:
            self.stats.jit_bailouts[reason] += 1

    def run(self, translation, fuel: int = 1_000_000) -> ExitInfo:
        """Execute ``translation`` via its template until exit, fault,
        or interrupt, following chains — ``HostCPU.run``, accelerated."""
        cpu = self.cpu
        if self.stats is not None:
            self.stats.jit_dispatches += 1
        info = ExitInfo(kind=ExitKind.EXITED)
        current = translation
        info.translations_entered.append(current)
        start = cpu.molecules_executed
        pending = cpu._interrupt_pending
        shadow = cpu.regs.shadow

        def merge(sub: ExitInfo) -> None:
            """Fold a simulated-VLIW continuation into this dispatch."""
            info.kind = sub.kind
            info.fault = sub.fault
            info.exit_atom = sub.exit_atom
            info.chains_followed += sub.chains_followed
            # sub's first entry re-names ``current``; keep it once.
            info.translations_entered.extend(sub.translations_entered[1:])

        try:
            self._run_loop(info, current, fuel, start, pending, shadow,
                           merge)
        finally:
            cpu.current_translation = None

        info.next_eip = shadow[R_EIP]
        info.molecules = cpu.molecules_executed - start
        return info

    def _run_loop(self, info, current, fuel, start, pending, shadow,
                  merge) -> None:
        cpu = self.cpu
        while True:
            cpu.current_translation = current
            fn = current.host_code
            if fn is None:
                fn = self.ensure_compiled(current)
            if fn is None:
                self._bail("uncompilable")
                merge(cpu.run(current,
                              fuel=fuel - (cpu.molecules_executed - start)))
                break
            try:
                status, aux = fn(
                    fuel - (cpu.molecules_executed - start),
                    current.labels[current.entry_label],
                )
            except HostFaultError as error:
                info.kind = ExitKind.FAULT
                info.fault = error.fault
                self._bail("fault-" + error.fault.kind.name.lower())
                break
            if status == _EXIT:
                atom = aux
                chained = atom.chained_translation
                if chained is not None and not pending():
                    if atom.exit_target is not None or \
                            atom.chained_guard == shadow[R_EIP]:
                        current = chained
                        info.chains_followed += 1
                        info.translations_entered.append(current)
                        current.entries += 1
                        continue
                info.kind = ExitKind.EXITED
                info.exit_atom = atom
                break
            if status == _INTERRUPT:
                info.kind = ExitKind.INTERRUPT
                cpu.interrupt_exits += 1
                self._bail("interrupt")
                break
            if status == _FUEL:
                info.kind = ExitKind.FUEL
                self._bail("fuel")
                break
            # _RESUME: the template ran off its arms (a malformed
            # translation); the VLIW resumes from that exact molecule
            # and reproduces whatever the seed path would have done.
            self._bail("resume")
            merge(cpu.run(current,
                          fuel=fuel - (cpu.molecules_executed - start),
                          start_pc=aux))
            break
