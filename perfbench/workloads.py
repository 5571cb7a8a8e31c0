"""The benchmark's workloads, their sizes, and why each was chosen.

Every workload is single-process and single-threaded, and a closed
loop: each guest runs to halt before the next starts.  A workload is a
list of *legs*; each leg is one guest program on its own ``Machine``.

* ``kernels`` -- compute-bound app kernels from the registry's ``app``
  category: compress, tomcatv, crafty and eqntott.  Hot loops where
  translated execution and the plain-RAM memory path do nearly all the
  work and the translator and interpreter very little, so a JIT or
  memory fast-lane change shows here and a translator change should
  not.  The seed shuffles the kernel order and redraws every input
  table (same length, same value width).  The kernels' control flow
  does not depend on table values, so every seed does the same guest
  work: the composition is fixed on purpose, because a draw of
  different kernels per seed would spread ``run_s`` and
  ``mol_per_instr`` across seeds by far more than any bound.
* ``guest-jit`` -- the ``guest-jit`` scenario.  The guest writes,
  patches and re-enters its own code, so the same memory layer runs
  through protection checks, SMC service, self-check and revalidation,
  and translation-group reactivation, in short dispatches.  A shortcut
  that speeds plain-RAM access but slows stores to protected code
  pages shows here.  The scenario has no disk and its builder ignores
  the seed, so every seed runs the same guest: a held-out seed is no
  check at all here.
* ``paging`` -- the ``paging`` scenario.  The MMU is on, with timer
  preemption and disk DMA that writes bytes through ``MemoryBus.write``;
  the translator thrashes (most translations are discarded or
  retranslated).  Translator, rollback and MMU work shows here, and
  execution-layer changes barely register.  The seed only fills the
  disk image (``DISK_SEED_SALT`` in ``repro.scenarios.runner``), so a
  held-out seed is a weak check.

This module imports ``repro`` only inside ``build``, so ``run.py`` can
validate a workload name before it knows the source tree is present.

Sizes are chosen so that one leg set takes about a second of CMS time:
many fresh-process repetitions then fit in one benchmark run, and
their median is steady.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.scenarios.base import ScenarioProgram

KERNEL_POOL = ("compress", "tomcatv", "crafty", "eqntott")

# Per size: kernel scale, guest-jit budget, paging budget.
SIZES = {
    "full": {"kernels": 3, "guest-jit": 100_000, "paging": 20_000},
    "tiny": {"kernels": 1, "guest-jit": 12_000, "paging": 8_000},
}

WHY = {
    "kernels": "compute-bound app kernels: translated code and the "
               "plain-RAM memory path do the work; translator and "
               "interpreter stay cold",
    "guest-jit": "self-writing guest code: protection checks, SMC "
                 "service, self-check and group reactivation in short "
                 "dispatches",
    "paging": "MMU on with timer preemption and disk DMA: translator "
              "thrash, rollbacks and MMU work dominate",
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Leg:
    """One guest program run to halt on its own machine."""

    name: str
    program: ScenarioProgram
    pin_interrupts: bool = True


_LABEL = re.compile(r"^([A-Za-z_][\w.]*):\s*$")
_WORDS = re.compile(r"^(\s*\.word\s+)(.*)$")


def reseed_tables(source: str, rng: random.Random) -> str:
    """Redraw every ``.word`` table's values, keeping each table's
    length and value width (the bit length of its largest value)."""
    lines = source.split("\n")
    tables: dict[str, list[int]] = {}
    label = None
    for index, line in enumerate(lines):
        match = _LABEL.match(line)
        if match:
            label = match.group(1)
        elif _WORDS.match(line):
            tables.setdefault(label, []).append(index)
    for indices in tables.values():
        rows = [[int(v, 0) for v in _WORDS.match(lines[i]).group(2)
                 .split(",")] for i in indices]
        mask = (1 << max(max(row) for row in rows).bit_length()) - 1
        for i, row in zip(indices, rows):
            fresh = ", ".join(str(rng.randint(0, mask)) for _ in row)
            lines[i] = _WORDS.match(lines[i]).group(1) + fresh
    return "\n".join(lines)


def _kernels(seed: int, scale: int) -> list[Leg]:
    from repro.scenarios.base import ScenarioProgram
    from repro.workloads.apps import APP_FACTORIES

    rng = random.Random(seed)
    order = list(KERNEL_POOL)
    rng.shuffle(order)
    legs = []
    for name in order:
        workload = APP_FACTORIES[name](scale)
        assert workload.category == "app" and \
            workload.machine_config is None, name
        program = ScenarioProgram(
            source=reseed_tables(workload.source, rng),
            max_instructions=workload.max_instructions,
            ram_masks=())
        legs.append(Leg(name, program))
    return legs


def _scenario(name: str, budget: int, seed: int) -> list[Leg]:
    from repro.scenarios.matrix import get as get_scenario

    scenario = get_scenario(name)
    return [Leg(name, scenario.build(budget, seed),
                scenario.pin_interrupts)]


def build(name: str, seed: int, size: str = "full") -> list[Leg]:
    """The legs of workload ``name`` for ``seed`` at ``size``."""
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; known: {list(NAMES)}")
    amount = SIZES[size][name]
    if name == "kernels":
        return _kernels(seed, amount)
    return _scenario(name, amount, seed)
