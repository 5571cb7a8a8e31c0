"""Paths and the outcome encoding shared by ``run.py`` and ``worker.py``.

A leg's outcome is the fuzz oracle's ``RunOutcome`` (final
registers, flags, console, fault counts and masked RAM); it crosses
the process boundary as JSON with the RAM compressed.

Importing this module must not import ``repro``: a traced worker wraps
the layer functions before any ``repro`` module is loaded elsewhere.
"""

from __future__ import annotations

import base64
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Reported times are scaled to a host on which ``yardstick`` takes this
# long (see ``yardstick``).
YARDSTICK_NOMINAL_S = 0.1


def yardstick() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    On a shared host the speed of a Python process swings by up to 2x
    between phases that last tens of minutes, and pure-Python work
    slows together.  Timed next to a run, this loop tracks the phase:
    over 20-repetition windows its ratio to ``run_s`` stayed within
    about 2% while ``run_s`` itself moved by 15%.  It uses no ``repro``
    code, so no change to the program can move it.
    """
    start = time.perf_counter()
    memory = bytearray(1 << 20)
    registers = [0] * 8
    for i in range(150_000):
        address = (i * 2654435761) & 0xFFFFC
        value = int.from_bytes(memory[address:address + 4], "little")
        value = (registers[(i + 3) & 7] + value + i) & 0xFFFFFFFF
        registers[i & 7] = value
        memory[address:address + 4] = value.to_bytes(4, "little")
    return time.perf_counter() - start


def encode_outcome(state) -> dict:
    record = dict(vars(state))
    record["ram"] = base64.b64encode(zlib.compress(state.ram, 1)).decode()
    return record


def decode_outcome(record: dict):
    from repro.fuzz.oracle import RunOutcome

    fields = dict(record)
    fields["ram"] = zlib.decompress(base64.b64decode(fields["ram"]))
    fields["regs"] = tuple(fields["regs"])
    fields["flags"] = tuple(fields["flags"])
    return RunOutcome(**fields)
