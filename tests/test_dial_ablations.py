"""Every host-speed dial carries its measurement.

``HOST_SPEED_DIALS`` (``repro/cms/config.py``) names the ``CMSConfig``
fields that change only how fast the simulator runs, never what it
computes.  Each one must stay out of the snapshot config digest, and
each one must have exactly one ablation row in
``benchmarks/bench_wallclock.py``: a dial cannot be added without a
measurement, and it cannot outlive its row.  The benchmark lives
outside the package, so it is loaded here straight from its file path.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro import CMSConfig
from repro.cache import persist
from repro.cms.config import HOST_SPEED_DIALS

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_wallclock():
    sys.path.insert(0, str(BENCH_DIR))  # for its `common` import
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_wallclock", BENCH_DIR / "bench_wallclock.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


ABLATIONS = _load_wallclock().ABLATIONS


@pytest.mark.parametrize("dial", HOST_SPEED_DIALS)
def test_dial_is_excluded_from_config_digest(dial):
    default = CMSConfig()
    assert dial in {f.name for f in fields(CMSConfig)}
    assert dial not in persist.config_fingerprint(default)
    flipped = replace(default, **{dial: not getattr(default, dial)})
    assert persist.config_digest(flipped) == persist.config_digest(default)


@pytest.mark.parametrize("dial", HOST_SPEED_DIALS)
def test_dial_has_exactly_one_ablation_row(dial):
    rows = [row for row in ABLATIONS if row[0] == dial]
    assert len(rows) == 1, f"{dial}: {len(rows)} ablation rows"


def test_every_ablation_row_names_a_host_speed_dial():
    assert {row[0] for row in ABLATIONS} <= set(HOST_SPEED_DIALS)
