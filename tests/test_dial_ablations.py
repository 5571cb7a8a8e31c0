"""Host-speed machinery stays out of the snapshot configuration digest.

The decode cache, the software TLB and the template JIT are not
``CMSConfig`` fields; a test turns one off only by applying its
reference pin (``conftest.REFERENCE_PINS``) to a built system.  A
session run with a pin must save the same configuration digest, and
the same translations, as one run without.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from conftest import REFERENCE_PINS
from repro import CMSConfig
from repro.cache import persist
from repro.cache.persist import read_snapshot_file
from test_persist import FAST, cold_save


@pytest.mark.parametrize("dial", sorted(REFERENCE_PINS))
def test_dial_is_excluded_from_config_digest(dial, tmp_path):
    assert dial not in {f.name for f in fields(CMSConfig)}
    plain, pinned = str(tmp_path / "plain"), str(tmp_path / "pinned")
    cold_save(plain)
    cold_save(pinned, pins=(REFERENCE_PINS[dial],))
    plain, pinned = read_snapshot_file(plain), read_snapshot_file(pinned)
    assert pinned["config_digest"] == persist.config_digest(FAST)
    assert pinned["config_digest"] == plain["config_digest"]
    assert pinned["translations"] == plain["translations"] != []
