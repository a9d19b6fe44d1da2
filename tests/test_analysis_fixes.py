"""Regression tests for the defects ``repro lint`` surfaced.

Each test here pins a bug the static rules found in previously-shipped
code (see DESIGN.md § Invariants & static analysis):

* REP004 on ``PoolRegistry.publish``: an exception between creating the
  named SharedMemory segment and registering it leaked an OS-level shm
  file that outlived the process.
* REP005 on ``ProgressEvent``: the streaming event serialized
  (``to_dict``) but could not be parsed back (no ``from_dict``), so
  clients could not round-trip the one wire type the SSE path emits
  (covered in tests/test_broker_api.py with the other envelopes).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro.optimizer.pools import PoolRegistry, _segment_name


class _ExplodingStats:
    """Stands in for ``registry.stats``: any attribute access raises."""

    def __getattr__(self, name):
        raise RuntimeError("stats backend down")


class TestPublishLeak:
    def test_publish_failure_unlinks_fresh_segment(self):
        """REP004 regression: no shm leak when registration raises."""
        registry = PoolRegistry()
        # White-box: bring the channel up without paying for a real
        # process pool, then make the registration step blow up.
        registry._shm_channel_up = True
        registry.stats = _ExplodingStats()
        uid = 421
        with pytest.raises(RuntimeError, match="stats backend down"):
            registry.publish(uid, {"terms": (1.0, 2.0)})
        # The failed publish must leave neither a registry entry nor an
        # OS-level segment behind.
        assert uid not in registry._segments
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(
                name=_segment_name(registry._token, uid)
            )

    def test_publish_retract_still_round_trips(self):
        """The happy path is untouched by the error-path fix."""
        registry = PoolRegistry()
        registry._shm_channel_up = True
        uid = 7
        registry.publish(uid, {"terms": (1.0,)})
        assert uid in registry._segments
        assert registry.stats.tables_published == 1
        registry.retract(uid)
        assert uid not in registry._segments
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(
                name=_segment_name(registry._token, uid)
            )
