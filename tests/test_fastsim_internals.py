"""Direct tests of the fast engine's vectorized building blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.directmapped import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import AccessOutcome
from repro.core.fastsim import _CacheTracker
from repro.core.plan import TracePlan


def epoch_hits(index: np.ndarray, tag: np.ndarray, ways: int = 1) -> tuple[int, int]:
    """Hits and valid lines left by one cold-started epoch of the cache
    scan (direct-mapped unless ``ways`` says otherwise)."""
    tracker = _CacheTracker(int(index.max()) + 1 if index.size else 1, ways)
    tracker.advance(index, tag, np.array([0, index.size]))
    return tracker.hits, int(np.count_nonzero(tracker.stacks != -1))


class TestEpochHits:
    def hits_by_model(self, geometry, addresses):
        """Ground truth via the direct-mapped functional model."""
        cache = DirectMappedCache(geometry)
        return sum(1 for a in addresses if cache.access(int(a)) is AccessOutcome.HIT)

    def test_empty(self):
        hits, lines = epoch_hits(np.empty(0, np.int64), np.empty(0, np.int64))
        assert (hits, lines) == (0, 0)

    def test_single_access_is_miss(self):
        hits, lines = epoch_hits(
            np.array([5], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert (hits, lines) == (0, 1)

    def test_repeat_hits(self):
        index = np.array([5, 5, 5], dtype=np.int64)
        tag = np.array([1, 1, 1], dtype=np.int64)
        assert epoch_hits(index, tag) == (2, 1)

    def test_conflict_thrash(self):
        index = np.array([5, 5, 5, 5], dtype=np.int64)
        tag = np.array([1, 2, 1, 2], dtype=np.int64)
        assert epoch_hits(index, tag) == (0, 1)

    def test_distinct_lines_counted(self):
        index = np.array([1, 2, 3, 1], dtype=np.int64)
        tag = np.zeros(4, dtype=np.int64)
        hits, lines = epoch_hits(index, tag)
        assert lines == 3
        assert hits == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**16), max_size=200))
    def test_property_matches_functional_model(self, addresses):
        geometry = CacheGeometry(512, 16)
        arr = np.asarray(addresses, dtype=np.int64)
        index = (arr >> geometry.offset_bits) & (geometry.num_sets - 1)
        tag = arr >> (geometry.offset_bits + geometry.index_bits)
        hits, lines = epoch_hits(index, tag)
        assert hits == self.hits_by_model(geometry, addresses)
        assert lines == len(np.unique(index)) if addresses else lines == 0


class TestEpochBoundaries:
    """The update cycles that fire during a trace: due updates drain
    lazily before the first access at or after each boundary, and
    boundaries after the last access never fire."""

    def make(self, **kwargs):
        from repro.core.config import ArchitectureConfig
        from repro.trace.trace import Trace

        config = ArchitectureConfig(
            CacheGeometry(1024, 16), num_banks=4, policy="probing", **kwargs
        )
        cycles = np.array([0, 100, 5000], dtype=np.int64)
        addresses = np.zeros(3, dtype=np.int64)
        return config, Trace(cycles, addresses)

    @staticmethod
    def boundaries(config, trace):
        return TracePlan(trace).epoch_starts(config)[0]

    def test_periodic(self):
        config, trace = self.make(update_period_cycles=1000)
        assert self.boundaries(config, trace).tolist() == [1000, 2000, 3000, 4000, 5000]

    def test_explicit_events(self):
        config, trace = self.make(update_events=(50, 4999, 9000))
        assert self.boundaries(config, trace).tolist() == [50, 4999]

    def test_none_when_static(self):
        config, trace = self.make()
        assert self.boundaries(config, trace).size == 0

    def test_empty_trace(self):
        from repro.trace.trace import Trace

        config, _ = self.make(update_period_cycles=10)
        empty = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=100)
        assert self.boundaries(config, empty).size == 0
