"""Differential tests for the set-associative fast-engine path.

The fast engine's LRU cache scan must agree *exactly* with the
event-by-event reference engine (which walks the behavioral
:class:`~repro.cache.banked.BankedCache` /
:class:`~repro.cache.setassoc.SetAssociativeCache` models) on every
measured field — hits, misses, flushes, invalidations, per-bank
idleness, energy and lifetime — across associativities, policies and
bank counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import AccessOutcome
from repro.core.config import ArchitectureConfig
from repro.core.fastsim import _CacheTracker
from repro.core.simulator import ReferenceSimulator, simulate
from repro.trace.trace import Trace
from tests.conftest import make_random_trace
from tests.test_engines import assert_results_equal, run_both
from tests.test_fastsim_internals import epoch_hits

WAYS = [2, 4, 8]


def epoch_hits_lru(index, tag, ways):
    """Hits and surviving lines of one cold-started LRU epoch."""
    return epoch_hits(index, tag, ways)


class TestGroupedLRUKernel:
    """The vectorized kernel against the functional LRU model."""

    def hits_and_lines_by_model(self, geometry, index, tag):
        cache = SetAssociativeCache(geometry)
        hits = 0
        for i, t in zip(index.tolist(), tag.tolist()):
            address = geometry.address_for(t, i)
            hits += cache.access(address) is AccessOutcome.HIT
        return hits, cache.valid_lines

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert epoch_hits_lru(empty, empty, 4) == (0, 0)

    def test_fills_ways_before_evicting(self):
        index = np.zeros(4, dtype=np.int64)
        tag = np.array([1, 2, 1, 2], dtype=np.int64)
        # The direct-mapped kernel thrashes here; 2-way absorbs it.
        assert epoch_hits_lru(index, tag, 2) == (2, 2)
        assert epoch_hits(index, tag) == (0, 1)

    def test_lru_victim_selection(self):
        index = np.zeros(5, dtype=np.int64)
        tag = np.array([1, 2, 3, 1, 2], dtype=np.int64)
        # 2-way: tag 3 evicts 1; the re-access of 1 evicts 2 -> all miss
        # except... none hit until the final 2? 1,2 miss; 3 evicts 1;
        # 1 evicts 2; 2 evicts 3 -> zero hits, 2 surviving lines.
        assert epoch_hits_lru(index, tag, 2) == (0, 2)
        # 4-way keeps all three tags resident: the two re-accesses hit.
        assert epoch_hits_lru(index, tag, 4) == (2, 3)

    def test_hit_refreshes_recency(self):
        index = np.zeros(5, dtype=np.int64)
        tag = np.array([1, 2, 1, 3, 1], dtype=np.int64)
        # The hit on 1 makes 2 the LRU victim for 3, so 1 hits again.
        assert epoch_hits_lru(index, tag, 2) == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        ways=st.sampled_from(WAYS),
        data=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 5)), max_size=300
        ),
    )
    def test_property_matches_functional_model(self, ways, data):
        geometry = CacheGeometry(16 * ways * 16, 16, ways=ways)
        if data:
            index = np.array([i for i, _ in data], dtype=np.int64)
            tag = np.array([t for _, t in data], dtype=np.int64)
        else:
            index = tag = np.empty(0, dtype=np.int64)
        expected = self.hits_and_lines_by_model(geometry, index, tag)
        assert epoch_hits_lru(index, tag, ways) == expected

    def test_grouped_keys_isolate_groups(self):
        """Identical tag streams in different sets, or on either side of
        an update, never share LRU state: the scan walks every epoch of
        a trace in one call."""
        index = np.array([0, 1, 0, 1], dtype=np.int64)
        tag = np.array([7, 7, 7, 7], dtype=np.int64)
        tracker = _CacheTracker(2, 2)
        tracker.advance(index, tag, np.array([0, 4]))
        assert tracker.hits == 2
        assert (tracker.stacks[:, 0] == 7).all()
        assert (tracker.stacks[:, 1] == -1).all()
        tracker = _CacheTracker(2, 2)
        tracker.advance(index, tag, np.array([0, 2, 4]))
        assert (tracker.hits, tracker.flush_invalidations) == (0, 2)


class TestSetAssociativeEngineEquivalence:
    @pytest.mark.parametrize("ways", WAYS)
    @pytest.mark.parametrize("policy", ["static", "probing", "scrambling"])
    def test_ways_and_policies(self, ways, policy, lut):
        trace = make_random_trace(seed=ways * 13 + len(policy))
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=ways),
            num_banks=4,
            policy=policy,
            update_period_cycles=7000 if policy != "static" else None,
        )
        assert_results_equal(*run_both(config, trace, lut))

    @pytest.mark.parametrize("banks", [2, 8])
    def test_bank_counts(self, banks, lut):
        trace = make_random_trace(seed=banks)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=2),
            num_banks=banks,
            policy="probing",
            update_period_cycles=5000,
        )
        assert_results_equal(*run_both(config, trace, lut))

    def test_unmanaged(self, lut):
        trace = make_random_trace(seed=9)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=4), num_banks=4, power_managed=False
        )
        assert_results_equal(*run_both(config, trace, lut))

    def test_empty_trace(self, lut):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=1000)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16, ways=4), num_banks=4)
        assert_results_equal(*run_both(config, trace, lut))

    def test_updates_between_accesses(self, lut):
        """Multiple boundary flushes draining between two accesses must
        invalidate the same line counts in both engines."""
        cycles = np.array([0, 1, 2, 30_000, 30_001], dtype=np.int64)
        addresses = np.array([0x000, 0x800, 0x000, 0x000, 0x800], dtype=np.int64)
        trace = Trace(cycles, addresses)
        config = ArchitectureConfig(
            CacheGeometry(1024, 16, ways=2),
            num_banks=2,
            policy="probing",
            update_period_cycles=1000,
        )
        reference, fast = run_both(config, trace, lut)
        assert_results_equal(reference, fast)
        assert reference.updates_applied == 30

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_property_random_traces(self, lut, seed):
        trace = make_random_trace(seed=seed, length=600)
        config = ArchitectureConfig(
            CacheGeometry(4 * 1024, 16, ways=4),
            num_banks=4,
            policy="scrambling",
            update_period_cycles=3000,
        )
        assert_results_equal(*run_both(config, trace, lut))

    def test_auto_engine_uses_fast_path(self, lut):
        """simulate's auto engine must produce the fast engine's exact
        result object fields on a set-associative config."""
        trace = make_random_trace(seed=3, length=400)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=2),
            num_banks=4,
            policy="probing",
            update_period_cycles=5000,
        )
        auto = simulate(config, trace, lut)
        reference = ReferenceSimulator(config, lut).run(trace)
        assert_results_equal(reference, auto)
