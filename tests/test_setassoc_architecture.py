"""Set-associative extension: the architecture is associativity-agnostic.

The paper evaluates direct-mapped caches; nothing in the partitioning or
re-indexing machinery depends on associativity (banks split the *set*
index). These tests run the full stack on 2- and 4-way geometries and
check the headline behaviours carry over; both engines now support
set-associative geometries (exact agreement is pinned in
``test_setassoc_fastsim.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import ReferenceSimulator, simulate
from repro.trace.trace import Trace
from tests.conftest import make_random_trace


def looping_trace(geometry: CacheGeometry, hot_sets: int, length: int = 3000) -> Trace:
    """A trace hammering the first ``hot_sets`` sets with two tags each,
    with periodic long pauses (idleness for the other banks)."""
    rng = np.random.default_rng(23)
    cycles = []
    addresses = []
    cycle = 0
    for i in range(length):
        set_index = int(rng.integers(0, hot_sets))
        tag = int(rng.integers(0, 2))
        addresses.append(geometry.address_for(tag, set_index))
        cycles.append(cycle)
        cycle += 3
        if i % 500 == 499:
            cycle += 4000
    return Trace(np.asarray(cycles, dtype=np.int64), np.asarray(addresses, dtype=np.int64))


class TestSetAssociativeArchitecture:
    @pytest.mark.parametrize("ways", [2, 4])
    def test_reindexing_extends_lifetime(self, ways, lut):
        geometry = CacheGeometry(8 * 1024, 16, ways=ways)
        trace = looping_trace(geometry, hot_sets=geometry.num_sets // 4)
        static = ReferenceSimulator(
            ArchitectureConfig(geometry, num_banks=4, policy="static"), lut
        ).run(trace)
        probing = ReferenceSimulator(
            ArchitectureConfig(
                geometry, num_banks=4, policy="probing",
                update_period_cycles=trace.horizon // 8,
            ),
            lut,
        ).run(trace)
        assert probing.lifetime_years > static.lifetime_years

    def test_two_way_absorbs_tag_conflicts(self, lut):
        """With two tags cycling per set, a 2-way cache hits where the
        direct-mapped one thrashes."""
        dm_geometry = CacheGeometry(8 * 1024, 16)
        sa_geometry = CacheGeometry(8 * 1024, 16, ways=2)
        dm_trace = looping_trace(dm_geometry, hot_sets=64)
        sa_trace = looping_trace(sa_geometry, hot_sets=64)
        dm = ReferenceSimulator(
            ArchitectureConfig(dm_geometry, num_banks=4, policy="static"), lut
        ).run(dm_trace)
        sa = ReferenceSimulator(
            ArchitectureConfig(sa_geometry, num_banks=4, policy="static"), lut
        ).run(sa_trace)
        assert sa.hit_rate > dm.hit_rate

    def test_fast_engine_accepts_set_associative(self, lut):
        """Regression: the fast engine used to raise ConfigurationError
        for ways != 1; it now simulates those geometries exactly."""
        geometry = CacheGeometry(8 * 1024, 16, ways=2)
        config = ArchitectureConfig(geometry, num_banks=4)
        trace = make_random_trace(seed=1, length=200)
        fast = simulate(config, trace, lut, engine="fast")
        reference = ReferenceSimulator(config, lut).run(trace)
        assert fast.cache_stats.hits == reference.cache_stats.hits
        assert fast.bank_stats == reference.bank_stats

    def test_simulate_dispatches_consistently(self, lut):
        """Every engine name the dispatcher accepts must agree on a
        set-associative config."""
        geometry = CacheGeometry(8 * 1024, 16, ways=2)
        config = ArchitectureConfig(geometry, num_banks=4)
        trace = make_random_trace(seed=2, length=200)
        reference = ReferenceSimulator(config, lut).run(trace)
        for engine in ("auto", "fast", "reference"):
            result = simulate(config, trace, lut, engine=engine)
            assert result.cache_stats.hits == reference.cache_stats.hits
            assert result.bank_stats == reference.bank_stats
