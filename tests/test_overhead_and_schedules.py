"""Tests for the hardware overhead model and irregular update schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import ReferenceSimulator, simulate
from repro.errors import ConfigurationError
from repro.hw.overhead import (
    block_control_cost,
    estimate_overhead,
    one_hot_encoder_cost,
    remap_cost,
)
from repro.indexing.update import UpdateSchedule, poisson_flush_schedule
from tests.conftest import make_random_trace

GEOMETRY = CacheGeometry(16 * 1024, 16)


class TestOneHotCost:
    def test_depth_is_one_gate(self):
        """The paper: the encoder's critical path is a single gate."""
        for banks in (2, 4, 8, 16):
            _, depth = one_hot_encoder_cost(banks)
            assert depth == 1

    def test_cost_grows_with_banks(self):
        costs = [one_hot_encoder_cost(m)[0] for m in (2, 4, 8, 16)]
        assert costs == sorted(costs)

    def test_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            one_hot_encoder_cost(3)


class TestRemapCost:
    def test_static_is_free(self):
        assert remap_cost("static", 4) == (0.0, 0)

    def test_scrambling_is_single_gate_deep(self):
        _, depth = remap_cost("scrambling", 4)
        assert depth == 1

    def test_probing_depth_is_adder_width(self):
        _, depth = remap_cost("probing", 3)
        assert depth == 3

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            remap_cost("rotate", 2)


class TestOverheadReport:
    def test_total_is_tiny_vs_sram_macro(self):
        """A 16kB SRAM macro is ~100k µm² at 45nm; the additions must be
        well under 1% of that."""
        config = ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing", update_period_cycles=1
        )
        report = estimate_overhead(config)
        assert report.area_um2 < 1000.0
        assert report.total_ge > 0

    def test_critical_path_few_gates(self):
        """Access-path depth stays in the 'negligible' regime the paper
        claims (encoder 1 gate + p-bit remap)."""
        for policy, bound in (("probing", 5), ("scrambling", 2)):
            config = ArchitectureConfig(
                GEOMETRY, num_banks=8, policy=policy, update_period_cycles=1
            )
            assert estimate_overhead(config).critical_path_gates <= bound

    def test_control_cost_scales_with_banks(self):
        small = block_control_cost(2, 20)
        large = block_control_cost(16, 20)
        assert large == pytest.approx(8 * small)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            block_control_cost(0, 20)


class TestExplicitSchedules:
    def test_from_events_fires_in_order(self):
        schedule = UpdateSchedule.from_events([10, 40, 45])
        fired = [cycle for cycle in range(50) if schedule.due(cycle)]
        assert fired == [10, 40, 45]

    def test_drains_multiple_overdue(self):
        schedule = UpdateSchedule.from_events([10, 20, 30])
        count = 0
        while schedule.due(100):
            count += 1
        assert count == 3

    def test_updates_before(self):
        schedule = UpdateSchedule.from_events([10, 20, 30])
        assert schedule.updates_before(25) == 2
        schedule.due(15)  # consumes the event at 10
        assert schedule.updates_before(25) == 1

    def test_boundaries_up_to(self):
        schedule = UpdateSchedule.from_events([10, 20, 30])
        assert schedule.boundaries_up_to(22).tolist() == [10, 20]

    def test_rejects_bad_events(self):
        with pytest.raises(ConfigurationError):
            UpdateSchedule.from_events([10, 10])
        with pytest.raises(ConfigurationError):
            UpdateSchedule.from_events([-1, 4])

    def test_periodic_boundaries_unchanged(self):
        schedule = UpdateSchedule(100)
        assert schedule.boundaries_up_to(350).tolist() == [100, 200, 300]


class TestPoissonFlushSchedule:
    def test_events_valid_and_within_horizon(self):
        rng = np.random.default_rng(5)
        events = poisson_flush_schedule(100_000, 5_000, rng)
        assert all(0 < c < 100_000 for c in events)
        assert all(b > a for a, b in zip(events, events[1:]))

    def test_mean_interval_roughly_respected(self):
        rng = np.random.default_rng(6)
        events = poisson_flush_schedule(1_000_000, 10_000, rng)
        assert 60 <= len(events) <= 150  # ~100 expected

    def test_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigurationError):
            poisson_flush_schedule(0, 10, rng)
        with pytest.raises(ConfigurationError):
            poisson_flush_schedule(100, 0, rng)


class TestEnginesWithIrregularSchedules:
    def test_engines_agree_on_poisson_updates(self, lut):
        trace = make_random_trace(seed=31, length=1200)
        events = poisson_flush_schedule(
            trace.horizon, trace.horizon // 12, np.random.default_rng(8)
        )
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_events=events,
        )
        fast = simulate(config, trace, lut, engine="fast")
        reference = ReferenceSimulator(config, lut).run(trace)
        assert fast.bank_stats == reference.bank_stats
        assert fast.cache_stats.hits == reference.cache_stats.hits
        assert fast.updates_applied == reference.updates_applied
        assert fast.flush_invalidations == reference.flush_invalidations

    def test_irregular_updates_still_balance(self, lut):
        """Uniformization does not require regular spacing — the count
        matters. Probing with ~24 Poisson updates balances idleness."""
        from repro.trace.generator import WorkloadGenerator
        from repro.trace.mediabench import profile_for

        geometry = CacheGeometry(16 * 1024, 16)
        trace = WorkloadGenerator(geometry, num_windows=400).generate(
            profile_for("adpcm.dec")
        )
        events = poisson_flush_schedule(
            trace.horizon, trace.horizon // 24, np.random.default_rng(9)
        )
        config = ArchitectureConfig(
            geometry, num_banks=4, policy="probing", update_events=events
        )
        result = simulate(config, trace, lut, engine="fast")
        static = simulate(
            ArchitectureConfig(geometry, num_banks=4, policy="static"),
            trace,
            lut,
            engine="fast",
        )
        spread = max(result.bank_idleness) - min(result.bank_idleness)
        static_spread = max(static.bank_idleness) - min(static.bank_idleness)
        # Epoch lengths are now random, so the time-weighted balance is
        # noisier than with periodic updates — but still a large
        # improvement over no re-indexing.
        assert spread < 0.4 * static_spread

    def test_config_validates_events(self):
        with pytest.raises(ConfigurationError):
            ArchitectureConfig(
                GEOMETRY, num_banks=4, policy="probing", update_events=(5, 5)
            )
