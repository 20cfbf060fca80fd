"""Tests for schedules, walkers, benchmark profiles and the generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.power.idleness import stats_from_access_cycles
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import BENCHMARK_NAMES, PROFILES, profile_for
from repro.trace.schedule import NUM_REGIONS, ActivitySchedule, ScheduleParams
from repro.trace.synthetic import RegionWalker, make_walkers


class TestScheduleParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScheduleParams(group_idleness=(0.5, 0.5, 0.5))  # needs 4
        with pytest.raises(ConfigurationError):
            ScheduleParams(group_idleness=(0.5, 0.5, 0.5, 1.5))
        with pytest.raises(ConfigurationError):
            ScheduleParams(group_idleness=(0.5,) * 4, half_activity=0.0)


class TestActivitySchedule:
    def make(self, idleness=(0.3, 0.5, 0.7, 0.1), windows=4000, seed=1):
        params = ScheduleParams(group_idleness=idleness)
        return ActivitySchedule(params, windows, np.random.default_rng(seed))

    def test_shape(self):
        schedule = self.make()
        assert schedule.busy.shape == (4000, NUM_REGIONS)

    def test_group_idleness_matches_targets(self):
        schedule = self.make()
        idle = schedule.bank_idle_fraction(4)
        for measured, target in zip(idle, (0.3, 0.5, 0.7, 0.1)):
            assert measured == pytest.approx(target, abs=0.03)

    def test_active_group_has_some_busy_region(self):
        """When a group is active at least one of its regions is busy
        (the construction forces one half and one quarter)."""
        schedule = self.make()
        grouped = schedule.busy.reshape(-1, 4, 4)
        # Count windows where a group's bank-level idle does not match
        # all-region idleness: impossible by construction.
        bank_busy = grouped.any(axis=2)
        assert bank_busy.mean() == pytest.approx(
            1.0 - float(np.mean(schedule.bank_idle_fraction(4))), abs=1e-9
        )

    def test_finer_banks_find_more_idleness(self):
        """The hierarchy makes idleness grow with M (Table IV's trend)."""
        schedule = self.make()
        idle2 = float(np.mean(schedule.bank_idle_fraction(2)))
        idle4 = float(np.mean(schedule.bank_idle_fraction(4)))
        idle8 = float(np.mean(schedule.bank_idle_fraction(8)))
        idle16 = float(np.mean(schedule.bank_idle_fraction(16)))
        assert idle2 < idle4 < idle8 < idle16

    def test_bank_split_must_divide_regions(self):
        with pytest.raises(ConfigurationError):
            self.make().bank_idle_fraction(3)

    def test_deterministic_for_seed(self):
        a = self.make(seed=9)
        b = self.make(seed=9)
        assert np.array_equal(a.busy, b.busy)

    def test_busy_pairs_matches_matrix(self):
        schedule = self.make(windows=50)
        pairs = schedule.busy_pairs()
        assert len(pairs) == int(schedule.busy.sum())


class TestRegionWalker:
    def test_walk_stays_in_working_set(self):
        walker = RegionWalker(region_lines=64, working_lines=16, stride=3)
        offsets = walker.walk(100)
        assert offsets.min() >= 0
        assert offsets.max() < 16

    def test_walk_covers_working_set_with_coprime_stride(self):
        walker = RegionWalker(region_lines=64, working_lines=16, stride=3)
        assert set(walker.walk(16).tolist()) == set(range(16))

    def test_position_persists_across_calls(self):
        walker = RegionWalker(region_lines=64, working_lines=8, stride=1)
        first = walker.walk(5)
        second = walker.walk(5)
        assert second[0] == (first[-1] + 1) % 8

    def test_generation_advances(self):
        walker = RegionWalker(region_lines=64, working_lines=8)
        walker.advance_generation()
        walker.advance_generation()
        assert walker.tag_generation == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=0, working_lines=1)
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=8, working_lines=9)
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=8, working_lines=4).walk(-1)

    def test_make_walkers(self):
        walkers = make_walkers(16, 64, 0.75, np.random.default_rng(0))
        assert len(walkers) == 16
        assert all(w.working_lines == 48 for w in walkers)

    def test_make_walkers_validation(self):
        with pytest.raises(ConfigurationError):
            make_walkers(16, 64, 0.0, np.random.default_rng(0))


class TestProfiles:
    def test_all_18_paper_benchmarks_present(self):
        assert len(BENCHMARK_NAMES) == 18
        assert "adpcm.dec" in PROFILES
        assert "tiff2bw" in PROFILES

    def test_table1_average(self):
        """The profile targets average to Table I's 41.71%."""
        average = np.mean([p.average_idleness for p in PROFILES.values()])
        assert average == pytest.approx(0.4171, abs=0.0005)

    def test_profile_lookup_error_is_helpful(self):
        with pytest.raises(ConfigurationError, match="adpcm.dec"):
            profile_for("nosuch")

    def test_profile_validation(self):
        from repro.trace.mediabench import BenchmarkProfile

        with pytest.raises(ConfigurationError):
            BenchmarkProfile("x", (0.5, 0.5, 0.5))  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            BenchmarkProfile("x", (0.5, 0.5, 0.5, 1.4))


class TestWorkloadGenerator:
    def make(self, size_kb=16, windows=300):
        geometry = CacheGeometry(size_kb * 1024, 16)
        return geometry, WorkloadGenerator(geometry, num_windows=windows)

    def test_trace_is_valid_and_named(self):
        _, generator = self.make()
        trace = generator.generate(profile_for("sha"))
        assert trace.name == "sha"
        assert len(trace) > 0
        assert trace.horizon == generator.num_windows * generator.window_cycles

    def test_deterministic_for_seed(self):
        geometry = CacheGeometry(16 * 1024, 16)
        a = WorkloadGenerator(geometry, num_windows=100, master_seed=5).generate(
            profile_for("lame")
        )
        b = WorkloadGenerator(geometry, num_windows=100, master_seed=5).generate(
            profile_for("lame")
        )
        assert np.array_equal(a.cycles, b.cycles)
        assert np.array_equal(a.addresses, b.addresses)

    def test_different_seeds_differ(self):
        geometry = CacheGeometry(16 * 1024, 16)
        a = WorkloadGenerator(geometry, num_windows=100, master_seed=5).generate(
            profile_for("lame")
        )
        b = WorkloadGenerator(geometry, num_windows=100, master_seed=6).generate(
            profile_for("lame")
        )
        assert not np.array_equal(a.cycles, b.cycles)

    def test_addresses_cover_all_busy_regions_only(self):
        geometry, generator = self.make()
        profile = profile_for("dijkstra")
        trace = generator.generate(profile)
        index = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
        assert index.max() < geometry.num_sets

    def test_idleness_calibration_matches_table1(self):
        """The headline property: measured 4-bank idleness ~ Table I."""
        geometry = CacheGeometry(16 * 1024, 16)
        generator = WorkloadGenerator(geometry, num_windows=1200)
        for name in ("adpcm.dec", "gsmd", "say"):
            profile = profile_for(name)
            trace = generator.generate(profile)
            index = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
            bank = index >> (geometry.index_bits - 2)
            for b in range(4):
                stats = stats_from_access_cycles(
                    trace.cycles[bank == b], 20, 0, trace.horizon
                )
                assert stats.useful_idleness == pytest.approx(
                    profile.bank_idleness[b], abs=0.05
                )

    def test_gaps_within_busy_windows_below_breakeven(self):
        """Busy regions are accessed densely enough that no bank can doze
        mid-burst (access stride << breakeven)."""
        geometry, generator = self.make()
        trace = generator.generate(profile_for("CRC32"))
        gaps = np.diff(trace.cycles)
        # The merged stream is at least as dense as one region's stride.
        assert np.median(gaps) <= profile_for("CRC32").access_stride_cycles

    def test_hit_rate_realistic(self, lut):
        """MediaBench L1 hit rates are high; the tag-generation model
        must not produce a thrashing trace."""
        from repro.core.config import ArchitectureConfig
        from repro.core.simulator import simulate

        geometry, generator = self.make()
        trace = generator.generate(profile_for("cjpeg"))
        config = ArchitectureConfig(geometry, num_banks=4, policy="static")
        result = simulate(config, trace, lut, engine="fast")
        assert result.hit_rate > 0.8

    def test_rejects_too_few_sets(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(CacheGeometry(128, 16))

    def test_rejects_tiny_schedules(self):
        geometry = CacheGeometry(16 * 1024, 16)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(geometry, num_windows=5)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(geometry, window_cycles=32)
