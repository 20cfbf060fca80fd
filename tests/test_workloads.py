"""Tests for schedules, walkers, benchmark profiles and the generator."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.power.idleness import stats_from_access_cycles
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import BENCHMARK_NAMES, PROFILES, BenchmarkProfile, profile_for
from repro.trace.schedule import NUM_REGIONS, ActivitySchedule, ScheduleParams
from repro.trace.stream import stream_to_trace
from repro.trace.synthetic import RegionWalker, make_walkers


def loop_window_arrays(generator, profile):
    """The per-window, per-region synthesis loop the block synthesis
    replaced, kept as the oracle. It draws the schedule, the walkers and
    the turnover flags in the generator's order, then fills each busy
    window: accesses every ``max(1, stride // n)`` cycles, handed to the
    window's ``n`` busy regions round-robin; each region first takes a
    fresh tag generation when its turnover flag is set, then continues
    its strided loop over its working lines. Yields one
    ``(cycles, addresses)`` pair per busy window."""
    rng_schedule = generator.streams.get(f"schedule/{profile.name}")
    rng_walk = generator.streams.get(f"walk/{profile.name}")
    schedule = ActivitySchedule(
        profile.schedule_params(), generator.num_windows, rng_schedule
    )
    walkers = make_walkers(
        NUM_REGIONS, generator.region_sets, profile.working_fraction, rng_walk
    )
    position = [walker.position for walker in walkers]
    generation = [0] * NUM_REGIONS
    stride = profile.access_stride_cycles
    offset_bits = generator.geometry.offset_bits
    index_bits = generator.geometry.index_bits
    turnover = rng_walk.random(int(schedule.busy.sum())) < profile.tag_turnover
    pair_counter = 0
    for window in range(generator.num_windows):
        busy_regions = np.nonzero(schedule.busy[window])[0]
        n_busy = int(busy_regions.size)
        if n_busy == 0:
            continue
        eff_stride = max(1, stride // n_busy)
        cycles = window * generator.window_cycles + np.arange(
            0, generator.window_cycles, eff_stride, dtype=np.int64
        )
        slots = np.arange(cycles.size) % n_busy
        addresses = np.empty(cycles.size, dtype=np.int64)
        for j, region in enumerate(busy_regions.tolist()):
            walker = walkers[region]
            if turnover[pair_counter]:
                generation[region] += 1
            pair_counter += 1
            positions = np.nonzero(slots == j)[0]
            steps = position[region] + walker.stride * np.arange(
                positions.size, dtype=np.int64
            )
            position[region] = (
                position[region] + walker.stride * positions.size
            ) % walker.working_lines
            sets = region * generator.region_sets + steps % walker.working_lines
            addresses[positions] = (
                np.int64(generation[region]) << (offset_bits + index_bits)
            ) | (sets << offset_bits)
        yield cycles, addresses


def oracle_arrays(generator, profile):
    """The oracle's whole access stream as ``(cycles, addresses)``."""
    pieces = list(loop_window_arrays(generator, profile))
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return tuple(np.concatenate(part) for part in zip(*pieces))


def trace_sha256(trace) -> str:
    return hashlib.sha256(trace.cycles.tobytes() + trace.addresses.tobytes()).hexdigest()


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
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=0, working_lines=1)
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=8, working_lines=9)
        with pytest.raises(ConfigurationError):
            RegionWalker(region_lines=8, working_lines=4, stride=0)

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

    def test_offsets_stay_in_each_regions_working_set(self):
        geometry, generator = self.make()
        trace = generator.generate(profile_for("dijkstra"))
        sets = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
        working = max(1, round(generator.region_sets * profile_for("dijkstra").working_fraction))
        assert np.all(sets % generator.region_sets < working)

    def test_each_region_walks_its_whole_working_set(self):
        """Odd walk strides are coprime with a power-of-two working set,
        so a region busy for one window visits every working line."""
        geometry, generator = self.make()
        profile = BenchmarkProfile("halves", (0.3, 0.5, 0.7, 0.1), working_fraction=0.5)
        trace = generator.generate(profile)
        sets = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
        for region in np.unique(sets // generator.region_sets):
            touched = np.unique(sets[sets // generator.region_sets == region])
            assert touched.size == generator.region_sets // 2


FUZZ_IDLENESS = (0.3, 0.5, 0.2, 0.1)


def fuzz_profile(**overrides) -> BenchmarkProfile:
    return BenchmarkProfile("fuzz", FUZZ_IDLENESS, **overrides)


def assert_matches_oracle(generator, profile, chunk_cycles):
    """``generate()`` and the chunked stream both equal the loop oracle."""
    cycles, addresses = oracle_arrays(generator, profile)
    trace = generator.generate(profile)
    assert np.array_equal(trace.cycles, cycles)
    assert np.array_equal(trace.addresses, addresses)
    streamed = stream_to_trace(generator.stream(profile, chunk_cycles))
    assert np.array_equal(streamed.cycles, cycles)
    assert np.array_equal(streamed.addresses, addresses)
    assert streamed.horizon == trace.horizon == generator.horizon


@st.composite
def synthesis_cases(draw):
    """A generator, a profile and a chunk size for the oracle property."""
    window_cycles = draw(st.integers(64, 300))
    geometry = CacheGeometry(
        draw(st.sampled_from([16, 64, 256])) * 16 * 4, 16, draw(st.sampled_from([1, 4]))
    )
    generator = WorkloadGenerator(
        geometry,
        num_windows=draw(st.integers(10, 24)),
        window_cycles=window_cycles,
        master_seed=draw(st.integers(0, 2**16)),
    )
    unit = st.floats(0.0, 1.0)
    profile = BenchmarkProfile(
        "fuzz",
        tuple(draw(unit) for _ in range(4)),
        half_activity=draw(st.floats(0.05, 1.0)),
        quarter_activity=draw(st.floats(0.05, 1.0)),
        working_fraction=draw(st.floats(0.01, 1.0)),
        tag_turnover=draw(st.sampled_from([0.0, 1.0, 0.04, 0.5])),
        access_stride_cycles=draw(
            st.one_of(st.integers(1, 20), st.integers(window_cycles - 2, 3 * window_cycles))
        ),
    )
    chunk_cycles = draw(
        st.one_of(
            st.sampled_from([1, 97, 777]),
            st.integers(window_cycles + 1, 40 * window_cycles),
            st.integers(1, 8).map(lambda m: m * window_cycles),
        )
    )
    return generator, profile, chunk_cycles


class TestBlockSynthesis:
    """The block-vectorized synthesis against the per-window loop."""

    #: sha256 of ``cycles.tobytes() + addresses.tobytes()`` and access
    #: counts of the 240-window traces the grid-memory benchmark sweeps.
    PINS = {
        ("dijkstra", 1, 2011): (
            179840, "383fda319ec92e4217ae81b55dd21f7fa1a743713924a665e5580a41405b17cf"
        ),
        ("adpcm.dec", 1, 2011): (
            124672, "a2254f5f124279f83635705a298146756d6ddbfda49bf5d8f9c374b43fae6e9c"
        ),
        ("sha", 4, 2011): (
            127872, "3f93a0a64e7c61914b85566bf763dbacb16f6daaeef6be2bb45ef3604db65911"
        ),
        ("dijkstra", 1, 7919): (
            173184, "a675c436978d6dc79239d7de18d5d12971e8075267d9dfc3450d491c6bb7fb1f"
        ),
        ("adpcm.dec", 1, 7919): (
            122240, "c2e5bc15ed7fb9d8f000f7d8c12d2f3d5b85bc9c2e37a036b249a372c9852977"
        ),
        ("sha", 4, 7919): (
            118016, "ac08b654407c373511a4f7dfe19b17ba3796d6c459d25773c2f45be9cc78533a"
        ),
    }

    @pytest.mark.parametrize("name, ways, seed", sorted(PINS))
    def test_pinned_traces(self, name, ways, seed):
        geometry = CacheGeometry(16 * 1024, 16, ways)
        generator = WorkloadGenerator(geometry, num_windows=240, master_seed=seed)
        trace = generator.generate(profile_for(name))
        assert (len(trace), trace_sha256(trace)) == self.PINS[name, ways, seed]
        assert_matches_oracle(generator, profile_for(name), 32768)

    @pytest.mark.parametrize(
        "window_cycles, size_bytes, profile, chunk_cycles",
        [
            # stride < n_busy: an effective stride of one cycle.
            (128, 16 * 1024, fuzz_profile(access_stride_cycles=3), 97),
            # stride >= window_cycles: once stride // n_busy reaches the
            # window, later busy regions of a window get no access but
            # still take their turnover.
            (64, 16 * 1024, fuzz_profile(access_stride_cycles=64, tag_turnover=1.0), 777),
            (64, 16 * 1024, fuzz_profile(access_stride_cycles=1024, tag_turnover=1.0), 64),
            (64, 16 * 1024, fuzz_profile(access_stride_cycles=200, tag_turnover=0.5), 1),
            (256, 16 * 1024, fuzz_profile(tag_turnover=0.0), 1000),
            (256, 16 * 1024, fuzz_profile(tag_turnover=1.0), 512),
            # Sixteen sets: one line per region, so one working line.
            (128, 256, fuzz_profile(tag_turnover=0.3), 300),
            # window_cycles not a multiple of the effective stride.
            (100, 16 * 1024, fuzz_profile(access_stride_cycles=8), 1),
        ],
    )
    def test_matches_loop_oracle(self, window_cycles, size_bytes, profile, chunk_cycles):
        generator = WorkloadGenerator(
            CacheGeometry(size_bytes, 16), num_windows=30, window_cycles=window_cycles
        )
        assert_matches_oracle(generator, profile, chunk_cycles)

    def test_silent_busy_regions_still_turn_over(self):
        """With ``stride >= 16 * window_cycles`` each busy window issues
        one access, to its first busy region; the others are busy but
        silent, and their generation still advances."""
        profile = fuzz_profile(access_stride_cycles=16 * 64, tag_turnover=1.0)
        generator = WorkloadGenerator(
            CacheGeometry(16 * 1024, 16), num_windows=30, window_cycles=64
        )
        schedule = ActivitySchedule(
            profile.schedule_params(),
            generator.num_windows,
            generator.streams.get(f"schedule/{profile.name}"),
        )
        trace = generator.generate(profile)
        assert len(trace) == np.count_nonzero(schedule.busy.any(axis=1))
        assert len(trace) < schedule.busy.sum()
        self.assert_tag_counts_busy_windows(generator, schedule, trace)

    def test_full_turnover_advances_generation_every_busy_window(self):
        profile = fuzz_profile(tag_turnover=1.0)
        generator = WorkloadGenerator(CacheGeometry(16 * 1024, 16), num_windows=40)
        schedule = ActivitySchedule(
            profile.schedule_params(),
            generator.num_windows,
            generator.streams.get(f"schedule/{profile.name}"),
        )
        self.assert_tag_counts_busy_windows(generator, schedule, generator.generate(profile))

    @staticmethod
    def assert_tag_counts_busy_windows(generator, schedule, trace):
        """Under full turnover, a region's tag in a window is the number
        of windows up to that one in which the region was busy."""
        geometry = generator.geometry
        tags = trace.addresses >> (geometry.offset_bits + geometry.index_bits)
        sets = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
        windows = trace.cycles // generator.window_cycles
        busy_so_far = np.cumsum(schedule.busy, axis=0)
        assert np.array_equal(tags, busy_so_far[windows, sets // generator.region_sets])

    def test_walk_position_carries_across_pieces(self):
        """A region's walk continues where it stopped, across windows
        and across the pieces of a one-window-chunk stream."""
        profile = fuzz_profile(tag_turnover=0.0)
        generator = WorkloadGenerator(CacheGeometry(16 * 1024, 16), num_windows=40)
        walkers = make_walkers(
            NUM_REGIONS,
            generator.region_sets,
            profile.working_fraction,
            generator.streams.get(f"walk/{profile.name}"),
        )
        trace = stream_to_trace(generator.stream(profile, generator.window_cycles))
        geometry = generator.geometry
        sets = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
        regions = sets // generator.region_sets
        offsets = sets % generator.region_sets
        working = walkers[0].working_lines
        for region in np.unique(regions):
            walker = walkers[region]
            walk = offsets[regions == region]
            assert walk.size > working
            assert walk[0] == walker.position
            assert np.all((walk[1:] - walk[:-1]) % working == walker.stride % working)

    @settings(max_examples=60, deadline=None)
    @given(synthesis_cases())
    def test_property_matches_loop_oracle(self, case):
        assert_matches_oracle(*case)

    def test_stream_memory_is_o_chunk(self):
        """A full streamed pass at 16x the windows peaks higher only by
        the schedule's own bool arrays (the busy matrix and the turnover
        flags, one byte per window and region at most each)."""
        geometry = CacheGeometry(16 * 1024, 16)
        profile = profile_for("dijkstra")

        def peak(windows: int) -> int:
            stream = WorkloadGenerator(geometry, num_windows=windows).stream(profile, 32768)
            tracemalloc.start()
            try:
                for _chunk in stream.chunks():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base, large = 240, 16 * 240
        peak(base)  # lazy imports and first-use caches stay out of the peaks
        schedule_bytes = 2 * NUM_REGIONS * (large - base)
        assert peak(large) - peak(base) <= schedule_bytes + (1 << 20)
