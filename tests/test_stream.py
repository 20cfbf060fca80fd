"""Streaming (out-of-core) trace pipeline tests.

The load-bearing property here is **bit-identity**: a streamed
simulation — any chunk size, any chunk/epoch alignment — must produce
exactly the per-bank counters, cache stats and derived fields of the
one-shot engines. The fuzz classes below drive that across banks,
ways, policies, breakevens and adversarial chunkings (size 1, chunk
boundaries exactly on update boundaries, chunks bigger than the trace).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis.sweep import stream_sweep, sweep
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.plan import StreamingPlan
from repro.core.simulator import simulate
from repro.core.streamsim import simulate_stream, stream_selected
from repro.errors import SimulationError, TraceError
from repro.power.idleness import (
    StreamingGapAccumulator,
    batch_stats_from_sorted_accesses,
)
from repro.trace.generator import WorkloadGenerator
from repro.trace.io import save_trace
from repro.trace.mediabench import profile_for
from repro.trace.stream import (
    InMemoryTraceStream,
    MmapTraceStream,
    TraceChunk,
    chunk_trace,
    open_trace_stream,
    save_trace_mmap,
    stream_to_trace,
)
from repro.trace.trace import Trace


def random_trace(rng: np.random.Generator, accesses: int, horizon_slack: int = 50) -> Trace:
    """A random valid trace with clustered gaps (some exceeding breakeven)."""
    gaps = rng.choice([1, 1, 1, 2, 3, 7, 25, 90], size=accesses).astype(np.int64)
    cycles = np.cumsum(gaps) - 1
    addresses = (rng.integers(0, 1 << 14, size=accesses) * 16).astype(np.int64)
    horizon = int(cycles[-1]) + 1 + int(rng.integers(0, horizon_slack))
    return Trace(cycles, addresses, horizon=horizon, name="fuzz")


def assert_results_identical(one, streamed, context=""):
    assert one.bank_stats == streamed.bank_stats, context
    # Field-wise: the reference oracle returns a BankedCacheStats
    # subclass whose dataclass equality is stricter than the counters.
    assert one.cache_stats.hits == streamed.cache_stats.hits, context
    assert one.cache_stats.misses == streamed.cache_stats.misses, context
    assert one.cache_stats.flushes == streamed.cache_stats.flushes, context
    assert one.updates_applied == streamed.updates_applied, context
    assert one.flush_invalidations == streamed.flush_invalidations, context
    assert one.energy_pj == streamed.energy_pj, context
    assert one.baseline_energy_pj == streamed.baseline_energy_pj, context
    assert one.lifetime_years == streamed.lifetime_years, context
    assert one.total_cycles == streamed.total_cycles, context


class TestChunking:
    def test_chunks_partition_the_trace(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 300)
        chunks = list(chunk_trace(trace, 64))
        total = sum(len(c) for c in chunks)
        assert total == len(trace)
        rebuilt = np.concatenate([c.cycles for c in chunks])
        assert np.array_equal(rebuilt, trace.cycles)
        for chunk in chunks:
            assert chunk.start_cycle % 64 == 0
            assert chunk.end_cycle == chunk.start_cycle + 64
            assert chunk.cycles[0] >= chunk.start_cycle
            assert chunk.cycles[-1] < chunk.end_cycle
            assert len(chunk) > 0  # empty windows are skipped

    def test_chunk_size_one(self):
        trace = Trace(np.array([0, 3, 4]), np.array([0, 16, 32]))
        chunks = list(chunk_trace(trace, 1))
        assert [c.start_cycle for c in chunks] == [0, 3, 4]
        assert all(len(c) == 1 for c in chunks)

    def test_chunk_bigger_than_trace(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 50)
        chunks = list(chunk_trace(trace, 10 ** 9))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0].cycles, trace.cycles)

    def test_chunk_cycles_validated(self):
        trace = Trace(np.array([0]), np.array([0]))
        with pytest.raises(TraceError):
            list(chunk_trace(trace, 0))

    def test_stream_to_trace_round_trip(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 200)
        rebuilt = stream_to_trace(InMemoryTraceStream(trace, 33))
        assert np.array_equal(rebuilt.cycles, trace.cycles)
        assert np.array_equal(rebuilt.addresses, trace.addresses)
        assert rebuilt.horizon == trace.horizon
        assert rebuilt.name == trace.name

    def test_chunk_rejects_out_of_window_accesses(self):
        from repro.trace.stream import _validated_chunk

        with pytest.raises(TraceError):
            _validated_chunk(np.array([5]), np.array([0]), 0, 5)
        with pytest.raises(TraceError):
            _validated_chunk(np.array([3, 3]), np.array([0, 0]), 0, 5)


class TestStreamingGapAccumulator:
    def equivalence(self, seed, num_banks, breakevens, chunk_sizes):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 120))
        cycles = np.sort(rng.choice(2000, size=n, replace=False)).astype(np.int64)
        banks = rng.integers(0, num_banks, size=n).astype(np.int64)
        horizon = 2000 + int(rng.integers(0, 10))
        order = np.argsort(banks, kind="stable")
        splits = np.searchsorted(banks[order], np.arange(num_banks + 1))
        expected = batch_stats_from_sorted_accesses(
            cycles[order], splits, [b for b in breakevens if b is not None], 0, horizon
        )

        accumulator = StreamingGapAccumulator(num_banks, breakevens)
        pos = 0
        for size in chunk_sizes:
            lo, hi = pos, min(pos + size, n)
            pos = hi
            chunk_cycles = cycles[lo:hi]
            chunk_banks = banks[lo:hi]
            chunk_order = np.argsort(chunk_banks, kind="stable")
            chunk_splits = np.searchsorted(
                chunk_banks[chunk_order], np.arange(num_banks + 1)
            )
            accumulator.update(chunk_cycles[chunk_order], chunk_splits)
            if pos >= n:
                break
        batches = accumulator.finalize(horizon)
        finite = [s for b, s in zip(breakevens, batches) if b is not None]
        assert finite == expected
        # Infinite (None) thresholds never sleep but share every other counter.
        for b, stats in zip(breakevens, batches):
            if b is None:
                for bank_stats, finite_stats in zip(stats, batches[0]):
                    assert bank_stats.sleep_cycles == 0
                    assert bank_stats.useful_intervals == 0
                    assert bank_stats.idle_cycles == finite_stats.idle_cycles

    def test_fuzz_against_one_shot_kernel(self):
        rng = np.random.default_rng(99)
        for seed in range(40):
            num_banks = int(rng.choice([1, 2, 4, 8]))
            breakevens = [int(rng.integers(1, 200)), 1, None]
            sizes = [int(rng.integers(1, 40)) for _ in range(200)]
            self.equivalence(seed, num_banks, breakevens, sizes)

    def test_rejects_time_travel(self):
        accumulator = StreamingGapAccumulator(2, [5])
        accumulator.update(np.array([10]), np.array([0, 1, 1]))
        with pytest.raises(SimulationError):
            accumulator.update(np.array([10]), np.array([0, 1, 1]))

    def test_rejects_access_past_finalize_window(self):
        accumulator = StreamingGapAccumulator(1, [5])
        accumulator.update(np.array([10]), np.array([0, 1]))
        with pytest.raises(SimulationError):
            accumulator.finalize(10)

    def test_rejects_bad_breakeven(self):
        with pytest.raises(SimulationError):
            StreamingGapAccumulator(1, [0])

    def test_never_accessed_bank_idles_whole_window(self):
        accumulator = StreamingGapAccumulator(2, [3])
        accumulator.update(np.array([4]), np.array([0, 1, 1]))
        [stats] = accumulator.finalize(20)
        assert stats[1].idle_cycles == 20
        assert stats[1].sleep_cycles == 17
        assert stats[0].accesses == 1


def fuzz_configs(rng) -> ArchitectureConfig:
    ways = int(rng.choice([1, 1, 1, 2, 4]))
    geometry = CacheGeometry(8 * 1024, 16, ways=ways)
    num_banks = int(rng.choice([1, 2, 4, 8]))
    policy = "static" if num_banks == 1 else str(rng.choice(["static", "probing", "scrambling"]))
    kwargs = {}
    if policy != "static":
        if rng.random() < 0.3:
            events = np.sort(rng.choice(np.arange(1, 1900), size=3, replace=False))
            kwargs["update_events"] = tuple(int(e) for e in events)
        else:
            kwargs["update_period_cycles"] = int(rng.choice([64, 100, 333, 1000]))
    if rng.random() < 0.3:
        kwargs["breakeven_override"] = int(rng.integers(1, 80))
    if rng.random() < 0.2:
        kwargs["power_managed"] = False
    return ArchitectureConfig(geometry, num_banks=num_banks, policy=policy, **kwargs)


class TestStreamedEngineBitIdentity:
    """The acceptance-criterion fuzz: streamed == one-shot, exactly."""

    def test_fuzz_random_configs_and_chunkings(self):
        rng = np.random.default_rng(2011)
        for round_ in range(25):
            trace = random_trace(rng, int(rng.integers(1, 400)))
            config = fuzz_configs(rng)
            chunk_cycles = int(rng.choice([1, 7, 64, 100, 1024, 10 ** 7]))
            one = simulate(config, trace, engine="fast")
            streamed = simulate_stream(config, InMemoryTraceStream(trace, chunk_cycles))
            assert_results_identical(
                one, streamed, context=(round_, config, chunk_cycles)
            )

    def test_chunk_boundary_exactly_on_update_boundary(self):
        # Updates every 256 cycles, chunks of 256 cycles: every epoch
        # boundary coincides with a chunk boundary.
        rng = np.random.default_rng(5)
        trace = random_trace(rng, 300)
        geometry = CacheGeometry(8 * 1024, 16)
        for policy in ("probing", "scrambling"):
            config = ArchitectureConfig(
                geometry, num_banks=4, policy=policy, update_period_cycles=256
            )
            one = simulate(config, trace, engine="fast")
            streamed = simulate_stream(config, InMemoryTraceStream(trace, 256))
            assert_results_identical(one, streamed, context=policy)

    def test_chunk_boundary_exactly_on_update_events(self):
        rng = np.random.default_rng(6)
        trace = random_trace(rng, 300)
        geometry = CacheGeometry(8 * 1024, 16)
        # Events on exact multiples of the chunk size, plus one off-grid.
        config = ArchitectureConfig(
            geometry,
            num_banks=4,
            policy="probing",
            update_events=(128, 256, 300, 512),
        )
        one = simulate(config, trace, engine="fast")
        streamed = simulate_stream(config, InMemoryTraceStream(trace, 128))
        assert_results_identical(one, streamed)

    def test_streamed_matches_reference_oracle(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 200)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=300,
        )
        oracle = simulate(config, trace, engine="reference")
        streamed = simulate_stream(config, InMemoryTraceStream(trace, 97))
        assert_results_identical(oracle, streamed)

    def test_set_associative_carry_across_chunks(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 400)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=4),
            num_banks=2,
            policy="probing",
            update_period_cycles=500,
        )
        one = simulate(config, trace, engine="fast")
        for chunk_cycles in (1, 13, 500, 501):
            streamed = simulate_stream(config, InMemoryTraceStream(trace, chunk_cycles))
            assert_results_identical(one, streamed, context=chunk_cycles)

    def test_empty_trace_stream(self):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=500)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        one = simulate(config, trace, engine="fast")
        streamed = simulate_stream(config, InMemoryTraceStream(trace, 64))
        assert_results_identical(one, streamed)

    def test_breakeven_group_single_pass(self):
        rng = np.random.default_rng(9)
        trace = random_trace(rng, 250)
        geometry = CacheGeometry(8 * 1024, 16)
        base = ArchitectureConfig(
            geometry, num_banks=4, policy="probing", update_period_cycles=400
        )
        from dataclasses import replace

        breakevens = (1, 5, 40, None)
        configs = [replace(base, breakeven_override=b) for b in breakevens]
        streamed = stream_selected(
            base,
            InMemoryTraceStream(trace, 77),
            ["breakeven_override"],
            [(b,) for b in breakevens],
            group_ids=[0] * len(breakevens),
        )
        for config, result in zip(configs, streamed):
            one = simulate(config, trace, engine="fast")
            assert_results_identical(one, result, context=config.breakeven_override)

    def test_engine_without_capability_fails_loudly(self):
        trace = Trace(np.array([0, 5]), np.array([0, 16]))
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=2,
                                    policy="probing", update_period_cycles=4)
        with pytest.raises(SimulationError, match="streaming"):
            simulate_stream(config, InMemoryTraceStream(trace, 4), engine="reference")


class TestStreamSweep:
    def test_grid_bit_identical_to_sweep(self):
        geometry = CacheGeometry(8 * 1024, 16)
        generator = WorkloadGenerator(geometry, num_windows=30, master_seed=11)
        profile = profile_for("sha")
        trace = generator.generate(profile)
        base = ArchitectureConfig(
            geometry, num_banks=4, policy="probing",
            update_period_cycles=trace.horizon // 8,
        )
        axes = {
            "num_banks": [2, 4],
            "policy": ["static", "probing"],
            "breakeven_override": [5, 40, None],
        }
        in_memory = sweep(base, trace, axes)
        streamed = stream_sweep(base, generator.stream(profile, 1500), axes)
        assert len(in_memory) == len(streamed)
        for a, b in zip(in_memory, streamed):
            assert a.parameters == b.parameters
            assert_results_identical(a.result, b.result, context=a.parameters)

    @pytest.mark.parametrize("parallel", [None, 2], ids=["serial", "chunked"])
    def test_narrow_bank_ids_route_like_sweep(self, parallel):
        """The fold sorts uint8 (2 banks) and uint16 (512 banks) bank ids;
        ``parallel=2`` runs it in two workers, one grid chunk each."""
        geometry = CacheGeometry(16 * 1024, 16)
        trace = random_trace(np.random.default_rng(29), 3000)
        base = ArchitectureConfig(
            geometry, num_banks=2, policy="probing",
            update_period_cycles=trace.horizon // 8,
        )
        axes = {
            "num_banks": [2, 512],
            "policy": ["static", "probing", "scrambling"],
            "breakeven_override": [5, None],
        }
        in_memory = sweep(base, trace, axes)
        streamed = stream_sweep(
            base, InMemoryTraceStream(trace, 256), axes, parallel=parallel
        )
        assert len(in_memory) == len(streamed) == 12
        for a, b in zip(in_memory, streamed):
            assert a.parameters == b.parameters
            assert_results_identical(a.result, b.result, context=a.parameters)

    def test_synthetic_stream_bit_identical_to_generate(self):
        geometry = CacheGeometry(8 * 1024, 16)
        generator = WorkloadGenerator(geometry, num_windows=25, master_seed=13)
        profile = profile_for("adpcm.dec")
        trace = generator.generate(profile)
        for chunk_cycles in (100, 1024, 5000):
            rebuilt = stream_to_trace(generator.stream(profile, chunk_cycles))
            assert np.array_equal(rebuilt.cycles, trace.cycles)
            assert np.array_equal(rebuilt.addresses, trace.addresses)
            assert rebuilt.horizon == trace.horizon

    def test_repeated_passes_identical(self):
        geometry = CacheGeometry(8 * 1024, 16)
        generator = WorkloadGenerator(geometry, num_windows=20, master_seed=17)
        stream = generator.stream(profile_for("sha"), 777)
        first = stream_to_trace(stream)
        second = stream_to_trace(stream)
        assert np.array_equal(first.cycles, second.cycles)
        assert np.array_equal(first.addresses, second.addresses)


class TestFileStreams:
    def make_trace(self, seed=21, accesses=250):
        return random_trace(np.random.default_rng(seed), accesses)

    def test_text_stream_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "t.trc"
        save_trace(trace, path)
        stream = open_trace_stream(path, 120)
        assert stream.horizon == trace.horizon  # header declares it up front
        rebuilt = stream_to_trace(stream)
        assert np.array_equal(rebuilt.cycles, trace.cycles)
        assert np.array_equal(rebuilt.addresses, trace.addresses)
        assert rebuilt.horizon == trace.horizon

    def test_text_stream_without_header_resolves_horizon_at_eof(self, tmp_path):
        path = tmp_path / "h.trc"
        path.write_text("3 0x10\n9 0x20\n")
        stream = open_trace_stream(path, 4)
        assert stream.horizon is None
        rebuilt = stream_to_trace(stream)
        assert stream.horizon == 10
        assert rebuilt.horizon == 10

    def test_text_stream_late_name_header_matches_load_trace(self, tmp_path):
        from repro.trace.io import load_trace

        path = tmp_path / "late.trc"
        path.write_text("3 0x10\n# name: late\n9 0x20\n")
        stream = open_trace_stream(path, 4)
        assert load_trace(path).name == "late"
        assert stream_to_trace(stream).name == "late"

    def test_load_trace_reads_mmap_directory(self, tmp_path):
        from repro.trace.io import load_trace

        trace = self.make_trace(25)
        directory = tmp_path / "t.mmap"
        save_trace_mmap(trace, directory)
        loaded = load_trace(directory)
        assert np.array_equal(loaded.cycles, trace.cycles)
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert loaded.horizon == trace.horizon and loaded.name == trace.name
        plain = tmp_path / "not-a-trace-dir"
        plain.mkdir()
        with pytest.raises(TraceError):
            load_trace(plain)

    def test_text_stream_rejects_non_monotonic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("5 0x10\n5 0x20\n")
        with pytest.raises(TraceError):
            list(open_trace_stream(path, 4).chunks())

    def test_npz_stream_round_trip(self, tmp_path):
        trace = self.make_trace(22)
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        stream = open_trace_stream(os.fspath(path), 90)
        assert stream.horizon == trace.horizon
        rebuilt = stream_to_trace(stream)
        assert np.array_equal(rebuilt.cycles, trace.cycles)
        assert rebuilt.name == trace.name

    def test_mmap_stream_round_trip(self, tmp_path):
        trace = self.make_trace(23)
        directory = tmp_path / "t.mmap"
        save_trace_mmap(trace, directory)
        stream = open_trace_stream(directory, 64)
        assert isinstance(stream, MmapTraceStream)
        assert stream.horizon == trace.horizon
        assert stream.accesses == len(trace)
        rebuilt = stream_to_trace(stream)
        assert np.array_equal(rebuilt.cycles, trace.cycles)
        assert np.array_equal(rebuilt.addresses, trace.addresses)

    def test_mmap_meta_write_is_atomic(self, tmp_path, monkeypatch):
        # A crash mid-rewrite (simulated by making the final os.replace
        # fail) must leave the previous meta.json fully intact — never
        # a truncated file that poisons every later open (REPRO003).
        import repro.core.serialize as serialize

        trace = self.make_trace(21)
        directory = tmp_path / "t.mmap"
        save_trace_mmap(trace, directory)
        before = (directory / "meta.json").read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash between temp write and publish")

        # Rewrite the same trace: the interesting part is the crash,
        # and the arrays (written before meta) stay consistent.
        monkeypatch.setattr(serialize.os, "replace", crash)
        with pytest.raises(OSError):
            save_trace_mmap(trace, directory)
        monkeypatch.undo()
        assert (directory / "meta.json").read_bytes() == before
        # No half-written temp file left behind to confuse the reader.
        assert [p.name for p in directory.glob("meta.json.*")] == []
        loaded = stream_to_trace(open_trace_stream(directory, 64))
        assert loaded.horizon == trace.horizon and loaded.name == trace.name

    def test_mmap_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "meta.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(TraceError):
            open_trace_stream(tmp_path, 64)

    def test_plain_directory_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            open_trace_stream(tmp_path, 64)

    def test_streamed_simulation_from_file(self, tmp_path):
        trace = self.make_trace(24)
        path = tmp_path / "t.trc"
        save_trace(trace, path)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16), num_banks=4, policy="probing",
            update_period_cycles=200,
        )
        one = simulate(config, trace, engine="fast")
        streamed = simulate_stream(config, open_trace_stream(path, 150))
        assert_results_identical(one, streamed)


class TestStreamingPlanSharing:
    def test_decode_and_epochs_computed_once_per_chunk(self):
        rng = np.random.default_rng(30)
        trace = random_trace(rng, 100)
        plan = StreamingPlan()
        calls = []
        for chunk in chunk_trace(trace, 256):
            plan.begin_chunk(chunk)
            first = plan.decode(4, 9)
            again = plan.decode(4, 9)
            assert first[0] is again[0]  # memoized within the chunk
            calls.append(first)
        # Chunk-keyed sections are invalidated between chunks.
        assert len({id(c[0]) for c in calls}) == len(calls)

    def test_campaign_chunked_spec_matches_unchunked(self, tmp_path):
        from repro.campaign import CampaignSpec, run_campaign

        trace = random_trace(np.random.default_rng(31), 200)
        trace_path = tmp_path / "t.trc"
        save_trace(trace, trace_path)
        payload = {
            "name": "stream-equivalence",
            "traces": [{"kind": "file", "params": {"path": os.fspath(trace_path)}}],
            "base": {
                "geometry": {"size_bytes": 8192, "line_size": 16},
                "num_banks": 4,
                "policy": "probing",
                "update_period_cycles": 300,
            },
            "axes": {"num_banks": [2, 4], "policy": ["static", "probing"]},
        }
        unchunked = run_campaign(
            CampaignSpec.from_dict(payload), directory=tmp_path / "a"
        )
        payload["traces"][0]["params"]["chunk_cycles"] = 77
        chunked_spec = CampaignSpec.from_dict(payload)
        chunked = run_campaign(chunked_spec, directory=tmp_path / "b")
        assert chunked.simulated == len(chunked.points)
        for a, b in zip(unchunked.points, chunked.points):
            # Hash-neutral chunking: same store identities, same counters.
            assert a.trace_hash == b.trace_hash
            assert a.config_hash == b.config_hash
            assert_results_identical(
                a.record.to_result(), b.record.to_result(), context=a.parameters
            )
        # And the chunked spec resumes the unchunked store with zero work.
        resumed = run_campaign(chunked_spec, directory=tmp_path / "a")
        assert resumed.simulated == 0

    def test_chunked_spec_round_trips_and_default_stays_out_of_dict(self):
        from repro.campaign.tracespec import TraceSpec

        spec = TraceSpec.from_file("/tmp/x.trc")
        assert "chunk_cycles" not in spec.to_dict()["params"]
        chunked = TraceSpec(
            kind="file", params={"path": "/tmp/x.trc", "chunk_cycles": 64}
        )
        assert chunked.to_dict()["params"]["chunk_cycles"] == 64
        assert TraceSpec.from_dict(chunked.to_dict()) == chunked
        assert chunked.trace_hash() == spec.trace_hash()
