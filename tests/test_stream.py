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
    BankRouting,
    GapSpectrum,
    StreamingGapAccumulator,
    batch_stats_from_sorted_accesses,
)
from repro.trace.generator import WorkloadGenerator
from repro.trace.io import load_trace, save_trace
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

        accumulator = StreamingGapAccumulator(num_banks)
        pos = 0
        for size in chunk_sizes:
            lo, hi = pos, min(pos + size, n)
            pos = hi
            accumulator.update(
                BankRouting.direct(cycles[lo:hi], banks[lo:hi], num_banks)
            )
            if pos >= n:
                break
        batches = accumulator.finalize_table(horizon, breakevens).stats()
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
        accumulator = StreamingGapAccumulator(2)
        accumulator.update(BankRouting.direct([10], [0], 2))
        with pytest.raises(SimulationError):
            accumulator.update(BankRouting.direct([10], [0], 2))

    def test_rejects_access_past_finalize_window(self):
        accumulator = StreamingGapAccumulator(1)
        accumulator.update(BankRouting.direct([10], [0], 1))
        with pytest.raises(SimulationError):
            accumulator.finalize(10)

    def test_rejects_bad_breakeven(self):
        with pytest.raises(SimulationError):
            StreamingGapAccumulator(1).finalize_table(10, [0])

    def test_never_accessed_bank_idles_whole_window(self):
        accumulator = StreamingGapAccumulator(2)
        accumulator.update(BankRouting.direct([4], [0], 2))
        [stats] = accumulator.finalize_table(20, [3]).stats()
        assert stats[1].idle_cycles == 20
        assert stats[1].sleep_cycles == 17
        assert stats[0].accesses == 1

    def test_overflow_counted_as_it_goes(self, monkeypatch):
        """Long gaps are counted into the sorted overflow every few
        chunks, not held to the end; the counts are the one-shot's."""
        monkeypatch.setattr(StreamingGapAccumulator, "pending_limit", 3)
        rng = np.random.default_rng(12)
        cycles = np.sort(rng.choice(200_000, size=60, replace=False)).astype(np.int64)
        banks = rng.integers(0, 3, size=60)
        accumulator = StreamingGapAccumulator(3)
        for lo in range(0, 60, 4):
            accumulator.update(BankRouting.direct(cycles[lo:lo + 4], banks[lo:lo + 4], 3))
            assert accumulator._pending_size < 3
        streamed = accumulator.finalize(200_000)
        one_shot = GapSpectrum.scan([BankRouting.direct(cycles, banks, 3)], 3, 0, 200_000)
        assert streamed.over_counts.sum() > 3
        for field in ("accesses", "dense", "over_banks", "over_lengths", "over_counts"):
            assert np.array_equal(getattr(streamed, field), getattr(one_shot, field))

    def test_finalize_is_idempotent_for_one_window(self):
        """Cursors sharing an accumulator each finalize it."""
        accumulator = StreamingGapAccumulator(1)
        accumulator.update(BankRouting.direct([4], [0], 1))
        assert accumulator.finalize(20) is accumulator.finalize(20)
        with pytest.raises(SimulationError, match="already finalized"):
            accumulator.finalize(21)
        with pytest.raises(SimulationError, match="already finalized"):
            accumulator.update(BankRouting.direct([30], [0], 1))


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
        """Both equal the per-window loop oracle, whatever the chunking."""
        from tests.test_workloads import oracle_arrays

        geometry = CacheGeometry(8 * 1024, 16)
        generator = WorkloadGenerator(geometry, num_windows=25, master_seed=13)
        profile = profile_for("adpcm.dec")
        cycles, addresses = oracle_arrays(generator, profile)
        trace = generator.generate(profile)
        assert np.array_equal(trace.cycles, cycles)
        assert np.array_equal(trace.addresses, addresses)
        for chunk_cycles in (1, 97, 100, 777, 1024, 5000, 32768):
            rebuilt = stream_to_trace(generator.stream(profile, chunk_cycles))
            assert np.array_equal(rebuilt.cycles, cycles)
            assert np.array_equal(rebuilt.addresses, addresses)
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


def _load_streamed(path):
    return stream_to_trace(open_trace_stream(path, 4))


@pytest.mark.parametrize(
    "read",
    [
        pytest.param(load_trace, id="load_trace"),
        pytest.param(_load_streamed, id="stream"),
    ],
)
class TestTextParser:
    """Both ``.trc`` readers share one parser: the same accepted files,
    and a :class:`TraceError` naming ``path:line`` for a bad line."""

    @pytest.mark.parametrize(
        "body, line, message",
        [
            pytest.param("# horizon: abc\n3 0x10\n", 1, "not an integer", id="horizon"),
            pytest.param("# horizon: -4\n", 1, "non-negative", id="negative-horizon"),
            pytest.param("3 0x10\n-1 0x20\n", 2, "non-negative", id="negative-cycle"),
            pytest.param("-1 0x20\n", 1, "non-negative", id="negative-first-cycle"),
            pytest.param("3 -0x10\n", 1, "non-negative", id="negative-address"),
            pytest.param(
                "5 0x10\n\n5 0x20\n", 3, r"strictly increasing \(5 after 5\)",
                id="repeated-cycle",
            ),
            pytest.param("1 2 3\n", 1, "expected", id="three-fields"),
            pytest.param("abc 0x10\n", 1, "invalid literal", id="non-numeric"),
        ],
    )
    def test_bad_line_names_path_and_line(self, read, tmp_path, body, line, message):
        path = tmp_path / "bad.trc"
        path.write_text(body)
        with pytest.raises(TraceError, match=message) as excinfo:
            read(path)
        assert str(excinfo.value).startswith(f"{path}:{line}: ")

    def test_horizon_shorter_than_last_access(self, read, tmp_path):
        path = tmp_path / "short.trc"
        path.write_text("# horizon: 5\n9 0x10\n")
        with pytest.raises(TraceError, match="shorter than the last access"):
            read(path)

    def test_headers_anywhere_and_last_wins(self, read, tmp_path):
        path = tmp_path / "odd.trc"
        path.write_text(
            "# name: first\n3 0x10\n# horizon: 40\n# name: second\n9 0x20\n"
        )
        trace = read(path)
        assert trace.name == "second"
        assert trace.horizon == 40
        assert list(trace) == [(3, 0x10), (9, 0x20)]

    def test_empty_file(self, read, tmp_path):
        path = tmp_path / "empty.trc"
        path.write_text("# horizon: 7\n")
        trace = read(path)
        assert len(trace) == 0 and trace.horizon == 7


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
