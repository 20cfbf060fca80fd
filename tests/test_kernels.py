"""Compiled kernel backends: differential fuzz, engine wiring, parallel streams.

The load-bearing property is **bit-identity across backends**: every
kernel in :mod:`repro.kernels` must produce exactly the numpy
backend's integer counters when the on-demand C extension serves it —
including error behavior and carry-state streaming. The hypothesis
classes below pin that across banks, ways > 1, breakeven vectors
(including infinite) and one-cycle chunk alignment; the parallel
streaming class pins the grid-chunk fan-out of a stream to the serial
pass.
"""

from __future__ import annotations

import functools
import pickle
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import simulate_selected
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.engine import engine_names, get_engine, resolve_engine
from repro.core.simulator import simulate
from repro.core.streamsim import simulate_stream, stream_selected
from repro.errors import ConfigurationError, ReproWarning, SimulationError
from repro.kernels import dispatch
from repro.power.idleness import (
    StreamingGapAccumulator,
    batch_stats_from_sorted_accesses,
)
from repro.trace.stream import InMemoryTraceStream
from repro.trace.trace import Trace

COMPILED_BACKENDS = [
    name for name in dispatch.available_backends() if name != "numpy"
]

needs_compiled = pytest.mark.skipif(
    not COMPILED_BACKENDS,
    reason="no compiled kernel backend available (no C compiler)",
)


def random_trace(rng: np.random.Generator, accesses: int) -> Trace:
    gaps = rng.choice([1, 1, 1, 2, 3, 7, 25, 90], size=accesses).astype(np.int64)
    cycles = np.cumsum(gaps) - 1
    addresses = (rng.integers(0, 1 << 14, size=accesses) * 16).astype(np.int64)
    horizon = int(cycles[-1]) + 1 + int(rng.integers(0, 50))
    return Trace(cycles, addresses, horizon=horizon, name="fuzz")


# ---------------------------------------------------------------------------
# Hypothesis strategies: bank-sorted access streams and breakeven vectors.
# ---------------------------------------------------------------------------

@st.composite
def bank_streams(draw):
    """(cycles, splits, num_banks, end_cycle): a valid bank-sorted stream."""
    num_banks = draw(st.integers(min_value=1, max_value=6))
    end_cycle = draw(st.integers(min_value=1, max_value=400))
    per_bank = [
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=end_cycle - 1),
                    unique=True,
                    max_size=40,
                )
            )
        )
        for _ in range(num_banks)
    ]
    cycles = np.array(
        [c for bank in per_bank for c in bank], dtype=np.int64
    )
    splits = np.cumsum([0] + [len(bank) for bank in per_bank]).astype(np.int64)
    return cycles, splits, num_banks, end_cycle


breakeven_vectors = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    min_size=1,
    max_size=4,
)


def gap_multiset(gap_values, gap_banks):
    """Backend-independent view of a gap batch (ordering is backend-defined)."""
    return sorted(zip(gap_banks.tolist(), gap_values.tolist()))


# ---------------------------------------------------------------------------
# Differential fuzz: every compiled backend against numpy, bit-identical.
# ---------------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestKernelDifferential:
    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams())
    def test_gap_extract(self, backend, stream):
        cycles, splits, num_banks, end = stream
        ref = dispatch.gap_extract(cycles, splits, 0, end, backend="numpy")
        got = dispatch.gap_extract(cycles, splits, 0, end, backend=backend)
        assert gap_multiset(got[0], got[1]) == gap_multiset(ref[0], ref[1])
        for mine, theirs in zip(got[2:], ref[2:]):
            assert np.array_equal(mine, theirs)
            assert mine.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams(), breakevens=breakeven_vectors)
    def test_gap_threshold_batch(self, backend, stream, breakevens):
        cycles, splits, num_banks, end = stream
        values, banks, *_ = dispatch.gap_extract(
            cycles, splits, 0, end, backend="numpy"
        )
        be = np.array(
            [-1 if b is None else b for b in breakevens], dtype=np.int64
        )
        outs = {}
        for name in ("numpy", backend):
            useful = np.zeros((len(breakevens), num_banks), dtype=np.int64)
            sleep = np.zeros((len(breakevens), num_banks), dtype=np.int64)
            dispatch.gap_threshold_batch(
                values, banks, num_banks, be, useful, sleep, backend=name
            )
            outs[name] = (useful, sleep)
        assert np.array_equal(outs[backend][0], outs["numpy"][0])
        assert np.array_equal(outs[backend][1], outs["numpy"][1])

    @settings(max_examples=60, deadline=None)
    @given(
        stream=bank_streams(),
        breakevens=breakeven_vectors,
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_streaming_carry_state(self, backend, stream, breakevens, chunk):
        """Chunked accumulators agree chunk by chunk AND with the one-shot.

        ``chunk=1`` degenerates to one access per update — the
        alignment case where every gap closes against carried state.
        """
        cycles, splits, num_banks, end = stream
        accs = {
            name: StreamingGapAccumulator(num_banks, breakevens, backend=name)
            for name in ("numpy", backend)
        }
        # Re-chunk the bank-sorted stream by cycle windows of `chunk`.
        for lo in range(0, end, chunk):
            hi = min(lo + chunk, end)
            parts, counts = [], []
            for b in range(num_banks):
                mine = cycles[splits[b]:splits[b + 1]]
                window = mine[(mine >= lo) & (mine < hi)]
                parts.append(window)
                counts.append(len(window))
            chunk_cycles = np.concatenate(parts) if parts else np.empty(0, np.int64)
            chunk_splits = np.cumsum([0] + counts).astype(np.int64)
            for acc in accs.values():
                acc.update(chunk_cycles, chunk_splits)
        finals = {name: acc.finalize(end) for name, acc in accs.items()}
        assert finals[backend] == finals["numpy"]
        one_shot = batch_stats_from_sorted_accesses(
            cycles, splits, breakevens, 0, end, backend=backend
        )
        assert finals[backend] == one_shot

    @settings(max_examples=60, deadline=None)
    @given(
        tags=st.lists(st.integers(min_value=0, max_value=7), max_size=60),
        bounds=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
        ways=st.integers(min_value=1, max_value=8),
    )
    def test_lru_walk(self, backend, tags, bounds, ways):
        tag_arr = np.array(tags, dtype=np.int64)
        starts = np.array(
            sorted({0, len(tags), *[b for b in bounds if b <= len(tags)]}),
            dtype=np.int64,
        )
        ref = dispatch.lru_walk(tag_arr, starts, ways, backend="numpy")
        got = dispatch.lru_walk(tag_arr, starts, ways, backend=backend)
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])

    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=9),
                ),
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        ),
        ways=st.integers(min_value=1, max_value=4),
    )
    def test_lru_segment_carried_stacks(self, backend, segments, ways):
        """Carried (num_sets, ways) stacks advance identically per segment."""
        num_sets = 4
        stacks = {
            name: np.full((num_sets, ways), -1, dtype=np.int64)
            for name in ("numpy", backend)
        }
        for segment in segments:
            pairs = sorted((s, i) for i, (s, _) in enumerate(segment))
            idx = np.array([s for s, _ in pairs], dtype=np.int64)
            tags = np.array(
                [segment[i][1] for _, i in pairs], dtype=np.int64
            )
            hits = {
                name: dispatch.lru_segment(idx, tags, stacks[name], backend=name)
                for name in ("numpy", backend)
            }
            assert hits[backend] == hits["numpy"]
            assert np.array_equal(stacks[backend], stacks["numpy"])


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestErrorParity:
    """Invalid inputs raise SimulationError with the numpy message."""

    def _message(self, fn, *args, **kwargs):
        with pytest.raises(SimulationError) as excinfo:
            fn(*args, **kwargs)
        return str(excinfo.value)

    def test_non_monotonic(self, backend):
        cycles = np.array([5, 5], dtype=np.int64)
        splits = np.array([0, 2], dtype=np.int64)
        messages = {
            name: self._message(
                dispatch.gap_extract, cycles, splits, 0, 10, backend=name
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "strictly increasing" in messages[backend]

    def test_outside_window(self, backend):
        cycles = np.array([12], dtype=np.int64)
        splits = np.array([0, 1], dtype=np.int64)
        messages = {
            name: self._message(
                dispatch.gap_extract, cycles, splits, 0, 10, backend=name
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "observation window" in messages[backend]

    def test_not_later_than_carry(self, backend):
        messages = {}
        for name in ("numpy", backend):
            acc = StreamingGapAccumulator(1, [10], backend=name)
            acc.update(np.array([5], dtype=np.int64), np.array([0, 1], dtype=np.int64))
            with pytest.raises(SimulationError) as excinfo:
                acc.update(
                    np.array([5], dtype=np.int64), np.array([0, 1], dtype=np.int64)
                )
            messages[name] = str(excinfo.value)
        assert messages[backend] == messages["numpy"]
        assert "later than" in messages[backend]


# ---------------------------------------------------------------------------
# Backend dispatch behavior.
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_numpy_always_available(self):
        assert "numpy" in dispatch.available_backends()
        assert dispatch.backend_status()["numpy"] is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="kernel backend"):
            dispatch.gap_extract(
                np.empty(0, np.int64),
                np.array([0, 0], dtype=np.int64),
                0,
                1,
                backend="warp",
            )

    def test_use_backend_scopes_the_override(self):
        before = dispatch.active_backend()
        with dispatch.use_backend("numpy"):
            assert dispatch.active_backend() == "numpy"
        assert dispatch.active_backend() == before

    def test_env_override_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        dispatch.set_backend(None)
        try:
            assert dispatch.active_backend() == "numpy"
        finally:
            monkeypatch.delenv("REPRO_KERNELS")
            dispatch.set_backend(None)

    def test_bogus_env_override_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "warp")
        dispatch.set_backend(None)
        try:
            with pytest.raises(SimulationError, match="warp"):
                dispatch.active_backend()
        finally:
            monkeypatch.delenv("REPRO_KERNELS")
            dispatch.set_backend(None)


# ---------------------------------------------------------------------------
# The compiled engine in the registry.
# ---------------------------------------------------------------------------

@pytest.fixture()
def reached(monkeypatch):
    """Names of the backend modules every kernel call resolves to."""
    seen: set[str] = set()
    real = dispatch._resolve

    def spy(name):
        module = real(name)
        seen.add(module.NAME)
        return module

    monkeypatch.setattr(dispatch, "_resolve", spy)
    return seen


def _env_case():
    rng = np.random.default_rng(5)
    trace = random_trace(rng, 400)
    base = ArchitectureConfig(
        CacheGeometry(8 * 1024, 16, ways=2),
        num_banks=4,
        policy="probing",
        update_period_cycles=256,
    )
    return trace, base


class TestCompiledEngine:
    def test_registered_and_banked(self):
        assert "compiled" in engine_names()
        engine = get_engine("compiled")
        assert getattr(engine, "family", "banked") == "banked"

    def test_auto_priority_tracks_backend_availability(self):
        engine = get_engine("compiled")
        fast = get_engine("fast")
        if dispatch.compiled_backend():
            assert engine.priority > fast.priority
        else:
            assert engine.priority < fast.priority

    def test_fast_engine_stays_pinned_to_numpy(self, reached):
        # "fast" is the stable differential anchor: whatever backends
        # exist, it must keep meaning the pure-numpy kernels.
        assert get_engine("fast").backend == "numpy"
        trace, base = _env_case()
        simulate(base, trace, engine="fast")
        assert reached == {"numpy"}

    @needs_compiled
    def test_engine_differential_vs_fast(self):
        rng = np.random.default_rng(2011)
        for ways in (1, 2, 4):
            trace = random_trace(rng, 400)
            config = ArchitectureConfig(
                CacheGeometry(8 * 1024, 16, ways=ways),
                num_banks=4,
                policy="probing",
                update_period_cycles=256,
            )
            fast = simulate(config, trace, engine="fast")
            compiled = simulate(config, trace, engine="compiled")
            assert fast.bank_stats == compiled.bank_stats
            assert fast.cache_stats.hits == compiled.cache_stats.hits
            assert fast.cache_stats.misses == compiled.cache_stats.misses
            assert fast.updates_applied == compiled.updates_applied
            assert fast.energy_pj == compiled.energy_pj
            assert fast.lifetime_years == compiled.lifetime_years

    @needs_compiled
    def test_engine_differential_streaming(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 300)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=128,
        )
        fast = simulate_stream(
            config, InMemoryTraceStream(trace, 97), engine="fast"
        )
        compiled = simulate_stream(
            config, InMemoryTraceStream(trace, 97), engine="compiled"
        )
        assert fast.bank_stats == compiled.bank_stats
        assert fast.cache_stats.hits == compiled.cache_stats.hits


# ---------------------------------------------------------------------------
# REPRO_KERNELS pins the compiled (and so the auto) engine's kernels.
# ---------------------------------------------------------------------------

class TestKernelsEnvironment:
    def test_numpy_pin_reaches_only_numpy(self, kernels_env, reached):
        from repro.analysis.sweep import stream_sweep, sweep

        trace, base = _env_case()
        kernels_env("numpy")
        expected = "compiled" if dispatch.compiled_backend() else "fast"
        assert resolve_engine("auto", base).name == expected
        simulate(base, trace, engine="auto")
        axes = {"num_banks": [2, 4], "breakeven_override": [None, 40]}
        sweep(base, trace, axes)
        stream_sweep(base, InMemoryTraceStream(trace, 97), axes)
        assert reached == {"numpy"}

    @needs_compiled
    def test_auto_runs_the_c_backend_by_default(self, kernels_env, reached):
        trace, base = _env_case()
        kernels_env(None)
        simulate(base, trace, engine="auto")
        assert reached == {"cext"}

    def test_bogus_value_fails_the_first_simulation(self, kernels_env):
        trace, base = _env_case()
        kernels_env("bogus")
        with pytest.raises(SimulationError, match="bogus"):
            simulate(base, trace)

    def test_compiled_campaign_shares_auto_record_keys(self, tmp_path):
        from repro.campaign import CampaignSpec, TraceSpec, run_campaign
        from repro.campaign.store import CampaignStore

        trace, base = _env_case()
        stores = {}
        for engine in ("compiled", "auto"):
            spec = CampaignSpec(
                name="pin",
                traces=(TraceSpec.synthetic("sha", num_windows=30),),
                base=base,
                axes={"num_banks": [2, 4]},
                engine=engine,
            )
            assert run_campaign(spec, directory=tmp_path / engine).simulated == 2
            stores[engine] = CampaignStore(tmp_path / engine)
        assert list(stores["compiled"].keys()) == list(stores["auto"].keys())
        assert stores["compiled"].records() == stores["auto"].records()


# ---------------------------------------------------------------------------
# Parallel streaming: the grid-chunk fan-out of simulate_selected.
# ---------------------------------------------------------------------------

def _stream_case(seed=3, accesses=500):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, accesses)
    base = ArchitectureConfig(
        CacheGeometry(8 * 1024, 16, ways=2),
        num_banks=4,
        policy="probing",
        update_period_cycles=256,
    )
    names = ("breakeven_override", "num_banks")
    combos = [(10, 4), (40, 4), (None, 8)]
    return trace, base, names, combos


class TestParallelStreaming:
    """``simulate_selected(parallel=N)`` on a stream source: the grid
    splits into chunks, each worker makes one serial pass over its own
    re-opened stream, and the results equal the serial pass."""

    def assert_identical(self, serial, parallel):
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.bank_stats == p.bank_stats
            assert s.cache_stats.hits == p.cache_stats.hits
            assert s.cache_stats.misses == p.cache_stats.misses
            assert s.cache_stats.flushes == p.cache_stats.flushes
            assert s.updates_applied == p.updates_applied
            assert s.flush_invalidations == p.flush_invalidations
            assert s.energy_pj == p.energy_pj
            assert s.lifetime_years == p.lifetime_years
            assert s == p

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_is_bit_identical_to_serial(self, workers):
        trace, base, names, combos = _stream_case()
        factory = functools.partial(InMemoryTraceStream, trace, 200)
        serial = stream_selected(base, factory, names, combos)
        parallel = simulate_selected(
            base, factory, names, combos, parallel=workers
        )
        self.assert_identical(serial, parallel)

    def test_picklable_stream_instance_shards(self):
        """A picklable stream instance travels to the workers as is."""
        trace, base, names, combos = _stream_case()
        stream = InMemoryTraceStream(trace, 200)
        assert pickle.dumps(stream)
        serial = stream_selected(base, stream, names, combos)
        parallel = simulate_selected(base, stream, names, combos, parallel=2)
        self.assert_identical(serial, parallel)

    def test_chunk_split_cuts_a_breakeven_group(self):
        """Two chunks of two points cut breakeven group 0 in half; each
        worker re-batches its part of the group."""
        trace, base, names, _ = _stream_case()
        combos = [(10, 4), (40, 4), (90, 4), (None, 8)]
        group_ids = [0, 0, 0, 1]
        factory = functools.partial(InMemoryTraceStream, trace, 200)
        serial = stream_selected(base, factory, names, combos, group_ids)
        parallel = simulate_selected(
            base, factory, names, combos, group_ids, parallel=2
        )
        self.assert_identical(serial, parallel)

    def test_more_workers_than_points(self, monkeypatch):
        import repro.core.pool as pool_module

        sizes = []
        pool = pool_module.ProcessPoolExecutor

        def spy(*args, **kwargs):
            sizes.append(kwargs.get("max_workers"))
            return pool(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", spy)
        trace, base, names, combos = _stream_case()
        factory = functools.partial(InMemoryTraceStream, trace, 200)
        serial = stream_selected(base, factory, names, combos)
        parallel = simulate_selected(base, factory, names, combos, parallel=16)
        assert sizes == [len(combos)]
        self.assert_identical(serial, parallel)

    def test_unshardable_stream_warns_and_runs_serial(self):
        trace, base, names, combos = _stream_case()

        class Unpicklable(InMemoryTraceStream):
            def __init__(self, trace, chunk_cycles):
                super().__init__(trace, chunk_cycles)
                self._blocker = lambda: None

        serial = stream_selected(
            base, lambda: InMemoryTraceStream(trace, 200), names, combos
        )
        with pytest.warns(ReproWarning, match="does not pickle"):
            fell_back = simulate_selected(
                base, Unpicklable(trace, 200), names, combos, parallel=2
            )
        self.assert_identical(serial, fell_back)

    def test_local_factory_in_threaded_parent_warns_and_runs_serial(self):
        """With another thread alive the pool would spawn and have to
        pickle the factory; a local function cannot pickle, so the
        fan-out warns and runs serially before any pool starts."""
        trace, base, names, combos = _stream_case()

        def factory():
            return InMemoryTraceStream(trace, 200)

        serial = stream_selected(base, factory, names, combos)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with pytest.warns(ReproWarning, match="does not pickle"):
                fell_back = simulate_selected(
                    base, factory, names, combos, parallel=2
                )
        finally:
            release.set()
            other.join()
        self.assert_identical(serial, fell_back)

    def test_invalid_worker_count_rejected(self):
        trace, base, names, combos = _stream_case()
        with pytest.raises(ConfigurationError, match="positive worker count"):
            simulate_selected(
                base,
                lambda: InMemoryTraceStream(trace, 200),
                names,
                combos,
                parallel=0,
            )

    def test_engine_without_streaming_fails_before_any_pool(self, monkeypatch):
        import repro.core.pool as pool_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started before validation")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        trace, base, names, combos = _stream_case()
        factory = functools.partial(InMemoryTraceStream, trace, 200)
        with pytest.raises(SimulationError, match="streaming"):
            simulate_selected(
                base, factory, names, combos, engine="reference", parallel=2
            )

    def test_parallel_one_is_the_serial_pass(self):
        trace, base, names, combos = _stream_case()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproWarning)
            results = simulate_selected(
                base,
                lambda: InMemoryTraceStream(trace, 200),
                names,
                combos,
                parallel=1,
            )
        serial = stream_selected(
            base, lambda: InMemoryTraceStream(trace, 200), names, combos
        )
        self.assert_identical(serial, results)
