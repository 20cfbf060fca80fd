"""Compiled kernel backends: differential fuzz, engine wiring, parallel streams.

The load-bearing property is **bit-identity across backends**: every
kernel in :mod:`repro.kernels` must produce exactly the numpy
backend's integer counters when the on-demand C extension serves it —
including error behavior and carry-state streaming. The hypothesis
classes below pin that across banks, ways > 1, breakeven vectors
(including infinite) and one-cycle chunk alignment, switching the
process-wide backend with ``dispatch.use_backend``; the gap spectrum
and the cache scan are also held to the sort-based gap extraction and
hit counting they replaced, kept here as the oracles. The parallel streaming class pins the grid-chunk
fan-out of a stream to the serial pass.
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
    BankRouting,
    GapSpectrum,
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


@st.composite
def cache_runs(draw):
    """``(num_sets, ways, index, tag, updates, cuts)``: arrival-order
    accesses, the positions updates fire before (repeats make empty
    epochs; ``len(index)`` flushes after the last access), and chunk
    cuts from 0 to ``len(index)`` (repeats make empty chunks)."""
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    num_sets = draw(st.integers(min_value=1, max_value=4))
    accesses = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_sets - 1),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=80,
        )
    )
    n = len(accesses)
    index = np.array([s for s, _ in accesses], dtype=np.int64)
    tag = np.array([t for _, t in accesses], dtype=np.int64)
    positions = st.lists(st.integers(min_value=0, max_value=n), max_size=5)
    updates = sorted(draw(positions))
    cuts = [0, *sorted(draw(positions)), n]
    return num_sets, ways, index, tag, updates, cuts


def sorted_cache_scan(index, tag, starts, stacks):
    """The sort-based hit counting the cache scan replaced, kept as the
    oracle. Each epoch segment is stably sorted by set, so every set's
    accesses are contiguous and in arrival order. A direct-mapped set
    hits on an adjacent equal tag, its first access comparing against
    the carried line; a set-associative one walks its carried LRU stack.
    Before each epoch after the first, the valid lines are counted and
    the stacks cleared. Returns ``(hits, flushed)``; ``stacks``
    advances in place."""
    hits = flushed = 0
    ways = stacks.shape[1]
    for epoch in range(starts.size - 1):
        if epoch > 0:
            flushed += int(np.count_nonzero(stacks != -1))
            stacks[:] = -1
        lo, hi = int(starts[epoch]), int(starts[epoch + 1])
        if lo == hi:
            continue
        order = np.argsort(index[lo:hi], kind="stable")
        idx, tags = index[lo:hi][order], tag[lo:hi][order]
        if ways == 1:
            first = np.ones(idx.size, dtype=bool)
            first[1:] = idx[1:] != idx[:-1]
            hits += int(np.count_nonzero(~first[1:] & (tags[1:] == tags[:-1])))
            hits += int(np.count_nonzero(stacks[idx[first], 0] == tags[first]))
            last = np.append(first[1:], True)
            stacks[idx[last], 0] = tags[last]
            continue
        for s, t in zip(idx.tolist(), tags.tolist()):
            row = stacks[s].tolist()
            if t in row:
                hits += 1
                row.remove(t)
            else:
                row.pop()
            stacks[s] = [t, *row]
    return hits, flushed


def on_backend(name, kernel, *args):
    """``kernel(*args)`` with the process-wide backend pinned to ``name``."""
    with dispatch.use_backend(name):
        return kernel(*args)


def sorted_gap_extraction(cycles, splits, start_cycle, end_cycle):
    """The sort-based extraction the spectrum replaced: every positive
    idle gap of a bank-sorted stream as sorted ``(bank, length)`` pairs
    (leading, interior, trailing, and a never-accessed bank's window)."""
    pairs = []
    for bank in range(splits.size - 1):
        mine = cycles[splits[bank]:splits[bank + 1]].tolist()
        edges = [start_cycle - 1, *mine, end_cycle]
        pairs += [(bank, b - a - 1) for a, b in zip(edges, edges[1:]) if b - a - 1 > 0]
    return sorted(pairs)


def spectrum_multiset(spectrum):
    """The spectrum's gaps as sorted ``(bank, length)`` pairs."""
    pairs = []
    for bank, length in zip(*np.nonzero(spectrum.dense)):
        pairs += [(int(bank), int(length))] * int(spectrum.dense[bank, length])
    for bank, length, count in zip(
        spectrum.over_banks.tolist(),
        spectrum.over_lengths.tolist(),
        spectrum.over_counts.tolist(),
    ):
        pairs += [(bank, length)] * count
    return sorted(pairs)


def assert_same_spectrum(mine, theirs):
    assert mine.window == theirs.window
    for field in ("accesses", "dense", "over_banks", "over_lengths", "over_counts"):
        assert np.array_equal(getattr(mine, field), getattr(theirs, field)), field
        assert getattr(mine, field).dtype == np.int64, field


def sorted_routing(cycles, splits):
    """A bank-sorted stream as one direct routing."""
    num_banks = splits.size - 1
    banks = np.repeat(np.arange(num_banks), np.diff(splits))
    return BankRouting.direct(cycles, banks, num_banks)


# ---------------------------------------------------------------------------
# Differential fuzz: every compiled backend against numpy, bit-identical.
# ---------------------------------------------------------------------------

@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestKernelDifferential:
    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams())
    def test_gap_extract(self, backend, stream):
        """The one-shot scan fills the same spectrum on both backends,
        and its gaps are the sort-based extraction's."""
        cycles, splits, num_banks, end = stream
        spectra = {
            name: on_backend(
                name, GapSpectrum.scan, [sorted_routing(cycles, splits)], num_banks, 0, end
            )
            for name in ("numpy", backend)
        }
        assert_same_spectrum(spectra[backend], spectra["numpy"])
        assert spectrum_multiset(spectra[backend]) == sorted_gap_extraction(
            cycles, splits, 0, end
        )
        assert np.array_equal(spectra[backend].accesses, np.diff(splits))

    @settings(max_examples=60, deadline=None)
    @given(stream=bank_streams(), breakevens=breakeven_vectors)
    def test_gap_threshold_batch(self, backend, stream, breakevens):
        """Thresholding the spectrum equals thresholding every extracted
        gap, on both backends."""
        cycles, splits, num_banks, end = stream
        gaps = sorted_gap_extraction(cycles, splits, 0, end)
        expected_useful = np.zeros((len(breakevens), num_banks), dtype=np.int64)
        expected_sleep = np.zeros((len(breakevens), num_banks), dtype=np.int64)
        for row, breakeven in enumerate(breakevens):
            for bank, length in gaps:
                if breakeven is not None and length > breakeven:
                    expected_useful[row, bank] += 1
                    expected_sleep[row, bank] += length - breakeven
        for name in ("numpy", backend):
            spectrum = on_backend(
                name, GapSpectrum.scan, [sorted_routing(cycles, splits)], num_banks, 0, end
            )
            table = on_backend(name, spectrum.threshold, breakevens)
            assert np.array_equal(table.useful, expected_useful)
            assert np.array_equal(table.sleep, expected_sleep)
            assert table.idle_intervals.tolist() == [
                sum(1 for bank, _ in gaps if bank == b) for b in range(num_banks)
            ]
            assert table.idle_cycles.tolist() == [
                sum(length for bank, length in gaps if bank == b) for b in range(num_banks)
            ]

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
        banks = np.repeat(np.arange(num_banks), np.diff(splits))
        order = np.argsort(cycles, kind="stable")
        arrival_cycles, arrival_banks = cycles[order], banks[order]
        accs = {
            name: StreamingGapAccumulator(num_banks)
            for name in ("numpy", backend)
        }
        # Re-chunk the stream, in arrival order, by cycle windows of `chunk`.
        for lo in range(0, end, chunk):
            inside = (arrival_cycles >= lo) & (arrival_cycles < lo + chunk)
            routing = BankRouting.direct(
                arrival_cycles[inside], arrival_banks[inside], num_banks
            )
            for name, acc in accs.items():
                on_backend(name, acc.update, routing)
                assert np.array_equal(acc._dense, accs["numpy"]._dense)
                assert np.array_equal(acc._last, accs["numpy"]._last)
        finals = {name: acc.finalize(end) for name, acc in accs.items()}
        assert_same_spectrum(finals[backend], finals["numpy"])
        one_shot = on_backend(
            backend,
            batch_stats_from_sorted_accesses,
            cycles, splits, breakevens, 0, end,
        )
        assert finals[backend].threshold(breakevens).stats() == one_shot

    @settings(max_examples=80, deadline=None)
    @given(run=cache_runs())
    def test_lru_walk(self, backend, run):
        """The one-shot walk from cold stacks: both backends count the
        sort-based oracle's hits and flushes."""
        num_sets, ways, index, tag, updates, _ = run
        starts = np.array([0, *updates, index.size], dtype=np.int64)
        expected = sorted_cache_scan(
            index, tag, starts, np.full((num_sets, ways), -1, dtype=np.int64)
        )
        for name in ("numpy", backend):
            got = on_backend(name, dispatch.lru_walk, index, tag, starts, num_sets, ways)
            assert got == expected, name

    @settings(max_examples=80, deadline=None)
    @given(run=cache_runs())
    def test_lru_segment_carried_stacks(self, backend, run):
        """Carried (num_sets, ways) stacks advance identically chunk by
        chunk on both backends and the oracle, and the chunked totals
        equal the one-shot walk's."""
        num_sets, ways, index, tag, updates, cuts = run
        stacks = {
            name: np.full((num_sets, ways), -1, dtype=np.int64)
            for name in ("oracle", "numpy", backend)
        }
        totals = {name: [0, 0] for name in stacks}
        chunks = list(zip(cuts, cuts[1:]))
        # An update fires in the chunk holding the access it precedes
        # (the last chunk for one after every access).
        owner = [
            next((k for k, (lo, hi) in enumerate(chunks) if lo <= u < hi), len(chunks) - 1)
            for u in updates
        ]
        for k, (lo, hi) in enumerate(chunks):
            mine = [u - lo for u, o in zip(updates, owner) if o == k]
            starts = np.array([0, *mine, hi - lo], dtype=np.int64)
            segment = (index[lo:hi], tag[lo:hi], starts)
            for name in stacks:
                if name == "oracle":
                    got = sorted_cache_scan(*segment, stacks[name])
                else:
                    got = on_backend(name, dispatch.lru_segment, *segment, stacks[name])
                totals[name][0] += got[0]
                totals[name][1] += got[1]
            assert np.array_equal(stacks[backend], stacks["oracle"])
            assert np.array_equal(stacks["numpy"], stacks["oracle"])
        assert totals[backend] == totals["numpy"] == totals["oracle"]
        whole = np.array([0, *updates, index.size], dtype=np.int64)
        assert tuple(totals["numpy"]) == on_backend(
            "numpy", dispatch.lru_walk, index, tag, whole, num_sets, ways
        )


@needs_compiled
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestErrorParity:
    """Invalid inputs raise SimulationError with the numpy message."""

    def _message(self, name, fn, *args):
        with pytest.raises(SimulationError) as excinfo:
            on_backend(name, fn, *args)
        return str(excinfo.value)

    def _scan(self, kernel, routing, last):
        dense = np.zeros((last.size, 4), dtype=np.int64)
        accesses = np.zeros(last.size, dtype=np.int64)
        return kernel(
            routing.cycles, routing.index, routing.starts, routing.tables,
            routing.shift, last, accesses, dense,
        )

    def test_non_monotonic(self, backend):
        routing = BankRouting.direct(np.array([5, 5]), np.array([0, 0]), 1)
        messages = {
            name: self._message(
                name, self._scan, dispatch.gap_extract, routing, np.full(1, -1)
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "strictly increasing" in messages[backend]

    def test_outside_window(self, backend):
        """Before the window: the one-shot scan starts every bank busy at
        ``start_cycle - 1``. After it: closing the trailing gaps."""
        before = BankRouting.direct(np.array([3]), np.array([0]), 1)
        after = BankRouting.direct(np.array([12]), np.array([0]), 1)
        for routing, start in ((before, 5), (after, 0)):
            messages = {
                name: self._message(name, GapSpectrum.scan, [routing], 1, start, 10)
                for name in ("numpy", backend)
            }
            assert messages[backend] == messages["numpy"]
            assert "observation window" in messages[backend]

    def test_first_violation_in_arrival_order_wins(self, backend):
        """Bank 1 repeats a cycle after bank 0 went back before its
        carried last access: both backends report bank 0's error."""
        routing = BankRouting.direct(
            np.array([7, 2, 9, 9]), np.array([1, 0, 1, 1]), 2
        )
        messages = {
            name: self._message(
                name, self._scan, dispatch.stream_gap_update, routing,
                np.array([4, -1], dtype=np.int64),
            )
            for name in ("numpy", backend)
        }
        assert messages[backend] == messages["numpy"]
        assert "later than" in messages[backend]

    def test_index_or_bank_outside_the_tables(self, backend):
        """The scan's gather stays in bounds: an index past the tables, a
        negative one, or a table entry past the tracked banks raises,
        unless a gap violation comes first in arrival order."""
        cases = [
            (np.array([[0, 1, 5]], dtype=np.uint8), [0, 1, 2], [1, 2, 3], "outside"),
            (np.array([[0, 1, 2]], dtype=np.uint8), [0, 7, 1], [1, 2, 3], "outside"),
            (np.array([[0, 1, 2]], dtype=np.uint8), [0, -1, 1], [1, 2, 3], "outside"),
            (np.array([[0, 1, 2]], dtype=np.uint8), [0, 0, 9], [1, 1, 3], "strictly"),
        ]
        for tables, index, cycles, expected in cases:
            routing = BankRouting(
                np.array(cycles), np.array(index), np.array([0, 3]), tables
            )
            messages = {
                name: self._message(
                    name, self._scan, dispatch.stream_gap_update, routing, np.full(4, -1)
                )
                for name in ("numpy", backend)
            }
            assert messages[backend] == messages["numpy"]
            assert expected in messages[backend]

    def test_set_index_outside_the_stacks(self, backend):
        """An index past the sets, or a negative one, raises the same
        error on both backends and writes nothing: not the stacks, not
        the memory past them."""
        for index in ([0, 1, 3], [2, -1, 0], [3]):
            messages = {}
            for name in ("numpy", backend):
                buffer = np.full(3 * 2 + 4, 7, dtype=np.int64)
                stacks = buffer[:6].reshape(3, 2)
                index_arr = np.array(index, dtype=np.int64)
                starts = np.array([0, 1, index_arr.size], dtype=np.int64)
                messages[name] = self._message(
                    name, dispatch.lru_segment, index_arr, index_arr * 0 + 5, starts, stacks
                )
                assert (buffer == 7).all(), name
            assert messages[backend] == messages["numpy"]
            assert "outside the cache's sets" in messages[backend]

    def test_not_later_than_carry(self, backend):
        messages = {}
        routing = BankRouting.direct(np.array([5]), np.array([0]), 1)
        for name in ("numpy", backend):
            acc = StreamingGapAccumulator(1)
            on_backend(name, acc.update, routing)
            messages[name] = self._message(name, acc.update, routing)
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
        before = dispatch.active_backend()
        with pytest.raises(SimulationError, match="kernel backend"):
            with dispatch.use_backend("warp"):
                pass
        assert dispatch.active_backend() == before

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

    def test_pool_workers_follow_a_pinned_backend(self):
        """A backend pinned with use_backend reaches the pool workers,
        spawned ones included (a threaded parent spawns)."""
        from repro.core.pool import worker_pool

        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with dispatch.use_backend("numpy"):
                with worker_pool(1, None) as pool:
                    seen = pool.submit(dispatch.active_backend).result()
        finally:
            release.set()
            other.join()
        assert seen == "numpy"


# ---------------------------------------------------------------------------
# The compiled engine in the registry.
# ---------------------------------------------------------------------------

@pytest.fixture()
def reached(monkeypatch):
    """Names of the backend modules every kernel call resolves to."""
    seen: set[str] = set()
    real = dispatch._impl

    def spy():
        module = real()
        seen.add(module.NAME)
        return module

    monkeypatch.setattr(dispatch, "_impl", spy)
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
        """``compiled`` is an explicit-only second name for ``fast``."""
        assert "compiled" in engine_names()
        engine = get_engine("compiled")
        assert getattr(engine, "family", "banked") == "banked"
        assert not engine.auto_eligible
        assert type(get_engine("fast")) in type(engine).__mro__

    @needs_compiled
    def test_engine_differential_vs_fast(self, reached):
        """The fast engine on the C backend equals it on numpy."""
        rng = np.random.default_rng(2011)
        for ways in (1, 2, 4):
            trace = random_trace(rng, 400)
            config = ArchitectureConfig(
                CacheGeometry(8 * 1024, 16, ways=ways),
                num_banks=4,
                policy="probing",
                update_period_cycles=256,
            )
            with dispatch.use_backend("numpy"):
                on_numpy = simulate(config, trace, engine="fast")
            with dispatch.use_backend(COMPILED_BACKENDS[0]):
                on_c = simulate(config, trace, engine="fast")
            assert on_numpy.bank_stats == on_c.bank_stats
            assert on_numpy.cache_stats.hits == on_c.cache_stats.hits
            assert on_numpy.cache_stats.misses == on_c.cache_stats.misses
            assert on_numpy.updates_applied == on_c.updates_applied
            assert on_numpy.energy_pj == on_c.energy_pj
            assert on_numpy.lifetime_years == on_c.lifetime_years
        assert reached == {"numpy", COMPILED_BACKENDS[0]}

    @needs_compiled
    def test_engine_differential_streaming(self, reached):
        """The streamed fast engine on the C backend equals it on numpy."""
        rng = np.random.default_rng(7)
        trace = random_trace(rng, 300)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=128,
        )
        with dispatch.use_backend("numpy"):
            on_numpy = simulate_stream(
                config, InMemoryTraceStream(trace, 97), engine="fast"
            )
        with dispatch.use_backend(COMPILED_BACKENDS[0]):
            on_c = simulate_stream(
                config, InMemoryTraceStream(trace, 97), engine="fast"
            )
        assert on_numpy.bank_stats == on_c.bank_stats
        assert on_numpy.cache_stats.hits == on_c.cache_stats.hits
        assert reached == {"numpy", COMPILED_BACKENDS[0]}


# ---------------------------------------------------------------------------
# REPRO_KERNELS pins the kernels of every engine.
# ---------------------------------------------------------------------------

class TestKernelsEnvironment:
    def test_numpy_pin_reaches_only_numpy(self, kernels_env, reached):
        from repro.analysis.sweep import stream_sweep, sweep

        trace, base = _env_case()
        kernels_env("numpy")
        assert resolve_engine("auto", base).name == "fast"
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
        stores, keys = {}, {}
        for engine in ("compiled", "auto"):
            spec = CampaignSpec(
                name="pin",
                traces=(TraceSpec.synthetic("sha", num_windows=30),),
                base=base,
                axes={"num_banks": [2, 4]},
                engine=engine,
            )
            spec.save(tmp_path / f"{engine}.json")  # a stored spec file still loads
            loaded = CampaignSpec.load(tmp_path / f"{engine}.json")
            keys[engine] = [point.key() for point in loaded.points()]
            assert run_campaign(loaded, directory=tmp_path / engine).simulated == 2
            stores[engine] = CampaignStore(tmp_path / engine)
        assert keys["compiled"] == keys["auto"]
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
