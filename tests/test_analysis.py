"""Tests for the sweep framework and Pareto extraction."""

from __future__ import annotations

import itertools
import pickle
import threading

import pytest

from repro.analysis.pareto import pareto_front
from repro.analysis.planner import breakeven_group_ids
from repro.analysis.sweep import _chunk_payloads, search_sweep, stream_sweep, sweep
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.errors import ConfigurationError
from repro.trace.stream import InMemoryTraceStream
from tests.conftest import make_random_trace


@pytest.fixture(scope="module")
def base_and_trace():
    geometry = CacheGeometry(8 * 1024, 16)
    base = ArchitectureConfig(
        geometry, num_banks=4, policy="probing", update_period_cycles=8000
    )
    return base, make_random_trace(seed=17, length=1500)


class TestSweep:
    def test_cartesian_product_size(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [2, 4, 8], "policy": ["static", "probing"]}, lut)
        assert len(result) == 6

    def test_where_filters(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [2, 4], "policy": ["static", "probing"]}, lut)
        static_only = result.where(policy="static")
        assert len(static_only) == 2
        assert all(p.parameters["policy"] == "static" for p in static_only)

    def test_series_sorted(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [8, 2, 4]}, lut)
        series = result.series("num_banks", "lifetime_years")
        assert [m for m, _ in series] == [2, 4, 8]

    def test_best_point(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [2, 4, 8]}, lut)
        best = result.best("lifetime_years")
        assert best.value("lifetime_years") == max(
            p.value("lifetime_years") for p in result
        )

    def test_best_minimize(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [2, 4, 8]}, lut)
        worst = result.best("energy_pj", maximize=False)
        assert worst.value("energy_pj") == min(p.value("energy_pj") for p in result)
        assert worst.value("energy_pj") <= result.best("energy_pj").value("energy_pj")

    def test_where_chained_constraints(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(
            base,
            trace,
            {"num_banks": [2, 4], "policy": ["static", "probing"],
             "breakeven_override": [None, 50]},
            lut,
        )
        chained = result.where(policy="probing").where(num_banks=4)
        assert len(chained) == 2
        assert all(
            p.parameters["policy"] == "probing" and p.parameters["num_banks"] == 4
            for p in chained
        )
        # Chaining is identical to one multi-constraint call, and a
        # contradictory chain empties cleanly.
        combined = result.where(policy="probing", num_banks=4)
        assert [p.parameters for p in chained] == [p.parameters for p in combined]
        assert len(chained.where(breakeven_override=50).where(policy="static")) == 0

    def test_rejects_unknown_axis(self, base_and_trace, lut):
        base, trace = base_and_trace
        with pytest.raises(ConfigurationError):
            sweep(base, trace, {"volume": [1]}, lut)

    def test_rejects_empty_axes(self, base_and_trace, lut):
        base, trace = base_and_trace
        with pytest.raises(ConfigurationError):
            sweep(base, trace, {}, lut)
        # An axis with no values is an empty grid, never a silent no-op.
        empty = {"num_banks": []}
        with pytest.raises(ConfigurationError, match="'num_banks' has no values"):
            sweep(base, trace, empty, lut)
        with pytest.raises(ConfigurationError, match="'num_banks' has no values"):
            stream_sweep(base, InMemoryTraceStream(trace, 4096), empty, lut)
        with pytest.raises(ConfigurationError, match="'num_banks' has no values"):
            search_sweep(base, trace, empty, lut=lut)

    def test_empty_best_rejected(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [4]}, lut).where(num_banks=2)
        with pytest.raises(ConfigurationError):
            result.best("lifetime_years")

    def test_geometry_axis_mixing_associativities(self, base_and_trace, lut):
        """Regression: sweep() used to hardcode FastSimulator, so a
        geometry axis containing a set-associative config raised
        ConfigurationError instead of simulating."""
        from dataclasses import replace

        from repro.core.simulator import ReferenceSimulator

        base, trace = base_and_trace
        axes = {
            "geometry": [
                CacheGeometry(8 * 1024, 16),
                CacheGeometry(8 * 1024, 16, ways=4),
            ]
        }
        result = sweep(base, trace, axes, lut)
        assert len(result) == 2
        for point in result:
            config = replace(base, **point.parameters)
            reference = ReferenceSimulator(config, lut).run(trace)
            assert point.result.cache_stats.hits == reference.cache_stats.hits
            assert point.result.bank_stats == reference.bank_stats

    def test_series_with_none_mixed_axis(self, base_and_trace, lut):
        """Regression: series() crashed with TypeError when an axis
        mixed None and numbers (static-vs-dynamic sweeps)."""
        base, trace = base_and_trace
        result = sweep(base, trace, {"update_period_cycles": [50000, None, 8000]}, lut)
        series = result.series("update_period_cycles", "lifetime_years")
        assert [value for value, _ in series] == [None, 8000, 50000]

    def test_engine_parameter_forwarded(self, base_and_trace, lut):
        base, trace = base_and_trace
        fast = sweep(base, trace, {"num_banks": [2, 4]}, lut, engine="fast")
        reference = sweep(base, trace, {"num_banks": [2, 4]}, lut, engine="reference")
        for a, b in zip(fast, reference):
            assert a.parameters == b.parameters
            assert a.result.cache_stats.hits == b.result.cache_stats.hits
            assert a.result.lifetime_years == b.result.lifetime_years

    def test_rejects_bad_parallel(self, base_and_trace, lut):
        base, trace = base_and_trace
        with pytest.raises(ConfigurationError):
            sweep(base, trace, {"num_banks": [2]}, lut, parallel=0)

    def test_rejects_unknown_engine_on_grouped_path(self, base_and_trace, lut):
        """Regression: the breakeven-grouped fast path used to bypass
        simulate()'s engine-name check, silently accepting typos."""
        base, trace = base_and_trace
        with pytest.raises(ValueError):
            sweep(base, trace, {"breakeven_override": [5, 50]}, lut, engine="refrence")
        with pytest.raises(ValueError):
            sweep(base, trace, {"num_banks": [2]}, lut, engine="warp")


class TestPlanSweep:
    """The shared trace-plan fast path must stay invisible in results."""

    def test_breakeven_axis_matches_reference_engine(self, base_and_trace, lut):
        base, trace = base_and_trace
        axes = {
            "num_banks": [2, 4],
            "policy": ["static", "probing"],
            "breakeven_override": [None, 5, 60, 700],
        }
        fast = sweep(base, trace, axes, lut)
        reference = sweep(base, trace, axes, lut, engine="reference")
        assert len(fast) == 16
        for a, b in zip(fast, reference):
            assert a.parameters == b.parameters
            assert a.result.cache_stats.hits == b.result.cache_stats.hits
            assert a.result.cache_stats.flushes == b.result.cache_stats.flushes
            assert a.result.flush_invalidations == b.result.flush_invalidations
            assert a.result.bank_stats == b.result.bank_stats
            assert a.result.energy_pj == pytest.approx(b.result.energy_pj, rel=1e-12)
            assert a.result.lifetime_years == pytest.approx(
                b.result.lifetime_years, rel=1e-12
            )

    def test_breakeven_group_ids(self):
        axes = {"num_banks": [2, 4], "breakeven_override": [1, 2, 3]}
        ids = breakeven_group_ids(list(axes), axes)
        assert ids == [0, 0, 0, 3, 3, 3]
        assert breakeven_group_ids(["num_banks"], {"num_banks": [2, 4]}) is None

    def test_chunk_payloads_exclude_trace(self, base_and_trace):
        """The parallel fan-out must not re-pickle the trace per chunk:
        payloads carry only the base config and parameter combos."""
        base, trace = base_and_trace
        axes = {"num_banks": [2, 4, 8], "breakeven_override": [10, 100]}
        names = list(axes)
        combos = list(itertools.product(*(axes[name] for name in names)))
        payloads = _chunk_payloads(
            base, names, combos, breakeven_group_ids(names, axes), "auto", 3
        )
        assert sum(len(p[2]) for p in payloads) == len(combos)
        trace_bytes = len(pickle.dumps(trace))
        for payload in payloads:
            payload_bytes = len(pickle.dumps(payload))
            assert payload_bytes < 2048
            assert payload_bytes < trace_bytes / 10


class TestParallelSweep:
    def test_matches_serial_in_order_and_values(self, base_and_trace, lut):
        base, trace = base_and_trace
        axes = {"num_banks": [2, 4, 8], "policy": ["static", "probing"]}
        serial = sweep(base, trace, axes, lut)
        parallel = sweep(base, trace, axes, lut, parallel=3)
        assert [p.parameters for p in serial] == [p.parameters for p in parallel]
        for a, b in zip(serial, parallel):
            assert a.result.cache_stats.hits == b.result.cache_stats.hits
            assert a.result.energy_pj == b.result.energy_pj
            assert a.result.lifetime_years == b.result.lifetime_years

    def test_more_workers_than_points(self, base_and_trace, lut):
        base, trace = base_and_trace
        result = sweep(base, trace, {"num_banks": [2, 4]}, lut, parallel=16)
        assert len(result) == 2

    def test_parallel_with_breakeven_axis(self, base_and_trace, lut):
        """Breakeven grouping composes with the process fan-out (groups
        split across chunk boundaries are simply re-batched per chunk)."""
        base, trace = base_and_trace
        axes = {"breakeven_override": [5, 60, 700], "num_banks": [2, 4]}
        serial = sweep(base, trace, axes, lut)
        parallel = sweep(base, trace, axes, lut, parallel=2)
        assert [p.parameters for p in serial] == [p.parameters for p in parallel]
        for a, b in zip(serial, parallel):
            assert a.result.bank_stats == b.result.bank_stats
            assert a.result.energy_pj == b.result.energy_pj
            assert a.result.lifetime_years == b.result.lifetime_years


class TestWorkerPool:
    def test_pools_spawn_while_other_threads_run(
        self, base_and_trace, lut, monkeypatch
    ):
        """The one grid-chunk fan-out starts its pool through the shared
        pool helper for a trace and a stream alike: with another thread
        alive it spawns (a forked child would inherit whatever locks
        that thread holds), and the results equal the serial run's."""
        import functools

        import repro.core.pool as pool_module
        from repro.analysis.sweep import simulate_selected

        contexts = []
        pool = pool_module.ProcessPoolExecutor

        def spy(*args, **kwargs):
            contexts.append(kwargs.get("mp_context"))
            return pool(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", spy)
        base, trace = base_and_trace
        axes = {"num_banks": [2, 4], "breakeven_override": [5, 700]}
        names = list(axes)
        combos = list(itertools.product(*axes.values()))
        group_ids = breakeven_group_ids(names, axes)
        stream = InMemoryTraceStream(trace, 4096)
        factory = functools.partial(InMemoryTraceStream, trace, 4096)
        serial = simulate_selected(base, trace, names, combos, group_ids, lut)
        streamed = simulate_selected(base, stream, names, combos, group_ids, lut)
        assert streamed == serial
        assert contexts == []
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            chunked = simulate_selected(
                base, trace, names, combos, group_ids, lut, parallel=2
            )
            from_instance = simulate_selected(
                base, stream, names, combos, group_ids, lut, parallel=2
            )
            from_factory = simulate_selected(
                base, factory, names, combos, group_ids, lut, parallel=3
            )
        finally:
            release.set()
            other.join()
        assert [c.get_start_method() for c in contexts] == ["spawn"] * 3
        assert chunked == serial
        assert from_instance == serial
        assert from_factory == serial


class TestPareto:
    def test_single_dominant_point(self):
        points = [(1, 5), (2, 4), (2, 5), (0, 0)]
        front = pareto_front(points, [lambda p: p[0], lambda p: p[1]])
        assert front == [(2, 5)]

    def test_true_frontier(self):
        points = [(1, 5), (3, 3), (5, 1), (2, 2)]
        front = pareto_front(points, [lambda p: p[0], lambda p: p[1]])
        assert set(front) == {(1, 5), (3, 3), (5, 1)}

    def test_minimization_direction(self):
        points = [(1, 5), (3, 3), (5, 1)]
        front = pareto_front(
            points, [lambda p: p[0], lambda p: p[1]], maximize=[True, False]
        )
        assert front == [(5, 1)]

    def test_empty_input(self):
        assert pareto_front([], [lambda p: p]) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pareto_front([(1,)], [])
        with pytest.raises(ConfigurationError):
            pareto_front([(1,)], [lambda p: p[0]], maximize=[True, False])

    def test_on_sweep_results(self, base_and_trace, lut):
        """The headline story as a frontier: re-indexed points dominate
        static ones at equal bank counts."""
        base, trace = base_and_trace
        result = sweep(
            base, trace, {"num_banks": [2, 4, 8], "policy": ["static", "probing"]}, lut
        )
        front = pareto_front(
            list(result),
            [lambda p: p.value("energy_savings"), lambda p: p.value("lifetime_years")],
        )
        assert all(p.parameters["policy"] == "probing" for p in front)
