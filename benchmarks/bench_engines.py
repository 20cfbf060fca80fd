"""Engine benchmarks: fast vs reference throughput, and scaling.

Not a paper table — this is the reproduction's own engineering bench.
It demonstrates the vectorized engine is fast enough for full-suite
sweeps (it processes hundreds of thousands of accesses per call) and
pins the exact-agreement contract while timing.
"""

from __future__ import annotations

import time

import pytest

from repro.aging.lut import LifetimeLUT
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import ReferenceSimulator, simulate
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for


def make_workload(ways: int):
    geometry = CacheGeometry(16 * 1024, 16, ways=ways)
    trace = WorkloadGenerator(geometry, num_windows=300).generate(
        profile_for("dijkstra")
    )
    config = ArchitectureConfig(
        geometry,
        num_banks=4,
        policy="probing",
        update_period_cycles=trace.horizon // 16,
    )
    return config, trace, LifetimeLUT.default()


@pytest.fixture(scope="module")
def workload():
    return make_workload(ways=1)


@pytest.fixture(scope="module")
def setassoc_workload():
    return make_workload(ways=4)


def test_fast_engine_throughput(benchmark, workload):
    config, trace, lut = workload
    result = benchmark(lambda: simulate(config, trace, lut, engine="fast"))
    print(f"\nfast engine: {len(trace):,} accesses -> "
          f"lifetime {result.lifetime_years:.2f}y")
    assert result.total_accesses == len(trace)


def test_reference_engine_throughput(benchmark, workload):
    config, trace, lut = workload
    short = trace.slice(0, trace.horizon // 10)
    result = benchmark.pedantic(
        lambda: ReferenceSimulator(config, lut).run(short), rounds=2, iterations=1
    )
    assert result.total_accesses == len(short)


def test_engines_agree_while_timed(workload):
    config, trace, lut = workload
    short = trace.slice(0, trace.horizon // 10)
    fast = simulate(config, short, lut, engine="fast")
    reference = ReferenceSimulator(config, lut).run(short)
    assert fast.bank_stats == reference.bank_stats
    assert fast.cache_stats.hits == reference.cache_stats.hits


def test_setassoc_fast_engine_throughput(benchmark, setassoc_workload):
    config, trace, lut = setassoc_workload
    result = benchmark(lambda: simulate(config, trace, lut, engine="fast"))
    print(f"\n4-way fast engine: {len(trace):,} accesses -> "
          f"lifetime {result.lifetime_years:.2f}y")
    assert result.total_accesses == len(trace)


def test_setassoc_speedup_over_reference(setassoc_workload):
    """The acceptance point for the set-associative fast path: >= 10x
    over the reference engine on a 4-way geometry, with bit-identical
    measurements."""
    config, trace, lut = setassoc_workload
    start = time.perf_counter()
    fast = simulate(config, trace, lut, engine="fast")
    fast_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reference = ReferenceSimulator(config, lut).run(trace)
    reference_seconds = time.perf_counter() - start
    speedup = reference_seconds / fast_seconds
    print(f"\n4-way, {len(trace):,} accesses: fast {fast_seconds:.3f}s, "
          f"reference {reference_seconds:.3f}s -> {speedup:.1f}x")
    assert fast.cache_stats.hits == reference.cache_stats.hits
    assert fast.cache_stats.misses == reference.cache_stats.misses
    assert fast.flush_invalidations == reference.flush_invalidations
    assert fast.bank_stats == reference.bank_stats
    assert fast.energy_pj == reference.energy_pj
    assert fast.lifetime_years == reference.lifetime_years
    assert speedup >= 10.0


def test_trace_generation_throughput(benchmark):
    geometry = CacheGeometry(16 * 1024, 16)
    generator = WorkloadGenerator(geometry, num_windows=300)
    trace = benchmark(lambda: generator.generate(profile_for("lame")))
    assert len(trace) > 10_000
