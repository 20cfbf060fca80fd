"""Extension experiment — coarse vs fine granularity (the paper vs [7]).

The paper positions its banked architecture as "a coarse-grain
implementation of the scheme of [7]": line-granularity dynamic indexing
achieves optimal (uniform) per-line idleness but requires modifying the
SRAM array internals. This bench measures the actual trade-off on a
shared workload:

* **lifetime**: fine-grain >= coarse-grain (per-line sleep catches far
  more idleness), with re-indexing helping both;
* **energy**: coarse-grain banking wins on dynamic energy (smaller
  accessed arrays), fine-grain only on leakage;
* **uniformity**: fine-grain re-indexing drives the per-line idleness
  spread toward zero — the paper's "all cache lines have identical
  lifetime" property of [7].
"""

from __future__ import annotations

import pytest

from repro.aging.lut import LifetimeLUT
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for


def fine_config(geometry, policy="static", period=None) -> ArchitectureConfig:
    """A fine-grain template config (the engine ignores ``num_banks``)."""
    return ArchitectureConfig(
        geometry, num_banks=2, policy=policy, update_period_cycles=period
    )


@pytest.fixture(scope="module")
def setup():
    geometry = CacheGeometry(16 * 1024, 16)
    trace = WorkloadGenerator(geometry, num_windows=500).generate(
        profile_for("adpcm.dec")
    )
    return geometry, trace, LifetimeLUT.default()


def test_granularity_comparison(benchmark, setup):
    geometry, trace, lut = setup

    def run_all():
        rows = []
        for label, banks in (("coarse M=4", 4), ("coarse M=8", 8), ("coarse M=16", 16)):
            config = ArchitectureConfig(
                geometry, num_banks=banks, policy="probing",
                update_period_cycles=trace.horizon // 16,
            )
            result = simulate(config, trace, lut)
            rows.append((label, result.lifetime_years, result.energy_savings))
        for label, policy in (("fine static [20]", "static"), ("fine probing [7]", "probing")):
            config = fine_config(
                geometry, policy, trace.horizon // 32 if policy != "static" else None
            )
            result = simulate(config, trace, lut, engine="finegrain")
            rows.append((label, result.lifetime_years, result.energy_savings))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(f"{'architecture':>18} {'lifetime':>9} {'Esav':>7}")
    for label, lifetime, esav in rows:
        print(f"{label:>18} {lifetime:8.2f}y {esav:6.1%}")

    values = dict((label, (lt, es)) for label, lt, es in rows)
    # Fine-grain is the lifetime upper bound ...
    assert values["fine probing [7]"][0] >= values["coarse M=16"][0]
    # ... coarse-grain monotonically approaches it with M ...
    assert (
        values["coarse M=4"][0]
        < values["coarse M=8"][0]
        < values["coarse M=16"][0]
    )
    # ... and banking wins on energy.
    assert values["coarse M=4"][1] > values["fine probing [7]"][1]


def test_fine_grain_uniformity(setup):
    """[7]'s optimality: re-indexing makes per-line idleness uniform."""
    geometry, trace, lut = setup
    static = simulate(fine_config(geometry), trace, lut, engine="finegrain")
    probing = simulate(
        fine_config(geometry, "probing", trace.horizon // 32),
        trace,
        lut,
        engine="finegrain",
    )
    static_spread = static.metrics["idleness_spread"]
    probing_spread = probing.metrics["idleness_spread"]
    print(
        f"\nper-line idleness spread: static={static_spread:.3f} "
        f"probing={probing_spread:.3f}"
    )
    assert probing_spread < static_spread
    # Near-uniform: all line lifetimes within a few percent of each other.
    lifetimes = probing.lifetime.bank_lifetimes_years
    assert max(lifetimes) / min(lifetimes) < 1.25


def test_fine_grain_throughput(benchmark, setup):
    """The per-line template stays fast despite 1024 lines."""
    geometry, trace, lut = setup
    config = fine_config(geometry, "probing", trace.horizon // 16)
    result = benchmark(lambda: simulate(config, trace, lut, engine="finegrain"))
    assert sum(s.accesses for s in result.bank_stats) == len(trace)
