"""Behavioural tests of simulation results: the paper's core claims.

These tests run real (small) workloads end-to-end and assert the
paper's qualitative results hold in the reproduction:

* idleness is unbalanced without re-indexing and balanced with it;
* re-indexing extends the cache lifetime well beyond plain power
  management;
* energy savings are essentially independent of the indexing policy;
* the miss-rate cost of update-induced flushes is negligible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for


@pytest.fixture(scope="module")
def geometry():
    return CacheGeometry(16 * 1024, 16)


@pytest.fixture(scope="module")
def traces(geometry):
    generator = WorkloadGenerator(geometry, num_windows=600)
    return {
        name: generator.generate(profile_for(name))
        for name in ("adpcm.dec", "CRC32", "say")
    }


def run(geometry, trace, lut, policy, banks=4, power_managed=True, updates=16):
    config = ArchitectureConfig(
        geometry,
        num_banks=banks,
        policy=policy,
        power_managed=power_managed,
        update_period_cycles=trace.horizon // updates if policy != "static" else None,
    )
    return simulate(config, trace, lut, engine="fast")


class TestIdlenessBalancing:
    def test_static_idleness_unbalanced(self, geometry, traces, lut):
        """adpcm.dec: two banks ~idle, two banks ~hot (Table I)."""
        result = run(geometry, traces["adpcm.dec"], lut, "static")
        idleness = sorted(result.bank_idleness)
        assert idleness[0] < 0.10
        assert idleness[-1] > 0.95

    def test_probing_balances_idleness(self, geometry, traces, lut):
        result = run(geometry, traces["adpcm.dec"], lut, "probing")
        idleness = result.bank_idleness
        assert max(idleness) - min(idleness) < 0.15
        assert np.mean(idleness) == pytest.approx(0.515, abs=0.08)

    def test_scrambling_balances_idleness(self, geometry, traces, lut):
        """Scrambling converges only asymptotically (Section IV-B2), so
        with a compressed update schedule it narrows — but does not yet
        close — the idleness spread of the most unbalanced benchmark."""
        static = run(geometry, traces["adpcm.dec"], lut, "static")
        result = run(geometry, traces["adpcm.dec"], lut, "scrambling", updates=64)
        static_spread = max(static.bank_idleness) - min(static.bank_idleness)
        spread = max(result.bank_idleness) - min(result.bank_idleness)
        assert spread < 0.5 * static_spread


class TestLifetime:
    def test_reindexing_beats_static(self, geometry, traces, lut):
        for name in traces:
            static = run(geometry, traces[name], lut, "static")
            probing = run(geometry, traces[name], lut, "probing")
            assert probing.lifetime_years > static.lifetime_years

    def test_static_beats_monolithic(self, geometry, traces, lut):
        """Plain power management helps a little (the paper's 9%)."""
        for name in ("adpcm.dec", "say"):
            static = run(geometry, traces[name], lut, "static")
            assert static.lifetime_years > 2.93

    def test_monolithic_is_cell_lifetime(self, geometry, traces, lut):
        mono = run(
            geometry, traces["say"], lut, "static", banks=1, power_managed=False
        )
        assert mono.lifetime_years == pytest.approx(2.93, rel=1e-6)

    def test_limiting_bank_is_least_idle(self, geometry, traces, lut):
        result = run(geometry, traces["CRC32"], lut, "static")
        worst = min(range(4), key=lambda b: result.bank_idleness[b])
        assert result.lifetime.limiting_bank == worst

    def test_probing_and_scrambling_equivalent(self, geometry, traces, lut):
        """Section IV-B2: 'de facto identical results' — once the number
        of updates is large enough for the RNG's 1/sqrt(N) error to be
        small. 64 updates suffice for a 10% agreement here."""
        for name in traces:
            probing = run(geometry, traces[name], lut, "probing", updates=64)
            scrambling = run(geometry, traces[name], lut, "scrambling", updates=64)
            assert probing.lifetime_years == pytest.approx(
                scrambling.lifetime_years, rel=0.10
            )


class TestEnergy:
    def test_savings_positive(self, geometry, traces, lut):
        for name in traces:
            result = run(geometry, traces[name], lut, "static")
            assert 0.15 < result.energy_savings < 0.70

    def test_savings_independent_of_policy(self, geometry, traces, lut):
        """'The energy savings are independent of the re-indexing
        strategy' (Table II's single Esav column)."""
        for name in traces:
            static = run(geometry, traces[name], lut, "static")
            probing = run(geometry, traces[name], lut, "probing")
            assert probing.energy_savings == pytest.approx(
                static.energy_savings, abs=0.03
            )

    def test_unmanaged_partition_saves_only_dynamic(self, geometry, traces, lut):
        managed = run(geometry, traces["say"], lut, "static")
        unmanaged = run(geometry, traces["say"], lut, "static", power_managed=False)
        assert unmanaged.energy_savings < managed.energy_savings

    def test_energy_breakdown_consistency(self, geometry, traces, lut):
        result = run(geometry, traces["say"], lut, "static")
        total = sum(b.total for b in result.bank_energy)
        assert result.energy_pj == pytest.approx(total, rel=1e-12)


class TestMissRate:
    def test_flush_cost_shrinks_with_update_period(self, geometry, traces, lut):
        """Section III-A3: updates ride on flushes, so their miss cost is
        set by the update frequency — at the simulator's compressed
        frequencies the cost is visible but bounded, and lengthening the
        period must shrink it (in deployment, day-scale periods make it
        vanish)."""
        static = run(geometry, traces["say"], lut, "static")
        frequent = run(geometry, traces["say"], lut, "probing", updates=16)
        rare = run(geometry, traces["say"], lut, "probing", updates=4)
        cost_frequent = static.hit_rate - frequent.hit_rate
        cost_rare = static.hit_rate - rare.hit_rate
        assert cost_rare < cost_frequent < 0.06

    def test_updates_applied_matches_schedule(self, geometry, traces, lut):
        probing = run(geometry, traces["say"], lut, "probing")
        assert probing.updates_applied >= 14  # ~16 scheduled, tail may not fire

    def test_describe_mentions_key_numbers(self, geometry, traces, lut):
        result = run(geometry, traces["say"], lut, "probing")
        text = result.describe()
        assert "say" in text
        assert "lifetime" in text
