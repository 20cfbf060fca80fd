"""Tests for the line-granularity (fine-grain) template."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.finegrain import FineGrainConfig, FineGrainSimulator, LineEnergyModel
from repro.power.idleness import IdlenessAccountant
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for
from repro.trace.trace import Trace
from tests.conftest import make_random_trace

GEOMETRY = CacheGeometry(4 * 1024, 16)  # 256 lines


@pytest.fixture(scope="module")
def workload():
    geometry = CacheGeometry(16 * 1024, 16)
    trace = WorkloadGenerator(geometry, num_windows=400).generate(
        profile_for("adpcm.dec")
    )
    return geometry, trace


class TestConfig:
    def test_rejects_associative(self):
        with pytest.raises(ConfigurationError):
            FineGrainConfig(CacheGeometry(4096, 16, ways=2))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            FineGrainConfig(GEOMETRY, policy="rotate")

    def test_breakeven_positive_and_small(self):
        breakeven = FineGrainConfig(GEOMETRY).breakeven()
        assert 1 <= breakeven <= 63

    def test_breakeven_override(self):
        assert FineGrainConfig(GEOMETRY, breakeven_override=7).breakeven() == 7


class TestLineEnergyModel:
    def test_access_energy_is_monolithic(self):
        """No banking: each access pays the full-array access energy."""
        from repro.power.energy import EnergyModel

        fine = LineEnergyModel(GEOMETRY)
        mono = EnergyModel(GEOMETRY, 1)
        assert fine.access_energy() >= mono.access_energy()

    def test_line_leakage_sums_to_array(self):
        fine = LineEnergyModel(GEOMETRY)
        from repro.power.energy import EnergyModel

        array = EnergyModel(GEOMETRY, 1).bank_leakage_power()
        total = fine.line_leakage_power() * GEOMETRY.num_lines
        assert total == pytest.approx(array * (1 + fine.CONTROL_OVERHEAD), rel=1e-9)

    def test_all_asleep_cheaper_than_all_awake(self):
        fine = LineEnergyModel(GEOMETRY)
        horizon = 10_000
        sleeping = fine.total_energy(0, horizon, GEOMETRY.num_lines * horizon, 0)
        awake = fine.total_energy(0, horizon, 0, 0)
        assert sleeping < awake

    def test_rejects_negative_counters(self):
        with pytest.raises(ConfigurationError):
            LineEnergyModel(GEOMETRY).total_energy(-1, 0, 0, 0)


class TestPerLineSleepAccounting:
    def test_matches_accountant_per_line(self):
        """The vectorized per-line sleep must equal running one
        IdlenessAccountant with a 'bank' per line."""
        from repro.finegrain.sim import _per_line_sleep

        trace = make_random_trace(seed=3, length=400, address_space_lines=64)
        geometry = CacheGeometry(1024, 16)  # 64 lines
        index = (trace.addresses >> 4) & 63
        breakeven = 9

        accountant = IdlenessAccountant(64, breakeven)
        for cycle, line in zip(trace.cycles.tolist(), index.tolist()):
            accountant.on_access(line, cycle)
        expected = accountant.finalize(trace.horizon)

        sleep, transitions, accesses = _per_line_sleep(
            index, trace.cycles, 64, breakeven, trace.horizon
        )
        for line in range(64):
            assert sleep[line] == expected[line].sleep_cycles, line
            assert transitions[line] == expected[line].transitions, line
            assert accesses[line] == expected[line].accesses, line

    def test_untouched_lines_sleep_whole_horizon(self):
        from repro.finegrain.sim import _per_line_sleep

        cycles = np.array([5], dtype=np.int64)
        index = np.array([0], dtype=np.int64)
        sleep, transitions, _ = _per_line_sleep(index, cycles, 4, 10, 1000)
        assert sleep[1] == 990
        assert transitions[1] == 1

    def test_empty_trace(self):
        from repro.finegrain.sim import _per_line_sleep

        sleep, transitions, accesses = _per_line_sleep(
            np.empty(0, np.int64), np.empty(0, np.int64), 4, 10, 1000
        )
        assert (sleep == 990).all()
        assert accesses.sum() == 0

    def test_huge_horizon_integer_exact(self):
        """Regression: sleep used to be accumulated through a
        float64-weighted bincount, which rounds past 2**53 cycles.
        Accumulation is integer now, so huge horizons stay exact."""
        from repro.finegrain.sim import _per_line_sleep

        horizon = 2**55
        breakeven = 10
        cycles = np.array([3, 2**54 + 1], dtype=np.int64)
        index = np.array([0, 0], dtype=np.int64)
        sleep, transitions, _ = _per_line_sleep(index, cycles, 2, breakeven, horizon)
        gaps = [3, (2**54 + 1) - 3 - 1, horizon - (2**54 + 1) - 1]
        expected = sum(g - breakeven for g in gaps if g > breakeven)
        assert int(sleep[0]) == expected
        assert int(transitions[0]) == 2
        # The float64 path would have rounded: the exact value is odd.
        assert expected % 2 == 1
        assert int(sleep[1]) == horizon - breakeven


class TestFineGrainSimulator:
    def test_static_is_a_drowsy_cache(self, workload, lut):
        geometry, trace = workload
        result = FineGrainSimulator(FineGrainConfig(geometry), lut).run(trace)
        # Per-line idleness is high nearly everywhere: most lines rest
        # between working-set revisits.
        assert float(np.median(result.line_sleep_fraction)) > 0.5
        assert result.lifetime_years > 2.93

    def test_reindexing_tightens_line_idleness(self, workload, lut):
        geometry, trace = workload
        static = FineGrainSimulator(FineGrainConfig(geometry), lut).run(trace)
        probing = FineGrainSimulator(
            FineGrainConfig(
                geometry, policy="probing",
                update_period_cycles=trace.horizon // 32,
            ),
            lut,
        ).run(trace)
        assert probing.idleness_spread < static.idleness_spread
        assert probing.lifetime_years >= static.lifetime_years

    def test_fine_grain_beats_coarse_on_lifetime(self, workload, lut):
        """The paper's positioning: [7] is the lifetime upper bound."""
        geometry, trace = workload
        fine = FineGrainSimulator(
            FineGrainConfig(
                geometry, policy="probing",
                update_period_cycles=trace.horizon // 32,
            ),
            lut,
        ).run(trace)
        coarse = simulate(
            ArchitectureConfig(
                geometry, num_banks=4, policy="probing",
                update_period_cycles=trace.horizon // 16,
            ),
            trace,
            lut,
            engine="fast",
        )
        assert fine.lifetime_years > coarse.lifetime_years

    def test_coarse_beats_fine_on_dynamic_energy(self, workload, lut):
        """...while coarse banking also cuts dynamic energy."""
        geometry, trace = workload
        fine = FineGrainSimulator(FineGrainConfig(geometry), lut).run(trace)
        coarse = simulate(
            ArchitectureConfig(geometry, num_banks=8, policy="static"),
            trace,
            lut,
            engine="fast",
        )
        assert coarse.energy_savings > fine.energy_savings

    def test_hit_miss_matches_banked_fast_engine(self, lut):
        """Same flush/update schedule => same functional behaviour as a
        banked cache (full-index remapping is still a bijection)."""
        trace = make_random_trace(seed=8, length=1500, address_space_lines=512)
        geometry = CacheGeometry(4 * 1024, 16)
        fine = FineGrainSimulator(
            FineGrainConfig(geometry, policy="probing", update_period_cycles=9000),
            lut,
        ).run(trace)
        banked = simulate(
            ArchitectureConfig(
                geometry, num_banks=4, policy="probing", update_period_cycles=9000
            ),
            trace,
            lut,
            engine="fast",
        )
        assert fine.hits == banked.cache_stats.hits
        assert fine.misses == banked.cache_stats.misses

    def test_scrambling_mapping_valid(self, lut):
        trace = make_random_trace(seed=9, length=500, address_space_lines=256)
        result = FineGrainSimulator(
            FineGrainConfig(GEOMETRY, policy="scrambling", update_period_cycles=5000),
            lut,
        ).run(trace)
        assert result.line_accesses.sum() == len(trace)
        assert result.updates_applied > 0

    def test_empty_trace(self, lut):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=500)
        result = FineGrainSimulator(FineGrainConfig(GEOMETRY), lut).run(trace)
        assert result.hits == 0
        assert result.lifetime_years > 2.93  # everything slept
