"""Golden-number regression tests.

Pins the key calibrated quantities of the reproduction so accidental
model drift is caught immediately. The tolerances are tight: these
values are deterministic functions of the checked-in defaults and the
fixed master seed.
"""

from __future__ import annotations

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for


class TestCalibrationGoldens:
    def test_cell_base_lifetime(self, framework):
        assert framework.lifetime_years(0.5, 0.0) == pytest.approx(2.93, abs=1e-6)

    def test_fresh_snm_millivolts(self, framework):
        """Re-sizing the default cell changes every table; pin it."""
        assert framework.snm_fresh == pytest.approx(0.2218, abs=0.002)

    def test_eta_three_quarters(self, framework):
        assert framework.nbti.sleep_recovery_efficiency == pytest.approx(0.75, abs=0.005)

    def test_paper_anchor_5_98_years(self, framework):
        assert framework.lifetime_years(0.5, 0.68) == pytest.approx(5.98, abs=0.01)

    def test_reference_breakeven(self):
        config = ArchitectureConfig(CacheGeometry(16 * 1024, 16), num_banks=4)
        assert config.breakeven() == 20


class TestWorkloadGoldens:
    """Deterministic trace statistics at the default master seed."""

    @pytest.fixture(scope="class")
    def trace(self):
        geometry = CacheGeometry(16 * 1024, 16)
        return WorkloadGenerator(geometry, num_windows=400).generate(
            profile_for("dijkstra")
        )

    def test_trace_length_pinned(self, trace):
        # Exact regeneration from seed 2011 (stream hashing + LFSR).
        assert len(trace) == 289536

    def test_horizon(self, trace):
        assert trace.horizon == 400 * 1024


class TestSimulationGoldens:
    @pytest.fixture(scope="class")
    def result(self, lut):
        geometry = CacheGeometry(16 * 1024, 16)
        trace = WorkloadGenerator(geometry, num_windows=400).generate(
            profile_for("dijkstra")
        )
        config = ArchitectureConfig(
            geometry, num_banks=4, policy="probing",
            update_period_cycles=trace.horizon // 16,
        )
        return simulate(config, trace, lut, engine="fast")

    def test_lifetime_band(self, result):
        assert result.lifetime_years == pytest.approx(3.9, abs=0.25)

    def test_energy_savings_band(self, result):
        assert result.energy_savings == pytest.approx(0.40, abs=0.04)

    def test_hit_rate_band(self, result):
        assert 0.93 < result.hit_rate < 0.995

    def test_updates_exact(self, result):
        assert result.updates_applied == 15
