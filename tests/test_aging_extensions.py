"""Tests for the aging extensions: variation, thermal, flipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aging.flipping import FlipScheme, flip_gain, flip_lifetime_years
from repro.aging.thermal import (
    BankThermalProfile,
    ThermalModel,
    thermal_bank_lifetimes,
)
from repro.aging.variation import VariationModel
from repro.errors import ModelError


class TestFlipping:
    def test_half_flip_balances_any_content(self):
        scheme = FlipScheme(0.5)
        for p0 in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert scheme.effective_p0(p0) == pytest.approx(0.5)

    def test_no_flip_is_identity(self):
        scheme = FlipScheme(0.0)
        assert scheme.effective_p0(0.8) == pytest.approx(0.8)

    def test_gain_positive_for_skewed_content(self, framework):
        assert flip_gain(framework, 0.9) > 1.2

    def test_gain_is_one_for_balanced_content(self, framework):
        assert flip_gain(framework, 0.5) == pytest.approx(1.0, rel=1e-6)

    def test_composes_with_sleep(self, framework):
        """Flipping and idleness are independent levers that multiply."""
        flipped_asleep = flip_lifetime_years(framework, 0.9, psleep=0.5)
        flipped_awake = flip_lifetime_years(framework, 0.9, psleep=0.0)
        assert flipped_asleep > flipped_awake

    def test_validation(self):
        with pytest.raises(ModelError):
            FlipScheme(1.5)
        with pytest.raises(ModelError):
            FlipScheme(0.5).effective_p0(2.0)


class TestThermalModel:
    def test_reference_point_is_unity(self):
        model = ThermalModel()
        assert model.prefactor_scale(model.reference_celsius) == pytest.approx(1.0)
        assert model.lifetime_scale(model.reference_celsius) == pytest.approx(1.0)

    def test_hotter_ages_faster(self):
        model = ThermalModel()
        assert model.prefactor_scale(105.0) > 1.0
        assert model.lifetime_scale(105.0) < 1.0
        assert model.lifetime_scale(45.0) > 1.0

    def test_monotone_in_temperature(self):
        model = ThermalModel()
        scales = [model.lifetime_scale(t) for t in (25.0, 45.0, 65.0, 85.0, 105.0)]
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_at_temperature_rescales_nbti(self):
        from repro.aging.nbti import NBTIModel

        base = NBTIModel()
        hot = ThermalModel().at_temperature(base, 105.0)
        assert hot.prefactor > base.prefactor
        assert hot.time_to_reach(0.05, 0.5) < base.time_to_reach(0.05, 0.5)

    def test_rejects_nonphysical(self):
        with pytest.raises(ModelError):
            ThermalModel(activation_ev=-0.1)
        with pytest.raises(ModelError):
            ThermalModel().prefactor_scale(-300.0)


class TestBankThermalProfile:
    def test_idle_banks_run_cool(self):
        profile = BankThermalProfile(ambient_celsius=45.0, rise_per_activity=35.0)
        temps = profile.bank_temperatures([0.0, 1.0])
        assert temps[0] == pytest.approx(80.0)  # fully active
        assert temps[1] == pytest.approx(45.0)  # fully asleep

    def test_validation(self):
        with pytest.raises(ModelError):
            BankThermalProfile(rise_per_activity=-1.0)
        with pytest.raises(ModelError):
            BankThermalProfile().bank_temperatures([])
        with pytest.raises(ModelError):
            BankThermalProfile().bank_temperatures([1.5])


class TestThermalLifetimes:
    def test_heat_compounds_imbalance(self):
        """A hot busy bank ages more than the sleep law alone predicts,
        so the thermal-aware worst bank is even worse."""
        sleep = [0.02, 0.99, 0.99, 0.04]
        with_heat = thermal_bank_lifetimes(sleep)
        sleep_only = [2.93 / (1 - 0.75 * s) for s in sleep]
        assert with_heat[0] < sleep_only[0]
        assert with_heat[1] > sleep_only[1]

    def test_balanced_banks_unchanged_at_reference_activity(self):
        """Banks at 50% activity sit exactly at the reference temperature."""
        lifetimes = thermal_bank_lifetimes([0.5, 0.5])
        expected = 2.93 / (1 - 0.75 * 0.5)
        assert lifetimes[0] == pytest.approx(expected, rel=1e-9)

    def test_balancing_still_wins_with_heat(self):
        unbalanced = thermal_bank_lifetimes([0.02, 0.99, 0.99, 0.04]).min()
        balanced = thermal_bank_lifetimes([0.51, 0.51, 0.51, 0.51]).min()
        assert balanced > unbalanced


class TestVariation:
    @pytest.fixture(scope="class")
    def model(self, framework):
        return VariationModel(framework, sigma_vth=0.01, offset_grid_points=5)

    def test_nominal_scale_is_unity(self, model):
        assert float(model.lifetime_scale(0.0)) == pytest.approx(1.0)

    def test_scale_decreases_with_offset(self, model):
        scales = model.lifetime_scale(np.array([0.0, 0.01, 0.02, 0.03]))
        assert all(a >= b for a, b in zip(scales, scales[1:]))
        assert scales[-1] < 0.9

    def test_negative_offsets_clamped(self, model):
        assert float(model.lifetime_scale(-0.05)) == pytest.approx(1.0)

    def test_zero_sigma_is_deterministic(self, framework):
        model = VariationModel(framework, sigma_vth=0.0, offset_grid_points=3)
        dist = model.bank_lifetime_distribution(100, psleep=0.4, samples=10)
        nominal = framework.lifetime_years(0.5, 0.4)
        assert dist.std == pytest.approx(0.0, abs=1e-9)
        assert dist.mean == pytest.approx(nominal, rel=1e-6)

    def test_more_cells_weaker_minimum(self, model):
        small = model.bank_lifetime_distribution(64, psleep=0.4, samples=40)
        large = model.bank_lifetime_distribution(4096, psleep=0.4, samples=40)
        assert large.mean < small.mean

    def test_relative_gain_survives_variation(self, model):
        """Idleness balancing multiplies the whole distribution: the
        balanced cache stays ~proportionally better under variation."""
        idle = model.bank_lifetime_distribution(256, psleep=0.68, samples=40)
        busy = model.bank_lifetime_distribution(256, psleep=0.02, samples=40)
        nominal_ratio = (2.93 / (1 - 0.75 * 0.68)) / (2.93 / (1 - 0.75 * 0.02))
        assert idle.mean / busy.mean == pytest.approx(nominal_ratio, rel=0.15)

    def test_cache_distribution_worst_of_banks(self, model):
        dist = model.cache_lifetime_distribution(
            [0.4, 0.4, 0.4, 0.02], cells_per_bank=128, samples=20
        )
        solo = model.bank_lifetime_distribution(128, psleep=0.02, samples=20)
        assert dist.mean <= solo.mean + 1e-9

    def test_percentiles_ordered(self, model):
        dist = model.bank_lifetime_distribution(256, psleep=0.4, samples=60)
        assert dist.percentile(1) <= dist.percentile(50) <= dist.percentile(99)
        assert dist.yield_lifetime == dist.percentile(1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.bank_lifetime_distribution(0, 0.5),
            lambda m: m.bank_lifetime_distribution(16, 0.5, samples=0),
            lambda m: m.cache_lifetime_distribution([0.5], 0),
            lambda m: m.cache_lifetime_distribution([0.5], 10, samples=0),
            lambda m: m.cache_lifetime_distribution([0.5], 10, samples=-1),
            lambda m: m.cache_lifetime_distribution([], 10),
        ],
        ids=["no-cells", "no-samples", "cache-no-cells", "cache-no-samples",
             "cache-negative-samples", "no-banks"],
    )
    def test_rejects_empty_monte_carlo(self, model, call):
        with pytest.raises(ModelError):
            call(model)

    def test_validation(self, framework):
        with pytest.raises(ModelError):
            VariationModel(framework, sigma_vth=-0.1)
        with pytest.raises(ModelError):
            VariationModel(framework, offset_grid_points=2)
