"""Tests for the characterization framework and the lifetime LUT."""

from __future__ import annotations

import hashlib
import pickle
import threading

import numpy as np
import pytest

from repro.aging.cell import CharacterizationFramework, SRAMCellSpec
from repro.aging.lifetime import (
    LinearizedLifetimeModel,
    bank_lifetimes_years,
    cache_lifetime_years,
)
from repro.aging.lut import LifetimeLUT
from repro.aging.variation import VariationModel
from repro.errors import ModelError
from tests.test_derivation_identity import scalar_oracle


class TestCharacterization:
    def test_calibrated_to_paper_reference(self, framework):
        """Always-on balanced cell: 2.93 years (Section IV-B1)."""
        assert framework.lifetime_years(0.5, 0.0) == pytest.approx(2.93, rel=1e-6)

    def test_snm_fresh_positive(self, framework):
        assert framework.snm_fresh > 0.1

    def test_failure_threshold_is_80_percent(self, framework):
        assert framework.snm_failure_threshold == pytest.approx(
            0.8 * framework.snm_fresh
        )

    def test_sleep_extends_lifetime(self, framework):
        base = framework.lifetime_years(0.5, 0.0)
        assert framework.lifetime_years(0.5, 0.5) > base

    def test_lifetime_matches_linearized_law(self, framework):
        """The full SNM+drift pipeline obeys LT = base/(1 - eta*I) exactly
        (the drift law's time-scaling property)."""
        eta = framework.nbti.sleep_recovery_efficiency
        for psleep in (0.1, 0.42, 0.68, 0.95):
            expected = 2.93 / (1.0 - eta * psleep)
            assert framework.lifetime_years(0.5, psleep) == pytest.approx(
                expected, rel=1e-6
            )

    def test_paper_table4_anchor(self, framework):
        """32kB / 8 banks: idleness 68% -> 5.98 years in the paper."""
        assert framework.lifetime_years(0.5, 0.68) == pytest.approx(5.98, abs=0.02)

    def test_balanced_content_is_best_case(self, framework):
        """p0 = 0.5 maximizes lifetime (Kumar et al.; Section II-B)."""
        balanced = framework.lifetime_years(0.5, 0.0)
        assert framework.lifetime_years(0.9, 0.0) < balanced
        assert framework.lifetime_years(0.1, 0.0) < balanced

    def test_p0_symmetry(self, framework):
        # Small numerical asymmetry from the butterfly bisection is fine.
        assert framework.lifetime_years(0.3, 0.0) == pytest.approx(
            framework.lifetime_years(0.7, 0.0), rel=2e-3
        )

    def test_device_duties(self, framework):
        assert framework.device_duties(0.25) == (0.75, 0.25)
        with pytest.raises(ModelError):
            framework.device_duties(1.5)

    def test_aging_curve_monotone_decreasing(self, framework):
        curve = framework.aging_curve(points=7, horizon_years=6.0)
        assert np.all(np.diff(curve.snm_volts) < 0)
        assert curve.snm_volts[0] == pytest.approx(framework.snm_fresh, rel=1e-6)

    def test_snm_at_time_zero(self, framework):
        assert framework.snm_at(0.0) == pytest.approx(framework.snm_fresh, rel=1e-6)

    def test_rejects_insensitive_cell(self):
        """A cell whose read SNM never reaches -20% must be refused."""
        # Pathologically weak pull-ups make the butterfly insensitive.
        from repro.aging.devices import MOSFETParams

        spec = SRAMCellSpec(
            pull_up=MOSFETParams(k=0.01, vth=0.9),
            pull_down=MOSFETParams(k=2.6, vth=0.30),
            access=MOSFETParams(k=1.3, vth=0.30),
        )
        with pytest.raises(ModelError):
            CharacterizationFramework(spec)


class TestLifetimeLUT:
    def test_exact_on_grid_points(self, lut, framework):
        for psleep in (0.0, float(lut.psleep_grid[10])):
            assert lut.lifetime_years(0.5, psleep) == pytest.approx(
                framework.lifetime_years(0.5, psleep), rel=1e-6
            )

    def test_interpolation_between_grid_points(self, lut, framework):
        """Bilinear interpolation error stays under 1% mid-cell."""
        psleep = 0.4125
        exact = framework.lifetime_years(0.5, psleep)
        assert lut.lifetime_years(0.5, psleep) == pytest.approx(exact, rel=0.01)

    def test_monotone_in_psleep(self, lut):
        values = [lut.lifetime_years(0.5, p) for p in np.linspace(0, 0.99, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_clips_extreme_sleep(self, lut):
        """Psleep = 1.0 (a never-touched bank) returns a finite lifetime."""
        value = lut.lifetime_years(0.5, 1.0)
        assert np.isfinite(value)
        assert value > lut.lifetime_years(0.5, 0.9)

    def test_rejects_out_of_domain(self, lut):
        with pytest.raises(ModelError):
            lut.lifetime_years(1.5, 0.0)
        with pytest.raises(ModelError):
            lut.lifetime_years(0.5, -0.1)

    def test_rejects_degenerate_grid(self, framework):
        with pytest.raises(ModelError):
            LifetimeLUT(framework, p0_points=1)

    def test_default_is_memoised(self):
        assert LifetimeLUT.default() is LifetimeLUT.default()


class TestCharacterizationPins:
    """The lockstep characterization reproduces the one-p0-at-a-time
    bisection bit for bit: lifetimes derived from the LUT are written
    into store records and the SQLite index."""

    LUT_SHA256 = "3832f1152ca565ad020b01a18a59651da18f2b0d18c0e5d2c3524a52c3174483"
    PREFACTOR = "0x1.beba60b1302ebp-7"
    VARIATION_SCALES = (
        "0x1.0000000000000p+0",
        "0x1.b5a62c3399916p-1",
        "0x1.7485ad797a79ep-1",
        "0x1.3bae1ab60d0f5p-1",
        "0x1.0a41e2f5a7ebbp-1",
        "0x1.beea94e9dd485p-2",
        "0x1.751adda0d360cp-2",
    )
    AGING_CURVE_SNM = (
        "0x1.c62f6a1a3cccdp-3",
        "0x1.7be925afb0ccdp-3",
        "0x1.718c49359e666p-3",
        "0x1.6adafb5878000p-3",
        "0x1.6497b40ca2667p-3",
        "0x1.6150f2150199ap-3",
        "0x1.5e2f536184000p-3",
        "0x1.5ac68d7370ccdp-3",
        "0x1.579d409db8000p-3",
        "0x1.54846c42f6667p-3",
        "0x1.5223cef750000p-3",
        "0x1.50d9482728000p-3",
        "0x1.4da0217623333p-3",
    )

    def test_default_lut_table_bytes(self):
        table = LifetimeLUT.default().table
        assert hashlib.sha256(table.tobytes()).hexdigest() == self.LUT_SHA256

    def test_calibrated_prefactor(self, framework):
        assert framework.nbti.prefactor.hex() == self.PREFACTOR

    def test_variation_scales(self, framework):
        model = VariationModel(framework)
        # The default grid: 7 offsets over [0, 40 mV]; interpolation at
        # the grid points returns the tabulated scales exactly.
        scales = model.lifetime_scale(np.linspace(0.0, 0.04, 7))
        assert tuple(float(s).hex() for s in scales) == self.VARIATION_SCALES

    def test_aging_curve_snm(self, framework):
        curve = framework.aging_curve(points=13)
        assert tuple(float(s).hex() for s in curve.snm_volts) == self.AGING_CURVE_SNM

    def test_balanced_queries_bisect_only_the_calibration_row(self, bisections):
        """Calibration's p0 = 0.5 bisection serves every p0 = 0.5 query;
        reading the table bisects the other 10 rows in one lockstep call."""
        lut = LifetimeLUT()
        lut.lifetime_years(0.5, 0.3)
        lut.lifetime_years_batch(0.5, [0.0, 0.42, 1.0])
        bank_lifetimes_years([0.1, 0.9], lut=lut)
        # p0 = 0.5 is the only profile whose two pull-ups age alike.
        assert bisections == [[(1.0, 1.0)]]
        lut.table
        assert len(bisections) == 2
        assert len(set(bisections[1])) == lut.p0_grid.size - 1
        assert (1.0, 1.0) not in bisections[1]
        lut.table
        assert len(bisections) == 2


@pytest.fixture()
def bisections(monkeypatch):
    """The rows of every ``failing_scales`` call, one list per call."""
    calls: list[list[tuple[float, float]]] = []
    bisect = CharacterizationFramework.failing_scales

    def spy(self, ratio_a, ratio_b, **kwargs):
        calls.append(list(zip(ratio_a.tolist(), ratio_b.tolist())))
        return bisect(self, ratio_a, ratio_b, **kwargs)

    monkeypatch.setattr(CharacterizationFramework, "failing_scales", spy)
    return calls


@pytest.fixture(scope="module")
def eager_lut() -> LifetimeLUT:
    """A default-grid LUT whose whole table was bisected in one lockstep call."""
    lut = LifetimeLUT(CharacterizationFramework())
    lut.table
    return lut


class TestLazyRows:
    """A row filled on first use equals the row of a lockstep table."""

    FRACTIONS = [0.0, 0.013, 0.2, 0.4125, 0.68, 0.9999, 1.0]

    @pytest.mark.parametrize("k", [0, 3, 4, 10])
    def test_row_bisected_alone_equals_lockstep_row(self, k, eager_lut, bisections):
        # The grid nodes p0 = 0.0, 0.3, 0.4 and 1.0; the edge rows each
        # have one unstressed pull-up.
        lut = LifetimeLUT(CharacterizationFramework())
        p0 = float(lut.p0_grid[k])
        got = lut.lifetime_years_batch(p0, lut.psleep_grid)
        assert got.tobytes() == eager_lut.table[k].tobytes()
        # Calibration's row, then each row the query read on its own
        # (p0 = 0.0 also reads row 1, at weight zero).
        assert [len(rows) for rows in bisections] == [1] * (3 if k == 0 else 2)

    def test_off_grid_query_matches_eager_recipe(self, eager_lut):
        lut = LifetimeLUT(CharacterizationFramework())
        fractions = [*self.FRACTIONS, *map(float, lut.psleep_grid)]
        got = lut.lifetime_years_batch(0.35, fractions)
        expected = [scalar_oracle(eager_lut, 0.35, ps) for ps in fractions]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    def test_first_queries_from_threads(self, eager_lut):
        lut = LifetimeLUT(CharacterizationFramework())
        barrier = threading.Barrier(8)
        results: dict[int, bytes] = {}

        def query(n: int) -> None:
            barrier.wait()
            results[n] = lut.lifetime_years_batch((0.35, 0.5)[n % 2], self.FRACTIONS).tobytes()

        threads = [threading.Thread(target=query, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        serial = {
            p0: eager_lut.lifetime_years_batch(p0, self.FRACTIONS).tobytes()
            for p0 in (0.35, 0.5)
        }
        assert results == {n: serial[(0.35, 0.5)[n % 2]] for n in range(8)}
        assert lut.table.tobytes() == eager_lut.table.tobytes()

    def test_pickled_before_first_query(self, eager_lut):
        lut = pickle.loads(pickle.dumps(LifetimeLUT(CharacterizationFramework())))
        for p0 in (0.35, 0.5, 1.0):
            got = lut.lifetime_years_batch(p0, self.FRACTIONS)
            expected = eager_lut.lifetime_years_batch(p0, self.FRACTIONS)
            assert got.tobytes() == expected.tobytes()
        assert lut.table.tobytes() == eager_lut.table.tobytes()

    def test_table_is_read_only(self, lut):
        with pytest.raises(AttributeError):
            lut.table = np.zeros((3, 21))
        lut.table[0, 0] = -1.0
        assert lut.table[0, 0] > 0.0


class TestLinearizedModel:
    def test_matches_paper_values(self):
        model = LinearizedLifetimeModel()
        assert model.lifetime_years(0.0) == pytest.approx(2.93)
        assert model.lifetime_years(0.68) == pytest.approx(5.98, abs=0.02)

    def test_required_sleep_inverse(self):
        model = LinearizedLifetimeModel()
        psleep = model.required_sleep(4.31)
        assert model.lifetime_years(psleep) == pytest.approx(4.31, rel=1e-9)

    def test_required_sleep_rejects_trivial_target(self):
        with pytest.raises(ModelError):
            LinearizedLifetimeModel().required_sleep(1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ModelError):
            LinearizedLifetimeModel(base_lifetime_years=-1)
        with pytest.raises(ModelError):
            LinearizedLifetimeModel(eta=1.5)


class TestBankAndCacheLifetime:
    def test_cache_lifetime_is_worst_bank(self, lut):
        report = cache_lifetime_years([0.9, 0.1, 0.5, 0.7], lut=lut)
        lifetimes = bank_lifetimes_years([0.9, 0.1, 0.5, 0.7], lut=lut)
        assert report.cache_lifetime_years == min(lifetimes)
        assert report.limiting_bank == 1

    def test_uniform_sleep_all_banks_equal(self, lut):
        report = cache_lifetime_years([0.4] * 8, lut=lut)
        assert len(set(report.bank_lifetimes_years)) == 1

    def test_rejects_empty(self, lut):
        with pytest.raises(ModelError):
            cache_lifetime_years([], lut=lut)
