"""Tests for the butterfly-curve read-SNM evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.cell import SRAMCellSpec
from repro.aging.devices import MOSFETParams
from repro.aging.snm import butterfly_curves, read_snm, read_snm_batch
from repro.errors import ModelError

SPEC = SRAMCellSpec()
#: A non-default cell: lower supply, weaker pull-up, stronger driver.
ALT_SPEC = SRAMCellSpec(
    vdd=1.0,
    pull_up=MOSFETParams(k=0.8, vth=0.35),
    pull_down=MOSFETParams(k=3.0, vth=0.28),
    access=MOSFETParams(k=1.2, vth=0.31),
)


class TestButterflyCurves:
    def test_shapes(self):
        vin, a, b = butterfly_curves(*SPEC.half_cells(), SPEC.vdd, samples=101)
        assert vin.shape == a.shape == b.shape == (101,)

    def test_vtcs_monotone_non_increasing(self):
        _, a, b = butterfly_curves(*SPEC.half_cells(), SPEC.vdd)
        assert np.all(np.diff(a) <= 1e-9)
        assert np.all(np.diff(b) <= 1e-9)

    def test_high_output_is_full_rail(self):
        """With the input at 0 the pull-up holds the node at Vdd."""
        _, a, _ = butterfly_curves(*SPEC.half_cells(), SPEC.vdd)
        assert a[0] == pytest.approx(SPEC.vdd, abs=1e-6)

    def test_read_disturb_raises_low_level(self):
        """Under read, the low output sits above ground (access fights)."""
        _, a, _ = butterfly_curves(*SPEC.half_cells(), SPEC.vdd)
        read_low = a[-1]
        assert 0.02 < read_low < 0.4

    def test_symmetric_cell_gives_identical_vtcs(self):
        _, a, b = butterfly_curves(*SPEC.half_cells(), SPEC.vdd)
        assert np.allclose(a, b)

    def test_rejects_bad_sampling(self):
        with pytest.raises(ModelError):
            butterfly_curves(*SPEC.half_cells(), SPEC.vdd, samples=4)

    def test_rejects_bad_vdd(self):
        with pytest.raises(ModelError):
            butterfly_curves(*SPEC.half_cells(), 0.0)


class TestReadSNM:
    def test_fresh_snm_plausible_for_45nm(self):
        """A healthy 45nm 6T cell reads ~150-300 mV of SNM at 1.1 V."""
        snm = read_snm(*SPEC.half_cells(), SPEC.vdd)
        assert 0.12 < snm < 0.35

    def test_degrades_monotonically_with_symmetric_aging(self):
        shifts = [0.0, 0.05, 0.1, 0.2, 0.3]
        snms = [read_snm(*SPEC.half_cells(d, d), SPEC.vdd) for d in shifts]
        assert all(a > b for a, b in zip(snms, snms[1:]))

    def test_asymmetric_aging_limited_by_worse_lobe(self):
        """One aged pull-up hurts as much as two (min over eyes)."""
        both = read_snm(*SPEC.half_cells(0.15, 0.15), SPEC.vdd)
        one = read_snm(*SPEC.half_cells(0.15, 0.0), SPEC.vdd)
        assert one == pytest.approx(both, abs=5e-3)

    def test_symmetry_under_device_swap(self):
        ab = read_snm(*SPEC.half_cells(0.12, 0.03), SPEC.vdd)
        ba = read_snm(*SPEC.half_cells(0.03, 0.12), SPEC.vdd)
        assert ab == pytest.approx(ba, abs=2e-3)

    def test_stronger_pulldown_improves_read_snm(self):
        """Classic cell-ratio effect: a stronger driver widens the eye."""
        weak = SRAMCellSpec(
            pull_down=SPEC.pull_down.__class__(k=1.8, vth=0.30)
        )
        strong = SRAMCellSpec(
            pull_down=SPEC.pull_down.__class__(k=3.4, vth=0.30)
        )
        snm_weak = read_snm(*weak.half_cells(), weak.vdd)
        snm_strong = read_snm(*strong.half_cells(), strong.vdd)
        assert snm_strong > snm_weak

    def test_never_negative(self):
        snm = read_snm(*SPEC.half_cells(0.9, 0.9), SPEC.vdd)
        assert snm >= 0.0

    def test_sampling_converged(self):
        """Doubling the sampling changes the SNM by well under a mV."""
        coarse = read_snm(*SPEC.half_cells(0.1, 0.1), SPEC.vdd, samples=161)
        fine = read_snm(*SPEC.half_cells(0.1, 0.1), SPEC.vdd, samples=321)
        assert coarse == pytest.approx(fine, abs=1.5e-3)


class TestBatchSolver:
    shifts = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(st.tuples(shifts, shifts), min_size=1, max_size=5),
        samples=st.sampled_from([101, 161, 201, 321]),
        spec=st.sampled_from([SPEC, ALT_SPEC]),
    )
    def test_batch_rows_equal_one_row_solves(self, pairs, samples, spec):
        """Row r of a k-cell batch is bit-identical to solving cell r alone."""
        cells = [spec.half_cells(a, b) for a, b in pairs]
        batch = read_snm_batch(cells, spec.vdd, samples=samples)
        alone = [read_snm(*cell, spec.vdd, samples=samples) for cell in cells]
        assert [float(v).hex() for v in batch] == [v.hex() for v in alone]

    def test_empty_batch(self):
        assert read_snm_batch([], SPEC.vdd).shape == (0,)
        with pytest.raises(ModelError):
            read_snm_batch([], SPEC.vdd, samples=4)
