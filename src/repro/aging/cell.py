"""Two-phase cell characterization: pre-stress aging, post-stress SNM.

This module mirrors the paper's "dedicated SPICE-based characterization
framework which predicts, under user-defined PVT operating conditions,
the aging profile of a 6T-SRAM cell" (Section IV-A):

* the *pre-stress* phase evaluates the NBTI drift of each PMOS for a
  functional profile — the probability ``p0`` of storing a logic '0' and
  the idleness ``Psleep`` of the cell — using the model in
  :mod:`repro.aging.nbti` (standing in for the HSPICE built-in aging
  models);
* the drift is *annotated* onto the cell as increased |Vth| on the two
  pull-ups (standing in for the DC-controlled voltage sources on the
  gate terminals);
* the *post-stress* phase re-evaluates the read SNM with the butterfly
  solver of :mod:`repro.aging.snm`;
* the cell's **lifetime** is the time at which the read SNM has dropped
  by more than 20% from its time-zero value.

A key structural property makes lifetime evaluation cheap: for a fixed
``p0`` the two pull-up shifts keep a constant *ratio* over time (both
follow ``(α·t)^n`` with different α), so SNM depends on time only through
a single monotone scale. The framework therefore bisects over that scale
once per ``p0`` and converts sleep fractions analytically — this is exact
under the drift law, not an approximation.

The bisections run in lockstep: :meth:`CharacterizationFramework.failing_scales`
advances every row (one ``p0``, or one Vth offset) through the same
bracketing and bisection steps, each step one batched butterfly solve
(:func:`~repro.aging.snm.read_snm_batch`), with rows that are already
bracketed masked out of the doubling search. Each row follows exactly
the arithmetic of a bisection run on its own, so results do not depend
on the batch. :meth:`CharacterizationFramework.critical_shifts` memoizes
its results on the framework by ``(p0, time exponent)`` — the prefactor
does not enter the critical shift — so calibration's p0 = 0.5 solve is
reused by its self-check and by the lifetime table's p0 = 0.5 row, the
only row a cache query reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.aging.devices import MOSFETParams
from repro.aging.nbti import NBTIModel
from repro.aging.snm import HalfCell, read_snm_batch
from repro.errors import CalibrationError, ModelError
from repro.utils.units import seconds_to_years, years_to_seconds

#: End-of-life criterion: read SNM degraded by 20% (Section IV-A).
SNM_FAILURE_FRACTION: float = 0.20


@dataclass(frozen=True)
class SRAMCellSpec:
    """Electrical description of the 6T cell.

    Default values model a 45nm high-density cell: the pull-down driver is
    roughly twice as strong as the access transistor (cell ratio ~2, for
    read stability), which is in turn stronger than the pull-up.
    """

    vdd: float = 1.1
    pull_up: MOSFETParams = field(default_factory=lambda: MOSFETParams(k=1.0, vth=0.32))
    pull_down: MOSFETParams = field(default_factory=lambda: MOSFETParams(k=2.6, vth=0.30))
    access: MOSFETParams = field(default_factory=lambda: MOSFETParams(k=1.3, vth=0.30))

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ModelError("vdd must be positive")

    def half_cells(
        self, delta_vth_a: float = 0.0, delta_vth_b: float = 0.0
    ) -> tuple[HalfCell, HalfCell]:
        """Return the two half-cells with annotated pull-up degradation.

        ``delta_vth_a`` degrades the PMOS driving node Q (stressed while
        the cell stores '1', i.e. Q=1 keeps QB=0 on its gate);
        ``delta_vth_b`` degrades the PMOS driving node QB (stressed while
        the cell stores '0').
        """
        half_a = HalfCell(
            pull_up=self.pull_up.with_vth_shift(delta_vth_a),
            pull_down=self.pull_down,
            access=self.access,
        )
        half_b = HalfCell(
            pull_up=self.pull_up.with_vth_shift(delta_vth_b),
            pull_down=self.pull_down,
            access=self.access,
        )
        return half_a, half_b


@dataclass(frozen=True)
class CellAgingCurve:
    """A sampled SNM-vs-time aging profile for one stress profile."""

    times_years: np.ndarray
    snm_volts: np.ndarray
    snm_fresh: float
    lifetime_years: float


class CharacterizationFramework:
    """Predict SNM degradation and lifetime of a 6T cell.

    Parameters
    ----------
    cell:
        Electrical cell description.
    nbti:
        Drift model. If ``calibrate_to_years`` is given the prefactor is
        re-fitted so the balanced, always-on cell (p0=0.5, Psleep=0)
        lives exactly that long.
    snm_samples:
        Butterfly sampling density.
    """

    def __init__(
        self,
        cell: SRAMCellSpec | None = None,
        nbti: NBTIModel | None = None,
        *,
        calibrate_to_years: float | None = 2.93,
        snm_samples: int = 161,
    ) -> None:
        self.cell = cell if cell is not None else SRAMCellSpec()
        self.snm_samples = snm_samples
        self.nbti = nbti if nbti is not None else NBTIModel()
        self._critical: dict[tuple[float, float], tuple[float, float]] = {}
        self._snm_fresh = self.snm(0.0, 0.0)
        if self._snm_fresh <= 0:
            raise ModelError(
                "fresh cell has zero read SNM; check cell sizing (cell ratio)"
            )
        if calibrate_to_years is not None:
            self.calibrate(calibrate_to_years)

    # ------------------------------------------------------------------
    # Post-stress phase
    # ------------------------------------------------------------------
    @property
    def snm_fresh(self) -> float:
        """Read SNM of the un-degraded cell, volts."""
        return self._snm_fresh

    @property
    def snm_failure_threshold(self) -> float:
        """SNM value below which the cell is considered dead."""
        return (1.0 - SNM_FAILURE_FRACTION) * self._snm_fresh

    def snm(self, delta_vth_a: float, delta_vth_b: float) -> float:
        """Read SNM with the given pull-up degradations annotated."""
        return float(self.snms([delta_vth_a], [delta_vth_b])[0])

    def snms(
        self,
        deltas_a: Sequence[float] | np.ndarray,
        deltas_b: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Read SNM for each pair of pull-up degradations, in one batch."""
        cells = [
            self.cell.half_cells(float(delta_a), float(delta_b))
            for delta_a, delta_b in zip(deltas_a, deltas_b, strict=True)
        ]
        return read_snm_batch(cells, self.cell.vdd, samples=self.snm_samples)

    # ------------------------------------------------------------------
    # Pre-stress phase
    # ------------------------------------------------------------------
    def device_duties(self, p0: float) -> tuple[float, float]:
        """Stress duties of the two pull-ups for a '0'-probability ``p0``.

        The PMOS driving Q has QB on its gate and is stressed while the
        cell stores '1' (duty ``1 - p0``); the PMOS driving QB is
        stressed while it stores '0' (duty ``p0``). Best case is p0=0.5
        where both degrade equally (Kumar et al., ISQED'06).
        """
        if not 0.0 <= p0 <= 1.0:
            raise ModelError(f"p0 must be in [0,1], got {p0}")
        return 1.0 - p0, p0

    def _shifts_at(self, t_years: float, p0: float, psleep: float) -> tuple[float, float]:
        """Pull-up shifts after ``t_years`` of operation under the profile."""
        duty_a, duty_b = self.device_duties(p0)
        t = years_to_seconds(t_years)
        return (
            float(self.nbti.delta_vth(t, duty_a, psleep)),
            float(self.nbti.delta_vth(t, duty_b, psleep)),
        )

    def snm_at(self, t_years: float, p0: float = 0.5, psleep: float = 0.0) -> float:
        """Read SNM after ``t_years`` of operation under the given profile."""
        return self.snm(*self._shifts_at(t_years, p0, psleep))

    def aging_curve(
        self,
        p0: float = 0.5,
        psleep: float = 0.0,
        horizon_years: float = 12.0,
        points: int = 25,
    ) -> CellAgingCurve:
        """Sample SNM(t) and report the lifetime for one stress profile.

        Every time sample is solved in one batch.
        """
        times = np.linspace(0.0, horizon_years, points)
        shifts = [self._shifts_at(float(t), p0, psleep) for t in times]
        return CellAgingCurve(
            times_years=times,
            snm_volts=self.snms([a for a, _ in shifts], [b for _, b in shifts]),
            snm_fresh=self._snm_fresh,
            lifetime_years=self.lifetime_years(p0, psleep),
        )

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def _shift_ratios(self, p0: float) -> tuple[float, float]:
        """Fixed ratio of the two pull-up shifts at ``p0``, the larger 1.

        Because both devices follow ``(α·t)^n``, their shifts stay in the
        ratio ``(duty_a/duty_b)^n`` at every time.
        """
        duty_a, duty_b = self.device_duties(p0)
        n = self.nbti.time_exponent
        ratio_a = duty_a**n
        ratio_b = duty_b**n
        norm = max(ratio_a, ratio_b)
        if norm == 0.0:
            raise ModelError("both devices unstressed; lifetime is infinite")
        return ratio_a / norm, ratio_b / norm

    def failing_scales(
        self,
        ratio_a: np.ndarray,
        ratio_b: np.ndarray,
        *,
        offset: np.ndarray | float = 0.0,
        hi: float = 0.05,
        bracket: bool = True,
        iters: int = 60,
    ) -> np.ndarray:
        """Scale at which each row's read SNM falls to the failure threshold.

        Row ``r`` annotates the pull-up shifts ``offset[r] + s·ratio_a[r]``
        and ``offset[r] + s·ratio_b[r]``; its SNM must decrease in ``s``.
        All rows bisect ``[0, hi]`` ``iters`` times in lockstep, one
        batched SNM solve per step. With ``bracket``, each row's upper
        end first doubles from ``hi`` until the row fails there; rows
        already bracketed are masked out of later doubling solves.
        """
        target = self.snm_failure_threshold
        offsets = np.broadcast_to(np.asarray(offset, dtype=float), ratio_a.shape)

        def survives(scale: np.ndarray, rows: np.ndarray) -> np.ndarray:
            shift_a = offsets[rows] + scale * ratio_a[rows]
            shift_b = offsets[rows] + scale * ratio_b[rows]
            return self.snms(shift_a, shift_b) > target

        upper = np.full(ratio_a.shape, hi)
        pending = np.arange(upper.size) if bracket else np.arange(0)
        while pending.size:
            pending = pending[survives(upper[pending], pending)]
            upper[pending] *= 2.0
            if np.any(upper > self.cell.vdd):
                raise CalibrationError(
                    "SNM never degrades to the failure threshold; "
                    "cell model is insensitive to pull-up Vth"
                )
        every = np.arange(upper.size)
        lower = np.zeros_like(upper)
        for _ in range(iters):
            mid = 0.5 * (lower + upper)
            alive = survives(mid, every)
            lower = np.where(alive, mid, lower)
            upper = np.where(alive, upper, mid)
        return 0.5 * (lower + upper)

    def critical_shifts(
        self, p0s: Sequence[float] | np.ndarray
    ) -> list[tuple[float, float]]:
        """Pull-up shifts (ΔVth_a, ΔVth_b) at which the SNM hits −20%, per p0.

        The shifts at one ``p0`` keep the fixed ratio of
        :meth:`_shift_ratios`, so each ``p0`` needs one common scale,
        bracketed by doubling from 0.05 V and bisected 60 times. Every
        ``p0`` not yet memoized is solved together by
        :meth:`failing_scales`; results are memoized by
        ``(p0, time exponent)``.
        """
        exponent = self.nbti.time_exponent
        keys = [(float(p0), exponent) for p0 in p0s]
        todo = [key for key in dict.fromkeys(keys) if key not in self._critical]
        if todo:
            ratios = np.array([self._shift_ratios(p0) for p0, _ in todo])
            scales = self.failing_scales(ratios[:, 0], ratios[:, 1])
            for key, (ratio_a, ratio_b), scale in zip(todo, ratios, scales):
                self._critical[key] = (float(scale * ratio_a), float(scale * ratio_b))
        return [self._critical[key] for key in keys]

    def critical_shift(self, p0: float = 0.5) -> tuple[float, float]:
        """Pull-up shifts (ΔVth_a, ΔVth_b) at which the SNM hits −20%."""
        return self.critical_shifts([p0])[0]

    def lifetime_years(self, p0: float = 0.5, psleep: float = 0.0) -> float:
        """Years until the read SNM has degraded by 20%.

        Exploits the exact time-scaling property described in the module
        docstring: the failing shift of the *more stressed* device is
        found once, then inverted through the drift law with the sleep
        factor applied.
        """
        duty_a, duty_b = self.device_duties(p0)
        shift_a, shift_b = self.critical_shift(p0)
        # Invert through the dominant (more stressed) device — both give
        # the same answer since the shifts share the same time scale.
        if duty_b >= duty_a:
            seconds = self.nbti.time_to_reach(shift_b, duty_b, psleep)
        else:
            seconds = self.nbti.time_to_reach(shift_a, duty_a, psleep)
        return seconds_to_years(seconds)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, target_years: float, p0: float = 0.5) -> None:
        """Fit the NBTI prefactor so lifetime(p0, sleep=0) == target.

        The paper's reference: "the lifetime of a standard memory cell is
        2.93 years" in the ST 45nm technology.
        """
        duty_a, duty_b = self.device_duties(p0)
        shift_a, shift_b = self.critical_shift(p0)
        if duty_b >= duty_a:
            self.nbti = self.nbti.calibrated_prefactor(shift_b, target_years, duty_b)
        else:
            self.nbti = self.nbti.calibrated_prefactor(shift_a, target_years, duty_a)
        achieved = self.lifetime_years(p0, 0.0)
        if abs(achieved - target_years) > 1e-6 * target_years:
            raise CalibrationError(
                f"calibration failed: achieved {achieved} vs target {target_years}"
            )
