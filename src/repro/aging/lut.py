"""Lifetime lookup table — the interface between cell physics and the
cache simulator.

Section IV-A: *"the aging curves are profiled and the lifetime of the
cell calculated. The collected data are stored in a lookup table, which
is used by the cache simulator to estimate the aging of the cache banks,
and thus, of the entire cache."*

:class:`LifetimeLUT` tabulates lifetime over a (p0, Psleep) grid using a
:class:`~repro.aging.cell.CharacterizationFramework` and answers queries
with bilinear interpolation. Filling the table needs one critical-shift
bisection per p0 value; all of them run in lockstep, one batched
butterfly solve per step, and the framework memoizes each result, so the
p0 = 0.5 row reuses the bisection its calibration already ran. The
table is bit-identical to bisecting each p0 on its own, at a fraction of
the per-call overhead, and :meth:`LifetimeLUT.default` builds it once
per process.
"""

from __future__ import annotations

import numpy as np

from repro.aging.cell import CharacterizationFramework
from repro.errors import ModelError

_DEFAULT_LUT: "LifetimeLUT | None" = None


class LifetimeLUT:
    """Bilinear-interpolated (p0, Psleep) → lifetime-in-years table.

    Parameters
    ----------
    framework:
        Characterization framework used to fill the table.
    p0_points, psleep_points:
        Grid densities. Psleep is sampled more densely because the cache
        simulator queries it with measured sleep fractions; p0 is
        typically pinned at 0.5 for caches (data is value-balanced at the
        granularity of whole banks).

    Notes
    -----
    Lifetime diverges as (p0, Psleep) → stress-free corners; the table
    clips Psleep to ``psleep_max`` (default 0.9999) which corresponds to
    the paper's "virtually asleep all the time" banks.
    """

    def __init__(
        self,
        framework: CharacterizationFramework | None = None,
        p0_points: int = 11,
        psleep_points: int = 41,
        psleep_max: float = 0.9999,
    ) -> None:
        if p0_points < 2 or psleep_points < 2:
            raise ModelError("LUT needs at least a 2x2 grid")
        if not 0.0 < psleep_max < 1.0:
            raise ModelError("psleep_max must lie strictly inside (0, 1)")
        self.framework = framework if framework is not None else CharacterizationFramework()
        self.p0_grid = np.linspace(0.0, 1.0, p0_points)
        self.psleep_grid = np.linspace(0.0, psleep_max, psleep_points)
        self.table = self._build()

    def _build(self) -> np.ndarray:
        """Fill the grid.

        One butterfly bisection is needed per p0 value, all bisected
        together; the Psleep axis is then filled through the drift law's
        exact time-scaling (see :mod:`repro.aging.cell`).
        """
        fw = self.framework
        # One lockstep bisection for the whole p0 axis; the lifetimes
        # below read its memoized shifts.
        fw.critical_shifts(self.p0_grid)
        eta = fw.nbti.sleep_recovery_efficiency
        table = np.empty((self.p0_grid.size, self.psleep_grid.size))
        for i, p0 in enumerate(self.p0_grid):
            base = fw.lifetime_years(float(p0), 0.0)
            # Exact scaling: lifetime(psleep) = base / (1 - eta * psleep).
            table[i, :] = base / (1.0 - eta * self.psleep_grid)
        return table

    def lifetime_years(self, p0: float, psleep: float) -> float:
        """Interpolate the lifetime for the given stress profile."""
        if not 0.0 <= p0 <= 1.0:
            raise ModelError(f"p0 must be in [0,1], got {p0}")
        if not 0.0 <= psleep <= 1.0:
            raise ModelError(f"psleep must be in [0,1], got {psleep}")
        ps = min(psleep, float(self.psleep_grid[-1]))

        i = int(np.clip(np.searchsorted(self.p0_grid, p0) - 1, 0, self.p0_grid.size - 2))
        j = int(
            np.clip(np.searchsorted(self.psleep_grid, ps) - 1, 0, self.psleep_grid.size - 2)
        )
        x0, x1 = self.p0_grid[i], self.p0_grid[i + 1]
        y0, y1 = self.psleep_grid[j], self.psleep_grid[j + 1]
        tx = (p0 - x0) / (x1 - x0)
        ty = (ps - y0) / (y1 - y0)
        f00, f01 = self.table[i, j], self.table[i, j + 1]
        f10, f11 = self.table[i + 1, j], self.table[i + 1, j + 1]
        return float(
            f00 * (1 - tx) * (1 - ty)
            + f10 * tx * (1 - ty)
            + f01 * (1 - tx) * ty
            + f11 * tx * ty
        )

    def lifetime_years_batch(self, p0: float, psleep: np.ndarray) -> np.ndarray:
        """Vectorized lifetime query for many sleep fractions at one p0.

        Used by the fine-grain simulator, which needs one lifetime per
        cache *line*. Interpolates linearly along the Psleep axis of the
        row pair bracketing ``p0`` (same arithmetic as
        :meth:`lifetime_years`, batched).
        """
        if not 0.0 <= p0 <= 1.0:
            raise ModelError(f"p0 must be in [0,1], got {p0}")
        values = np.asarray(psleep, dtype=float)
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ModelError("psleep values must be in [0,1]")
        clipped = np.minimum(values, self.psleep_grid[-1])

        i = int(np.clip(np.searchsorted(self.p0_grid, p0) - 1, 0, self.p0_grid.size - 2))
        x0, x1 = self.p0_grid[i], self.p0_grid[i + 1]
        tx = (p0 - x0) / (x1 - x0)
        row = (1.0 - tx) * self.table[i, :] + tx * self.table[i + 1, :]
        return np.interp(clipped, self.psleep_grid, row)

    @classmethod
    def default(cls) -> "LifetimeLUT":
        """Return the memoised LUT for the default 45nm cell."""
        global _DEFAULT_LUT
        if _DEFAULT_LUT is None:
            _DEFAULT_LUT = cls()
        return _DEFAULT_LUT
