"""Lifetime lookup table — the interface between cell physics and the
cache simulator.

Section IV-A: *"the aging curves are profiled and the lifetime of the
cell calculated. The collected data are stored in a lookup table, which
is used by the cache simulator to estimate the aging of the cache banks,
and thus, of the entire cache."*

:class:`LifetimeLUT` tabulates lifetime over a (p0, Psleep) grid using a
:class:`~repro.aging.cell.CharacterizationFramework` and answers queries
with bilinear interpolation, one vectorised formula
(:meth:`LifetimeLUT.lifetime_years_batch`) for a single sleep fraction
and for a whole cache's banks or lines alike. Each p0 row needs one
critical-shift bisection, and a row is filled the first time a query
reads it. A query that lands exactly on a grid p0 above the first gives
the row below it zero weight, so it reads only its own row. Every cache
query sits at p0 = 0.5, whose bisection calibration has already run and
the framework memoizes, so answering it bisects nothing. Reading the
whole :attr:`LifetimeLUT.table` bisects the missing rows in lockstep,
one batched butterfly solve per step. A row bisected on its own is
bit-identical to the same row bisected in lockstep, so the table and
every query are the same whichever rows were filled first, and
:meth:`LifetimeLUT.default` shares one LUT per process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.aging.cell import CharacterizationFramework
from repro.errors import ModelError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

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
        # Rows filled so far, by p0 index. A row is stored only once it
        # is complete, so threads sharing the LUT never read half a row;
        # two threads filling the same row store equal values.
        self._rows: dict[int, np.ndarray] = {}

    @property
    def table(self) -> np.ndarray:
        """The full (p0, Psleep) lifetime grid, as a fresh array.

        Rows no query has read yet are bisected together in one lockstep
        call; each is identical to the row a query would have filled.
        """
        self.framework.critical_shifts(self.p0_grid)
        return np.array([self._row(k) for k in range(self.p0_grid.size)])

    def _row(self, k: int) -> np.ndarray:
        """Row ``k`` of the table, filled on first use.

        The Psleep axis follows from one sleep-free lifetime through the
        drift law's exact time-scaling (see :mod:`repro.aging.cell`).
        """
        row = self._rows.get(k)
        if row is None:
            fw = self.framework
            base = fw.lifetime_years(float(self.p0_grid[k]), 0.0)
            # Exact scaling: lifetime(psleep) = base / (1 - eta * psleep).
            row = base / (1.0 - fw.nbti.sleep_recovery_efficiency * self.psleep_grid)
            self._rows[k] = row
        return row

    def lifetime_years(self, p0: float, psleep: float) -> float:
        """Interpolate the lifetime for the given stress profile."""
        return float(self.lifetime_years_batch(p0, [psleep])[0])

    def lifetime_years_batch(self, p0: float, psleep: ArrayLike) -> np.ndarray:
        """Bilinear lifetimes for many sleep fractions at one p0.

        The one query formula of the table: :meth:`lifetime_years` is a
        one-element call of it, and bank- and line-level lifetimes
        (:func:`repro.aging.lifetime.bank_lifetimes_years`, the
        fine-grain simulator) ask it once per result. Each element goes
        through the scalar recipe's operations in the scalar's order:
        clip to ``psleep_max``, bracket with ``searchsorted``, then
        ``f00*(1-tx)*(1-ty) + f10*tx*(1-ty) + f01*(1-tx)*ty + f11*tx*ty``
        left to right. numpy's elementwise float64 ``+ - * /`` round
        exactly like Python float arithmetic (no fused multiply-add), so
        element ``k`` equals the scalar expression evaluated at
        ``psleep[k]`` bit for bit.

        Raises
        ------
        ModelError
            If ``p0`` or any sleep fraction lies outside [0, 1] (NaN
            included).
        """
        if not 0.0 <= p0 <= 1.0:
            raise ModelError(f"p0 must be in [0,1], got {p0}")
        values = np.asarray(psleep, dtype=float)
        # Written so that NaN fails it: every comparison with NaN is False.
        inside = (values >= 0.0) & (values <= 1.0)
        if not inside.all():
            bad = values[~inside][0]
            raise ModelError(f"psleep must be in [0,1], got {bad}")
        ps = np.minimum(values, self.psleep_grid[-1])

        # Bracketing cells, clamped to the grid's last cell (integer
        # min/max: the same indices np.clip would give, without its
        # per-call wrapper overhead).
        i = min(max(int(np.searchsorted(self.p0_grid, p0)) - 1, 0), self.p0_grid.size - 2)
        j = np.minimum(
            np.maximum(np.searchsorted(self.psleep_grid, ps) - 1, 0),
            self.psleep_grid.size - 2,
        )
        j1 = j + 1
        x0, x1 = self.p0_grid[i], self.p0_grid[i + 1]
        y0, y1 = self.psleep_grid[j], self.psleep_grid[j1]
        tx = (p0 - x0) / (x1 - x0)
        ty = (ps - y0) / (y1 - y0)
        # A p0 on any grid node but the first gives tx == 1.0, so row i
        # has weight zero: its terms are zero for any finite row, and
        # reading row i + 1 in its place changes no bit and leaves row i
        # unfilled.
        row1 = self._row(i + 1)
        row0 = row1 if tx == 1.0 else self._row(i)
        f00, f01 = row0[j], row0[j1]
        f10, f11 = row1[j], row1[j1]
        # (1 - tx) and (1 - ty) are each one rounding, so naming them
        # once changes no bit of the expression below.
        sx, sy = 1 - tx, 1 - ty
        return f00 * sx * sy + f10 * tx * sy + f01 * sx * ty + f11 * tx * ty

    @classmethod
    def default(cls) -> "LifetimeLUT":
        """Return the memoised LUT for the default 45nm cell."""
        global _DEFAULT_LUT
        if _DEFAULT_LUT is None:
            _DEFAULT_LUT = cls()
        return _DEFAULT_LUT
