"""Process variation on top of NBTI aging.

The paper's lifetime numbers are for a nominal cell; real arrays carry
random Vth variation (the paper's reference [1], Alam, is explicitly
about *reliability- and process-variation aware* design). A cell whose
pull-ups start with a higher |Vth| begins life closer to the SNM failure
threshold and dies sooner; a bank's lifetime is its *weakest* cell's.

:class:`VariationModel` layers this on the characterization framework:

1. characterize once how the critical NBTI shift shrinks as the initial
   pull-up Vth offset grows (a small grid of butterfly evaluations,
   interpolated);
2. convert an offset sample into a lifetime scale factor via the drift
   law (lifetime ∝ critical_shift ** (1/n));
3. Monte-Carlo the minimum over N cells to get bank/cache lifetime
   distributions and yield-style percentiles.

This quantifies a real limit of the paper's headline: with variation,
idleness balancing still buys the same *relative* improvement, but the
absolute lifetimes drop with array size (min over more cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aging.cell import CharacterizationFramework
from repro.errors import ModelError


@dataclass(frozen=True)
class LifetimeDistribution:
    """Summary of a Monte-Carlo lifetime population (years)."""

    samples: np.ndarray

    @property
    def mean(self) -> float:
        """Mean lifetime."""
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        """Standard deviation."""
        return float(self.samples.std())

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100])."""
        return float(np.percentile(self.samples, q))

    @property
    def yield_lifetime(self) -> float:
        """The 1st-percentile lifetime — a 99%-yield design point."""
        return self.percentile(1.0)


class VariationModel:
    """Monte-Carlo lifetime under random pull-up Vth variation.

    Parameters
    ----------
    framework:
        Calibrated characterization framework (nominal cell).
    sigma_vth:
        Standard deviation of the per-cell pull-up Vth offset, volts
        (each cell draws one offset applied to both pull-ups — the
        within-cell mismatch component is second-order for lifetime).
        The default 10 mV models the cell-to-cell systematic component;
        because lifetime goes as the 6th power of the remaining SNM
        margin, even this modest sigma dominates the weak tail of large
        arrays — the relative gains of idleness balancing survive, but
        absolute lifetimes drop with array size.
    offset_grid_points:
        Resolution of the offset → critical-shift characterization.
    """

    def __init__(
        self,
        framework: CharacterizationFramework | None = None,
        sigma_vth: float = 0.01,
        offset_grid_points: int = 7,
    ) -> None:
        if sigma_vth < 0:
            raise ModelError("sigma_vth must be non-negative")
        if offset_grid_points < 3:
            raise ModelError("need at least 3 offset grid points")
        self.framework = framework if framework is not None else CharacterizationFramework()
        self.sigma_vth = sigma_vth
        self._offsets, self._scales = self._characterize(offset_grid_points)

    # ------------------------------------------------------------------
    def _characterize(self, points: int) -> tuple[np.ndarray, np.ndarray]:
        """Tabulate lifetime scale factor vs initial Vth offset.

        For an offset ``d`` the failure criterion is still -20% of the
        *nominal fresh* SNM (the array is screened against the nominal
        spec), so a degraded-at-birth cell has less margin to burn:
        critical_shift(d) < critical_shift(0). The lifetime scales as
        ``(crit(d)/crit(0)) ** (1/n)`` through the drift law.
        """
        fw = self.framework
        span = max(4.0 * self.sigma_vth, 0.04)
        offsets = np.linspace(0.0, span, points)

        # Bisect, for every offset at once, the additional NBTI shift that
        # kills a cell whose pull-ups start at vth + offset; a cell already
        # below the threshold at birth has none left.
        alive = fw.snms(offsets, offsets) > fw.snm_failure_threshold
        both = np.ones(int(alive.sum()))
        crits_arr = np.zeros(points)
        crits_arr[alive] = fw.failing_scales(
            both, both, offset=offsets[alive], hi=1.0, bracket=False, iters=40
        )
        reference = crits_arr[0]
        if reference <= 0:
            raise ModelError("nominal cell fails at time zero")
        exponent = 1.0 / self.framework.nbti.time_exponent
        scales = (crits_arr / reference) ** exponent
        return offsets, scales

    def lifetime_scale(self, offset: np.ndarray | float) -> np.ndarray:
        """Lifetime scale factor(s) for initial Vth offset(s), volts.

        Negative offsets (stronger-than-nominal pull-ups) are clamped to
        the nominal scale of 1.0 — a conservative choice that keeps the
        population min dominated by the weak tail.
        """
        values = np.clip(np.asarray(offset, dtype=float), 0.0, self._offsets[-1])
        return np.interp(values, self._offsets, self._scales)

    # ------------------------------------------------------------------
    def cell_lifetimes(
        self,
        count: int,
        psleep: float,
        rng: np.random.Generator,
        p0: float = 0.5,
    ) -> np.ndarray:
        """Sample ``count`` cell lifetimes (years) at a sleep fraction."""
        if count < 1:
            raise ModelError("need at least one cell")
        nominal = self.framework.lifetime_years(p0, psleep)
        offsets = rng.normal(0.0, self.sigma_vth, size=count)
        return nominal * self.lifetime_scale(offsets)

    def bank_lifetime_distribution(
        self,
        cells_per_bank: int,
        psleep: float,
        samples: int = 200,
        seed: int = 2011,
        p0: float = 0.5,
    ) -> LifetimeDistribution:
        """Monte-Carlo the lifetime of a bank (min over its cells)."""
        _check_monte_carlo(cells_per_bank, samples)
        rng = np.random.default_rng(seed)
        nominal = self.framework.lifetime_years(p0, psleep)
        minima = np.empty(samples)
        for i in range(samples):
            offsets = rng.normal(0.0, self.sigma_vth, size=cells_per_bank)
            minima[i] = nominal * float(self.lifetime_scale(offsets).min())
        return LifetimeDistribution(samples=minima)

    def cache_lifetime_distribution(
        self,
        sleep_fractions,
        cells_per_bank: int,
        samples: int = 200,
        seed: int = 2011,
    ) -> LifetimeDistribution:
        """Monte-Carlo the cache lifetime: min over banks of min over cells."""
        _check_monte_carlo(cells_per_bank, samples)
        rng = np.random.default_rng(seed)
        nominals = [
            self.framework.lifetime_years(0.5, float(ps)) for ps in sleep_fractions
        ]
        if not nominals:
            raise ModelError("need at least one bank")
        minima = np.empty(samples)
        for i in range(samples):
            worst = np.inf
            for nominal in nominals:
                offsets = rng.normal(0.0, self.sigma_vth, size=cells_per_bank)
                worst = min(worst, nominal * float(self.lifetime_scale(offsets).min()))
            minima[i] = worst
        return LifetimeDistribution(samples=minima)


def _check_monte_carlo(cells_per_bank: int, samples: int) -> None:
    """Reject Monte-Carlo sizes that would leave nothing to take a minimum of."""
    if cells_per_bank < 1:
        raise ModelError("need at least one cell per bank")
    if samples < 1:
        raise ModelError("need at least one Monte-Carlo sample")
