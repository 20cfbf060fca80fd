"""Bank- and cache-level lifetime computation.

The cache simulator measures, for every physical bank, the fraction of
time spent in the drowsy state (``Psleep``). This module converts those
fractions into lifetimes:

* every *cell* in a bank shares the bank's sleep profile, so the bank's
  lifetime is the cell lifetime at (p0, Psleep_bank);
* the *cache* lifetime is the minimum over banks — the paper stresses
  that power is cumulative but **aging is a worst-case quantity**
  (Section V): the first bank to become unreliable kills the cache.

:class:`LinearizedLifetimeModel` exposes the closed-form relation implied
by the drift law — ``LT = base / (1 − η · Psleep)`` — which is useful for
quick analytical studies and is what the full LUT path reduces to for a
fixed p0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.aging.lut import LifetimeLUT
from repro.errors import ModelError


@dataclass(frozen=True)
class LinearizedLifetimeModel:
    """Closed-form lifetime model ``LT(I) = base / (1 - eta * I)``.

    Attributes
    ----------
    base_lifetime_years:
        Lifetime of an always-on cell (the paper's 2.93 years).
    eta:
        Fraction of the aging rate suppressed while asleep (~0.75 for the
        calibrated drowsy state).
    """

    base_lifetime_years: float = 2.93
    eta: float = 0.75

    def __post_init__(self) -> None:
        if self.base_lifetime_years <= 0:
            raise ModelError("base lifetime must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ModelError("eta must be in [0,1]")

    def lifetime_years(self, psleep: float) -> float:
        """Lifetime for a sleep fraction ``psleep``."""
        if not 0.0 <= psleep <= 1.0:
            raise ModelError(f"psleep must be in [0,1], got {psleep}")
        denom = 1.0 - self.eta * psleep
        if denom <= 0.0:
            return float("inf")
        return self.base_lifetime_years / denom

    def required_sleep(self, target_years: float) -> float:
        """Sleep fraction needed to reach ``target_years`` (inverse model)."""
        if target_years < self.base_lifetime_years:
            raise ModelError(
                "target below the base lifetime needs no sleep at all"
            )
        if self.eta == 0.0:
            raise ModelError("eta = 0: sleep does not extend lifetime")
        return min(1.0, (1.0 - self.base_lifetime_years / target_years) / self.eta)


@dataclass(frozen=True)
class CacheLifetimeReport:
    """Lifetime summary of a partitioned cache.

    Attributes
    ----------
    bank_lifetimes_years:
        Per-physical-bank lifetimes.
    cache_lifetime_years:
        ``min`` over banks (worst-case metric).
    limiting_bank:
        Index of the bank that dies first.
    """

    bank_lifetimes_years: tuple[float, ...]
    cache_lifetime_years: float
    limiting_bank: int


def bank_lifetimes_years(
    sleep_fractions: Sequence[float],
    lut: LifetimeLUT | None = None,
    p0: float = 0.5,
) -> list[float]:
    """Map per-bank sleep fractions to per-bank lifetimes via the LUT.

    One vectorised LUT query for all banks; each lifetime equals
    ``lut.lifetime_years(p0, ps)`` bit for bit (see
    :meth:`~repro.aging.lut.LifetimeLUT.lifetime_years_batch`).
    """
    table = lut if lut is not None else LifetimeLUT.default()
    return table.lifetime_years_batch(p0, sleep_fractions).tolist()


def cache_lifetime_years(
    sleep_fractions: Sequence[float],
    lut: LifetimeLUT | None = None,
    p0: float = 0.5,
) -> CacheLifetimeReport:
    """Full lifetime report for a cache with the given per-bank sleep.

    Raises
    ------
    ModelError
        If no banks are given.
    """
    if len(sleep_fractions) == 0:
        raise ModelError("cache must have at least one bank")
    lifetimes = bank_lifetimes_years(sleep_fractions, lut=lut, p0=p0)
    worst = min(range(len(lifetimes)), key=lifetimes.__getitem__)
    return CacheLifetimeReport(
        bank_lifetimes_years=tuple(lifetimes),
        cache_lifetime_years=lifetimes[worst],
        limiting_bank=worst,
    )
