"""Vectorized simulator for the line-granularity template.

Per-line idle accounting follows the same sleep rule as the bank-level
Block Control (sleep after `breakeven` idle cycles, i.e. a gap ``g``
earns ``g - breakeven`` sleep cycles when ``g > breakeven``), applied to
every one of the L lines. The whole computation is done with sorted
segment arithmetic and ``bincount`` — no per-line Python loop — so a
1024-line cache over a million-cycle trace simulates in milliseconds.

Re-indexing here permutes the *full* n-bit index:

* probing: ``index' = (index + R) mod L``;
* scrambling: ``index' = index XOR word`` (word from the shared LFSR).

Both are bijections, so within an epoch hit/miss behaviour can be
tracked on the logical index (the simulator flushes on update, exactly
like the banked cache): the fast engine's direct-mapped tracker
(:class:`~repro.core.fastsim._DirectMappedTracker`) counts hits and
flush invalidations over the epochs the shared
:class:`~repro.core.plan.TracePlan` brackets, one line per "set".

Two front doors share one measurement pass:

* :meth:`FineGrainSimulator.run` — the classic per-line
  :class:`FineGrainResult` view;
* :meth:`FineGrainSimulator.measure` — the raw integer counters (one
  :class:`~repro.power.idleness.BankIdleStats` per *line*), which is
  what the ``finegrain`` engine adapter
  (:mod:`repro.finegrain.engine`) assembles into a standard
  :class:`~repro.core.results.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aging.lut import LifetimeLUT
from repro.core.fastsim import _DirectMappedTracker
from repro.core.plan import TracePlan, ensure_plan
from repro.finegrain.model import FineGrainConfig
from repro.hw.lfsr import GaloisLFSR
from repro.power.idleness import (
    BankIdleStats,
    batch_stats_from_gaps,
    idle_gaps_from_sorted_accesses,
)
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FineGrainMeasurement:
    """Integer counters of one fine-grain run (lines are the domains).

    Attributes
    ----------
    line_stats:
        One :class:`BankIdleStats` per line (``total_cycles`` is the
        trace horizon for every line).
    hits, misses, updates_applied:
        Functional counters.
    flush_invalidations:
        Valid lines dropped by update-induced flushes.
    breakeven:
        The per-line breakeven actually used for the accounting.
    """

    line_stats: tuple[BankIdleStats, ...]
    hits: int
    misses: int
    updates_applied: int
    flush_invalidations: int
    breakeven: int


@dataclass(frozen=True)
class FineGrainResult:
    """Measurements of one fine-grain run.

    Attributes
    ----------
    line_sleep_fraction:
        Per-line useful idleness (length L array).
    line_accesses:
        Per-line access counts.
    hits, misses, updates_applied:
        Functional counters.
    energy_pj, baseline_energy_pj:
        Managed and unmanaged-monolithic energies.
    lifetime_years:
        Cache lifetime = the worst line's lifetime.
    line_lifetimes_years:
        Per-line lifetimes (length L array).
    """

    line_sleep_fraction: np.ndarray
    line_accesses: np.ndarray
    hits: int
    misses: int
    updates_applied: int
    energy_pj: float
    baseline_energy_pj: float
    lifetime_years: float
    line_lifetimes_years: np.ndarray

    @property
    def energy_savings(self) -> float:
        """Fractional saving vs the unmanaged monolithic baseline.

        Guarded like :attr:`hit_rate`: a degenerate run with zero
        baseline energy (empty trace over a zero-cycle horizon) reports
        zero saving instead of dividing by zero.
        """
        if self.baseline_energy_pj == 0:
            return 0.0
        return 1.0 - self.energy_pj / self.baseline_energy_pj

    @property
    def hit_rate(self) -> float:
        """Hit rate over the run."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def idleness_spread(self) -> float:
        """Max - min per-line sleep fraction (0 for perfect uniformity)."""
        return float(self.line_sleep_fraction.max() - self.line_sleep_fraction.min())


class FineGrainSimulator:
    """Trace-driven simulator for :class:`FineGrainConfig`.

    An optional shared :class:`~repro.core.plan.TracePlan` supplies the
    cached address decode and epoch bracketing (the layers this
    simulator has in common with the banked engines); results are
    identical with or without one.
    """

    def __init__(
        self,
        config: FineGrainConfig,
        lut: LifetimeLUT | None = None,
        plan: TracePlan | None = None,
    ) -> None:
        self.config = config
        # Resolved lazily: the measurement pass (measure()) never needs
        # the LUT, so building the default one is deferred to run().
        self.lut = lut
        self.plan = plan

    # ------------------------------------------------------------------
    def _remap(self, index: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Physical line of every access: epoch ``e`` (trace positions
        ``starts[e]:starts[e + 1]``) sees ``e`` updates of the policy."""
        config = self.config
        num_lines = config.geometry.num_lines
        n_bits = config.geometry.index_bits
        if len(starts) == 2:
            return index
        physical = np.empty_like(index)
        lfsr = GaloisLFSR(16, seed=0xACE1) if config.policy == "scrambling" else None
        offset = 0
        word = 0
        for epoch in range(len(starts) - 1):
            if epoch > 0:
                if config.policy == "probing":
                    offset = (offset + 1) % num_lines
                else:
                    assert lfsr is not None
                    lfsr.step()
                    word = lfsr.low_bits(min(n_bits, lfsr.width))
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if config.policy == "probing":
                physical[lo:hi] = (index[lo:hi] + offset) % num_lines
            else:
                physical[lo:hi] = index[lo:hi] ^ word
        return physical

    # ------------------------------------------------------------------
    def measure(self, trace: Trace, breakeven: int | None = None) -> FineGrainMeasurement:
        """Run the measurement pass and return the per-line counters.

        ``breakeven`` overrides the config-derived per-line breakeven
        (the engine adapter uses this to model an unmanaged cache as one
        whose breakeven exceeds the horizon).
        """
        config = self.config
        geometry = config.geometry
        num_lines = geometry.num_lines
        if breakeven is None:
            breakeven = config.breakeven()
        horizon = trace.horizon

        plan = ensure_plan(self.plan, trace)
        index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)

        boundaries, starts = plan.epoch_starts(config)
        # The logical index identifies the line within an epoch (the
        # remap is a bijection), and each update flushes the cache.
        tracker = _DirectMappedTracker(num_lines)
        tracker.advance(index, tag, starts)
        physical = self._remap(index, starts)

        line_stats = _per_line_stats(
            physical, trace.cycles, num_lines, breakeven, horizon
        )
        return FineGrainMeasurement(
            line_stats=tuple(line_stats),
            hits=tracker.hits,
            misses=len(trace) - tracker.hits,
            updates_applied=len(boundaries),
            flush_invalidations=tracker.flush_invalidations,
            breakeven=breakeven,
        )

    def run(self, trace: Trace) -> FineGrainResult:
        """Simulate ``trace`` and return the per-line measurements."""
        config = self.config
        num_lines = config.geometry.num_lines
        horizon = trace.horizon
        measurement = self.measure(trace)
        sleep, transitions, accesses = _stats_arrays(measurement.line_stats)

        model = config.make_energy_model()
        energy = model.total_energy(
            accesses=len(trace),
            total_cycles=horizon,
            total_sleep_cycles=int(sleep.sum()),
            total_transitions=int(transitions.sum()),
        )
        baseline = model.baseline_energy(len(trace), horizon)

        sleep_fraction = sleep / float(horizon) if horizon else np.zeros(num_lines)
        lut = self.lut if self.lut is not None else LifetimeLUT.default()
        lifetimes = lut.lifetime_years_batch(0.5, sleep_fraction)
        return FineGrainResult(
            line_sleep_fraction=sleep_fraction,
            line_accesses=accesses,
            hits=measurement.hits,
            misses=measurement.misses,
            updates_applied=measurement.updates_applied,
            energy_pj=energy,
            baseline_energy_pj=baseline,
            lifetime_years=float(lifetimes.min()),
            line_lifetimes_years=lifetimes,
        )


def _per_line_stats(
    physical: np.ndarray,
    cycles: np.ndarray,
    num_lines: int,
    breakeven: int,
    horizon: int,
) -> list[BankIdleStats]:
    """Full per-line idleness stats, fully vectorized.

    A line here is a "bank" of the shared
    :func:`~repro.power.idleness.idle_gaps_from_sorted_accesses` kernel,
    so the interior/leading/trailing/never-touched gap semantics (busy
    at cycle -1, trailing gap to ``horizon``) exist in exactly one
    place, and the thresholding is the same integer-exact
    :func:`~repro.power.idleness.batch_stats_from_gaps` the banked fast
    engine uses.
    """
    order = np.argsort(physical, kind="stable")
    lines_sorted = physical[order]
    splits = np.searchsorted(lines_sorted, np.arange(num_lines + 1))
    gaps = idle_gaps_from_sorted_accesses(cycles[order], splits, 0, horizon)
    return batch_stats_from_gaps(gaps, [breakeven])[0]


def _per_line_sleep(
    physical: np.ndarray,
    cycles: np.ndarray,
    num_lines: int,
    breakeven: int,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array view of :func:`_per_line_stats`: (sleep, transitions, accesses).

    Kept as the kernel-oracle interface the per-line accounting tests
    differentially check against an
    :class:`~repro.power.idleness.IdlenessAccountant` driven with one
    "bank" per line.
    """
    stats = _per_line_stats(physical, cycles, num_lines, breakeven, horizon)
    return _stats_arrays(stats)


def _stats_arrays(stats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sleep, transitions, accesses) int64 arrays from per-line stats."""
    sleep = np.array([s.sleep_cycles for s in stats], dtype=np.int64)
    transitions = np.array([s.transitions for s in stats], dtype=np.int64)
    accesses = np.array([s.accesses for s in stats], dtype=np.int64)
    return sleep, transitions, accesses
