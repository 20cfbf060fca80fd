"""Idle-interval accounting and the *useful idleness* metric.

Section III-A2 defines the useful idleness of a block as the share of
its idleness that can actually be converted into sleep: only idle
intervals longer than the breakeven time count, and for each such
interval the bank is asleep once the Block Control counter saturates —
i.e. for ``gap - breakeven`` of the ``gap`` idle cycles.

Three implementations are provided and tested against each other:

* :class:`IdlenessAccountant` — incremental, used by the reference
  simulator (one update per access);
* :func:`stats_from_access_cycles` — vectorized over a whole epoch of
  one bank's access cycles; the differential oracle for the batched
  kernel;
* :func:`idle_gaps_from_sorted_accesses` + :func:`batch_stats_from_gaps`
  — all banks at once from the bank-sorted access stream, broadcast
  over a *vector* of breakeven values so a breakeven sweep axis costs
  one gap computation. The fast simulator caches the gap structure per
  routing (via :meth:`repro.core.plan.TracePlan.idle_gaps`) and calls
  the thresholding half; :func:`batch_stats_from_sorted_accesses`
  composes the two for one-shot use.

A fourth, :class:`StreamingGapAccumulator`, is the carry-state variant
for chunked (out-of-core) traces: per-bank last-access cycles are
carried across chunk boundaries, counters fold incrementally, and the
finalized stats are bit-identical to the one-shot kernels over the
concatenated stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.kernels import dispatch as kernels


@dataclass
class BankIdleStats:
    """Idleness summary of one bank over a simulation.

    Attributes
    ----------
    accesses:
        Number of accesses routed to the bank.
    idle_intervals:
        Number of maximal idle gaps (including a trailing gap at the end
        of the simulation, if any).
    useful_intervals:
        Idle gaps longer than the breakeven time.
    idle_cycles:
        Total cycles with no access to the bank.
    sleep_cycles:
        Cycles actually spent in the drowsy state
        (``sum(gap - breakeven)`` over useful gaps).
    transitions:
        Sleep entries (equal to wake-ups, as the simulation ends awake
        accounting-wise).
    total_cycles:
        Length of the observation window.
    """

    accesses: int = 0
    idle_intervals: int = 0
    useful_intervals: int = 0
    idle_cycles: int = 0
    sleep_cycles: int = 0
    transitions: int = 0
    total_cycles: int = 0

    @property
    def useful_idleness(self) -> float:
        """Fraction of total time spent asleep — the paper's ``I`` metric."""
        if self.total_cycles == 0:
            return 0.0
        return self.sleep_cycles / self.total_cycles

    @property
    def idle_fraction(self) -> float:
        """Fraction of total time with no access (breakeven ignored)."""
        if self.total_cycles == 0:
            return 0.0
        return self.idle_cycles / self.total_cycles

    @property
    def useful_interval_fraction(self) -> float:
        """Count-based variant: share of idle intervals that are useful."""
        if self.idle_intervals == 0:
            return 0.0
        return self.useful_intervals / self.idle_intervals

    @property
    def active_cycles(self) -> int:
        """Cycles at full Vdd (total minus sleep)."""
        return self.total_cycles - self.sleep_cycles


class IdlenessAccountant:
    """Incremental per-bank idleness bookkeeping for the reference engine.

    Parameters
    ----------
    num_banks:
        Number of physical banks tracked.
    breakeven:
        Breakeven time in cycles (same for all banks of a uniform
        partition).
    start_cycle:
        First cycle of the observation window.

    Notes
    -----
    An access at cycle ``c`` after a previous event at cycle ``p``
    implies an idle gap of ``c - p - 1`` cycles (the access cycles
    themselves are busy). Banks are considered busy at ``start_cycle - 1``
    so a leading gap is measured like any other.
    """

    def __init__(self, num_banks: int, breakeven: int, start_cycle: int = 0) -> None:
        if num_banks < 1:
            raise SimulationError("need at least one bank")
        if breakeven < 1:
            raise SimulationError("breakeven must be >= 1 cycle")
        self.num_banks = num_banks
        self.breakeven = breakeven
        self.start_cycle = start_cycle
        self._last_event = [start_cycle - 1] * num_banks
        self._stats = [BankIdleStats() for _ in range(num_banks)]
        self._finalized = False

    def on_access(self, bank: int, cycle: int) -> bool:
        """Record an access; return True if it woke a sleeping bank."""
        if self._finalized:
            raise SimulationError("accountant already finalized")
        if not 0 <= bank < self.num_banks:
            raise SimulationError(f"bank {bank} out of range")
        last = self._last_event[bank]
        if cycle <= last:
            raise SimulationError(
                f"non-monotonic access at cycle {cycle} (last event {last})"
            )
        woke = self._close_gap(bank, cycle - last - 1)
        stats = self._stats[bank]
        stats.accesses += 1
        self._last_event[bank] = cycle
        return woke

    def _close_gap(self, bank: int, gap: int) -> bool:
        """Account one idle gap; return True if the bank had gone to sleep."""
        if gap <= 0:
            return False
        stats = self._stats[bank]
        stats.idle_intervals += 1
        stats.idle_cycles += gap
        if gap > self.breakeven:
            stats.useful_intervals += 1
            stats.sleep_cycles += gap - self.breakeven
            stats.transitions += 1
            return True
        return False

    def finalize(self, end_cycle: int) -> list[BankIdleStats]:
        """Close trailing gaps and return the per-bank stats.

        ``end_cycle`` is one past the last simulated cycle (the window is
        ``[start_cycle, end_cycle)``).
        """
        if self._finalized:
            raise SimulationError("accountant already finalized")
        total = end_cycle - self.start_cycle
        if total < 0:
            raise SimulationError("end_cycle precedes start_cycle")
        for bank in range(self.num_banks):
            self._close_gap(bank, end_cycle - self._last_event[bank] - 1)
            self._stats[bank].total_cycles = total
        self._finalized = True
        return self._stats


def stats_from_access_cycles(
    access_cycles: np.ndarray,
    breakeven: int,
    start_cycle: int,
    end_cycle: int,
) -> BankIdleStats:
    """Vectorized idleness stats for one bank over one epoch.

    Parameters
    ----------
    access_cycles:
        Strictly increasing cycle numbers of the accesses to this bank.
    breakeven:
        Breakeven time in cycles.
    start_cycle, end_cycle:
        Observation window ``[start_cycle, end_cycle)``.

    This mirrors :class:`IdlenessAccountant` exactly (tests enforce it):
    gaps are measured between consecutive accesses, plus a leading gap
    from ``start_cycle - 1`` and a trailing gap to ``end_cycle``.
    """
    cycles = np.asarray(access_cycles, dtype=np.int64)
    if cycles.size and (np.any(np.diff(cycles) <= 0)):
        raise SimulationError("access cycles must be strictly increasing")
    if cycles.size and (cycles[0] < start_cycle or cycles[-1] >= end_cycle):
        raise SimulationError("access cycles outside the observation window")

    boundaries = np.concatenate(([start_cycle - 1], cycles, [end_cycle]))
    gaps = np.diff(boundaries) - 1
    gaps = gaps[gaps > 0]
    useful = gaps[gaps > breakeven]
    return BankIdleStats(
        accesses=int(cycles.size),
        idle_intervals=int(gaps.size),
        useful_intervals=int(useful.size),
        idle_cycles=int(gaps.sum()) if gaps.size else 0,
        sleep_cycles=int((useful - breakeven).sum()) if useful.size else 0,
        transitions=int(useful.size),
        total_cycles=int(end_cycle - start_cycle),
    )


@dataclass(frozen=True)
class IdleGapStructure:
    """The breakeven-independent idle-gap view of a bank-sorted stream.

    Extracting this is the only O(accesses) part of batched idleness
    accounting; every breakeven value merely re-thresholds it. The fast
    engine caches one per routing in the trace plan, so grids whose
    points share a routing (breakeven, power-management or technology
    axes) pay for the gap pass once.
    """

    num_banks: int
    window: int
    accesses: np.ndarray
    gap_values: np.ndarray
    gap_banks: np.ndarray
    idle_intervals: np.ndarray
    idle_cycles: np.ndarray


def idle_gaps_from_sorted_accesses(
    sorted_cycles: np.ndarray,
    splits: np.ndarray,
    start_cycle: int,
    end_cycle: int,
    backend: str | None = None,
) -> IdleGapStructure:
    """Extract every bank's idle gaps from the bank-sorted stream.

    Parameters
    ----------
    sorted_cycles:
        Access cycles sorted by (bank, arrival): bank ``b`` occupies the
        slice ``sorted_cycles[splits[b]:splits[b + 1]]``, strictly
        increasing within each slice.
    splits:
        Segment boundaries, length ``num_banks + 1`` with
        ``splits[-1] == sorted_cycles.size``.
    start_cycle, end_cycle:
        Observation window ``[start_cycle, end_cycle)``.
    backend:
        Kernel backend override (see :mod:`repro.kernels.dispatch`);
        every backend produces a bit-identical structure.
    """
    cycles = np.asarray(sorted_cycles, dtype=np.int64)
    splits = np.asarray(splits, dtype=np.int64)
    num_banks = splits.size - 1
    if num_banks < 1:
        raise SimulationError("need at least one bank segment")
    window = int(end_cycle - start_cycle)
    if window < 0:
        raise SimulationError("end_cycle precedes start_cycle")
    accesses = np.diff(splits)
    if np.any(accesses < 0) or int(splits[0]) != 0 or int(splits[-1]) != cycles.size:
        raise SimulationError("splits do not partition the access stream")

    gap_values, gap_banks, accesses, idle_intervals, idle_cycles = kernels.gap_extract(
        cycles, splits, start_cycle, end_cycle, backend=backend
    )
    return IdleGapStructure(
        num_banks=num_banks,
        window=window,
        accesses=accesses,
        gap_values=gap_values,
        gap_banks=gap_banks,
        idle_intervals=idle_intervals,
        idle_cycles=idle_cycles,
    )


def batch_stats_from_gaps(
    gaps: IdleGapStructure, breakevens, backend: str | None = None
) -> list[list[BankIdleStats]]:
    """Threshold a gap structure at each breakeven: one stats list per
    breakeven, one :class:`BankIdleStats` per bank. Integer-exact.

    A ``None`` breakeven means *infinite* (no gap ever converts to
    sleep), matching :class:`StreamingGapAccumulator`; the kernels
    encode it as ``-1``.
    """
    num_banks = gaps.num_banks
    breakeven_list = [
        -1 if breakeven is None else int(breakeven) for breakeven in breakevens
    ]
    for breakeven in breakeven_list:
        if breakeven != -1 and breakeven < 1:
            raise SimulationError("breakeven must be >= 1 cycle")
    breakeven_array = np.asarray(breakeven_list, dtype=np.int64)
    useful = np.zeros((breakeven_array.size, num_banks), dtype=np.int64)
    sleep = np.zeros((breakeven_array.size, num_banks), dtype=np.int64)
    kernels.gap_threshold_batch(
        gaps.gap_values,
        gaps.gap_banks,
        num_banks,
        breakeven_array,
        useful,
        sleep,
        backend=backend,
    )
    return [
        [
            BankIdleStats(
                accesses=int(gaps.accesses[bank]),
                idle_intervals=int(gaps.idle_intervals[bank]),
                useful_intervals=int(useful[row, bank]),
                idle_cycles=int(gaps.idle_cycles[bank]),
                sleep_cycles=int(sleep[row, bank]),
                transitions=int(useful[row, bank]),
                total_cycles=gaps.window,
            )
            for bank in range(num_banks)
        ]
        for row in range(breakeven_array.size)
    ]


class StreamingGapAccumulator:
    """Carry-state idleness accounting over a chunked access stream.

    The out-of-core counterpart of
    :func:`idle_gaps_from_sorted_accesses` +
    :func:`batch_stats_from_gaps`: chunks of the bank-sorted access
    stream arrive one at a time through :meth:`update`, and the only
    state carried across chunk boundaries is each bank's last-access
    cycle — the open gap a silent bank is accumulating is implicit in
    it and is closed by the bank's next access (whenever that chunk
    arrives) or by :meth:`finalize`. Because the multiset of idle gaps
    this induces is exactly the one-shot kernel's, the finalized
    :class:`BankIdleStats` are **bit-identical** to
    :func:`batch_stats_from_sorted_accesses` over the concatenated
    stream (the streaming fuzz suite enforces this for adversarial
    chunkings, including one-cycle chunks and chunk boundaries landing
    exactly on gap edges).

    Parameters
    ----------
    num_banks:
        Number of physical banks tracked.
    breakevens:
        Vector of breakeven times to threshold at; each entry is an
        ``int >= 1`` or ``None``, where ``None`` means *infinite* (no
        gap ever converts to sleep — how an unmanaged cache is
        accounted without knowing the horizon up front).
    start_cycle:
        First cycle of the observation window.
    backend:
        Kernel backend override (see :mod:`repro.kernels.dispatch`).
    """

    def __init__(
        self,
        num_banks: int,
        breakevens,
        start_cycle: int = 0,
        backend: str | None = None,
    ) -> None:
        if num_banks < 1:
            raise SimulationError("need at least one bank")
        self.breakevens = list(breakevens)
        for breakeven in self.breakevens:
            if breakeven is not None and breakeven < 1:
                raise SimulationError("breakeven must be >= 1 cycle")
        self.num_banks = num_banks
        self.start_cycle = start_cycle
        self.backend = backend
        # -1 encodes an infinite (None) breakeven for the kernels.
        self._breakeven_array = np.asarray(
            [-1 if b is None else int(b) for b in self.breakevens], dtype=np.int64
        )
        self._last_event = np.full(num_banks, start_cycle - 1, dtype=np.int64)
        self._accesses = np.zeros(num_banks, dtype=np.int64)
        self._idle_intervals = np.zeros(num_banks, dtype=np.int64)
        self._idle_cycles = np.zeros(num_banks, dtype=np.int64)
        self._useful = np.zeros((len(self.breakevens), num_banks), dtype=np.int64)
        self._sleep = np.zeros((len(self.breakevens), num_banks), dtype=np.int64)
        self._finalized = False

    def _account_gaps(self, gap_values: np.ndarray, gap_banks: np.ndarray) -> None:
        """Fold a batch of closed gaps (already ``> 0``) into the counters."""
        if gap_values.size == 0:
            return
        self._idle_intervals += np.bincount(gap_banks, minlength=self.num_banks)
        np.add.at(self._idle_cycles, gap_banks, gap_values)
        for row, breakeven in enumerate(self.breakevens):
            if breakeven is None:
                continue
            useful = gap_values > breakeven
            banks = gap_banks[useful]
            self._useful[row] += np.bincount(banks, minlength=self.num_banks)
            np.add.at(self._sleep[row], banks, gap_values[useful] - breakeven)

    def update(self, sorted_cycles: np.ndarray, splits: np.ndarray) -> None:
        """Fold one chunk of the bank-sorted stream into the counters.

        ``sorted_cycles``/``splits`` have the layout of
        :func:`idle_gaps_from_sorted_accesses`: bank ``b`` owns the
        slice ``sorted_cycles[splits[b]:splits[b + 1]]``, strictly
        increasing within each slice and later than every cycle the
        bank has already seen.
        """
        if self._finalized:
            raise SimulationError("accumulator already finalized")
        cycles = np.asarray(sorted_cycles, dtype=np.int64)
        splits = np.asarray(splits, dtype=np.int64)
        if splits.size != self.num_banks + 1:
            raise SimulationError("splits do not match the bank count")
        counts = np.diff(splits)
        if np.any(counts < 0) or int(splits[0]) != 0 or int(splits[-1]) != cycles.size:
            raise SimulationError("splits do not partition the access stream")
        if cycles.size == 0:
            return
        kernels.stream_gap_update(
            cycles,
            splits,
            self._last_event,
            self._accesses,
            self._idle_intervals,
            self._idle_cycles,
            self._breakeven_array,
            self._useful,
            self._sleep,
            backend=self.backend,
        )

    def finalize(self, end_cycle: int) -> list[list[BankIdleStats]]:
        """Close every open gap to ``end_cycle`` and return the stats.

        One list of per-bank :class:`BankIdleStats` per breakeven, in
        the order the breakevens were given — the same shape as
        :func:`batch_stats_from_gaps`.
        """
        if self._finalized:
            raise SimulationError("accumulator already finalized")
        window = int(end_cycle - self.start_cycle)
        if window < 0:
            raise SimulationError("end_cycle precedes start_cycle")
        if np.any(self._last_event >= end_cycle):
            raise SimulationError("access cycles outside the observation window")
        trailing = end_cycle - self._last_event - 1
        banks = np.flatnonzero(trailing > 0)
        self._account_gaps(trailing[banks], banks)
        self._finalized = True
        return [
            [
                BankIdleStats(
                    accesses=int(self._accesses[bank]),
                    idle_intervals=int(self._idle_intervals[bank]),
                    useful_intervals=int(self._useful[row, bank]),
                    idle_cycles=int(self._idle_cycles[bank]),
                    sleep_cycles=int(self._sleep[row, bank]),
                    transitions=int(self._useful[row, bank]),
                    total_cycles=window,
                )
                for bank in range(self.num_banks)
            ]
            for row in range(len(self.breakevens))
        ]


def batch_stats_from_sorted_accesses(
    sorted_cycles: np.ndarray,
    splits: np.ndarray,
    breakevens,
    start_cycle: int,
    end_cycle: int,
    backend: str | None = None,
) -> list[list[BankIdleStats]]:
    """All banks' idleness stats in one pass, for a vector of breakevens.

    Convenience composition of :func:`idle_gaps_from_sorted_accesses`
    and :func:`batch_stats_from_gaps`: the idle-gap structure is
    computed once and each breakeven only re-thresholds it, so a
    breakeven sweep axis costs one gap computation. Each returned list
    is exactly equal to calling :func:`stats_from_access_cycles` per
    bank slice (tests enforce it).
    """
    gaps = idle_gaps_from_sorted_accesses(
        sorted_cycles, splits, start_cycle, end_cycle, backend=backend
    )
    return batch_stats_from_gaps(gaps, breakevens, backend=backend)
