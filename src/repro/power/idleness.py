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
  one bank's access cycles; the differential oracle;
* :class:`GapSpectrum` — all banks at once, as per-bank counts of
  idle-gap lengths. One arrival-order scan
  (:func:`repro.kernels.dispatch.stream_gap_update`) closes each gap
  against its bank's carried last-access cycle as it happens, doing
  the set → physical-bank gather of a :class:`BankRouting` itself, so
  no access is ever sorted by bank. :meth:`GapSpectrum.threshold`
  then answers a whole vector of breakevens from suffix sums,
  integer-exact, into one :class:`IdlenessTable` of integer columns.
  The fast engine caches one spectrum per routing (via
  :meth:`repro.core.plan.TracePlan.idle_gaps`).

:class:`StreamingGapAccumulator` is the same scan carried across the
chunks of a stream: per-bank last-access cycles and the spectrum
survive chunk boundaries, and the one threshold at the end is
bit-identical to the one-shot spectrum over the concatenated stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
class BankRouting:
    """A run of accesses in arrival order, and the bank each one goes to.

    Epoch ``e`` owns positions ``starts[e]:starts[e + 1]`` and sends
    access ``i`` to physical bank ``tables[e, index[i] >> shift]``: the
    routing layer hands over the set indices and one logical → physical
    table per epoch (in the narrowest unsigned dtype that holds the bank
    ids), and the gap scan does the gather. :meth:`direct` builds one
    for accesses whose banks are already known.
    """

    cycles: np.ndarray
    index: np.ndarray
    starts: np.ndarray
    tables: np.ndarray
    shift: int = 0

    @classmethod
    def direct(cls, cycles, banks, num_banks: int) -> BankRouting:
        """Accesses whose physical bank ids are ``banks``."""
        cycles = np.asarray(cycles, dtype=np.int64)
        banks = np.asarray(banks, dtype=np.int64)
        if banks.shape != cycles.shape:
            raise SimulationError("need one bank id per access")
        if banks.size and (int(banks.min()) < 0 or int(banks.max()) >= num_banks):
            raise SimulationError("bank id out of range")
        table = np.arange(num_banks, dtype=np.min_scalar_type(num_banks - 1))
        return cls(cycles, banks, np.array([0, cycles.size], dtype=np.int64), table[None, :])


#: Dense cells (banks × cutoff) one gap spectrum may hold. The cutoff
#: shrinks as the bank count grows, so the fine-grain template's
#: per-line routing (up to 2**17 lines) stays bounded in total.
DENSE_CELLS = 1 << 18
#: The cutoff with few banks: gaps shorter than it are counted densely.
MAX_CUTOFF = 1 << 10


def spectrum_cutoff(num_banks: int) -> int:
    """The dense cutoff of a spectrum over ``num_banks`` banks."""
    return max(1, min(MAX_CUTOFF, DENSE_CELLS // num_banks))


def _counted(banks: np.ndarray, lengths: np.ndarray, counts: np.ndarray):
    """``(banks, lengths, counts)`` sorted by (bank, length), equal
    pairs merged with their counts summed."""
    if banks.size == 0:
        return banks, lengths, counts
    order = np.lexsort((lengths, banks))
    banks, lengths, counts = banks[order], lengths[order], counts[order]
    new = np.empty(banks.size, dtype=bool)
    new[0] = True
    new[1:] = (banks[1:] != banks[:-1]) | (lengths[1:] != lengths[:-1])
    heads = np.flatnonzero(new)
    return banks[heads], lengths[heads], np.add.reduceat(counts, heads)


@dataclass(frozen=True)
class IdlenessTable:
    """Per-bank idleness of a breakeven group, as integer columns.

    The configs of a breakeven group share every per-bank counter but
    the breakeven-dependent two: ``useful`` (useful intervals, which
    equal transitions) and ``sleep`` (sleep cycles) are
    ``(configs, banks)`` int64 matrices, one row per breakeven in the
    group's order; ``accesses`` and ``idle_cycles`` are ``(banks,)``
    vectors; ``window`` is every bank's ``total_cycles``.
    ``idle_intervals`` broadcasts to ``(configs, banks)``: the
    simulators' measured gaps are one ``(banks,)`` vector, and the
    estimator gives a matrix, because it clamps the intervals to the
    useful intervals it predicts per breakeven.
    :meth:`stats` expands it into the per-bank :class:`BankIdleStats`
    lists, and :func:`~repro.core.simulator.assemble_group` derives a
    group's energy and lifetimes straight from the columns.
    """

    window: int
    accesses: np.ndarray
    idle_intervals: np.ndarray
    idle_cycles: np.ndarray
    useful: np.ndarray
    sleep: np.ndarray

    def stats(self) -> list[list[BankIdleStats]]:
        """One :class:`BankIdleStats` list per breakeven row, one entry
        per bank."""
        window = self.window
        accesses = self.accesses.tolist()
        cycles = self.idle_cycles.tolist()
        intervals = np.broadcast_to(self.idle_intervals, self.useful.shape).tolist()
        # Positional, in field order: (accesses, idle_intervals,
        # useful_intervals, idle_cycles, sleep_cycles, transitions,
        # total_cycles); transitions equal useful intervals.
        return [
            [
                BankIdleStats(bank_accesses, idle, useful, idle_cycles, sleep, useful, window)
                for bank_accesses, idle, idle_cycles, useful, sleep in zip(
                    accesses, interval_row, cycles, useful_row, sleep_row
                )
            ]
            for interval_row, useful_row, sleep_row in zip(
                intervals, self.useful.tolist(), self.sleep.tolist()
            )
        ]


@dataclass(frozen=True, eq=False)
class GapSpectrum:
    """Per-bank counts of idle-gap lengths over an observation window.

    Everything the paper's idleness asks of a bank is how many of its
    idle gaps are longer than the breakeven, and by how much, so a
    bank's gaps are kept as counts, not as a list: ``dense[b, g]``
    counts bank ``b``'s gaps of length ``g`` for ``0 < g < cutoff``
    (column 0 stays 0); the longer ones are the sorted
    ``(over_banks, over_lengths, over_counts)`` triples. ``accesses``
    counts each bank's accesses and ``window`` is the window's length.

    :meth:`threshold` derives a whole breakeven vector from suffix
    sums over both parts (computed once per spectrum), and
    :meth:`merge` is addition. Build one with :meth:`scan` or
    :meth:`StreamingGapAccumulator.finalize`.
    """

    window: int
    accesses: np.ndarray
    dense: np.ndarray
    over_banks: np.ndarray
    over_lengths: np.ndarray
    over_counts: np.ndarray

    @property
    def num_banks(self) -> int:
        return int(self.dense.shape[0])

    @property
    def cutoff(self) -> int:
        return int(self.dense.shape[1])

    @classmethod
    def scan(cls, routings, num_banks: int, start_cycle: int, end_cycle: int) -> GapSpectrum:
        """The spectrum of the window ``[start_cycle, end_cycle)`` from
        its accesses, given as :class:`BankRouting` runs in arrival order.

        One-shot: every bank starts busy at ``start_cycle - 1``, and
        its trailing gap (a never-accessed bank's whole window) closes
        at ``end_cycle``.
        """
        accumulator = StreamingGapAccumulator(num_banks, start_cycle)
        for routing in routings:
            accumulator._fold(kernels.gap_extract, routing)
        return accumulator.finalize(end_cycle)

    def merge(self, other: GapSpectrum) -> GapSpectrum:
        """The sum of two spectra of the same banks: their windows,
        accesses and gap counts add (a gap cut by the seam counts as
        two)."""
        if self.dense.shape != other.dense.shape:
            raise SimulationError("spectra of different bank counts do not merge")
        return GapSpectrum(
            self.window + other.window,
            self.accesses + other.accesses,
            self.dense + other.dense,
            *_counted(
                np.concatenate((self.over_banks, other.over_banks)),
                np.concatenate((self.over_lengths, other.over_lengths)),
                np.concatenate((self.over_counts, other.over_counts)),
            ),
        )

    @cached_property
    def _suffix(self) -> tuple[np.ndarray, np.ndarray]:
        """``(count_suffix, length_suffix)``: the number and summed
        length of each bank's gaps of length ``>= k``, ``k <= cutoff``."""
        num_banks, cutoff = self.dense.shape
        over_count = np.zeros(num_banks, dtype=np.int64)
        over_total = np.zeros(num_banks, dtype=np.int64)
        np.add.at(over_count, self.over_banks, self.over_counts)
        np.add.at(over_total, self.over_banks, self.over_counts * self.over_lengths)
        count_suffix = np.empty((num_banks, cutoff + 1), dtype=np.int64)
        length_suffix = np.empty((num_banks, cutoff + 1), dtype=np.int64)
        count_suffix[:, cutoff] = over_count
        length_suffix[:, cutoff] = over_total
        lengths = self.dense * np.arange(cutoff, dtype=np.int64)
        count_suffix[:, :cutoff] = np.cumsum(self.dense[:, ::-1], axis=1)[:, ::-1]
        length_suffix[:, :cutoff] = np.cumsum(lengths[:, ::-1], axis=1)[:, ::-1]
        count_suffix[:, :cutoff] += over_count[:, None]
        length_suffix[:, :cutoff] += over_total[:, None]
        return count_suffix, length_suffix

    def threshold(self, breakevens) -> IdlenessTable:
        """Threshold every bank at each breakeven. Integer-exact.

        Row ``r`` counts ``useful = #(gap > b)`` and ``sleep =
        sum(gap > b) - b * useful`` for ``b = breakevens[r]``. A
        ``None`` breakeven means *infinite* (no gap ever converts to
        sleep), how an unmanaged cache is accounted without knowing the
        horizon up front; the kernels encode it as ``-1``.
        """
        encoded = []
        for breakeven in breakevens:
            if breakeven is None:
                encoded.append(-1)
            elif breakeven < 1:
                raise SimulationError("breakeven must be >= 1 cycle")
            else:
                encoded.append(int(breakeven))
        count_suffix, length_suffix = self._suffix
        useful, sleep = kernels.gap_threshold_batch(
            count_suffix,
            length_suffix,
            self.over_banks,
            self.over_lengths,
            self.over_counts,
            np.asarray(encoded, dtype=np.int64),
        )
        return IdlenessTable(
            window=self.window,
            accesses=self.accesses,
            idle_intervals=count_suffix[:, 0].copy(),
            idle_cycles=length_suffix[:, 0].copy(),
            useful=useful,
            sleep=sleep,
        )


def batch_stats_from_gaps(spectrum: GapSpectrum, breakevens) -> list[list[BankIdleStats]]:
    """Threshold a gap spectrum at each breakeven: one stats list per
    breakeven, one :class:`BankIdleStats` per bank. Integer-exact.

    The expanded form of :meth:`GapSpectrum.threshold` (``None``
    breakevens included).
    """
    return spectrum.threshold(breakevens).stats()


class StreamingGapAccumulator:
    """Carry-state idle-gap scan over a chunked access stream.

    Chunks arrive one at a time through :meth:`update`, each as
    :class:`BankRouting` runs in arrival order, and the state carried
    across chunk boundaries is each bank's last-access cycle plus the
    spectrum's counts — the open gap a silent bank is accumulating is
    implicit in its last access and closes at the bank's next access
    (whenever that chunk arrives) or at :meth:`finalize`. Because the
    multiset of idle gaps this induces is exactly the one-shot scan's,
    the finalized :class:`GapSpectrum` is **bit-identical** to
    :meth:`GapSpectrum.scan` over the concatenated stream (the streaming
    fuzz suite enforces this for adversarial chunkings, including
    one-cycle chunks and chunk boundaries landing exactly on gap
    edges). Memory is O(banks × cutoff + distinct long gaps),
    independent of the stream's length.

    Parameters
    ----------
    num_banks:
        Number of physical banks tracked.
    start_cycle:
        First cycle of the observation window.
    """

    #: Uncounted overflow gaps held before they are merged into the
    #: sorted triples.
    pending_limit = 1 << 16

    def __init__(self, num_banks: int, start_cycle: int = 0) -> None:
        if num_banks < 1:
            raise SimulationError("need at least one bank")
        self.num_banks = num_banks
        self.start_cycle = start_cycle
        self._last = np.full(num_banks, start_cycle - 1, dtype=np.int64)
        self._accesses = np.zeros(num_banks, dtype=np.int64)
        self._dense = np.zeros((num_banks, spectrum_cutoff(num_banks)), dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._over = (empty, empty, empty)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_size = 0
        self._spectrum: GapSpectrum | None = None

    def update(self, routing: BankRouting) -> None:
        """Fold one run of the stream's accesses into the spectrum.

        Every access must be later than every access its bank has
        already seen.
        """
        self._fold(kernels.stream_gap_update, routing)

    def _fold(self, kernel, routing: BankRouting) -> None:
        if self._spectrum is not None:
            raise SimulationError("accumulator already finalized")
        if routing.cycles.size == 0:
            return
        banks, lengths = kernel(
            routing.cycles,
            routing.index,
            routing.starts,
            routing.tables,
            routing.shift,
            self._last,
            self._accesses,
            self._dense,
        )
        self._hold(banks, lengths)

    def _hold(self, banks: np.ndarray, lengths: np.ndarray) -> None:
        if banks.size:
            self._pending.append((banks, lengths))
            self._pending_size += banks.size
            if self._pending_size >= self.pending_limit:
                self._count_pending()

    def _count_pending(self) -> None:
        if not self._pending:
            return
        banks, lengths, counts = self._over
        self._over = _counted(
            np.concatenate([banks, *(b for b, _ in self._pending)]).astype(np.int64),
            np.concatenate([lengths, *(g for _, g in self._pending)]),
            np.concatenate([counts, np.ones(self._pending_size, dtype=np.int64)]),
        )
        self._pending = []
        self._pending_size = 0

    def finalize(self, end_cycle: int) -> GapSpectrum:
        """Close every bank's open gap at ``end_cycle`` and return the
        spectrum of ``[start_cycle, end_cycle)``.

        Idempotent for one ``end_cycle``, so the cursors sharing an
        accumulator each finalize it.
        """
        window = int(end_cycle - self.start_cycle)
        if self._spectrum is not None:
            if window == self._spectrum.window:
                return self._spectrum
            raise SimulationError("accumulator already finalized")
        if window < 0:
            raise SimulationError("end_cycle precedes start_cycle")
        if np.any(self._last >= end_cycle):
            raise SimulationError("access cycles outside the observation window")
        trailing = end_cycle - self._last - 1
        short = np.flatnonzero((trailing > 0) & (trailing < self._dense.shape[1]))
        self._dense[short, trailing[short]] += 1
        long = np.flatnonzero(trailing >= self._dense.shape[1])
        self._hold(long.astype(np.int64), trailing[long])
        self._count_pending()
        self._spectrum = GapSpectrum(window, self._accesses, self._dense, *self._over)
        return self._spectrum

    def finalize_table(self, end_cycle: int, breakevens) -> IdlenessTable:
        """Close the window at ``end_cycle`` and threshold it once at
        every breakeven: one :class:`IdlenessTable` row per breakeven,
        in order."""
        return self.finalize(end_cycle).threshold(breakevens)


def batch_stats_from_sorted_accesses(
    sorted_cycles: np.ndarray,
    splits: np.ndarray,
    breakevens,
    start_cycle: int,
    end_cycle: int,
) -> list[list[BankIdleStats]]:
    """All banks' idleness stats for a vector of breakevens, from a
    bank-sorted access stream.

    Bank ``b`` owns ``sorted_cycles[splits[b]:splits[b + 1]]``,
    strictly increasing within the slice; ``splits`` has
    ``num_banks + 1`` entries. The spectrum is scanned once and each
    breakeven only re-thresholds it. Each returned list is exactly
    equal to calling :func:`stats_from_access_cycles` per bank slice
    (tests enforce it).
    """
    cycles = np.asarray(sorted_cycles, dtype=np.int64)
    splits = np.asarray(splits, dtype=np.int64)
    num_banks = splits.size - 1
    if num_banks < 1:
        raise SimulationError("need at least one bank segment")
    counts = np.diff(splits)
    if np.any(counts < 0) or int(splits[0]) != 0 or int(splits[-1]) != cycles.size:
        raise SimulationError("splits do not partition the access stream")
    routing = BankRouting.direct(cycles, np.repeat(np.arange(num_banks), counts), num_banks)
    spectrum = GapSpectrum.scan([routing], num_banks, start_cycle, end_cycle)
    return batch_stats_from_gaps(spectrum, breakevens)
