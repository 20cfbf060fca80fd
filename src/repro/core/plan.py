"""Shared per-trace precomputation: the *trace plan*.

A design-space sweep simulates one trace under dozens of configurations,
and most of the per-point work is identical across the grid: the address
decode depends only on the geometry's bit split, the re-indexing epoch
boundaries only on the update schedule, and the bank-sorted access
stream only on the routing (bank count × policy × schedule). A
:class:`TracePlan` memoizes each of those layers keyed by exactly the
configuration fields it depends on, so e.g. a ``breakeven_override``
axis reuses *everything* and a ``policy`` axis still reuses the decode
and the epoch boundaries.

The plan is engine-agnostic shared state:
:func:`~repro.core.fastsim.run_breakeven_group` (and, for the decode layer,
:class:`~repro.finegrain.sim.FineGrainSimulator`) accept one and build a
private plan when none is given — sharing is an optimization, never a
requirement, and every cached layer is a pure function of (trace, key),
so results are bit-identical with or without sharing. Plans live per
process: the parallel sweep ships the trace once per worker through the
pool initializer and each worker grows its own plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.power.idleness import IdleGapStructure, idle_gaps_from_sorted_accesses
from repro.trace.trace import Trace
from repro.utils.bitops import log2_exact, mask


@dataclass(frozen=True)
class BankOrder:
    """The bank-sorted view of one routed access stream.

    Only the projection idleness accounting actually consumes is
    retained — keeping the full ``physical``/``order`` permutation
    arrays per routing would dominate the plan's memory on long traces
    (they are cheap to recompute from the config when a caller needs
    them, and ``sorted_banks`` is just
    ``np.repeat(np.arange(num_banks), np.diff(splits))``).

    Attributes
    ----------
    sorted_cycles:
        The trace cycles reordered by (physical bank, arrival) — the
        stable argsort of the routed stream (a radix sort of narrow
        bank ids; see :meth:`TracePlan._compute_bank_order`).
    splits:
        Segment boundaries: bank ``b`` owns
        ``sorted_cycles[splits[b]:splits[b + 1]]``.
    """

    sorted_cycles: np.ndarray
    splits: np.ndarray


class TracePlan:
    """Memoized per-trace state shared across simulation points.

    Parameters
    ----------
    trace:
        The trace every consumer of this plan must simulate; engines
        check with :meth:`matches` and refuse mismatched traces.
    """

    #: FIFO capacity of the per-routing idle-gap cache — the only layer
    #: holding O(accesses) arrays per *routing* rather than per trace.
    max_gap_routings: int = 8

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._cache: dict = {}

    # ------------------------------------------------------------------
    def matches(self, trace: Trace) -> bool:
        """True when ``trace`` is the plan's trace (identity or equality)."""
        mine = self.trace
        if mine is trace:
            return True
        return (
            len(mine) == len(trace)
            and mine.horizon == trace.horizon
            and bool(np.array_equal(mine.cycles, trace.cycles))
            and bool(np.array_equal(mine.addresses, trace.addresses))
        )

    def cached(self, key, compute):
        """Generic memoized section (used by the engines for their own
        derived state, e.g. the fast engine's hit counts)."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def __len__(self) -> int:
        """Number of cached sections (introspection/tests)."""
        return len(self._cache)

    # ------------------------------------------------------------------
    @staticmethod
    def schedule_key(config) -> tuple | None:
        """Hashable identity of the config's firing update schedule.

        ``None`` means no updates ever fire (static indexing, or a
        dynamic policy with neither a period nor explicit events).
        """
        if config.policy == "static":
            return None
        if config.update_events is not None:
            return ("events", config.update_events)
        if config.update_period_cycles is None:
            return None
        return ("period", config.update_period_cycles)

    def decode(self, offset_bits: int, index_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(index, tag)`` arrays for a geometry's bit split."""

        def compute():
            addresses = self.trace.addresses
            index = (addresses >> offset_bits) & mask(index_bits)
            tag = addresses >> (offset_bits + index_bits)
            return index, tag

        return self.cached(("decode", offset_bits, index_bits), compute)

    def epoch_starts(self, config) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(boundaries, starts)`` of the firing update schedule.

        ``boundaries`` are the update cycles that actually fire (those at
        or before the last access); ``starts`` brackets each epoch's
        accesses: epoch ``e`` owns trace positions
        ``starts[e]:starts[e + 1]``.
        """

        def compute():
            trace = self.trace
            if len(trace) == 0:
                boundaries = np.empty(0, dtype=np.int64)
            else:
                schedule = config.make_update_schedule()
                boundaries = schedule.boundaries_up_to(int(trace.cycles[-1]))
            starts = np.concatenate(
                (
                    [0],
                    np.searchsorted(trace.cycles, boundaries, side="left"),
                    [len(trace)],
                )
            )
            return boundaries, starts

        return self.cached(("epochs", self.schedule_key(config)), compute)

    def _routing_key(self, kind: str, config) -> tuple:
        """Cache key covering exactly what routing depends on."""
        geometry = config.geometry
        return (
            kind,
            geometry.offset_bits,
            geometry.index_bits,
            config.num_banks,
            config.policy,
            self.schedule_key(config),
        )

    def _compute_bank_order(self, config) -> BankOrder:
        """Route the trace through ``config`` and sort by (bank, arrival).

        With a single bank the stream is already sorted and the stable
        argsort is skipped outright. Otherwise the physical bank ids are
        held in the narrowest unsigned dtype that fits them (uint8 up to
        256 banks, uint16 above), for which numpy's stable argsort is an
        O(n) radix sort instead of a timsort of int64 keys. A stable
        sort has exactly one valid result, so the permutation — and
        everything derived from it — is identical to sorting int64 ids.
        """
        trace = self.trace
        cycles = trace.cycles
        n = len(trace)
        geometry = config.geometry
        num_banks = config.num_banks
        if num_banks == 1:
            return BankOrder(cycles, np.array([0, n], dtype=np.int64))
        index, _ = self.decode(geometry.offset_bits, geometry.index_bits)
        line_bits = geometry.index_bits - log2_exact(num_banks)
        logical_bank = index >> line_bits
        _, starts = self.epoch_starts(config)
        policy = config.make_policy()
        physical = np.empty(n, dtype=np.min_scalar_type(num_banks - 1))
        for epoch in range(len(starts) - 1):
            if epoch > 0:
                policy.update()
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if lo == hi:
                continue
            physical[lo:hi] = policy.mapping()[logical_bank[lo:hi]]
        order = np.argsort(physical, kind="stable")
        sorted_banks = physical[order]
        sorted_cycles = cycles[order]
        splits = np.searchsorted(sorted_banks, np.arange(num_banks + 1))
        return BankOrder(sorted_cycles, splits)

    def bank_order(self, config) -> BankOrder:
        """Routed-and-sorted access stream for a config's routing.

        Ad-hoc convenience, computed fresh on each call (the decode and
        epoch layers it builds on are still cached): the engines go
        through :meth:`idle_gaps` instead, which retains only the much
        smaller per-routing gap structure.
        """
        return self._compute_bank_order(config)

    def idle_gaps(self, config) -> IdleGapStructure:
        """Cached breakeven-independent idle-gap structure per routing.

        This is the layer the fast engine's idleness accounting reads:
        the bank sort is computed transiently (not retained) and only
        the gap structure — the part every breakeven re-thresholds — is
        kept. The cache holds at most :attr:`max_gap_routings`
        structures (FIFO eviction), bounding plan memory on grids with
        many routings; eviction only costs a re-sort if an old routing
        recurs, never correctness.
        """
        key = self._routing_key("gaps", config)

        def compute():
            route = self._compute_bank_order(config)
            return idle_gaps_from_sorted_accesses(
                route.sorted_cycles, route.splits, 0, self.trace.horizon
            )

        gaps = self.cached(key, compute)
        gap_keys = [
            k for k in self._cache if isinstance(k, tuple) and k and k[0] == "gaps"
        ]
        if len(gap_keys) > self.max_gap_routings:
            for stale in gap_keys[: len(gap_keys) - self.max_gap_routings]:
                if stale != key:
                    del self._cache[stale]
        return gaps


class EpochCursor:
    """Streaming epoch bracketing for one update-schedule identity.

    The out-of-core counterpart of :meth:`TracePlan.epoch_starts`: the
    schedule's firing boundaries are discovered chunk by chunk (a
    boundary *fires* when the first access at or after it arrives —
    exactly the reference engine's lazy drain), and each chunk's
    accesses are bracketed into epoch segments. One cursor is shared by
    every streaming consumer with the same schedule identity, so the
    searchsorted bracketing happens once per (chunk, schedule), not once
    per configuration.
    """

    def __init__(self, config) -> None:
        self._schedule = config.make_update_schedule()
        self.fired = 0
        self._chunk_id = -1
        self._current: tuple[np.ndarray, np.ndarray] | None = None

    def segments(self, chunk, chunk_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(boundaries, starts)`` of this chunk, memoized per chunk.

        ``boundaries`` are the schedule cycles that fire within this
        chunk (at or before its last access and not fired before);
        ``starts`` brackets the chunk's accesses: segment ``s`` owns
        positions ``starts[s]:starts[s + 1]``, with one update applied
        before each segment after the first.
        """
        if chunk_id == self._chunk_id:
            assert self._current is not None
            return self._current
        cycles = chunk.cycles
        if cycles.size == 0:
            boundaries = np.empty(0, dtype=np.int64)
            starts = np.array([0, 0], dtype=np.int64)
        else:
            # Drain the schedule incrementally — O(newly fired) per
            # chunk, never a recomputation of the already-fired prefix
            # (a periodic schedule over a long stream would otherwise
            # rebuild its full arange every chunk).
            last = int(cycles[-1])
            fired: list[int] = []
            while True:
                upcoming = self._schedule.next_update_cycle
                if upcoming is None or upcoming > last:
                    break
                fired.append(upcoming)
                self._schedule.due(upcoming)
            boundaries = np.asarray(fired, dtype=np.int64)
            self.fired += int(boundaries.size)
            starts = np.concatenate(
                (
                    [0],
                    np.searchsorted(cycles, boundaries, side="left"),
                    [cycles.size],
                )
            )
        self._chunk_id = chunk_id
        self._current = (boundaries, starts)
        return self._current


class StreamingPlan:
    """Per-chunk memoization shared by concurrent streaming consumers.

    The streaming analogue of :class:`TracePlan`: where the one-shot
    plan memoizes whole-trace layers keyed by the config fields they
    depend on, this plan memoizes the *current chunk's* layers — the
    address decode per bit split, the logical-bank projection per
    (bit split, bank count) and the epoch bracketing per schedule
    identity — so a streaming sweep evaluating many configurations in
    one pass decodes each chunk once per distinct key, not once per
    point. Chunk-keyed sections are dropped on :meth:`begin_chunk`
    (bounding memory at O(chunk) however long the stream);
    persistent sections (epoch cursors, carried hit-tracker state)
    survive across chunks.
    """

    def __init__(self) -> None:
        self.chunk = None
        self.chunk_id = -1
        self._chunk_cache: dict = {}
        self._persistent: dict = {}

    def begin_chunk(self, chunk) -> None:
        """Enter ``chunk``: invalidate every chunk-keyed section."""
        self.chunk = chunk
        self.chunk_id += 1
        self._chunk_cache.clear()

    def chunk_cached(self, key, compute):
        """Memoized section of the *current* chunk."""
        try:
            return self._chunk_cache[key]
        except KeyError:
            value = self._chunk_cache[key] = compute()
            return value

    def persistent(self, key, factory):
        """Memoized cross-chunk state (cursors, trackers)."""
        try:
            return self._persistent[key]
        except KeyError:
            value = self._persistent[key] = factory()
            return value

    # ------------------------------------------------------------------
    def decode(self, offset_bits: int, index_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(index, tag)`` arrays of the current chunk."""

        def compute():
            addresses = self.chunk.addresses
            index = (addresses >> offset_bits) & mask(index_bits)
            tag = addresses >> (offset_bits + index_bits)
            return index, tag

        return self.chunk_cached(("decode", offset_bits, index_bits), compute)

    def logical_banks(
        self, offset_bits: int, index_bits: int, num_banks: int
    ) -> np.ndarray:
        """Cached logical-bank projection of the current chunk."""

        def compute():
            index, _ = self.decode(offset_bits, index_bits)
            line_bits = index_bits - log2_exact(num_banks)
            return index >> line_bits

        return self.chunk_cached(
            ("logical", offset_bits, index_bits, num_banks), compute
        )

    def epoch_cursor(self, config) -> EpochCursor:
        """Shared :class:`EpochCursor` for the config's schedule identity."""
        key = ("epochs", TracePlan.schedule_key(config))
        return self.persistent(key, lambda: EpochCursor(config))

    def epoch_segments(self, config) -> tuple[np.ndarray, np.ndarray]:
        """Current chunk's ``(boundaries, starts)`` for the config's schedule."""
        return self.epoch_cursor(config).segments(self.chunk, self.chunk_id)


def ensure_plan(plan: TracePlan | None, trace: Trace) -> TracePlan:
    """The plan to use for ``trace``: validate a given one, else build one."""
    if plan is None:
        return TracePlan(trace)
    if not plan.matches(trace):
        raise SimulationError("trace plan was built for a different trace")
    return plan
