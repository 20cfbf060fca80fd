"""Shared per-trace precomputation: the *trace plan*.

A design-space sweep simulates one trace under dozens of configurations,
and most of the per-point work is identical across the grid: the address
decode depends only on the geometry's bit split, the re-indexing epoch
boundaries only on the update schedule, and the bank-sorted access
stream only on the routing (bank count × policy × schedule). A plan
memoizes each of those sections keyed by exactly the configuration
fields it depends on, so e.g. a ``breakeven_override`` axis reuses
*everything* and a ``policy`` axis still reuses the decode and the
epoch boundaries.

Sections are computed per *chunk* of accesses. An in-memory trace is
the only chunk of its :class:`TracePlan`, fixed at construction, so its
sections live as long as the plan; a :class:`StreamingPlan` only adds
:meth:`StreamingPlan.begin_chunk`, which moves to the next chunk of a
stream and drops the previous chunk's sections (bounding memory at
O(chunk) however long the stream). The address decode, epoch
bracketing and bank routing (:meth:`TracePlan.route`) therefore exist
once for the one-shot, streamed and fine-grain paths; the fine-grain
template reads the routing with one bank per cache line.
Persistent sections — the update schedules epoch bracketing drains,
the streaming engine's carried hit trackers — survive across chunks.

The plan is engine-agnostic shared state:
:func:`~repro.core.fastsim.run_breakeven_group` and the ``finegrain``
engine (:class:`~repro.finegrain.engine.FineGrainEngine`) accept
one and build a private plan when none is given — sharing is an
optimization, never a requirement, and every cached section is a pure
function of (chunk, key), so results are bit-identical with or without
sharing. Plans live per process: the parallel sweep ships the trace
once per worker through the pool initializer and each worker grows its
own plan.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.power.idleness import IdleGapStructure, idle_gaps_from_sorted_accesses
from repro.trace.trace import Trace
from repro.utils.bitops import log2_exact, mask


class TracePlan:
    """Memoized state shared across the simulation points of one trace.

    Parameters
    ----------
    trace:
        The trace every consumer of this plan must simulate, and the
        plan's only chunk; engines check with :meth:`matches` and
        refuse mismatched traces.
    """

    #: FIFO capacity of the per-routing idle-gap cache — the only layer
    #: holding O(accesses) arrays per *routing* rather than per trace.
    max_gap_routings: int = 8

    def __init__(self, trace: Trace | None) -> None:
        self.trace = trace
        self.chunk = trace
        self.chunk_id = 0
        self._cache: dict = {}
        self._persistent: dict = {}

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
        """Memoized section of the current chunk (also used by the
        engines for their own derived state, e.g. the fast engine's hit
        counts)."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def persistent(self, key, factory):
        """Memoized cross-chunk state (update schedules, hit trackers)."""
        try:
            return self._persistent[key]
        except KeyError:
            value = self._persistent[key] = factory()
            return value

    def __len__(self) -> int:
        """Number of cached sections (introspection/tests)."""
        return len(self._cache) + len(self._persistent)

    # ------------------------------------------------------------------
    @staticmethod
    def schedule_key(config) -> tuple | None:
        """Hashable identity of the config's firing update schedule.

        ``None`` means no updates ever fire (static indexing, or a
        dynamic policy with neither a period nor explicit events).
        """
        if config.policy == "static":
            return None
        events = config.update_events
        if events is not None:
            return ("events", events)
        if config.update_period_cycles is None:
            return None
        return ("period", config.update_period_cycles)

    def decode(self, offset_bits: int, index_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(index, tag)`` arrays for a geometry's bit split."""

        def compute():
            addresses = self.chunk.addresses
            index = (addresses >> offset_bits) & mask(index_bits)
            tag = addresses >> (offset_bits + index_bits)
            return index, tag

        return self.cached(("decode", offset_bits, index_bits), compute)

    def epoch_starts(self, config) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(boundaries, starts)`` of the firing update schedule.

        ``boundaries`` are the update cycles that fire within the chunk:
        at or before its last access and not fired in an earlier chunk
        (a boundary fires when the first access at or after it arrives —
        exactly the reference engine's lazy drain). ``starts`` brackets
        the chunk's accesses: epoch ``e`` owns positions
        ``starts[e]:starts[e + 1]``, with one update applied before each
        epoch after the first. The schedule itself is a persistent
        section drained chunk by chunk, so a periodic schedule over a
        long stream never rebuilds its already-fired prefix.
        """
        key = ("epochs", self.schedule_key(config))

        def compute():
            cycles = self.chunk.cycles
            schedule = self.persistent(key, config.make_update_schedule)
            fired: list[int] = []
            if cycles.size:
                last = int(cycles[-1])
                while (upcoming := schedule.next_update_cycle) is not None and upcoming <= last:
                    fired.append(upcoming)
                    schedule.due(upcoming)
            boundaries = np.asarray(fired, dtype=np.int64)
            starts = np.concatenate(
                ([0], np.searchsorted(cycles, boundaries, side="left"), [cycles.size])
            )
            return boundaries, starts

        return self.cached(key, compute)

    def route(self, config, policy) -> tuple[np.ndarray, np.ndarray]:
        """Route the chunk through ``config`` and sort it by (bank, arrival).

        ``policy`` is the indexing policy in force at the chunk's first
        access, advanced here once per update that fires within the
        chunk: a fresh policy for a whole trace, the carried one for a
        stream. Returns ``(sorted_cycles, splits)``: bank ``b`` owns
        ``sorted_cycles[splits[b]:splits[b + 1]]``.

        With a single bank the stream is already sorted and the stable
        argsort is skipped outright. Otherwise the physical bank ids are
        held in the narrowest unsigned dtype that fits them (uint8 up to
        256 banks, uint16 above), for which numpy's stable argsort is an
        O(n) radix sort instead of a timsort of int64 keys. A stable
        sort has exactly one valid result, so the permutation — and
        everything derived from it — is identical to sorting int64 ids.
        """
        cycles = self.chunk.cycles
        n = cycles.size
        num_banks = config.num_banks
        if num_banks == 1:
            return cycles, np.array([0, n], dtype=np.int64)
        geometry = config.geometry
        index, _ = self.decode(geometry.offset_bits, geometry.index_bits)
        # The logical bank of every set: the index's top bits. An epoch's
        # mapping turns this table into each set's physical bank.
        set_banks = np.arange(1 << geometry.index_bits) >> (
            geometry.index_bits - log2_exact(num_banks)
        )
        _, starts = self.epoch_starts(config)
        physical = np.empty(n, dtype=np.min_scalar_type(num_banks - 1))
        for epoch in range(len(starts) - 1):
            if epoch > 0:
                policy.update()
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if lo < hi:
                physical[lo:hi] = policy.mapping()[set_banks][index[lo:hi]]
        order = np.argsort(physical, kind="stable")
        splits = np.searchsorted(physical[order], np.arange(num_banks + 1))
        return cycles[order], splits

    def idle_gaps(self, config) -> IdleGapStructure:
        """Cached breakeven-independent idle-gap structure per routing.

        This is the layer the fast engine's idleness accounting reads:
        the bank sort (:meth:`route`, with a fresh policy) is computed
        transiently and only the gap structure — the part every
        breakeven re-thresholds — is kept. The cache holds at most
        :attr:`max_gap_routings` structures (FIFO eviction), bounding
        plan memory on grids with many routings; eviction only costs a
        re-sort if an old routing recurs, never correctness.
        """
        geometry = config.geometry
        key = (
            "gaps",
            geometry.offset_bits,
            geometry.index_bits,
            config.num_banks,
            config.policy,
            self.schedule_key(config),
        )

        def compute():
            sorted_cycles, splits = self.route(config, config.make_policy())
            return idle_gaps_from_sorted_accesses(
                sorted_cycles, splits, 0, self.trace.horizon
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


class StreamingPlan(TracePlan):
    """The plan of a chunked pass over a stream.

    Shared by every streaming consumer of one pass, so a sweep
    evaluating many configurations decodes and brackets each chunk once
    per distinct key, not once per point.
    """

    def __init__(self) -> None:
        super().__init__(None)
        self.chunk_id = -1

    def begin_chunk(self, chunk) -> None:
        """Enter ``chunk``: drop every section of the previous chunk."""
        self.chunk = chunk
        self.chunk_id += 1
        self._cache.clear()


def ensure_plan(plan: TracePlan | None, trace: Trace) -> TracePlan:
    """The plan to use for ``trace``: validate a given one, else build one."""
    if plan is None:
        return TracePlan(trace)
    if not plan.matches(trace):
        raise SimulationError("trace plan was built for a different trace")
    return plan
