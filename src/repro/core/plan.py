"""Shared per-trace precomputation: the *trace plan*.

A design-space sweep simulates one trace under dozens of configurations,
and most of the per-point work is identical across the grid: the address
decode depends only on the geometry's bit split, the re-indexing epoch
boundaries only on the update schedule, and the per-bank idle-gap
spectrum only on the routing (bank count × policy × schedule). A plan
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
template reads the routing with one bank per cache line. Routing sorts
nothing: it hands the idle-gap scan the chunk in arrival order with one
logical → physical bank table per epoch, and the scan does the gather
(:class:`~repro.power.idleness.BankRouting`).
Persistent sections — the update schedules epoch bracketing drains,
the streaming engine's carried hit trackers and routings — survive
across chunks.

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

from collections.abc import Iterator

import numpy as np

from repro.errors import SimulationError
from repro.power.idleness import BankRouting, GapSpectrum
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

    #: FIFO capacity of the per-routing gap-spectrum cache, the one
    #: section kept per *routing* rather than per trace.
    max_gap_routings: int = 8

    def __init__(self, trace: Trace | None) -> None:
        self.trace = trace
        self.chunk = trace
        self.chunk_id = 0
        self._cache: dict = {}
        self._persistent: dict = {}

    # ------------------------------------------------------------------
    def matches(self, trace: Trace) -> bool:
        """True when ``trace`` is the plan's trace (identity or equality).

        A :class:`StreamingPlan` has no trace and matches none."""
        mine = self.trace
        if mine is trace:
            return True
        return (
            mine is not None
            and len(mine) == len(trace)
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

    @staticmethod
    def routing_key(config) -> tuple:
        """Hashable identity of the config's routing: bit split × bank
        count × policy × schedule. Breakeven, power management and
        technology drop out, and so does the period of a static
        policy."""
        geometry = config.geometry
        return (
            geometry.offset_bits,
            geometry.index_bits,
            config.num_banks,
            config.policy,
            TracePlan.schedule_key(config),
        )

    def route(self, config, policy) -> Iterator[BankRouting]:
        """Route the chunk through ``config``, in arrival order.

        ``policy`` is the indexing policy in force at the chunk's first
        access, advanced here once per update that fires within the
        chunk as the routing is consumed: a fresh policy for a whole
        trace, the carried one for a stream. Yields
        :class:`~repro.power.idleness.BankRouting` runs covering the
        chunk in order; each holds the set index of its accesses and
        one logical → physical table per epoch that has accesses, in the
        narrowest unsigned dtype that holds the bank ids, and the gap
        scan does the gather. Nothing is sorted.

        Almost always one run. The tables are cut into runs of at most
        ``max(1, accesses // banks)`` epochs, so they never outgrow the
        chunk even with one bank per cache line.
        """
        cycles = self.chunk.cycles
        num_banks = config.num_banks
        geometry = config.geometry
        index, _ = self.decode(geometry.offset_bits, geometry.index_bits)
        shift = geometry.index_bits - log2_exact(num_banks)
        _, starts = self.epoch_starts(config)
        dtype = np.min_scalar_type(num_banks - 1)
        rows_per_run = max(1, cycles.size // num_banks)
        tables: list[np.ndarray] = []
        bounds: list[int] = []
        for epoch in range(len(starts) - 1):
            if epoch > 0:
                policy.update()
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if lo == hi:
                continue
            if len(tables) == rows_per_run:
                yield _run(cycles, index, bounds + [lo], tables, shift)
                tables, bounds = [], []
            tables.append(policy.mapping().astype(dtype))
            bounds.append(lo)
        if tables:
            yield _run(cycles, index, bounds + [cycles.size], tables, shift)

    def idle_gaps(self, config) -> GapSpectrum:
        """Cached per-bank idle-gap spectrum per routing.

        This is the layer the fast engine's idleness accounting reads:
        one arrival-order scan of :meth:`route` (with a fresh policy)
        over the whole trace, which every breakeven then re-thresholds.
        The cache holds at most :attr:`max_gap_routings` spectra (FIFO
        eviction), bounding plan memory on grids with many routings;
        eviction only costs a re-scan if an old routing recurs, never
        correctness.
        """
        key = ("gaps", *self.routing_key(config))

        def compute():
            return GapSpectrum.scan(
                self.route(config, config.make_policy()),
                config.num_banks,
                0,
                self.trace.horizon,
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


def _run(cycles, index, bounds: list[int], tables: list[np.ndarray], shift: int) -> BankRouting:
    """The routing of positions ``bounds[0]:bounds[-1]``, one table per epoch."""
    lo, hi = bounds[0], bounds[-1]
    return BankRouting(
        cycles[lo:hi],
        index[lo:hi],
        np.asarray(bounds, dtype=np.int64) - lo,
        np.stack(tables),
        shift,
    )


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
    if plan.trace is None:
        raise SimulationError(
            "a StreamingPlan serves stream cursors; simulating a trace "
            "needs a TracePlan of that trace"
        )
    if not plan.matches(trace):
        raise SimulationError("trace plan was built for a different trace")
    return plan
