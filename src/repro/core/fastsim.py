"""Vectorized simulation engine.

Produces bit-identical results to :class:`repro.core.simulator.ReferenceSimulator`
(the test suite enforces exact agreement on hits, misses, flushes,
per-bank access counts, sleep cycles and energy) while processing whole
re-indexing epochs with numpy:

* routing: the logical→physical permutation is constant within an
  epoch, so ``physical = mapping[logical]`` is a single ``take``
  (:meth:`~repro.core.plan.TracePlan.route`);
* idleness: the sleep rule only looks at per-bank access-cycle gaps,
  and banks sleep straight through mapping changes, so all banks' stats
  come from one gap structure of the bank-sorted stream
  (:meth:`~repro.core.plan.TracePlan.idle_gaps`), thresholded at every
  breakeven of a group by
  :func:`~repro.power.idleness.batch_stats_from_gaps` (held to the
  per-bank :func:`~repro.power.idleness.stats_from_access_cycles`
  oracle by the tests);
* hits/misses: within an epoch the mapping is a bijection on banks and
  the line-in-bank bits pass through unchanged, so the physical set of
  an access is identified by its logical set index; sorting accesses by
  (index, time) groups each set's accesses contiguously and in arrival
  order. Direct-mapped caches then reduce to an adjacent-tag comparison
  (:class:`_DirectMappedTracker`); set-associative caches run an LRU
  stack walk over the set-groups of every epoch at once
  (:func:`_grouped_lru`). Epochs start cold (the update flushed).

The hit/flush trackers carry their per-set state across calls, so the
same :class:`_DirectMappedTracker` counts a whole trace here and a
stream chunk by chunk in :mod:`repro.core.streamsim`.

Across a sweep, everything breakeven-independent — decode, epoch
bracketing, hit counts, the bank sort — is shared between points through
:class:`repro.core.plan.TracePlan`, and :func:`run_breakeven_group`
evaluates a whole ``breakeven_override`` axis from one gap computation.
The fine-grain template (:mod:`repro.finegrain.engine`) is this
pipeline with one bank per cache line: it reads the same plan layers
and the same plan-cached hit counts (:func:`plan_counts`).
The kernels run on the dispatcher's process-wide backend
(:mod:`repro.kernels.dispatch`); every backend is bit-identical.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.core.engine import Engine, register_engine
from repro.core.plan import TracePlan, ensure_plan
from repro.core.results import SimulationResult
from repro.core.simulator import _effective_breakeven, assemble_group
from repro.aging.lut import LifetimeLUT
from repro.errors import SimulationError
from repro.kernels import dispatch as kernels
from repro.power.idleness import batch_stats_from_gaps
from repro.trace.trace import Trace


class _CarriedTracker:
    """Cache-content state, advanced epoch by epoch and chunk by chunk.

    Subclasses hold the per-set state and implement ``flush`` (an
    update fired: count the surviving lines, start the epoch cold) and
    ``_segment`` (advance through one epoch segment's accesses).
    """

    def __init__(self, num_sets: int) -> None:
        self.hits = 0
        self.flush_invalidations = 0
        self._chunk_id = -1
        self._set_dtype = np.min_scalar_type(num_sets - 1)

    def _set_order(self, index: np.ndarray) -> np.ndarray:
        """The (set, arrival) order of a segment: a stable argsort of the
        set indices, held in the narrowest unsigned dtype that fits them
        (an O(n) radix sort up to 65536 sets; the one valid stable
        permutation whatever the dtype)."""
        return np.argsort(index.astype(self._set_dtype), kind="stable")

    def flush(self) -> None:
        raise NotImplementedError

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        raise NotImplementedError

    def advance(self, index: np.ndarray, tag: np.ndarray, starts: np.ndarray) -> None:
        """Advance through the epochs ``starts`` brackets, flushing
        before each epoch after the first."""
        for epoch in range(len(starts) - 1):
            if epoch > 0:
                self.flush()
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if lo < hi:
                self._segment(index[lo:hi], tag[lo:hi])

    def process_chunk(self, plan: TracePlan, config) -> None:
        """Advance through the plan's current chunk (idempotent per chunk)."""
        if plan.chunk_id == self._chunk_id:
            return
        self._chunk_id = plan.chunk_id
        geometry = config.geometry
        index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)
        _, starts = plan.epoch_starts(config)
        self.advance(index, tag, starts)


class _DirectMappedTracker(_CarriedTracker):
    """Cache-content state of a direct-mapped geometry.

    One tag (plus a valid bit) per set — exactly what a direct-mapped
    cache remembers. Sorting a segment by (index, arrival) places every
    access next to the previous access of the same set; an access hits
    iff that predecessor carried the same tag (any other tag evicted
    the line in between, and a *different* tag on the predecessor
    already means the line was re-allocated, so adjacent comparison is
    exact). The first access of a set within a segment compares against
    the carried tag instead, which extends the rule across chunk
    boundaries.
    """

    def __init__(self, num_sets: int) -> None:
        super().__init__(num_sets)
        self.tags = np.zeros(num_sets, dtype=np.int64)
        self.valid = np.zeros(num_sets, dtype=bool)

    def flush(self) -> None:
        self.flush_invalidations += int(np.count_nonzero(self.valid))
        self.valid[:] = False

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        n = index.size
        order = self._set_order(index)
        idx_sorted = index[order]
        tag_sorted = tag[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = idx_sorted[1:] != idx_sorted[:-1]
        self.hits += int(np.count_nonzero(~first[1:] & (tag_sorted[1:] == tag_sorted[:-1])))
        first_pos = np.flatnonzero(first)
        first_idx = idx_sorted[first_pos]
        first_tag = tag_sorted[first_pos]
        self.hits += int(
            np.count_nonzero(self.valid[first_idx] & (self.tags[first_idx] == first_tag))
        )
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        last_pos = np.flatnonzero(last)
        self.tags[idx_sorted[last_pos]] = tag_sorted[last_pos]
        self.valid[idx_sorted[last_pos]] = True


class _LruTracker(_CarriedTracker):
    """Carried LRU stacks of a set-associative geometry.

    The full ``(num_sets, ways)`` recency stacks are the carried state;
    each chunk segment advances them through
    :func:`repro.kernels.lru_segment` (the carried-state sibling of the
    one-shot walk behind :func:`_grouped_lru`), starting from the
    carried contents instead of cold. Exact for the same reason the
    one-shot walk is: an LRU set's contents are a history-independent
    function of its most recent distinct tags.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets)
        self.stacks = np.full((num_sets, ways), -1, dtype=np.int64)

    def flush(self) -> None:
        self.flush_invalidations += int(np.count_nonzero(self.stacks != -1))
        self.stacks[:] = -1

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        order = self._set_order(index)
        self.hits += kernels.lru_segment(index[order], tag[order], self.stacks)


def _grouped_lru(
    keys: np.ndarray, tag: np.ndarray, ways: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """LRU simulation over contiguous key-groups.

    ``keys`` identifies the cold-started LRU set each access falls
    into (the engine passes ``epoch * num_sets + set_index`` so one
    call covers the whole trace). Sorting by (key, arrival) makes
    each group contiguous and in arrival order; the per-group stack
    walk itself is :func:`repro.kernels.lru_walk` — a lockstep rank
    walk on the numpy backend, a sequential scan on the C one,
    bit-identical either way. Exact because an LRU set's contents are
    history-independent: after any prefix the set holds precisely its
    ``ways`` most recently accessed distinct tags.

    Returns ``(hits, lines_per_group, group_keys)``: total hits,
    the valid lines each group retains at the end —
    ``min(distinct tags, ways)``, since each miss allocates one
    line and evicts only when the set is already full — and the
    sorted unique keys the line counts are aligned with.
    """
    n = keys.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return 0, empty, empty
    order = np.argsort(keys, kind="stable")  # stable = arrival order per group
    key_sorted = keys[order]
    tag_sorted = tag[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = key_sorted[1:] != key_sorted[:-1]
    starts = np.flatnonzero(new_group)
    group_keys = key_sorted[starts]
    bounds = np.append(starts, n).astype(np.int64)
    hits, lines_per_group = kernels.lru_walk(tag_sorted, bounds, ways)
    return hits, lines_per_group, group_keys


def _functional_counts(
    index: np.ndarray,
    tag: np.ndarray,
    starts: np.ndarray,
    ways: int,
    num_sets: int,
) -> tuple[int, int]:
    """(hits, flush_invalidations) over all cold-started epochs.

    Pure function of the decode, the epoch bracketing and the set
    geometry — deliberately independent of bank count, policy and power
    management, which is what lets sweeps share it across those axes.
    """
    if ways == 1:
        tracker = _DirectMappedTracker(num_sets)
        tracker.advance(index, tag, starts)
        return tracker.hits, tracker.flush_invalidations
    num_epochs = len(starts) - 1
    if int(starts[-1]) == 0:
        return 0, 0
    epoch_of = np.repeat(np.arange(num_epochs), np.diff(starts))
    hits, lines_per_group, group_keys = _grouped_lru(
        epoch_of * num_sets + index, tag, ways
    )
    lines_per_epoch = np.zeros(num_epochs, dtype=np.int64)
    np.add.at(lines_per_epoch, group_keys // num_sets, lines_per_group)
    return int(hits), int(lines_per_epoch[:-1].sum())


def hits_key(config) -> tuple:
    """Plan key of a config's hit/flush counts: bit split × ways ×
    schedule. Bank count, policy and power management drop out, so
    those axes share one cache-content walk."""
    geometry = config.geometry
    return (
        "hits",
        geometry.offset_bits,
        geometry.index_bits,
        geometry.ways,
        TracePlan.schedule_key(config),
    )


def plan_counts(plan: TracePlan, config) -> tuple[int, int, int]:
    """``(updates_applied, hits, flush_invalidations)`` of ``config``
    over the plan's trace.

    Reads the plan's decode and epoch bracketing and caches the
    hit/flush walk under :func:`hits_key`, so the banked engine's
    breakeven groups and the fine-grain template share one walk per
    bit split and schedule.
    """
    geometry = config.geometry
    index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)
    boundaries, starts = plan.epoch_starts(config)
    hits, flush_invalidations = plan.cached(
        hits_key(config),
        lambda: _functional_counts(
            index, tag, starts, geometry.ways, geometry.num_sets
        ),
    )
    return len(boundaries), hits, flush_invalidations


def validate_breakeven_group(configs) -> None:
    """Reject groups whose configs differ in anything but the breakeven.

    Shared by :func:`run_breakeven_group` and the streaming
    :class:`~repro.core.streamsim.StreamCursor`, so the group contract
    is enforced identically on both paths.
    """
    base = configs[0]
    for other in configs[1:]:
        if replace(other, breakeven_override=base.breakeven_override) != base:
            raise SimulationError(
                "breakeven group configs must differ only in breakeven_override"
            )


def run_breakeven_group(
    configs,
    trace: Trace,
    lut: LifetimeLUT | None = None,
    plan: TracePlan | None = None,
) -> list[SimulationResult]:
    """Simulate configs that differ only in ``breakeven_override``.

    The breakeven time only enters the per-bank idleness thresholding,
    so the whole group shares one decode, one epoch bracketing, one
    hit/miss computation and one bank sort; the batched idleness kernel
    then evaluates every breakeven from a single gap computation.
    Returns one :class:`~repro.core.results.SimulationResult` per
    config, in order, each bit-identical to simulating that config
    alone.
    """
    if not configs:
        return []
    base = configs[0]
    validate_breakeven_group(configs)
    plan = ensure_plan(plan, trace)
    updates_applied, hits, flush_invalidations = plan_counts(plan, base)
    # Per-bank idleness over the whole run (sleep is oblivious to
    # mapping changes; only the physical access stream matters). The
    # breakeven-independent gap structure is cached per routing, so
    # even *separate* groups sharing a routing (e.g. a power_managed
    # or technology axis) pay for the sort-and-gap pass once.
    gaps = plan.idle_gaps(base)
    breakevens = [_effective_breakeven(config, trace.horizon) for config in configs]
    stats_batch = batch_stats_from_gaps(gaps, breakevens)

    return assemble_group(
        configs,
        trace.name,
        trace.horizon,
        stats_batch,
        hits,
        len(trace),
        updates_applied,
        flush_invalidations,
        lut,
    )


class FastEngine(Engine):
    """The vectorized banked engine, registered as ``fast``.

    Covers every :class:`~repro.core.config.ArchitectureConfig` and is
    bit-identical to the reference oracle. ``run`` is a one-config
    :func:`run_breakeven_group`; ``run_group`` is the batched fast path
    the sweep engine uses to evaluate a whole ``breakeven_override``
    axis from one gap computation; ``open_stream_cursor`` is the
    streaming capability (see :mod:`repro.core.streamsim`). Every
    kernel runs on the dispatcher's process-wide backend (see
    :mod:`repro.kernels.dispatch`).
    """

    name = "fast"
    description = (
        "vectorized engine on the active kernel backend, "
        "bit-identical to the reference"
    )
    priority = 10

    def supports(self, config) -> bool:
        return isinstance(config, ArchitectureConfig)

    def run(self, config, trace, lut=None, plan=None):
        return run_breakeven_group([config], trace, lut=lut, plan=plan)[0]

    def run_group(self, configs, trace, lut=None, plan=None):
        """Batched evaluation of a breakeven-only config group."""
        return run_breakeven_group(configs, trace, lut=lut, plan=plan)

    def open_stream_cursor(self, configs, plan):
        """Carried-state cursor for single-pass multi-group evaluation."""
        from repro.core.streamsim import StreamCursor

        return StreamCursor(configs, plan)


register_engine(FastEngine())
