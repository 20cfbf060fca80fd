"""Streaming (out-of-core) simulation: chunked traces, carried state.

The one-shot fast engine (:mod:`repro.core.fastsim`) needs the whole
trace resident to sort and scan it. This module is its streaming
counterpart: the trace arrives as :class:`~repro.trace.stream.TraceChunk`
windows and every piece of engine state is *carried* across chunk
boundaries instead of recomputed from a global view —

* **hits/flushes** — a real cache-content model per (bit split, ways,
  schedule) identity: direct-mapped geometries carry one tag per set
  (:class:`_DirectMappedTracker`), set-associative ones carry the full
  LRU stacks (:class:`_LruTracker`, the stack walk of
  :func:`~repro.core.fastsim._grouped_lru` with an initial state).
  Both match the one-shot counts exactly because a cache set's
  contents after any access prefix are history-independent summaries
  the carried state captures completely;
* **routing** — the indexing policy object advances at each update
  boundary as it fires (the reference engine's lazy drain), and each
  chunk is routed and bank-sorted locally;
* **idleness** — the carry-state
  :class:`~repro.power.idleness.StreamingGapAccumulator`, whose only
  cross-chunk state is each bank's last-access cycle;
* **epochs/decode** — shared per chunk through
  :class:`~repro.core.plan.StreamingPlan`, so a multi-configuration
  pass decodes each chunk once per distinct key.

Every finalized :class:`~repro.core.results.SimulationResult` is
**bit-identical** to the one-shot engine on the materialized trace (the
streaming fuzz suite enforces this across banks, ways, policies,
breakevens and adversarial chunk sizes), while peak memory is bounded
by the chunk size, not the trace length
(``benchmarks/bench_stream.py`` measures it).

An engine streams through one capability,
``open_stream_cursor(configs, plan)``, which returns a
:class:`StreamCursor` (the fast engine's — see
:class:`~repro.core.fastsim.FastEngine`). Entry points:
:func:`simulate_stream` (the dispatching front-end mirroring
:func:`~repro.core.simulator.simulate`) and :func:`stream_selected`
(single-pass evaluation of many grid points). Both run in the calling
process; :func:`~repro.analysis.sweep.simulate_selected` — the one
source dispatch and process fan-out under sweeps, streamed sweeps and
campaigns — runs one serial :func:`stream_selected` pass per grid
chunk when asked for ``parallel=N``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.aging.lut import LifetimeLUT
from repro.cache.stats import CacheStats
from repro.core.engine import resolve_engine, supports_streaming, validate_engine
from repro.core.plan import StreamingPlan, TracePlan
from repro.core.results import SimulationResult
from repro.core.simulator import assemble_result
from repro.errors import SimulationError
from repro.kernels import dispatch as kernels
from repro.power.idleness import StreamingGapAccumulator
from repro.trace.stream import TraceStream


class _CarriedTracker:
    """Carried cache-content state, advanced chunk by chunk.

    Subclasses hold the per-set state and implement ``flush`` (an
    update fired: count the surviving lines, start the epoch cold) and
    ``_segment`` (advance through one epoch segment's accesses).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.flush_invalidations = 0
        self._chunk_id = -1

    def flush(self) -> None:
        raise NotImplementedError

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        raise NotImplementedError

    def process_chunk(self, plan: StreamingPlan, config) -> None:
        """Advance through the current chunk (idempotent per chunk)."""
        if plan.chunk_id == self._chunk_id:
            return
        self._chunk_id = plan.chunk_id
        geometry = config.geometry
        index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)
        _, starts = plan.epoch_segments(config)
        for segment in range(len(starts) - 1):
            if segment > 0:
                self.flush()
            lo, hi = int(starts[segment]), int(starts[segment + 1])
            if lo < hi:
                self._segment(index[lo:hi], tag[lo:hi])


class _DirectMappedTracker(_CarriedTracker):
    """Carried cache-content state of a direct-mapped geometry.

    One tag (plus a valid bit) per set — exactly what a direct-mapped
    cache remembers — so the adjacent-tag hit rule of the one-shot
    engine extends across chunk boundaries: the first access of a set
    within a chunk compares against the carried tag, later ones against
    their in-chunk predecessor.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__()
        self.tags = np.zeros(num_sets, dtype=np.int64)
        self.valid = np.zeros(num_sets, dtype=bool)

    def flush(self) -> None:
        self.flush_invalidations += int(np.count_nonzero(self.valid))
        self.valid[:] = False

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        n = index.size
        if n == 0:
            return
        order = np.lexsort((np.arange(n), index))
        idx_sorted = index[order]
        tag_sorted = tag[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = idx_sorted[1:] != idx_sorted[:-1]
        # Non-first accesses of a set-run hit iff their in-chunk
        # predecessor (same set, adjacent after the sort) carried the
        # same tag — the one-shot adjacent comparison, verbatim.
        self.hits += int(np.count_nonzero(~first[1:] & (tag_sorted[1:] == tag_sorted[:-1])))
        first_pos = np.flatnonzero(first)
        first_idx = idx_sorted[first_pos]
        first_tag = tag_sorted[first_pos]
        self.hits += int(
            np.count_nonzero(self.valid[first_idx] & (self.tags[first_idx] == first_tag))
        )
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = idx_sorted[1:] != idx_sorted[:-1]
        last_pos = np.flatnonzero(last)
        self.tags[idx_sorted[last_pos]] = tag_sorted[last_pos]
        self.valid[idx_sorted[last_pos]] = True


class _LruTracker(_CarriedTracker):
    """Carried LRU stacks of a set-associative geometry.

    The full ``(num_sets, ways)`` recency stacks are the carried state;
    each chunk segment advances them through
    :func:`repro.kernels.lru_segment` (the carried-state sibling of the
    one-shot walk behind
    :func:`~repro.core.fastsim._grouped_lru`), starting
    from the carried contents instead of cold. Exact for the same
    reason the one-shot walk is: an LRU set's contents are a
    history-independent function of its most recent distinct tags.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__()
        self.stacks = np.full((num_sets, ways), -1, dtype=np.int64)

    def flush(self) -> None:
        self.flush_invalidations += int(np.count_nonzero(self.stacks != -1))
        self.stacks[:] = -1

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        if index.size == 0:
            return
        order = np.argsort(index, kind="stable")
        self.hits += kernels.lru_segment(index[order], tag[order], self.stacks)


def _hit_tracker(plan: StreamingPlan, config):
    """Shared hit/flush tracker for the config's functional identity.

    Keyed exactly like the one-shot plan's ``hits`` section — bit
    split × ways × schedule — so
    configurations differing only in banking, policy or power
    management share one cache-content walk per pass.
    """
    geometry = config.geometry
    key = (
        "hits",
        geometry.offset_bits,
        geometry.index_bits,
        geometry.ways,
        TracePlan.schedule_key(config),
    )
    cls = _DirectMappedTracker if geometry.ways == 1 else _LruTracker
    return plan.persistent(key, lambda: cls(geometry.num_sets, geometry.ways))


class StreamCursor:
    """Carried state of one breakeven-group over a chunked pass.

    One cursor fully describes the simulation of a group of
    configurations differing only in ``breakeven_override``: the
    shared hit tracker, the advancing indexing policy, and a
    :class:`~repro.power.idleness.StreamingGapAccumulator` thresholding
    every breakeven of the group from the same carried gap state.
    Memory is O(num_sets × ways + num_banks × breakevens + chunk) —
    independent of stream length.
    """

    def __init__(self, configs, plan: StreamingPlan) -> None:
        if not configs:
            raise SimulationError("a stream cursor needs at least one config")
        from repro.core.fastsim import validate_breakeven_group

        validate_breakeven_group(configs)
        self.configs = list(configs)
        self.base = configs[0]
        self.policy = self.base.make_policy()
        self.num_banks = self.base.num_banks
        # An unmanaged cache's effective breakeven is horizon + 1 — not
        # known until the stream ends — but its accounting is simply
        # "no gap ever converts": the accumulator's None (infinite)
        # threshold, bit-identical in every counter.
        breakevens = [
            config.breakeven() if config.power_managed else None
            for config in self.configs
        ]
        self.gaps = StreamingGapAccumulator(self.num_banks, breakevens)
        self.tracker = _hit_tracker(plan, self.base)
        self.updates_applied = 0
        self.accesses = 0

    def process(self, plan: StreamingPlan) -> None:
        """Fold the plan's current chunk into the carried state."""
        chunk = plan.chunk
        n = len(chunk)
        if n == 0:
            return
        boundaries, starts = plan.epoch_segments(self.base)
        self.tracker.process_chunk(plan, self.base)
        geometry = self.base.geometry
        if self.num_banks == 1:
            sorted_cycles = chunk.cycles
            splits = np.array([0, n], dtype=np.int64)
        else:
            logical = plan.logical_banks(
                geometry.offset_bits, geometry.index_bits, self.num_banks
            )
            physical = np.empty(n, dtype=np.min_scalar_type(self.num_banks - 1))
            for segment in range(len(starts) - 1):
                if segment > 0:
                    self.policy.update()
                lo, hi = int(starts[segment]), int(starts[segment + 1])
                if lo == hi:
                    continue
                physical[lo:hi] = self.policy.mapping()[logical[lo:hi]]
            order = np.argsort(physical, kind="stable")
            sorted_cycles = chunk.cycles[order]
            splits = np.searchsorted(
                physical[order], np.arange(self.num_banks + 1)
            ).astype(np.int64)
        self.gaps.update(sorted_cycles, splits)
        self.updates_applied += int(boundaries.size)
        self.accesses += n

    def finalize(
        self, horizon: int, trace_name: str, lut: LifetimeLUT | None
    ) -> list[SimulationResult]:
        """Close the window at ``horizon``; one result per group config."""
        stats_batch = self.gaps.finalize(horizon)
        hits = self.tracker.hits
        misses = self.accesses - hits
        flush_invalidations = self.tracker.flush_invalidations
        results = []
        for config, bank_stats in zip(self.configs, stats_batch):
            cache_stats = CacheStats(
                hits=hits, misses=misses, flushes=self.updates_applied
            )
            results.append(
                assemble_result(
                    config,
                    trace_name,
                    horizon,
                    bank_stats,
                    cache_stats,
                    self.updates_applied,
                    flush_invalidations,
                    lut,
                )
            )
        return results


def _run_pass(stream: TraceStream, plan: StreamingPlan, cursors) -> int:
    """Advance every cursor over one pass of ``stream``; return its horizon."""
    for chunk in stream.chunks():
        plan.begin_chunk(chunk)
        for cursor in cursors:
            cursor.process(plan)
    horizon = stream.horizon
    if horizon is None:
        raise SimulationError(
            "stream did not resolve its horizon after exhaustion"
        )
    return int(horizon)


def simulate_stream(
    config,
    stream: TraceStream,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
) -> SimulationResult:
    """Dispatching front-end for streaming simulation.

    Mirrors :func:`~repro.core.simulator.simulate`, but takes a
    :class:`~repro.trace.stream.TraceStream`. The resolved engine must
    expose the ``open_stream_cursor`` capability (the fast engines do;
    ``auto`` therefore streams for every banked configuration); engines
    without it fail loudly rather than silently materializing the
    trace.
    """
    return stream_selected(config, stream, [], [()], lut=lut, engine=engine)[0]


def streaming_engine(engine: str, config):
    """The engine ``engine`` resolves to for ``config``; it must stream.

    Raises :class:`~repro.errors.SimulationError` for an engine without
    the ``open_stream_cursor`` capability instead of silently
    materializing the trace.
    """
    chosen = resolve_engine(engine, config)
    if not supports_streaming(chosen):
        raise SimulationError(
            f"engine {chosen.name!r} does not support streaming simulation; "
            "materialize the trace (repro.trace.stream.stream_to_trace) or "
            "pick an engine with the open_stream_cursor capability"
        )
    return chosen


def stream_selected(
    base,
    stream,
    names,
    combos,
    group_ids=None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    on_result=None,
) -> list[SimulationResult]:
    """Evaluate many grid points in a **single pass** over ``stream``.

    The streaming counterpart of
    :func:`~repro.analysis.sweep.simulate_selected`'s serial path: one
    cursor per breakeven group (per-point groups when ``group_ids`` is
    ``None``), all advanced chunk by chunk through one shared
    :class:`~repro.core.plan.StreamingPlan`, so the stream is read
    once however many points the grid has and peak memory stays
    O(chunk + per-point carried state).

    ``stream`` is a :class:`~repro.trace.stream.TraceStream` or a
    zero-argument factory producing one.

    Every group's resolved engine must expose the
    ``open_stream_cursor`` capability (the fast engines'); an engine
    without it fails loudly. Results come back in ``combos`` order,
    bit-identical to the in-memory path, and
    ``on_result(position, result)`` fires per point after its group
    finalizes.
    """
    validate_engine(engine)
    if not combos:
        return []
    groups: dict[int, list[int]] = {}
    for position, group_id in enumerate(
        group_ids if group_ids is not None else range(len(combos))
    ):
        groups.setdefault(group_id, []).append(position)
    group_configs = {
        group_id: [
            replace(base, **dict(zip(names, combos[position])))
            for position in members
        ]
        for group_id, members in groups.items()
    }
    engines = {
        group_id: streaming_engine(engine, configs[0])
        for group_id, configs in group_configs.items()
    }

    shared_lut = lut if lut is not None else LifetimeLUT.default()
    stream = stream() if callable(stream) else stream
    plan = StreamingPlan()
    cursors = {
        group_id: engines[group_id].open_stream_cursor(configs, plan)
        for group_id, configs in group_configs.items()
    }
    horizon = _run_pass(stream, plan, cursors.values())
    results: list[SimulationResult | None] = [None] * len(combos)
    for group_id, members in groups.items():
        group_results = cursors[group_id].finalize(horizon, stream.name, shared_lut)
        for position, result in zip(members, group_results):
            results[position] = result
            if on_result is not None:
                on_result(position, result)
    return results
