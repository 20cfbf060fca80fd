"""Streaming (out-of-core) simulation: chunked traces, carried state.

The one-shot fast engine (:mod:`repro.core.fastsim`) needs the whole
trace resident to sort and scan it. This module is its streaming
counterpart: the trace arrives as :class:`~repro.trace.stream.TraceChunk`
windows and every piece of engine state is *carried* across chunk
boundaries instead of recomputed from a global view —

* **hits/flushes** — a real cache-content model per (bit split, ways,
  schedule) identity: direct-mapped geometries carry one tag per set
  (:class:`_DirectMappedTracker`), set-associative ones carry the full
  LRU stacks (:class:`_LruTracker`, the lockstep rank walk of
  :meth:`~repro.core.fastsim.FastSimulator._grouped_lru` with an
  initial state). Both match the one-shot counts exactly because a
  cache set's contents after any access prefix are history-independent
  summaries the carried state captures completely;
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
``open_stream_cursor(configs, plan, shard=None)``, which returns a
:class:`StreamCursor` (the fast engine's — see
:class:`~repro.core.fastsim.FastEngine`). Entry points:
:func:`run_streaming` / :func:`run_streaming_group` (one pass on a
given kernel backend), :func:`simulate_stream` (the dispatching
front-end mirroring :func:`~repro.core.simulator.simulate`), and
:func:`stream_selected` (single-pass evaluation of many grid points),
which :func:`~repro.analysis.sweep.simulate_selected` — the one source
dispatch under sweeps, streamed sweeps and campaigns — runs for every
stream or stream factory it is given.

**Sharded parallel streaming.** ``stream_selected(parallel=N)`` splits
one pass over the stream across ``N`` worker processes: worker ``w``
tracks hits for the cache sets with ``set_index % N == w`` and idle
gaps for the physical banks with ``bank % N == w``. Both partitions
are exact — per-set cache state and per-bank gap state never interact
across partition members — so elementwise
:meth:`~repro.power.idleness.BankIdleStats.merge` plus summed hit
counters reconstruct the serial pass **bit-identically** (the fuzz
suite pins it). Every worker re-opens the stream (the
:class:`~repro.trace.stream.TraceStream` contract makes ``chunks()``
repeatable) and advances its own policy/epoch cursors. The workers come
from the shared pool (:func:`repro.core.pool.worker_pool`), which ships
the stream (or its factory) once per worker as the pool's state; when
the stream cannot travel to workers, the pass falls back to serial with
a :class:`~repro.errors.ReproWarning`.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass, replace

import numpy as np

from repro.aging.lut import LifetimeLUT
from repro.cache.stats import CacheStats
from repro.core.engine import resolve_engine, supports_streaming, validate_engine
from repro.core.plan import StreamingPlan, TracePlan
from repro.core.pool import worker_pool, worker_state
from repro.core.results import SimulationResult
from repro.core.simulator import assemble_result
from repro.errors import ConfigurationError, ReproWarning, SimulationError
from repro.kernels import dispatch as kernels
from repro.power.idleness import BankIdleStats, StreamingGapAccumulator
from repro.trace.stream import TraceStream


class _CarriedTracker:
    """Carried cache-content state, advanced chunk by chunk.

    Subclasses hold the per-set state and implement ``flush`` (an
    update fired: count the surviving lines, start the epoch cold) and
    ``_segment`` (advance through one epoch segment's accesses).

    ``shard`` is an optional ``(index, count)`` pair restricting the
    tracker to the sets with ``set % count == index`` — the set
    partition of a sharded parallel pass. Per-set cache state never
    crosses sets, so the owned sets' hit/flush counts are exactly the
    serial tracker's contribution from those sets.
    """

    def __init__(
        self, backend: str | None = None, shard: tuple[int, int] | None = None
    ) -> None:
        self.backend = backend
        self.shard = shard
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
        keep = None
        if self.shard is not None:
            worker, count = self.shard
            keep = (index % count) == worker
        _, starts = plan.epoch_segments(config)
        for segment in range(len(starts) - 1):
            if segment > 0:
                self.flush()
            lo, hi = int(starts[segment]), int(starts[segment + 1])
            if lo < hi:
                if keep is None:
                    self._segment(index[lo:hi], tag[lo:hi])
                else:
                    mask = keep[lo:hi]
                    self._segment(index[lo:hi][mask], tag[lo:hi][mask])


class _DirectMappedTracker(_CarriedTracker):
    """Carried cache-content state of a direct-mapped geometry.

    One tag (plus a valid bit) per set — exactly what a direct-mapped
    cache remembers — so the adjacent-tag hit rule of the one-shot
    engine extends across chunk boundaries: the first access of a set
    within a chunk compares against the carried tag, later ones against
    their in-chunk predecessor.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        backend: str | None = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(backend, shard)
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
    :meth:`~repro.core.fastsim.FastSimulator._grouped_lru`), starting
    from the carried contents instead of cold. Exact for the same
    reason the one-shot walk is: an LRU set's contents are a
    history-independent function of its most recent distinct tags.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        backend: str | None = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(backend, shard)
        self.stacks = np.full((num_sets, ways), -1, dtype=np.int64)

    def flush(self) -> None:
        self.flush_invalidations += int(np.count_nonzero(self.stacks != -1))
        self.stacks[:] = -1

    def _segment(self, index: np.ndarray, tag: np.ndarray) -> None:
        if index.size == 0:
            return
        order = np.argsort(index, kind="stable")
        self.hits += kernels.lru_segment(
            index[order], tag[order], self.stacks, backend=self.backend
        )


def _hit_tracker(
    plan: StreamingPlan,
    config,
    backend: str | None = None,
    shard: tuple[int, int] | None = None,
):
    """Shared hit/flush tracker for the config's functional identity.

    Keyed exactly like the one-shot plan's ``hits`` section — bit
    split × ways × schedule (plus the shard, if any) — so
    configurations differing only in banking, policy or power
    management share one cache-content walk per pass. The kernel
    backend is not part of the key: every backend is bit-identical, so
    whichever cursor creates the tracker fixes the backend it runs on.
    """
    geometry = config.geometry
    key = (
        "hits",
        geometry.offset_bits,
        geometry.index_bits,
        geometry.ways,
        TracePlan.schedule_key(config),
        shard,
    )
    cls = _DirectMappedTracker if geometry.ways == 1 else _LruTracker
    return plan.persistent(
        key, lambda: cls(geometry.num_sets, geometry.ways, backend, shard)
    )


class StreamCursor:
    """Carried state of one breakeven-group over a chunked pass.

    One cursor fully describes the simulation of a group of
    configurations differing only in ``breakeven_override``: the
    shared hit tracker, the advancing indexing policy, and a
    :class:`~repro.power.idleness.StreamingGapAccumulator` thresholding
    every breakeven of the group from the same carried gap state.
    Memory is O(num_sets × ways + num_banks × breakevens + chunk) —
    independent of stream length.

    ``backend`` selects the kernel backend for the tracker and gap
    walks (bit-identical across backends). ``shard`` is the
    ``(index, count)`` pair of a sharded parallel pass: the cursor then
    tracks hits only for its set partition and gaps only for its bank
    partition, and must be finalized with :meth:`finalize_partial` so
    the parent can merge the shard set back into full results.
    """

    def __init__(
        self,
        configs,
        plan: StreamingPlan,
        backend: str | None = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        if not configs:
            raise SimulationError("a stream cursor needs at least one config")
        from repro.core.fastsim import validate_breakeven_group

        validate_breakeven_group(configs)
        self.configs = list(configs)
        self.base = configs[0]
        self.policy = self.base.make_policy()
        self.num_banks = self.base.num_banks
        self.backend = backend
        self.shard = shard
        self._owned_banks = None
        owned = None
        if shard is not None:
            worker, count = shard
            if count < 1 or not 0 <= worker < count:
                raise SimulationError("shard must be (index, count) with 0 <= index < count")
            self._owned_banks = (np.arange(self.num_banks) % count) == worker
            owned = self._owned_banks
        # An unmanaged cache's effective breakeven is horizon + 1 — not
        # known until the stream ends — but its accounting is simply
        # "no gap ever converts": the accumulator's None (infinite)
        # threshold, bit-identical in every counter.
        breakevens = [
            config.breakeven() if config.power_managed else None
            for config in self.configs
        ]
        self.gaps = StreamingGapAccumulator(
            self.num_banks, breakevens, backend=backend, owned_banks=owned
        )
        self.tracker = _hit_tracker(plan, self.base, backend=backend, shard=shard)
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
            if self._owned_banks is None or self._owned_banks[0]:
                sorted_cycles = chunk.cycles
                splits = np.array([0, n], dtype=np.int64)
            else:
                sorted_cycles = np.empty(0, dtype=np.int64)
                splits = np.zeros(2, dtype=np.int64)
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
            cycles = chunk.cycles
            if self._owned_banks is not None:
                # The policy advanced over the full chunk (routing is
                # schedule-driven and identical in every shard); only
                # the owned banks' accesses feed the gap walk.
                mine = self._owned_banks[physical]
                physical = physical[mine]
                cycles = cycles[mine]
            order = np.argsort(physical, kind="stable")
            sorted_cycles = cycles[order]
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
        if self.shard is not None:
            raise SimulationError(
                "a sharded cursor holds partial counters; use finalize_partial"
            )
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

    def finalize_partial(self, horizon: int) -> "StreamShardPartial":
        """Close the window and return this shard's raw counters.

        The picklable half of a sharded pass: hits and flush
        invalidations cover only the owned sets, the per-bank stats
        only the owned banks (non-owned rows are all-zero with
        ``total_cycles == 0``), while ``accesses`` and
        ``updates_applied`` cover the full stream — every shard sees
        the whole schedule, so the parent asserts they agree and sums
        only the partitioned counters.
        """
        return StreamShardPartial(
            accesses=self.accesses,
            hits=self.tracker.hits,
            flush_invalidations=self.tracker.flush_invalidations,
            updates_applied=self.updates_applied,
            stats_batch=self.gaps.finalize(horizon),
        )


@dataclass(frozen=True)
class StreamShardPartial:
    """One shard's contribution to a streamed breakeven group."""

    accesses: int
    hits: int
    flush_invalidations: int
    updates_applied: int
    stats_batch: list[list[BankIdleStats]]


def merge_shard_partials(
    configs,
    partials: list[StreamShardPartial],
    horizon: int,
    trace_name: str,
    lut: LifetimeLUT | None,
) -> list[SimulationResult]:
    """Recombine a full shard set into the serial pass's results.

    Hits and flush invalidations sum across the disjoint set
    partitions; per-bank stats merge elementwise across the disjoint
    bank partitions (exactly one shard owns each bank, so summed
    counters — including ``total_cycles`` — reproduce the serial
    accumulator's). ``accesses``/``updates_applied`` must agree across
    shards: every worker replays the identical schedule.
    """
    if not partials:
        raise SimulationError("cannot merge an empty shard set")
    first = partials[0]
    for other in partials[1:]:
        if (
            other.accesses != first.accesses
            or other.updates_applied != first.updates_applied
        ):
            raise SimulationError(
                "stream shards disagree on the access count or update "
                "schedule; the stream is not replaying identically"
            )
    hits = sum(partial.hits for partial in partials)
    flush_invalidations = sum(partial.flush_invalidations for partial in partials)
    misses = first.accesses - hits
    results = []
    for row, config in enumerate(configs):
        merged = first.stats_batch[row]
        for other in partials[1:]:
            merged = [
                mine.merge(theirs)
                for mine, theirs in zip(merged, other.stats_batch[row])
            ]
        cache_stats = CacheStats(
            hits=hits, misses=misses, flushes=first.updates_applied
        )
        results.append(
            assemble_result(
                config,
                trace_name,
                horizon,
                merged,
                cache_stats,
                first.updates_applied,
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


def run_streaming_group(
    configs,
    stream: TraceStream,
    lut: LifetimeLUT | None = None,
    plan: StreamingPlan | None = None,
    backend: str | None = None,
) -> list[SimulationResult]:
    """Simulate a breakeven-only config group in one pass over ``stream``.

    The streaming analogue of
    :func:`~repro.core.fastsim.run_breakeven_group`: one chunked pass,
    one carried gap state, every breakeven thresholded incrementally.
    Results are bit-identical to the one-shot group on the materialized
    trace.
    """
    if not configs:
        return []
    plan = plan if plan is not None else StreamingPlan()
    cursor = StreamCursor(configs, plan, backend=backend)
    return cursor.finalize(_run_pass(stream, plan, [cursor]), stream.name, lut)


def run_streaming(
    config,
    stream: TraceStream,
    lut: LifetimeLUT | None = None,
    plan: StreamingPlan | None = None,
    backend: str | None = None,
) -> SimulationResult:
    """Simulate one configuration from a chunked stream (out-of-core)."""
    return run_streaming_group([config], stream, lut=lut, plan=plan, backend=backend)[0]


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


def _shard_pass(payload):
    """Worker for the sharded streaming pass: one full pass, one shard.

    Module-level (not a closure) so it pickles into pool workers. The
    worker re-opens the stream (``chunks()`` is repeatable by
    contract), advances every group's cursor over its set/bank
    partition, and returns the raw partial counters — result assembly
    happens in the parent after the merge.
    """
    stream, engine = worker_state()
    shard_index, shard_count, group_configs = payload
    stream = stream() if callable(stream) else stream
    plan = StreamingPlan()
    shard = (shard_index, shard_count)
    cursors = [
        (
            group_id,
            resolve_engine(engine, configs[0]).open_stream_cursor(
                configs, plan, shard=shard
            ),
        )
        for group_id, configs in group_configs
    ]
    horizon = _run_pass(stream, plan, [cursor for _, cursor in cursors])
    return (
        stream.name,
        horizon,
        [(group_id, cursor.finalize_partial(horizon)) for group_id, cursor in cursors],
    )


def stream_selected(
    base,
    stream,
    names,
    combos,
    group_ids=None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    on_result=None,
    parallel: int | None = None,
) -> list[SimulationResult]:
    """Evaluate many grid points in a **single pass** over ``stream``.

    The streaming counterpart of
    :func:`~repro.analysis.sweep.simulate_selected`: one cursor per
    breakeven group (per-point groups when ``group_ids`` is ``None``),
    all advanced chunk by chunk through one shared
    :class:`~repro.core.plan.StreamingPlan`, so the stream is read
    once however many points the grid has and peak memory stays
    O(chunk + per-point carried state).

    ``stream`` is a :class:`~repro.trace.stream.TraceStream` or a
    zero-argument factory producing one (a factory is what lets the
    pass parallelize when the stream itself cannot pickle).

    ``parallel=N`` shards the pass across ``N`` worker processes by
    set/bank partition — each worker runs the full pass over its own
    re-opened stream but tracks only its partition's counters, and the
    parent merges the shard set back into full results, bit-identical
    to the serial pass. When sharding is impossible (a stream that
    cannot travel to workers) the pass emits a
    :class:`~repro.errors.ReproWarning` and runs serially instead of
    silently ignoring the flag.

    Every group's resolved engine must expose the
    ``open_stream_cursor`` capability (the fast engines'); an engine
    without it fails loudly. Results come back in ``combos`` order,
    bit-identical to the in-memory path, and
    ``on_result(position, result)`` fires per point after its group
    finalizes.
    """
    validate_engine(engine)
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be a positive worker count")
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
        group_id: resolve_engine(engine, configs[0])
        for group_id, configs in group_configs.items()
    }
    for chosen in engines.values():
        if not supports_streaming(chosen):
            raise SimulationError(
                f"engine {chosen.name!r} does not support streaming simulation; "
                "materialize the trace (repro.trace.stream.stream_to_trace) or "
                "pick an engine with the open_stream_cursor capability"
            )

    shared_lut = lut if lut is not None else LifetimeLUT.default()
    workers = parallel or 1
    if workers > 1 and not callable(stream):
        try:
            pickle.dumps(stream)
        except Exception:
            warnings.warn(
                f"parallel={parallel} requested but the streaming pass cannot "
                "be sharded (the stream does not pickle and no stream factory "
                "was given; pass a zero-argument callable producing the "
                "stream); running the serial single pass",
                ReproWarning,
                stacklevel=2,
            )
            workers = 1
    if workers > 1:
        group_results = _sharded_pass(
            stream, engine, group_configs, shared_lut, workers
        )
    else:
        stream = stream() if callable(stream) else stream
        plan = StreamingPlan()
        cursors = {
            group_id: engines[group_id].open_stream_cursor(configs, plan)
            for group_id, configs in group_configs.items()
        }
        horizon = _run_pass(stream, plan, cursors.values())
        group_results = {
            group_id: cursor.finalize(horizon, stream.name, shared_lut)
            for group_id, cursor in cursors.items()
        }
    results: list[SimulationResult | None] = [None] * len(combos)
    for group_id, members in groups.items():
        for position, result in zip(members, group_results[group_id]):
            results[position] = result
            if on_result is not None:
                on_result(position, result)
    return results


def _sharded_pass(
    stream,
    engine: str,
    group_configs: dict[int, list],
    lut: LifetimeLUT,
    workers: int,
) -> dict[int, list[SimulationResult]]:
    """Sharded fan-out of one streaming pass (see :func:`stream_selected`).

    Worker ``w`` of ``workers`` runs the full pass but tracks hits
    only for sets with ``set % workers == w`` and gaps only for banks
    with ``bank % workers == w``; the parent merges each group's shard
    set with :func:`merge_shard_partials`. The stream (or its factory)
    travels once per worker as the pool's state; shard payloads carry
    the coordinates and the groups' configs.
    """
    items = list(group_configs.items())
    payloads = [(worker, workers, items) for worker in range(workers)]
    with worker_pool(workers, (stream, engine)) as pool:
        outputs = list(pool.map(_shard_pass, payloads))

    identities = {(name, horizon) for name, horizon, _ in outputs}
    if len(identities) != 1:
        raise SimulationError(
            "stream shards disagree on the stream identity or horizon; "
            "the stream is not replaying identically across workers"
        )
    stream_name, horizon, _ = outputs[0]
    partials: dict[int, list[StreamShardPartial]] = {
        group_id: [] for group_id in group_configs
    }
    for _, _, shard_items in outputs:
        for group_id, partial in shard_items:
            partials[group_id].append(partial)
    return {
        group_id: merge_shard_partials(
            configs, partials[group_id], horizon, stream_name, lut
        )
        for group_id, configs in group_configs.items()
    }
