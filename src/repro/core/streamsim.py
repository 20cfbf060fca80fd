"""Streaming (out-of-core) simulation: chunked traces, carried state.

The one-shot fast engine (:mod:`repro.core.fastsim`) sees a whole
trace as the single chunk of its :class:`~repro.core.plan.TracePlan`.
This module feeds it a stream instead: the trace arrives as
:class:`~repro.trace.stream.TraceChunk` windows, one
:class:`~repro.core.plan.StreamingPlan` chunk at a time, and the
engine state that spans chunks is *carried* —

* **hits/flushes** — the fast engine's cache-content trackers, one per
  (bit split, ways, schedule) identity: direct-mapped geometries carry
  one tag per set (:class:`~repro.core.fastsim._DirectMappedTracker`,
  the same tracker that counts a whole trace), set-associative ones
  the full LRU stacks (:class:`~repro.core.fastsim._LruTracker`, the
  stack walk of :func:`~repro.core.fastsim._grouped_lru` with an
  initial state). Both match the one-shot counts exactly because a
  cache set's contents after any access prefix are history-independent
  summaries the carried state captures completely;
* **routing** — :meth:`~repro.core.plan.TracePlan.route` advances the
  cursor's carried indexing policy at each update boundary as it fires
  (the reference engine's lazy drain) and bank-sorts the chunk;
* **idleness** — the carry-state
  :class:`~repro.power.idleness.StreamingGapAccumulator`, whose only
  cross-chunk state is each bank's last-access cycle;
* **epochs/decode** — the plan's sections of the current chunk, so a
  multi-configuration pass decodes and brackets each chunk once per
  distinct key; the update schedules drain across chunks.

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

from repro.aging.lut import LifetimeLUT
from repro.core.engine import resolve_engine, supports_streaming, validate_engine
from repro.core.fastsim import (
    _DirectMappedTracker,
    _LruTracker,
    hits_key,
    validate_breakeven_group,
)
from repro.core.plan import StreamingPlan
from repro.core.results import SimulationResult
from repro.core.simulator import assemble_group
from repro.errors import SimulationError
from repro.power.idleness import StreamingGapAccumulator
from repro.trace.stream import TraceStream


def _hit_tracker(plan: StreamingPlan, config):
    """Shared hit/flush tracker for the config's functional identity,
    keyed like the one-shot plan's hit counts (:func:`hits_key`)."""
    geometry = config.geometry
    key = hits_key(config)
    if geometry.ways == 1:
        return plan.persistent(key, lambda: _DirectMappedTracker(geometry.num_sets))
    return plan.persistent(key, lambda: _LruTracker(geometry.num_sets, geometry.ways))


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
        validate_breakeven_group(configs)
        self.configs = list(configs)
        self.base = configs[0]
        self.policy = self.base.make_policy()
        # An unmanaged cache's effective breakeven is horizon + 1 — not
        # known until the stream ends — but its accounting is simply
        # "no gap ever converts": the accumulator's None (infinite)
        # threshold, bit-identical in every counter.
        breakevens = [
            config.breakeven() if config.power_managed else None
            for config in self.configs
        ]
        self.gaps = StreamingGapAccumulator(self.base.num_banks, breakevens)
        self.tracker = _hit_tracker(plan, self.base)
        self.updates_applied = 0
        self.accesses = 0

    def process(self, plan: StreamingPlan) -> None:
        """Fold the plan's current chunk into the carried state."""
        n = len(plan.chunk)
        if n == 0:
            return
        boundaries, _ = plan.epoch_starts(self.base)
        self.tracker.process_chunk(plan, self.base)
        self.gaps.update(*plan.route(self.base, self.policy))
        self.updates_applied += int(boundaries.size)
        self.accesses += n

    def finalize(
        self, horizon: int, trace_name: str, lut: LifetimeLUT | None
    ) -> list[SimulationResult]:
        """Close the window at ``horizon``; one result per group config."""
        return assemble_group(
            self.configs,
            trace_name,
            horizon,
            self.gaps.finalize(horizon),
            self.tracker.hits,
            self.accesses,
            self.updates_applied,
            self.tracker.flush_invalidations,
            lut,
        )


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
