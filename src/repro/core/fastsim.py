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
  come from one gap spectrum, filled by an arrival-order scan of the
  routed trace (:meth:`~repro.core.plan.TracePlan.idle_gaps`) and
  thresholded at every breakeven of a group by
  :meth:`~repro.power.idleness.GapSpectrum.threshold` (held to the per-bank
  :func:`~repro.power.idleness.stats_from_access_cycles` oracle by the
  tests) into one table that
  :func:`~repro.core.simulator.assemble_group` derives the group's
  results from;
* hits/misses: within an epoch the mapping is a bijection on banks and
  the line-in-bank bits pass through unchanged, so the physical set of
  an access is identified by its logical set index. One arrival-order
  scan (:func:`repro.kernels.lru_walk`) looks every access up in its
  set's LRU recency stack — one way for a direct-mapped cache — and
  flushes the stacks at each update, counting the valid lines it
  invalidates. Epochs after the first start cold (the update flushed).

The cache contents are a :class:`_CacheTracker`'s carried state, so the
same walk counts a whole trace here and a stream chunk by chunk in
:mod:`repro.core.streamsim`.

Across a sweep, everything breakeven-independent — decode, epoch
bracketing, hit counts, the gap spectrum — is shared between points through
:class:`repro.core.plan.TracePlan`, and :func:`run_breakeven_group`
evaluates a whole ``breakeven_override`` axis from one gap spectrum.
The fine-grain template (:mod:`repro.finegrain.engine`) is this
pipeline with one bank per cache line: it reads the same plan layers
and the same plan-cached hit counts (:func:`plan_counts`).
The kernels run on the dispatcher's process-wide backend
(:mod:`repro.kernels.dispatch`); every backend is bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ArchitectureConfig, validate_breakeven_group
from repro.core.engine import Engine, register_engine
from repro.core.plan import TracePlan, ensure_plan
from repro.core.results import SimulationResult
from repro.core.simulator import _effective_breakeven, assemble_group
from repro.aging.lut import LifetimeLUT
from repro.kernels import dispatch as kernels
from repro.trace.trace import Trace


class _CacheTracker:
    """Cache-content state, advanced epoch by epoch and chunk by chunk.

    The carried state is exactly what the cache remembers: one LRU
    recency stack of ``ways`` tags per set (``-1`` an invalid way; a
    direct-mapped cache is the one-way case). Each run of accesses
    advances it in arrival order through :func:`repro.kernels.lru_segment`,
    flushing before each epoch after the first, so the same tracker
    counts a stream chunk by chunk in :mod:`repro.core.streamsim` that
    :func:`repro.kernels.lru_walk` counts over a whole trace here.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.stacks = np.full((num_sets, ways), -1, dtype=np.int64)
        self.hits = 0
        self.flush_invalidations = 0
        self._chunk_id = -1

    def advance(self, index: np.ndarray, tag: np.ndarray, starts: np.ndarray) -> None:
        """Advance through the epochs ``starts`` brackets, flushing
        before each epoch after the first."""
        hits, flushed = kernels.lru_segment(index, tag, starts, self.stacks)
        self.hits += hits
        self.flush_invalidations += flushed

    def process_chunk(self, plan: TracePlan, config) -> None:
        """Advance through the plan's current chunk (idempotent per chunk)."""
        if plan.chunk_id == self._chunk_id:
            return
        self._chunk_id = plan.chunk_id
        geometry = config.geometry
        index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)
        _, starts = plan.epoch_starts(config)
        self.advance(index, tag, starts)


def _functional_counts(
    index: np.ndarray,
    tag: np.ndarray,
    starts: np.ndarray,
    ways: int,
    num_sets: int,
) -> tuple[int, int]:
    """(hits, flush_invalidations) over all epochs of a whole trace:
    the one-shot cache scan (:func:`repro.kernels.lru_walk`) from a
    cold cache, for every associativity.

    A function of its own because the traced benchmark run times it as
    the ``core.fastsim.functional_counts`` layer (``perfbench/layers.json``).
    """
    return kernels.lru_walk(index, tag, starts, num_sets, ways)


def hits_key(config) -> tuple:
    """Plan key of a config's hit/flush counts: bit split × ways ×
    schedule. The counts are a pure function of the decode, the epoch
    bracketing and the set geometry; bank count, policy and power
    management drop out, so sweeps share one cache-content walk across
    those axes."""
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


def run_breakeven_group(
    configs,
    trace: Trace,
    lut: LifetimeLUT | None = None,
    plan: TracePlan | None = None,
) -> list[SimulationResult]:
    """Simulate configs that differ only in ``breakeven_override``.

    The breakeven time only enters the per-bank idleness thresholding,
    so the whole group shares one decode, one epoch bracketing, one
    hit/miss computation and one gap spectrum, which evaluates every
    breakeven from suffix sums.
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
    # breakeven-independent gap spectrum is cached per routing, so
    # even *separate* groups sharing a routing (e.g. a power_managed
    # or technology axis) pay for the scan once.
    gaps = plan.idle_gaps(base)
    breakevens = [_effective_breakeven(config, trace.horizon) for config in configs]
    return assemble_group(
        configs,
        trace.name,
        trace.horizon,
        gaps.threshold(breakevens),
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
