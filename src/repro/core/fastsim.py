"""Vectorized simulation engine.

Produces bit-identical results to :class:`repro.core.simulator.ReferenceSimulator`
(the test suite enforces exact agreement on hits, misses, flushes,
per-bank access counts, sleep cycles and energy) while processing whole
re-indexing epochs with numpy:

* routing: the logical→physical permutation is constant within an
  epoch, so ``physical = mapping[logical]`` is a single ``take``;
* idleness: the sleep rule only looks at per-bank access-cycle gaps,
  and banks sleep straight through mapping changes, so all banks' stats
  come from one
  :func:`~repro.power.idleness.batch_stats_from_sorted_accesses` pass
  over the bank-sorted stream (held to the per-bank
  :func:`~repro.power.idleness.stats_from_access_cycles` oracle by the
  tests);
* hits/misses: within an epoch the mapping is a bijection on banks and
  the line-in-bank bits pass through unchanged, so the physical set of
  an access is identified by its logical set index; sorting accesses by
  (index, time) groups each set's accesses contiguously and in arrival
  order. Direct-mapped caches then reduce to one vectorized
  adjacent-tag comparison; set-associative caches run a lockstep LRU
  stack simulation over the set-groups (:meth:`FastSimulator._epoch_hits_lru`).
  Epochs start cold (the update flushed).

Across a sweep, everything breakeven-independent — decode, epoch
bracketing, hit counts, the bank sort — is shared between points through
:class:`repro.core.plan.TracePlan`, and :func:`run_breakeven_group`
evaluates a whole ``breakeven_override`` axis from one gap computation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cache.stats import CacheStats
from repro.core.config import ArchitectureConfig
from repro.core.engine import Engine, register_engine
from repro.core.plan import TracePlan, ensure_plan
from repro.core.results import SimulationResult
from repro.core.simulator import _effective_breakeven, _finish
from repro.aging.lut import LifetimeLUT
from repro.errors import SimulationError
from repro.kernels import dispatch as kernels
from repro.power.idleness import batch_stats_from_gaps
from repro.trace.trace import Trace


class FastSimulator:
    """Vectorized trace-driven simulator (same contract as the reference).

    Parameters
    ----------
    config:
        Architecture to simulate.
    lut:
        Lifetime lookup table; defaults to the shared calibrated one.
    plan:
        Optional shared :class:`~repro.core.plan.TracePlan`. When given,
        the decode, epoch boundaries, bank sort and hit counts are read
        from (and grown into) the plan's caches; when omitted a private
        plan is built per :meth:`run` call. Results are identical either
        way.
    backend:
        Kernel backend override (see :mod:`repro.kernels.dispatch`);
        ``None`` uses the process default. Every backend is
        bit-identical, so this only changes speed.
    """

    def __init__(
        self,
        config: ArchitectureConfig,
        lut: LifetimeLUT | None = None,
        plan: TracePlan | None = None,
        backend: str | None = None,
    ) -> None:
        self.config = config
        self.lut = lut
        self.plan = plan
        self.backend = backend

    # ------------------------------------------------------------------
    def _epoch_boundaries(self, trace: Trace) -> np.ndarray:
        """Update cycles that actually fire during the trace.

        The reference engine drains due updates lazily, right before the
        first access at or after each boundary; boundaries after the
        last access never fire. The returned array contains the firing
        boundaries in order. Thin view over
        :meth:`~repro.core.plan.TracePlan.epoch_starts` — the single
        implementation of schedule bracketing.
        """
        boundaries, _ = ensure_plan(self.plan, trace).epoch_starts(self.config)
        return boundaries

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate ``trace`` and return the measurement record.

        Direct-mapped geometries use the adjacent-tag comparison of
        :meth:`_epoch_hits`; set-associative ones the lockstep LRU
        stack simulation of :meth:`_epoch_hits_lru`. Both agree exactly
        with :class:`~repro.core.simulator.ReferenceSimulator`.
        """
        return run_breakeven_group(
            [self.config], trace, lut=self.lut, plan=self.plan, backend=self.backend
        )[0]

    @staticmethod
    def _epoch_hits(index: np.ndarray, tag: np.ndarray) -> tuple[int, int]:
        """Hits and distinct lines touched within one (cold-started) epoch.

        Sorting by (index, arrival) places every access next to the
        previous access of the same cache line; a hit is an access whose
        predecessor exists, is the same line, and carries the same tag
        (direct-mapped: any other tag evicted the line in between — but
        a *different* tag on the predecessor already means the line was
        re-allocated, so adjacent comparison is exact).
        """
        if index.size == 0:
            return 0, 0
        order = np.lexsort((np.arange(index.size), index))
        idx_sorted = index[order]
        tag_sorted = tag[order]
        same_line = idx_sorted[1:] == idx_sorted[:-1]
        same_tag = tag_sorted[1:] == tag_sorted[:-1]
        hits = int(np.count_nonzero(same_line & same_tag))
        distinct_lines = int(np.count_nonzero(~same_line)) + 1
        return hits, distinct_lines

    @staticmethod
    def _epoch_hits_lru(index: np.ndarray, tag: np.ndarray, ways: int) -> tuple[int, int]:
        """Hits and surviving lines within one (cold-started) LRU epoch.

        Per-epoch convenience over :meth:`_grouped_lru` (the engine
        itself fuses all epochs into a single grouped pass).
        """
        hits, lines_per_set, _ = FastSimulator._grouped_lru(index, tag, ways)
        return hits, int(lines_per_set.sum())

    @staticmethod
    def _grouped_lru(
        keys: np.ndarray, tag: np.ndarray, ways: int, backend: str | None = None
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """LRU simulation over contiguous key-groups.

        ``keys`` identifies the cold-started LRU set each access falls
        into (the engine passes ``epoch * num_sets + set_index`` so one
        call covers the whole trace). Sorting by (key, arrival) makes
        each group contiguous and in arrival order; the per-group stack
        walk itself is :func:`repro.kernels.lru_walk` — a lockstep rank
        walk on the numpy backend, a sequential scan on the compiled
        ones, bit-identical either way. Exact because an LRU set's
        contents are history-independent: after any prefix the set
        holds precisely its ``ways`` most recently accessed distinct
        tags.

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
        hits, lines_per_group = kernels.lru_walk(
            tag_sorted, bounds, ways, backend=backend
        )
        return hits, lines_per_group, group_keys


def _functional_counts(
    index: np.ndarray,
    tag: np.ndarray,
    starts: np.ndarray,
    ways: int,
    num_sets: int,
    backend: str | None = None,
) -> tuple[int, int]:
    """(hits, flush_invalidations) over all cold-started epochs.

    Pure function of the decode, the epoch bracketing and the set
    geometry — deliberately independent of bank count, policy and power
    management, which is what lets sweeps share it across those axes.
    """
    num_epochs = len(starts) - 1
    if ways == 1:
        hits = 0
        flush_invalidations = 0
        for epoch in range(num_epochs):
            lo, hi = int(starts[epoch]), int(starts[epoch + 1])
            if lo == hi:
                continue
            epoch_hits, epoch_lines = FastSimulator._epoch_hits(
                index[lo:hi], tag[lo:hi]
            )
            hits += epoch_hits
            # Each boundary flush drops whatever lines the epoch it
            # closes left valid; the final epoch is never flushed.
            if epoch < num_epochs - 1:
                flush_invalidations += epoch_lines
        return hits, flush_invalidations
    if int(starts[-1]) == 0:
        return 0, 0
    epoch_of = np.repeat(np.arange(num_epochs), np.diff(starts))
    hits, lines_per_group, group_keys = FastSimulator._grouped_lru(
        epoch_of * num_sets + index, tag, ways, backend=backend
    )
    lines_per_epoch = np.zeros(num_epochs, dtype=np.int64)
    np.add.at(lines_per_epoch, group_keys // num_sets, lines_per_group)
    return int(hits), int(lines_per_epoch[:-1].sum())


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
    backend: str | None = None,
) -> list[SimulationResult]:
    """Simulate configs that differ only in ``breakeven_override``.

    The breakeven time only enters the per-bank idleness thresholding,
    so the whole group shares one decode, one epoch bracketing, one
    hit/miss computation and one bank sort; the batched idleness kernel
    then evaluates every breakeven from a single gap computation.
    Returns one :class:`~repro.core.results.SimulationResult` per
    config, in order, each bit-identical to an independent
    :meth:`FastSimulator.run`.
    """
    if not configs:
        return []
    base = configs[0]
    validate_breakeven_group(configs)
    plan = ensure_plan(plan, trace)

    geometry = base.geometry
    index, tag = plan.decode(geometry.offset_bits, geometry.index_bits)
    boundaries, starts = plan.epoch_starts(base)
    hits, flush_invalidations = plan.cached(
        (
            "hits",
            geometry.offset_bits,
            geometry.index_bits,
            geometry.ways,
            plan.schedule_key(base),
        ),
        lambda: _functional_counts(
            index, tag, starts, geometry.ways, geometry.num_sets, backend=backend
        ),
    )
    # Per-bank idleness over the whole run (sleep is oblivious to
    # mapping changes; only the physical access stream matters). The
    # breakeven-independent gap structure is cached per routing, so
    # even *separate* groups sharing a routing (e.g. a power_managed
    # or technology axis) pay for the sort-and-gap pass once.
    gaps = plan.idle_gaps(base, backend=backend)
    breakevens = [_effective_breakeven(config, trace.horizon) for config in configs]
    stats_batch = batch_stats_from_gaps(gaps, breakevens, backend=backend)

    misses = len(trace) - hits
    updates_applied = len(boundaries)
    results = []
    for config, bank_stats in zip(configs, stats_batch):
        cache_stats = CacheStats(hits=hits, misses=misses, flushes=len(boundaries))
        results.append(
            _finish(
                config,
                trace,
                bank_stats,
                cache_stats,
                updates_applied,
                flush_invalidations,
                lut,
            )
        )
    return results


class FastEngine(Engine):
    """Registry adapter for :class:`FastSimulator`.

    Covers every :class:`~repro.core.config.ArchitectureConfig` and is
    bit-identical to the reference oracle. Also exposes the
    breakeven-group batched fast path through ``run_group``, which the
    sweep engine uses to evaluate a whole ``breakeven_override`` axis
    from one gap computation, and the streaming capability
    ``open_stream_cursor`` (see :mod:`repro.core.streamsim`).

    The kernel backend is plain data: ``backend`` is passed to every
    kernel call, and ``None`` means the dispatcher's active backend
    (``REPRO_KERNELS``, else the best available). Two instances are
    registered: ``fast`` on ``backend="numpy"`` — the stable
    differential anchor — and ``compiled`` on ``backend=None`` (see
    :mod:`repro.kernels.engine`).
    """

    def __init__(
        self,
        name: str = "fast",
        backend: str | None = "numpy",
        priority: int = 10,
        description: str = "vectorized numpy engine, bit-identical to the reference",
    ) -> None:
        self.name = name
        self.backend = backend
        self.priority = priority
        self.description = description

    def supports(self, config) -> bool:
        return isinstance(config, ArchitectureConfig)

    def run(self, config, trace, lut=None, plan=None):
        return FastSimulator(config, lut, plan=plan, backend=self.backend).run(trace)

    def run_group(self, configs, trace, lut=None, plan=None):
        """Batched evaluation of a breakeven-only config group."""
        return run_breakeven_group(
            configs, trace, lut=lut, plan=plan, backend=self.backend
        )

    def open_stream_cursor(self, configs, plan):
        """Carried-state cursor for single-pass multi-group evaluation."""
        from repro.core.streamsim import StreamCursor

        return StreamCursor(configs, plan, backend=self.backend)


register_engine(FastEngine())
