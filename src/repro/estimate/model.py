"""The closed-form analytical model behind the ``estimate`` engine.

Inputs: one :class:`~repro.trace.stats.TraceProfile` (per trace ×
geometry × bank count) and a breakeven group of
:class:`ArchitectureConfig` objects (configs differing only in
``breakeven_override``). Output: one :class:`SimulationResult` per
config whose integer activity counters are *synthesized* rather than
measured. :func:`estimate_group` derives the breakeven-independent
counters once per group, fills one
:class:`~repro.power.idleness.IdlenessTable` and assembles it through
:func:`repro.core.simulator.assemble_group`, the fast engine's group
path, so energy, lifetime and registered metrics derive exactly as
they would for a simulated group. :func:`estimate_result` and
:func:`synthesize_bank_stats` are its one-config views.

Modeling assumptions (each one a deliberate closed-form trade):

* **Per-bank traffic** comes from the profile's measured bank shares.
  Dynamic indexing policies (probing, scrambling) progressively
  uniformize the split as updates fire, so shares are blended toward
  ``1/M`` with weight ``U / (U + 1)`` (``U`` scheduled updates).
* **Idle gaps** come from the profile's per-bank log2-bucket gap
  histograms, with each bucket collapsed to its mean: a bucket of ``c``
  gaps totalling ``s`` cycles contributes ``c * max(0, s/c - T)`` sleep
  cycles past a breakeven of ``T``. This captures the bursty window
  structure of scheduled workloads (a few enormous gaps carry most of
  the sleepable idleness) that no mean-gap model can see. Dynamic
  policies blend each bank's histogram response toward the all-bank
  average with the same ``U / (U + 1)`` weight, and each update's
  forced wake-up charges one extra breakeven warm-up when it lands in a
  sleeping gap.
* **Hit rate** combines compulsory misses (one per distinct line
  address), a locality survival factor ``1 - 2**(-slots/stack)`` where
  ``stack`` proxies the median stack distance from the median reuse
  distance, and a flush penalty (each re-indexing update invalidates
  the resident lines).

None of this replays the trace; reprolint REPRO015 keeps it that way.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aging.lut import LifetimeLUT
from repro.cache.stats import CacheStats
from repro.core.config import ArchitectureConfig, validate_breakeven_group
from repro.core.results import SimulationResult
from repro.errors import ConfigurationError
from repro.power.idleness import BankIdleStats, IdlenessTable
from repro.trace.stats import TraceProfile

#: Fidelity tag carried by everything this model produces.
ESTIMATE_FIDELITY = "estimate"


def _largest_remainder(shares: tuple[float, ...], total: int) -> list[int]:
    """Integer per-bank access counts summing exactly to ``total``."""
    raw = [share * total for share in shares]
    counts = [int(math.floor(value)) for value in raw]
    shortfall = total - sum(counts)
    order = sorted(
        range(len(shares)), key=lambda b: raw[b] - counts[b], reverse=True
    )
    for b in order[:shortfall]:
        counts[b] += 1
    return counts


def predicted_updates(config: ArchitectureConfig, horizon: int) -> int:
    """Scheduled re-indexing updates expected over ``horizon`` cycles."""
    if config.policy == "static" or horizon <= 0:
        return 0
    if config.update_events is not None:
        return sum(1 for cycle in config.update_events if cycle < horizon)
    period = config.update_period_cycles
    if period is None:
        return 0
    return max(0, (horizon - 1) // int(period))


def effective_bank_shares(
    profile: TraceProfile, config: ArchitectureConfig, updates: int
) -> tuple[float, ...]:
    """Bank shares after the indexing policy has had ``updates`` chances.

    The measured shares describe the *static* index split; dynamic
    policies redistribute toward uniform as updates fire (probing
    reaches near-uniformity after ~M updates — Section III-A3), modeled
    as a blend with weight ``updates / (updates + 1)``.
    """
    num_banks = len(profile.bank_shares)
    if config.policy == "static" or updates <= 0 or num_banks <= 1:
        return profile.bank_shares
    blend = updates / (updates + 1.0)
    uniform = 1.0 / num_banks
    return tuple(
        (1.0 - blend) * share + blend * uniform for share in profile.bank_shares
    )


def _histogram_responses(
    histograms: tuple[tuple[tuple[int, int, int], ...], ...],
    breakevens: list[float],
) -> tuple[list[float], np.ndarray, list[float], np.ndarray]:
    """``(intervals, useful, idle, sleep)`` implied by per-bank gap
    histograms: ``intervals`` and ``idle`` per bank, ``useful`` and
    ``sleep`` as ``(breakevens, banks)`` matrices.

    Each log2 bucket is collapsed to its mean gap length: all ``count``
    gaps sleep ``mean - breakeven`` cycles if the mean clears the
    breakeven, else none do. Buckets are a factor of two wide, so the
    collapse can only misjudge gaps within 2x of the breakeven — the
    window gaps that dominate sleepable idleness sit far above it.

    Every sum runs over a bank's buckets in order from ``0.0``, as a
    scalar loop over one histogram would: ``sleep`` is a sequential
    ``np.add.accumulate`` (which never sums pairwise), into which an
    unqualified bucket adds an exact ``0.0``, and ``useful`` counts
    integers, exact in any order.
    """
    width = max(1, max((len(h) for h in histograms), default=0))
    counts = np.zeros((len(histograms), width), dtype=np.int64)
    means = np.zeros((len(histograms), width))
    intervals: list[float] = []
    idle: list[float] = []
    for b, histogram in enumerate(histograms):
        bank_intervals = 0.0
        bank_idle = 0.0
        for j, (_, count, total) in enumerate(histogram):
            bank_intervals += count
            bank_idle += total
            counts[b, j] = count
            means[b, j] = total / count
        intervals.append(bank_intervals)
        idle.append(bank_idle)
    thresholds = np.asarray(breakevens, dtype=np.float64)[:, None, None]
    clears = means > thresholds  # breakevens are >= 1; padding means are 0
    useful = np.where(clears, counts, 0).sum(axis=2).astype(np.float64)
    excess = np.where(clears, counts * (means - thresholds), 0.0)
    sleep = np.add.accumulate(excess, axis=2)[:, :, -1]
    return intervals, useful, idle, sleep


def _idleness_table(
    profile: TraceProfile, configs: list[ArchitectureConfig], updates: int
) -> IdlenessTable:
    """Per-bank idleness counters of a breakeven group, predicted from
    the profile: one row per config.

    Everything but ``useful`` and ``sleep`` is independent of the
    breakeven and is derived once. Counters are clamped into
    feasibility (``sleep <= idle <= total``, ``useful <= intervals``)
    so the downstream energy model — which rejects impossible counter
    combinations — always accepts them. The clamp makes
    ``idle_intervals`` a per-row matrix: a bank predicting no whole
    interval still counts the one it sleeps through.
    """
    base = configs[0]
    horizon = profile.horizon
    num_banks = len(profile.bank_shares)
    shares = effective_bank_shares(profile, base, updates)
    counts = _largest_remainder(shares, profile.accesses)
    if base.power_managed:
        breakevens = [float(config.breakeven()) for config in configs]
    else:
        breakevens = [float(horizon + 1)] * len(configs)

    histograms = profile.bank_gap_histograms
    if len(histograms) != num_banks:
        # Profile predates the histogram statistic; treat every bank as
        # one long gap minus its busy cycles (a coarse upper bound).
        histograms = tuple(
            ((max(0, horizon - c).bit_length() - 1, 1, max(0, horizon - c)),)
            if horizon - c > 0
            else ()
            for c in counts
        )
    intervals, useful, idle, sleep = _histogram_responses(histograms, breakevens)
    # Dynamic policies progressively decouple a bank from its static
    # index slice, so its gap structure drifts toward the average bank's.
    # The bank averages are builtin sum() in bank order (compensated on
    # Python 3.12), as the one-config model always summed them.
    blend = updates / (updates + 1.0) if base.policy != "static" and updates else 0.0
    keep = 1.0 - blend
    intervals_mean = sum(intervals) / num_banks
    idle_mean = sum(idle) / num_banks
    intervals = [keep * own + blend * intervals_mean for own in intervals]
    idle = [keep * own + blend * idle_mean for own in idle]
    useful_mean = [sum(row) / num_banks for row in useful.tolist()]
    sleep_mean = [sum(row) / num_banks for row in sleep.tolist()]
    useful = keep * useful + blend * np.asarray(useful_mean)[:, None]
    sleep = keep * sleep + blend * np.asarray(sleep_mean)[:, None]
    if updates and horizon > 0:
        # Each update forces the bank awake; when it lands inside a
        # sleeping gap it splits it, costing one extra warm-up.
        asleep = sleep > 0
        interrupted = updates * np.minimum(1.0, sleep / horizon)
        thresholds = np.asarray(breakevens)[:, None]
        sleep = np.where(asleep, np.maximum(0.0, sleep - interrupted * thresholds), sleep)
        useful = np.where(asleep, useful + interrupted, useful)

    # Rounding is round-half-even in both round() and np.rint.
    whole = np.asarray([int(round(value)) for value in intervals], dtype=np.int64)
    idle_cycles = np.asarray(
        [
            min(int(round(value)), max(0, horizon - accesses))
            for value, accesses in zip(idle, counts)
        ],
        dtype=np.int64,
    )
    sleep_cycles = np.minimum(np.rint(sleep).astype(np.int64), idle_cycles)
    useful_intervals = np.minimum(np.rint(useful).astype(np.int64), np.maximum(1, whole))
    useful_intervals[sleep_cycles <= 0] = 0
    return IdlenessTable(
        window=horizon,
        accesses=np.asarray(counts, dtype=np.int64),
        idle_intervals=np.maximum(useful_intervals, whole),
        idle_cycles=idle_cycles,
        useful=useful_intervals,
        sleep=sleep_cycles,
    )


def synthesize_bank_stats(
    profile: TraceProfile, config: ArchitectureConfig
) -> list[BankIdleStats]:
    """Per-bank idleness counters predicted from the profile: the
    one-config view of the group model (see :func:`estimate_group`)."""
    updates = predicted_updates(config, profile.horizon)
    return _idleness_table(profile, [config], updates).stats()[0]


def predicted_cache_stats(
    profile: TraceProfile, config: ArchitectureConfig
) -> tuple[CacheStats, int, int]:
    """Predicted ``(cache stats, updates, flush invalidations)``.

    Hit model: compulsory misses (one per distinct line address), a
    locality survival factor for reuses, and a flush penalty re-fetching
    the resident set after each update. Survival uses the median reuse
    distance (in accesses) scaled by the workload's distinct-line rate
    as a stack-distance proxy: a reuse survives when the lines touched
    in between fit the available slots, modeled as
    ``1 - 2**(-slots/stack)`` (survival 1/2 when the proxy exactly
    fills the array, approaching 1 for tight loops and 0 for streams).
    """
    accesses = profile.accesses
    updates = predicted_updates(config, profile.horizon)
    if accesses == 0:
        return CacheStats(), updates, 0
    geometry = config.geometry
    line_size = geometry.line_size
    footprint_lines = max(1, profile.footprint_bytes // line_size)
    touched_sets = max(1, profile.distinct_lines)
    slots = min(geometry.num_lines, touched_sets * geometry.ways)
    reuse_median = profile.reuse_distance_median
    if math.isinf(reuse_median) or reuse_median <= 0:
        survival = 0.0
    else:
        stack = reuse_median * math.sqrt(footprint_lines / accesses)
        stack = min(float(footprint_lines), max(1.0, stack))
        survival = 1.0 - math.exp(-math.log(2.0) * slots / stack)
    compulsory = min(accesses, footprint_lines)
    reuse_misses = (accesses - compulsory) * (1.0 - survival)
    resident = min(geometry.num_lines, footprint_lines)
    flush_misses = updates * resident * survival
    misses = int(round(compulsory + reuse_misses + flush_misses))
    misses = max(compulsory, min(accesses, misses))
    invalidations = int(round(updates * resident * survival))
    return (
        CacheStats(hits=accesses - misses, misses=misses, flushes=updates),
        updates,
        invalidations,
    )


def estimate_group(
    configs: list[ArchitectureConfig],
    profile: TraceProfile,
    lut: LifetimeLUT | None = None,
    trace_name: str = "",
) -> list[SimulationResult]:
    """Predict the results of a breakeven group from ``profile`` alone.

    The configs differ only in ``breakeven_override``
    (:func:`~repro.core.config.validate_breakeven_group`), so the group
    shares its update count, bank shares and access counts, per-bank
    interval and idle blends and cache stats; only the useful intervals
    and sleep cycles are evaluated per breakeven. The synthesized
    counters fill one :class:`~repro.power.idleness.IdlenessTable`, and
    :func:`~repro.core.simulator.assemble_group` derives energy,
    lifetime and every registered metric exactly as for a simulated
    group. Each result (and any record written from it) carries
    ``fidelity="estimate"`` and equals :func:`estimate_result` of its
    config alone.
    """
    from repro.core.simulator import assemble_group

    if not configs:
        return []
    base = configs[0]
    if len(profile.bank_shares) != base.num_banks:
        raise ConfigurationError(
            f"profile was computed for {len(profile.bank_shares)} banks, "
            f"config has {base.num_banks}"
        )
    validate_breakeven_group(configs)
    cache_stats, updates, invalidations = predicted_cache_stats(profile, base)
    return assemble_group(
        configs,
        trace_name,
        profile.horizon,
        _idleness_table(profile, configs, updates),
        cache_stats.hits,
        cache_stats.accesses,
        updates,
        invalidations,
        lut,
        fidelity=ESTIMATE_FIDELITY,
        flushes=cache_stats.flushes,
    )


def estimate_result(
    config: ArchitectureConfig,
    profile: TraceProfile,
    lut: LifetimeLUT | None = None,
    trace_name: str = "",
) -> SimulationResult:
    """Predict the full result for ``config`` from ``profile`` alone:
    the one-config view of :func:`estimate_group`."""
    return estimate_group([config], profile, lut=lut, trace_name=trace_name)[0]
