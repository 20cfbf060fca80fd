"""Workload characterization.

Given any trace and a cache geometry, compute the quantities that
determine how the architecture will behave: access density, footprint,
per-bank access shares, inter-access gap statistics, and the scheduled
idleness signature. Used to sanity-check bring-your-own traces before a
simulation campaign (and by the workload tests to validate the
generator's output). The bank-independent part of a profile
(:func:`summarize_trace`) is computed once per trace and geometry and
shared by the profiles of every bank count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.errors import TraceError
from repro.power.idleness import BankRouting, GapSpectrum
from repro.trace.trace import Trace
from repro.utils.bitops import log2_exact, mask


@dataclass(frozen=True)
class TraceProfile:
    """Characterization summary of one trace on one geometry.

    Attributes
    ----------
    accesses:
        Total accesses.
    horizon:
        Simulated cycles.
    access_density:
        Accesses per cycle.
    distinct_lines:
        Cache lines touched at least once.
    footprint_bytes:
        Distinct line-addresses touched times the line size (the true
        memory footprint, tags included).
    bank_shares:
        Fraction of accesses landing in each bank of an M-way split.
    gap_percentiles:
        {50, 90, 99} percentiles of the global inter-access gap.
    reuse_distance_median:
        Median number of accesses between consecutive touches of the
        same line (a cheap locality proxy).
    bank_gap_histograms:
        Per-bank idle-gap summary: for each bank, a tuple of
        ``(log2_bucket, count, total_cycles)`` triples — ``count`` gaps
        with ``2**log2_bucket <= gap < 2**(log2_bucket + 1)`` summing to
        ``total_cycles``. Gap semantics mirror the idleness accountant
        (leading, inner and trailing gaps; access cycles are busy), so
        thresholding the histogram at a breakeven time closely predicts
        the measured sleepable idleness — the statistic the ``estimate``
        fidelity tier is built on.
    """

    accesses: int
    horizon: int
    access_density: float
    distinct_lines: int
    footprint_bytes: int
    bank_shares: tuple[float, ...]
    gap_percentiles: dict[int, float]
    reuse_distance_median: float
    bank_gap_histograms: tuple[tuple[tuple[int, int, int], ...], ...] = ()


@dataclass(frozen=True, eq=False)
class TraceSummary:
    """Bank-independent part of a :class:`TraceProfile`.

    Everything :func:`profile_trace` derives from one trace on one
    geometry before it splits the sets into banks: compute it once with
    :func:`summarize_trace` and pass it to every bank count's profile.

    Attributes
    ----------
    set_index:
        Decoded set index of every access, in trace order, held in the
        narrowest unsigned dtype that fits the set count.
    distinct_line_addresses:
        Distinct line addresses touched (tags included).
    distinct_lines:
        Distinct cache lines (set indices) touched.
    gap_percentiles:
        {50, 90, 99} percentiles of the global inter-access gap.
    reuse_distance_median:
        Median reuse distance in accesses (``inf`` without any reuse).
    """

    set_index: np.ndarray
    distinct_line_addresses: int
    distinct_lines: int
    gap_percentiles: dict[int, float]
    reuse_distance_median: float


def summarize_trace(trace: Trace, geometry: CacheGeometry) -> TraceSummary:
    """The bank-independent statistics of ``trace`` on ``geometry``."""
    if len(trace) == 0:
        return TraceSummary(
            set_index=np.empty(0, dtype=np.min_scalar_type(geometry.num_sets - 1)),
            distinct_line_addresses=0,
            distinct_lines=0,
            gap_percentiles={50: 0.0, 90: 0.0, 99: 0.0},
            reuse_distance_median=0.0,
        )
    line_addresses = trace.addresses >> geometry.offset_bits
    index = (line_addresses & mask(geometry.index_bits)).astype(
        np.min_scalar_type(geometry.num_sets - 1)
    )

    gaps = np.diff(trace.cycles)
    quantiles = np.percentile(gaps, [50, 90, 99]).tolist() if gaps.size else [0.0] * 3
    percentiles = dict(zip((50, 90, 99), quantiles))

    # Reuse distance (in accesses) per line address: a stable sort by
    # line keeps each line's accesses in trace order.
    order = np.argsort(line_addresses, kind="stable")
    sorted_lines = line_addresses[order]
    positions = np.asarray(order, dtype=np.int64)
    same = sorted_lines[1:] == sorted_lines[:-1]
    reuse = (positions[1:] - positions[:-1])[same]
    reuse_median = float(np.median(reuse)) if reuse.size else float("inf")

    # The reuse sort groups equal line addresses: count the runs.
    return TraceSummary(
        set_index=index,
        distinct_line_addresses=int(same.size + 1 - np.count_nonzero(same)),
        distinct_lines=int(np.count_nonzero(np.bincount(index))),
        gap_percentiles=percentiles,
        reuse_distance_median=reuse_median,
    )


def _spectrum_histograms(
    spectrum: GapSpectrum,
) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Bucket each bank's gaps of ``spectrum`` by ``floor(log2(gap))``.

    Returns, for each bank, sorted ``(log2_bucket, count, total_cycles)``
    triples; the count and the exact cycle mass per bucket together let
    downstream models evaluate ``sum(max(0, gap - T))`` for any
    threshold ``T`` without keeping the gaps themselves. The dense cells
    sum per power-of-two column range and the overflow triples add into
    their buckets, all in int64: exact for any trace.
    """
    num_banks, cutoff = spectrum.dense.shape
    lengths = spectrum.over_lengths
    # Exact floor(log2): frexp's exponent, stepped down where the
    # float conversion rounded a length up to the next power of two.
    over_buckets = np.frexp(lengths.astype(np.float64))[1].astype(np.int64) - 1
    over_buckets -= np.left_shift(1, over_buckets) > lengths
    # Dense cells g in [1, cutoff): bucket k spans columns [2**k, 2**(k+1)).
    edges = 1 << np.arange((cutoff - 1).bit_length(), dtype=np.int64)
    width = max(edges.size, int(over_buckets.max()) + 1 if lengths.size else 0)
    counts = np.zeros((num_banks, width), dtype=np.int64)
    totals = np.zeros((num_banks, width), dtype=np.int64)
    if edges.size:
        dense = spectrum.dense
        counts[:, : edges.size] = np.add.reduceat(dense, edges, axis=1)
        totals[:, : edges.size] = np.add.reduceat(
            dense * np.arange(cutoff, dtype=np.int64), edges, axis=1
        )
    np.add.at(counts, (spectrum.over_banks, over_buckets), spectrum.over_counts)
    np.add.at(totals, (spectrum.over_banks, over_buckets), spectrum.over_counts * lengths)
    return tuple(
        tuple(
            (bucket, count, total)
            for bucket, (count, total) in enumerate(zip(count_row, total_row))
            if count
        )
        for count_row, total_row in zip(counts.tolist(), totals.tolist())
    )


def profile_trace(
    trace: Trace,
    geometry: CacheGeometry,
    num_banks: int = 4,
    summary: TraceSummary | None = None,
    gaps: GapSpectrum | None = None,
) -> TraceProfile:
    """Characterize ``trace`` as seen by ``geometry`` split into banks.

    ``summary`` is :func:`summarize_trace` of the same trace and
    geometry; pass it to profile several bank counts without redoing
    the bank-independent passes. ``gaps`` must be the trace's idle-gap
    spectrum under the static bank split, as a plan's
    :meth:`~repro.core.plan.TracePlan.idle_gaps` of a static config
    gives it (the estimate engine's path); only its bank count and
    window are checked, so a dynamic routing's spectrum would pass
    unnoticed. Without it, one arrival-order scan of the static split
    computes it. The profile is the same either way.
    """
    if num_banks < 1 or geometry.num_sets % num_banks:
        raise TraceError(f"cannot split {geometry.num_sets} sets into {num_banks} banks")
    if summary is None:
        summary = summarize_trace(trace, geometry)
    accesses = len(trace)
    if gaps is None:
        table = np.arange(num_banks, dtype=np.min_scalar_type(num_banks - 1))
        routing = BankRouting(
            trace.cycles,
            summary.set_index,
            np.array([0, accesses], dtype=np.int64),
            table[None, :],
            geometry.index_bits - log2_exact(num_banks),
        )
        gaps = GapSpectrum.scan([routing], num_banks, 0, trace.horizon)
    elif gaps.num_banks != num_banks or gaps.window != trace.horizon:
        raise TraceError("the gap spectrum is not this trace's split into these banks")
    counts = gaps.accesses.tolist()
    return TraceProfile(
        accesses=accesses,
        horizon=trace.horizon,
        access_density=trace.access_density if accesses else 0.0,
        distinct_lines=summary.distinct_lines,
        footprint_bytes=summary.distinct_line_addresses * geometry.line_size,
        bank_shares=tuple(c / accesses if accesses else 0.0 for c in counts),
        gap_percentiles=dict(summary.gap_percentiles),
        reuse_distance_median=summary.reuse_distance_median,
        bank_gap_histograms=_spectrum_histograms(gaps),
    )


def describe_profile(profile: TraceProfile) -> str:
    """Render a profile as a short human-readable report."""
    shares = ", ".join(f"{s:.1%}" for s in profile.bank_shares)
    return (
        f"accesses={profile.accesses:,} over {profile.horizon:,} cycles "
        f"({profile.access_density:.2f}/cycle)\n"
        f"footprint={profile.footprint_bytes / 1024:.1f} kB "
        f"({profile.distinct_lines} cache lines touched)\n"
        f"bank shares: [{shares}]\n"
        f"inter-access gaps: p50={profile.gap_percentiles[50]:.0f} "
        f"p90={profile.gap_percentiles[90]:.0f} "
        f"p99={profile.gap_percentiles[99]:.0f} cycles\n"
        f"median reuse distance: {profile.reuse_distance_median:.0f} accesses"
    )
