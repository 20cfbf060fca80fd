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
    percentiles = {
        q: float(np.percentile(gaps, q)) if gaps.size else 0.0 for q in (50, 90, 99)
    }

    # Reuse distance (in accesses) per line address: sort by (line, pos).
    order = np.lexsort((np.arange(len(trace)), line_addresses))
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


def _gap_histograms(
    gaps: np.ndarray, labels: np.ndarray, num_labels: int
) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Bucket positive ``gaps`` by ``floor(log2(gap))``, per label.

    Returns, for each label in ``range(num_labels)``, sorted
    ``(log2_bucket, count, total_cycles)`` triples; the count and the
    exact cycle mass per bucket together let downstream models evaluate
    ``sum(max(0, gap - T))`` for any threshold ``T`` without keeping the
    gaps themselves. Totals are int64 sums, exact for any trace.
    """
    positive = gaps > 0
    gaps = gaps[positive]
    labels = labels[positive]
    if not gaps.size:
        return tuple(() for _ in range(num_labels))
    buckets = np.floor(np.log2(gaps.astype(np.float64))).astype(np.int64)
    width = int(buckets.max()) + 1
    cells = labels * width + buckets
    counts = np.bincount(cells, minlength=num_labels * width)
    totals = np.zeros(num_labels * width, dtype=np.int64)
    np.add.at(totals, cells, gaps)
    histograms: list[list[tuple[int, int, int]]] = [[] for _ in range(num_labels)]
    occupied = np.flatnonzero(counts)
    for cell, count, total in zip(
        occupied.tolist(), counts[occupied].tolist(), totals[occupied].tolist()
    ):
        label, bucket = divmod(cell, width)
        histograms[label].append((bucket, count, total))
    return tuple(tuple(triples) for triples in histograms)


def _bank_gap_histograms(
    cycles: np.ndarray, bank: np.ndarray, counts: np.ndarray, horizon: int
) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per-bank idle-gap histograms, mirroring the accountant's gaps.

    Every bank is busy at cycle -1 (warm start, like the accountant) and
    idle between its own accesses; the window closes at ``horizon``. A
    bank with no accesses therefore contributes one gap of ``horizon``.
    ``counts`` holds each bank's accesses.
    """
    num_banks = counts.size
    # Narrow bank ids make the stable argsort a radix sort.
    order = np.argsort(bank.astype(np.min_scalar_type(num_banks - 1)), kind="stable")
    sorted_cycles = cycles[order]
    ends = np.cumsum(counts)
    used = counts > 0
    # Each access closes the gap since its bank's previous access (or
    # cycle -1); each bank's last access (or cycle -1) opens the
    # trailing gap that the horizon closes.
    previous = np.empty_like(sorted_cycles)
    previous[1:] = sorted_cycles[:-1]
    previous[(ends - counts)[used]] = -1
    last = np.full(num_banks, -1, dtype=np.int64)
    last[used] = sorted_cycles[ends[used] - 1]
    banks = np.arange(num_banks, dtype=np.int64)
    return _gap_histograms(
        np.concatenate((sorted_cycles - previous - 1, horizon - last - 1)),
        np.concatenate((np.repeat(banks, counts), banks)),
        num_banks,
    )


def profile_trace(
    trace: Trace,
    geometry: CacheGeometry,
    num_banks: int = 4,
    summary: TraceSummary | None = None,
) -> TraceProfile:
    """Characterize ``trace`` as seen by ``geometry`` split into banks.

    ``summary`` is :func:`summarize_trace` of the same trace and
    geometry; pass it to profile several bank counts without redoing
    the bank-independent passes. The profile is the same either way.
    """
    if num_banks < 1 or geometry.num_sets % num_banks:
        raise TraceError(f"cannot split {geometry.num_sets} sets into {num_banks} banks")
    if summary is None:
        summary = summarize_trace(trace, geometry)
    accesses = len(trace)
    bank = summary.set_index >> (geometry.index_bits - log2_exact(num_banks))
    counts = np.bincount(bank, minlength=num_banks)
    return TraceProfile(
        accesses=accesses,
        horizon=trace.horizon,
        access_density=trace.access_density if accesses else 0.0,
        distinct_lines=summary.distinct_lines,
        footprint_bytes=summary.distinct_line_addresses * geometry.line_size,
        bank_shares=tuple(
            float(c) / accesses if accesses else 0.0 for c in counts
        ),
        gap_percentiles=dict(summary.gap_percentiles),
        reuse_distance_median=summary.reuse_distance_median,
        bank_gap_histograms=_bank_gap_histograms(
            trace.cycles, bank, counts, trace.horizon
        ),
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
