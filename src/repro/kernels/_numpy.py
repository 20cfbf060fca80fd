"""Pure-numpy kernel backend — the always-available fallback.

These are the vectorized implementations the library shipped before the
compiled backend existed, extracted behind the
:mod:`repro.kernels.dispatch` contract so every caller reaches them
through the same shim as the C variants. They are the *semantic
anchor*: the differential fuzz suite pins the C backend bit-identical
to this one, and this one is pinned (transitively,
through :mod:`repro.power.idleness` and the engine tests) to the
reference simulator.

All functions operate on int64 arrays and produce int64 counters —
REPRO001 (integer-counter purity) applies here exactly as it does in
``power/idleness.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Dispatch-level backend identity (``repro engines`` and the bench
#: report read it off the module).
NAME = "numpy"


#: Error codes of :func:`gap_scan`, shared with the C kernel; the
#: dispatcher maps them onto its messages.
ERR_NONMONOTONIC = -1
ERR_NOT_LATER = -2
ERR_RANGE = -3


def gap_scan(
    cycles: np.ndarray,
    index: np.ndarray,
    starts: np.ndarray,
    tables: np.ndarray,
    shift: int,
    last: np.ndarray,
    accesses: np.ndarray,
    dense: np.ndarray,
) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Fold one run of arrival-order accesses into a gap spectrum.

    Returns ``(code, over_banks, over_lengths)``; see
    :func:`repro.kernels.dispatch.stream_gap_update` for the contract.
    The C kernel scans in arrival order; this one bank-sorts the run
    (a stable argsort of the narrow bank ids, an O(n) radix sort) and
    counts the same gap multiset with integer ops, so ``dense``,
    ``last`` and ``accesses`` end bit-identical, and the overflow gaps
    are the same multiset.
    """
    num_banks, cutoff = dense.shape
    n = cycles.size
    if n == 0:
        return 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    banks = np.empty(n, dtype=tables.dtype)
    outside = np.zeros(n, dtype=bool)
    for epoch in range(starts.size - 1):
        lo, hi = int(starts[epoch]), int(starts[epoch + 1])
        logical = index[lo:hi] >> shift
        missing = (logical < 0) | (logical >= tables.shape[1])
        banks[lo:hi] = tables[epoch][np.where(missing, 0, logical)]
        outside[lo:hi] = missing
    outside |= banks >= num_banks
    if outside.any():
        # The C kernel stops at whichever comes first in arrival order:
        # the out-of-range access or a gap violation before it.
        first_bad = int(np.argmax(outside))
        code = 0
        if first_bad:
            order, _, _, first, gaps = _bank_gaps(cycles[:first_bad], banks[:first_bad], last)
            code = _violation(order, first, gaps)
        return (code or ERR_RANGE), None, None
    order, sorted_banks, sorted_cycles, first, gaps = _bank_gaps(cycles, banks, last)
    code = _violation(order, first, gaps)
    if code:
        return code, None, None
    final = np.empty(n, dtype=bool)
    final[:-1] = first[1:]
    final[-1] = True
    last[sorted_banks[final]] = sorted_cycles[final]
    accesses += np.bincount(sorted_banks, minlength=num_banks)
    short = (gaps > 0) & (gaps < cutoff)
    np.add.at(dense.reshape(-1), sorted_banks[short] * cutoff + gaps[short], 1)
    long = gaps >= cutoff
    return 0, sorted_banks[long], gaps[long]


def _bank_gaps(cycles: np.ndarray, banks: np.ndarray, last: np.ndarray):
    """A non-empty run bank-sorted: ``(order, sorted_banks,
    sorted_cycles, first, gaps)``, ``first`` marking each bank's first
    access and ``gaps`` each access's gap since its bank's previous one
    (``last`` for the first)."""
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order].astype(np.int64)
    sorted_cycles = cycles[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = sorted_banks[1:] != sorted_banks[:-1]
    previous = np.empty(order.size, dtype=np.int64)
    previous[1:] = sorted_cycles[:-1]
    previous[first] = last[sorted_banks[first]]
    return order, sorted_banks, sorted_cycles, first, sorted_cycles - previous - 1


def _violation(order: np.ndarray, first: np.ndarray, gaps: np.ndarray) -> int:
    """The error code of the first access, in arrival order, that is no
    later than its bank's previous access (0 when there is none)."""
    bad = np.flatnonzero(gaps < 0)
    if bad.size == 0:
        return 0
    at = bad[np.argmin(order[bad])]
    return ERR_NOT_LATER if first[at] else ERR_NONMONOTONIC


def gap_threshold_batch(
    count_suffix: np.ndarray,
    length_suffix: np.ndarray,
    over_banks: np.ndarray,
    over_lengths: np.ndarray,
    over_counts: np.ndarray,
    breakevens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold a counted gap spectrum at each breakeven row.

    Returns the ``(useful, sleep)`` ``(rows, banks)`` int64 matrices;
    see :func:`repro.kernels.dispatch.gap_threshold_batch`.
    """
    num_banks, width = count_suffix.shape
    cutoff = width - 1
    useful = np.zeros((breakevens.size, num_banks), dtype=np.int64)
    sleep = np.zeros((breakevens.size, num_banks), dtype=np.int64)
    for row, breakeven in enumerate(breakevens.tolist()):
        if breakeven < 0:
            continue
        if breakeven < cutoff:
            count = count_suffix[:, breakeven + 1]
            total = length_suffix[:, breakeven + 1]
        else:
            longer = over_lengths > breakeven
            banks = over_banks[longer]
            count = np.zeros(num_banks, dtype=np.int64)
            total = np.zeros(num_banks, dtype=np.int64)
            np.add.at(count, banks, over_counts[longer])
            np.add.at(total, banks, over_counts[longer] * over_lengths[longer])
        useful[row] = count
        sleep[row] = total - breakeven * count
    return useful, sleep


def lru_walk(
    tags: np.ndarray, starts: np.ndarray, ways: int
) -> tuple[int, np.ndarray]:
    """Cold-started lockstep LRU over contiguous tag groups.

    ``tags`` is sorted by (group, arrival); group ``g`` owns
    ``tags[starts[g]:starts[g + 1]]``. The LRU stacks of all groups
    advance in lockstep, one within-group access *rank* per Python
    iteration, with the compare/shift work vectorized across every
    group still active at that rank. Exact because an LRU set's
    contents are history-independent: after any prefix the set holds
    precisely its ``ways`` most recently accessed distinct tags.

    Returns ``(hits, lines_per_group)`` with
    ``lines_per_group[g] = min(distinct tags, ways)`` — each miss
    allocates one line and evicts only when the set is already full.
    """
    num_groups = starts.size - 1
    if num_groups == 0 or starts[-1] == 0:
        return 0, np.zeros(num_groups, dtype=np.int64)
    lengths = np.diff(starts)

    # Surviving lines: distinct tags per group, capped at the ways.
    group_of = np.repeat(np.arange(num_groups), lengths)
    pair_order = np.lexsort((tags, group_of))
    pair_group = group_of[pair_order]
    pair_tag = tags[pair_order]
    n = tags.size
    first_pair = np.empty(n, dtype=bool)
    first_pair[0] = True
    first_pair[1:] = (pair_group[1:] != pair_group[:-1]) | (pair_tag[1:] != pair_tag[:-1])
    distinct_tags = np.bincount(pair_group[first_pair], minlength=num_groups)
    lines_per_group = np.minimum(distinct_tags, ways).astype(np.int64)

    # Longest groups first, so the groups active at rank r are always a
    # leading slice of the stack matrix.
    by_length = np.argsort(-lengths, kind="stable")
    starts_by_length = starts[by_length]
    lengths_by_length = lengths[by_length]
    stacks = np.full((num_groups, ways), -1, dtype=np.int64)  # -1 = invalid
    hits = 0
    for rank in range(int(lengths_by_length[0])):
        active = int(np.searchsorted(-lengths_by_length, -rank, side="left"))
        current = tags[starts_by_length[:active] + rank]
        live = stacks[:active]
        matches = live == current[:, None]
        hit_mask = matches.any(axis=1)
        hits += int(np.count_nonzero(hit_mask))
        # A hit rotates the stack above the matched way; a miss rotates
        # the whole stack, evicting the LRU way.
        depth = np.where(hit_mask, matches.argmax(axis=1), ways - 1)
        for way in range(ways - 1, 0, -1):
            rotate = depth >= way
            live[rotate, way] = live[rotate, way - 1]
        live[:, 0] = current
    return hits, lines_per_group


def lru_segment(
    idx: np.ndarray, tags: np.ndarray, stacks: np.ndarray
) -> int:
    """Advance carried LRU stacks through one set-sorted segment.

    ``idx``/``tags`` are sorted by (set, arrival); ``stacks`` is the
    carried ``(num_sets, ways)`` recency matrix (``-1`` invalid),
    mutated in place. Returns the segment's hits.
    """
    n = idx.size
    if n == 0:
        return 0
    ways = stacks.shape[1]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = idx[1:] != idx[:-1]
    starts = np.flatnonzero(new_group)
    group_sets = idx[starts]
    lengths = np.diff(np.append(starts, n))
    by_length = np.argsort(-lengths, kind="stable")
    sets_bl = group_sets[by_length]
    starts_bl = starts[by_length]
    lengths_bl = lengths[by_length]
    hits = 0
    for rank in range(int(lengths_bl[0])):
        active = int(np.searchsorted(-lengths_bl, -rank, side="left"))
        current = tags[starts_bl[:active] + rank]
        rows = sets_bl[:active]
        live = stacks[rows]
        matches = live == current[:, None]
        hit_mask = matches.any(axis=1)
        hits += int(np.count_nonzero(hit_mask))
        depth = np.where(hit_mask, matches.argmax(axis=1), ways - 1)
        for way in range(ways - 1, 0, -1):
            rotate = depth >= way
            live[rotate, way] = live[rotate, way - 1]
        live[:, 0] = current
        stacks[rows] = live
    return hits
