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


#: Error codes of :func:`gap_scan` and :func:`cache_scan`, shared with
#: the C kernels; the dispatcher maps them onto its messages.
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
    counts the same gap multiset with integer ops (one ``bincount``
    over ``bank * cutoff + gap`` keys for the dense cells), so ``dense``,
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
    # sorted_cycles is spent: it holds each access's dense cell key.
    keys = sorted_cycles
    np.multiply(sorted_banks, cutoff, out=keys, dtype=np.int64)
    keys += gaps
    counted = np.bincount(keys[(gaps > 0) & (gaps < cutoff)])
    dense.reshape(-1)[: counted.size] += counted
    long = gaps >= cutoff
    return 0, sorted_banks[long].astype(np.int64), gaps[long]


def _bank_gaps(cycles: np.ndarray, banks: np.ndarray, last: np.ndarray):
    """A non-empty run bank-sorted: ``(order, sorted_banks,
    sorted_cycles, first, gaps)``, the banks in their narrow table
    dtype, ``first`` marking each bank's first
    access and ``gaps`` each access's gap since its bank's previous one
    (``last`` for the first)."""
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_cycles = cycles[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_banks[1:], sorted_banks[:-1], out=first[1:])
    # Each access's previous cycle, turned into its gap in place: the
    # run's int64 temporaries are what a large run spends its time
    # allocating.
    gaps = np.empty(order.size, dtype=np.int64)
    gaps[1:] = sorted_cycles[:-1]
    gaps[first] = last[sorted_banks[first]]
    np.subtract(sorted_cycles, gaps, out=gaps)
    gaps -= 1
    return order, sorted_banks, sorted_cycles, first, gaps


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


def cache_scan(
    index: np.ndarray, tags: np.ndarray, starts: np.ndarray, stacks: np.ndarray
) -> tuple[int, int]:
    """Advance carried cache contents through one epoch-bracketed run.

    Returns ``(hits, flushed)``, or ``(ERR_RANGE, 0)`` with ``stacks``
    untouched when a set index falls outside them; see
    :func:`repro.kernels.dispatch.lru_segment` for the contract. The C
    kernel walks the run in arrival order; this one groups it by
    epoch x set with one stable sort, which keeps each group in arrival
    order, and walks all groups at once. The groups of the first epoch
    start from the carried stacks,
    later ones cold (an update flushed them). Direct-mapped groups
    compare adjacent tags; set-associative ones advance their LRU
    stacks in lockstep, one within-group access rank per step. Exact
    because a set's contents after any access prefix are its ``ways``
    most recent distinct tags.
    """
    num_sets, ways = stacks.shape
    n = index.size
    num_epochs = starts.size - 1
    if n and (int(index.min()) < 0 or int(index.max()) >= num_sets):
        return ERR_RANGE, 0
    if n == 0:
        flushed = int(np.count_nonzero(stacks != -1)) if num_epochs > 1 else 0
        if flushed:
            stacks[:] = -1
        return 0, flushed
    # Key each access by epoch x set, in the narrowest dtype that holds
    # the keys (a radix sort up to 65536 of them).
    dtype = np.min_scalar_type(num_epochs * num_sets - 1)
    keys = np.repeat(
        np.arange(0, num_epochs * num_sets, num_sets, dtype=dtype), np.diff(starts)
    )
    keys += index.astype(dtype)
    order = np.argsort(keys, kind="stable")
    key_sorted = keys[order]
    tag_sorted = tags[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=first[1:])
    group_start = np.flatnonzero(first)
    group_epoch, group_set = np.divmod(key_sorted[group_start].astype(np.int64), num_sets)
    warm = group_epoch == 0
    contents = np.full((group_start.size, ways), -1, dtype=np.int64)
    contents[warm] = stacks[group_set[warm]]
    if ways == 1:
        # One line per set: an access hits iff the group's previous
        # access (or, first in its group, the line it starts with)
        # carried the same tag.
        hits = int(np.count_nonzero(~first[1:] & (tag_sorted[1:] == tag_sorted[:-1])))
        hits += int(np.count_nonzero(contents[:, 0] == tag_sorted[group_start]))
        contents[:, 0] = tag_sorted[np.append(group_start[1:], n) - 1]
    else:
        hits = _lockstep_lru(tag_sorted, group_start, contents)
    stacks[group_set[warm]] = contents[warm]
    flushed = 0
    if num_epochs > 1:
        middle = (group_epoch > 0) & (group_epoch < num_epochs - 1)
        flushed = int(np.count_nonzero(stacks != -1)) + int(
            np.count_nonzero(contents[middle] != -1)
        )
        stacks[:] = -1
        final = group_epoch == num_epochs - 1
        stacks[group_set[final]] = contents[final]
    return hits, flushed


def _lockstep_lru(tags: np.ndarray, group_start: np.ndarray, contents: np.ndarray) -> int:
    """Advance each group's LRU stack (a row of ``contents``, mutated in
    place) through its contiguous, arrival-ordered run of ``tags``;
    return the hits.

    All stacks advance in lockstep, one within-group access rank per
    Python iteration, with the compare/shift work vectorized across
    every group still active at that rank.
    """
    ways = contents.shape[1]
    lengths = np.diff(np.append(group_start, tags.size))
    # Longest groups first, so the groups active at rank r are always a
    # leading slice of the stack matrix.
    by_length = np.argsort(-lengths, kind="stable")
    starts_by_length = group_start[by_length]
    lengths_by_length = lengths[by_length]
    stacks = contents[by_length]
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
    contents[by_length] = stacks
    return hits
