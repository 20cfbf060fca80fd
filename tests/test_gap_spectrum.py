"""The per-bank idle-gap spectrum against the idleness oracles.

:class:`~repro.power.idleness.GapSpectrum` keeps each bank's idle gaps
as counts (dense below a cutoff, sorted overflow above it) and
thresholds a breakeven vector from suffix sums. Pinned here, on every
kernel backend:

* :meth:`~repro.power.idleness.GapSpectrum.threshold` equals
  :func:`~repro.power.idleness.stats_from_access_cycles` per bank and
  the event-by-event :class:`~repro.power.idleness.IdlenessAccountant`,
  at breakevens ``None``, 1, cutoff - 1, cutoff, cutoff + 1 and past
  the window, with gaps drawn at the cutoff's edges, never-accessed
  banks, trailing gaps, one-cycle stream chunks and a bank count that
  shrinks the cutoff;
* ``merge`` is addition;
* stream cursors that route the same way share one scan per chunk;
* a :class:`~repro.core.plan.StreamingPlan` handed to a one-shot
  engine is refused with a :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.plan import StreamingPlan, TracePlan
from repro.core.simulator import simulate
from repro.core.streamsim import stream_selected
from repro.errors import SimulationError
from repro.kernels import dispatch
from repro.power.idleness import (
    DENSE_CELLS,
    MAX_CUTOFF,
    BankIdleStats,
    BankRouting,
    GapSpectrum,
    IdlenessAccountant,
    StreamingGapAccumulator,
    spectrum_cutoff,
    stats_from_access_cycles,
)
from repro.trace.stream import InMemoryTraceStream
from tests.conftest import make_random_trace

BACKENDS = dispatch.available_backends()

#: A bank count whose dense part takes the shrunken-cutoff path.
MANY_BANKS = 1 << 16


@st.composite
def windows(draw):
    """``(num_banks, start, end, cycles, banks)``: accesses in arrival
    order whose per-bank gaps cluster around the spectrum's cutoff."""
    num_banks = draw(st.sampled_from([1, 2, 3, 5, MANY_BANKS]))
    cutoff = spectrum_cutoff(num_banks)
    gap = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([cutoff - 2, cutoff - 1, cutoff, cutoff + 1]).filter(lambda g: g >= 0),
        st.integers(min_value=0, max_value=3 * cutoff),
    )
    start = draw(st.integers(min_value=0, max_value=50))
    # Bank ids reach both ends of the range; some banks stay silent.
    ids = [0, num_banks - 1, num_banks // 2, 1 % num_banks]
    used = sorted(set(draw(st.lists(st.sampled_from(ids), max_size=3))))
    cycles, banks = [], []
    for bank in used:
        at = start - 1
        for length in draw(st.lists(gap, min_size=1, max_size=12)):
            at += length + 1
            cycles.append(at)
            banks.append(bank)
    end = max(cycles, default=start - 1) + 1 + draw(gap)
    order = np.argsort(np.asarray(cycles, dtype=np.int64), kind="stable")
    return (
        num_banks,
        start,
        end,
        np.asarray(cycles, dtype=np.int64)[order],
        np.asarray(banks, dtype=np.int64)[order],
    )


def edge_breakevens(cutoff: int, window: int) -> list:
    values = [None, 1, cutoff - 1, cutoff, cutoff + 1, window + 1]
    return [b for b in values if b is None or b >= 1]


def bank_stats(table, row: int, bank: int) -> BankIdleStats:
    """One bank's stats from a table's columns (``stats()`` builds them
    for every bank)."""
    useful = int(table.useful[row, bank])
    return BankIdleStats(
        int(table.accesses[bank]),
        int(table.idle_intervals[bank]),
        useful,
        int(table.idle_cycles[bank]),
        int(table.sleep[row, bank]),
        useful,
        table.window,
    )


def oracle_stats(cycles, banks, bank, breakeven, start, end):
    effective = end - start + 1 if breakeven is None else breakeven
    return stats_from_access_cycles(cycles[banks == bank], effective, start, end)


@pytest.mark.parametrize("backend", BACKENDS)
class TestThresholdAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(case=windows(), chunk=st.sampled_from([1, 7, 10**9]))
    def test_spectrum_equals_oracles(self, backend, case, chunk):
        num_banks, start, end, cycles, banks = case
        cutoff = spectrum_cutoff(num_banks)
        breakevens = edge_breakevens(cutoff, end - start)
        with dispatch.use_backend(backend):
            one_shot = GapSpectrum.scan(
                [BankRouting.direct(cycles, banks, num_banks)], num_banks, start, end
            )
            # The same accesses streamed in cycle windows of `chunk`
            # (1: one-cycle chunks); empty windows are no-ops.
            accumulator = StreamingGapAccumulator(num_banks, start)
            for window_id in np.unique((cycles - start) // chunk):
                inside = (cycles - start) // chunk == window_id
                accumulator.update(
                    BankRouting.direct(cycles[inside], banks[inside], num_banks)
                )
            streamed = accumulator.finalize(end)
            table = one_shot.threshold(breakevens)
        assert one_shot.cutoff == cutoff
        for field in ("accesses", "dense", "over_banks", "over_lengths", "over_counts"):
            assert np.array_equal(getattr(streamed, field), getattr(one_shot, field))
        streamed_table = streamed.threshold(breakevens)
        for field in ("accesses", "idle_intervals", "idle_cycles", "useful", "sleep"):
            assert np.array_equal(getattr(streamed_table, field), getattr(table, field))

        accessed = sorted(set(banks.tolist()))
        for row, breakeven in enumerate(breakevens):
            for bank in accessed:
                assert bank_stats(table, row, bank) == oracle_stats(
                    cycles, banks, bank, breakeven, start, end
                ), (bank, breakeven)
            # Every silent bank idles the whole window in one gap.
            silent = np.setdiff1d(np.arange(num_banks), accessed)
            window = end - start
            expected_useful = 0 if breakeven is None else int(window > breakeven)
            assert not table.accesses[silent].any()
            assert (table.idle_intervals[silent] == int(window > 0)).all()
            assert (table.idle_cycles[silent] == window).all()
            assert (table.useful[row, silent] == expected_useful).all()
            assert (table.sleep[row, silent] == expected_useful * (window - (breakeven or 0))).all()

        if num_banks <= 8:
            for row, breakeven in enumerate(breakevens):
                accountant = IdlenessAccountant(
                    num_banks, end - start + 1 if breakeven is None else breakeven, start
                )
                for bank, cycle in zip(banks.tolist(), cycles.tolist()):
                    accountant.on_access(bank, cycle)
                assert accountant.finalize(end) == table.stats()[row]

    def test_many_banks_shrink_the_cutoff(self, backend):
        """The dense part is bounded in total, so a per-line routing
        counts nearly every gap in the overflow."""
        assert spectrum_cutoff(MANY_BANKS) < MAX_CUTOFF == spectrum_cutoff(16)
        for banks in (MANY_BANKS, 1 << 17):
            assert spectrum_cutoff(banks) * banks <= DENSE_CELLS
        cycles = np.array([3, 10, 11, 40], dtype=np.int64)
        banks = np.array([MANY_BANKS - 1, 7, MANY_BANKS - 1, 7], dtype=np.int64)
        with dispatch.use_backend(backend):
            spectrum = GapSpectrum.scan(
                [BankRouting.direct(cycles, banks, MANY_BANKS)], MANY_BANKS, 0, 50
            )
        assert spectrum.dense.size <= DENSE_CELLS
        table = spectrum.threshold([2])
        for bank in (7, MANY_BANKS - 1):
            assert bank_stats(table, 0, bank) == oracle_stats(cycles, banks, bank, 2, 0, 50)


class TestMerge:
    def test_merge_is_addition(self):
        rng = np.random.default_rng(4)
        spectra = []
        for lo in (0, 5000):
            cycles = np.sort(rng.choice(5000, size=300, replace=False)) + lo
            banks = rng.integers(0, 4, size=300)
            spectra.append(
                GapSpectrum.scan([BankRouting.direct(cycles, banks, 4)], 4, lo, lo + 5000)
            )
        merged = spectra[0].merge(spectra[1])
        breakevens = [None, 1, 30, 5000]
        tables = [spectrum.threshold(breakevens) for spectrum in spectra]
        total = merged.threshold(breakevens)
        assert merged.window == 10000
        for field in ("accesses", "idle_intervals", "idle_cycles", "useful", "sleep"):
            assert np.array_equal(
                getattr(total, field), getattr(tables[0], field) + getattr(tables[1], field)
            )
        with pytest.raises(SimulationError, match="bank counts"):
            spectra[0].merge(GapSpectrum.scan([], 2, 0, 10))


class TestSharedStreamRouting:
    def test_one_scan_per_chunk_and_routing(self, monkeypatch, lut):
        """Static groups differing only in their update period, and
        groups differing only in a power axis, route the same way: each
        chunk is scanned once per distinct routing, not once per cursor."""
        scans = []
        real = dispatch.stream_gap_update

        def spy(cycles, *args):
            scans.append(cycles.size)
            return real(cycles, *args)

        monkeypatch.setattr(dispatch, "stream_gap_update", spy)
        trace = make_random_trace(seed=8, length=3000)
        base = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16), num_banks=4, policy="probing",
            update_period_cycles=2000,
        )
        names = ("policy", "update_period_cycles", "power_managed")
        combos = [
            (policy, period, managed)
            for policy in ("static", "probing")
            for period in (2000, 5000)
            for managed in (True, False)
        ]
        chunk_cycles = 4096
        streamed = stream_selected(
            base, InMemoryTraceStream(trace, chunk_cycles), names, combos, lut=lut
        )
        chunks = len(np.unique(trace.cycles // chunk_cycles))
        routings = 1 + 2  # static shares one; probing has one per period
        assert len(scans) == chunks * routings
        assert sum(scans) == len(trace) * routings
        for combo, result in zip(combos, streamed):
            config = base.__class__(**{**base.__dict__, **dict(zip(names, combo))})
            assert result.bank_stats == simulate(config, trace, lut, engine="fast").bank_stats


@pytest.mark.parametrize("engine", ["fast", "finegrain", "reference", "estimate"])
def test_streaming_plan_is_refused_by_one_shot_engines(engine, lut, random_trace):
    config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
    with pytest.raises(SimulationError, match="StreamingPlan"):
        simulate(config, random_trace, lut, plan=StreamingPlan(), engine=engine)
    assert not TracePlan(None).matches(random_trace)
