"""Tests for idleness accounting and the Block Control unit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.power.controller import BlockControl
from repro.power.idleness import (
    BankIdleStats,
    IdlenessAccountant,
    stats_from_access_cycles,
)


class TestAccountantBasics:
    def test_no_accesses_whole_run_is_one_gap(self):
        accountant = IdlenessAccountant(1, breakeven=10)
        (stats,) = accountant.finalize(100)
        assert stats.idle_intervals == 1
        assert stats.idle_cycles == 100
        assert stats.sleep_cycles == 90
        assert stats.useful_idleness == pytest.approx(0.9)

    def test_gap_equal_to_breakeven_earns_no_sleep(self):
        """The paper's rule is strictly 'greater than the breakeven'."""
        accountant = IdlenessAccountant(1, breakeven=10)
        accountant.on_access(0, 0)
        accountant.on_access(0, 11)  # gap of exactly 10 idle cycles
        (stats,) = accountant.finalize(12)
        assert stats.sleep_cycles == 0
        assert stats.useful_intervals == 0
        assert stats.idle_cycles == 10

    def test_gap_above_breakeven_sleeps_remainder(self):
        accountant = IdlenessAccountant(1, breakeven=10)
        accountant.on_access(0, 0)
        accountant.on_access(0, 61)  # gap of 60
        (stats,) = accountant.finalize(62)
        assert stats.sleep_cycles == 50
        assert stats.transitions == 1

    def test_back_to_back_accesses_no_idle(self):
        accountant = IdlenessAccountant(1, breakeven=5)
        for cycle in range(20):
            accountant.on_access(0, cycle)
        (stats,) = accountant.finalize(20)
        assert stats.idle_cycles == 0
        assert stats.accesses == 20

    def test_wake_detection(self):
        accountant = IdlenessAccountant(1, breakeven=5)
        accountant.on_access(0, 0)
        assert not accountant.on_access(0, 3)
        assert accountant.on_access(0, 50)

    def test_rejects_non_monotonic(self):
        accountant = IdlenessAccountant(1, breakeven=5)
        accountant.on_access(0, 10)
        with pytest.raises(SimulationError):
            accountant.on_access(0, 10)

    def test_rejects_double_finalize(self):
        accountant = IdlenessAccountant(1, breakeven=5)
        accountant.finalize(10)
        with pytest.raises(SimulationError):
            accountant.finalize(10)

    def test_per_bank_independence(self):
        accountant = IdlenessAccountant(2, breakeven=5)
        accountant.on_access(0, 0)
        accountant.on_access(0, 99)
        stats = accountant.finalize(100)
        assert stats[0].accesses == 2
        assert stats[1].accesses == 0
        assert stats[1].sleep_cycles == 95


class TestVectorizedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=300), max_size=60),
        st.integers(min_value=1, max_value=50),
    )
    def test_property_matches_accountant(self, gaps, breakeven):
        cycles = np.cumsum(np.asarray(gaps, dtype=np.int64)) if gaps else np.empty(0, np.int64)
        horizon = int(cycles[-1]) + 17 if gaps else 50
        accountant = IdlenessAccountant(1, breakeven)
        for cycle in cycles:
            accountant.on_access(0, int(cycle))
        (expected,) = accountant.finalize(horizon)
        measured = stats_from_access_cycles(cycles, breakeven, 0, horizon)
        assert measured == expected

    def test_rejects_unsorted(self):
        with pytest.raises(SimulationError):
            stats_from_access_cycles(np.array([5, 4]), 3, 0, 10)

    def test_rejects_out_of_window(self):
        with pytest.raises(SimulationError):
            stats_from_access_cycles(np.array([11]), 3, 0, 10)


class TestStatsProperties:
    def test_zero_division_guards(self):
        empty = BankIdleStats()
        assert empty.useful_idleness == 0.0
        assert empty.idle_fraction == 0.0
        assert empty.useful_interval_fraction == 0.0


class TestBlockControlAgreesWithAccountant:
    def _drive(self, events, horizon, breakeven, banks=2):
        """Run both models on the same event stream."""
        control = BlockControl(banks, breakeven)
        accountant = IdlenessAccountant(banks, breakeven)
        schedule = dict(events)
        for cycle in range(horizon):
            control.step(schedule.get(cycle))
        for cycle, bank in sorted(events):
            accountant.on_access(bank, cycle)
        stats = accountant.finalize(horizon)
        return control, stats

    def test_simple_stream(self):
        events = [(0, 0), (3, 1), (40, 0)]
        control, stats = self._drive(events, horizon=100, breakeven=10)
        for bank in range(2):
            assert control.sleep_cycles[bank] == stats[bank].sleep_cycles
            assert control.transitions[bank] == stats[bank].transitions

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=199),
                      st.integers(min_value=0, max_value=1)),
            max_size=40,
            unique_by=lambda t: t[0],
        ),
        st.integers(min_value=1, max_value=20),
    )
    def test_property_cycle_accurate_equals_gap_arithmetic(self, events, breakeven):
        control, stats = self._drive(events, horizon=200, breakeven=breakeven)
        for bank in range(2):
            assert control.sleep_cycles[bank] == stats[bank].sleep_cycles, (
                f"bank {bank}: {events}"
            )
            assert control.transitions[bank] == stats[bank].transitions

    def test_run_gap_fast_path(self):
        control = BlockControl(2, breakeven=5)
        control.step(0)
        control.run_gap(50)
        assert control.sleep_cycles[0] == 45
        assert control.sleep_cycles[1] == 45 + 1  # bank 1 idle one extra cycle
        assert control.counter_width_bits == 3

    def test_counter_width_for_paper_breakeven(self):
        assert BlockControl(4, 24).counter_width_bits == 5
        assert BlockControl(4, 63).counter_width_bits == 6
