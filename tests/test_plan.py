"""Tests for the shared trace-plan layer and the batched idleness kernel.

Three contracts are pinned here:

* :func:`~repro.power.idleness.batch_stats_from_sorted_accesses` equals
  the per-bank :func:`~repro.power.idleness.stats_from_access_cycles`
  oracle for every bank and every breakeven in the vector;
* :class:`~repro.core.plan.TracePlan` caches are keyed by exactly the
  configuration fields each layer depends on, and sharing a plan across
  heterogeneous configurations never changes a result;
* a seeded fuzz loop holds the fast engine with a shared plan to the
  event-by-event ReferenceSimulator over ~50 random
  (trace, geometry, policy, period, ways, breakeven) combinations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.fastsim import run_breakeven_group
from repro.core.plan import TracePlan, ensure_plan
from repro.core.simulator import ReferenceSimulator, simulate
from repro.errors import SimulationError
from repro.power.idleness import (
    batch_stats_from_sorted_accesses,
    stats_from_access_cycles,
)
from repro.trace.trace import Trace
from tests.conftest import make_random_trace
from tests.test_engines import assert_results_equal


def make_sorted_stream(rng, num_banks, horizon):
    """Random bank-sorted access stream: (sorted_cycles, splits)."""
    per_bank = []
    for _ in range(num_banks):
        count = int(rng.integers(0, 40))
        cycles = np.sort(rng.choice(horizon, size=count, replace=False))
        per_bank.append(cycles.astype(np.int64))
    splits = np.concatenate(([0], np.cumsum([c.size for c in per_bank])))
    sorted_cycles = (
        np.concatenate(per_bank) if per_bank else np.empty(0, dtype=np.int64)
    )
    return sorted_cycles, splits.astype(np.int64), per_bank


class TestBatchIdlenessKernel:
    def test_matches_oracle_per_bank_and_breakeven(self):
        rng = np.random.default_rng(7)
        horizon = 5000
        sorted_cycles, splits, per_bank = make_sorted_stream(rng, 6, horizon)
        breakevens = [1, 7, 50, 400, horizon + 1]
        batches = batch_stats_from_sorted_accesses(
            sorted_cycles, splits, breakevens, 0, horizon
        )
        assert len(batches) == len(breakevens)
        for breakeven, stats in zip(breakevens, batches):
            for bank, bank_cycles in enumerate(per_bank):
                expected = stats_from_access_cycles(
                    bank_cycles, breakeven, 0, horizon
                )
                assert stats[bank] == expected, (bank, breakeven)

    def test_empty_stream_and_empty_banks(self):
        empty = np.empty(0, dtype=np.int64)
        [stats] = batch_stats_from_sorted_accesses(
            empty, np.array([0, 0, 0]), [10], 0, 1000
        )
        expected = stats_from_access_cycles(empty, 10, 0, 1000)
        assert stats == [expected, expected]

    def test_nonzero_start_cycle(self):
        cycles = np.array([120, 150, 400], dtype=np.int64)
        [stats] = batch_stats_from_sorted_accesses(
            cycles, np.array([0, 3]), [25], 100, 500
        )
        assert stats == [stats_from_access_cycles(cycles, 25, 100, 500)]

    def test_rejects_non_monotonic_bank_segment(self):
        cycles = np.array([5, 5], dtype=np.int64)
        with pytest.raises(SimulationError):
            batch_stats_from_sorted_accesses(cycles, np.array([0, 2]), [10], 0, 100)

    def test_rejects_out_of_window(self):
        cycles = np.array([100], dtype=np.int64)
        with pytest.raises(SimulationError):
            batch_stats_from_sorted_accesses(cycles, np.array([0, 1]), [10], 0, 100)

    def test_rejects_bad_splits(self):
        cycles = np.array([1, 2], dtype=np.int64)
        with pytest.raises(SimulationError):
            batch_stats_from_sorted_accesses(cycles, np.array([0, 1]), [10], 0, 100)

    def test_huge_horizon_stays_integer_exact(self):
        """Sleep accumulation past 2**53 cycles must not round (the same
        bug class the fine-grain float64 bincount had)."""
        horizon = 2**55
        cycles = np.array([2**54 + 1], dtype=np.int64)
        [stats] = batch_stats_from_sorted_accesses(
            cycles, np.array([0, 1]), [3], 0, horizon
        )
        leading = 2**54 + 1
        trailing = horizon - (2**54 + 1) - 1
        assert stats[0].sleep_cycles == (leading - 3) + (trailing - 3)
        assert stats[0].idle_cycles == leading + trailing


class TestTracePlanCaching:
    def test_decode_is_cached_by_bit_split(self, random_trace):
        plan = TracePlan(random_trace)
        index_a, tag_a = plan.decode(4, 10)
        index_b, tag_b = plan.decode(4, 10)
        assert index_a is index_b and tag_a is tag_b
        index_c, _ = plan.decode(5, 9)
        assert index_c is not index_a

    def test_epoch_starts_shared_across_policies(self, random_trace):
        plan = TracePlan(random_trace)
        geometry = CacheGeometry(8 * 1024, 16)
        probing = ArchitectureConfig(
            geometry, num_banks=4, policy="probing", update_period_cycles=5000
        )
        scrambling = ArchitectureConfig(
            geometry, num_banks=8, policy="scrambling", update_period_cycles=5000
        )
        assert plan.epoch_starts(probing)[0] is plan.epoch_starts(scrambling)[0]

    def test_static_schedule_key_is_none(self, random_trace):
        plan = TracePlan(random_trace)
        geometry = CacheGeometry(8 * 1024, 16)
        static = ArchitectureConfig(
            geometry, num_banks=4, policy="static", update_period_cycles=5000
        )
        assert plan.schedule_key(static) is None
        boundaries, starts = plan.epoch_starts(static)
        assert boundaries.size == 0
        assert starts.tolist() == [0, len(random_trace)]

    def test_single_bank_skips_the_sort(self, random_trace):
        plan = TracePlan(random_trace)
        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16), num_banks=1, power_managed=False
        )
        sorted_cycles, splits = plan.route(config, config.make_policy())
        # Identity order: the sorted stream *is* the trace's cycle array.
        assert sorted_cycles is random_trace.cycles
        assert splits.tolist() == [0, len(random_trace)]

    def test_idle_gaps_shared_across_power_axes(self, random_trace):
        plan = TracePlan(random_trace)
        geometry = CacheGeometry(8 * 1024, 16)
        a = ArchitectureConfig(
            geometry, num_banks=4, policy="probing", update_period_cycles=5000
        )
        b = ArchitectureConfig(
            geometry,
            num_banks=4,
            policy="probing",
            update_period_cycles=5000,
            breakeven_override=50,
            power_managed=False,
        )
        assert plan.idle_gaps(a) is plan.idle_gaps(b)
        c = ArchitectureConfig(
            geometry, num_banks=8, policy="probing", update_period_cycles=5000
        )
        assert plan.idle_gaps(c) is not plan.idle_gaps(a)

    def test_idle_gaps_cache_is_bounded(self, random_trace):
        """The per-routing gap cache evicts FIFO past max_gap_routings;
        eviction costs a recompute, never a wrong result."""
        plan = TracePlan(random_trace)
        geometry = CacheGeometry(8 * 1024, 16)
        configs = [
            ArchitectureConfig(
                geometry,
                num_banks=banks,
                policy=policy,
                update_period_cycles=None if policy == "static" else 5000,
            )
            for banks in (2, 4, 8)
            for policy in ("static", "probing", "scrambling")
        ]
        assert len(configs) > TracePlan.max_gap_routings
        for config in configs:
            plan.idle_gaps(config)
        gap_entries = [
            k for k in plan._cache if isinstance(k, tuple) and k[0] == "gaps"
        ]
        assert len(gap_entries) == TracePlan.max_gap_routings
        # An evicted routing recomputes to the same values.
        first = plan.idle_gaps(configs[0])
        fresh = TracePlan(random_trace).idle_gaps(configs[0])
        assert np.array_equal(first.gap_values, fresh.gap_values)
        assert np.array_equal(first.gap_banks, fresh.gap_banks)

    def test_matches_identity_and_equality(self, random_trace):
        plan = TracePlan(random_trace)
        assert plan.matches(random_trace)
        clone = Trace(
            random_trace.cycles.copy(),
            random_trace.addresses.copy(),
            horizon=random_trace.horizon,
        )
        assert plan.matches(clone)
        assert not plan.matches(make_random_trace(seed=1234))

    def test_mismatched_plan_refused(self, lut, random_trace):
        other = make_random_trace(seed=999)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4)
        with pytest.raises(SimulationError):
            simulate(config, random_trace, lut, plan=TracePlan(other), engine="fast")

    def test_ensure_plan_builds_when_missing(self, random_trace):
        plan = ensure_plan(None, random_trace)
        assert plan.matches(random_trace)
        assert ensure_plan(plan, random_trace) is plan


class TestBreakevenGroup:
    def test_group_equals_independent_runs(self, lut, random_trace):
        base = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=9000,
        )
        from dataclasses import replace

        configs = [
            replace(base, breakeven_override=b) for b in (None, 5, 60, 700)
        ]
        plan = TracePlan(random_trace)
        grouped = run_breakeven_group(configs, random_trace, lut=lut, plan=plan)
        for config, result in zip(configs, grouped):
            solo = simulate(config, random_trace, lut, engine="fast")
            assert result.bank_stats == solo.bank_stats
            assert result.cache_stats.hits == solo.cache_stats.hits
            assert result.energy_pj == solo.energy_pj
            assert result.lifetime_years == solo.lifetime_years
            assert result.config == config

    def test_rejects_heterogeneous_group(self, lut, random_trace):
        geometry = CacheGeometry(8 * 1024, 16)
        configs = [
            ArchitectureConfig(geometry, num_banks=4),
            ArchitectureConfig(geometry, num_banks=2),
        ]
        with pytest.raises(SimulationError):
            run_breakeven_group(configs, random_trace, lut=lut)

    def test_empty_group(self, lut, random_trace):
        assert run_breakeven_group([], random_trace, lut=lut) == []

    def test_gap_structure_shared_across_groups(self, lut, random_trace):
        """Separate groups with the same routing (here: a power_managed
        axis) reuse one cached idle-gap structure."""
        from dataclasses import replace

        base = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=9000,
        )
        plan = TracePlan(random_trace)
        run_breakeven_group(
            [replace(base, breakeven_override=b) for b in (5, 60)],
            random_trace,
            lut=lut,
            plan=plan,
        )
        sections_after_first = len(plan)
        results = run_breakeven_group(
            [replace(base, power_managed=False)], random_trace, lut=lut, plan=plan
        )
        assert len(plan) == sections_after_first  # nothing recomputed
        assert results[0].bank_stats == (
            simulate(
                replace(base, power_managed=False), random_trace, lut, engine="fast"
            ).bank_stats
        )


def random_config(rng) -> ArchitectureConfig:
    """One random-but-valid architecture for the fuzz loop."""
    size = int(rng.choice([4, 8, 16])) * 1024
    line = int(rng.choice([16, 32]))
    ways = int(rng.choice([1, 1, 2, 4]))
    geometry = CacheGeometry(size, line, ways=ways)
    bank_choices = [m for m in (1, 2, 4, 8) if m <= geometry.num_sets]
    num_banks = int(rng.choice(bank_choices))
    policy = "static" if num_banks == 1 else str(
        rng.choice(["static", "probing", "scrambling"])
    )
    period = None
    if policy != "static":
        period = int(rng.integers(500, 15000))
    breakeven = None if rng.random() < 0.4 else int(rng.integers(1, 500))
    return ArchitectureConfig(
        geometry,
        num_banks=num_banks,
        policy=policy,
        power_managed=bool(rng.random() < 0.85),
        update_period_cycles=period,
        breakeven_override=breakeven,
    )


class TestDifferentialFuzz:
    def test_fifty_random_combos_match_reference(self, lut):
        """The safety net: the fast engine sharing one plan per trace
        must agree with the reference engine on every measured field,
        over ~50 random (trace, geometry, policy, period, ways,
        breakeven) combinations."""
        rng = np.random.default_rng(20110311)
        combos_per_trace = 10
        for trace_round in range(5):
            trace = make_random_trace(
                seed=int(rng.integers(0, 2**31)),
                length=int(rng.integers(150, 400)),
                max_gap=int(rng.integers(5, 120)),
            )
            plan = TracePlan(trace)  # shared across this trace's combos
            for _ in range(combos_per_trace):
                config = random_config(rng)
                fast = simulate(config, trace, lut, plan=plan, engine="fast")
                reference = ReferenceSimulator(config, lut).run(trace)
                assert_results_equal(reference, fast)
