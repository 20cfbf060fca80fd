"""The estimator's breakeven-group path.

:func:`~repro.estimate.model.estimate_group` evaluates every config of a
breakeven group from one profile: the breakeven-independent counters
once, ``useful``/``sleep`` per breakeven, one
:func:`~repro.core.simulator.assemble_group` for the lot.
``EstimateEngine.run`` and ``estimate_result`` are its one-config views.
Pinned here:

* every row of a group equals the one-config estimate of its config,
  field by field (``float.hex``), on the identity pins' grid and over
  random profiles and breakeven vectors;
* the synthesized counters equal a scalar, one-config-at-a-time
  transcription of the model (:func:`scalar_bank_stats`), so grouping
  kept the float order the model always had;
* ``idle_intervals`` that differs between the rows of one group;
* the group contract (mixed groups, bank-count mismatches);
* every estimated grid — ``sweep(engine="estimate")``, guided search,
  guided campaigns, ``validate_workload`` — runs through ``run_group``,
  never one point at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.planner import SearchSpec
from repro.analysis.sweep import search_sweep, sweep
from repro.cache.geometry import CacheGeometry
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.tracespec import TraceSpec
from repro.core.config import ArchitectureConfig
from repro.core.engine import get_engine
from repro.core.fastsim import run_breakeven_group
from repro.core.metrics import Metric, register_metric, unregister_metric
from repro.core.plan import TracePlan
from repro.core.serialize import ResultRecord, result_to_dict
from repro.errors import ConfigurationError, SimulationError
from repro.estimate.engine import EstimateEngine
from repro.estimate.model import (
    _largest_remainder,
    effective_bank_shares,
    estimate_group,
    estimate_result,
    predicted_updates,
)
from repro.estimate.validate import validate_workload
from repro.power.idleness import BankIdleStats
from repro.trace.stats import TraceProfile, profile_trace
from tests.test_estimate_identity import (
    GRID_DIGEST,
    digest,
    headline_hex,
    pin_configs,
    pin_trace,
)

GEOMETRY = CacheGeometry(4096, 16)


def hexed(value):
    """``value`` with every float spelled by ``float.hex``, field by field."""
    if isinstance(value, float):
        return value.hex()
    if is_dataclass(value):
        return (
            type(value).__name__,
            tuple((f.name, hexed(getattr(value, f.name))) for f in fields(value)),
        )
    if isinstance(value, (tuple, list)):
        return tuple(hexed(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, hexed(item)) for key, item in value.items()))
    return value


def record_bytes(result) -> bytes:
    return json.dumps(result_to_dict(result), sort_keys=True).encode()


def breakeven_groups(configs):
    """Configs grouped by everything but ``breakeven_override``, in order."""
    groups: dict = {}
    for config in configs:
        groups.setdefault(replace(config, breakeven_override=None), []).append(config)
    return list(groups.values())


def scalar_bank_stats(profile: TraceProfile, config: ArchitectureConfig):
    """The closed-form idleness model, one config and one bank at a time.

    A plain transcription of the model's arithmetic in its float order
    (bucket sums from ``0.0``, bank averages by builtin ``sum()``), so
    the grouped, vectorized model is held to it exactly.
    """
    horizon = profile.horizon
    num_banks = len(profile.bank_shares)
    updates = predicted_updates(config, horizon)
    shares = effective_bank_shares(profile, config, updates)
    counts = _largest_remainder(shares, profile.accesses)
    breakeven = float(config.breakeven()) if config.power_managed else float(horizon + 1)
    histograms = profile.bank_gap_histograms
    if len(histograms) != num_banks:
        histograms = tuple(
            ((max(0, horizon - c).bit_length() - 1, 1, max(0, horizon - c)),)
            if horizon - c > 0
            else ()
            for c in counts
        )
    responses = []
    for histogram in histograms:
        intervals = idle = useful = sleep = 0.0
        for _, count, total in histogram:
            intervals += count
            idle += total
            mean = total / count
            if mean > breakeven:
                useful += count
                sleep += count * (mean - breakeven)
        responses.append((intervals, useful, idle, sleep))
    averaged = tuple(sum(r[i] for r in responses) / num_banks for i in range(4))
    blend = updates / (updates + 1.0) if config.policy != "static" and updates else 0.0
    stats = []
    for b, accesses in enumerate(counts):
        intervals, useful, idle, sleep = (
            (1.0 - blend) * responses[b][i] + blend * averaged[i] for i in range(4)
        )
        if updates and horizon > 0 and sleep > 0:
            interrupted = updates * min(1.0, sleep / horizon)
            sleep = max(0.0, sleep - interrupted * breakeven)
            useful += interrupted
        idle_cycles = min(int(round(idle)), max(0, horizon - accesses))
        sleep_cycles = min(int(round(sleep)), idle_cycles)
        useful_intervals = min(int(round(useful)), max(1, int(round(intervals))))
        if sleep_cycles <= 0:
            useful_intervals = 0
        stats.append(
            BankIdleStats(
                accesses=accesses,
                idle_intervals=max(useful_intervals, int(round(intervals))),
                useful_intervals=useful_intervals,
                idle_cycles=idle_cycles,
                sleep_cycles=sleep_cycles,
                transitions=useful_intervals,
                total_cycles=horizon,
            )
        )
    return stats


def make_profile(
    horizon: int,
    accesses: int,
    weights,
    histograms,
    reuse: float = 2.0,
) -> TraceProfile:
    total = sum(weights)
    return TraceProfile(
        accesses=accesses,
        horizon=horizon,
        access_density=accesses / horizon if horizon else 0.0,
        distinct_lines=min(accesses, 64),
        footprint_bytes=16 * min(accesses, 96),
        bank_shares=tuple(w / total if accesses else 0.0 for w in weights),
        gap_percentiles={50: 1.0, 90: 4.0, 99: 64.0},
        reuse_distance_median=reuse,
        bank_gap_histograms=tuple(histograms),
    )


def assert_rows_match(configs, profile, lut) -> None:
    """Group rows equal one-config estimates and the scalar model."""
    rows = estimate_group(configs, profile, lut, trace_name="t")
    assert len(rows) == len(configs)
    for config, row in zip(configs, rows):
        assert row.config is config
        assert hexed(row) == hexed(estimate_result(config, profile, lut, trace_name="t"))
        assert list(row.bank_stats) == scalar_bank_stats(profile, config)
        assert row.fidelity == "estimate"


# ----------------------------------------------------------------------
# Group rows against one-config estimates
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pinned_trace():
    return pin_trace()


class TestGroupRows:
    def test_pin_grid_groups_equal_one_config_runs(self, pinned_trace, lut):
        engine = get_engine("estimate")
        plan = TracePlan(pinned_trace)
        by_config = {}
        for group in breakeven_groups(pin_configs()):
            rows = engine.run_group(group, pinned_trace, lut=lut, plan=plan)
            for config, row in zip(group, rows):
                alone = engine.run(config, pinned_trace, lut=lut, plan=plan)
                assert hexed(row) == hexed(alone), config
                by_config[config] = row
        lines = [headline_hex(by_config[config]) for config in pin_configs()]
        assert digest(lines) == GRID_DIGEST

    def test_sweep_records_equal_per_point_records(self, pinned_trace, lut):
        base = ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing", update_period_cycles=2000
        )
        axes = {
            "num_banks": [2, 4, 16],
            "policy": ["static", "scrambling"],
            "power_managed": [True, False],
            "breakeven_override": [None, 5, 50, 5000],
        }
        engine = get_engine("estimate")
        swept = sweep(base, pinned_trace, axes, lut=lut, engine="estimate")
        assert len(swept) == 48
        for point in swept:
            config = replace(base, **point.parameters)
            alone = engine.run(config, pinned_trace, lut=lut)
            assert record_bytes(point.result) == record_bytes(alone), point.parameters

    def test_idle_intervals_vary_between_rows(self, lut):
        # Bank 0 has no gap of its own; the probing blend gives it 0.45
        # intervals, which round to none, while the updates that
        # interrupt the sleep it borrows lift its useful intervals to
        # one: it counts the one interval it sleeps through at a short
        # breakeven and none where nothing sleeps.
        profile = make_profile(100_000, 10, (1, 1), ((), ((16, 1, 99_990),)))
        configs = [
            ArchitectureConfig(
                GEOMETRY,
                num_banks=2,
                policy="probing",
                update_period_cycles=10_000,
                breakeven_override=breakeven,
            )
            for breakeven in (5, 200_000, 50)
        ]
        rows = estimate_group(configs, profile, lut)
        assert [row.bank_stats[0].idle_intervals for row in rows] == [1, 0, 1]
        assert [row.bank_stats[0].sleep_cycles for row in rows] == [44973, 0, 44771]
        assert [row.bank_stats[1].idle_intervals for row in rows] == [1, 1, 1]
        assert_rows_match(configs, profile, lut)
        assert_rows_match(configs[::-1], profile, lut)

    def test_empty_trace_predicts_updates_but_no_flush(self, lut):
        profile = make_profile(10_000, 0, (1, 1, 1, 1), [((13, 1, 10_000),)] * 4)
        configs = [
            ArchitectureConfig(
                GEOMETRY,
                policy="scrambling",
                update_period_cycles=1000,
                breakeven_override=breakeven,
            )
            for breakeven in (5, 50)
        ]
        rows = estimate_group(configs, profile, lut)
        assert [(r.updates_applied, r.cache_stats.flushes) for r in rows] == [(9, 0)] * 2
        assert_rows_match(configs, profile, lut)

    def test_empty_trace_flushes_reach_plugin_metrics(self, lut):
        """A plugin metric sees the model's 0 flushes, live and reloaded."""

        class FlushCount(Metric):
            name = "test_flush_count"
            provides = ("test_flushes_seen",)

            def compute(self, measurement, lut=None):
                return {"test_flushes_seen": measurement.cache_stats.flushes}

        profile = make_profile(10_000, 0, (1, 1, 1, 1), [((13, 1, 10_000),)] * 4)
        configs = [
            ArchitectureConfig(
                GEOMETRY,
                policy="scrambling",
                update_period_cycles=1000,
                breakeven_override=breakeven,
            )
            for breakeven in (5, 50)
        ]
        register_metric(FlushCount())
        try:
            rows = estimate_group(configs, profile, lut)
            reloaded = [
                ResultRecord.from_dict(result_to_dict(row)).to_result(lut) for row in rows
            ]
        finally:
            unregister_metric("test_flush_count")
        assert [row.metrics["test_flushes_seen"] for row in rows] == [0, 0]
        assert [row.metrics for row in reloaded] == [row.metrics for row in rows]


# ----------------------------------------------------------------------
# Random profiles and breakeven vectors
# ----------------------------------------------------------------------
@st.composite
def profiles(draw):
    num_banks = draw(st.sampled_from([1, 2, 4, 8]))
    horizon = draw(st.sampled_from([0, 1, 40, 5_000, 10**5, 10**7]))
    accesses = draw(st.integers(0, 5_000)) if horizon else 0
    weights = draw(st.lists(st.integers(0, 50), min_size=num_banks, max_size=num_banks))
    if not sum(weights):
        weights = [1] * num_banks
    histograms = []
    for _ in range(num_banks):
        buckets = draw(st.lists(st.integers(0, 24), max_size=8, unique=True))
        histogram = []
        for bucket in sorted(buckets):
            count = draw(st.integers(1, 400))
            low, high = 1 << bucket, (1 << (bucket + 1)) - 1
            histogram.append((bucket, count, draw(st.integers(count * low, count * high))))
        histograms.append(tuple(histogram))
    if draw(st.booleans()) and draw(st.booleans()):
        histograms = []  # a profile without the histogram statistic
    reuse = draw(st.sampled_from([0.0, 3.0, 250.0, math.inf]))
    return make_profile(horizon, accesses, weights, histograms, reuse)


@st.composite
def groups(draw, num_banks: int):
    policy = "static" if num_banks == 1 else draw(
        st.sampled_from(["static", "probing", "scrambling"])
    )
    schedule = draw(
        st.sampled_from(
            [{}, {"update_period_cycles": 7}, {"update_period_cycles": 900},
             {"update_events": (0, 30, 4_000)}]
        )
    )
    breakevens = draw(
        st.lists(st.sampled_from([None, 1, 5, 19, 20, 64, 1_000, 10**6]), min_size=1, max_size=9)
    )
    managed = draw(st.booleans())
    return [
        ArchitectureConfig(
            GEOMETRY,
            num_banks=num_banks,
            policy=policy,
            power_managed=managed,
            breakeven_override=breakeven,
            **schedule,
        )
        for breakeven in breakevens
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_rows_equal_one_config_results(data, lut):
    profile = data.draw(profiles())
    configs = data.draw(groups(len(profile.bank_shares)))
    assert_rows_match(configs, profile, lut)


# ----------------------------------------------------------------------
# The group contract
# ----------------------------------------------------------------------
class TestGroupContract:
    def config(self, **changes):
        return ArchitectureConfig(GEOMETRY, num_banks=4, **changes)

    def test_mixed_group_is_a_simulation_error(self, pinned_trace, lut):
        mixed = [self.config(breakeven_override=5), self.config(policy="probing")]
        engine = get_engine("estimate")
        with pytest.raises(SimulationError, match="differ only in breakeven_override"):
            engine.run_group(mixed, pinned_trace, lut=lut)
        with pytest.raises(SimulationError, match="differ only in breakeven_override"):
            run_breakeven_group(mixed, pinned_trace, lut=lut)

    def test_bank_count_mismatch_is_a_configuration_error(self, pinned_trace, lut):
        profile = profile_trace(pinned_trace, GEOMETRY, num_banks=2)
        with pytest.raises(ConfigurationError, match="banks"):
            estimate_group([self.config(), self.config(breakeven_override=9)], profile, lut)

    def test_empty_group(self, pinned_trace, lut):
        assert get_engine("estimate").run_group([], pinned_trace, lut=lut) == []


# ----------------------------------------------------------------------
# Every estimated grid goes through run_group
# ----------------------------------------------------------------------
@pytest.fixture()
def no_per_point_estimates(monkeypatch):
    """Count ``run_group`` rows; fail on any one-config ``run``."""
    rows = {"groups": 0, "rows": 0}
    original = EstimateEngine.run_group

    def run(self, config, trace, lut=None, plan=None):
        raise AssertionError("estimated one point at a time")

    def run_group(self, configs, trace, lut=None, plan=None):
        rows["groups"] += 1
        rows["rows"] += len(configs)
        return original(self, configs, trace, lut=lut, plan=plan)

    monkeypatch.setattr(EstimateEngine, "run", run)
    monkeypatch.setattr(EstimateEngine, "run_group", run_group)
    return rows


AXES = {
    "num_banks": [2, 4],
    "policy": ["static", "probing"],
    "breakeven_override": [5, 50, 500],
}


class TestOneExecutor:
    def base(self):
        return ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing", update_period_cycles=2000
        )

    def test_search_sweep(self, pinned_trace, lut, no_per_point_estimates):
        result = search_sweep(
            self.base(), pinned_trace, AXES, search="estimator-pruned", lut=lut,
            parallel=2,
        )
        assert len(result.estimates) == 12
        assert no_per_point_estimates == {"groups": 4, "rows": 12}

    def test_validate_workload(self, pinned_trace, lut, no_per_point_estimates):
        report = validate_workload(self.base(), pinned_trace, AXES, lut=lut)
        assert report["points"] == 12
        assert no_per_point_estimates == {"groups": 4, "rows": 12}

    def test_guided_campaign_counts_fresh_estimates(
        self, tmp_path, lut, no_per_point_estimates
    ):
        def spec(breakevens):
            # A repeated axis value names the same stored points.
            return CampaignSpec(
                name="grouped",
                traces=(TraceSpec.synthetic("sha", size_bytes=4096, num_windows=20),),
                base=self.base(),
                axes={**AXES, "num_banks": [2, 4, 2], "breakeven_override": breakevens},
                search=SearchSpec(strategy="estimator-pruned", top_k=1),
            )

        first = run_campaign(spec([5, 50]), directory=tmp_path, lut=lut)
        assert first.estimated == 8
        assert no_per_point_estimates == {"groups": 4, "rows": 8}
        stored = {(point.trace_hash, point.config_hash) for point in first.points}
        assert first.simulated == len(stored)
        # Widening the breakeven axis estimates only the new points,
        # one group each, and reuses every stored estimate.
        wider = run_campaign(spec([5, 50, 500]), directory=tmp_path, lut=lut)
        assert wider.estimated == 4
        assert no_per_point_estimates == {"groups": 8, "rows": 12}
        again = run_campaign(spec([5, 50, 500]), directory=tmp_path, lut=lut)
        assert again.estimated == 0 and again.simulated == 0
