"""Tests for the estimate fidelity tier and the guided-search planner.

Covers the closed-form model (feasibility clamps, static exactness
against the simulator), the engine-registry contract (``auto`` never
picks an estimator), fidelity-tagged result keys and records (an
estimate can never alias or satisfy a simulated record), the planner's
grid/SearchSpec/strategy layer, strategy-guided ``search_sweep`` and
``run_campaign``, and the new CLI surfaces.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import pytest

import repro.campaign.run as campaign_run
from repro.analysis.planner import (
    PlanContext,
    SearchSpec,
    SearchStrategy,
    get_strategy,
    plan_grid,
    register_strategy,
    strategy_names,
)
from repro.analysis.sweep import search_sweep, sweep
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    CodecError,
    campaign_status,
    config_hash,
    run_campaign,
)
from repro.campaign.codec import config_result_hash
from repro.campaign.tracespec import TraceSpec
from repro.cache.geometry import CacheGeometry
from repro.cli import main
from repro.core.config import ArchitectureConfig
from repro.core.engine import (
    engine_names,
    get_engine,
    resolve_engine,
    result_fidelity,
)
from repro.core.serialize import ResultRecord, result_to_dict
from repro.core.simulator import simulate
from repro.errors import ConfigurationError, ReproWarning
from repro.estimate import estimate_result
from repro.estimate.model import (
    _histogram_responses,
    predicted_updates,
    synthesize_bank_stats,
)
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for
from repro.trace.stats import profile_trace

GEOMETRY = CacheGeometry(8 * 1024, 16)


@pytest.fixture(scope="module")
def trace():
    return WorkloadGenerator(GEOMETRY, num_windows=60).generate(profile_for("sha"))


def config(**overrides) -> ArchitectureConfig:
    defaults = dict(
        num_banks=4, policy="static", update_period_cycles=None
    )
    defaults.update(overrides)
    return ArchitectureConfig(GEOMETRY, **defaults)


# ----------------------------------------------------------------------
# Closed-form model
# ----------------------------------------------------------------------
class TestEstimatorModel:
    def test_histogram_response_collapses_buckets_to_means(self):
        # One bucket of two gaps totalling 600 cycles (mean 300), one
        # bucket of one 10-cycle gap. Breakeven 100: only the big
        # bucket sleeps, 2 * (300 - 100) cycles.
        histogram = ((8, 2, 600), (3, 1, 10))
        intervals, useful, idle, sleep = _histogram_responses((histogram,), [100.0])
        assert intervals == [3]
        assert useful.tolist() == [[2]]
        assert idle == [610]
        assert sleep.tolist() == [[pytest.approx(400.0)]]

    def test_synthesized_counters_are_feasible(self, trace):
        for policy, period in [("static", None), ("probing", 4096)]:
            cfg = config(policy=policy, update_period_cycles=period)
            profile = profile_trace(trace, GEOMETRY, num_banks=cfg.num_banks)
            for bank in synthesize_bank_stats(profile, cfg):
                assert 0 <= bank.sleep_cycles <= bank.idle_cycles
                assert bank.idle_cycles <= bank.total_cycles - bank.accesses
                assert bank.useful_intervals <= bank.idle_intervals

    def test_zero_access_bank_sleeps_through_the_horizon(self, trace):
        # A profile with an unused bank: share 0 -> the whole horizon
        # is one idle gap, sleepable minus one warm-up.
        profile = profile_trace(trace, GEOMETRY, num_banks=4)
        shares = (0.0,) + tuple(
            s / sum(profile.bank_shares[1:]) for s in profile.bank_shares[1:]
        )
        histograms = (
            ((profile.horizon.bit_length() - 1, 1, profile.horizon),),
        ) + profile.bank_gap_histograms[1:]
        starved = replace(
            profile, bank_shares=shares, bank_gap_histograms=histograms
        )
        stats = synthesize_bank_stats(starved, config(breakeven_override=100))
        assert stats[0].accesses == 0
        assert stats[0].sleep_cycles > 0.9 * profile.horizon

    def test_static_estimate_matches_simulation(self, trace, lut):
        cfg = config(breakeven_override=100)
        profile = profile_trace(trace, GEOMETRY, num_banks=cfg.num_banks)
        estimated = estimate_result(cfg, profile, lut, trace_name="sha")
        simulated = simulate(cfg, trace, lut)
        assert estimated.hit_rate == pytest.approx(simulated.hit_rate, abs=1e-3)
        assert estimated.energy_savings == pytest.approx(
            simulated.energy_savings, abs=1e-3
        )
        assert estimated.average_idleness == pytest.approx(
            simulated.average_idleness, abs=1e-3
        )
        assert estimated.lifetime_years == pytest.approx(
            simulated.lifetime_years, rel=1e-3
        )

    def test_dynamic_estimate_tracks_simulation(self, trace, lut):
        cfg = config(policy="probing", update_period_cycles=4096,
                     breakeven_override=100)
        profile = profile_trace(trace, GEOMETRY, num_banks=cfg.num_banks)
        estimated = estimate_result(cfg, profile, lut)
        simulated = simulate(cfg, trace, lut)
        assert estimated.hit_rate == pytest.approx(simulated.hit_rate, abs=0.15)
        assert estimated.energy_savings == pytest.approx(
            simulated.energy_savings, abs=0.15
        )

    def test_predicted_updates_match_schedule(self):
        assert predicted_updates(config(), 100_000) == 0
        periodic = config(policy="probing", update_period_cycles=1000)
        assert predicted_updates(periodic, 10_001) == 10
        events = config(policy="scrambling", update_events=(5, 500, 99_999))
        assert predicted_updates(events, 1_000) == 2

    def test_bank_count_mismatch_is_loud(self, trace):
        profile = profile_trace(trace, GEOMETRY, num_banks=2)
        with pytest.raises(ConfigurationError, match="banks"):
            estimate_result(config(num_banks=4), profile)

    def test_estimates_carry_the_fidelity_tag(self, trace, lut):
        profile = profile_trace(trace, GEOMETRY, num_banks=4)
        estimated = estimate_result(config(), profile, lut)
        assert estimated.fidelity == "estimate"
        assert simulate(config(), trace, lut).fidelity == "simulate"


# ----------------------------------------------------------------------
# Engine registry
# ----------------------------------------------------------------------
class TestEstimateEngine:
    def test_registered_with_estimate_fidelity(self):
        assert "estimate" in engine_names()
        assert result_fidelity("estimate") == "estimate"
        assert result_fidelity("auto") == "simulate"

    def test_auto_never_selects_the_estimator(self):
        engine = resolve_engine("auto", config())
        assert getattr(engine, "fidelity", "simulate") == "simulate"
        assert not get_engine("estimate").auto_eligible


# ----------------------------------------------------------------------
# Fidelity-tagged keys and records
# ----------------------------------------------------------------------
class TestFidelityIdentity:
    def test_simulate_keys_stay_byte_compatible(self):
        cfg = config()
        assert config_result_hash(cfg) == config_hash(cfg)
        assert config_result_hash(cfg, fidelity="simulate") == config_hash(cfg)

    def test_estimate_keys_never_alias(self):
        cfg = config()
        estimate_key = config_result_hash(cfg, fidelity="estimate")
        assert estimate_key != config_result_hash(cfg)
        assert estimate_key != config_result_hash(cfg, family="finegrain")
        assert estimate_key != config_result_hash(
            cfg, family="finegrain", fidelity="estimate"
        )

    def test_simulated_payloads_have_no_fidelity_key(self, trace, lut):
        payload = result_to_dict(simulate(config(), trace, lut))
        assert "fidelity" not in payload
        assert ResultRecord.from_dict(payload).fidelity == "simulate"

    def test_estimated_payloads_round_trip_their_tier(self, trace, lut):
        profile = profile_trace(trace, GEOMETRY, num_banks=4)
        payload = result_to_dict(estimate_result(config(), profile, lut))
        assert payload["fidelity"] == "estimate"
        record = ResultRecord.from_dict(payload)
        assert record.fidelity == "estimate"
        assert record.to_result(lut).fidelity == "estimate"


# ----------------------------------------------------------------------
# Planner layer
# ----------------------------------------------------------------------
class TestPlanner:
    def test_plan_grid_enumerates_and_groups(self):
        grid = plan_grid({"num_banks": [2, 4], "breakeven_override": [10, 20]})
        assert len(grid) == 4
        assert grid.parameters(3) == {"num_banks": 4, "breakeven_override": 20}
        ids = grid.group_ids
        assert ids is not None
        assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]
        assert grid.subset_group_ids([3, 0]) == [ids[3], ids[0]]

    def test_plan_grid_validates(self):
        with pytest.raises(ConfigurationError, match="not an ArchitectureConfig"):
            plan_grid({"volume": [1]})
        with pytest.raises(ConfigurationError, match="at least one axis"):
            plan_grid({})
        assert len(plan_grid({}, allow_empty=True)) == 1

    def test_search_spec_validation(self):
        with pytest.raises(ConfigurationError, match="unknown search strategy"):
            SearchSpec(strategy="warp")
        with pytest.raises(ConfigurationError, match="maximize"):
            SearchSpec(objectives=("hit_rate",), maximize=(True, False))
        with pytest.raises(ConfigurationError, match="top_fraction"):
            SearchSpec(top_fraction=0.0)
        with pytest.raises(ConfigurationError, match="unknown search fields"):
            SearchSpec.from_dict({"strategy": "exhaustive", "mystery": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", "x"),
            ("top_k", "many"),
            ("top_fraction", [0.1]),
            ("max_rounds", None),
            ("epsilon", None),
        ],
    )
    def test_search_spec_rejects_non_numeric_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SearchSpec.from_dict({"strategy": "estimator-pruned", field: value})

    def test_search_spec_round_trips(self):
        spec = SearchSpec(
            strategy="estimator-pruned",
            objectives=("hit_rate", "energy_savings"),
            maximize=(True, True),
            top_k=3,
            epsilon=0.1,
        )
        assert SearchSpec.from_dict(spec.to_dict()) == spec
        assert spec.survivors_per_objective(100) == 3
        assert SearchSpec().survivors_per_objective(100) == 5

    def test_strategy_registry_is_loud_and_extensible(self):
        assert strategy_names() == (
            "estimator-pruned", "exhaustive", "pareto-active"
        )
        with pytest.raises(ConfigurationError, match="known:"):
            get_strategy("warp")

        class Probe(SearchStrategy):
            name = "probe-test"

            def select(self, context: PlanContext):
                raise NotImplementedError

        register_strategy(Probe())
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_strategy(Probe())
            assert get_strategy("probe-test").name == "probe-test"
        finally:
            from repro.analysis import planner

            del planner._STRATEGIES["probe-test"]

    def test_pruned_strategy_needs_an_estimator(self):
        grid = plan_grid({"num_banks": [2, 4]})
        context = PlanContext(
            grid=grid,
            search=SearchSpec(strategy="estimator-pruned"),
            simulate=lambda indices: [None] * len(indices),
            estimate=None,
        )
        with pytest.raises(ConfigurationError, match="no estimator"):
            get_strategy("estimator-pruned").select(context)


# ----------------------------------------------------------------------
# Guided sweep
# ----------------------------------------------------------------------
class TestSearchSweep:
    def test_exhaustive_strategy_is_bit_identical_to_sweep(self, trace, lut):
        axes = {"num_banks": [2, 4], "breakeven_override": [20, 100]}
        base = config()
        classic = sweep(base, trace, axes, lut)
        guided = search_sweep(base, trace, axes, search=SearchSpec(), lut=lut)
        assert len(guided.estimates.points) == 0
        for a, b in zip(classic, guided.simulated.points):
            assert a.parameters == b.parameters
            assert a.result.bank_stats == b.result.bank_stats
            assert a.result.energy_pj == b.result.energy_pj

    def test_pruned_sweep_simulates_a_subset(self, trace, lut):
        axes = {
            "num_banks": [2, 4],
            "breakeven_override": [10, 50, 250, 1250, 6250],
        }
        pruned = search_sweep(
            config(), trace, axes,
            search=SearchSpec(strategy="estimator-pruned", top_k=1, epsilon=0.0),
            lut=lut,
        )
        total = 10
        assert len(pruned.estimates.points) == total
        assert 0 < len(pruned.simulated.points) < total
        assert pruned.simulations_avoided == total - len(pruned.simulated.points)
        assert all(
            p.result.fidelity == "estimate" for p in pruned.estimates.points
        )
        assert all(
            p.result.fidelity == "simulate" for p in pruned.simulated.points
        )

    def test_pareto_active_confirms_the_frontier(self, trace, lut):
        axes = {"num_banks": [2, 4], "breakeven_override": [20, 100, 500]}
        result = search_sweep(
            config(), trace, axes,
            search=SearchSpec(strategy="pareto-active", max_rounds=4),
            lut=lut,
        )
        assert result.outcome.rounds >= 1
        assert 0 < len(result.simulated.points) <= 6


# ----------------------------------------------------------------------
# Guided campaigns
# ----------------------------------------------------------------------
def guided_spec(search=None, engine="auto") -> CampaignSpec:
    return CampaignSpec(
        name="guided",
        traces=(TraceSpec.synthetic("sha", size_bytes=8 * 1024, num_windows=40),),
        base=ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing", update_period_cycles=5120
        ),
        axes={
            "num_banks": [2, 4],
            "policy": ["static", "probing"],
            "breakeven_override": [20, 100, 500],
        },
        engine=engine,
        search=search,
    )


@pytest.fixture()
def sim_counter(monkeypatch):
    counted = {"points": 0}
    original = campaign_run.simulate_selected

    def counting(base, trace, names, combos, **kwargs):
        # Estimates run through the same executor; count simulations.
        if kwargs.get("engine") != "estimate":
            counted["points"] += len(combos)
        return original(base, trace, names, combos, **kwargs)

    monkeypatch.setattr(campaign_run, "simulate_selected", counting)
    return counted


class TestGuidedCampaign:
    SEARCH = SearchSpec(strategy="estimator-pruned", top_k=2, epsilon=0.0)

    def test_spec_search_block_round_trips(self, tmp_path):
        spec = guided_spec(search=self.SEARCH)
        path = tmp_path / "spec.json"
        spec.save(path)
        again = CampaignSpec.load(path)
        assert again == spec
        assert again.search == self.SEARCH

    def test_searchless_spec_payload_is_unchanged(self):
        payload = guided_spec().to_dict()
        assert "search" not in payload
        assert guided_spec().spec_hash() == CampaignSpec.from_dict(
            payload
        ).spec_hash()
        assert guided_spec(search=self.SEARCH).spec_hash() != guided_spec().spec_hash()

    def test_malformed_search_block_is_loud(self):
        with pytest.raises(CodecError, match="search"):
            guided_spec(search="estimator-pruned")  # must be a SearchSpec
        with pytest.raises(CodecError):
            CampaignSpec.from_dict(
                {**guided_spec().to_dict(), "search": "estimator-pruned"}
            )

    def test_guided_run_prunes_then_exhaustive_fills(
        self, tmp_path, lut, sim_counter
    ):
        spec = guided_spec(search=self.SEARCH)
        total = spec.num_points()
        guided = run_campaign(spec, directory=tmp_path, lut=lut)
        assert guided.estimated == total
        assert 0 < guided.simulated < total
        assert sim_counter["points"] == guided.simulated
        assert len(guided.points) == guided.simulated

        status = campaign_status(spec, CampaignStore(tmp_path))
        assert status.total == total
        assert status.done == guided.simulated
        assert status.estimated == total

        # Re-running the guided campaign does zero new work.
        again = run_campaign(spec, directory=tmp_path, lut=lut)
        assert again.simulated == 0 and again.estimated == 0
        assert again.reused == guided.simulated
        assert sim_counter["points"] == guided.simulated

        # A later exhaustive run fills exactly the pruned points.
        exhaustive = run_campaign(
            replace(spec, search=None), directory=tmp_path, lut=lut
        )
        assert exhaustive.simulated == total - guided.simulated
        assert exhaustive.reused == guided.simulated
        assert len(exhaustive.points) == total

    def test_best_defaults_to_the_simulated_tier(self, tmp_path, lut):
        spec = guided_spec(search=self.SEARCH)
        run_campaign(spec, directory=tmp_path, lut=lut)
        store = CampaignStore(tmp_path)
        best = store.best("energy_savings")
        assert best is not None and best["fidelity"] == "simulate"
        rows = store.where()
        assert {row["fidelity"] for row in rows} == {"simulate", "estimate"}
        simulated_rows = [r for r in rows if r["fidelity"] == "simulate"]
        assert best["energy_savings"] == max(
            r["energy_savings"] for r in simulated_rows
        )
        ranked_any = store.best("energy_savings", fidelity="any")
        assert ranked_any is not None

    def test_strategy_override_and_estimate_engine_rejection(self, tmp_path, lut):
        with pytest.raises(ConfigurationError, match="estimator"):
            run_campaign(
                guided_spec(engine="estimate"),
                directory=tmp_path,
                lut=lut,
                search="estimator-pruned",
            )

    def test_workers_fall_back_to_single_process(self, tmp_path, lut):
        spec = guided_spec(search=self.SEARCH)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_campaign(spec, directory=tmp_path, lut=lut, workers=2)
        assert result.simulated > 0
        assert any(issubclass(w.category, ReproWarning) for w in caught)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    def test_trace_stats_text(self, capsys):
        assert main(["trace", "stats", "sha", "--windows", "40"]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out and "bank" in out

    def test_trace_stats_json(self, capsys):
        assert (
            main(
                ["trace", "stats", "sha", "--windows", "40", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["accesses"] > 0
        assert len(payload["bank_gap_histograms"]) == payload["num_banks"]

    def test_estimate_validate(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert (
            main(
                ["estimate", "validate", "--benchmarks", "sha",
                 "--windows", "40", "--banks", "2,4", "--breakevens", "20,100",
                 "--output", str(out_path)]
            )
            == 0
        )
        report = json.loads(out_path.read_text())
        assert report["points_per_workload"] == 4
        assert "hit_rate" in report["overall"]

    def test_estimate_validate_default_benchmarks(self, capsys):
        """The default --benchmarks list names only known workloads."""
        assert main(["estimate", "validate", "--windows", "10", "--banks", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["workloads"]) == 3
        assert report["points_per_workload"] == 1

    def test_campaign_run_strategy_flag(self, tmp_path, capsys):
        spec = guided_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert (
            main(
                ["campaign", "run", str(path), "--dir", str(tmp_path / "c"),
                 "--strategy", "estimator-pruned"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "estimated" in out

    def test_campaign_run_rejects_unknown_strategy(self, tmp_path):
        spec = guided_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        with pytest.raises(SystemExit):
            main(
                ["campaign", "run", str(path), "--dir",
                 str(tmp_path / "c"), "--strategy", "warp"]
            )
