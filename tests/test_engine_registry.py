"""Engine registry: views, misuse, dispatch, and the finegrain engine
joining sweeps, campaigns, the runner and the CLI."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.sweep import sweep
from repro.cache.geometry import CacheGeometry
from repro.campaign import CampaignSpec, TraceSpec, run_campaign
from repro.cli import main
from repro.core.config import ArchitectureConfig
from repro.core.engine import (
    Engine,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    resolve_engine,
    result_family,
    unregister_engine,
    validate_engine,
)
from repro.core.simulator import ReferenceSimulator, simulate
from repro.core.plan import TracePlan
from repro.errors import ConfigurationError, SimulationError, UnknownEngineError
from repro.finegrain import LineEnergyModel
from tests.conftest import make_random_trace


@pytest.fixture()
def config():
    return ArchitectureConfig(
        CacheGeometry(4 * 1024, 16),
        num_banks=4,
        policy="probing",
        update_period_cycles=5000,
    )


@pytest.fixture()
def trace():
    return make_random_trace(seed=11, length=800)


class RecordingEngine(Engine):
    """Custom engine for registry tests: reference + a call counter."""

    name = "recording"
    description = "test engine wrapping the reference oracle"
    auto_eligible = False

    def __init__(self):
        self.calls = 0

    def supports(self, config):
        return True

    def run(self, config, trace, lut=None, plan=None):
        self.calls += 1
        return ReferenceSimulator(config, lut, plan=plan).run(trace)


class RejectingEngine(Engine):
    name = "rejecting"
    description = "supports nothing"
    requires = "the impossible"

    def supports(self, config):
        return False

    def run(self, config, trace, lut=None, plan=None):  # pragma: no cover
        raise AssertionError("must never run")


@pytest.fixture()
def scratch_registry():
    """Let a test register engines and leave the global registry clean."""
    added = []

    def add(engine, **kwargs):
        register_engine(engine, **kwargs)
        added.append(engine.name)
        return engine

    yield add
    for name in added:
        try:
            unregister_engine(name)
        except UnknownEngineError:
            pass


class TestRegistryViews:
    def test_builtins_registered(self):
        assert engine_names() == (
            "auto", "compiled", "estimate", "fast", "finegrain", "reference"
        )
        assert [e.name for e in registered_engines()] == [
            "compiled",
            "estimate",
            "fast",
            "finegrain",
            "reference",
        ]

    def test_engine_names_is_a_live_view(self, scratch_registry):
        scratch_registry(RecordingEngine())
        assert "recording" in engine_names()
        import repro.core

        assert "recording" in repro.core.ENGINE_NAMES
        from repro.core import simulator

        assert "recording" in simulator.ENGINE_NAMES

    def test_validate_accepts_auto_and_registered(self):
        for name in engine_names():
            validate_engine(name)

    def test_result_family(self):
        assert result_family("auto") == "banked"
        assert result_family("fast") == "banked"
        assert result_family("compiled") == "banked"
        assert result_family("reference") == "banked"
        assert result_family("finegrain") == "finegrain"


class TestRegistryMisuse:
    def test_duplicate_name_rejected(self, scratch_registry):
        scratch_registry(RecordingEngine())
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(RecordingEngine())

    def test_duplicate_builtin_rejected(self):
        class Impostor(Engine):
            name = "fast"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(Impostor())

    def test_replace_allows_override(self, scratch_registry):
        first = scratch_registry(RecordingEngine())
        second = RecordingEngine()
        register_engine(second, replace=True)
        assert get_engine("recording") is second
        assert get_engine("recording") is not first

    def test_reserved_and_empty_names(self):
        class Nameless(Engine):
            name = ""

        class Auto(Engine):
            name = "auto"

        with pytest.raises(ConfigurationError):
            register_engine(Nameless())
        with pytest.raises(ConfigurationError):
            register_engine(Auto())

    def test_unknown_engine_error_lists_registered_names(self, config, trace):
        with pytest.raises(UnknownEngineError) as excinfo:
            simulate(config, trace, engine="warp")
        message = str(excinfo.value)
        for name in ("auto", "compiled", "fast", "finegrain", "reference"):
            assert name in message
        # Back-compat: it is still a ValueError.
        assert isinstance(excinfo.value, ValueError)

    def test_explicit_engine_that_rejects_the_config(
        self, scratch_registry, config, trace
    ):
        scratch_registry(RejectingEngine())
        with pytest.raises(SimulationError, match="the impossible"):
            simulate(config, trace, engine="rejecting")

    def test_auto_with_no_supporting_engine(self, config, monkeypatch):
        import repro.core.engine as engine_module

        rejecting = RejectingEngine()
        monkeypatch.setattr(engine_module, "_REGISTRY", {"rejecting": rejecting})
        with pytest.raises(SimulationError, match="no registered engine supports"):
            resolve_engine("auto", config)

    def test_unregister_unknown(self):
        with pytest.raises(UnknownEngineError):
            unregister_engine("never-registered")

    def test_auto_eligible_engines_must_be_banked_family(self):
        class AlienAuto(Engine):
            name = "alien"
            family = "alien"
            auto_eligible = True

        with pytest.raises(ConfigurationError, match="banked"):
            register_engine(AlienAuto())

    def test_replaced_builtin_counts_as_a_plugin_for_workers(self):
        from repro.core.engine import custom_engines, get_engine

        original = get_engine("reference")
        assert all(e.name != "reference" for e in custom_engines())

        class ShadowReference(Engine):
            name = "reference"
            description = "override"

            def supports(self, config):
                return True

            def run(self, config, trace, lut=None, plan=None):
                return original.run(config, trace, lut=lut, plan=plan)

        override = ShadowReference()
        register_engine(override, replace=True)
        try:
            shipped = custom_engines()
            assert any(e is override for e in shipped)
        finally:
            register_engine(original, replace=True)
        assert all(e.name != "reference" for e in custom_engines())


class TestDispatch:
    def test_auto_resolves_to_best_banked_engine(self, config):
        # One fast engine on every backend; "compiled" is explicit-only.
        from repro.kernels import dispatch

        for backend in dispatch.available_backends():
            with dispatch.use_backend(backend):
                assert resolve_engine("auto", config).name == "fast"

    def test_auto_never_picks_non_eligible_engines(self, config):
        # finegrain supports this config but must not be auto-picked:
        # it simulates a different machine.
        assert get_engine("finegrain").supports(config)
        assert resolve_engine("auto", config).name != "finegrain"

    def test_fast_and_reference_bit_identical_through_registry(
        self, config, trace, lut
    ):
        fast = simulate(config, trace, lut, engine="fast")
        reference = simulate(config, trace, lut, engine="reference")
        assert fast.bank_stats == reference.bank_stats
        assert fast.cache_stats.hits == reference.cache_stats.hits
        assert fast.cache_stats.misses == reference.cache_stats.misses
        assert fast.cache_stats.flushes == reference.cache_stats.flushes
        assert fast.energy_pj == reference.energy_pj
        assert fast.lifetime == reference.lifetime
        assert fast.metrics == reference.metrics

    def test_custom_engine_runs_via_simulate_and_sweep(
        self, scratch_registry, config, trace, lut
    ):
        engine = scratch_registry(RecordingEngine())
        result = simulate(config, trace, lut, engine="recording")
        fast = simulate(config, trace, lut, engine="fast")
        assert engine.calls == 1
        assert result.bank_stats == fast.bank_stats
        grid = sweep(config, trace, {"num_banks": [2, 4]}, lut, engine="recording")
        assert engine.calls == 3
        assert len(grid) == 2

    def test_breakeven_axis_stays_grouped_only_for_group_capable_engines(
        self, config, trace, lut, scratch_registry
    ):
        engine = scratch_registry(RecordingEngine())
        axes = {"breakeven_override": [None, 5, 60]}
        batched = sweep(config, trace, axes, lut, engine="fast")
        per_point = sweep(config, trace, axes, lut, engine="recording")
        assert engine.calls == 3  # no run_group => per-point dispatch
        for a, b in zip(batched, per_point):
            assert a.result.bank_stats == b.result.bank_stats


class TestReferencePlanSupport:
    def test_reference_reads_the_memoized_decode(self, config, trace, lut):
        plan = TracePlan(trace)
        # Warm the decode cache through the plan, then make the trace's
        # address array unreadable: the planned run must not re-decode.
        geometry = config.geometry
        plan.decode(geometry.offset_bits, geometry.index_bits)
        planned = ReferenceSimulator(config, lut, plan=plan).run(trace)
        plain = ReferenceSimulator(config, lut).run(trace)
        assert planned.bank_stats == plain.bank_stats
        assert planned.cache_stats == plain.cache_stats
        assert planned.energy_pj == plain.energy_pj
        assert len(plan) >= 1  # the decode section lives in the plan

    def test_reference_rejects_mismatched_plan(self, config, lut):
        trace_a = make_random_trace(seed=1, length=100)
        trace_b = make_random_trace(seed=2, length=100)
        with pytest.raises(SimulationError):
            ReferenceSimulator(config, lut, plan=TracePlan(trace_a)).run(trace_b)


class TestFineGrainEngine:
    def test_supports_only_direct_mapped(self):
        engine = get_engine("finegrain")
        direct = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
        setassoc = ArchitectureConfig(CacheGeometry(4096, 16, ways=2), num_banks=2)
        events = ArchitectureConfig(
            CacheGeometry(4096, 16),
            num_banks=2,
            policy="probing",
            update_events=(100, 200),
        )
        assert engine.supports(direct)
        assert not engine.supports(setassoc)
        assert not engine.supports(events)

    def test_explicit_rejection_is_loud(self, trace, lut):
        setassoc = ArchitectureConfig(CacheGeometry(4096, 16, ways=2), num_banks=2)
        with pytest.raises(SimulationError, match="finegrain"):
            simulate(setassoc, trace, lut, engine="finegrain")

    def test_matches_the_banked_engines_with_one_bank_per_line(
        self, config, trace, lut
    ):
        """The template is the banked machine with one bank per line
        sleeping at the line breakeven: same counters, line for line,
        as the fast engine and the reference oracle."""
        result = simulate(config, trace, lut, engine="finegrain")
        breakeven = LineEnergyModel(config.geometry).line_breakeven_cycles()
        assert result.template == "finegrain"
        assert len(result.bank_stats) == config.geometry.num_lines
        assert result.metrics["line_breakeven_cycles"] == float(breakeven)
        per_line = replace(
            config,
            num_banks=config.geometry.num_lines,
            breakeven_override=breakeven,
        )
        for engine in ("fast", "reference"):
            banked = simulate(per_line, trace, lut, engine=engine)
            assert result.bank_stats == banked.bank_stats, engine
            for counter in ("hits", "misses", "flushes"):
                assert getattr(result.cache_stats, counter) == getattr(
                    banked.cache_stats, counter
                ), (engine, counter)
            assert result.updates_applied == banked.updates_applied
            assert result.flush_invalidations == banked.flush_invalidations
            assert result.baseline_energy_pj == banked.baseline_energy_pj

    def test_unmanaged_config_never_sleeps(self, trace, lut):
        config = ArchitectureConfig(
            CacheGeometry(4096, 16), num_banks=2, power_managed=False
        )
        result = simulate(config, trace, lut, engine="finegrain")
        assert all(s.sleep_cycles == 0 for s in result.bank_stats)
        assert result.metrics["line_breakeven_cycles"] == float(trace.horizon + 1)

    def test_sweep_with_finegrain_engine(self, config, trace, lut):
        grid = sweep(
            config,
            trace,
            {"policy": ["static", "probing"], "breakeven_override": [None, 40]},
            lut,
            engine="finegrain",
        )
        assert len(grid) == 4
        assert {p.result.template for p in grid} == {"finegrain"}
        best = grid.best("lifetime_years")
        assert best.result.lifetime_years >= 2.93

    def test_experiment_runner_with_finegrain_engine(self, lut):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.suite import ExperimentSettings

        settings = ExperimentSettings(engine="finegrain").quick()
        runner = ExperimentRunner(settings=settings, lut=lut)
        result = runner.run("sha", 4 * 1024, 16, 4, "static")
        assert result.template == "finegrain"
        assert result.metric("idleness_spread") >= 0.0
        # Memoized: the second call returns the very same object.
        assert runner.run("sha", 4 * 1024, 16, 4, "static") is result

    def test_runner_store_never_aliases_across_families(self, lut):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.suite import ExperimentSettings

        fine = ExperimentRunner(
            settings=ExperimentSettings(engine="finegrain").quick(), lut=lut
        )
        banked = ExperimentRunner(
            settings=ExperimentSettings(engine="fast").quick(),
            lut=lut,
            store=fine.store,
        )
        a = fine.run("sha", 4 * 1024, 16, 4, "static")
        b = banked.run("sha", 4 * 1024, 16, 4, "static")
        assert a.template == "finegrain"
        assert b.template == "banked"
        assert a.energy_pj != b.energy_pj


class TestFineGrainCampaigns:
    def spec_payload(self):
        return {
            "name": "fg-e2e",
            "engine": "finegrain",
            "traces": [
                {
                    "kind": "synthetic",
                    "params": {
                        "benchmark": "sha",
                        "num_windows": 30,
                        "size_bytes": 4096,
                    },
                }
            ],
            "base": {
                "geometry": {"size_bytes": 4096, "line_size": 16},
                "num_banks": 2,
                "policy": "probing",
                "update_period_cycles": 4000,
            },
            "axes": {"policy": ["static", "probing"]},
        }

    def test_campaign_spec_json_with_finegrain_engine_runs_end_to_end(
        self, tmp_path, lut
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_payload()))
        spec = CampaignSpec.load(spec_path)
        assert spec.engine == "finegrain"
        store_dir = tmp_path / "store"
        first = run_campaign(spec, directory=store_dir, lut=lut)
        assert (first.simulated, first.reused) == (2, 0)
        second = run_campaign(spec, directory=store_dir, lut=lut)
        assert (second.simulated, second.reused) == (0, 2)
        for point in second:
            assert point.record.template == "finegrain"
            rebuilt = point.record.to_result(lut)
            assert rebuilt.template == "finegrain"
            assert rebuilt.metrics["line_breakeven_cycles"] > 0

    def test_finegrain_and_banked_specs_do_not_share_store_entries(
        self, tmp_path, lut
    ):
        payload = self.spec_payload()
        spec_fine = CampaignSpec.from_dict(payload)
        payload_banked = dict(payload, engine="fast")
        spec_banked = CampaignSpec.from_dict(payload_banked)
        assert spec_fine.spec_hash() != spec_banked.spec_hash()
        store_dir = tmp_path / "store"
        run_campaign(spec_fine, directory=store_dir, lut=lut)
        banked = run_campaign(spec_banked, directory=store_dir, lut=lut)
        assert banked.simulated == 2  # no aliasing with the finegrain records

    def test_unknown_engine_in_spec_json_lists_registered_names(self, tmp_path):
        payload = dict(self.spec_payload(), engine="warp9")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        with pytest.raises(UnknownEngineError) as excinfo:
            CampaignSpec.load(spec_path)
        message = str(excinfo.value)
        assert "warp9" in message
        for name in ("compiled", "fast", "finegrain", "reference"):
            assert name in message

    def test_unknown_engine_in_spec_reported_cleanly_by_cli(self, tmp_path, capsys):
        payload = dict(self.spec_payload(), engine="warp9")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        code = main(["campaign", "status", str(spec_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown engine" in captured.err
        assert "finegrain" in captured.err


class TestCLI:
    def test_engines_command_lists_registry(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("auto", "compiled", "fast", "finegrain", "reference"):
            assert name in out
        assert "explicit-only" in out  # finegrain is not auto-eligible

    def test_sweep_engine_finegrain_end_to_end(self, capsys):
        code = main(
            [
                "--engine",
                "finegrain",
                "sweep",
                "--benchmark",
                "sha",
                "--size",
                "4",
                "--banks",
                "2,4",
                "--policies",
                "static,probing",
                "--windows",
                "40",
                "--updates",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "best lifetime" in out
        assert "4 points" in out


class TestExperimentSettingsValidation:
    def test_registered_engines_accepted(self):
        from repro.experiments.suite import ExperimentSettings

        for name in ("auto", "compiled", "fast", "reference", "finegrain"):
            ExperimentSettings(engine=name)

    def test_unknown_engine_is_a_configuration_error(self):
        from repro.experiments.suite import ExperimentSettings

        with pytest.raises(ConfigurationError, match="finegrain"):
            ExperimentSettings(engine="warp")
