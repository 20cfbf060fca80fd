"""The pluggable metrics pipeline: registry behavior, recompute from
stored counters (retroactively, on stores written before the pipeline
existed), and the CLI surfaces."""

from __future__ import annotations

import json
import os

import pytest

from repro.cache.geometry import CacheGeometry
from repro.campaign import CampaignSpec, CampaignStore, TraceSpec, run_campaign
from repro.cli import main
from repro.core.config import ArchitectureConfig
from repro.core.metrics import (
    Metric,
    compute_metric,
    compute_metrics,
    get_metric,
    metric_names,
    register_metric,
    registered_metrics,
    unregister_metric,
)
from repro.core.simulator import simulate
from repro.errors import ConfigurationError, UnknownMetricError
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
def result(config, lut):
    return simulate(config, make_random_trace(seed=23, length=900), lut)


class WakeRateMetric(Metric):
    name = "wake_rate"
    description = "sleep transitions per 1000 cycles"
    provides = ("wakes_per_kcycle",)

    def compute(self, measurement, lut=None):
        wakes = sum(s.transitions for s in measurement.bank_stats)
        cycles = measurement.total_cycles
        return {"wakes_per_kcycle": 1000.0 * wakes / cycles if cycles else 0.0}


@pytest.fixture()
def scratch_metrics():
    added = []

    def add(metric, **kwargs):
        register_metric(metric, **kwargs)
        added.append(metric.name)
        return metric

    yield add
    for name in added:
        try:
            unregister_metric(name)
        except UnknownMetricError:
            pass


class TestRegistry:
    def test_builtin_metrics_present(self):
        names = metric_names()
        for name in (
            "energy",
            "lifetime",
            "lifetime_spread",
            "idleness_spread",
            "transition_share",
            "nbti_delta_vth",
            "snm_margin",
        ):
            assert name in names

    def test_duplicate_name_rejected(self, scratch_metrics):
        scratch_metrics(WakeRateMetric())
        with pytest.raises(ConfigurationError, match="already registered"):
            register_metric(WakeRateMetric())

    def test_value_name_collision_rejected(self, scratch_metrics):
        scratch_metrics(WakeRateMetric())

        class Clash(Metric):
            name = "clash"
            provides = ("wakes_per_kcycle",)

            def compute(self, measurement, lut=None):  # pragma: no cover
                return {}

        with pytest.raises(ConfigurationError, match="already provided"):
            register_metric(Clash())

    def test_metric_must_provide_values(self):
        class Empty(Metric):
            name = "empty"
            provides = ()

        with pytest.raises(ConfigurationError, match="provides no value"):
            register_metric(Empty())

    def test_unknown_lookups_list_known_names(self, result):
        with pytest.raises(UnknownMetricError, match="energy"):
            get_metric("nope")
        with pytest.raises(UnknownMetricError, match="lifetime_years"):
            compute_metric(result.measurement(), "nope")

    def test_unregister_cleans_provides(self, scratch_metrics, result):
        scratch_metrics(WakeRateMetric())
        assert result.metric("wakes_per_kcycle") >= 0.0
        unregister_metric("wake_rate")
        with pytest.raises(UnknownMetricError):
            compute_metric(result.measurement(), "wakes_per_kcycle")
        register_metric(WakeRateMetric())  # fixture removes it again


class TestEagerMetricsOnResults:
    def test_metrics_mapping_is_populated(self, result):
        metrics = result.metrics
        assert metrics["energy_pj"] == result.energy_pj
        assert metrics["baseline_energy_pj"] == result.baseline_energy_pj
        assert metrics["energy_savings"] == result.energy_savings
        assert metrics["lifetime_years"] == result.lifetime_years
        assert metrics["limiting_bank"] == result.lifetime.limiting_bank

    def test_spread_metrics_match_their_definitions(self, result):
        idleness = result.bank_idleness
        assert result.metrics["idleness_spread"] == pytest.approx(
            max(idleness) - min(idleness)
        )
        lifetimes = result.lifetime.bank_lifetimes_years
        assert result.metrics["bank_lifetime_spread_years"] == pytest.approx(
            max(lifetimes) - min(lifetimes)
        )

    def test_transition_share_matches_breakdowns(self, result):
        total = sum(b.total for b in result.bank_energy)
        transitions = sum(b.transitions for b in result.bank_energy)
        assert result.metrics["sleep_transition_share"] == pytest.approx(
            transitions / total
        )

    def test_nbti_delta_vth_monotone_in_sleep(self, config, lut):
        trace = make_random_trace(seed=9, length=600)
        managed = simulate(config, trace, lut)
        unmanaged = simulate(
            config.monolithic(), trace, lut
        )  # no sleep => more stress
        assert (
            unmanaged.metrics["nbti_delta_vth_10y_mv"]
            >= managed.metrics["nbti_delta_vth_10y_mv"]
        )

    def test_explicit_lut_forces_recompute(self, result, lut):
        from repro.aging.cell import CharacterizationFramework
        from repro.aging.lut import LifetimeLUT

        # A deliberately different LUT (recalibrated base lifetime).
        other = LifetimeLUT(
            CharacterizationFramework(calibrate_to_years=5.0, snm_samples=81),
            p0_points=3,
            psleep_points=21,
        )
        cached = result.metric("lifetime_years")
        assert cached == result.metrics["lifetime_years"]
        recomputed = result.metric("lifetime_years", lut=other)
        assert recomputed != cached  # not the silently cached value
        # Engine payloads are LUT-independent and stay readable.
        fine = simulate(
            result.config, make_random_trace(seed=41, length=200), lut,
            engine="finegrain",
        )
        assert fine.metric("line_breakeven_cycles", lut=other) == (
            fine.metrics["line_breakeven_cycles"]
        )

    def test_lazy_metric_not_eager_but_computable(self, result, lut):
        assert "snm_margin_10y_mv" not in result.metrics
        margin = result.metric("snm_margin_10y_mv", lut=lut)
        assert isinstance(margin, float)

    def test_custom_metric_applies_to_new_results(
        self, scratch_metrics, config, lut
    ):
        scratch_metrics(WakeRateMetric())
        fresh = simulate(config, make_random_trace(seed=4, length=300), lut)
        wakes = sum(s.transitions for s in fresh.bank_stats)
        assert fresh.metrics["wakes_per_kcycle"] == pytest.approx(
            1000.0 * wakes / fresh.total_cycles
        )

    def test_compute_metrics_eager_only_flag(self, result, lut):
        eager = compute_metrics(result.measurement(), lut)
        assert "snm_margin_10y_mv" not in eager
        everything = compute_metrics(result.measurement(), lut, eager_only=False)
        assert "snm_margin_10y_mv" in everything


class TestRecomputeFromStoredCounters:
    """New metrics must appear on existing stores without resimulation."""

    def spec(self):
        return CampaignSpec(
            name="retro",
            traces=(TraceSpec.synthetic("sha", num_windows=30, size_bytes=4096),),
            base=ArchitectureConfig(
                CacheGeometry(4096, 16),
                num_banks=2,
                policy="probing",
                update_period_cycles=4000,
            ),
            axes={"policy": ["static", "probing"]},
        )

    @pytest.fixture()
    def legacy_store_dir(self, tmp_path, lut):
        """A campaign store whose record files predate the metrics
        pipeline: no "metrics" and no "template" keys, exactly like a
        store written by the previous serializer."""
        store_dir = tmp_path / "store"
        run_campaign(self.spec(), directory=store_dir, lut=lut)
        results_dir = store_dir / "results"
        stripped = 0
        for path in sorted(results_dir.rglob("*.json")):
            payload = json.loads(path.read_text())
            assert "metrics" in payload["record"]
            del payload["record"]["metrics"]
            del payload["record"]["template"]
            path.write_text(json.dumps(payload))
            stripped += 1
        assert stripped == 2
        return store_dir

    def test_rerun_on_legacy_store_simulates_nothing(self, legacy_store_dir, lut):
        rerun = run_campaign(self.spec(), directory=legacy_store_dir, lut=lut)
        assert (rerun.simulated, rerun.reused) == (0, 2)

    def test_new_metrics_recomputed_without_resimulating(
        self, legacy_store_dir, lut
    ):
        store = CampaignStore(legacy_store_dir)
        records = store.records()
        assert len(records) == 2
        for record in records:
            assert record.stored_metrics is None  # truly legacy
            # Pin against a direct simulation of the identical point.
            direct = simulate(
                record.architecture(),
                self.spec().traces[0].build(),
                lut,
            )
            for name in (
                "bank_lifetime_spread_years",
                "idleness_spread",
                "sleep_transition_share",
                "nbti_delta_vth_10y_mv",
            ):
                assert record.metric(name, lut=lut) == pytest.approx(
                    direct.metrics[name], rel=1e-12
                ), name

    def test_campaign_show_metric_flag_works_retroactively(
        self, legacy_store_dir, capsys
    ):
        code = main(
            [
                "campaign",
                "show",
                str(legacy_store_dir),
                "--metric",
                "bank_lifetime_spread_years",
                "--metric",
                "sleep_transition_share",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bank_lifetime_spread_years" in out
        assert "sleep_transition_share" in out
        assert "2 stored records" in out

    def test_show_unknown_metric_reports_cleanly(self, legacy_store_dir, capsys):
        code = main(["campaign", "show", str(legacy_store_dir), "--metric", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no registered metric provides" in captured.err

    def test_engine_payload_metrics_survive_the_round_trip(self, tmp_path, lut):
        spec = CampaignSpec(
            name="fg-payload",
            traces=(TraceSpec.synthetic("sha", num_windows=30, size_bytes=4096),),
            base=ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2),
            engine="finegrain",
        )
        store_dir = tmp_path / "store"
        run_campaign(spec, directory=store_dir, lut=lut)
        record = CampaignStore(store_dir).records()[0]
        assert record.template == "finegrain"
        assert record.stored_metrics["line_breakeven_cycles"] > 0
        rebuilt = record.to_result(lut)
        assert (
            rebuilt.metrics["line_breakeven_cycles"]
            == record.stored_metrics["line_breakeven_cycles"]
        )


class TestZeroBaselineGuards:
    def test_finegrain_result_energy_savings_guard(self):
        import numpy as np

        from repro.finegrain.sim import FineGrainResult

        degenerate = FineGrainResult(
            line_sleep_fraction=np.zeros(4),
            line_accesses=np.zeros(4, dtype=np.int64),
            hits=0,
            misses=0,
            updates_applied=0,
            energy_pj=0.0,
            baseline_energy_pj=0.0,
            lifetime_years=2.93,
            line_lifetimes_years=np.full(4, 2.93),
        )
        assert degenerate.energy_savings == 0.0
        assert degenerate.hit_rate == 0.0

    def test_simulation_result_energy_savings_guard(self, result):
        from dataclasses import replace

        degenerate = replace(result, energy_pj=0.0, baseline_energy_pj=0.0)
        assert degenerate.energy_savings == 0.0


class TestTemplateRegistry:
    def test_builtin_templates(self):
        from repro.core.metrics import template_names

        assert template_names() == ("banked", "finegrain")

    def test_unknown_template_rejected_with_known_names(self, result):
        from repro.core.metrics import Measurement
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="finegrain"):
            Measurement(
                config=result.config,
                trace_name="t",
                total_cycles=10,
                bank_stats=result.bank_stats,
                cache_stats=result.cache_stats,
                updates_applied=0,
                flush_invalidations=0,
                template="mymachine",
            )

    def test_custom_template_assembles_results(self, result, lut):
        from repro.core.metrics import (
            MeasurementTemplate,
            register_template,
            unregister_template,
        )
        from repro.core.simulator import assemble_result
        from repro.power.energy import BankEnergyBreakdown

        def flat_breakdowns(measurement):
            return tuple(
                BankEnergyBreakdown(
                    dynamic=float(s.accesses),
                    leakage_active=0.0,
                    leakage_drowsy=0.0,
                    transitions=0.0,
                )
                for s in measurement.bank_stats
            )

        register_template(
            MeasurementTemplate(
                name="flat",
                description="1 pJ per access, nothing else",
                breakdowns=flat_breakdowns,
            )
        )
        try:
            assembled = assemble_result(
                result.config,
                result.trace_name,
                result.total_cycles,
                list(result.bank_stats),
                result.cache_stats,
                result.updates_applied,
                result.flush_invalidations,
                lut,
                template="flat",
            )
            assert assembled.template == "flat"
            assert assembled.energy_pj == float(result.total_accesses)
            assert assembled.metrics["sleep_transition_share"] == 0.0
        finally:
            unregister_template("flat")

    def test_duplicate_template_rejected(self):
        from repro.core.metrics import MeasurementTemplate, register_template

        with pytest.raises(ConfigurationError, match="already registered"):
            register_template(
                MeasurementTemplate(
                    name="banked", description="impostor", breakdowns=lambda m: ()
                )
            )


class TestReplaceValidationOrder:
    def test_failed_replace_leaves_old_metric_installed(self, result):
        class BadEnergy(Metric):
            name = "energy"
            provides = ("energy_pj", "idleness_spread")  # second is owned

            def compute(self, measurement, lut=None):  # pragma: no cover
                return {}

        with pytest.raises(ConfigurationError, match="already provided"):
            register_metric(BadEnergy(), replace=True)
        # The original energy metric must still be fully functional.
        assert compute_metric(result.measurement(), "energy_savings") == (
            result.metrics["energy_savings"]
        )
        assert get_metric("energy").provides == (
            "energy_pj",
            "baseline_energy_pj",
            "energy_savings",
        )


class TestWorkerPluginPropagation:
    """Custom registry entries must reach parallel pool workers."""

    def test_init_worker_installs_parent_plugins(self, lut):
        from repro.analysis.sweep import _simulate_chunk
        from repro.core.engine import get_engine, unregister_engine
        from repro.core.metrics import unregister_metric
        from repro.core.pool import _install_worker
        from repro.kernels import dispatch
        from repro.core.simulator import ReferenceSimulator
        from repro.errors import UnknownEngineError

        class PluginEngine:
            name = "plugin-engine"
            description = "test plugin"
            priority = 0
            auto_eligible = False
            family = "banked"

            def supports(self, config):
                return True

            def run(self, config, trace, lut=None, plan=None):
                return ReferenceSimulator(config, lut, plan=plan).run(trace)

        engine = PluginEngine()
        metric = WakeRateMetric()
        trace = make_random_trace(seed=31, length=200)
        base = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
        # Emulate a spawn-started worker: neither plugin is registered.
        with pytest.raises(UnknownEngineError):
            get_engine("plugin-engine")
        _install_worker(
            (trace, lut), (engine,), (metric,), (), dispatch.active_backend()
        )
        try:
            chunk = _simulate_chunk(
                (base, ["num_banks"], [(2,), (4,)], None, "plugin-engine")
            )
            assert len(chunk) == 2
            assert all("wakes_per_kcycle" in r.metrics for r in chunk)
        finally:
            unregister_engine("plugin-engine")
            unregister_metric("wake_rate")

    def test_parallel_sweep_with_custom_engine_and_metric(
        self, scratch_metrics, lut
    ):
        from repro.analysis.sweep import sweep
        from repro.core.engine import register_engine, unregister_engine
        from repro.core.simulator import ReferenceSimulator

        class EchoEngine:
            name = "echo"
            description = "reference under another name"
            priority = 0
            auto_eligible = False
            family = "banked"

            def supports(self, config):
                return True

            def run(self, config, trace, lut=None, plan=None):
                return ReferenceSimulator(config, lut, plan=plan).run(trace)

        scratch_metrics(WakeRateMetric())
        register_engine(EchoEngine())
        try:
            trace = make_random_trace(seed=32, length=300)
            base = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
            grid = sweep(
                base,
                trace,
                {"num_banks": [2, 4]},
                lut,
                engine="echo",
                parallel=2,
            )
            assert len(grid) == 2
            assert all("wakes_per_kcycle" in p.result.metrics for p in grid)
        finally:
            unregister_engine("echo")

    def test_parallel_stream_sweep_carries_custom_metric(self, scratch_metrics, lut):
        from repro.analysis.sweep import stream_sweep
        from repro.trace.stream import InMemoryTraceStream

        scratch_metrics(WakeRateMetric())
        trace = make_random_trace(seed=33, length=600)
        base = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
        grid = stream_sweep(
            base, InMemoryTraceStream(trace, 2048), {"num_banks": [2, 4]}, lut, parallel=2
        )
        assert len(grid) == 2
        assert all("wakes_per_kcycle" in p.result.metrics for p in grid)

    def test_campaign_drain_workers_carry_custom_metric(
        self, scratch_metrics, tmp_path, lut
    ):
        """Drain workers compute each record's metrics at write time. A
        live thread makes the pool spawn, so the metric reaches the
        workers only through the pool initializer."""
        import threading

        scratch_metrics(WakeRateMetric())
        spec = TestRecomputeFromStoredCounters().spec()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            result = run_campaign(spec, directory=tmp_path, lut=lut, workers=2)
        finally:
            release.set()
            other.join()
        assert result.simulated == len(result) == 2
        for point in result:
            assert "wakes_per_kcycle" in point.record.stored_metrics


class TestBuiltinOverridesShipToWorkers:
    def test_replaced_builtin_metric_counts_as_a_plugin(self):
        from repro.core.metrics import custom_metrics

        original = get_metric("idleness_spread")
        assert all(m.name != "idleness_spread" for m in custom_metrics())

        class Override(Metric):
            name = "idleness_spread"
            provides = ("idleness_spread",)

            def compute(self, measurement, lut=None):
                return original.compute(measurement, lut)

        override = Override()
        register_metric(override, replace=True)
        try:
            assert any(m is override for m in custom_metrics())
        finally:
            register_metric(original, replace=True)
        assert all(m.name != "idleness_spread" for m in custom_metrics())


class TestCLIMetricsCommand:
    def test_metrics_command_lists_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for metric in registered_metrics():
            assert metric.name in out
        assert "lazy" in out and "eager" in out
        assert "snm_margin_10y_mv" in out
