"""Tests for the declarative campaign API.

Covers the exact config codec (property-tested round-trips), trace
specs and their registry, campaign specs and spec files, the
content-addressed store, resumable `run_campaign` (zero resimulation,
incremental widening — pinned by a simulation-call counter), and the
bit-identity of campaign records with direct `simulate()` calls through
a store round-trip.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.run as campaign_run
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    CodecError,
    campaign_status,
    config_from_dict,
    config_hash,
    config_to_dict,
    run_campaign,
)
from repro.campaign.tracespec import TraceSource, TraceSpec, register_trace_source
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.serialize import SerializationError
from repro.core.simulator import simulate
from repro.errors import ConfigurationError
from repro.power.energy import TechnologyParams
from repro.trace.generator import WorkloadGenerator
from repro.trace.io import save_trace
from repro.trace.mediabench import profile_for


# ----------------------------------------------------------------------
# Config codec
# ----------------------------------------------------------------------
@st.composite
def architecture_configs(draw) -> ArchitectureConfig:
    """Valid configs across geometries (incl. ways>1), policies,
    update schedules, overrides and non-default technologies."""
    size_bytes = 2 ** draw(st.integers(min_value=10, max_value=15))
    line_size = draw(st.sampled_from([16, 32]))
    ways = draw(st.sampled_from([1, 2, 4]))
    geometry = CacheGeometry(size_bytes, line_size, ways=ways)
    max_bank_exp = min(3, geometry.num_sets.bit_length() - 1)
    num_banks = 2 ** draw(st.integers(min_value=0, max_value=max_bank_exp))
    if num_banks == 1:
        policy = "static"
    else:
        policy = draw(st.sampled_from(["static", "probing", "scrambling"]))
    schedule_kind = draw(st.sampled_from(["none", "period", "events"]))
    update_period = None
    update_events = None
    if schedule_kind == "period":
        update_period = draw(st.integers(min_value=1, max_value=10**6))
    elif schedule_kind == "events":
        raw = draw(
            st.lists(
                st.integers(min_value=0, max_value=10**6),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        update_events = tuple(sorted(raw))
    breakeven = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=500)))
    if draw(st.booleans()):
        technology = TechnologyParams()
    else:
        technology = TechnologyParams(
            e_access_fixed=draw(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
            ),
            leak_per_line=draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            ),
            drowsy_leak_ratio=draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            ),
            address_bits=draw(st.integers(min_value=24, max_value=48)),
        )
    frequency = draw(
        st.floats(min_value=1e6, max_value=5e9, allow_nan=False, allow_infinity=False)
    )
    return ArchitectureConfig(
        geometry=geometry,
        num_banks=num_banks,
        policy=policy,
        power_managed=draw(st.booleans()),
        update_period_cycles=update_period,
        update_events=update_events,
        breakeven_override=breakeven,
        technology=technology,
        frequency_hz=frequency,
    )


class TestConfigCodec:
    @settings(max_examples=120, deadline=None)
    @given(architecture_configs())
    def test_round_trip_is_exact(self, config):
        payload = config_to_dict(config)
        # Through real JSON text: floats must survive the disk format.
        rebuilt = config_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == config
        assert config_hash(rebuilt) == config_hash(config)

    @settings(max_examples=40, deadline=None)
    @given(architecture_configs(), architecture_configs())
    def test_hash_is_semantic_identity(self, a, b):
        assert (config_hash(a) == config_hash(b)) == (a == b)

    def test_rejects_unknown_fields(self):
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16))
        payload = config_to_dict(config)
        payload["volume"] = 11
        with pytest.raises(CodecError, match="volume"):
            config_from_dict(payload)
        geometry = dict(payload["geometry"], lines="many")
        with pytest.raises(CodecError, match="lines"):
            config_from_dict({**config_to_dict(config), "geometry": geometry})

    def test_missing_optionals_take_defaults(self):
        minimal = {"geometry": {"size_bytes": 8192, "line_size": 16}}
        config = config_from_dict(minimal)
        assert config == ArchitectureConfig(CacheGeometry(8192, 16))

    def test_invalid_config_surfaces_as_codec_error(self):
        payload = config_to_dict(ArchitectureConfig(CacheGeometry(8192, 16)))
        payload["num_banks"] = 3
        with pytest.raises(CodecError, match="power of two"):
            config_from_dict(payload)

    def test_numeric_spellings_hash_identically(self):
        """int vs float spellings of an equal config must not fragment
        the store: hashing follows object equality, not JSON types."""
        geometry = CacheGeometry(8 * 1024, 16)
        as_float = ArchitectureConfig(geometry, frequency_hz=400e6)
        as_int = ArchitectureConfig(geometry, frequency_hz=400_000_000)
        assert as_float == as_int
        assert config_hash(as_float) == config_hash(as_int)
        # A hand-written spec file's integer frequency decodes to the
        # same hash too.
        payload = config_to_dict(as_float)
        payload["frequency_hz"] = 400000000  # JSON integer spelling
        assert config_hash(config_from_dict(payload)) == config_hash(as_float)
        tech_int = ArchitectureConfig(
            geometry, technology=TechnologyParams(e_access_fixed=9)
        )
        tech_float = ArchitectureConfig(
            geometry, technology=TechnologyParams(e_access_fixed=9.0)
        )
        assert config_hash(tech_int) == config_hash(tech_float)


# ----------------------------------------------------------------------
# Trace specs
# ----------------------------------------------------------------------
class TestTraceSpec:
    def test_synthetic_build_matches_generator(self):
        spec = TraceSpec.synthetic(
            "sha", size_bytes=8 * 1024, num_windows=40, master_seed=7
        )
        trace = spec.build()
        direct = WorkloadGenerator(
            CacheGeometry(8 * 1024, 16), num_windows=40, master_seed=7
        ).generate(profile_for("sha"))
        assert (trace.cycles == direct.cycles).all()
        assert (trace.addresses == direct.addresses).all()
        assert trace.horizon == direct.horizon

    def test_normalization_makes_hash_canonical(self):
        short = TraceSpec.synthetic("sha")
        explicit = TraceSpec(
            kind="synthetic",
            params={
                "benchmark": "sha",
                "size_bytes": 16 * 1024,
                "line_size": 16,
                "ways": 1,
                "num_windows": 1500,
                "window_cycles": 1024,
                "master_seed": 2011,
            },
        )
        assert short == explicit
        assert short.trace_hash() == explicit.trace_hash()
        assert short.trace_hash() != TraceSpec.synthetic("sha", master_seed=1).trace_hash()

    def test_file_spec_round_trips_and_verifies_checksum(self, tmp_path):
        import hashlib

        trace = WorkloadGenerator(
            CacheGeometry(8 * 1024, 16), num_windows=40
        ).generate(profile_for("sha"))
        path = tmp_path / "sha.npz"
        save_trace(trace, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        spec = TraceSpec.from_file(path, sha256=digest)
        loaded = spec.build()
        assert (loaded.cycles == trace.cycles).all()
        bad = TraceSpec.from_file(path, sha256="0" * 64)
        from repro.errors import TraceError

        with pytest.raises(TraceError, match="checksum"):
            bad.build()

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(CodecError, match="unknown trace source"):
            TraceSpec(kind="oracle", params={})
        with pytest.raises(CodecError, match="missing parameters"):
            TraceSpec(kind="synthetic", params={})
        with pytest.raises(CodecError, match="unknown parameters"):
            TraceSpec.synthetic("sha", wavelength=3)

    def test_dict_round_trip(self):
        spec = TraceSpec.synthetic("dijkstra", num_windows=80)
        again = TraceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.trace_hash() == spec.trace_hash()

    def test_custom_source_registers(self):
        from tests.conftest import make_random_trace

        register_trace_source(
            TraceSource(
                kind="random-test",
                build=lambda params: make_random_trace(seed=params["seed"]),
                required=("seed",),
            )
        )
        spec = TraceSpec(kind="random-test", params={"seed": 5})
        assert len(spec.build()) == 2000
        assert spec.label() == "random-test"


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------
def small_campaign(tmp_benchmark="sha", axes=None, engine="auto") -> CampaignSpec:
    return CampaignSpec(
        name="t",
        traces=(TraceSpec.synthetic(tmp_benchmark, num_windows=40),),
        base=ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=5120,
        ),
        axes=axes if axes is not None else {"num_banks": [2, 4]},
        engine=engine,
    )


class TestCampaignSpec:
    def test_file_round_trip_with_rich_axes(self, tmp_path):
        spec = CampaignSpec(
            name="rich",
            traces=(TraceSpec.synthetic("sha", num_windows=40),),
            base=ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4,
                                    policy="probing", update_period_cycles=5120),
            axes={
                "geometry": [
                    CacheGeometry(8 * 1024, 16),
                    CacheGeometry(8 * 1024, 16, ways=2),
                ],
                "technology": [TechnologyParams(), TechnologyParams(e_access_fixed=4.0)],
                "update_events": [None, (100, 5000)],
                "breakeven_override": [None, 50],
            },
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        again = CampaignSpec.load(path)
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_hash_tracks_content_not_formatting(self, tmp_path):
        spec = small_campaign()
        payload = spec.to_dict()
        scrambled = json.loads(json.dumps(payload, sort_keys=False))
        assert CampaignSpec.from_dict(scrambled).spec_hash() == spec.spec_hash()
        widened = small_campaign(axes={"num_banks": [2, 4, 8]})
        assert widened.spec_hash() != spec.spec_hash()

    @pytest.mark.parametrize(
        "axes", [{"num_banks": 5}, {"num_banks": "24"}, ["num_banks"]]
    )
    def test_malformed_axes_are_codec_errors(self, axes):
        payload = dict(small_campaign().to_dict(), axes=axes)
        with pytest.raises(CodecError, match="dict of value lists"):
            CampaignSpec.from_dict(payload)

    def test_non_integer_update_events_are_codec_errors(self):
        payload = dict(small_campaign().to_dict(), axes={"update_events": [["x"]]})
        with pytest.raises(CodecError, match="update_events"):
            CampaignSpec.from_dict(payload)

    def test_validation(self):
        with pytest.raises(CodecError, match="at least one trace"):
            CampaignSpec(name="x", traces=(), base=ArchitectureConfig(CacheGeometry(8192, 16)))
        with pytest.raises(CodecError, match="not an ArchitectureConfig field"):
            small_campaign(axes={"volume": [1]})
        with pytest.raises(CodecError, match="no values"):
            small_campaign(axes={"num_banks": []})
        with pytest.raises(ValueError, match="unknown engine"):
            small_campaign(engine="warp")

    def test_points_and_counts(self):
        spec = small_campaign(axes={"num_banks": [2, 4], "policy": ["static", "probing"]})
        points = list(spec.points())
        assert len(points) == spec.num_points() == 4
        assert points[0].config.num_banks == 2
        no_axes = small_campaign(axes={})
        assert no_axes.num_points() == 1
        assert list(no_axes.points())[0].config == no_axes.base


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestCampaignStore:
    def test_disk_round_trip_and_reopen(self, tmp_path, lut):
        trace = TraceSpec.synthetic("sha", size_bytes=8 * 1024, num_windows=40)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4,
                                    policy="probing", update_period_cycles=5120)
        result = simulate(config, trace.build(), lut)
        key = (trace.trace_hash(), config_hash(config))
        store = CampaignStore(tmp_path)
        store.put(key, result)
        assert key in store and len(store) == 1
        assert store.get_result(key) is result  # memo-dict contract

        reopened = CampaignStore(tmp_path)
        assert key in reopened
        record = reopened.get_record(key)
        assert record.energy_pj == result.energy_pj
        rebuilt = reopened.get_result(key, lut=lut)
        assert rebuilt is not result
        assert rebuilt.bank_stats == result.bank_stats
        assert rebuilt.energy_pj == result.energy_pj
        assert rebuilt.config == result.config

    def test_no_temp_files_left_behind(self, tmp_path, lut):
        trace = TraceSpec.synthetic("sha", size_bytes=8 * 1024, num_windows=40)
        config = ArchitectureConfig(CacheGeometry(8 * 1024, 16))
        result = simulate(config, trace.build(), lut)
        store = CampaignStore(tmp_path)
        store.put((trace.trace_hash(), config_hash(config)), result)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_corrupt_record_is_reported(self, tmp_path):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        (results_dir / "dead-beef.json").write_text("{not json")
        # Opening is lazy — nothing is read, so nothing can fail yet...
        store = CampaignStore(tmp_path)
        # ...but any enumeration must surface the corruption, not skip it.
        with pytest.raises(SerializationError, match="corrupt campaign record"):
            store.records()

    def test_opening_a_store_is_read_only(self, tmp_path):
        """status/show must not mutate the filesystem: opening a store
        on a missing or empty directory creates nothing."""
        missing = tmp_path / "typo.d"
        store = CampaignStore(missing)
        assert len(store) == 0
        assert not missing.exists()
        empty = tmp_path / "empty.d"
        empty.mkdir()
        CampaignStore(empty)
        assert list(empty.iterdir()) == []


# ----------------------------------------------------------------------
# run_campaign: resume, widen, bit-identity
# ----------------------------------------------------------------------
@pytest.fixture()
def sim_counter(monkeypatch):
    """Count grid points actually simulated by run_campaign."""
    counted = {"points": 0}
    original = campaign_run.simulate_selected

    def counting(base, trace, names, combos, **kwargs):
        counted["points"] += len(combos)
        return original(base, trace, names, combos, **kwargs)

    monkeypatch.setattr(campaign_run, "simulate_selected", counting)
    return counted


class TestRunCampaign:
    @pytest.mark.parametrize("covered", [False, True], ids=["fresh", "covered"])
    @pytest.mark.parametrize(
        "search", [None, "estimator-pruned"], ids=["exhaustive", "estimator-pruned"]
    )
    def test_rejects_nonpositive_worker_counts(self, tmp_path, lut, covered, search):
        """Worker counts are checked before the store is read, whatever
        the store holds and whichever path would run."""
        spec = small_campaign()
        directory = tmp_path / "c"
        if covered:
            run_campaign(spec, directory=directory, lut=lut, search=search)
        for bad in ({"parallel": 0}, {"parallel": -3}, {"workers": 0}):
            with pytest.raises(ConfigurationError, match="positive worker count"):
                run_campaign(spec, directory=directory, lut=lut, search=search, **bad)
        assert directory.exists() == covered

    def test_rerun_simulates_zero_points(self, tmp_path, lut, sim_counter):
        spec = small_campaign(axes={"num_banks": [2, 4], "policy": ["static", "probing"]})
        first = run_campaign(spec, directory=tmp_path, lut=lut)
        assert first.simulated == 4 and first.reused == 0
        assert sim_counter["points"] == 4

        second = run_campaign(spec, directory=tmp_path, lut=lut)
        assert second.simulated == 0 and second.reused == 4
        assert sim_counter["points"] == 4  # no new simulation calls at all
        assert [p.parameters for p in second] == [p.parameters for p in first]

    def test_widening_an_axis_simulates_only_new_points(
        self, tmp_path, lut, sim_counter
    ):
        run_campaign(
            small_campaign(axes={"num_banks": [2, 4]}), directory=tmp_path, lut=lut
        )
        assert sim_counter["points"] == 2
        widened = run_campaign(
            small_campaign(axes={"num_banks": [2, 4, 8]}), directory=tmp_path, lut=lut
        )
        assert widened.simulated == 1 and widened.reused == 2
        assert sim_counter["points"] == 3

    def test_interrupted_campaign_resumes(self, tmp_path, lut, monkeypatch):
        """Kill the run after the first trace; the rerun finishes only
        the second trace's points."""
        spec = CampaignSpec(
            name="t",
            traces=(
                TraceSpec.synthetic("sha", num_windows=40),
                TraceSpec.synthetic("dijkstra", num_windows=40),
            ),
            base=ArchitectureConfig(CacheGeometry(8 * 1024, 16), num_banks=4,
                                    policy="probing", update_period_cycles=5120),
            axes={"num_banks": [2, 4]},
        )
        calls = {"n": 0}
        original = campaign_run.simulate_selected

        def dies_after_first(base, trace, names, combos, **kwargs):
            if calls["n"] == 1:
                raise KeyboardInterrupt
            calls["n"] += 1
            return original(base, trace, names, combos, **kwargs)

        monkeypatch.setattr(campaign_run, "simulate_selected", dies_after_first)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, directory=tmp_path, lut=lut)
        monkeypatch.undo()

        status = campaign_status(spec, CampaignStore(tmp_path))
        assert status.done == 2 and status.missing == 2
        resumed = run_campaign(spec, directory=tmp_path, lut=lut)
        assert resumed.simulated == 2 and resumed.reused == 2

    def test_midtrace_interruption_keeps_finished_points(
        self, tmp_path, lut, monkeypatch
    ):
        """Results persist as they are produced, not per trace batch:
        dying inside a trace's grid loses only the in-flight point."""
        import importlib

        # repro.analysis re-exports sweep() the function over the
        # submodule attribute; importlib returns the real module.
        sweep_mod = importlib.import_module("repro.analysis.sweep")

        spec = small_campaign(axes={"num_banks": [2, 4], "policy": ["static", "probing"]})
        calls = {"n": 0}
        original = sweep_mod.simulate

        def dies_on_third(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "simulate", dies_on_third)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, directory=tmp_path, lut=lut)
        monkeypatch.undo()

        status = campaign_status(spec, CampaignStore(tmp_path))
        assert status.done == 2  # the two finished points survived
        resumed = run_campaign(spec, directory=tmp_path, lut=lut)
        assert resumed.simulated == 2 and resumed.reused == 2

    def test_records_bit_identical_to_direct_simulate(self, tmp_path, lut):
        """Differential: every measured field of every record, through
        the store round-trip, equals a direct simulate() call."""
        spec = small_campaign(
            axes={
                "num_banks": [2, 4],
                "policy": ["static", "probing"],
                "breakeven_override": [None, 50],
            }
        )
        run_campaign(spec, directory=tmp_path, lut=lut)
        # A *fresh* store: records come from disk, not from live objects.
        rerun = run_campaign(spec, store=CampaignStore(tmp_path), lut=lut)
        assert rerun.simulated == 0
        trace = spec.traces[0].build()
        for point in rerun:
            config = replace(spec.base, **point.parameters)
            direct = simulate(config, trace, lut)
            record = point.record
            assert record.hits == direct.cache_stats.hits
            assert record.misses == direct.cache_stats.misses
            assert record.flushes == direct.cache_stats.flushes
            assert record.updates_applied == direct.updates_applied
            assert record.flush_invalidations == direct.flush_invalidations
            assert record.bank_idleness == direct.bank_idleness
            assert record.bank_accesses == tuple(s.accesses for s in direct.bank_stats)
            assert record.bank_transitions == tuple(
                s.transitions for s in direct.bank_stats
            )
            assert record.energy_pj == direct.energy_pj
            assert record.baseline_energy_pj == direct.baseline_energy_pj
            assert record.energy_savings == direct.energy_savings
            assert record.lifetime_years == direct.lifetime_years
            assert record.bank_lifetimes_years == tuple(
                direct.lifetime.bank_lifetimes_years
            )
            assert record.hit_rate == direct.hit_rate
            rebuilt = record.to_result(lut)
            assert rebuilt.bank_stats == direct.bank_stats
            assert rebuilt.bank_energy == direct.bank_energy
            assert rebuilt.config == direct.config

    def test_parallel_matches_serial(self, tmp_path, lut):
        spec = small_campaign(axes={"num_banks": [2, 4], "policy": ["static", "probing"]})
        serial = run_campaign(spec, lut=lut)
        parallel = run_campaign(spec, directory=tmp_path, lut=lut, parallel=2)
        for a, b in zip(serial, parallel):
            assert a.parameters == b.parameters
            assert a.record.energy_pj == b.record.energy_pj
            assert a.record.lifetime_years == b.record.lifetime_years

    def test_manifest_written(self, tmp_path, lut):
        spec = small_campaign()
        run_campaign(spec, directory=tmp_path, lut=lut)
        with open(tmp_path / "campaign.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["spec_hash"] == spec.spec_hash()
        assert CampaignSpec.from_dict(manifest["spec"]) == spec


# ----------------------------------------------------------------------
# ExperimentRunner on the store
# ----------------------------------------------------------------------
class TestRunnerOnStore:
    @pytest.fixture()
    def settings(self):
        from repro.experiments.suite import ExperimentSettings

        return ExperimentSettings(num_windows=40, benchmarks=("sha",))

    def test_run_config_expresses_full_config(self, settings, lut):
        """The old positional run() could not express ways, update
        events or a custom technology; run_config can, and each keys
        its own cache entry."""
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(settings=settings, lut=lut)
        base = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=2),
            num_banks=4,
            policy="probing",
            update_events=(1000, 9000, 20000),
            technology=TechnologyParams(e_access_fixed=5.0),
        )
        a = runner.run_config("sha", base)
        assert runner.run_config("sha", base) is a
        variant = replace(base, technology=TechnologyParams(e_access_fixed=6.0))
        b = runner.run_config("sha", variant)
        assert b is not a
        assert b.energy_pj != a.energy_pj
        assert b.cache_stats.hits == a.cache_stats.hits  # tech can't move hits

    def test_positional_run_is_thin_wrapper(self, settings, lut):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(settings=settings, lut=lut)
        via_wrapper = runner.run("sha", 8 * 1024, 16, 4, "probing")
        via_config = runner.run_config(
            "sha", runner.config(8 * 1024, 16, 4, "probing")
        )
        assert via_wrapper is via_config

    def test_persistent_store_resumes_without_simulating(
        self, settings, lut, tmp_path, monkeypatch
    ):
        import repro.experiments.runner as runner_mod
        from repro.experiments.runner import ExperimentRunner

        first = ExperimentRunner(settings=settings, lut=lut, store=CampaignStore(tmp_path))
        a = first.run("sha", 8 * 1024, 16, 4, "probing")

        monkeypatch.setattr(
            runner_mod,
            "simulate",
            lambda *args, **kwargs: pytest.fail("resumed run must not simulate"),
        )
        second = ExperimentRunner(
            settings=settings, lut=lut, store=CampaignStore(tmp_path)
        )
        b = second.run("sha", 8 * 1024, 16, 4, "probing")
        assert b.bank_stats == a.bank_stats
        assert b.energy_pj == a.energy_pj
        assert b.lifetime_years == a.lifetime_years
        assert b.config == a.config

    def test_settings_participate_in_trace_identity(self, lut, tmp_path):
        """Different workload settings must never alias store entries."""
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.suite import ExperimentSettings

        store = CampaignStore(tmp_path)
        a = ExperimentRunner(
            settings=ExperimentSettings(num_windows=40, benchmarks=("sha",)),
            lut=lut,
            store=store,
        ).run("sha", 8 * 1024, 16, 4, "probing")
        b = ExperimentRunner(
            settings=ExperimentSettings(num_windows=60, benchmarks=("sha",)),
            lut=lut,
            store=store,
        ).run("sha", 8 * 1024, 16, 4, "probing")
        assert a.total_cycles != b.total_cycles
        assert len(store) == 2
