"""Tests for result serialization."""

from __future__ import annotations

import json

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.core.serialize import (
    ResultRecord,
    SerializationError,
    load_results,
    result_to_dict,
    save_results,
)
from tests.conftest import make_random_trace


@pytest.fixture(scope="module")
def result(lut_mod):
    config = ArchitectureConfig(
        CacheGeometry(8 * 1024, 16), num_banks=4, policy="probing",
        update_period_cycles=8000,
    )
    return simulate(config, make_random_trace(seed=77), lut_mod, engine="fast")


@pytest.fixture(scope="module")
def lut_mod():
    from repro.aging.lut import LifetimeLUT

    return LifetimeLUT.default()


class TestRoundTrip:
    def test_dict_contains_key_metrics(self, result):
        payload = result_to_dict(result)
        assert payload["lifetime_years"] == pytest.approx(result.lifetime_years)
        assert payload["energy_savings"] == pytest.approx(result.energy_savings)
        assert payload["config"]["num_banks"] == 4
        assert len(payload["bank_idleness"]) == 4

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        save_results([result, result], path)
        records = load_results(path)
        assert len(records) == 2
        for record in records:
            assert isinstance(record, ResultRecord)
            assert record.lifetime_years == pytest.approx(result.lifetime_years)
            assert record.bank_accesses == tuple(
                s.accesses for s in result.bank_stats
            )
            assert record.hit_rate == pytest.approx(result.hit_rate)

    def test_json_is_stable_and_sorted(self, result, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_results([result], path_a)
        save_results([result], path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_accepts_pre_flattened_dicts(self, result, tmp_path):
        path = tmp_path / "c.json"
        save_results([result_to_dict(result)], path)
        assert len(load_results(path)) == 1


class TestExactConfigPayload:
    """Format v2: the config payload rebuilds the exact config."""

    def test_payload_contains_full_config(self, result):
        config = result_to_dict(result)["config"]
        assert config["geometry"]["ways"] == 1
        assert config["update_period_cycles"] == 8000
        assert config["update_events"] is None
        assert config["frequency_hz"] == 400e6
        assert config["technology"]["e_access_fixed"] == 9.0

    def test_record_rebuilds_exact_architecture(self, result, tmp_path):
        path = tmp_path / "v2.json"
        save_results([result], path)
        (record,) = load_results(path)
        assert record.version == 2
        assert record.architecture() == result.config

    def test_record_rebuilds_bit_identical_result(self, result, lut_mod, tmp_path):
        path = tmp_path / "v2.json"
        save_results([result], path)
        (record,) = load_results(path)
        rebuilt = record.to_result(lut_mod)
        assert rebuilt.bank_stats == result.bank_stats
        assert rebuilt.cache_stats == result.cache_stats
        assert rebuilt.bank_energy == result.bank_energy
        assert rebuilt.energy_pj == result.energy_pj
        assert rebuilt.baseline_energy_pj == result.baseline_energy_pj
        assert rebuilt.lifetime_years == result.lifetime_years
        assert rebuilt.config == result.config

    def test_rich_config_survives(self, lut_mod, tmp_path):
        """ways>1, update_events and a custom technology — everything
        the v1 summary lost — round-trip through a results file."""
        from repro.power.energy import TechnologyParams

        config = ArchitectureConfig(
            CacheGeometry(8 * 1024, 16, ways=2),
            num_banks=4,
            policy="scrambling",
            update_events=(500, 9000, 44000),
            breakeven_override=77,
            technology=TechnologyParams(leak_per_line=0.02, address_bits=40),
            frequency_hz=1e9,
        )
        original = simulate(config, make_random_trace(seed=3), lut_mod, engine="fast")
        path = tmp_path / "rich.json"
        save_results([original], path)
        (record,) = load_results(path)
        assert record.architecture() == config


class TestV1Migration:
    @staticmethod
    def v1_payload(result) -> dict:
        """A file entry as FORMAT_VERSION 1 wrote it."""
        payload = result_to_dict(result)
        payload["version"] = 1
        config = result.config
        payload["config"] = {
            "size_bytes": config.geometry.size_bytes,
            "line_size": config.geometry.line_size,
            "ways": config.geometry.ways,
            "num_banks": config.num_banks,
            "policy": config.policy,
            "power_managed": config.power_managed,
            "update_period_cycles": config.update_period_cycles,
            "breakeven": config.breakeven(),
        }
        for counters in (
            "bank_idle_intervals",
            "bank_useful_intervals",
            "bank_idle_cycles",
            "bank_sleep_cycles",
            "bank_total_cycles",
        ):
            del payload[counters]
        return payload

    def test_v1_record_loads_and_migrates(self, result):
        record = ResultRecord.from_dict(self.v1_payload(result))
        assert record.version == 1
        assert record.lifetime_years == pytest.approx(result.lifetime_years)
        migrated = record.architecture()
        assert migrated.geometry == result.config.geometry
        assert migrated.policy == result.config.policy
        assert migrated.num_banks == result.config.num_banks
        # The effective breakeven is pinned as an override.
        assert migrated.breakeven() == result.config.breakeven()

    def test_v1_file_loads(self, result, tmp_path):
        import json as json_mod

        path = tmp_path / "old.json"
        path.write_text(
            json_mod.dumps({"version": 1, "results": [self.v1_payload(result)]})
        )
        (record,) = load_results(path)
        assert record.hit_rate == pytest.approx(result.hit_rate)

    def test_v1_cannot_rebuild_full_result(self, result):
        record = ResultRecord.from_dict(self.v1_payload(result))
        with pytest.raises(SerializationError, match="v1 records"):
            record.to_result()


class TestAtomicWrites:
    def test_failed_write_preserves_existing_file(self, result, tmp_path, monkeypatch):
        path = tmp_path / "campaign.json"
        save_results([result], path)
        good = path.read_text()

        import json as json_mod

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(json_mod, "dump", explode)
        with pytest.raises(RuntimeError):
            save_results([result, result], path)
        monkeypatch.undo()
        assert path.read_text() == good
        assert list(tmp_path.glob("*.tmp")) == []

    def test_write_lands_complete(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        save_results([result], path)
        assert len(load_results(path)) == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestValidation:
    def test_rejects_bad_version(self, result):
        payload = result_to_dict(result)
        payload["version"] = 99
        with pytest.raises(SerializationError):
            ResultRecord.from_dict(payload)

    def test_rejects_missing_fields(self, result):
        payload = result_to_dict(result)
        del payload["lifetime_years"]
        with pytest.raises(SerializationError):
            ResultRecord.from_dict(payload)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(SerializationError):
            load_results(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"version": 1, "results": {"a": 1}}))
        with pytest.raises(SerializationError):
            load_results(path)
