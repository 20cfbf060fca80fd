"""Tests for the line-granularity (fine-grain) template:
``simulate(config, trace, lut, engine="finegrain")``."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.serialize import result_to_dict
from repro.core.simulator import simulate
from repro.errors import ConfigurationError, SimulationError
from repro.finegrain import LineEnergyModel
from repro.indexing.policies import make_policy
from repro.power.idleness import IdlenessAccountant
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for
from repro.trace.trace import Trace
from tests.conftest import make_random_trace

GEOMETRY = CacheGeometry(4 * 1024, 16)  # 256 lines


def fine(geometry, policy="static", period=None, **kwargs):
    """An architecture config for the fine-grain engine (``num_banks``
    is ignored by the template; 2 keeps dynamic policies valid)."""
    return ArchitectureConfig(
        geometry, num_banks=2, policy=policy, update_period_cycles=period, **kwargs
    )


def line_accesses(result) -> list[int]:
    return [s.accesses for s in result.bank_stats]


@pytest.fixture(scope="module")
def workload():
    geometry = CacheGeometry(16 * 1024, 16)
    trace = WorkloadGenerator(geometry, num_windows=400).generate(
        profile_for("adpcm.dec")
    )
    return geometry, trace


class TestConfig:
    def test_rejects_associative(self, lut):
        trace = make_random_trace(seed=1, length=50)
        with pytest.raises(SimulationError, match="finegrain"):
            simulate(fine(CacheGeometry(4096, 16, ways=2)), trace, lut, engine="finegrain")

    def test_rejects_unknown_policy(self, lut):
        trace = make_random_trace(seed=1, length=50)
        with pytest.raises(ConfigurationError):
            simulate(fine(GEOMETRY, policy="rotate"), trace, lut, engine="finegrain")

    def test_breakeven_positive_and_small(self, lut):
        breakeven = LineEnergyModel(GEOMETRY).line_breakeven_cycles()
        assert 1 <= breakeven <= 63
        result = simulate(fine(GEOMETRY), make_random_trace(seed=1), lut, engine="finegrain")
        assert result.metrics["line_breakeven_cycles"] == float(breakeven)

    def test_breakeven_override(self, lut):
        config = fine(GEOMETRY, breakeven_override=7)
        result = simulate(config, make_random_trace(seed=1), lut, engine="finegrain")
        assert result.metrics["line_breakeven_cycles"] == 7.0


class TestLineEnergyModel:
    def test_access_energy_is_monolithic(self):
        """No banking: each access pays the full-array access energy."""
        from repro.power.energy import EnergyModel

        fine = LineEnergyModel(GEOMETRY)
        mono = EnergyModel(GEOMETRY, 1)
        assert fine.access_energy() >= mono.access_energy()

    def test_line_leakage_sums_to_array(self):
        fine = LineEnergyModel(GEOMETRY)
        from repro.power.energy import EnergyModel

        array = EnergyModel(GEOMETRY, 1).bank_leakage_power()
        total = fine.line_leakage_power() * GEOMETRY.num_lines
        assert total == pytest.approx(array * (1 + fine.CONTROL_OVERHEAD), rel=1e-9)

    def test_all_asleep_cheaper_than_all_awake(self, lut):
        idle = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=10_000)
        asleep = simulate(fine(GEOMETRY), idle, lut, engine="finegrain")
        awake = simulate(fine(GEOMETRY, power_managed=False), idle, lut, engine="finegrain")
        assert all(s.sleep_cycles > 0 for s in asleep.bank_stats)
        assert all(s.sleep_cycles == 0 for s in awake.bank_stats)
        assert asleep.energy_pj < awake.energy_pj


def line_oracle(config: ArchitectureConfig, trace: Trace, breakeven: int):
    """Event-by-event fine-grain model: one :class:`IdlenessAccountant`
    "bank" per line, each access routed through a line-wide policy that
    is updated at every fired boundary (the reference engine's lazy
    drain), and a dict of resident tags flushed at every update.

    Returns ``(line_stats, hits, updates_applied, flush_invalidations)``.
    """
    geometry = config.geometry
    policy = make_policy(config.policy, geometry.num_lines)
    schedule = config.make_update_schedule()
    accountant = IdlenessAccountant(geometry.num_lines, breakeven)
    resident: dict[int, int] = {}
    hits = flush_invalidations = 0
    for cycle, address in zip(trace.cycles.tolist(), trace.addresses.tolist()):
        while schedule.due(cycle):
            policy.update()
            flush_invalidations += len(resident)
            resident.clear()
        tag, index, _ = geometry.split(address)
        hits += resident.get(index) == tag
        resident[index] = tag
        accountant.on_access(policy.physical_bank(index), cycle)
    stats = accountant.finalize(trace.horizon)
    return stats, hits, policy.updates_applied, flush_invalidations


def check_against_oracle(config: ArchitectureConfig, trace: Trace, lut):
    result = simulate(config, trace, lut, engine="finegrain")
    breakeven = int(result.metrics["line_breakeven_cycles"])
    stats, hits, updates, invalidations = line_oracle(config, trace, breakeven)
    assert list(result.bank_stats) == stats
    assert result.cache_stats.hits == hits
    assert result.cache_stats.misses == len(trace) - hits
    assert result.updates_applied == updates
    assert result.flush_invalidations == invalidations
    return result


class TestPerLineSleepAccounting:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        length=st.integers(min_value=0, max_value=400),
        tail=st.sampled_from([1, 17, 2**20]),
        policy=st.sampled_from(["static", "probing", "scrambling"]),
        managed=st.booleans(),
        breakeven=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
        period=st.integers(min_value=1, max_value=2000),
    )
    def test_matches_accountant_per_line(
        self, lut, seed, length, tail, policy, managed, breakeven, period
    ):
        """The engine's per-line counters equal the event-by-event
        oracle for every policy, managed and unmanaged."""
        geometry = CacheGeometry(1024, 16)  # 64 lines; addresses span 4 tags
        drawn = make_random_trace(seed, length, max_gap=100, address_space_lines=256)
        horizon = int(drawn.cycles[-1]) + tail if length else tail
        trace = Trace(drawn.cycles, drawn.addresses, horizon=horizon)
        config = fine(
            geometry,
            policy,
            None if policy == "static" else period,
            power_managed=managed,
            breakeven_override=breakeven,
        )
        check_against_oracle(config, trace, lut)

    def test_untouched_lines_sleep_whole_horizon(self, lut):
        trace = Trace(np.array([5], np.int64), np.array([0], np.int64), horizon=1000)
        config = fine(CacheGeometry(64, 16), breakeven_override=10)  # 4 lines
        result = check_against_oracle(config, trace, lut)
        assert result.bank_stats[1].sleep_cycles == 990
        assert result.bank_stats[1].transitions == 1

    def test_empty_trace(self, lut):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=1000)
        for policy in ("static", "probing", "scrambling"):
            config = fine(CacheGeometry(64, 16), policy, 100, breakeven_override=10)
            result = check_against_oracle(config, trace, lut)
            assert all(s.sleep_cycles == 990 for s in result.bank_stats)
            assert sum(line_accesses(result)) == 0

    def test_huge_horizon_integer_exact(self, lut):
        """Regression: sleep used to be accumulated through a
        float64-weighted bincount, which rounds past 2**53 cycles.
        Accumulation is integer, so huge horizons stay exact."""
        horizon = 2**55
        breakeven = 10
        trace = Trace(
            np.array([3, 2**54 + 1], np.int64), np.zeros(2, np.int64), horizon=horizon
        )
        config = fine(CacheGeometry(32, 16), breakeven_override=breakeven)  # 2 lines
        result = check_against_oracle(config, trace, lut)
        gaps = [3, (2**54 + 1) - 3 - 1, horizon - (2**54 + 1) - 1]
        expected = sum(g - breakeven for g in gaps if g > breakeven)
        assert result.bank_stats[0].sleep_cycles == expected
        assert result.bank_stats[0].transitions == 2
        # The float64 path would have rounded: the exact value is odd.
        assert expected % 2 == 1
        assert result.bank_stats[1].sleep_cycles == horizon - breakeven


class TestFineGrainSimulator:
    """The paper's positioning of [7], measured through the engine."""

    def test_static_is_a_drowsy_cache(self, workload, lut):
        geometry, trace = workload
        result = simulate(fine(geometry), trace, lut, engine="finegrain")
        # Per-line idleness is high nearly everywhere: most lines rest
        # between working-set revisits.
        assert float(np.median(result.bank_idleness)) > 0.5
        assert result.lifetime_years > 2.93

    def test_reindexing_tightens_line_idleness(self, workload, lut):
        geometry, trace = workload
        static = simulate(fine(geometry), trace, lut, engine="finegrain")
        probing = simulate(
            fine(geometry, "probing", trace.horizon // 32), trace, lut, engine="finegrain"
        )
        assert probing.metrics["idleness_spread"] < static.metrics["idleness_spread"]
        assert probing.lifetime_years >= static.lifetime_years

    def test_fine_grain_beats_coarse_on_lifetime(self, workload, lut):
        """The paper's positioning: [7] is the lifetime upper bound."""
        geometry, trace = workload
        finer = simulate(
            fine(geometry, "probing", trace.horizon // 32), trace, lut, engine="finegrain"
        )
        coarse = simulate(
            ArchitectureConfig(
                geometry, num_banks=4, policy="probing",
                update_period_cycles=trace.horizon // 16,
            ),
            trace,
            lut,
            engine="fast",
        )
        assert finer.lifetime_years > coarse.lifetime_years

    def test_coarse_beats_fine_on_dynamic_energy(self, workload, lut):
        """...while coarse banking also cuts dynamic energy."""
        geometry, trace = workload
        finer = simulate(fine(geometry), trace, lut, engine="finegrain")
        coarse = simulate(
            ArchitectureConfig(geometry, num_banks=8, policy="static"),
            trace,
            lut,
            engine="fast",
        )
        assert coarse.energy_savings > finer.energy_savings

    def test_hit_miss_matches_banked_fast_engine(self, lut):
        """Same flush/update schedule => same functional behaviour as a
        banked cache (full-index remapping is still a bijection)."""
        trace = make_random_trace(seed=8, length=1500, address_space_lines=512)
        geometry = CacheGeometry(4 * 1024, 16)
        finer = simulate(fine(geometry, "probing", 9000), trace, lut, engine="finegrain")
        banked = simulate(
            ArchitectureConfig(
                geometry, num_banks=4, policy="probing", update_period_cycles=9000
            ),
            trace,
            lut,
            engine="fast",
        )
        assert finer.cache_stats.hits == banked.cache_stats.hits
        assert finer.cache_stats.misses == banked.cache_stats.misses

    def test_scrambling_mapping_valid(self, lut):
        trace = make_random_trace(seed=9, length=500, address_space_lines=256)
        result = simulate(fine(GEOMETRY, "scrambling", 5000), trace, lut, engine="finegrain")
        assert sum(line_accesses(result)) == len(trace)
        assert result.updates_applied > 0

    def test_empty_trace(self, lut):
        trace = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=500)
        result = simulate(fine(GEOMETRY), trace, lut, engine="finegrain")
        assert result.cache_stats.hits == 0
        assert result.lifetime_years > 2.93  # everything slept


def record_digest(size_bytes: int, policy: str, managed: bool, breakeven, lut) -> str:
    """sha256 of one fine-grain record's JSON (sorted keys)."""
    geometry = CacheGeometry(size_bytes, 16)
    trace = make_random_trace(
        seed=22, length=1500, address_space_lines=2 * geometry.num_lines
    )
    config = fine(
        geometry, policy, 4000, power_managed=managed, breakeven_override=breakeven
    )
    result = simulate(config, trace, lut, engine="finegrain")
    payload = json.dumps(result_to_dict(result), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


#: (size_bytes, policy, power_managed, breakeven_override) -> record
#: sha256. Stores compare records byte for byte, so a changed digest is
#: a record-format change. 2 MiB / 16 B has 2**17 lines, more than the
#: 16-bit scrambling LFSR spans.
RECORD_DIGESTS = {
    (4096, "static", True, None): "1083c00087802d299a48d84e00ff14f2f89cae4f2d7e0cce727f37bc31cb24e4",
    (4096, "static", True, 3): "7052ee6bc5079f7feae662f03a152d069699a22dee9d53b86bf2bc01d8771a25",
    (4096, "static", False, None): "f7d6dab6a191dedb5e76548ced966f7d26da7d7c3dc0977a2fe0783872599f55",
    (4096, "static", False, 3): "c284006bfd8d5fdbe03f9134b8486fa304627427081468eb14ea57bed6ffb060",
    (4096, "probing", True, None): "3bf2f1aae6112b071ce0e169ea0b2ca124680f0b8ad0235f3ce44bba3464bf63",
    (4096, "probing", True, 3): "3d6d4aea3997556fbe78daa1e210222feb8a597ede25c5c164670ec9ad309222",
    (4096, "probing", False, None): "b51b4e5e63d07bf412e7d0a7b900e7f216a8cc92a742c33bc11ba082b3f44897",
    (4096, "probing", False, 3): "2eab71a55482f6ab61dc01c0693b3cd2faf1c6b68b4655b7f5760bdc6cca306d",
    (4096, "scrambling", True, None): "6006b99738c5c43ba680b73f6a0e8b359052259292ac446ae113128c9f3a1b29",
    (4096, "scrambling", True, 3): "e989f381e6c2d6d0bc59c8314eb99123a2ef2d81c97616e05650e628dd6713ed",
    (4096, "scrambling", False, None): "4c853bf4ccb10beb4ae111025ea69746cd539c0eb0904b9c6da2c975a6dc2657",
    (4096, "scrambling", False, 3): "a10d48134b06cac1d5c6b986e768d6fe4887df039cca1f39a5bba2b3b0c81179",
    (2097152, "static", True, None): "458073eec29bef5db485aad73d97bacd8ac4906b0e0aeee109e9611807ea8066",
    (2097152, "static", True, 3): "5bb091a82c14401705e94072a1ae2cc1725fb2d986884332b648df5e8e90b363",
    (2097152, "static", False, None): "de23e278a5fcb05bc9903cd222218559863f596cde75820014a40acced2120aa",
    (2097152, "static", False, 3): "3204c30bde07c62f4192677fd4edaf3368b57236873b342a88eea8d1d04b9548",
    (2097152, "probing", True, None): "921978887174afedef277c7b2ebd4f405bea67488817b8d7b17277506bdcf736",
    (2097152, "probing", True, 3): "2bfc4735cf0aed7926db9637d9ca0f9bf9b35645ab032edffdea1d25c2dce61d",
    (2097152, "probing", False, None): "357fb9ee574738c9330869fa938fd7651f2e5c19d99e3eb19efb35fb4d10431b",
    (2097152, "probing", False, 3): "8e1e0f99ae509bf56ee059bac96282fc01f11f0d6545f7b948a67eeb7dd9c315",
    (2097152, "scrambling", True, None): "35f98a7ae24daf0f2c7750864fb0a1597c7db1c8520d0611bb1ef85204c33cb3",
    (2097152, "scrambling", True, 3): "60b279dbc9618e6aac30ad7ad4f6798f43a666e2074cb92ccec344cf52c685b0",
    (2097152, "scrambling", False, None): "64507bd116ba07a44773798ed6ca39f5e2f3e9d88b010fd65597b63296e68a14",
    (2097152, "scrambling", False, 3): "c3bf4f104719b39dd121badbe4c01d12ad64eda212ab756bd54f3893e312ae7b",
}


class TestRecordDigests:
    @pytest.mark.parametrize("size_bytes", [4 * 1024, 2 * 1024 * 1024])
    def test_records_are_byte_identical(self, size_bytes, lut):
        for (size, policy, managed, breakeven), digest in RECORD_DIGESTS.items():
            if size == size_bytes:
                assert record_digest(size, policy, managed, breakeven, lut) == digest, (
                    policy, managed, breakeven,
                )
