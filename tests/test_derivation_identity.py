"""Bit-identity of the derivation layers: energy, lifetime and routing.

Result assembly turns measured counters into energy (one
:class:`~repro.power.energy.EnergyModel` coefficient set per
measurement), lifetimes (one vectorised LUT query per measurement) and
the per-bank gap spectrum (gathered from narrow bank-id tables).
Each of these must reproduce the per-bank scalar derivation bit for
bit, because stored records are re-derived from their counters. Pinned
here:

* ``float.hex`` digests of every derived value on a fixed grid, on the
  fast and the reference engine;
* the vectorised LUT query against the scalar bilinear expression,
  element by element (Hypothesis), and its error checks;
* routing at the edges of the narrow bank-id dtypes (256 and 512
  banks) against int64 bank ids and a stable argsort;
* the fine-grain simulator's per-line lifetimes against the engine's
  metric path;
* a breakeven group assembled as one table against per-config
  ``assemble_result`` (Hypothesis), plugin metrics and the numpy
  backend included, and the drift law's scalar ``**`` against its 0-d
  array form.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.lifetime import bank_lifetimes_years
from repro.aging.lut import LifetimeLUT
from repro.aging.nbti import NBTIModel
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.config import ArchitectureConfig
from repro.core.fastsim import run_breakeven_group
from repro.core.metrics import (
    AGING_P0,
    EVALUATION_HORIZON_YEARS,
    Metric,
    baseline_energy,
    domain_lifetimes,
    energy_breakdowns,
    register_metric,
    unregister_metric,
)
from repro.core.plan import TracePlan
from repro.core.serialize import result_to_dict
from repro.core.simulator import assemble_group, assemble_result, simulate
from repro.errors import ConfigurationError, ModelError
from repro.kernels import dispatch
from repro.power.idleness import BankIdleStats, IdlenessTable, stats_from_access_cycles
from repro.trace.trace import Trace
from repro.utils.bitops import log2_exact
from repro.utils.units import years_to_seconds
from tests.conftest import make_random_trace
from tests.test_engines import assert_results_equal


# ----------------------------------------------------------------------
# Pinned float.hex values of every derived quantity
# ----------------------------------------------------------------------
def pin_trace() -> Trace:
    """Random accesses with a few long pauses, so banks sleep unevenly."""
    rng = np.random.default_rng(1411)
    gaps = rng.integers(1, 60, size=3000)
    gaps[rng.integers(0, 3000, size=40)] += rng.integers(500, 20000, size=40)
    cycles = np.cumsum(gaps).astype(np.int64)
    addresses = (rng.integers(0, 2048, size=3000) * 16).astype(np.int64)
    return Trace(cycles, addresses, name="pins")


def hex_values(result) -> list[str]:
    """energy_pj, each bank's energy total, each bank's lifetime and
    every eager metric, as ``float.hex`` strings in a fixed order."""
    values = [result.energy_pj.hex()]
    values += [float(b.total).hex() for b in result.bank_energy]
    values += [float(v).hex() for v in result.lifetime.bank_lifetimes_years]
    for name in sorted(result.metrics):
        values.append(f"{name}={float(result.metrics[name]).hex()}")
    return values


#: (banks, policy, breakeven) -> (energy_pj.hex(), sha256 prefix of all
#: hex values), captured before energy and lifetime were derived once
#: per measurement and before routing sorted narrow bank ids.
PINS = {
    (1, "static", None): ("0x1.704af25b672eep+18", "052971001ca2071a"),
    (1, "static", 50): ("0x1.7b1f7d82e29dfp+18", "4eb6850845055398"),
    (1, "static", 5000): ("0x1.b14413781768dp+19", "938c920b57ad0b5e"),
    (2, "static", None): ("0x1.0d0a79301b61ep+18", "3e6becba3ab4a06c"),
    (2, "static", 50): ("0x1.367df385d13acp+18", "059ac09498daf962"),
    (2, "static", 5000): ("0x1.adb3a8b591bf2p+19", "dcfed89c573750a8"),
    (2, "probing", None): ("0x1.0d18f3408703cp+18", "baf08e325c6db182"),
    (2, "probing", 50): ("0x1.366695739dedap+18", "99d686d4afb405f7"),
    (2, "probing", 5000): ("0x1.adb3a8b591bf1p+19", "8cf26bb06d3517f3"),
    (4, "static", None): ("0x1.9f0a2cb6e16cfp+17", "28713c4776fa5584"),
    (4, "static", 50): ("0x1.df3e1281a369ep+17", "b3c0b72020f8c743"),
    (4, "static", 5000): ("0x1.ab9028f89e0bep+19", "55ceb9e2be4f0ad8"),
    (4, "probing", None): ("0x1.9f1b72daf6e4bp+17", "fe885dad59752370"),
    (4, "probing", 50): ("0x1.df5f3505422bap+17", "648bd79d89ae0a48"),
    (4, "probing", 5000): ("0x1.ab92bdf64f2fcp+19", "0402808f2259f48f"),
    (16, "static", None): ("0x1.565d8f921ea61p+17", "0a9ebfeb6999be95"),
    (16, "static", 50): ("0x1.5dbd105634144p+17", "034677232993721d"),
    (16, "static", 5000): ("0x1.b5c5bd8f0b205p+19", "0165fca413e7866b"),
    (16, "probing", None): ("0x1.56664cf078f96p+17", "6f449e4e367f32a5"),
    (16, "probing", 50): ("0x1.5dc68f6ab179cp+17", "46854054bdb0c13b"),
    (16, "probing", 5000): ("0x1.b4e82fe0411dep+19", "e7c450c6d223bc6e"),
}


@pytest.fixture(scope="module")
def pinned_trace() -> Trace:
    return pin_trace()


class TestPinnedDerivation:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("key", sorted(PINS, key=str), ids=str)
    def test_hex_values_unchanged(self, engine, key, pinned_trace):
        banks, policy, breakeven = key
        config = ArchitectureConfig(
            CacheGeometry(4096, 16),
            num_banks=banks,
            policy=policy,
            update_period_cycles=None if policy == "static" else 20000,
            breakeven_override=breakeven,
        )
        result = simulate(config, pinned_trace, engine=engine)
        values = hex_values(result)
        digest = hashlib.sha256(" ".join(values).encode()).hexdigest()[:16]
        assert (values[0], digest) == PINS[key], values


# ----------------------------------------------------------------------
# The vectorised LUT query against the scalar expression
# ----------------------------------------------------------------------
def scalar_oracle(lut: LifetimeLUT, p0: float, psleep: float) -> float:
    """The bilinear LUT lookup for one sleep fraction, in Python scalars."""
    ps = min(psleep, float(lut.psleep_grid[-1]))
    i = int(np.clip(np.searchsorted(lut.p0_grid, p0) - 1, 0, lut.p0_grid.size - 2))
    j = int(np.clip(np.searchsorted(lut.psleep_grid, ps) - 1, 0, lut.psleep_grid.size - 2))
    x0, x1 = lut.p0_grid[i], lut.p0_grid[i + 1]
    y0, y1 = lut.psleep_grid[j], lut.psleep_grid[j + 1]
    tx = (p0 - x0) / (x1 - x0)
    ty = (ps - y0) / (y1 - y0)
    f00, f01 = lut.table[i, j], lut.table[i, j + 1]
    f10, f11 = lut.table[i + 1, j], lut.table[i + 1, j + 1]
    return float(
        f00 * (1 - tx) * (1 - ty)
        + f10 * tx * (1 - ty)
        + f01 * (1 - tx) * ty
        + f11 * tx * ty
    )


def special_fractions(lut: LifetimeLUT) -> list[float]:
    """Grid nodes, both ends, psleep_max and values just above it."""
    psleep_max = float(lut.psleep_grid[-1])
    above = [
        float(np.nextafter(psleep_max, 1.0)),
        psleep_max + 1e-9,
        (psleep_max + 1.0) / 2,
        float(np.nextafter(1.0, 0.0)),
    ]
    return [0.0, 1.0, psleep_max, *map(float, lut.psleep_grid), *above]


def lut_named(name: str, session_lut: LifetimeLUT) -> LifetimeLUT:
    return session_lut if name == "session" else LifetimeLUT.default()


class TestVectorisedQuery:
    @pytest.mark.parametrize("which", ["session", "default"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_expression(self, which, lut, data):
        table = lut_named(which, lut)
        p0 = data.draw(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, *map(float, table.p0_grid)]),
                st.floats(0.0, 1.0),
            ),
            label="p0",
        )
        drawn = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(special_fractions(table)), st.floats(0.0, 1.0)
                ),
                max_size=40,
            ),
            label="psleep",
        )
        fractions = [*special_fractions(table), *drawn]
        batch = table.lifetime_years_batch(p0, fractions)
        assert batch.shape == (len(fractions),)
        for ps, got in zip(fractions, batch.tolist()):
            expected = scalar_oracle(table, p0, ps)
            assert got.hex() == expected.hex(), (p0, ps)
            assert table.lifetime_years(p0, ps).hex() == expected.hex(), (p0, ps)
        banks = bank_lifetimes_years(fractions, lut=table, p0=p0)
        assert all(type(v) is float for v in banks)
        assert [v.hex() for v in banks] == [v.hex() for v in batch.tolist()]

    def test_empty_query(self, lut):
        assert lut.lifetime_years_batch(0.5, []).shape == (0,)
        assert bank_lifetimes_years([], lut=lut) == []

    @pytest.mark.parametrize("bad", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, math.nan])
    def test_rejects_out_of_domain_fraction(self, lut, bad):
        with pytest.raises(ModelError):
            lut.lifetime_years(0.5, bad)
        with pytest.raises(ModelError):
            lut.lifetime_years_batch(0.5, [0.2, bad, 0.4])
        with pytest.raises(ModelError):
            bank_lifetimes_years([0.3, bad], lut=lut)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_domain_p0(self, lut, bad):
        with pytest.raises(ModelError):
            lut.lifetime_years_batch(bad, [0.2])


# ----------------------------------------------------------------------
# Energy: one EnergyModel.bank_energies call against per-bank calls
# ----------------------------------------------------------------------
class TestEnergyDerivation:
    @pytest.mark.parametrize("banks", [1, 2, 4, 16])
    def test_equals_per_bank_model_call(self, banks, lut):
        rng = np.random.default_rng(banks)
        config = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=banks)
        total = 10**9 + 7
        stats = []
        for _ in range(banks):
            sleep = int(rng.integers(0, total))
            stats.append(
                BankIdleStats(
                    accesses=int(rng.integers(0, 10**7)),
                    sleep_cycles=sleep,
                    transitions=int(rng.integers(0, 10**5)),
                    total_cycles=total,
                )
            )
        result = assemble_result(
            config, "random", total, stats, CacheStats(hits=5, misses=5), 0, 0, lut
        )
        model = config.make_energy_model()
        expected = tuple(
            model.bank_energy(s.accesses, s.active_cycles, s.sleep_cycles, s.transitions)
            for s in stats
        )
        assert result.bank_energy == expected

    @pytest.mark.parametrize(
        "stats",
        [
            BankIdleStats(accesses=-1, total_cycles=100),
            BankIdleStats(sleep_cycles=-5, total_cycles=100),
            BankIdleStats(sleep_cycles=150, total_cycles=100),  # active < 0
            BankIdleStats(transitions=-1, total_cycles=100),
        ],
        ids=["accesses", "sleep", "active", "transitions"],
    )
    def test_negative_counter_raises(self, stats, lut):
        config = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
        good = BankIdleStats(accesses=3, total_cycles=100)
        with pytest.raises(ConfigurationError, match="non-negative"):
            assemble_result(
                config, "bad", 100, [good, stats], CacheStats(hits=1, misses=2),
                0, 0, lut,
            )


# ----------------------------------------------------------------------
# Routing at the edges of the narrow bank-id dtypes
# ----------------------------------------------------------------------
def int64_bank_order(plan: TracePlan, config) -> tuple[np.ndarray, np.ndarray]:
    """The bank-sorted stream ``(cycles, splits)`` the spectrum scan
    replaced, routed with int64 bank ids and numpy's stable argsort."""
    trace = plan.trace
    geometry = config.geometry
    index, _ = plan.decode(geometry.offset_bits, geometry.index_bits)
    logical = index >> (geometry.index_bits - log2_exact(config.num_banks))
    _, starts = plan.epoch_starts(config)
    policy = config.make_policy()
    physical = np.empty(len(trace), dtype=np.int64)
    for epoch in range(len(starts) - 1):
        if epoch > 0:
            policy.update()
        lo, hi = int(starts[epoch]), int(starts[epoch + 1])
        physical[lo:hi] = policy.mapping()[logical[lo:hi]]
    order = np.argsort(physical, kind="stable")
    splits = np.searchsorted(physical[order], np.arange(config.num_banks + 1))
    return trace.cycles[order], splits


class TestNarrowRouting:
    @pytest.mark.parametrize("banks", [256, 512])
    @pytest.mark.parametrize("policy", ["static", "probing", "scrambling"])
    def test_bank_order_equals_int64_stable_argsort(self, banks, policy):
        """The scan's in-kernel gather from narrow tables routes every
        access where int64 bank ids and a stable argsort do."""
        # 16 KB, 16 B lines, direct-mapped: 1024 sets, so 512 banks
        # hold two sets each; 256 is the last count with uint8 ids.
        trace = make_random_trace(seed=banks + len(policy), length=6000)
        config = ArchitectureConfig(
            CacheGeometry(16 * 1024, 16),
            num_banks=banks,
            policy=policy,
            update_period_cycles=None if policy == "static" else 20000,
        )
        plan = TracePlan(trace)
        [routing] = plan.route(config, config.make_policy())
        assert routing.tables.dtype == (np.uint8 if banks == 256 else np.uint16)
        cycles, splits = int64_bank_order(plan, config)
        breakevens = [1, 40, 900]
        got = plan.idle_gaps(config).threshold(breakevens).stats()
        for breakeven, row in zip(breakevens, got):
            assert row == [
                stats_from_access_cycles(
                    cycles[splits[bank]:splits[bank + 1]], breakeven, 0, trace.horizon
                )
                for bank in range(banks)
            ]
        # The trace reaches the top bank ids, where uint8 ends.
        assert splits[-1] - splits[-2] > 0

    @pytest.mark.parametrize("banks", [256, 512])
    def test_fast_counters_match_reference(self, banks, lut):
        trace = make_random_trace(seed=banks, length=1500, max_gap=400)
        config = ArchitectureConfig(
            CacheGeometry(16 * 1024, 16),
            num_banks=banks,
            policy="probing",
            update_period_cycles=60000,
        )
        fast = simulate(config, trace, lut, engine="fast")
        reference = simulate(config, trace, lut, engine="reference")
        assert_results_equal(fast, reference)
        assert fast.energy_pj == reference.energy_pj
        assert fast.lifetime.bank_lifetimes_years == reference.lifetime.bank_lifetimes_years


# ----------------------------------------------------------------------
# Fine-grain: one LUT formula for the simulator and the metric path
# ----------------------------------------------------------------------
class TestFineGrainLifetimes:
    @pytest.mark.parametrize("policy", ["static", "probing"])
    def test_simulator_lifetimes_equal_metric_path(self, policy, lut):
        trace = make_random_trace(seed=77, length=2500, max_gap=300)
        config = ArchitectureConfig(
            CacheGeometry(4096, 16),
            num_banks=2,
            policy=policy,
            update_period_cycles=None if policy == "static" else 30000,
        )
        engine = simulate(config, trace, lut, engine="finegrain")
        # The per-line LUT lookup the template's lifetimes are defined by.
        direct = lut.lifetime_years_batch(0.5, np.asarray(engine.bank_idleness))
        assert engine.lifetime.bank_lifetimes_years == tuple(direct.tolist())


# ----------------------------------------------------------------------
# A breakeven group derived as one table against per-config assembly
# ----------------------------------------------------------------------
def float_fields(result) -> list[float]:
    """Every float a result carries outside its metrics, in a fixed order."""
    values = [
        result.energy_pj,
        result.baseline_energy_pj,
        result.lifetime.cache_lifetime_years,
        *result.lifetime.bank_lifetimes_years,
    ]
    for breakdown in result.bank_energy:
        values += [
            breakdown.dynamic,
            breakdown.leakage_active,
            breakdown.leakage_drowsy,
            breakdown.transitions,
        ]
    return values


def assert_group_equals_single(group, single) -> None:
    """``float.hex`` of every float, metric key order, record JSON."""
    assert type(group) is type(single)
    floats = float_fields(group)
    assert len(floats) == len(float_fields(single))
    for got, expected in zip(floats, float_fields(single)):
        assert type(got) is float and type(expected) is float
        assert got.hex() == expected.hex()
    assert list(group.metrics) == list(single.metrics)
    for name, expected in single.metrics.items():
        got = group.metrics[name]
        assert type(got) is type(expected), name
        if isinstance(expected, float):
            assert got.hex() == expected.hex(), name
        else:
            assert got == expected, name
    assert group.lifetime.limiting_bank == single.lifetime.limiting_bank
    assert group == single
    assert json.dumps(result_to_dict(group)) == json.dumps(result_to_dict(single))


def reassembled(result, lut) -> object:
    """The per-config funnel on the counters ``result`` carries."""
    return assemble_result(
        result.config,
        result.trace_name,
        result.total_cycles,
        list(result.bank_stats),
        result.cache_stats,
        result.updates_applied,
        result.flush_invalidations,
        lut,
    )


@st.composite
def breakeven_groups(draw):
    """A trace and a breakeven group over it: 1-64 banks, banks that
    see no access, breakevens None, 1 and far beyond the trace."""
    banks = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    policy = "static" if banks == 1 else draw(
        st.sampled_from(["static", "probing", "scrambling"])
    )
    length = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, draw(st.sampled_from([3, 60, 5000])), size=length)
    # Few distinct lines leave most banks of a wide cache idle.
    lines = draw(st.sampled_from([1, 3, 256, 4096]))
    trace = Trace(
        np.cumsum(gaps).astype(np.int64),
        (rng.integers(0, lines, size=length) * 16).astype(np.int64),
        name="group",
    )
    breakevens = draw(
        st.lists(
            st.one_of(
                st.sampled_from([None, 1, 2, 10**12]), st.integers(1, 20000)
            ),
            min_size=1,
            max_size=9,
        )
    )
    base = ArchitectureConfig(
        CacheGeometry(4096, 16),
        num_banks=banks,
        policy=policy,
        update_period_cycles=None if policy == "static" else draw(
            st.sampled_from([50, 2000, 10**9])
        ),
        power_managed=draw(st.booleans()),
    )
    return trace, [replace(base, breakeven_override=b) for b in breakevens]


class _MeanLifetime(Metric):
    """A plugin metric reading the memoised derivation helpers."""

    name = "aa_mean_lifetime"
    description = "mean per-bank lifetime (test plugin)"
    provides = ("aa_mean_lifetime_years", "aa_energy_share")
    calls = 0

    def compute(self, measurement, lut=None):
        type(self).calls += 1
        lifetimes = domain_lifetimes(measurement, lut)
        energy = sum(b.total for b in energy_breakdowns(measurement))
        return {
            "aa_mean_lifetime_years": sum(lifetimes) / len(lifetimes),
            "aa_energy_share": energy / baseline_energy(measurement),
        }


@contextlib.contextmanager
def registered(metric: Metric | None):
    """``metric`` registered for the block (nothing for ``None``)."""
    if metric is None:
        yield
        return
    register_metric(metric)
    try:
        yield
    finally:
        unregister_metric(metric.name)


class TestGroupAssembly:
    @pytest.mark.parametrize("plugin", [False, True], ids=["builtin", "plugin"])
    @pytest.mark.parametrize("backend", ["active", "numpy"])
    @settings(max_examples=40, deadline=None)
    @given(case=breakeven_groups())
    def test_group_equals_per_config_assembly(self, plugin, backend, lut, case):
        trace, configs = case
        with contextlib.ExitStack() as stack:
            stack.enter_context(registered(_MeanLifetime() if plugin else None))
            if backend == "numpy":
                stack.enter_context(dispatch.use_backend("numpy"))
            _MeanLifetime.calls = 0
            results = run_breakeven_group(configs, trace, lut)
            assert [r.config for r in results] == configs
            if plugin:
                # Once per config, first in registry (name) order.
                assert _MeanLifetime.calls == len(configs)
                assert next(iter(results[0].metrics)) == "aa_mean_lifetime_years"
            for result in results:
                assert_group_equals_single(result, reassembled(result, lut))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_table_counters_at_the_extremes(self, lut, data):
        """Raw tables: zero-access banks, counters near 2**53 and 2**62,
        a zero-length window."""
        banks = data.draw(st.sampled_from([1, 2, 4, 16, 64]), label="banks")
        configs = data.draw(st.integers(1, 5), label="configs")
        window = data.draw(
            st.sampled_from([0, 1, 97, 2**53 - 1, 2**53 + 1, 2**62]), label="window"
        )
        counter = st.integers(0, window)

        def draw_row(label: str) -> np.ndarray:
            row = st.lists(counter, min_size=banks, max_size=banks)
            return np.asarray(data.draw(row, label=label), dtype=np.int64)

        idleness = IdlenessTable(
            window=window,
            accesses=draw_row("accesses"),
            idle_intervals=draw_row("idle_intervals"),
            idle_cycles=draw_row("idle_cycles"),
            useful=np.stack([draw_row(f"useful{i}") for i in range(configs)]),
            sleep=np.stack([draw_row(f"sleep{i}") for i in range(configs)]),
        )
        base = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=banks)
        group = [replace(base, breakeven_override=b) for b in range(1, configs + 1)]
        hits = data.draw(st.integers(0, 1000), label="hits")
        results = assemble_group(group, "table", window, idleness, hits, 1000, 3, 7, lut)
        for result in results:
            assert_group_equals_single(result, reassembled(result, lut))

    def test_negative_counter_raises_like_the_single_path(self, lut):
        idleness = IdlenessTable(
            window=100,
            accesses=np.array([3, 4]),
            idle_intervals=np.array([1, 1]),
            idle_cycles=np.array([50, 50]),
            useful=np.array([[1, 1]]),
            sleep=np.array([[150, 0]]),  # active < 0 in bank 0
        )
        config = ArchitectureConfig(CacheGeometry(4096, 16), num_banks=2)
        with pytest.raises(ConfigurationError, match="non-negative"):
            assemble_group([config], "bad", 100, idleness, 1, 7, 0, 0, lut)

    def test_delta_vth_scalar_path_equals_zero_dim_array(self):
        """The scalar ``**`` of the drift law is the C library's pow,
        as a 0-d array's is: pinned with ``float.hex``."""
        model = NBTIModel()
        t = years_to_seconds(EVALUATION_HORIZON_YEARS)
        rng = np.random.default_rng(2011)
        sleeps = [0.0, 1.0, 0.5, 1e-300, *rng.random(2000).tolist()]
        for sleep in sleeps:
            scalar = model.delta_vth(t, AGING_P0, sleep)
            array = model.delta_vth(np.asarray(t), AGING_P0, sleep)
            assert type(scalar) is float
            assert scalar.hex() == float(array).hex(), sleep
