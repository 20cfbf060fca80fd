"""Tests for indexing policies, update scheduling and uniformity analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw.lfsr import GaloisLFSR
from repro.indexing.analysis import (
    mapping_histogram,
    rng_repetition_error,
    uniformity_error,
)
from repro.indexing.policies import (
    POLICY_NAMES,
    ProbingPolicy,
    ScramblingPolicy,
    StaticPolicy,
    make_policy,
)
from repro.indexing.update import UpdateSchedule


class TestFactories:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, 4)
            assert policy.name == name
            assert policy.num_banks == 4

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="probing"):
            make_policy("random", 4)


class TestStaticPolicy:
    def test_identity_forever(self):
        policy = StaticPolicy(8)
        for _ in range(5):
            assert np.array_equal(policy.mapping(), np.arange(8))
            policy.update()


class TestProbingPolicy:
    def test_mapping_vector_matches_scalar(self):
        policy = ProbingPolicy(8)
        for _ in range(11):
            mapping = policy.mapping()
            for bank in range(8):
                assert mapping[bank] == policy.physical_bank(bank)
            policy.update()

    def test_uniform_after_multiples_of_m(self):
        """The paper's optimality claim: perfectly uniform coverage once
        the number of epochs is a multiple of M."""
        for m in (2, 4, 8):
            policy = ProbingPolicy(m)
            hist = mapping_histogram(policy, num_updates=3 * m - 1)  # 3M epochs
            assert uniformity_error(hist) == 0.0

    def test_not_uniform_before_m_epochs(self):
        policy = ProbingPolicy(4)
        hist = mapping_histogram(policy, num_updates=1)
        assert uniformity_error(hist) > 0.0

    def test_updates_counted(self):
        policy = ProbingPolicy(4)
        policy.update()
        policy.update()
        assert policy.updates_applied == 2


class TestScramblingPolicy:
    def test_mapping_vector_matches_scalar(self):
        policy = ScramblingPolicy(8)
        for _ in range(11):
            mapping = policy.mapping()
            for bank in range(8):
                assert mapping[bank] == policy.physical_bank(bank)
            policy.update()

    def test_mapping_is_permutation_every_epoch(self):
        policy = ScramblingPolicy(16)
        for _ in range(40):
            assert sorted(policy.mapping().tolist()) == list(range(16))
            policy.update()

    def test_asymptotic_uniformity(self):
        """Scrambling approaches uniformity as updates accumulate
        (Section IV-B2)."""
        few = uniformity_error(mapping_histogram(ScramblingPolicy(4), 16))
        many = uniformity_error(mapping_histogram(ScramblingPolicy(4), 4096))
        assert many < few
        assert many < 0.1

    def test_bank_address_wider_than_the_lfsr(self):
        """2**17 banks (the fine-grain template's lines in a 2 MiB /
        16 B cache): the 16-bit word scrambles the low bits, a bijection
        on the full address."""
        policy = ScramblingPolicy(2**17)
        for _ in range(3):
            policy.update()
        mapping = policy.mapping()
        assert 0 < int(mapping[0]) < 2**16
        assert np.array_equal(np.sort(mapping), np.arange(2**17))
        for bank in (0, 5, 2**16 + 5, 2**17 - 1):
            assert policy.physical_bank(bank) == int(mapping[bank])
        with pytest.raises(ConfigurationError):
            policy.physical_bank(2**17)

    def test_deterministic(self):
        a = ScramblingPolicy(4, seed=123)
        b = ScramblingPolicy(4, seed=123)
        for _ in range(20):
            a.update()
            b.update()
            assert np.array_equal(a.mapping(), b.mapping())


class TestUpdateSchedule:
    def test_disabled(self):
        schedule = UpdateSchedule(None)
        assert not schedule.due(10**9)
        assert schedule.updates_before(10**9) == 0

    def test_fires_once_per_period(self):
        schedule = UpdateSchedule(100)
        fired = [cycle for cycle in range(0, 500, 10) if schedule.due(cycle)]
        assert fired == [100, 200, 300, 400]

    def test_drains_overdue_one_at_a_time(self):
        schedule = UpdateSchedule(100)
        fires = 0
        while schedule.due(1000):
            fires += 1
        assert fires == 10

    def test_updates_before(self):
        schedule = UpdateSchedule(100)
        assert schedule.updates_before(100) == 0
        assert schedule.updates_before(101) == 1
        assert schedule.updates_before(1001) == 10

    def test_custom_offset(self):
        schedule = UpdateSchedule(100, offset_cycles=5)
        assert schedule.due(5)
        assert not schedule.due(10)
        assert schedule.due(105)

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            UpdateSchedule(0)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=5000))
    def test_property_updates_before_matches_due(self, period, horizon):
        counting = UpdateSchedule(period)
        fired = 0
        for cycle in range(horizon):
            while counting.due(cycle):
                fired += 1
        assert fired == UpdateSchedule(period).updates_before(horizon)


class TestAnalysis:
    def test_histogram_shape_and_total(self):
        hist = mapping_histogram(ProbingPolicy(4), 7)
        assert hist.shape == (4, 4)
        assert hist.sum() == 4 * 8  # M banks x (updates+1) epochs

    def test_uniformity_error_rejects_ragged(self):
        with pytest.raises(ConfigurationError):
            uniformity_error(np.array([[1, 2], [1, 1]]))

    def test_rng_error_ideal(self):
        words = np.tile(np.arange(4), 100)
        assert rng_repetition_error(words, 4) == 0.0

    def test_rng_error_decays_like_inverse_sqrt(self):
        """The paper: 'the error in reshaping is inversely proportional
        to sqrt(N)' for a uniform RNG. Check the LFSR follows the trend
        within a generous factor."""
        lfsr = GaloisLFSR(16, seed=0xACE1)
        words = np.array([lfsr.step() & 0x3 for _ in range(65535)])
        errors = {n: rng_repetition_error(words[:n], 4) for n in (256, 4096, 65535)}
        assert errors[4096] < errors[256]
        assert errors[65535] < errors[4096]

    def test_rng_error_validates(self):
        with pytest.raises(ConfigurationError):
            rng_repetition_error(np.array([5]), 4)
        with pytest.raises(ConfigurationError):
            rng_repetition_error(np.array([1]), 0)
