"""Tests for the workload characterization module."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.estimate.engine as engine_module
from repro.analysis.sweep import search_sweep
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.errors import TraceError
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for
from repro.trace.stats import describe_profile, profile_trace, summarize_trace
from repro.trace.trace import Trace

GEOMETRY = CacheGeometry(16 * 1024, 16)


def tiny_trace() -> Trace:
    # Two accesses to line 0 (reuse distance 2), one to line 1, one far
    # line (different bank), with distinct gaps.
    cycles = np.array([0, 10, 11, 31], dtype=np.int64)
    addresses = np.array([0x00, 0x10, 0x00, 0x2000], dtype=np.int64)
    return Trace(cycles, addresses, horizon=100)


class TestProfileTrace:
    def test_counts(self):
        profile = profile_trace(tiny_trace(), GEOMETRY)
        assert profile.accesses == 4
        assert profile.horizon == 100
        assert profile.distinct_lines == 3
        assert profile.footprint_bytes == 3 * 16

    def test_bank_shares_sum_to_one(self):
        profile = profile_trace(tiny_trace(), GEOMETRY)
        assert sum(profile.bank_shares) == pytest.approx(1.0)
        # 0x2000 = line 512 -> bank 2 of 4 (index 512 of 1024).
        assert profile.bank_shares[2] == pytest.approx(0.25)

    def test_gap_percentiles(self):
        profile = profile_trace(tiny_trace(), GEOMETRY)
        assert profile.gap_percentiles[50] == pytest.approx(10.0)
        assert profile.gap_percentiles[99] <= 20.0

    def test_reuse_distance(self):
        profile = profile_trace(tiny_trace(), GEOMETRY)
        # Line 0 touched at positions 0 and 2 -> reuse distance 2.
        assert profile.reuse_distance_median == pytest.approx(2.0)

    def test_empty_trace(self):
        empty = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=10)
        profile = profile_trace(empty, GEOMETRY)
        assert profile.accesses == 0
        assert profile.footprint_bytes == 0

    def test_rejects_bad_bank_split(self):
        with pytest.raises(TraceError):
            profile_trace(tiny_trace(), GEOMETRY, num_banks=3)

    def test_describe_renders(self):
        text = describe_profile(profile_trace(tiny_trace(), GEOMETRY))
        assert "footprint" in text
        assert "bank shares" in text


class TestOnGeneratedWorkloads:
    def test_bank_shares_reflect_idleness_profile(self):
        """adpcm.dec: banks 1 and 2 are nearly unused."""
        generator = WorkloadGenerator(GEOMETRY, num_windows=300)
        trace = generator.generate(profile_for("adpcm.dec"))
        profile = profile_trace(trace, GEOMETRY)
        assert profile.bank_shares[1] < 0.02
        assert profile.bank_shares[2] < 0.02
        assert profile.bank_shares[0] + profile.bank_shares[3] > 0.95

    def test_gaps_below_breakeven_within_bursts(self):
        generator = WorkloadGenerator(GEOMETRY, num_windows=300)
        trace = generator.generate(profile_for("CRC32"))
        profile = profile_trace(trace, GEOMETRY)
        assert profile.gap_percentiles[50] <= 8

    def test_footprint_exceeds_cache_due_to_tag_turnover(self):
        generator = WorkloadGenerator(GEOMETRY, num_windows=300)
        trace = generator.generate(profile_for("lame"))
        profile = profile_trace(trace, GEOMETRY)
        assert profile.footprint_bytes > GEOMETRY.size_bytes // 4


# ----------------------------------------------------------------------
# One summary per geometry, per-bank histograms per bank count
# ----------------------------------------------------------------------
def reference_gap_histogram(gaps: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """The per-bucket boolean-mask histogram the bincount one replaced."""
    gaps = gaps[gaps > 0]
    if not gaps.size:
        return ()
    buckets = np.floor(np.log2(gaps.astype(np.float64))).astype(np.int64)
    triples = []
    for bucket in np.unique(buckets):
        members = buckets == bucket
        triples.append((int(bucket), int(members.sum()), int(gaps[members].sum())))
    return tuple(triples)


def reference_bank_histograms(trace: Trace, geometry: CacheGeometry, num_banks: int):
    """Per-bank gaps cut out bank by bank, then histogrammed one by one."""
    index = (trace.addresses >> geometry.offset_bits) & (geometry.num_sets - 1)
    bank = index // (geometry.num_sets // num_banks)
    histograms = []
    for b in range(num_banks):
        segment = trace.cycles[bank == b]
        if segment.size == 0:
            gaps = np.asarray([trace.horizon], dtype=np.int64)
        else:
            gaps = np.concatenate(
                ([segment[0]], np.diff(segment) - 1, [trace.horizon - segment[-1] - 1])
            ).astype(np.int64)
        histograms.append(reference_gap_histogram(gaps))
    return tuple(histograms)


def power_of_two_trace() -> Trace:
    """Bank 0's gaps are exact powers of two and their neighbours;
    banks 1 and 3 are never touched."""
    gaps = [1, 2, 4, 8, 16, 32, 64, 1024, 2**20, 2**20 + 1, 2**20 - 1, 3, 1, 1]
    cycles = np.cumsum(np.asarray(gaps, dtype=np.int64) + 1) - 1
    addresses = np.zeros(cycles.size, dtype=np.int64)
    addresses[::3] = 0x2000  # every third access to bank 2 of 4
    return Trace(cycles, addresses, horizon=int(cycles[-1]) + 2**16)


BANK_COUNTS = [m for m in range(1, 17) if GEOMETRY.num_sets % m == 0]


class TestSharedSummary:
    @pytest.fixture(scope="class")
    def generated(self) -> Trace:
        generator = WorkloadGenerator(GEOMETRY, num_windows=120)
        return generator.generate(profile_for("dijkstra"))

    def test_shared_summary_profiles_equal_standalone(self, generated):
        summary = summarize_trace(generated, GEOMETRY)
        for num_banks in BANK_COUNTS:
            assert profile_trace(
                generated, GEOMETRY, num_banks, summary
            ) == profile_trace(generated, GEOMETRY, num_banks), num_banks

    @pytest.mark.parametrize("num_banks", BANK_COUNTS)
    def test_histograms_match_the_per_bucket_reference(self, generated, num_banks):
        profile = profile_trace(generated, GEOMETRY, num_banks)
        assert profile.bank_gap_histograms == reference_bank_histograms(
            generated, GEOMETRY, num_banks
        )

    def test_powers_of_two_and_idle_banks(self):
        trace = power_of_two_trace()
        profile = profile_trace(trace, GEOMETRY, 4, summarize_trace(trace, GEOMETRY))
        assert profile.bank_gap_histograms == reference_bank_histograms(
            trace, GEOMETRY, 4
        )
        # An untouched bank idles for the whole horizon in one gap.
        bucket = int(np.log2(trace.horizon))
        assert profile.bank_gap_histograms[1] == ((bucket, 1, trace.horizon),)
        assert profile.bank_gap_histograms[3] == profile.bank_gap_histograms[1]
        assert profile.bank_shares[1] == profile.bank_shares[3] == 0.0

    def test_empty_trace_with_summary(self):
        empty = Trace(np.empty(0, np.int64), np.empty(0, np.int64), horizon=10)
        summary = summarize_trace(empty, GEOMETRY)
        for num_banks in (1, 4, 16):
            profile = profile_trace(empty, GEOMETRY, num_banks, summary)
            assert profile == profile_trace(empty, GEOMETRY, num_banks)
            assert profile.bank_shares == (0.0,) * num_banks
            assert profile.reuse_distance_median == 0.0
            assert profile.bank_gap_histograms == (((3, 1, 10),),) * num_banks

    def test_search_sweep_summarizes_once_per_geometry(self, monkeypatch, lut):
        calls = {"summaries": [], "profiles": []}
        real_summary = engine_module.summarize_trace
        real_profile = engine_module.profile_trace

        def summary_spy(trace, geometry):
            calls["summaries"].append(geometry)
            return real_summary(trace, geometry)

        def profile_spy(trace, geometry, num_banks=4, summary=None, gaps=None):
            assert summary is not None and gaps is not None
            calls["profiles"].append(num_banks)
            return real_profile(trace, geometry, num_banks, summary, gaps)

        monkeypatch.setattr(engine_module, "summarize_trace", summary_spy)
        monkeypatch.setattr(engine_module, "profile_trace", profile_spy)
        generator = WorkloadGenerator(GEOMETRY, num_windows=30)
        trace = generator.generate(profile_for("sha"))
        base = ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing",
            update_period_cycles=trace.horizon // 8,
        )
        axes = {
            "num_banks": [2, 4, 8, 16],
            "policy": ["static", "probing", "scrambling"],
            "update_period_cycles": [trace.horizon // d for d in (4, 8, 16, 32, 64)],
            "breakeven_override": [5, 10, 20, 50, 100, 500, 1000, 5000, 50000],
        }
        result = search_sweep(base, trace, axes, search="estimator-pruned", lut=lut)
        assert len(result.outcome.estimated) == 540
        assert calls["summaries"] == [GEOMETRY]
        assert calls["profiles"] == [2, 4, 8, 16]


# ----------------------------------------------------------------------
# Pinned summaries of the grid-memory benchmark's traces
# ----------------------------------------------------------------------
#: (sha256 of set_index, its dtype, distinct line addresses, distinct
#: lines, float.hex of the 50/90/99 gap percentiles, float.hex of the
#: median reuse distance) of each 240-window trace.
SUMMARY_PINS = {
    ("dijkstra", 1, 2011): (
        "a84f5bd968cb413cf95abb4227fce7ac04b9190d459c47c7c9ad901f321ced7a",
        "uint16", 3216, 704,
        ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+2"),
        "0x1.2000000000000p+8",
    ),
    ("adpcm.dec", 1, 2011): (
        "d97c286240b427a5cd525d045265d5b10da80b3ad36da2ee803369198958ef05",
        "uint16", 1264, 352,
        ("0x1.0000000000000p+1", "0x1.0000000000000p+2", "0x1.0000000000000p+2"),
        "0x1.8000000000000p+7",
    ),
    ("sha", 4, 2011): (
        "4d70186321eca35ed25fd1d14746e9b8618f2e0f9ed92ddcc51e277fa72c885e",
        "uint8", 384, 128,
        ("0x1.0000000000000p+1", "0x1.0000000000000p+2", "0x1.0000000000000p+2"),
        "0x1.2000000000000p+5",
    ),
    ("dijkstra", 1, 7919): (
        "06e1d4f58d4df4bbec80c6bc4e3ea6de4235e7d5c929c6d6fe3267d46774e865",
        "uint16", 2384, 704,
        ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+2"),
        "0x1.2000000000000p+8",
    ),
    ("adpcm.dec", 1, 7919): (
        "e896aa0eeca365300b7498737292ed429dbf3b4e480d4f472bc3c6dcaf8a6a62",
        "uint16", 1552, 288,
        ("0x1.0000000000000p+1", "0x1.0000000000000p+2", "0x1.0000000000000p+2"),
        "0x1.2000000000000p+7",
    ),
    ("sha", 4, 7919): (
        "18a990cf1dca1112aa1d3b13701e67e6342b7e9e6448b2316fe65c901d36de75",
        "uint8", 460, 132,
        ("0x1.0000000000000p+1", "0x1.0000000000000p+2", "0x1.0000000000000p+3"),
        "0x1.2000000000000p+5",
    ),
}


@pytest.mark.parametrize("name, ways, seed", sorted(SUMMARY_PINS))
def test_summary_pinned_bit_for_bit(name, ways, seed):
    geometry = CacheGeometry(16 * 1024, 16, ways)
    trace = WorkloadGenerator(geometry, num_windows=240, master_seed=seed).generate(
        profile_for(name)
    )
    summary = summarize_trace(trace, geometry)
    assert (
        hashlib.sha256(summary.set_index.tobytes()).hexdigest(),
        str(summary.set_index.dtype),
        summary.distinct_line_addresses,
        summary.distinct_lines,
        tuple(summary.gap_percentiles[q].hex() for q in (50, 90, 99)),
        summary.reuse_distance_median.hex(),
    ) == SUMMARY_PINS[name, ways, seed]
