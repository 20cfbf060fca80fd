"""Bit-identity of the estimate tier and of what guided search selects.

The estimator profiles each trace once per geometry (a bank-independent
summary) and derives the per-bank shares and gap histograms per bank
count; the estimator-pruned strategy keeps its ε-front with a blocked
numpy comparison. Neither may move a single estimated value or a single
selected index. Pinned here, with values captured from the per-call
profile and the pure-Python ε-front:

* ``float.hex`` digests of ``hit_rate``, ``energy_savings`` and
  ``lifetime_years`` for every point of a small
  banks × policy × period × breakeven grid;
* the indices an estimator-pruned :func:`search_sweep` simulates;
* the bytes of every estimate-fidelity record a guided campaign writes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.planner import SearchSpec
from repro.analysis.sweep import search_sweep
from repro.cache.geometry import CacheGeometry
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.tracespec import TraceSpec
from repro.core.config import ArchitectureConfig
from repro.core.engine import get_engine
from repro.core.plan import TracePlan
from repro.trace.trace import Trace

GEOMETRY = CacheGeometry(4096, 16)
HEADLINE = ("hit_rate", "energy_savings", "lifetime_years")
BANKS = (1, 2, 4, 16)
POLICIES = ("static", "probing", "scrambling")
PERIODS = (2000, 20000)
BREAKEVENS = (None, 5, 50, 5000)


def pin_trace() -> Trace:
    """Random accesses with a few long pauses, so banks sleep unevenly."""
    rng = np.random.default_rng(1411)
    gaps = rng.integers(1, 60, size=3000)
    gaps[rng.integers(0, 3000, size=40)] += rng.integers(500, 20000, size=40)
    cycles = np.cumsum(gaps).astype(np.int64)
    addresses = (rng.integers(0, 2048, size=3000) * 16).astype(np.int64)
    return Trace(cycles, addresses, name="pins")


def pin_configs() -> list[ArchitectureConfig]:
    configs = []
    for banks in BANKS:
        for policy in POLICIES:
            if banks == 1 and policy != "static":
                continue
            for period in PERIODS:
                for breakeven in BREAKEVENS:
                    configs.append(
                        ArchitectureConfig(
                            GEOMETRY,
                            num_banks=banks,
                            policy=policy,
                            update_period_cycles=period,
                            breakeven_override=breakeven,
                        )
                    )
    return configs


def headline_hex(result) -> str:
    values = [result.hit_rate] + [result.metric(name) for name in HEADLINE[1:]]
    return " ".join(float(value).hex() for value in values)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


#: sha256 prefix of every grid point's headline ``float.hex`` values.
GRID_DIGEST = "c63344abc69ff80d"
#: First point (1 bank, static, period 2000, no breakeven override).
FIRST_POINT = (
    "0x1.40da740da740ep-3 0x1.817600da3250bp-1 0x1.1e05e81cb22f6p+3"
)
#: Grid indices an estimator-pruned search over the pin grid simulates.
PRUNED_SIMULATED = (
    0, 3, 6, 9, 12, 15, 18, 19, 21, 22, 24, 27, 30,
    33, 36, 37, 39, 40, 42, 43, 45, 46, 48, 49, 51, 52,
)
#: sha256 prefix of the guided campaign's estimate-fidelity record files.
CAMPAIGN_ESTIMATE_DIGEST = "5bf78a625ed055d0"
CAMPAIGN_ESTIMATE_RECORDS = 18


@pytest.fixture(scope="module")
def pinned_trace() -> Trace:
    return pin_trace()


class TestEstimatePins:
    def test_grid_headline_hex(self, pinned_trace, lut):
        engine = get_engine("estimate")
        plan = TracePlan(pinned_trace)
        lines = [
            headline_hex(engine.run(config, pinned_trace, lut=lut, plan=plan))
            for config in pin_configs()
        ]
        assert (lines[0], digest(lines)) == (FIRST_POINT, GRID_DIGEST), lines[:4]

    def test_shared_plan_matches_standalone_estimates(self, pinned_trace, lut):
        engine = get_engine("estimate")
        plan = TracePlan(pinned_trace)
        for config in pin_configs()[::7]:
            shared = engine.run(config, pinned_trace, lut=lut, plan=plan)
            alone = engine.run(config, pinned_trace, lut=lut)
            assert headline_hex(shared) == headline_hex(alone)

    def test_pruned_search_simulates_the_same_points(self, pinned_trace, lut):
        base = ArchitectureConfig(
            GEOMETRY, num_banks=4, policy="probing", update_period_cycles=2000
        )
        axes = {
            "num_banks": [2, 4, 16],
            "policy": list(POLICIES),
            "update_period_cycles": list(PERIODS),
            "breakeven_override": [5, 50, 5000],
        }
        outcome = search_sweep(
            base, pinned_trace, axes, search="estimator-pruned", lut=lut
        ).outcome
        assert outcome.simulated == PRUNED_SIMULATED, outcome.simulated


def guided_spec() -> CampaignSpec:
    return CampaignSpec(
        name="estimate-pins",
        traces=(TraceSpec.synthetic("sha", size_bytes=8 * 1024, num_windows=40),),
        base=ArchitectureConfig(
            CacheGeometry(8 * 1024, 16),
            num_banks=4,
            policy="probing",
            update_period_cycles=5120,
        ),
        axes={
            "num_banks": [2, 4, 8],
            "policy": ["static", "probing"],
            "breakeven_override": [5, 20, 500],
        },
        search=SearchSpec(strategy="estimator-pruned", top_k=2, epsilon=0.05),
    )


class TestGuidedCampaignRecords:
    def test_estimate_records_are_byte_identical(self, tmp_path, lut):
        run_campaign(guided_spec(), directory=tmp_path, lut=lut)
        lines = []
        for root, _dirs, files in os.walk(tmp_path / "results"):
            for name in files:
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                if json.loads(data)["record"].get("fidelity") == "estimate":
                    rel = os.path.relpath(path, tmp_path)
                    lines.append(f"{rel} {hashlib.sha256(data).hexdigest()}")
        lines.sort()
        assert (len(lines), digest(lines)) == (
            CAMPAIGN_ESTIMATE_RECORDS,
            CAMPAIGN_ESTIMATE_DIGEST,
        )
