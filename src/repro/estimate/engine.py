"""Registry adapter: the analytical model as an ``"estimate"`` engine.

Registered like any other engine, so ``--engine estimate`` works on
every CLI entry point and strategies reach it through the registry —
but with ``fidelity = "estimate"`` and ``auto_eligible = False``:
``engine="auto"`` must never silently substitute a prediction for a
simulation, and estimated records key separately in every store.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.engine import Engine, register_engine
from repro.estimate.model import estimate_result
from repro.trace.stats import TraceProfile, profile_trace, summarize_trace


class EstimateEngine(Engine):
    """Closed-form estimator behind the standard engine interface.

    ``run`` profiles the trace (a few array passes) and evaluates the
    analytical model — no replay. When a shared
    :class:`~repro.core.plan.TracePlan` is passed, the plan memoizes the
    bank-independent :class:`~repro.trace.stats.TraceSummary` keyed by
    geometry and each profile keyed by (geometry, bank count): a whole
    grid over one trace decodes, sorts and takes percentiles once per
    geometry and builds the bank shares and gap histograms once per
    bank count.
    """

    name = "estimate"
    description = "closed-form analytical estimator (no trace replay)"
    priority = -100
    auto_eligible = False
    requires = "a banked config whose set array divides into its banks"
    family = "banked"
    fidelity = "estimate"

    def supports(self, config) -> bool:
        return (
            isinstance(config, ArchitectureConfig)
            and config.geometry.num_sets % config.num_banks == 0
        )

    def run(self, config, trace, lut=None, plan=None):
        profile = self._profile(trace, config.geometry, config.num_banks, plan)
        return estimate_result(config, profile, lut=lut, trace_name=trace.name)

    @staticmethod
    def _profile(trace, geometry: CacheGeometry, num_banks: int, plan) -> TraceProfile:
        if plan is None or not plan.matches(trace):
            return profile_trace(trace, geometry, num_banks)
        shape = (geometry.size_bytes, geometry.line_size, geometry.ways)
        summary = plan.cached(
            ("estimate-summary", *shape), lambda: summarize_trace(trace, geometry)
        )
        return plan.cached(
            ("estimate-profile", *shape, num_banks),
            lambda: profile_trace(trace, geometry, num_banks, summary),
        )


register_engine(EstimateEngine())
