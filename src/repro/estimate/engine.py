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
from repro.core.plan import ensure_plan
from repro.estimate.model import estimate_group
from repro.trace.stats import TraceProfile, profile_trace, summarize_trace


class EstimateEngine(Engine):
    """Closed-form estimator behind the standard engine interface.

    ``run_group`` profiles the trace (a few array passes) and evaluates
    the analytical model for a whole breakeven group as one table
    (:func:`~repro.estimate.model.estimate_group`) — no replay; ``run``
    is its one-config view. Because the engine has ``run_group``, the
    sweep executor batches estimate grids by breakeven group like fast
    ones. When a shared :class:`~repro.core.plan.TracePlan` is passed,
    the plan memoizes the bank-independent
    :class:`~repro.trace.stats.TraceSummary` keyed by geometry and each
    profile keyed by (geometry, bank count): a whole grid over one trace
    decodes, sorts and takes percentiles once per geometry and builds
    the bank shares and gap histograms once per bank count, from the
    plan's gap spectrum of the static bank split.
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
        return self.run_group([config], trace, lut=lut, plan=plan)[0]

    def run_group(self, configs, trace, lut=None, plan=None):
        """Estimate a breakeven-only config group from one profile."""
        if not configs:
            return []
        base = configs[0]
        profile = self._profile(trace, base.geometry, base.num_banks, plan)
        return estimate_group(configs, profile, lut=lut, trace_name=trace.name)

    @staticmethod
    def _profile(trace, geometry: CacheGeometry, num_banks: int, plan) -> TraceProfile:
        plan = ensure_plan(plan, trace)
        shape = (geometry.size_bytes, geometry.line_size, geometry.ways)
        summary = plan.cached(
            ("estimate-summary", *shape), lambda: summarize_trace(trace, geometry)
        )
        return plan.cached(
            ("estimate-profile", *shape, num_banks),
            lambda: profile_trace(
                trace,
                geometry,
                num_banks,
                summary,
                plan.idle_gaps(ArchitectureConfig(geometry, num_banks)),
            ),
        )


register_engine(EstimateEngine())
