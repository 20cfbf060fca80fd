"""The ``finegrain`` engine: the per-line template behind the standard API.

The fine-grain template is the fast engine's pipeline with one power
domain per cache line, so it participates in everything the banked
engines do — ``simulate(engine="finegrain")``, ``sweep()``, campaigns,
the experiment runner and the CLI ``--engine`` flag — and emits a
standard :class:`~repro.core.results.SimulationResult`:

* the *power domains* of the result are the cache **lines** (one
  :class:`~repro.power.idleness.BankIdleStats` per line, each observed
  over the full horizon), so idleness, lifetime and spread metrics read
  exactly as they do for banks — just at line granularity;
* ``config.num_banks`` is irrelevant to this template (the array is
  monolithic with per-line sleep switches) and is ignored: the routing
  is the banked one with one bank per set, so dynamic policies
  re-index over the **full** n-bit index (the scheme of [7]) — a
  different machine than the banked engines, which is why this engine
  is *not* auto-eligible: selecting it must be an explicit modelling
  decision;
* each line sleeps after the line breakeven
  (:meth:`~repro.finegrain.model.LineEnergyModel.line_breakeven_cycles`,
  or ``breakeven_override``), and energy is derived under the
  ``"finegrain"`` measurement template, recomputable from the stored
  per-line counters like every other metric.

``power_managed=False`` is modelled exactly like the banked engines
model it: a breakeven larger than any possible gap, so the accounting
naturally reports zero sleep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.stats import CacheStats
from repro.core.config import ArchitectureConfig
from repro.core.engine import Engine, register_engine
from repro.core.fastsim import plan_counts
from repro.core.plan import ensure_plan
from repro.finegrain.model import LineEnergyModel
from repro.power.idleness import batch_stats_from_gaps


class FineGrainEngine(Engine):
    """The fast engine's plan layers with the cache lines as power domains."""

    name = "finegrain"
    description = (
        "per-line drowsy template of [7]: lines are the power domains, "
        "re-indexing permutes the full index"
    )
    priority = 5
    auto_eligible = False
    requires = "a direct-mapped geometry (ways == 1) and no explicit update_events"
    # Different machine than fast/reference: campaign stores must not
    # alias its records with banked ones for the same config.
    family = "finegrain"

    def supports(self, config) -> bool:
        return (
            isinstance(config, ArchitectureConfig)
            and config.geometry.ways == 1
            and config.update_events is None
        )

    def run(self, config, trace, lut=None, plan=None):
        from repro.core.simulator import assemble_result

        plan = ensure_plan(plan, trace)
        updates_applied, hits, flush_invalidations = plan_counts(plan, config)
        if not config.power_managed:
            breakeven = trace.horizon + 1
        elif config.breakeven_override is not None:
            breakeven = config.breakeven_override
        else:
            breakeven = LineEnergyModel(
                config.geometry, config.technology
            ).line_breakeven_cycles()
        gaps = plan.idle_gaps(replace(config, num_banks=config.geometry.num_lines))
        return assemble_result(
            config,
            trace.name,
            trace.horizon,
            batch_stats_from_gaps(gaps, [breakeven])[0],
            CacheStats(hits=hits, misses=len(trace) - hits, flushes=updates_applied),
            updates_applied,
            flush_invalidations,
            lut,
            template="finegrain",
            # Engine payload: the effective per-line breakeven differs
            # from config.breakeven() (bank-level!) and from the stored
            # counters, so it travels as an extra metric.
            extra_metrics={"line_breakeven_cycles": float(breakeven)},
        )


register_engine(FineGrainEngine())
