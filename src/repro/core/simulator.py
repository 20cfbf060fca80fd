"""Reference (event-by-event) simulation engine and the dispatch front-end.

The reference engine walks the trace one access at a time through the
*actual* behavioral hardware models: decoder D routes each index, the
banked cache arrays record hits and misses, the idleness accountant
applies the Block Control sleep rule, and the update schedule pulses
f() and flushes. It is deliberately simple — the fast engine in
:mod:`repro.core.fastsim` must agree with it exactly, and the test
suite holds the two together.

:func:`simulate` is the library-wide dispatcher. Engines live in the
registry of :mod:`repro.core.engine`; this module registers the
``reference`` engine and re-exports the registry views
(``ENGINE_NAMES``, :func:`validate_engine`) under their historical
names.
"""

from __future__ import annotations

from repro.aging.lut import LifetimeLUT
from repro.cache.banked import BankedCache
from repro.cache.stats import CacheStats
from repro.core.config import ArchitectureConfig
from repro.core.engine import Engine, register_engine, resolve_engine, validate_engine
from repro.core.metrics import compute_metrics, energy_breakdowns, lifetime_report
from repro.core.metrics import Measurement, baseline_energy, derive_group, group_metrics
from repro.core.plan import TracePlan, ensure_plan
from repro.core.results import SimulationResult
from repro.power.idleness import BankIdleStats, IdlenessAccountant, IdlenessTable
from repro.trace.trace import Trace

__all__ = [
    "ENGINE_NAMES",
    "ReferenceSimulator",
    "assemble_result",
    "simulate",
    "validate_engine",
]


def _effective_breakeven(config: ArchitectureConfig, horizon: int) -> int:
    """Breakeven used for accounting.

    An unmanaged cache is modelled as one whose breakeven exceeds any
    possible gap — the accounting then naturally reports zero sleep.
    """
    if not config.power_managed:
        return horizon + 1
    return config.breakeven()


def assemble_result(
    config: ArchitectureConfig,
    trace_name: str,
    horizon: int,
    bank_stats: list[BankIdleStats],
    cache_stats,
    updates_applied: int,
    flush_invalidations: int,
    lut: LifetimeLUT | None,
    template: str = "banked",
    extra_metrics: dict | None = None,
    fidelity: str = "simulate",
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from measured counters.

    Energy, lifetime and every registered eager
    :class:`~repro.core.metrics.Metric` are *derived* deterministically
    from the config and the integer counters, so assembling the same
    counters twice — in particular, from a deserialized
    :class:`~repro.core.serialize.ResultRecord` — reproduces every
    field bit-identically (given the same LUT). This is the
    single-config funnel of the record reader and the reference and
    fine-grain engines; the breakeven groups of the fast and streaming
    engines and of the estimator go through :func:`assemble_group`,
    which is held to this function field by field. ``energy_pj`` is builtin ``sum()`` over
    the banks' totals in bank order, and the group path sums the same
    Python floats the same way: ``sum()`` is compensated on Python
    3.12 and plain on 3.10, so any other order or reduction would
    change stored bits on one of them.

    ``template`` selects the counter semantics (``"banked"`` banks vs
    ``"finegrain"`` lines — see :mod:`repro.core.metrics`).
    ``extra_metrics`` lets an engine attach payload values the counters
    alone cannot reproduce; registered metrics always win on name
    clashes, since the counters are the ground truth. ``fidelity``
    tags the result's execution tier (``"estimate"`` for closed-form
    predictions whose counters were synthesized, not measured).
    """
    measurement = Measurement(
        config=config,
        trace_name=trace_name,
        total_cycles=horizon,
        bank_stats=tuple(bank_stats),
        cache_stats=cache_stats,
        updates_applied=updates_applied,
        flush_invalidations=flush_invalidations,
        template=template,
    )
    breakdowns = energy_breakdowns(measurement)
    energy = sum(b.total for b in breakdowns)
    baseline = baseline_energy(measurement)
    lifetime = lifetime_report(measurement, lut)
    metrics = dict(extra_metrics or {})
    metrics.update(compute_metrics(measurement, lut))
    return SimulationResult(
        config=config,
        trace_name=trace_name,
        total_cycles=horizon,
        bank_stats=measurement.bank_stats,
        cache_stats=cache_stats,
        updates_applied=updates_applied,
        flush_invalidations=flush_invalidations,
        bank_energy=breakdowns,
        energy_pj=energy,
        baseline_energy_pj=baseline,
        lifetime=lifetime,
        metrics=metrics,
        template=template,
        fidelity=fidelity,
    )


def assemble_group(
    configs,
    trace_name: str,
    horizon: int,
    idleness: IdlenessTable,
    hits: int,
    accesses: int,
    updates_applied: int,
    flush_invalidations: int,
    lut: LifetimeLUT | None,
    fidelity: str = "simulate",
    flushes: int | None = None,
) -> list[SimulationResult]:
    """The results of a breakeven group, derived as one table.

    The configs differ only in ``breakeven_override`` (the callers
    enforce :func:`~repro.core.config.validate_breakeven_group`), so
    they share every counter but their per-bank idleness:
    ``idleness`` holds one row of its useful/sleep matrices per
    config, in order. ``flushes`` is the cache's flush count; by
    default every update flushed the cache once (the estimator passes
    its own prediction, 0 for an empty trace).

    Energy, lifetimes and the built-in eager metrics come from
    :func:`~repro.core.metrics.derive_group`: one energy model and one
    baseline per group, broadcast ``int × float`` energy components,
    and one LUT query over every bank of every config. Per-config
    totals stay builtin ``sum()`` over Python floats in bank order, so
    each result equals :func:`assemble_result` on the same counters bit
    for bit, on Python versions whose ``sum()`` is compensated (3.12)
    and on those whose ``sum()`` is not. A plugin metric runs through
    its ``compute`` per config (see
    :func:`~repro.core.metrics.group_metrics`). ``fidelity`` tags every
    result, as in :func:`assemble_result` (``"estimate"`` for the
    estimator's synthesized counters).
    """
    if not configs:
        return []
    if flushes is None:
        flushes = updates_applied
    # One CacheStats per result: it is mutable, so results share none.
    cache_stats = [
        CacheStats(hits=hits, misses=accesses - hits, flushes=flushes)
        for _ in configs
    ]
    bank_stats = [tuple(row) for row in idleness.stats()]
    derived = derive_group(configs[0], idleness, horizon, accesses, lut)

    def measurement(i: int) -> Measurement:
        return Measurement(
            config=configs[i],
            trace_name=trace_name,
            total_cycles=horizon,
            bank_stats=bank_stats[i],
            cache_stats=cache_stats[i],
            updates_applied=updates_applied,
            flush_invalidations=flush_invalidations,
        )

    metrics = group_metrics(derived, measurement, lut)
    return [
        SimulationResult(
            config=config,
            trace_name=trace_name,
            total_cycles=horizon,
            bank_stats=bank_stats[i],
            cache_stats=cache_stats[i],
            updates_applied=updates_applied,
            flush_invalidations=flush_invalidations,
            bank_energy=derived.breakdowns[i],
            energy_pj=derived.energy[i],
            baseline_energy_pj=derived.baseline,
            lifetime=derived.reports[i],
            metrics=metrics[i],
            fidelity=fidelity,
        )
        for i, config in enumerate(configs)
    ]


class ReferenceSimulator:
    """Event-by-event trace-driven simulator.

    Parameters
    ----------
    config:
        Architecture to simulate.
    lut:
        Lifetime lookup table; defaults to the shared calibrated one.
    plan:
        Optional shared :class:`~repro.core.plan.TracePlan`; when
        given, the address decode is read from the plan's memoized
        ``(index, tag)`` arrays instead of re-splitting every address.
        Results are identical with or without a plan.
    """

    def __init__(
        self,
        config: ArchitectureConfig,
        lut: LifetimeLUT | None = None,
        plan: TracePlan | None = None,
    ) -> None:
        self.config = config
        self.lut = lut
        self.plan = plan

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate ``trace`` and return the measurement record."""
        config = self.config
        policy = config.make_policy()
        cache = BankedCache(config.geometry, config.num_banks, policy.remapper)
        schedule = config.make_update_schedule()
        accountant = IdlenessAccountant(
            config.num_banks, _effective_breakeven(config, trace.horizon)
        )
        flush_invalidations = 0

        decoded = None
        if self.plan is not None:
            geometry = config.geometry
            plan = ensure_plan(self.plan, trace)
            decoded = plan.decode(geometry.offset_bits, geometry.index_bits)

        for position, (cycle, address) in enumerate(trace):
            while schedule.due(cycle):
                policy.update()
                flush_invalidations += cache.flush()
            if decoded is None:
                _, routed = cache.access(address)
            else:
                index_arr, tag_arr = decoded
                _, routed = cache.access_split(
                    int(tag_arr[position]), int(index_arr[position])
                )
            accountant.on_access(routed.physical_bank, cycle)

        bank_stats = accountant.finalize(trace.horizon)
        return assemble_result(
            config,
            trace.name,
            trace.horizon,
            bank_stats,
            cache.stats,
            policy.updates_applied,
            flush_invalidations,
            self.lut,
        )


class ReferenceEngine(Engine):
    """Registry adapter for :class:`ReferenceSimulator` (the oracle)."""

    name = "reference"
    description = "event-by-event behavioral engine (the bit-exact oracle)"
    priority = 0

    def supports(self, config) -> bool:
        return isinstance(config, ArchitectureConfig)

    def run(self, config, trace, lut=None, plan=None):
        return ReferenceSimulator(config, lut, plan=plan).run(trace)


register_engine(ReferenceEngine())


def __getattr__(name: str):
    # ENGINE_NAMES is a *view* of the engine registry (PEP 562), so
    # engines registered at any time — including the lazily imported
    # built-ins — appear without this module re-exporting by hand.
    if name == "ENGINE_NAMES":
        from repro.core.engine import engine_names

        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def simulate(
    config: ArchitectureConfig,
    trace: Trace,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    plan=None,
) -> SimulationResult:
    """Convenience front-end: run ``trace`` on ``config``.

    ``engine`` selects a registered simulation engine by name; every
    layer of the library (sweeps, campaigns, the experiment runner, the
    CLI, the examples) funnels through this dispatcher so no caller
    ever instantiates an engine it can't use:

    * ``"auto"`` (default) — the highest-priority auto-eligible engine
      supporting the configuration; currently always the vectorized
      ``fast`` engine (:class:`~repro.core.fastsim.FastEngine`), which
      covers both direct-mapped and set-associative geometries.
    * ``"fast"`` / ``"reference"`` — force the vectorized or the
      event-by-event behavioral engine.
    * ``"finegrain"`` — the per-line drowsy template of [7]
      (:mod:`repro.finegrain`); power domains are cache lines.
    * any name added via
      :func:`~repro.core.engine.register_engine`.

    ``plan`` is an optional shared :class:`~repro.core.plan.TracePlan`
    for ``trace``; every built-in engine reads its memoized decode (and,
    where applicable, sort/epoch state) from it. Results are identical
    with or without a plan.
    """
    return resolve_engine(engine, config).run(config, trace, lut=lut, plan=plan)
