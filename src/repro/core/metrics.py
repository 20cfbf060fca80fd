"""Pluggable derived-metrics pipeline over measured counters.

The engines *measure* — per-bank activity counters, cache hit/miss
counters, update bookkeeping — and everything else (energy, lifetime,
aging margins, …) is *derived*. This module is the seam between the
two: a :class:`Measurement` is the complete counter substrate of one
run, and registered :class:`Metric` objects map
``(config, counters) -> named values`` deterministically. Because the
substrate is exactly what :mod:`repro.core.serialize` persists, every
registered metric — including ones written *after* a campaign ran —
can be recomputed from a stored record without resimulating.

Two templates share the substrate:

* ``"banked"`` — the paper's M-bank architecture; one
  :class:`~repro.power.idleness.BankIdleStats` per physical bank,
  energy from the banked :class:`~repro.power.energy.EnergyModel`;
* ``"finegrain"`` — the per-line drowsy template of [7]; one stats
  entry per cache *line* (lines are the power domains), energy from
  :class:`~repro.finegrain.model.LineEnergyModel`.

Metrics are template-agnostic unless they consult the energy model, in
which case :func:`energy_breakdowns` dispatches on the template.

Energy and lifetime are derived once per measurement, not once per
domain: the energy coefficients are computed once
(:meth:`~repro.power.energy.EnergyModel.bank_energies`) and each
component stays one integer counter times one float coefficient, and all domain
lifetimes come from one vectorised LUT query that applies the scalar
bilinear expression's operations in the scalar's order
(:meth:`~repro.aging.lut.LifetimeLUT.lifetime_years_batch`). Both are
therefore bit-identical to the per-domain scalar derivation, which is
what keeps values recomputed from stored records unchanged.

Built-in metrics
----------------
``energy`` (total/baseline/savings), ``lifetime`` (worst-domain years +
limiting domain), ``lifetime_spread`` (max − min domain lifetime — the
uniformity headline), ``idleness_spread``, ``transition_share`` (sleep
entry/exit energy as a share of the total) and ``nbti_delta_vth``
(threshold drift of the fastest-aging domain after
:data:`EVALUATION_HORIZON_YEARS`). ``snm_margin`` (read-SNM margin over
the −20% failure threshold at the same horizon) is registered *lazy*
(``eager=False``): it runs the butterfly-curve solver, so it is
computed on demand (``repro campaign show --metric snm_margin_10y_mv``,
:meth:`SimulationResult.metric <repro.core.results.SimulationResult.metric>`)
rather than on every simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.aging.lifetime import CacheLifetimeReport, bank_lifetimes_years
from repro.aging.nbti import NBTIModel
from repro.errors import ConfigurationError, ModelError, SimulationError, UnknownMetricError
from repro.power.energy import BankEnergyBreakdown
from repro.utils.units import years_to_seconds

if TYPE_CHECKING:  # import cycle: config -> ... -> metrics
    from repro.aging.cell import CharacterizationFramework
    from repro.aging.lut import LifetimeLUT
    from repro.cache.stats import CacheStats
    from repro.core.config import ArchitectureConfig
    from repro.power.idleness import BankIdleStats

#: Fixed evaluation horizon of the aging metrics (years of operation).
EVALUATION_HORIZON_YEARS: float = 10.0

#: Stored-value probability of the aging metrics (balanced content).
AGING_P0: float = 0.5


@dataclass(frozen=True)
class Measurement:
    """The complete counter substrate of one simulated run.

    Everything here is either configuration or an integer counter —
    exactly the information a v2
    :class:`~repro.core.serialize.ResultRecord` stores, which is what
    makes every metric recomputable from disk.

    Attributes
    ----------
    config:
        The simulated :class:`~repro.core.config.ArchitectureConfig`.
    trace_name:
        Label of the driving trace.
    total_cycles:
        Simulated horizon.
    bank_stats:
        Per-power-domain activity counters: one per physical bank
        (``banked``) or per cache line (``finegrain``).
    cache_stats:
        Whole-cache hit/miss/flush counters.
    updates_applied, flush_invalidations:
        Re-indexing bookkeeping.
    template:
        Which architectural template produced the counters.
    """

    config: ArchitectureConfig
    trace_name: str
    total_cycles: int
    bank_stats: tuple[BankIdleStats, ...]
    cache_stats: CacheStats
    updates_applied: int
    flush_invalidations: int
    template: str = "banked"

    def __post_init__(self) -> None:
        if self.template not in _TEMPLATE_REGISTRY:
            raise SimulationError(
                f"unknown measurement template {self.template!r}; "
                f"known: {', '.join(template_names())}"
            )

    @property
    def sleep_fractions(self) -> list[float]:
        """Useful idleness of each power domain."""
        return [s.useful_idleness for s in self.bank_stats]

    def _derived_cache(self) -> dict[str, Any]:
        # Shared memo for the derivation helpers below: several eager
        # metrics consult the same breakdowns/lifetimes, and without
        # sharing, every simulated point would pay the derivation cost
        # once per metric. Lives in the instance __dict__ (allowed on a
        # frozen dataclass) — pure memoization, never observable state.
        return self.__dict__.setdefault("_derived", {})


# ----------------------------------------------------------------------
# Measurement templates (registry) and energy accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasurementTemplate:
    """How one architectural template derives energy from its counters.

    A *template* names the counter semantics of a measurement (what a
    ``bank_stats`` entry is) and supplies the per-domain energy
    derivation. Engines whose :attr:`~repro.core.engine.Engine.family`
    is neither of the in-tree machines register their own template and
    pass its name to
    :func:`~repro.core.simulator.assemble_result`.

    Attributes
    ----------
    name:
        Registry key; the value of ``Measurement.template``.
    description:
        One-liner (what a power domain is under this template).
    breakdowns:
        ``Measurement -> tuple[BankEnergyBreakdown, ...]``, one entry
        per domain. Must be a pure function of (config, counters) so
        stored records stay recomputable.
    """

    name: str
    description: str
    breakdowns: Callable[["Measurement"], tuple[BankEnergyBreakdown, ...]]


_TEMPLATE_REGISTRY: dict[str, MeasurementTemplate] = {}


def register_template(template: MeasurementTemplate, replace: bool = False) -> None:
    """Add a measurement template to the registry."""
    if not template.name:
        raise ConfigurationError("a template must carry a non-empty name")
    if not replace and template.name in _TEMPLATE_REGISTRY:
        raise ConfigurationError(
            f"template {template.name!r} is already registered; "
            "pass replace=True to override"
        )
    _TEMPLATE_REGISTRY[template.name] = template


def unregister_template(name: str) -> None:
    """Remove a registered template (primarily for tests and plugins)."""
    if _TEMPLATE_REGISTRY.pop(name, None) is None:
        raise UnknownMetricError(
            f"unknown template {name!r}; known: {', '.join(template_names())}"
        )


def template_names() -> tuple[str, ...]:
    """Registered template names, sorted."""
    return tuple(sorted(_TEMPLATE_REGISTRY))


def _banked_breakdowns(measurement: "Measurement") -> tuple[BankEnergyBreakdown, ...]:
    model = measurement.config.make_energy_model()
    return model.bank_energies(
        (s.accesses, s.active_cycles, s.sleep_cycles, s.transitions)
        for s in measurement.bank_stats
    )


def _finegrain_breakdowns(
    measurement: "Measurement",
) -> tuple[BankEnergyBreakdown, ...]:
    from repro.finegrain.model import LineEnergyModel

    config = measurement.config
    model = LineEnergyModel(config.geometry, config.technology)
    access = model.access_energy()
    leak = model.line_leakage_power()
    drowsy = model.line_drowsy_power()
    transition = model.line_transition_energy()
    # Every access pays the full (monolithic) access energy no matter
    # which line it hits.
    return tuple(
        BankEnergyBreakdown(
            dynamic=s.accesses * access,
            leakage_active=s.active_cycles * leak,
            leakage_drowsy=s.sleep_cycles * drowsy,
            transitions=s.transitions * transition,
        )
        for s in measurement.bank_stats
    )


register_template(
    MeasurementTemplate(
        name="banked",
        description="M-bank partition: one stats entry per physical bank",
        breakdowns=_banked_breakdowns,
    )
)
register_template(
    MeasurementTemplate(
        name="finegrain",
        description="per-line drowsy template: one stats entry per cache line",
        breakdowns=_finegrain_breakdowns,
    )
)


def energy_breakdowns(measurement: Measurement) -> tuple[BankEnergyBreakdown, ...]:
    """Per-domain energy breakdowns (pJ) under the measurement's template."""
    cache = measurement._derived_cache()
    cached = cache.get("breakdowns")
    if cached is not None:
        return cached
    template = _TEMPLATE_REGISTRY[measurement.template]
    breakdowns = tuple(template.breakdowns(measurement))
    cache["breakdowns"] = breakdowns
    return breakdowns


def baseline_energy(measurement: Measurement) -> float:
    """Energy of the unmanaged monolithic reference on the same trace.

    Identical under both templates: the baseline is always the whole
    geometry at full Vdd with no banking and no sleep.
    """
    cache = measurement._derived_cache()
    cached = cache.get("baseline")
    if cached is None:
        cached = cache["baseline"] = (
            measurement.config.make_baseline_energy_model().unmanaged_energy(
                measurement.cache_stats.accesses, measurement.total_cycles
            )
        )
    return cached


def domain_lifetimes(
    measurement: Measurement, lut: LifetimeLUT | None = None
) -> list[float]:
    """Per-domain lifetimes (years), memoized per (measurement, lut)."""
    cache = measurement._derived_cache()
    entry = cache.get("lifetimes")
    if entry is None or entry[0] is not lut:
        entry = (lut, bank_lifetimes_years(measurement.sleep_fractions, lut=lut))
        cache["lifetimes"] = entry
    return entry[1]


def lifetime_report(
    measurement: Measurement, lut: LifetimeLUT | None = None
) -> CacheLifetimeReport:
    """Per-domain and worst-case lifetime from the sleep fractions.

    Same derivation as
    :func:`repro.aging.lifetime.cache_lifetime_years`, reading the
    memoized per-domain lifetimes.
    """
    lifetimes = domain_lifetimes(measurement, lut)
    if not lifetimes:
        raise ModelError("cache must have at least one power domain")
    worst = min(range(len(lifetimes)), key=lifetimes.__getitem__)
    return CacheLifetimeReport(
        bank_lifetimes_years=tuple(lifetimes),
        cache_lifetime_years=lifetimes[worst],
        limiting_bank=worst,
    )


# ----------------------------------------------------------------------
# The Metric protocol and registry
# ----------------------------------------------------------------------
class Metric:
    """Protocol (and base class) for derived metrics.

    Attributes
    ----------
    name:
        Registry key.
    description:
        One-liner shown by ``repro metrics``.
    provides:
        Names of the values :meth:`compute` returns. Value names are
        globally unique across registered metrics — they are the keys
        of :attr:`SimulationResult.metrics` and the vocabulary of
        ``repro campaign show --metric``.
    eager:
        Eager metrics are computed into every assembled result; lazy
        ones only on demand (use for expensive derivations).
    """

    name: str = ""
    description: str = ""
    provides: tuple[str, ...] = ()
    eager: bool = True

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        """Map the measured counters to ``{value name: value}``."""
        raise NotImplementedError


_METRICS: dict[str, Metric] = {}
_PROVIDERS: dict[str, str] = {}  # value name -> metric name


def register_metric(metric: Metric, replace: bool = False) -> None:
    """Add ``metric`` to the registry; value names must not collide."""
    name = getattr(metric, "name", "")
    if not name or not isinstance(name, str):
        raise ConfigurationError("a metric must carry a non-empty string name")
    if not metric.provides:
        raise ConfigurationError(f"metric {name!r} provides no value names")
    if not replace and name in _METRICS:
        raise ConfigurationError(
            f"metric {name!r} is already registered; pass replace=True to override"
        )
    # Validate *before* touching the registry: a failed replace must
    # leave the previous metric fully installed. Entries owned by the
    # metric being replaced don't count as collisions.
    for value_name in metric.provides:
        owner = _PROVIDERS.get(value_name)
        if owner is not None and owner != name:
            raise ConfigurationError(
                f"metric value {value_name!r} is already provided by "
                f"metric {owner!r}"
            )
    if name in _METRICS:
        _forget_provides(name)
    _METRICS[name] = metric
    for value_name in metric.provides:
        _PROVIDERS[value_name] = name


def _forget_provides(name: str) -> None:
    for value_name, owner in list(_PROVIDERS.items()):
        if owner == name:
            del _PROVIDERS[value_name]


def unregister_metric(name: str) -> None:
    """Remove a registered metric (primarily for tests and plugins)."""
    if _METRICS.pop(name, None) is None:
        raise UnknownMetricError(
            f"unknown metric {name!r}; known: {', '.join(metric_names())}"
        )
    _forget_provides(name)


def metric_names() -> tuple[str, ...]:
    """Registered metric names, sorted."""
    return tuple(sorted(_METRICS))


def registered_metrics() -> tuple[Metric, ...]:
    """All registered metrics, sorted by name."""
    return tuple(_METRICS[name] for name in sorted(_METRICS))


def get_metric(name: str) -> Metric:
    """Look up a metric by its registry name."""
    try:
        return _METRICS[name]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric {name!r}; known: {', '.join(metric_names())}"
        ) from None


def compute_metrics(
    measurement: Measurement,
    lut: LifetimeLUT | None = None,
    eager_only: bool = True,
) -> dict[str, Any]:
    """Merged ``{value name: value}`` of the registered metrics."""
    values: dict[str, Any] = {}
    for metric in registered_metrics():
        if eager_only and not metric.eager:
            continue
        values.update(metric.compute(measurement, lut))
    return values


def compute_metric(
    measurement: Measurement, value_name: str, lut: LifetimeLUT | None = None
) -> Any:
    """One named value, recomputed from counters (lazy metrics included)."""
    owner = _PROVIDERS.get(value_name)
    if owner is None:
        known = ", ".join(sorted(_PROVIDERS))
        raise UnknownMetricError(
            f"no registered metric provides {value_name!r}; known values: {known}"
        )
    return _METRICS[owner].compute(measurement, lut)[value_name]


# ----------------------------------------------------------------------
# Built-in metrics
# ----------------------------------------------------------------------
class EnergyMetric(Metric):
    """Total, baseline and fractional-saving energy of the run."""

    name = "energy"
    description = "managed vs unmanaged-monolithic energy (pJ) and Esav"
    provides = ("energy_pj", "baseline_energy_pj", "energy_savings")

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        energy = sum(b.total for b in energy_breakdowns(measurement))
        baseline = baseline_energy(measurement)
        savings = 1.0 - energy / baseline if baseline else 0.0
        return {
            "energy_pj": energy,
            "baseline_energy_pj": baseline,
            "energy_savings": savings,
        }


class LifetimeMetric(Metric):
    """Worst-domain NBTI lifetime (the paper's LT) and which domain limits."""

    name = "lifetime"
    description = "cache lifetime = worst power domain's lifetime (years)"
    provides = ("lifetime_years", "limiting_bank")

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        report = lifetime_report(measurement, lut)
        return {
            "lifetime_years": report.cache_lifetime_years,
            "limiting_bank": report.limiting_bank,
        }


class LifetimeSpreadMetric(Metric):
    """Max − min per-domain lifetime: 0 means perfectly uniform aging."""

    name = "lifetime_spread"
    description = "per-bank (or per-line) lifetime spread, years"
    provides = ("bank_lifetime_spread_years",)

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        lifetimes = domain_lifetimes(measurement, lut)
        return {"bank_lifetime_spread_years": max(lifetimes) - min(lifetimes)}


class IdlenessSpreadMetric(Metric):
    """Max − min per-domain useful idleness (Table I's balance claim)."""

    name = "idleness_spread"
    description = "per-bank (or per-line) useful-idleness spread"
    provides = ("idleness_spread",)

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        fractions = measurement.sleep_fractions
        return {"idleness_spread": max(fractions) - min(fractions)}


class TransitionShareMetric(Metric):
    """How much of the managed energy goes into sleep entry/exit."""

    name = "transition_share"
    description = "sleep/wake transition energy as a share of total energy"
    provides = ("sleep_transition_share",)

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        breakdowns = energy_breakdowns(measurement)
        total = sum(b.total for b in breakdowns)
        transitions = sum(b.transitions for b in breakdowns)
        return {"sleep_transition_share": transitions / total if total else 0.0}


class NBTIDeltaVthMetric(Metric):
    """Threshold drift of the fastest-aging domain at the horizon.

    The least-slept domain ages fastest (lowest effective recovery), so
    its ΔVth after :data:`EVALUATION_HORIZON_YEARS` of the measured
    activity profile is the aging headroom the cache actually has.
    """

    name = "nbti_delta_vth"
    description = (
        f"worst-domain NBTI ΔVth (mV) after {EVALUATION_HORIZON_YEARS:.0f} "
        "years at the measured sleep profile"
    )
    provides = ("nbti_delta_vth_10y_mv",)

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        worst_sleep = min(measurement.sleep_fractions)
        model = NBTIModel()
        shift = model.delta_vth(
            years_to_seconds(EVALUATION_HORIZON_YEARS), AGING_P0, worst_sleep
        )
        return {"nbti_delta_vth_10y_mv": 1000.0 * float(shift)}


def _characterization_framework() -> CharacterizationFramework:
    """Memoized calibrated framework (butterfly solver is expensive)."""
    global _FRAMEWORK
    if _FRAMEWORK is None:
        from repro.aging.cell import CharacterizationFramework

        _FRAMEWORK = CharacterizationFramework()
    return _FRAMEWORK


_FRAMEWORK: CharacterizationFramework | None = None


class SNMMarginMetric(Metric):
    """Read-SNM margin over the failure threshold at the horizon.

    Runs the butterfly-curve solver for the worst (least-slept) domain
    at :data:`EVALUATION_HORIZON_YEARS`; positive margin means the cell
    is still alive then. Lazy — computed on demand, never on every
    simulation.
    """

    name = "snm_margin"
    description = (
        f"worst-domain read-SNM margin (mV) over the -20% failure "
        f"threshold after {EVALUATION_HORIZON_YEARS:.0f} years"
    )
    provides = ("snm_margin_10y_mv",)
    eager = False

    def compute(
        self, measurement: Measurement, lut: LifetimeLUT | None = None
    ) -> dict[str, Any]:
        framework = _characterization_framework()
        worst_sleep = min(measurement.sleep_fractions)
        snm = framework.snm_at(EVALUATION_HORIZON_YEARS, AGING_P0, worst_sleep)
        margin = snm - framework.snm_failure_threshold
        return {"snm_margin_10y_mv": 1000.0 * margin}


register_metric(EnergyMetric())
register_metric(LifetimeMetric())
register_metric(LifetimeSpreadMetric())
register_metric(IdlenessSpreadMetric())
register_metric(TransitionShareMetric())
register_metric(NBTIDeltaVthMetric())
register_metric(SNMMarginMetric())

#: Everything registered above ships in-tree and exists in any process
#: that imports this module; anything else — including a replace=True
#: override of a built-in *name* — is a plugin that parallel workers
#: must be handed explicitly. Snapshots hold the instances, so the
#: filters below are identity-based.
_BUILTIN_METRIC_OBJECTS = dict(_METRICS)
_BUILTIN_TEMPLATE_OBJECTS = dict(_TEMPLATE_REGISTRY)


def custom_metrics() -> tuple[Metric, ...]:
    """Registered metrics that are not built-ins (sorted by name)."""
    return tuple(
        metric
        for name, metric in sorted(_METRICS.items())
        if _BUILTIN_METRIC_OBJECTS.get(name) is not metric
    )


def custom_templates() -> tuple[MeasurementTemplate, ...]:
    """Registered templates that are not built-ins (sorted by name)."""
    return tuple(
        template
        for name, template in sorted(_TEMPLATE_REGISTRY.items())
        if _BUILTIN_TEMPLATE_OBJECTS.get(name) is not template
    )


def install_metrics(metrics: Iterable[Metric]) -> None:
    """Register ``metrics``, replacing same-name entries (worker setup)."""
    for metric in metrics:
        register_metric(metric, replace=True)


def install_templates(templates: Iterable[MeasurementTemplate]) -> None:
    """Register ``templates``, replacing same-name entries (worker setup)."""
    for template in templates:
        register_template(template, replace=True)
