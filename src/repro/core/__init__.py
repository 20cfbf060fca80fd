"""The paper's architecture, assembled: partitioned cache + power
management + dynamic indexing + aging, driven by traces.

* :mod:`repro.core.config` — :class:`ArchitectureConfig`, the single
  description object everything is built from;
* :mod:`repro.core.architecture` — structural summary (decoder widths,
  idle-counter width, per-bank geometry) backing the paper's overhead
  claims;
* :mod:`repro.core.engine` — the engine registry: ``fast``,
  ``reference`` and ``finegrain`` ship in-tree, anything else joins via
  :func:`register_engine`;
* :mod:`repro.core.simulator` — the cycle-faithful reference engine
  and the :func:`simulate` dispatcher;
* :mod:`repro.core.fastsim` — the vectorized numpy engine (identical
  results, orders of magnitude faster);
* :mod:`repro.core.metrics` — the pluggable derived-metrics pipeline
  mapping measured counters to named values;
* :mod:`repro.core.plan` — :class:`TracePlan`, memoized per-trace state
  shared across sweep points (the trace is its only chunk), and
  :class:`StreamingPlan`, the same plan moving chunk by chunk through
  an out-of-core stream;
* :mod:`repro.core.streamsim` — streaming simulation over chunked
  traces (:func:`simulate_stream`, carried-state cursors);
* :mod:`repro.core.results` — :class:`SimulationResult` with energy,
  idleness, hit-rate, lifetime and metric views.
"""

from repro.core.architecture import ArchitectureSummary, summarize
from repro.core.config import ArchitectureConfig
from repro.core.engine import (
    Engine,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    resolve_engine,
    supports_streaming,
    unregister_engine,
    validate_engine,
)
from repro.core.fastsim import run_breakeven_group
from repro.core.metrics import (
    Measurement,
    MeasurementTemplate,
    Metric,
    compute_metric,
    compute_metrics,
    metric_names,
    register_metric,
    register_template,
    registered_metrics,
    template_names,
    unregister_metric,
    unregister_template,
)
from repro.core.plan import StreamingPlan, TracePlan
from repro.core.results import SimulationResult
from repro.core.simulator import ReferenceSimulator, assemble_result, simulate
from repro.core.streamsim import simulate_stream

__all__ = [
    "ArchitectureConfig",
    "ArchitectureSummary",
    "summarize",
    "ENGINE_NAMES",
    "Engine",
    "engine_names",
    "get_engine",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "supports_streaming",
    "unregister_engine",
    "validate_engine",
    "Measurement",
    "MeasurementTemplate",
    "Metric",
    "compute_metric",
    "compute_metrics",
    "metric_names",
    "register_metric",
    "register_template",
    "registered_metrics",
    "template_names",
    "unregister_metric",
    "unregister_template",
    "ReferenceSimulator",
    "TracePlan",
    "StreamingPlan",
    "run_breakeven_group",
    "simulate_stream",
    "SimulationResult",
    "assemble_result",
    "simulate",
]


def __getattr__(name: str):
    # Live registry view (PEP 562): engines registered after import —
    # including plugins — show up without re-importing.
    if name == "ENGINE_NAMES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
