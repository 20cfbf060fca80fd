"""repro — reproduction of *Partitioned Cache Architectures for Reduced
NBTI-Induced Aging* (A. Calimera, M. Loghi, E. Macii, M. Poncino,
DATE 2011).

The library implements the paper's complete stack from scratch:

* a trace-driven **cache simulator** (direct-mapped and set-associative,
  monolithic and M-bank partitioned) — :mod:`repro.cache`;
* the **decoder/remapper hardware** of Figures 1-3 (one-hot encoder,
  saturating idle counters, LFSR, probing/scrambling datapaths) —
  :mod:`repro.hw`;
* **power management** (drowsy banks, breakeven times, a calibrated
  45nm-like energy model) — :mod:`repro.power`;
* **NBTI aging physics** (reaction-diffusion Vth drift, butterfly-curve
  read SNM of a 6T cell, lifetime LUT) — :mod:`repro.aging`;
* the paper's **dynamic indexing policies** — :mod:`repro.indexing`;
* two agreeing **simulation engines** and the architecture glue —
  :mod:`repro.core`;
* synthetic **MediaBench-like workloads** calibrated to the paper's
  Table I — :mod:`repro.trace`;
* the **experiment harness** regenerating Tables I-IV —
  :mod:`repro.experiments`;
* declarative, content-hashed **campaigns** with a resumable result
  store — :mod:`repro.campaign`.

Quickstart
----------
>>> from repro import (ArchitectureConfig, CacheGeometry, WorkloadGenerator,
...                    profile_for, simulate)
>>> geometry = CacheGeometry(size_bytes=16 * 1024, line_size=16)
>>> trace = WorkloadGenerator(geometry, num_windows=200).generate(profile_for("sha"))
>>> config = ArchitectureConfig(geometry, num_banks=4, policy="probing",
...                             update_period_cycles=trace.horizon // 8)
>>> result = simulate(config, trace)
>>> result.lifetime_years > 2.93
True
"""

from repro.aging import CharacterizationFramework, LifetimeLUT, NBTIModel, SRAMCellSpec
from repro.cache import BankedCache, CacheGeometry, DirectMappedCache, SetAssociativeCache
from repro.core import (
    ArchitectureConfig,
    Engine,
    StreamingPlan,
    Measurement,
    Metric,
    ReferenceSimulator,
    SimulationResult,
    TracePlan,
    engine_names,
    metric_names,
    register_engine,
    register_metric,
    simulate,
    simulate_stream,
    summarize,
)
from repro.analysis import (
    SearchSpec,
    pareto_front,
    search_sweep,
    stream_sweep,
    sweep,
)
from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    CampaignStore,
    TraceSpec,
    campaign_status,
    config_from_dict,
    config_hash,
    config_to_dict,
    register_trace_source,
    run_campaign,
)
from repro.core.serialize import ResultRecord, load_results, save_results
from repro.errors import ReproError
from repro.experiments import ExperimentRunner, ExperimentSettings
from repro.finegrain import FineGrainEngine
from repro.hw.overhead import estimate_overhead
from repro.indexing import make_policy
from repro.power import EnergyModel, TechnologyParams, breakeven_cycles
from repro.trace import (
    Trace,
    TraceChunk,
    TraceStream,
    WorkloadGenerator,
    open_trace_stream,
    profile_for,
    save_trace_mmap,
    stream_to_trace,
)
from repro.trace.stats import profile_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "CacheGeometry",
    "DirectMappedCache",
    "SetAssociativeCache",
    "BankedCache",
    "ArchitectureConfig",
    "ReferenceSimulator",
    "TracePlan",
    "StreamingPlan",
    "SimulationResult",
    "simulate",
    "simulate_stream",
    "summarize",
    "Engine",
    "register_engine",
    "engine_names",
    "Metric",
    "Measurement",
    "register_metric",
    "metric_names",
    "Trace",
    "TraceChunk",
    "TraceStream",
    "open_trace_stream",
    "save_trace_mmap",
    "stream_to_trace",
    "WorkloadGenerator",
    "profile_for",
    "make_policy",
    "EnergyModel",
    "TechnologyParams",
    "breakeven_cycles",
    "NBTIModel",
    "SRAMCellSpec",
    "CharacterizationFramework",
    "LifetimeLUT",
    "ExperimentRunner",
    "ExperimentSettings",
    "FineGrainEngine",
    "sweep",
    "stream_sweep",
    "search_sweep",
    "SearchSpec",
    "pareto_front",
    "estimate_overhead",
    "profile_trace",
    "save_results",
    "load_results",
    "ResultRecord",
    "TraceSpec",
    "register_trace_source",
    "CampaignSpec",
    "CampaignStore",
    "CampaignResult",
    "campaign_status",
    "run_campaign",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]
