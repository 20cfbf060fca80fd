"""Line-granularity power management and dynamic indexing — the
baselines the paper positions itself against.

Section II-B and III: the paper's architecture is "a coarse-grain
implementation of the scheme of [7]" (Calimera et al., ISLPED'10), which
re-indexes at *cache line* granularity and therefore achieves perfectly
uniform per-line idleness — optimal lifetime — at the cost of modifying
the SRAM array internals (per-line sleep devices, as in Gated-Vdd [19]
and Drowsy Caches [20]).

This package implements that fine-grain template so the coarse/fine
trade-off can be measured rather than argued. It is the ``finegrain``
engine (:class:`FineGrainEngine`, selected with
``simulate(config, trace, lut, engine="finegrain")``): the fast engine's
pipeline with one power domain per cache line, over the same
:class:`~repro.core.config.ArchitectureConfig` and returning the same
:class:`~repro.core.results.SimulationResult`:

* ``policy="static"`` reproduces a conventional **drowsy cache**
  (Flautner et al., ISCA'02): per-line sleep, no re-indexing;
* ``policy="probing"``/``"scrambling"`` reproduce **dynamic indexing**
  [7]: per-line sleep plus full-index remapping;
* :class:`LineEnergyModel` prices the per-line counters (the
  ``"finegrain"`` measurement template) and gives the line breakeven.

Energy model: unlike the paper's banked organization, a fine-grain
monolithic array saves *no dynamic energy* (every access still drives
the full array) — leakage is the only lever — but its leakage lever is
sharper because each line sleeps independently. The comparison
experiment (``benchmarks/bench_finegrain.py``) shows exactly the
positioning claimed by the paper: fine-grain is the lifetime upper
bound, coarse-grain banking recovers most of it while also cutting
dynamic energy and without touching the array internals.
"""

from repro.finegrain.model import LineEnergyModel
from repro.finegrain.engine import FineGrainEngine

__all__ = [
    "LineEnergyModel",
    "FineGrainEngine",
]
