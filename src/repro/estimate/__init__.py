"""The ``estimate`` fidelity tier: closed-form analytical prediction.

Where the simulation engines replay a trace access by access, this
package predicts the same headline metrics — hit rate, per-bank
idleness, energy, lifetime — from the cheap summary statistics of
:func:`repro.trace.stats.profile_trace` alone. One profile costs a few
array passes — the bank-independent ones (set decode, distinct lines,
gap percentiles, reuse distance) once per trace and geometry, the bank
shares and gap histograms once per bank count — and after that every
grid point is arithmetic, which is what
makes estimator-guided search (:mod:`repro.analysis.planner`) able to
screen hundreds of configurations before paying for a single
simulation.

Estimated results flow through the exact same assembly funnel as
simulated ones (:func:`repro.core.simulator.assemble_result`), so the
energy model, lifetime LUT and every registered metric are applied
identically — only the integer activity counters are synthesized
instead of measured. Results and records carry ``fidelity="estimate"``
and are keyed separately in every store (see
:func:`repro.campaign.codec.config_result_hash`).

The package is deliberately isolated from the replay machinery:
reprolint REPRO015 forbids it from importing ``core/fastsim``,
``core/streamsim`` or ``kernels/`` internals.
"""

from repro.estimate.engine import EstimateEngine
from repro.estimate.model import estimate_result, synthesize_bank_stats
from repro.estimate.validate import validate_estimator

__all__ = [
    "EstimateEngine",
    "estimate_result",
    "synthesize_bank_stats",
    "validate_estimator",
]
