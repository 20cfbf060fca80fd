"""Cross-validation of the estimator against full simulation.

``repro estimate validate`` drives this harness: run the same grid at
both fidelity tiers, score the estimator's error per workload, metric
and axis, and emit a JSON-shaped report. The rank correlation is the
number that matters for guided search — pruning only needs the
estimator to *order* candidates like the simulator does, not to match
their absolute values.
"""

from __future__ import annotations

import numpy as np

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import plan_grid
from repro.analysis.sweep import simulate_selected
from repro.core.config import ArchitectureConfig
from repro.core.plan import TracePlan
from repro.trace.trace import Trace

#: Headline metrics scored by default (result attribute names).
DEFAULT_METRICS = ("hit_rate", "energy_savings", "lifetime_years")


def _rank_correlation(predicted: list[float], measured: list[float]) -> float:
    """Spearman rank correlation (Pearson over rank vectors)."""
    if len(predicted) < 2:
        return 1.0
    ranks_p = np.argsort(np.argsort(np.asarray(predicted))).astype(float)
    ranks_m = np.argsort(np.argsort(np.asarray(measured))).astype(float)
    if np.ptp(ranks_p) == 0 or np.ptp(ranks_m) == 0:
        return 1.0 if np.array_equal(ranks_p, ranks_m) else 0.0
    return float(np.corrcoef(ranks_p, ranks_m)[0, 1])


def _metric_scores(
    predicted: list[float], measured: list[float]
) -> dict:
    errors = [abs(p - m) for p, m in zip(predicted, measured)]
    spread = max(measured) - min(measured) if measured else 0.0
    return {
        "mean_abs_error": sum(errors) / len(errors) if errors else 0.0,
        "max_abs_error": max(errors) if errors else 0.0,
        "measured_range": spread,
        "rank_correlation": _rank_correlation(predicted, measured),
        "best_point_agrees": (
            bool(
                max(range(len(measured)), key=measured.__getitem__)
                == max(range(len(predicted)), key=predicted.__getitem__)
            )
            if measured
            else True
        ),
    }


def validate_workload(
    base: ArchitectureConfig,
    trace: Trace,
    axes: dict,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    metrics: tuple = DEFAULT_METRICS,
    parallel: int | None = None,
) -> dict:
    """Score the estimator on one workload's full grid.

    Simulates every grid point with ``engine`` and estimates it with
    the ``"estimate"`` engine, then reports per-metric error and rank
    statistics plus a per-axis breakdown (mean absolute error of the
    points sharing each axis value — which axes the model tracks well
    and which it does not).
    """
    grid = plan_grid(axes)
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    plan = TracePlan(trace)

    def evaluate(tier: str, workers: int | None) -> list:
        return simulate_selected(
            base,
            trace,
            grid.names,
            grid.combos,
            group_ids=grid.group_ids,
            lut=shared_lut,
            engine=tier,
            parallel=workers,
            plan=plan,
        )

    simulated = evaluate(engine, parallel)
    # Estimates are arithmetic on the shared plan's profiles: serial.
    estimated = evaluate("estimate", None)

    report: dict = {
        "trace": trace.name,
        "points": len(grid),
        "metrics": {},
        "axes": {},
    }
    values = {
        metric: (
            [float(getattr(r, metric)) for r in estimated],
            [float(getattr(r, metric)) for r in simulated],
        )
        for metric in metrics
    }
    for metric, (predicted, measured) in values.items():
        report["metrics"][metric] = _metric_scores(predicted, measured)
    for axis_pos, axis in enumerate(grid.names):
        groups: dict = {}
        for i, combo in enumerate(grid.combos):
            groups.setdefault(repr(combo[axis_pos]), []).append(i)
        report["axes"][axis] = {
            value: {
                metric: _metric_scores(
                    [values[metric][0][i] for i in members],
                    [values[metric][1][i] for i in members],
                )["mean_abs_error"]
                for metric in metrics
            }
            for value, members in groups.items()
        }
    return report


def validate_estimator(
    base: ArchitectureConfig,
    traces: list[Trace],
    axes: dict,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    metrics: tuple = DEFAULT_METRICS,
    parallel: int | None = None,
) -> dict:
    """Multi-workload validation report (the CLI's JSON payload)."""
    workloads = [
        validate_workload(
            base, trace, axes, lut=lut, engine=engine, metrics=metrics,
            parallel=parallel,
        )
        for trace in traces
    ]
    overall = {}
    for metric in metrics:
        per_metric = [w["metrics"][metric] for w in workloads]
        overall[metric] = {
            "mean_abs_error": (
                sum(s["mean_abs_error"] for s in per_metric) / len(per_metric)
                if per_metric
                else 0.0
            ),
            "worst_rank_correlation": (
                min(s["rank_correlation"] for s in per_metric)
                if per_metric
                else 1.0
            ),
        }
    return {
        "points_per_workload": workloads[0]["points"] if workloads else 0,
        "workloads": workloads,
        "overall": overall,
    }
