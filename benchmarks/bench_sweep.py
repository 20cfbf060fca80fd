"""Sweep-engine benchmark: per-point path vs shared trace-plan path.

Times the same 64-point design-space grid (banking × policy × update
period × breakeven) two ways:

* **old path** — what ``sweep()`` did before the trace-plan engine: one
  independent ``simulate()`` per grid point, each paying the full
  decode, the stable bank argsort and its own idleness pass;
* **plan path** — today's ``sweep()``: one shared
  :class:`~repro.core.plan.TracePlan` memoizes everything
  breakeven-independent, and the ``breakeven_override`` axis is batched
  through :func:`~repro.core.fastsim.run_breakeven_group`.

Both paths must produce bit-identical ``SimulationResult`` fields; the
script asserts that before writing ``BENCH_sweep.json`` (machine
readable: points, wall seconds per path, speedup) so the perf
trajectory is tracked from PR 2 on. Run it directly::

    PYTHONPATH=src python benchmarks/bench_sweep.py            # full 64-point grid
    PYTHONPATH=src python benchmarks/bench_sweep.py --tiny     # CI smoke grid

or through pytest (``test_plan_sweep_fast_and_bitidentical`` runs the
tiny grid and pins bit-identity only — wall-clock speedup is tracked by
the committed full-grid ``BENCH_sweep.json``, not asserted in CI).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.aging.lut import LifetimeLUT
from repro.analysis.sweep import sweep
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def make_grid(tiny: bool):
    """The reference 64-point grid (or a 16-point CI smoke grid)."""
    geometry = CacheGeometry(16 * 1024, 16)
    windows = 60 if tiny else 300
    trace = WorkloadGenerator(geometry, num_windows=windows).generate(
        profile_for("dijkstra")
    )
    banks = [2, 4] if tiny else [2, 4, 8, 16]
    axes = {
        "num_banks": banks,
        "policy": ["static", "probing"],
        "update_period_cycles": [trace.horizon // 8, trace.horizon // 16],
        "breakeven_override": [5, 20] if tiny else [5, 20, 80, 320],
    }
    base = ArchitectureConfig(
        geometry,
        num_banks=4,
        policy="probing",
        update_period_cycles=trace.horizon // 16,
    )
    return base, trace, axes


def old_path(base, trace, axes, lut):
    """The pre-plan sweep: one independent simulate() per point."""
    names = list(axes)
    results = []
    for combo in itertools.product(*(axes[name] for name in names)):
        config = replace(base, **dict(zip(names, combo)))
        results.append(simulate(config, trace, lut))
    return results


def assert_bit_identical(old_results, new_result):
    """Every measured field must match exactly between the two paths."""
    assert len(old_results) == len(new_result)
    for old, point in zip(old_results, new_result):
        new = point.result
        assert old.cache_stats.hits == new.cache_stats.hits
        assert old.cache_stats.misses == new.cache_stats.misses
        assert old.cache_stats.flushes == new.cache_stats.flushes
        assert old.updates_applied == new.updates_applied
        assert old.flush_invalidations == new.flush_invalidations
        assert old.bank_stats == new.bank_stats
        assert old.energy_pj == new.energy_pj
        assert old.baseline_energy_pj == new.baseline_energy_pj
        assert old.lifetime_years == new.lifetime_years


def run_bench(tiny: bool = False, output: Path = DEFAULT_OUTPUT) -> dict:
    base, trace, axes = make_grid(tiny)
    lut = LifetimeLUT.default()  # built outside the timed regions
    points = 1
    for values in axes.values():
        points *= len(values)

    start = time.perf_counter()
    old_results = old_path(base, trace, axes, lut)
    old_seconds = time.perf_counter() - start

    start = time.perf_counter()
    new_result = sweep(base, trace, axes, lut)
    plan_seconds = time.perf_counter() - start

    assert_bit_identical(old_results, new_result)
    payload = {
        "benchmark": "dijkstra",
        "points": points,
        "trace_accesses": len(trace),
        "trace_cycles": trace.horizon,
        "tiny": tiny,
        "host_cpus": os.cpu_count(),
        "old_seconds": round(old_seconds, 4),
        "plan_seconds": round(plan_seconds, 4),
        "speedup": round(old_seconds / plan_seconds, 2),
        "bit_identical": True,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{points}-point sweep on {len(trace):,} accesses: "
        f"old {old_seconds:.2f}s, plan {plan_seconds:.2f}s "
        f"-> {payload['speedup']}x (written to {output})"
    )
    return payload


def test_plan_sweep_fast_and_bitidentical(tmp_path):
    """Pytest entry: tiny grid, exact agreement. Bit-identity is the
    contract pinned here; the speedup is wall-clock-noisy on a tiny
    grid, so the committed full-grid BENCH_sweep.json tracks it."""
    payload = run_bench(tiny=True, output=tmp_path / "BENCH_sweep.json")
    assert payload["bit_identical"]
    assert payload["points"] == 16


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke grid (16 points, short trace)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="where to write the JSON"
    )
    args = parser.parse_args(argv)
    run_bench(tiny=args.tiny, output=args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
