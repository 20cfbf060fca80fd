"""Streaming-pipeline benchmark: peak RSS and throughput, streamed vs one-shot.

The streaming trace pipeline's claim is about *memory*, not speed: a
streamed simulation's peak resident set is bounded by the chunk size
(plus constant engine state), not the trace length, so traces larger
than RAM can be simulated end to end. This benchmark measures that
instead of asserting it:

* **one-shot** — generate the full synthetic trace in memory, simulate
  with the vectorized engine, whose idleness is one arrival-order scan
  of the whole routed trace into a gap spectrum
  (:meth:`~repro.core.plan.TracePlan.idle_gaps`);
* **streamed** — the same workload through
  :meth:`~repro.trace.generator.WorkloadGenerator.stream` and
  :func:`~repro.core.streamsim.simulate_stream`, the same scan carried
  chunk by chunk (:class:`~repro.power.idleness.StreamingGapAccumulator`);
  the trace is never resident.

Each mode runs in its own subprocess (``--mode``), because peak RSS is
a high-water mark of the whole process — the two paths must not share
one. The child reports ``ru_maxrss`` plus the result's integer counters;
the parent asserts the counters agree exactly (same machine simulated)
and writes ``BENCH_stream.json`` with both profiles. The streamed child
can additionally run under an *enforced* address-space cap
(``--rss-cap-mb``, via ``resource.setrlimit``) — CI uses that to turn
"bounded by chunk size" into a hard failure if it regresses. The
default geometry gives a trace horizon ≥ 300× the default chunk, far
past the ≥ 10× the acceptance criterion asks for.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_stream.py                 # full run
    PYTHONPATH=src python benchmarks/bench_stream.py --tiny          # CI smoke
    PYTHONPATH=src python benchmarks/bench_stream.py --windows 50000 # bigger

or through pytest (tiny sizes, counter agreement pinned).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

DEFAULT_WINDOWS = 12000          # × 1024 cycles ≈ 12.3M simulated cycles
DEFAULT_CHUNK_CYCLES = 32768     # horizon / chunk ≈ 375 chunks


def _peak_rss_mb() -> float:
    """Process high-water resident set, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        return peak / (1024 * 1024)
    return peak / 1024


def _build(windows: int):
    from repro.cache.geometry import CacheGeometry
    from repro.core.config import ArchitectureConfig
    from repro.trace.generator import WorkloadGenerator
    from repro.trace.mediabench import profile_for

    geometry = CacheGeometry(16 * 1024, 16)
    generator = WorkloadGenerator(geometry, num_windows=windows)
    profile = profile_for("dijkstra")
    config = ArchitectureConfig(
        geometry,
        num_banks=4,
        policy="probing",
        update_period_cycles=generator.horizon // 16,
    )
    return generator, profile, config


def _counters(result) -> dict:
    return {
        "hits": result.cache_stats.hits,
        "misses": result.cache_stats.misses,
        "flushes": result.cache_stats.flushes,
        "updates_applied": result.updates_applied,
        "flush_invalidations": result.flush_invalidations,
        "sleep_cycles": sum(s.sleep_cycles for s in result.bank_stats),
        "idle_intervals": sum(s.idle_intervals for s in result.bank_stats),
        "bank_accesses": [s.accesses for s in result.bank_stats],
    }


def run_mode(mode: str, windows: int, chunk_cycles: int, rss_cap_mb: int) -> dict:
    """Child entry: one measured simulation, JSON profile on stdout."""
    if rss_cap_mb:
        cap = rss_cap_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    generator, profile, config = _build(windows)
    start = time.perf_counter()
    if mode == "streamed":
        from repro.core.streamsim import simulate_stream

        result = simulate_stream(config, generator.stream(profile, chunk_cycles))
        accesses = result.cache_stats.hits + result.cache_stats.misses
    else:
        from repro.core.simulator import simulate

        trace = generator.generate(profile)
        result = simulate(config, trace, engine="fast")
        accesses = len(trace)
    seconds = time.perf_counter() - start
    return {
        "mode": mode,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "accesses": accesses,
        "accesses_per_sec": round(accesses / seconds, 1),
        "rss_cap_mb": rss_cap_mb,
        "counters": _counters(result),
    }


def _run_child(mode: str, windows: int, chunk_cycles: int, rss_cap_mb: int) -> dict:
    command = [
        sys.executable,
        __file__,
        "--mode",
        mode,
        "--windows",
        str(windows),
        "--chunk-cycles",
        str(chunk_cycles),
        "--rss-cap-mb",
        str(rss_cap_mb),
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        from repro.errors import SimulationError

        raise SimulationError(
            f"{mode} child failed (rc={proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout)


def run_bench(
    windows: int = DEFAULT_WINDOWS,
    chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
    rss_cap_mb: int = 0,
    output: Path = DEFAULT_OUTPUT,
) -> dict:
    horizon = windows * 1024
    streamed = _run_child("streamed", windows, chunk_cycles, rss_cap_mb)
    oneshot = _run_child("oneshot", windows, chunk_cycles, 0)
    assert streamed["counters"] == oneshot["counters"], (
        "streamed and one-shot paths disagree — bit-identity broken"
    )
    payload = {
        "benchmark": "dijkstra",
        "windows": windows,
        "trace_cycles": horizon,
        "trace_accesses": oneshot["accesses"],
        "chunk_cycles": chunk_cycles,
        "horizon_over_chunk": round(horizon / chunk_cycles, 1),
        "streamed": {k: v for k, v in streamed.items() if k != "counters"},
        "oneshot": {k: v for k, v in oneshot.items() if k != "counters"},
        "rss_ratio": round(
            oneshot["peak_rss_mb"] / streamed["peak_rss_mb"], 2
        ),
        "bit_identical": True,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{oneshot['accesses']:,} accesses over {horizon:,} cycles "
        f"({payload['horizon_over_chunk']}x the {chunk_cycles:,}-cycle chunk):\n"
        f"  one-shot: {oneshot['peak_rss_mb']:.0f} MiB peak, "
        f"{oneshot['accesses_per_sec']:,.0f} acc/s\n"
        f"  streamed: {streamed['peak_rss_mb']:.0f} MiB peak"
        + (f" (enforced cap {rss_cap_mb} MiB)" if rss_cap_mb else "")
        + f", {streamed['accesses_per_sec']:,.0f} acc/s\n"
        f"  RSS ratio {payload['rss_ratio']}x (written to {output})"
    )
    return payload


def test_stream_bench_counters_agree(tmp_path):
    """Pytest entry: tiny sizes; pins that both measured paths simulate
    the identical machine (full bit-identity is pinned by
    tests/test_stream.py — this holds the *benchmark harness* honest)."""
    payload = run_bench(
        windows=40,
        chunk_cycles=4096,
        output=tmp_path / "BENCH_stream.json",
    )
    assert payload["bit_identical"]
    assert payload["streamed"]["peak_rss_mb"] > 0
    assert payload["trace_cycles"] == 40 * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["oneshot", "streamed"], default="")
    parser.add_argument("--windows", type=int, default=DEFAULT_WINDOWS)
    parser.add_argument("--chunk-cycles", type=int, default=DEFAULT_CHUNK_CYCLES)
    parser.add_argument(
        "--rss-cap-mb",
        type=int,
        default=0,
        help="enforce this address-space cap (setrlimit) on the streamed run",
    )
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke sizes (fast, still multi-chunk)"
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.mode:
        print(json.dumps(run_mode(args.mode, args.windows, args.chunk_cycles, args.rss_cap_mb)))
        return 0
    windows = 400 if args.tiny else args.windows
    run_bench(
        windows=windows,
        chunk_cycles=args.chunk_cycles,
        rss_cap_mb=args.rss_cap_mb,
        output=args.output,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
