"""Compiled-kernel benchmark: backend speedups per kernel.

One claim gets measured (and written to ``BENCH_kernels.json``):

* **Kernel time** — the five :mod:`repro.kernels` kernels on
  workload-shaped inputs, best compiled backend vs the numpy anchor,
  grouped into the two profiles that dominate the repo's benches:
  ``sweep`` (one-shot gap extract + breakeven thresholding + the LRU
  rank walk, the BENCH_sweep hot path) and ``stream`` (the fused
  carry-state gap fold + carried LRU segments across hundreds of
  chunks, the BENCH_stream hot path). Every timed pair is first checked
  bit-identical; the acceptance target is a >= 5x aggregate speedup per
  profile.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --tiny   # CI smoke

or through pytest (tiny sizes, bit-identity pinned, no speed gate —
speed is hardware-dependent and belongs in the artifact, not the test
suite).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

FULL = {
    "accesses_per_bank": 400_000,
    "num_banks": 4,
    "chunks": 300,
    "chunk_accesses": 5_000,
    "lru_accesses": 800_000,
    "num_sets": 1024,
    "ways": 4,
    "repeats": 5,
}

TINY = {
    "accesses_per_bank": 2_000,
    "num_banks": 4,
    "chunks": 10,
    "chunk_accesses": 500,
    "lru_accesses": 5_000,
    "num_sets": 64,
    "ways": 4,
    "repeats": 2,
}

BREAKEVENS = (5, 10, 20, 50, 100, None)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sorted_bank_stream(rng, accesses_per_bank, num_banks, end):
    banks = [
        np.sort(
            rng.choice(end, size=accesses_per_bank, replace=False)
        ).astype(np.int64)
        for _ in range(num_banks)
    ]
    cycles = np.concatenate(banks)
    splits = np.cumsum([0] + [accesses_per_bank] * num_banks).astype(np.int64)
    return cycles, splits


def bench_kernels(params: dict, compiled: str) -> dict:
    """Per-kernel and per-profile timings, compiled vs numpy."""
    from repro.kernels import dispatch

    rng = np.random.default_rng(2011)
    repeats = params["repeats"]
    num_banks = params["num_banks"]
    be = np.array(
        [-1 if b is None else b for b in BREAKEVENS], dtype=np.int64
    )

    # --- sweep-profile inputs: one whole-trace pass -------------------
    end = params["accesses_per_bank"] * 3
    cycles, splits = _sorted_bank_stream(
        rng, params["accesses_per_bank"], num_banks, end
    )
    n_lru = params["lru_accesses"]
    num_sets, ways = params["num_sets"], params["ways"]
    set_index = np.sort(rng.integers(0, num_sets, size=n_lru)).astype(np.int64)
    lru_tags = rng.integers(0, 64, size=n_lru).astype(np.int64)
    lru_starts = np.searchsorted(set_index, np.arange(num_sets + 1)).astype(
        np.int64
    )

    # --- stream-profile inputs: carry state across chunks -------------
    gap_chunks = []
    window = 4 * params["chunk_accesses"]
    for index in range(params["chunks"]):
        lo = index * window
        per_bank = params["chunk_accesses"] // num_banks
        parts = [
            np.sort(
                rng.choice(
                    np.arange(lo, lo + window), size=per_bank, replace=False
                )
            ).astype(np.int64)
            for _ in range(num_banks)
        ]
        gap_chunks.append(
            (
                np.concatenate(parts),
                np.cumsum([0] + [per_bank] * num_banks).astype(np.int64),
            )
        )
    seg_chunks = []
    for _ in range(params["chunks"]):
        m = params["chunk_accesses"]
        si = np.sort(rng.integers(0, num_sets, size=m)).astype(np.int64)
        st = rng.integers(0, 64, size=m).astype(np.int64)
        seg_chunks.append((si, st))

    def pinned(fn, backend):
        """``fn`` with the process-wide kernel backend pinned to ``backend``."""
        def run():
            with dispatch.use_backend(backend):
                return fn()
        return run

    def run_gap_extract():
        return dispatch.gap_extract(cycles, splits, 0, end)

    gap_values, gap_banks, *_ = pinned(run_gap_extract, "numpy")()

    def run_threshold():
        useful = np.zeros((be.size, num_banks), dtype=np.int64)
        sleep = np.zeros((be.size, num_banks), dtype=np.int64)
        dispatch.gap_threshold_batch(
            gap_values, gap_banks, num_banks, be, useful, sleep
        )
        return useful, sleep

    def run_lru_walk():
        return dispatch.lru_walk(lru_tags, lru_starts, ways)

    def run_stream_fold():
        last_event = np.full(num_banks, -1, dtype=np.int64)
        acc = np.zeros(num_banks, dtype=np.int64)
        intervals = np.zeros(num_banks, dtype=np.int64)
        idle = np.zeros(num_banks, dtype=np.int64)
        useful = np.zeros((be.size, num_banks), dtype=np.int64)
        sleep = np.zeros((be.size, num_banks), dtype=np.int64)
        for chunk_cycles, chunk_splits in gap_chunks:
            dispatch.stream_gap_update(
                chunk_cycles,
                chunk_splits,
                last_event,
                acc,
                intervals,
                idle,
                be,
                useful,
                sleep,
            )
        return last_event, acc, intervals, idle, useful, sleep

    def run_lru_segments():
        stacks = np.full((num_sets, ways), -1, dtype=np.int64)
        hits = 0
        for si, st in seg_chunks:
            hits += dispatch.lru_segment(si, st, stacks)
        return hits, stacks

    def identical(a, b):
        if isinstance(a, tuple):
            return all(identical(x, y) for x, y in zip(a, b))
        if isinstance(a, np.ndarray):
            return bool(np.array_equal(a, b))
        return a == b

    def gap_view(result):
        values, banks, *counters = result
        return (
            sorted(zip(banks.tolist(), values.tolist())),
            tuple(c.tolist() for c in counters),
        )

    kernels = {
        "gap_extract": (run_gap_extract, gap_view, "sweep"),
        "gap_threshold_batch": (run_threshold, None, "sweep"),
        "lru_walk": (run_lru_walk, None, "sweep"),
        "stream_gap_update": (run_stream_fold, None, "stream"),
        "lru_segment": (run_lru_segments, None, "stream"),
    }

    report = {}
    totals = {"sweep": {"numpy": 0.0, compiled: 0.0},
              "stream": {"numpy": 0.0, compiled: 0.0}}
    all_identical = True
    for name, (fn, view, profile) in kernels.items():
        on_numpy, on_compiled = pinned(fn, "numpy"), pinned(fn, compiled)
        ref, got = on_numpy(), on_compiled()
        if view is not None:
            ref, got = view(ref), view(got)
        same = identical(ref, got)
        all_identical = all_identical and same
        t_numpy = _best(on_numpy, repeats)
        t_compiled = _best(on_compiled, repeats)
        totals[profile]["numpy"] += t_numpy
        totals[profile][compiled] += t_compiled
        report[name] = {
            "profile": profile,
            "numpy_ms": round(t_numpy * 1000, 2),
            f"{compiled}_ms": round(t_compiled * 1000, 2),
            "speedup": round(t_numpy / t_compiled, 2),
            "bit_identical": same,
        }
    profiles = {
        profile: {
            "numpy_ms": round(times["numpy"] * 1000, 2),
            f"{compiled}_ms": round(times[compiled] * 1000, 2),
            "speedup": round(times["numpy"] / times[compiled], 2),
        }
        for profile, times in totals.items()
    }
    return {
        "backend": compiled,
        "kernels": report,
        "profiles": profiles,
        "bit_identical": all_identical,
    }


def run_bench(tiny: bool = False, output: Path = DEFAULT_OUTPUT) -> dict:
    from repro.kernels import dispatch

    params = TINY if tiny else FULL
    compiled = dispatch.compiled_backend()
    payload = {
        "tiny": tiny,
        "backends": {
            name: (reason or "available")
            for name, reason in dispatch.backend_status().items()
        },
    }
    if compiled is None:
        # Honest degradation: nothing compiled to measure against. The
        # artifact still records why, so a CI guard leg can assert it.
        payload["kernel_bench"] = None
        payload["bit_identical"] = None
        print("no compiled backend available; kernel bench skipped")
    else:
        payload["kernel_bench"] = bench_kernels(params, compiled)
        payload["bit_identical"] = payload["kernel_bench"]["bit_identical"]
        for profile, times in payload["kernel_bench"]["profiles"].items():
            print(
                f"{profile:>7}: numpy {times['numpy_ms']:.1f} ms, "
                f"{compiled} {times[f'{compiled}_ms']:.1f} ms "
                f"({times['speedup']}x)"
            )
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {output}")
    return payload


def test_kernel_bench_bit_identity(tmp_path):
    """Pytest entry: tiny sizes; pins that everything the benchmark
    times produces bit-identical counters (speedups are hardware facts
    and live in the artifact, not the test suite)."""
    payload = run_bench(tiny=True, output=tmp_path / "BENCH_kernels.json")
    if payload["kernel_bench"] is not None:
        assert payload["kernel_bench"]["bit_identical"]
        for entry in payload["kernel_bench"]["kernels"].values():
            assert entry["bit_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    run_bench(tiny=args.tiny, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
