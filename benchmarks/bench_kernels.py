"""Compiled-kernel benchmark: backend speedups per kernel.

One claim gets measured (and written to ``BENCH_kernels.json``):

* **Kernel time** — the :mod:`repro.kernels` kernels on
  workload-shaped inputs, best compiled backend vs the numpy anchor,
  grouped into the two profiles that dominate the repo's benches:
  ``sweep`` (the one-shot arrival-order gap scan of a whole routed
  trace into a gap spectrum, thresholding that spectrum at a breakeven
  vector, and the one-shot cache scan counting a whole trace's hits
  and flushes from cold stacks: the BENCH_sweep hot path) and
  ``stream`` (both scans carried across hundreds of chunks: the
  BENCH_stream hot path). Thresholding has
  one numpy implementation on every backend, so its speedup is about
  1x by design. Every timed pair is first checked bit-identical.

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
from dataclasses import replace
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

FULL = {
    "accesses_per_bank": 400_000,
    "num_banks": 4,
    "epochs": 64,
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
    "epochs": 8,
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


def _routed_run(rng, accesses, lo, hi, num_sets, num_banks, epochs):
    """An arrival-order run of ``accesses`` in ``[lo, hi)``: cycles, set
    indices, epoch brackets and one rotated bank table per epoch, the
    shape :meth:`repro.core.plan.TracePlan.route` hands the scan."""
    cycles = np.sort(rng.choice(np.arange(lo, hi), size=accesses, replace=False))
    index = rng.integers(0, num_sets, size=accesses).astype(np.int64)
    starts = np.linspace(0, accesses, epochs + 1).astype(np.int64)
    tables = np.stack(
        [np.roll(np.arange(num_banks, dtype=np.uint8), e) for e in range(epochs)]
    )
    shift = int(np.log2(num_sets)) - int(np.log2(num_banks))
    return cycles.astype(np.int64), index, starts, tables, shift


def bench_kernels(params: dict, compiled: str) -> dict:
    """Per-kernel and per-profile timings, compiled vs numpy."""
    from repro.kernels import dispatch
    from repro.power.idleness import BankRouting, GapSpectrum, spectrum_cutoff

    rng = np.random.default_rng(2011)
    repeats = params["repeats"]
    num_banks = params["num_banks"]

    # --- sweep-profile inputs: one whole-trace pass -------------------
    num_sets = params["num_sets"]
    accesses = params["accesses_per_bank"] * num_banks
    end = accesses * 3
    run = _routed_run(rng, accesses, 0, end, num_sets, num_banks, params["epochs"])
    cutoff = spectrum_cutoff(num_banks)
    n_lru = params["lru_accesses"]
    ways = params["ways"]
    set_index = rng.integers(0, num_sets, size=n_lru).astype(np.int64)
    lru_tags = rng.integers(0, 64, size=n_lru).astype(np.int64)
    lru_starts = np.linspace(0, n_lru, params["epochs"] + 1).astype(np.int64)

    # --- stream-profile inputs: carry state across chunks -------------
    window = 4 * params["chunk_accesses"]
    gap_chunks = [
        _routed_run(
            rng, params["chunk_accesses"], index * window, (index + 1) * window,
            num_sets, num_banks, 1,
        )
        for index in range(params["chunks"])
    ]
    seg_chunks = []
    for _ in range(params["chunks"]):
        # Arrival order, an update half-way through each chunk.
        m = params["chunk_accesses"]
        si = rng.integers(0, num_sets, size=m).astype(np.int64)
        st = rng.integers(0, 64, size=m).astype(np.int64)
        seg_chunks.append((si, st, np.array([0, m // 2, m], dtype=np.int64)))

    def pinned(fn, backend):
        """``fn`` with the process-wide kernel backend pinned to ``backend``."""
        def run():
            with dispatch.use_backend(backend):
                return fn()
        return run

    def fresh_state():
        return (
            np.full(num_banks, -1, dtype=np.int64),
            np.zeros(num_banks, dtype=np.int64),
            np.zeros((num_banks, cutoff), dtype=np.int64),
        )

    def counted(last, accesses, dense, banks, lengths):
        """Backend-independent view: the overflow gaps' order is the
        backend's, their multiset is not."""
        return last, accesses, dense, tuple(sorted(zip(banks.tolist(), lengths.tolist())))

    def run_gap_extract():
        last, counts, dense = fresh_state()
        banks, lengths = dispatch.gap_extract(*run, last, counts, dense)
        return counted(last, counts, dense, banks, lengths)

    spectrum = GapSpectrum.scan([BankRouting(*run)], num_banks, 0, end)

    def run_threshold():
        # A fresh copy each time, so the suffix sums are timed too.
        table = replace(spectrum).threshold(BREAKEVENS)
        return table.useful, table.sleep

    def run_lru_walk():
        return dispatch.lru_walk(set_index, lru_tags, lru_starts, num_sets, ways)

    def run_stream_fold():
        last, counts, dense = fresh_state()
        overflow = []
        for chunk in gap_chunks:
            overflow.append(dispatch.stream_gap_update(*chunk, last, counts, dense))
        banks = np.concatenate([b for b, _ in overflow])
        lengths = np.concatenate([g for _, g in overflow])
        return counted(last, counts, dense, banks, lengths)

    def run_lru_segments():
        stacks = np.full((num_sets, ways), -1, dtype=np.int64)
        hits = flushed = 0
        for chunk in seg_chunks:
            chunk_hits, chunk_flushed = dispatch.lru_segment(*chunk, stacks)
            hits += chunk_hits
            flushed += chunk_flushed
        return hits, flushed, stacks

    def identical(a, b):
        if isinstance(a, tuple):
            return all(identical(x, y) for x, y in zip(a, b))
        if isinstance(a, np.ndarray):
            return bool(np.array_equal(a, b))
        return a == b

    kernels = {
        "gap_extract": (run_gap_extract, None, "sweep"),
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
