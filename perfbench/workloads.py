"""The benchmark's three workloads: inputs, timed phases, checks.

Every workload is built from ``seed`` (the ``WorkloadGenerator``
``master_seed``) and hands the library only the generated traces,
streams and specs. ``iteration()`` runs the timed passes once and
returns the seconds of each timed segment, each with the host probe
taken around it; ``rates()`` turns the best seconds of each segment
into the workload's rates; ``check()`` compares the outputs against
independent computations and returns the failures found, plus facts
(counter hash, deterministic ratios) for the meta line. Nothing here
uses more than two worker processes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import statistics
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis.planner import SearchSpec
from repro.analysis.sweep import search_sweep, stream_sweep, sweep
from repro.cache.geometry import CacheGeometry
from repro.campaign.run import run_campaign
from repro.campaign.service.client import ServiceClient
from repro.campaign.service.queue import drain_worker
from repro.campaign.service.server import CampaignServer
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.tracespec import TraceSpec
from repro.core.config import ArchitectureConfig
from repro.core.simulator import simulate
from repro.errors import ServiceError
from repro.trace.generator import WorkloadGenerator
from repro.trace.mediabench import profile_for
from repro.trace.stream import TraceStream, stream_to_trace

# The grid's breakeven axis is bench_search's, so both benchmarks ask
# the same question (run.py puts benchmarks/ on the path).
from bench_search import breakeven_ladder
from tracer import NullTracer

import repro.core.streamsim  # noqa: F401  (loaded before any layer is wrapped)
import repro.estimate.engine  # noqa: F401
import repro.kernels.engine  # noqa: F401

BANKS = (2, 4, 8, 16)
POLICIES = ("static", "probing", "scrambling")
HEADLINE = ("hit_rate", "energy_savings", "lifetime_years")
#: HTTP queries in the campaign's closed loop (1 in 12 each /status,
#: /metrics); 1000 leave ten samples beyond the p99.
QUERIES = 1000
#: Resumes timed after each drain; a resume is short, so the resume
#: rate takes the best of several.
RESUMES = 4
#: In-memory prefix sweeps timed per stream-long iteration (short, like
#: a resume, so the rate takes the best of several).
PREFIX_SWEEPS = 3
PRUNED = SearchSpec(strategy="estimator-pruned")


class HostProbe:
    """A fixed ~40 ms of interpreter and numpy work that times the host.

    The host's speed changes by up to 1.7x from one stretch of seconds
    to the next (other tenants share its cores), and the probe slows
    down with it. Every timed segment is bracketed by two probes, and
    ``REFERENCE_PROBE_S / mean(probes)`` scales its seconds to a host
    on which the probe takes ``REFERENCE_PROBE_S``. A set-up lasts
    longer than two probes can follow, so set-up time is scaled by the
    median of all the run's ``samples`` instead, which follows the
    host's drift from one minute to the next. The probe touches
    no library code, so a change to the library cannot move it. The
    cyclic garbage collector is paused while it runs: otherwise its
    allocations trigger collections of whatever the timed segment left
    alive, and the probe would time the heap instead of the host. Never
    change the probe's work: every recorded metric is in its units.
    """

    def __init__(self) -> None:
        self._keys = np.random.default_rng(2011).integers(0, 1 << 40, 262_144)
        #: Every probe's seconds, in order.
        self.samples: list[float] = []

    def __call__(self) -> float:
        gc.disable()
        try:
            start = perf_counter()
            rows = [{"i": i, "k": i * 7919 % 1009} for i in range(20_000)]
            rows.sort(key=lambda row: row["k"])
            sum(row["i"] for row in rows)
            np.argsort(self._keys, kind="stable")
            seconds = perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(seconds)
        return seconds


#: Probe seconds of the reference host the scaled metrics describe.
REFERENCE_PROBE_S = 0.040


def no_probe() -> float:
    """Stand-in probe for traced runs: every scale is exactly 1."""
    return REFERENCE_PROBE_S


def measure(probe, call):
    """``(result, seconds, probe seconds)`` of ``call()``, probed on both sides."""
    before = probe()
    start = perf_counter()
    result = call()
    seconds = perf_counter() - start
    return result, seconds, (before + probe()) / 2


def grid_540(geometry: CacheGeometry, horizon: int) -> tuple[ArchitectureConfig, dict]:
    """The 540-point grid: 4 bank counts x 3 policies x 5 periods x 9 breakevens."""
    axes = {
        "num_banks": list(BANKS),
        "policy": list(POLICIES),
        "update_period_cycles": [horizon // d for d in (4, 8, 16, 32, 64)],
        "breakeven_override": breakeven_ladder(9),
    }
    base = ArchitectureConfig(
        geometry, num_banks=4, policy="probing", update_period_cycles=horizon // 8
    )
    return base, axes


def counters(result) -> list[int]:
    """Every integer counter of a result, in a fixed order."""
    stats = result.cache_stats
    values = [
        stats.hits,
        stats.misses,
        stats.flushes,
        result.updates_applied,
        result.flush_invalidations,
    ]
    for bank in result.bank_stats:
        values += [
            bank.accesses,
            bank.idle_intervals,
            bank.useful_intervals,
            bank.idle_cycles,
            bank.sleep_cycles,
            bank.transitions,
            bank.total_cycles,
        ]
    return [int(v) for v in values]


def fingerprint(result) -> tuple:
    """Counters plus the headline metrics, compared exactly."""
    return tuple(counters(result)) + tuple(getattr(result, m) for m in HEADLINE)


def counters_sha256(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(counters(result)).encode())
    return digest.hexdigest()


def params_key(parameters: dict) -> tuple:
    return tuple(sorted(parameters.items()))


@dataclass
class Iteration:
    """One pass through a workload's timed phases."""

    #: Seconds of each timed segment (a library call or pass).
    seconds: dict[str, float]
    #: Host probe seconds around each segment, by the same keys.
    probes: dict[str, float]
    attempted: int
    sha: str
    failed: int = 0
    #: Query latencies in seconds (campaign-service only).
    latencies: list[float] = field(default_factory=list)


class GridMemory:
    """Three in-memory traces, each swept over the 540-point grid twice."""

    name = "grid-memory"
    traces = (("dijkstra", 1), ("adpcm.dec", 1), ("sha", 4))

    def __init__(self, seed: int, lut, workdir: Path, traced: bool = False) -> None:
        self.seed = seed
        self.lut = lut
        self.cases = []
        for benchmark, ways in self.traces:
            geometry = CacheGeometry(16 * 1024, 16, ways)
            trace = WorkloadGenerator(
                geometry, num_windows=240, master_seed=seed
            ).generate(profile_for(benchmark))
            self.cases.append((trace, *grid_540(geometry, trace.horizon)))
        self.points = 540 * len(self.cases)
        self.accesses = sum(len(case[0]) for case in self.cases)
        self.first: dict | None = None
        self.errors: list[str] = []
        self.probe = no_probe

    def iteration(self, tracer) -> Iteration:
        seconds: dict[str, float] = {}
        probes: dict[str, float] = {}
        exhaustive, guided = [], []
        with tracer.phase("sweep"):
            for trace, base, axes in self.cases:
                key = f"sweep:{trace.name}"
                result, seconds[key], probes[key] = measure(
                    self.probe, lambda: sweep(base, trace, axes, lut=self.lut)
                )
                exhaustive.append(result)
        with tracer.phase("search"):
            for trace, base, axes in self.cases:
                key = f"search:{trace.name}"
                result, seconds[key], probes[key] = measure(
                    self.probe,
                    lambda: search_sweep(base, trace, axes, search=PRUNED, lut=self.lut),
                )
                guided.append(result)
        if self.first is None:
            self.first = {"exhaustive": exhaustive, "guided": guided}
        return Iteration(
            seconds=seconds,
            probes=probes,
            attempted=2 * len(self.cases),
            sha=counters_sha256(p.result for r in exhaustive for p in r),
        )

    def rates(self, best: dict[str, float]) -> dict[str, float]:
        """Exhaustive and guided points per second from the best segment times."""
        sweep_s = sum(t for key, t in best.items() if key.startswith("sweep:"))
        search_s = sum(t for key, t in best.items() if key.startswith("search:"))
        return {
            "points_per_s": self.points / sweep_s,
            "alt_points_per_s": self.points / search_s,
            "sweep_accesses_per_s": self.accesses / sweep_s,
        }

    def check(self, iterations: list[Iteration]) -> tuple[list[str], dict]:
        errors = list(self.errors)
        shas = {it.sha for it in iterations}
        if len(shas) != 1:
            errors.append("exhaustive counters differ between iterations")
        rng = random.Random(self.seed)
        simulated = 0
        energy_err = 0.0
        for (trace, base, axes), exhaustive, guided in zip(
            self.cases, self.first["exhaustive"], self.first["guided"]
        ):
            by_params = {params_key(p.parameters): p.result for p in exhaustive}
            # Guided points equal the exhaustive points at the same position.
            for point in guided.simulated:
                if fingerprint(point.result) != fingerprint(by_params[params_key(point.parameters)]):
                    errors.append(f"{trace.name}: guided point {point.parameters} differs")
            for metric in HEADLINE:
                if guided.simulated.best(metric).value(metric) != exhaustive.best(metric).value(metric):
                    errors.append(f"{trace.name}: guided search missed the best {metric}")
            estimates = {params_key(p.parameters): p.result for p in guided.estimates}
            for point in guided.simulated:
                estimate = estimates[params_key(point.parameters)]
                energy_err = max(
                    energy_err, abs(estimate.energy_savings - point.result.energy_savings)
                )
            simulated += len(guided.simulated)
            # A seeded sample against the numpy kernels, and one point
            # (on a trace chosen by the seed) against the reference oracle.
            sample = rng.sample(list(exhaustive.points), 4)
            oracle = sample[:1] if trace is self.cases[self.seed % 3][0] else []
            for engine, points in (("reference", oracle), ("fast", sample)):
                for point in points:
                    config = replace(base, **point.parameters)
                    other = simulate(config, trace, self.lut, engine=engine)
                    if fingerprint(other) != fingerprint(point.result):
                        errors.append(f"{trace.name}: {engine} engine differs at {point.parameters}")
        facts = {
            "counters_sha256": shas.pop() if len(shas) == 1 else "mismatch",
            "search_sim_frac": simulated / self.points,
            "est_energy_err": energy_err,
            "trace_accesses": self.accesses,
        }
        return errors, facts


class PrefixStream(TraceStream):
    """The first ``cycles`` cycles of another stream (chunk-aligned)."""

    def __init__(self, stream: TraceStream, cycles: int) -> None:
        self.stream = stream
        self.chunk_cycles = stream.chunk_cycles
        self.horizon = cycles
        self.name = stream.name

    def chunks(self):
        for chunk in self.stream.chunks():
            if chunk.end_cycle > self.horizon:
                return
            yield chunk


class StreamLong:
    """One long dijkstra stream through a single serial stream_sweep pass.

    Each iteration also sweeps the grid in memory over the stream's
    first 240 windows (``PREFIX_SWEEPS`` times, each timed), and
    streams, untimed, a short 4-way stream of the same
    seed so the carried-LRU kernel runs; both small runs are checked
    against their counterpart (streamed prefix, in-memory 4-way trace).
    """

    name = "stream-long"
    windows = 4800
    prefix_windows = 240
    chunk_cycles = 32768

    def __init__(self, seed: int, lut, workdir: Path, traced: bool = False) -> None:
        self.lut = lut
        geometry = CacheGeometry(16 * 1024, 16)
        self.generator = WorkloadGenerator(geometry, num_windows=self.windows, master_seed=seed)
        self.profile = profile_for("dijkstra")
        horizon = self.generator.horizon
        self.axes = {
            "num_banks": list(BANKS),
            "policy": list(POLICIES),
            "update_period_cycles": [horizon // 64, horizon // 256],
            "breakeven_override": [5, 50, 500, 5000],
        }
        self.base = ArchitectureConfig(
            geometry, num_banks=4, policy="probing", update_period_cycles=horizon // 64
        )
        self.points = 4 * 3 * 2 * 4
        self.prefix_trace = stream_to_trace(self._prefix_stream())
        lru_geometry = CacheGeometry(16 * 1024, 16, 4)
        self.lru_base = replace(self.base, geometry=lru_geometry)
        self.lru_generator = WorkloadGenerator(
            lru_geometry, num_windows=self.prefix_windows, master_seed=seed
        )
        self.first: dict | None = None
        self.errors: list[str] = []
        self.probe = no_probe

    def _stream(self) -> TraceStream:
        return self.generator.stream(self.profile, self.chunk_cycles)

    def _prefix_stream(self) -> TraceStream:
        return PrefixStream(self._stream(), self.prefix_windows * self.generator.window_cycles)

    def iteration(self, tracer) -> Iteration:
        seconds: dict[str, float] = {}
        probes: dict[str, float] = {}
        with tracer.phase("stream"):
            streamed, seconds["stream"], probes["stream"] = measure(
                self.probe, lambda: stream_sweep(self.base, self._stream(), self.axes, lut=self.lut)
            )
        with tracer.phase("memory"):
            for r in range(PREFIX_SWEEPS):
                key = f"memory:{r}"
                prefix, seconds[key], probes[key] = measure(
                    self.probe, lambda: sweep(self.base, self.prefix_trace, self.axes, lut=self.lut)
                )
        with tracer.phase("lru"):
            # Untimed: it runs the carried-LRU kernel and feeds the 4-way check.
            lru_stream = self.lru_generator.stream(self.profile, self.chunk_cycles)
            lru = stream_sweep(self.lru_base, lru_stream, self.axes, lut=self.lut)
        if self.first is None:
            self.first = {"streamed": streamed, "prefix": prefix, "lru": lru}
        stats = streamed.points[0].result.cache_stats
        self.accesses = stats.hits + stats.misses
        return Iteration(
            seconds=seconds,
            probes=probes,
            attempted=2 + PREFIX_SWEEPS,
            sha=counters_sha256(p.result for p in streamed),
        )

    def rates(self, best: dict[str, float]) -> dict[str, float]:
        """Streamed and in-memory prefix points per second, and stream accesses."""
        return {
            "points_per_s": self.points / best["stream"],
            "alt_points_per_s": self.points
            / min(t for key, t in best.items() if key.startswith("memory:")),
            "stream_accesses_per_s": self.accesses / best["stream"],
        }

    def check(self, iterations: list[Iteration]) -> tuple[list[str], dict]:
        errors = list(self.errors)
        shas = {it.sha for it in iterations}
        if len(shas) != 1:
            errors.append("streamed counters differ between iterations")
        # The streamed pass over the prefix equals the in-memory run on it.
        prefix_streamed = stream_sweep(self.base, self._prefix_stream(), self.axes, lut=self.lut)
        lru_memory = sweep(
            self.lru_base, self.lru_generator.generate(self.profile), self.axes, lut=self.lut
        )
        for name, streamed_points, memory_points in (
            ("prefix", prefix_streamed, self.first["prefix"]),
            ("4-way", self.first["lru"], lru_memory),
        ):
            for streamed, memory in zip(streamed_points, memory_points):
                if streamed.parameters != memory.parameters or fingerprint(
                    streamed.result
                ) != fingerprint(memory.result):
                    errors.append(f"{name}: streamed and in-memory differ at {memory.parameters}")
        stats = self.first["streamed"].points[0].result.cache_stats
        facts = {
            "counters_sha256": shas.pop() if len(shas) == 1 else "mismatch",
            "stream_accesses": stats.hits + stats.misses,
            "prefix_accesses": len(self.prefix_trace),
        }
        return errors, facts


class CampaignService:
    """A persisted 540-point campaign: drain, resume, then HTTP queries.

    Every iteration drains into a fresh store, resumes it ``RESUMES``
    times and deletes it once it is audited. A timed run keeps the
    first iteration's store and runs the query loop on it in
    ``check()``, after the timed window, which then holds more drains;
    a traced run queries every iteration, so its overhead compares
    like with like. ``traced`` drains with two in-process
    ``drain_worker`` threads instead of ``run_campaign(workers=2)``'s
    process pool, so a traced run sees the claim loop's spans (pool
    workers' spans would stay in the workers).
    """

    name = "campaign-service"

    def __init__(self, seed: int, lut, workdir: Path, traced: bool = False) -> None:
        self.lut = lut
        self.workdir = workdir
        self.traced = traced
        trace_spec = TraceSpec.synthetic("dijkstra", num_windows=60, master_seed=seed)
        self.trace = trace_spec.build()
        base, axes = grid_540(CacheGeometry(16 * 1024, 16), self.trace.horizon)
        self.spec = CampaignSpec(
            name=f"perfbench-{seed}", traces=(trace_spec,), base=base, axes=axes
        )
        self.points = self.spec.num_points()
        self.first: dict | None = None
        self.errors: list[str] = []
        self.probe = no_probe
        self._runs = 0

    def _drain(self, directory: Path, tracer) -> int:
        if not self.traced:
            with tracer.phase("write"):
                return run_campaign(self.spec, directory, lut=self.lut, workers=2).simulated
        counts = [0, 0]

        def work(ordinal: int) -> None:
            with tracer.phase("write"):
                counts[ordinal] = drain_worker(
                    self.spec, directory, lut=self.lut, worker_id=f"perfbench-w{ordinal}"
                )

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(counts)

    def iteration(self, tracer) -> Iteration:
        directory = self.workdir / f"store-{self._runs}"
        first = self._runs == 0
        self._runs += 1
        shutil.rmtree(directory, ignore_errors=True)
        seconds: dict[str, float] = {}
        probes: dict[str, float] = {}
        simulated, seconds["drain"], probes["drain"] = measure(
            self.probe, lambda: self._drain(directory, tracer)
        )
        resimulated = 0
        with tracer.phase("resume"):
            for r in range(RESUMES):
                key = f"resume:{r}"
                resumed, seconds[key], probes[key] = measure(
                    self.probe, lambda: run_campaign(self.spec, directory, lut=self.lut, workers=2)
                )
                resimulated += resumed.simulated
        if simulated != self.points or resimulated != 0:
            self.errors.append(f"drain simulated {simulated}, resumes simulated {resimulated}")
        latencies, failed = self._queries(directory, tracer) if self.traced else ([], 0)
        duplicates, commits = _commit_audit(directory)
        if commits != self.points:
            self.errors.append(f"commit logs name {commits} simulations, expected {self.points}")
        stored = self._stored(directory)
        if first:
            self.first = {"stored": stored, "directory": directory}
        else:
            shutil.rmtree(directory, ignore_errors=True)
        return Iteration(
            seconds=seconds,
            probes=probes,
            latencies=latencies,
            attempted=1 + RESUMES + len(latencies) + self.points,
            failed=failed + duplicates,
            sha=counters_sha256(result for _, result in stored),
        )

    def rates(self, best: dict[str, float]) -> dict[str, float]:
        """Drained and resumed points per second."""
        return {
            "points_per_s": self.points / best["drain"],
            "alt_points_per_s": self.points
            / min(t for key, t in best.items() if key.startswith("resume:")),
        }

    def _queries(self, directory: Path, tracer) -> tuple[list[float], int]:
        """A closed loop of HTTP queries from one client, no think time."""
        server = CampaignServer(directory, lut=self.lut)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        failed = 0
        latencies: list[float] = []
        try:
            client = ServiceClient(server.url)
            with tracer.phase("query"):
                for i in range(QUERIES):
                    kind = i % 12
                    start = perf_counter()
                    try:
                        if kind == 0:
                            client.status()
                        elif kind == 6:
                            client.metrics()
                        else:
                            client.records(limit=20, num_banks=BANKS[i % 4], policy=POLICIES[i % 3])
                    except ServiceError:
                        failed += 1
                    latencies.append(perf_counter() - start)
            store = CampaignStore(directory)
            for banks in BANKS:
                for policy in POLICIES:
                    served = client.records(limit=20, num_banks=banks, policy=policy)["records"]
                    if served != store.where(limit=20, num_banks=banks, policy=policy):
                        self.errors.append(f"/records rows differ from store.where for {banks}/{policy}")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        return latencies, failed

    def _stored(self, directory: Path) -> list:
        store = CampaignStore(directory)
        trace_spec = self.spec.traces[0]
        return [
            (point.parameters, store.get_result(point.key(), lut=self.lut))
            for point in self.spec.trace_points(trace_spec)
        ]

    def check(self, iterations: list[Iteration]) -> tuple[list[str], dict]:
        if not self.traced:
            # The timed run's query loop, on the first iteration's store.
            latencies, failed = self._queries(self.first["directory"], NullTracer())
            iterations[0].latencies += latencies
            iterations[0].attempted += len(latencies)
            iterations[0].failed += failed
        shutil.rmtree(self.first["directory"], ignore_errors=True)
        errors = list(self.errors)
        shas = {it.sha for it in iterations}
        if len(shas) != 1:
            errors.append("stored counters differ between iterations")
        memory = sweep(self.spec.base, self.trace, self.spec.axes, lut=self.lut)
        by_params = {params_key(p.parameters): p.result for p in memory}
        for parameters, result in self.first["stored"]:
            if result is None or fingerprint(result) != fingerprint(
                by_params[params_key(parameters)]
            ):
                errors.append(f"stored record differs from in-memory at {parameters}")
        latencies = [lat for it in iterations for lat in it.latencies]
        facts = {
            "counters_sha256": shas.pop() if len(shas) == 1 else "mismatch",
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p99_ms": 1e3 * statistics.quantiles(latencies, n=100)[98],
            "queries": len(latencies),
        }
        return errors, facts


def _commit_audit(directory: Path) -> tuple[int, int]:
    """(points committed more than once, total commits) from the queue logs."""
    seen: dict[tuple[str, str], int] = {}
    for log in (directory / "queue-log").glob("*.jsonl"):
        for line in log.read_text().splitlines():
            entry = json.loads(line)
            key = (entry["trace_hash"], entry["config_hash"])
            seen[key] = seen.get(key, 0) + 1
    duplicates = sum(count - 1 for count in seen.values())
    return duplicates, sum(seen.values())


WORKLOADS = {w.name: w for w in (GridMemory, StreamLong, CampaignService)}
