"""Campaign execution: run only what the store does not already hold.

:func:`run_campaign` walks a :class:`~repro.campaign.spec.CampaignSpec`
point by point, asks the :class:`~repro.campaign.store.CampaignStore`
for each ``(trace_hash, config_hash)`` identity, and simulates *only*
the missing points — through
:func:`repro.analysis.sweep.simulate_selected`, the same executor as a
sweep, over the spec's :class:`~repro.analysis.planner.PlannedGrid`.
Missing points on one trace therefore still share a single
:class:`~repro.core.plan.TracePlan`, points differing only in
``breakeven_override`` collapse into one batched gap computation, and
``parallel=N`` fans chunks out over processes. A trace that opts into
chunked loading is handed over as its stream factory instead: one
shared pass serially, or with ``parallel=N`` one pass per grid chunk,
each worker re-opening the stream — still bit-identical to the serial
and in-memory paths.
Guided campaigns run the planner's one guided-search loop,
:func:`~repro.analysis.planner.run_search`, with the store as its
result cache; ``workers=N`` drains through the claim queue
(:mod:`repro.campaign.service.queue`).

Consequences (pinned by the tests):

* running the same spec twice simulates **zero** points the second
  time — including after an interruption, because every finished point
  was already persisted atomically;
* widening an axis simulates only the new points;
* a trace is not even materialized unless one of its points is missing,
  so resuming a finished campaign costs only hash computations, plus
  one index query per trace that re-adds the rows of record files a
  crash left unindexed (:meth:`~repro.campaign.store.CampaignStore.reconcile`);
* results are committed one breakeven group at a time
  (:meth:`~repro.campaign.store.CampaignStore.put_group`), so an
  interruption loses at most the groups still in flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import PlannedGrid, SearchSpec, run_search
from repro.analysis.sweep import simulate_selected
from repro.campaign.spec import CampaignPointSpec, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.tracespec import TraceSpec
from repro.core.plan import TracePlan
from repro.core.serialize import ResultRecord, write_json_atomic
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CampaignPoint:
    """One finished campaign point and its stored record."""

    trace: TraceSpec
    parameters: dict
    trace_hash: str
    config_hash: str
    record: ResultRecord

    def value(self, metric: str):
        """Read a metric off the record by attribute name."""
        return getattr(self.record, metric)


@dataclass(frozen=True)
class CampaignResult:
    """All points of one campaign run, plus what the run actually did.

    ``estimated`` counts fresh estimator evaluations performed by a
    guided (non-exhaustive) run; exhaustive runs never estimate. For a
    guided run ``points`` holds only the grid points with a
    *simulated* record (survivors plus anything already stored) — the
    estimated tier lives in the store under its own keys.
    """

    spec: CampaignSpec
    points: tuple[CampaignPoint, ...]
    simulated: int
    reused: int
    estimated: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def records(self) -> list[ResultRecord]:
        """The records in grid order."""
        return [p.record for p in self.points]


@dataclass(frozen=True)
class CampaignStatus:
    """Store coverage of a spec without running anything.

    ``estimated`` counts grid points covered at the *estimate* fidelity
    tier (guided runs screen points there first); ``done`` counts only
    the spec's own fidelity — an estimated record never satisfies a
    simulating spec's point.
    """

    total: int
    done: int
    estimated: int = 0

    @property
    def missing(self) -> int:
        """Points not yet in the store."""
        return self.total - self.done


def _streaming_source(spec: CampaignSpec, trace_spec: TraceSpec):
    """A factory for the chunked stream, or ``None`` for in-memory.

    A spec opts in per trace (``chunk_cycles > 0`` on the trace
    source); the opt-in is honored only when the spec's engine exposes
    the streaming capability for the base configuration — otherwise the
    runner quietly falls back to materializing, since the stored
    records are bit-identical either way. The *factory* (the spec's
    bound ``stream`` method, picklable) is returned rather than an
    opened stream so each worker of a ``parallel=N`` fan-out can
    re-open the stream.
    """
    from repro.campaign.tracespec import trace_source
    from repro.core.engine import resolve_engine, supports_streaming

    if (
        trace_source(trace_spec.kind).stream_build is None
        or not trace_spec.params.get("chunk_cycles", 0)
        or not supports_streaming(resolve_engine(spec.engine, spec.base))
    ):
        return None
    return trace_spec.stream


def campaign_status(spec: CampaignSpec, store: CampaignStore) -> CampaignStatus:
    """How much of ``spec`` the store already holds."""
    total = 0
    done = 0
    estimated = 0
    for point in spec.points():
        total += 1
        if point.key() in store:
            done += 1
        if point.fidelity != "estimate" and point.key_at("estimate") in store:
            estimated += 1
    return CampaignStatus(total=total, done=done, estimated=estimated)


def _missing_indices(store: CampaignStore, keys: list[tuple[str, str]]) -> list[int]:
    """Indices of absent keys; a key repeated by an axis value counts once."""
    first: dict[tuple[str, str], int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return [i for key, i in first.items() if key not in store]


def status_payload(spec: CampaignSpec, store: CampaignStore) -> dict:
    """Machine-readable status — one code path for CLI and HTTP server.

    ``repro campaign status --json`` prints exactly this payload and
    the service front-end's ``GET /status`` embeds it per spec, so the
    CI smoke and a remote client read the same numbers. Served from
    membership checks only: no result file is opened.
    """
    status = campaign_status(spec, store)
    return {
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "total": status.total,
        "done": status.done,
        "missing": status.missing,
        "estimated": status.estimated,
        "strategy": spec.search.strategy if spec.search is not None else "exhaustive",
        "traces": len(spec.traces),
        "points_per_trace": len(spec.combos()),
    }


def _write_manifest(spec: CampaignSpec, store: CampaignStore) -> None:
    """Record the latest spec (and its hash) in the campaign directory."""
    if store.directory is None:
        return
    os.makedirs(store.directory, exist_ok=True)
    write_json_atomic(
        os.path.join(store.directory, "campaign.json"),
        {"spec": spec.to_dict(), "spec_hash": spec.spec_hash()},
    )


def _stored_points(
    store: CampaignStore,
    trace_spec: TraceSpec,
    points: list[CampaignPointSpec],
    keys: list[tuple[str, str]],
) -> list[CampaignPoint]:
    """The points of one trace that hold a stored record, in grid order."""
    collected: list[CampaignPoint] = []
    for point, key in zip(points, keys):
        record = store.get_record(key)
        if record is None:
            continue  # pruned by a guided search — no simulated record
        collected.append(
            CampaignPoint(
                trace=trace_spec,
                parameters=point.parameters,
                trace_hash=key[0],
                config_hash=key[1],
                record=record,
            )
        )
    return collected


class _StoreView:
    """One trace's store records by grid index (a ``run_search`` cache)."""

    def __init__(
        self, store: CampaignStore, keys: list[tuple[str, str]], lut: LifetimeLUT
    ) -> None:
        self.store = store
        self.keys = keys
        self.lut = lut

    def __contains__(self, index: int) -> bool:
        return self.keys[index] in self.store

    def __getitem__(self, index: int):
        return self.store.get_result(self.keys[index], lut=self.lut)

    def __setitem__(self, index: int, result) -> None:
        self.store.put(self.keys[index], result)


def _resolve_search(
    spec: CampaignSpec, search: "SearchSpec | str | None"
) -> SearchSpec | None:
    """The effective search block: call-site override, then the spec's.

    Returns ``None`` for exhaustive execution (also when the resolved
    block names the ``exhaustive`` strategy — that *is* the classic
    path, bit-identically).
    """
    if search is None:
        search = spec.search
    elif isinstance(search, str):
        search = SearchSpec(strategy=search)
    if search is None or search.strategy == "exhaustive":
        return None
    return search


def _check_guided(spec: CampaignSpec) -> None:
    """Reject engines a guided search cannot screen for."""
    from repro.core.engine import result_family, result_fidelity

    if result_family(spec.engine) != "banked":
        raise ConfigurationError(
            f"guided search needs a banked-family engine — the estimator "
            f"predicts the banked machine, so its screening is "
            f"meaningless for {spec.engine!r}; run strategy 'exhaustive' "
            "instead"
        )
    if result_fidelity(spec.engine) == "estimate":
        raise ConfigurationError(
            "guided search screens with the estimator and simulates "
            "survivors; a campaign whose engine is already the "
            "estimator has nothing to prune — use strategy 'exhaustive'"
        )


def _simulate_points(
    spec: CampaignSpec,
    grid: PlannedGrid,
    source,
    indices: list[int],
    lut: LifetimeLUT,
    parallel: int | None,
    on_result,
    plan: TracePlan | None = None,
    engine: str | None = None,
) -> None:
    """Evaluate the grid points at ``indices`` from one trace's source,
    on ``engine`` (the spec's when ``None``)."""
    simulate_selected(
        spec.base,
        source,
        grid.names,
        [grid.combos[i] for i in indices],
        group_ids=grid.subset_group_ids(indices),
        lut=lut,
        engine=spec.engine if engine is None else engine,
        parallel=parallel,
        plan=plan,
        on_result=on_result,
    )


def _once_per_key(keys: list[tuple[str, str]], evaluate):
    """``evaluate`` over the first index of each distinct store key in
    a batch: an axis value repeated in a spec names one stored point,
    which is evaluated (and counted) once, as on the exhaustive path."""

    def run(indices: list[int], on_result) -> None:
        first: dict[tuple[str, str], int] = {}
        for position, index in enumerate(indices):
            first.setdefault(keys[index], position)
        positions = list(first.values())
        evaluate(
            [indices[p] for p in positions],
            lambda done, results: on_result([positions[d] for d in done], results),
        )

    return run


def _search_trace(
    spec: CampaignSpec,
    grid: PlannedGrid,
    store: CampaignStore,
    search: SearchSpec,
    points: list[CampaignPointSpec],
    keys: list[tuple[str, str]],
    lut: LifetimeLUT,
    parallel: int | None,
    counts: dict[str, int],
) -> None:
    """Guided search over one trace, with the store as the result cache.

    Every estimate is persisted under the point's *estimate*-fidelity
    key and every simulation under its plain key, so guided and
    exhaustive runs of one spec share simulated records, and a later
    exhaustive run only fills in the points the strategy pruned.
    ``counts`` accumulates the fresh simulations and estimates.
    Estimates run serially on the shared plan, batched by breakeven
    group like simulations, and are persisted group by group.
    """
    if all(key in store for key in keys):
        return
    trace = points[0].trace.build()
    plan = TracePlan(trace)

    def simulate(indices: list[int], on_result) -> None:
        _simulate_points(spec, grid, trace, indices, lut, parallel, on_result, plan)
        counts["simulated"] += len(indices)

    def estimate(indices: list[int], on_result) -> None:
        _simulate_points(
            spec, grid, trace, indices, lut, None, on_result, plan, engine="estimate"
        )
        counts["estimated"] += len(indices)

    estimate_keys = [point.key_at("estimate") for point in points]
    run_search(
        grid,
        search,
        _once_per_key(keys, simulate),
        _once_per_key(estimate_keys, estimate),
        _StoreView(store, keys, lut),
        _StoreView(store, estimate_keys, lut),
    )


def run_campaign(
    spec: CampaignSpec,
    directory: str | os.PathLike | None = None,
    store: CampaignStore | None = None,
    lut: LifetimeLUT | None = None,
    parallel: int | None = None,
    workers: int | None = None,
    search: "SearchSpec | str | None" = None,
) -> CampaignResult:
    """Execute ``spec``, simulating only points absent from the store.

    Parameters
    ----------
    spec:
        The declarative campaign description.
    directory:
        Campaign directory for persistence; ``None`` runs in memory
        (every point simulates, nothing survives the process). Ignored
        when an explicit ``store`` is passed.
    store:
        An already-open store to run against (shared with e.g. an
        :class:`~repro.experiments.runner.ExperimentRunner`).
    lut:
        Lifetime LUT; defaults to the calibrated shared instance.
        Stored integer counters are LUT-independent; derived lifetime
        fields assume the same LUT across runs.
    parallel:
        Worker processes for the missing points of each trace. For an
        in-memory trace or a trace that opts into chunked loading
        (``chunk_cycles > 0``) alike, the missing points split into
        chunks across workers; a streaming worker re-opens the stream
        from the spec's factory and makes one pass for its chunk —
        bit-identical to the serial pass, with peak memory still
        bounded by the chunk size per worker.
    workers:
        Claim-loop worker processes (the campaign service's work
        queue). ``None`` keeps the classic single-process path with no
        claim files. Any value >= 1 routes through
        :func:`repro.campaign.service.queue.drain_campaign`:
        missing points are leased (TTL + heartbeat), simulated, and
        committed, so several invocations — across processes or hosts
        sharing ``directory`` — drain one campaign without
        double-simulating. Requires a directory-backed store.
    search:
        Search strategy override: a
        :class:`~repro.analysis.planner.SearchSpec`, a strategy name,
        or ``None`` to use the spec's own ``search`` block (and
        exhaustive execution when the spec has none). Anything other
        than exhaustive runs the planner's guided-search loop per
        trace: the whole grid is estimated (records persisted under
        estimate-fidelity keys), the strategy picks survivors, and
        only those are simulated.

    Returns
    -------
    CampaignResult
        Every point of the grid (reused and new alike) in grid order,
        with ``simulated``/``reused`` counting what this call did.
    """
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be a positive worker count")
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be a positive worker count")
    if store is None:
        store = CampaignStore(directory)
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    _write_manifest(spec, store)

    search = _resolve_search(spec, search)
    counts = {"simulated": 0, "estimated": 0}
    if search is not None:
        _check_guided(spec)
        if workers is not None:
            import warnings

            from repro.errors import ReproWarning

            # The claim queue leases points independently; a strategy
            # decides *which* points to lease only after estimating, so
            # guided runs stay single-process (parallelism still fans
            # out inside each simulate batch).
            warnings.warn(
                "guided search ignores workers=…; running single-process "
                "(simulate batches still honor parallel=…)",
                ReproWarning,
                stacklevel=2,
            )
    elif workers is not None:
        from repro.campaign.service.queue import drain_campaign

        if store.directory is None:
            raise ConfigurationError(
                "run_campaign(workers=...) needs a directory-backed store; "
                "claims and commit logs live beside results/"
            )
        counts["simulated"] = drain_campaign(
            spec,
            store.directory,
            lut=shared_lut,
            workers=workers,
            parallel=parallel,
        )

    grid = spec.grid()
    all_points: list[CampaignPoint] = []
    for trace_spec in spec.traces:
        points = spec.trace_points(trace_spec)
        keys = [point.key() for point in points]
        if search is not None:
            store.reconcile([*keys, *(point.key_at("estimate") for point in points)])
            _search_trace(
                spec, grid, store, search, points, keys, shared_lut, parallel, counts
            )
        elif workers is None:
            store.reconcile(keys)
            missing = _missing_indices(store, keys)
            if missing:
                # A chunked trace runs as one shared pass over its stream
                # (records are bit-identical to the in-memory path, so
                # chunked and unchunked runs resume each other); any
                # other trace is materialized only now, so a covered
                # trace costs nothing to resume. Each batch is stored
                # the moment it exists: an interruption loses at most
                # the in-flight batch.
                source = _streaming_source(spec, trace_spec) or trace_spec.build()
                _simulate_points(
                    spec, grid, source, missing, shared_lut, parallel,
                    lambda positions, results: store.put_group(
                        [(keys[missing[j]], r) for j, r in zip(positions, results)]
                    ),
                )
                counts["simulated"] += len(missing)
        all_points.extend(_stored_points(store, trace_spec, points, keys))
    return CampaignResult(
        spec=spec,
        points=tuple(all_points),
        simulated=counts["simulated"],
        reused=len(all_points) - counts["simulated"],
        estimated=counts["estimated"],
    )
