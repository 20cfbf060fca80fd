"""Declarative parameter sweeps over the simulator.

A sweep is a cartesian product of named parameter axes applied to a
base :class:`~repro.core.config.ArchitectureConfig` via
``dataclasses.replace``, each point simulated on a shared trace through
the :func:`~repro.core.simulator.simulate` dispatcher (so any engine —
and any geometry, including set-associative ones — works). Results come
back as :class:`SweepResult`, a small query-friendly container used by
the ablation benches and the exploration example.

:func:`simulate_selected` is the one executor under :func:`sweep`,
:func:`stream_sweep`, :func:`search_sweep` and the campaign runner,
each of which plans its grid with
:func:`~repro.analysis.planner.plan_grid`. It runs an in-memory
:class:`~repro.trace.trace.Trace` here and hands a stream or stream
factory to :func:`repro.core.streamsim.stream_selected`, one pass over
the stream for the whole grid.

The grid does not pay the full per-point cost: a shared
:class:`~repro.core.plan.TracePlan` memoizes the address decode, epoch
boundaries and bank-sorted access stream across points, and points that
differ only in ``breakeven_override`` are simulated as one
:func:`~repro.core.fastsim.run_breakeven_group` — one gap computation
for the whole breakeven axis. Every result stays bit-identical to an
independent per-point simulation (the tests hold the two together).

Large grids can be fanned out over processes with ``parallel=N``, for
every kind of source alike: the points are split into contiguous
chunks, each chunk runs the serial path in a worker of the shared pool
(:func:`repro.core.pool.worker_pool`), and the results are reassembled
in the exact order the serial path would have produced. The source
(trace, stream or stream factory) and LUT travel to each worker once,
as the pool's state; chunk payloads carry only the parameter
combinations, so fanning out a big trace never re-pickles it per chunk.
A stream worker re-opens the stream and makes its own single pass over
it for its chunk of the grid.
"""

from __future__ import annotations

import pickle
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.aging.lut import LifetimeLUT
from repro.analysis.planner import (
    PlannedGrid,
    SearchOutcome,
    SearchSpec,
    plan_grid,
    run_search,
)
from repro.core.config import ArchitectureConfig
from repro.core.engine import get_engine, resolve_engine, validate_engine
from repro.core.plan import TracePlan
from repro.core.pool import worker_pool, worker_state
from repro.core.results import SimulationResult
from repro.core.simulator import simulate
from repro.core.streamsim import stream_selected, streaming_engine
from repro.errors import ConfigurationError, ReproWarning
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point: the parameter assignment and its result."""

    parameters: dict
    result: SimulationResult

    def value(self, metric: str):
        """Read a metric off the result by attribute name."""
        return getattr(self.result, metric)


@dataclass(frozen=True)
class SweepResult:
    """All points of one sweep."""

    points: tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def where(self, **constraints) -> "SweepResult":
        """Filter points whose parameters match all ``constraints``."""
        kept = tuple(
            p
            for p in self.points
            if all(p.parameters.get(k) == v for k, v in constraints.items())
        )
        return SweepResult(points=kept)

    def series(self, axis: str, metric: str) -> list[tuple[object, float]]:
        """(axis value, metric) pairs sorted by axis value.

        Axes may mix ``None`` with other values (e.g. the natural
        static-vs-dynamic sweep ``update_period_cycles: [None, 50000]``);
        ``None`` sorts first, numbers numerically, anything else by type
        then repr, so the key is total without comparing across types.
        """
        pairs = [(p.parameters[axis], p.value(metric)) for p in self.points]
        return sorted(pairs, key=lambda pair: _axis_sort_key(pair[0]))

    def best(self, metric: str, maximize: bool = True) -> SweepPoint:
        """The point optimizing ``metric``."""
        if not self.points:
            raise ConfigurationError("empty sweep has no best point")
        chooser = max if maximize else min
        return chooser(self.points, key=lambda p: p.value(metric))


def _axis_sort_key(value) -> tuple:
    """None-first, type-stable total ordering key for axis values."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (2, float(value), "")
    return (3, 0.0, f"{type(value).__name__}:{value!r}")


def _simulate_chunk(payload) -> list[SimulationResult]:
    """Pool task: simulate one chunk of the grid on the serial path.

    Module-level (not a closure) so it pickles into pool workers; the
    trace (or stream) and LUT are the pool's state, not part of the
    payload.
    """
    trace, lut = worker_state()
    base, names, combos, group_ids, engine = payload
    return _simulate_combos(base, trace, names, combos, group_ids, lut, engine)


def _simulate_combos(
    base: ArchitectureConfig,
    trace: Trace | TraceStream | Callable[[], TraceStream],
    names: Sequence[str],
    combos: Sequence[tuple],
    group_ids: Sequence[int] | None,
    lut: LifetimeLUT | None,
    engine: str,
    plan: TracePlan | None = None,
    on_result=None,
) -> list[SimulationResult]:
    """The serial path: simulate combos in order in this process.

    A stream or stream factory runs as one
    :func:`~repro.core.streamsim.stream_selected` pass. A
    :class:`~repro.trace.trace.Trace` runs through ``plan`` (a fresh
    :class:`~repro.core.plan.TracePlan` when ``None``), batching
    breakeven-only groups.

    The breakeven-group fast path is an engine *capability*: it is
    taken only when the engine resolved for this grid exposes a
    ``run_group`` method (the fast engine does, and ``auto`` resolves
    to it for every banked configuration). Engines without one — the
    reference oracle, the fine-grain template, any registered custom
    engine — and grids without a breakeven axis fall back to per-point
    dispatch. ``on_result(position, result)`` is invoked as soon as
    each point's result exists (per point, or per breakeven group),
    which is what lets a campaign persist finished work before the
    batch completes.
    """
    if not isinstance(trace, Trace):
        return stream_selected(
            base,
            trace,
            names,
            combos,
            group_ids=group_ids,
            lut=lut,
            engine=engine,
            on_result=on_result,
        )
    if plan is None:
        plan = TracePlan(trace)
    if group_ids is None:
        groups = [[position] for position in range(len(combos))]
    else:
        by_id: dict[int, list[int]] = {}
        for position, group_id in enumerate(group_ids):
            by_id.setdefault(group_id, []).append(position)
        groups = list(by_id.values())
    results: list[SimulationResult | None] = [None] * len(combos)
    for members in groups:
        configs = [
            replace(base, **dict(zip(names, combos[position])))
            for position in members
        ]
        # Resolve per group, not per grid: other axes (geometry, bank
        # count, ...) vary across groups and may resolve "auto" — or an
        # explicit engine's supports() — differently; within a group,
        # configs differ only in breakeven_override.
        run_group = None
        if group_ids is not None:
            run_group = getattr(resolve_engine(engine, configs[0]), "run_group", None)
        if run_group is not None:
            batch = run_group(configs, trace, lut=lut, plan=plan)
        else:
            batch = (
                simulate(config, trace, lut, engine=engine, plan=plan)
                for config in configs
            )
        for position, result in zip(members, batch):
            results[position] = result
            if on_result is not None:
                on_result(position, result)
    return results


def _chunk_payloads(
    base: ArchitectureConfig,
    names: Sequence[str],
    combos: Sequence[tuple],
    group_ids: Sequence[int] | None,
    engine: str,
    workers: int,
) -> list[tuple]:
    """Contiguous chunk payloads for the worker pool.

    Deliberately trace-free: a payload is (base config, axis names, the
    chunk's combos and group ids, engine) — a few hundred bytes no
    matter how long the trace is. Tests pin this with a pickle-size
    assertion.
    """
    chunk_size = -(-len(combos) // workers)  # ceil division
    payloads = []
    for start in range(0, len(combos), chunk_size):
        chunk = combos[start : start + chunk_size]
        ids = (
            group_ids[start : start + chunk_size] if group_ids is not None else None
        )
        payloads.append((base, names, chunk, ids, engine))
    return payloads


def simulate_selected(
    base: ArchitectureConfig,
    trace: Trace | TraceStream | Callable[[], TraceStream],
    names: Sequence[str],
    combos: Sequence[tuple],
    group_ids: Sequence[int] | None = None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
    plan: TracePlan | None = None,
    on_result=None,
) -> list[SimulationResult]:
    """Simulate an explicit list of grid points on one workload.

    The one executor under :func:`sweep`, :func:`stream_sweep`,
    :func:`search_sweep` and the campaign runner: ``combos`` need not
    be a full cartesian product — the campaign layer passes only the
    points its store is missing — yet every batching lever still
    applies: a shared :class:`TracePlan`, the breakeven-group fast path
    (points sharing a ``group_ids`` entry differ only in
    ``breakeven_override`` and are evaluated from one gap computation),
    and the ``parallel`` process fan-out with trace-free chunk payloads.
    Results come back in ``combos`` order, bit-identical to per-point
    :func:`simulate` calls.

    ``trace`` is the source: an in-memory
    :class:`~repro.trace.trace.Trace` (``plan``, when given, must be its
    plan), or a :class:`~repro.trace.stream.TraceStream` or a
    zero-argument factory producing one, which runs as a single pass
    through :func:`repro.core.streamsim.stream_selected`.

    ``parallel=N`` is the one process fan-out for every source: the
    grid splits into at most ``N`` contiguous chunks and each worker
    runs this serial path on its chunk (a stream worker re-opens the
    stream and makes its own pass). Everything that can fail is checked
    here first, before any pool starts. A source that does not pickle
    cannot reach the workers, so the grid runs serially after a
    :class:`~repro.errors.ReproWarning`; pass a picklable stream or a
    module-level factory (``functools.partial`` of a bound method, say)
    rather than a lambda or a local function.

    ``on_result(position, result)`` fires as results become available —
    per point or breakeven group serially, per finished chunk in
    parallel mode — so callers can persist progress incrementally
    instead of waiting for the whole batch.
    """
    # Validate up front: the breakeven-grouped path never reaches
    # simulate()'s own engine check, and a typo'd engine must not
    # silently fall through to the fast engine.
    validate_engine(engine)
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be a positive worker count")
    if not combos:
        return []
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    workers = min(parallel or 1, len(combos))
    if workers > 1 and not isinstance(trace, Trace):
        # A Trace is arrays and always pickles; a stream or factory is
        # checked here so that neither an engine that cannot stream nor
        # a source that cannot reach the workers surfaces in a worker.
        for combo in combos:
            streaming_engine(engine, replace(base, **dict(zip(names, combo))))
        try:
            pickle.dumps(trace)
        except Exception:
            warnings.warn(
                f"parallel={parallel} requested but the trace source does "
                "not pickle, so it cannot reach worker processes (pass a "
                "picklable stream or a module-level factory such as a "
                "functools.partial, not a lambda or local function); "
                "running serially",
                ReproWarning,
                stacklevel=2,
            )
            workers = 1
    if workers > 1:
        payloads = _chunk_payloads(base, names, combos, group_ids, engine, workers)
        with worker_pool(len(payloads), (trace, shared_lut)) as pool:
            results: list[SimulationResult] = []
            # pool.map yields chunks in submission order as they
            # finish; reporting per chunk keeps progress durable even
            # if a later chunk (or the caller) dies.
            for chunk in pool.map(_simulate_chunk, payloads):
                if on_result is not None:
                    for offset, result in enumerate(chunk):
                        on_result(len(results) + offset, result)
                results.extend(chunk)
            return results
    return _simulate_combos(
        base, trace, names, combos, group_ids, shared_lut, engine, plan, on_result
    )


def stream_sweep(
    base: ArchitectureConfig,
    stream,
    axes: dict[str, list],
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SweepResult:
    """Out-of-core :func:`sweep`: the whole grid in one pass over a stream.

    ``stream`` is a :class:`~repro.trace.stream.TraceStream` or a
    zero-argument callable producing one. One cursor per breakeven group
    advances chunk by chunk through a shared
    :class:`~repro.core.plan.StreamingPlan`, so peak memory is bounded
    by the chunk size plus per-point state, never the trace length, and
    every result is bit-identical to :func:`sweep` on the materialized
    trace (the streaming fuzz suite holds the two together).
    ``parallel=N`` splits the grid into chunks like :func:`sweep`; each
    worker re-opens the stream and makes one pass for its chunk (see
    :func:`simulate_selected`, which also covers a stream that does not
    pickle).
    """
    return sweep(base, stream, axes, lut=lut, engine=engine, parallel=parallel)


def sweep(
    base: ArchitectureConfig,
    trace: Trace | TraceStream | Callable[[], TraceStream],
    axes: dict[str, list],
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SweepResult:
    """Simulate the cartesian product of ``axes`` over ``base``.

    Parameters
    ----------
    base:
        Configuration template; each axis name must be a field of
        :class:`ArchitectureConfig` (e.g. ``num_banks``, ``policy``,
        ``breakeven_override``, ``update_period_cycles``, ``geometry``).
    trace:
        Shared workload (a stream or stream factory sweeps out of core,
        see :func:`stream_sweep`).
    axes:
        Mapping of field name to the values to explore.
    engine:
        Engine selector forwarded to
        :func:`~repro.core.simulator.simulate` for every point.
    parallel:
        Fan the grid out over up to this many worker processes
        (contiguous chunks, results reassembled in deterministic grid
        order). ``None`` or ``1`` runs serially. The trace (or stream)
        and LUT are shipped once per worker as the pool's state; chunk
        payloads carry only parameter combinations.

    >>> # doctest-style sketch (not executed here):
    >>> # result = sweep(cfg, trace, {"num_banks": [2, 4, 8]}, parallel=4)
    """
    grid = plan_grid(axes)
    results = simulate_selected(
        base,
        trace,
        grid.names,
        grid.combos,
        group_ids=grid.group_ids,
        lut=lut,
        engine=engine,
        parallel=parallel,
    )
    return _sweep_result(grid, range(len(grid)), results)


def _sweep_result(grid: PlannedGrid, indices, results) -> SweepResult:
    """The points at grid ``indices``, paired with their results."""
    return SweepResult(
        points=tuple(
            SweepPoint(parameters=grid.parameters(i), result=result)
            for i, result in zip(indices, results)
        )
    )


@dataclass(frozen=True)
class SearchSweepResult:
    """Outcome of a strategy-guided sweep (see :func:`search_sweep`).

    ``simulated`` holds the full-fidelity points the strategy chose (a
    subset of the grid, in grid order); ``estimates`` holds every
    estimate-fidelity point the strategy consulted (empty for
    ``exhaustive``). ``outcome`` records the raw grid indices per tier.
    """

    search: SearchSpec
    simulated: SweepResult
    estimates: SweepResult
    outcome: SearchOutcome

    @property
    def simulations_avoided(self) -> int:
        """Grid points that never paid full simulation."""
        return len(set(self.outcome.estimated) - set(self.outcome.simulated))


def search_sweep(
    base: ArchitectureConfig,
    trace: Trace,
    axes: dict[str, list],
    search: SearchSpec | str | None = None,
    lut: LifetimeLUT | None = None,
    engine: str = "auto",
    parallel: int | None = None,
) -> SearchSweepResult:
    """Strategy-guided :func:`sweep`: simulate only what the search asks.

    ``search`` selects and tunes the strategy (a
    :class:`~repro.analysis.planner.SearchSpec`, a bare strategy name,
    or ``None`` for exhaustive). Estimates come from the ``"estimate"``
    fidelity tier (:mod:`repro.estimate`); simulations run through
    :func:`simulate_selected` with the usual plan sharing, breakeven
    batching over the surviving subset, and ``parallel`` fan-out.
    Simulated points are bit-identical to a full :func:`sweep`'s points
    at the same grid positions.
    """
    if search is None:
        spec = SearchSpec()
    elif isinstance(search, str):
        spec = SearchSpec(strategy=search)
    else:
        spec = search
    validate_engine(engine)
    grid = plan_grid(axes)
    shared_lut = lut if lut is not None else LifetimeLUT.default()
    plan = TracePlan(trace)
    simulated: dict[int, SimulationResult] = {}
    estimated: dict[int, SimulationResult] = {}

    def simulate_points(indices, on_result):
        simulate_selected(
            base,
            trace,
            grid.names,
            [grid.combos[i] for i in indices],
            group_ids=grid.subset_group_ids(indices),
            lut=shared_lut,
            engine=engine,
            parallel=parallel,
            plan=plan,
            on_result=on_result,
        )

    def estimate_point(index):
        config = replace(base, **grid.parameters(index))
        return get_engine("estimate").run(config, trace, lut=shared_lut, plan=plan)

    outcome = run_search(
        grid, spec, simulate_points, estimate_point, simulated, estimated
    )
    return SearchSweepResult(
        search=spec,
        simulated=_sweep_result(
            grid, outcome.simulated, [simulated[i] for i in outcome.simulated]
        ),
        estimates=_sweep_result(
            grid, outcome.estimated, [estimated[i] for i in outcome.estimated]
        ),
        outcome=outcome,
    )
