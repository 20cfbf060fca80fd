"""Execution planning: grid enumeration and pluggable search strategies.

Every run pipeline — :func:`repro.analysis.sweep.sweep`, the streaming
sweep, :func:`repro.campaign.run.run_campaign` — evaluates a cartesian
product of named axes over a base config. This module is the single
place that product is *planned*: :func:`plan_grid` validates the axes,
enumerates the combos and derives the breakeven group ids every
execution path batches on.

On top of the grid sits the **search strategy** layer, driven by
:func:`run_search` for guided sweeps and guided campaigns alike. A
strategy decides *which* grid points deserve full simulation, optionally
guided by the closed-form ``estimate`` fidelity tier
(:mod:`repro.estimate`):

``exhaustive``
    Simulate every point — today's behavior, bit-identical.
``estimator-pruned``
    Estimate every point, then simulate only the survivors: the top-k
    per objective plus everything within ε of the estimated Pareto
    front.
``pareto-active``
    Iteratively simulate the estimated non-dominated set, refit a
    per-workload additive calibration offset from the simulated points,
    and repeat until the frontier is confirmed (every front member
    simulated) or ``max_rounds`` is exhausted.

Strategies are registered by name (:func:`register_strategy`) and
selected per run through a :class:`SearchSpec` — the parsed form of a
campaign spec file's ``"search"`` block and the CLI ``--strategy``
flag. The planner is deliberately campaign-agnostic: strategies see
only grid indices and two callables (``estimate``, ``simulate``), so
the campaign layer owns persistence and the sweep layer owns batching.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro.analysis.pareto import pareto_front
from repro.core.config import ArchitectureConfig
from repro.errors import ConfigurationError

__all__ = [
    "PlannedGrid",
    "PlanContext",
    "SearchOutcome",
    "SearchSpec",
    "SearchStrategy",
    "breakeven_group_ids",
    "cartesian",
    "get_strategy",
    "plan_grid",
    "register_strategy",
    "run_search",
    "strategy_names",
]


# ----------------------------------------------------------------------
# Grid enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlannedGrid:
    """A validated, enumerated parameter grid.

    ``group_ids`` is the breakeven batching signature: equal ids mark
    points differing only in ``breakeven_override`` (``None`` when the
    grid has no breakeven axis). Execution paths with a grouped fast
    path (``run_group`` engines) batch on it.
    """

    names: tuple[str, ...]
    combos: tuple[tuple[Any, ...], ...]
    group_ids: tuple[int, ...] | None

    def __len__(self) -> int:
        return len(self.combos)

    def parameters(self, index: int) -> dict[str, Any]:
        """The named parameter assignment of grid point ``index``."""
        return dict(zip(self.names, self.combos[index]))

    def subset_group_ids(self, indices: Sequence[int]) -> list[int] | None:
        """Group ids for a subset of points, in ``indices`` order."""
        if self.group_ids is None:
            return None
        return [self.group_ids[i] for i in indices]


def cartesian(
    axes: Mapping[str, Sequence[Any]], names: Sequence[str] | None = None
) -> list[tuple[Any, ...]]:
    """Cartesian product of the axes (one empty combo when no axes)."""
    ordered = list(axes) if names is None else list(names)
    return list(itertools.product(*(tuple(axes[name]) for name in ordered)))


def breakeven_group_ids(
    names: Sequence[str], axes: Mapping[str, Sequence[Any]]
) -> list[int] | None:
    """Group id per grid point; equal ids differ only in breakeven.

    ``None`` when the grid has no ``breakeven_override`` axis (each
    point is then its own group). Ids are the point's flat grid index
    with the breakeven coordinate zeroed, so membership needs no
    hashing of axis values (which may be arbitrary objects).
    """
    if "breakeven_override" not in names:
        return None
    breakeven_axis = list(names).index("breakeven_override")
    sizes = [len(axes[name]) for name in names]
    ids = []
    for coords in itertools.product(*(range(size) for size in sizes)):
        flat = 0
        for axis, coord in enumerate(coords):
            flat = flat * sizes[axis] + (0 if axis == breakeven_axis else coord)
        ids.append(flat)
    return ids


def plan_grid(
    axes: Mapping[str, Sequence[Any]], allow_empty: bool = False
) -> PlannedGrid:
    """Validate ``axes`` against the config schema and enumerate the grid.

    Raises
    ------
    ConfigurationError
        For an axis name that is not an :class:`ArchitectureConfig`
        field, an axis with no values, or an empty axes mapping unless
        ``allow_empty`` (a campaign with no axes runs exactly its base
        config; a sweep of nothing is a mistake).
    """
    if not axes and not allow_empty:
        raise ConfigurationError("sweep needs at least one axis")
    field_names = set(ArchitectureConfig.__dataclass_fields__)
    for name in axes:
        if name not in field_names:
            raise ConfigurationError(f"{name!r} is not an ArchitectureConfig field")
        if len(axes[name]) == 0:
            raise ConfigurationError(f"axis {name!r} has no values")
    names = list(axes)
    combos = cartesian(axes, names)
    ids = breakeven_group_ids(names, axes)
    return PlannedGrid(
        names=tuple(names),
        combos=tuple(combos),
        group_ids=tuple(ids) if ids is not None else None,
    )


# ----------------------------------------------------------------------
# Search specification
# ----------------------------------------------------------------------
_SEARCH_KEYS = frozenset(
    {"strategy", "objectives", "maximize", "top_k", "top_fraction", "epsilon",
     "max_rounds"}
)


@dataclass(frozen=True)
class SearchSpec:
    """Parsed search configuration (spec ``"search"`` block, CLI flag).

    Attributes
    ----------
    strategy:
        Registered strategy name (see :func:`strategy_names`).
    objectives:
        Result metric names the search optimizes (attributes of
        :class:`~repro.core.results.SimulationResult`).
    maximize:
        Per-objective direction; empty means maximize all.
    top_k:
        Survivors per objective for ``estimator-pruned``; ``None``
        derives it from ``top_fraction``.
    top_fraction:
        Fraction of the grid kept per objective when ``top_k`` is
        ``None``.
    epsilon:
        Relative ε (fraction of each objective's estimated range) for
        the near-frontier expansion of ``estimator-pruned``.
    max_rounds:
        Iteration cap for ``pareto-active``.
    """

    strategy: str = "exhaustive"
    objectives: tuple[str, ...] = ("energy_savings", "lifetime_years")
    maximize: tuple[bool, ...] = ()
    top_k: int | None = None
    top_fraction: float = 0.05
    epsilon: float = 0.05
    max_rounds: int = 8

    def __post_init__(self) -> None:
        get_strategy(self.strategy)  # unknown names fail with the list
        objectives = tuple(str(o) for o in self.objectives)
        if not objectives:
            raise ConfigurationError("search needs at least one objective")
        object.__setattr__(self, "objectives", objectives)
        maximize = tuple(bool(m) for m in self.maximize)
        if not maximize:
            maximize = tuple(True for _ in objectives)
        if len(maximize) != len(objectives):
            raise ConfigurationError(
                "search 'maximize' flags must match 'objectives' "
                f"({len(maximize)} flags for {len(objectives)} objectives)"
            )
        object.__setattr__(self, "maximize", maximize)
        if self.top_k is not None and int(self.top_k) < 1:
            raise ConfigurationError("search 'top_k' must be a positive integer")
        if not 0.0 < float(self.top_fraction) <= 1.0:
            raise ConfigurationError("search 'top_fraction' must be in (0, 1]")
        if float(self.epsilon) < 0.0:
            raise ConfigurationError("search 'epsilon' must be non-negative")
        if int(self.max_rounds) < 1:
            raise ConfigurationError("search 'max_rounds' must be positive")

    def survivors_per_objective(self, total: int) -> int:
        """Top-k survivor count for a grid of ``total`` points."""
        if self.top_k is not None:
            return int(self.top_k)
        return max(1, math.ceil(total * self.top_fraction))

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-shaped form (defaults explicit)."""
        return {
            "strategy": self.strategy,
            "objectives": list(self.objectives),
            "maximize": list(self.maximize),
            "top_k": self.top_k,
            "top_fraction": self.top_fraction,
            "epsilon": self.epsilon,
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchSpec":
        """Decode a ``"search"`` block; unknown keys fail loudly."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"'search' must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - _SEARCH_KEYS
        if unknown:
            raise ConfigurationError(f"unknown search fields: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        if "strategy" in payload:
            kwargs["strategy"] = str(payload["strategy"])
        if "objectives" in payload:
            objectives = payload["objectives"]
            if not isinstance(objectives, (list, tuple)):
                raise ConfigurationError("search 'objectives' must be a list")
            kwargs["objectives"] = tuple(str(o) for o in objectives)
        if "maximize" in payload:
            maximize = payload["maximize"]
            if not isinstance(maximize, (list, tuple)):
                raise ConfigurationError("search 'maximize' must be a list")
            kwargs["maximize"] = tuple(bool(m) for m in maximize)
        if "top_k" in payload and payload["top_k"] is not None:
            kwargs["top_k"] = int(payload["top_k"])
        if "top_fraction" in payload:
            kwargs["top_fraction"] = float(payload["top_fraction"])
        if "epsilon" in payload:
            kwargs["epsilon"] = float(payload["epsilon"])
        if "max_rounds" in payload:
            kwargs["max_rounds"] = int(payload["max_rounds"])
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Strategy protocol
# ----------------------------------------------------------------------
def result_metric(result: Any, name: str) -> float:
    """Default metric reader: result attribute by name, as float."""
    return float(getattr(result, name))


@dataclass
class PlanContext:
    """Everything a strategy sees: the grid and two evaluation callables.

    ``simulate(indices)`` and ``estimate(indices)`` evaluate grid
    points (by index) at full and estimate fidelity respectively,
    returning results in ``indices`` order; the caller owns batching,
    reuse of already-stored results and persistence. ``estimate`` is
    ``None`` when the run pipeline has no estimator available —
    strategies that need one fail loudly.
    """

    grid: PlannedGrid
    search: SearchSpec
    simulate: Callable[[Sequence[int]], Sequence[Any]]
    estimate: Callable[[Sequence[int]], Sequence[Any]] | None = None
    metric: Callable[[Any, str], float] = field(default=result_metric)


@dataclass(frozen=True)
class SearchOutcome:
    """What a strategy evaluated: grid indices per fidelity tier."""

    simulated: tuple[int, ...]
    estimated: tuple[int, ...]
    rounds: int = 1


class SearchStrategy:
    """Protocol (and base class) for search strategies.

    ``select`` drives the evaluation callables and reports which grid
    indices ended up at which fidelity. Strategy objects are stateless;
    all tuning lives in the :class:`SearchSpec` on the context.
    """

    name: str = ""
    description: str = ""
    #: Whether this strategy needs an ``estimate`` callable.
    requires_estimates: bool = True

    def select(self, context: PlanContext) -> SearchOutcome:
        raise NotImplementedError


def _require_estimates(context: PlanContext) -> list[Any]:
    """All-point estimates, or a loud failure when there is no estimator."""
    if context.estimate is None:
        raise ConfigurationError(
            f"strategy {context.search.strategy!r} needs the estimate "
            "fidelity tier, but this run pipeline provides no estimator"
        )
    indices = list(range(len(context.grid)))
    estimates = list(context.estimate(indices))
    if len(estimates) != len(indices):
        raise ConfigurationError(
            f"estimator returned {len(estimates)} results for "
            f"{len(indices)} grid points"
        )
    return estimates


def _direction_scores(
    context: PlanContext, results: Sequence[Any]
) -> list[list[float]]:
    """Per-result objective scores, negated for minimized objectives."""
    scores: list[list[float]] = []
    for result in results:
        row: list[float] = []
        for objective, up in zip(context.search.objectives, context.search.maximize):
            value = context.metric(result, objective)
            row.append(value if up else -value)
        scores.append(row)
    return scores


#: Rows of :func:`_epsilon_front` tested against every point at once,
#: so its memory stays O(block × points) on large campaign grids.
_FRONT_BLOCK = 256


def _epsilon_front(scores: Sequence[Sequence[float]], epsilon: float) -> list[int]:
    """Indices not ε-dominated: the Pareto front plus its ε-margin.

    ``epsilon`` is relative to each objective's observed range. A point
    is dropped only when some other point beats it by more than the
    margin on *every* objective — with ``epsilon=0`` this is strict
    dominance on all objectives, so ties and the exact front always
    survive.
    """
    if not scores:
        return []
    dims = len(scores[0])
    margins: list[float] = []
    for j in range(dims):
        column = [row[j] for row in scores]
        margins.append(epsilon * (max(column) - min(column)))
    values = np.asarray(scores, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        bars = values + np.asarray(margins, dtype=np.float64)
    keep: list[int] = []
    for start in range(0, len(values), _FRONT_BLOCK):
        stop = min(start + _FRONT_BLOCK, len(values))
        # beats_all[i, k]: point k clears row i's bar on every objective;
        # beats_any[i, k]: point k is strictly better on some objective.
        # No point is strictly better than itself, so k == i never counts.
        beats_all = np.ones((stop - start, len(values)), dtype=bool)
        beats_any = np.zeros_like(beats_all)
        for j in range(dims):
            column = values[:, j]
            beats_all &= column >= bars[start:stop, j, None]
            beats_any |= column > values[start:stop, j, None]
        dominated = (beats_all & beats_any).any(axis=1)
        keep.extend((np.flatnonzero(~dominated) + start).tolist())
    return keep


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
class ExhaustiveStrategy(SearchStrategy):
    """Simulate every grid point — bit-identical to the classic paths."""

    name = "exhaustive"
    description = "simulate every grid point (the classic full sweep)"
    requires_estimates = False

    def select(self, context: PlanContext) -> SearchOutcome:
        indices = list(range(len(context.grid)))
        context.simulate(indices)
        return SearchOutcome(
            simulated=tuple(indices), estimated=(), rounds=1
        )


class EstimatorPrunedStrategy(SearchStrategy):
    """Estimate everything, simulate only the promising survivors.

    Survivors are the union of the top-k points per objective (by
    estimated value) and every point within ε of the estimated Pareto
    front — so a point only has to look good *somewhere* to earn a
    simulation.
    """

    name = "estimator-pruned"
    description = "estimate all points, simulate top-k/near-frontier survivors"

    def select(self, context: PlanContext) -> SearchOutcome:
        estimates = _require_estimates(context)
        indices = list(range(len(context.grid)))
        search = context.search
        survivors: set[int] = set()
        k = search.survivors_per_objective(len(indices))
        for objective, up in zip(search.objectives, search.maximize):
            ranked = sorted(
                indices,
                key=lambda i: context.metric(estimates[i], objective),
                reverse=up,
            )
            survivors.update(ranked[:k])
        scores = _direction_scores(context, estimates)
        survivors.update(_epsilon_front(scores, search.epsilon))
        chosen = sorted(survivors)
        context.simulate(chosen)
        return SearchOutcome(
            simulated=tuple(chosen), estimated=tuple(indices), rounds=1
        )


class ParetoActiveStrategy(SearchStrategy):
    """Active frontier confirmation with per-workload calibration.

    Each round extracts the non-dominated set under *calibrated*
    estimates (simulated values where known, estimate + additive offset
    elsewhere), simulates the unconfirmed front members, then refits
    the per-objective offset as the mean simulate-minus-estimate delta
    over everything simulated so far. Converged when a round's front is
    fully simulated.
    """

    name = "pareto-active"
    description = "iteratively simulate the estimated Pareto front until confirmed"

    def select(self, context: PlanContext) -> SearchOutcome:
        estimates = _require_estimates(context)
        indices = list(range(len(context.grid)))
        search = context.search
        offsets: dict[str, float] = {name: 0.0 for name in search.objectives}
        simulated: dict[int, Any] = {}

        def calibrated(index: int, objective: str) -> float:
            if index in simulated:
                return context.metric(simulated[index], objective)
            return context.metric(estimates[index], objective) + offsets[objective]

        def objective_fn(objective: str) -> Callable[[Any], float]:
            return lambda index: calibrated(int(index), objective)

        rounds = 0
        for _ in range(search.max_rounds):
            rounds += 1
            front = pareto_front(
                indices,
                [objective_fn(objective) for objective in search.objectives],
                maximize=list(search.maximize),
            )
            fresh = sorted(int(i) for i in front if int(i) not in simulated)
            if not fresh:
                break
            results = context.simulate(fresh)
            for index, result in zip(fresh, results):
                simulated[index] = result
            for objective in search.objectives:
                deltas = [
                    context.metric(simulated[i], objective)
                    - context.metric(estimates[i], objective)
                    for i in simulated
                ]
                offsets[objective] = sum(deltas) / len(deltas)
        return SearchOutcome(
            simulated=tuple(sorted(simulated)),
            estimated=tuple(indices),
            rounds=rounds,
        )


# ----------------------------------------------------------------------
# Guided search over a planned grid
# ----------------------------------------------------------------------
class ResultCache(Protocol):
    """Results by grid index: a dict, or a view over a campaign store."""

    def __contains__(self, index: object) -> bool: ...

    def __getitem__(self, index: int) -> Any: ...

    def __setitem__(self, index: int, result: Any) -> None: ...


def run_search(
    grid: PlannedGrid,
    search: SearchSpec,
    simulate: Callable[[list[int], Callable[[int, Any], None]], object],
    estimate: Callable[[int], Any],
    simulated: ResultCache,
    estimated: ResultCache,
) -> SearchOutcome:
    """Run ``search``'s strategy over ``grid``, evaluating through caches.

    ``simulate(indices, on_result)`` simulates the grid points at
    ``indices`` as one batch and reports each result as
    ``on_result(position, result)``; it is called only for points not
    already in ``simulated``, whose entries are written as results
    arrive. ``estimate(index)`` estimates one point missing from
    ``estimated``. A sweep passes dicts; a campaign passes views of its
    store keyed by each point's simulate- and estimate-fidelity keys,
    so a rerun reuses every stored result and persists every new one.
    """

    def run_simulate(indices: Sequence[int]) -> list[Any]:
        chosen = [int(i) for i in indices]
        fresh = [i for i in chosen if i not in simulated]
        if fresh:

            def record(position: int, result: Any) -> None:
                simulated[fresh[position]] = result

            simulate(fresh, record)
        return [simulated[i] for i in chosen]

    def run_estimate(indices: Sequence[int]) -> list[Any]:
        results: list[Any] = []
        for index in (int(i) for i in indices):
            if index in estimated:
                result = estimated[index]
            else:
                result = estimate(index)
                estimated[index] = result
            results.append(result)
        return results

    context = PlanContext(
        grid=grid, search=search, simulate=run_simulate, estimate=run_estimate
    )
    return get_strategy(search.strategy).select(context)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_STRATEGIES: dict[str, SearchStrategy] = {}


def register_strategy(strategy: SearchStrategy, replace: bool = False) -> None:
    """Add ``strategy`` to the registry under ``strategy.name``."""
    name = getattr(strategy, "name", "")
    if not name or not isinstance(name, str):
        raise ConfigurationError("a search strategy must carry a non-empty name")
    if not replace and name in _STRATEGIES:
        raise ConfigurationError(
            f"search strategy {name!r} is already registered; "
            "pass replace=True to override"
        )
    _STRATEGIES[name] = strategy


def get_strategy(name: str) -> SearchStrategy:
    """Look up a registered strategy by name (loud on typos)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown search strategy {name!r}; known: "
            f"{', '.join(strategy_names())}"
        ) from None


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted (the CLI/validation view)."""
    return tuple(sorted(_STRATEGIES))


register_strategy(ExhaustiveStrategy())
register_strategy(EstimatorPrunedStrategy())
register_strategy(ParetoActiveStrategy())
