"""Engine registry: simulation engines as pluggable extension points.

An *engine* is anything that can turn ``(config, trace)`` into a
:class:`~repro.core.results.SimulationResult`. The library ships three —
``fast`` (vectorized, bit-identical to the oracle), ``reference`` (the
event-by-event oracle) and ``finegrain`` (the per-line drowsy template
of [7]) — and anything else can join by implementing the small
:class:`Engine` protocol and calling :func:`register_engine`. Every
layer of the library (``simulate()``, sweeps, campaigns, the experiment
runner, the CLI ``--engine`` flag) resolves engines through this one
registry, so a registered engine participates everywhere with zero
special-casing.

Resolution rules
----------------
* An explicit engine name selects that engine; if its
  :meth:`Engine.supports` rejects the configuration, the dispatch fails
  loudly instead of silently substituting another engine.
* ``"auto"`` picks the highest-:attr:`~Engine.priority` *auto-eligible*
  engine whose ``supports()`` accepts the configuration. Engines that
  simulate a *different machine* (the fine-grain template does — lines,
  not banks, are its power domains) set ``auto_eligible = False`` so
  ``auto`` never silently changes what is being simulated.

The built-in engines register themselves when their modules import;
:func:`_ensure_builtins` makes any registry read trigger those imports,
so callers never see a half-populated registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError, SimulationError, UnknownEngineError

if TYPE_CHECKING:  # import cycle: config/results import through core
    from repro.aging.lut import LifetimeLUT
    from repro.core.config import ArchitectureConfig
    from repro.core.plan import TracePlan
    from repro.core.results import SimulationResult
    from repro.trace.trace import Trace


class Engine:
    """Protocol (and convenient base class) for simulation engines.

    Attributes
    ----------
    name:
        Registry key and CLI ``--engine`` value.
    description:
        One-line capability summary (shown by ``repro engines``).
    priority:
        ``auto`` preference; higher is tried first.
    auto_eligible:
        Whether ``engine="auto"`` may pick this engine. Engines that
        simulate a different architectural template than the banked
        baseline must opt out.
    requires:
        Optional one-line statement of what ``supports()`` demands,
        used to build actionable dispatch errors.
    family:
        *Result family*: engines in the same family produce
        bit-identical results for the same ``(config, trace)`` (fast
        and reference are both ``"banked"``), so stores may share their
        records. An engine simulating a different machine declares its
        own family and its campaign points get distinct store
        identities.
    fidelity:
        Execution fidelity tier. ``"simulate"`` engines replay the
        trace and are mutually substitutable within a family;
        ``"estimate"`` engines predict metrics from trace statistics
        (closed-form, no replay) and their records must never alias or
        satisfy simulated ones. ``engine="auto"`` never picks a
        non-``"simulate"`` engine — the registry enforces that
        non-simulate engines are not auto-eligible.

    Subclasses (or any duck-typed object carrying the same attributes)
    implement :meth:`supports` and :meth:`run`; engines with a batched
    fast path for ``breakeven_override`` axes may additionally provide
    ``run_group(configs, trace, lut=None, plan=None)`` (see
    :class:`~repro.core.fastsim.FastEngine`).

    Engines that can simulate chunked (out-of-core) traces expose one
    *streaming capability*, likewise duck-typed and ``supports()``-gated
    at dispatch: ``open_stream_cursor(configs, plan)`` returns a
    carried-state cursor for a breakeven-only group (``process(plan)``
    per chunk, then ``finalize(horizon, name, lut)``).
    :func:`~repro.core.streamsim.simulate_stream` and
    :func:`~repro.core.streamsim.stream_selected` drive every streamed
    simulation through it, the latter evaluating many grid points in a
    single pass over the stream.

    :func:`supports_streaming` is the capability query; engines without
    it fail loudly on streaming entry points instead of silently
    materializing the trace.
    """

    name: str = ""
    description: str = ""
    priority: int = 0
    auto_eligible: bool = True
    requires: str = ""
    family: str = "banked"
    fidelity: str = "simulate"

    def supports(self, config: ArchitectureConfig) -> bool:
        """Whether this engine can simulate ``config``."""
        raise NotImplementedError

    def run(
        self,
        config: ArchitectureConfig,
        trace: Trace,
        lut: LifetimeLUT | None = None,
        plan: TracePlan | None = None,
    ) -> SimulationResult:
        """Simulate ``trace`` on ``config``; return a ``SimulationResult``."""
        raise NotImplementedError


_REGISTRY: dict[str, Engine] = {}
_builtins_loaded = False

#: Names the lazily imported built-in modules register themselves;
#: everything else is a plugin that worker processes must be handed
#: explicitly (see :func:`custom_engines` / :func:`install_engines`).
_BUILTIN_ENGINE_NAMES = frozenset({"fast", "reference", "finegrain", "compiled", "estimate"})

#: The actual built-in instances, captured at their registration — a
#: replace=True override of a built-in name is then still recognized
#: as a plugin that must travel to worker processes.
_BUILTIN_ENGINE_OBJECTS: dict[str, Engine] = {}


def _ensure_builtins() -> None:
    """Import the modules that register the built-in engines (once)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.core.simulator  # noqa: F401  (registers "reference")
    import repro.core.fastsim  # noqa: F401  (registers "fast")
    import repro.finegrain.engine  # noqa: F401  (registers "finegrain")
    import repro.kernels.engine  # noqa: F401  (registers "compiled")
    import repro.estimate.engine  # noqa: F401  (registers "estimate")


def register_engine(engine: Engine, replace: bool = False) -> None:
    """Add ``engine`` to the registry under ``engine.name``.

    Raises
    ------
    ConfigurationError
        For an empty or reserved name, or a duplicate registration
        without ``replace=True`` — two engines silently shadowing each
        other is exactly the bug a registry must prevent.
    """
    name = getattr(engine, "name", "")
    if not name or not isinstance(name, str):
        raise ConfigurationError("an engine must carry a non-empty string name")
    if name == "auto":
        raise ConfigurationError("'auto' is the dispatcher's reserved name")
    family = getattr(engine, "family", "banked")
    if getattr(engine, "auto_eligible", True) and family != "banked":
        # The store keys 'auto' results under the banked family; an
        # auto-pickable engine of another family would alias records
        # that are not bit-identical.
        raise ConfigurationError(
            f"engine {name!r}: auto-eligible engines must produce the "
            f"'banked' result family (got {family!r}); set "
            "auto_eligible=False or family='banked'"
        )
    fidelity = getattr(engine, "fidelity", "simulate")
    if getattr(engine, "auto_eligible", True) and fidelity != "simulate":
        # 'auto' promises trace-accurate simulation; an auto-pickable
        # estimator would silently substitute predictions for replay.
        raise ConfigurationError(
            f"engine {name!r}: auto-eligible engines must have fidelity "
            f"'simulate' (got {fidelity!r}); set auto_eligible=False"
        )
    if not replace and name in _REGISTRY:
        raise ConfigurationError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    if name in _BUILTIN_ENGINE_NAMES and name not in _BUILTIN_ENGINE_OBJECTS:
        _BUILTIN_ENGINE_OBJECTS[name] = engine
    _REGISTRY[name] = engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (primarily for tests and plugins)."""
    _ensure_builtins()
    if _REGISTRY.pop(name, None) is None:
        raise UnknownEngineError(
            f"unknown engine {name!r}; known: {', '.join(engine_names())}"
        )


def engine_names() -> tuple[str, ...]:
    """``("auto", ...registered names...)`` — the CLI/validation view."""
    _ensure_builtins()
    return ("auto", *sorted(_REGISTRY))


def registered_engines() -> tuple[Engine, ...]:
    """All registered engines, sorted by name."""
    _ensure_builtins()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def custom_engines() -> tuple[Engine, ...]:
    """Registered engines that are not built-ins (sorted by name).

    Worker processes rebuild the built-ins by importing, but plugins
    only exist in the registering process — the parallel sweep ships
    these through its pool initializer (the objects must pickle).
    Identity-based: a replace=True override of a built-in *name* is a
    plugin and ships too.
    """
    _ensure_builtins()
    return tuple(
        engine
        for name, engine in sorted(_REGISTRY.items())
        if _BUILTIN_ENGINE_OBJECTS.get(name) is not engine
    )


def install_engines(engines: Iterable[Engine]) -> None:
    """Register ``engines``, replacing same-name entries (worker setup)."""
    for engine in engines:
        register_engine(engine, replace=True)


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name.

    Raises
    ------
    UnknownEngineError
        Listing the registered names, so a typo'd spec file or CLI flag
        is self-diagnosing.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(
            f"unknown engine {name!r}; known: {', '.join(engine_names())}"
        ) from None


def validate_engine(engine: str) -> None:
    """Raise :class:`UnknownEngineError` for names the registry lacks.

    Shared by :func:`~repro.core.simulator.simulate`, the sweep
    front-end and :class:`~repro.campaign.spec.CampaignSpec`, so a
    typo'd engine fails identically on every path.
    """
    if engine == "auto":
        return
    get_engine(engine)


def supports_streaming(engine: Engine) -> bool:
    """Whether ``engine`` exposes the ``open_stream_cursor`` capability."""
    return callable(getattr(engine, "open_stream_cursor", None))


def result_family(engine: str) -> str:
    """The result family an engine selector produces.

    ``"auto"`` is ``"banked"``: only auto-eligible engines can be
    picked, and those simulate the banked baseline by contract.
    """
    if engine == "auto":
        return "banked"
    return getattr(get_engine(engine), "family", "banked")


def result_fidelity(engine: str) -> str:
    """The fidelity tier an engine selector produces.

    ``"auto"`` is ``"simulate"``: non-simulate engines can never be
    auto-eligible (enforced at registration).
    """
    if engine == "auto":
        return "simulate"
    return getattr(get_engine(engine), "fidelity", "simulate")


def resolve_engine(engine: str, config: ArchitectureConfig) -> Engine:
    """The engine that will simulate ``config`` under selector ``engine``.

    ``"auto"`` walks the auto-eligible engines by descending priority
    and returns the first supporting one; an explicit name returns that
    engine or fails if it rejects the configuration.
    """
    _ensure_builtins()
    if engine == "auto":
        candidates = sorted(
            (e for e in _REGISTRY.values() if e.auto_eligible),
            key=lambda e: (-e.priority, e.name),
        )
        for candidate in candidates:
            if candidate.supports(config):
                return candidate
        raise SimulationError(
            "no registered engine supports this configuration under 'auto' "
            f"(registered: {', '.join(sorted(_REGISTRY))})"
        )
    chosen = get_engine(engine)
    if not chosen.supports(config):
        requires = getattr(chosen, "requires", "")
        detail = f" (requires {requires})" if requires else ""
        raise SimulationError(
            f"engine {engine!r} does not support this configuration{detail}"
        )
    return chosen
