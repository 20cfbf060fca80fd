"""Declarative campaign specifications.

A :class:`CampaignSpec` is the first-class representation of "an
experiment": which workloads (a list of :class:`~repro.campaign.tracespec.TraceSpec`),
which configurations (a base :class:`~repro.core.config.ArchitectureConfig`
plus named axes, exactly like :func:`repro.analysis.sweep.sweep`), and
which engine. It is pure data — serializable to a JSON file, editable by
hand, and content-hashed.

Content-hash guarantee
----------------------
:meth:`CampaignSpec.spec_hash` hashes the canonical encoded form
(sorted keys, defaults explicit, axis values encoded through the exact
config codec). Two spec files that decode to equal specs hash equally
regardless of formatting or key order; any change to a workload, the
base config, an axis value, or the engine changes the hash. Execution
knobs that cannot change results (``parallel`` worker counts) are
deliberately *not* part of the spec, so they can never fragment a
store.

Every grid point also has its own identity: the pair
``(trace_hash, config_hash)`` of its workload spec and its fully
substituted config. The store keys on that pair, which is what makes
reruns incremental — a widened axis adds new pairs, and only those are
simulated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.campaign.codec import (
    CodecError,
    config_from_dict,
    config_result_hash,
    config_to_dict,
    content_hash,
    geometry_from_dict,
    geometry_to_dict,
    technology_from_dict,
    technology_to_dict,
)
from repro.analysis.planner import PlannedGrid, SearchSpec, plan_grid
from repro.campaign.tracespec import TraceSpec
from repro.cache.geometry import CacheGeometry
from repro.core.config import ArchitectureConfig
from repro.errors import ConfigurationError
from repro.power.energy import TechnologyParams

#: Version of the campaign spec file format.
SPEC_FORMAT_VERSION = 1


def _encode_axis_value(name: str, value):
    """Encode one axis value to JSON types, field-aware."""
    if value is None:
        return None
    if name == "geometry":
        if not isinstance(value, CacheGeometry):
            raise CodecError("geometry axis values must be CacheGeometry objects")
        return geometry_to_dict(value)
    if name == "technology":
        if not isinstance(value, TechnologyParams):
            raise CodecError("technology axis values must be TechnologyParams objects")
        return technology_to_dict(value)
    if name == "update_events":
        return list(value)
    if isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(
        f"axis {name!r}: cannot encode value of type {type(value).__name__}"
    )


def _decode_axis_value(name: str, value):
    """Inverse of :func:`_encode_axis_value`."""
    if value is None:
        return None
    if name == "geometry":
        return geometry_from_dict(value)
    if name == "technology":
        return technology_from_dict(value)
    if name == "update_events":
        if not isinstance(value, (list, tuple)):
            raise CodecError("update_events axis values must be lists")
        return tuple(int(c) for c in value)
    return value


@dataclass(frozen=True)
class CampaignPointSpec:
    """One fully substituted grid point of a campaign.

    ``family`` is the engine's *result family* (see
    :func:`repro.core.engine.result_family`): banked engines share
    store entries, engines simulating a different machine get their own
    point identities. ``fidelity`` is the engine's result fidelity
    (:func:`repro.core.engine.result_fidelity`): estimated records key
    separately from simulated ones, so a prediction can never satisfy —
    or be overwritten by — a measurement of the same point.
    """

    trace: TraceSpec
    parameters: dict
    config: ArchitectureConfig
    family: str = "banked"
    fidelity: str = "simulate"

    def key_at(self, fidelity: str) -> tuple[str, str]:
        """The store key this point would have at ``fidelity``."""
        return (
            self.trace.trace_hash(),
            config_result_hash(self.config, self.family, fidelity),
        )

    def key(self) -> tuple[str, str]:
        """The store key ``(trace_hash, result hash)``."""
        return self.key_at(self.fidelity)


@dataclass(frozen=True)
class CampaignSpec:
    """Serializable description of a whole simulation campaign.

    Attributes
    ----------
    name:
        Human label; carried into the campaign directory metadata (not
        part of any point's identity).
    traces:
        Workload specs; the config grid runs once per workload.
    base:
        Configuration template the axes are substituted into.
    axes:
        ``field name -> candidate values`` (any
        :class:`ArchitectureConfig` field). May be empty: the campaign
        then runs exactly the base config per trace.
    engine:
        Engine selector forwarded to the sweep engine; any name in the
        engine registry (``repro engines``) is valid. Part of the spec
        hash (it describes *how* to run). Engines of the same *result
        family* are bit-identical by construction, so their store
        entries are shared (``fast``/``reference``/``auto``); engines
        of a different family (``finegrain``) key their records
        separately.
    search:
        Optional :class:`~repro.analysis.planner.SearchSpec` describing
        how the grid is explored. ``None`` (the default, and the only
        value the pre-search spec format could express) means
        exhaustive execution; a spec file opts in with a ``"search"``
        block. Part of the spec hash only when present, so every
        pre-existing spec file keeps its hash.
    """

    name: str
    traces: tuple[TraceSpec, ...]
    base: ArchitectureConfig
    axes: dict = field(default_factory=dict)
    engine: str = "auto"
    search: "SearchSpec | None" = None

    def __post_init__(self) -> None:
        # Registry-backed: any engine registered via register_engine()
        # is a valid campaign engine; unknown names fail here with the
        # registered list in the message.
        from repro.core.engine import validate_engine

        if not self.traces:
            raise CodecError("a campaign needs at least one trace spec")
        object.__setattr__(self, "traces", tuple(self.traces))
        axes = {name: list(values) for name, values in dict(self.axes).items()}
        try:
            plan_grid(axes, allow_empty=True)
        except ConfigurationError as exc:
            raise CodecError(str(exc)) from exc
        object.__setattr__(self, "axes", axes)
        validate_engine(self.engine)
        if self.search is not None and not isinstance(self.search, SearchSpec):
            raise CodecError(
                "campaign 'search' must be a SearchSpec (or None for "
                f"exhaustive), got {type(self.search).__name__}"
            )

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> list[str]:
        """Axis names in declaration order."""
        return list(self.axes)

    def grid(self) -> PlannedGrid:
        """The planned grid of the axes (one empty combo when no axes)."""
        return plan_grid(self.axes, allow_empty=True)

    def combos(self) -> list[tuple]:
        """Cartesian product of the axes, in grid order."""
        return list(self.grid().combos)

    def trace_points(self, trace: TraceSpec) -> list[CampaignPointSpec]:
        """The grid points of one trace, in grid order.

        The single place point identity is derived — the runner, the
        status command and :meth:`points` all substitute axes into the
        base config and key the store through here, so they can never
        disagree about which points exist.

        Raises the underlying configuration error if an axis combination
        is invalid (e.g. a dynamic policy with one bank) — a campaign
        grid must be fully valid before anything runs.
        """
        from repro.core.engine import result_family, result_fidelity

        names = self.axis_names
        family = result_family(self.engine)
        fidelity = result_fidelity(self.engine)
        points = []
        for combo in self.combos():
            parameters = dict(zip(names, combo))
            points.append(
                CampaignPointSpec(
                    trace=trace,
                    parameters=parameters,
                    config=replace(self.base, **parameters),
                    family=family,
                    fidelity=fidelity,
                )
            )
        return points

    def points(self) -> Iterator[CampaignPointSpec]:
        """Yield every (trace, parameters, config) point in grid order."""
        for trace in self.traces:
            yield from self.trace_points(trace)

    def num_points(self) -> int:
        """Total grid size across all traces."""
        return len(self.grid()) * len(self.traces)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-shaped form (defaults explicit).

        The ``"search"`` key appears only when a search block is set:
        a spec without one encodes exactly as the pre-search format
        did, keeping every existing spec file's hash stable.
        """
        payload = {
            "version": SPEC_FORMAT_VERSION,
            "name": self.name,
            "engine": self.engine,
            "traces": [trace.to_dict() for trace in self.traces],
            "base": config_to_dict(self.base),
            "axes": {
                name: [_encode_axis_value(name, v) for v in values]
                for name, values in self.axes.items()
            },
        }
        if self.search is not None:
            payload["search"] = self.search.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Decode a spec payload (e.g. a parsed spec file)."""
        if not isinstance(payload, dict):
            raise CodecError(
                f"campaign payload must be a dict, got {type(payload).__name__}"
            )
        version = payload.get("version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise CodecError(f"unsupported campaign spec version {version!r}")
        unknown = set(payload) - {
            "version", "name", "engine", "traces", "base", "axes", "search",
        }
        if unknown:
            raise CodecError(f"unknown campaign spec fields: {sorted(unknown)}")
        traces = payload.get("traces")
        if not isinstance(traces, list) or not traces:
            raise CodecError("campaign spec needs a non-empty 'traces' list")
        if "base" not in payload:
            raise CodecError("campaign spec missing 'base' config")
        axes_payload = payload.get("axes", {})
        if not isinstance(axes_payload, dict):
            raise CodecError("campaign 'axes' must be a dict of value lists")
        axes = {
            name: [_decode_axis_value(name, v) for v in values]
            for name, values in axes_payload.items()
        }
        search_payload = payload.get("search")
        if search_payload is not None and not isinstance(search_payload, dict):
            raise CodecError("campaign 'search' must be a dict block")
        return cls(
            name=str(payload.get("name", "")),
            traces=tuple(TraceSpec.from_dict(t) for t in traces),
            base=config_from_dict(payload["base"]),
            axes=axes,
            engine=str(payload.get("engine", "auto")),
            search=(
                SearchSpec.from_dict(search_payload)
                if search_payload is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Files and identity
    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """Content hash of the canonical form (see module docstring)."""
        return content_hash(self.to_dict())

    def save(self, path: str | os.PathLike) -> None:
        """Write the spec as a JSON file (atomically)."""
        from repro.core.serialize import write_json_atomic

        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CampaignSpec":
        """Read a spec file written by :meth:`save` (or by hand)."""
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CodecError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(payload)
