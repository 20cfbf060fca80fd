"""Backend dispatch for the compiled simulation kernels.

Every caller outside :mod:`repro.kernels` reaches the kernels through
this module (reprolint REPRO009 enforces it), so the numpy fallback
stays load-bearing and backend selection stays a one-line concern:

- ``cext`` — the kernels' loops as a C shared library built on demand
  with the system compiler and loaded via ctypes; preferred whenever
  it loads.
- ``numpy`` — the vectorized fallback and semantic anchor; always
  available.

Every kernel runs on one process-wide backend: ``REPRO_KERNELS`` when
set (read on first use, an unknown value fails fast), else the best
available. Tests and benchmarks pin it with :func:`set_backend` /
:func:`use_backend`; pool workers inherit the parent's (see
:mod:`repro.core.pool`). All counters are int64 in and out; the
differential fuzz suite pins the C backend bit-identical to numpy.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from types import ModuleType

import numpy as np

from repro.errors import SimulationError

from repro.kernels import _numpy

#: Probe order doubles as preference order.
_PREFERENCE: tuple[str, ...] = ("cext", "numpy")

_modules: dict[str, ModuleType] = {"numpy": _numpy}
_failures: dict[str, str] = {}
_probed = False
_active: str | None = None


def _probe() -> None:
    """Load the C backend once, recording why it is absent."""
    global _probed
    if _probed:
        return
    _probed = True
    try:
        from repro.kernels import _cext

        if _cext.available():
            _modules["cext"] = _cext
        else:
            _failures["cext"] = _cext.unavailable_reason() or "unavailable"
    except Exception as exc:
        _failures["cext"] = f"{type(exc).__name__}: {exc}"


def available_backends() -> tuple[str, ...]:
    """Importable backends, best first."""
    _probe()
    return tuple(name for name in _PREFERENCE if name in _modules)


def backend_status() -> dict[str, str | None]:
    """Map every known backend to ``None`` (available) or its failure."""
    _probe()
    return {name: _failures.get(name) for name in _PREFERENCE}


def compiled_backend() -> str | None:
    """``"cext"`` when the C backend loads, else ``None``."""
    _probe()
    return "cext" if "cext" in _modules else None


def _default_backend() -> str:
    requested = os.environ.get("REPRO_KERNELS")
    if requested:
        return requested
    return available_backends()[0]


def active_backend() -> str:
    """The backend every kernel call runs on."""
    global _active
    if _active is None:
        _active = _default_backend()
        _resolve(_active)  # fail fast on a bogus REPRO_KERNELS value
    return _active


def set_backend(name: str | None) -> None:
    """Pin the process-wide backend; ``None`` re-derives the default."""
    global _active
    if name is not None:
        _resolve(name)
    _active = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily pin the process-wide backend."""
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _resolve(name: str) -> ModuleType:
    _probe()
    try:
        return _modules[name]
    except KeyError:
        reason = _failures.get(name)
        detail = f" ({reason})" if reason else ""
        known = ", ".join(_PREFERENCE)
        raise SimulationError(
            f"unknown or unavailable kernel backend {name!r}{detail}; "
            f"known backends: {known}"
        ) from None


def _impl() -> ModuleType:
    return _resolve(active_backend())


# ----------------------------------------------------------------------
# Kernels. Callers pre-validate structure (splits partition cycles,
# window is positive); backends validate per-element invariants
# (monotonicity, window membership) identically.
# ----------------------------------------------------------------------
def gap_extract(
    cycles: np.ndarray,
    splits: np.ndarray,
    start_cycle: int,
    end_cycle: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract every bank's positive idle gaps from the sorted stream.

    Bank ``b`` owns ``cycles[splits[b]:splits[b + 1]]`` (strictly
    increasing, inside ``[start_cycle, end_cycle)``). Returns
    ``(gap_values, gap_banks, accesses, idle_intervals, idle_cycles)``:
    the positive-gap multiset — leading, interior, trailing, and the
    whole-window gap of a never-accessed bank — plus per-bank int64
    counters. Gap ordering is backend-defined; consumers reduce over
    the multiset only.
    """
    result: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    result = _impl().gap_extract(cycles, splits, int(start_cycle), int(end_cycle))
    return result


def gap_threshold_batch(
    gap_values: np.ndarray,
    gap_banks: np.ndarray,
    num_banks: int,
    breakevens: np.ndarray,
    useful: np.ndarray,
    sleep: np.ndarray,
) -> None:
    """Threshold a gap multiset at each breakeven row.

    For every row ``r``: a gap converts when ``gap > breakevens[r]``,
    adding 1 to ``useful[r, bank]`` and ``gap - breakeven`` to
    ``sleep[r, bank]``. ``breakevens[r] < 0`` means infinite (no gap
    ever converts). Accumulates into the caller-zeroed ``(n_be,
    num_banks)`` int64 buffers in place.
    """
    _impl().gap_threshold_batch(
        gap_values, gap_banks, int(num_banks), breakevens, useful, sleep
    )


def stream_gap_update(
    cycles: np.ndarray,
    splits: np.ndarray,
    last_event: np.ndarray,
    accesses: np.ndarray,
    idle_intervals: np.ndarray,
    idle_cycles: np.ndarray,
    breakevens: np.ndarray,
    useful: np.ndarray,
    sleep: np.ndarray,
) -> None:
    """Fold one bank-sorted chunk into streaming carry-state counters.

    The fused core of ``StreamingGapAccumulator.update``: per-bank gaps
    close against ``last_event`` (leading) and within the chunk
    (interior), every breakeven row is thresholded in the same pass,
    and ``last_event``/``accesses`` advance. Trailing gaps stay open
    for ``finalize``. All arrays are mutated in place.
    """
    _impl().stream_gap_update(
        cycles,
        splits,
        last_event,
        accesses,
        idle_intervals,
        idle_cycles,
        breakevens,
        useful,
        sleep,
    )


def lru_walk(tags: np.ndarray, starts: np.ndarray, ways: int) -> tuple[int, np.ndarray]:
    """Cold-started LRU over contiguous tag groups.

    ``tags`` is sorted by (group, arrival); group ``g`` owns
    ``tags[starts[g]:starts[g + 1]]``. Returns ``(hits,
    lines_per_group)`` where ``lines_per_group[g]`` is the lines the
    set retains: ``min(distinct tags, ways)``.
    """
    hits, lines = _impl().lru_walk(tags, starts, int(ways))
    return int(hits), np.asarray(lines, dtype=np.int64)


def lru_segment(idx: np.ndarray, tags: np.ndarray, stacks: np.ndarray) -> int:
    """Advance carried LRU stacks through one set-sorted segment.

    ``idx``/``tags`` are sorted by (set, arrival); ``stacks`` is the
    carried ``(num_sets, ways)`` int64 recency matrix (``-1`` invalid),
    mutated in place. Returns the segment's hits.
    """
    return int(_impl().lru_segment(idx, tags, stacks))
