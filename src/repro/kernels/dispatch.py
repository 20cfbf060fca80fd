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
# Kernels. The dispatcher validates structure (shapes, epoch brackets);
# backends validate per-element invariants (index and bank ranges,
# monotonicity) identically.
# ----------------------------------------------------------------------
_SCAN_ERRORS = {
    "one-shot": {
        _numpy.ERR_NONMONOTONIC: "access cycles must be strictly increasing",
        _numpy.ERR_NOT_LATER: "access cycles outside the observation window",
        _numpy.ERR_RANGE: "a set index or bank table entry is outside the routed banks",
    },
    "carried": {
        _numpy.ERR_NONMONOTONIC: "access cycles must be strictly increasing",
        _numpy.ERR_NOT_LATER: "chunk accesses must be later than every prior access",
        _numpy.ERR_RANGE: "a set index or bank table entry is outside the routed banks",
    },
}


def _check_brackets(n: int, index: np.ndarray, starts: np.ndarray) -> None:
    if (
        index.size != n
        or starts.size == 0
        or int(starts[0]) != 0
        or int(starts[-1]) != n
        or bool((starts[1:] < starts[:-1]).any())
    ):
        raise SimulationError("epoch brackets do not partition the accesses")


def _scan(
    kind: str,
    cycles: np.ndarray,
    index: np.ndarray,
    starts: np.ndarray,
    tables: np.ndarray,
    shift: int,
    last: np.ndarray,
    accesses: np.ndarray,
    dense: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the backend's scan; map its error code onto ``kind``'s message.

    The shape checks here and the backends' range checks keep the C
    kernel's reads and writes in bounds.
    """
    for name, array in (("last", last), ("accesses", accesses), ("dense", dense)):
        if array.dtype != np.int64 or not array.flags.c_contiguous:
            raise SimulationError(f"{name} must be a C-contiguous int64 array")
    num_banks = last.size
    if accesses.size != num_banks or dense.ndim != 2 or dense.shape[0] != num_banks:
        raise SimulationError("carried scan state does not match the bank count")
    if tables.dtype.kind != "u" or tables.ndim != 2 or tables.shape[0] != starts.size - 1:
        raise SimulationError("need one unsigned bank table per epoch")
    _check_brackets(cycles.size, index, starts)
    code: int
    over_banks: np.ndarray
    over_lengths: np.ndarray
    code, over_banks, over_lengths = _impl().gap_scan(
        cycles, index, starts, tables, int(shift), last, accesses, dense
    )
    if code < 0:
        raise SimulationError(_SCAN_ERRORS[kind][code])
    return over_banks, over_lengths


def gap_extract(
    cycles: np.ndarray,
    index: np.ndarray,
    starts: np.ndarray,
    tables: np.ndarray,
    shift: int,
    last: np.ndarray,
    accesses: np.ndarray,
    dense: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one-shot idle-gap scan: :func:`stream_gap_update` over a run of
    a whole observation window.

    The caller starts ``last`` at ``start_cycle - 1`` and closes the
    trailing gaps afterwards, so an access no later than its bank's
    ``last`` on entry lies before the window and raises the window
    error.
    """
    return _scan("one-shot", cycles, index, starts, tables, shift, last, accesses, dense)


def stream_gap_update(
    cycles: np.ndarray,
    index: np.ndarray,
    starts: np.ndarray,
    tables: np.ndarray,
    shift: int,
    last: np.ndarray,
    accesses: np.ndarray,
    dense: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold one run of arrival-order accesses into a carried gap spectrum.

    Epoch ``e`` owns positions ``starts[e]:starts[e + 1]``, and its
    access ``i`` lands in physical bank
    ``tables[e, index[i] >> shift]`` (``tables`` in any unsigned
    dtype, narrowest best; an index past the tables or a bank past
    ``last`` raises). Each access closes the gap since its bank's
    ``last`` access: a gap ``0 < g < cutoff`` (``cutoff =
    dense.shape[1]``) adds one to ``dense[bank, g]``, a longer one is
    returned. ``last`` and ``accesses`` advance in place; trailing gaps
    stay open. Returns the overflow gaps ``(banks, lengths)`` as int64
    arrays in a backend-defined order (consumers count them).
    """
    return _scan("carried", cycles, index, starts, tables, shift, last, accesses, dense)


def gap_threshold_batch(
    count_suffix: np.ndarray,
    length_suffix: np.ndarray,
    over_banks: np.ndarray,
    over_lengths: np.ndarray,
    over_counts: np.ndarray,
    breakevens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold a counted gap spectrum at each breakeven row.

    ``count_suffix[b, k]``/``length_suffix[b, k]`` are the number and
    summed length of bank ``b``'s gaps of length ``>= k`` for ``k <=
    cutoff``; the overflow triples count the gaps of length ``>=
    cutoff``. Row ``r`` of the returned ``(useful, sleep)`` matrices
    holds ``#(gap > breakevens[r])`` and ``sum(gap > breakevens[r]) -
    breakevens[r] * useful``; ``breakevens[r] < 0`` means infinite (no
    gap converts). Integer-exact, and one numpy implementation on every
    backend: a counted spectrum costs O(banks x breakevens) to
    threshold.
    """
    return _numpy.gap_threshold_batch(
        count_suffix, length_suffix, over_banks, over_lengths, over_counts, breakevens
    )


def _cache_scan(
    index: np.ndarray, tag: np.ndarray, starts: np.ndarray, stacks: np.ndarray
) -> tuple[int, int]:
    """Run the backend's cache scan. The checks here and the backends'
    set-index range check keep the C kernel's reads and writes in
    bounds."""
    if (
        stacks.dtype != np.int64
        or not stacks.flags.c_contiguous
        or stacks.ndim != 2
        or stacks.size == 0
    ):
        raise SimulationError("stacks must be a C-contiguous (num_sets, ways) int64 array")
    _check_brackets(tag.size, index, starts)
    hits, flushed = _impl().cache_scan(index, tag, starts, stacks)
    if hits < 0:
        raise SimulationError("a set index is outside the cache's sets")
    return int(hits), int(flushed)


def lru_walk(
    index: np.ndarray, tag: np.ndarray, starts: np.ndarray, num_sets: int, ways: int
) -> tuple[int, int]:
    """The one-shot cache walk: :func:`lru_segment` over a whole trace
    from a cold ``(num_sets, ways)`` cache. Returns ``(hits,
    flushed)``."""
    stacks = np.full((int(num_sets), int(ways)), -1, dtype=np.int64)
    return _cache_scan(index, tag, starts, stacks)


def lru_segment(
    index: np.ndarray, tag: np.ndarray, starts: np.ndarray, stacks: np.ndarray
) -> tuple[int, int]:
    """Advance carried cache contents through one run of accesses.

    ``stacks`` is the ``(num_sets, ways)`` int64 matrix of per-set LRU
    recency stacks, most recent first, ``-1`` an invalid way (tags are
    non-negative, so it never aliases one); a direct-mapped cache has
    one way. Epoch ``e`` owns positions ``starts[e]:starts[e + 1]``,
    and before each epoch after the first an update flushes the cache:
    its valid lines are counted and every way invalidated. Access
    ``i`` looks ``tag[i]`` up in set ``index[i]`` in arrival order; a
    set index outside the stacks raises, leaving them untouched.
    ``stacks`` advances in place. Returns ``(hits, flushed)``: the
    run's hits and the lines its flushes invalidated.
    """
    return _cache_scan(index, tag, starts, stacks)
