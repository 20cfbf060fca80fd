"""C kernel backend: build ``_ckernels.c`` on demand, load via ctypes.

The shared library is compiled once per source revision with the system
C compiler (``cc``/``gcc``; no Python C-API involved, so there is no
ABI coupling) and cached next to the package (or, when that directory
is read-only, under the user's temp dir) keyed by a hash of the source
and the compile command. Every step degrades gracefully: no compiler,
a failed compile, or an unloadable artifact simply marks the backend
unavailable and :mod:`repro.kernels.dispatch` falls back to numpy —
the compiled path is an accelerator, never a dependency.

Concurrency: compiles land in a unique temp file and are published
with ``os.replace``, so racing processes at worst both compile and one
atomic rename wins.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.errors import SimulationError

NAME = "cext"

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ckernels.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-fvisibility=hidden")

_lib: ctypes.CDLL | None = None
_load_error: str | None = None


def _compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _cache_dirs() -> list[str]:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return [override]
    return [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cache"),
        os.path.join(tempfile.gettempdir(), "repro-kernels"),
    ]


def _build() -> tuple[ctypes.CDLL | None, str | None]:
    """Compile (if needed) and load the kernel library."""
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    soname = f"_ckernels_{key}.so"
    last_error = "no writable cache directory"
    for directory in _cache_dirs():
        target = os.path.join(directory, soname)
        if not os.path.exists(target):
            try:
                os.makedirs(directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
                os.close(fd)
                proc = subprocess.run(
                    [compiler, *_CFLAGS, "-o", tmp, _SOURCE],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode != 0:
                    os.unlink(tmp)
                    return None, f"compile failed: {proc.stderr.strip()[:200]}"
                os.replace(tmp, target)
            except OSError as exc:
                last_error = f"cache dir {directory!r} unusable: {exc}"
                continue
        try:
            return ctypes.CDLL(target), None
        except OSError as exc:
            last_error = f"built library failed to load: {exc}"
    return None, last_error


_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p

_SIGNATURES = {
    # Raw addresses: the scans run once per chunk (the gap scan once per
    # chunk and routing), where ndpointer's per-argument checks cost
    # more than scanning a small chunk. The wrappers below make the
    # inputs contiguous and the dispatcher has checked the carried
    # buffers' dtype and layout.
    "repro_gap_scan": (
        _i64,
        [_ptr, _ptr, _i64, _ptr, _i64, _ptr, _i64, _i64, _i64, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr],
    ),
    "repro_cache_scan": (
        _i64,
        [_ptr, _ptr, _i64, _ptr, _i64, _ptr, _i64, _i64, ctypes.POINTER(_i64)],
    ),
}


def _library() -> ctypes.CDLL:
    global _lib, _load_error
    if _lib is None and _load_error is None:
        _lib, _load_error = _build()
        if _lib is not None:
            for symbol, (restype, argtypes) in _SIGNATURES.items():
                fn = getattr(_lib, symbol)
                fn.restype = restype
                fn.argtypes = argtypes
    if _lib is None:
        raise SimulationError(f"compiled kernel backend unavailable: {_load_error}")
    return _lib


def available() -> bool:
    """Whether the compiled library can be (or has been) loaded."""
    try:
        _library()
    except SimulationError:
        return False
    return True


def unavailable_reason() -> str | None:
    """Why the backend is unavailable (``None`` when it is available)."""
    return None if available() else _load_error


def _contig(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


#: Returned for a run that overflows nothing, so it copies nothing.
_NO_GAPS = np.empty(0, dtype=np.int64)
_NO_GAPS.flags.writeable = False


# ----------------------------------------------------------------------
# Backend contract (see repro.kernels.dispatch for semantics)
# ----------------------------------------------------------------------
def gap_scan(cycles, index, starts, tables, shift, last, accesses, dense):
    lib = _library()
    n = cycles.size
    cycles, index, starts = _contig(cycles), _contig(index), _contig(starts)
    tables = np.ascontiguousarray(tables)
    overflow = np.empty((2, n), dtype=np.int64)
    over_banks = overflow.ctypes.data
    count = lib.repro_gap_scan(
        cycles.ctypes.data,
        index.ctypes.data,
        n,
        starts.ctypes.data,
        starts.size - 1,
        tables.ctypes.data,
        tables.itemsize,
        tables.shape[1],
        shift,
        last.ctypes.data,
        accesses.ctypes.data,
        last.size,
        dense.ctypes.data,
        dense.shape[1],
        over_banks,
        over_banks + 8 * n,
    )
    if count <= 0:
        return count, _NO_GAPS, _NO_GAPS
    return 0, overflow[0, :count].copy(), overflow[1, :count].copy()


def cache_scan(index, tags, starts, stacks):
    lib = _library()
    index, tags, starts = _contig(index), _contig(tags), _contig(starts)
    num_sets, ways = stacks.shape
    flushed = _i64(0)
    hits = lib.repro_cache_scan(
        index.ctypes.data,
        tags.ctypes.data,
        index.size,
        starts.ctypes.data,
        starts.size - 1,
        stacks.ctypes.data,
        num_sets,
        ways,
        ctypes.byref(flushed),
    )
    return hits, flushed.value
