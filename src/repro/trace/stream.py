"""Streaming, out-of-core trace access: the :class:`TraceChunk` pipeline.

Everything above this module historically assumed a whole
:class:`~repro.trace.trace.Trace` resident in RAM, which caps the
reproduction at traces that fit in memory. This module defines the
chunked alternative: a *trace stream* is any object that yields
:class:`TraceChunk`\\ s — consecutive, cycle-aligned windows of the
access stream — so a consumer that carries its state across chunk
boundaries (see :class:`repro.power.idleness.StreamingGapAccumulator`
and :mod:`repro.core.streamsim`) can simulate a trace of any length in
``O(chunk)`` memory.

Stream contract
---------------
* ``chunks()`` yields :class:`TraceChunk`\\ s in cycle order; each chunk
  covers a half-open window ``[start_cycle, end_cycle)`` aligned to
  multiples of ``chunk_cycles``, holds every access of that window, and
  windows with no accesses are skipped (they carry no information —
  idle time is implicit in the cycle gaps).
* cycle stamps are strictly increasing across the whole stream (each
  chunk is validated locally; consumers validate across boundaries).
* ``horizon`` is the total simulated cycle count. It may be ``None``
  before the stream has been exhausted when the backing format does not
  declare it up front (a ``.trc`` file without a ``# horizon:`` header);
  it is always set once ``chunks()`` has run to completion.
* ``chunks()`` may be called repeatedly; every pass yields the
  identical chunk sequence (readers re-open their file, the synthetic
  stream re-derives its RNG streams).

Sources
-------
* :func:`chunk_trace` / :class:`InMemoryTraceStream` — chunked view of
  an in-memory trace (the equivalence oracle for everything else);
* :class:`TextTraceStream` — line-by-line reader of the ``.trc``
  format; never holds more than one chunk of parsed accesses;
* :class:`NpzTraceStream` — chunked view of an ``.npz`` archive (zip
  members decompress whole, so this bounds *working-set* memory of the
  simulation, not of the load itself);
* :class:`MmapTraceStream` + :func:`save_trace_mmap` — a directory
  format (``cycles.npy`` + ``addresses.npy`` + ``meta.json``) opened
  with ``numpy.load(mmap_mode="r")``: chunk slices touch only their own
  pages, so the load itself is out-of-core;
* :meth:`repro.trace.generator.WorkloadGenerator.stream` — the chunked
  synthetic generator (bit-identical to ``generate()``): it synthesizes
  each chunk's windows as one vectorized block, so a chunk costs a
  fixed number of array operations however many windows it spans.

:func:`open_trace_stream` dispatches on path shape, mirroring
:func:`repro.trace.io.load_trace`.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.io import TextTraceReader, _escape_name, _unescape_name
from repro.trace.trace import Trace

#: File names of the memory-mapped directory format.
MMAP_META = "meta.json"
MMAP_CYCLES = "cycles.npy"
MMAP_ADDRESSES = "addresses.npy"
MMAP_FORMAT = "repro-trace-mmap-v1"


@dataclass(frozen=True)
class TraceChunk:
    """One cycle-window of a streamed trace.

    Attributes
    ----------
    cycles, addresses:
        The accesses whose stamps fall in ``[start_cycle, end_cycle)``,
        in cycle order (same layout as :class:`~repro.trace.trace.Trace`
        arrays, but only this window's slice).
    start_cycle, end_cycle:
        The half-open window the chunk covers. Windows are aligned to
        multiples of the stream's ``chunk_cycles``; consecutive chunks
        of a stream never overlap.
    """

    cycles: np.ndarray
    addresses: np.ndarray
    start_cycle: int
    end_cycle: int

    def __len__(self) -> int:
        return int(self.cycles.size)


def _validated_chunk(
    cycles: np.ndarray, addresses: np.ndarray, start_cycle: int, end_cycle: int
) -> TraceChunk:
    """Build a chunk, enforcing the local half of the stream contract."""
    cycles = np.ascontiguousarray(cycles, dtype=np.int64)
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    if cycles.shape != addresses.shape or cycles.ndim != 1:
        raise TraceError("chunk cycles and addresses must be equal-length 1-D arrays")
    if cycles.size:
        if int(cycles[0]) < start_cycle or int(cycles[-1]) >= end_cycle:
            raise TraceError("chunk accesses outside the chunk window")
        if np.any(np.diff(cycles) <= 0):
            raise TraceError("chunk cycle stamps must be strictly increasing")
        if np.any(addresses < 0):
            raise TraceError("chunk addresses must be non-negative")
    return TraceChunk(cycles, addresses, int(start_cycle), int(end_cycle))


class TraceStream:
    """Base class carrying the stream contract (see module docstring)."""

    name: str = ""
    chunk_cycles: int = 0
    #: Total simulated cycles; may be ``None`` until ``chunks()`` has
    #: been exhausted once (formats that do not declare it up front).
    horizon: int | None = None

    def chunks(self) -> Iterator[TraceChunk]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[TraceChunk]:
        return self.chunks()


def _check_chunk_cycles(chunk_cycles: int) -> int:
    if chunk_cycles < 1:
        raise TraceError("chunk_cycles must be >= 1")
    return int(chunk_cycles)


def _window_pieces(
    pieces: Iterable[tuple[np.ndarray, np.ndarray]], chunk_cycles: int
) -> Iterator[TraceChunk]:
    """Re-chunk a piecewise access stream into aligned cycle windows.

    ``pieces`` yields ``(cycles, addresses)`` array pairs in cycle order
    with arbitrary piece boundaries (per generator block, per file read
    buffer, ...); the output is the canonical chunk sequence: one chunk
    per ``chunk_cycles``-aligned window that contains at least one
    access. Only the current window's accesses are buffered, and a
    window that one piece fills alone is passed on without a copy.
    """
    buf_cycles: list[np.ndarray] = []
    buf_addresses: list[np.ndarray] = []
    window = -1

    def flush() -> TraceChunk:
        if len(buf_cycles) == 1:
            cycles, addresses = buf_cycles[0], buf_addresses[0]
        else:
            cycles = np.concatenate(buf_cycles)
            addresses = np.concatenate(buf_addresses)
        buf_cycles.clear()
        buf_addresses.clear()
        return _validated_chunk(
            cycles, addresses, window * chunk_cycles, (window + 1) * chunk_cycles
        )

    for cycles, addresses in pieces:
        cycles = np.ascontiguousarray(cycles, dtype=np.int64)
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        pos = 0
        n = cycles.size
        while pos < n:
            w = int(cycles[pos]) // chunk_cycles
            if w != window and buf_cycles:
                yield flush()
            window = w
            hi = pos + int(
                np.searchsorted(cycles[pos:], (w + 1) * chunk_cycles, side="left")
            )
            buf_cycles.append(cycles[pos:hi])
            buf_addresses.append(addresses[pos:hi])
            pos = hi
    if buf_cycles:
        yield flush()


def chunk_trace(trace: Trace, chunk_cycles: int) -> Iterator[TraceChunk]:
    """Iterate an in-memory trace as aligned cycle-window chunks."""
    chunk_cycles = _check_chunk_cycles(chunk_cycles)
    yield from _window_pieces([(trace.cycles, trace.addresses)], chunk_cycles)


class InMemoryTraceStream(TraceStream):
    """Chunked view of a resident trace — the streaming oracle.

    Useful for testing streaming consumers against the one-shot path,
    and as the adapter that lets any in-memory trace flow through the
    chunked machinery.
    """

    def __init__(self, trace: Trace, chunk_cycles: int) -> None:
        self.trace = trace
        self.chunk_cycles = _check_chunk_cycles(chunk_cycles)
        self.horizon = trace.horizon
        self.name = trace.name

    def chunks(self) -> Iterator[TraceChunk]:
        yield from chunk_trace(self.trace, self.chunk_cycles)


class TextTraceStream(TraceStream):
    """Streaming reader of the ``.trc`` text format.

    Lines are parsed one at a time by the
    :class:`~repro.trace.io.TextTraceReader` that ``load_trace`` uses
    too, and buffered per read block; peak memory is one chunk window
    plus one parse buffer, independent of file length. The leading
    headers are read at construction so ``name`` (and ``horizon``, when
    the header declares it) are known up front; a headerless file's
    horizon becomes known once ``chunks()`` is exhausted (last access +
    1, the :class:`Trace` default), as do headers oddly placed after
    data lines (which ``load_trace`` honors, so a full pass always
    agrees with it).
    """

    #: Accesses parsed per numpy conversion batch.
    _BATCH = 8192

    def __init__(self, path: str | os.PathLike, chunk_cycles: int) -> None:
        self.path = os.fspath(path)
        self.chunk_cycles = _check_chunk_cycles(chunk_cycles)
        reader = TextTraceReader(self.path)
        with closing(reader.accesses()) as accesses:
            next(accesses, None)  # the leading headers, up to the first access
        self.name = reader.name
        self.horizon = reader.horizon

    def _pieces(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        reader = TextTraceReader(self.path)
        accesses = reader.accesses()
        while batch := list(islice(accesses, self._BATCH)):
            cycles, addresses = np.array(batch, dtype=np.int64).T
            yield cycles, addresses
        self.name = reader.name
        self.horizon = reader.final_horizon()

    def chunks(self) -> Iterator[TraceChunk]:
        yield from _window_pieces(self._pieces(), self.chunk_cycles)


class NpzTraceStream(TraceStream):
    """Chunked view of an ``.npz`` trace archive.

    Compressed zip members decompress as whole arrays, so the *load* is
    not out-of-core; what this bounds is the simulation working set
    (decode and routing arrays become per-chunk). For a load that is
    itself memory-mapped, use the directory format
    (:func:`save_trace_mmap` / :class:`MmapTraceStream`).
    """

    def __init__(self, path: str | os.PathLike, chunk_cycles: int) -> None:
        self.path = os.fspath(path)
        self.chunk_cycles = _check_chunk_cycles(chunk_cycles)
        with np.load(self.path, allow_pickle=False) as data:
            self.horizon = int(data["horizon"][0])
            self.name = _unescape_name(str(data["name"][0]))

    def chunks(self) -> Iterator[TraceChunk]:
        from repro.trace.io import load_trace

        yield from chunk_trace(load_trace(self.path), self.chunk_cycles)


def save_trace_mmap(trace: Trace, directory: str | os.PathLike) -> None:
    """Write ``trace`` in the memory-mappable directory format.

    The directory holds raw ``cycles.npy``/``addresses.npy`` arrays
    (loadable with ``numpy.load(mmap_mode="r")``) plus a ``meta.json``
    with the horizon and the (escaped) name — the format of choice for
    traces meant to be streamed, since readers touch only the pages of
    the chunks they visit.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, MMAP_CYCLES), trace.cycles)
    np.save(os.path.join(directory, MMAP_ADDRESSES), trace.addresses)
    meta = {
        "format": MMAP_FORMAT,
        "horizon": trace.horizon,
        "name": _escape_name(trace.name),
        "accesses": len(trace),
    }
    # Atomic: a crash mid-write must leave either the old meta.json or
    # the complete new one, never a truncated file that poisons every
    # later open of the directory (REPRO003). Imported lazily, as in
    # campaign/spec.py — trace modules stay importable on their own.
    from repro.core.serialize import write_json_atomic

    write_json_atomic(os.path.join(directory, MMAP_META), meta)


def load_trace_mmap(directory: str | os.PathLike) -> Trace:
    """Materialize a :func:`save_trace_mmap` directory as a full trace.

    The in-memory counterpart of :class:`MmapTraceStream` (and what
    :func:`repro.trace.io.load_trace` dispatches to for directories) —
    use the stream when the trace does not fit in RAM.
    """
    directory = os.fspath(directory)
    if not is_mmap_trace_dir(directory):
        raise TraceError(f"{directory}: directory is not a {MMAP_FORMAT} trace")
    stream = MmapTraceStream(directory, chunk_cycles=max(1, int(1e18)))
    return stream_to_trace(stream)


def is_mmap_trace_dir(path: str | os.PathLike) -> bool:
    """Whether ``path`` is a :func:`save_trace_mmap` directory."""
    return os.path.isdir(os.fspath(path)) and os.path.exists(
        os.path.join(os.fspath(path), MMAP_META)
    )


class MmapTraceStream(TraceStream):
    """Memory-mapped reader of the :func:`save_trace_mmap` directory format.

    Arrays are opened with ``numpy.load(mmap_mode="r")``; each chunk
    copies only its own window's slice, so resident memory stays
    ``O(chunk)`` regardless of trace length.
    """

    def __init__(self, directory: str | os.PathLike, chunk_cycles: int) -> None:
        self.directory = os.fspath(directory)
        self.chunk_cycles = _check_chunk_cycles(chunk_cycles)
        meta_path = os.path.join(self.directory, MMAP_META)
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("format") != MMAP_FORMAT:
            raise TraceError(
                f"{meta_path}: not a {MMAP_FORMAT} trace (format="
                f"{meta.get('format')!r})"
            )
        self.horizon = int(meta["horizon"])
        self.name = _unescape_name(str(meta.get("name", "")))
        self.accesses = int(meta.get("accesses", -1))

    def chunks(self) -> Iterator[TraceChunk]:
        cycles = np.load(
            os.path.join(self.directory, MMAP_CYCLES), mmap_mode="r"
        )
        addresses = np.load(
            os.path.join(self.directory, MMAP_ADDRESSES), mmap_mode="r"
        )
        if cycles.shape != addresses.shape or cycles.ndim != 1:
            raise TraceError(f"{self.directory}: malformed trace arrays")
        chunk_cycles = self.chunk_cycles
        pos = 0
        n = int(cycles.size)
        while pos < n:
            window = int(cycles[pos]) // chunk_cycles
            end_cycle = (window + 1) * chunk_cycles
            hi = int(np.searchsorted(cycles, end_cycle, side="left"))
            # np.array copies the slice out of the mmap, so the yielded
            # chunk is independent of the open file.
            yield _validated_chunk(
                np.array(cycles[pos:hi]),
                np.array(addresses[pos:hi]),
                window * chunk_cycles,
                end_cycle,
            )
            pos = hi


class SyntheticTraceStream(TraceStream):
    """Chunked synthetic workload — the generator without the concatenate.

    Built by :meth:`repro.trace.generator.WorkloadGenerator.stream`.
    Each pass asks the generator for one piece per ``chunk_cycles``
    range: the windows starting in it, synthesized as one block with
    each region's walk carried from the previous block. When
    ``chunk_cycles`` is a multiple of the generator's ``window_cycles``
    a piece is exactly one chunk and passes through unchanged; otherwise
    :func:`_window_pieces` cuts and joins pieces at chunk boundaries.
    Every pass re-derives the generator's named RNG streams, so repeated
    ``chunks()`` iterations (one per simulated configuration, say) are
    bit-identical to each other and to ``generate(profile)``.
    """

    def __init__(self, generator, profile, chunk_cycles: int) -> None:
        self.generator = generator
        self.profile = profile
        self.chunk_cycles = _check_chunk_cycles(chunk_cycles)
        self.horizon = int(generator.horizon)
        self.name = profile.name

    def chunks(self) -> Iterator[TraceChunk]:
        yield from _window_pieces(
            self.generator._window_arrays(self.profile, self.chunk_cycles),
            self.chunk_cycles,
        )


def open_trace_stream(path: str | os.PathLike, chunk_cycles: int) -> TraceStream:
    """Open a trace file or directory as a chunked stream.

    Dispatch mirrors :func:`repro.trace.io.load_trace`, plus the
    memory-mapped directory format: ``.npz`` archives, ``mmap``
    directories (any directory holding a ``meta.json``), and text
    ``.trc`` files (the fallback, like ``load_trace``).
    """
    path = os.fspath(path)
    if is_mmap_trace_dir(path):
        return MmapTraceStream(path, chunk_cycles)
    if os.path.isdir(path):
        raise TraceError(f"{path}: directory is not a {MMAP_FORMAT} trace")
    if path.endswith(".npz"):
        return NpzTraceStream(path, chunk_cycles)
    return TextTraceStream(path, chunk_cycles)


def stream_to_trace(stream: TraceStream) -> Trace:
    """Materialize a stream into an in-memory :class:`Trace`.

    Mostly for tests and small streams — the equivalence bridge between
    the chunked and one-shot worlds.
    """
    cycle_parts: list[np.ndarray] = []
    address_parts: list[np.ndarray] = []
    last_end = None
    for chunk in stream.chunks():
        if last_end is not None and chunk.start_cycle < last_end:
            raise TraceError("stream chunks overlap")
        last_end = chunk.end_cycle
        cycle_parts.append(chunk.cycles)
        address_parts.append(chunk.addresses)
    if stream.horizon is None:
        raise TraceError("stream did not resolve its horizon")
    if cycle_parts:
        cycles = np.concatenate(cycle_parts)
        addresses = np.concatenate(address_parts)
    else:
        cycles = np.empty(0, dtype=np.int64)
        addresses = np.empty(0, dtype=np.int64)
    return Trace(cycles, addresses, horizon=stream.horizon, name=stream.name)
