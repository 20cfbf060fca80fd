"""Trace file I/O.

Two formats:

* **Text** (``.trc``) — one ``<cycle> <hex-address>`` pair per line,
  ``#`` comments, a ``# horizon: N`` header. Human-readable, diff-able,
  the format examples and tests use.
* **Binary** (``.npz``) — compressed numpy archive for long traces.

Both round-trip exactly (tests enforce it). For traces larger than RAM,
:mod:`repro.trace.stream` adds a chunked reader over both formats plus a
memory-mappable directory format (:func:`~repro.trace.stream.save_trace_mmap`).

Name escaping
-------------
``trace.name`` is free-form text, so the ``# name:`` header must be
robust against names that would corrupt the line-oriented format — a
newline (which would inject arbitrary data or header lines), a carriage
return, leading/trailing whitespace (which the parser strips), or a
leading double quote. Such names are written JSON-encoded (ASCII-safe,
one line); any stored name starting with ``"`` is decoded with
``json.loads`` on read, falling back to the raw text when it is not
valid JSON (a file written by an older version). Benign names are
stored verbatim, so files written before this rule read back unchanged
and unchanged traces produce byte-identical files. The same rule covers
the ``name`` entry of the ``.npz`` format (where it additionally keeps
NUL characters out of numpy's fixed-width unicode storage).
"""

from __future__ import annotations

import json
import os
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.trace import Trace


def _escape_name(name: str) -> str:
    """The on-disk form of ``name`` (see module docstring)."""
    if (
        name != name.strip()
        or name.startswith('"')
        or any(ch in name for ch in ("\n", "\r", "\x00"))
    ):
        return json.dumps(name)
    return name


def _unescape_name(stored: str) -> str:
    """Invert :func:`_escape_name`; tolerate pre-escaping raw names."""
    if stored.startswith('"'):
        try:
            decoded = json.loads(stored)
        except ValueError:
            return stored
        if isinstance(decoded, str):
            return decoded
    return stored


class TextTraceReader:
    """The ``.trc`` parser :func:`load_trace` and
    :class:`~repro.trace.stream.TextTraceStream` share.

    :meth:`accesses` walks the file once, yielding ``(cycle, address)``
    per data line in file order and recording the ``# name:`` and
    ``# horizon:`` headers it meets, on any line (the last one wins),
    in :attr:`name` and :attr:`horizon`. A malformed line — a wrong
    field count, a non-integer or negative value, a cycle that does not
    increase, a bad horizon header — raises :class:`TraceError` naming
    ``path:line``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.name = ""
        self.horizon: int | None = None
        self.last_cycle = -1

    def accesses(self) -> Iterator[tuple[int, int]]:
        """Yield every access of the file, validating as it goes."""
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                where = f"{self.path}:{lineno}"
                if line.startswith("#"):
                    self._header(line[1:].strip(), where)
                else:
                    yield self._access(line, where)

    def _header(self, body: str, where: str) -> None:
        if body.startswith("horizon:"):
            value = body.split(":", 1)[1].strip()
            try:
                horizon = int(value)
            except ValueError:
                raise TraceError(f"{where}: horizon {value!r} is not an integer") from None
            if horizon < 0:
                raise TraceError(f"{where}: horizon must be non-negative, got {horizon}")
            self.horizon = horizon
        elif body.startswith("name:"):
            self.name = _unescape_name(body.split(":", 1)[1].strip())

    def _access(self, line: str, where: str) -> tuple[int, int]:
        parts = line.split()
        if len(parts) != 2:
            raise TraceError(f"{where}: expected '<cycle> <address>'")
        try:
            cycle = int(parts[0])
            address = int(parts[1], 0)
        except ValueError as exc:
            raise TraceError(f"{where}: {exc}") from exc
        if cycle < 0 or address < 0:
            raise TraceError(f"{where}: cycle and address must be non-negative")
        if cycle <= self.last_cycle:
            raise TraceError(
                f"{where}: cycle stamps must be strictly increasing "
                f"({cycle} after {self.last_cycle})"
            )
        self.last_cycle = cycle
        return cycle, address

    def final_horizon(self) -> int:
        """The declared horizon, else last access + 1 (after a full pass)."""
        derived = self.last_cycle + 1
        if self.horizon is None:
            return derived
        if self.horizon < derived:
            raise TraceError(
                f"{self.path}: horizon {self.horizon} shorter than the last "
                f"access ({self.last_cycle})"
            )
        return self.horizon


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write ``trace`` to ``path``; format chosen by extension."""
    path = os.fspath(path)
    if path.endswith(".npz"):
        np.savez_compressed(
            path,
            cycles=trace.cycles,
            addresses=trace.addresses,
            horizon=np.asarray([trace.horizon], dtype=np.int64),
            name=np.asarray([_escape_name(trace.name)]),
        )
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro trace v1\n")
        if trace.name:
            handle.write(f"# name: {_escape_name(trace.name)}\n")
        handle.write(f"# horizon: {trace.horizon}\n")
        for cycle, address in trace:
            handle.write(f"{cycle} 0x{address:x}\n")


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a trace written by :func:`save_trace`.

    A text trace without a ``# horizon:`` header derives its horizon
    from the last access (the :class:`Trace` default); an explicit
    header always wins. Names are unescaped per the module docstring.
    Directories written by :func:`repro.trace.stream.save_trace_mmap`
    load too (materialized in full — stream them with
    :func:`repro.trace.stream.open_trace_stream` instead when they do
    not fit in memory).
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        # Lazy import: stream.py imports this module's name-escaping
        # helpers at module level.
        from repro.trace.stream import load_trace_mmap

        return load_trace_mmap(path)
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as data:
            return Trace(
                cycles=data["cycles"],
                addresses=data["addresses"],
                horizon=int(data["horizon"][0]),
                name=_unescape_name(str(data["name"][0])),
            )
    reader = TextTraceReader(path)
    pairs = np.array(list(reader.accesses()), dtype=np.int64).reshape(-1, 2)
    return Trace(
        cycles=pairs[:, 0],
        addresses=pairs[:, 1],
        horizon=reader.final_horizon(),
        name=reader.name,
    )
