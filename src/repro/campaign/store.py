"""Content-addressed persistence of campaign results.

A :class:`CampaignStore` holds exactly one result record per point
identity ``(trace_hash, config_hash)`` — the content hashes of the
point's :class:`~repro.campaign.tracespec.TraceSpec` and of its fully
substituted :class:`~repro.core.config.ArchitectureConfig` (see
:mod:`repro.campaign.codec` for the guarantees those hashes carry).
Because the key is derived from *what was simulated* and not from when
or how, reruns, widened grids, interrupted campaigns and even different
campaign specs that share points all converge on the same entries.

Two tiers:

* **memory** — live :class:`SimulationResult` objects from this
  process, plus the record payloads (the runner's old memo dict is
  exactly this tier);
* **disk** (optional) — one JSON file per record, written atomically so
  a crash mid-campaign can never corrupt an entry. A fresh process
  pointed at the directory sees every finished point and can rebuild
  bit-identical results from the records.

Disk layout
-----------
Records live under ``<directory>/results/`` in a *sharded* layout:
``results/<ph[:2]>/<ph[2:]>.json`` where ``ph`` is the point hash (the
content hash of the key pair), giving 256 balanced subdirectories so a
store holding millions of records never puts them all in one directory.
Stores written before the sharded layout used flat files
``results/<short_trace>-<short_config>.json``; reads transparently check
both layouts, and :meth:`CampaignStore.migrate` rewrites a flat store in
place — each move is one atomic :func:`os.replace` of the *same bytes*,
so migration is resumable, idempotent, and byte-preserving.

Opening a store is O(1): nothing is scanned or created at construction.
Membership tests (``key in store``) are path-existence checks;
enumeration, counts and queries are served by the per-store SQLite
index (:mod:`repro.campaign.service.index`), which is derived from —
and rebuilt from — the record files; the files remain the only source
of truth.

Writes are durable per group: :meth:`CampaignStore.put_group` writes
each record file atomically, then upserts the whole group's index rows
in one transaction (:meth:`CampaignStore.put` is a one-record group).
A crash between the two leaves files the index does not list; they
still count as stored, and :meth:`CampaignStore.reconcile` re-adds
their rows, which the campaign runner and the claim queue do before
they look for missing work.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.campaign.codec import content_hash, short_hash
from repro.campaign.service.index import (
    COLUMNS,
    INDEX_FILENAME,
    CampaignIndex,
    Row,
    index_row,
    resolve_fidelity_filter,
)
from repro.errors import ServiceError
from repro.core.results import SimulationResult
from repro.core.serialize import (
    ResultRecord,
    read_record_file,
    result_to_dict,
    write_json_atomic,
)

if TYPE_CHECKING:
    from repro.aging.lut import LifetimeLUT

#: Subdirectory of a campaign directory holding one file per record.
RESULTS_DIRNAME = "results"

#: Filename length of a shard subdirectory (leading hex of the point hash).
SHARD_PREFIX_LEN = 2


def point_hash(key: tuple[str, str]) -> str:
    """Content hash of a point identity (names the record's shard file)."""
    return content_hash({"trace_hash": key[0], "config_hash": key[1]})


class CampaignStore:
    """One result record per (trace-hash, config-hash) point.

    Parameters
    ----------
    directory:
        Campaign directory for the disk tier; ``None`` keeps the store
        memory-only (the experiment runner's default). Construction
        never touches the filesystem — records are found lazily, so
        opening a store over millions of records costs nothing until
        something is actually read.
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None) -> None:
        self.directory = os.fspath(directory) if directory is not None else None
        self._records: dict[tuple[str, str], dict[str, Any]] = {}
        self._results: dict[tuple[str, str], SimulationResult] = {}
        self._index: CampaignIndex | None = None
        if self.directory is not None:
            self._index = CampaignIndex(
                os.path.join(self.directory, INDEX_FILENAME), self._iter_disk_rows
            )

    # ------------------------------------------------------------------
    # Disk layout
    # ------------------------------------------------------------------
    @property
    def _results_dir(self) -> str:
        assert self.directory is not None  # disk-tier helpers are gated on it
        return os.path.join(self.directory, RESULTS_DIRNAME)

    def _shard_path(self, key: tuple[str, str]) -> str:
        digest = point_hash(key)
        return os.path.join(
            self._results_dir,
            digest[:SHARD_PREFIX_LEN],
            f"{digest[SHARD_PREFIX_LEN:]}.json",
        )

    def _legacy_path(self, key: tuple[str, str]) -> str:
        trace_hash, config_hash = key
        name = f"{short_hash(trace_hash)}-{short_hash(config_hash)}.json"
        return os.path.join(self._results_dir, name)

    def _disk_path(self, key: tuple[str, str]) -> str | None:
        """The record file for ``key`` in either layout, or ``None``."""
        if self.directory is None:
            return None
        for path in (self._shard_path(key), self._legacy_path(key)):
            if os.path.isfile(path):
                return path
        return None

    def _iter_disk_files(self) -> Iterator[str]:
        """Every record file on disk (flat first, then sharded), sorted."""
        results_dir = self._results_dir
        if not os.path.isdir(results_dir):
            return
        shard_dirs: list[str] = []
        for entry in sorted(os.listdir(results_dir)):
            path = os.path.join(results_dir, entry)
            if entry.endswith(".json") and os.path.isfile(path):
                yield path
            elif len(entry) == SHARD_PREFIX_LEN and os.path.isdir(path):
                shard_dirs.append(path)
        for shard_dir in shard_dirs:
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def _iter_disk_rows(self) -> Iterator[Row]:
        """Index rows for every record file (the index rebuild source)."""
        assert self.directory is not None
        for path in self._iter_disk_files():
            key, record = read_record_file(path)
            rel_path = os.path.relpath(path, self.directory)
            yield index_row(key[0], key[1], rel_path, record)

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------
    @property
    def index(self) -> CampaignIndex | None:
        """The store's SQLite index (``None`` for memory-only stores)."""
        return self._index

    def _ready_index(self) -> CampaignIndex | None:
        """The index, built now if records exist but the db does not.

        Returns ``None`` (and touches nothing) when the store has no
        results directory at all, so read-only opens of missing or
        still-empty campaigns never create files.
        """
        if self._index is None or not os.path.isdir(self._results_dir):
            return None
        self._index.ensure_built()
        return self._index

    def rebuild_index(self) -> int:
        """Re-derive ``index.db`` from the record files; returns rows."""
        if self._index is None:
            return 0
        return self._index.rebuild()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _disk_keys(self) -> list[tuple[str, str]]:
        index = self._ready_index()
        if index is None:
            return []
        return index.keys()

    def __len__(self) -> int:
        if self.directory is None:
            return len(self._records)
        return len({*self._disk_keys(), *self._records})

    def __contains__(self, key: tuple[str, str]) -> bool:
        if key in self._records:
            return True
        return self._disk_path(key) is not None

    def keys(self) -> Iterator[tuple[str, str]]:
        """All stored point identities (sorted for disk-backed stores)."""
        if self.directory is None:
            return iter(self._records)
        return iter(sorted({*self._disk_keys(), *self._records}))

    def _load_payload(self, key: tuple[str, str]) -> dict[str, Any] | None:
        payload = self._records.get(key)
        if payload is not None:
            return payload
        path = self._disk_path(key)
        if path is None:
            return None
        _, record = read_record_file(path)
        self._records[key] = record
        return record

    def get_record(self, key: tuple[str, str]) -> ResultRecord | None:
        """The stored record for ``key``, or ``None``."""
        payload = self._load_payload(key)
        if payload is None:
            return None
        return ResultRecord.from_dict(payload)

    def get_result(
        self, key: tuple[str, str], lut: LifetimeLUT | None = None
    ) -> SimulationResult | None:
        """The full result for ``key``, or ``None`` if absent.

        Results simulated by this process come back as the very same
        object (the memo-dict contract); results known only as records
        are rebuilt bit-identically via
        :meth:`~repro.core.serialize.ResultRecord.to_result` and then
        cached in the live tier.
        """
        live = self._results.get(key)
        if live is not None:
            return live
        record = self.get_record(key)
        if record is None:
            return None
        result = record.to_result(lut)
        self._results[key] = result
        return result

    def put(
        self, key: tuple[str, str], result: SimulationResult
    ) -> dict[str, Any]:
        """Store ``result`` under ``key`` in both tiers; returns its payload."""
        return self.put_group([(key, result)])[0]

    def put_group(
        self, items: Sequence[tuple[tuple[str, str], SimulationResult]]
    ) -> list[dict[str, Any]]:
        """Store each ``(key, result)`` in both tiers; returns the payloads.

        Every record file is written atomically, one after another; the
        group's index rows are then upserted in one transaction. If a
        write fails, the exception propagates before any row is added
        and the files already written stay stored (``reconcile`` indexes
        them).
        """
        payloads: list[dict[str, Any]] = []
        rows: list[Row] = []
        for key, result in items:
            payload = result_to_dict(result)
            self._records[key] = payload
            self._results[key] = result
            payloads.append(payload)
            if self.directory is not None:
                rows.append(self._write_record(key, payload))
        if rows and self._index is not None:
            self._index.add(rows)
        return payloads

    def _write_record(self, key: tuple[str, str], payload: dict[str, Any]) -> Row:
        """Write ``key``'s shard file atomically; returns its index row."""
        assert self.directory is not None
        path = self._shard_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(
            path,
            {
                "key": {"trace_hash": key[0], "config_hash": key[1]},
                "record": payload,
            },
        )
        # A record written before the sharded layout is superseded by
        # the shard file; drop it so each key has one file.
        try:
            os.unlink(self._legacy_path(key))
        except OSError:
            pass
        return index_row(key[0], key[1], os.path.relpath(path, self.directory), payload)

    def reconcile(self, keys: Iterable[tuple[str, str]]) -> int:
        """Index the record files among ``keys`` that have no row.

        A crash between a group's file writes and its index commit
        leaves files the index does not list. Per trace this runs one
        query for the indexed config hashes and opens only the files of
        keys missing from it, so a consistent store opens no record
        file; the healed rows are upserted in one transaction. Returns
        the number of rows added.
        """
        index = self._ready_index()
        if index is None:
            return 0
        by_trace: dict[str, set[str]] = {}
        for trace_hash, config_hash in keys:
            by_trace.setdefault(trace_hash, set()).add(config_hash)
        rows: list[Row] = []
        for trace_hash, config_hashes in by_trace.items():
            for config_hash in sorted(config_hashes - index.config_hashes(trace_hash)):
                path = self._disk_path((trace_hash, config_hash))
                if path is None:
                    continue
                key, record = read_record_file(path)
                rel_path = os.path.relpath(path, self.directory)
                rows.append(index_row(key[0], key[1], rel_path, record))
        if rows:
            index.add(rows)
        return len(rows)

    def records(self) -> list[ResultRecord]:
        """Every stored record (stable key order)."""
        out: list[ResultRecord] = []
        for key in self.keys():
            record = self.get_record(key)
            if record is not None:
                out.append(record)
        return out

    # ------------------------------------------------------------------
    # Index-backed queries
    # ------------------------------------------------------------------
    def _memory_rows(self) -> list[Row]:
        return [
            index_row(key[0], key[1], "", payload)
            for key, payload in sorted(self._records.items())
        ]

    @staticmethod
    def _check_columns(names: Iterable[str]) -> None:
        """Same filter validation the SQLite index applies."""
        for name in names:
            if name not in COLUMNS:
                raise ServiceError(
                    f"unknown index column {name!r}; queryable: "
                    f"{', '.join(COLUMNS)}"
                )

    def where(self, limit: int | None = None, **filters: Any) -> list[Row]:
        """Index rows matching equality ``filters`` (axes or metrics).

        Disk-backed stores answer straight from the SQLite index without
        opening a single record file; memory-only stores filter their
        payloads in Python with the same semantics. A negative
        ``limit`` is refused on both tiers.
        """
        if limit is not None and limit < 0:
            raise ServiceError(f"limit must be non-negative, got {limit}")
        index = self._ready_index()
        if index is not None:
            return index.where(limit=limit, **filters)
        self._check_columns(filters)
        rows = [
            row
            for row in self._memory_rows()
            if all(row.get(name) == value for name, value in filters.items())
        ]
        return rows[:limit] if limit is not None else rows

    def best(
        self, metric: str, minimize: bool = False, **filters: Any
    ) -> Row | None:
        """The indexed row extremizing ``metric`` among ``filters`` matches.

        Defaults to ``fidelity="simulate"`` rows (estimated records
        never win a measurement query); pass ``fidelity="estimate"`` or
        ``fidelity="any"`` to rank other tiers.
        """
        index = self._ready_index()
        if index is not None:
            return index.best(metric, minimize=minimize, **filters)
        filters = resolve_fidelity_filter(filters)
        self._check_columns([metric])
        rows = [row for row in self.where(**filters) if row.get(metric) is not None]
        if not rows:
            return None
        return (min if minimize else max)(rows, key=lambda row: row[metric])

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate(self) -> int:
        """Rewrite a flat (pre-shard) store into the sharded layout.

        Each flat ``results/*.json`` file is moved — same bytes — to its
        shard path with one atomic :func:`os.replace`, so an interrupted
        migration leaves every record in exactly one layout and a rerun
        simply continues (a fully sharded store migrates zero files).
        The index is rebuilt afterwards so record paths stay current.
        Returns the number of files moved.
        """
        if self.directory is None or not os.path.isdir(self._results_dir):
            return 0
        moved = 0
        results_dir = self._results_dir
        for entry in sorted(os.listdir(results_dir)):
            flat_path = os.path.join(results_dir, entry)
            if not entry.endswith(".json") or not os.path.isfile(flat_path):
                continue
            key, _ = read_record_file(flat_path)
            shard_path = self._shard_path(key)
            os.makedirs(os.path.dirname(shard_path), exist_ok=True)
            os.replace(flat_path, shard_path)
            moved += 1
        if moved and self._index is not None:
            self._index.rebuild()
        return moved

    def clear_memory(self) -> None:
        """Drop the in-memory tiers (disk records, if any, survive)."""
        self._results.clear()
        self._records.clear()
