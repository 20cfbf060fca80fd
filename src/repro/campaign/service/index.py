"""SQLite index over a campaign store's record files.

The record files stay the source of truth — the index (``index.db`` in
the campaign directory) is a derived, disposable acceleration
structure: one row per ``(trace_hash, config_hash)`` carrying the
point's spec axes (``num_banks``, ``policy``, geometry, schedule…) and
its headline metrics, so counts, ``where()`` filters and ``best()``
queries run without opening a single JSON file. Delete or corrupt
``index.db`` and the next query rebuilds it from the files; a busy
(locked) database is never mistaken for a corrupt one.

Rows are written after their record files, one transaction per
:meth:`CampaignIndex.add` call — the store adds a whole breakeven
group's rows at once. A crash between the two leaves files without
rows; :meth:`~repro.campaign.store.CampaignStore.reconcile` re-adds
them from the files (one :meth:`CampaignIndex.config_hashes` query per
trace), and the campaign runner and the claim queue call it before
they look for missing work.

Process discipline
------------------
This module is the **only** place in the tree allowed to call
``sqlite3.connect`` (enforced by reprolint rule REPRO010): SQLite
connections must never cross a process fork — a child inheriting its
parent's connection corrupts the database's locking state. Connections
here are created lazily, per thread *and* per pid: every thread of
every (possibly forked) worker process gets its own connection the
first time it touches the index, which makes the index safe under the
claim-based work queue's multi-process drains and the HTTP server's
handler threads alike. The schema is checked once per connection, when
it opens, not once per query.

Concurrent writers rely on SQLite's own file locking with a generous
busy timeout; rows are idempotent upserts keyed by the record identity,
so two workers indexing the same committed record converge on one row.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ServiceError

#: Name of the index database inside a campaign directory.
INDEX_FILENAME = "index.db"

#: Bumped whenever the row schema changes; a mismatch triggers a
#: rebuild from the record files (never a migration — files are the
#: source of truth). Version 2 added the ``fidelity`` column.
SCHEMA_VERSION = 2

#: Spec-axis columns extracted from each record's exact config payload.
AXIS_COLUMNS: tuple[tuple[str, str], ...] = (
    ("num_banks", "INTEGER"),
    ("policy", "TEXT"),
    ("power_managed", "INTEGER"),
    ("update_period_cycles", "INTEGER"),
    ("breakeven_override", "INTEGER"),
    ("size_bytes", "INTEGER"),
    ("line_size", "INTEGER"),
    ("ways", "INTEGER"),
    ("frequency_hz", "REAL"),
)

#: Headline metric columns served without touching the JSON files.
METRIC_COLUMNS: tuple[tuple[str, str], ...] = (
    ("hit_rate", "REAL"),
    ("energy_savings", "REAL"),
    ("energy_pj", "REAL"),
    ("lifetime_years", "REAL"),
    ("total_cycles", "INTEGER"),
)

#: Every queryable column, in table order.
COLUMNS: tuple[str, ...] = (
    "trace_hash",
    "config_hash",
    "path",
    "trace_name",
    "template",
    "fidelity",
    *(name for name, _ in AXIS_COLUMNS),
    *(name for name, _ in METRIC_COLUMNS),
)

#: One indexed row: key fields + axes + metrics.
Row = dict[str, Any]


def resolve_fidelity_filter(filters: dict[str, Any]) -> dict[str, Any]:
    """Apply the simulate-by-default fidelity policy to ``best`` filters.

    Ranking queries default to ``fidelity="simulate"`` so estimated
    records can never masquerade as measurements; ``fidelity="any"``
    removes the filter to rank across tiers.
    """
    filters = dict(filters)
    filters.setdefault("fidelity", "simulate")
    if filters["fidelity"] == "any":
        del filters["fidelity"]
    return filters

#: ``() -> iterable of rows`` used to rebuild a lost/corrupt index.
RebuildSource = Callable[[], Iterable[Row]]


def index_row(
    trace_hash: str, config_hash: str, rel_path: str, record: dict[str, Any]
) -> Row:
    """Flatten one record payload into its index row.

    ``record`` is the ``"record"`` part of a store file (a
    :func:`repro.core.serialize.result_to_dict` payload, v1 or v2);
    fields a version does not carry index as ``NULL``.
    """
    config = record.get("config") or {}
    geometry = config.get("geometry") or {}

    def _num(value: Any) -> Any:
        return value if isinstance(value, (int, float)) else None

    return {
        "trace_hash": trace_hash,
        "config_hash": config_hash,
        "path": rel_path,
        "trace_name": record.get("trace_name"),
        "template": record.get("template", "banked"),
        "fidelity": record.get("fidelity", "simulate"),
        "num_banks": _num(config.get("num_banks")),
        "policy": config.get("policy"),
        "power_managed": (
            int(bool(config["power_managed"]))
            if "power_managed" in config and config["power_managed"] is not None
            else None
        ),
        "update_period_cycles": _num(config.get("update_period_cycles")),
        "breakeven_override": _num(config.get("breakeven_override")),
        "size_bytes": _num(geometry.get("size_bytes")),
        "line_size": _num(geometry.get("line_size")),
        "ways": _num(geometry.get("ways")),
        "frequency_hz": _num(config.get("frequency_hz")),
        "hit_rate": _num(record.get("hit_rate")),
        "energy_savings": _num(record.get("energy_savings")),
        "energy_pj": _num(record.get("energy_pj")),
        "lifetime_years": _num(record.get("lifetime_years")),
        "total_cycles": _num(record.get("total_cycles")),
    }


class CampaignIndex:
    """Lazy, self-healing SQLite index over a store's record files.

    Parameters
    ----------
    path:
        Location of ``index.db``. Nothing is created until the first
        operation that needs the database — opening a store (or
        querying an empty one) stays read-only on the filesystem.
    rebuild_source:
        Zero-argument callable yielding every record's index row by
        walking the store's files. Invoked when the database is absent,
        from an older schema, or corrupt; the files are authoritative.
    """

    def __init__(self, path: str | os.PathLike[str], rebuild_source: RebuildSource) -> None:
        self.path = os.fspath(path)
        self._rebuild_source = rebuild_source
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Connections: one per (pid, thread), never crossing a fork
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=30.0)
        connection.row_factory = sqlite3.Row
        connection.execute("PRAGMA busy_timeout = 30000")
        return connection

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, opened and schema-checked on first use."""
        connection: sqlite3.Connection | None = getattr(self._local, "connection", None)
        if connection is not None and getattr(self._local, "pid", None) == os.getpid():
            return connection
        # A connection inherited across fork() must not be reused (or
        # even closed — closing rolls back the parent's locks); drop
        # the reference and open a fresh one for this pid/thread.
        connection = self._connect()
        try:
            self._ensure_schema(connection)
        except sqlite3.Error:
            connection.close()
            raise
        self._local.connection = connection
        self._local.pid = os.getpid()
        return connection

    def close(self) -> None:
        """Close this thread's connection (other threads keep theirs)."""
        connection: sqlite3.Connection | None = getattr(self._local, "connection", None)
        if connection is not None and getattr(self._local, "pid", None) == os.getpid():
            connection.close()
        self._local.connection = None

    # ------------------------------------------------------------------
    # Schema and self-healing
    # ------------------------------------------------------------------
    def _schema_statements(self) -> Iterator[str]:
        columns = ",\n".join(
            [
                "  trace_hash TEXT NOT NULL",
                "  config_hash TEXT NOT NULL",
                "  path TEXT NOT NULL",
                "  trace_name TEXT",
                "  template TEXT",
                "  fidelity TEXT",
                *(f"  {name} {sql_type}" for name, sql_type in AXIS_COLUMNS),
                *(f"  {name} {sql_type}" for name, sql_type in METRIC_COLUMNS),
                "  PRIMARY KEY (trace_hash, config_hash)",
            ]
        )
        yield f"CREATE TABLE IF NOT EXISTS records (\n{columns}\n)"
        yield "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        yield "CREATE INDEX IF NOT EXISTS idx_records_trace ON records (trace_hash)"

    def _ensure_schema(self, connection: sqlite3.Connection) -> None:
        for statement in self._schema_statements():
            connection.execute(statement)
        cursor = connection.execute("SELECT value FROM meta WHERE key = 'schema_version'")
        row = cursor.fetchone()
        if row is None:
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            connection.commit()
        elif row["value"] != str(SCHEMA_VERSION):
            raise sqlite3.DatabaseError(
                f"index schema version {row['value']} != {SCHEMA_VERSION}"
            )

    def _reset(self) -> None:
        """Drop every thread's view of a corrupt database and the file."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def _unavailable(self, exc: sqlite3.OperationalError) -> ServiceError:
        """Roll back this thread's open transaction; the error to raise."""
        connection: sqlite3.Connection | None = getattr(self._local, "connection", None)
        if connection is not None and getattr(self._local, "pid", None) == os.getpid():
            try:
                connection.rollback()
            except sqlite3.Error:
                self.close()
        return ServiceError(f"campaign index {self.path} is unavailable: {exc}")

    def _guarded(self, operation: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run ``operation``; on corruption, rebuild from files and retry.

        A non-operational :class:`sqlite3.DatabaseError` — a truncated
        file, garbage bytes, a schema from a previous version — demotes
        the database to "absent": it is deleted and rebuilt from the
        record files, then the operation runs once more. A second
        failure propagates as :class:`~repro.errors.ServiceError` (the
        store directory itself is unusable).

        An :class:`sqlite3.OperationalError` (above all "database is
        locked" once the busy timeout runs out) says nothing about the
        file's contents: it raises :class:`~repro.errors.ServiceError`
        and leaves the file alone, since deleting it would drop the
        rows a live writer is committing into it.
        """
        try:
            return operation(self._connection())
        except sqlite3.OperationalError as exc:
            raise self._unavailable(exc) from exc
        except sqlite3.DatabaseError:
            self._reset()
        try:
            connection = self._connection()
            self._fill(connection)
            return operation(connection)
        except sqlite3.OperationalError as exc:
            raise self._unavailable(exc) from exc
        except sqlite3.DatabaseError as exc:
            raise ServiceError(f"campaign index {self.path} is unusable: {exc}") from exc

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    _INSERT = (
        f"INSERT OR REPLACE INTO records ({', '.join(COLUMNS)}) "
        f"VALUES ({', '.join('?' for _ in COLUMNS)})"
    )

    @staticmethod
    def _row_values(row: Row) -> tuple[Any, ...]:
        return tuple(row.get(name) for name in COLUMNS)

    def add(self, rows: Sequence[Row]) -> None:
        """Upsert ``rows`` in one transaction (idempotent across writers)."""
        values = [self._row_values(row) for row in rows]

        def _add(connection: sqlite3.Connection) -> None:
            connection.executemany(self._INSERT, values)
            connection.commit()

        self._guarded(_add)

    def _fill(self, connection: sqlite3.Connection) -> None:
        rows = [self._row_values(row) for row in self._rebuild_source()]
        connection.execute("DELETE FROM records")
        connection.executemany(self._INSERT, rows)
        connection.commit()

    def rebuild(self) -> int:
        """Re-derive every row from the record files; returns the count."""

        def _rebuild(connection: sqlite3.Connection) -> int:
            self._fill(connection)
            cursor = connection.execute("SELECT COUNT(*) AS n FROM records")
            return int(cursor.fetchone()["n"])

        return int(self._guarded(_rebuild))

    def ensure_built(self) -> None:
        """Build the database now if it is absent or corrupt."""
        if not os.path.exists(self.path):
            # A warm connection would still point at the deleted file.
            self.close()
            self.rebuild()
        else:
            self._guarded(lambda connection: None)

    # ------------------------------------------------------------------
    # Queries (never touch the JSON files)
    # ------------------------------------------------------------------
    def count(self) -> int:
        def _count(connection: sqlite3.Connection) -> int:
            cursor = connection.execute("SELECT COUNT(*) AS n FROM records")
            return int(cursor.fetchone()["n"])

        return int(self._guarded(_count))

    def keys(self) -> list[tuple[str, str]]:
        """Every indexed ``(trace_hash, config_hash)``, sorted."""

        def _keys(connection: sqlite3.Connection) -> list[tuple[str, str]]:
            cursor = connection.execute(
                "SELECT trace_hash, config_hash FROM records "
                "ORDER BY trace_hash, config_hash"
            )
            return [(row["trace_hash"], row["config_hash"]) for row in cursor]

        result: list[tuple[str, str]] = self._guarded(_keys)
        return result

    def config_hashes(self, trace_hash: str) -> set[str]:
        """The config hashes indexed under ``trace_hash``."""

        def _config_hashes(connection: sqlite3.Connection) -> set[str]:
            cursor = connection.execute(
                "SELECT config_hash FROM records WHERE trace_hash = ?", (trace_hash,)
            )
            return {row[0] for row in cursor}

        result: set[str] = self._guarded(_config_hashes)
        return result

    def has(self, key: tuple[str, str]) -> bool:
        def _has(connection: sqlite3.Connection) -> bool:
            cursor = connection.execute(
                "SELECT 1 FROM records WHERE trace_hash = ? AND config_hash = ?",
                key,
            )
            return cursor.fetchone() is not None

        return bool(self._guarded(_has))

    @staticmethod
    def _where_clause(filters: dict[str, Any]) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        values: list[Any] = []
        for name, value in filters.items():
            if name not in COLUMNS:
                raise ServiceError(
                    f"unknown index column {name!r}; queryable: {', '.join(COLUMNS)}"
                )
            if value is None:
                clauses.append(f"{name} IS NULL")
            else:
                clauses.append(f"{name} = ?")
                values.append(value)
        sql = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return sql, values

    def where(self, limit: int | None = None, **filters: Any) -> list[Row]:
        """Rows matching equality ``filters``, sorted by key.

        Filters name index columns (spec axes, ``trace_name``,
        ``template``, metric columns); ``None`` matches SQL ``NULL``
        (e.g. ``breakeven_override=None``). Served entirely from the
        index — no record file is opened.
        """
        clause, values = self._where_clause(filters)
        sql = (
            f"SELECT * FROM records{clause} ORDER BY trace_hash, config_hash"
        )
        if limit is not None:
            sql += " LIMIT ?"
            values = [*values, int(limit)]

        def _where(connection: sqlite3.Connection) -> list[Row]:
            cursor = connection.execute(sql, values)
            return [dict(row) for row in cursor]

        result: list[Row] = self._guarded(_where)
        return result

    def best(
        self, metric: str, minimize: bool = False, **filters: Any
    ) -> Row | None:
        """The row extremizing ``metric`` among ``filters`` matches.

        ``NULL`` metric values (v1 records, non-numeric payloads) never
        win. Returns ``None`` on an empty match set.

        Unless the caller filters on ``fidelity`` explicitly, only
        ``fidelity="simulate"`` rows compete: a cheap estimated record
        must never answer a question about what the simulator measured.
        Pass ``fidelity="estimate"`` to rank estimates, or
        ``fidelity="any"`` to rank across tiers.
        """
        filters = resolve_fidelity_filter(filters)
        if metric not in COLUMNS:
            raise ServiceError(
                f"unknown index column {metric!r}; queryable: {', '.join(COLUMNS)}"
            )
        clause, values = self._where_clause(filters)
        direction = "ASC" if minimize else "DESC"
        sql = (
            f"SELECT * FROM records{clause} "
            f"ORDER BY ({metric} IS NULL) ASC, {metric} {direction}, "
            "trace_hash, config_hash LIMIT 1"
        )

        def _best(connection: sqlite3.Connection) -> Row | None:
            cursor = connection.execute(sql, values)
            row = cursor.fetchone()
            if row is None or row[metric] is None:
                return None
            return dict(row)

        result: Row | None = self._guarded(_best)
        return result

    def summary(self) -> dict[str, Any]:
        """Aggregate view for ``GET /metrics``: counts + metric ranges."""

        def _summary(connection: sqlite3.Connection) -> dict[str, Any]:
            cursor = connection.execute(
                "SELECT COUNT(*) AS n, COUNT(DISTINCT trace_hash) AS traces "
                "FROM records"
            )
            head = cursor.fetchone()
            metrics: dict[str, Any] = {}
            for name, _ in METRIC_COLUMNS:
                cursor = connection.execute(
                    f"SELECT MIN({name}) AS lo, MAX({name}) AS hi, "
                    f"AVG({name}) AS mean, COUNT({name}) AS n FROM records"
                )
                row = cursor.fetchone()
                metrics[name] = {
                    "min": row["lo"],
                    "max": row["hi"],
                    "mean": row["mean"],
                    "count": row["n"],
                }
            return {
                "records": head["n"],
                "traces": head["traces"],
                "metrics": metrics,
            }

        result: dict[str, Any] = self._guarded(_summary)
        return result
