"""Durable service state: a sqlite database in WAL mode.

The store holds three things:

* ``meta`` — a key/value table with the genesis :class:`ServeConfig`
  JSON, the ``clean`` shutdown flag, and the WAL sequence/tick cursors
  of the newest snapshot.
* ``snapshots`` — pickled :class:`~repro.serve.core.SimCore` blobs
  keyed by tick, each with the state digest taken at snapshot time.
* ``jobs`` — a catalog of every admitted job (spec JSON + disposition)
  for offline inspection; *not* used by recovery, which re-derives the
  job set from the WAL.

The clean-flag protocol implements unclean-shutdown detection: the flag
is set to ``0`` the moment the daemon opens the store for writing and
back to ``1`` only after a graceful drain (final snapshot + WAL close).
A SIGKILL therefore always leaves ``clean=0`` behind, and the next boot
runs recovery.  sqlite's own WAL journal makes each transaction
crash-atomic, so the store is never torn below the record level.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.ioutil import ensure_parent
from repro.serve.config import ServeConfig

__all__ = ["Store"]

#: One job-catalog row: ``(job_id, tick, disposition, spec)``.
CatalogRow = Tuple[int, int, str, Dict[str, Any]]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    tick     INTEGER PRIMARY KEY,
    next_seq INTEGER NOT NULL,
    digest   TEXT NOT NULL,
    blob     BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id      INTEGER PRIMARY KEY,
    tick        INTEGER NOT NULL,
    disposition TEXT NOT NULL,
    spec        TEXT NOT NULL
);
"""


class Store:
    """sqlite-backed durable state under ``<state_dir>/serve.sqlite``."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.path = os.path.join(state_dir, "serve.sqlite")
        ensure_parent(self.path)
        # HTTP handler threads reach the store through the daemon (which
        # serializes every access behind one lock), so the connection
        # must be usable off its creating thread.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- meta ----------------------------------------------------------
    def _get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else str(row[0])

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value))
        self._conn.commit()

    def config(self) -> Optional[ServeConfig]:
        """The genesis config, or ``None`` for a brand-new store."""
        raw = self._get_meta("config")
        return None if raw is None else ServeConfig.from_json(raw)

    def init_config(self, config: ServeConfig) -> None:
        if self._get_meta("config") is not None:
            raise RuntimeError("store already has a genesis config")
        self._set_meta("config", config.to_json())
        self._set_meta("clean", "1")

    def is_clean(self) -> bool:
        """``True`` unless the last writer died without draining."""
        return self._get_meta("clean") != "0"

    def mark_dirty(self) -> None:
        self._set_meta("clean", "0")

    def mark_clean(self) -> None:
        self._set_meta("clean", "1")

    # -- snapshots -----------------------------------------------------
    def put_snapshot(self, tick: int, next_seq: int, digest: str,
                     blob: bytes) -> None:
        """Persist the snapshot at ``tick`` in one transaction."""
        self._conn.execute(
            "INSERT OR REPLACE INTO snapshots "
            "(tick, next_seq, digest, blob) VALUES (?, ?, ?, ?)",
            (tick, next_seq, digest, sqlite3.Binary(blob)))
        self._conn.commit()

    def latest_snapshot(self) -> Optional[Tuple[int, int, str, bytes]]:
        """``(tick, next_seq, digest, blob)`` of the newest snapshot."""
        row = self._conn.execute(
            "SELECT tick, next_seq, digest, blob FROM snapshots "
            "ORDER BY tick DESC LIMIT 1").fetchone()
        if row is None:
            return None
        return int(row[0]), int(row[1]), str(row[2]), bytes(row[3])

    def snapshot_ticks(self) -> List[int]:
        rows = self._conn.execute(
            "SELECT tick FROM snapshots ORDER BY tick").fetchall()
        return [int(row[0]) for row in rows]

    def latest_snapshot_tick(self) -> Optional[int]:
        """Newest snapshot's tick without loading its blob."""
        row = self._conn.execute(
            "SELECT MAX(tick) FROM snapshots").fetchone()
        return None if row is None or row[0] is None else int(row[0])

    def db_bytes(self) -> int:
        """On-disk size of the sqlite database (main file + WAL/SHM)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    # -- job catalog ---------------------------------------------------
    def record_jobs(self, rows: Iterable[CatalogRow]) -> None:
        """Catalog ``(job_id, tick, disposition, spec)`` rows in one
        transaction: one commit (one fsync) per tick, not per job."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO jobs "
            "(job_id, tick, disposition, spec) VALUES (?, ?, ?, ?)",
            [(job_id, tick, disposition, json.dumps(spec, sort_keys=True))
             for job_id, tick, disposition, spec in rows])
        self._conn.commit()

    def record_job(self, job_id: int, tick: int, disposition: str,
                   spec: Dict[str, Any]) -> None:
        """Catalog one row; see :meth:`record_jobs`."""
        self.record_jobs([(job_id, tick, disposition, spec)])

    def jobs(self) -> List[Tuple[int, int, str, Dict[str, Any]]]:
        rows = self._conn.execute(
            "SELECT job_id, tick, disposition, spec FROM jobs "
            "ORDER BY job_id").fetchall()
        return [(int(r[0]), int(r[1]), str(r[2]), json.loads(r[3]))
                for r in rows]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
