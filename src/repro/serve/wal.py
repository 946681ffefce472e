"""Append-only, checksummed write-ahead log of service transitions.

Every state transition the daemon performs is journaled *before* it is
applied:

* ``tick`` records carry the admission decisions of one service tick —
  which inbox files were consumed, which specs were admitted (full spec
  JSON, so replay needs no inbox), which were rejected and why.
* ``commit`` records close a tick: they carry the post-tick state
  digest, simulated clock, and event count, and are what recovery
  verifies replayed state against.
* ``snapshot`` records mark that a snapshot at a given tick was
  persisted to the store; segments older than the newest snapshot are
  no longer needed for recovery (but are kept for audit).

Physical format: JSONL, one record per line::

    {"seq": 17, "crc": 3735928559, "rec": {"kind": "tick", ...}}

``crc`` is the CRC-32 of the canonical JSON of ``rec``; ``seq`` is a
strictly increasing sequence number across segment boundaries.  A crash
mid-append can only produce a *torn tail*: the last line may be
truncated or checksum-broken.  Replay therefore tolerates exactly one
trailing bad record per segment — it truncates there — and treats a bad
record *followed by good ones* as corruption, which is a hard error.

Segments are named ``wal-<tick:08d>.jsonl`` where ``<tick>`` is the
tick of the snapshot that opened them (00000000 for genesis).  Rotation
happens at snapshot boundaries so recovery only ever replays one
segment over one snapshot.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from repro.obs.ioutil import ensure_parent, fsync_dir

__all__ = ["WalCorruptionError", "WalRecord", "WriteAheadLog",
           "segment_name", "segment_tick"]

#: Append observer signature: ``(kind, encoded_bytes, wall_seconds)``
#: after each durable append.  ``wall_seconds`` covers encode + write +
#: flush + fsync — the full write-ahead latency the daemon's
#: ``serve_wal_append_seconds`` histogram reports.
AppendObserver = Callable[[str, int, float], None]

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.jsonl$")


class WalCorruptionError(RuntimeError):
    """The WAL is corrupt beyond torn-tail tolerance."""


def segment_name(tick: int) -> str:
    """Segment filename for the segment opened at snapshot ``tick``."""
    return f"wal-{tick:08d}.jsonl"


def segment_tick(name: str) -> Optional[int]:
    """Inverse of :func:`segment_name`; ``None`` for non-WAL files."""
    match = _SEGMENT_RE.match(name)
    return int(match.group(1)) if match else None


@dataclass(frozen=True)
class WalRecord:
    """One journaled transition: a sequence number plus a payload."""

    seq: int
    rec: Dict[str, Any]

    @property
    def kind(self) -> str:
        return str(self.rec.get("kind", ""))

    def encode(self) -> str:
        body = json.dumps(self.rec, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode("utf-8"))
        return json.dumps({"seq": self.seq, "crc": crc, "rec": self.rec},
                          sort_keys=True, separators=(",", ":"))

    @staticmethod
    def decode(line: str) -> "WalRecord":
        """Parse one WAL line; raises ``ValueError`` on any damage."""
        envelope = json.loads(line)
        if not isinstance(envelope, dict):
            raise ValueError("WAL line is not an object")
        rec = envelope["rec"]
        body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(body.encode("utf-8")) != envelope["crc"]:
            raise ValueError("WAL checksum mismatch")
        return WalRecord(seq=int(envelope["seq"]), rec=rec)


class WriteAheadLog:
    """Segmented JSONL WAL under one directory.

    The instance owns the *active* segment file handle; appends go
    through :meth:`append` which assigns sequence numbers, encodes with
    a checksum, writes, flushes, and (when ``durable``) fsyncs before
    returning — write-ahead means the record must be on disk before the
    transition it describes is applied.
    """

    def __init__(self, wal_dir: str, durable: bool = True) -> None:
        self.wal_dir = wal_dir
        self.durable = durable
        self._handle: Optional[Any] = None
        self._active: Optional[str] = None
        self._next_seq = 0
        #: Optional per-append telemetry hook (``None`` = zero overhead:
        #: the hot path takes no clock reads while unset).
        self.on_append: Optional[AppendObserver] = None
        ensure_parent(os.path.join(wal_dir, "x"))

    # -- reading -------------------------------------------------------
    def segments(self) -> List[str]:
        """Segment filenames sorted by opening tick."""
        names = [n for n in os.listdir(self.wal_dir)
                 if segment_tick(n) is not None]
        return sorted(names)

    def replay_segment(self, name: str) -> Iterator[WalRecord]:
        """Yield the valid records of one segment.

        Tolerates a single torn/corrupt *trailing* record (crash during
        append); corruption anywhere else raises
        :class:`WalCorruptionError`.
        """
        path = os.path.join(self.wal_dir, name)
        if not os.path.exists(path):
            return  # crash between snapshot store and segment creation
        lines: List[Tuple[int, str]] = []
        with open(path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                if line.strip():
                    lines.append((lineno, line))
        for index, (lineno, line) in enumerate(lines):
            try:
                yield WalRecord.decode(line)
            except (ValueError, KeyError, TypeError) as exc:
                if index == len(lines) - 1:
                    return  # torn tail — crash mid-append, expected
                raise WalCorruptionError(
                    f"{name}:{lineno}: corrupt record followed by "
                    f"{len(lines) - 1 - index} valid record(s): {exc}"
                ) from None

    # -- writing -------------------------------------------------------
    def open_segment(self, tick: int, next_seq: int) -> str:
        """Open (create or append to) the segment for snapshot ``tick``."""
        self.close()
        name = segment_name(tick)
        path = os.path.join(self.wal_dir, name)
        existed = os.path.exists(path)
        self._handle = open(path, "a")  # append-only journal
        self._active = name
        self._next_seq = next_seq
        if not existed and self.durable:
            fsync_dir(path)  # make the new directory entry durable
        return name

    def truncate_torn_tail(self, name: str) -> int:
        """Drop a torn trailing record from ``name`` in place.

        Returns the number of records dropped (0 or 1).  Called during
        recovery before the segment is re-opened for append, so a fresh
        record never lands after a half-written line.
        """
        path = os.path.join(self.wal_dir, name)
        if not os.path.exists(path):
            return 0
        with open(path, "r") as handle:
            raw = handle.readlines()
        lines = [line for line in raw if line.strip()]
        keep = len(lines)
        if lines:
            try:
                WalRecord.decode(lines[-1])
            except (ValueError, KeyError, TypeError):
                keep -= 1
        if keep == len(lines) and len(lines) == len(raw):
            return 0
        with open(path, "w") as handle:  # repro: noqa RPR009 (torn-tail truncation)
            handle.writelines(lines[:keep])
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        return len(lines) - keep

    def append(self, rec: Dict[str, Any]) -> WalRecord:
        """Journal ``rec``; durable on return when ``durable=True``."""
        if self._handle is None:
            raise RuntimeError("WAL has no open segment")
        observer = self.on_append
        started = time.perf_counter() if observer is not None else 0.0
        record = WalRecord(seq=self._next_seq, rec=rec)
        line = record.encode() + "\n"
        self._handle.write(line)
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        if observer is not None:
            observer(record.kind, len(line.encode("utf-8")),
                     time.perf_counter() - started)
        return record

    def stats(self) -> Dict[str, int]:
        """Segment count and total on-disk bytes (for ``/metrics``)."""
        segments = self.segments()
        total = 0
        for name in segments:
            try:
                total += os.path.getsize(os.path.join(self.wal_dir, name))
            except OSError:  # pragma: no cover - raced with cleanup
                pass
        return {"segments": len(segments), "bytes": total}

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def active_segment(self) -> Optional[str]:
        return self._active

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.durable:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._active = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
