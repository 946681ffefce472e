"""Structured event tracing for the simulator.

Lucid's headline property is *interpretability* (paper §3, Figure 7): an
operator can ask why any scheduling action was taken.  The tracer is the
substrate that makes the reproduction equally inspectable: the engine and
the schedulers emit :class:`TraceEvent` records at every lifecycle point
(submit / start / stop / preempt / finish / time-limit / speed change /
decision / refit), and the tracer stores them in a bounded in-memory ring
buffer with an optional JSONL sink for offline analysis.

The contract that keeps the simulator honest:

* **Zero overhead when disabled.**  The default tracer is
  :data:`NULL_TRACER`, whose ``enabled`` flag is ``False``; every emission
  site in the hot path is guarded by that flag, so a run without tracing
  executes the exact instruction stream of the seed engine and produces a
  bit-identical :class:`~repro.sim.metrics.SimulationResult`.
* **No behavioural feedback.**  Tracers observe; they never mutate jobs,
  GPUs or scheduler state.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, NamedTuple, Optional, Union

from repro.obs.ioutil import ensure_parent, tmp_path

__all__ = [
    "FAULT_KINDS",
    "RELEASE_KINDS",
    "TRACE_KINDS",
    "TraceEvent",
    "TraceKind",
    "Telemetry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RingBufferTracer",
    "read_jsonl",
]


class TraceKind(NamedTuple):
    """What one trace kind means to the readers of the event stream."""

    #: The job holds no GPUs from this instant on: the timeline closes
    #: its lanes and lineage records a release of each GPU.
    releases: bool
    #: The kind is drawn on the timeline's faults track.
    fault: bool


#: Every kind the engine, the fault runtime, the decision audit and the
#: schedulers emit, with the facts readers act on.  ``kind`` stays an
#: open vocabulary (readers skip kinds they do not know), but a fact
#: about a known kind is declared here and nowhere else.
TRACE_KINDS: Dict[str, TraceKind] = {
    #                           releases fault
    "submit":        TraceKind(False, False),  # job arrived
    "start":         TraceKind(False, False),  # began or resumed on GPUs
    "stop":          TraceKind(True, False),   # taken off its GPUs
    "preempt":       TraceKind(True, False),   # like stop, a preemption
    "finish":        TraceKind(True, False),   # completed all its work
    "time_limit":    TraceKind(False, False),  # bounded run hit its limit
    "speed":         TraceKind(False, False),  # effective speed changed
    "decision":      TraceKind(False, False),  # placement (repro.obs.audit)
    "refit":         TraceKind(False, False),  # Update Engine refit
    "node_fail":     TraceKind(False, True),   # node down, residents die
    "node_recover":  TraceKind(False, True),   # failed node back
    "crash":         TraceKind(True, True),    # fault killed it; will retry
    "retry":         TraceKind(False, True),   # backoff over; requeued
    "job_failed":    TraceKind(True, True),    # retry budget exhausted
    "slowdown":      TraceKind(False, True),   # straggler window opened
    "slowdown_end":  TraceKind(False, True),   # straggler window closed
    "sched_submit":  TraceKind(False, False),  # queued (routed stage)
    "sched_retry":   TraceKind(False, False),  # requeued after a crash
    "sched_finish":  TraceKind(False, False),  # left the scheduler
    "sched_failed":  TraceKind(False, False),  # dropped for good
}

#: Kinds after which the job holds no GPUs (derived from the table).
RELEASE_KINDS = frozenset(k for k, row in TRACE_KINDS.items()
                          if row.releases)
#: Kinds drawn on the timeline's faults track (derived from the table).
FAULT_KINDS = frozenset(k for k, row in TRACE_KINDS.items() if row.fault)


@dataclass(frozen=True)
class TraceEvent:
    """One structured simulator event.

    ``data`` carries kind-specific payload (GPU ids, speed, mates, …) and
    is stored as a plain dict so events serialize to JSON unmodified.
    """

    time: float
    kind: str
    job_id: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind}
        if self.job_id is not None:
            out["job_id"] = self.job_id
        out.update(self.data)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          sort_keys=False, default=_json_default)


def _json_default(obj: Any) -> Any:
    """Serialize the odd numpy scalar that sneaks into event payloads."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


class Tracer:
    """Tracer protocol: ``emit`` plus an ``enabled`` fast-path flag.

    Emission sites MUST guard on :attr:`enabled` before building payload
    dicts, e.g. ``if tracer.enabled: tracer.emit(...)`` — constructing the
    keyword arguments is the expensive part, not the call itself.
    """

    #: Hot-path guard; ``False`` means every emission site is skipped.
    enabled: bool = False

    def emit(self, time: float, kind: str, job_id: Optional[int] = None,
             **data: Any) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullTracer(Tracer):
    """The default no-op tracer (disabled)."""

    enabled = False

    def emit(self, time: float, kind: str, job_id: Optional[int] = None,
             **data: Any) -> None:
        pass


#: Shared singleton used as the engine default.
NULL_TRACER = NullTracer()


class RingBufferTracer(Tracer):
    """In-memory ring buffer of events with an optional JSONL sink.

    Parameters
    ----------
    capacity:
        Maximum events retained in memory; older events are evicted FIFO
        (the JSONL sink, when set, still receives every event).
    sink:
        A file path or open text handle; every event is appended as one
        JSON line.  Paths are opened lazily on first emission — parent
        directories are created, events stream into a ``.tmp`` sibling,
        and :meth:`close` atomically renames it to the final path (the
        tracer is a context manager), so a crash mid-run never leaves a
        truncated log masquerading as complete.  External handles are
        flushed but neither closed nor renamed.
    """

    enabled = True

    def __init__(self, capacity: int = 1_000_000,
                 sink: Optional[Union[str, IO[str]]] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._sink_path: Optional[str] = None
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        self.n_emitted = 0
        #: Events evicted from the ring buffer on overflow.  Silent loss
        #: is a footgun for long runs, so the count is surfaced on
        #: ``Telemetry.dropped_events`` and by ``repro trace``.  The JSONL
        #: sink (when set) still receives every event.
        self.n_dropped = 0
        if isinstance(sink, str):
            self._sink_path = sink
        elif sink is not None:
            self._sink = sink

    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, job_id: Optional[int] = None,
             **data: Any) -> None:
        event = TraceEvent(time=time, kind=kind, job_id=job_id, data=data)
        if len(self._buffer) == self.capacity:
            self.n_dropped += 1  # deque evicts the oldest event FIFO
        self._buffer.append(event)
        self.n_emitted += 1
        if self._sink_path is not None and self._sink is None:
            ensure_parent(self._sink_path)
            self._sink = open(tmp_path(self._sink_path), "w")
            self._owns_sink = True
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")

    def close(self) -> None:
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
                if self._sink_path is not None:
                    os.replace(tmp_path(self._sink_path), self._sink_path)
            self._sink = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Events currently retained, oldest first."""
        return list(self._buffer)

    def events_of(self, job_id: int) -> List[TraceEvent]:
        """All retained events of one job, in emission order."""
        return [e for e in self._buffer if e.job_id == job_id]

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        """All retained events matching any of the given kinds."""
        wanted = set(kinds)
        return [e for e in self._buffer if e.kind in wanted]

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of retained event kinds."""
        return dict(Counter(e.kind for e in self._buffer))


@dataclass
class Telemetry:
    """What a traced run leaves on its result.

    Attached to :class:`~repro.sim.metrics.SimulationResult` as the
    ``telemetry`` field when (and only when) the simulator was built
    with an enabled tracer.
    """

    #: Structured events retained by the tracer's ring buffer.
    events: List[TraceEvent] = field(default_factory=list)
    #: Scheduler decision audit, when the active scheduler kept one.
    audit: Optional[Any] = None
    #: Events evicted from the tracer's ring buffer on overflow; nonzero
    #: means :attr:`events` is a truncated suffix of the run.
    dropped_events: int = 0


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event log written by :class:`RingBufferTracer`."""
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def events_from_dicts(records: Iterable[Dict[str, Any]]) -> List[TraceEvent]:
    """Rehydrate :class:`TraceEvent` objects from JSONL dicts."""
    events: List[TraceEvent] = []
    for rec in records:
        rec = dict(rec)
        time = rec.pop("t")
        kind = rec.pop("kind")
        job_id = rec.pop("job_id", None)
        events.append(TraceEvent(time=time, kind=kind, job_id=job_id,
                                 data=rec))
    return events
