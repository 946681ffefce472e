"""Event primitives for the discrete-event simulator."""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@enum.unique
class EventKind(enum.Enum):
    """Kinds of simulator events.

    Each member is ``(value, replay, cause)``: ``replay`` says why
    replaying the serve WAL, which journals only each tick's number and
    admitted specs, reproduces the event exactly; ``cause`` says which
    earlier events the causal-lineage fold (:mod:`repro.obs.lineage`)
    cites as its causes.  The constructor rejects a member without both
    stories, and :func:`enum.unique` rejects stories for a value that
    already has a member.  ``.value`` strings are persisted (state
    digests, profiler keys, pickled snapshot heaps): never change them.
    """

    _value_: str
    replay: str
    cause: str

    def __new__(cls, value: str, *stories: str) -> "EventKind":
        member = object.__new__(cls)
        member._value_ = value
        return member

    def __init__(self, value: str, *stories: str) -> None:
        if len(stories) != 2 or not all(stories):
            raise TypeError(f"EventKind.{self.name} must declare exactly "
                            "a replay story and a cause story")
        self.replay, self.cause = stories

    SUBMIT = (  # a job arrives
        "submit",
        "journaled: the tick record lists the admitted spec files, and "
        "apply_tick_record re-admits them in order",
        "root node: trace arrival, no simulated cause")
    FINISH = (  # a running job completes its work
        "finish",
        "derived: advance() re-simulates from the journaled admissions",
        "the job's own start; a GPU release cause for later starts")
    TIME_LIMIT = (  # a bounded run (profiling) hits its limit
        "time_limit",
        "derived: profiling bounds are fixed by config and re-armed",
        "the profiling start that armed it; the eviction stop chains "
        "from it")
    TICK = (  # periodic scheduler wake-up
        "tick",
        "journaled: the WAL tick record itself (owns core.tick)",
        "uncaused; a pass becomes a sched_pass node only when a start "
        "cites it")

    # Fault-injection events (see :mod:`repro.faults`); payloads identify
    # the target node / job / slowdown factor.  Their replay story is
    # the same: fault timelines are pure functions of the FaultSpec and
    # seed journaled in ServeConfig.
    NODE_FAIL = (  # a node goes down, killing residents
        "node_fail",
        "seeded: drawn from the journaled FaultSpec + seed",
        "root fault node; cited by every victim crash it produces")
    NODE_RECOVER = (  # a failed node returns to service
        "node_recover",
        "seeded: scheduled with its node_fail draw",
        "paired with its node_fail, so recovered capacity shows on the "
        "critical path")
    JOB_CRASH = (  # a single running job dies
        "job_crash",
        "seeded: drawn from the config-seeded fault RNG stream",
        "the victim's start and, for node deaths, the node_fail; a GPU "
        "release")
    SLOWDOWN = (  # a node's GPUs become stragglers
        "slowdown",
        "seeded: drawn from the journaled FaultSpec + seed",
        "no node: speeds only, accounted as sharing_slowdown residual")
    SLOWDOWN_END = (  # the straggler window closes
        "slowdown_end",
        "seeded: scheduled with its slowdown draw",
        "no node: same residual accounting as slowdown")
    RETRY = (  # a crashed job's backoff expires
        "retry",
        "derived: backoff is a function of crash time and RetryPolicy",
        "the crash whose backoff it ends; the next start chains from it")


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled event.

    Events are totally ordered by ``(time, seq)``; ``seq`` is a monotonically
    increasing tie-breaker so simultaneous events dispatch in creation order
    and comparison never falls through to unorderable payloads.
    """

    time: float
    seq: int
    kind: EventKind = field(compare=False)
    job_id: Optional[int] = field(default=None, compare=False)
    epoch: int = field(default=0, compare=False)
    #: Event-kind-specific data (fault targets etc.); never compared.
    payload: Any = field(default=None, compare=False)


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples, so ordering compares
    floats and ints in C instead of calling :meth:`Event.__lt__`.
    ``(time, seq)`` is the events' own order and ``seq`` is unique, so
    the heap layout and the pop order are exactly those of a heap of
    events.  Pickles carry the list of events in heap order, the format
    of snapshots whose heap held the events themselves, so those load
    here and these load there.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __getstate__(self):
        return {"_heap": self.in_heap_order(), "_counter": self._counter}

    def __setstate__(self, state) -> None:
        self._heap = [(event.time, event.seq, event)
                      for event in state["_heap"]]
        self._counter = state["_counter"]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: EventKind, job_id: Optional[int] = None,
             epoch: int = 0, payload: Any = None) -> Event:
        """Schedule an event and return it."""
        seq = next(self._counter)
        event = Event(time=time, seq=seq, kind=kind, job_id=job_id,
                      epoch=epoch, payload=payload)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def in_heap_order(self) -> List[Event]:
        """The queued events in heap-list (not sorted) order."""
        return [entry[2] for entry in self._heap]
