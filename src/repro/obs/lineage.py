"""Causal event lineage and exact JCT decomposition.

Answers *why was this job slow?* — the outcome-level counterpart of
the decision audit (:mod:`repro.obs.audit`, which interprets each
placement decision); ``repro why`` prints both.  Three layers:

* :class:`LineageCollector` — an :class:`~repro.obs.tracer.Observer`
  (``Simulator(observers=[LineageCollector()])``) that folds the engine's
  event stream into the per-run **causal DAG**: every lifecycle event
  carries the ids of the events that caused it.  A ``start`` is caused
  by the releases (finish/preempt/crash) that freed its GPUs plus the
  scheduler pass that picked it; a ``retry`` by its ``crash``; a crash
  by the ``node_fail`` that killed the node.  Like every tracer it only
  reads event payloads, so an observed run is bit-identical to a plain
  one.
* :func:`decompose` — splits a completed job's JCT into six components
  that sum *exactly* to ``finish - submit``: time waiting for the
  profiling stage, time waiting in the main queue (attributed to the
  blocking jobs), sharing/straggler slowdown, preemption/restore
  overhead, fault-retry loss (rolled-back work plus backoff), and pure
  compute.  Per-interval pieces are residual-constructed so they tile
  each interval exactly; a final fold of the float summation residue
  into the largest component pins ``sum(components) == jct`` to well
  under the 1e-9 contract.
* :func:`critical_path` / :func:`blame_table` — walk the DAG backwards
  along binding causes ("the chain of events that determined this
  JCT") and aggregate main-queue wait by blocking job cluster-wide.

:func:`lineage_from_trace` replays a tracer JSONL through the same
fold, so ``repro why --trace events.jsonl`` needs no re-simulation.
Every heap :class:`~repro.sim.events.EventKind` member declares its
cause story (``EventKind.cause``) where it is defined, and which trace
kinds release GPUs comes from :data:`repro.obs.tracer.TRACE_KINDS`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.tracer import RELEASE_KINDS, Observer

__all__ = [
    "COMPONENTS",
    "BlameRow",
    "JCTDecomposition",
    "LineageCollector",
    "LineageEvent",
    "blame_table",
    "critical_path",
    "decompose",
    "decompose_all",
    "lineage_from_trace",
]

#: Decomposition component names, in report/CLI display order.
COMPONENTS: Tuple[str, ...] = (
    "pending_profiling", "pending_main", "sharing_slowdown",
    "preemption_overhead", "fault_retry", "compute",
)

#: Waiting buckets a pending interval can be classified into.
_WAIT_PROFILING = "pending_profiling"
_WAIT_MAIN = "pending_main"
_WAIT_FAULT = "fault_retry"

#: Tolerance below which a float-noise negative component is clamped.
_NOISE_EPS = 1e-6


@dataclass(frozen=True)
class LineageEvent:
    """One node of the causal DAG.

    ``kind`` uses the tracer vocabulary (``start``, ``crash``, ...)
    plus the synthetic ``sched_pass`` kind for scheduler passes; ids
    are dense indices into :attr:`LineageCollector.events`.
    """

    event_id: int
    time: float
    kind: str
    job_id: Optional[int]
    causes: Tuple[int, ...]
    data: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.event_id, "t": self.time, "kind": self.kind,
            "job_id": self.job_id, "causes": list(self.causes),
        }
        out.update(self.data)
        return out


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


class LineageCollector(Observer):
    """Assembles the causal event DAG of one simulation run.

    Attach via ``Simulator(observers=[LineageCollector()])`` (live) or
    rebuild from a trace file with :func:`lineage_from_trace`
    (offline) — both feed :meth:`emit`, so ``repro why`` gives the
    same answer either way.  The collector never mutates engine state:
    it reads event payloads and appends to internal structures only.
    Past ``max_events`` nodes it refuses new ones and counts them in
    :attr:`n_dropped`.
    """

    enabled = True

    def __init__(self, max_events: int = 2_000_000) -> None:
        #: Dense, append-only node store; event ids index this list.
        self.events: List[LineageEvent] = []
        #: Nodes not recorded because ``max_events`` was reached.
        self.n_dropped = 0
        self._max_events = max_events
        self._by_job: Dict[int, List[int]] = {}
        self._job_last: Dict[int, int] = {}
        #: Terminal (finish / job_failed) event id per completed job.
        self._terminal: Dict[int, int] = {}
        #: gpu_id -> id of the event that last freed it (main cluster
        #: only; profiling runs live on the separate profiler cluster,
        #: whose gpu ids may collide, so they never register releases).
        self._last_release: Dict[int, int] = {}
        #: All release event ids / times, in record order, for the
        #: cluster-wide "what freed capacity during this wait" probe.
        self._release_ids: List[int] = []
        self._release_times: List[float] = []
        #: Lazily materialized scheduler-pass node per pass timestamp.
        self._pass_nodes: Dict[float, int] = {}
        #: Event id -> scheduler routing annotation ("profiler" /
        #: "main" / "main_degraded") attached to the submit/retry node
        #: that opened the wait.
        self._route_at: Dict[int, str] = {}
        self._last_node_fail: Optional[int] = None

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------
    def _record(self, time: float, kind: str, job_id: Optional[int],
                causes: Sequence[Optional[int]],
                data: Dict[str, Any]) -> Optional[int]:
        if len(self.events) >= self._max_events:
            self.n_dropped += 1
            return None
        seen: Dict[int, None] = {}
        for cause in causes:
            if cause is not None:
                seen.setdefault(cause)
        event_id = len(self.events)
        self.events.append(LineageEvent(
            event_id=event_id, time=time, kind=kind, job_id=job_id,
            causes=tuple(seen), data=data))
        if job_id is not None:
            self._by_job.setdefault(job_id, []).append(event_id)
            self._job_last[job_id] = event_id
        return event_id

    def _pass_node(self, time: float) -> Optional[int]:
        """Get-or-create the scheduler-pass node for timestamp ``time``.

        The engine invokes exactly one scheduler pass per drained event
        batch (one batch per timestamp), so keying passes by time is
        faithful both live and offline — no engine-side pass hook, and
        therefore no per-pass overhead, is needed.
        """
        event_id = self._pass_nodes.get(time)
        if event_id is None:
            event_id = self._record(time, "sched_pass", None, (),
                                    {"index": len(self._pass_nodes)})
            if event_id is not None:
                self._pass_nodes[time] = event_id
        return event_id

    def _register_release(self, time: float, gpus: Iterable[int],
                          event_id: Optional[int]) -> None:
        if event_id is None:
            return
        for gpu in gpus:
            self._last_release[gpu] = event_id
        self._release_ids.append(event_id)
        self._release_times.append(time)

    # ------------------------------------------------------------------
    # Trace stream: the one ingestion path, live and offline
    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, job_id: Optional[int] = None,
             **data: Any) -> None:
        """Fold one tracer event into the DAG.

        Lifecycle kinds become nodes; ``sched_submit`` / ``sched_retry``
        carry the scheduler's ``routed`` annotation for the node that
        opened the job's current wait; every other kind (``speed``,
        ``decision``, ...) is ignored.
        """
        if kind == "node_fail":
            self._last_node_fail = self._record(
                time, kind, None, (),
                {"node": data.get("node"),
                 "victims": list(data.get("victims") or ())})
            return
        if kind == "node_recover":
            self._record(time, kind, None, (), {"node": data.get("node")})
            return
        if job_id is None:
            return
        last = self._job_last.get(job_id)
        profiling = bool(data.get("profiling"))
        progress = data.get("progress")
        if kind == "submit":
            self._record(time, kind, job_id, (),
                         {"gpu_num": int(data.get("gpu_num") or 0),
                          "vc": data.get("vc")})
        elif kind in ("sched_submit", "sched_retry"):
            routed = data.get("routed")
            if routed is not None and last is not None:
                self._route_at[last] = str(routed)
        elif kind == "start":
            gpus = list(data.get("gpus") or ())
            causes: List[Optional[int]] = [last, self._pass_node(time)]
            if not profiling:
                causes.extend(self._last_release.get(gpu) for gpu in gpus)
            self._record(time, kind, job_id, causes,
                         {"gpus": gpus, "profiling": profiling,
                          "overhead": float(data.get("overhead") or 0.0),
                          "progress": _opt_float(progress)})
        elif kind == "time_limit":
            self._record(time, kind, job_id, (last,),
                         {"progress": float(progress or 0.0),
                          "profiling": profiling})
        elif kind == "retry":
            self._record(time, kind, job_id, (last,), {})
        elif kind in RELEASE_KINDS:
            gpus = list(data.get("gpus") or ())
            causes = [last]
            node: Dict[str, Any] = {"gpus": gpus}
            if kind in ("crash", "job_failed"):
                cause = str(data.get("cause") or "crash")
                if cause == "node_fail":
                    causes.append(self._last_node_fail)
                node["cause"] = cause
            if kind == "crash":
                node["lost"] = float(data.get("lost") or 0.0)
                node["backoff"] = float(data.get("backoff") or 0.0)
            node["progress"] = (float(progress or 0.0)
                                if kind in ("stop", "preempt")
                                else _opt_float(progress))
            node["profiling"] = profiling
            if kind == "finish":
                node["jct"] = data.get("jct")
            event_id = self._record(time, kind, job_id, causes, node)
            if event_id is not None and kind in ("finish", "job_failed"):
                self._terminal[job_id] = event_id
            if not profiling:
                self._register_release(time, gpus, event_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events_of(self, job_id: int) -> List[LineageEvent]:
        """This job's lifecycle nodes, in record (= time) order."""
        return [self.events[i] for i in self._by_job.get(job_id, [])]

    def job_ids(self) -> List[int]:
        return sorted(self._by_job)

    def completed_job_ids(self) -> List[int]:
        """Jobs with a terminal (finish / job_failed) node."""
        return sorted(self._terminal)

    def route_of(self, event: LineageEvent) -> Optional[str]:
        return self._route_at.get(event.event_id)

    def releases_between(self, lo: float, hi: float) -> List[LineageEvent]:
        """Release events with ``lo < time <= hi``, in time order."""
        start = bisect.bisect_right(self._release_times, lo)
        stop = bisect.bisect_right(self._release_times, hi)
        return [self.events[self._release_ids[i]]
                for i in range(start, stop)]


# ----------------------------------------------------------------------
# JCT decomposition
# ----------------------------------------------------------------------
@dataclass
class JCTDecomposition:
    """Exact split of one job's completion time.

    ``components()`` sums to :attr:`jct` exactly: per-interval pieces
    are residual-constructed, and the fsum residue (:attr:`residual`,
    ulp-scale) is folded into the largest component.  On homogeneous
    clusters every component is non-negative; speed factors above 1
    (hetero GPUs) can drive ``sharing_slowdown`` negative, which then
    reads as "ran faster than the 1x reference".
    """

    job_id: int
    jct: float
    submit_time: float
    end_time: float
    outcome: str  # "finished" | "failed"
    pending_profiling: float = 0.0
    pending_main: float = 0.0
    sharing_slowdown: float = 0.0
    preemption_overhead: float = 0.0
    fault_retry: float = 0.0
    compute: float = 0.0
    #: fsum residue folded into the largest component (transparency).
    residual: float = 0.0
    #: blocking job id -> seconds of this job's main-queue wait
    #: attributed to it (equal split per wait interval).
    blockers: Dict[int, float] = field(default_factory=dict)
    #: Main-queue wait seconds no blocking job could be named for
    #: (idle-capacity / scheduler-policy wait).
    unattributed_wait: float = 0.0

    def components(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENTS}

    def total(self) -> float:
        return math.fsum(self.components().values())

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.job_id, "jct": self.jct,
            "submit_time": self.submit_time, "end_time": self.end_time,
            "outcome": self.outcome, "residual": self.residual,
            "components": self.components(),
            "blockers": {str(k): v
                         for k, v in sorted(self.blockers.items())},
            "unattributed_wait": self.unattributed_wait,
        }
        return out


def _blocking_ids(collector: LineageCollector, start: LineageEvent,
                  job_id: int, since: float) -> List[int]:
    """Jobs to blame for the main-queue wait ending at ``start``.

    Preference order: (1) releases of the GPUs the job started on that
    happened *during* the wait, (2) those GPUs' last releases whenever
    they happened, (3) any cluster-wide release during the wait (what
    freed capacity / triggered the pass that placed the job).
    """
    in_window: List[int] = []
    any_release: List[int] = []
    for cause_id in start.causes:
        cause = collector.events[cause_id]
        if cause.kind not in RELEASE_KINDS or cause.job_id is None \
                or cause.job_id == job_id:
            continue
        any_release.append(cause.job_id)
        if since <= cause.time <= start.time:
            in_window.append(cause.job_id)
    picked = in_window or any_release
    if not picked:
        picked = [e.job_id for e in
                  collector.releases_between(since, start.time)
                  if e.job_id is not None and e.job_id != job_id]
    seen: Dict[int, None] = {}
    for jid in picked:
        seen.setdefault(jid)
    return list(seen)


def decompose(collector: LineageCollector,
              job_id: int) -> JCTDecomposition:
    """Split ``job_id``'s completion time into the six components.

    Raises ``KeyError`` for unknown jobs and ``ValueError`` for jobs
    that never reached a terminal event (still running / pending when
    the collector stopped observing).
    """
    timeline = collector.events_of(job_id)
    if not timeline:
        raise KeyError(f"job {job_id} has no lineage events")
    if timeline[0].kind != "submit":
        raise ValueError(f"job {job_id}: lineage starts with "
                         f"{timeline[0].kind!r}, not 'submit' (was the "
                         "collector attached from the beginning?)")
    terminal = timeline[-1]
    if terminal.kind not in ("finish", "job_failed"):
        raise ValueError(f"job {job_id} has not completed (last event: "
                         f"{terminal.kind!r} at t={terminal.time:.0f}s)")
    submit_time = timeline[0].time
    end_time = terminal.time
    outcome = "finished" if terminal.kind == "finish" else "failed"

    pieces: Dict[str, List[float]] = {name: [] for name in COMPONENTS}
    blockers: Dict[int, List[float]] = {}
    unattributed: List[float] = []
    # Surviving-work stack: (amount, was_profiling) in production
    # order; crashes and profiling evictions pop from the tail.
    survive: List[Tuple[float, bool]] = []

    def pop_work(amount: float, bucket_for: Optional[str]) -> None:
        """Reclassify the newest ``amount`` of surviving work.

        ``bucket_for=None`` routes each popped piece by its own
        profiling flag (profiling discard vs. checkpoint rollback);
        a bucket name forces the classification.
        """
        left = amount
        while left > 0.0 and survive:
            work, was_profiling = survive[-1]
            take = min(left, work)
            bucket = bucket_for if bucket_for is not None else (
                _WAIT_PROFILING if was_profiling else _WAIT_FAULT)
            pieces[bucket].append(take)
            left -= take
            if take >= work:
                survive.pop()
            else:
                survive[-1] = (work - take, was_profiling)

    wait_since: Optional[float] = submit_time
    wait_bucket = (_WAIT_PROFILING
                   if collector.route_of(timeline[0]) == "profiler"
                   else _WAIT_MAIN)
    run_t0 = 0.0
    run_overhead = 0.0
    run_p0 = 0.0
    run_profiling = False
    running = False
    carried = 0.0

    def close_run(end: float, p_end: float) -> None:
        """Account one running segment ``[run_t0, end]``.

        ``p_end`` is the progress reached *before* any rollback; the
        residual construction (slowdown = dt - overhead - work) makes
        the three pieces tile the segment exactly."""
        nonlocal running, carried
        dt = end - run_t0
        overhead_used = min(run_overhead, dt)
        productive = dt - overhead_used
        work = max(0.0, p_end - run_p0)
        if work > productive and work - productive <= _NOISE_EPS:
            work = productive  # float noise; keep slowdown exactly 0
        pieces["preemption_overhead"].append(overhead_used)
        pieces["sharing_slowdown"].append(productive - work)
        if work > 0.0:
            survive.append((work, run_profiling))
        carried = p_end
        running = False

    def close_wait(end: float, event: LineageEvent) -> None:
        nonlocal wait_since
        if wait_since is None:
            return
        span = end - wait_since
        pieces[wait_bucket].append(span)
        if wait_bucket == _WAIT_MAIN and span > 0.0 \
                and event.kind == "start":
            named = _blocking_ids(collector, event, job_id, wait_since)
            if named:
                share = span / len(named)
                for jid in named:
                    blockers.setdefault(jid, []).append(share)
            else:
                unattributed.append(span)
        wait_since = None

    for event in timeline:
        kind = event.kind
        if kind == "start":
            close_wait(event.time, event)
            run_t0 = event.time
            run_overhead = float(event.data.get("overhead") or 0.0)
            p0 = event.data.get("progress")
            run_p0 = float(p0) if p0 is not None else carried
            # A start below the carried progress is a discard: the
            # gap was thrown away (profiling eviction restarts from
            # scratch, Lucid's non-intrusive contract).
            if run_p0 < carried:
                pop_work(carried - run_p0, None)
                carried = run_p0
            run_profiling = bool(event.data.get("profiling"))
            running = True
        elif kind in ("stop", "preempt"):
            if running:
                p_end = event.data.get("progress")
                close_run(event.time, float(p_end) if p_end is not None
                          else run_p0 + (event.time - run_t0))
            wait_since = event.time
            wait_bucket = _WAIT_MAIN
        elif kind == "crash":
            lost = float(event.data.get("lost") or 0.0)
            if running:
                checkpoint = event.data.get("progress")
                if checkpoint is not None:
                    p_end = float(checkpoint) + lost
                else:
                    p_end = run_p0 + (event.time - run_t0)
                close_run(event.time, p_end)
            pop_work(lost, _WAIT_FAULT)
            carried -= min(carried, lost)
            wait_since = event.time
            wait_bucket = _WAIT_FAULT
        elif kind == "retry":
            close_wait(event.time, event)
            wait_since = event.time
            wait_bucket = (_WAIT_PROFILING
                           if collector.route_of(event) == "profiler"
                           else _WAIT_MAIN)
        elif kind == "finish":
            p_end = event.data.get("progress")
            if running:
                close_run(event.time, float(p_end) if p_end is not None
                          else run_p0 + (event.time - run_t0))
        elif kind == "job_failed":
            if running:
                p_end = event.data.get("progress")
                close_run(event.time, float(p_end) if p_end is not None
                          else run_p0 + (event.time - run_t0))
            elif wait_since is not None:
                close_wait(event.time, event)
        # "submit" opens the initial wait (handled above);
        # "time_limit" is a marker — the eviction arrives as "stop".

    # Terminal work classification: surviving progress of a finished
    # job is its pure compute; a permanently failed job's progress
    # never became a completion, so it counts as fault loss.
    remaining = math.fsum(w for w, _ in survive)
    pieces["compute" if outcome == "finished" else "fault_retry"].append(
        remaining)

    values = {name: math.fsum(parts) for name, parts in pieces.items()}
    for name, value in values.items():
        if -_NOISE_EPS < value < 0.0:
            values[name] = 0.0
    jct = end_time - submit_time
    residual = jct - math.fsum(values.values())
    largest = max(values, key=lambda name: values[name])
    values[largest] += residual

    result = JCTDecomposition(
        job_id=job_id, jct=jct, submit_time=submit_time,
        end_time=end_time, outcome=outcome, residual=residual,
        unattributed_wait=math.fsum(unattributed))
    for name, value in values.items():
        setattr(result, name, value)
    result.blockers = {jid: math.fsum(parts)
                       for jid, parts in sorted(blockers.items())}
    return result


def decompose_all(collector: LineageCollector
                  ) -> Dict[int, JCTDecomposition]:
    """Decompositions for every completed job, keyed by job id."""
    return {job_id: decompose(collector, job_id)
            for job_id in collector.completed_job_ids()}


# ----------------------------------------------------------------------
# Critical path and cluster-wide blame
# ----------------------------------------------------------------------
def critical_path(collector: LineageCollector,
                  job_id: int) -> List[LineageEvent]:
    """The chain of events that determined this job's completion time.

    Walks backwards from the terminal event choosing the *binding*
    cause at each node: the latest-time cause; on ties, lifecycle
    events beat the synthetic scheduler-pass node (the job's own
    history is the informative chain) and record order breaks what
    remains (simultaneous frees resolve to the one the engine
    processed last).  Returns the chain oldest first.
    """
    terminal_id = collector._terminal.get(job_id)
    if terminal_id is None:
        timeline = collector.events_of(job_id)
        if not timeline:
            raise KeyError(f"job {job_id} has no lineage events")
        terminal_id = timeline[-1].event_id
    chain: List[LineageEvent] = []
    seen: Dict[int, None] = {}
    current: Optional[int] = terminal_id
    while current is not None and current not in seen:
        seen.setdefault(current)
        event = collector.events[current]
        chain.append(event)
        if not event.causes:
            break
        current = max(
            event.causes,
            key=lambda cid: (collector.events[cid].time,
                             collector.events[cid].kind != "sched_pass",
                             cid))
    chain.reverse()
    return chain


@dataclass(frozen=True)
class BlameRow:
    """One aggregate blocker: total wait it induced across victims."""

    job_id: int
    induced_wait: float
    n_victims: int


def blame_table(
    decompositions: Mapping[int, JCTDecomposition], top: int = 10,
) -> List[BlameRow]:
    """Top blockers by aggregate induced main-queue wait."""
    induced: Dict[int, float] = {}
    victims: Dict[int, int] = {}
    for decomposition in decompositions.values():
        for blocker, seconds in decomposition.blockers.items():
            induced[blocker] = induced.get(blocker, 0.0) + seconds
            victims[blocker] = victims.get(blocker, 0) + 1
    rows = [BlameRow(job_id=jid, induced_wait=seconds,
                     n_victims=victims[jid])
            for jid, seconds in induced.items()]
    rows.sort(key=lambda row: (-row.induced_wait, row.job_id))
    return rows[:top]


# ----------------------------------------------------------------------
# Offline reconstruction from tracer JSONL
# ----------------------------------------------------------------------
def lineage_from_trace(events: Iterable[Any],
                       max_events: int = 2_000_000) -> LineageCollector:
    """Rebuild the causal DAG from traced events.

    ``events`` are :class:`~repro.obs.tracer.TraceEvent`-shaped objects
    (``time`` / ``kind`` / ``job_id`` / ``data``), e.g. from
    ``events_from_dicts(read_jsonl(path))``.  Each one goes through
    :meth:`LineageCollector.emit`, the fold a live run feeds.
    """
    collector = LineageCollector(max_events=max_events)
    for event in events:
        collector.emit(float(event.time), str(event.kind), event.job_id,
                       **(event.data or {}))
    return collector
