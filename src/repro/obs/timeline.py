"""Chrome trace-event timeline export.

Renders a traced simulation as per-GPU occupancy lanes in the Chrome
trace-event JSON format, loadable in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev).  Each cluster node becomes a *process* row and
each GPU a *thread* lane; every execution interval of a job is a complete
("X") event on the lanes of the GPUs it occupied, annotated with the job's
speed, mates and whether the run was a profiling run.  Submission and
placement decisions appear as instant events, and the ``queue_depth``
payload of the ``sched_*`` events becomes a counter track, so a
timeline rebuilt from ``events.jsonl`` alone draws it too — the same
at-a-glance story as the paper's
cluster-timeline figures.  Which kinds close a lane (the job is off its
GPUs) and which go on the faults track is read from
:data:`repro.obs.tracer.TRACE_KINDS`.

Simulated seconds map to trace microseconds (the format's native unit), so
one simulated day spans one "day" of trace time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.ioutil import atomic_write_text
from repro.obs.tracer import FAULT_KINDS, RELEASE_KINDS, TraceEvent

__all__ = ["build_chrome_trace", "write_chrome_trace"]

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6
#: pid offset separating profiling-cluster lanes from main-cluster lanes
#: (the profiler runs its own Cluster whose node ids restart at zero).
_PROFILER_PID_BASE = 10_000
#: pid of the synthetic "scheduler" process (submits, decisions, queue).
_SCHED_PID = 99_999
#: pid of the synthetic "faults" process (failures, crashes, stragglers).
_FAULT_PID = 88_888


def build_chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Build a Chrome trace-event document from tracer events.

    Only ``start`` and the releasing kinds (lanes), ``submit``/
    ``decision`` and the fault kinds (instants), ``speed`` (lane
    annotations) and the ``queue_depth`` of ``sched_*`` events (the
    counter track) are consumed; other kinds are ignored.
    """
    events = sorted(events, key=lambda e: e.time)
    trace: List[Dict[str, Any]] = []
    seen_lanes: Dict[Tuple[int, int], None] = {}
    seen_pids: Dict[int, str] = {}
    #: job_id -> (start time, lane list, args) of the open interval.
    open_runs: Dict[int, Tuple[float, List[Tuple[int, int]],
                               Dict[str, Any]]] = {}
    end_time = events[-1].time if events else 0.0

    def lanes_for(event: TraceEvent) -> List[Tuple[int, int]]:
        gpus = event.data.get("gpus", [])
        nodes = event.data.get("nodes", [])
        profiling = bool(event.data.get("profiling"))
        base = _PROFILER_PID_BASE if profiling else 0
        label = "profiler node" if profiling else "node"
        lanes = []
        for gpu_id, node_id in zip(gpus, nodes):
            pid = base + int(node_id)
            seen_pids.setdefault(pid, f"{label} {int(node_id)}")
            lanes.append((pid, int(gpu_id)))
        return lanes

    def close_run(job_id: int, at: float, outcome: str) -> None:
        entry = open_runs.pop(job_id, None)
        if entry is None:
            return
        started, lanes, args = entry
        args = dict(args)
        args["outcome"] = outcome
        for pid, tid in lanes:
            seen_lanes.setdefault((pid, tid), None)
            trace.append({
                "name": args.get("name", f"job {job_id}"),
                "cat": "gpu",
                "ph": "X",
                "ts": started * _US,
                "dur": max(0.0, at - started) * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            })

    for event in events:
        if event.kind in FAULT_KINDS:
            # Faults get their own track; a releasing fault ("crash",
            # "job_failed") also closes the victim's interval below.
            label = event.kind if event.job_id is None \
                else f"{event.kind} job {event.job_id}"
            node = event.data.get("node")
            if node is not None:
                label = f"{label} (node {node})"
            args: Dict[str, Any] = dict(event.data)
            if event.job_id is not None:
                args["job_id"] = event.job_id
            trace.append({
                "name": label,
                "cat": "fault", "ph": "i", "s": "g",
                "ts": event.time * _US,
                "pid": _FAULT_PID, "tid": 0,
                "args": args,
            })
        if event.kind == "start":
            args = {
                "name": event.data.get("name", f"job {event.job_id}"),
                "job_id": event.job_id,
                "speed": event.data.get("speed"),
                "mates": event.data.get("mates", []),
                "profiling": bool(event.data.get("profiling")),
            }
            open_runs[event.job_id] = (event.time, lanes_for(event), args)
        elif event.kind in RELEASE_KINDS:
            close_run(event.job_id, event.time, event.kind)
        elif event.kind == "speed" and event.job_id in open_runs:
            # Annotate the open run with its latest speed.
            open_runs[event.job_id][2]["speed"] = event.data.get("speed")
        elif event.kind == "submit":
            trace.append({
                "name": f"submit job {event.job_id}",
                "cat": "scheduler", "ph": "i", "s": "p",
                "ts": event.time * _US,
                "pid": _SCHED_PID, "tid": 0,
                "args": {"job_id": event.job_id},
            })
        elif event.kind == "decision":
            trace.append({
                "name": f"{event.data.get('mode', 'place')} "
                        f"job {event.job_id}",
                "cat": "scheduler", "ph": "i", "s": "p",
                "ts": event.time * _US,
                "pid": _SCHED_PID, "tid": 1,
                "args": dict(event.data, job_id=event.job_id),
            })
        elif event.kind.startswith("sched_"):
            depth = event.data.get("queue_depth")
            if depth is not None:
                trace.append({
                    "name": "queue depth", "cat": "scheduler", "ph": "C",
                    "ts": event.time * _US, "pid": _SCHED_PID, "tid": 0,
                    "args": {"jobs": depth},
                })

    # Close anything still running at the end of the trace.
    for job_id in list(open_runs):
        close_run(job_id, end_time, "running")

    # Metadata: name the process and thread rows so lanes read naturally.
    meta: List[Dict[str, Any]] = []
    for pid, label in sorted(seen_pids.items()):
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 0, "args": {"name": label}})
    for pid, tid in sorted(seen_lanes):
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": tid, "args": {"name": f"gpu {tid}"}})
    if any(e["pid"] == _SCHED_PID for e in trace):
        meta.append({"name": "process_name", "ph": "M", "pid": _SCHED_PID,
                     "tid": 0, "args": {"name": "scheduler"}})
    if any(e["pid"] == _FAULT_PID for e in trace):
        meta.append({"name": "process_name", "ph": "M", "pid": _FAULT_PID,
                     "tid": 0, "args": {"name": "faults"}})

    return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable[TraceEvent]) -> int:
    """Write a Chrome trace JSON file; returns the number of trace events."""
    document = build_chrome_trace(events)
    atomic_write_text(path, json.dumps(document))
    return len(document["traceEvents"])
