"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed, sets up
several times (set-up time is reported as the median), runs its timed
work, and checks the program's outputs.  ``run`` returns an
:class:`Outcome`; with a :class:`~tracing.SpanRecorder` the same work
runs with every layer boundary wrapped (see :mod:`layers`).

Every end-to-end metric exists on every workload; what one "operation"
is differs per workload:

* ``lucid-venus``: one engine step (an event batch plus the Lucid pass
  that follows it), timed from outside around ``Simulator.step_batch``;
  ``ops_per_s`` is events dispatched per CPU second of replay.
* ``serve-fifo``: one admission, from the time a submission was due
  until the end of the daemon tick that consumed it; ``ops_per_s`` is
  admissions per CPU second of daemon work (in ``tick`` and
  ``submit``), so it falls when the daemon's cost per admission rises
  even while the daemon keeps up with the offered load.

Latencies are wall time.  ``ops_per_s`` divides by CPU time instead:
the disk waits and the CPU time the shared host gives other tenants
swing from run to run far more than the program's own work does, and
latencies already include them.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import SpanRecorder, paused

#: A venus run makes one replay per this many seconds of ``--seconds``
#: (about one replay's length on a 2-vCPU VM), at least one, each with
#: its own set-up; ``setup_s`` is the median of those set-ups.
REPLAY_SECONDS = 15.0
#: Set-ups per serve run; ``setup_s`` is their median.
SERVE_SETUPS = 9
#: Serve load: open-loop submissions per second.
SUBMIT_RATE = 50.0
#: Serve reads, one open-loop stream per documented reader of the
#: daemon: ``(reader, period in seconds, daemon methods it calls)``.
#: The dashboard polls ``/metrics?format=live`` every 2 s (the
#: ``poll_seconds`` default of ``obs.live.render_dashboard``); the
#: README's Prometheus scrape config scrapes every 5 s; a ``repro
#: serve-status`` probe reads ``/metrics`` (JSON), ``/healthz`` and
#: ``/status``.  No rate is documented for the probe, so one every 10 s
#: is an assumption.
READERS: Tuple[Tuple[str, float, Tuple[str, ...]], ...] = (
    ("dashboard", 2.0, ("live_json",)),
    ("prometheus", 5.0, ("prometheus",)),
    ("serve-status", 10.0, ("metrics", "health", "status")),
)
#: Longest a run waits, after the last submission, for the daemon to
#: admit what it accepted.
DRAIN_LIMIT_S = 60.0

clock = time.perf_counter
#: CPU seconds of the calling thread: the program's own work, without
#: disk waits or time the host gives to other tenants.
cpu_clock = time.thread_time


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    #: Descriptions of failed output checks (empty when correct).
    errors: List[str]
    #: Output values that identify the program's decisions.
    fingerprint: Dict[str, Any]
    #: End-to-end metric values (meaningful for untraced runs).
    metrics: Dict[str, float]
    #: Wall seconds of the work that tracing is compared on.
    busy_s: float
    #: Further untraced measurements, reported beside the metrics.
    extra: Dict[str, float] = field(default_factory=dict)


def tail(values: Sequence[float]) -> float:
    """The 99th percentile (nearest rank) when at least ten samples lie
    beyond it; otherwise the sample with exactly ten beyond it; the
    maximum when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1]
    return ordered[n - 1 - max(10, n // 100)]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_metrics(samples: List[float], ops: float, op_seconds: float
                ) -> Dict[str, float]:
    return {
        "p50_ms": statistics.median(samples) * 1e3,
        "tail_ms": tail(samples) * 1e3,
        "ops_per_s": ops / op_seconds,
    }


# ----------------------------------------------------------------------
# lucid-venus: a contended Lucid replay of the default VENUS preset
# ----------------------------------------------------------------------
def venus_setup(seed: int, n_jobs: Optional[int] = None) -> Any:
    from repro.core.lucid import LucidConfig, LucidScheduler
    from repro.sim.engine import Simulator
    from repro.traces.generator import TraceGenerator
    from repro.traces.spec import VENUS

    spec = VENUS if n_jobs is None else VENUS.with_jobs(n_jobs)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    jobs = generator.generate()
    history = generator.generate_history()
    scheduler = LucidScheduler(history, LucidConfig(seed=seed))
    sim = Simulator(cluster, jobs, scheduler)
    sim.begin()
    return sim


def venus_replay(sim: Any, recorder: Optional[SpanRecorder] = None
                 ) -> Tuple[float, float, List[float], Dict[str, Any]]:
    """Step ``sim`` to the end; returns wall and CPU seconds, step
    times and fingerprint."""
    from repro.serve.core import state_digest

    steps: List[float] = []
    cpu_started = cpu_clock()
    started = last = clock()
    while sim.step_batch():
        now = clock()
        steps.append(now - last)
        last = now
    result = sim.finalize()
    wall = clock() - started
    cpu = cpu_clock() - cpu_started
    with paused(recorder):
        digest = state_digest(sim)
    unfinished = sum(1 for job in sim.jobs.values()
                     if job.status.value != "finished")
    fingerprint = {
        "events": sim._events_processed,
        "avg_jct_h": result.avg_jct / 3600.0,
        "makespan_h": result.makespan / 3600.0,
        "finished": len(result.records),
        "unfinished": unfinished,
        "state_digest": digest,
    }
    return wall, cpu, steps, fingerprint


def replay_seeds(seed: int, count: int) -> List[int]:
    """The Lucid seeds of a run's ``count`` replays, drawn from ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def run_venus(seed: int, seconds: float,
              recorder: Optional[SpanRecorder] = None,
              replays: Optional[int] = None,
              n_jobs: Optional[int] = None) -> Outcome:
    """Replay the trace ``replays`` times, by default once per
    ``REPLAY_SECONDS`` of ``seconds``, each time with a fresh set-up and
    the next Lucid seed of :func:`replay_seeds`."""
    count = replays or max(1, int(seconds // REPLAY_SECONDS))
    walls: List[float] = []
    cpus: List[float] = []
    setups: List[float] = []
    steps: List[float] = []
    prints: List[Dict[str, Any]] = []
    for lucid_seed in replay_seeds(seed, count):
        started = clock()
        sim = venus_setup(lucid_seed, n_jobs)
        setups.append(clock() - started)
        wall, cpu, step_times, fingerprint = venus_replay(sim, recorder)
        sim = None
        walls.append(wall)
        cpus.append(cpu)
        steps.extend(step_times)
        prints.append(dict(fingerprint, lucid_seed=lucid_seed))
    errors = [f"lucid seed {p['lucid_seed']}: {p['unfinished']} job(s) "
              f"left unfinished" for p in prints if p["unfinished"]]
    # One Lucid seed can make a replay up to a third cheaper or dearer
    # than another, so the timings pool the steps of every replay.
    metrics = _op_metrics(steps, sum(p["events"] for p in prints),
                          sum(cpus))
    metrics.update(setup_s=statistics.median(setups),
                   peak_rss_mb=peak_rss_mb())
    return Outcome(attempted=sum(p["finished"] + p["unfinished"]
                                 for p in prints),
                   failed=sum(p["unfinished"] for p in prints),
                   errors=errors,
                   fingerprint={key: [p[key] for p in prints]
                                for key in prints[0]},
                   metrics=metrics,
                   busy_s=sum(setups) + sum(walls),
                   extra={"replays": len(walls),
                          "sim_wall_s": statistics.median(walls)})


# ----------------------------------------------------------------------
# serve-fifo: open-loop load on a durable FIFO serve daemon
# ----------------------------------------------------------------------
SERVE_CONFIG = {"trace": "venus", "scheduler": "fifo"}


def serve_specs(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` venus job specs; job ids are left to the daemon."""
    from repro.serve.jobspec import job_to_spec
    from repro.traces.generator import TraceGenerator
    from repro.traces.spec import VENUS

    spec = VENUS.with_seed(seed)
    if count > spec.n_jobs:
        spec = spec.with_jobs(count)
    specs = []
    for job in TraceGenerator(spec).generate()[:count]:
        item = job_to_spec(job)
        del item["job_id"]
        specs.append(item)
    return specs


def serve_setup(seed: int, count: int, state_root: str) -> Tuple[Any, Any]:
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import ServeDaemon

    specs = serve_specs(seed, count)
    daemon = ServeDaemon(tempfile.mkdtemp(dir=state_root),
                         ServeConfig(**SERVE_CONFIG))
    daemon.start()
    return daemon, specs


def serve_replay_digest(state_dir: str) -> Tuple[str, Optional[str]]:
    """Fold the daemon's whole WAL onto a fresh genesis core, untraced.

    Returns the replayed digest and the last journaled commit digest.
    """
    from repro.serve.config import ServeConfig
    from repro.serve.core import SimCore
    from repro.serve.recovery import apply_tick_record
    from repro.serve.wal import WriteAheadLog

    core = SimCore.genesis(ServeConfig(**SERVE_CONFIG))
    wal = WriteAheadLog(os.path.join(state_dir, "wal"), durable=False)
    last_commit = None
    for segment in wal.segments():
        for record in wal.replay_segment(segment):
            if record.kind == "tick":
                apply_tick_record(core, record.rec)
            elif record.kind == "commit":
                last_commit = str(record.rec["digest"])
    return core.digest(), last_commit


def read_schedule(begin: float, seconds: float
                  ) -> List[Tuple[float, str]]:
    """Due times of every read in a window of ``seconds``, in order."""
    return sorted((begin + j * period, reader)
                  for reader, period, _ in READERS
                  for j in range(math.ceil(seconds / period)))


def run_serve(seed: int, seconds: float, state_root: str,
              recorder: Optional[SpanRecorder] = None,
              setups_wanted: Optional[int] = None) -> Outcome:
    """Offer ``SUBMIT_RATE`` submissions/s and the ``READERS`` streams
    for ``seconds``, then drain until every accepted spec is admitted."""
    from repro.serve.http import DegradedError
    from repro.serve.inbox import InboxFullError
    from repro.serve.jobspec import JobSpecError

    count = max(1, int(round(SUBMIT_RATE * seconds)))
    setups: List[float] = []
    daemon = specs = None
    for _ in range(setups_wanted or SERVE_SETUPS):
        if daemon is not None:
            with paused(recorder):
                daemon.close()
                shutil.rmtree(daemon.state_dir)
        started = clock()
        daemon, specs = serve_setup(seed, count, state_root)
        setups.append(clock() - started)
    assert daemon is not None and specs is not None
    calls = {reader: tuple(getattr(daemon, method) for method in methods)
             for reader, _, methods in READERS}
    consumed = daemon.core.consumed

    begin = clock() + 0.05
    submit_due = [begin + i / SUBMIT_RATE for i in range(count)]
    reads = read_schedule(begin, seconds)
    #: Accepted, not yet admitted: name -> (due time, submit end).
    outstanding: Dict[str, Tuple[float, float]] = {}
    admit_latency: List[float] = []
    inbox_wait: List[float] = []
    read_latency: List[float] = []
    send_lag: List[float] = []
    refused = 0
    busy = sum(setups)
    daemon_s = 0.0  # time spent in submit() and tick()
    daemon_cpu_s = 0.0  # CPU time of the same calls
    resume_at = 0.0
    i = k = 0
    drain_deadline = math.inf

    while True:
        now = clock()
        if i < count and submit_due[i] <= now:
            send_lag.append(now - submit_due[i])
            cpu_started = cpu_clock()
            try:
                name = daemon.submit(specs[i])["file"]
            except (InboxFullError, JobSpecError, DegradedError):
                refused += 1
                done = clock()
            else:
                done = clock()
                outstanding[name] = (submit_due[i], done)
            busy += done - now
            daemon_s += done - now
            daemon_cpu_s += cpu_clock() - cpu_started
            i += 1
            if i == count:
                drain_deadline = clock() + DRAIN_LIMIT_S
            continue
        if k < len(reads) and reads[k][0] <= now:
            for call in calls[reads[k][1]]:
                call()
            done = clock()
            read_latency.append(done - reads[k][0])
            busy += done - now
            k += 1
            continue
        if i >= count and k >= len(reads) and not outstanding:
            break
        if now > drain_deadline:
            break
        if now < resume_at:
            upcoming = [resume_at]
            if i < count:
                upcoming.append(submit_due[i])
            if k < len(reads):
                upcoming.append(reads[k][0])
            time.sleep(max(0.0, min(upcoming) - now))
            continue
        cpu_started = cpu_clock()
        progressed = daemon.tick()
        end = clock()
        daemon_cpu_s += cpu_clock() - cpu_started
        busy += end - now
        daemon_s += end - now
        if outstanding:
            for name in [n for n in outstanding if n in consumed]:
                due, submitted = outstanding.pop(name)
                admit_latency.append(end - due)
                # poll() is the first thing a tick does.
                inbox_wait.append(now - submitted)
        if not progressed:
            # The service loop sleeps one poll interval when idle.
            resume_at = end + daemon.poll_interval
    stopped = clock()
    with paused(recorder):
        core = daemon.core
        admitted = core.next_job_id - 1
        live_digest = core.digest()
        state_dir = daemon.state_dir
        daemon.close()
        replayed, last_commit = serve_replay_digest(state_dir)
        shutil.rmtree(state_dir)

    lost = len(outstanding)
    # A spec never admitted waited at least until the run ended.
    admit_latency.extend(stopped - due for due, _ in outstanding.values())
    rejected = (count - refused - lost) - admitted
    errors = []
    if lost:
        errors.append(f"{lost} accepted spec(s) never admitted")
    if rejected:
        errors.append(f"{rejected} spec(s) rejected at admission")
    if replayed != live_digest or last_commit != live_digest:
        errors.append("WAL replay does not reproduce the live state")
    if not admit_latency:
        admit_latency = [math.nan]  # everything was refused
    metrics = _op_metrics(admit_latency, admitted, daemon_cpu_s)
    metrics.update(setup_s=statistics.median(setups),
                   peak_rss_mb=peak_rss_mb())
    extra = {
        "read_p50_ms": statistics.median(read_latency) * 1e3,
        "inbox_wait_p50_ms": statistics.median(inbox_wait) * 1e3
        if inbox_wait else 0.0,
        "send_lag_p50_ms": statistics.median(send_lag) * 1e3,
        "send_lag_max_ms": max(send_lag) * 1e3,
        "daemon_s": daemon_s,
        "daemon_cpu_s": daemon_cpu_s,
        "failed_frac": (refused + lost + rejected) / count,
    }
    return Outcome(attempted=count, failed=refused + lost + rejected,
                   errors=errors,
                   fingerprint={"admitted": admitted,
                                "final_digest": live_digest,
                                "wal_replay_digest": replayed},
                   metrics=metrics, busy_s=busy, extra=extra)
