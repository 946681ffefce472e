"""The service loop: admission ticks, snapshots, drain, watchdog.

One :class:`ServeDaemon` owns a state directory::

    <state_dir>/
        serve.sqlite    durable store (config, snapshots, job catalog)
        wal/            write-ahead log segments
        inbox/          job-spec drop box

Each *service tick* is journaled write-ahead and then applied:

1. Poll the inbox for up to ``config.batch`` unconsumed specs (sorted
   filename order — the admission schedule is timing-independent).
2. Append a ``tick`` WAL record carrying the full specs (write-ahead:
   durable before anything is applied).
3. Apply it via :func:`repro.serve.recovery.apply_tick_record` — the
   same function recovery replays — admitting jobs and advancing the
   simulator by at most ``config.events_per_tick`` event batches.
4. Append the ``commit`` record with the post-tick state digest.

A crash at *any* point in that sequence is recoverable: before the
tick record is durable the tick simply never happened; after it, the
deterministic re-application reproduces the exact state the commit
digest certifies.

Lifecycle hardening: SIGTERM/SIGINT request a graceful drain (finish
the in-flight tick, final snapshot, flush and close WAL + store, mark
the store clean); a watchdog heartbeat timestamp is exported through
``/metrics`` and gates ``/healthz``; a :class:`SimulationError` flips
the core into degraded mode (reads keep working, submissions get 503)
instead of killing the process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from types import FrameType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.lineage import (COMPONENTS, JCTDecomposition,
                               LineageCollector, decompose)
from repro.obs.live import (DEFAULT_SIZE_BUCKETS, LiveRegistry,
                            publish_profiler, render_dashboard)
from repro.obs.logutil import get_logger, log_context
from repro.obs.prof import SimProfiler
from repro.serve.config import ServeConfig
from repro.serve.core import SimCore
from repro.serve.http import DegradedError, HttpFrontend
from repro.serve.inbox import Inbox, InboxItem
from repro.serve.jobspec import JobSpecError, job_from_spec
from repro.serve.recovery import RecoveryReport, apply_tick_record, recover
from repro.serve.store import Store
from repro.serve.wal import WriteAheadLog
from repro.workloads.job import JobStatus

__all__ = ["ServeDaemon"]

logger = get_logger("serve.daemon")

#: ``/healthz`` fails once the loop heartbeat is older than this many
#: poll intervals (plus a floor for very fast polls).
_HEARTBEAT_SLACK = 20.0

#: Name and help of the counter mirroring the collector's drop count.
_DROPPED_EVENTS = ("tracer_dropped_events_total",
                   "Engine trace events the lineage collector refused at "
                   "its cap (nonzero = decompositions may be partial)")


class ServeDaemon:
    """Crash-recoverable scheduler service over one state directory.

    Parameters
    ----------
    state_dir:
        Root of the durable state (created if missing).
    config:
        Requested :class:`ServeConfig`; must match the stored genesis
        config on restarts (``None`` = use the stored one).
    poll_interval:
        Idle sleep between inbox polls, seconds (wall clock; never
        feeds into simulated time).
    snapshot_every:
        Take a store snapshot (and rotate the WAL segment) every N
        committed ticks.
    http_port:
        Localhost HTTP port (0 = ephemeral); ``None`` disables HTTP.
    inbox_capacity:
        Pending-spec bound before submissions get backpressure.
    durable:
        fsync WAL appends and renames (power-loss durability).  Tests
        may disable for speed; SIGKILL-crash safety does not need it.
    exit_when_idle:
        Leave the service loop once at least one job was admitted and
        the simulator went idle with an empty inbox (CI/batch mode).
    telemetry:
        Enable the live telemetry plane: a :class:`LiveRegistry` with
        latency histograms on every hot edge, the ``SimProfiler``
        attached to the engine, Prometheus text on ``/metrics`` and the
        ``/dashboard`` page.  Off = literally zero instrumentation (no
        clock reads beyond the watchdog heartbeat), and either way the
        scheduling stream is bit-identical — telemetry only ever
        *reads* (regression-tested).
    telemetry_refresh:
        Publish the slow-path metrics (profiler span summaries, WAL /
        store sizes) every N committed ticks.
    """

    def __init__(self, state_dir: str,
                 config: Optional[ServeConfig] = None, *,
                 poll_interval: float = 0.05,
                 snapshot_every: int = 25,
                 http_port: Optional[int] = None,
                 inbox_capacity: int = 64,
                 durable: bool = True,
                 exit_when_idle: bool = False,
                 telemetry: bool = True,
                 telemetry_refresh: int = 10) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if telemetry_refresh < 1:
            raise ValueError("telemetry_refresh must be >= 1")
        self.state_dir = state_dir
        self.requested_config = config
        self.poll_interval = poll_interval
        self.snapshot_every = snapshot_every
        self.http_port = http_port
        self.durable = durable
        self.exit_when_idle = exit_when_idle
        self.telemetry_refresh = telemetry_refresh
        #: The live telemetry plane; ``None`` = off (zero overhead).
        self.live: Optional[LiveRegistry] = \
            LiveRegistry() if telemetry else None
        self.profiler: Optional[SimProfiler] = \
            SimProfiler() if telemetry else None
        #: Causal-lineage collector, observing the engine's stream.
        self.collector: Optional[LineageCollector] = \
            LineageCollector() if telemetry else None
        #: Memoized per-job decompositions feeding the queue-component
        #: gauges (a finished job's decomposition never changes).
        self._decomposed: Dict[int, JCTDecomposition] = {}
        self._component_totals: Dict[str, float] = \
            {name: 0.0 for name in COMPONENTS}
        self._dropped_published = 0

        self.store: Optional[Store] = None
        self.wal: Optional[WriteAheadLog] = None
        self.core: Optional[SimCore] = None
        self.inbox = Inbox(os.path.join(state_dir, "inbox"),
                           capacity=inbox_capacity)
        self.http: Optional[HttpFrontend] = None
        self.recovery: Optional[RecoveryReport] = None

        self._lock = threading.RLock()
        self._stop_requested = False
        self._started = False
        self._admitted_any = False
        self._heartbeat = 0.0
        self._ticks_this_boot = 0
        self._last_snapshot_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> RecoveryReport:
        """Open the store, run recovery, start the HTTP frontend."""
        if self._started:
            raise RuntimeError("daemon already started")
        self.store = Store(self.state_dir)
        self.wal = WriteAheadLog(os.path.join(self.state_dir, "wal"),
                                 durable=self.durable)
        live = self.live
        recover_started = \
            time.perf_counter() if live is not None else 0.0
        self.core, self.recovery = recover(self.store, self.wal,
                                           self.requested_config)
        if live is not None:
            live.histogram(
                "serve_recovery_replay_seconds",
                "Wall time of the boot-time snapshot load + WAL replay"
            ).observe(time.perf_counter() - recover_started)
            live.counter("serve_boots_total",
                         "Daemon boots (each runs recovery)").inc()
            live.gauge("serve_recovery_replayed_ticks",
                       "Tick records replayed at the last boot"
                       ).set(float(self.recovery.replayed_ticks))
            live.gauge("serve_recovery_torn_records",
                       "Torn WAL records truncated at the last boot"
                       ).set(float(self.recovery.torn_records))
            # The profiler and the collector observe the engine from
            # here on; snapshots leave them out (Simulator.__getstate__)
            # and they feed nothing back.
            self.core.sim.observe(self.profiler)
            self.core.sim.observe(self.collector)
            self.wal.on_append = self._observe_wal_append
            # Register at zero so the dropped-events counter and the
            # queue gauges are scrapable before the first refresh.
            live.counter(*_DROPPED_EVENTS)
            self._publish_lineage(live)
        self._admitted_any = bool(self.core.sim.jobs)
        # Dirty until a graceful close: a SIGKILL from here on leaves
        # clean=0 behind and the next boot knows to distrust the tail.
        self.store.mark_dirty()
        self._heartbeat = time.monotonic()
        if self.http_port is not None:
            self.http = HttpFrontend(self, port=self.http_port)
            self.http.start()
        self._started = True
        logger.info("serve started in %s: %s", self.state_dir,
                    self.recovery.describe())
        return self.recovery

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful drain (main thread only)."""
        def _request_stop(signum: int,
                          frame: Optional[FrameType]) -> None:
            logger.info("signal %d: drain requested", signum)
            self._stop_requested = True

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    def run_forever(self) -> int:
        """The service loop; returns the number of ticks run this boot.

        Loops until a drain is requested (SIGTERM/SIGINT or
        :meth:`request_stop`) — or, with ``exit_when_idle``, until the
        admitted work completes — then shuts down gracefully.
        """
        if not self._started:
            self.start()
        try:
            while not self._stop_requested:
                progressed = self.tick()
                self._heartbeat = time.monotonic()
                if not progressed:
                    if self.exit_when_idle and self._admitted_any:
                        logger.info("idle with work complete; draining")
                        break
                    time.sleep(self.poll_interval)
        finally:
            self.close()
        return self._ticks_this_boot

    def request_stop(self) -> None:
        self._stop_requested = True

    def close(self) -> None:
        """Graceful drain: final snapshot, flush + close WAL and store."""
        if not self._started:
            return
        if self.http is not None:
            self.http.stop()
            self.http = None
        with self._lock:
            assert self.core is not None and self.store is not None \
                and self.wal is not None
            self._snapshot()
            self.wal.close()
            self.store.mark_clean()
            self.store.close()
            self._started = False
        logger.info("serve drained cleanly at tick %d", self.core.tick)

    # ------------------------------------------------------------------
    # The service tick
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """Run one journaled service tick; ``False`` when idle."""
        with self._lock:
            assert self.core is not None and self.wal is not None \
                and self.store is not None
            core = self.core
            live = self.live
            tick_started = \
                time.perf_counter() if live is not None else 0.0
            items = self.inbox.poll(core.consumed, core.config.batch)
            if live is not None:
                live.histogram(
                    "serve_inbox_poll_seconds",
                    "Wall time of one inbox poll (listdir + reads)"
                ).observe(time.perf_counter() - tick_started)
            if core.degraded is not None:
                # Degraded: stop admitting and advancing; reads only.
                return False
            if not items and not core.active:
                if live is not None:
                    live.counter("serve_idle_polls_total",
                                 "Polls that found no work").inc()
                return False
            # Correlation: every log line below — daemon, engine, WAL,
            # inbox — carries the tick being built and the segment it
            # journals into.
            with log_context(tick=core.tick + 1,
                             wal_segment=self.wal.active_segment):
                rec = self._tick_record(core.tick + 1, items)
                self.wal.append(rec)  # write-ahead: durable before applied
                dispositions = apply_tick_record(core, rec)
                self.wal.append({"kind": "commit", "tick": core.tick,
                                 "digest": core.digest(),
                                 "now": core.sim.now,
                                 "events": core.sim._events_processed,
                                 "degraded": core.degraded})
                self._ticks_this_boot += 1
                if dispositions:
                    self._admitted_any = True
                    self._catalog(core.tick, rec, dispositions)
                # Consumed spec files may go: content is in the WAL.
                self.inbox.remove([str(n) for n in rec["files"]]
                                  + [str(n) for n in rec["skipped"]])
                if core.degraded is not None:
                    logger.error("core degraded at tick %d: %s",
                                 core.tick, core.degraded)
                if core.tick % self.snapshot_every == 0:
                    self._snapshot()
            if live is not None:
                self._observe_tick(live, core, len(items),
                                   time.perf_counter() - tick_started)
            return True

    def _observe_tick(self, live: LiveRegistry, core: SimCore,
                      batch_size: int, seconds: float) -> None:
        """Per-tick fast-path metrics (telemetry on only)."""
        live.histogram("serve_tick_duration_seconds",
                       "Wall time of one journaled service tick"
                       ).observe(seconds)
        live.histogram("serve_inbox_batch_size",
                       "Specs admitted per service tick",
                       buckets=DEFAULT_SIZE_BUCKETS
                       ).observe(float(batch_size))
        live.counter("serve_ticks_total",
                     "Committed service ticks").inc()
        when = float(core.tick)
        live.gauge("serve_sim_now_seconds",
                   "Simulated clock (x = service tick)"
                   ).set(core.sim.now, time=when)
        live.gauge("serve_jobs_total", "Jobs admitted since genesis"
                   ).set(float(len(core.sim.jobs)), time=when)
        live.gauge("serve_jobs_unfinished",
                   "Admitted jobs not yet finished (x = service tick)"
                   ).set(float(core.sim._unfinished), time=when)
        live.gauge("serve_events_processed",
                   "Simulator events dispatched since genesis"
                   ).set(float(core.sim._events_processed), time=when)
        # Per-tick, not on the refresh interval: a drained run would
        # otherwise never publish its final decompositions (no further
        # ticks fire).  Incremental totals keep this O(new completions).
        self._publish_lineage(live)
        if core.tick % self.telemetry_refresh == 0:
            self._publish_slow(live)

    def _publish_slow(self, live: LiveRegistry) -> None:
        """Slow-path metrics on the refresh interval: profiler span
        summaries and durable-state sizes."""
        assert self.wal is not None and self.store is not None
        if self.profiler is not None:
            publish_profiler(live, self.profiler)
        stats = self.wal.stats()
        live.gauge("serve_wal_segments", "WAL segment files on disk"
                   ).set(float(stats["segments"]))
        live.gauge("serve_wal_bytes", "Total WAL bytes on disk"
                   ).set(float(stats["bytes"]))
        live.gauge("serve_store_bytes",
                   "sqlite store bytes on disk (db + WAL + SHM)"
                   ).set(float(self.store.db_bytes()))
        live.gauge("serve_snapshots", "Snapshots held by the store"
                   ).set(float(len(self.store.snapshot_ticks())))

    def _publish_lineage(self, live: LiveRegistry) -> None:
        """Queue-delay component gauges from the causal lineage.

        Each completed job is decomposed exactly once (memoized); the
        gauges publish cumulative seconds per JCT component across all
        completed jobs, so ``/metrics`` answers "where is admitted
        work's time going?" without touching the hot path.  Also
        mirrors the collector's drop count as a counter.
        """
        collector = self.collector
        assert collector is not None
        for job_id in collector.completed_job_ids():
            if job_id in self._decomposed:
                continue
            try:
                decomposition = decompose(collector, job_id)
            except (KeyError, ValueError):  # racing a partial job
                continue
            self._decomposed[job_id] = decomposition
            for name, seconds in decomposition.components().items():
                self._component_totals[name] += seconds
        for name, seconds in sorted(self._component_totals.items()):
            live.gauge(
                "serve_queue_component_seconds",
                "Cumulative JCT-decomposition seconds across "
                "completed jobs, per causal component",
                {"component": name}).set(seconds)
        live.gauge("serve_jobs_decomposed",
                   "Completed jobs with a published JCT "
                   "decomposition").set(float(len(self._decomposed)))
        dropped = collector.n_dropped
        if dropped > self._dropped_published:
            live.counter(*_DROPPED_EVENTS).inc(
                float(dropped - self._dropped_published))
            self._dropped_published = dropped

    def _observe_wal_append(self, kind: str, nbytes: int,
                            seconds: float) -> None:
        """WAL append observer (installed only when telemetry is on)."""
        assert self.live is not None
        self.live.histogram("serve_wal_append_seconds",
                            "WAL append latency incl. flush + fsync",
                            {"kind": kind}).observe(seconds)
        self.live.counter("serve_wal_appended_bytes_total",
                          "Bytes appended to the WAL").inc(float(nbytes))

    def _tick_record(self, tick: int,
                     items: List[InboxItem]) -> Dict[str, Any]:
        readable = [item for item in items if item.spec is not None]
        skipped = [item for item in items if item.spec is None]
        for item in skipped:
            logger.warning("inbox %s skipped: %s", item.name, item.error)
        return {"kind": "tick", "tick": tick,
                "files": [item.name for item in readable],
                "specs": [item.spec for item in readable],
                "skipped": [item.name for item in skipped]}

    def _catalog(self, tick: int, rec: Dict[str, Any],
                 dispositions: List[Dict[str, Any]]) -> None:
        """Mirror admission outcomes into the store's job catalog."""
        assert self.store is not None
        specs = {str(name): spec
                 for name, spec in zip(rec["files"], rec["specs"])}
        rows = []
        for dispo in dispositions:
            job_id = dispo["job_id"]
            if job_id is None:
                continue  # rejected specs carry no catalog row
            rows.append((int(job_id), tick, str(dispo["disposition"]),
                         specs.get(str(dispo["file"]), {})))
            logger.info("tick %d: job %s %s (%s)", tick, job_id,
                        dispo["disposition"], dispo["file"])
        if rows:
            self.store.record_jobs(rows)

    def _snapshot(self) -> None:
        """Snapshot to the store and rotate the WAL segment."""
        assert self.core is not None and self.store is not None \
            and self.wal is not None
        core = self.core
        live = self.live
        started = time.perf_counter() if live is not None else 0.0
        self.wal.append({"kind": "snapshot", "tick": core.tick})
        self.store.put_snapshot(core.tick, self.wal.next_seq,
                                core.digest(), core.to_blob())
        self.wal.open_segment(core.tick, self.wal.next_seq)
        self._last_snapshot_monotonic = time.monotonic()
        if live is not None:
            live.histogram(
                "serve_snapshot_write_seconds",
                "Wall time of one snapshot (pickle + sqlite + rotate)"
            ).observe(time.perf_counter() - started)
            live.gauge("serve_last_snapshot_tick",
                       "Tick of the newest store snapshot"
                       ).set(float(core.tick))
        logger.info("snapshot at tick %d (seq %d)", core.tick,
                    self.wal.next_seq)

    # ------------------------------------------------------------------
    # Frontend API (HTTP handlers and tests; thread-safe)
    # ------------------------------------------------------------------
    def submit(self, spec: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and drop one spec into the inbox.

        Raises ``JobSpecError`` on schema violations (fail fast — the
        client gets a 400 instead of a journaled rejection), or the
        admission-time rejection reason when the spec can never be
        placed; ``InboxFullError`` under backpressure;
        :class:`DegradedError` in degraded mode.
        """
        with self._lock:
            assert self.core is not None
            if self.core.degraded is not None:
                raise DegradedError(
                    f"service is degraded: {self.core.degraded}")
            job_from_spec(dict(spec), job_id=0)  # schema check
            reason = self.core.admission_error(dict(spec))
            if reason is not None:
                raise JobSpecError(reason)
            name = self.inbox.submit(dict(spec), self.core.consumed,
                                     self.core.consumed_seq)
            return {"status": "accepted", "file": name}

    def status(self) -> Dict[str, Any]:
        with self._lock:
            assert self.core is not None
            core = self.core
            return {
                "tick": core.tick,
                "sim_now": core.sim.now,
                "active": core.active,
                "degraded": core.degraded,
                "jobs": core.job_statuses(),
                "recovery": (self.recovery.describe()
                             if self.recovery else None),
            }

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            assert self.core is not None and self.store is not None \
                and self.wal is not None
            core = self.core
            finished = sum(1 for job in core.sim.jobs.values()
                           if job.status is JobStatus.FINISHED)
            wal_stats = self.wal.stats()
            snap_tick = self.store.latest_snapshot_tick()
            snap_age_s = None
            if self._last_snapshot_monotonic is not None:
                snap_age_s = round(
                    time.monotonic() - self._last_snapshot_monotonic, 3)
            return {
                "ticks": core.tick,
                "ticks_this_boot": self._ticks_this_boot,
                "events_processed": core.sim._events_processed,
                "sim_now": core.sim.now,
                "jobs_total": len(core.sim.jobs),
                "jobs_finished": finished,
                "inbox_pending": len(self.inbox.pending(core.consumed)),
                "snapshots": len(self.store.snapshot_ticks()),
                "wal_segments": wal_stats["segments"],
                "wal_bytes": wal_stats["bytes"],
                "store_bytes": self.store.db_bytes(),
                "last_snapshot_tick": snap_tick,
                "snapshot_age_ticks": (None if snap_tick is None
                                       else core.tick - snap_tick),
                "snapshot_age_s": snap_age_s,
                "heartbeat_age_s": round(self.heartbeat_age(), 3),
                "degraded": core.degraded is not None,
                "telemetry": self.live is not None,
            }

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """Watchdog verdict for ``/healthz``.

        The detail separates the two failure modes so probes can tell
        a *slow tick* (``stale``: the loop heartbeat outran its budget)
        from a *degraded core* (``degraded``: a deterministic
        simulation failure; restarts will reproduce it).
        """
        with self._lock:
            assert self.core is not None
            age = self.heartbeat_age()
            budget = max(5.0, self.poll_interval * _HEARTBEAT_SLACK)
            stale = age > budget
            degraded = self.core.degraded is not None
            self._set_watchdog_gauges(age, stale, degraded)
            detail = {"ok": not (stale or degraded),
                      "stale": stale,
                      "heartbeat_age_s": round(age, 3),
                      "heartbeat_budget_s": budget,
                      "degraded": self.core.degraded}
            return not (stale or degraded), detail

    def heartbeat_age(self) -> float:
        return time.monotonic() - self._heartbeat

    def _set_watchdog_gauges(self, age: float, stale: bool,
                             degraded: bool) -> None:
        if self.live is None:
            return
        self.live.gauge("serve_heartbeat_age_seconds",
                        "Service-loop watchdog heartbeat age").set(age)
        self.live.gauge("serve_stale",
                        "1 while the heartbeat outran its budget "
                        "(slow tick)").set(1.0 if stale else 0.0)
        self.live.gauge("serve_degraded",
                        "1 while the core is in degraded mode"
                        ).set(1.0 if degraded else 0.0)

    # ------------------------------------------------------------------
    # Live telemetry surfaces (``None`` when telemetry is off)
    # ------------------------------------------------------------------
    def prometheus(self) -> Optional[str]:
        """The live registry as Prometheus text exposition."""
        if self.live is None:
            return None
        with self._lock:
            assert self.core is not None
            age = self.heartbeat_age()
            budget = max(5.0, self.poll_interval * _HEARTBEAT_SLACK)
            self._set_watchdog_gauges(
                age, age > budget, self.core.degraded is not None)
        return self.live.render_prometheus()

    def live_json(self) -> Optional[Dict[str, Any]]:
        """The live registry as one JSON document (dashboard polling)."""
        if self.live is None:
            return None
        return self.live.render_json()

    def dashboard_html(self) -> Optional[str]:
        """The self-contained ``/dashboard`` page."""
        if self.live is None:
            return None
        title = f"repro serve · {self.state_dir}"
        return render_dashboard(self.live, title=title)

    def __enter__(self) -> "ServeDaemon":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
