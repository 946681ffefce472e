"""Engine-side fault handling: kills, retries and recovery.

The :class:`FaultRuntime` owns every mutation a fault event performs on
the simulation — the engine's dispatch loop delegates the fault event
kinds here.  Responsibilities:

* **Node failures** — mark the node and its GPUs unhealthy (placement
  helpers skip them from that instant) and kill every resident job,
  including packed mates and multi-node jobs spanning the dead node.
* **Job crashes** — kill a single victim: the scripted job id, or a
  seeded-random choice among running jobs.
* **Retry/backoff** — killed jobs roll back to their last checkpoint,
  wait out an exponential backoff (``RETRY`` event), then re-enter their
  scheduler's queue via ``on_job_failed``; once the retry budget is
  exhausted the job fails permanently (terminal ``FAILED`` record).
* **Stragglers** — a slowdown window multiplies the node's GPU speeds by
  ``fault_slow`` < 1 until the paired ``SLOWDOWN_END`` fires.
* **Accounting** — restarts, lost GPU-hours, MTTR and goodput, reported
  as :class:`~repro.sim.metrics.FaultStats` on the simulation result.

The runtime only exists when a fault spec is active, so a fault-free run
executes the exact instruction stream of the seed engine.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.faults.injector import FaultInjector
from repro.obs.logutil import get_logger
from repro.sim.events import EventKind
from repro.sim.metrics import FaultStats
from repro.workloads.job import Job, JobRecord, JobStatus

__all__ = ["FaultRuntime"]

logger = get_logger("faults.runtime")


class FaultRuntime:
    """Applies fault events to a running :class:`~repro.sim.engine.Simulator`."""

    def __init__(self, engine, injector: FaultInjector) -> None:
        self._engine = engine
        self._injector = injector
        self.policy = injector.retry
        # Counters backing FaultStats.
        self.node_failures = 0
        self.node_recoveries = 0
        self.slowdowns = 0
        self.job_crashes = 0
        self.restarts = 0
        self.jobs_failed = 0
        self.lost_gpu_seconds = 0.0
        self.repair_seconds = 0.0
        self._down_since: Dict[Tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, event, now: float) -> None:
        kind = event.kind
        if kind is EventKind.NODE_FAIL:
            self._handle_node_fail(event, now)
        elif kind is EventKind.NODE_RECOVER:
            self._handle_node_recover(event, now)
        elif kind is EventKind.JOB_CRASH:
            self._handle_job_crash(event, now)
        elif kind is EventKind.SLOWDOWN:
            self._handle_slowdown(event, now)
        elif kind is EventKind.SLOWDOWN_END:
            self._handle_slowdown_end(event, now)
        elif kind is EventKind.RETRY:
            self._handle_retry(event, now)

    def _resolve_node(self, target: str, index: int):
        """The addressed node, or ``None`` when the target does not exist
        (profiler faults against baseline schedulers, out-of-range script
        indices)."""
        if target == "profiler":
            profiler = getattr(self._engine.scheduler, "profiler", None)
            cluster = getattr(profiler, "cluster", None)
        else:
            cluster = self._engine.cluster
        if cluster is None or not 0 <= index < len(cluster.nodes):
            return None
        return cluster.nodes[index]

    # ------------------------------------------------------------------
    # Node failure / recovery
    # ------------------------------------------------------------------
    def _handle_node_fail(self, event, now: float) -> None:
        target, index = event.payload
        node = self._resolve_node(target, index)
        if node is None or not node.healthy:
            return  # unknown target or already down (overlapping windows)
        node.set_health(False)
        self.node_failures += 1
        self._down_since[(target, index)] = now
        victims = set()
        for gpu in node.gpus:
            victims.update(gpu.residents)
        engine = self._engine
        if engine._tracing:
            engine.tracer.emit(now, "node_fail", None, target=target,
                               node=node.node_id, victims=sorted(victims))
        logger.debug("t=%.0fs node_fail %s[%d]: %d victims", now, target,
                     index, len(victims))
        for job_id in sorted(victims):
            self._kill(engine.jobs[job_id], now, cause="node_fail")

    def _handle_node_recover(self, event, now: float) -> None:
        target, index = event.payload
        node = self._resolve_node(target, index)
        if node is None or node.healthy:
            return
        node.set_health(True)
        self.node_recoveries += 1
        down = self._down_since.pop((target, index), None)
        if down is not None:
            self.repair_seconds += now - down
        engine = self._engine
        if engine._tracing:
            engine.tracer.emit(now, "node_recover", None, target=target,
                               node=node.node_id)

    # ------------------------------------------------------------------
    # Job crashes and retry
    # ------------------------------------------------------------------
    def _handle_job_crash(self, event, now: float) -> None:
        engine = self._engine
        if event.payload is not None:
            if event.payload not in engine.run_states:
                return  # scripted victim is not running; the crash fizzles
            victim = engine.jobs[event.payload]
        else:
            running = sorted(engine.run_states)
            if not running:
                return  # idle cluster: nothing to crash
            victim = engine.jobs[self._injector.pick_victim(running)]
        self._kill(victim, now, cause="crash")

    def _kill(self, job: Job, now: float, cause: str) -> None:
        """Remove a running job from its GPUs as a fault casualty."""
        engine = self._engine
        state = engine.run_states.pop(job.job_id)
        engine._integrate(job, state)
        gpus = state.gpus
        for gpu in gpus:
            gpu.detach(job.job_id)
        self.job_crashes += 1
        old_progress = job.progress
        if job.restarts >= self.policy.max_retries:
            # Retry budget exhausted: all surviving progress is wasted too.
            job.lost_work += old_progress
            self.lost_gpu_seconds += old_progress * job.gpu_num
            self._fail_permanently(job, now, cause, gpus=gpus,
                                   profiling=state.is_profiling)
        else:
            # Profiling runs restart from scratch (Lucid is non-intrusive:
            # no checkpoints in the profiler); main runs keep the last
            # checkpoint of the progress model.
            checkpoint = 0.0 if state.is_profiling else \
                self.policy.checkpointed_progress(old_progress)
            lost = old_progress - checkpoint
            job.progress = checkpoint
            job.lost_work += lost
            self.lost_gpu_seconds += lost * job.gpu_num
            job.restarts += 1
            self.restarts += 1
            job.status = JobStatus.CRASHED
            delay = self.policy.backoff(job.restarts)
            engine.events.push(now + delay, EventKind.RETRY, job.job_id)
            if engine._tracing:
                engine.tracer.emit(now, "crash", job.job_id, cause=cause,
                                   restarts=job.restarts, lost=lost,
                                   backoff=delay,
                                   gpus=[g.gpu_id for g in gpus],
                                   nodes=[g.node_id for g in gpus],
                                   progress=job.progress,
                                   profiling=state.is_profiling)
        engine._refresh_speeds_around(gpus)
        engine.utilization.update(now)

    def _fail_permanently(self, job: Job, now: float, cause: str,
                          gpus: Sequence = (),
                          profiling: bool = False) -> None:
        engine = self._engine
        job.status = JobStatus.FAILED
        job.finish_time = now
        engine.records.append(JobRecord.from_job(job))
        engine._unfinished -= 1
        self.jobs_failed += 1
        logger.debug("t=%.0fs job %d failed permanently after %d restarts",
                     now, job.job_id, job.restarts)
        if engine._tracing:
            engine.tracer.emit(now, "job_failed", job.job_id, cause=cause,
                               restarts=job.restarts,
                               gpus=[g.gpu_id for g in gpus],
                               nodes=[g.node_id for g in gpus],
                               progress=job.progress, profiling=profiling)
        self._notify_scheduler(job, now, permanent=True)

    def _handle_retry(self, event, now: float) -> None:
        job = self._engine.jobs[event.job_id]
        if job.status is not JobStatus.CRASHED:
            return
        job.status = JobStatus.PENDING
        if self._engine._tracing:
            self._engine.tracer.emit(now, "retry", job.job_id,
                                     restarts=job.restarts)
        self._notify_scheduler(job, now, permanent=False)

    def _notify_scheduler(self, job: Job, now: float, permanent: bool) -> None:
        scheduler = self._engine.scheduler
        handler = getattr(scheduler, "on_job_failed", None)
        if handler is not None:
            handler(job, now, permanent=permanent)
        elif not permanent:
            # Duck-typed scheduler without the callback: best-effort requeue.
            queue = getattr(scheduler, "queue", None)
            if queue is not None:
                queue.append(job)

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def _handle_slowdown(self, event, now: float) -> None:
        target, index, factor = event.payload
        node = self._resolve_node(target, index)
        if node is None:
            return
        node.set_slow(factor)
        self.slowdowns += 1
        engine = self._engine
        if engine._tracing:
            engine.tracer.emit(now, "slowdown", None, target=target,
                               node=node.node_id, factor=factor)
        engine._refresh_speeds_around(node.gpus)

    def _handle_slowdown_end(self, event, now: float) -> None:
        target, index = event.payload
        node = self._resolve_node(target, index)
        if node is None:
            return
        node.set_slow(1.0)
        engine = self._engine
        if engine._tracing:
            engine.tracer.emit(now, "slowdown_end", None, target=target,
                               node=node.node_id)
        engine._refresh_speeds_around(node.gpus)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> FaultStats:
        """Failure-aware accounting for the simulation result.

        Work is measured in exclusive-execution GPU-seconds (the engine's
        progress unit): ``goodput`` is the fraction of executed work that
        ended up in finished jobs — rollback losses and the progress of
        permanently failed jobs are the waste.

        MTTR averages *completed* repairs only.  Nodes still down when
        the simulation ends are censored: their truncated downtimes
        would drag the mean below the true repair time, so they are
        excluded from ``mttr`` and surfaced as ``censored_repairs``
        (count) and ``censored_repair_hours`` (downtime accumulated so
        far, a lower bound on the eventual repair).
        """
        useful = sum(r.duration * r.gpu_num
                     for r in self._engine.records if not r.failed)
        total = useful + self.lost_gpu_seconds
        goodput = useful / total if total > 0 else 1.0
        mttr = (self.repair_seconds / self.node_recoveries
                if self.node_recoveries else 0.0)
        now = self._engine.now
        censored_seconds = sum(now - down
                               for down in sorted(self._down_since.values()))
        return FaultStats(
            node_failures=self.node_failures,
            node_recoveries=self.node_recoveries,
            slowdowns=self.slowdowns,
            job_crashes=self.job_crashes,
            restarts=self.restarts,
            jobs_failed=self.jobs_failed,
            lost_gpu_hours=self.lost_gpu_seconds / 3600.0,
            goodput=goodput,
            mttr=mttr,
            censored_repairs=len(self._down_since),
            censored_repair_hours=censored_seconds / 3600.0,
        )
