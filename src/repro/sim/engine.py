"""Discrete-event GPU-cluster simulator.

The engine replays a job trace against a :class:`~repro.cluster.Cluster`
under the control of a scheduler object.  Its core mechanism is
*progress integration*: a job's remaining work is measured in
exclusive-execution seconds, and whenever anything changes the job's speed
(a packing mate arrives or leaves, a preemption, a resume), the engine
integrates progress up to "now" and re-derives the completion event.  This
one mechanism makes GPU sharing, preemption and bounded profiling runs
composable.

Scheduler contract (duck-typed; see :class:`repro.schedulers.base.Scheduler`):

* ``attach(engine)`` — called once before the run.
* ``on_job_submit(job, now)`` / ``on_job_finish(job, now)`` /
  ``on_time_limit(job, now)`` — event notifications.
* ``schedule(now)`` — invoked after each batch of simultaneous events; the
  scheduler issues :meth:`Simulator.start_job` / :meth:`Simulator.stop_job`
  calls here.
* ``tick_interval`` — optional float; when set, the engine additionally
  wakes the scheduler periodically (used by round-based Tiresias and by
  Lucid's dynamic strategy / update engine).
* ``reset_memos()`` — under ``sanitize=True`` only: forget pass memos.

The paper validates its simulator against a 32-GPU physical testbed with
<4.6% error (Table 3); this engine is the analogue of that simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU
from repro.obs.logutil import get_logger
from repro.obs.prof import SimProfiler
from repro.obs.series import SeriesCollector
from repro.obs.tracer import NULL_TRACER, RingBufferTracer, Telemetry, Tracer
from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import FaultStats, SimulationResult, UtilizationTracker
from repro.workloads.colocation import InterferenceModel
from repro.workloads.job import Job, JobRecord, JobStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.faults
    # imports repro.sim submodules; the runtime import happens lazily in
    # :meth:`Simulator._arm_faults`)
    from repro.faults.injector import FaultInjector
    from repro.faults.runtime import FaultRuntime
    from repro.faults.spec import FaultSpec

_EPS = 1e-6

logger = get_logger("sim.engine")


class SimulationError(RuntimeError):
    """A simulation invariant was violated (stale event, deadlock, ...)."""


@dataclass
class RunState:
    """Engine-side runtime state of one executing job."""

    gpus: List[GPU]
    speed: float
    last_update: float
    epoch: int = 0
    overhead_left: float = 0.0
    time_limit_at: Optional[float] = None
    is_profiling: bool = False


class Simulator:
    """Event-driven cluster simulator.

    Parameters
    ----------
    cluster:
        The cluster to schedule onto.
    jobs:
        The trace, in any order (submission events are derived from
        ``submit_time``).
    scheduler:
        Scheduler driving allocation decisions.
    interference:
        Ground-truth colocation slowdown model.
    max_events:
        Safety valve against runaway simulations (counted per dispatched
        event, including events drained inside a simultaneous batch).
    tracer:
        Structured-event tracer (see :mod:`repro.obs.tracer`).  Defaults
        to the disabled :data:`~repro.obs.tracer.NULL_TRACER`; every
        emission site is guarded by ``tracer.enabled`` so a run without
        tracing is bit-identical to (and as fast as) an untraced one.
        Pass ``tracer=LineageCollector()`` (:mod:`repro.obs.lineage`)
        to build the causal event DAG behind ``repro why``.
    sanitize:
        Enable the :class:`~repro.checks.sanitizer.SimSanitizer`: state
        invariants (allocation conservation, monotone clock, legal job
        transitions, queue consistency, fault-flag coherence) are
        asserted after every event dispatch and scheduling pass, and a
        reference copy without pass memos must make the same decisions.
        A sanitized run takes the unsanitized path and is bit-identical
        to it; the sanitizer is absent when disabled (zero overhead).
    profile:
        Self-profiling (:class:`~repro.obs.prof.SimProfiler`): pass
        ``True`` (a profiler is created) or a profiler instance to
        measure wall time per event kind and scheduler pass, hot-path
        invocation counts, events/sec and peak RSS.  The profiler obeys
        the same ``None``-when-off zero-overhead contract as the tracer
        and sanitizer; a profiled run is bit-identical to a plain one.
    series:
        Cluster time-series sampling
        (:class:`~repro.obs.series.SeriesCollector`): samples GPU
        allocation / sharing, per-VC queue depth, fragmentation and job
        counts on a fixed simulated-time grid.  Read-only; bit-identical
        results; ``None`` when off.
    """

    def __init__(self, cluster: Cluster, jobs: Sequence[Job], scheduler,
                 interference: Optional[InterferenceModel] = None,
                 max_events: int = 20_000_000,
                 model_cpu: bool = False,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[Union["FaultSpec", "FaultInjector"]] = None,
                 sanitize: bool = False,
                 profile: Union[bool, SimProfiler, None] = None,
                 series: Optional[SeriesCollector] = None) -> None:
        self.cluster = cluster
        self.jobs: Dict[int, Job] = {j.job_id: j for j in jobs}
        if len(self.jobs) != len(jobs):
            raise ValueError("duplicate job ids in trace")
        self.scheduler = scheduler
        self.interference = interference or InterferenceModel()
        self.max_events = max_events
        #: When enabled, node CPUs are shared proportionally among resident
        #: jobs and CPU-starved jobs slow down (Synergy-style affiliated
        #: resources, the paper's SS6).  Off by default: the paper's
        #: evaluation treats GPUs as the dominant resource.
        self.model_cpu = model_cpu

        #: Observability: disabled by default (zero overhead contract —
        #: hot paths check the cached ``_tracing`` flag before building
        #: any event payload).
        self.attach_tracer(tracer)

        #: Fault model (:class:`~repro.faults.spec.FaultSpec` or a prebuilt
        #: injector).  ``None`` — and a spec with no rates/script — leaves
        #: the run bit-identical to a fault-free simulation.
        self.faults = faults
        self.fault_runtime: Optional["FaultRuntime"] = None

        self._node_index = {node.node_id: node for node in cluster.nodes}
        self.now = 0.0
        self.events = EventQueue()
        self.run_states: Dict[int, RunState] = {}
        self.records: List[JobRecord] = []
        self.utilization = UtilizationTracker(cluster)
        self._unfinished = len(self.jobs)
        self._events_processed = 0
        self._tick_scheduled = False

        #: State sanitizer (:mod:`repro.checks`); ``None`` when disabled
        #: so the run loop pays a single identity check per hook site.
        self.sanitizer = None
        if sanitize:
            from repro.checks.sanitizer import SimSanitizer
            self.sanitizer = SimSanitizer(self)

        #: Self-profiler (:mod:`repro.obs.prof`); ``None`` when disabled
        #: so every hook site costs one identity check.
        self.profiler: Optional[SimProfiler] = None
        if profile:
            self.profiler = (profile if isinstance(profile, SimProfiler)
                             else SimProfiler())
        #: Time-series collector (:mod:`repro.obs.series`); ``None`` when
        #: disabled.
        self.series = series
        if self.series is not None:
            self.series.attach(self)

    def __getstate__(self):  # observers never belong in a snapshot
        state = self.__dict__.copy()
        for name in ("tracer", "_tracing", "sanitizer", "profiler", "series"):
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, sanitizer=None, profiler=None,
                             series=None)
        self.attach_tracer(None)

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Route engine events to ``tracer`` (``None``: the disabled
        :data:`~repro.obs.tracer.NULL_TRACER`).

        The one place that sets the tracer and the cached ``_tracing``
        flag together.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled

    # ------------------------------------------------------------------
    # Public API for schedulers
    # ------------------------------------------------------------------
    def running_jobs(self) -> List[Job]:
        """Jobs currently executing (including profiling runs)."""
        return [self.jobs[jid] for jid in self.run_states]

    def gpus_of(self, job: Job) -> List[GPU]:
        """GPUs a running job occupies."""
        return list(self.run_states[job.job_id].gpus)

    def mate_ids(self, job: Job) -> Tuple[int, ...]:
        """Ids of the jobs sharing a GPU with ``job``, ascending.

        The one mate query: an empty result means "no mates".  It reads
        ``n_residents`` per GPU and only looks at residents on shared
        devices, so a job without mates costs no allocation (the shared
        empty tuple) and a packed pair one 1-tuple.
        """
        state = self.run_states.get(job.job_id)
        if state is None:
            return ()
        job_id = job.job_id
        mates: Tuple[int, ...] = ()
        for gpu in state.gpus:
            if gpu.n_residents > 1:
                for rid in gpu._residents:
                    if rid != job_id and rid not in mates:
                        mates += (rid,)
        if len(mates) > 1:  # k-way sharing: only under other packers
            mates = tuple(sorted(mates))  # repro: noqa RPR121 — rare k-way branch; id order is the API contract
        return mates

    def start_job(self, job: Job, gpus: Sequence[GPU],
                  time_limit: Optional[float] = None,
                  overhead: float = 0.0,
                  profiling: bool = False) -> None:
        """Begin (or resume) executing ``job`` on ``gpus``.

        Parameters
        ----------
        time_limit:
            Wall-clock bound for this run; on expiry the engine fires the
            scheduler's ``on_time_limit`` callback (profiling eviction).
        overhead:
            Cold-start / checkpoint-restore seconds during which the job
            occupies its GPUs without making progress (Tiresias resume).
        profiling:
            Marks the run as a profiling-stage run.
        """
        if job.job_id in self.run_states:
            raise RuntimeError(f"job {job.job_id} is already running")
        if job.status == JobStatus.FINISHED:
            raise RuntimeError(f"job {job.job_id} already finished")
        gpus = list(gpus)
        if len(gpus) != job.gpu_num:
            raise RuntimeError(
                f"job {job.job_id} needs {job.gpu_num} GPUs, got {len(gpus)}")
        for gpu in gpus:
            gpu.attach(job.job_id, job.profile.gpu_mem_mb)
        state = RunState(gpus=gpus, speed=1.0, last_update=self.now,
                         overhead_left=max(0.0, overhead),
                         is_profiling=profiling)
        self.run_states[job.job_id] = state
        job.status = JobStatus.PROFILING if profiling else JobStatus.RUNNING
        if job.first_start_time is None:
            job.first_start_time = self.now
        if time_limit is not None:
            state.time_limit_at = self.now + time_limit
            self.events.push(state.time_limit_at, EventKind.TIME_LIMIT,
                             job.job_id, state.epoch)
        # A new resident slows any mates down; refresh the whole GPU set.
        self._refresh_speeds_around(gpus)
        self.utilization.update(self.now)
        if self._tracing:
            self.tracer.emit(
                self.now, "start", job.job_id,
                name=job.name, gpus=[g.gpu_id for g in gpus],
                nodes=[g.node_id for g in gpus], speed=state.speed,
                mates=list(self.mate_ids(job)), profiling=profiling,
                overhead=state.overhead_left,
                progress=job.progress,
                time_limit=time_limit)

    def stop_job(self, job: Job, preempted: bool = False) -> None:
        """Remove a running job from its GPUs without finishing it."""
        state = self._require_state(job)
        self._integrate(job, state)
        gpus = state.gpus
        for gpu in gpus:
            gpu.detach(job.job_id)
        del self.run_states[job.job_id]
        if preempted:
            job.status = JobStatus.PREEMPTED
            job.preemptions += 1
        else:
            job.status = JobStatus.PENDING
        self._refresh_speeds_around(gpus)
        self.utilization.update(self.now)
        if self._tracing:
            self.tracer.emit(
                self.now, "preempt" if preempted else "stop", job.job_id,
                gpus=[g.gpu_id for g in gpus],
                nodes=[g.node_id for g in gpus],
                progress=job.progress, profiling=state.is_profiling)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Replay the trace to completion and return aggregated results.

        Equivalent to ``begin()`` + ``step_batch()`` until exhausted +
        ``finalize()``; the stepwise API exists so a long-running service
        (:mod:`repro.serve`) can interleave runtime job admission with
        bounded simulation progress.  Both paths execute the identical
        operation sequence, so batch results stay bit-stable.
        """
        self.begin()
        while self.step_batch():
            pass
        return self.finalize()

    def begin(self) -> None:
        """Attach the scheduler, arm faults and enqueue trace submissions.

        Must be called exactly once before :meth:`step_batch`.  Jobs
        passed to the constructor get their ``SUBMIT`` events here;
        further jobs may join later via :meth:`add_job`.
        """
        logger.info("run start: %d jobs on %d GPUs under %s",
                    len(self.jobs), self.cluster.n_gpus,
                    getattr(self.scheduler, "name", type(self.scheduler)))
        self.scheduler.attach(self)
        self._arm_faults()
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            self.events.push(job.submit_time, EventKind.SUBMIT, job.job_id)
        self._maybe_schedule_tick()
        if self.profiler is not None:
            self.profiler.start_run()
        if self.sanitizer is not None:
            self.sanitizer.begin()

    def add_job(self, job: Job) -> None:
        """Admit one job after :meth:`begin` (serve-mode runtime admission).

        The submission event fires at ``max(now, job.submit_time)`` —
        simulated time never runs backwards — and the periodic scheduler
        tick is re-armed in case the simulator had gone idle.
        """
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id}")
        self.jobs[job.job_id] = job
        self._unfinished += 1
        self.events.push(max(self.now, job.submit_time), EventKind.SUBMIT,
                         job.job_id)
        self._maybe_schedule_tick()
        if self.sanitizer is not None:
            self.sanitizer.after_admit(job)

    def step_batch(self) -> bool:
        """Advance by one step of the run loop; ``False`` when quiescent.

        One call either (a) dispatches the next timestamp batch of
        events plus the following scheduler pass, or (b) — when the
        event queue is empty but jobs remain — gives the scheduler one
        last chance to make progress, raising :class:`SimulationError`
        if it cannot (deadlock).  Returns ``False`` once every admitted
        job has finished.
        """
        if self._unfinished <= 0:
            return False
        sanitizer = self.sanitizer
        profiler = self.profiler
        series = self.series
        if not self.events:
            # Give the scheduler one last chance (e.g. sharing decisions).
            self._invoke_scheduler()
            if self._unfinished > 0 and not self.events:
                stuck = [job_id for job_id, j in sorted(self.jobs.items())
                         if j.status not in (JobStatus.FINISHED,
                                             JobStatus.FAILED)]
                logger.error("deadlock at t=%.0fs: %d unfinished jobs",
                             self.now, len(stuck))
                raise SimulationError(
                    f"simulation deadlocked at t={self.now:.0f}s with "
                    f"{len(stuck)} unfinished jobs (first: {stuck[:5]})")
            if sanitizer is not None:
                sanitizer.after_batch()
            return True
        event = self.events.pop()
        if series is not None:
            # Grid points strictly before this batch sample the state
            # the previous batch left behind (piecewise-constant).
            series.advance_to(max(self.now, event.time))
        self.now = max(self.now, event.time)
        self._dispatch_profiled(event, profiler)
        if sanitizer is not None:
            sanitizer.after_dispatch(event)
        # Drain all simultaneous events before invoking the scheduler.
        while self.events and self.events.peek_time() <= self.now + _EPS:
            event = self.events.pop()
            self._dispatch_profiled(event, profiler)
            if sanitizer is not None:
                sanitizer.after_dispatch(event)
        self._invoke_scheduler()
        if series is not None:
            # A grid point landing exactly on this batch's timestamp
            # samples once, after the whole batch and scheduler pass.
            series.sample_if_due(self.now)
        self._maybe_schedule_tick()
        if sanitizer is not None:
            sanitizer.after_batch()
        if self._events_processed > self.max_events:
            raise RuntimeError("max_events exceeded; likely a livelock")
        return True

    def finalize(self) -> SimulationResult:
        """Close out the run and build the :class:`SimulationResult`."""
        self.utilization.update(self.now)
        if self.series is not None:
            self.series.finalize(self.now)
        if self.profiler is not None:
            self.profiler.finish_run(self._events_processed, self.now)
        logger.info("run done: makespan %.0fs, %d events dispatched",
                    self.now, self._events_processed)
        fault_stats: Optional[FaultStats] = None
        if self.fault_runtime is not None:
            fault_stats = self.fault_runtime.stats()
        return SimulationResult(records=list(self.records),
                                makespan=self.now,
                                utilization=self.utilization.summary(),
                                telemetry=self._build_telemetry(),
                                faults=fault_stats)

    def _arm_faults(self) -> None:
        """Build the fault runtime and pre-generate the fault timeline.

        Runs after ``scheduler.attach`` so profiler-cluster faults can
        address Lucid's profiling nodes.  A disabled spec arms nothing:
        the run stays bit-identical to a fault-free one.
        """
        if self.faults is None:
            return
        from repro.faults.injector import FaultInjector
        from repro.faults.runtime import FaultRuntime
        injector = (self.faults if isinstance(self.faults, FaultInjector)
                    else FaultInjector(self.faults))
        if not injector.spec.enabled:
            return
        self.fault_runtime = FaultRuntime(self, injector)
        scheduled = injector.schedule_into(self)
        logger.info("fault injection armed: %d events from seed %d",
                    scheduled, injector.spec.seed)

    def _dispatch_profiled(self, event, profiler: Optional[SimProfiler]
                           ) -> None:
        """Dispatch one event, billing its wall time when profiling."""
        if profiler is None:
            self._dispatch(event)
            return
        profiler.enter()
        self._dispatch(event)
        profiler.exit_event(event.kind.value)

    def _invoke_scheduler(self) -> None:
        """Run one scheduling pass, billing its wall time when profiling."""
        profiler = self.profiler
        if profiler is None:
            self.scheduler.schedule(self.now)
            return
        profiler.enter()
        self.scheduler.schedule(self.now)
        profiler.exit_pass()

    def _build_telemetry(self) -> Optional[Telemetry]:
        if not self._tracing:
            return None
        tracer = self.tracer
        return Telemetry(events=(tracer.events
                                 if isinstance(tracer, RingBufferTracer)
                                 else []),
                         audit=getattr(self.scheduler, "audit", None),
                         dropped_events=getattr(tracer, "n_dropped", 0))

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event) -> None:
        # The livelock safety valve counts every dispatched event, not
        # event batches: simultaneous events drained by the inner loop in
        # :meth:`run` must not fly under the ``max_events`` radar.
        self._events_processed += 1
        if event.kind is EventKind.SUBMIT:
            job = self.jobs[event.job_id]
            job.status = JobStatus.PENDING
            if self._tracing:
                self.tracer.emit(self.now, "submit", job.job_id,
                                 gpu_num=job.gpu_num, vc=job.vc)
            self.scheduler.on_job_submit(job, self.now)
        elif event.kind is EventKind.FINISH:
            self._handle_finish(event)
        elif event.kind is EventKind.TIME_LIMIT:
            self._handle_time_limit(event)
        elif event.kind is EventKind.TICK:
            self._tick_scheduled = False
        elif self.fault_runtime is not None:
            self.fault_runtime.dispatch(event, self.now)

    def _handle_finish(self, event) -> None:
        state = self.run_states.get(event.job_id)
        if state is None or state.epoch != event.epoch:
            return  # stale event from a superseded speed epoch
        job = self.jobs[event.job_id]
        self._integrate(job, state)
        if job.remaining > _EPS:
            # Numerical drift; re-derive the completion event.
            self._reschedule_finish(job, state)
            return
        gpus = state.gpus
        for gpu in gpus:
            gpu.detach(job.job_id)
        del self.run_states[job.job_id]
        job.status = JobStatus.FINISHED
        job.finish_time = self.now
        job.progress = job.duration
        if state.is_profiling:
            job.finished_in_profiler = True
        self.records.append(JobRecord.from_job(job))
        self._unfinished -= 1
        self._refresh_speeds_around(gpus)
        self.utilization.update(self.now)
        if self._tracing:
            self.tracer.emit(self.now, "finish", job.job_id,
                             gpus=[g.gpu_id for g in gpus],
                             nodes=[g.node_id for g in gpus],
                             jct=job.jct, queue_delay=job.queue_delay,
                             progress=job.progress,
                             profiling=state.is_profiling)
        self.scheduler.on_job_finish(job, self.now)

    def _handle_time_limit(self, event) -> None:
        state = self.run_states.get(event.job_id)
        if state is None or state.epoch != event.epoch:
            return
        if state.time_limit_at is None or state.time_limit_at > self.now + _EPS:
            return
        job = self.jobs[event.job_id]
        self._integrate(job, state)
        state.time_limit_at = None
        if self._tracing:
            self.tracer.emit(self.now, "time_limit", job.job_id,
                             progress=job.progress,
                             profiling=state.is_profiling)
        self.scheduler.on_time_limit(job, self.now)

    # ------------------------------------------------------------------
    # Progress integration & speed management
    # ------------------------------------------------------------------
    def _require_state(self, job: Job) -> RunState:
        state = self.run_states.get(job.job_id)
        if state is None:
            raise SimulationError(
                f"job {job.job_id} ({job.name!r}, status "
                f"{job.status.value}) is not running at t={self.now:.0f}s")
        return state

    def _integrate(self, job: Job, state: RunState) -> None:
        """Advance job progress from ``state.last_update`` to now."""
        dt = self.now - state.last_update
        if dt <= 0:
            state.last_update = self.now
            return
        overhead = min(dt, state.overhead_left)
        state.overhead_left -= overhead
        productive = dt - overhead
        job.progress = min(job.duration, job.progress + productive * state.speed)
        job.service_time += productive
        state.last_update = self.now

    #: Speed multiplier for allocations spanning more nodes than the
    #: consolidated minimum (cross-node gradient synchronization cost).
    FRAGMENTATION_PENALTY = 0.85

    def _current_speed(self, job: Job, state: RunState) -> float:
        # The two common cases (running alone / one colocation mate —
        # the binder never packs more than two per GPU set) take the
        # allocation-free path; k-way sharing only arises under other
        # schedulers' packings.
        ids = self.mate_ids(job)
        if not ids:
            speed = 1.0
        elif len(ids) == 1:
            mate = self.jobs[ids[0]]
            speed = self.interference.pair_speeds(
                job.profile, mate.profile,
                pair_key=(job.name, mate.name)).first
        else:
            # Id-sorted so the k-way float reduction is order-stable.
            profiles = [job.profile] + [self.jobs[mid].profile
                                        for mid in ids]
            speed = self.interference.k_way_speed(profiles)
        # Fragmented multi-node placement pays a communication penalty.
        gpus_per_node = self.cluster.gpus_per_node
        min_nodes = -(-job.gpu_num // gpus_per_node)  # ceil division
        spanned = len({gpu.node_id for gpu in state.gpus})
        if spanned > min_nodes:
            speed *= self.FRAGMENTATION_PENALTY
        # Heterogeneous generations and straggler windows: the slowest
        # device gates the job (fault_slow is exactly 1.0 outside fault
        # runs, so the product is IEEE-identical to speed_factor alone).
        speed *= min(gpu.speed_factor * gpu.fault_slow for gpu in state.gpus)
        if self.model_cpu:
            speed *= self._cpu_factor(job, state)
        return speed

    def _cpu_factor(self, job: Job, state: RunState) -> float:
        """Proportional-share CPU squeeze on the job's nodes.

        Each node's CPUs are split among resident jobs in proportion to
        their demands; a job starved to a ``share`` of its demand slows to
        ``share ** cpu_sensitivity`` (data-loading-bound jobs suffer,
        compute-bound ones barely notice).
        """
        worst = 1.0
        for node_id in sorted({gpu.node_id for gpu in state.gpus}):  # repro: noqa RPR121 — pins float accumulation order
            node_obj = self._node_index.get(node_id)
            if node_obj is None:
                continue  # profiler-cluster nodes are not CPU-modelled
            # Demand on this node: every resident job's cpu_per_gpu times
            # its GPUs here.  Sorted iteration keeps the float accumulation
            # order (and hence the result bits) independent of set hashing.
            demand_here = 0.0
            job_demand = 0.0
            residents = set()
            for gpu in node_obj.gpus:
                residents.update(gpu.residents)
            for rid in sorted(residents):  # repro: noqa RPR121 — pins float accumulation order
                resident = self.jobs[rid]
                r_state = self.run_states.get(rid)
                if r_state is None:
                    continue
                gpus_here = sum(1 for g in r_state.gpus
                                if g.node_id == node_id)
                need = resident.cpu_per_gpu * gpus_here
                demand_here += need
                if rid == job.job_id:
                    job_demand = need
            if demand_here <= node_obj.cpus or job_demand <= 0:
                continue
            share = node_obj.cpus / demand_here  # fair proportional squeeze
            worst = min(worst, share ** job.cpu_sensitivity)
        return worst

    def _refresh_speeds_around(self, gpus: Sequence[GPU]) -> None:
        """Recompute speeds of every job resident on the given GPUs.

        With the CPU model enabled, occupancy changes shift every
        co-located job's CPU share, so the refresh widens to whole nodes.
        """
        if self.profiler is not None:
            self.profiler.count("speed_refreshes")
        affected = set()
        if self.model_cpu:
            for node_id in sorted({gpu.node_id for gpu in gpus}):  # repro: noqa RPR121 — RPR003 wants ordered set iteration here
                node = self._node_index.get(node_id)
                if node is None:
                    continue
                for node_gpu in node.gpus:
                    affected.update(node_gpu.residents)
        for gpu in gpus:
            affected.update(gpu.residents)
        # Sorted so simultaneous FINISH events are (re)armed in job-id
        # order — their heap tie-break sequence numbers, and therefore the
        # dispatch order, must not depend on set iteration order.
        for jid in sorted(affected):  # repro: noqa RPR121 — FINISH re-arm order must be id-deterministic
            state = self.run_states.get(jid)
            if state is None:
                continue
            job = self.jobs[jid]
            self._integrate(job, state)
            # Always re-derive the completion event: a freshly started job
            # has none yet, and epoch bumping invalidates stale ones cheaply.
            old_speed = state.speed
            state.speed = self._current_speed(job, state)
            if self._tracing and state.speed != old_speed:
                self.tracer.emit(self.now, "speed", jid, speed=state.speed)
            self._reschedule_finish(job, state)

    def _reschedule_finish(self, job: Job, state: RunState) -> None:
        state.epoch += 1
        eta = self.now + state.overhead_left + job.remaining / max(state.speed, 1e-9)
        self.events.push(eta, EventKind.FINISH, job.job_id, state.epoch)
        if state.time_limit_at is not None:
            # Re-arm the limit under the new epoch so it stays valid.
            self.events.push(state.time_limit_at, EventKind.TIME_LIMIT,
                             job.job_id, state.epoch)

    def _maybe_schedule_tick(self) -> None:
        interval = getattr(self.scheduler, "tick_interval", None)
        if interval is None or self._tick_scheduled or self._unfinished == 0:
            return
        self.events.push(self.now + interval, EventKind.TICK)
        self._tick_scheduled = True
