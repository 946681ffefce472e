"""The Lucid scheduler: composition of all modules (Figure 4).

Workflow (black arrows of Figure 4): submitted jobs first pass the
Non-intrusive Job Profiler (1), which filters debugging jobs and records
resource-usage metrics classified into sharing scores by the Packing
Analyze Model (2).  The Affine-Jobpair Binder decides packing under the
throughput-forecast-driven Dynamic Strategy (3), and the Resource
Orchestrator allocates by estimated-duration x GPU priority (4).  The
System Optimizer (Update Engine + System Tuner) maintains the models.

Every inter-module dependency of §3.1 is wired: the Orchestrator consumes
profiled features through the Workload Estimate Model (A), the Throughput
Predict Model drives both the Binder's mode and the Profiler's scaling
(B), and the Binder consumes duration estimates for time-aware packing
(C).  Ablation switches in :class:`LucidConfig` disable each dependency
for the Figure-11 micro-benchmarks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.binder import AffineJobpairBinder, PackingMode
from repro.core.estimator import WorkloadEstimateModel
from repro.core.orchestrator import ResourceOrchestrator
from repro.core.packing_model import PackingAnalyzeModel
from repro.core.profiler import NonIntrusiveProfiler
from repro.core.throughput import ThroughputPredictModel
from repro.core.update_engine import UpdateEngine
from repro.models.encoding import SECONDS_PER_HOUR, hourly_series
from repro.obs.audit import PlacementDecision
from repro.obs.logutil import get_logger
from repro.schedulers.base import Scheduler
from repro.workloads.colocation import InterferenceModel
from repro.workloads.job import Job, JobRecord, JobStatus

#: Fallback duration estimate when the estimator is ablated away.
RUNTIME_AGNOSTIC_ESTIMATE = 3600.0

#: Seconds from an hour boundary within which the forecast memo keys on
#: ``now`` itself: the rounding of the hourly layout and of the forecast
#: row's calendar stays below 2**-21 s while ``|now| < 2**30`` s.
_HOUR_EDGE = 1e-6

logger = get_logger("core.lucid")


@dataclass(frozen=True)
class LucidConfig:
    """All operator-tunable knobs of Lucid.

    The defaults mirror the paper: ``T_prof`` 200 s (Table 6), ``N_prof``
    8 GPUs, GSS capacity 2, binder thresholds (0.85, 0.95), and a periodic
    model update.  The ``enable_*`` / ``packing_policy`` switches exist for
    the ablation studies of §4.5.
    """

    t_prof: float = 200.0
    n_prof: int = 8
    profiler_nodes: int = 2
    profiler_borrow_nodes: int = 2
    gss_capacity: int = 2
    tiny_threshold: float = 0.95
    medium_threshold: float = 0.85
    enable_profiler: bool = True
    space_aware_profiling: bool = True
    enable_estimator: bool = True
    use_profile_features: bool = True
    packing_policy: str = "indolent"  # "indolent" | "naive" | "off"
    dynamic_strategy: bool = True
    time_aware_scaling: bool = True
    update_interval: Optional[float] = 2 * 86_400.0
    control_interval: float = 300.0
    starvation_threshold: float = 8 * 3600.0
    instability_rate: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.packing_policy not in ("indolent", "naive", "off"):
            raise ValueError("packing_policy must be indolent|naive|off")
        if self.t_prof <= 0 or self.n_prof < 1:
            raise ValueError("invalid profiler limits")

    def ablated(self, **changes) -> "LucidConfig":
        """Convenience for micro-benchmarks: a modified copy."""
        return replace(self, **changes)


class LucidScheduler(Scheduler):
    """Non-intrusive, scalable and interpretable DL-cluster scheduler.

    Parameters
    ----------
    history:
        Historical (completed) jobs used to train the Workload Estimate
        and Throughput Predict models — the April-August data of §4.1.
    config:
        Knobs; see :class:`LucidConfig`.
    interference:
        The offline colocation characterization apparatus used to train
        the Packing Analyze Model.  Note this is *training* data collected
        on a profiling testbed (Table 1), not a peek at the simulator's
        ground truth at decision time.

    Whenever the engine's trace stream is enabled, every placement and
    refit is emitted as a ``decision`` / ``refit`` event, which a
    :class:`~repro.obs.audit.DecisionAudit` observer folds into
    explanations; untraced runs emit and build nothing.
    """

    name = "lucid"

    def __init__(self, history: Sequence[Job],
                 config: Optional[LucidConfig] = None,
                 interference: Optional[InterferenceModel] = None) -> None:
        super().__init__()
        if not history:
            raise ValueError("Lucid requires non-empty training history")
        self.config = config or LucidConfig()
        self.history = list(history)
        self._train_interference = interference or InterferenceModel()
        self.tick_interval = self.config.control_interval

        self._rng = np.random.default_rng(self.config.seed)
        self.profiler: Optional[NonIntrusiveProfiler] = None
        self.packing_model: Optional[PackingAnalyzeModel] = None
        self.estimator: Optional[WorkloadEstimateModel] = None
        self.throughput_model: Optional[ThroughputPredictModel] = None
        self.binder: Optional[AffineJobpairBinder] = None
        self.orchestrator = ResourceOrchestrator(
            starvation_threshold=self.config.starvation_threshold)
        self.update_engine: Optional[UpdateEngine] = None
        self._submit_times: List[float] = []
        self._main_start: Dict[int, float] = {}
        self._next_control = 0.0
        self._queue_peak = 0
        self.mode_history: List[PackingMode] = []
        self.reset_memos()

    def __getstate__(self):
        state = super().__getstate__()
        state.pop("_forecast_memo", None)
        state.pop("_profiler_seen", None)
        return state

    def reset_memos(self) -> None:
        #: ``(key, (current, forecast))`` of the last control pass's
        #: forecast; see :meth:`_forecast`.  Derived, so never pickled.
        self._forecast_memo: Optional[Tuple[Tuple, Tuple[float, float]]] = None
        #: :meth:`_profiler_token` after the last profiler stage.
        #: Derived, so never pickled: epochs restart at 0 on unpickling.
        self._profiler_seen: Optional[Tuple] = None
        self.orchestrator.reset_memos()

    # ------------------------------------------------------------------
    # Training / attachment
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        super().attach(engine)
        cfg = self.config
        if cfg.enable_profiler:
            self.profiler = NonIntrusiveProfiler(
                base_nodes=cfg.profiler_nodes,
                max_borrowed_nodes=cfg.profiler_borrow_nodes,
                t_prof=cfg.t_prof, n_prof=cfg.n_prof,
                space_aware=cfg.space_aware_profiling, rng=self._rng)
        if cfg.packing_policy != "off":
            with self.profile_span("lucid.fit.packing"):
                self.packing_model = PackingAnalyzeModel(
                    tiny_threshold=cfg.tiny_threshold,
                    medium_threshold=cfg.medium_threshold,
                ).fit(self._train_interference)
        if cfg.enable_estimator:
            with self.profile_span("lucid.fit.estimator"):
                self.estimator = WorkloadEstimateModel(
                    use_profile=cfg.use_profile_features,
                    random_state=cfg.seed).fit(self.history)
        with self.profile_span("lucid.fit.throughput"):
            self.throughput_model = ThroughputPredictModel(
                random_state=cfg.seed).fit_events(
                    [j.submit_time for j in self.history])
        self.binder = AffineJobpairBinder(gss_capacity=cfg.gss_capacity)
        self.update_engine = UpdateEngine(self.estimator,
                                          interval=cfg.update_interval)
        self._next_control = 0.0

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------
    def on_job_submit(self, job: Job, now: float) -> None:
        self._submit_times.append(now)
        if self.profiler is not None and self.profiler.wants(job):
            if not self.profiler.is_down:
                self.profiler.enqueue(job)
                self.trace_event("sched_submit", job, now,
                                 queue_depth=len(self.queue),
                                 routed="profiler")
                return
            # Graceful degradation: the profiling cluster is down, so the
            # job runs unprofiled — no sharing score means the binder
            # never packs it (conservative no-packing default).
            self._admit_to_main(job)
            self.trace_event("sched_submit", job, now,
                             queue_depth=len(self.queue),
                             routed="main_degraded")
            return
        # Large-scale jobs skip profiling; metrics are collected on the fly.
        job.measured_profile = job.profile.with_noise(self._rng)
        self._admit_to_main(job)
        self.trace_event("sched_submit", job, now,
                         queue_depth=len(self.queue), routed="main")

    def on_time_limit(self, job: Job, now: float) -> None:
        """Profiling window expired: evict, measure, hand to the main queue.

        Non-intrusive means no checkpoint: the evicted job restarts from
        scratch on the main cluster, losing at most ``T_prof`` of work.
        """
        job.measured_profile = self.profiler.measure(job)
        job.profiled = True
        self.engine.stop_job(job)
        job.progress = 0.0
        self._admit_to_main(job)

    def _admit_to_main(self, job: Job) -> None:
        if self.packing_model is not None and job.measured_profile is not None:
            job.sharing_score = self.packing_model.sharing_score(
                job.measured_profile)
        if self.estimator is not None:
            # safe_predict: a missing profile or degraded model yields the
            # conservative constant instead of crashing the schedule loop.
            self.profile_count("estimator_predictions")
            job.estimated_duration = self.estimator.safe_predict(
                job, default=RUNTIME_AGNOSTIC_ESTIMATE)
        self.queue.append(job)

    def on_job_finish(self, job: Job, now: float) -> None:
        super().on_job_finish(job, now)
        self._main_start.pop(job.job_id, None)
        if self.update_engine is not None:
            self.update_engine.collect(JobRecord.from_job(job), now)

    def on_job_failed(self, job: Job, now: float,
                      permanent: bool = False) -> None:
        """Fault-retry routing (see :mod:`repro.faults`).

        A job killed during profiling goes back through the profiler
        (when it is up); anything else re-enters the main queue.  With
        the profiling cluster down, jobs requeue unprofiled and fall
        back to no-packing defaults.
        """
        self._main_start.pop(job.job_id, None)
        if permanent:
            self.trace_event("sched_failed", job, now,
                             queue_depth=len(self.queue))
            return
        if (self.profiler is not None and self.profiler.wants(job)
                and not job.profiled and job.measured_profile is None
                and not self.profiler.is_down):
            self.profiler.enqueue(job)
            self.trace_event("sched_retry", job, now,
                             queue_depth=len(self.queue), routed="profiler")
            return
        self._admit_to_main(job)
        self.trace_event("sched_retry", job, now,
                         queue_depth=len(self.queue), routed="main")

    # ------------------------------------------------------------------
    # Estimation helpers
    # ------------------------------------------------------------------
    def _remaining_estimate(self, job: Job) -> float:
        """Non-intrusive remaining-runtime estimate (seconds).

        Uses only the duration estimate and observable wall time since the
        job started on the main cluster — never the ground-truth progress.
        """
        if job.estimated_duration is None:
            return RUNTIME_AGNOSTIC_ESTIMATE
        started = self._main_start.get(job.job_id)
        elapsed = 0.0 if started is None else max(0.0, self.engine.now - started)
        return max(30.0, job.estimated_duration - elapsed)

    def _priority(self, job: Job) -> float:
        if self.estimator is None:
            return job.submit_time  # runtime-agnostic ablation
        return job.gpu_num * self._remaining_estimate(job)

    # ------------------------------------------------------------------
    # Packing-mate selection per policy
    # ------------------------------------------------------------------
    def _find_mate(self, job: Job) -> Optional[Job]:
        policy = self.config.packing_policy
        if policy == "off":
            return None
        self.profile_count("binder_attempts")
        if policy == "indolent":
            return self.binder.find_mate(self.engine, job,
                                         self._remaining_estimate)
        return self._naive_mate(job)

    def _naive_mate(self, job: Job) -> Optional[Job]:
        """Naive bin-packing (the "w/o Binder" ablation): classic best-fit
        on GPU *memory* — pick the mate leaving the least free memory —
        with no interference or time awareness.  Memory-densest packing
        systematically pairs heavy jobs together, which is exactly the
        behaviour Indolent Packing exists to avoid."""
        from repro.cluster.placement import find_shared
        if job.gpu_num > self.engine.cluster.gpus_per_node:
            return None
        best = None
        best_free = None
        for mate in self.engine.running_jobs():
            if (mate.job_id == job.job_id
                    or mate.status is not JobStatus.RUNNING
                    or mate.vc != job.vc
                    or mate.gpu_num != job.gpu_num
                    or mate.gpu_num > self.engine.cluster.gpus_per_node
                    or self.engine.mate_ids(mate)):
                continue
            gpus = find_shared(self.engine.cluster, self.engine.gpus_of(mate),
                               job.profile.gpu_mem_mb)
            if gpus is None:
                continue
            free_after = min(g.memory_free_mb for g in gpus) \
                - job.profile.gpu_mem_mb
            if best_free is None or free_after < best_free:
                best_free = free_after
                best = mate
        return best

    def _begin_pass(self) -> None:
        if self.config.packing_policy == "indolent":
            self.binder.begin_pass(self.engine)

    def _retry_context(self) -> Optional[int]:
        """The pass-wide part of the orchestrator's retry key — the
        binder's GSS capacity — or ``None`` to attempt every queued job.

        The indolent binder searches the pass-start mate index and only
        rejects more as time passes, so a job that failed stays failed
        while its VC is unchanged.  Naive packing searches live running
        jobs, which a placement earlier in the same pass can turn into a
        mate, so it attempts every job.  A subclass whose mate veto can
        lift with time alone returns ``None`` too.
        """
        if self.config.packing_policy == "naive":
            return None
        return self.binder.gss_capacity

    @property
    def _sharing_mode(self) -> str:
        """Orchestrator aggressiveness derived from the binder's mode."""
        if self.config.packing_policy == "off":
            return "off"
        if self.config.packing_policy == "naive":
            return "eager"  # naive bin-packing has no dynamic strategy
        mode = self.binder.mode
        if mode is PackingMode.DEFAULT:
            return "eager"
        if mode is PackingMode.APATHETIC:
            return "fallback"
        return "off"

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def schedule(self, now: float) -> None:
        """One pass: the control plane when due, then the profiler and
        the orchestrator stages, each skipped while its wake key says
        its inputs have not moved since it last ran (DESIGN.md §4)."""
        self._queue_peak = max(self._queue_peak, len(self.queue))
        if now >= self._next_control:
            with self.profile_span("lucid.control"):
                self._control(now)
            self._next_control = now + self.config.control_interval
        if self.profiler is not None:
            self._profile_stage(now)
        placed = self._orchestrate_stage(now)
        if placed:
            placed_ids = {id(job) for job in placed}
            self.queue[:] = [job for job in self.queue
                             if id(job) not in placed_ids]
        for job in placed:
            self._main_start[job.job_id] = now

    def _profiler_token(self) -> Tuple:
        """Everything :meth:`NonIntrusiveProfiler.allocate` reads that
        can change: the queue only grows between passes, and every
        attach, detach and health or speed change on the profiling
        cluster bumps its epoch."""
        profiler = self.profiler
        return (len(profiler.queue),
                profiler.cluster.vc_epochs["profiler"],
                profiler.active_nodes)

    def _profile_stage(self, now: float) -> None:
        profiler = self.profiler
        if not profiler.queue or \
                self._profiler_token() == self._profiler_seen:
            self.profile_count("profiler_stage_skips")
            return
        if profiler.is_down:
            # Degradation: move waiting candidates to the main queue so
            # they are not stranded behind dead profiler nodes.
            for waiting in profiler.drain():
                self._admit_to_main(waiting)
        with self.profile_span("lucid.profiler"):
            started = profiler.allocate(self.engine)
        self._profiler_seen = self._profiler_token()
        tracer = self.engine.tracer
        if tracer.enabled:
            for job in started:
                gpus = self.engine.gpus_of(job)
                PlacementDecision(
                    time=now, job_id=job.job_id, mode="profiling",
                    gpu_ids=tuple(g.gpu_id for g in gpus),
                    node_ids=tuple(g.node_id for g in gpus),
                    note=f"T_prof={profiler.t_prof:.0f}s, "
                         f"N_prof={profiler.n_prof}").emit(tracer)

    def _orchestrate_stage(self, now: float) -> List[Job]:
        orchestrator, queue = self.orchestrator, self.queue
        sharing_mode = self._sharing_mode
        retry_context = self._retry_context()
        if orchestrator.idle(self.engine, queue,
                             (sharing_mode, retry_context), now):
            self.profile_count("orchestrator_stage_skips")
            self.profile_count("placement_attempts", 0)
            self.profile_count("placement_skips", len(queue))
            return []
        with self.profile_span("lucid.orchestrate"):
            placed = orchestrator.schedule(
                self.engine, queue, priority_fn=self._priority,
                find_mate=self._find_mate, sharing_mode=sharing_mode,
                now=now, retry_context=retry_context,
                begin_pass=self._begin_pass, count=self.profile_count,
                decision_inputs=self._decision_inputs)
        self.binder.end_pass()
        return placed

    def _decision_inputs(self, job: Job) -> Dict[str, Any]:
        """The binder verdict of this pass for a placed job and, while
        the engine is attributing, why the models scored it: the
        duration model on the decision, the Packing Analyze Model on the
        verdict.  Called on traced runs only."""
        verdict = self.binder.take_verdict(job.job_id)
        if not self.engine.attributing:
            return {"binder": verdict}
        attribution = None
        if self.estimator is not None:
            attribution = self.estimator.safe_attribute(job)
        if (verdict is not None and self.packing_model is not None
                and job.sharing_score is not None
                and job.measured_profile is not None):
            verdict = replace(verdict, attribution=self.packing_model
                              .attribute(job.measured_profile))
        return {"binder": verdict, "attribution": attribution}

    # ------------------------------------------------------------------
    # Control plane: dynamic strategy, time-aware scaling, updates
    # ------------------------------------------------------------------
    def _recent_hourly_series(self, now: float, hours: int = 48) -> np.ndarray:
        cutoff = now - hours * SECONDS_PER_HOUR
        # Appended with the engine clock, so already sorted.
        recent = self._submit_times[bisect_left(self._submit_times, cutoff):]
        if not recent:
            return np.zeros(hours)
        series, _ = hourly_series(recent, start_time=cutoff, end_time=now)
        return series

    def _forecast(self, now: float) -> Tuple[float, float]:
        """``(current, forecast)`` of the control pass at ``now``.

        Memoized on :meth:`_forecast_key`.  Under the sanitizer every
        memo hit is recomputed and compared.
        """
        key = self._forecast_key(now)
        memo = self._forecast_memo
        if memo is not None and memo[0] == key:
            sanitizer = getattr(self.engine, "sanitizer", None)
            if sanitizer is not None:
                sanitizer.check_forecast(memo[1],
                                         self._evaluate_forecast(now))
            return memo[1]
        self.profile_count("forecast_evaluations")
        value = self._evaluate_forecast(now)
        self._forecast_memo = (key, value)
        return value

    def _forecast_key(self, now: float) -> Tuple:
        """``(hour of now, now past the hour, submissions so far)``.

        The pair depends on nothing else: the forecast row reads only
        whole hours after the 48 h cutoff, and an hour-aligned ``now``
        lays the bins out differently (DESIGN.md §4).  Within
        ``_HOUR_EDGE`` of an hour, rounding could shift the bins, so such
        a ``now`` is its own key.
        """
        hours, into_hour = divmod(now, SECONDS_PER_HOUR)
        if (0.0 < into_hour < _HOUR_EDGE
                or into_hour > SECONDS_PER_HOUR - _HOUR_EDGE):
            return now, len(self._submit_times)
        return hours, into_hour > 0.0, len(self._submit_times)

    def _evaluate_forecast(self, now: float) -> Tuple[float, float]:
        series = self._recent_hourly_series(now)
        current = float(series[-1]) if series.size else 0.0
        return current, self.throughput_model.forecast_next(series[:-1], now)

    def _control(self, now: float) -> None:
        cfg = self.config
        current, forecast = self._forecast(now)
        current_level = self.throughput_model.load_level(current)
        forecast_level = self.throughput_model.load_level(forecast)

        if cfg.dynamic_strategy and cfg.packing_policy == "indolent":
            previous = self.binder.mode
            mode = self.binder.update_mode(
                current_level, forecast_level,
                queue_pressure=self._queue_peak)
            self.mode_history.append(mode)
            if mode is not previous:
                logger.debug("dynamic strategy: %s -> %s at t=%.0fs "
                             "(load %.2f, forecast %.2f, queue peak %d)",
                             previous.name, mode.name, now, current_level,
                             forecast_level, self._queue_peak)
        self._queue_peak = len(self.queue)

        if cfg.time_aware_scaling and self.profiler is not None:
            burst = (self.profiler.pending_demand_gpus()
                     > self.profiler.capacity_gpus
                     or forecast_level > 1.5)
            if burst and not self.profiler.scaled_up:
                self.profiler.scale_up()
            elif not burst and self.profiler.scaled_up:
                self.profiler.scale_down()

        if cfg.instability_rate > 0 and cfg.packing_policy != "off":
            for job in self.binder.unstable_pairs(self.engine, self._rng,
                                                  cfg.instability_rate):
                self.engine.stop_job(job)
                self.queue.append(job)

        if self.update_engine is not None:
            self.update_engine.maybe_refit(now, self.engine.profiler,
                                           self.engine.tracer)
