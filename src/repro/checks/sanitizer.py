"""Runtime simulation-state sanitizer.

:class:`SimSanitizer` is the dynamic half of :mod:`repro.checks`: where
the linter vets the *source*, the sanitizer vets the *running state*.
An :class:`~repro.obs.tracer.Observer`
(``Simulator(observers=[SimSanitizer()])``, CLI ``--sanitize``), it runs
after every event dispatch and after every engine step, and asserts the
invariants every reported number relies on:

* **Allocation conservation** — every GPU hosts at most
  :data:`~repro.cluster.gpu.MAX_RESIDENTS` jobs within its memory
  capacity; a running job's GPU set has no double-bound device and every
  device actually hosts it; every resident on the main cluster has
  engine-side run state.
* **Monotone clock** — the engine's event clock never rewinds.
* **Legal lifecycle transitions** — job status changes follow the
  :data:`ALLOWED_TRANSITIONS` state machine (including the faults
  package's CRASHED/FAILED states), and RUNNING/PROFILING statuses agree
  with the engine's run-state table.
* **Queue consistency** — no duplicates in the scheduler queue, no
  finished/failed/running entries.
* **Fault-flag coherence** — an unhealthy GPU hosts nothing, node and
  GPU health flags agree, straggler factors stay in ``(0, 1]``.
* **Exact shortcuts** — a *reference run*, a pickled copy of the engine
  taken before the first step the sanitizer sees, is stepped in lockstep
  with its pass memos cleared before each step
  (``Scheduler.reset_memos``), so it retries every failed placement and
  runs every Lucid stage.  After each step both runs must hold the same
  decisions (:meth:`SimSanitizer.after_step`).
* **Exact forecast memo** — every control pass that reuses Lucid's
  memoized throughput forecast recomputes it from scratch, and the two
  must agree bit for bit (:meth:`SimSanitizer.check_forecast`).
* **Occupancy counters** — every counter that ``GPU.attach`` /
  ``GPU.detach`` and ``Node.set_health`` keep incrementally (per-GPU
  residents and reserved memory, per-node free GPUs, cluster busy /
  shared counts and the flat memory list), on the main and the
  profiling cluster, equals
  :func:`~repro.cluster.cluster.rescan_occupancy`; the utilization
  tracker's memory capacity equals a fresh sum.  The rescan is the
  checker, never a code path of an unsanitized run.

The scheduling code never asks for the sanitizer (bar the forecast
check): a sanitized run takes the unsanitized path and is bit-identical
to it on the same seed (guarded by tests).  Violations raise
:class:`SanitizerError` with a message precise enough to debug from.
"""

from __future__ import annotations

import pickle
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.cluster.cluster import Cluster, rescan_occupancy
from repro.cluster.gpu import MAX_RESIDENTS
from repro.obs.tracer import Observer
from repro.workloads.job import Job, JobStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

__all__ = ["ALLOWED_TRANSITIONS", "SanitizerError", "SimSanitizer",
           "occupancy_drift"]

#: Tolerance for floating-point accounting (memory sums, clock compares).
_EPS = 1e-6

#: Legal observable status transitions between two sanitizer checks.
#: Checks run after every event dispatch and after every scheduling pass,
#: so a delta spans at most one pass; compound moves inside one pass
#: (e.g. Tiresias' stop+restart) collapse to a self-transition, which is
#: always legal.  PROFILING->RUNNING covers Lucid promoting a job whose
#: profiling run was stopped and restarted on the main cluster within a
#: single pass.
ALLOWED_TRANSITIONS: Dict[JobStatus, FrozenSet[JobStatus]] = {
    JobStatus.SUBMITTED: frozenset({JobStatus.PENDING}),
    JobStatus.PENDING: frozenset({JobStatus.RUNNING, JobStatus.PROFILING}),
    JobStatus.RUNNING: frozenset({
        JobStatus.PENDING, JobStatus.PREEMPTED, JobStatus.FINISHED,
        JobStatus.CRASHED, JobStatus.FAILED}),
    JobStatus.PROFILING: frozenset({
        JobStatus.PENDING, JobStatus.PREEMPTED, JobStatus.RUNNING,
        JobStatus.FINISHED, JobStatus.CRASHED, JobStatus.FAILED}),
    JobStatus.PREEMPTED: frozenset({JobStatus.RUNNING,
                                    JobStatus.PROFILING}),
    JobStatus.CRASHED: frozenset({JobStatus.PENDING}),
    JobStatus.FINISHED: frozenset(),
    JobStatus.FAILED: frozenset(),
}

_STATUS = attrgetter("status")

#: Statuses a job may hold while present in the scheduler's pending queue.
_QUEUEABLE = frozenset({JobStatus.SUBMITTED, JobStatus.PENDING,
                        JobStatus.PREEMPTED, JobStatus.CRASHED})


class SanitizerError(AssertionError):
    """A simulation-state invariant was violated."""


class SimSanitizer(Observer):
    """State-invariant checker of the :class:`Simulator` it attaches to.

    Attributes
    ----------
    checks_run:
        Number of full invariant sweeps performed (for tests and the CLI
        summary line).
    passes_matched:
        Engine steps whose decisions matched the reference run's.
    """

    def __init__(self) -> None:
        self._engine: Optional["Simulator"] = None
        self._last_now = 0.0
        self._last_status: Dict[int, JobStatus] = {}
        self.checks_run = 0
        self.passes_matched = 0
        self._reference: Optional["Simulator"] = None

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def attach(self, engine: "Simulator") -> None:
        """Track ``engine`` from its current state on; the handle
        ``engine.sanitizer`` serves Lucid's :meth:`check_forecast`."""
        self._engine = engine
        engine.sanitizer = self
        self._last_now = engine.now
        self._last_status = {job_id: job.status
                             for job_id, job in engine.jobs.items()}

    def after_event(self, event: "Event") -> None:
        """Sweep all invariants after one event was applied."""
        self._sweep(context=f"after {event.kind.value} event "
                            f"(job {event.job_id})")

    def check_forecast(self, cached: Tuple[float, float],
                       fresh: Tuple[float, float]) -> None:
        """During a control pass: a memoized ``(current, forecast)``
        must equal the pair recomputed from scratch, bit for bit."""
        if [x.hex() for x in cached] != [x.hex() for x in fresh]:
            self._fail("during control pass",
                       f"memoized (current, forecast) {cached} differs "
                       f"from the recomputed {fresh}")

    def before_step(self) -> None:
        """Before the first step seen: take the reference run."""
        if self._reference is None:
            self._reference = pickle.loads(pickle.dumps(self._engine))

    def admitted(self, job: Job) -> None:
        """``engine.add_job`` admitted ``job``: track it, copy it over."""
        self._last_status[job.job_id] = job.status
        if self._reference is not None:
            self._reference.add_job(pickle.loads(pickle.dumps(job)))

    def after_step(self) -> None:
        """After one engine step: sweep, then step the reference run
        with its pass memos cleared (event dispatch reads none, so they
        are gone before its pass), and compare the decisions.  Without
        a reference (no step seen yet) only the sweep runs."""
        self._sweep(context="after scheduling pass")
        reference = self._reference
        if reference is None:
            return
        reference.scheduler.reset_memos()
        try:
            reference.step_batch()
        except RuntimeError as exc:  # SimulationError, max_events
            self._diverged("the step", "complete", f"raised {exc!r}")
        engine = self._engine
        here, there = _job_views(engine), _job_views(reference)
        if here != there:
            job_id = min(job_id for job_id in here.keys() | there.keys()
                         if here.get(job_id) != there.get(job_id))
            self._diverged(f"job {job_id}", _describe(here.get(job_id)),
                           _describe(there.get(job_id)))
        here, there = ((_queue_ids(run), run.now, len(run.events))
                       for run in (engine, reference))
        if here != there:
            self._diverged("(queue, clock, event-heap length)", here, there)
        self.passes_matched += 1

    def _diverged(self, what: str, here, there) -> None:
        self._fail("after scheduling pass",
                   f"{what} is {here} here but {there} in the reference "
                   f"run without shortcuts")

    # ------------------------------------------------------------------
    # Invariant sweeps
    # ------------------------------------------------------------------
    def _sweep(self, context: str) -> None:
        self.checks_run += 1
        now = self._engine.now
        self._check_clock(now, context)
        self._check_allocation(context)
        self._check_lifecycle(context)
        self._check_queue(context)
        self._check_fault_flags(context)
        self._check_occupancy(context)

    def _fail(self, context: str, message: str) -> None:
        raise SanitizerError(
            f"state invariant violated at t={self._engine.now:.3f}s "
            f"{context}: {message}")

    def _check_clock(self, now: float, context: str) -> None:
        if now < self._last_now - _EPS:
            self._fail(context,
                       f"event clock rewound from {self._last_now:.6f}s "
                       f"to {now:.6f}s")
        self._last_now = max(self._last_now, now)

    def _check_allocation(self, context: str) -> None:
        engine = self._engine
        # Per-device invariants on the main cluster, from the residents
        # themselves (the cached counters are checked separately).
        for gpu in engine.cluster.gpus:
            residents = gpu.residents
            if len(residents) > MAX_RESIDENTS:
                self._fail(context,
                           f"GPU {gpu.gpu_id} hosts {len(residents)} jobs "
                           f"(max {MAX_RESIDENTS}): {sorted(residents)}")
            reserved = sum(gpu._residents.values())
            if reserved > gpu.memory_mb + _EPS:
                self._fail(context,
                           f"GPU {gpu.gpu_id} memory oversubscribed: "
                           f"{reserved:.0f} MB reserved > "
                           f"{gpu.memory_mb:.0f} MB capacity")
            for job_id in gpu.residents:
                if job_id not in engine.run_states:
                    self._fail(context,
                               f"GPU {gpu.gpu_id} hosts job {job_id} which "
                               "has no run state (leaked allocation)")
        # Per-run-state invariants (covers profiler-cluster GPUs too).
        for job_id, state in engine.run_states.items():
            seen_devices = set()
            for gpu in state.gpus:
                if gpu.gpu_id in seen_devices:
                    self._fail(context,
                               f"job {job_id} double-binds GPU "
                               f"{gpu.gpu_id}")
                seen_devices.add(gpu.gpu_id)
                if not gpu.hosts(job_id):
                    self._fail(context,
                               f"job {job_id} claims GPU {gpu.gpu_id} but "
                               "is not attached to it")
            job = engine.jobs[job_id]
            if len(state.gpus) != job.gpu_num:
                self._fail(context,
                           f"job {job_id} holds {len(state.gpus)} GPUs but "
                           f"requested {job.gpu_num}")

    def _check_lifecycle(self, context: str) -> None:
        engine = self._engine
        for job_id, job in engine.jobs.items():
            previous = self._last_status[job_id]
            current = job.status
            if current is not previous:
                if current not in ALLOWED_TRANSITIONS[previous]:
                    self._fail(context,
                               f"job {job_id} made an illegal "
                               f"{previous.value.upper()} -> "
                               f"{current.value.upper()} transition")
                self._last_status[job_id] = current
            executing = job_id in engine.run_states
            if executing and current not in (JobStatus.RUNNING,
                                             JobStatus.PROFILING):
                self._fail(context,
                           f"job {job_id} is {current.value} but still "
                           "holds GPUs (run state present)")
            if not executing and current in (JobStatus.RUNNING,
                                             JobStatus.PROFILING):
                self._fail(context,
                           f"job {job_id} is {current.value} but has no "
                           "run state (lost allocation)")

    def _check_queue(self, context: str) -> None:
        queue = getattr(self._engine.scheduler, "queue", None)
        if queue is None:
            return
        seen = set()
        for job in queue:
            if job.job_id in seen:
                self._fail(context,
                           f"job {job.job_id} queued twice (would be "
                           "scheduled twice)")
            seen.add(job.job_id)
            if job.status not in _QUEUEABLE:
                self._fail(context,
                           f"job {job.job_id} is {job.status.value} but "
                           "still sits in the pending queue")
            if job.job_id in self._engine.run_states:
                self._fail(context,
                           f"job {job.job_id} is both queued and executing")

    def _check_fault_flags(self, context: str) -> None:
        for node in self._engine.cluster.nodes:
            gpu_health = [gpu.healthy for gpu in node.gpus]
            if node.healthy and not all(gpu_health):
                self._fail(context,
                           f"node {node.node_id} is healthy but has "
                           "unhealthy GPUs")
            if not node.healthy and any(gpu_health):
                self._fail(context,
                           f"node {node.node_id} is down but has healthy "
                           "GPUs")
            for gpu in node.gpus:
                if not gpu.healthy and gpu.residents:
                    self._fail(context,
                               f"failed GPU {gpu.gpu_id} still hosts jobs "
                               f"{sorted(gpu.residents)}")
                if not 0.0 < gpu.fault_slow <= 1.0:
                    self._fail(context,
                               f"GPU {gpu.gpu_id} has out-of-range "
                               f"straggler factor {gpu.fault_slow!r}")

    def _check_occupancy(self, context: str) -> None:
        engine = self._engine
        clusters: List[Cluster] = [engine.cluster]
        profiler = getattr(engine.scheduler, "profiler", None)
        if isinstance(getattr(profiler, "cluster", None), Cluster):
            clusters.append(profiler.cluster)
        for cluster in clusters:
            drift = occupancy_drift(cluster)
            if drift is not None:
                self._fail(context, f"occupancy counter {drift}")
        kept = engine.utilization.memory_total_mb
        total = engine.cluster.memory_capacity_mb()
        if kept != total:
            self._fail(context,
                       f"occupancy counter utilization memory_total_mb is "
                       f"{kept!r} but the cluster holds {total!r} MB")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line report for the CLI."""
        return (f"sanitizer: {self.checks_run} invariant sweeps, all clean; "
                f"{self.passes_matched} passes matched the reference run")


def _queue_ids(engine: "Simulator") -> Optional[List[int]]:
    queue = getattr(engine.scheduler, "queue", None)
    return None if queue is None else [job.job_id for job in queue]


def _describe(view) -> str:
    if not isinstance(view, tuple):
        return "not admitted" if view is None else view.value
    status, gpus, speed, limit, profiling = view
    return (f"{status.value} on GPUs {gpus} at speed {speed}, time limit "
            f"{limit}, profiling {profiling}")


def _job_views(engine: "Simulator") -> Dict[int, Tuple]:
    """Each job's status and, while it runs, its GPU ids, speed bits,
    time limit and profiling flag."""
    views = dict(zip(engine.jobs, map(_STATUS, engine.jobs.values())))
    for job_id, state in engine.run_states.items():
        views[job_id] = (views[job_id], [gpu.gpu_id for gpu in state.gpus],
                         state.speed.hex(), state.time_limit_at,
                         state.is_profiling)
    return views


def occupancy_drift(cluster: Cluster) -> Optional[str]:
    """The first occupancy counter of ``cluster`` that differs from
    :func:`~repro.cluster.cluster.rescan_occupancy`, described by name
    (``None`` when every counter agrees)."""
    truth = rescan_occupancy(cluster.nodes)
    slot = 0
    for node, n_free in zip(cluster.nodes, truth.n_free):
        if node._cluster is not cluster:
            return f"node {node.node_id} is not linked to its cluster"
        for gpu in node.gpus:
            if gpu._node is not node or gpu._slot != slot:
                return (f"GPU {gpu.gpu_id} is not linked to node "
                        f"{node.node_id} at slot {slot}")
            for name, kept, actual in (
                    ("n_residents", gpu.n_residents,
                     truth.n_residents[slot]),
                    ("memory_used_mb", gpu.memory_used_mb,
                     truth.memory_used[slot]),
                    ("cluster memory_used", cluster._memory_used[slot],
                     truth.memory_used[slot])):
                if kept != actual:
                    return (f"{name} of GPU {gpu.gpu_id} is {kept!r} but "
                            f"a rescan finds {actual!r}")
            slot += 1
        if node.n_free_gpus != n_free:
            return (f"n_free_gpus of node {node.node_id} is "
                    f"{node.n_free_gpus} but a rescan finds {n_free}")
    for name, kept, actual in (("n_busy_gpus", cluster.n_busy_gpus,
                                truth.busy),
                               ("n_shared_gpus", cluster.n_shared_gpus,
                                truth.shared)):
        if kept != actual:
            return f"{name} is {kept} but a rescan finds {actual}"
    return None
