"""Scheduler base class and shared allocation helpers."""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro.cluster.placement import find_consolidated
from repro.obs.logutil import get_logger
from repro.obs.prof import NULL_SPAN
from repro.workloads.job import Job

logger = get_logger("schedulers")


class Scheduler:
    """Base class for all schedulers driven by the simulation engine.

    Subclasses implement :meth:`schedule` (and optionally the event
    callbacks).  The base maintains the pending queue: submitted jobs are
    appended and placed jobs must be removed by the subclass (the helpers
    here do it for you).

    Every scheduler built on this base gets submit/finish tracing for
    free: the event callbacks emit scheduler-perspective trace events
    (``sched_submit`` with the current queue depth, ``sched_finish``)
    through the engine's tracer.  Subclasses that override a callback
    without calling ``super()`` can emit via :meth:`trace_event`.
    """

    #: Human-readable name used by benchmark tables.
    name = "base"
    #: Seconds between periodic wake-ups, or None for event-driven only.
    tick_interval: Optional[float] = None

    def __init__(self) -> None:
        self.engine = None
        self.queue: List[Job] = []

    # The engine owns its scheduler, so the scheduler refers back to it
    # weakly: a dropped engine is then freed by reference counting, not
    # left as a cyclic island of every job for a gen-2 collection.
    @property
    def engine(self):
        ref = self._engine_ref
        return None if ref is None else ref()

    @engine.setter
    def engine(self, engine) -> None:
        self._engine_ref = None if engine is None else weakref.ref(engine)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["engine"] = self.engine
        state.pop("_engine_ref", None)
        return state

    def __setstate__(self, state) -> None:
        engine = state.pop("engine", None)
        self.__dict__.update(state)
        self.engine = engine
        self.reset_memos()

    def reset_memos(self) -> None:
        """Forget every pass memo (derived state that only skips work).
        Memos are never pickled, and the sanitizer's reference run
        clears them before each of its passes.  The base keeps none."""

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Bind to the engine; subclasses may train models here."""
        self.engine = engine
        self.queue = []

    def trace_event(self, kind: str, job: Optional[Job], now: float,
                    **data) -> None:
        """Emit a scheduler-perspective trace event (no-op untraced)."""
        engine = self.engine
        if engine is not None and engine.tracer.enabled:
            engine.tracer.emit(now, kind,
                               job.job_id if job is not None else None,
                               scheduler=self.name, **data)

    def profile_count(self, name: str, n: int = 1) -> None:
        """Bump a hot-path counter on the engine's profiler (no-op off).

        Schedulers use this to expose invocation counts of their
        expensive inner machinery (binder mate searches, estimator
        predictions, ...) to ``Simulator(profile=...)``.
        """
        engine = self.engine
        if engine is not None and engine.profiler is not None:
            engine.profiler.count(name, n)

    def profile_span(self, name: str):
        """Context manager timing a named pass phase when profiling.

        Returns the shared no-op span when the engine is unprofiled, so
        ``with self.profile_span("lucid.control"):`` costs one attribute
        check on plain runs and never touches simulated state.
        """
        engine = self.engine
        if engine is not None and engine.profiler is not None:
            return engine.profiler.span(name)
        return NULL_SPAN

    def on_job_submit(self, job: Job, now: float) -> None:
        self.queue.append(job)
        self.trace_event("sched_submit", job, now,
                         queue_depth=len(self.queue), routed="main")

    def on_job_finish(self, job: Job, now: float) -> None:
        self.trace_event("sched_finish", job, now,
                         queue_depth=len(self.queue))

    def on_time_limit(self, job: Job, now: float) -> None:
        pass

    def on_job_failed(self, job: Job, now: float,
                      permanent: bool = False) -> None:
        """A fault killed this job (see :mod:`repro.faults`).

        Non-permanent failures arrive after the job's retry backoff
        expired, ready to requeue; permanent ones are terminal — the
        engine has already recorded the job as FAILED, the scheduler
        just drops it.
        """
        if permanent:
            self.trace_event("sched_failed", job, now,
                             queue_depth=len(self.queue))
            return
        self.queue.append(job)
        self.trace_event("sched_retry", job, now,
                         queue_depth=len(self.queue), routed="main")

    def schedule(self, now: float) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def try_place_exclusive(self, job: Job, overhead: float = 0.0) -> bool:
        """Consolidated exclusive placement inside the job's VC."""
        gpus = find_consolidated(self.engine.cluster, job.gpu_num, vc=job.vc)
        if gpus is None:
            return False
        self.engine.start_job(job, gpus, overhead=overhead)
        return True

    def place_in_order(self, ordered: List[Job], strict: bool = False) -> None:
        """Try to start queued jobs in the given order.

        ``strict=True`` stops at the first job that does not fit (FIFO
        head-of-line semantics); otherwise unplaceable jobs are skipped,
        which is the greedy loop of the paper's Algorithm 2.
        """
        for job in ordered:
            placed = self.try_place_exclusive(job)
            if placed:
                self.queue.remove(job)
            elif strict:
                break
