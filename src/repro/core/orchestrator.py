"""Resource Orchestrator (§3.4, Algorithm 2).

Assigns each queued job a priority value — estimated duration times GPU
demand — sorts the queue ascending, and walks it: if sharing is currently
allowed the Binder proposes an affine running mate (shared placement on
the mate's exact GPU set); otherwise, and as fallback, the job is placed
exclusively with consolidated best-fit inside its VC.

A job that fits nowhere stays failed until its VC changes, so the
orchestrator remembers each failure and skips the job while nothing it
depends on has moved (see :meth:`ResourceOrchestrator.schedule`), and
:meth:`ResourceOrchestrator.idle` tells a caller when a pass would skip
every queued job.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

from repro.cluster.gpu import GPU
from repro.cluster.placement import find_consolidated, find_relaxed
from repro.obs.audit import PlacementDecision
from repro.workloads.job import Job

#: ``job -> {field: value}`` of :class:`PlacementDecision` inputs only
#: the caller knows (the binder verdict, model attributions).
DecisionInputs = Callable[[Job], Dict[str, Any]]


class ResourceOrchestrator:
    """Priority-ordered allocator over exclusive and shared placements."""

    #: A queued job that has waited longer than this reserves its VC.
    DEFAULT_STARVATION_THRESHOLD = 8 * 3600.0

    def __init__(self, starvation_threshold: float =
                 DEFAULT_STARVATION_THRESHOLD,
                 place_exclusive: Optional[Callable] = None) -> None:
        if starvation_threshold <= 0:
            raise ValueError("starvation_threshold must be positive")
        self.starvation_threshold = starvation_threshold
        #: Optional override of the exclusive-placement policy with
        #: signature ``(engine, job) -> Optional[List[GPU]]``; used by the
        #: heterogeneous-GPU extension to rank generations.
        self.place_exclusive = place_exclusive
        self.reset_memos()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_failed", None)
        state.pop("_summary", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.reset_memos()

    def reset_memos(self) -> None:
        #: ``job_id -> retry key`` of every job the last pass left queued.
        #: Derived, so never pickled: a loaded orchestrator attempts
        #: every job once.
        self._failed: Dict[int, Tuple] = {}
        #: What the last keyed pass left in ``_failed``, for :meth:`idle`:
        #: ``(context, failed count, ((vc, pass-start epoch), ...),
        #: oldest submit time of a failed multi-node job not starving)``.
        #: Derived like ``_failed``; epochs restart at 0 on unpickling,
        #: so a pickled summary could match by accident.
        self._summary: Optional[Tuple] = None

    def idle(self, engine, queue: Sequence[Job], context: Tuple,
             now: float) -> bool:
        """Whether a :meth:`schedule` pass with retry context ``context``
        (``(sharing_mode, retry_context)``) would skip every job of
        ``queue``, so it need not run.

        True only when the last keyed pass left exactly these jobs
        failed: ``queue`` only grows between passes, so an equal count
        means the same jobs.  Every job's retry key then equals its
        failed key, because no VC holding a failed job has changed, the
        context is the same, and no failed multi-node job has begun
        starving: ``now - submit_time`` is monotone in ``submit_time``,
        so checking the oldest one covers the rest (DESIGN.md §4).
        """
        summary = self._summary
        if summary is None:
            return False
        recorded, count, epochs, oldest = summary
        vc_epochs = engine.cluster.vc_epochs
        return (context == recorded and len(queue) == count
                and all(vc_epochs[vc] == epoch for vc, epoch in epochs)
                and (oldest is None
                     or now - oldest <= self.starvation_threshold))

    def schedule(self, engine, queue: List[Job],
                 priority_fn: Callable[[Job], float],
                 find_mate: Callable[[Job], Optional[Job]],
                 sharing_mode: str = "eager",
                 now: float = 0.0,
                 retry_context: Optional[Hashable] = None,
                 begin_pass: Optional[Callable[[], None]] = None,
                 count: Optional[Callable[[str, int], None]] = None,
                 decision_inputs: Optional[DecisionInputs] = None
                 ) -> List[Job]:
        """Place as many queued jobs as possible; returns the placed jobs.

        The caller removes placed jobs from its queue.  Jobs that fit
        neither shared nor exclusive are skipped (no head-of-line
        blocking), which is the greedy loop of Algorithm 2 — with one
        starvation guard: a *multi-node* job that has waited past
        ``starvation_threshold`` relaxes its consolidation requirement and
        accepts fragmented free GPUs across extra nodes (paying the
        engine's cross-node communication penalty).  Without the relief,
        multi-node jobs can wait indefinitely for wholly free nodes while
        small-job backfill keeps every node partially busy (the
        tail-fairness property of §4.3 / Table 5).

        ``sharing_mode`` is the Dynamic Strategy's aggressiveness:

        * ``"eager"`` — Algorithm 2 order: affine jobpair first, exclusive
          placement as fallback (Default mode, contended cluster).
        * ``"fallback"`` — exclusive placement first, packing only when the
          VC has no free consolidated slot (Apathetic mode).
        * ``"off"`` — exclusive only (sharing disabled).

        While the engine's trace stream is enabled, every placement
        emits a ``decision`` event
        (:class:`~repro.obs.audit.PlacementDecision`) carrying its
        inputs (priority, duration estimate, sharing mode, starvation
        trigger, plus whatever ``decision_inputs(job)`` adds, such as
        the binder verdict of this pass) so the allocation is
        explainable post-hoc.  Emission only records: traced and
        untraced runs take the same path.

        **Unchanged-VC skip.**  With a ``retry_context``, a job is not
        attempted when its retry key — its VC's change epoch at the
        start of this pass, ``sharing_mode``, ``retry_context`` and
        whether it is starving — equals the key of the pass in which it
        last failed.  The skip is exact when the
        mate search only reads the pass-start state and rejects more as
        time passes (Lucid's indolent binder: see DESIGN.md); callers
        whose search is not (naive packing, SLO vetoes) pass ``None``.
        ``begin_pass`` runs once before the walk, and only when some job
        is attempted.  ``count`` receives the ``placement_attempts`` and
        ``placement_skips`` of the pass.
        """
        if sharing_mode not in ("eager", "fallback", "off"):
            raise ValueError(f"bad sharing_mode {sharing_mode!r}")
        node_gpus = engine.cluster.gpus_per_node

        def starving(job: Job) -> bool:
            return (job.gpu_num > node_gpus
                    and now - job.submit_time > self.starvation_threshold)

        keys: List[Optional[Tuple]] = []
        attempt = queue
        context = (sharing_mode, retry_context)
        if retry_context is not None:
            keys = self._retry_keys(engine, queue, context, starving)
            attempt = [job for job, key in zip(queue, keys)
                       if key is None or self._failed.get(job.job_id) != key]
        if count is not None:
            count("placement_attempts", len(attempt))
            count("placement_skips", len(queue) - len(attempt))
        placed = self._walk(engine, attempt, priority_fn, find_mate,
                            sharing_mode, now, starving, begin_pass,
                            decision_inputs) if attempt else []
        placed_ids = {id(job) for job in placed}
        failed: Dict[int, Tuple] = {}
        epochs: Dict[str, int] = {}
        oldest: Optional[float] = None
        keyed = retry_context is not None
        for job, key in zip(queue, keys):
            if key is None:
                keyed = False
            elif id(job) not in placed_ids:
                failed[job.job_id] = key
                epochs[job.vc] = key[0]
                if job.gpu_num > node_gpus and not key[2] and (
                        oldest is None or job.submit_time < oldest):
                    oldest = job.submit_time
        self._failed = failed
        self._summary = ((context, len(failed), tuple(epochs.items()),
                          oldest) if keyed else None)
        return placed

    @staticmethod
    def _retry_keys(engine, queue: Sequence[Job], context: Tuple,
                    starving: Callable[[Job], bool]
                    ) -> List[Optional[Tuple]]:
        """Each job's retry key at pass start; ``None`` (never skipped)
        for a job outside every VC."""
        epochs = engine.cluster.vc_epochs
        keys: List[Optional[Tuple]] = []
        for job in queue:
            epoch = epochs.get(job.vc)
            keys.append(None if epoch is None
                        else (epoch, context, starving(job)))
        return keys

    def _exclusive(self, engine, job: Job, starving: bool
                   ) -> Tuple[Optional[List[GPU]], bool]:
        """Exclusive GPUs for ``job`` (or ``None``), and whether they are
        a relaxed, fragmented placement."""
        if self.place_exclusive is not None:
            gpus = self.place_exclusive(engine, job)
        else:
            gpus = find_consolidated(engine.cluster, job.gpu_num, vc=job.vc,
                                     min_memory_mb=job.profile.gpu_mem_mb)
        if gpus is None and starving:
            # Starvation relief: relaxed (fragmented) placement.
            gpus = find_relaxed(engine.cluster, job.gpu_num, vc=job.vc,
                                min_memory_mb=job.profile.gpu_mem_mb)
            return gpus, gpus is not None
        return gpus, False

    def _walk(self, engine, queue: List[Job],
              priority_fn: Callable[[Job], float],
              find_mate: Callable[[Job], Optional[Job]],
              sharing_mode: str, now: float,
              starving: Callable[[Job], bool],
              begin_pass: Optional[Callable[[], None]],
              decision_inputs: Optional[DecisionInputs]) -> List[Job]:
        """Algorithm 2's greedy walk over ``queue``; returns the placed."""
        if begin_pass is not None:
            begin_pass()
        for job in queue:
            job.priority = priority_fn(job)
        # Starving multi-node jobs jump to the front of the pass so they
        # get first pick of free GPUs (otherwise small jobs drain the free
        # pool before the walk ever reaches them).
        ordered = sorted(queue,
                         key=lambda j: (not starving(j), j.priority,
                                        j.submit_time, j.job_id))
        tracer = engine.tracer

        def record(job: Job, mode: str, mate: Optional[Job],
                   relieved: bool) -> None:
            if not tracer.enabled:
                return
            gpus = engine.gpus_of(job)
            inputs = decision_inputs(job) if decision_inputs else {}
            PlacementDecision(
                time=now, job_id=job.job_id, mode=mode,
                gpu_ids=tuple(g.gpu_id for g in gpus),
                node_ids=tuple(g.node_id for g in gpus),
                priority=job.priority,
                estimated_duration=job.estimated_duration,
                sharing_mode=sharing_mode,
                mate_id=mate.job_id if mate is not None else None,
                starving=relieved, **inputs).emit(tracer)

        placed: List[Job] = []
        for job in ordered:
            if sharing_mode == "eager":
                mate = find_mate(job)
                if mate is not None:
                    engine.start_job(job, engine.gpus_of(mate))
                    placed.append(job)
                    record(job, "shared", mate, starving(job))
                    continue
            gpus, relaxed = self._exclusive(engine, job, starving(job))
            if gpus is not None:
                engine.start_job(job, gpus)
                placed.append(job)
                record(job, "relaxed" if relaxed else "exclusive", None,
                       relaxed)
                continue
            if sharing_mode == "fallback":
                mate = find_mate(job)
                if mate is not None:
                    engine.start_job(job, engine.gpus_of(mate))
                    placed.append(job)
                    record(job, "shared-fallback", mate, starving(job))
        return placed
