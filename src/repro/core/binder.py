"""Affine-Jobpair Binder (§3.3): Indolent Packing + Dynamic Strategy.

The Binder decides *whether and how* to colocate jobs, entirely from
non-intrusive signals.  **Indolent Packing** only packs jobs unlikely to
interfere: every GPU has a sharing capacity ``GSS`` (default 2) and a pair
may share only if the sum of their predicted Sharing Scores stays within
it.  The paper's packing rules are enforced here:

1. hard GPU-memory limit (no OOM),
2. only equal GPU demands are paired (straggler effect),
3. at most two jobs per GPU set,
4. packed jobs with unstable utilization are evicted introspectively,
5. distributed (multi-node) jobs are never packed.

The **Dynamic Strategy** adjusts the packing aggressiveness with the
cluster-throughput forecast: Default mode (GSS=2) under normal load,
Apathetic mode (GSS=1) when load is low, packing disabled when the cluster
is nearly idle and no burst is forecast.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.cluster.placement import find_shared
from repro.obs.audit import BinderVerdict
from repro.workloads.job import Job, JobStatus


class PackingMode(enum.Enum):
    """Dynamic-strategy operating modes (§3.3)."""

    DEFAULT = 2    # GSS capacity 2
    APATHETIC = 1  # GSS capacity 1
    DISABLED = 0   # no sharing

    @property
    def gss_capacity(self) -> int:
        return self.value


class AffineJobpairBinder:
    """Selects interference-free packing mates for queued jobs.

    Parameters
    ----------
    gss_capacity:
        GPU Sharing Capacity in Default mode.
    min_mate_remaining:
        Do not pack onto a job estimated to finish sooner than this —
        time-awareness that avoids useless short-lived pairings (§3.1 C).
    """

    def __init__(self, gss_capacity: int = 2,
                 min_mate_remaining: float = 300.0) -> None:
        if gss_capacity not in (1, 2):
            raise ValueError("gss_capacity must be 1 or 2")
        self.base_capacity = gss_capacity
        self.mode = PackingMode.DEFAULT if gss_capacity == 2 else PackingMode.APATHETIC
        self.min_mate_remaining = min_mate_remaining
        self._pass_index: Optional[dict] = None
        #: ``job_id -> BinderVerdict`` of this pass's mate searches, kept
        #: while the engine is traced so each placement's ``decision``
        #: event can carry the accepted mate or the rejection-reason
        #: census (:meth:`take_verdict`).  Emptied by :meth:`end_pass`.
        self._verdicts: Dict[int, BinderVerdict] = {}

    # ------------------------------------------------------------------
    @property
    def sharing_enabled(self) -> bool:
        return self.mode is not PackingMode.DISABLED

    @property
    def gss_capacity(self) -> int:
        if self.mode is PackingMode.DEFAULT:
            return min(2, self.base_capacity)
        if self.mode is PackingMode.APATHETIC:
            return 1
        return 0

    # ------------------------------------------------------------------
    def find_mate(self, engine, job: Job,
                  remaining_estimate: Callable[[Job], float]
                  ) -> Optional[Job]:
        """Best running mate for ``job``, or ``None``.

        Candidates must be running exclusively in the same VC with the
        same GPU demand on a single node; the pair must satisfy the GSS
        budget, fit device memory and pass the time-awareness filter.
        Among valid candidates the lowest-sharing-score (least
        interference) mate wins.
        """
        traced = engine.tracer.enabled
        if not self.sharing_enabled:
            return self._verdict(traced, job, None,
                                 rejections={"sharing_disabled": 1})
        if job.gpu_num > engine.cluster.gpus_per_node:
            # rule 5: never pack distributed jobs
            return self._verdict(traced, job, None,
                                 rejections={"job_distributed": 1})
        if job.sharing_score is None:
            # unprofiled jobs are never packed
            return self._verdict(traced, job, None,
                                 rejections={"job_unprofiled": 1})
        if self._pass_index is not None:
            candidates = self._pass_index.get((job.vc, job.gpu_num), [])
        else:
            candidates = engine.running_jobs()
        best: Optional[Job] = None
        best_key = None
        rejections: Optional[Dict[str, int]] = {} if traced else None
        n_candidates = 0
        for mate in candidates:
            n_candidates += 1
            reason = self._reject_reason(engine, job, mate,
                                         remaining_estimate)
            if reason is not None:
                if rejections is not None:
                    rejections[reason] = rejections.get(reason, 0) + 1
                continue
            key = (mate.sharing_score,
                   self._cpu_overload(engine, job, mate),
                   mate.profile.gpu_util)
            if best_key is None or key < best_key:
                best_key = key
                best = mate
        return self._verdict(traced, job, best, rejections=rejections or {},
                             candidates=n_candidates)

    def _verdict(self, traced: bool, job: Job, mate: Optional[Job],
                 rejections: Dict[str, int],
                 candidates: int = 0) -> Optional[Job]:
        """Keep the search outcome for :meth:`take_verdict` (traced
        runs only) and return ``mate``."""
        if traced:
            self._verdicts[job.job_id] = BinderVerdict(
                job_id=job.job_id,
                mate_id=mate.job_id if mate is not None else None,
                mode=self.mode.name,
                gss_capacity=self.gss_capacity,
                job_score=job.sharing_score,
                mate_score=mate.sharing_score if mate is not None else None,
                candidates=candidates,
                rejections=rejections)
        return mate

    def take_verdict(self, job_id: int) -> Optional[BinderVerdict]:
        """The verdict of this pass's mate search for ``job_id``, if one
        ran; a placement never carries the verdict of an earlier pass."""
        return self._verdicts.pop(job_id, None)

    @staticmethod
    def _cpu_overload(engine, job: Job, mate: Job) -> float:
        """Predicted node-CPU oversubscription of pairing job with mate.

        Synergy-style soft preference (paper SS6): CPU budgets rank mate
        candidates — a pair that fits the node's CPUs beats one that
        starves both jobs' input pipelines — but never veto packing, which
        under contention is still worth more than the squeeze costs.
        Returns 0 when the CPU model is disabled.
        """
        if not getattr(engine, "model_cpu", False):
            return 0.0
        gpus = engine.gpus_of(mate)
        node = engine.cluster.node(gpus[0].node_id)
        demand = (job.cpu_per_gpu + mate.cpu_per_gpu) * job.gpu_num
        for node_gpu in node.gpus:
            for rid in node_gpu.residents:
                if rid != mate.job_id:
                    resident = engine.jobs[rid]
                    demand += resident.cpu_per_gpu
        return max(0.0, demand - node.cpus)

    def begin_pass(self, engine) -> None:
        """Index exclusive running jobs by (VC, GPU count) for one
        scheduling pass.  Pure performance aid: :meth:`_reject_reason`
        re-checks every condition, so a stale entry is filtered, never
        mis-packed."""
        index: dict = {}
        if self.sharing_enabled:
            for mate in engine.running_jobs():
                if (mate.status is JobStatus.RUNNING
                        and mate.sharing_score is not None
                        and mate.gpu_num <= engine.cluster.gpus_per_node
                        and not engine.mate_ids(mate)):
                    index.setdefault((mate.vc, mate.gpu_num), []).append(mate)
        self._pass_index = index

    def end_pass(self) -> None:
        self._pass_index = None
        self._verdicts.clear()

    def _reject_reason(self, engine, job: Job, mate: Job,
                       remaining_estimate: Callable[[Job], float]
                       ) -> Optional[str]:
        """Why ``mate`` cannot host ``job``; ``None`` when it can.

        The reason strings feed the verdict's rejection census, so they are
        stable identifiers, not prose.
        """
        if mate.job_id == job.job_id or mate.status is not JobStatus.RUNNING:
            return "not_running"
        if mate.vc != job.vc:
            return "different_vc"
        if mate.gpu_num != job.gpu_num:  # rule 2: equal demands only
            return "unequal_gpu_demand"
        if mate.gpu_num > engine.cluster.gpus_per_node:  # rule 5
            return "mate_distributed"
        if mate.sharing_score is None:
            return "mate_unprofiled"
        if engine.mate_ids(mate):  # rule 3: at most two per GPU set
            return "has_mate"
        if mate.sharing_score + job.sharing_score > self.gss_capacity:
            return "gss_budget"  # Indolent Packing GSS budget
        mate_left = remaining_estimate(mate)
        if mate_left < self.min_mate_remaining:
            return "mate_finishing"  # packing buys nothing
        mate_gpus = engine.gpus_of(mate)
        if any(not g.healthy or g.fault_slow < 1.0 for g in mate_gpus):
            # Fault degradation: never pack onto a node that is draining
            # after a failure or crawling through a straggler window.
            return "node_draining"
        gpus = find_shared(engine.cluster, mate_gpus,
                           job.profile.gpu_mem_mb)  # rule 1: OOM guard
        return None if gpus is not None else "memory"

    # ------------------------------------------------------------------
    def update_mode(self, load_level: float, forecast_level: float,
                    queue_pressure: int = 0) -> PackingMode:
        """Dynamic Strategy: pick the mode from forecast + cluster state.

        ``load_level`` and ``forecast_level`` are throughput relative to
        the historical median (1.0 = typical); ``queue_pressure`` is the
        recent peak length of the main pending queue.  Per §3.3, the mode
        follows "its prediction and current cluster states": with no
        queue and no burst forecast, packing only slows jobs down, so
        sharing is disabled; under mild load it turns Apathetic (GSS=1);
        contention restores the Default mode.  Thresholds are the
        "customizable" knobs the paper mentions.
        """
        peak = max(load_level, forecast_level)
        if queue_pressure == 0 and peak < 1.3:
            self.mode = PackingMode.DISABLED
        elif queue_pressure <= 3:
            self.mode = PackingMode.APATHETIC
        else:
            self.mode = (PackingMode.DEFAULT if self.base_capacity == 2
                         else PackingMode.APATHETIC)
        return self.mode

    # ------------------------------------------------------------------
    def unstable_pairs(self, engine, rng, instability_rate: float = 0.0
                       ) -> List[Job]:
        """Rule 4: detect packed jobs with unstable utilization patterns.

        The ground-truth simulator has no utilization time series, so
        instability is modelled as a small per-check probability for each
        packed pair; returns the jobs to evict (the later-arrived of each
        flagged pair).
        """
        if instability_rate <= 0:
            return []
        evict: List[Job] = []
        seen = set()
        for job in engine.running_jobs():
            if job.job_id in seen:
                continue
            ids = engine.mate_ids(job)
            if not ids:
                continue
            # Rule 3 caps packing at two per GPU set, so a packed job
            # has exactly one mate.
            mate = engine.jobs[ids[0]]
            seen.add(job.job_id)
            seen.add(mate.job_id)
            if rng.random() < instability_rate:
                evict.append(max(job, mate, key=lambda j: j.job_id))
        return evict
