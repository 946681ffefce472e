"""Horus: intrusive prediction-based packing scheduler [TPDS'22].

Horus converts user models into ONNX graphs (user-code intrusion) to
predict per-job GPU utilization, then colocates jobs whose combined
predicted utilization stays under a target.  We model its intrusive
predictor as the ground-truth profile plus small noise — strictly more
information than Lucid's non-intrusive profiler gets — but Horus lacks a
profiling stage, duration awareness and a dynamic strategy, which is why
Table 4 places it between SJF and Tiresias (and behind SJF on Philly).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.placement import find_shared
from repro.schedulers.base import Scheduler
from repro.workloads.job import Job, JobStatus


class HorusScheduler(Scheduler):
    """Utilization-predicted greedy packing over FIFO-with-skip ordering.

    Parameters
    ----------
    util_target:
        Maximum combined predicted GPU utilization for a packed pair.
    prediction_noise:
        Relative noise of the intrusive utilization predictor.
    """

    name = "horus"

    def __init__(self, history=None, util_target: float = 100.0,
                 prediction_noise: float = 0.05,
                 random_state: int = 0) -> None:
        super().__init__()
        if util_target <= 0:
            raise ValueError("util_target must be positive")
        self.util_target = util_target
        self.prediction_noise = prediction_noise
        self._history = list(history) if history else []
        self._duration_model = None
        self._rng = np.random.default_rng(random_state)
        self._predicted: dict = {}

    def attach(self, engine) -> None:
        super().attach(engine)
        self._predicted = {}

    def _predicted_util(self, job: Job) -> float:
        cached = self._predicted.get(job.job_id)
        if cached is None:
            noisy = job.profile.gpu_util * self._rng.normal(
                1.0, self.prediction_noise)
            cached = float(np.clip(noisy, 1.0, 100.0))
            self._predicted[job.job_id] = cached
        return cached

    def _find_pack_target(self, job: Job) -> Optional[Job]:
        """Best-fit running mate: same GPU count, single node, util fits."""
        if job.gpu_num > self.engine.cluster.gpus_per_node:
            return None
        job_util = self._predicted_util(job)
        best: Optional[Job] = None
        best_combined = -1.0
        for mate in self.engine.running_jobs():
            if (mate.gpu_num != job.gpu_num
                    or mate.gpu_num > self.engine.cluster.gpus_per_node
                    or mate.vc != job.vc
                    or mate.status is not JobStatus.RUNNING
                    or self.engine.mate_ids(mate)):
                continue
            combined = job_util + self._predicted_util(mate)
            if combined > self.util_target:
                continue
            gpus = find_shared(self.engine.cluster, self.engine.gpus_of(mate),
                               job.profile.gpu_mem_mb)
            if gpus is None:
                continue
            if combined > best_combined:  # best fit = densest packing
                best_combined = combined
                best = mate
        return best

    def _order_key(self, job: Job):
        # Horus predicts resource usage, not runtime: its queue order is
        # runtime-agnostic (arrival order with skip), which is why the
        # duration-aware schedulers out-order it.
        return (job.submit_time, job.job_id)

    def schedule(self, now: float) -> None:
        # Horus packs eagerly: colocation is attempted *before* exclusive
        # placement to drive utilization up, without Lucid's indolent
        # interference caution — the design difference that costs it under
        # contention-heavy traces like Philly (Table 4).
        for job in sorted(self.queue, key=self._order_key):
            mate = self._find_pack_target(job)
            if mate is not None:
                self.engine.start_job(job, self.engine.gpus_of(mate))
                self.queue.remove(job)
            elif self.try_place_exclusive(job):
                self.queue.remove(job)
