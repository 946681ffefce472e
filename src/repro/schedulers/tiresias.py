"""Tiresias: discretized two-queue Least-Attained-Service [NSDI'19].

Tiresias is the paper's strongest intrusive baseline: a preemptive policy
that prioritizes jobs with the least attained GPU service, demoting jobs
to a lower-priority queue once their consumed GPU-seconds cross a
threshold.  Preemption requires user-code checkpointing; the paper reports
an average checkpoint-resume cost of 62 s per preemption, which this
implementation charges as non-productive occupancy on every resume (it
surfaces as queuing delay, matching §4.8's "additional 13% queuing
overhead").
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.schedulers.base import Scheduler
from repro.workloads.job import Job

#: Checkpoint + cold-start cost charged on every resume (paper §4.8).
PREEMPTION_OVERHEAD = 62.0


class TiresiasScheduler(Scheduler):
    """Discretized 2-queue LAS with round-based preemptive reshuffles.

    Parameters
    ----------
    queue_threshold:
        Attained service (GPU-seconds) above which a job is demoted to the
        low-priority queue.
    round_interval:
        Seconds between full preemptive reshuffles; between rounds, free
        GPUs are filled without preemption.
    """

    name = "tiresias"

    def __init__(self, queue_threshold: float = 6 * 3600.0,
                 round_interval: float = 450.0) -> None:
        super().__init__()
        if queue_threshold <= 0 or round_interval <= 0:
            raise ValueError("thresholds must be positive")
        self.queue_threshold = queue_threshold
        self.round_interval = round_interval
        self.tick_interval = round_interval
        self._next_round = 0.0

    # ------------------------------------------------------------------
    def _attained_service(self, job: Job, now: float) -> float:
        """GPU-seconds of service, including the in-flight run segment."""
        service = job.service_time
        state = self.engine.run_states.get(job.job_id)
        if state is not None:
            service += max(0.0, now - state.last_update - state.overhead_left)
        return service * job.gpu_num

    def _queue_index(self, job: Job, now: float) -> int:
        return 0 if self._attained_service(job, now) < self.queue_threshold else 1

    def _priority_order(self, jobs: List[Job], now: float) -> List[Job]:
        return sorted(jobs, key=lambda j: (self._queue_index(j, now),
                                           j.submit_time, j.job_id))

    def _resume_overhead(self, job: Job) -> float:
        return PREEMPTION_OVERHEAD if job.preemptions > 0 else 0.0

    # ------------------------------------------------------------------
    def schedule(self, now: float) -> None:
        if now >= self._next_round:
            self._reshuffle(now)
            self._next_round = now + self.round_interval
        else:
            self._fill_free(now)

    def _fill_free(self, now: float) -> None:
        """Start pending jobs on free GPUs without preempting anyone."""
        for job in self._priority_order(list(self.queue), now):
            if self.try_place_exclusive(job, overhead=self._resume_overhead(job)):
                self.queue.remove(job)

    def _reshuffle(self, now: float) -> None:
        """Full preemptive reallocation in LAS priority order."""
        running = list(self.engine.running_jobs())
        candidates = self._priority_order(running + list(self.queue), now)

        # Greedily pick the target running set within each VC's capacity.
        capacity: Dict[str, int] = {
            name: vc.n_gpus
            for name, vc in sorted(self.engine.cluster.vcs.items())}
        target: Set[int] = set()
        for job in candidates:
            if capacity.get(job.vc, 0) >= job.gpu_num:
                capacity[job.vc] -= job.gpu_num
                target.add(job.job_id)

        for job in running:
            if job.job_id not in target:
                self.engine.stop_job(job, preempted=True)
                self.queue.append(job)

        for job in self._priority_order(list(self.queue), now):
            if job.job_id not in target:
                continue
            if self.try_place_exclusive(job, overhead=self._resume_overhead(job)):
                self.queue.remove(job)
