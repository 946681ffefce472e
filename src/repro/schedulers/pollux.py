"""Pollux-style elastic scheduler [OSDI'21] — the §4.7 comparison.

Pollux co-adapts each job's GPU allocation and batch size to maximize
cluster-wide *goodput*.  This lightweight reproduction keeps the two
properties the paper's comparison hinges on:

* **Elasticity** — jobs run on fewer or more GPUs than requested, with a
  diminishing-returns speedup curve and a rescale overhead.  Under light
  load elasticity accelerates jobs beyond their request; under heavy load
  every job is squeezed and the overheads dominate (Figure 14a crossover).
* **Adaptive training cost** — scaling the batch size buys throughput but
  degrades final model quality (Figure 14b; the paper measures 89.84% vs
  87.63% best validation accuracy for EfficientNet).

It also inherits Pollux's scalability ceiling: each round solves a
cluster-wide reallocation, so decision latency grows with job count
(benchmarked in Figure 10a's comparison).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.metrics import SimulationResult, UtilizationSummary
from repro.workloads.job import Job, JobRecord

#: Seconds of lost work whenever a job's allocation changes (checkpoint,
#: re-partition, warmup) — Pollux's elasticity is user-code intrusive.
RESCALE_OVERHEAD = 30.0
#: Throughput bonus of adaptive batch-size scaling.
ADAPTIVE_SPEEDUP = 1.10


def elastic_speedup(allocated: int, requested: int) -> float:
    """Relative speed at ``allocated`` GPUs vs the requested allocation.

    Below the request the loss is *super-linear* (exponent > 1): squeezing
    a job onto fewer replicas than it was tuned for shrinks its effective
    batch and pays fixed per-step costs, so aggregate per-GPU goodput
    drops — the reason Pollux's rescaling "techniques are limited when
    clusters are overloaded" (§4.7).  Above the request returns diminish
    (statistical efficiency), capped at 1.6x.
    """
    if allocated <= 0:
        return 0.0
    ratio = allocated / requested
    if ratio <= 1.0:
        return ratio ** 1.3
    return min(1.6, 1.0 + 0.45 * math.log2(ratio))


class PolluxSimulator:
    """Round-based elastic cluster simulator.

    Parameters
    ----------
    n_gpus:
        Cluster size (Pollux ignores VC partitions; it manages the pool).
    round_interval:
        Seconds between reallocation rounds (Pollux uses 60 s).
    adaptive:
        Enable batch-size adaptation (throughput bonus, quality cost).
    """

    def __init__(self, n_gpus: int, round_interval: float = 60.0,
                 adaptive: bool = True) -> None:
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        self.n_gpus = n_gpus
        self.round_interval = round_interval
        self.adaptive = adaptive

    # ------------------------------------------------------------------
    def _allocate(self, active: List[Job]) -> Dict[int, int]:
        """Greedy marginal-goodput allocation of the GPU pool."""
        alloc: Dict[int, int] = {j.job_id: 0 for j in active}
        free = self.n_gpus
        # Guarantee progress: one GPU per job while capacity lasts,
        # shortest-remaining first (Pollux's fairness-adjusted goodput
        # strongly favours jobs close to completion).
        for job in sorted(active, key=lambda j: j.remaining):
            if free <= 0:
                break
            alloc[job.job_id] = 1
            free -= 1
        # Spend the rest on the best marginal speedup per GPU.
        while free > 0:
            best_job = None
            best_gain = 0.0
            for job in active:
                a = alloc[job.job_id]
                if a == 0:
                    continue
                gain = (elastic_speedup(a + 1, job.gpu_num)
                        - elastic_speedup(a, job.gpu_num))
                if gain > best_gain:
                    best_gain = gain
                    best_job = job
            if best_job is None or best_gain <= 1e-6:
                break
            alloc[best_job.job_id] += 1
            free -= 1
        return alloc

    def run(self, jobs: Sequence[Job]) -> SimulationResult:
        """Simulate the trace and return engine-compatible results."""
        pending = sorted(jobs, key=lambda j: j.submit_time)
        for job in pending:
            job.progress = 0.0
            job.service_time = 0.0
            job.finish_time = None
        active: List[Job] = []
        records: List[JobRecord] = []
        prev_alloc: Dict[int, int] = {}
        overhead_left: Dict[int, float] = {}
        now = 0.0
        idx = 0
        n_total = len(pending)
        busy_integral = 0.0
        while len(records) < n_total:
            # Admit arrivals up to now.
            while idx < n_total and pending[idx].submit_time <= now:
                job = pending[idx]
                active.append(job)
                overhead_left[job.job_id] = 0.0
                idx += 1
            if not active:
                now = pending[idx].submit_time
                continue
            alloc = self._allocate(active)
            for job in active:
                if alloc[job.job_id] != prev_alloc.get(job.job_id) and \
                        prev_alloc.get(job.job_id, 0) > 0:
                    overhead_left[job.job_id] = RESCALE_OVERHEAD
            prev_alloc = dict(alloc)
            # Advance one round (or to the next arrival if sooner).
            horizon = now + self.round_interval
            if idx < n_total:
                horizon = min(horizon, pending[idx].submit_time)
            dt = max(1e-9, horizon - now)
            busy_integral += sum(alloc.values()) * dt
            finished: List[Job] = []
            for job in active:
                a = alloc[job.job_id]
                if a == 0:
                    continue
                lag = min(dt, overhead_left[job.job_id])
                overhead_left[job.job_id] -= lag
                productive = dt - lag
                speed = elastic_speedup(a, job.gpu_num)
                if self.adaptive:
                    speed *= ADAPTIVE_SPEEDUP
                job.progress += productive * speed
                job.service_time += productive
                if job.progress >= job.duration - 1e-9:
                    # Interpolate the exact completion instant.
                    overshoot = ((job.progress - job.duration)
                                 / max(speed, 1e-9))
                    job.finish_time = horizon - overshoot
                    job.progress = job.duration
                    finished.append(job)
            for job in finished:
                active.remove(job)
                records.append(JobRecord.from_job(job))
            now = horizon
        busy = busy_integral / (self.n_gpus * max(now, 1e-9))
        return SimulationResult(
            records=records, makespan=now,
            utilization=UtilizationSummary(gpu_busy=min(1.0, busy),
                                           gpu_shared=0.0, memory_used=0.0))

    def decision_latency(self, n_jobs: int) -> float:
        """Model of per-round solver latency as a function of job count.

        Pollux reports ~30 min for a 160-job trace and >3 h for 320 jobs
        (§4.1); its round solve scales super-linearly.  Used only by the
        scalability comparison in Figure 10a.
        """
        return 2e-4 * n_jobs ** 1.8


def validation_accuracy(epochs: int, adaptive: bool,
                        seed: int = 0) -> np.ndarray:
    """Synthetic EfficientNet validation-accuracy curve (Figure 14b).

    Saturating learning curve with small noise; adaptive (large-batch)
    training converges a little faster but to a lower plateau — 87.63% vs
    89.84% best accuracy, the paper's measured gap (G3).
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    rng = np.random.default_rng(seed)
    e = np.arange(1, epochs + 1, dtype=float)
    if adaptive:
        plateau, rate = 87.63, 28.0
    else:
        plateau, rate = 89.84, 35.0
    curve = 35.0 + (plateau - 35.0) * (1.0 - np.exp(-e / rate))
    noise = rng.normal(0.0, 0.35, size=epochs) * np.exp(-e / (epochs / 2))
    return np.minimum(plateau, curve + noise)
