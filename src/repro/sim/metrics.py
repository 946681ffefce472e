"""Simulation metrics: JCT, queuing delay, utilization, CDFs.

Definitions follow the paper:

* **JCT** — finish time minus submission time.
* **Queuing delay** — JCT minus the wall time the job actually spent
  executing (profiling runs count as executing; preemption/restore overhead
  does not, so Tiresias' checkpoint costs surface as queuing, matching the
  paper's "preemption causes an additional 13% queuing overhead").
* **Makespan** — completion time of the last job.
* **GPU utilization** — time-weighted fraction of GPUs hosting >= 1 job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import Telemetry
from repro.workloads.job import JobRecord

#: Job-scale boundary used by Table 5 (large = more than one 8-GPU node).
LARGE_JOB_GPUS = 8
#: "Short-term" boundary for the debugging-feedback metric (§4.3).
SHORT_JOB_SECONDS = 60.0


class UtilizationTracker:
    """Time-weighted integration of cluster occupancy.

    The engine calls :meth:`update` on every occupancy-changing event; the
    tracker accumulates GPU-busy, GPU-shared and memory-used integrals and
    reports time-averaged values, mirroring the paper's per-minute sampling
    of active GPUs.  Each update reads the cluster's incrementally kept
    counters: two integers and one flat sum of per-GPU reservations.
    """

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        #: Capacity is fixed for a run (heterogeneous builds stamp it
        #: before the engine exists); the sanitizer re-checks it.
        self.memory_total_mb = cluster.memory_capacity_mb()
        self._last_time = 0.0
        self._busy_integral = 0.0
        self._shared_integral = 0.0
        self._memory_integral = 0.0
        self._elapsed = 0.0
        self._last_busy = 0.0
        self._last_shared = 0.0
        self._last_memory = 0.0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["memory_total_mb"]  # derived: re-read on unpickling
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.memory_total_mb = self._cluster.memory_capacity_mb()

    def update(self, now: float) -> None:
        dt = now - self._last_time
        if dt > 0:
            self._busy_integral += self._last_busy * dt
            self._shared_integral += self._last_shared * dt
            self._memory_integral += self._last_memory * dt
            self._elapsed += dt
            self._last_time = now
        cluster = self._cluster
        total = self.memory_total_mb
        self._last_busy = cluster.active_gpu_fraction()
        self._last_shared = cluster.shared_gpu_fraction()
        self._last_memory = (cluster.memory_used_mb() / total if total
                             else 0.0)

    def summary(self) -> "UtilizationSummary":
        if self._elapsed <= 0:
            return UtilizationSummary(0.0, 0.0, 0.0)
        return UtilizationSummary(
            gpu_busy=self._busy_integral / self._elapsed,
            gpu_shared=self._shared_integral / self._elapsed,
            memory_used=self._memory_integral / self._elapsed,
        )


@dataclass(frozen=True)
class UtilizationSummary:
    """Time-averaged cluster occupancy over a simulation."""

    gpu_busy: float
    gpu_shared: float
    memory_used: float


@dataclass(frozen=True)
class FaultStats:
    """Failure-aware accounting of one fault-injected run.

    Work is measured in exclusive-execution GPU units (the engine's
    progress model): ``goodput`` is the fraction of executed GPU-work
    that landed in finished jobs, the complement being checkpoint
    rollback losses plus the progress of permanently failed jobs.
    """

    node_failures: int = 0
    node_recoveries: int = 0
    slowdowns: int = 0
    #: Fault kills of running jobs (node failures + targeted crashes).
    job_crashes: int = 0
    #: Requeues granted by the retry policy.
    restarts: int = 0
    #: Jobs that exhausted their retry budget (terminal FAILED).
    jobs_failed: int = 0
    lost_gpu_hours: float = 0.0
    goodput: float = 1.0
    #: Mean time to repair across *completed* node recoveries (seconds).
    #: Repairs still in flight when the simulation ends are censored
    #: observations: folding their (truncated) durations into the mean
    #: would bias MTTR low, so they are excluded here and reported via
    #: ``censored_repairs`` / ``censored_repair_hours`` instead.
    mttr: float = 0.0
    #: Node-repair windows still open at simulation end.
    censored_repairs: int = 0
    #: Downtime those open windows had accumulated by simulation end
    #: (hours) — a lower bound on their eventual repair time.
    censored_repair_hours: float = 0.0


@dataclass
class SimulationResult:
    """All measurements from one simulation run."""

    records: List[JobRecord]
    makespan: float
    utilization: UtilizationSummary
    #: Observability payload (:class:`repro.obs.tracer.Telemetry`) when
    #: the run was traced; ``None`` — and every other field bit-identical
    #: to an untraced run — otherwise.
    telemetry: Optional["Telemetry"] = None
    #: Failure accounting when fault injection was armed; ``None`` (and
    #: nothing else changed) on fault-free runs.
    faults: Optional[FaultStats] = None

    # ------------------------------------------------------------------
    # Core aggregates
    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.records)

    def jcts(self) -> np.ndarray:
        return np.array([r.jct for r in self.records])

    def queue_delays(self) -> np.ndarray:
        return np.array([r.queue_delay for r in self.records])

    @property
    def avg_jct(self) -> float:
        return float(np.mean(self.jcts())) if self.records else 0.0

    @property
    def avg_queue_delay(self) -> float:
        return float(np.mean(self.queue_delays())) if self.records else 0.0

    def queue_percentile(self, pct: float) -> float:
        """Queuing-delay percentile, e.g. ``99.9`` for Table 4's tail."""
        if not self.records:
            return 0.0
        return float(np.percentile(self.queue_delays(), pct))

    # ------------------------------------------------------------------
    # Breakdowns
    # ------------------------------------------------------------------
    def by_vc(self) -> Dict[str, List[JobRecord]]:
        groups: Dict[str, List[JobRecord]] = {}
        for record in self.records:
            groups.setdefault(record.vc, []).append(record)
        return groups

    def avg_queue_by_vc(self) -> Dict[str, float]:
        """Average queuing delay per virtual cluster (Figure 9)."""
        return {vc: float(np.mean([r.queue_delay for r in rs]))
                for vc, rs in sorted(self.by_vc().items())}

    def scale_split(self, boundary: int = LARGE_JOB_GPUS
                    ) -> Dict[str, "ScaleStats"]:
        """Large-scale vs small-scale job statistics (Table 5)."""
        large = [r for r in self.records if r.gpu_num > boundary]
        small = [r for r in self.records if r.gpu_num <= boundary]
        return {
            "large": ScaleStats.from_records(large),
            "small": ScaleStats.from_records(small),
        }

    def short_jobs_queued(self, duration_limit: float = SHORT_JOB_SECONDS,
                          queue_threshold: float = 60.0) -> int:
        """Short jobs that experienced nontrivial queuing (§4.3 feedback)."""
        return sum(1 for r in self.records
                   if r.duration <= duration_limit
                   and r.queue_delay > queue_threshold)

    def profiler_finish_rate(self) -> float:
        """Fraction of jobs that completed during the profiling stage."""
        if not self.records:
            return 0.0
        done = sum(1 for r in self.records if r.finished_in_profiler)
        return done / len(self.records)

    def total_preemptions(self) -> int:
        return sum(r.preemptions for r in self.records)

    def total_restarts(self) -> int:
        """Fault-retry restarts across all jobs (0 on fault-free runs)."""
        return sum(r.restarts for r in self.records)

    def failed_jobs(self) -> List[JobRecord]:
        """Jobs that exhausted their retry budget."""
        return [r for r in self.records if r.failed]

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def jct_cdf(self, grid: Optional[Sequence[float]] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical JCT CDF ``(grid_seconds, fraction_of_jobs)``.

        Defaults to a log-spaced grid from 1 s to 10^6 s like Figure 8.
        """
        jcts = np.sort(self.jcts())
        xs = (np.asarray(grid, dtype=float) if grid is not None
              else np.logspace(0, 6, 61))
        if jcts.size == 0:
            return xs, np.zeros_like(xs)
        cdf = np.searchsorted(jcts, xs, side="right") / jcts.size
        return xs, cdf

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by benchmark tables."""
        out = {
            "n_jobs": float(self.n_jobs),
            "makespan_hrs": self.makespan / 3600.0,
            "avg_jct_hrs": self.avg_jct / 3600.0,
            "avg_queue_hrs": self.avg_queue_delay / 3600.0,
            "p999_queue_hrs": self.queue_percentile(99.9) / 3600.0,
            "gpu_busy": self.utilization.gpu_busy,
            "gpu_shared": self.utilization.gpu_shared,
            "memory_used": self.utilization.memory_used,
            "profiler_finish_rate": self.profiler_finish_rate(),
            "preemptions": float(self.total_preemptions()),
        }
        if self.faults is not None:
            out.update({
                "node_failures": float(self.faults.node_failures),
                "job_crashes": float(self.faults.job_crashes),
                "restarts": float(self.faults.restarts),
                "jobs_failed": float(self.faults.jobs_failed),
                "lost_gpu_hours": self.faults.lost_gpu_hours,
                "goodput": self.faults.goodput,
                "mttr_hrs": self.faults.mttr / 3600.0,
                "censored_repairs": float(self.faults.censored_repairs),
            })
        return out


@dataclass(frozen=True)
class ScaleStats:
    """Average JCT / queuing delay of one job-scale class (Table 5)."""

    n_jobs: int
    avg_jct: float
    avg_queue_delay: float

    @classmethod
    def from_records(cls, records: Sequence[JobRecord]) -> "ScaleStats":
        if not records:
            return cls(0, 0.0, 0.0)
        return cls(
            n_jobs=len(records),
            avg_jct=float(np.mean([r.jct for r in records])),
            avg_queue_delay=float(np.mean([r.queue_delay for r in records])),
        )


def speedup(baseline: float, improved: float) -> float:
    """Paper-style improvement factor ("Lucid improves X by 1.3x")."""
    if improved <= 0:
        return float("inf")
    return baseline / improved
