"""Job abstractions for the cluster simulator.

A :class:`Job` carries everything the *simulator* knows about a training job
(including ground truth such as its true duration), while a :class:`JobView`
exposes only the fields a **non-intrusive** scheduler is allowed to observe.
Intrusive baselines (Tiresias, Horus, Pollux) are explicitly constructed with
access to wider information; Lucid only ever sees ``JobView``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.workloads.model_zoo import ResourceProfile


class JobStatus(enum.Enum):
    """Lifecycle states of a job inside the simulator."""

    SUBMITTED = "submitted"
    PROFILING = "profiling"
    PENDING = "pending"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    #: Killed by a fault, waiting out its retry backoff.
    CRASHED = "crashed"
    #: Terminal: retry budget exhausted, job abandoned.
    FAILED = "failed"


@dataclass
class Job:
    """A deep-learning training job as replayed by the simulator.

    Attributes
    ----------
    job_id:
        Unique integer id, assigned in submission order.
    name:
        User-visible job name (recurring jobs share similar names).
    user:
        Submitting user name.
    vc:
        Virtual cluster the job belongs to.
    submit_time:
        Submission timestamp in seconds since the trace epoch.
    duration:
        Ground-truth *exclusive-execution* time in seconds, i.e. the wall
        time the job needs when running alone on its requested GPUs.
    gpu_num:
        Number of requested GPUs.
    profile:
        Ground-truth per-GPU resource profile of the workload.
    amp:
        Whether the job uses automatic mixed precision (the only optional
        user-declared metric Lucid consumes, per the paper's Figure 6).
    template_id:
        Identifier of the recurring-job template this submission was drawn
        from, or ``None`` for one-off jobs.  Only used by trace generators
        and oracle analyses, never by schedulers.
    """

    job_id: int
    name: str
    user: str
    vc: str
    submit_time: float
    duration: float
    gpu_num: int
    profile: ResourceProfile
    amp: bool = False
    template_id: Optional[int] = None
    #: Optional completion deadline (absolute trace time); jobs without a
    #: deadline are best-effort.  Used by the SLO extension (paper SS6).
    deadline: Optional[float] = None
    #: CPU threads requested per GPU (data loading / preprocessing).  Only
    #: consulted when the simulator's CPU model is enabled (paper SS6:
    #: "fully exploit affiliated resources").
    cpu_per_gpu: float = 4.0
    #: Exponent of the slowdown when CPU-starved: speed *= share**sens.
    #: 0 = insensitive (compute-bound), 1 = fully data-loading-bound.
    cpu_sensitivity: float = 0.5

    # --- mutable simulation state ------------------------------------
    status: JobStatus = JobStatus.SUBMITTED
    progress: float = 0.0  # completed exclusive-execution seconds
    finish_time: Optional[float] = None
    first_start_time: Optional[float] = None
    service_time: float = 0.0  # wall-clock seconds spent executing
    preemptions: int = 0
    profiled: bool = False
    finished_in_profiler: bool = False
    measured_profile: Optional[ResourceProfile] = None
    #: Fault-injection state: crashes survived so far and the exclusive-
    #: execution seconds rolled back to the last checkpoint across them.
    restarts: int = 0
    lost_work: float = 0.0

    # Scratch fields owned by whichever scheduler is active.
    sharing_score: Optional[int] = None
    estimated_duration: Optional[float] = None
    priority: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"job {self.job_id}: duration must be > 0")
        if self.gpu_num <= 0:
            raise ValueError(f"job {self.job_id}: gpu_num must be > 0")

    @property
    def remaining(self) -> float:
        """Exclusive-execution seconds still to run."""
        return max(0.0, self.duration - self.progress)

    @property
    def jct(self) -> Optional[float]:
        """Job completion time, or ``None`` if the job has not finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def queue_delay(self) -> Optional[float]:
        """Total non-executing wall time between submission and completion."""
        if self.finish_time is None:
            return None
        return max(0.0, self.jct - self.service_time)

    def view(self) -> "JobView":
        """Return the non-intrusive projection of this job."""
        return JobView(
            job_id=self.job_id,
            name=self.name,
            user=self.user,
            vc=self.vc,
            submit_time=self.submit_time,
            gpu_num=self.gpu_num,
            amp=self.amp,
            measured_profile=self.measured_profile,
        )


@dataclass
class JobView:
    """What a non-intrusive scheduler may observe about a job.

    The view deliberately omits the ground-truth duration and true resource
    profile.  ``measured_profile`` is populated only after the job passed
    through the non-intrusive profiler (NVIDIA-SMI style sampling) and
    includes measurement noise.
    """

    job_id: int
    name: str
    user: str
    vc: str
    submit_time: float
    gpu_num: int
    amp: bool
    measured_profile: Optional[ResourceProfile] = None


@dataclass
class JobRecord:
    """Completed-job record used for model training and metric reports."""

    job_id: int
    name: str
    user: str
    vc: str
    submit_time: float
    duration: float
    gpu_num: int
    jct: float
    queue_delay: float
    preemptions: int
    finished_in_profiler: bool
    profile: Optional[ResourceProfile] = None
    deadline: Optional[float] = None
    #: Fault-injection outcome: restarts survived; ``failed`` marks a job
    #: that exhausted its retry budget (its ``jct`` is time-to-abandonment).
    restarts: int = 0
    failed: bool = False

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job finished by its deadline (None = best-effort)."""
        if self.deadline is None:
            return None
        return self.submit_time + self.jct <= self.deadline

    @classmethod
    def from_job(cls, job: Job) -> "JobRecord":
        if job.finish_time is None:
            raise ValueError(f"job {job.job_id} has not finished")
        return cls(
            job_id=job.job_id,
            name=job.name,
            user=job.user,
            vc=job.vc,
            submit_time=job.submit_time,
            duration=job.duration,
            gpu_num=job.gpu_num,
            jct=job.jct,
            queue_delay=job.queue_delay,
            preemptions=job.preemptions,
            finished_in_profiler=job.finished_in_profiler,
            profile=job.measured_profile or job.profile,
            deadline=job.deadline,
            restarts=job.restarts,
            failed=job.status is JobStatus.FAILED,
        )
