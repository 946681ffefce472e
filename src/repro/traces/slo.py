"""Deadline assignment and SLO metrics (paper §6 extension)."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.sim.metrics import SimulationResult
from repro.workloads.job import Job


def assign_deadlines(jobs: Sequence[Job], fraction: float = 0.3,
                     slack_range: Tuple[float, float] = (1.5, 4.0),
                     seed: int = 0) -> int:
    """Give a random fraction of jobs a completion deadline.

    A job's deadline is ``submit + slack * duration`` with ``slack`` drawn
    uniformly from ``slack_range`` — the usual way deadline workloads are
    synthesized (e.g. Chronus): the SLO is proportional to the work.
    Returns the number of deadline jobs.  Mutates the jobs in place.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    lo, hi = slack_range
    if not 1.0 <= lo <= hi:
        raise ValueError("slack_range must satisfy 1 <= lo <= hi")
    rng = np.random.default_rng(seed)
    count = 0
    for job in jobs:
        if rng.random() < fraction:
            slack = float(rng.uniform(lo, hi))
            job.deadline = job.submit_time + slack * job.duration
            count += 1
        else:
            job.deadline = None
    return count


def slo_report(result: SimulationResult) -> Dict[str, float]:
    """SLO attainment statistics of a finished simulation.

    Returns the number of deadline jobs, the attainment rate (fraction
    finishing by their deadline), the mean lateness of missed jobs in
    hours, and the best-effort average JCT (hours) so the cost of SLO
    prioritization is visible.
    """
    deadline_records = [r for r in result.records if r.deadline is not None]
    best_effort = [r for r in result.records if r.deadline is None]
    met = [r for r in deadline_records if r.met_deadline]
    missed = [r for r in deadline_records if not r.met_deadline]
    lateness = [
        (r.submit_time + r.jct - r.deadline) / 3600.0 for r in missed
    ]
    return {
        "n_slo_jobs": float(len(deadline_records)),
        "attainment": (len(met) / len(deadline_records)
                       if deadline_records else 1.0),
        "mean_lateness_hrs": float(np.mean(lateness)) if lateness else 0.0,
        "best_effort_jct_hrs": (
            float(np.mean([r.jct for r in best_effort])) / 3600.0
            if best_effort else 0.0),
    }
