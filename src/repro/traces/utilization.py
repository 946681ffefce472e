"""Utilization-mix trace variants and CDF helpers (Figure 12a).

The paper evaluates Lucid's sensitivity to the cluster-wide GPU-utilization
distribution by generating Venus variants whose workload mix skews light
(Venus-L, mimicking Alibaba PAI), medium (Venus-M, the default used in the
end-to-end experiments) or heavy (Venus-H).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.traces.spec import (
    TraceSpec,
    UTIL_HIGH,
    UTIL_LOW,
    UTIL_MEDIUM,
)
from repro.workloads.job import Job


def utilization_variants(spec: TraceSpec) -> Dict[str, TraceSpec]:
    """The L/M/H variants of a trace spec, keyed ``"L"``/``"M"``/``"H"``."""
    return {
        UTIL_LOW: spec.with_utilization(UTIL_LOW),
        UTIL_MEDIUM: spec.with_utilization(UTIL_MEDIUM),
        UTIL_HIGH: spec.with_utilization(UTIL_HIGH),
    }


def job_utilization_samples(jobs: Sequence[Job]) -> np.ndarray:
    """Per-job exclusive GPU utilizations, for CDF plots like Figure 12a."""
    return np.array([job.profile.gpu_util for job in jobs])


def utilization_cdf(jobs: Sequence[Job],
                    grid: Sequence[float] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of job GPU utilization.

    Returns ``(grid, cdf)`` where ``cdf[i]`` is the fraction of jobs whose
    exclusive GPU utilization is <= ``grid[i]``.
    """
    samples = job_utilization_samples(jobs)
    xs = np.asarray(grid, dtype=float) if grid is not None else np.linspace(0, 100, 101)
    if samples.size == 0:
        return xs, np.zeros_like(xs)
    sorted_samples = np.sort(samples)
    cdf = np.searchsorted(sorted_samples, xs, side="right") / samples.size
    return xs, cdf


def mean_utilization(jobs: Sequence[Job]) -> float:
    """GPU-demand-weighted mean exclusive utilization of a job population."""
    if not jobs:
        return 0.0
    weights = np.array([job.gpu_num for job in jobs], dtype=float)
    utils = job_utilization_samples(jobs)
    return float(np.average(utils, weights=weights))
