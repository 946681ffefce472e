"""Trace specifications for the three production clusters of Table 2.

The real Helios (SenseTime Venus/Saturn) and Microsoft Philly traces are
public but not bundled offline, so this reproduction synthesizes job streams
from seeded statistical generators whose parameters are taken from Table 2
and the workload characterization of §2.2:

* Venus  — 1,080 GPUs, 15 VCs, 23,859 jobs in September, mean 5,419 s
* Saturn — 2,080 GPUs, 20 VCs, 101,254 jobs in September, mean 13,006 s
* Philly — 864 GPUs, 1 VC, 12,389 jobs in one week of October, mean 25,533 s

plus the cross-cluster invariants: >95% of jobs within 8 GPUs, ~90%
recurring submissions, a large population of short debugging jobs, and
diurnal submission patterns.  Default job counts are scaled down so the
benchmark suite completes in minutes; ``scaled(1.0)`` restores paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

#: Utilization-mix variants of Figure 12(a).
UTIL_LOW = "L"
UTIL_MEDIUM = "M"
UTIL_HIGH = "H"

#: Exponential bias applied to model sampling per utilization variant.
UTILIZATION_BIAS: Dict[str, float] = {UTIL_LOW: -1.6, UTIL_MEDIUM: 0.0, UTIL_HIGH: 1.6}


@dataclass(frozen=True)
class TraceSpec:
    """Statistical description of one production trace.

    Attributes
    ----------
    name:
        Cluster name (``venus``/``saturn``/``philly`` or custom).
    n_nodes:
        Number of 8-GPU servers.
    n_vcs:
        Number of virtual clusters the nodes are partitioned into.
    n_jobs:
        Number of jobs to synthesize (already scaled for fast benches).
    full_n_jobs:
        Paper-scale job count from Table 2.
    mean_duration:
        Target mean job duration in seconds.
    span_days:
        Horizon over which submissions arrive.
    n_users:
        Size of the user population (Zipf-distributed activity).
    recurrence:
        Probability that a submission re-runs an existing template (§2.3).
    short_fraction:
        Mixture weight of short debugging/test jobs (§2.2).
    utilization:
        Workload-mix variant: ``"L"``, ``"M"`` or ``"H"`` (Figure 12a).
    seed:
        Base RNG seed; all generated artifacts are deterministic in it.
    """

    name: str
    n_nodes: int
    n_vcs: int
    n_jobs: int
    full_n_jobs: int
    mean_duration: float
    span_days: float
    n_users: int
    recurrence: float = 0.90
    short_fraction: float = 0.62
    utilization: str = UTIL_MEDIUM
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.utilization not in UTILIZATION_BIAS:
            raise ValueError(f"utilization must be one of {sorted(UTILIZATION_BIAS)}")
        if not 0.0 <= self.recurrence <= 1.0:
            raise ValueError("recurrence must be in [0, 1]")
        if self.n_jobs <= 0 or self.n_nodes <= 0 or self.n_vcs <= 0:
            raise ValueError("n_jobs, n_nodes and n_vcs must be positive")
        if self.n_vcs > self.n_nodes:
            raise ValueError("cannot have more VCs than nodes")

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * 8

    @property
    def utilization_bias(self) -> float:
        return UTILIZATION_BIAS[self.utilization]

    def scaled(self, fraction: float) -> "TraceSpec":
        """Return a copy with ``n_jobs`` set to a fraction of paper scale."""
        if fraction <= 0:
            raise ValueError("fraction must be > 0")
        return replace(self, n_jobs=max(1, int(self.full_n_jobs * fraction)))

    def with_utilization(self, level: str) -> "TraceSpec":
        """Return the Venus-L/M/H style variant of this spec (Figure 12)."""
        return replace(self, utilization=level)

    def with_seed(self, seed: int) -> "TraceSpec":
        return replace(self, seed=seed)

    def with_jobs(self, n_jobs: int) -> "TraceSpec":
        return replace(self, n_jobs=n_jobs)


# ---------------------------------------------------------------------------
# Table 2 presets.  Default n_jobs keeps a full 6-scheduler sweep of all
# three clusters within a few minutes of wall time.
# ---------------------------------------------------------------------------
# NOTE on scaling: simulating the paper-scale month of 10^5 jobs on 10^3
# GPUs takes hours in pure Python, so the default presets scale *both* the
# job count and the cluster size down while preserving the offered load
# (sum of GPU-seconds demanded / GPU-seconds available ~ 0.5-0.7 with
# diurnal peaks above 1), which is what produces realistic queuing
# dynamics.  ``paper_scale()`` restores Table-2 dimensions.

VENUS = TraceSpec(
    name="venus", n_nodes=60, n_vcs=15,
    n_jobs=2400, full_n_jobs=23_859, mean_duration=5_419.0,
    span_days=3.0, n_users=120, seed=41,
)
VENUS_FULL = TraceSpec(
    name="venus", n_nodes=135, n_vcs=15,
    n_jobs=23_859, full_n_jobs=23_859, mean_duration=5_419.0,
    span_days=30.0, n_users=400, seed=41,
)

SATURN = TraceSpec(
    name="saturn", n_nodes=200, n_vcs=20,
    n_jobs=3600, full_n_jobs=101_254, mean_duration=13_006.0,
    span_days=4.0, n_users=200, seed=42,
)
SATURN_FULL = TraceSpec(
    name="saturn", n_nodes=260, n_vcs=20,
    n_jobs=101_254, full_n_jobs=101_254, mean_duration=13_006.0,
    span_days=30.0, n_users=800, seed=42,
)

PHILLY = TraceSpec(
    name="philly", n_nodes=80, n_vcs=1,
    n_jobs=2200, full_n_jobs=12_389, mean_duration=25_533.0,
    span_days=4.0, n_users=80, short_fraction=0.55, seed=43,
)
PHILLY_FULL = TraceSpec(
    name="philly", n_nodes=108, n_vcs=1,
    n_jobs=12_389, full_n_jobs=12_389, mean_duration=25_533.0,
    span_days=7.0, n_users=300, short_fraction=0.55, seed=43,
)

TRACES: Dict[str, TraceSpec] = {s.name: s for s in (VENUS, SATURN, PHILLY)}


def get_spec(name: str) -> TraceSpec:
    """Look up one of the Table-2 trace presets by cluster name."""
    try:
        return TRACES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown trace {name!r}; known: {sorted(TRACES)}") from None
