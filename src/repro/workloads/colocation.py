"""Colocation interference model (paper §2.3, Figures 2, 3 and 5).

The paper's key empirical finding is that the *accumulated GPU utilization*
of two colocated jobs strongly predicts their normalized speed: pairs whose
utilizations sum to ~100% still retain ~0.92× speed on average, with
degradation accelerating beyond that (Figure 2a).  Memory-bandwidth
contention adds a second-order effect, and individual pairs scatter around
the fitted curve.

:class:`InterferenceModel` reproduces this structure.  It is the ground
truth the simulator uses to slow down packed jobs, and also the measurement
apparatus used to build the offline colocation dataset on which Lucid's
Packing Analyze Model is trained — exactly mirroring how the authors
profiled all Table-1 jobpair combinations on their RTX 3090 testbed.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.workloads.model_zoo import (
    GPU_MEMORY_MB,
    ResourceProfile,
    WorkloadConfig,
    all_configurations,
    get_profile,
)

# Quadratic fit through the paper's reported anchor points of Figure 2a:
# speed(60) = 1.0, speed(100) ~= 0.92, speed(200) ~= 0.60, where the
# argument is the accumulated *effective* utilization of the pair.
_KNEE = 60.0
_LIN = 1.657e-3
_QUAD = 8.571e-6

#: Weight of memory-bandwidth utilization in the effective load.  Small:
#: Figure 2a is parameterized by *GPU utilization* and memory bandwidth is
#: a second-order correction.
MEM_UTIL_WEIGHT = 0.10
#: Extra packing headroom of mixed-precision jobs (Figure 2b).
AMP_RELIEF = 0.93


def fitted_curve(accumulated_util: float) -> float:
    """Average normalized jobpair speed at a given accumulated utilization.

    This is the least-squares polynomial fit shown in Figure 2a.
    """
    if accumulated_util <= _KNEE:
        return 1.0
    x = accumulated_util - _KNEE
    return max(0.2, 1.0 - _LIN * x - _QUAD * x * x)


def _pair_hash(a: str, b: str) -> float:
    """Deterministic pseudo-random value in [0, 1) for an unordered pair."""
    # Canonical order via a single comparison — no list/sort per call.
    return _key_hash(a + "|" + b if a <= b else b + "|" + a)


@functools.lru_cache(maxsize=4096)
def _key_hash(key: str) -> float:
    """:func:`_pair_hash` of one canonical pair key.

    Memoized: a packing fit measures each of the 66 x 67 / 2 unordered
    configuration pairs from both sides, many times over.  Bounded,
    because the engine also keys pairs by job name.
    """
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class PairSpeeds:
    """Normalized speeds of two colocated jobs (1.0 = exclusive speed)."""

    first: float
    second: float

    @property
    def average(self) -> float:
        return (self.first + self.second) / 2.0


class InterferenceModel:
    """Ground-truth colocation slowdown model.

    Parameters
    ----------
    pair_noise_std:
        Standard deviation of the deterministic per-pair deviation from the
        fitted curve (the scatter visible in Figure 2a).
    gpu_memory_mb:
        Device memory used for out-of-memory feasibility checks.
    """

    def __init__(self, pair_noise_std: float = 0.035,
                 gpu_memory_mb: float = GPU_MEMORY_MB) -> None:
        self.pair_noise_std = pair_noise_std
        self.gpu_memory_mb = gpu_memory_mb

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def memory_fits(self, profiles: Sequence[ResourceProfile]) -> bool:
        """Whether the given workloads fit device memory together."""
        return sum(p.gpu_mem_mb for p in profiles) <= self.gpu_memory_mb

    # ------------------------------------------------------------------
    # Speed model
    # ------------------------------------------------------------------
    def effective_load(self, profiles: Sequence[ResourceProfile]) -> float:
        """Accumulated effective utilization of colocated workloads."""
        load = 0.0
        for p in profiles:
            contrib = p.gpu_util + MEM_UTIL_WEIGHT * p.gpu_mem_util
            if p.amp:
                contrib *= AMP_RELIEF
            load += contrib
        return load

    def pair_speeds(self, a: ResourceProfile, b: ResourceProfile,
                    pair_key: Tuple[str, str] = ("a", "b")) -> PairSpeeds:
        """Normalized speeds when workloads ``a`` and ``b`` share GPUs.

        The average follows :func:`fitted_curve` on the effective load with
        a deterministic per-pair offset; the split between the two jobs is
        mildly asymmetric — the lighter job is crowded out slightly more,
        matching the ResNet-18 vs DCGAN example of Figure 3a.
        """
        load = self.effective_load((a, b))
        avg = fitted_curve(load)
        # Deterministic scatter, reproducible across calls for a given pair.
        noise = (_pair_hash(*pair_key) - 0.5) * 2.0 * self.pair_noise_std
        avg = min(max(avg + noise, 0.25), 1.0)
        contention = max(0.0, load - _KNEE) / 140.0
        imbalance = 0.0
        total_util = a.gpu_util + b.gpu_util
        if total_util > 0:
            # Positive when `a` is the lighter job.
            imbalance = (b.gpu_util - a.gpu_util) / total_util
        skew = 0.12 * contention * imbalance
        first = min(max(avg - skew, 0.2), 1.0)
        second = min(max(avg + skew, 0.2), 1.0)
        return PairSpeeds(first=first, second=second)

    def k_way_speed(self, profiles: Sequence[ResourceProfile]) -> float:
        """Average speed for >2-way packing (acute degradation, §2.3)."""
        if len(profiles) <= 1:
            return 1.0
        load = self.effective_load(profiles)
        base = fitted_curve(load)
        # Every job beyond the second costs an extra multiplicative penalty.
        return float(base * 0.8 ** (len(profiles) - 2))


@dataclass(frozen=True)
class ColocationMeasurement:
    """One measured jobpair colocation (a row of the offline dataset)."""

    config_a: WorkloadConfig
    config_b: WorkloadConfig
    speed_a: float
    speed_b: float
    accumulated_util: float

    @property
    def average_speed(self) -> float:
        return (self.speed_a + self.speed_b) / 2.0


def measure_all_pairs(model: InterferenceModel,
                      configs: Iterable[WorkloadConfig] = None
                      ) -> List[ColocationMeasurement]:
    """Measure every feasible jobpair combination (the Figure 2a dataset).

    Mirrors the paper's testbed characterization: all Table-1 configuration
    pairs are colocated and their normalized speeds recorded.  Pairs that
    would exceed device memory are skipped (they cannot run at all).
    """
    config_list = list(configs) if configs is not None else all_configurations()
    measurements: List[ColocationMeasurement] = []
    for i, ca in enumerate(config_list):
        pa = get_profile(ca)
        for cb in config_list[i:]:
            pb = get_profile(cb)
            if not model.memory_fits((pa, pb)):
                continue
            speeds = model.pair_speeds(pa, pb, pair_key=(ca.key, cb.key))
            measurements.append(ColocationMeasurement(
                config_a=ca,
                config_b=cb,
                speed_a=speeds.first,
                speed_b=speeds.second,
                accumulated_util=pa.gpu_util + pb.gpu_util,
            ))
    return measurements


def average_colocation_speed(model: InterferenceModel,
                             config: WorkloadConfig,
                             partners: Iterable[WorkloadConfig] = None
                             ) -> float:
    """Mean normalized speed of ``config`` across all feasible partners.

    This is the quantity thresholded into Tiny/Medium/Jumbo sharing-score
    labels when building the Packing Analyze Model's training set (§3.5.1).
    """
    partner_list = list(partners) if partners is not None else all_configurations()
    profile = get_profile(config)
    speeds: List[float] = []
    for partner in partner_list:
        partner_profile = get_profile(partner)
        if not model.memory_fits((profile, partner_profile)):
            continue
        pair = model.pair_speeds(profile, partner_profile,
                                 pair_key=(config.key, partner.key))
        speeds.append(pair.first)
    if not speeds:
        return 1.0
    return float(np.mean(speeds))
