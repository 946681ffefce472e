"""Synthetic model zoo reproducing Table 1 of the Lucid paper.

The paper measures 14 PyTorch workloads (image classification, GAN, point
cloud, NLP, RL and recommendation models) across batch sizes {32, 64, 128}
and with/without automatic mixed precision (AMP), recording three
non-intrusive metrics per configuration:

* **GPU utilization** — fraction of sample intervals with at least one kernel
  resident on the GPU,
* **GPU memory utilization** — fraction of time the memory subsystem was
  read/written,
* **GPU memory usage** — resident bytes on the device.

We cannot train the real models offline, so this module provides a
calibrated synthetic stand-in: each (model, batch size, AMP) configuration
maps deterministically to a :class:`ResourceProfile`.  Base numbers are
hand-tuned to the qualitative facts the paper reports (Figures 2 and 3):
RL and point-cloud workloads barely load the GPU, ImageNet CNNs and GANs
load it heavily, utilization grows sub-linearly with batch size and AMP
both lowers utilization pressure and raises throughput.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Device memory of the testbed GPUs (NVIDIA RTX 3090, 24 GB) in MB.
GPU_MEMORY_MB = 24_576


def _clamp(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for a finite scalar, without numpy."""
    return float(min(max(x, lo), hi))


@dataclass(frozen=True)
class ResourceProfile:
    """Per-GPU resource usage of one workload configuration.

    Attributes
    ----------
    gpu_util:
        GPU utilization in percent (0-100).
    gpu_mem_util:
        GPU memory-bandwidth utilization in percent (0-100).
    gpu_mem_mb:
        GPU memory footprint in MB.
    amp:
        Whether mixed-precision training is enabled.
    """

    gpu_util: float
    gpu_mem_util: float
    gpu_mem_mb: float
    amp: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.gpu_util <= 100.0:
            raise ValueError(f"gpu_util out of range: {self.gpu_util}")
        if not 0.0 <= self.gpu_mem_util <= 100.0:
            raise ValueError(f"gpu_mem_util out of range: {self.gpu_mem_util}")
        if self.gpu_mem_mb < 0:
            raise ValueError(f"gpu_mem_mb must be >= 0: {self.gpu_mem_mb}")

    def as_features(self) -> Tuple[float, float, float, float]:
        """Feature vector (U_G, U_M, M_G, A) used by the packing model."""
        return (self.gpu_util, self.gpu_mem_util, self.gpu_mem_mb, float(self.amp))

    def with_noise(self, rng: np.random.Generator, rel_std: float = 0.05) -> "ResourceProfile":
        """Return a noisy copy emulating NVIDIA-SMI sampling error."""
        util = _clamp(self.gpu_util * rng.normal(1.0, rel_std), 0.5, 100.0)
        mem_util = _clamp(self.gpu_mem_util * rng.normal(1.0, rel_std), 0.5, 100.0)
        mem = _clamp(self.gpu_mem_mb * rng.normal(1.0, rel_std / 2), 64.0, GPU_MEMORY_MB)
        return ResourceProfile(util, mem_util, mem, self.amp)


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one Table-1 workload.

    ``base_*`` values describe the batch-64, AMP-off configuration; derived
    configurations are computed by :meth:`profile`.
    """

    name: str
    task: str
    dataset: str
    base_gpu_util: float
    base_mem_util: float
    base_mem_mb: float
    batch_sizes: Tuple[int, ...]
    supports_amp: bool
    #: Relative utilization growth when the batch size doubles.
    batch_util_slope: float = 0.12
    #: Relative memory growth when the batch size doubles.
    batch_mem_slope: float = 0.35

    def profile(self, batch_size: int, amp: bool) -> ResourceProfile:
        """Resource profile of this model at a given configuration.

        Batch-size scaling is multiplicative per doubling relative to the
        batch-64 baseline; AMP lowers compute/memory pressure (tensor cores
        finish kernels faster, activations are half precision).
        """
        if batch_size not in self.batch_sizes:
            raise ValueError(f"{self.name} does not support batch size {batch_size}")
        if amp and not self.supports_amp:
            raise ValueError(f"{self.name} does not support AMP")
        doublings = np.log2(batch_size / 64.0)
        util = self.base_gpu_util * (1.0 + self.batch_util_slope) ** doublings
        mem_util = self.base_mem_util * (1.0 + self.batch_util_slope * 0.8) ** doublings
        mem = self.base_mem_mb * (1.0 + self.batch_mem_slope) ** doublings
        if amp:
            util *= 0.88
            mem_util *= 0.85
            mem *= 0.72
        return ResourceProfile(
            gpu_util=_clamp(util, 1.0, 100.0),
            gpu_mem_util=_clamp(mem_util, 1.0, 100.0),
            gpu_mem_mb=_clamp(mem, 128.0, GPU_MEMORY_MB * 0.92),
            amp=amp,
        )

    def configurations(self) -> Iterator["WorkloadConfig"]:
        """Iterate every (batch size, AMP) configuration of this model."""
        for batch in self.batch_sizes:
            for amp in ((False, True) if self.supports_amp else (False,)):
                yield WorkloadConfig(self.name, batch, amp)


@dataclass(frozen=True)
class WorkloadConfig:
    """One concrete (model, batch size, AMP) workload configuration."""

    model: str
    batch_size: int
    amp: bool

    @property
    def key(self) -> str:
        return f"{self.model}-b{self.batch_size}-{'amp' if self.amp else 'fp32'}"


# ---------------------------------------------------------------------------
# Table 1 of the paper.  Base values are per-GPU measurements at batch 64,
# AMP off, hand-calibrated to Figures 2/3 (see module docstring).
# ---------------------------------------------------------------------------
MODEL_ZOO: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in [
        ModelSpec("ResNet-50", "img_classification", "ImageNet",
                  base_gpu_util=92.0, base_mem_util=62.0, base_mem_mb=10_000,
                  batch_sizes=(32, 64, 128), supports_amp=True,
                  batch_util_slope=0.05),
        ModelSpec("MobileNetV3", "img_classification", "ImageNet",
                  base_gpu_util=68.0, base_mem_util=50.0, base_mem_mb=9_200,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("ResNet-18", "img_classification", "CIFAR-10",
                  base_gpu_util=48.0, base_mem_util=28.0, base_mem_mb=2_700,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("MobileNetV2", "img_classification", "CIFAR-10",
                  base_gpu_util=40.0, base_mem_util=20.0, base_mem_mb=2_300,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("EfficientNet", "img_classification", "CIFAR-10",
                  base_gpu_util=36.0, base_mem_util=17.0, base_mem_mb=2_900,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("VGG-11", "img_classification", "CIFAR-10",
                  base_gpu_util=55.0, base_mem_util=44.0, base_mem_mb=3_800,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("DCGAN", "img_translation", "LSUN",
                  base_gpu_util=84.0, base_mem_util=38.0, base_mem_mb=6_500,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("PointNet", "point_cloud", "ShapeNet",
                  base_gpu_util=18.0, base_mem_util=15.0, base_mem_mb=1_900,
                  batch_sizes=(32, 64, 128), supports_amp=True),
        ModelSpec("BERT", "question_answering", "SQuAD",
                  base_gpu_util=88.0, base_mem_util=66.0, base_mem_mb=16_800,
                  batch_sizes=(32,), supports_amp=True,
                  batch_util_slope=0.04),
        ModelSpec("LSTM", "language_modeling", "Wikitext2",
                  base_gpu_util=62.0, base_mem_util=52.0, base_mem_mb=5_400,
                  batch_sizes=(64, 128), supports_amp=True),
        ModelSpec("Transformer", "translation", "Multi30k",
                  base_gpu_util=74.0, base_mem_util=42.0, base_mem_mb=8_800,
                  batch_sizes=(32, 64), supports_amp=False),
        ModelSpec("PPO", "rl", "LunarLander",
                  base_gpu_util=9.0, base_mem_util=4.0, base_mem_mb=900,
                  batch_sizes=(32, 64, 128), supports_amp=False),
        ModelSpec("TD3", "rl", "BipedalWalker",
                  base_gpu_util=12.0, base_mem_util=12.0, base_mem_mb=1_100,
                  batch_sizes=(32, 64, 128), supports_amp=False),
        ModelSpec("NeuMF", "recommendation", "MovieLens",
                  base_gpu_util=26.0, base_mem_util=14.0, base_mem_mb=2_100,
                  batch_sizes=(64, 128), supports_amp=True),
    ]
}

#: Models the paper's trace construction prefers for large, long jobs.
HEAVY_MODELS: Tuple[str, ...] = ("ResNet-50", "BERT", "Transformer", "DCGAN", "MobileNetV3")
#: Models preferred for small, short jobs.
LIGHT_MODELS: Tuple[str, ...] = (
    "ResNet-18", "MobileNetV2", "EfficientNet", "VGG-11", "PointNet",
    "PPO", "TD3", "NeuMF", "LSTM",
)


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by its Table-1 name."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_ZOO)}") from None


@functools.lru_cache(maxsize=None)
def get_profile(config: WorkloadConfig) -> ResourceProfile:
    """Resource profile of a workload configuration.

    Pure, over a domain of 66 configurations, and the profile is frozen,
    so each configuration's profile is computed once per process.
    """
    return get_model(config.model).profile(config.batch_size, config.amp)


def all_configurations() -> List[WorkloadConfig]:
    """Every (model, batch size, AMP) configuration in Table 1."""
    configs: List[WorkloadConfig] = []
    for spec in MODEL_ZOO.values():
        configs.extend(spec.configurations())
    return configs


def configurations_sorted_by_util() -> List[WorkloadConfig]:
    """All configurations ordered by increasing exclusive GPU utilization."""
    return sorted(all_configurations(), key=lambda c: get_profile(c).gpu_util)
