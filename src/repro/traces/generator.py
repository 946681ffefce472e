"""Synthetic production-trace generator.

Synthesizes job streams with the statistical structure of the Helios and
Philly traces (see :mod:`repro.traces.spec` for the parameter sources):

* **Diurnal arrivals** — hour-of-day weighted Poisson submissions with
  occasional burst hours (exercises Time-aware Scaling).
* **Recurring templates** — each user owns a pool of job templates
  (model, batch size, AMP, GPU demand, base duration); ~90% of submissions
  re-run a template with lognormal duration jitter, which is exactly the
  signal Lucid's Workload Estimate Model learns.
* **Skewed durations** — a short/medium/long lognormal mixture whose long
  component is calibrated so the realized mean matches Table 2.
* **Early failures** — a fraction of re-runs die quickly, reproducing the
  debugging-heavy population of §2.2.
* **Correlated scale/heaviness** — long, many-GPU jobs skew toward heavy
  models (BERT, ResNet-50), as the paper's trace construction does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster, make_vc_names
from repro.traces.spec import TraceSpec
from repro.workloads.job import Job
from repro.workloads.model_zoo import (
    MODEL_ZOO,
    WorkloadConfig,
    get_profile,
)

#: CPU threads per GPU by task family: RL rollouts and small-image input
#: pipelines are CPU-hungry; big-model training is compute-bound.  Only
#: consulted when the simulator's CPU model is enabled.
_CPU_DEMANDS = {
    "rl": (12.0, 0.9),
    "img_classification": (8.0, 0.6),
    "img_translation": (6.0, 0.4),
    "point_cloud": (6.0, 0.5),
    "recommendation": (6.0, 0.5),
    "question_answering": (3.0, 0.2),
    "language_modeling": (3.0, 0.2),
    "translation": (3.0, 0.2),
}

# Duration mixture components: (log-median, log-sigma).
_SHORT = (math.log(120.0), 1.0)
_MEDIUM = (math.log(3_600.0), 0.8)
_LONG = (math.log(36_000.0), 0.9)

#: GPU-demand distributions conditioned on the duration component.
_GPU_CHOICES = np.array([1, 2, 4, 8, 16, 32])
_GPU_PROBS = {
    "short": np.array([0.70, 0.15, 0.10, 0.05, 0.00, 0.00]),
    "medium": np.array([0.55, 0.15, 0.15, 0.12, 0.02, 0.01]),
    "long": np.array([0.35, 0.15, 0.20, 0.20, 0.07, 0.03]),
}

#: Fraction of template re-runs that fail or are cancelled early.
EARLY_FAILURE_RATE = 0.08


def _lognormal_mean(log_median: float, sigma: float) -> float:
    return math.exp(log_median + sigma * sigma / 2.0)


@dataclass
class JobTemplate:
    """A recurring job configuration owned by one user."""

    template_id: int
    user: str
    vc: str
    name: str
    config: WorkloadConfig
    gpu_num: int
    base_duration: float
    component: str


@dataclass
class _User:
    name: str
    vc: str
    templates: List[JobTemplate] = field(default_factory=list)


class TraceGenerator:
    """Deterministic synthetic trace generator for one :class:`TraceSpec`.

    The generator owns the user/template universe, so history jobs (used to
    train Lucid's models) and evaluation jobs (replayed by the simulator)
    share recurring templates — the property that makes duration prediction
    from history attainable (§2.3).
    """

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._vc_names = make_vc_names(spec.n_vcs)
        self._users = self._make_users()
        self._user_weights = self._zipf_weights(len(self._users))
        self._template_counter = 0
        self._job_counter = 0
        self._vc_capacity = {
            vc: nodes * 8
            for vc, nodes in zip(self._vc_names, self._vc_node_counts())
        }
        self._duration_scale = self._calibrate_duration_scale()
        self._model_names = list(MODEL_ZOO)
        self._model_utils = np.array(
            [MODEL_ZOO[m].base_gpu_util for m in self._model_names])

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build_cluster(self) -> Cluster:
        """Instantiate the cluster described by the spec.

        Nodes are split unevenly across VCs (a mild geometric skew), so
        per-VC contention differs as in Figure 9.
        """
        counts = self._vc_node_counts()
        return Cluster({vc: n for vc, n in zip(self._vc_names, counts)})

    def generate(self, n_jobs: Optional[int] = None,
                 start_day: float = 0.0) -> List[Job]:
        """Generate the evaluation job stream, sorted by submission time."""
        n = n_jobs if n_jobs is not None else self.spec.n_jobs
        return self._generate_jobs(n, start_day=start_day,
                                   span_days=self.spec.span_days)

    def generate_history(self, multiplier: float = 3.0) -> List[Job]:
        """Generate a *preceding* period of completed jobs.

        These model the April–August (SenseTime) / Oct–Dec (Philly) data
        the paper uses to train its models: same user/template universe as
        :meth:`generate`, earlier in time, with realized durations.
        """
        n = max(200, int(self.spec.n_jobs * multiplier))
        span = self.spec.span_days * multiplier
        return self._generate_jobs(n, start_day=-span, span_days=span)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_users(self) -> List[_User]:
        rng = np.random.default_rng(self.spec.seed + 1)
        users = []
        for i in range(self.spec.n_users):
            vc = self._vc_names[int(rng.integers(len(self._vc_names)))]
            users.append(_User(name=f"user{i:03d}", vc=vc))
        # Every VC needs at least one user so no VC stays empty.
        covered = {u.vc for u in users}
        for vc in self._vc_names:
            if vc not in covered and users:
                users[int(rng.integers(len(users)))].vc = vc
                covered.add(vc)
        return users

    @staticmethod
    def _zipf_weights(n: int, a: float = 1.4) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        w = ranks ** -a
        return w / w.sum()

    def _vc_node_counts(self) -> List[int]:
        """Split nodes across VCs with a geometric skew, each VC >= 1 node."""
        spec = self.spec
        weights = np.array([0.85 ** i for i in range(spec.n_vcs)])
        weights = weights / weights.sum()
        counts = np.maximum(1, np.floor(weights * spec.n_nodes).astype(int))
        # Distribute the remainder to the largest VCs.
        while counts.sum() < spec.n_nodes:
            counts[int(np.argmin(counts / weights))] += 1
        while counts.sum() > spec.n_nodes:
            idx = int(np.argmax(counts))
            if counts[idx] > 1:
                counts[idx] -= 1
        return counts.tolist()

    def _mixture_weights(self) -> Tuple[float, float, float]:
        short = self.spec.short_fraction
        rest = 1.0 - short
        return short, rest * 0.6, rest * 0.4

    def _calibrate_duration_scale(self) -> float:
        """Scale factor for the long component so means match Table 2."""
        w_s, w_m, w_l = self._mixture_weights()
        base = (w_s * _lognormal_mean(*_SHORT)
                + w_m * _lognormal_mean(*_MEDIUM))
        long_mean = _lognormal_mean(*_LONG)
        scale = (self.spec.mean_duration - base) / (w_l * long_mean)
        if scale <= 0:
            # Target mean is below the short+medium contribution alone:
            # fall back to scaling every component uniformly.
            total = base + w_l * long_mean
            return self.spec.mean_duration / total
        return scale

    def _sample_component(self, rng: np.random.Generator) -> str:
        w = self._mixture_weights()
        return ("short", "medium", "long")[int(rng.choice(3, p=np.array(w)))]

    def _sample_duration(self, component: str, rng: np.random.Generator) -> float:
        params = {"short": _SHORT, "medium": _MEDIUM, "long": _LONG}[component]
        value = float(rng.lognormal(mean=params[0], sigma=params[1]))
        if component == "long" or self._duration_scale < 1.0:
            value *= self._duration_scale
        return max(15.0, value)

    def _sample_model(self, component: str, gpu_num: int,
                      rng: np.random.Generator) -> WorkloadConfig:
        bias = self.spec.utilization_bias
        if component == "long" and gpu_num >= 8:
            bias += 1.2  # long large jobs skew heavy (paper §4.1)
        elif component == "short":
            bias -= 0.6
        norm_util = (self._model_utils - 50.0) / 50.0
        weights = np.exp(bias * norm_util)
        weights /= weights.sum()
        name = self._model_names[int(rng.choice(len(weights), p=weights))]
        spec = MODEL_ZOO[name]
        batch = int(rng.choice(np.array(spec.batch_sizes)))
        amp = bool(spec.supports_amp and rng.random() < 0.5)
        return WorkloadConfig(name, batch, amp)

    def _new_template(self, user: _User, rng: np.random.Generator) -> JobTemplate:
        component = self._sample_component(rng)
        gpu_num = int(rng.choice(_GPU_CHOICES, p=_GPU_PROBS[component]))
        # A job can never be placed outside its VC, and demands near the VC
        # capacity stall the whole partition for ages, so clamp to half the
        # VC (small product groups own as little as 1 node and submit
        # correspondingly small jobs in the real traces).
        cap = max(1, self._vc_capacity[user.vc] // 2)
        if gpu_num > cap:
            gpu_num = int(_GPU_CHOICES[_GPU_CHOICES <= cap][-1])
        config = self._sample_model(component, gpu_num, rng)
        self._template_counter += 1
        tid = self._template_counter
        name = (f"{user.name}-{config.model.lower().replace('-', '')}"
                f"-g{gpu_num}-t{tid:05d}")
        template = JobTemplate(
            template_id=tid, user=user.name, vc=user.vc, name=name,
            config=config, gpu_num=gpu_num,
            base_duration=self._sample_duration(component, rng),
            component=component,
        )
        user.templates.append(template)
        return template

    def _arrival_times(self, n: int, start_day: float, span_days: float,
                       rng: np.random.Generator) -> np.ndarray:
        hours = max(1, int(span_days * 24))
        hod = np.arange(hours) % 24
        day = np.arange(hours) // 24
        # Diurnal shape: afternoon peak, deep overnight trough, weekend
        # dip.  Production DL clusters are strongly bursty (§3.3): load
        # concentrates in submission spikes over a light baseline.
        weights = 0.18 + 0.82 * np.exp(-((hod - 14.5) / 4.5) ** 2)
        weekend = (day % 7) >= 5
        weights = np.where(weekend, weights * 0.55, weights)
        # Burst hours: ~5% of hours see 5x submission pressure.
        burst = rng.random(hours) < 0.05
        weights = np.where(burst, weights * 5.0, weights)
        weights = weights / weights.sum()
        hour_idx = rng.choice(hours, size=n, p=weights)
        offsets = rng.uniform(0.0, 3600.0, size=n)
        times = (start_day * 86_400.0) + hour_idx * 3600.0 + offsets
        return np.sort(times)

    def _generate_jobs(self, n: int, start_day: float,
                       span_days: float) -> List[Job]:
        rng = self._rng
        times = self._arrival_times(n, start_day, span_days, rng)
        jobs: List[Job] = []
        for submit_time in times:
            user = self._users[int(rng.choice(len(self._users),
                                              p=self._user_weights))]
            reuse = user.templates and rng.random() < self.spec.recurrence
            if reuse:
                template = user.templates[int(rng.integers(len(user.templates)))]
            else:
                template = self._new_template(user, rng)
            duration = template.base_duration * float(
                rng.lognormal(mean=0.0, sigma=0.25))
            if reuse and rng.random() < EARLY_FAILURE_RATE:
                # Failed/cancelled re-run: dies early regardless of template.
                duration = float(rng.uniform(20.0, 600.0))
            duration = max(10.0, duration)
            self._job_counter += 1
            task = MODEL_ZOO[template.config.model].task
            cpu_per_gpu, cpu_sensitivity = _CPU_DEMANDS.get(task, (4.0, 0.5))
            jobs.append(Job(
                job_id=self._job_counter,
                name=template.name,
                user=template.user,
                vc=template.vc,
                submit_time=float(submit_time),
                duration=duration,
                gpu_num=template.gpu_num,
                profile=get_profile(template.config),
                amp=template.config.amp,
                template_id=template.template_id,
                cpu_per_gpu=cpu_per_gpu,
                cpu_sensitivity=cpu_sensitivity,
            ))
        return jobs


def generate_trace(spec: TraceSpec) -> Tuple[Cluster, List[Job], List[Job]]:
    """Convenience: build (cluster, history jobs, evaluation jobs)."""
    gen = TraceGenerator(spec)
    cluster = gen.build_cluster()
    history = gen.generate_history()
    jobs = gen.generate()
    return cluster, history, jobs
