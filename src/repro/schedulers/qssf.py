"""Quasi-Shortest-Service-First (QSSF) scheduler [Helios, SC'21].

QSSF prioritizes jobs by *predicted service* = predicted duration x GPU
demand, with the prediction produced by a black-box gradient-boosting model
(Helios uses LightGBM) trained on historical submissions.  It is the
state-of-the-art non-intrusive baseline the paper compares Lucid against;
unlike Lucid it has no profiler, no packing and no interpretability.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.boosting import lightgbm_like
from repro.models.encoding import LabelEncoder, time_features
from repro.schedulers.base import Scheduler
from repro.workloads.job import Job


class HistoryDurationModel:
    """Black-box GBDT duration predictor from submission metadata.

    Trains on ``log(duration)`` of historical jobs using only
    submission-time features (user, job-name hash bucket, GPU demand,
    calendar attributes) — the information QSSF has without any profiling.
    """

    N_NAME_BUCKETS = 64

    def __init__(self, random_state: int = 0) -> None:
        self._user_encoder = LabelEncoder()
        self._model = lightgbm_like(random_state=random_state)
        self._fallback = 3600.0
        self._template_means: Dict[Tuple[str, str], float] = {}

    @staticmethod
    def _name_bucket(name: str) -> float:
        # Strip trailing run counters so re-runs of a template collide.
        # crc32, not hash(): str hashes are salted per process.
        stem = name.rstrip("0123456789")
        return float(zlib.crc32(stem.encode("utf-8"))
                     % HistoryDurationModel.N_NAME_BUCKETS)

    def _features(self, jobs: Sequence[Job]) -> np.ndarray:
        users = self._user_encoder.transform([j.user for j in jobs])
        cal = time_features([j.submit_time for j in jobs])
        return np.column_stack([
            users,
            [self._name_bucket(j.name) for j in jobs],
            [float(j.gpu_num) for j in jobs],
            cal["hour"],
            cal["dayofweek"],
        ])

    def fit(self, history: Sequence[Job]) -> "HistoryDurationModel":
        if not history:
            raise ValueError("history must be non-empty")
        self._user_encoder.fit([j.user for j in history])
        X = self._features(history)
        y = np.log(np.array([j.duration for j in history]))
        self._model.fit(X, y)
        self._fallback = float(np.mean([j.duration for j in history]))
        # Helios explicitly exploits recurrence: repeated (user, name)
        # submissions predict from their own history.
        groups: Dict[Tuple[str, str], List[float]] = {}
        for job in history:
            groups.setdefault((job.user, job.name), []).append(job.duration)
        self._template_means = {k: float(np.mean(v[-8:]))
                                for k, v in sorted(groups.items())}
        return self

    def predict(self, job: Job) -> float:
        template = self._template_means.get((job.user, job.name))
        model_pred = float(np.exp(self._model.predict(self._features([job]))[0]))
        if template is not None:
            return 0.7 * template + 0.3 * model_pred
        return model_pred


class QSSFScheduler(Scheduler):
    """Predicted-service-first ordering over a consolidated allocator."""

    name = "qssf"

    def __init__(self, history: Sequence[Job], random_state: int = 0) -> None:
        super().__init__()
        self._history = list(history)
        self._random_state = random_state
        self._model: Optional[HistoryDurationModel] = None

    def attach(self, engine) -> None:
        super().attach(engine)
        self._model = HistoryDurationModel(self._random_state).fit(self._history)

    def on_job_submit(self, job: Job, now: float) -> None:
        super().on_job_submit(job, now)
        job.estimated_duration = self._model.predict(job)
        job.priority = job.estimated_duration * job.gpu_num

    def schedule(self, now: float) -> None:
        ordered = sorted(self.queue,
                         key=lambda j: (j.priority, j.submit_time, j.job_id))
        self.place_in_order(ordered)
