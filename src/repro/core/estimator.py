"""Workload Estimate Model (§3.5.3, Figure 7c) — job-duration prediction.

A GA²M over submission metadata, calendar attributes and the profiled
resource features, combined with explicit recurrence matching: because
~90% of submissions re-run existing templates, the strongest signal is the
realized duration of the *same* (user, job name) in history.  The paper's
fallback ladder is implemented verbatim: new jobs without history are
estimated from the user's past behaviour, and jobs from brand-new users
from the average duration of jobs with the same GPU demand (§3.4).

Job names are featurized with Levenshtein distance + affinity propagation
(:mod:`repro.models.text`).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.models.attrib import Attribution, attribute_gam
from repro.models.encoding import (
    LabelEncoder,
    day_of_week,
    hour_of_day,
    time_features,
)
from repro.models.gam import GA2MRegressor, GlobalExplanation, LocalExplanation
from repro.models.metrics import r2_score
from repro.models.text import cluster_job_names
from repro.workloads.job import Job, JobRecord
from repro.workloads.model_zoo import ResourceProfile

FEATURE_NAMES = (
    "user", "name_cluster", "gpu_num", "hour", "dayofweek",
    "gpu_util", "gpu_mem_util", "gpu_mem_mb", "amp",
)

#: Blend weight of the template history mean vs the GA²M prediction.
TEMPLATE_WEIGHT = 0.75

_RUN_SUFFIX = re.compile(r"[-_]?t?\d+$")


def _name_stem(name: str) -> str:
    """Strip trailing run counters so template re-runs share a stem."""
    return _RUN_SUFFIX.sub("", name)


@dataclass
class _HistoryRow:
    user: str
    name: str
    gpu_num: int
    submit_time: float
    duration: float
    profile: Optional[ResourceProfile]
    amp: bool


def _record_amp(profile: Optional[ResourceProfile]) -> bool:
    """The ``amp`` of a :class:`JobRecord`, which has no field of its own."""
    return bool(profile and profile.amp)


def _row_from(job: Union[Job, JobRecord]) -> _HistoryRow:
    profile = getattr(job, "measured_profile", None) or job.profile
    return _HistoryRow(
        user=job.user, name=job.name, gpu_num=job.gpu_num,
        submit_time=job.submit_time, duration=job.duration,
        profile=profile, amp=getattr(job, "amp", _record_amp(profile)),
    )


class WorkloadEstimateModel:
    """GA²M duration estimator with recurrence matching.

    Parameters
    ----------
    use_profile:
        Include profiled resource features (disabled for the ablation
        showing profiled features improve estimation, §4.8).
    n_rounds, n_interactions:
        GA²M capacity.
    """

    def __init__(self, use_profile: bool = True, n_rounds: int = 120,
                 n_interactions: int = 2, random_state: int = 0) -> None:
        self.use_profile = use_profile
        self.n_rounds = n_rounds
        self.n_interactions = n_interactions
        self.random_state = random_state
        self._user_encoder = LabelEncoder()
        self._set_name_clusters({})
        self._model: Optional[GA2MRegressor] = None
        self._rows: List[_HistoryRow] = []
        self._template_durations: Dict[Tuple[str, str], List[float]] = {}
        self._user_durations: Dict[str, List[float]] = {}
        self._gpu_durations: Dict[int, List[float]] = {}
        self._global_mean = 3600.0
        self._default_profile: Tuple[float, float, float] = (50.0, 30.0, 4000.0)

    # ------------------------------------------------------------------
    # Feature construction
    # ------------------------------------------------------------------
    def _feature_names(self) -> List[str]:
        names = list(FEATURE_NAMES)
        if not self.use_profile:
            names = names[:5]
        return names

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_unknown_name_code", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._set_name_clusters(self._name_clusters)

    def _set_name_clusters(self, clusters: Dict[str, int]) -> None:
        self._name_clusters = clusters
        #: The code of a stem outside every cluster: one past the
        #: cluster count.  Derived, so never pickled.
        self._unknown_name_code = float(len(set(clusters.values())))

    def _name_code(self, name: str) -> float:
        code = self._name_clusters.get(_name_stem(name))
        if code is None:
            return self._unknown_name_code
        return float(code)

    def _profile_features(self, profile: Optional[ResourceProfile],
                          amp: bool) -> List[float]:
        if profile is None:
            util, mem_util, mem = self._default_profile
        else:
            util, mem_util, mem = (profile.gpu_util, profile.gpu_mem_util,
                                   profile.gpu_mem_mb)
        return [util, mem_util, mem, float(amp)]

    def _feature_row(self, row: _HistoryRow) -> List[float]:
        """One row of :meth:`_featurize` as Python floats, for the
        one-row predictions of the scheduling path."""
        submit_time = float(row.submit_time)
        features = [
            self._user_encoder.code_of(row.user),
            self._name_code(row.name),
            float(row.gpu_num),
            hour_of_day(submit_time),
            day_of_week(submit_time),
        ]
        if self.use_profile:
            features.extend(self._profile_features(row.profile, row.amp))
        return features

    def _featurize(self, rows: Sequence[_HistoryRow]) -> np.ndarray:
        cal = time_features([r.submit_time for r in rows])
        columns = [
            self._user_encoder.transform([r.user for r in rows]),
            np.array([self._name_code(r.name) for r in rows]),
            np.array([float(r.gpu_num) for r in rows]),
            cal["hour"],
            cal["dayofweek"],
        ]
        if self.use_profile:
            prof = np.array([self._profile_features(r.profile, r.amp)
                             for r in rows])
            columns.extend(prof.T)
        return np.column_stack(columns)

    # ------------------------------------------------------------------
    # Fitting and updating
    # ------------------------------------------------------------------
    def fit(self, history: Sequence[Union[Job, JobRecord]],
            refresh_names: bool = True) -> "WorkloadEstimateModel":
        if not history:
            raise ValueError("history must be non-empty")
        return self._fit_rows([_row_from(j) for j in history], refresh_names)

    def _fit_rows(self, rows: List[_HistoryRow],
                  refresh_names: bool) -> "WorkloadEstimateModel":
        self._rows = rows
        self._rebuild_stats()
        self._user_encoder = LabelEncoder().fit([r.user for r in self._rows])
        if refresh_names or not self._name_clusters:
            # Affinity-propagation clustering is the expensive step; on
            # periodic refits the template structure is stable, so the
            # Update Engine reuses the existing buckets (new stems map to
            # the dedicated unknown code until the next full fit).
            stems = [_name_stem(r.name) for r in self._rows]
            self._set_name_clusters(cluster_job_names(stems))
        X = self._featurize(self._rows)
        y = np.log(np.array([r.duration for r in self._rows]))
        self._model = GA2MRegressor(
            n_rounds=self.n_rounds, n_interactions=self.n_interactions,
            feature_names=self._feature_names(),
            random_state=self.random_state)
        self._model.fit(X, y)
        return self

    def _rebuild_stats(self) -> None:
        self._template_durations = defaultdict(list)
        self._user_durations = defaultdict(list)
        self._gpu_durations = defaultdict(list)
        for row in self._rows:
            self._template_durations[(row.user, row.name)].append(row.duration)
            self._user_durations[row.user].append(row.duration)
            self._gpu_durations[row.gpu_num].append(row.duration)
        self._global_mean = float(np.mean([r.duration for r in self._rows]))
        if any(r.profile for r in self._rows):
            profiles = [r.profile for r in self._rows if r.profile]
            self._default_profile = (
                float(np.median([p.gpu_util for p in profiles])),
                float(np.median([p.gpu_mem_util for p in profiles])),
                float(np.median([p.gpu_mem_mb for p in profiles])),
            )

    def update(self, record: Union[Job, JobRecord]) -> None:
        """Record one completed job (stats update immediately; the GA²M is
        refreshed on the next :meth:`refit`, driven by the Update Engine)."""
        row = _row_from(record)
        self._rows.append(row)
        self._template_durations[(row.user, row.name)].append(row.duration)
        self._user_durations[row.user].append(row.duration)
        self._gpu_durations[row.gpu_num].append(row.duration)

    def refit(self) -> None:
        """Retrain on the accumulated history (Update Engine, §3.6.2).

        The rows are refit as a completed-job record would describe them:
        a record carries no ``amp`` of its own, so a row's ``amp`` is its
        profile's.
        """
        if not self._rows:
            raise RuntimeError("no history to refit on")
        rows = [row if row.amp == _record_amp(row.profile)
                else _dc_replace(row, amp=_record_amp(row.profile))
                for row in self._rows]
        self._fit_rows(rows, refresh_names=False)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self._model is None:
            raise RuntimeError("WorkloadEstimateModel is not fitted")

    def _model_prediction(self, row: _HistoryRow) -> float:
        log_pred = self._model.predict_one(self._feature_row(row))
        return float(np.clip(np.exp(log_pred), 10.0, 30 * 86400.0))

    def predict(self, job: Union[Job, JobRecord, "object"]) -> float:
        """Estimated duration in seconds for a (possibly new) job."""
        self._check_fitted()
        row = _HistoryRow(
            user=job.user, name=job.name, gpu_num=job.gpu_num,
            submit_time=job.submit_time, duration=0.0,
            profile=getattr(job, "measured_profile", None),
            amp=getattr(job, "amp", False),
        )
        template = self._template_durations.get((row.user, row.name))
        if template:
            # Median of recent re-runs is robust to the failed/cancelled
            # submissions that pollute recurring templates (§2.2); the
            # template weight grows with the evidence.
            recent = template[-8:]
            template_est = float(np.median(recent))
            weight = min(0.9, len(recent) / (len(recent) + 1.0))
            return (weight * template_est
                    + (1 - weight) * self._model_prediction(row))
        if row.user in self._user_durations:
            return self._model_prediction(row)
        # Brand-new user: average duration of jobs with the same GPU demand.
        same_gpu = self._gpu_durations.get(row.gpu_num)
        if same_gpu:
            return float(np.mean(same_gpu))
        return self._global_mean

    def safe_predict(self, job, default: float = 3600.0) -> float:
        """:meth:`predict` that degrades to ``default`` instead of raising.

        Graceful-degradation path (see :mod:`repro.faults`): an unfitted
        model or a pathological feature row must not crash the scheduling
        loop mid-simulation — a conservative constant estimate merely
        worsens ordering quality.
        """
        try:
            value = self.predict(job)
        except Exception:  # repro: noqa RPR007 — deliberate catch-all:
            # any model failure must degrade to the default estimate, not
            # crash the scheduling loop mid-simulation.
            return default
        if not np.isfinite(value) or value <= 0:
            return default
        return float(value)

    def predict_batch(self, jobs: Sequence) -> np.ndarray:
        return np.array([self.predict(j) for j in jobs])

    def featurize_jobs(self, jobs: Sequence) -> np.ndarray:
        """Feature matrix for external models (the Table-7 comparison
        trains black-box baselines on the identical representation)."""
        self._check_fitted()
        return self._featurize([_row_from(j) for j in jobs])

    def training_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, log-duration y) of the fitted history, for baselines."""
        self._check_fitted()
        X = self._featurize(self._rows)
        y = np.log(np.array([r.duration for r in self._rows]))
        return X, y

    def fit_quality(self) -> Tuple[float, int]:
        """Training fit of the GA²M: ``(R², n_samples)``.

        R² is computed in the model's native log-duration space over the
        fitted history — the Update Engine surfaces it on ``refit``
        events so stale or degrading models are visible in telemetry.
        """
        self._check_fitted()
        X, y = self.training_matrix()
        return float(r2_score(y, self._model.predict(X))), int(len(y))

    # ------------------------------------------------------------------
    # Interpretation
    # ------------------------------------------------------------------
    def attribute_vector(self, values: Sequence[float]) -> Attribution:
        """GA²M attribution of a raw feature vector (counterfactuals).

        The vector must align with :meth:`_feature_names`.  Contributions
        are exact in the model's native log-duration space; the served
        estimate additionally blends template history and clips, so
        ``estimated_duration != exp(predicted)`` in general.
        """
        self._check_fitted()
        attribution = attribute_gam(self._model, values,
                                    feature_names=self._feature_names())
        return _dc_replace(attribution,
                           note="log-duration space; raw feature probe")

    def attribute(self, job) -> Attribution:
        """Attribution of one job's duration prediction (Figure 7c).

        Always the GA²M's exact per-term decomposition in log-duration
        space; ``note`` records which rung of the fallback ladder actually
        served the estimate (template blend / model / same-GPU mean /
        global mean), since the served value folds in template history
        and clipping on top of the model output.
        """
        self._check_fitted()
        row = _HistoryRow(
            user=job.user, name=job.name, gpu_num=job.gpu_num,
            submit_time=job.submit_time, duration=0.0,
            profile=getattr(job, "measured_profile", None),
            amp=getattr(job, "amp", False),
        )
        X = self._featurize([row])
        attribution = attribute_gam(self._model, X[0],
                                    feature_names=self._feature_names())
        template = self._template_durations.get((row.user, row.name))
        if template:
            recent = template[-8:]
            weight = min(0.9, len(recent) / (len(recent) + 1.0))
            served = (f"served by template blend "
                      f"({weight:.2f} history + {1 - weight:.2f} model)")
        elif row.user in self._user_durations:
            served = "served by GA2M model"
        elif self._gpu_durations.get(row.gpu_num):
            served = "served by same-GPU-demand mean"
        else:
            served = "served by global mean"
        return _dc_replace(attribution,
                           note=f"log-duration space; {served}")

    def safe_attribute(self, job) -> Optional[Attribution]:
        """:meth:`attribute` that degrades to ``None`` instead of raising.

        The decision attribution hook must never crash the scheduling loop
        (mirror of :meth:`safe_predict`): a missing attribution merely
        leaves one decision unexplained.
        """
        try:
            return self.attribute(job)
        except Exception:  # repro: noqa RPR007 — deliberate catch-all:
            # attribution is observability, not control; any failure must
            # degrade to "unexplained", never crash the simulation.
            return None

    def explain_global(self) -> GlobalExplanation:
        self._check_fitted()
        return self._model.explain_global()

    def explain_local(self, job) -> LocalExplanation:
        """Per-feature score breakdown of one prediction (Figure 7c)."""
        self._check_fitted()
        row = _row_from(job) if hasattr(job, "duration") else job
        X = self._featurize([row])
        return self._model.explain_local(X[0])

    def constrain_gpu_monotonic(self) -> None:
        """System-Tuner constraint: duration non-decreasing in gpu_num."""
        self._check_fitted()
        self._model.constrain_monotonic(self._feature_names().index("gpu_num"),
                                        increasing=True)
