"""Feature encoders and time-series feature engineering.

Provides the categorical/temporal encodings the paper's models consume:
label encoding for users and clustered job names, calendar decomposition of
submission timestamps (§3.5.3), and the rolling/shift/soft-sum throughput
features of §3.5.2 (``roll_mean_1h``, ``shift_1d``, ``soft_3h``, ...).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86_400.0


class LabelEncoder:
    """Map hashable categories to dense integer codes.

    Unseen categories at transform time map to a dedicated ``unknown``
    code, so models keep working as new users/templates appear (the drift
    the Update Engine exists to absorb).
    """

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}

    def fit(self, values: Sequence) -> "LabelEncoder":
        for value in values:
            if value not in self._codes:
                self._codes[value] = len(self._codes)
        return self

    @property
    def unknown_code(self) -> int:
        return len(self._codes)

    def code_of(self, value) -> float:
        """One value's code as :meth:`transform` gives it."""
        return float(self._codes.get(value, len(self._codes)))

    def transform(self, values: Sequence) -> np.ndarray:
        unknown = self.unknown_code
        return np.array([self._codes.get(v, unknown) for v in values],
                        dtype=float)

    def __len__(self) -> int:
        return len(self._codes)


def hour_of_day(timestamps):
    """Hour of day of a timestamp (a scalar or an array of them)."""
    return np.floor((timestamps % SECONDS_PER_DAY) / SECONDS_PER_HOUR)


def day_of_week(timestamps, epoch_day_of_week: int = 2):
    """Weekday index of a timestamp (a scalar or an array of them)."""
    return (np.floor(timestamps / SECONDS_PER_DAY) + epoch_day_of_week) % 7


def time_features(timestamps: Sequence[float],
                  epoch_day_of_week: int = 2) -> Dict[str, np.ndarray]:
    """Decompose trace timestamps into calendar attributes.

    Trace time is seconds since the trace epoch; ``epoch_day_of_week``
    anchors weekday computation (default Wednesday, arbitrary but fixed).
    Returns hour-of-day, day-of-week, day index ("dayofyear" analogue) and
    a month index.
    """
    ts = np.asarray(timestamps, dtype=float)
    days = np.floor(ts / SECONDS_PER_DAY)
    return {
        "hour": hour_of_day(ts),
        "dayofweek": day_of_week(ts, epoch_day_of_week),
        "day": days,
        "month": np.floor(days / 30.0),
    }


# ----------------------------------------------------------------------
# Per-index feature definitions.  Each ``*_at`` helper computes one
# feature at index ``i`` from ``values[:i]`` only (causal); the
# whole-series functions and the throughput feature table/row are all
# built from them, so every formula exists exactly once.
# ----------------------------------------------------------------------
def _rolling_at(values: np.ndarray, i: int, window: int, fn) -> float:
    lo = max(0, i - window)
    return fn(values[lo:i]) if i > lo else (values[0] if i == 0 else values[i - 1])


def _shift_at(values: np.ndarray, i: int, lag: int,
              fill: Optional[float] = None) -> float:
    if i >= lag:
        return values[i - lag]
    return values[0] if fill is None else fill


def _soft_weights(window: int, decay: float = 0.7) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    return decay ** np.arange(window)


def _soft_sum_at(values: np.ndarray, i: int, weights: np.ndarray) -> float:
    lo = max(0, i - len(weights))
    past = values[lo:i][::-1]  # most recent first
    if past.size:
        return float(np.dot(past, weights[:past.size]))
    return values[0] * weights.sum() if i == 0 else 0.0


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over the previous ``window`` points (causal, excludes t)."""
    return _rolling(values, window, np.mean)


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing median over the previous ``window`` points."""
    return _rolling(values, window, np.median)


def _rolling(values: np.ndarray, window: int, fn) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    return np.array([_rolling_at(values, i, window, fn)
                     for i in range(len(values))], dtype=float)


def shift(values: np.ndarray, lag: int, fill: Optional[float] = None) -> np.ndarray:
    """Lag a series by ``lag`` steps, back-filling the head."""
    if lag < 0:
        raise ValueError("lag must be >= 0")
    values = np.asarray(values, dtype=float)
    return np.array([_shift_at(values, i, lag, fill)
                     for i in range(len(values))], dtype=float)


def soft_sum(values: np.ndarray, window: int, decay: float = 0.7) -> np.ndarray:
    """Exponentially weighted trailing sum ("weighted soft summation", §3.5.2).

    ``out[t] = sum_{k=1..window} decay^(k-1) * values[t-k]``; more recent
    history weighs more.
    """
    weights = _soft_weights(window, decay)
    values = np.asarray(values, dtype=float)
    return np.array([_soft_sum_at(values, i, weights)
                     for i in range(len(values))], dtype=float)


#: A throughput feature at one index: ``fn(series, i, time_of_i)``.
_FeatureAt = Callable[[np.ndarray, int, float], float]


def _throughput_features(step_seconds: float) -> Tuple[Tuple[str, _FeatureAt], ...]:
    """The Figure-7a features, in column order, as per-index definitions."""
    day = max(1, int(round(SECONDS_PER_DAY / step_seconds)))
    w_1h, w_3h, w_1d = _soft_weights(1), _soft_weights(3), _soft_weights(day)
    # NOTE: absolute calendar indices ("day", "month") are deliberately
    # excluded: a forecaster trained on one window and applied to the next
    # would see them out of distribution and memorize per-day offsets.
    # Periodic encodings (hour, dayofweek) carry the generalizable signal.
    return (
        ("hour", lambda v, i, t: hour_of_day(t)),
        ("dayofweek", lambda v, i, t: day_of_week(t)),
        ("shift_1h", lambda v, i, t: _shift_at(v, i, 1)),
        ("shift_1d", lambda v, i, t: _shift_at(v, i, day)),
        ("roll_mean_1h", lambda v, i, t: _rolling_at(v, i, 1, np.mean)),
        ("roll_mean_3h", lambda v, i, t: _rolling_at(v, i, 3, np.mean)),
        ("roll_median_1h", lambda v, i, t: _rolling_at(v, i, 1, np.median)),
        ("roll_median_6h", lambda v, i, t: _rolling_at(v, i, 6, np.median)),
        ("soft_1h", lambda v, i, t: _soft_sum_at(v, i, w_1h)),
        ("soft_3h", lambda v, i, t: _soft_sum_at(v, i, w_3h)),
        ("soft_1d", lambda v, i, t: _soft_sum_at(v, i, w_1d)),
    )


def throughput_feature_table(series: np.ndarray,
                             start_time: float = 0.0,
                             step_seconds: float = SECONDS_PER_HOUR
                             ) -> Tuple[np.ndarray, List[str]]:
    """Build the Figure-7a feature matrix for an hourly throughput series.

    Features mirror the paper's list: calendar encodings (``hour``, ``day``
    ...), lags (``shift_1h``, ``shift_1d``), rolling statistics
    (``roll_mean_1h``, ``roll_median_1h``) and weighted soft sums
    (``soft_1h``, ``soft_3h``, ``soft_1d``, ``soft_1d_njob``).

    Returns ``(X, feature_names)`` aligned with the input series, suitable
    for one-step-ahead forecasting (every feature is causal).  Fitting and
    evaluation use the full table; forecasting needs only its last row,
    :func:`throughput_feature_row`.
    """
    series = np.asarray(series, dtype=float)
    features = _throughput_features(step_seconds)
    times = start_time + np.arange(len(series)) * step_seconds
    X = np.empty((len(series), len(features)))
    for i, t in enumerate(times):
        for j, (_, fn) in enumerate(features):
            X[i, j] = fn(series, i, t)
    return X, [name for name, _ in features]


def throughput_feature_row(series: np.ndarray,
                           start_time: float = 0.0,
                           step_seconds: float = SECONDS_PER_HOUR
                           ) -> np.ndarray:
    """The last row of :func:`throughput_feature_table`, computed alone.

    Bit-identical to ``throughput_feature_table(series, start_time,
    step_seconds)[0][-1]`` at the cost of one row instead of ``len(series)``.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("series must not be empty")
    i = len(series) - 1
    t = start_time + i * step_seconds
    return np.array([fn(series, i, t)
                     for _, fn in _throughput_features(step_seconds)],
                    dtype=float)


def hourly_series(event_times: Sequence[float],
                  weights: Optional[Sequence[float]] = None,
                  start_time: Optional[float] = None,
                  end_time: Optional[float] = None
                  ) -> Tuple[np.ndarray, float]:
    """Aggregate event timestamps into an hourly count/weight series.

    Returns ``(series, series_start_time)``.  ``weights`` turns the series
    into e.g. GPU-demand throughput instead of job counts.
    """
    times = np.asarray(event_times, dtype=float)
    if times.size == 0:
        return np.zeros(1), 0.0
    w = (np.ones_like(times) if weights is None
         else np.asarray(weights, dtype=float))
    if w.shape != times.shape:
        raise ValueError("weights must align with event_times")
    t0 = float(np.floor((start_time if start_time is not None else times.min())
                        / SECONDS_PER_HOUR) * SECONDS_PER_HOUR)
    t1 = float(end_time if end_time is not None else times.max())
    n_bins = max(1, int(np.ceil((t1 - t0) / SECONDS_PER_HOUR)) + 1)
    idx = np.clip(((times - t0) / SECONDS_PER_HOUR).astype(int), 0, n_bins - 1)
    series = np.bincount(idx, weights=w, minlength=n_bins)
    return series, t0
