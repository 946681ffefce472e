"""Tests for encoders and time-series feature engineering."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.models.encoding import (
    LabelEncoder,
    hourly_series,
    rolling_mean,
    rolling_median,
    shift,
    soft_sum,
    throughput_feature_row,
    throughput_feature_table,
    time_features,
)


class TestLabelEncoder:
    def test_roundtrip(self):
        enc = LabelEncoder().fit(["a", "b", "a", "c"])
        assert enc.transform(["a", "b", "c"]).tolist() == [0.0, 1.0, 2.0]
        assert len(enc) == 3

    def test_unknown_maps_to_dedicated_code(self):
        enc = LabelEncoder().fit(["a", "b"])
        assert enc.transform(["zzz"])[0] == enc.unknown_code

    def test_incremental_fit(self):
        enc = LabelEncoder().fit(["a"])
        enc.fit(["b"])
        assert enc.transform(["a", "b"]).tolist() == [0.0, 1.0]


class TestTimeFeatures:
    def test_hour_extraction(self):
        feats = time_features([0.0, 3600.0, 86_400.0 + 7200.0])
        assert feats["hour"].tolist() == [0.0, 1.0, 2.0]
        assert feats["day"].tolist() == [0.0, 0.0, 1.0]

    def test_dayofweek_cycles(self):
        feats = time_features([i * 86_400.0 for i in range(8)])
        dow = feats["dayofweek"]
        assert dow[0] == dow[7]
        assert len(set(dow[:7].tolist())) == 7


class TestRollingFeatures:
    def test_rolling_mean_causal(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        rolled = rolling_mean(values, window=2)
        # Index 2 sees values[0:2] only — never its own value.
        assert rolled[2] == pytest.approx(1.5)
        assert rolled[3] == pytest.approx(2.5)

    def test_rolling_median(self):
        values = np.array([1.0, 100.0, 2.0, 3.0])
        rolled = rolling_median(values, window=3)
        assert rolled[3] == pytest.approx(2.0)

    def test_shift(self):
        values = np.array([1.0, 2.0, 3.0])
        assert shift(values, 1).tolist() == [1.0, 1.0, 2.0]
        assert shift(values, 0).tolist() == [1.0, 2.0, 3.0]
        assert shift(values, 2, fill=0.0).tolist() == [0.0, 0.0, 1.0]

    def test_soft_sum_weights_recent_history_more(self):
        values = np.array([0.0, 10.0, 1.0, 0.0])
        soft = soft_sum(values, window=2, decay=0.5)
        # At t=3: 1*1 (t=2) + 10*0.5 (t=1) = 6
        assert soft[3] == pytest.approx(6.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            rolling_mean(np.ones(3), 0)
        with pytest.raises(ValueError):
            soft_sum(np.ones(3), 2, decay=0.0)
        with pytest.raises(ValueError):
            shift(np.ones(3), -1)


class TestThroughputTable:
    def test_feature_table_shape_and_names(self):
        series = np.arange(72, dtype=float)
        X, names = throughput_feature_table(series)
        assert X.shape == (72, len(names))
        for expected in ("hour", "shift_1h", "shift_1d", "roll_mean_1h",
                         "roll_median_1h", "soft_1h", "soft_3h", "soft_1d"):
            assert expected in names

    def test_features_are_causal(self):
        """Row t must not depend on series[t] (one-step-ahead protocol)."""
        rng = np.random.default_rng(0)
        series = rng.uniform(0, 10, 60)
        X1, names = throughput_feature_table(series)
        bumped = series.copy()
        bumped[30] += 100.0
        X2, _ = throughput_feature_table(bumped)
        assert np.allclose(X1[30], X2[30]), "row 30 saw its own value"
        assert not np.allclose(X1[31], X2[31])  # but the next row does


_counts = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)


class TestThroughputRow:
    """The forecast row is the table's last row, byte for byte."""

    @given(series=st.lists(_counts, min_size=1, max_size=120),
           start_time=st.floats(-1e8, 1e8),
           step_seconds=st.sampled_from([3600.0, 1800.0, 7200.0]))
    @example(series=[5.0], start_time=1234.5, step_seconds=3600.0)
    @example(series=[1.0, 2.0, 3.0], start_time=-0.25, step_seconds=3600.0)
    @example(series=[0.0] * 6, start_time=86_399.9, step_seconds=3600.0)
    @example(series=[float(i) for i in range(24)], start_time=-86_400.5,
             step_seconds=3600.0)
    @settings(max_examples=150, deadline=None)
    def test_row_equals_last_table_row(self, series, start_time,
                                       step_seconds):
        X, _ = throughput_feature_table(series, start_time, step_seconds)
        row = throughput_feature_row(series, start_time, step_seconds)
        assert row.tobytes() == X[-1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 24, 25, 48])
    def test_heads_where_lags_and_windows_fall_back(self, n):
        """Short series take the back-fill branches of ``shift_1d``,
        ``roll_median_6h`` and ``soft_1d``; the row must take them too."""
        series = np.random.default_rng(n).integers(0, 30, n).astype(float)
        start_time = 7 * 86_400.0 + 1_234.5  # not hour-aligned
        X, names = throughput_feature_table(series, start_time)
        row = throughput_feature_row(series, start_time)
        assert row.shape == (len(names),)
        assert row.tobytes() == X[-1].tobytes()

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            throughput_feature_row(np.zeros(0))


class TestHourlySeries:
    def test_counts_events(self):
        series, t0 = hourly_series([10.0, 20.0, 3700.0])
        assert t0 == 0.0
        assert series[0] == 2
        assert series[1] == 1

    def test_weights(self):
        series, _ = hourly_series([10.0, 20.0], weights=[4.0, 8.0])
        assert series[0] == pytest.approx(12.0)

    def test_empty(self):
        series, t0 = hourly_series([])
        assert series.tolist() == [0.0]

    def test_explicit_range(self):
        series, t0 = hourly_series([7200.0], start_time=0.0, end_time=10_800.0)
        assert t0 == 0.0
        assert len(series) >= 3
        assert series[2] == 1

    def test_weight_alignment_checked(self):
        with pytest.raises(ValueError):
            hourly_series([1.0, 2.0], weights=[1.0])
