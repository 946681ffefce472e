"""Tests for the GA²M additive model."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.gam import GA2MRegressor
from repro.models.isotonic import is_monotonic
from repro.models.metrics import r2_score


@pytest.fixture(scope="module")
def additive_data():
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(800, 3))
    y = 2 * X[:, 0] + np.sin(3 * X[:, 1]) * 2 + rng.normal(0, 0.1, 800)
    return X, y


@pytest.fixture(scope="module")
def interaction_data():
    rng = np.random.default_rng(12)
    X = rng.uniform(-1, 1, size=(1000, 3))
    y = X[:, 0] * X[:, 1] * 4 + rng.normal(0, 0.1, 1000)  # pure interaction
    return X, y


class TestFitting:
    def test_fits_additive_target(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=120).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_generalizes(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=120).fit(X[:600], y[:600])
        assert r2_score(y[600:], model.predict(X[600:])) > 0.9

    def test_interactions_capture_products(self, interaction_data):
        X, y = interaction_data
        gam = GA2MRegressor(n_rounds=100, n_interactions=0).fit(X, y)
        ga2m = GA2MRegressor(n_rounds=100, n_interactions=1).fit(X, y)
        r2_plain = r2_score(y, gam.predict(X))
        r2_pair = r2_score(y, ga2m.predict(X))
        assert r2_pair > r2_plain + 0.2
        assert ga2m.interactions_[0].features == (0, 1) or \
            ga2m.interactions_[0].features == (1, 0)

    def test_constant_target(self):
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = np.full(50, 7.0)
        model = GA2MRegressor(n_rounds=10).fit(X, y)
        assert np.allclose(model.predict(X), 7.0, atol=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GA2MRegressor().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            GA2MRegressor(n_rounds=0)
        with pytest.raises(ValueError):
            GA2MRegressor(feature_names=["a"]).fit(np.zeros((5, 2)), np.zeros(5))

    def test_predict_feature_count_checked(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=10).fit(X, y)
        with pytest.raises(ValueError, match="expected 3"):
            model.predict(np.zeros((2, 5)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GA2MRegressor().predict([[1.0]])


class TestInterpretability:
    def test_global_explanation_importances(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=120,
                              feature_names=["slope", "wave", "noise"]).fit(X, y)
        explanation = model.explain_global()
        top = explanation.top_features(2)
        assert {name for name, _ in top} == {"slope", "wave"}
        # The irrelevant feature carries (almost) no importance.
        assert explanation.importances[2] < 0.1 * explanation.importances[0]

    def test_local_explanation_sums_to_prediction(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=80, n_interactions=1).fit(X, y)
        for i in (0, 17, 99):
            local = model.explain_local(X[i])
            assert local.prediction == pytest.approx(
                float(model.predict(X[i:i + 1])[0]), rel=1e-9)

    def test_local_explanation_sorting(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=60).fit(X, y)
        ranked = model.explain_local(X[0]).sorted_by_magnitude()
        magnitudes = [abs(score) for _, _, score in ranked]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_shape_function_recovers_linear_trend(self, additive_data):
        X, y = additive_data
        model = GA2MRegressor(n_rounds=120).fit(X, y)
        _, values = model.shape_function(0)
        # Feature 0 contributes 2*x: its shape must rise start to end.
        assert values[-1] - values[0] > 4.0

    def test_shapes_centered(self, additive_data):
        """Weighted mean of each shape is ~0 (intercept holds the offset)."""
        X, y = additive_data
        model = GA2MRegressor(n_rounds=60).fit(X, y)
        for shape in model.shapes_:
            mean = np.average(shape.values, weights=shape.bin_counts)
            assert abs(mean) < 1e-8


class TestMonotonicConstraint:
    def test_constraint_makes_shape_monotone(self, rng):
        X = rng.uniform(0, 10, size=(500, 2))
        y = X[:, 0] * 2 + rng.normal(0, 3.0, 500)  # noisy increasing trend
        model = GA2MRegressor(n_rounds=100).fit(X, y)
        model.constrain_monotonic(0, increasing=True)
        _, values = model.shape_function(0)
        assert is_monotonic(values, increasing=True)

    def test_constraint_preserves_accuracy(self, rng):
        X = rng.uniform(0, 10, size=(500, 2))
        y = X[:, 0] * 2 + rng.normal(0, 1.0, 500)
        model = GA2MRegressor(n_rounds=100).fit(X, y)
        before = r2_score(y, model.predict(X))
        model.constrain_monotonic(0, increasing=True)
        after = r2_score(y, model.predict(X))
        assert after > before - 0.05


# ----------------------------------------------------------------------
# One-row inference: predict_one is predict on one row, bit for bit
# ----------------------------------------------------------------------
def _one_row_model() -> GA2MRegressor:
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.integers(0, 6, 400).astype(float),
                         rng.normal(size=400), rng.uniform(-3, 3, 400)])
    y = X[:, 0] * X[:, 1] + np.sin(X[:, 2]) + rng.normal(0, 0.1, 400)
    return GA2MRegressor(n_rounds=40, n_interactions=2).fit(X, y)


@pytest.fixture(scope="module")
def one_row_models():
    constrained = _one_row_model()
    constrained.predict_one([0.0, 0.0, 0.0])  # tables built, then stale
    constrained.constrain_monotonic(0)
    warm = _one_row_model()
    warm.predict_one([0.0, 0.0, 0.0])
    return {"fitted": _one_row_model(), "constrained": constrained,
            "unpickled": pickle.loads(pickle.dumps(warm))}


def _edges_of(model: GA2MRegressor, feature: int):
    edges = list(model.shapes_[feature].bin_edges)
    for fn in model.interactions_:
        for axis, f in enumerate(fn.features):
            if f == feature:
                edges.extend(fn.bin_edges[axis])
    return sorted({float(e) for e in edges})


def _bits(value: float) -> str:
    return float(value).hex()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_predict_one_is_predict_bitwise(one_row_models, data):
    """Binned by ``bisect_right`` over the edges as a list, summed in
    :meth:`predict`'s order: identical bits on every row, including
    NaN, infinities and values exactly on a bin edge."""
    for model in one_row_models.values():
        assert model.interactions_
        row = [data.draw(st.one_of(
            st.floats(),
            st.sampled_from(_edges_of(model, feature)),
            st.sampled_from([float("nan"), float("inf"), -float("inf"),
                             0.0, -0.0])))
            for feature in range(model.n_features_)]
        expected = model.predict(np.array([row]))[0]
        assert _bits(model.predict_one(row)) == _bits(expected)


def test_one_row_tables_are_derived_state():
    model = _one_row_model()
    model.predict_one([1.0, 0.5, -0.5])
    assert model._one_row is not None
    assert "_one_row" not in model.__getstate__()
    loaded = pickle.loads(pickle.dumps(model))
    assert loaded._one_row is None
    model.fit(np.ones((20, 3)), np.arange(20.0))
    assert model._one_row is None


def test_predict_one_nan_edge_takes_predict():
    """A model fitted on NaN data has a NaN edge, where ``bisect`` and
    ``searchsorted`` disagree; predict_one then defers to predict."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 2))
    X[4, 0] = np.nan
    model = GA2MRegressor(n_rounds=5).fit(X, X[:, 1])
    assert np.isnan(model.shapes_[0].bin_edges).any()
    for row in ([0.0, 0.0], [np.nan, 1.0], [-np.inf, np.inf]):
        assert (_bits(model.predict_one(row))
                == _bits(model.predict(np.array([row]))[0]))


def test_predict_one_validates():
    model = _one_row_model()
    with pytest.raises(ValueError):
        model.predict_one([1.0, 2.0])
    with pytest.raises(RuntimeError):
        GA2MRegressor().predict_one([1.0])
