"""Tests for isotonic regression, the MLP, text tools and metrics."""

import numpy as np
import pytest

from repro.models.isotonic import is_monotonic, isotonic_fit
from repro.models.metrics import (
    accuracy,
    confusion_matrix,
    mae,
    r2_score,
    rmse,
)
from repro.models.nn import MLPRegressor
from repro.models.text import (
    AffinityPropagation,
    cluster_job_names,
    levenshtein,
    levenshtein_distance_matrix,
    levenshtein_similarity_matrix,
)


class TestIsotonic:
    def test_already_monotone_unchanged(self):
        y = [1.0, 2.0, 3.0]
        assert np.allclose(isotonic_fit(y), y)

    def test_pools_violators(self):
        fitted = isotonic_fit([3.0, 1.0, 2.0])
        assert is_monotonic(fitted)
        assert fitted[0] == fitted[1] == pytest.approx(2.0)

    def test_weighted_pooling(self):
        fitted = isotonic_fit([4.0, 0.0], weights=[3.0, 1.0])
        assert fitted[0] == fitted[1] == pytest.approx(3.0)

    def test_decreasing_direction(self):
        fitted = isotonic_fit([1.0, 3.0, 2.0], increasing=False)
        assert is_monotonic(fitted, increasing=False)

    def test_preserves_weighted_mean(self, rng):
        y = rng.normal(size=30)
        w = rng.uniform(0.5, 2.0, size=30)
        fitted = isotonic_fit(y, weights=w)
        assert np.average(fitted, weights=w) == pytest.approx(
            np.average(y, weights=w))

    def test_empty_input(self):
        assert isotonic_fit([]).size == 0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            isotonic_fit([1.0, 2.0], weights=[1.0])
        with pytest.raises(ValueError):
            isotonic_fit([1.0, 2.0], weights=[1.0, -1.0])

    def test_is_monotonic_checks(self):
        assert is_monotonic([1, 1, 2])
        assert not is_monotonic([2, 1])
        assert is_monotonic([3, 2, 2], increasing=False)
        assert is_monotonic([5.0])


class TestMLP:
    def test_learns_linear_function(self, rng):
        X = rng.normal(size=(400, 3))
        y = 3 * X[:, 0] - 2 * X[:, 1] + 0.5
        model = MLPRegressor(hidden=(32,), epochs=100, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_learns_nonlinear_function(self, rng):
        X = rng.uniform(-2, 2, size=(600, 2))
        y = np.sin(X[:, 0] * 2) + X[:, 1] ** 2
        model = MLPRegressor(hidden=(64, 32), epochs=80, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.9

    def test_deterministic(self, rng):
        X = rng.normal(size=(100, 2))
        y = X[:, 0]
        p1 = MLPRegressor(epochs=5, random_state=7).fit(X, y).predict(X[:5])
        p2 = MLPRegressor(epochs=5, random_state=7).fit(X, y).predict(X[:5])
        assert np.allclose(p1, p2)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPRegressor().predict([[1.0, 2.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden=())


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("kitten", "sitting", 3),
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("same", "same", 0),
        ("a", "b", 1),
        ("flaw", "lawn", 2),
    ])
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    def test_matrix_matches_scalar(self):
        names = ["trainer-r50", "trainer-r18", "bert-qa", "x", ""]
        matrix = levenshtein_distance_matrix(names)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert matrix[i, j] == levenshtein(a, b)

    def test_similarity_matrix_properties(self):
        names = ["aaa", "aab", "zzz"]
        sim = levenshtein_similarity_matrix(names)
        assert sim.shape == (3, 3)
        assert np.allclose(sim, sim.T)
        assert sim[0, 1] > sim[0, 2]  # aaa closer to aab than zzz

    def test_similarity_normalises_by_utf8_bytes(self):
        # Distances count UTF-8 bytes, so lengths must too: the empty
        # name is exactly as far from "é-ü" (5 bytes) as from "abc".
        sim = levenshtein_similarity_matrix(["", "é-ü", "abc"])
        assert sim[0, 1] == sim[1, 0] == -1.0
        assert sim[0, 2] == sim[2, 0] == -1.0
        mixed = levenshtein_similarity_matrix(["日本語", "x", "ü-run", ""])
        assert mixed.min() >= -1.0


class TestAffinityPropagation:
    def test_clusters_two_blobs(self):
        # Similarity: two obvious groups.
        names = ["aaaa1", "aaaa2", "aaaa3", "zzzz1", "zzzz2"]
        sim = levenshtein_similarity_matrix(names)
        ap = AffinityPropagation().fit(sim)
        labels = ap.labels_
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_single_point(self):
        ap = AffinityPropagation().fit(np.zeros((1, 1)))
        assert ap.labels_.tolist() == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AffinityPropagation(damping=0.4)
        with pytest.raises(ValueError):
            AffinityPropagation().fit(np.zeros((2, 3)))


class TestClusterJobNames:
    def test_groups_templates(self):
        names = ["u1-resnet-a", "u1-resnet-b", "u2-bert-a", "u2-bert-b"]
        mapping = cluster_job_names(names)
        assert mapping["u1-resnet-a"] == mapping["u1-resnet-b"]
        assert mapping["u2-bert-a"] == mapping["u2-bert-b"]
        assert mapping["u1-resnet-a"] != mapping["u2-bert-a"]

    def test_covers_all_names_beyond_cap(self):
        names = [f"group{i % 3}-run{i}" for i in range(60)]
        mapping = cluster_job_names(names, max_unique=20)
        assert set(mapping) == set(names)

    def test_empty_and_single(self):
        assert cluster_job_names([]) == {}
        assert cluster_job_names(["only"]) == {"only": 0}


class TestMetrics:
    def test_mae(self):
        assert mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_rmse(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5))

    def test_r2_perfect_and_constant(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0
        assert r2_score([1, 2, 3], [2, 2, 2]) == 0.0

    def test_r2_worse_than_mean_is_negative(self):
        assert r2_score([1, 2, 3], [3, 2, 1]) < 0

    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 1, 1, 1]) == 0.75

    def test_confusion_matrix(self):
        cm = confusion_matrix([0, 1, 1, 2], [0, 1, 2, 2])
        assert cm[1, 1] == 1 and cm[1, 2] == 1 and cm[2, 2] == 1
        assert cm.sum() == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1])
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])
