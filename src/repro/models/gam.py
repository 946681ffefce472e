"""GA²M — generalized additive model with pairwise interactions.

Lucid's Throughput Predict Model and Workload Estimate Model are GA²M
models (§3.5.2): ``y = mu + sum_i f_i(x_i) + sum_ij f_ij(x_i, x_j)`` where
every shape function is unary or binary, so the prediction decomposes into
per-feature scores that humans can inspect (Figure 7).

This implementation follows the Explainable Boosting Machine recipe
(Lou et al., KDD'13; Nori et al., ICML'21): features are quantile-binned,
main-effect shape functions are learned by cyclic gradient boosting of
per-bin residual means, and the strongest pairwise interactions (FAST-style
residual screening) get 2-D shape functions boosted on top.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.isotonic import isotonic_fit


@dataclass
class ShapeFunction:
    """A learned unary shape function over binned feature values."""

    feature: int
    bin_edges: np.ndarray   # (n_bins - 1,) interior edges
    values: np.ndarray      # (n_bins,) additive score per bin
    bin_counts: np.ndarray  # training sample count per bin

    def bin_of(self, x: np.ndarray) -> np.ndarray:
        return np.digitize(x, self.bin_edges)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.values[self.bin_of(np.asarray(x, dtype=float))]


@dataclass
class InteractionFunction:
    """A learned binary (pairwise) shape function."""

    features: Tuple[int, int]
    bin_edges: Tuple[np.ndarray, np.ndarray]
    values: np.ndarray  # (n_bins_i, n_bins_j)

    def bins_of(self, xi: np.ndarray, xj: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        return (np.digitize(xi, self.bin_edges[0]),
                np.digitize(xj, self.bin_edges[1]))

    def __call__(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        bi, bj = self.bins_of(np.asarray(xi, dtype=float),
                              np.asarray(xj, dtype=float))
        return self.values[bi, bj]


@dataclass
class GlobalExplanation:
    """Overall feature importances and shape functions (Figure 7a/b)."""

    feature_names: List[str]
    importances: np.ndarray
    shapes: List[ShapeFunction]

    def top_features(self, k: int = 10) -> List[Tuple[str, float]]:
        order = np.argsort(self.importances)[::-1][:k]
        return [(self.feature_names[i], float(self.importances[i]))
                for i in order]


@dataclass
class LocalExplanation:
    """Per-prediction additive score breakdown (Figure 7c)."""

    intercept: float
    contributions: List[Tuple[str, float, float]]  # (name, feature value, score)

    @property
    def prediction(self) -> float:
        return self.intercept + sum(score for _, _, score in self.contributions)

    def sorted_by_magnitude(self) -> List[Tuple[str, float, float]]:
        return sorted(self.contributions, key=lambda c: -abs(c[2]))


class GA2MRegressor:
    """Cyclically boosted additive model with optional pairwise terms.

    Parameters
    ----------
    n_rounds:
        Boosting passes over the feature set.
    learning_rate:
        Shrinkage per boosting update.
    max_bins:
        Quantile bins per feature.
    n_interactions:
        Number of pairwise interaction terms to learn (0 = pure GAM).
    interaction_bins:
        Bins per axis for pairwise terms.
    smoothing:
        Additive count regularization of per-bin residual means.
    feature_names:
        Names used in explanations.
    """

    def __init__(self, n_rounds: int = 150, learning_rate: float = 0.1,
                 max_bins: int = 32, n_interactions: int = 0,
                 interaction_bins: int = 8, smoothing: float = 2.0,
                 feature_names: Optional[Sequence[str]] = None,
                 random_state: int = 0) -> None:
        if n_rounds < 1 or max_bins < 2:
            raise ValueError("n_rounds >= 1 and max_bins >= 2 required")
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_bins = max_bins
        self.n_interactions = n_interactions
        self.interaction_bins = interaction_bins
        self.smoothing = smoothing
        self.feature_names = list(feature_names) if feature_names else None
        self.random_state = random_state
        self.intercept_: float = 0.0
        self.shapes_: List[ShapeFunction] = []
        self.interactions_: List[InteractionFunction] = []
        self.n_features_: int = 0
        #: :meth:`predict_one`'s lookup tables, built lazily from the
        #: fitted terms.  Derived, so never pickled.
        self._one_row: Optional[_OneRowTables] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_one_row", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._one_row = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be 2-D and aligned with y")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        n, d = X.shape
        self.n_features_ = d
        if self.feature_names is None:
            self.feature_names = [f"x{i}" for i in range(d)]
        elif len(self.feature_names) != d:
            raise ValueError("feature_names length mismatch")

        self._one_row = None
        self.intercept_ = float(np.mean(y))
        self.shapes_ = [self._init_shape(i, X[:, i]) for i in range(d)]
        # Contiguous bin columns and each feature's ``count + smoothing``
        # denominator, computed once: both are fixed for the whole fit.
        columns = [self.shapes_[i].bin_of(X[:, i]) for i in range(d)]
        denominators = [
            np.bincount(col, minlength=len(shape.values)) + self.smoothing
            for col, shape in zip(columns, self.shapes_)]

        prediction = np.full(n, self.intercept_)
        residual = np.empty(n)
        for _ in range(self.n_rounds):
            for shape, col, denominator in zip(self.shapes_, columns,
                                               denominators):
                np.subtract(y, prediction, out=residual)
                update = np.bincount(col, weights=residual,
                                     minlength=len(shape.values))
                update /= denominator
                update *= self.learning_rate
                shape.values += update
                prediction += update.take(col)
        self._center_shapes()

        if self.n_interactions > 0:
            self._fit_interactions(X, y, prediction)
        return self

    def _init_shape(self, feature: int, column: np.ndarray) -> ShapeFunction:
        edges = _quantile_edges(column, self.max_bins)
        n_bins = len(edges) + 1
        counts = np.bincount(np.digitize(column, edges), minlength=n_bins)
        return ShapeFunction(feature=feature, bin_edges=edges,
                             values=np.zeros(n_bins),
                             bin_counts=counts.astype(float))

    def _center_shapes(self) -> None:
        """Shift each shape to zero weighted mean, folding into intercept."""
        for shape in self.shapes_:
            total = shape.bin_counts.sum()
            if total == 0:
                continue
            mean = float(np.average(shape.values, weights=shape.bin_counts))
            shape.values -= mean
            self.intercept_ += mean

    # ------------------------------------------------------------------
    # Pairwise interactions
    # ------------------------------------------------------------------
    def _fit_interactions(self, X: np.ndarray, y: np.ndarray,
                          prediction: np.ndarray) -> None:
        residual = y - prediction
        candidates = self._rank_interaction_candidates(X, residual)
        chosen = candidates[: self.n_interactions]
        self.interactions_ = []
        cells: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, j in chosen:
            edges_i = _quantile_edges(X[:, i], self.interaction_bins)
            edges_j = _quantile_edges(X[:, j], self.interaction_bins)
            fn = InteractionFunction(
                features=(i, j), bin_edges=(edges_i, edges_j),
                values=np.zeros((len(edges_i) + 1, len(edges_j) + 1)))
            self.interactions_.append(fn)
            bi, bj = fn.bins_of(X[:, i], X[:, j])
            flat = bi * fn.values.shape[1] + bj
            cells.append((flat, np.bincount(flat, minlength=fn.values.size)
                          + self.smoothing))
        rounds = max(1, self.n_rounds // 3)
        for _ in range(rounds):
            for fn, (flat, denominator) in zip(self.interactions_, cells):
                np.subtract(y, prediction, out=residual)
                update = np.bincount(flat, weights=residual,
                                     minlength=fn.values.size)
                update /= denominator
                update *= self.learning_rate
                fn.values += update.reshape(fn.values.shape)
                prediction += update.take(flat)

    def _rank_interaction_candidates(self, X: np.ndarray,
                                     residual: np.ndarray
                                     ) -> List[Tuple[int, int]]:
        """FAST-style screen: rank pairs by residual variance explained."""
        importances = self._importances()
        top = list(np.argsort(importances)[::-1][:8])
        scored: List[Tuple[float, Tuple[int, int]]] = []
        for a in range(len(top)):
            for b in range(a + 1, len(top)):
                i, j = int(top[a]), int(top[b])
                gain = self._pair_gain(X[:, i], X[:, j], residual)
                scored.append((gain, (i, j)))
        scored.sort(key=lambda t: -t[0])
        return [pair for _, pair in scored]

    def _pair_gain(self, xi: np.ndarray, xj: np.ndarray,
                   residual: np.ndarray) -> float:
        edges_i = _quantile_edges(xi, 8)
        edges_j = _quantile_edges(xj, 8)
        bi = np.digitize(xi, edges_i)
        bj = np.digitize(xj, edges_j)
        nj = len(edges_j) + 1
        flat = bi * nj + bj
        n_cells = (len(edges_i) + 1) * nj
        sums = np.bincount(flat, weights=residual, minlength=n_cells)
        counts = np.bincount(flat, minlength=n_cells).astype(float)
        means = sums / np.maximum(counts, 1.0)
        return float(np.sum(counts * means ** 2))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features")
        out = np.full(X.shape[0], self.intercept_)
        for shape in self.shapes_:
            out += shape(X[:, shape.feature])
        for fn in self.interactions_:
            i, j = fn.features
            out += fn(X[:, i], X[:, j])
        return out

    def predict_one(self, row: Sequence[float]) -> float:
        """``predict(row[None])[0]`` for one row, bit for bit, in plain
        Python: the per-call cost of a scheduling decision, not of numpy.

        ``np.digitize`` over increasing edges is ``searchsorted(side=
        "right")``, which is ``bisect_right`` over the same floats (NaN
        sorts last in both), and the terms are added as Python floats in
        :meth:`predict`'s order.  Models with a NaN bin edge (fitted on
        NaN data) take :meth:`predict` itself.
        """
        tables = self._one_row
        if tables is None:
            self._check_fitted()
            tables = self._one_row = _OneRowTables.of(self)
        if len(row) != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features")
        if not tables.exact:
            return float(self.predict(np.asarray(row, dtype=float)[None])[0])
        x = [float(v) for v in row]
        total = self.intercept_
        for feature, edges, values in tables.shapes:
            total += values[bisect_right(edges, x[feature])]
        for i, j, edges_i, edges_j, values in tables.interactions:
            total += values[bisect_right(edges_i, x[i])][
                bisect_right(edges_j, x[j])]
        return total

    def _check_fitted(self) -> None:
        if not self.shapes_:
            raise RuntimeError("model is not fitted")

    # ------------------------------------------------------------------
    # Interpretation
    # ------------------------------------------------------------------
    def _importances(self) -> np.ndarray:
        imps = np.zeros(self.n_features_)
        for shape in self.shapes_:
            weights = shape.bin_counts
            total = weights.sum()
            if total > 0:
                imps[shape.feature] = float(
                    np.average(np.abs(shape.values), weights=weights))
        return imps

    def explain_global(self) -> GlobalExplanation:
        """Average absolute score per feature plus the shape functions."""
        self._check_fitted()
        return GlobalExplanation(
            feature_names=list(self.feature_names),
            importances=self._importances(),
            shapes=list(self.shapes_),
        )

    def explain_local(self, x) -> LocalExplanation:
        """Additive decomposition of one prediction (Figure 7c)."""
        self._check_fitted()
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features")
        contributions: List[Tuple[str, float, float]] = []
        for shape in self.shapes_:
            score = float(shape(np.array([x[shape.feature]]))[0])
            contributions.append((self.feature_names[shape.feature],
                                  float(x[shape.feature]), score))
        for fn in self.interactions_:
            i, j = fn.features
            score = float(fn(np.array([x[i]]), np.array([x[j]]))[0])
            name = f"{self.feature_names[i]} x {self.feature_names[j]}"
            contributions.append((name, float("nan"), score))
        return LocalExplanation(intercept=self.intercept_,
                                contributions=contributions)

    def attribute(self, x):
        """Per-term :class:`~repro.models.attrib.Attribution` (exact)."""
        from repro.models.attrib import attribute_gam

        return attribute_gam(self, x)

    def shape_function(self, feature: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(interior bin edges, per-bin scores)`` of one feature."""
        self._check_fitted()
        shape = self.shapes_[feature]
        return shape.bin_edges.copy(), shape.values.copy()

    def constrain_monotonic(self, feature: int, increasing: bool = True) -> None:
        """Impose a monotonic constraint on one shape function via PAV.

        This is the System Tuner's model-troubleshooting operation (§3.6.1):
        the learned shape is replaced by its isotonic regression, weighted
        by training bin counts, so the constraint costs the least possible
        weighted squared error.
        """
        self._check_fitted()
        shape = self.shapes_[feature]
        weights = np.maximum(shape.bin_counts, 1e-9)
        fitted = isotonic_fit(shape.values, weights=weights,
                              increasing=increasing)
        shape.values = fitted
        self._center_shapes()
        self._one_row = None


@dataclass
class _OneRowTables:
    """A fitted GA²M's terms as Python lists, for :meth:`GA2MRegressor.
    predict_one`: ``(feature, edges, values)`` per shape and ``(i, j,
    edges_i, edges_j, values)`` per interaction."""

    shapes: List[Tuple[int, List[float], List[float]]]
    interactions: List[Tuple[int, int, List[float], List[float],
                             List[List[float]]]]
    #: False when an edge is NaN, where ``bisect`` and ``searchsorted``
    #: order differently.
    exact: bool

    @classmethod
    def of(cls, model: GA2MRegressor) -> "_OneRowTables":
        edges = [s.bin_edges for s in model.shapes_]
        edges += [e for fn in model.interactions_ for e in fn.bin_edges]
        return cls(
            shapes=[(s.feature, s.bin_edges.tolist(), s.values.tolist())
                    for s in model.shapes_],
            interactions=[(fn.features[0], fn.features[1],
                           fn.bin_edges[0].tolist(), fn.bin_edges[1].tolist(),
                           fn.values.tolist())
                          for fn in model.interactions_],
            exact=not any(np.isnan(e).any() for e in edges))


def _quantile_edges(column: np.ndarray, max_bins: int) -> np.ndarray:
    """Interior bin edges from quantiles, deduplicated."""
    qs = np.linspace(0, 1, max_bins + 1)[1:-1]
    edges = np.unique(np.quantile(column, qs))
    return edges
