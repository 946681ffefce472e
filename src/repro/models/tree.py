"""CART decision trees with minimal cost-complexity pruning.

The Packing Analyze Model (§3.5.1) is a pruned decision-tree classifier:
it "can provide a transparent decision process and excellent prediction
accuracy" and is pruned with minimal cost-complexity pruning [Breiman et
al. 1984] "to obtain a compact and accurate model".  This module implements
exactly that, from scratch on numpy: binary CART trees (Gini impurity for
classification, variance for regression), Breiman's weakest-link pruning,
Gini feature importances, and text/path export for interpretation
(Figure 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class TreeNode:
    """One node of a fitted tree.  Leaves have ``feature is None``."""

    n: int
    impurity: float
    value: np.ndarray  # class counts (classifier) or [mean] (regressor)
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def make_leaf(self) -> None:
        self.feature = None
        self.left = None
        self.right = None

    def leaves(self) -> List["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()

    def n_leaves(self) -> int:
        return len(self.leaves())

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def internal_nodes(self) -> List["TreeNode"]:
        if self.is_leaf:
            return []
        return [self] + self.left.internal_nodes() + self.right.internal_nodes()


class _BaseDecisionTree:
    """Shared CART machinery; subclasses define the impurity criterion."""

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: Optional[int] = None,
                 random_state: Optional[np.random.Generator] = None) -> None:
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid min_samples parameters")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: Optional[TreeNode] = None
        self.n_features_: int = 0
        self._n_train: int = 0

    # -- subclass hooks -------------------------------------------------
    def _node_stats(self, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return (impurity, value) of a node containing targets ``y``."""
        raise NotImplementedError

    def _split_scores(self, y_sorted: np.ndarray) -> np.ndarray:
        """Weighted child impurity for every split position 1..n-1."""
        raise NotImplementedError

    # -- fitting ---------------------------------------------------------
    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        self._n_train = X.shape[0]
        self.root_ = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        impurity, value = self._node_stats(y)
        node = TreeNode(n=len(y), impurity=impurity, value=value)
        if (len(y) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or impurity <= 1e-12):
            return node
        split = self._find_best_split(X, y, impurity)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_)
        rng = self.random_state or np.random.default_rng()
        return rng.choice(self.n_features_, size=self.max_features,
                          replace=False)

    def _find_best_split(self, X: np.ndarray, y: np.ndarray,
                         parent_impurity: float
                         ) -> Optional[Tuple[int, float]]:
        n = len(y)
        best_score = parent_impurity - 1e-9  # require strict improvement
        best: Optional[Tuple[int, float]] = None
        leaf = self.min_samples_leaf
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            scores = self._split_scores(ys)  # index i => left size i+1... see below
            # Position i means the left child holds the first i samples.
            positions = np.arange(1, n)
            valid = (positions >= leaf) & (positions <= n - leaf)
            valid &= xs[positions] > xs[positions - 1]
            if not np.any(valid):
                continue
            masked = np.where(valid, scores, np.inf)
            idx = int(np.argmin(masked))
            if masked[idx] < best_score:
                best_score = masked[idx]
                threshold = (xs[idx] + xs[idx + 1]) / 2.0
                best = (int(feature), float(threshold))
        return best

    # -- prediction -------------------------------------------------------
    def _leaf_for(self, x: np.ndarray) -> TreeNode:
        node = self.root_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def decision_path(self, x) -> List[Tuple[int, float, bool]]:
        """The (feature, threshold, went_left) comparisons for one sample.

        This powers the transparent per-prediction explanations of Figure 6.
        """
        self._check_fitted()
        x = np.asarray(x, dtype=float).ravel()
        path: List[Tuple[int, float, bool]] = []
        node = self.root_
        while not node.is_leaf:
            went_left = bool(x[node.feature] <= node.threshold)
            path.append((node.feature, node.threshold, went_left))
            node = node.left if went_left else node.right
        return path

    def _check_fitted(self) -> None:
        if self.root_ is None:
            raise RuntimeError("model is not fitted")

    # -- interpretation ----------------------------------------------------
    @property
    def n_leaves_(self) -> int:
        self._check_fitted()
        return self.root_.n_leaves()

    @property
    def depth_(self) -> int:
        self._check_fitted()
        return self.root_.depth()

    def feature_importances(self) -> np.ndarray:
        """Normalized Gini/variance importance (Figure 6, right panel)."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)
        total = self.root_.n
        for node in self.root_.internal_nodes():
            gain = (node.n * node.impurity
                    - node.left.n * node.left.impurity
                    - node.right.n * node.right.impurity)
            importances[node.feature] += gain / total
        s = importances.sum()
        return importances / s if s > 0 else importances

    def to_text(self, feature_names: Optional[Sequence[str]] = None,
                class_names: Optional[Sequence[str]] = None) -> str:
        """Human-readable rendering of the learned tree (Figure 6, left)."""
        self._check_fitted()
        names = (list(feature_names) if feature_names is not None
                 else [f"x{i}" for i in range(self.n_features_)])
        lines: List[str] = []

        def render(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                lines.append(f"{indent}-> {self._leaf_label(node, class_names)}"
                             f"  (n={node.n})")
                return
            lines.append(f"{indent}if {names[node.feature]} <= "
                         f"{node.threshold:.2f}:")
            render(node.left, indent + "  ")
            lines.append(f"{indent}else:")
            render(node.right, indent + "  ")

        render(self.root_, "")
        return "\n".join(lines)

    def _leaf_label(self, node: TreeNode, class_names) -> str:
        raise NotImplementedError

    # -- minimal cost-complexity pruning ------------------------------------
    def cost_complexity_pruning_path(self) -> List[float]:
        """Effective alphas of the weakest-link pruning sequence."""
        self._check_fitted()
        alphas = [0.0]
        work = _clone_tree(self.root_)
        while not work.is_leaf:
            alpha, node = _weakest_link(work, self._n_train)
            node.make_leaf()
            alphas.append(alpha)
        return alphas

    def prune(self, ccp_alpha: float) -> "_BaseDecisionTree":
        """Collapse every subtree whose effective alpha is <= ``ccp_alpha``.

        Returns ``self`` (pruned in place), matching the paper's use of
        minimal cost-complexity pruning to compact the packing model.
        """
        self._check_fitted()
        if ccp_alpha < 0:
            raise ValueError("ccp_alpha must be >= 0")
        while not self.root_.is_leaf:
            alpha, node = _weakest_link(self.root_, self._n_train)
            if alpha > ccp_alpha:
                break
            node.make_leaf()
        return self


def _clone_tree(node: TreeNode) -> TreeNode:
    clone = TreeNode(n=node.n, impurity=node.impurity,
                     value=node.value.copy(), feature=node.feature,
                     threshold=node.threshold)
    if not node.is_leaf:
        clone.left = _clone_tree(node.left)
        clone.right = _clone_tree(node.right)
    return clone


def _weakest_link(root: TreeNode, n_total: int) -> Tuple[float, TreeNode]:
    """Find the internal node with the smallest effective alpha."""
    best_alpha = math.inf
    best_node: Optional[TreeNode] = None
    for node in root.internal_nodes():
        r_leaf = node.n / n_total * node.impurity
        r_subtree = sum(leaf.n / n_total * leaf.impurity
                        for leaf in node.leaves())
        n_leaves = node.n_leaves()
        alpha = (r_leaf - r_subtree) / max(n_leaves - 1, 1)
        if alpha < best_alpha:
            best_alpha = alpha
            best_node = node
    return best_alpha, best_node


class DecisionTreeClassifier(_BaseDecisionTree):
    """Gini-impurity CART classifier."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.classes_: Optional[np.ndarray] = None

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self._n_classes = len(self.classes_)
        return super().fit(X, encoded)

    def _node_stats(self, y: np.ndarray) -> Tuple[float, np.ndarray]:
        counts = np.bincount(y, minlength=self._n_classes).astype(float)
        probs = counts / counts.sum()
        return float(1.0 - np.sum(probs ** 2)), counts

    def _split_scores(self, y_sorted: np.ndarray) -> np.ndarray:
        n = len(y_sorted)
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y_sorted] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]  # (n-1, k)
        total = left_counts[-1] + onehot[-1]
        right_counts = total - left_counts
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        return (nl * gini_l + nr * gini_r) / n

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self._n_classes))
        for i, x in enumerate(X):
            counts = self._leaf_for(x).value
            out[i] = counts / counts.sum()
        return out

    def predict(self, X) -> np.ndarray:
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)]

    def attribute(self, x, feature_names: Optional[Sequence[str]] = None,
                  class_index: Optional[int] = None):
        """Decision-path :class:`~repro.models.attrib.Attribution`.

        Attributes the expected class value by default, or
        ``P(classes_[class_index])`` when ``class_index`` is given.
        """
        from repro.models.attrib import attribute_tree

        return attribute_tree(self, x, feature_names=feature_names,
                              class_index=class_index)

    def _leaf_label(self, node: TreeNode, class_names) -> str:
        idx = int(np.argmax(node.value))
        label = (class_names[idx] if class_names is not None
                 else str(self.classes_[idx]))
        return f"class {label}"


class DecisionTreeRegressor(_BaseDecisionTree):
    """Variance-reduction CART regressor."""

    def fit(self, X, y):
        return super().fit(X, np.asarray(y, dtype=float))

    def _node_stats(self, y: np.ndarray) -> Tuple[float, np.ndarray]:
        return float(np.var(y)), np.array([float(np.mean(y))])

    def _split_scores(self, y_sorted: np.ndarray) -> np.ndarray:
        n = len(y_sorted)
        csum = np.cumsum(y_sorted)[:-1]
        csq = np.cumsum(y_sorted ** 2)[:-1]
        total_sum = csum[-1] + y_sorted[-1]
        total_sq = csq[-1] + y_sorted[-1] ** 2
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        var_l = csq / nl - (csum / nl) ** 2
        var_r = (total_sq - csq) / nr - ((total_sum - csum) / nr) ** 2
        # Guard against tiny negative values from floating-point error.
        var_l = np.maximum(var_l, 0.0)
        var_r = np.maximum(var_r, 0.0)
        return (nl * var_l + nr * var_r) / n

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self._leaf_for(x).value[0] for x in X])

    def attribute(self, x, feature_names: Optional[Sequence[str]] = None):
        """Decision-path :class:`~repro.models.attrib.Attribution`."""
        from repro.models.attrib import attribute_tree

        return attribute_tree(self, x, feature_names=feature_names)

    def _leaf_label(self, node: TreeNode, class_names) -> str:
        return f"value {node.value[0]:.3f}"
