"""Baseline classifiers and the data protocol around them.

Split, undersample, then fit one of: ridge-stabilized logistic regression
(IRLS), a CART-style decision tree pruned by cross-validated depth selection,
or a bagged forest of such trees with per-split feature subsampling. The
forest records, per tree, exactly which features its internal nodes test,
and prediction exposes per-tree votes; both are needed by the profit-based
feature importance downstream.

All randomness is drawn from named substreams of one seed, so any model is
replayable in isolation.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .errors import ConvergenceError, DataError
from .seeding import substream

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Data protocol: split and undersample.
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise DataError("train_fraction must lie in (0, 1)")


def split(y: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test row indices, reproducible by seed.

    The split is stratified: train sizes per class are allocated by largest
    remainder so that the class mix holds and the total is exactly
    round(train_fraction * n).
    """
    y = np.asarray(y, dtype=bool)
    n = len(y)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    rng = substream(spec.seed, "split")
    n_train = int(round(spec.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    classes = [np.flatnonzero(~y), np.flatnonzero(y)]
    if any(len(c) < 2 for c in classes):
        raise DataError("too few instances in a class to stratify the split")
    exact = [spec.train_fraction * len(c) for c in classes]
    base = [int(math.floor(e)) for e in exact]
    base = [min(max(b, 1), len(c) - 1) for b, c in zip(base, classes)]
    leftover = n_train - sum(base)
    order = sorted(range(len(classes)), key=lambda i: (-(exact[i] - math.floor(exact[i])), i))
    while leftover != 0:
        moved = False
        for i in order:
            if leftover == 0:
                break
            step = 1 if leftover > 0 else -1
            if 1 <= base[i] + step <= len(classes[i]) - 1:
                base[i] += step
                leftover -= step
                moved = True
        if not moved:
            break
    train_parts, test_parts = [], []
    for quota, members in zip(base, classes):
        perm = rng.permutation(len(members))
        train_parts.append(members[perm[:quota]])
        test_parts.append(members[perm[quota:]])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def undersample(
    train_idx: np.ndarray,
    y: np.ndarray,
    ratio: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Subsample the majority class of the training rows to minority:majority = ratio.

    The minority class is untouched and the test set is never involved.
    """
    if ratio <= 0:
        raise DataError("ratio must be positive")
    train_idx = np.asarray(train_idx)
    y = np.asarray(y, dtype=bool)
    labels = y[train_idx]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("both classes must be present to undersample")
    minority_is_pos = n_pos <= n_neg
    n_min = min(n_pos, n_neg)
    target_maj = int(round(n_min / ratio))
    majority = train_idx[labels != minority_is_pos]
    if target_maj > len(majority):
        raise DataError(
            f"cannot reach ratio {ratio}: majority class has only {len(majority)} rows"
        )
    rng = substream(seed, "undersample")
    pick = rng.choice(len(majority), size=target_maj, replace=False)
    kept = np.concatenate([train_idx[labels == minority_is_pos], majority[pick]])
    return np.sort(kept)


# ---------------------------------------------------------------------------
# Scored predictions.
# ---------------------------------------------------------------------------

@dataclass
class ScoredDataset:
    """Labels plus predicted default probabilities, with per-tree votes for forests."""

    y: np.ndarray
    score: np.ndarray
    per_tree_votes: np.ndarray | None = None
    subject_ids: list | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=bool)
        self.score = np.asarray(self.score, dtype=np.float64)
        if self.score.shape != self.y.shape:
            raise DataError("scores must align with labels")
        if len(self.score) and (self.score.min() < 0 or self.score.max() > 1):
            raise DataError("scores must lie in [0, 1]")
        if self.per_tree_votes is not None:
            self.per_tree_votes = np.asarray(self.per_tree_votes, dtype=np.int8)
            if self.per_tree_votes.shape[1] != len(self.y):
                raise DataError("per-tree votes must align with instances")

    def __len__(self) -> int:
        return len(self.y)


def _rank_auc(y: np.ndarray, score: np.ndarray) -> float:
    """Midrank AUC; equals the trapezoidal area with tied scores grouped."""
    y = np.asarray(y, dtype=bool)
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise DataError("AUC needs both classes")
    ranks = rankdata(score)
    return float((ranks[y].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


# ---------------------------------------------------------------------------
# Logistic regression by iteratively reweighted least squares.
# ---------------------------------------------------------------------------

_EPS = 1e-12
RIDGE = 1e-6  # penalty on every coefficient but the intercept


@dataclass
class LogisticModel:
    coef: np.ndarray
    intercept: float
    n_iter: int
    converged: bool


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> LogisticModel:
    """Fit by Newton/IRLS on the ridge-penalized log-likelihood.

    The intercept is unpenalized; zero-variance columns get coefficient zero.
    Steps are halved whenever the penalized deviance would rise, which keeps
    the iteration stable on separable data. Raises ConvergenceError with the
    iteration count if the step never shrinks below `tol`.
    """
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    n, m = X.shape
    active = np.flatnonzero(X.std(axis=0) > 0)
    design = np.column_stack([np.ones(n), X[:, active]])
    k = design.shape[1]
    penalty = np.full(k, RIDGE)
    penalty[0] = 0.0

    def deviance(beta: np.ndarray) -> float:
        eta = design @ beta
        # log(1 + exp(eta)) - y * eta, computed stably
        ll = np.logaddexp(0.0, eta) - y01 * eta
        return float(2 * ll.sum() + (penalty * beta * beta).sum())

    beta = np.zeros(k)
    current = deviance(beta)
    step_size = np.inf
    for iteration in range(1, max_iter + 1):
        mu = np.clip(_sigmoid(design @ beta), _EPS, 1 - _EPS)
        w = mu * (1 - mu)
        grad = design.T @ (y01 - mu) - penalty * beta
        hess = (design * w[:, None]).T @ design + np.diag(penalty + 1e-12)
        delta = np.linalg.solve(hess, grad)
        for _ in range(40):
            candidate = deviance(beta + delta)
            if candidate <= current + 1e-12:
                break
            delta = delta / 2
        beta = beta + delta
        current = deviance(beta)
        step_size = float(np.abs(delta).max())
        if step_size <= tol:
            coef = np.zeros(m)
            coef[active] = beta[1:]
            return LogisticModel(coef=coef, intercept=float(beta[0]), n_iter=iteration, converged=True)
    raise ConvergenceError(
        f"logistic regression did not converge in {max_iter} iterations",
        iterations=max_iter,
        residual=step_size,
    )


def predict_logistic(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    eta = np.asarray(X, dtype=np.float64) @ model.coef + model.intercept
    return np.clip(_sigmoid(eta), _EPS, 1 - _EPS)


# ---------------------------------------------------------------------------
# Decision trees: CART with Gini impurity, exact split search.
# ---------------------------------------------------------------------------

@dataclass
class TreeModel:
    """Binary tree in flat arrays; feature[i] == -1 marks a leaf.

    `prob` holds the training positive-class share at each node, `vote` the
    hard class with leaf ties resolved toward the parent's majority (positive
    at the root). `features_used` is exactly the set tested at internal nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    prob: np.ndarray
    vote: np.ndarray
    depth: int
    features_used: frozenset = field(default_factory=frozenset)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


_GAIN_TOL = 1e-12


def _best_split(X: np.ndarray, y01: np.ndarray, idx: np.ndarray, feats: np.ndarray, min_leaf: int):
    """Exact Gini split search over `feats`, vectorized across features.

    Returns (feature, threshold) or None. The minimized quantity is the total
    child impurity mass n_L*g_L + n_R*g_R; ties resolve to the first feature
    in `feats` order and the lowest threshold.
    """
    n = len(idx)
    xs = X[np.ix_(idx, feats)]
    order = np.argsort(xs, axis=0, kind="stable")
    xs = np.take_along_axis(xs, order, axis=0)
    ys = y01[idx][order]
    cum1 = np.cumsum(ys, axis=0)
    total1 = cum1[-1]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    n1_left = cum1[:-1]
    n0_left = n_left - n1_left
    n1_right = total1[None, :] - n1_left
    n0_right = n_right - n1_right
    cost = (
        n_left - (n1_left * n1_left + n0_left * n0_left) / n_left
        + n_right - (n1_right * n1_right + n0_right * n0_right) / n_right
    )
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    # argmin over (position, feature) with feature-major priority on ties
    flat = np.argmin(cost.T)
    f_local, pos = divmod(flat, cost.shape[0])
    best = cost[pos, f_local]
    total = float(total1[f_local])
    parent_cost = n - (total * total + (n - total) * (n - total)) / n
    if parent_cost - best <= _GAIN_TOL:
        return None
    left_value = xs[pos, f_local]
    right_value = xs[pos + 1, f_local]
    threshold = 0.5 * (left_value + right_value)
    if not (left_value < threshold < right_value):
        # adjacent floats: splitting at the left value keeps the exact partition
        threshold = left_value
    return int(feats[f_local]), float(threshold)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
    mtry: int | None,
    rng: np.random.Generator | None,
) -> TreeModel:
    y01 = np.asarray(y, dtype=np.float64)
    n, m = X.shape
    feature, threshold, left, right = [], [], [], []
    n0s, n1s, probs, votes = [], [], [], []
    used: set = set()
    max_seen_depth = 0

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        n0s.append(0)
        n1s.append(0)
        probs.append(0.0)
        votes.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), 0, 1)]  # node, rows, depth, parent majority
    while stack:
        node, idx, depth, parent_major = stack.pop()
        n_here = len(idx)
        n1 = int(y01[idx].sum())
        n0 = n_here - n1
        major = 1 if n1 > n0 else 0 if n0 > n1 else parent_major
        n0s[node], n1s[node] = n0, n1
        probs[node] = n1 / n_here
        votes[node] = major
        max_seen_depth = max(max_seen_depth, depth)
        if n1 == 0 or n0 == 0 or n_here < 2 * min_leaf:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if mtry is not None and mtry < m:
            feats = np.sort(rng.choice(m, size=mtry, replace=False))
        else:
            feats = np.arange(m)
        found = _best_split(X, y01, idx, feats, min_leaf)
        if found is None:
            continue
        f, thr = found
        used.add(f)
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left_child = new_node()
        right_child = new_node()
        left[node] = left_child
        right[node] = right_child
        # push right first so left children are processed (and numbered) first
        stack.append((right_child, idx[~go_left], depth + 1, major))
        stack.append((left_child, idx[go_left], depth + 1, major))

    return TreeModel(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        n0=np.asarray(n0s, dtype=np.int64),
        n1=np.asarray(n1s, dtype=np.int64),
        prob=np.asarray(probs, dtype=np.float64),
        vote=np.asarray(votes, dtype=np.int8),
        depth=max_seen_depth,
        features_used=frozenset(used),
    )


def _tree_leaf_nodes(tree: TreeModel, X: np.ndarray) -> np.ndarray:
    pos = np.zeros(len(X), dtype=np.int32)
    while True:
        feats = tree.feature[pos]
        active = np.flatnonzero(feats >= 0)
        if active.size == 0:
            return pos
        node = pos[active]
        go_left = X[active, feats[active]] <= tree.threshold[node]
        pos[active] = np.where(go_left, tree.left[node], tree.right[node])


def predict_tree_proba(tree: TreeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return tree.prob[_tree_leaf_nodes(tree, X)]


def predict_tree_votes(tree: TreeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return tree.vote[_tree_leaf_nodes(tree, X)]


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    fold = np.empty(len(y), dtype=np.int32)
    for cls in (False, True):
        members = np.flatnonzero(y == cls)
        perm = rng.permutation(len(members))
        fold[members[perm]] = np.arange(len(members)) % k
    return fold


DEPTH_GRID = (2, 3, 4, 6, 8, 12, 16)


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    cv_folds: int = 10,
    min_leaf: int = 5,
    seed: int = 0,
) -> TreeModel:
    """Depth-pruned CART: pick tree depth by cross-validated AUC, refit on all rows.

    Requires at least `cv_folds` rows of each class so every fold sees both.
    Ties in CV AUC go to the shallower tree.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if min(n_pos, n_neg) < cv_folds:
        raise DataError(
            f"need at least {cv_folds} instances per class for {cv_folds}-fold pruning"
        )
    rng = substream(seed, "tree-cv")
    fold = _stratified_folds(y, cv_folds, rng)
    best_depth, best_auc = None, -np.inf
    for depth in DEPTH_GRID:
        aucs = []
        for f in range(cv_folds):
            hold = fold == f
            tree = _grow_tree(X[~hold], y[~hold], depth, min_leaf, None, None)
            aucs.append(_rank_auc(y[hold], predict_tree_proba(tree, X[hold])))
        mean_auc = float(np.mean(aucs))
        if mean_auc > best_auc + 1e-12:
            best_auc, best_depth = mean_auc, depth
    logger.debug("train_tree: depth %s selected (cv auc %.4f)", best_depth, best_auc)
    return _grow_tree(X, y, best_depth, min_leaf, None, None)


# ---------------------------------------------------------------------------
# Random forest: bagged trees with per-split feature subsampling.
# ---------------------------------------------------------------------------

@dataclass
class ForestModel:
    trees: list
    tree_seeds: list
    mtry: int
    bootstrap: bool = True

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def feature_membership(self, n_features: int) -> np.ndarray:
        """Boolean matrix (trees x features): does the tree test the feature."""
        member = np.zeros((self.n_trees, n_features), dtype=bool)
        for i, tree in enumerate(self.trees):
            member[i, sorted(tree.features_used)] = True
        return member


def default_mtry(n_features: int) -> int:
    return max(1, int(math.ceil(math.sqrt(n_features))))


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 500,
    mtry: int | None = None,
    min_leaf: int = 5,
    max_depth: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Bag `n_trees` trees, each on its own bootstrap with `mtry` features per split."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    n, m = X.shape
    if mtry is None:
        mtry = default_mtry(m)
    if mtry > m:
        raise DataError(f"mtry {mtry} exceeds the {m} available features")
    trees, seeds = [], []
    for i in range(n_trees):
        rng = substream(seed, "tree", i)
        seeds.append(i)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(X[rows], y[rows], max_depth, min_leaf, mtry, rng))
    return ForestModel(trees=trees, tree_seeds=seeds, mtry=mtry, bootstrap=bootstrap)


def predict_forest(
    forest: ForestModel,
    X: np.ndarray,
    y: np.ndarray | None = None,
    subject_ids: list | None = None,
) -> ScoredDataset:
    """Score = mean of per-tree leaf probabilities; hard per-tree votes attached."""
    X = np.asarray(X, dtype=np.float64)
    votes = np.empty((forest.n_trees, len(X)), dtype=np.int8)
    score = np.zeros(len(X))
    for i, tree in enumerate(forest.trees):
        leaves = _tree_leaf_nodes(tree, X)
        score += tree.prob[leaves]
        votes[i] = tree.vote[leaves]
    score /= forest.n_trees
    labels = np.zeros(len(X), dtype=bool) if y is None else y
    return ScoredDataset(y=labels, score=score, per_tree_votes=votes, subject_ids=subject_ids)


# ---------------------------------------------------------------------------
# JSON persistence.
# ---------------------------------------------------------------------------

def _tree_to_dict(tree: TreeModel) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "n0": tree.n0.tolist(),
        "n1": tree.n1.tolist(),
        "vote": tree.vote.tolist(),
        "depth": tree.depth,
    }


def _tree_from_dict(payload: dict) -> TreeModel:
    feature = np.asarray(payload["feature"], dtype=np.int32)
    n0 = np.asarray(payload["n0"], dtype=np.int64)
    n1 = np.asarray(payload["n1"], dtype=np.int64)
    total = np.maximum(n0 + n1, 1)
    return TreeModel(
        feature=feature,
        threshold=np.asarray(payload["threshold"], dtype=np.float64),
        left=np.asarray(payload["left"], dtype=np.int32),
        right=np.asarray(payload["right"], dtype=np.int32),
        n0=n0,
        n1=n1,
        prob=n1 / total,
        vote=np.asarray(payload["vote"], dtype=np.int8),
        depth=int(payload["depth"]),
        features_used=frozenset(int(f) for f in feature if f >= 0),
    )


def save_model(model, path: str | Path) -> None:
    if isinstance(model, LogisticModel):
        payload = {
            "kind": "logistic",
            "coef": model.coef.tolist(),
            "intercept": model.intercept,
            "n_iter": model.n_iter,
        }
    elif isinstance(model, TreeModel):
        payload = {"kind": "tree", **_tree_to_dict(model)}
    elif isinstance(model, ForestModel):
        payload = {
            "kind": "forest",
            "mtry": model.mtry,
            "bootstrap": model.bootstrap,
            "tree_seeds": model.tree_seeds,
            "trees": [_tree_to_dict(t) for t in model.trees],
        }
    else:
        raise DataError(f"cannot persist model of type {type(model).__name__}")
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_model(path: str | Path):
    payload = json.loads(Path(path).read_text())
    kind = payload.get("kind")
    if kind == "logistic":
        return LogisticModel(
            coef=np.asarray(payload["coef"], dtype=np.float64),
            intercept=float(payload["intercept"]),
            n_iter=int(payload["n_iter"]),
            converged=True,
        )
    if kind == "tree":
        return _tree_from_dict(payload)
    if kind == "forest":
        return ForestModel(
            trees=[_tree_from_dict(t) for t in payload["trees"]],
            tree_seeds=list(payload["tree_seeds"]),
            mtry=int(payload["mtry"]),
            bootstrap=bool(payload["bootstrap"]),
        )
    raise DataError(f"unknown model kind {kind!r} in {path}")
