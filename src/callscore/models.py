"""Baseline classifiers and the data protocol around them.

Split, undersample, then fit one of: ridge-stabilized logistic regression
(IRLS), a CART-style decision tree pruned by cross-validated depth selection,
or a bagged forest of such trees with per-split feature subsampling. The
forest records, per tree, exactly which features its internal nodes test,
and prediction exposes per-tree votes; both are needed by the profit-based
feature importance downstream. A split search sorts the node's rows once per
candidate feature and prices only the positions where a split can occur.
Forest trees are grown in worker processes, which also score the test rows
tree by tree, and a forest is walked as one flat array of nodes; none of this
changes a model or a score.

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

from .errors import ConvergenceError, DataError
from .parallel import fork_map
from .seeding import substream
from .tables import parse_column, read_columns, write_csv

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Data protocol: split and undersample.
# ---------------------------------------------------------------------------

def split(y: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test row indices, reproducible by seed.

    The split is stratified: train sizes per class are allocated by largest
    remainder so that the class mix holds and the total is exactly
    round(train_fraction * n).
    """
    if not 0 < train_fraction < 1:
        raise DataError("train_fraction must lie in (0, 1)")
    y = np.asarray(y, dtype=bool)
    n = len(y)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    rng = substream(seed, "split")
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    classes = [np.flatnonzero(~y), np.flatnonzero(y)]
    if any(len(c) < 2 for c in classes):
        raise DataError("too few instances in a class to stratify the split")
    exact = [train_fraction * len(c) for c in classes]
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
    ratio: float,
    seed: int,
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


def save_scores(path: str | Path, scored: ScoredDataset, matrix, rows) -> None:
    """Write one scored row per row index in `rows` of the feature matrix, in that order."""
    write_csv(path, ("subject_id", "timeframe", "y", "score"), [
        (matrix.subject_ids, rows), (matrix.timeframes, rows), scored.y, list(map(repr, scored.score.tolist()))])


def load_scores(path: str | Path) -> ScoredDataset:
    path = Path(path)
    columns, lines = read_columns(path, ("y", "score"), "scores")
    score = parse_column(path, "score", columns["score"], lines, np.float64)
    return ScoredDataset(y=columns["y"] == "1", score=score)


def score_model(model, X: np.ndarray, y: np.ndarray) -> ScoredDataset:
    """Scores of a forest, tree or logistic model on X; a forest's per-tree
    votes come along."""
    if isinstance(model, ForestModel):
        return predict_forest(model, X, y)
    if isinstance(model, TreeModel):
        return ScoredDataset(y=y, score=predict_tree_proba(model, X))
    if isinstance(model, LogisticModel):
        return ScoredDataset(y=y, score=predict_logistic(model, X))
    raise DataError("unsupported model type")


def midrank(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, tied values sharing the mean of their ranks."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    counts = np.diff(starts, append=len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _rank_auc(y: np.ndarray, score: np.ndarray) -> float:
    """Midrank AUC; equals the trapezoidal area with tied scores grouped."""
    y = np.asarray(y, dtype=bool)
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise DataError("AUC needs both classes")
    ranks = midrank(score)
    return float((ranks[y].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


# ---------------------------------------------------------------------------
# Logistic regression by iteratively reweighted least squares.
# ---------------------------------------------------------------------------

_EPS = 1e-12
RIDGE = 1e-6  # penalty on every standardised coefficient but the intercept


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

    The fit runs on the standardised non-constant columns, whose scales can
    differ by orders of magnitude and which can sum to one another, and is
    mapped back to X's units. The intercept is unpenalized; zero-variance
    columns get coefficient zero.
    Steps are halved whenever the penalized deviance would rise, which keeps
    the iteration stable on separable data. Raises ConvergenceError with the
    iteration count if the step never shrinks below `tol`.
    """
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    n, m = X.shape
    sd = X.std(axis=0)
    active = np.flatnonzero(sd > 0)
    mean, sd = X[:, active].mean(axis=0), sd[active]
    design = np.column_stack([np.ones(n), (X[:, active] - mean) / sd])
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
            coef[active] = beta[1:] / sd
            intercept = float(beta[0] - coef[active] @ mean)
            return LogisticModel(coef=coef, intercept=intercept, n_iter=iteration, converged=True)
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


def _best_split(XT: np.ndarray, y01: np.ndarray, rows: np.ndarray, n1: int, feats: np.ndarray,
                min_leaf: int, sample: np.ndarray):
    """Exact Gini split search of the node holding `rows`, `n1` of them positive, over `feats`.

    `XT` is the problem's (features x rows) matrix and `rows` index its
    columns. Each feature's values are sorted once, and the cost is priced
    only where the sorted value steps up with `min_leaf` rows on either side:
    there the left counts do not depend on how ties were ordered. The
    minimized quantity is the total child impurity mass n_L*g_L + n_R*g_R;
    ties resolve to the first feature in `feats` order and the lowest
    threshold. Returns (feature, threshold, left rows, right rows, positives
    on the left) or None; the left rows are the first of the chosen feature's
    sorted order.
    """
    n = len(rows)
    xs = XT.take(feats, axis=0).take(rows, axis=1)
    by_value = rows.take(xs.argsort(axis=1))
    xs.sort(axis=1)
    lo, hi = min_leaf - 1, n - min_leaf
    steps = np.zeros(xs.shape, dtype=bool)
    np.greater(xs[:, lo + 1:hi + 1], xs[:, lo:hi], out=steps[:, lo:hi])
    # flat (feature, position) ids, feature-major and positions ascending: the
    # argmin below meets the first minimum of a scan over every position
    at = steps.ravel().nonzero()[0]
    if not len(at):
        return None
    cum1 = y01.take(by_value).cumsum(axis=1)
    n_left = at % n + 1.0
    n_right = n - n_left
    n1_left = cum1.take(at)
    n0_left = n_left - n1_left
    n1_right = n1 - n1_left
    n0_right = n_right - n1_right
    cost = (
        n_left - (n1_left * n1_left + n0_left * n0_left) / n_left
        + n_right - (n1_right * n1_right + n0_right * n0_right) / n_right
    )
    k = cost.argmin()
    total = float(n1)
    parent_cost = n - (total * total + (n - total) * (n - total)) / n
    if parent_cost - cost[k] <= _GAIN_TOL:
        return None
    f_local, p = divmod(int(at[k]), n)
    left_value = xs[f_local, p]
    right_value = xs[f_local, p + 1]
    threshold = 0.5 * (left_value + right_value)
    if not (left_value < threshold < right_value):
        # adjacent floats: splitting at the left value keeps the exact partition
        threshold = left_value
        if threshold == 0:
            # a signed zero is written as the last of its ties in sample order;
            # copies of a row never part, so the sample's last copy is in this node
            ties = by_value[f_local, np.searchsorted(xs[f_local, :p], 0.0):p + 1]
            threshold = XT[feats[f_local], sample[np.flatnonzero(np.isin(sample, ties))[-1]]]
    left_rows = by_value[f_local, :p + 1]
    right_rows = by_value[f_local, p + 1:]
    return int(feats[f_local]), float(threshold), left_rows, right_rows, int(n1_left[k])


def _grow_tree(
    XT: np.ndarray,
    y01: np.ndarray,
    sample: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
    mtry: int | None,
    rng: np.random.Generator | None,
) -> TreeModel:
    """CART tree on the multiset `sample` of rows of the problem `XT` (features
    x rows) with 0/1 labels `y01`.

    Nodes carry row ids; a split hands its children the two ends of the chosen
    feature's sorted order. Nodes are grown depth first, left child first, and
    that order fixes both the node numbering and the per-node `mtry` draws.
    """
    m = XT.shape[0]
    nodes = [None]  # per node: feature, threshold, left, right, n0, n1, prob, vote
    used: set = set()
    max_seen_depth = 0
    stack = [(0, sample, int(y01.take(sample).sum()), 0, 1)]  # node, rows, positives, depth, parent majority
    while stack:
        node, rows, n1, depth, parent_major = stack.pop()
        n_here = len(rows)
        n0 = n_here - n1
        major = 1 if n1 > n0 else 0 if n0 > n1 else parent_major
        max_seen_depth = max(max_seen_depth, depth)
        found = None
        if n1 and n0 and n_here >= 2 * min_leaf and (max_depth is None or depth < max_depth):
            if mtry is not None and mtry < m:
                feats = rng.choice(m, size=mtry, replace=False)
                feats.sort()
            else:
                feats = np.arange(m)
            found = _best_split(XT, y01, rows, n1, feats, min_leaf, sample)
        if found is None:
            nodes[node] = (-1, 0.0, -1, -1, n0, n1, n1 / n_here, major)
            continue
        f, thr, left_rows, right_rows, left_n1 = found
        used.add(f)
        left_child = len(nodes)
        nodes += (None, None)
        nodes[node] = (f, thr, left_child, left_child + 1, n0, n1, n1 / n_here, major)
        # push right first so left children are processed (and numbered) first
        stack.append((left_child + 1, right_rows, n1 - left_n1, depth + 1, major))
        stack.append((left_child, left_rows, left_n1, depth + 1, major))

    feature, threshold, left, right, n0s, n1s, probs, votes = zip(*nodes)
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


# ---------------------------------------------------------------------------
# Traversal: every tree of a forest walked as one flat array of nodes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatForest:
    """The node arrays of all trees concatenated; `roots[i]` is tree i's root
    and `left`/`right` index the concatenation."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    vote: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, trees: list) -> FlatForest:
        sizes = np.array([t.n_nodes for t in trees], dtype=np.intp)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)

        def child(attr: str) -> np.ndarray:
            return np.concatenate([np.where(getattr(t, attr) >= 0, getattr(t, attr) + r, -1)
                                   for t, r in zip(trees, roots)]).astype(np.intp)

        return cls(
            feature=np.concatenate([t.feature for t in trees]).astype(np.intp),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=child("left"),
            right=child("right"),
            prob=np.concatenate([t.prob for t in trees]),
            vote=np.concatenate([t.vote for t in trees]),
            roots=roots,
        )


# (tree, row) pairs walked at once; bounds the pair and path arrays of a walk
_WALK_PAIRS = 1 << 16


def tree_blocks(n_trees: int, n_rows: int) -> list:
    """Consecutive tree ranges of at most `_WALK_PAIRS` (tree, row) pairs each (one tree at least)."""
    step = max(1, _WALK_PAIRS // max(n_rows, 1))
    return [range(i, min(i + step, n_trees)) for i in range(0, n_trees, step)]


def descend(flat: FlatForest, X: np.ndarray, node: np.ndarray, row: np.ndarray,
            path: list | None = None) -> None:
    """Move each (node, row) pair down to its leaf, updating `node` in place.

    When a `path` list is given, the walk appends to it level by level the
    positions of the pairs still at an internal node and the nodes they were
    at, shallowest level first.
    """
    active = np.flatnonzero(flat.feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[row[active], flat.feature[at]] <= flat.threshold[at]
        if path is not None:
            path.append((active, at))
        node[active] = nxt = np.where(go_left, flat.left[at], flat.right[at])
        active = active[flat.feature[nxt] >= 0]


def leaf_block(flat: FlatForest, X: np.ndarray, trees: range, path: list | None = None) -> np.ndarray:
    """Leaf of every (tree, row) pair as (len(trees), n_rows) flat node ids;
    the walk's levels go into `path` if one is given (see `descend`).

    Pair k of the path is tree trees[k // n_rows] on row k % n_rows.
    """
    n = len(X)
    node = np.repeat(flat.roots[trees.start:trees.stop], n)
    row = np.tile(np.arange(n), len(trees))
    descend(flat, X, node, row, path)
    return node.reshape(len(trees), n)


def predict_tree_proba(tree: TreeModel, X: np.ndarray) -> np.ndarray:
    leaves = leaf_block(FlatForest.of([tree]), np.asarray(X, dtype=np.float64), range(1))
    return tree.prob[leaves[0]]


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    fold = np.empty(len(y), dtype=np.int32)
    for cls in (False, True):
        members = np.flatnonzero(y == cls)
        perm = rng.permutation(len(members))
        fold[members[perm]] = np.arange(len(members)) % k
    return fold


DEPTH_GRID = (2, 3, 4, 6, 8, 12, 16)


def _check_min_leaf(min_leaf: int) -> None:
    if min_leaf < 1:
        raise DataError(f"min_leaf must be at least 1, not {min_leaf}")


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    cv_folds: int,
    min_leaf: int,
    seed: int,
) -> TreeModel:
    """Depth-pruned CART: pick tree depth by cross-validated AUC, refit on all rows.

    Requires at least two folds, and `cv_folds` rows of each class so every
    fold sees both. Ties in CV AUC go to the shallower tree.
    """
    if cv_folds < 2:
        raise DataError(f"depth pruning needs at least 2 folds, not {cv_folds}")
    _check_min_leaf(min_leaf)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    XT, y01 = np.ascontiguousarray(X.T), y.astype(np.float64)
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
            tree = _grow_tree(XT, y01, np.flatnonzero(~hold), depth, min_leaf, None, None)
            aucs.append(_rank_auc(y[hold], predict_tree_proba(tree, X[hold])))
        mean_auc = float(np.mean(aucs))
        if mean_auc > best_auc + 1e-12:
            best_auc, best_depth = mean_auc, depth
    logger.debug("train_tree: depth %s selected (cv auc %.4f)", best_depth, best_auc)
    return _grow_tree(XT, y01, np.arange(len(y)), best_depth, min_leaf, None, None)


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


class _Problems:
    """The forest problems of `train_forests` over one matrix, and the
    working copies of the problem asked for last.

    A pool worker inherits this object and gathers a problem's transposed
    train matrix, labels and test matrix when its first tree of that problem
    comes, dropping the previous problem's first; the tasks come in problem
    order, so each worker gathers each problem at most once.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, problems: list, options: tuple):
        self.X, self.y, self.problems, self.options = X, y, problems, options
        self.index, self.gathered = None, None

    def __getitem__(self, p: int) -> tuple:
        if p != self.index:
            self.index, self.gathered = None, None  # the previous copies go first
            train_rows, test_rows, cols, mtry = self.problems[p]
            self.gathered = (self.X.T[np.ix_(cols, train_rows)], self.y[train_rows].astype(np.float64),
                             self.X[np.ix_(test_rows, cols)], mtry, *self.options)
            self.index = p
        return self.gathered


def _grow_forest_tree(problem: tuple, i: int) -> tuple:
    """Tree i of a forest, from its own substream, with its leaf probabilities
    and votes on the problem's test rows.

    `problem` is (XT, y01, X_test, mtry, min_leaf, max_depth, seed, bootstrap).
    """
    XT, y01, X_test, mtry, min_leaf, max_depth, seed, bootstrap = problem
    n = len(y01)
    rng = substream(seed, "tree", i)
    sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
    tree = _grow_tree(XT, y01, sample, max_depth, min_leaf, mtry, rng)
    leaves = leaf_block(FlatForest.of([tree]), X_test, range(1))[0]
    return tree, tree.prob[leaves], tree.vote[leaves]


def _grow_task(problems: _Problems, task: tuple) -> tuple:
    p, i = task
    return _grow_forest_tree(problems[p], i)


def train_forests(
    X: np.ndarray,
    y: np.ndarray,
    problems: list,
    n_trees: int,
    mtry: int | None,
    min_leaf: int,
    max_depth: int | None,
    seed: int,
    bootstrap: bool,
) -> list:
    """One forest per (train_rows, test_rows, columns) problem on the matrix
    (X, y), `n_trees` trees each, all grown in one pool, with its scores on
    the problem's test rows.

    Each tree is grown on its own bootstrap of the train rows (or, without
    `bootstrap`, on every train row) with `mtry` of the problem's columns
    drawn per split. It draws only from its own substream, so which process
    grows it does not change it. The trees are grown by `fork_map`, one task
    per (problem, tree); each worker gathers the train and test matrices of
    a problem from the matrix it inherits, so this process holds no copy,
    and returns each tree with its leaf probabilities and votes on the test
    rows. The probabilities are summed tree by tree in tree order, so the
    scores and votes are bit for bit those of `predict_forest`.
    `mtry` None takes `default_mtry` of each problem's column count.
    Returns a (ForestModel, ScoredDataset) pair per problem.
    """
    if n_trees < 1:
        raise DataError(f"a forest needs at least one tree, not {n_trees}")
    _check_min_leaf(min_leaf)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    jobs = []
    for train_rows, test_rows, cols in problems:
        m = len(cols)
        problem_mtry = default_mtry(m) if mtry is None else mtry
        if problem_mtry < 1:
            raise DataError(f"mtry must be at least 1, not {problem_mtry}")
        if problem_mtry > m:
            raise DataError(f"mtry {problem_mtry} exceeds the {m} available features")
        jobs.append((train_rows, test_rows, cols, problem_mtry))
    tasks = [(p, i) for p in range(len(jobs)) for i in range(n_trees)]
    trees = [[] for _ in jobs]
    scores = [np.zeros(len(job[1])) for job in jobs]
    votes = [np.empty((n_trees, len(job[1])), dtype=np.int8) for job in jobs]

    def collect(grown) -> None:
        for (p, i), (tree, prob, vote) in zip(tasks, grown):
            trees[p].append(tree)
            scores[p] += prob  # tree by tree, in tree order, as predict_forest sums
            votes[p][i] = vote

    # growing a tree calls no BLAS
    with fork_map(_grow_task, tasks, _Problems(X, y, jobs, (min_leaf, max_depth, seed, bootstrap))) as grown:
        collect(grown)
    return [
        (ForestModel(trees=trees[p], tree_seeds=list(range(n_trees)), mtry=job[3], bootstrap=bootstrap),
         ScoredDataset(y=y[job[1]], score=scores[p] / n_trees, per_tree_votes=votes[p]))
        for p, job in enumerate(jobs)
    ]


def predict_forest(
    forest: ForestModel,
    X: np.ndarray,
    y: np.ndarray | None = None,
) -> ScoredDataset:
    """Score = mean of per-tree leaf probabilities; hard per-tree votes attached."""
    X = np.asarray(X, dtype=np.float64)
    flat = FlatForest.of(forest.trees)
    votes = np.empty((forest.n_trees, len(X)), dtype=np.int8)
    score = np.zeros(len(X))
    for trees in tree_blocks(forest.n_trees, len(X)):
        leaves = leaf_block(flat, X, trees)
        for prob in flat.prob[leaves]:  # tree by tree, so the sum's order is fixed
            score += prob
        votes[trees.start:trees.stop] = flat.vote[leaves]
    score /= forest.n_trees
    labels = np.zeros(len(X), dtype=bool) if y is None else y
    return ScoredDataset(y=labels, score=score, per_tree_votes=votes)


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
