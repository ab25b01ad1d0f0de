"""Shared helpers for the test suite."""

from datetime import date, time

import numpy as np
import pytest

from callscore.graph import build_graph
from callscore.ingest import CdrRecord
from callscore.models import ForestModel, TreeModel, train_forest
from callscore.profit import roc_points


def call(from_id, to_id, duration=60, day=1, month=5, hh=12, mm=0, ss=0, year=2017):
    return CdrRecord(date(year, month, day), time(hh, mm, ss), duration, from_id, to_id)


def random_records(rng, n_nodes, n_calls, year=2017, month=5):
    """Random call records over n_nodes identities (self-calls skipped)."""
    records = []
    for _ in range(n_calls):
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        records.append(call(
            f"N{a:04d}", f"N{b:04d}",
            duration=int(rng.integers(5, 600)),
            day=int(rng.integers(1, 29)),
            month=month,
            hh=int(rng.integers(0, 24)),
            mm=int(rng.integers(0, 60)),
            year=year,
        ))
    return records


def random_graph(rng, n_nodes=30, n_calls=120, mode="undirected"):
    records = random_records(rng, n_nodes, n_calls)
    return build_graph(records, mode=mode)


def dense_pagerank_solve(graph, restart, alpha=0.85):
    """Independent oracle: direct linear solve of the restart walk fixed point.

    Built from neighbor queries only; dangling nodes hand their mass to the
    restart vector, matching the power-iteration semantics.
    """
    n = graph.n_nodes
    push = np.zeros((n, n))
    dangling = []
    for u in range(n):
        idx, w = graph.neighbor_arrays(u)
        total = w.sum()
        if total == 0:
            dangling.append(u)
            continue
        for v, wv in zip(idx, w):
            push[v, u] = wv / total
    z = np.asarray(restart, dtype=float)
    z = z / z.sum()
    moved = alpha * push
    for u in dangling:
        moved[:, u] += alpha * z
    return np.linalg.solve(np.eye(n) - moved, (1 - alpha) * z)


def emp_oracle(scored, params, grid_size):
    """Brute-force EMP: scan every empirical threshold on a lambda grid.

    Midpoint quadrature over the uniform part plus exact point masses;
    independent of the hull walk. Deterministic, monotone in grid size.
    """
    pi0, pi1 = params.priors(scored.y)
    fpr, tpr = roc_points(scored.y, scored.score)
    lam_max = params.lgd
    reward = pi0 * tpr
    cost = params.roi * pi1 * fpr
    total = 0.0
    uniform_mass = 1.0 - params.p0 - params.p1
    if uniform_mass > 0:
        acc = 0.0
        grid = (np.arange(grid_size) + 0.5) * (lam_max / grid_size)
        chunk = 2048
        for start in range(0, grid_size, chunk):
            lam = grid[start:start + chunk, None]
            acc += float(np.max(lam * reward[None, :] - cost[None, :], axis=1).sum())
        total += uniform_mass * acc / grid_size
    if params.p1 > 0:
        total += params.p1 * float(np.max(lam_max * reward - cost))
    if params.p0 > 0:
        total += params.p0 * float(np.max(-cost))
    return total


def reference_leaves(tree, X):
    """Per-tree walk: every row moves down one level per step until all sit at leaves."""
    pos = np.zeros(len(X), dtype=np.int32)
    while True:
        feats = tree.feature[pos]
        active = np.flatnonzero(feats >= 0)
        if active.size == 0:
            return pos
        node = pos[active]
        go_left = X[active, feats[active]] <= tree.threshold[node]
        pos[active] = np.where(go_left, tree.left[node], tree.right[node])


def one_node_tree(n0=3, n1=2):
    return TreeModel(
        feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
        n0=np.array([n0]), n1=np.array([n1]), prob=np.array([n1 / (n0 + n1)]),
        vote=np.array([int(n1 > n0)], dtype=np.int8), depth=0,
    )


def mixed_depth_forest(rng, n=300, m=6):
    """Forest with tied feature values, trees of depth 1 to unlimited, and a one-node tree."""
    X = np.round(rng.normal(size=(n, m)), 1)
    y = rng.random(n) < 1 / (1 + np.exp(-2 * X[:, 0] + X[:, 1]))
    trees = []
    for depth, seed in ((1, 0), (3, 1), (None, 2), (2, 3)):
        trees += train_forest(X, y, n_trees=5, mtry=2, min_leaf=5, seed=seed, max_depth=depth).trees
    trees.insert(7, one_node_tree())
    return ForestModel(trees=trees, tree_seeds=list(range(len(trees))), mtry=2), X, y


@pytest.fixture
def rng():
    return np.random.default_rng(20170501)
