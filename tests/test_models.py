import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import callscore.models as models
import callscore.parallel as parallel
from callscore.errors import ConvergenceError, DataError
from conftest import (
    grow_tree,
    mixed_depth_forest,
    reference_grow_tree,
    reference_leaves,
    reference_sample_grower,
    train_forest,
)
from callscore.models import (
    ScoredDataset,
    _rank_auc,
    load_model,
    midrank,
    predict_forest,
    predict_logistic,
    predict_tree_proba,
    save_model,
    split,
    train_forests,
    train_logistic,
    train_tree,
    undersample,
)


def xor_data(rng, n=400, noise=0.05):
    X = rng.random((n, 2))
    y = (X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)
    flip = rng.random(n) < noise
    return X, y ^ flip


def informative_data(rng, n=600, m=8, effect=2.0):
    X = rng.normal(size=(n, m))
    logit = effect * X[:, 0] - 0.5
    y = rng.random(n) < 1 / (1 + np.exp(-logit))
    return X, y


# ---------------------------------------------------------------------------
# Split and undersample.
# ---------------------------------------------------------------------------

def test_split_70_30_exact():
    y = np.zeros(100, dtype=bool)
    y[:30] = True
    train, test = split(y, 0.7, 1)
    assert len(train) == 70 and len(test) == 30
    assert len(np.intersect1d(train, test)) == 0
    assert len(np.union1d(train, test)) == 100


def test_split_deterministic():
    y = np.random.default_rng(0).random(200) < 0.2
    a = split(y, 0.7, 42)
    b = split(y, 0.7, 42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split(y, 0.7, 43)
    assert not np.array_equal(a[0], c[0])


def test_split_stratification_tolerance():
    y = np.zeros(200, dtype=bool)
    y[:10] = True  # 5% positives
    train, test = split(y, 0.7, 3)
    test_pos = int(y[test].sum())
    assert abs(test_pos - 3) <= 1


def test_split_too_few_minority():
    y = np.zeros(50, dtype=bool)
    y[0] = True
    with pytest.raises(DataError):
        split(y, 0.7, 0)


def test_undersample_to_balance():
    y = np.zeros(1000, dtype=bool)
    y[:50] = True
    train = np.arange(1000)
    kept = undersample(train, y, ratio=1.0, seed=0)
    labels = y[kept]
    assert labels.sum() == 50
    assert (~labels).sum() == 50


def test_undersample_balanced_input_untouched():
    y = np.array([True] * 20 + [False] * 20)
    kept = undersample(np.arange(40), y, ratio=1.0, seed=0)
    assert len(kept) == 40


def test_undersample_deterministic():
    y = np.zeros(400, dtype=bool)
    y[:40] = True
    a = undersample(np.arange(400), y, ratio=1.0, seed=9)
    b = undersample(np.arange(400), y, ratio=1.0, seed=9)
    assert np.array_equal(a, b)


def test_undersample_unreachable_ratio():
    y = np.array([True] * 30 + [False] * 10)
    with pytest.raises(DataError):
        undersample(np.arange(40), y, ratio=0.1, seed=0)


def test_undersample_never_touches_test_set():
    rng = np.random.default_rng(3)
    y = rng.random(1000) < 0.1
    train, test = split(y, 0.7, 3)
    balanced = undersample(train, y, ratio=1.0, seed=3)
    assert set(balanced) <= set(train)
    assert abs(y[test].mean() - y.mean()) <= 1.5 / len(test) + 0.01


# ---------------------------------------------------------------------------
# Logistic regression.
# ---------------------------------------------------------------------------

def test_logistic_separable_perfect_train_accuracy(rng):
    X = np.vstack([rng.normal(-2, 0.3, size=(80, 2)), rng.normal(2, 0.3, size=(80, 2))])
    y = np.array([False] * 80 + [True] * 80)
    model = train_logistic(X, y)
    scores = predict_logistic(model, X)
    assert np.mean((scores > 0.5) == y) == 1.0


def test_logistic_constant_features_intercept_is_log_odds(rng):
    X = np.ones((120, 3)) * 7.0
    y = np.array([True] * 30 + [False] * 90)
    model = train_logistic(X, y)
    assert model.coef == pytest.approx(np.zeros(3))
    assert model.intercept == pytest.approx(math.log(30 / 90), abs=1e-6)


def test_logistic_scores_strictly_inside_unit_interval(rng):
    X, y = informative_data(rng, effect=8.0)
    model = train_logistic(X, y)
    scores = predict_logistic(model, X * 50)
    assert scores.min() > 0.0 and scores.max() < 1.0


def test_logistic_converges_on_summed_duration_columns():
    # calling-behaviour columns hold exact sums of others (UD = IN + OUT,
    # weekday + weekend = all) at the scale of call seconds
    for seed in (0, 3):
        r = np.random.default_rng(seed)
        n = 600
        seconds = r.lognormal(7, 1.5, size=(n, 4)).round()
        counts = r.poisson(20, size=(n, 4)).astype(float)
        X = np.hstack([seconds, seconds[:, :2].sum(1, keepdims=True), seconds[:, 2:].sum(1, keepdims=True),
                       seconds.sum(1, keepdims=True), counts, counts.sum(1, keepdims=True)])
        y = r.random(n) < 1 / (1 + np.exp(7 - np.log1p(seconds[:, 0])))
        model = train_logistic(X, y)
        assert model.converged
        assert _rank_auc(y, predict_logistic(model, X)) > 0.6


def test_logistic_nonconvergence_reports_iterations(rng):
    X, y = informative_data(rng)
    with pytest.raises(ConvergenceError) as err:
        train_logistic(X, y, max_iter=2, tol=1e-14)
    assert err.value.iterations == 2


# ---------------------------------------------------------------------------
# Decision tree.
# ---------------------------------------------------------------------------

def test_tree_learns_xor(rng):
    X, y = xor_data(rng)
    tree = train_tree(X, y, cv_folds=5, min_leaf=5, seed=0)
    assert tree.depth >= 2
    pred = predict_tree_proba(tree, X) > 0.5
    assert np.mean(pred == y) > 0.9


def test_tree_pure_class_single_leaf():
    X = np.random.default_rng(0).random((40, 3))
    y = np.zeros(40, dtype=bool)
    tree = grow_tree(X, y, max_depth=None, min_leaf=5)
    assert tree.n_nodes == 1
    assert tree.features_used == frozenset()


def test_tree_deterministic(rng):
    X, y = xor_data(rng)
    t1 = train_tree(X, y, cv_folds=5, min_leaf=5, seed=7)
    t2 = train_tree(X, y, cv_folds=5, min_leaf=5, seed=7)
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold)


def test_tree_requires_enough_per_class():
    X = np.random.default_rng(0).random((30, 2))
    y = np.zeros(30, dtype=bool)
    y[:4] = True
    with pytest.raises(DataError):
        train_tree(X, y, cv_folds=10, min_leaf=5, seed=0)


@pytest.mark.parametrize("folds", [0, 1])
def test_tree_needs_two_folds(rng, folds):
    X, y = xor_data(rng, n=60)
    with pytest.raises(DataError, match="at least 2 folds"):
        train_tree(X, y, cv_folds=folds, min_leaf=5, seed=0)


def test_tree_features_used_sound_and_complete(rng):
    X, y = informative_data(rng, n=400, m=6)
    tree = grow_tree(X, y, max_depth=4, min_leaf=5)
    base = predict_tree_proba(tree, X)
    for j in range(X.shape[1]):
        Xp = X.copy()
        Xp[:, j] = Xp[rng.permutation(len(X)), j]
        changed = not np.array_equal(predict_tree_proba(tree, Xp), base)
        if j not in tree.features_used:
            assert not changed, f"unused feature {j} changed predictions"
    used_changes = []
    for j in tree.features_used:
        Xp = X.copy()
        Xp[:, j] = Xp[rng.permutation(len(X)), j]
        used_changes.append(not np.array_equal(predict_tree_proba(tree, Xp), base))
    assert any(used_changes)


# ---------------------------------------------------------------------------
# Random forest.
# ---------------------------------------------------------------------------

def test_forest_single_tree_degenerates_to_tree(rng):
    X, y = informative_data(rng, n=300, m=5)
    forest = train_forest(X, y, n_trees=1, mtry=5, min_leaf=5, seed=0, max_depth=4, bootstrap=False)
    alone = grow_tree(X, y, max_depth=4, min_leaf=5)
    assert np.allclose(predict_forest(forest, X).score, predict_tree_proba(alone, X))


def test_forest_recovers_signal(rng):
    X, y = informative_data(rng, n=800, m=10, effect=2.5)
    train_rows = np.arange(500)
    test_rows = np.arange(500, 800)
    forest = train_forest(X[train_rows], y[train_rows], n_trees=80, mtry=None, min_leaf=5, seed=0)
    scored = predict_forest(forest, X[test_rows], y[test_rows])
    assert _rank_auc(scored.y, scored.score) >= 0.75


def test_forest_vote_matrix_shape(rng):
    X, y = informative_data(rng, n=200, m=4)
    forest = train_forest(X, y, n_trees=30, mtry=None, min_leaf=5, seed=1)
    scored = predict_forest(forest, X[:50], y[:50])
    assert scored.per_tree_votes.shape == (30, 50)
    assert set(np.unique(scored.per_tree_votes)) <= {0, 1}


def test_forest_score_is_mean_of_tree_probs(rng):
    X, y = informative_data(rng, n=300, m=5)
    forest = train_forest(X, y, n_trees=20, mtry=None, min_leaf=5, seed=2)
    scored = predict_forest(forest, X, y)
    stacked = np.stack([predict_tree_proba(t, X) for t in forest.trees])
    assert np.array_equal(scored.score, stacked.mean(axis=0))


def test_forest_deterministic(rng):
    X, y = informative_data(rng, n=200, m=4)
    s1 = predict_forest(train_forest(X, y, n_trees=15, mtry=None, min_leaf=5, seed=5), X).score
    s2 = predict_forest(train_forest(X, y, n_trees=15, mtry=None, min_leaf=5, seed=5), X).score
    assert np.array_equal(s1, s2)


def test_forest_mtry_exceeds_features(rng):
    X, y = informative_data(rng, n=100, m=3)
    with pytest.raises(DataError):
        train_forest(X, y, n_trees=2, mtry=10, min_leaf=5, seed=0)


@pytest.mark.parametrize("mtry", [0, -1])
def test_forest_mtry_below_one_is_refused(rng, mtry):
    X, y = informative_data(rng, n=100, m=3)
    with pytest.raises(DataError, match="mtry must be at least 1"):
        train_forest(X, y, n_trees=2, mtry=mtry, min_leaf=5, seed=0)


def test_forest_without_trees_is_refused(rng):
    X, y = informative_data(rng, n=100, m=3)
    with pytest.raises(DataError, match="at least one tree"):
        train_forest(X, y, n_trees=0, mtry=None, min_leaf=5, seed=0)


def test_forest_membership_matrix(rng):
    X, y = informative_data(rng, n=300, m=6)
    forest = train_forest(X, y, n_trees=25, mtry=2, min_leaf=5, seed=3, max_depth=3)
    member = forest.feature_membership(6)
    for i, tree in enumerate(forest.trees):
        assert set(np.flatnonzero(member[i])) == set(tree.features_used)


@pytest.mark.parametrize("min_leaf", [0, -1])
def test_min_leaf_below_one_is_refused(rng, min_leaf):
    X, y = informative_data(rng, n=100, m=3)
    with pytest.raises(DataError, match="min_leaf must be at least 1"):
        train_forest(X, y, n_trees=2, mtry=None, min_leaf=min_leaf, seed=0)
    with pytest.raises(DataError, match="min_leaf must be at least 1"):
        train_tree(X, y, cv_folds=5, min_leaf=min_leaf, seed=0)


# ---------------------------------------------------------------------------
# The grower against the reference grower (tests/conftest.py), node for node.
# ---------------------------------------------------------------------------

def awkward_data(rng, kind, n=240):
    """Columns whose split search meets ties, signed zeros, adjacent floats,
    constant columns or duplicate rows; labels follow them, with noise."""
    tiny = np.nextafter(0.0, 1.0)
    if kind == "ties":
        X = rng.integers(0, 3, size=(n, 6)).astype(np.float64)
    elif kind == "signed zeros":
        X = np.column_stack([rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=n),
                             rng.choice([-0.0, 0.0, 3.0], size=n),
                             rng.integers(0, 4, size=n).astype(np.float64)])
    elif kind == "adjacent floats":
        # splits between 0 and the next float fall back to the left value,
        # which is -0.0 or 0.0 as the last of its ties in sample order has it
        X = np.column_stack([rng.choice([-0.0, 0.0, tiny], size=n),
                             rng.choice([1.0, np.nextafter(1.0, 2.0)], size=n),
                             rng.choice([-tiny, -0.0, 0.0], size=n),
                             rng.integers(0, 3, size=n).astype(np.float64)])
    else:  # constant columns and duplicate rows
        X = np.column_stack([np.full(n // 2, 7.0), np.round(rng.normal(size=(n // 2, 4)), 1),
                             np.zeros(n // 2)])
        X = np.vstack([X, X[rng.integers(0, n // 2, size=n - n // 2)]])
    score = (X[:, :3] > 0).sum(axis=1) + rng.normal(scale=0.7, size=len(X))
    return X, score > np.median(score)


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "n0", "n1", "prob", "vote"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.depth == b.depth and a.features_used == b.features_used


KINDS = ("ties", "signed zeros", "adjacent floats", "duplicates")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("min_leaf, max_depth, mtry, bootstrap", [
    (1, None, None, True), (5, None, None, True), (1, 3, None, True), (1, None, "all", True),
    (5, None, "all", False), (1, None, 2, False),
])
def test_forest_trees_equal_the_reference_grower(monkeypatch, kind, min_leaf, max_depth, mtry, bootstrap):
    rng = np.random.default_rng(KINDS.index(kind))
    X, y = awkward_data(rng, kind)
    mtry = X.shape[1] if mtry == "all" else mtry
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: 1)
    grown = {}
    for grower in ("columnar", "reference"):
        if grower == "reference":
            monkeypatch.setattr(models, "_grow_tree", reference_sample_grower)
        forest = train_forest(X, y, n_trees=8, mtry=mtry, min_leaf=min_leaf, seed=3,
                              max_depth=max_depth, bootstrap=bootstrap)
        grown[grower] = forest.trees
    assert sum(t.n_nodes for t in grown["columnar"]) > 8 * 7
    assert_same_trees(grown["columnar"], grown["reference"])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("min_leaf", [1, 5])
def test_pruned_tree_equals_the_reference_grower(monkeypatch, kind, min_leaf):
    X, y = awkward_data(np.random.default_rng(10 + KINDS.index(kind)), kind)
    tree = train_tree(X, y, cv_folds=3, min_leaf=min_leaf, seed=4)
    # train_tree grows its fold trees and refit through the reference instead
    monkeypatch.setattr(models, "_grow_tree", reference_sample_grower)
    assert_same_trees([tree], [train_tree(X, y, cv_folds=3, min_leaf=min_leaf, seed=4)])
    assert_same_trees([grow_tree(X, y, None, min_leaf)], [reference_grow_tree(X, y, None, min_leaf, None, None)])


def test_signed_zero_threshold_follows_the_sample_order():
    # one split, between the zeros and the next float: the threshold is the
    # last zero in sample order, with its sign, however the sort ordered ties
    tiny = np.nextafter(0.0, 1.0)
    r = np.random.default_rng(2)
    x = r.choice([-0.0, 0.0, tiny], size=60)
    XT, y = x[None, :], (x > 0).astype(float)
    for _ in range(20):
        sample = r.permutation(60)
        tree = models._grow_tree(XT, y, sample, None, 1, None, None)
        last_zero = x[sample][x[sample] == 0][-1]
        assert tree.threshold[0] == 0
        assert math.copysign(1, tree.threshold[0]) == math.copysign(1, last_zero)
        assert_same_trees([tree], [reference_grow_tree(XT.T[sample], y[sample], None, 1, None, None)])


@pytest.mark.parametrize("walk_pairs", [1 << 16, 50])
def test_predict_forest_matches_per_tree_reference(rng, monkeypatch, walk_pairs):
    monkeypatch.setattr(models, "_WALK_PAIRS", walk_pairs)  # 50: several tree blocks
    forest, X, y = mixed_depth_forest(rng)
    assert len({t.depth for t in forest.trees}) >= 4
    score = np.zeros(len(X))
    votes = []
    for tree in forest.trees:
        leaves = reference_leaves(tree, X)
        score += tree.prob[leaves]
        votes.append(tree.vote[leaves])
    score /= forest.n_trees
    scored = predict_forest(forest, X, y)
    assert np.array_equal(scored.score, score)
    assert np.array_equal(scored.per_tree_votes, np.array(votes, dtype=np.int8))
    for tree in forest.trees:
        leaves = reference_leaves(tree, X)
        assert np.array_equal(predict_tree_proba(tree, X), tree.prob[leaves])


def _problems(rng):
    """One matrix, and (train rows, test rows, columns) problems on it that
    differ in rows, column count and column order."""
    X, y = informative_data(rng, n=260, m=9)
    X = np.round(X, 1)
    problems = [(np.arange(200), np.arange(200, 260), [0, 1, 2, 3]),
                (np.arange(50, 200), np.arange(260)[::-3], list(range(9))),
                (rng.permutation(260), np.arange(70)[::-1], [8, 2, 5, 0, 6, 1])]
    return X, y, problems


def test_train_forests_equals_separate_train_forest_calls(rng):
    X, y, problems = _problems(rng)
    together = [forest for forest, _ in train_forests(X, y, problems, 12, None, 5, None, 7, True)]
    for (rows, _, cols), forest in zip(problems, together):
        alone = train_forest(X[np.ix_(rows, cols)], y[rows], n_trees=12, mtry=None, min_leaf=5, seed=7)
        assert forest.mtry == alone.mtry and forest.tree_seeds == alone.tree_seeds
        assert ([models._tree_to_dict(t) for t in forest.trees]
                == [models._tree_to_dict(t) for t in alone.trees])


def test_a_problem_is_gathered_once_and_dropped_when_the_next_comes(rng):
    X, y, problems = _problems(rng)
    jobs = [(rows, test_rows, cols, 2) for rows, test_rows, cols in problems]
    gathered = models._Problems(X, y, jobs, (5, None, 7, True))
    first = gathered[0]
    assert gathered[0] is first
    held = weakref.ref(first[0])
    del first
    XT, y01, X_test, mtry, *options = gathered[1]
    assert held() is None
    rows, test_rows, cols, _ = jobs[1]
    assert XT.flags.c_contiguous and np.array_equal(XT, X[np.ix_(rows, cols)].T)
    assert np.array_equal(y01, y[rows].astype(np.float64))
    assert np.array_equal(X_test, X[np.ix_(test_rows, cols)])
    assert (mtry, options) == (2, [5, None, 7, True])


def test_worker_count_does_not_change_model_json(rng, tmp_path, monkeypatch):
    X, y, problems = _problems(rng)
    saved = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "worker_count", lambda n_tasks, w=workers: w)
        grown = train_forests(X, y, problems, 15, 3, 5, None, 11, True)
        for k, (forest, scored) in enumerate(grown):
            path = tmp_path / f"{workers}_{k}.json"
            save_model(forest, path)
            saved[workers, k] = path.read_bytes()
            # the workers' scores are those of the saved model, bit for bit
            _, test_rows, cols = problems[k]
            again = predict_forest(load_model(path), X[np.ix_(test_rows, cols)], y[test_rows])
            assert scored.score.tobytes() == again.score.tobytes()
            assert np.array_equal(scored.per_tree_votes, again.per_tree_votes)
            assert np.array_equal(scored.y, y[test_rows])
            saved[workers, k, "scores"] = scored.score.tobytes() + scored.per_tree_votes.tobytes()
    for k in range(len(problems)):
        assert saved[1, k] == saved[2, k]
        assert saved[1, k, "scores"] == saved[2, k, "scores"]


def test_midrank_equals_scipy_rankdata():
    r = np.random.default_rng(5)
    for _ in range(2000):
        n = int(r.integers(1, 60))
        x = r.integers(0, max(1, n // 3), size=n).astype(np.float64) / 7
        got = midrank(x)
        assert np.array_equal(got, rankdata(x)) and got.dtype == np.float64


def test_import_leaves_scipy_stats_unloaded():
    # nor any other scipy module: only propagation loads scipy (scipy.sparse)
    probe = "import sys, callscore; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(Path(models.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_leaf_tie_breaks_toward_parent_majority():
    # one feature; left child pure negative, right child balanced -> parent
    # majority decides the right leaf's vote
    X = np.array([[0.0], [0.1], [0.2], [0.3], [0.8], [0.9], [1.0], [1.1]])
    y = np.array([False, False, False, False, True, True, False, False])
    tree = grow_tree(X, y, max_depth=1, min_leaf=2)
    votes = tree.vote[reference_leaves(tree, X)]
    # parent is 6 negatives / 2 positives -> majority 0; the tied right leaf
    # (2 pos, 2 neg) inherits it
    assert votes[-4:].tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def test_model_json_round_trip(tmp_path, rng):
    X, y = informative_data(rng, n=200, m=4)
    logistic = train_logistic(X, y)
    save_model(logistic, tmp_path / "logit.json")
    again = load_model(tmp_path / "logit.json")
    assert np.allclose(again.coef, logistic.coef)
    assert again.intercept == pytest.approx(logistic.intercept)

    tree = train_tree(X, y, cv_folds=5, min_leaf=5, seed=0)
    save_model(tree, tmp_path / "tree.json")
    t2 = load_model(tmp_path / "tree.json")
    assert np.array_equal(predict_tree_proba(t2, X), predict_tree_proba(tree, X))
    assert t2.features_used == tree.features_used

    forest = train_forest(X, y, n_trees=5, mtry=None, min_leaf=5, seed=0)
    save_model(forest, tmp_path / "forest.json")
    f2 = load_model(tmp_path / "forest.json")
    assert np.array_equal(predict_forest(f2, X).score, predict_forest(forest, X).score)


def test_scored_dataset_validation():
    with pytest.raises(DataError):
        ScoredDataset(y=np.array([True, False]), score=np.array([0.5, 1.5]))
    with pytest.raises(DataError):
        ScoredDataset(y=np.array([True]), score=np.array([0.5, 0.5]))
