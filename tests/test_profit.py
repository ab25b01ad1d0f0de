import math

import numpy as np
import pytest
from scipy.stats import kstest, rankdata

from callscore.errors import DataError
from callscore import models, parallel
from callscore.models import FlatForest, ForestModel, ScoredDataset, leaf_block, predict_forest
from callscore.profit import (
    EmpParams,
    Loans,
    _first_tests,
    accuracy_feature_importance,
    delong_test,
    emp,
    estimate_loss_masses,
    evaluate_economics,
    fraction_to_cutoff,
    priors,
    profit_feature_importance,
    rank_correlations,
    roc_and_auc,
    roc_convex_hull,
    roc_points,
)
from callscore.seeding import substream
from conftest import (
    emp_oracle,
    mixed_depth_forest,
    model_profit,
    one_node_tree,
    planted_feature_dataset,
    profit_from_rejections,
    reference_leaves,
    train_forest,
)


def scored(y, s):
    return ScoredDataset(y=np.asarray(y, dtype=bool), score=np.asarray(s, dtype=float))


def random_scored(seed, n=500, base=0.2, lift=0.25):
    r = np.random.default_rng(seed)
    y = r.random(n) < base
    s = np.clip(r.normal(0.3 + lift * y, 0.2), 0, 1)
    if y.sum() == 0 or (~y).sum() == 0:
        y[:2] = [True, False]
    return scored(y, s)


# ---------------------------------------------------------------------------
# ROC / AUC.
# ---------------------------------------------------------------------------

def test_auc_perfect_separation():
    sc = scored([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1])
    (_, _), auc = roc_and_auc(sc)
    assert auc == 1.0


def test_auc_random_scores_near_half():
    sc = random_scored(0, n=20_000, lift=0.0)
    _, auc = roc_and_auc(sc)
    assert abs(auc - 0.5) < 0.02


def test_auc_equals_rank_formula(rng):
    for seed in range(10):
        sc = random_scored(seed)
        _, auc = roc_and_auc(sc)
        ranks = rankdata(sc.score)
        n1 = sc.y.sum()
        n0 = len(sc) - n1
        rank_auc = (ranks[sc.y].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)
        assert auc == pytest.approx(rank_auc, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        roc_and_auc(scored([1, 1], [0.5, 0.6]))


def test_hull_slopes_decrease(rng):
    sc = random_scored(3)
    fpr, tpr = roc_points(sc.y, sc.score)
    hx, hy = roc_convex_hull(fpr, tpr)
    with np.errstate(divide="ignore"):
        slopes = np.diff(hy) / np.diff(hx)
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert hx[0] == 0 and hy[0] == 0 and hx[-1] == 1 and hy[-1] == 1


# ---------------------------------------------------------------------------
# EMP.
# ---------------------------------------------------------------------------

def test_emp_perfect_classifier_closed_form():
    y = np.array([True] * 30 + [False] * 70)
    sc = scored(y, np.where(y, 0.9, 0.1))
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.3, p1=0.2)
    value, fraction = emp(sc, params)
    pi0 = 0.3
    expected = pi0 * 0.8 * (0.2 + (1 - 0.3 - 0.2) / 2)
    assert value == pytest.approx(expected, abs=1e-12)
    assert fraction == pytest.approx(pi0, abs=1e-12)


def test_emp_equal_scores_closed_form():
    y = np.array([True] * 30 + [False] * 70)
    sc = scored(y, np.full(100, 0.5))
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.3, p1=0.2)
    value, _ = emp(sc, params)
    pi0, pi1 = 0.3, 0.7
    lam_star = params.roi * pi1 / pi0
    # uniform part: integral of (lam*pi0 - roi*pi1) over [lam*, lgd]
    unif = (0.5 / 0.8) * (pi0 * (0.8 ** 2 - lam_star ** 2) / 2 - params.roi * pi1 * (0.8 - lam_star))
    mass = 0.2 * (0.8 * pi0 - params.roi * pi1)
    assert value == pytest.approx(unif + mass, abs=1e-12)


def test_emp_matches_oracle_on_random_sets():
    for seed in range(10):
        sc = random_scored(seed, n=800, base=0.1)
        r = np.random.default_rng(seed)
        params = EmpParams(roi=0.05, lgd=0.8,
                           p0=float(r.uniform(0, 0.5)), p1=float(r.uniform(0, 0.4)))
        assert emp(sc, params)[0] == pytest.approx(emp_oracle(sc, params, 10_000), abs=1e-3)


def test_emp_dominates_fixed_cutoffs():
    sc = random_scored(11, n=600, base=0.15)
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.25, p1=0.25)
    pi0, pi1 = priors(sc.y)
    fpr, tpr = roc_points(sc.y, sc.score)
    value, _ = emp(sc, params)
    expected_lambda = params.lgd * (params.p1 + (1 - params.p0 - params.p1) / 2)
    for x, t in zip(fpr, tpr):
        fixed = expected_lambda * pi0 * t - params.roi * pi1 * x
        assert value >= fixed - 1e-12


def test_emp_monotone_in_score_quality():
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.2, p1=0.2)
    base = random_scored(5, n=800, base=0.1)
    previous = emp(base, params)[0]
    for delta in (0.1, 0.3, 0.6):
        better = scored(base.y, np.where(base.y, base.score + delta * (1 - base.score), base.score))
        current = emp(better, params)[0]
        assert current >= previous - 1e-12
        previous = current


def test_emp_oracle_refines_with_grid():
    sc = random_scored(7, n=400, base=0.2)
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.3, p1=0.1)
    exact = emp(sc, params)[0]
    errs = [abs(emp_oracle(sc, params, g) - exact) for g in (1000, 10_000, 100_000)]
    assert errs[2] <= errs[0] + 1e-12


def test_emp_params_validation():
    with pytest.raises(DataError):
        EmpParams(roi=0.0, lgd=0.8)
    with pytest.raises(DataError):
        EmpParams(roi=0.05, lgd=1.5)
    with pytest.raises(DataError):
        EmpParams(roi=0.05, lgd=0.8, p0=0.7, p1=0.5)


def test_estimate_loss_masses():
    loans = Loans(
        principal=[100] * 5,
        ead=[0.0, 100.0, 100.0, 40.0, 10.0],
        is_defaulter=[True, True, True, True, False],
    )
    p0, p1 = estimate_loss_masses(loans, lgd=0.8)
    assert p0 == pytest.approx(0.25)
    assert p1 == pytest.approx(0.5)


@pytest.mark.parametrize("principal, ead, wanted", [
    ([100.0, 0.0], [0.0, 0.0], "loan principal must be positive"),
    ([100.0, -5.0], [0.0, 0.0], "loan principal must be positive"),
    ([100.0, 100.0], [0.0, -1.0], r"EAD must lie in \[0, principal\]"),
    ([100.0, 100.0], [0.0, 100.5], r"EAD must lie in \[0, principal\]"),
    ([100.0, 100.0], [0.0, float("nan")], r"EAD must lie in \[0, principal\]"),
], ids=["zero principal", "negative principal", "negative EAD", "EAD above principal", "NaN EAD"])
def test_loans_refuse_what_a_loan_cannot_be(principal, ead, wanted):
    with pytest.raises(DataError, match=wanted):
        Loans(principal=principal, ead=ead, is_defaulter=[False, True])
    Loans(principal=[100.0], ead=[100.0 * (1 + 1e-10)], is_defaulter=[True])  # within the rounding slack


# ---------------------------------------------------------------------------
# Cutoff translation and model profit.
# ---------------------------------------------------------------------------

def test_fraction_to_cutoff_boundaries():
    s = np.linspace(0.1, 1.0, 10)
    assert fraction_to_cutoff(s, 0.0) == np.inf
    assert fraction_to_cutoff(s, 1.0) == pytest.approx(0.1)
    cutoff = fraction_to_cutoff(s, 0.3)
    assert (s >= cutoff).sum() == 3


def test_fraction_to_cutoff_ties_count_as_rejected():
    s = np.array([0.2, 0.5, 0.5, 0.9])
    # achievable rejection counts are 0, 1, 3, 4: the tied scores move together
    cutoff = fraction_to_cutoff(s, 0.6)
    assert cutoff == pytest.approx(0.5)
    assert (s >= cutoff).sum() == 3
    # equidistant achievable fractions resolve toward rejecting fewer
    assert (s >= fraction_to_cutoff(s, 0.5)).sum() == 1


def test_model_profit_outcome_table():
    params = EmpParams(roi=0.05, lgd=0.8)
    # accepted good: +ROI * A
    sc = scored([0], [0.1])
    assert model_profit(sc, Loans([100], [0], [False]), params, 0.5) == pytest.approx(5.0)
    # rejected good: -ROI * A
    sc = scored([0], [0.9])
    assert model_profit(sc, Loans([100], [0], [False]), params, 0.5) == pytest.approx(-5.0)
    # accepted defaulter: -LGD * EAD
    sc = scored([1], [0.1])
    assert model_profit(sc, Loans([100], [80], [True]), params, 0.5) == pytest.approx(-64.0)
    # rejected defaulter: 0
    sc = scored([1], [0.9])
    assert model_profit(sc, Loans([100], [80], [True]), params, 0.5) == 0.0


def reference_profit(y, reject, loans, params):
    """Per-loan loop over the outcome table."""
    terms = []
    for yi, ri, principal, ead, defaulter in zip(y, reject, loans.principal.tolist(), loans.ead.tolist(),
                                                 loans.is_defaulter.tolist()):
        if bool(yi) != defaulter:
            raise DataError("loan outcome labels disagree with the scored labels")
        if yi:
            terms.append(0.0 if ri else -params.lgd * ead)
        else:
            terms.append(-params.roi * principal if ri else params.roi * principal)
    return math.fsum(terms)


def test_profit_from_rejections_matches_per_loan_loop():
    r = np.random.default_rng(11)
    for _ in range(300):
        n = int(r.integers(1, 80))
        y = r.random(n) < 0.3
        principal = np.round(r.uniform(1, 5000, n), 2)
        ead = np.where(r.random(n) < 0.2, 0.0, principal * r.random(n))
        loans = Loans(principal, ead, y)
        reject = r.random(n) < 0.5
        params = EmpParams(roi=float(r.uniform(0.01, 0.3)), lgd=float(r.uniform(0.1, 1)))
        got = profit_from_rejections(y, reject, loans, params)
        assert repr(got) == repr(reference_profit(y, reject, loans, params))
    loans = Loans(np.r_[100.0, principal[1:]], np.r_[50.0, ead[1:]], np.r_[not y[0], y[1:]])
    with pytest.raises(DataError, match="disagree"):
        profit_from_rejections(y, reject, loans, params)


def test_profit_at_zero_fraction_equals_accept_all():
    sc = random_scored(13, n=300, base=0.2)
    r = np.random.default_rng(13)
    loans = Loans(*zip(*[
        (float(a), float(a * r.uniform(0, 1)) if yi else 0.0, bool(yi))
        for a, yi in zip(r.integers(100, 2000, len(sc)), sc.y)
    ]))
    params = EmpParams(roi=0.05, lgd=0.8)
    cutoff = fraction_to_cutoff(sc.score, 0.0)
    assert model_profit(sc, loans, params, cutoff) == model_profit(sc, loans, params, np.inf)


def test_evaluate_economics_report():
    sc = random_scored(17, n=400, base=0.15)
    r = np.random.default_rng(17)
    loans = Loans(*zip(*[
        (float(a), float(a * r.uniform(0, 1)) if yi else 0.0, bool(yi))
        for a, yi in zip(r.integers(100, 2000, len(sc)), sc.y)
    ]))
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.2, p1=0.2)
    report = evaluate_economics(sc, loans, params)
    assert 0 <= report.emp_fraction <= 1
    assert report.emp >= 0
    rejected = (sc.score >= report.implied_cutoff).mean()
    assert abs(rejected - report.emp_fraction) <= 1 / len(sc) + 1e-9


# ---------------------------------------------------------------------------
# DeLong.
# ---------------------------------------------------------------------------

def brute_force_delong_variance(sa, sb, y):
    pos = np.flatnonzero(y)
    neg = np.flatnonzero(~y)
    m, nn = len(pos), len(neg)
    comps = []
    for s in (sa, sb):
        psi = (s[pos][:, None] > s[neg][None, :]).astype(float)
        psi += 0.5 * (s[pos][:, None] == s[neg][None, :])
        comps.append((psi.mean(axis=1), psi.mean(axis=0)))
    v10 = np.stack([comps[0][0], comps[1][0]])
    v01 = np.stack([comps[0][1], comps[1][1]])
    S = np.cov(v10, ddof=1) / m + np.cov(v01, ddof=1) / nn
    return S[0, 0] + S[1, 1] - 2 * S[0, 1]


def test_delong_identical_scores():
    r = np.random.default_rng(0)
    y = r.random(100) < 0.4
    s = r.random(100)
    res = delong_test(s, s, y)
    assert res.z == 0.0 and res.p_value == 1.0


def test_delong_variance_matches_brute_force():
    worst = 0.0
    for seed in range(15):
        r = np.random.default_rng(seed)
        n = int(r.integers(40, 200))
        y = r.random(n) < 0.35
        if y.sum() < 2 or (~y).sum() < 2:
            continue
        sa = r.random(n)
        sb = np.clip(sa + r.normal(0, 0.25, n), 0, 1)
        res = delong_test(sa, sb, y)
        worst = max(worst, abs(res.variance - brute_force_delong_variance(sa, sb, y)))
    assert worst < 1e-10


def test_delong_null_pvalues_uniform():
    r = np.random.default_rng(20170501)
    pvalues = []
    for _ in range(1000):
        y = np.zeros(200, dtype=bool)
        y[:60] = True
        sa = r.random(200)
        sb = r.random(200)
        pvalues.append(delong_test(sa, sb, y).p_value)
    assert kstest(pvalues, "uniform").pvalue > 0.01


def test_delong_detects_real_difference():
    r = np.random.default_rng(5)
    y = r.random(2000) < 0.3
    good = np.clip(0.5 + 0.4 * y + r.normal(0, 0.1, 2000), 0, 1)
    noise = r.random(2000)
    res = delong_test(good, noise, y)
    assert res.p_value < 1e-6 and res.auc_diff > 0


# ---------------------------------------------------------------------------
# Feature importance.
# ---------------------------------------------------------------------------

def two_tree_forest(features_a, features_b):
    """Hand-built forest stub with controllable per-tree feature sets."""
    from callscore.models import TreeModel

    def leaf_tree(used):
        return TreeModel(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.array([0.0]),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            n0=np.array([1]), n1=np.array([1]),
            prob=np.array([0.5]), vote=np.array([1], dtype=np.int8),
            depth=0, features_used=frozenset(used),
        )

    from callscore.models import ForestModel

    return ForestModel(trees=[leaf_tree(features_a), leaf_tree(features_b)],
                       tree_seeds=[0, 1], mtry=1)


def test_profit_importance_two_tree_difference():
    forest = two_tree_forest({0}, set())
    y = np.array([False, True])
    votes = np.array([[0, 1], [0, 0]], dtype=np.int8)  # tree 0 rejects the defaulter
    sc = ScoredDataset(y=y, score=np.array([0.2, 0.8]), per_tree_votes=votes)
    loans = Loans([100, 100], [0, 75], [False, True])
    params = EmpParams(roi=0.10, lgd=0.8)
    ranking = dict(profit_feature_importance(forest, sc, loans, params, ["f0", "f1"]))
    # tree 0 profit: +10 + 0 = 10; tree 1 profit: +10 - 60 = -50
    assert ranking["f0"] == pytest.approx(60.0)
    assert math.isnan(ranking["f1"])  # in no tree


def test_profit_importance_feature_in_all_trees_is_sentinel():
    forest = two_tree_forest({0}, {0})
    y = np.array([False, True])
    votes = np.zeros((2, 2), dtype=np.int8)
    sc = ScoredDataset(y=y, score=np.array([0.2, 0.8]), per_tree_votes=votes)
    loans = Loans([100, 100], [0, 75], [False, True])
    ranking = dict(profit_feature_importance(forest, sc, loans, EmpParams(roi=0.05, lgd=0.8), ["f0"]))
    assert math.isnan(ranking["f0"])


def test_planted_feature_recovered_by_both_importances():
    hits_profit = 0
    hits_acc = 0
    runs = 4
    for seed in range(runs):
        X, y, j, loans = planted_feature_dataset(2000, n_noise=30, effect=2.5, seed=seed)
        split_at = 700
        forest = train_forest(X[:split_at], y[:split_at], n_trees=200, mtry=4,
                              min_leaf=5, seed=seed, max_depth=4)
        sc = predict_forest(forest, X[split_at:], y[split_at:])
        names = [f"f{k}" for k in range(X.shape[1])]
        params = EmpParams(roi=0.05, lgd=0.8, p0=0.1, p1=0.1)
        ranking = profit_feature_importance(forest, sc, loans[split_at:], params, names)
        if ranking[0][0] == f"f{j}":
            hits_profit += 1
        acc = accuracy_feature_importance(forest, X[split_at:], y[split_at:], names, seed=seed)
        if acc["permutation"][0][0] == f"f{j}":
            hits_acc += 1
    assert hits_profit == runs
    assert hits_acc >= runs - 1


def reference_permutation_importance(forest, X, y, n_feat, seed):
    """The per-(feature, tree) loop: permute the column, walk every tree that tests it."""
    n = len(y)
    member = forest.feature_membership(n_feat)
    probs = np.array([t.prob[reference_leaves(t, X)] for t in forest.trees])
    base_score = probs.mean(axis=0)
    base_acc = float(np.mean((base_score >= 0.5) == y))
    perm = np.zeros(n_feat)
    for j in range(n_feat):
        trees_with = np.flatnonzero(member[:, j])
        if trees_with.size == 0:
            continue
        Xp = X.copy()
        Xp[:, j] = Xp[substream(seed, "perm", j).permutation(n), j]
        delta = np.zeros(n)
        for i in trees_with:
            delta += forest.trees[i].prob[reference_leaves(forest.trees[i], Xp)] - probs[i]
        perm[j] = base_acc - float(np.mean((base_score + delta / forest.n_trees >= 0.5) == y))
    return perm


@pytest.mark.parametrize("walk_pairs", [1 << 16, 50])
def test_permutation_importance_matches_per_tree_loop(rng, monkeypatch, walk_pairs):
    monkeypatch.setattr(models, "_WALK_PAIRS", walk_pairs)  # 50: several tree blocks
    forest, X, y = mixed_depth_forest(rng)
    X = np.hstack([X, np.zeros((len(X), 2))])  # two features no tree tests
    names = [f"f{k}" for k in range(X.shape[1])]
    for seed in (0, 3):
        expected = reference_permutation_importance(forest, X, y, len(names), seed)
        got = dict(accuracy_feature_importance(forest, X, y, names, seed=seed)["permutation"])
        assert [repr(got[name]) for name in names] == [repr(float(v)) for v in expected]
        assert got["f6"] == 0.0 and got["f7"] == 0.0


@pytest.mark.parametrize("walk_pairs", [1 << 16, 50])
def test_importance_tables_do_not_depend_on_the_worker_count(rng, monkeypatch, walk_pairs):
    monkeypatch.setattr(models, "_WALK_PAIRS", walk_pairs)  # 50: several tree blocks per part
    forest, X, y = mixed_depth_forest(rng)
    X = np.hstack([X, np.zeros((len(X), 2))])  # two features no tree tests
    names = [f"f{k}" for k in range(X.shape[1])]
    tables = {}
    for workers in (1, 2, 3):
        # each part walks in a worker of its own once there are two
        monkeypatch.setattr(parallel, "worker_count", lambda n_tasks, w=workers: w)
        acc = accuracy_feature_importance(forest, X, y, names, seed=3)
        tables[workers] = {kind: [(name, repr(value)) for name, value in ranking] for kind, ranking in acc.items()}
    assert tables[1] == tables[2] == tables[3]


def _first_tests_int64(flat, path, n_pairs, n_feat, features):
    """`_first_tests` with int64 keys throughout, the reference for either key width:
    every feature's first tests, of which those of `features` are kept."""
    pairs = np.concatenate([p for p, _ in path])
    nodes = np.concatenate([a for _, a in path])
    keys, first = np.unique(flat.feature[nodes].astype(np.int64) * n_pairs + pairs, return_index=True)
    kept = np.isin(keys // n_pairs, features)
    keys, starts = keys[kept], nodes[first][kept]
    return keys, starts, np.searchsorted(keys, np.arange(n_feat + 1, dtype=np.int64) * n_pairs)


def first_tests_agree(rng, features_of) -> None:
    forest, X, _ = mixed_depth_forest(rng)
    flat = FlatForest.of(forest.trees)
    n_feat = X.shape[1]
    features = features_of(n_feat)
    widest = (2**31 - 1) // n_feat  # the last key and bound still fit in int32
    for n_pairs, key_type in ((forest.n_trees * len(X), np.int32), (widest, np.int32),
                              (widest + 1, np.int64)):
        path = []
        leaf_block(flat, X, range(forest.n_trees), path)
        want = _first_tests_int64(flat, path, n_pairs, n_feat, features)
        got = _first_tests(flat, path, n_pairs, n_feat, features)
        assert path == []
        assert [a.dtype for a in got] == [np.dtype(key_type), np.dtype(np.intp), np.dtype(np.intp)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_first_tests_keys_are_int32_while_every_key_fits(rng):
    first_tests_agree(rng, np.arange)


def test_first_tests_of_some_features_are_theirs_among_all_first_tests(rng):
    first_tests_agree(rng, lambda n_feat: np.array([0, 2, n_feat - 1]))


def test_permutation_importance_of_one_node_forest_is_zero():
    forest = ForestModel(trees=[one_node_tree(), one_node_tree(4, 1)], tree_seeds=[0, 1], mtry=1)
    X = np.arange(12.0).reshape(6, 2)
    y = np.array([True, False] * 3)
    acc = accuracy_feature_importance(forest, X, y, ["a", "b"], seed=0)
    assert acc["permutation"] == [("a", 0.0), ("b", 0.0)]


def test_accuracy_importance_unused_feature_exactly_zero(rng):
    X = rng.normal(size=(300, 4))
    y = X[:, 0] > 0
    forest = train_forest(X[:, :1], y, n_trees=10, mtry=None, min_leaf=5, seed=0)
    # widen membership matrix artificially: feature 3 exists but in no tree
    padded = np.hstack([X[:, :1], np.zeros((300, 3))])
    forest2 = train_forest(padded, y, n_trees=10, mtry=1, min_leaf=5, seed=0)
    names = ["f0", "f1", "f2", "f3"]
    acc = accuracy_feature_importance(forest2, padded, y, names, seed=0)
    values = dict(acc["permutation"])
    member = forest2.feature_membership(4)
    for j in range(1, 4):
        if not member[:, j].any():
            assert values[f"f{j}"] == 0.0


def test_accuracy_importance_noise_feature_negligible(rng):
    deltas = []
    for seed in range(5):
        X, y, j, _ = planted_feature_dataset(400, n_noise=10, effect=2.5, seed=100 + seed)
        forest = train_forest(X, y, n_trees=60, mtry=3, min_leaf=5, seed=seed, max_depth=3)
        names = [f"f{k}" for k in range(X.shape[1])]
        acc = dict(accuracy_feature_importance(forest, X, y, names, seed=seed)["permutation"])
        noise = [acc[n] for n in names if n != f"f{j}"]
        deltas.append(np.max(np.abs(noise)))
    assert np.mean(deltas) < 0.02


# ---------------------------------------------------------------------------
# Rank correlations.
# ---------------------------------------------------------------------------

def test_rank_correlations_identical():
    res = rank_correlations([1, 2, 3, 4], [10, 20, 30, 40])
    assert res.spearman == pytest.approx(1.0)
    assert res.kendall == pytest.approx(1.0)
    assert res.goodman_kruskal == pytest.approx(1.0)


def test_rank_correlations_reversed():
    res = rank_correlations([1, 2, 3, 4], [4, 3, 2, 1])
    assert res.spearman == pytest.approx(-1.0)
    assert res.kendall == pytest.approx(-1.0)
    assert res.goodman_kruskal == pytest.approx(-1.0)


def test_kendall_single_swap_hand_case():
    # rankings (1,2,3,4) vs (1,3,2,4): one discordant pair of six
    res = rank_correlations([1, 2, 3, 4], [1, 3, 2, 4])
    assert res.kendall == pytest.approx(2 / 3)
    assert res.goodman_kruskal == pytest.approx(2 / 3)


def test_rank_correlations_require_two_items():
    with pytest.raises(DataError):
        rank_correlations([1], [2])


def test_tests_and_correlations_equal_scipy_stats():
    # normal tails from callscore.normal.ndtr and both rank correlations in numpy
    # stay bit for bit what scipy.stats computes, ties and constant sides included
    import warnings

    from scipy.stats import kendalltau, norm, spearmanr

    from callscore.netstats import homophily_test
    from conftest import random_graph

    r = np.random.default_rng(11)
    pairs = [(np.ones(5), r.normal(size=5)), (r.normal(size=6), np.full(6, 2.0)), (np.zeros(3), np.zeros(3))]
    pairs += [(r.integers(0, 4, n).astype(float), r.integers(0, 6, n) / 7)
              for n in r.integers(2, 40, size=300)]
    pairs += [(r.normal(size=n), r.normal(size=n)) for n in r.integers(2, 40, size=100)]
    for a, b in pairs:
        res = rank_correlations(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant side
            want = [spearmanr(a, b).statistic, kendalltau(a, b).statistic]
        np.testing.assert_array_equal([res.spearman, res.kendall], want)
    for _ in range(200):
        y = r.random(60) < 0.3
        sa = r.random(60)
        sb = np.clip(sa + r.normal(0, r.choice([0.01, 0.3]), 60), 0, 1)
        res = delong_test(sa, sb, y)
        assert res.p_value == 2 * norm.sf(abs(res.z))
    for _ in range(50):
        graph = random_graph(r, n_nodes=40, n_calls=int(r.integers(60, 200)))
        labels = (r.random(graph.n_nodes) < r.choice([0.1, 0.4])).astype(np.int8)
        labels[:2] = 0, 1
        report = homophily_test(graph, labels)
        assert report.p_value == norm.cdf(report.z_statistic)
