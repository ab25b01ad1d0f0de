"""Statistical and economic model evaluation.

Statistical: ROC/AUC and the DeLong paired test on correlated AUCs.
Economic: the expected-maximum-profit measure for credit scoring. A rejected
applicant costs nothing; accepting a defaulter loses the loss fraction
lambda = LGD * EAD / A of the loan amount, and accepting (rejecting) a good
customer earns (forgoes) the ROI. The average classification profit per
borrower at threshold t is

    P(t; lambda) = lambda * pi0 * F0(t) - ROI * pi1 * F1(t)

with pi0/F0 the prior/cumulative score distribution of defaulters and pi1/F1
of non-defaulters. The measure integrates max_t P(t; lambda) over a loss
fraction distribution with point masses p0 at zero and p1 at the maximum
attainable loss (lambda = LGD, a fully drawn card) and a uniform middle. The
maximization is exact: each vertex of the ROC convex hull is optimal on one
lambda interval, delimited by the slope condition on the adjacent segments,
so the integral is a finite sum over hull vertices. The tests check it against
an independent brute-force scan on a lambda grid.

Profit-based feature importance scores a forest feature by the mean profit of
trees that test it minus the mean profit of trees that do not, each tree
classifying the test set with its own hard votes.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import parallel
from .errors import DataError, UsageError
from .models import FlatForest, ForestModel, ScoredDataset, descend, leaf_block, midrank, tree_blocks
from .normal import ndtr
from .runner import EmpParams
from .seeding import substream

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# ROC and AUC.
# ---------------------------------------------------------------------------

def roc_points(y: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC as (F1, F0) = (FPR, TPR) per unique threshold, plus (0, 0).

    Classification at threshold t rejects score >= t; tied scores form one
    point. Points run from (0, 0) to (1, 1) as the threshold drops.
    """
    y = np.asarray(y, dtype=bool)
    score = np.asarray(score, dtype=np.float64)
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-score, kind="stable")
    ys = y[order]
    ss = score[order]
    last_of_group = np.flatnonzero(np.diff(ss) != 0)
    ends = np.concatenate([last_of_group, [len(ss) - 1]])
    cum_pos = np.cumsum(ys)
    tpr = cum_pos[ends] / n1
    fpr = (ends + 1 - cum_pos[ends]) / n0
    return np.concatenate([[0.0], fpr]), np.concatenate([[0.0], tpr])


def roc_and_auc(scored: ScoredDataset) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """ROC curve and trapezoidal AUC (ties grouped, equals the midrank AUC)."""
    fpr, tpr = roc_points(scored.y, scored.score)
    auc = float(np.trapezoid(tpr, fpr))
    return (fpr, tpr), auc


def roc_convex_hull(fpr: np.ndarray, tpr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper convex hull of the ROC; vertex slopes strictly decrease."""
    hull: list = []
    for p in zip(fpr, tpr):
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross >= 0:  # non-right turn: middle point is on or under the chord
                hull.pop()
            else:
                break
        hull.append(p)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return hx, hy


# ---------------------------------------------------------------------------
# Loans.
# ---------------------------------------------------------------------------

@dataclass
class Loans:
    """Principal, exposure at default and outcome of each loan, one array per field."""

    principal: np.ndarray
    ead: np.ndarray
    is_defaulter: np.ndarray

    def __post_init__(self):
        self.principal = np.asarray(self.principal, dtype=np.float64)
        self.ead = np.asarray(self.ead, dtype=np.float64)
        self.is_defaulter = np.asarray(self.is_defaulter, dtype=bool)
        if not (self.principal.ndim == 1 and self.principal.shape == self.ead.shape == self.is_defaulter.shape):
            raise DataError("loan columns must be one-dimensional and aligned")
        if np.any(self.principal <= 0):
            raise DataError("loan principal must be positive")
        if not np.all((0 <= self.ead) & (self.ead <= self.principal * (1 + 1e-9))):
            raise DataError("EAD must lie in [0, principal]")

    def __len__(self) -> int:
        return len(self.principal)

    def __getitem__(self, rows) -> Loans:
        """The loans at `rows`, a slice or an index array, in that order."""
        return Loans(self.principal[rows], self.ead[rows], self.is_defaulter[rows])

    @classmethod
    def concatenate(cls, parts: Sequence[Loans]) -> Loans:
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("principal", "ead", "is_defaulter")))


def estimate_loss_masses(loans: Loans, lgd: float) -> tuple[float, float]:
    """Empirical point masses of the loss fraction among defaulters.

    p0 is the share of defaulters who repaid in full (EAD zero) and p1 the
    share who had drawn the whole principal; between lies the uniform part.
    """
    lam = (lgd * loans.ead / loans.principal)[loans.is_defaulter]  # the loss fraction
    if len(lam) == 0:
        raise DataError("no defaulters to estimate the loss distribution from")
    p0 = float(np.mean(lam <= 1e-12))
    p1 = float(np.mean(lam >= lgd * (1 - 1e-9)))
    if p0 + p1 > 1:
        p1 = 1.0 - p0
    return p0, p1


@dataclass
class EmpReport:
    emp: float
    emp_fraction: float
    implied_cutoff: float
    model_profit: float
    no_model_profit: float


# ---------------------------------------------------------------------------
# EMP: exact hull walk and the brute-force oracle.
# ---------------------------------------------------------------------------

def priors(y: np.ndarray) -> tuple[float, float]:
    """The shares of defaulters and of non-defaulters among the scored labels."""
    pi0 = float(np.asarray(y, dtype=bool).mean())
    return pi0, 1.0 - pi0


def _hull_geometry(scored: ScoredDataset, params: EmpParams):
    pi0, pi1 = priors(scored.y)
    fpr, tpr = roc_points(scored.y, scored.score)
    hx, hy = roc_convex_hull(fpr, tpr)
    dx = np.diff(hx)
    dy = np.diff(hy)
    with np.errstate(divide="ignore"):
        boundaries = np.where(dy > 0, params.roi * pi1 * dx / (pi0 * dy), np.inf)
    return pi0, pi1, hx, hy, boundaries


def emp(scored: ScoredDataset, params: EmpParams) -> tuple[float, float]:
    """Expected maximum profit per borrower and the optimal rejected fraction.

    Vertex k of the ROC hull maximizes P(.; lambda) exactly while lambda lies
    between the slope-condition boundaries of its adjacent segments, so the
    uniform part integrates in closed form per vertex and the point masses are
    read off the optimal vertex at lambda = 0 and lambda = lgd. Profit ties
    resolve toward the larger rejected fraction (the limit from above), which
    makes a vertical first hull segment reject all defaulters already at
    lambda -> 0+.
    """
    pi0, pi1, hx, hy, bounds = _hull_geometry(scored, params)
    lam_max = params.lgd
    uniform_mass = 1.0 - params.p0 - params.p1
    density = uniform_mass / lam_max

    emp_value = 0.0
    eta_value = 0.0
    if uniform_mass > 0:
        lo = np.clip(np.concatenate([[0.0], bounds]), 0.0, lam_max)
        hi = np.clip(np.concatenate([bounds, [np.inf]]), 0.0, lam_max)
        width = np.maximum(hi - lo, 0.0)
        emp_value += float(
            np.sum(density * (pi0 * hy * (hi * hi - lo * lo) / 2 - params.roi * pi1 * hx * width))
        )
        eta_value += float(np.sum(density * (pi0 * hy + pi1 * hx) * width))

    k0 = int(np.searchsorted(bounds, 0.0, side="right"))
    k1 = int(np.searchsorted(bounds, lam_max, side="right"))
    if params.p0 > 0:
        # at lambda = 0 the best profit is 0, attained with x = 0
        eta_value += params.p0 * (pi0 * hy[k0] + pi1 * hx[k0])
    if params.p1 > 0:
        emp_value += params.p1 * (lam_max * pi0 * hy[k1] - params.roi * pi1 * hx[k1])
        eta_value += params.p1 * (pi0 * hy[k1] + pi1 * hx[k1])
    return emp_value, eta_value


def fraction_to_cutoff(scores: np.ndarray, fraction: float) -> float:
    """Score cutoff whose achievable rejection share is closest to `fraction`.

    Instances scoring at the cutoff count as rejected. Ties between achievable
    shares resolve toward rejecting fewer; a zero fraction returns +inf so that
    nobody is rejected.
    """
    if not 0 <= fraction <= 1:
        raise DataError("fraction must lie in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise DataError("no scores to threshold")
    ordered = np.sort(scores)
    uniq = np.unique(ordered)[::-1]  # descending: increasing rejection counts
    counts = n - np.searchsorted(ordered, uniq, side="left")
    cand_cuts = np.concatenate([[np.inf], uniq])
    cand_counts = np.concatenate([[0], counts])
    best = int(np.argmin(np.abs(cand_counts / n - fraction)))
    return float(cand_cuts[best])


def sensitivity_sweep(
    scored: ScoredDataset,
    params: EmpParams,
    parameter: str,
    grid,
) -> list:
    """(value, emp, emp_fraction) per grid point on fixed scores."""
    if parameter not in ("roi", "lgd"):
        raise UsageError("sweep parameter must be 'roi' or 'lgd'")
    grid = list(grid)
    if not grid:
        raise UsageError("sweep grid is empty")
    rows = []
    for value in grid:
        p = dataclasses.replace(params, **{parameter: float(value)})
        emp_value, fraction = emp(scored, p)
        rows.append((float(value), float(emp_value), float(fraction)))
    return rows


# ---------------------------------------------------------------------------
# Model profit per the accept/reject outcome table.
# ---------------------------------------------------------------------------

def _profit_terms(
    y: np.ndarray,
    loans: Loans,
    params: EmpParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-loan profit if accepted and if rejected: accepted good +ROI*A,
    rejected good -ROI*A, accepted defaulter -LGD*EAD, rejected defaulter 0."""
    y = np.asarray(y, dtype=bool)
    if len(loans) != len(y):
        raise DataError("loans, labels and decisions must align")
    if np.any(loans.is_defaulter != y):
        raise DataError("loan outcome labels disagree with the scored labels")
    accepted = np.where(y, -params.lgd * loans.ead, params.roi * loans.principal)
    rejected = np.where(y, 0.0, -params.roi * loans.principal)
    return accepted, rejected


def _total_profit(reject: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> float:
    accepted, rejected = terms
    return math.fsum(np.where(reject, rejected, accepted).tolist())


def evaluate_economics(
    scored: ScoredDataset,
    loans: Loans,
    params: EmpParams,
) -> EmpReport:
    """EMP, its rejected fraction, the implied test-set cutoff and the profits."""
    emp_value, fraction = emp(scored, params)
    cutoff = fraction_to_cutoff(scored.score, fraction)
    terms = _profit_terms(scored.y, loans, params)
    return EmpReport(
        emp=emp_value,
        emp_fraction=fraction,
        implied_cutoff=cutoff,
        model_profit=_total_profit(scored.score >= cutoff, terms),
        no_model_profit=_total_profit(scored.score >= np.inf, terms),
    )


# ---------------------------------------------------------------------------
# Feature importance: profit-based and accuracy-based.
# ---------------------------------------------------------------------------

def _ranked(names: Sequence[str], values: np.ndarray) -> list:
    """Descending by value, undefined (NaN) entries last; ties by name."""
    order = sorted(
        range(len(names)),
        key=lambda j: (np.isnan(values[j]), -(values[j] if not np.isnan(values[j]) else 0.0), names[j]),
    )
    return [(names[j], float(values[j])) for j in order]


_VOTE_CUTOFF = 0.5  # a tree's hard vote at or above it rejects the applicant


def _membership_contrast(member: np.ndarray, per_tree: np.ndarray) -> np.ndarray:
    """Per feature, the mean of `per_tree` over the trees that test it minus
    the mean over the other trees; NaN where every tree or none tests it.

    `member` is the trees x features membership of `feature_membership`.
    """
    n_trees = len(per_tree)
    n_in = member.sum(axis=0)
    contrast = np.full(member.shape[1], np.nan)
    usable = (n_in > 0) & (n_in < n_trees)
    if usable.any():
        total = per_tree.sum()
        sum_in = member[:, usable].T @ per_tree
        contrast[usable] = sum_in / n_in[usable] - (total - sum_in) / (n_trees - n_in[usable])
    return contrast


def profit_feature_importance(
    forest: ForestModel,
    scored: ScoredDataset,
    loans: Loans,
    params: EmpParams,
    feature_names: Sequence[str],
) -> list:
    """Mean decrease in profit per feature, ranked descending.

    Each tree classifies the test set with its own hard votes (a vote of 1
    rejects) and earns a profit from the outcome table; a feature scores the
    mean profit of trees whose internal nodes test it minus the mean profit of
    the remaining trees. Features in every tree or in none have no such
    contrast and get a NaN sentinel, ranked last.
    """
    if scored.per_tree_votes is None:
        raise DataError("per-tree votes are required for profit importance")
    votes = scored.per_tree_votes
    if votes.shape[0] != forest.n_trees:
        raise DataError("votes do not match the forest")
    terms = _profit_terms(scored.y, loans, params)
    profits = np.array([_total_profit(votes[i] >= _VOTE_CUTOFF, terms) for i in range(forest.n_trees)])
    return _ranked(feature_names, _membership_contrast(forest.feature_membership(len(feature_names)), profits))


def _first_tests(flat: FlatForest, path: list, n_pairs: int, n_feat: int, features: np.ndarray):
    """For each of `features`, the pairs whose path tests it and the first node on the path that does.

    Returns (keys, starts, bounds): the slice bounds[j]:bounds[j + 1] holds
    feature j's entries, keys minus j * n_pairs being the pair positions in
    ascending order and starts the nodes (intp, as the walk indexes with
    them); a feature not in `features` has none. Empties `path`, whose
    per-level arrays are then freed before the sort. Nodes are held as
    int32, and so are the keys while every key fits, which halves the
    sort's memory; otherwise the keys are int64.
    """
    key_type = np.int32 if n_feat * n_pairs < 2**31 else np.int64
    wanted = np.zeros(n_feat, dtype=bool)
    wanted[features] = True
    pairs = np.concatenate([np.empty(0, dtype=np.intp)] + [p for p, _ in path], dtype=key_type)
    nodes = np.concatenate([np.empty(0, dtype=np.intp)] + [a for _, a in path], dtype=np.int32)
    path.clear()
    mine = wanted[flat.feature[nodes]]
    pairs, nodes = pairs[mine], nodes[mine]
    del mine
    keys = flat.feature[nodes].astype(key_type)
    keys *= n_pairs
    keys += pairs
    del pairs
    # the path runs shallowest first, and unique keeps each key's first index
    keys, first = np.unique(keys, return_index=True)
    bounds = np.searchsorted(keys, np.arange(n_feat + 1, dtype=key_type) * n_pairs)
    return keys, nodes[first].astype(np.intp), bounds


def _permutation_part(shared: tuple, features: np.ndarray) -> tuple:
    """The accuracy drop of each of `features` when its column is shuffled,
    and every tree's accuracy, from a walk of the whole forest.

    `shared` is (flat, X, y, seed). Each feature's summed changes of tree
    probabilities, `delta`, are added block by block in tree order, so they
    do not depend on which other features share the walk.
    """
    flat, X, y, seed = shared
    n, n_trees = len(y), len(flat.roots)
    score = np.zeros(n)
    tree_acc = np.empty(n_trees)
    delta = np.zeros((len(features), n))  # per feature, the summed changes of tree probabilities
    X_perm = X.copy()  # holds one shuffled column at a time
    shuffled = [X[substream(seed, "perm", j).permutation(n), j] for j in features]
    for trees in tree_blocks(n_trees, n):
        path: list = []
        leaves = leaf_block(flat, X, trees, path)
        for prob in flat.prob[leaves]:  # tree by tree, as predict_forest sums
            score += prob
        tree_acc[trees.start:trees.stop] = np.mean((flat.vote[leaves] == 1) == y, axis=1)
        leaves = leaves.ravel()
        keys, starts, bounds = _first_tests(flat, path, len(leaves), X.shape[1], features)
        for k, j in enumerate(features):
            lo, hi = bounds[j], bounds[j + 1]
            if lo == hi:
                continue
            pairs = keys[lo:hi].astype(np.intp) - j * len(leaves)
            rows = pairs % n
            node = starts[lo:hi].copy()
            X_perm[:, j] = shuffled[k]
            descend(flat, X_perm, node, rows)
            X_perm[:, j] = X[:, j]
            old = leaves[pairs]
            moved = node != old
            # pairs run tree-major and add.at adds in index order, so each row
            # sums its changes in tree order; an unmoved pair would add 0.0
            np.add.at(delta[k], rows[moved], flat.prob[node[moved]] - flat.prob[old[moved]])
    base_score = score / n_trees
    base_acc = float(np.mean((base_score >= 0.5) == y))
    drops = [base_acc - float(np.mean((base_score + delta[k] / n_trees >= 0.5) == y))
             for k in range(len(features))]
    return drops, tree_acc


def accuracy_feature_importance(
    forest: ForestModel,
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    seed: int,
) -> dict:
    """Mean decrease in accuracy, two readings of the leave-out idea.

    "permutation" (the default ranking): accuracy drop of the forest when the
    feature's test column is shuffled once. Only a (tree, row) pair whose path
    tests the feature can change leaf, so only those pairs are walked again,
    from the first node on the path that tests it. "membership": the
    tree-profit construction applied to per-tree accuracy. A feature tested
    by no tree scores exactly zero.

    The tested features are dealt into one part per process of `fork_map`,
    and each part walks the forest on its own and returns only its features'
    drops and the per-tree accuracies, so this process holds none of the
    walk's arrays. The walk calls no BLAS.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    n_feat = len(feature_names)
    member = forest.feature_membership(n_feat)
    tested = np.flatnonzero(member.any(axis=0))
    # the most often tested features first, dealt in turn, even out the parts' walks
    dealt = tested[np.argsort(-member[:, tested].sum(axis=0), kind="stable")]
    n_parts = parallel.worker_count(len(tested))
    parts = [dealt[k::n_parts] for k in range(n_parts)]
    perm = np.zeros(n_feat)
    with parallel.fork_map(_permutation_part, parts, (FlatForest.of(forest.trees), X, y, seed)) as walked:
        for features, (drops, tree_acc) in zip(parts, walked):
            perm[features] = drops  # every part gives the same per-tree accuracies
    return {
        "permutation": _ranked(feature_names, perm),
        "membership": _ranked(feature_names, _membership_contrast(member, tree_acc)),
    }


# ---------------------------------------------------------------------------
# DeLong paired AUC comparison.
# ---------------------------------------------------------------------------

@dataclass
class DelongResult:
    auc_a: float
    auc_b: float
    auc_diff: float
    variance: float
    z: float
    p_value: float


def _delong_components(score: np.ndarray, y: np.ndarray):
    pos = score[y]
    neg = score[~y]
    m, nn = len(pos), len(neg)
    tz = midrank(np.concatenate([pos, neg]))
    tx = midrank(pos)
    ty = midrank(neg)
    v10 = (tz[:m] - tx) / nn            # per defaulter
    v01 = 1.0 - (tz[m:] - ty) / m       # per non-defaulter
    auc = float(v10.mean())
    return auc, v10, v01


def delong_test(scores_a: np.ndarray, scores_b: np.ndarray, y: np.ndarray) -> DelongResult:
    """Two-sided DeLong test for the difference of two correlated AUCs.

    Uses the structural-components covariance estimate (sample covariance of
    the per-positive and per-negative placement values). Degenerate variance,
    as with identical score vectors, reports z = 0 and p = 1.
    """
    y = np.asarray(y, dtype=bool)
    scores_a = np.asarray(scores_a, dtype=np.float64)
    scores_b = np.asarray(scores_b, dtype=np.float64)
    if scores_a.shape != y.shape or scores_b.shape != y.shape:
        raise DataError("paired scores must align with the labels")
    m = int(y.sum())
    nn = len(y) - m
    if m == 0 or nn == 0:
        raise DataError("DeLong test needs both classes")
    auc_a, v10_a, v01_a = _delong_components(scores_a, y)
    auc_b, v10_b, v01_b = _delong_components(scores_b, y)
    s10 = np.cov(np.stack([v10_a, v10_b]), ddof=1)
    s01 = np.cov(np.stack([v01_a, v01_b]), ddof=1)
    s = s10 / m + s01 / nn
    variance = float(s[0, 0] + s[1, 1] - 2 * s[0, 1])
    diff = auc_a - auc_b
    if variance <= 1e-16:
        return DelongResult(auc_a, auc_b, diff, max(variance, 0.0), 0.0, 1.0)
    z = diff / math.sqrt(variance)
    p = 2 * ndtr(-abs(z))
    return DelongResult(auc_a, auc_b, diff, variance, z, p)


# ---------------------------------------------------------------------------
# Rank correlations between two importance rankings.
# ---------------------------------------------------------------------------

@dataclass
class RankCorrelations:
    spearman: float
    kendall: float
    goodman_kruskal: float


def rank_correlations(ranking_a: Sequence[float], ranking_b: Sequence[float]) -> RankCorrelations:
    """Spearman rho, Kendall tau-b and Goodman-Kruskal gamma of paired scores."""
    a = np.asarray(ranking_a, dtype=np.float64)
    b = np.asarray(ranking_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("rankings must be one-dimensional and aligned")
    if len(a) < 2:
        raise DataError("need at least two items to correlate")
    with np.errstate(invalid="ignore", divide="ignore"):  # a constant side has no correlation
        rho = float(np.corrcoef(np.column_stack([midrank(a), midrank(b)]), rowvar=False)[1, 0])
    upper = np.triu_indices(len(a), k=1)
    da = np.sign(a[:, None] - a[None, :])[upper]
    db = np.sign(b[:, None] - b[None, :])[upper]
    prod = da * db
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    untied_a, untied_b = int(np.count_nonzero(da)), int(np.count_nonzero(db))
    if untied_a == 0 or untied_b == 0:
        tau = float("nan")
    else:
        # tau-b, computed as scipy.stats.kendalltau does
        tau = float(np.clip((concordant - discordant) / np.sqrt(untied_a) / np.sqrt(untied_b), -1.0, 1.0))
    if concordant + discordant == 0:
        gamma = float("nan")
    else:
        gamma = (concordant - discordant) / (concordant + discordant)
    return RankCorrelations(spearman=rho, kendall=tau, goodman_kruskal=float(gamma))
