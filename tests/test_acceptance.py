"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion. The qualitative and scale experiments use the published
configs under configs/.
"""

import csv
import dataclasses
import filecmp
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest, spearmanr

from callscore.graph import build_graph
from callscore.ingest import CdrBatch
from callscore.models import ScoredDataset, load_scores, predict_forest
from callscore.netstats import dyadicity, heterophilicity, homophily_test
from callscore.profit import (
    EmpParams,
    Loans,
    accuracy_feature_importance,
    delong_test,
    emp,
    fraction_to_cutoff,
    profit_feature_importance,
    sensitivity_sweep,
)
from callscore.propagation import personalized_pagerank, spreading_activation
from callscore.runner import ExperimentConfig, load_config, run_stages
from callscore.synth import SynthConfig, generate
from conftest import (
    dense_pagerank_solve,
    emp_oracle,
    model_profit,
    planted_feature_dataset,
    random_records,
    records_batch,
    train_forest,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def announce(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def random_graph_for(seed: int, max_nodes: int = 100):
    rng = np.random.default_rng(seed)
    mode = ("undirected", "outgoing", "incoming")[seed % 3]
    n = int(rng.integers(5, max_nodes + 1))
    return build_graph(records_batch(random_records(rng, n, int(rng.integers(2 * n, 6 * n)))), mode=mode), rng


def test_criterion_01_pagerank_matches_dense_solve():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        graph, rng = random_graph_for(seed)
        restart = rng.random(graph.n_nodes)
        restart[restart < 0.5] = 0.0
        if restart.sum() == 0:
            restart[0] = 1.0
        got = personalized_pagerank(graph, restart, 0.85, 1e-12, 20_000).scores
        want = dense_pagerank_solve(graph, restart, alpha=0.85)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"max per-component error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(1, f"power iteration vs dense solve: max error {worst:.2e} over 50 graphs in {elapsed:.1f}s")


def test_criterion_02_spreading_conserves_energy():
    worst = 0.0
    for seed in range(50):
        graph, rng = random_graph_for(seed + 1000)
        k = int(rng.integers(1, max(2, graph.n_nodes // 2)))
        seeds = rng.choice(graph.n_nodes, size=k, replace=False)
        result = spreading_activation(graph, seeds, 0.85, 1e-6, 100)
        for total in result.energy_trace:
            worst = max(worst, abs(total - 1.0))
        worst = max(worst, abs(float(result.scores.sum()) - 1.0))
    assert worst <= 1e-9, f"max energy deviation {worst:.3e}"
    announce(2, f"energy conserved to {worst:.2e} across every iteration of 50 graphs")


def test_criterion_03_emp_oracle_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 2000
        y = rng.random(n) < 0.05
        if y.sum() < 2:
            y[:2] = True
        score = np.clip(rng.normal(0.3 + 0.25 * y, 0.2), 0, 1)
        scored = ScoredDataset(y=y, score=score)
        params = EmpParams(roi=0.05, lgd=0.8,
                           p0=float(rng.uniform(0, 0.5)), p1=float(rng.uniform(0, 0.4)))
        hull = emp(scored, params)[0]
        grid = emp_oracle(scored, params, 10_000)
        worst = max(worst, abs(hull - grid))
    assert worst <= 1e-3, f"max |hull - oracle| {worst:.2e}"

    y = np.array([True] * 100 + [False] * 1900)
    perfect = ScoredDataset(y=y, score=np.where(y, 0.95, 0.05))
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.35, p1=0.25)
    value, fraction = emp(perfect, params)
    pi0 = 0.05
    closed = pi0 * params.lgd * (params.p1 + (1 - params.p0 - params.p1) / 2)
    assert abs(value - closed) <= 1e-6
    assert abs(fraction - pi0) <= 1e-6
    announce(3, f"hull EMP vs grid oracle: max gap {worst:.2e}; perfect-classifier closed form matched")


def test_criterion_04_model_profit_identities():
    params = EmpParams(roi=0.05, lgd=0.8)
    cells = [
        (False, 0.1, Loans([100], [0], [False]), 5.0),     # accepted good
        (False, 0.9, Loans([100], [0], [False]), -5.0),    # rejected good
        (True, 0.1, Loans([100], [80], [True]), -64.0),    # accepted defaulter
        (True, 0.9, Loans([100], [80], [True]), 0.0),      # rejected defaulter
    ]
    for yi, score, loan, expected in cells:
        scored = ScoredDataset(y=np.array([yi]), score=np.array([score]))
        assert model_profit(scored, loan, params, 0.5) == pytest.approx(expected, abs=0)

    rng = np.random.default_rng(4)
    y = rng.random(500) < 0.2
    scored = ScoredDataset(y=y, score=rng.random(500))
    loans = Loans(*zip(*[
        (float(a), float(np.round(a * rng.uniform(0, 1), 2)) if yi else 0.0, bool(yi))
        for a, yi in zip(rng.integers(100, 5000, 500), y)
    ]))
    cutoff = fraction_to_cutoff(scored.score, 0.0)
    assert model_profit(scored, loans, params, cutoff) == model_profit(scored, loans, params, np.inf)
    announce(4, "outcome-table cells exact; zero-rejection profit equals accept-all exactly")


def test_criterion_05_profit_importance_recovery():
    hits_profit = 0
    hits_accuracy = 0
    runs = 20
    for seed in range(runs):
        X, y, informative, loans = planted_feature_dataset(2000, n_noise=30, effect=2.5, seed=seed)
        cut = 700
        forest = train_forest(X[:cut], y[:cut], n_trees=200, mtry=4, min_leaf=5, seed=seed, max_depth=4)
        scored = predict_forest(forest, X[cut:], y[cut:])
        names = [f"f{j}" for j in range(X.shape[1])]
        params = EmpParams(roi=0.05, lgd=0.8, p0=0.1, p1=0.1)
        profit_rank = profit_feature_importance(forest, scored, loans[cut:], params, names)
        hits_profit += profit_rank[0][0] == f"f{informative}"
        acc_rank = accuracy_feature_importance(forest, X[cut:], y[cut:], names, seed=seed)
        hits_accuracy += acc_rank["permutation"][0][0] == f"f{informative}"
    assert hits_profit >= 18, f"profit importance recovered {hits_profit}/20"
    assert hits_accuracy >= 18, f"accuracy importance recovered {hits_accuracy}/20"
    announce(5, f"planted feature ranked first: profit {hits_profit}/20, accuracy {hits_accuracy}/20")


def _synth_graph_and_labels(config: SynthConfig, seed: int):
    data = generate(config, seed=seed)
    calls = data.calls
    kept = calls["duration"] >= 5
    batch = CdrBatch(
        date_ord=np.full(int(kept.sum()), 736000),
        time_sec=calls["sec"][kept],
        duration=calls["duration"][kept],
        from_code=calls["caller"][kept],
        to_code=calls["callee"][kept],
        ids=data.identities,
    )
    graph = build_graph(batch, mode="undirected")
    labels = np.full(graph.n_nodes, -1, dtype=np.int8)
    for node, identity in enumerate(graph.ids):
        i = int(identity[1:])
        if data.y_default[i] >= 0:
            labels[node] = data.y_default[i]
        elif data.delinquency[i] >= 0:
            labels[node] = int(data.delinquency[i] == 3)
    return graph, labels


HOMOPHILY_CONFIG = dict(
    n_nodes=1500, n_subjects=600, mean_calls_per_node=12.0, default_rate=0.18,
    existing_customer_rate=0.2, risky_rate=0.2, planted_feature_effect=4.0,
    latent_weight=2.0, sd_weight=0.0, cb_weight=0.0, contagion_weight=0.0,
)


def test_criterion_06_homophily_statistics_calibration():
    graph, labels = _synth_graph_and_labels(
        SynthConfig(homophily_strength=4.0, **HOMOPHILY_CONFIG), seed=0)
    rng = np.random.default_rng(0)
    ds, hs = [], []
    for _ in range(1000):
        permuted = labels.copy()
        known = np.flatnonzero(labels >= 0)
        permuted[known] = labels[known][rng.permutation(len(known))]
        ds.append(dyadicity(graph, permuted))
        hs.append(heterophilicity(graph, permuted))
    mean_d, mean_h = float(np.mean(ds)), float(np.mean(hs))
    assert 0.95 <= mean_d <= 1.05, f"permutation-null mean D {mean_d:.3f}"
    assert 0.95 <= mean_h <= 1.05, f"permutation-null mean H {mean_h:.3f}"

    detected = 0
    for seed in range(100):
        graph, labels = _synth_graph_and_labels(
            SynthConfig(homophily_strength=4.0, **HOMOPHILY_CONFIG), seed=seed)
        detected += homophily_test(graph, labels).p_value < 0.05
    assert detected >= 95, f"planted homophily detected in {detected}/100 seeds"
    announce(6, f"permutation null D {mean_d:.3f} / H {mean_h:.3f}; "
                f"strength-4 homophily detected {detected}/100")


def test_criterion_07_delong_correctness():
    def brute_variance(sa, sb, y):
        pos, neg = np.flatnonzero(y), np.flatnonzero(~y)
        comps = []
        for s in (sa, sb):
            psi = (s[pos][:, None] > s[neg][None, :]).astype(float)
            psi += 0.5 * (s[pos][:, None] == s[neg][None, :])
            comps.append((psi.mean(axis=1), psi.mean(axis=0)))
        v10 = np.stack([comps[0][0], comps[1][0]])
        v01 = np.stack([comps[0][1], comps[1][1]])
        S = np.cov(v10, ddof=1) / len(pos) + np.cov(v01, ddof=1) / len(neg)
        return S[0, 0] + S[1, 1] - 2 * S[0, 1]

    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 201))
        y = rng.random(n) < 0.35
        if y.sum() < 2 or (~y).sum() < 2:
            continue
        sa = rng.random(n)
        sb = np.clip(sa + rng.normal(0, 0.25, n), 0, 1)
        res = delong_test(sa, sb, y)
        worst = max(worst, abs(res.variance - brute_variance(sa, sb, y)))
    assert worst <= 1e-10, f"max variance gap {worst:.2e}"

    rng = np.random.default_rng(777)
    pvalues = []
    for _ in range(1000):
        y = np.zeros(200, dtype=bool)
        y[:60] = True
        pvalues.append(delong_test(rng.random(200), rng.random(200), y).p_value)
    ks = kstest(pvalues, "uniform").pvalue
    assert ks > 0.01, f"null p-value KS test p {ks:.4f}"
    announce(7, f"variance matches O(n^2) oracle to {worst:.1e}; null p-values uniform (KS p {ks:.3f})")


@pytest.fixture(scope="module")
def qualitative_run(tmp_path_factory):
    config = load_config(CONFIG_DIR / "qualitative.cfg")
    out = tmp_path_factory.mktemp("qualitative")
    config = dataclasses.replace(config, out_dir=str(out))
    run_stages(config)
    return Path(out)


def test_criterion_08_qualitative_reproduction(qualitative_run):
    out = qualitative_run
    with open(out / "eval" / "models.csv", newline="") as fh:
        rows = {r["model_id"]: r for r in csv.DictReader(fh)}
    aucs = {m: float(r["auc"]) for m, r in rows.items()}
    emps = {m: float(r["emp"]) for m, r in rows.items()}
    assert aucs["H"] > aucs["A"], f"AUC H {aucs['H']:.3f} vs A {aucs['A']:.3f}"

    combined = set("FGH")
    with open(out / "eval" / "delong.csv", newline="") as fh:
        failures = []
        for r in csv.DictReader(fh):
            a, b = r["model_a"], r["model_b"]
            if (a in combined) == (b in combined):
                continue
            diff = float(r["auc_diff"]) if a in combined else -float(r["auc_diff"])
            p = float(r["p_value"])
            if not (diff > 0 and p < 0.05):
                failures.append((a, b, diff, p))
    assert not failures, f"combined models not dominant: {failures}"

    ids = sorted(aucs)
    rho = spearmanr([aucs[m] for m in ids], [emps[m] for m in ids]).statistic
    assert rho > 0, f"EMP/AUC rank correlation {rho:.3f}"
    announce(8, f"AUC(H)={aucs['H']:.3f} > AUC(A)={aucs['A']:.3f}; all 15 combined-vs-single "
                f"DeLong pairs significant at 95%; EMP-AUC Spearman {rho:.2f}")


def test_criterion_09_roi_sensitivity(qualitative_run):
    scored = load_scores(qualitative_run / "models_out" / "H_forest" / "scores.csv")
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.2, p1=0.2)
    rows = sensitivity_sweep(scored, params, "roi", np.linspace(0.01, 0.20, 20))
    emps = [r[1] for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(emps, emps[1:])), "EMP not non-increasing in ROI"
    announce(9, f"EMP non-increasing over the ROI grid ({emps[0]:.5f} down to {emps[-1]:.5f})")


def test_criterion_10_scale_performance(tmp_path):
    config_path = tmp_path / "scale.cfg"
    text = (CONFIG_DIR / "scale.cfg").read_text()
    text = text.replace("out_dir = runs/scale", f"out_dir = {tmp_path / 'run'}")
    config_path.write_text(text)
    probe = (
        "import resource, sys\n"
        "from callscore.cli import main\n"
        f"rc = main(['run', '--config', {str(config_path)!r}])\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print('PEAK_RSS_KB', rss)\n"
        "sys.exit(rc)\n"
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    rss_kb = int(proc.stdout.strip().splitlines()[-1].split()[-1])
    assert elapsed < 300, f"pipeline took {elapsed:.0f}s"
    assert rss_kb < 1024 * 1024, f"peak RSS {rss_kb / 1024:.0f} MB"
    announce(10, f"1M calls / 100k nodes / 20k subjects: {elapsed:.0f}s, peak RSS {rss_kb / 1024:.0f} MB")


def test_criterion_11_run_determinism(tmp_path):
    base = dict(
        seed=77, n_nodes=500, n_subjects=170, mean_calls_per_node=10.0,
        default_rate=0.16, planted_feature_effect=1.5,
        models="A,H", classifiers="forest", n_trees=25,
    )
    outputs = []
    for name in ("one", "two"):
        config = ExperimentConfig(out_dir=str(tmp_path / name), **base)
        run_stages(config)
        outputs.append(tmp_path / name)
    reports = [
        "eval/models.csv", "eval/models.json", "eval/delong.csv", "eval/summary.txt",
        "eval/rank_correlations.json", "netstats/report.json",
        "features/matrix.csv", "features/loans.csv",
    ]
    for rel in reports:
        assert filecmp.cmp(outputs[0] / rel, outputs[1] / rel, shallow=False), f"{rel} differs"
    announce(11, f"two pipeline runs produced byte-identical reports ({len(reports)} files compared)")
