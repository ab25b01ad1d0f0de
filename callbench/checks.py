"""Output checks made apart from the program.

Each check reads what the program wrote into a run directory and recomputes
it, or a property the method must have, with code of its own: numpy, csv and
json only, nothing imported from the program. A check returns a list of
failure messages; an empty list means the output passed. No check compares
against a stored copy of an earlier output, except that a run directory is
compared with itself before and after a command that must not change it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TIMEFRAMES = ("t1", "t2", "t3")
DIRECTIONS = ("IN", "OUT", "UD")
SUM_TOL = 1e-9          # a probability or energy vector sums to one within this
EMP_GRID = 4000         # lambda midpoints of the brute-force EMP


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Ingest: every row accounted for, rejects exactly the injected faults.
# ---------------------------------------------------------------------------

def check_ingest(run: Path, data_rows: int, rejects: list) -> list:
    """`rejects` holds the (row, line, reason) triples the inputs contain."""
    fails = []
    stats = json.loads((run / "ingest" / "stats.json").read_text())
    if stats["rows_read"] != data_rows:
        fails.append(f"ingest: rows_read {stats['rows_read']} != {data_rows} lines written")
    if stats["rows_rejected"] != len(rejects):
        fails.append(f"ingest: rows_rejected {stats['rows_rejected']} != {len(rejects)} injected")
    total = stats["rows_accepted"] + stats["rows_rejected"] + stats["rows_filtered_short"]
    if total != stats["rows_read"]:
        fails.append(f"ingest: accepted + rejected + short = {total} != rows_read {stats['rows_read']}")
    logged = {}
    for entry in (run / "ingest" / "rejects.log").read_text().splitlines():
        row, reason, line = entry.split("\t", 2)
        logged[int(row)] = (line, reason)
    expected = {row: (line, reason) for row, line, reason in rejects}
    if set(logged) != set(expected):
        fails.append(f"ingest: rejected rows {sorted(set(logged) ^ set(expected))[:5]} "
                     "differ from the injected rows")
    for row in sorted(set(logged) & set(expected)):
        line, reason = logged[row]
        want_line, want_reason = expected[row]
        if line != want_line or not reason.lower().startswith(want_reason):
            fails.append(f"ingest: row {row} logged as {reason!r}, expected {want_reason!r}")
            break
    return fails


# ---------------------------------------------------------------------------
# Graphs: total weight is the number of kept in-window calls.
# ---------------------------------------------------------------------------

def _edges(gdir: Path) -> tuple:
    triplets = np.load(gdir / "edges.npy")
    meta = json.loads((gdir / "meta.json").read_text())
    n_nodes = len((gdir / "nodes.txt").read_text().splitlines())
    return (triplets[:, 0].astype(np.int64), triplets[:, 1].astype(np.int64),
            triplets[:, 2].astype(np.float64), meta, n_nodes)


def check_graphs(run: Path, calls_by_date: dict, windows: dict) -> list:
    """`windows` maps a timeframe to its inclusive (first, last) dates."""
    fails = []
    for tf in TIMEFRAMES:
        lo, hi = windows[tf]
        want = sum(n for d, n in calls_by_date.items() if lo <= d <= hi)
        for direction in DIRECTIONS:
            src, dst, w, meta, _ = _edges(run / "network" / tf / direction)
            if meta["n_edges"] != len(w):
                fails.append(f"graph {tf}/{direction}: meta says {meta['n_edges']} edges, file has {len(w)}")
            if w.sum() != want:
                fails.append(f"graph {tf}/{direction}: total weight {w.sum():g} != {want} calls in window")
    return fails


# ---------------------------------------------------------------------------
# Propagation: PageRank is a converged stochastic vector, spreading conserves energy.
# ---------------------------------------------------------------------------

def _push(src, dst, w, mode: str, n: int, x: np.ndarray) -> tuple:
    """One hop of mass along normalized edge weights, and the dangling mask."""
    if mode == "undirected":
        src, dst, w = np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w])
    out = np.bincount(src, weights=w, minlength=n)
    dangling = out == 0
    share = w / np.where(dangling, 1.0, out)[src]
    return np.bincount(dst, weights=share * x[src], minlength=n), dangling


def check_propagation(run: Path, alpha: float, tolerance: float) -> list:
    fails = []
    levels = {}
    for tf in TIMEFRAMES:
        rows = read_csv(run / "network" / f"labels_{tf}.csv")
        levels[tf] = np.array([int(r["delinquency_level"]) for r in rows])
    graphs = {}
    for path in sorted((run / "exposure").glob("*.npy")):
        tf, method, crit, direction = path.stem.split("_")
        x = np.load(path)
        total = float(x.sum())
        if abs(total - 1.0) > SUM_TOL:
            fails.append(f"{path.stem}: scores sum to {total!r}")
        if method != "PR":
            continue
        if (tf, direction) not in graphs:
            graphs[(tf, direction)] = _edges(run / "network" / tf / direction)
        src, dst, w, meta, n = graphs[(tf, direction)]
        seeds = np.flatnonzero(levels[tf] >= int(crit[2:]))
        z = np.zeros(n)
        z[seeds] = 1.0 / len(seeds)
        pushed, dangling = _push(src, dst, w, meta["mode"], n, x)
        step = alpha * (pushed + x[dangling].sum() * z) + (1 - alpha) * z
        moved = float(np.abs(step - x).sum())
        if moved > tolerance:
            fails.append(f"{path.stem}: one more power step moves the vector by {moved:.3g} > {tolerance:g}")
    return fails


# ---------------------------------------------------------------------------
# Models: AUC, EMP, model profit and DeLong recomputed from the scores.
# ---------------------------------------------------------------------------

def _scores(path: Path) -> tuple:
    rows = read_csv(path)
    keys = [(r["subject_id"], r["timeframe"]) for r in rows]
    y = np.array([r["y"] == "1" for r in rows])
    s = np.array([float(r["score"]) for r in rows])
    return keys, y, s


def rank_auc(y: np.ndarray, s: np.ndarray) -> float:
    """Mann-Whitney AUC from midranks of the pooled scores."""
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midrank = upper - (counts - 1) / 2.0
    n1 = int(y.sum())
    n0 = len(y) - n1
    return (float(midrank[inverse][y].sum()) - n1 * (n1 + 1) / 2) / (n1 * n0)


def loss_masses(loans: list, train_rows: list) -> tuple:
    """Shares of training defaulters with nothing drawn and with the limit drawn."""
    defaulters = [loans[i] for i in train_rows if loans[i]["is_defaulter"] == "1"]
    p0 = sum(float(r["ead"]) == 0.0 for r in defaulters) / len(defaulters)
    p1 = sum(float(r["ead"]) == float(r["principal"]) for r in defaulters) / len(defaulters)
    return p0, p1


def brute_force_emp(y: np.ndarray, s: np.ndarray, roi: float, lgd: float,
                    p0: float, p1: float) -> tuple:
    """EMP by scanning every cutoff at EMP_GRID midpoints of lambda in (0, lgd).

    Returns (emp, tolerance). max over cutoffs of the profit is convex and
    piecewise linear in lambda with slopes in [0, pi0], so the midpoint rule
    errs by at most (uniform mass) * lgd * pi0 / (8 * EMP_GRID**2).
    """
    pi0 = float(y.mean())
    pi1 = 1.0 - pi0
    order = np.argsort(-s, kind="stable")
    ys, ss = y[order], s[order]
    ends = np.concatenate([np.flatnonzero(np.diff(ss) != 0), [len(ss) - 1]])
    rejected_bad = np.concatenate([[0], np.cumsum(ys)[ends]])
    rejected = np.concatenate([[0], ends + 1])
    f0 = rejected_bad / ys.sum()                                 # defaulters rejected
    f1 = (rejected - rejected_bad) / (len(ys) - ys.sum())        # good customers rejected
    gain, cost = pi0 * f0, roi * pi1 * f1
    uniform = 1.0 - p0 - p1
    lam = (np.arange(EMP_GRID) + 0.5) * (lgd / EMP_GRID)
    acc = 0.0
    for start in range(0, EMP_GRID, 500):
        chunk = lam[start:start + 500, None]
        acc += float(np.max(chunk * gain[None, :] - cost[None, :], axis=1).sum())
    value = uniform * acc / EMP_GRID + p1 * float(np.max(lgd * gain - cost))
    tolerance = uniform * lgd * pi0 / (8 * EMP_GRID ** 2) + 1e-11
    return value, tolerance


def profit(y: np.ndarray, reject: np.ndarray, loans: list, roi: float, lgd: float) -> float:
    terms = []
    for yi, ri, loan in zip(y, reject, loans):
        principal, ead = float(loan["principal"]), float(loan["ead"])
        if yi:
            terms.append(0.0 if ri else -lgd * ead)
        else:
            terms.append(-roi * principal if ri else roi * principal)
    return math.fsum(terms)


def delong_z(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """DeLong z from the O(n0 * n1) placement values of both score vectors."""
    comps = []
    for s in (a, b):
        pos, neg = s[y], s[~y]
        psi = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
        comps.append((psi.mean(), psi.mean(axis=1), psi.mean(axis=0)))
    (auc_a, v10a, v01a), (auc_b, v10b, v01b) = comps
    s10 = np.cov(np.stack([v10a, v10b]))
    s01 = np.cov(np.stack([v01a, v01b]))
    cov = s10 / len(v10a) + s01 / len(v01a)
    var = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    return 0.0 if var <= 1e-16 else (auc_a - auc_b) / math.sqrt(var)


def check_models(run: Path, roi: float, lgd: float, classifier: str = "forest") -> list:
    fails = []
    reports = {r["model_id"]: r for r in read_csv(run / "eval" / "models.csv")
               if r["classifier"] == classifier}
    exact = {r["model_id"]: r for r in json.loads((run / "eval" / "models.json").read_text())
             if r["classifier"] == classifier}
    loans = read_csv(run / "features" / "loans.csv")
    loan_of = {(r["subject_id"], r["timeframe"]): r for r in loans}
    split = json.loads((run / "models_out" / "split.json").read_text())
    p0, p1 = loss_masses(loans, split["train"])
    scored = {}
    for model_id, report in sorted(reports.items()):
        keys, y, s = _scores(run / "models_out" / f"{model_id}_{classifier}" / "scores.csv")
        scored[model_id] = (y, s)
        test_loans = [loan_of[k] for k in keys]
        if [r["is_defaulter"] == "1" for r in test_loans] != y.tolist():
            fails.append(f"model {model_id}: scores.csv labels disagree with loans.csv")
            continue
        auc = rank_auc(y, s)
        if abs(auc - float(report["auc"])) > 5e-7 + 1e-12:
            fails.append(f"model {model_id}: rank-sum AUC {auc:.6f} != reported {report['auc']}")
        emp_bf, tol = brute_force_emp(y, s, roi, lgd, p0, p1)
        if abs(emp_bf - exact[model_id]["emp"]) > tol:
            fails.append(f"model {model_id}: brute-force EMP {emp_bf!r} != reported "
                         f"{exact[model_id]['emp']!r} (tolerance {tol:.2g})")
        cutoff = float(report["implied_cutoff"])
        for field, reject in (("model_profit", s >= cutoff),
                              ("no_model_profit", np.zeros(len(s), dtype=bool))):
            value = profit(y, reject, test_loans, roi, lgd)
            if abs(value - float(report[field])) > 0.005 + 1e-6:
                fails.append(f"model {model_id}: recomputed {field} {value:.2f} != reported {report[field]}")
    pairs = [r for r in read_csv(run / "eval" / "delong.csv")
             if r["model_a"] in scored and r["model_b"] in scored]
    if pairs:
        pair = next((r for r in pairs if (r["model_a"], r["model_b"]) == ("A", "H")), pairs[0])
        y, a = scored[pair["model_a"]]
        _, b = scored[pair["model_b"]]
        z = delong_z(y, a, b)
        if abs(z - float(pair["z"])) > 5e-5 + 1e-9:
            fails.append(f"DeLong {pair['model_a']} vs {pair['model_b']}: z {z:.4f} != reported {pair['z']}")
    return fails


# ---------------------------------------------------------------------------
# Reanalysis: reruns reproduce bytes; predict and sweep agree with the run.
# ---------------------------------------------------------------------------

def snapshot(root: Path) -> dict:
    """Relative path -> content digest of every file under `root`."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def changed_files(before: dict, root: Path, prefix: str = "") -> list:
    """Files under `root`/`prefix` that differ from, or are missing in, `before`."""
    after = {k: v for k, v in snapshot(root).items() if k.startswith(prefix)}
    before = {k: v for k, v in before.items() if k.startswith(prefix)}
    return sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))


def check_predict(run: Path, predicted: Path, model_id: str = "H", classifier: str = "forest") -> list:
    rows = read_csv(predicted)
    split = json.loads((run / "models_out" / "split.json").read_text())
    keys, _, s = _scores(run / "models_out" / f"{model_id}_{classifier}" / "scores.csv")
    test = [rows[i] for i in split["test"]]
    got = [(r["subject_id"], r["timeframe"]) for r in test]
    if got != keys:
        return ["predict: test rows do not line up with scores.csv"]
    mismatched = int(np.sum(np.array([float(r["score"]) for r in test]) != s))
    return [f"predict: {mismatched} test-row scores differ from scores.csv"] if mismatched else []


def _number(text: str) -> float:
    # `callscore sweep` writes numpy reprs such as "np.float64(0.0371)" when a
    # point mass is non-zero; that format fault is reported on its own, and
    # this check holds the value to the run's EMP.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def check_sweep(sweep_csv: Path, run: Path, roi: float, model_id: str = "H",
                classifier: str = "forest") -> list:
    rows = read_csv(sweep_csv)
    at_roi = [_number(r["emp"]) for r in rows if _number(r["roi"]) == roi]
    want = next(r["emp"] for r in json.loads((run / "eval" / "models.json").read_text())
                if r["model_id"] == model_id and r["classifier"] == classifier)
    if len(at_roi) != 1:
        return [f"sweep: {len(at_roi)} grid points at the run's ROI {roi}"]
    if abs(at_roi[0] - want) > 1e-12 * max(1.0, abs(want)):
        return [f"sweep: EMP {at_roi[0]!r} at ROI {roi} != the run's emp_H {want!r}"]
    return []
