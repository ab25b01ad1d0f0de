"""Shared helpers for the test suite, and the per-row reference
implementations that the columnar ingest, graph, label and tree-growing code
must match."""

import csv
import io
import logging
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, time
from pathlib import Path

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.graph import CallGraph, NodeLabelSet, build_graph, canonical_mode
from callscore.ingest import (
    ACCOUNT_COLUMNS,
    CARD_COLUMNS,
    CARD_MONTHS,
    TRANSACTION_COLUMNS,
    BankIngestStats,
    BankTable,
    CdrBatch,
    CdrParseError,
    CdrRecord,
    IngestStats,
    _date,
    _field,
    _looks_like_header,
    _number,
    _parse_fields,
)
from callscore.models import _GAIN_TOL, ForestModel, TreeModel, _grow_tree, train_forests
from callscore.pipeline import LABEL_COLUMNS
from callscore.profit import Loans, _profit_terms, _total_profit, priors, roc_points
from callscore.seeding import substream
from callscore.synth import _calibrate_intercept

logger = logging.getLogger("callscore.ingest")


def records_batch(records) -> CdrBatch:
    """The columnar batch of `records`, identities coded in first-appearance order."""
    codes: dict = {}
    cols = [array("i") for _ in range(5)]
    for r in records:
        cols[0].append(r.start_date.toordinal())
        cols[1].append(r.start_time.hour * 3600 + r.start_time.minute * 60 + r.start_time.second)
        cols[2].append(r.duration)
        cols[3].append(codes.setdefault(r.from_id, len(codes)))
        cols[4].append(codes.setdefault(r.to_id, len(codes)))
    return CdrBatch(*cols, ids=list(codes))


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


def node_of(graph, identity) -> int:
    """The node id of `identity`; a data error when the graph has none."""
    try:
        return graph.ids.index(identity)
    except ValueError:
        raise DataError(f"unknown identity {identity!r}") from None


def neighbor_arrays(graph, node) -> tuple:
    """Neighbor ids and weights of `node` as array views, ascending by node id."""
    if not 0 <= node < graph.n_nodes:
        raise DataError(f"unknown node id {node}")
    lo, hi = graph.indptr[node], graph.indptr[node + 1]
    return graph.indices[lo:hi], graph.weights[lo:hi]


def neighbors(graph, node) -> list:
    idx, w = neighbor_arrays(graph, node)
    return [(int(i), float(x)) for i, x in zip(idx, w)]


def total_weight(graph) -> float:
    return float(graph.edges()[2].sum())


def random_graph(rng, n_nodes=30, n_calls=120, mode="undirected"):
    records = random_records(rng, n_nodes, n_calls)
    return build_graph(records_batch(records), mode=mode)


def dense_pagerank_solve(graph, restart, alpha=0.85):
    """Independent oracle: direct linear solve of the restart walk fixed point.

    Built from neighbor queries only; dangling nodes hand their mass to the
    restart vector, matching the power-iteration semantics.
    """
    n = graph.n_nodes
    push = np.zeros((n, n))
    dangling = []
    for u in range(n):
        idx, w = neighbor_arrays(graph, u)
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


def profit_from_rejections(y, reject, loans, params) -> float:
    """Total profit of the accept/reject decisions `reject`, by the outcome
    table that evaluate_economics applies."""
    reject = np.asarray(reject, dtype=bool)
    if len(reject) != len(y):
        raise DataError("loans, labels and decisions must align")
    return _total_profit(reject, _profit_terms(y, loans, params))


def model_profit(scored, loans, params, cutoff) -> float:
    """Aggregate profit of accepting everyone scoring below `cutoff`."""
    return profit_from_rejections(scored.y, scored.score >= cutoff, loans, params)


def emp_oracle(scored, params, grid_size):
    """Brute-force EMP: scan every empirical threshold on a lambda grid.

    Midpoint quadrature over the uniform part plus exact point masses;
    independent of the hull walk. Deterministic, monotone in grid size.
    """
    pi0, pi1 = priors(scored.y)
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


def train_forest(X, y, n_trees, mtry, min_leaf, seed, max_depth=None, bootstrap=True):
    """One forest on every row and column of (X, y), grown as `train_forests` grows each of its problems."""
    problem = (np.arange(len(X)), np.arange(0), np.arange(np.shape(X)[1]))
    return train_forests(X, y, [problem], n_trees, mtry, min_leaf, max_depth, seed, bootstrap)[0][0]


def grow_tree(X, y, max_depth, min_leaf):
    """One CART tree on every row of (X, y), as `train_tree` grows its refit."""
    X = np.asarray(X, dtype=np.float64)
    return _grow_tree(np.ascontiguousarray(X.T), np.asarray(y, dtype=np.float64), np.arange(len(X)),
                      max_depth, min_leaf, None, None)



def reference_best_split(X, y01, idx, feats, min_leaf):
    """The split search the grower must match: the Gini cost at every
    (position, feature) of a stable sort, invalid positions priced at inf."""
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


def reference_grow_tree(X, y, max_depth, min_leaf, mtry, rng):
    """The tree grower the columnar one must match, node for node: rows
    carried as positions in a copy of the sample, children re-gathered by
    threshold."""
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
        found = reference_best_split(X, y01, idx, feats, min_leaf)
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


def reference_sample_grower(XT, y01, sample, max_depth, min_leaf, mtry, rng):
    """`reference_grow_tree` behind the signature of `models._grow_tree`, on a copy of the sample."""
    return reference_grow_tree(XT.T[sample], y01[sample], max_depth, min_leaf, mtry, rng)


def planted_feature_dataset(n, seed, n_noise=30, effect=2.0, base_rate=0.3):
    """One informative column among standard-normal noise, plus loan outcomes.

    Returns (X, y, informative_index, loans); the label follows a logistic
    model in the informative column only. Used to validate that importance
    measures recover the planted feature.
    """
    rng = substream(seed, "planted")
    X = rng.normal(size=(n, n_noise + 1))
    j = int(rng.integers(0, n_noise + 1))
    score = effect * X[:, j]
    intercept = _calibrate_intercept(score, base_rate)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(intercept + score)))
    principals = np.round(np.exp(rng.normal(np.log(1000), 0.4, size=n)))
    fractions = rng.uniform(0.0, 1.0, size=n)
    loans = Loans(principal=principals, ead=np.where(y, np.round(principals * fractions, 2), 0.0), is_defaulter=y)
    return X, np.asarray(y, dtype=bool), j, loans


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


# ---------------------------------------------------------------------------
# Per-row references: ingest, graph building and labels as they were before
# they became columnar. The columnar code must give identical results.
# ---------------------------------------------------------------------------

@contextmanager
def text_file(source):
    """A path or a binary file, read as text mode reads it: strict UTF-8,
    and \\n, \\r and \\r\\n each ending a line. A binary file is left open."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield fh
        return
    fh = io.TextIOWrapper(source, encoding="utf-8")
    try:
        yield fh
    finally:
        fh.detach()


def reference_ingest_cdr(source, min_duration, delimiter, reject_log=None):
    """One `_parse_fields` call per row, codes assigned as rows are accepted."""
    if min_duration < 0:
        raise DataError("min_duration must be >= 0")
    codes: dict = {}
    date_cache: dict = {}
    cols = [array("i") for _ in range(5)]
    stats = IngestStats()
    with text_file(source) as lines:
        row_number = 0
        first = True
        for raw in lines:
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(delimiter)
            if first:
                first = False
                if _looks_like_header(fields):
                    continue
            row_number += 1
            try:
                ordinal, sec, dur, fid, tid = _parse_fields(fields, date_cache)
            except CdrParseError as exc:
                stats.rows_rejected += 1
                logger.warning("rejected CDR row %d: %s", row_number, exc)
                if reject_log is not None:
                    reject_log.write(f"{row_number}\t{exc}\t{line}\n")
                continue
            if dur < min_duration:
                stats.rows_filtered_short += 1
                continue
            for col, value in zip(cols, (ordinal, sec, dur, codes.setdefault(fid, len(codes)),
                                         codes.setdefault(tid, len(codes)))):
                col.append(value)
    stats.rows_read = row_number
    stats.rows_accepted = len(cols[2])
    stats.distinct_ids = len(codes)
    return CdrBatch(*cols, ids=list(codes)), stats


def _dict_reader(path, expected, what):
    with open(path, encoding="utf-8", newline="") as lines:
        rows = csv.DictReader(lines)
        if rows.fieldnames is None:
            return
        missing = [c for c in expected if c not in rows.fieldnames]
        if missing:
            raise DataError(f"{what} file is missing columns: {', '.join(missing)}")
        yield from rows


@dataclass(slots=True)
class BankRecord:
    """One card-holding bank customer with 12 months of post-issue history."""

    customer_id: str
    sociodemographics: dict
    debit_transactions: list  # (date, amount) pairs
    card_issue_date: date
    credit_limit: float
    monthly_drawn: tuple
    monthly_arrears: tuple


def records_table(records) -> BankTable:
    """The BankTable of `records`, one row per record in their order."""
    demo = [r.sociodemographics for r in records]
    txns = [(i, d.toordinal(), a) for i, r in enumerate(records) for d, a in r.debit_transactions]
    owner, day, amount = zip(*txns) if txns else ((), (), ())
    return BankTable(
        ids=np.array([r.customer_id for r in records], dtype=object),
        issue_day=np.array([r.card_issue_date.toordinal() for r in records], dtype=np.int64),
        credit_limit=np.array([r.credit_limit for r in records], dtype=np.float64),
        drawn=np.array([r.monthly_drawn for r in records], dtype=np.float64).reshape(-1, CARD_MONTHS),
        arrears=np.array([r.monthly_arrears for r in records], dtype=bool).reshape(-1, CARD_MONTHS),
        age=np.array([np.nan if d["age"] is None else d["age"] for d in demo], dtype=np.float64),
        marital_status=np.array([d["marital_status"] for d in demo], dtype=object),
        postcode=np.array([d["postcode"] for d in demo], dtype=object),
        txn_owner=np.array(owner, dtype=np.int64),
        txn_day=np.array(day, dtype=np.int64),
        txn_amount=np.array(amount, dtype=np.float64),
    )


def reference_ingest_bank(accounts, transactions, card_activity):
    """csv.DictReader rows, every field through `_field`, `_number` or `_date`."""
    stats = BankIngestStats()
    sociodemo: dict = {}
    for row in _dict_reader(accounts, ACCOUNT_COLUMNS, "accounts"):
        stats.accounts_read += 1
        cid = row["customer_id"].strip()
        if cid in sociodemo:
            raise DataError(f"duplicate customer_id {cid!r} in accounts")
        sociodemo[cid] = {
            "age": _number(row, "age", cid, "accounts") if _field(row, "age", cid, "accounts") else None,
            "marital_status": _field(row, "marital_status", cid, "accounts") or None,
            "postcode": _field(row, "postcode", cid, "accounts") or None,
        }
    debits: dict = {}
    for row in _dict_reader(transactions, TRANSACTION_COLUMNS, "transactions"):
        stats.transactions_read += 1
        cid = row["customer_id"].strip()
        if cid not in sociodemo:
            stats.orphan_transactions += 1
            logger.warning("orphan transaction for unknown customer %r", cid)
            continue
        debits.setdefault(cid, []).append(
            (_date(row, "date", cid, "transactions"), _number(row, "amount", cid, "transactions")))
    records = []
    seen: set = set()
    for row in _dict_reader(card_activity, CARD_COLUMNS, "card activity"):
        stats.cards_read += 1
        cid = row["customer_id"].strip()
        if cid in seen:
            raise DataError(f"duplicate customer_id {cid!r} in card activity")
        seen.add(cid)
        limit = _number(row, "credit_limit", cid, "card activity")
        if limit <= 0:
            raise DataError(f"customer {cid!r} has non-positive credit limit {limit}")
        drawn = tuple(_number(row, f"drawn_{m}", cid, "card activity") for m in range(1, CARD_MONTHS + 1))
        over = [d for d in drawn if d > limit * (1 + 1e-9)]
        if over:
            raise DataError(f"customer {cid!r} drawn {max(over)} exceeds credit limit {limit}")
        arrears = tuple(_field(row, f"arrears_{m}", cid, "card activity") in ("1", "true", "True")
                        for m in range(1, CARD_MONTHS + 1))
        if cid not in sociodemo:
            stats.cards_without_account += 1
        records.append(BankRecord(
            customer_id=cid,
            sociodemographics=sociodemo.get(cid, {"age": None, "marital_status": None, "postcode": None}),
            debit_transactions=sorted(debits.get(cid, [])),
            card_issue_date=_date(row, "issue_date", cid, "card activity"),
            credit_limit=limit,
            monthly_drawn=drawn,
            monthly_arrears=arrears,
        ))
    stats.customers_without_card = sum(1 for cid in sociodemo if cid not in seen)
    records.sort(key=lambda r: r.customer_id)
    return records, stats


def reference_edges(batch, window, mode, weight_by):
    """One filter, remap and per-pair aggregation per mode: the node
    identities, the edge list (src, dst, weight) sorted by (src, dst) with
    src < dst when undirected, and the count of calls outside the window."""
    mode = canonical_mode(mode)
    u, v, dur = batch.from_code, batch.to_code, batch.duration
    n_out = 0
    if window is not None and len(u):
        lo, hi = (d.toordinal() for d in window)
        keep = (batch.date_ord >= lo) & (batch.date_ord <= hi)
        n_out = int(len(keep) - keep.sum())
        u, v, dur = u[keep], v[keep], dur[keep]
    used = np.unique(np.concatenate([u, v])) if len(u) else np.array([], dtype=np.int64)
    id_strings = [batch.ids[c] for c in used]
    order = np.argsort(np.asarray(id_strings, dtype=object), kind="stable")
    ids = [id_strings[i] for i in order]
    remap = np.empty(len(batch.ids) if len(batch.ids) else 1, dtype=np.int64)
    remap[used[order]] = np.arange(len(used))
    if len(u):
        u, v = remap[u], remap[v]
    n = len(ids)
    if mode == "incoming":
        u, v = v, u
    if mode == "undirected":
        u, v = np.minimum(u, v), np.maximum(u, v)
    if len(u):
        uniq, inverse = np.unique(u.astype(np.int64) * n + v.astype(np.int64), return_inverse=True)
        if weight_by == "count":
            w = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
        else:
            w = np.bincount(inverse, weights=dur.astype(np.float64), minlength=len(uniq))
        edge_src, edge_dst = (uniq // n).astype(np.int32), (uniq % n).astype(np.int32)
    else:
        edge_src = edge_dst = np.array([], dtype=np.int32)
        w = np.array([], dtype=np.float64)
    return ids, (edge_src, edge_dst, w), n_out


def reference_build_graph(batch, window, mode, weight_by, timeframe_id):
    """The graph of `reference_edges`, with a lexsorted CSR index."""
    mode = canonical_mode(mode)
    ids, (edge_src, edge_dst, w), n_out = reference_edges(batch, window, mode, weight_by)
    n = len(ids)
    if mode == "undirected" and len(edge_src):
        rows = np.concatenate([edge_src, edge_dst])
        cols = np.concatenate([edge_dst, edge_src])
        vals = np.concatenate([w, w])
    else:
        rows, cols, vals = edge_src, edge_dst, w
    lex = np.lexsort((cols, rows))
    rows, cols, vals = rows[lex], cols[lex], vals[lex]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if len(rows):
        np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CallGraph(mode=mode, ids=ids, indptr=indptr, indices=cols.astype(np.int32), weights=vals,
                     timeframe_id=timeframe_id, window=window, n_out_of_window=n_out)


@dataclass(frozen=True)
class LoanRecord:
    """One subject's loan as the per-record label reference builds it."""

    principal: float
    ead: float
    is_defaulter: bool


def reference_labels(cfg, bank, graph, timeframe_k):
    """Labels, and {identity: LoanRecord} of the subjects, by one identity lookup per bank record."""
    window_end_month, card_month = timeframe_k + 2, timeframe_k + 3
    node_of = {identity: i for i, identity in enumerate(graph.ids)}
    n = graph.n_nodes
    delinquency = np.full(n, -1, dtype=np.int8)
    is_subject = np.zeros(n, dtype=bool)
    is_bank = np.zeros(n, dtype=bool)
    default_label = np.full(n, -1, dtype=np.int8)
    loans = {}
    for record in bank:
        if record.customer_id not in node_of:
            continue
        node = node_of[record.customer_id]
        is_bank[node] = True
        issue_month = cfg.month_index(record.card_issue_date)
        if issue_month == card_month:
            is_subject[node] = True
            y = sum(record.monthly_arrears) >= 3
            default_label[node] = int(y)
            ead = float(record.monthly_drawn[[j for j, f in enumerate(record.monthly_arrears) if f][2]]) if y else 0.0
            loans[record.customer_id] = LoanRecord(principal=float(record.credit_limit), ead=ead, is_defaulter=y)
        elif issue_month <= window_end_month:
            observed = sum(1 for j, flagged in enumerate(record.monthly_arrears)
                           if flagged and issue_month + j <= window_end_month)
            delinquency[node] = min(3, observed)
            default_label[node] = int(delinquency[node] == 3)
    return NodeLabelSet(delinquency_level=delinquency, is_subject=is_subject,
                        is_bank_customer=is_bank, default_label=default_label), loans


def reference_save_labels(path, graph, labels, loans):
    """One csv row per node, its loan looked up by identity."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for node in range(graph.n_nodes):
            identity = graph.ids[node]
            loan = loans.get(identity)
            writer.writerow((
                node, identity, int(labels.is_subject[node]), int(labels.is_bank_customer[node]),
                int(labels.delinquency_level[node]), int(labels.default_label[node]),
                repr(float(loan.principal)) if loan else "",
                repr(float(loan.ead)) if loan else "",
                int(loan.is_defaulter) if loan else "",
            ))
