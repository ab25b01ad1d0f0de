"""Feature extraction: the five scoring feature groups plus dataset assembly.

Groups: SD (sociodemographics and debit behavior), CB (calling behavior),
LB (neighbor delinquency link features), PR and SPA (exposure scores with
link features over the high/low-risk relabeling). CB, LB and the exposure
groups come from batch builders over many subjects at once; SD features come
from one bank record at a time.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import CallGraph, NodeLabelSet
from .ingest import BankRecord, CdrBatch
from .propagation import ExposureVector, RiskRelabeling

logger = logging.getLogger(__name__)

GROUPS = ("SD", "CB", "LB", "PR", "SPA")
DIRECTIONS = ("IN", "OUT", "UD")
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
TIME_SLICES = ("", "Day", "Night") + WEEKDAY_NAMES + ("Weekday", "Weekend")
MEASURES = ("Count", "Duration")
DELINQUENCY_CLASSES = (0, 1, 2, 3)
SEED_CRITERIA = (1, 2, 3)
MARITAL_CATEGORIES = ("single", "married", "divorced", "widowed")
REGIONS = ("Urban", "Suburban", "Rural")

N_BINS = 7  # weekday bins for debit-behavior diversity and loyalty


# ---------------------------------------------------------------------------
# Calling behavior (CB): counts and durations by direction and time slice.
# ---------------------------------------------------------------------------

def cb_feature_names() -> list:
    names = []
    for direction in DIRECTIONS:
        for measure in MEASURES:
            for tslice in TIME_SLICES:
                prefix = f"{tslice} " if tslice else ""
                names.append(f"{prefix}{measure} {direction}")
    return names


def _cell_index(weekday: np.ndarray, is_day: np.ndarray) -> np.ndarray:
    return weekday * 2 + is_day


# Columns of the 14 base cells (weekday x day/night) composing each slice.
def _slice_columns() -> dict:
    cols = {"": list(range(14)), "Day": [w * 2 + 1 for w in range(7)],
            "Night": [w * 2 for w in range(7)],
            "Weekday": list(range(10)), "Weekend": [10, 11, 12, 13]}
    for w, name in enumerate(WEEKDAY_NAMES):
        cols[name] = [w * 2, w * 2 + 1]
    return cols


_SLICE_COLUMNS = _slice_columns()


def _compose_cb(cells_count: np.ndarray, cells_dur: np.ndarray) -> np.ndarray:
    """Collapse (..., direction, 14) base cells into the 72 reported features."""
    out = []
    for d in range(len(DIRECTIONS)):
        for cells in (cells_count, cells_dur):
            for tslice in TIME_SLICES:
                out.append(cells[..., d, _SLICE_COLUMNS[tslice]].sum(axis=-1))
    return np.stack(out, axis=-1)


def calling_behavior_matrix(
    batch: CdrBatch,
    subject_codes: np.ndarray,
    day_start_hour: int = 8,
    day_end_hour: int = 20,
) -> tuple[list, np.ndarray]:
    """CB features for each subject code over the whole batch, vectorized.

    Day means day_start_hour <= hour-of-day < day_end_hour (default 08-20).
    A subject with no calls gets an all-zero row.
    """
    n_ids = len(batch.ids)
    weekday = batch.weekday()
    sec = batch.time_sec
    is_day = ((sec >= day_start_hour * 3600) & (sec < day_end_hour * 3600)).astype(np.int64)
    cell = _cell_index(weekday.astype(np.int64), is_day)
    dur = batch.duration.astype(np.float64)

    def tab(codes: np.ndarray, weights=None) -> np.ndarray:
        key = codes.astype(np.int64) * 14 + cell
        counts = np.bincount(key, weights=weights, minlength=n_ids * 14)
        return counts.reshape(n_ids, 14)

    out_count = tab(batch.from_code)
    out_dur = tab(batch.from_code, dur)
    in_count = tab(batch.to_code)
    in_dur = tab(batch.to_code, dur)

    subject_codes = np.asarray(subject_codes, dtype=np.int64)
    cells_count = np.stack(
        [in_count[subject_codes], out_count[subject_codes],
         in_count[subject_codes] + out_count[subject_codes]], axis=1)
    cells_dur = np.stack(
        [in_dur[subject_codes], out_dur[subject_codes],
         in_dur[subject_codes] + out_dur[subject_codes]], axis=1)
    return cb_feature_names(), _compose_cb(cells_count, cells_dur)


# ---------------------------------------------------------------------------
# Link-based features (LB) over neighbor delinquency classes.
# ---------------------------------------------------------------------------

def lb_feature_names() -> list:
    names = []
    for direction in DIRECTIONS:
        for kind in ("Binary", "Count", "Mode"):
            for cls in DELINQUENCY_CLASSES:
                names.append(f"{kind} ({cls}) {direction}")
    return names


def _neighbor_class_counts(graph: CallGraph, labels: NodeLabelSet) -> np.ndarray:
    """Per node, counts of labeled (delinquency-known) neighbors by class."""
    counts = np.zeros((graph.n_nodes, 4), dtype=np.float64)
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    lvl = labels.delinquency_level[graph.indices]
    mask = lvl >= 0
    np.add.at(counts, (rows[mask], lvl[mask].astype(np.int64)), 1.0)
    return counts


def _lb_block(counts: np.ndarray) -> np.ndarray:
    """Binary/Count/Mode one-hot features from per-class neighbor counts."""
    binary = (counts > 0).astype(np.float64)
    total = counts.sum(axis=1)
    # Most frequent class, smallest class on ties; all-zero when no labeled
    # neighbor (a distinct no-information encoding rather than class 0).
    mode_cls = np.argmax(counts, axis=1)
    onehot = np.zeros_like(counts)
    has = total > 0
    onehot[has, mode_cls[has]] = 1.0
    return np.concatenate([binary, counts, onehot], axis=1)


def link_based_matrix(
    graphs: dict,
    labels: NodeLabelSet,
    nodes: np.ndarray,
) -> tuple[list, np.ndarray]:
    """LB features for many nodes; `graphs` maps IN/OUT/UD to mode graphs."""
    nodes = np.asarray(nodes, dtype=np.int64)
    blocks = []
    for direction in DIRECTIONS:
        graph = graphs[direction]
        if graph.n_nodes != labels.n_nodes:
            raise DataError("labels are not aligned with the graph")
        counts = _neighbor_class_counts(graph, labels)[nodes]
        blocks.append(_lb_block(counts))
    return lb_feature_names(), np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# Exposure link features shared by the PR and SPA groups.
# ---------------------------------------------------------------------------

EXPOSURE_KINDS = (
    "Exposure",
    "Binary High Risk",
    "Count High Risk",
    "Binary Low Risk",
    "Count Low Risk",
    "Mode High Risk",
)


def exposure_feature_names(method: str) -> list:
    names = []
    for criterion in SEED_CRITERIA:
        for direction in DIRECTIONS:
            for kind in EXPOSURE_KINDS:
                names.append(f"{method} {kind} ({criterion}) {direction}")
    return names


def exposure_link_matrix(
    graph: CallGraph,
    exposure: ExposureVector,
    relabeling: RiskRelabeling,
    nodes: np.ndarray,
) -> np.ndarray:
    """Six exposure features per node for one (method, criterion, mode) run."""
    if exposure.n_nodes != graph.n_nodes or len(relabeling.high_risk) != graph.n_nodes:
        raise DataError("exposure vector is not aligned with the graph")
    nodes = np.asarray(nodes, dtype=np.int64)
    high = relabeling.high_risk.astype(np.float64)
    n_high = np.zeros(graph.n_nodes)
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    np.add.at(n_high, rows, high[graph.indices])
    degree = np.diff(graph.indptr).astype(np.float64)
    n_low = degree - n_high
    own = exposure.scores[nodes]
    high_count = n_high[nodes]
    low_count = n_low[nodes]
    return np.column_stack([
        own,
        (high_count > 0).astype(np.float64),
        high_count,
        (low_count > 0).astype(np.float64),
        low_count,
        (high_count > low_count).astype(np.float64),
    ])


# ---------------------------------------------------------------------------
# Debit-behavior temporal features: diversity and loyalty over weekday bins.
# ---------------------------------------------------------------------------

def diversity(bins, scope: str = "non_empty"):
    """Normalized entropy of activity over the seven weekday bins.

    scope selects the normalization base: the number of non-empty bins or all
    seven. Returns None for an empty profile (missing), and 0.0 when a single
    bin holds everything (the 0/0 case is defined as minimal diversity).
    """
    if scope not in ("non_empty", "all"):
        raise DataError(f"unknown diversity scope {scope!r}")
    p = np.asarray(bins, dtype=np.float64)
    if p.shape != (N_BINS,):
        raise DataError(f"expected {N_BINS} bins")
    if np.any(p < 0):
        raise DataError("bin values must be non-negative")
    total = p.sum()
    if total == 0:
        return None
    p = p / total
    nonzero = p[p > 0]
    m = len(nonzero) if scope == "non_empty" else N_BINS
    if m == 1:
        return 0.0
    entropy = float(-(nonzero * np.log(nonzero)).sum())
    return entropy / math.log(m)


def loyalty(bins, top_k: int = 3):
    """Share of activity falling in the `top_k` busiest weekday bins.

    Ties between bins are broken by bin index. The normalizing sum of bin
    fractions is identically one, so the result equals the top-k fraction.
    Returns None for an empty profile.
    """
    p = np.asarray(bins, dtype=np.float64)
    if p.shape != (N_BINS,):
        raise DataError(f"expected {N_BINS} bins")
    if np.any(p < 0):
        raise DataError("bin values must be non-negative")
    total = p.sum()
    if total == 0:
        return None
    fractions = p / total
    order = np.lexsort((np.arange(N_BINS), -fractions))
    top = float(fractions[order[:top_k]].sum())
    return top / float(fractions.sum())


# ---------------------------------------------------------------------------
# Sociodemographic and spending features (SD).
# ---------------------------------------------------------------------------

def sd_feature_names() -> list:
    names = ["Age"]
    names += [f"Marital {c.capitalize()}" for c in MARITAL_CATEGORIES]
    names += [f"Region {r}" for r in REGIONS]
    names += [
        "Amount Spent", "Mean Spent p. Day", "Max Spent p. Day", "N Purchases",
        "Mean Purchase Value", "Max Purchase Value", "Active Days",
    ]
    names += [
        "Diversity-NE Number", "Diversity-ALL Number",
        "Diversity-NE Value", "Diversity-ALL Value",
        "Loyalty-Number", "Loyalty-Value",
    ]
    names += [f"{w} Count Fraction" for w in WEEKDAY_NAMES]
    names += [f"{w} Value Fraction" for w in WEEKDAY_NAMES]
    return names


def region_of_postcode(postcode) -> str | None:
    """Coarse region from the leading postcode digit: 0-3 / 4-6 / 7-9."""
    if not postcode:
        return None
    digits = [c for c in str(postcode) if c.isdigit()]
    if not digits:
        return None
    lead = int(digits[0])
    return REGIONS[0] if lead <= 3 else REGIONS[1] if lead <= 6 else REGIONS[2]


def sociodemographic_features(record: BankRecord, window_days: int = 30) -> tuple[list, np.ndarray, np.ndarray]:
    """SD features from one bank record; returns (names, values, missing mask).

    Spending is computed over the `window_days` before the card issue date.
    Missing inputs (no age, unknown marital status, no transactions for the
    entropy features) yield zero values flagged in the missing mask.
    """
    names = sd_feature_names()
    values = np.zeros(len(names))
    missing = np.zeros(len(names), dtype=bool)
    pos = 0

    age = record.sociodemographics.get("age")
    if age is None:
        missing[pos] = True
    else:
        values[pos] = float(age)
    pos += 1

    marital = (record.sociodemographics.get("marital_status") or "").lower()
    if marital in MARITAL_CATEGORIES:
        values[pos + MARITAL_CATEGORIES.index(marital)] = 1.0
    else:
        missing[pos:pos + len(MARITAL_CATEGORIES)] = True
    pos += len(MARITAL_CATEGORIES)

    region = region_of_postcode(record.sociodemographics.get("postcode"))
    if region is None:
        missing[pos:pos + len(REGIONS)] = True
    else:
        values[pos + REGIONS.index(region)] = 1.0
    pos += len(REGIONS)

    start = record.card_issue_date - timedelta(days=window_days)
    txns = [(d, a) for d, a in record.debit_transactions if start <= d < record.card_issue_date]
    amounts = np.array([a for _, a in txns], dtype=np.float64)
    count_bins = np.zeros(N_BINS)
    value_bins = np.zeros(N_BINS)
    daily: dict = {}
    for (d, a) in txns:
        count_bins[d.weekday()] += 1
        value_bins[d.weekday()] += a
        daily[d] = daily.get(d, 0.0) + a
    total = float(amounts.sum()) if len(amounts) else 0.0

    spend = [
        total,
        total / window_days,
        max(daily.values()) if daily else 0.0,
        float(len(txns)),
        float(amounts.mean()) if len(amounts) else 0.0,
        float(amounts.max()) if len(amounts) else 0.0,
        float(len(daily)),
    ]
    values[pos:pos + len(spend)] = spend
    pos += len(spend)

    entropy_feats = [
        diversity(count_bins, "non_empty"), diversity(count_bins, "all"),
        diversity(value_bins, "non_empty"), diversity(value_bins, "all"),
        loyalty(count_bins), loyalty(value_bins),
    ]
    for j, feat in enumerate(entropy_feats):
        if feat is None:
            missing[pos + j] = True
        else:
            values[pos + j] = feat
    pos += len(entropy_feats)

    n_txns = count_bins.sum()
    if n_txns > 0:
        values[pos:pos + N_BINS] = count_bins / n_txns
    pos += N_BINS
    if total > 0:
        values[pos:pos + N_BINS] = value_bins / total
    pos += N_BINS
    return names, values, missing


# ---------------------------------------------------------------------------
# FeatureMatrix: assembled dataset with group tags and target.
# ---------------------------------------------------------------------------

@dataclass
class FeatureMatrix:
    """Subjects x named features with per-feature group tags and the target.

    Values are always finite; cells whose source was missing hold zero and are
    flagged in `missing`. Subjects recurring across timeframes remain separate
    rows, keyed by (subject_id, timeframe).
    """

    subject_ids: list
    timeframes: list
    feature_names: list
    group_tags: list
    values: np.ndarray
    y: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=bool)
        self.missing = np.asarray(self.missing, dtype=bool)
        n, m = self.values.shape
        if len(self.subject_ids) != n or len(self.timeframes) != n or len(self.y) != n:
            raise DataError("row metadata does not match the value matrix")
        if len(self.feature_names) != m or len(self.group_tags) != m:
            raise DataError("column metadata does not match the value matrix")
        if len(set(self.feature_names)) != m:
            raise DataError("duplicate feature names")
        bad = set(self.group_tags) - set(GROUPS)
        if bad:
            raise DataError(f"unknown group tags: {sorted(bad)}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature values must be finite")
        if self.missing.shape != self.values.shape:
            raise DataError("missing mask must match the value matrix shape")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def group_sizes(self) -> dict:
        sizes: dict = {}
        for tag in self.group_tags:
            sizes[tag] = sizes.get(tag, 0) + 1
        return sizes

    def select_groups(self, groups) -> "FeatureMatrix":
        wanted = set(groups)
        bad = wanted - set(GROUPS)
        if bad:
            raise DataError(f"unknown feature groups: {sorted(bad)}")
        cols = [j for j, tag in enumerate(self.group_tags) if tag in wanted]
        return FeatureMatrix(
            subject_ids=list(self.subject_ids),
            timeframes=list(self.timeframes),
            feature_names=[self.feature_names[j] for j in cols],
            group_tags=[self.group_tags[j] for j in cols],
            values=self.values[:, cols],
            y=self.y.copy(),
            missing=self.missing[:, cols],
        )

    def to_csv(self, path) -> None:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["subject_id", "timeframe"]
            header += [f"{name}:{tag}" for name, tag in zip(self.feature_names, self.group_tags)]
            header.append("y_default")
            writer.writerow(header)
            for i in range(self.n_rows):
                row = [self.subject_ids[i], self.timeframes[i]]
                for j in range(self.n_features):
                    row.append("" if self.missing[i, j] else repr(float(self.values[i, j])))
                row.append(int(self.y[i]))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        path = Path(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["subject_id", "timeframe"] or header[-1] != "y_default":
                raise DataError("not a feature matrix file")
            names, tags = [], []
            for col in header[2:-1]:
                name, _, tag = col.rpartition(":")
                names.append(name)
                tags.append(tag)
            ids, frames, rows, ys, miss = [], [], [], [], []
            for rec in reader:
                ids.append(rec[0])
                frames.append(rec[1])
                cells = rec[2:-1]
                rows.append([float(c) if c else 0.0 for c in cells])
                miss.append([c == "" for c in cells])
                ys.append(rec[-1] == "1")
        return cls(
            subject_ids=ids,
            timeframes=frames,
            feature_names=names,
            group_tags=tags,
            values=np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(names))),
            y=np.asarray(ys, dtype=bool),
            missing=np.asarray(miss, dtype=bool) if rows else np.zeros((0, len(names)), dtype=bool),
        )


def assemble_timeframe(
    timeframe: str,
    parts: dict,
    y_by_subject: dict,
) -> tuple[FeatureMatrix, int]:
    """Join per-group blocks into one timeframe matrix.

    `parts` maps a group tag to (subject_ids, names, values, missing-or-None).
    Subjects absent from any group or without a target are excluded and
    counted, mirroring the dataset clean-up step.
    """
    if not parts:
        raise DataError("no feature groups to assemble")
    common = None
    for tag, (ids, _names, _vals, _miss) in parts.items():
        ids_set = set(ids)
        common = ids_set if common is None else (common & ids_set)
    with_target = {s for s in common if y_by_subject.get(s) is not None}
    union = set()
    for ids, _n, _v, _m in parts.values():
        union |= set(ids)
    union |= {s for s in y_by_subject}
    excluded = len(union - with_target)
    keep = sorted(with_target)
    if excluded:
        logger.info("timeframe %s: excluded %d subjects missing a group or target", timeframe, excluded)

    names_all, tags_all, blocks, masks = [], [], [], []
    for tag in GROUPS:
        if tag not in parts:
            continue
        ids, names, vals, miss = parts[tag]
        vals = np.asarray(vals, dtype=np.float64)
        index = {s: i for i, s in enumerate(ids)}
        rows = np.array([index[s] for s in keep], dtype=np.int64)
        block = vals[rows] if len(keep) else vals[:0]
        mask = (np.asarray(miss, dtype=bool)[rows] if miss is not None
                else np.zeros_like(block, dtype=bool))
        names_all += list(names)
        tags_all += [tag] * len(names)
        blocks.append(block)
        masks.append(mask)

    values = np.concatenate(blocks, axis=1) if blocks else np.zeros((len(keep), 0))
    missing = np.concatenate(masks, axis=1) if masks else np.zeros_like(values, dtype=bool)
    y = np.array([bool(y_by_subject[s]) for s in keep], dtype=bool)
    matrix = FeatureMatrix(
        subject_ids=keep,
        timeframes=[timeframe] * len(keep),
        feature_names=names_all,
        group_tags=tags_all,
        values=np.where(missing, 0.0, values),
        y=y,
        missing=missing,
    )
    return matrix, excluded


def assemble(frames: list) -> FeatureMatrix:
    """Stack per-timeframe matrices sharing one column layout."""
    if not frames:
        raise DataError("nothing to assemble")
    first = frames[0]
    for other in frames[1:]:
        if other.feature_names != first.feature_names or other.group_tags != first.group_tags:
            raise DataError("timeframe matrices disagree on columns")
    return FeatureMatrix(
        subject_ids=sum((list(f.subject_ids) for f in frames), []),
        timeframes=sum((list(f.timeframes) for f in frames), []),
        feature_names=list(first.feature_names),
        group_tags=list(first.group_tags),
        values=np.concatenate([f.values for f in frames], axis=0),
        y=np.concatenate([f.y for f in frames]),
        missing=np.concatenate([f.missing for f in frames], axis=0),
    )


def drop_correlated(matrix: FeatureMatrix, threshold: float = 0.95) -> tuple[FeatureMatrix, list]:
    """Greedy correlation pruning in fixed column order.

    Constant columns go first (their correlation is undefined); then each
    feature is kept only if its absolute Pearson correlation with every
    previously kept feature stays at or below the threshold.
    """
    if not 0 < threshold <= 1:
        raise DataError("threshold must lie in (0, 1]")
    values = matrix.values
    stds = values.std(axis=0)
    dropped = [matrix.feature_names[j] for j in np.flatnonzero(stds == 0)]
    candidates = np.flatnonzero(stds > 0)
    kept: list = []
    if len(candidates):
        sub = values[:, candidates]
        corr = np.corrcoef(sub, rowvar=False)
        if corr.ndim == 0:
            corr = corr.reshape(1, 1)
        for local_j, j in enumerate(candidates):
            if kept and np.any(np.abs(corr[local_j, kept]) > threshold):
                dropped.append(matrix.feature_names[j])
            else:
                kept.append(local_j)
        kept_cols = candidates[kept]
    else:
        kept_cols = candidates
    pruned = FeatureMatrix(
        subject_ids=list(matrix.subject_ids),
        timeframes=list(matrix.timeframes),
        feature_names=[matrix.feature_names[j] for j in kept_cols],
        group_tags=[matrix.group_tags[j] for j in kept_cols],
        values=matrix.values[:, kept_cols],
        y=matrix.y.copy(),
        missing=matrix.missing[:, kept_cols],
    )
    if dropped:
        logger.info("correlation pruning dropped %d of %d features", len(dropped), matrix.n_features)
    return pruned, dropped
