"""Feature extraction: the five scoring feature groups plus dataset assembly.

Groups: SD (sociodemographics and debit behavior), CB (calling behavior),
LB (neighbor delinquency link features), PR and SPA (exposure scores with
link features over the high/low-risk relabeling). Every group comes from a
batch builder over many subjects at once.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import CallGraph, NodeLabelSet, neighbor_sum
from .ingest import CdrBatch
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
    level = labels.delinquency_level[graph.indices]
    return np.column_stack([neighbor_sum(graph, level == c) for c in DELINQUENCY_CLASSES])


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
    n_high = neighbor_sum(graph, relabeling.high_risk[graph.indices])
    n_low = graph.degrees() - n_high
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

def _shares(bins) -> np.ndarray:
    """Each row of an (n, 7) bin array divided by its total; NaN rows where empty."""
    p = np.asarray(bins, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != N_BINS:
        raise DataError(f"expected rows of {N_BINS} bins")
    if np.any(p < 0):
        raise DataError("bin values must be non-negative")
    with np.errstate(invalid="ignore"):
        return p / p.sum(axis=1, keepdims=True)


# log(m) normalizes an entropy over m >= 2 bins; 0 or 1 bins have no base
_LOG_BASE = np.array([math.nan, math.nan] + [math.log(m) for m in range(2, N_BINS + 1)])


def diversity(bins, scope: str = "non_empty") -> np.ndarray:
    """Normalized entropy of each row's activity over the seven weekday bins.

    scope selects the normalization base: the number of non-empty bins or all
    seven. An empty row gives NaN (missing), and a row whose activity sits in
    one bin gives 0 (the 0/0 case is defined as minimal diversity).
    """
    if scope not in ("non_empty", "all"):
        raise DataError(f"unknown diversity scope {scope!r}")
    p = _shares(bins)
    positive = p > 0
    # an empty bin adds an exact 0 term to its row's sum
    entropy = -(p * np.log(np.where(positive, p, 1.0))).sum(axis=1)
    m = positive.sum(axis=1) if scope == "non_empty" else np.full(len(p), N_BINS)
    return np.where(m == 1, 0.0, entropy / _LOG_BASE[m])


def loyalty(bins) -> np.ndarray:
    """Share of each row's activity falling in its three busiest weekday bins.

    Ties between bins are broken by bin index. The normalizing sum of bin
    fractions is one up to rounding, so the result is the top-3 fraction. An
    empty row gives NaN (missing).
    """
    fractions = _shares(bins)
    order = np.argsort(-fractions, axis=1, kind="stable")
    top = np.take_along_axis(fractions, order[:, :3], axis=1).sum(axis=1)
    return top / fractions.sum(axis=1)


# ---------------------------------------------------------------------------
# Sociodemographic and spending features (SD).
# ---------------------------------------------------------------------------

SD_WINDOW_DAYS = 30  # debit spending is read over the days before the card issue date


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


def _one_hot(values: list, categories: tuple) -> np.ndarray:
    """One column per category; a row whose value is not a category is all NaN."""
    codes = np.array([categories.index(v) if v in categories else -1 for v in values], dtype=np.int64)
    out = (codes[:, None] == np.arange(len(categories))).astype(np.float64)
    out[codes < 0] = np.nan
    return out


def _run_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of `counts[i]` consecutive values, added as `run.sum()` adds.

    numpy sums a row pairwise, so runs are gathered into one 2-D array per
    run length; a flat segmented sum would round differently from 8 terms on.
    """
    out = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    for length in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == length)
        out[rows] = values[starts[rows, None] + np.arange(length)].sum(axis=1)
    return out


def _group_max(groups: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Largest value per group 0..n-1; 0 for a group without values."""
    out = np.full(n, -np.inf)
    np.maximum.at(out, groups, values)
    return np.where(np.isneginf(out), 0.0, out)


def sociodemographic_matrix(records: list) -> tuple[list, np.ndarray, np.ndarray]:
    """SD features of many bank records: (names, values (n, 35), missing (n, 35)).

    Spending is read over the SD_WINDOW_DAYS days before each card issue
    date. Missing inputs (no age, unknown marital status or region, no
    transactions for the entropy features) yield zero values flagged in the
    missing mask.
    """
    n = len(records)
    demo = [r.sociodemographics for r in records]
    age = np.array([np.nan if d.get("age") is None else float(d["age"]) for d in demo])
    marital = _one_hot([(d.get("marital_status") or "").lower() for d in demo], MARITAL_CATEGORIES)
    region = _one_hot([region_of_postcode(d.get("postcode")) for d in demo], REGIONS)

    owner = np.repeat(np.arange(n), [len(r.debit_transactions) for r in records])
    day = np.array([d.toordinal() for r in records for d, _ in r.debit_transactions], dtype=np.int64)
    amount = np.array([a for r in records for _, a in r.debit_transactions], dtype=np.float64)
    issue = np.array([r.card_issue_date.toordinal() for r in records], dtype=np.int64)
    kept = (day >= issue[owner] - SD_WINDOW_DAYS) & (day < issue[owner])
    owner, day, amount = owner[kept], day[kept], amount[kept]

    # bincount adds in input order, as a running sum per record would
    bin_key = owner * N_BINS + (day + 6) % 7   # date.weekday() from the ordinal
    count_bins = np.bincount(bin_key, minlength=n * N_BINS).reshape(n, N_BINS).astype(np.float64)
    value_bins = np.bincount(bin_key, weights=amount, minlength=n * N_BINS).reshape(n, N_BINS)
    span = day.max(initial=0) + 1
    day_keys, day_of = np.unique(owner * span + day, return_inverse=True)
    day_owner = day_keys // span
    daily = np.bincount(day_of, weights=amount, minlength=len(day_keys))

    per_record = np.bincount(owner, minlength=n)
    n_purchases = per_record.astype(np.float64)
    total = _run_sums(amount, per_record)
    spend = np.column_stack([
        total,
        total / SD_WINDOW_DAYS,
        _group_max(day_owner, daily, n),
        n_purchases,
        total / np.maximum(n_purchases, 1.0),
        _group_max(owner, amount, n),
        np.bincount(day_owner, minlength=n).astype(np.float64),
    ])
    count_fraction = count_bins / np.maximum(n_purchases, 1.0)[:, None]
    value_fraction = np.zeros((n, N_BINS))
    np.divide(value_bins, total[:, None], out=value_fraction, where=total[:, None] > 0)

    values = np.column_stack([
        age, marital, region, spend,
        diversity(count_bins, "non_empty"), diversity(count_bins, "all"),
        diversity(value_bins, "non_empty"), diversity(value_bins, "all"),
        loyalty(count_bins), loyalty(value_bins),
        count_fraction, value_fraction,
    ])
    missing = np.isnan(values)
    values[missing] = 0.0
    return sd_feature_names(), values, missing


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
    subject_ids: list,
    blocks: dict,
    y,
) -> FeatureMatrix:
    """Stack per-group blocks whose rows all follow `subject_ids` into one matrix.

    `blocks` maps a group tag to (names, values) or (names, values, missing);
    `y` holds each subject's target.
    """
    if not blocks:
        raise DataError("no feature groups to assemble")
    names_all, tags_all, values_all, masks = [], [], [], []
    for tag in GROUPS:
        if tag not in blocks:
            continue
        names, values, *missing = blocks[tag]
        values = np.asarray(values, dtype=np.float64)
        if len(values) != len(subject_ids):
            raise DataError(f"{tag} block has {len(values)} rows for {len(subject_ids)} subjects")
        names_all += list(names)
        tags_all += [tag] * len(names)
        values_all.append(values)
        masks.append(np.asarray(missing[0], dtype=bool) if missing else np.zeros(values.shape, dtype=bool))
    missing = np.concatenate(masks, axis=1)
    return FeatureMatrix(
        subject_ids=list(subject_ids),
        timeframes=[timeframe] * len(subject_ids),
        feature_names=names_all,
        group_tags=tags_all,
        values=np.where(missing, 0.0, np.concatenate(values_all, axis=1)),
        y=np.asarray(y, dtype=bool),
        missing=missing,
    )


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
