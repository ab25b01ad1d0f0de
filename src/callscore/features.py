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
from .ingest import BankTable, CdrBatch
from .parallel import fork_map
from .propagation import ExposureVector, RiskRelabeling
from .tables import csv_fields

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
    day_start_hour: int,
    day_end_hour: int,
) -> tuple[list, np.ndarray]:
    """CB features for each subject code over the whole batch, vectorized.

    Day means day_start_hour <= hour-of-day < day_end_hour.
    A subject with no calls gets an all-zero row.
    """
    weekday = batch.weekday()
    sec = batch.time_sec
    is_day = ((sec >= day_start_hour * 3600) & (sec < day_end_hour * 3600)).astype(np.int64)
    cell = _cell_index(weekday.astype(np.int64), is_day)
    dur = batch.duration.astype(np.float64)
    # tables over the distinct subjects only: a call whose code is no
    # subject's is dropped, and each bin still adds its calls in batch order
    codes, back = np.unique(np.asarray(subject_codes, dtype=np.int64), return_inverse=True)
    row_of = np.full(len(batch.ids), -1, dtype=np.int64)
    row_of[codes] = np.arange(len(codes))

    def tables(call_codes: np.ndarray) -> tuple:
        rows = row_of[call_codes]
        calls = rows >= 0
        key = rows[calls] * 14 + cell[calls]
        counts = np.bincount(key, minlength=len(codes) * 14).reshape(-1, 14)
        durations = np.bincount(key, weights=dur[calls], minlength=len(codes) * 14).reshape(-1, 14)
        return counts[back], durations[back]

    out_count, out_dur = tables(batch.from_code)
    in_count, in_dur = tables(batch.to_code)
    cells_count = np.stack([in_count, out_count, in_count + out_count], axis=1)
    cells_dur = np.stack([in_dur, out_dur, in_dur + out_dur], axis=1)
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


def diversity(bins, scope: str) -> np.ndarray:
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


def group_feature_names() -> dict:
    """Each group's feature names as its builder makes them, before pruning."""
    return {"SD": sd_feature_names(), "CB": cb_feature_names(), "LB": lb_feature_names(),
            "PR": exposure_feature_names("PR"), "SPA": exposure_feature_names("SPA")}


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


def sociodemographic_matrix(bank: BankTable) -> tuple[list, np.ndarray, np.ndarray]:
    """SD features of the card holders: (names, values (n, 35), missing (n, 35)).

    Spending is read over the SD_WINDOW_DAYS days before each card issue
    date. Missing inputs (no age, unknown marital status or region, no
    transactions for the entropy features) yield zero values flagged in the
    missing mask.
    """
    n = len(bank)
    marital = _one_hot([(m or "").lower() for m in bank.marital_status.tolist()], MARITAL_CATEGORIES)
    region = _one_hot(list(map(region_of_postcode, bank.postcode.tolist())), REGIONS)

    owner, day, issue = bank.txn_owner, bank.txn_day, bank.issue_day
    kept = (day >= issue[owner] - SD_WINDOW_DAYS) & (day < issue[owner])
    owner, day, amount = owner[kept], day[kept], bank.txn_amount[kept]

    # bincount adds in table order, as a running sum per holder would
    bin_key = owner * N_BINS + (day + 6) % 7   # date.weekday() from the ordinal
    count_bins = np.bincount(bin_key, minlength=n * N_BINS).reshape(n, N_BINS).astype(np.float64)
    value_bins = np.bincount(bin_key, weights=amount, minlength=n * N_BINS).reshape(n, N_BINS)
    span = day.max(initial=0) + 1
    day_keys, day_of = np.unique(owner * span + day, return_inverse=True)
    day_owner = day_keys // span
    daily = np.bincount(day_of, weights=amount, minlength=len(day_keys))

    per_holder = np.bincount(owner, minlength=n)
    n_purchases = per_holder.astype(np.float64)
    total = _run_sums(amount, per_holder)
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
        bank.age, marital, region, spend,
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

# rows that FeatureMatrix.to_csv turns into Python values and text in one
# task: per-cell numpy scalars are slow, and converting the whole matrix would
# add its size in Python floats to the peak memory
_CSV_BLOCK_ROWS = 256


def _csv_block(matrix: FeatureMatrix, start: int) -> str:
    """The matrix file's text of the rows from `start`, at most _CSV_BLOCK_ROWS
    of them, as the csv module writes them: the keys quoted by `csv_fields`,
    each value its repr, and a missing cell empty."""
    stop = start + _CSV_BLOCK_ROWS
    rows = zip(csv_fields(matrix.subject_ids[start:stop]), csv_fields(matrix.timeframes[start:stop]),
               matrix.values[start:stop].tolist(), matrix.y[start:stop].tolist(),
               matrix.missing[start:stop].any(axis=1).tolist())
    lines = []
    for row, (sid, frame, vals, label, has_gap) in enumerate(rows, start=start):
        cells = map(repr, vals)
        if has_gap:
            cells = ("" if gap else repr(v) for v, gap in zip(vals, matrix.missing[row].tolist()))
        lines.append(",".join([sid, frame, *cells, str(int(label))]) + "\r\n")
    return "".join(lines)


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

    def select_columns(self, cols) -> "FeatureMatrix":
        """The same rows with only the columns at indices `cols`, in that order."""
        return FeatureMatrix(
            subject_ids=list(self.subject_ids),
            timeframes=list(self.timeframes),
            feature_names=[self.feature_names[j] for j in cols],
            group_tags=[self.group_tags[j] for j in cols],
            values=self.values[:, cols],
            y=self.y.copy(),
            missing=self.missing[:, cols],
        )

    def group_columns(self, groups) -> list:
        """Indices of the columns whose group is one of `groups`, in matrix order."""
        wanted = set(groups)
        bad = wanted - set(GROUPS)
        if bad:
            raise DataError(f"unknown feature groups: {sorted(bad)}")
        return [j for j, tag in enumerate(self.group_tags) if tag in wanted]

    def select_groups(self, groups) -> "FeatureMatrix":
        return self.select_columns(self.group_columns(groups))

    def to_csv(self, path) -> None:
        """Writes the matrix file; `fork_map` formats its row blocks, which calls no BLAS."""
        header = ["subject_id", "timeframe"]
        header += [f"{name}:{tag}" for name, tag in zip(self.feature_names, self.group_tags)]
        header.append("y_default")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(csv_fields(header)) + "\r\n")
            with fork_map(_csv_block, range(0, self.n_rows, _CSV_BLOCK_ROWS), self) as blocks:
                fh.writelines(blocks)

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        path = Path(path)
        try:
            columns = _matrix_columns(path)
        except ValueError:  # the per-row reader names the line at fault
            columns = _matrix_rows(path)
        return cls(**columns)


def _matrix_header(path: Path, header: list) -> tuple[list, list]:
    """Feature names and group tags of a matrix file's header row."""
    if header[:2] != ["subject_id", "timeframe"] or header[-1:] != ["y_default"]:
        raise DataError(f"{path} is not a feature matrix file")
    names, tags = [], []
    for col in header[2:-1]:
        name, _, tag = col.rpartition(":")
        names.append(name)
        tags.append(tag)
    return names, tags


def _matrix_columns(path: Path) -> dict:
    """The fields of a matrix file read a column at a time, for `_matrix_rows`'s
    result on the files to_csv writes. Raises ValueError on any text that
    reader might read otherwise: quoted cells, a row of another length, a
    target not 0 or 1, an empty timeframe, a cell that does not convert.

    Stored values are finite, so empty cells become "nan" by text
    replacement before the parse, and every nan read is a missing cell.
    """
    head, _, body = path.read_text().partition("\n")
    if '"' in head or '"' in body:
        raise ValueError("quoted cells")
    header = head.split(",")
    names, tags = _matrix_header(path, header)
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or any(line.count(",") != len(header) - 1 for line in lines):
        raise ValueError("no rows, or rows of another length")
    ids, frames = zip(*(line.split(",", 2)[:2] for line in lines))
    targets = [line[line.rindex(",") + 1:] for line in lines]
    if "" in frames or not set(targets) <= {"0", "1"}:
        raise ValueError("an empty timeframe or a target not 0 or 1")
    del lines
    # two passes fill every run of empty cells; a nan read that no empty cell
    # explains is a stored "nan", which the per-row reader refuses
    gaps = body.count(",,")
    body = body.replace(",,", ",nan,")
    gaps += body.count(",,")
    body = body.replace(",,", ",nan,")
    # over the lines, loadtxt's peak is about a quarter of its peak over a
    # StringIO of the whole text (3.8 against 14.4 MB on a 3.5 MB matrix)
    values = np.loadtxt(body.split("\n"), dtype=np.float64, delimiter=",", comments=None,
                        usecols=range(2, len(header) - 1), ndmin=2)
    missing = np.isnan(values)
    if int(missing.sum()) != gaps:
        raise ValueError("a stored nan")
    values[missing] = 0.0
    return dict(subject_ids=list(ids), timeframes=list(frames), feature_names=names, group_tags=tags,
                values=values, y=np.array(targets) == "1", missing=missing)


def _matrix_rows(path: Path) -> dict:
    """The fields of a matrix file read a row at a time; a data error names the
    line at fault."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        names, tags = _matrix_header(path, header)
        ids, frames, rows, ys, miss = [], [], [], [], []
        for rec in reader:
            if len(rec) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                                f"got {len(rec)}")
            ids.append(rec[0])
            frames.append(rec[1])
            cells = rec[2:-1]
            try:
                rows.append([float(c) if c else 0.0 for c in cells])
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
            miss.append([c == "" for c in cells])
            if rec[-1] not in ("0", "1"):
                raise DataError(f"{path}:{reader.line_num}: y_default must be 0 or 1, not {rec[-1]!r}")
            ys.append(rec[-1] == "1")
    return dict(
        subject_ids=ids,
        timeframes=frames,
        feature_names=names,
        group_tags=tags,
        values=np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(names))),
        y=np.asarray(ys, dtype=bool),
        missing=np.asarray(miss, dtype=bool) if rows else np.zeros((0, len(names)), dtype=bool),
    )


def assemble(frames, n_rows: int) -> FeatureMatrix:
    """Write each timeframe's per-group blocks into one matrix of `n_rows` rows.

    A frame is (timeframe, subject_ids, blocks, y): `blocks` maps a group tag
    to (names, values) or (names, values, missing), each with a row per
    subject, and `y` holds each subject's target. Every frame must have the
    first frame's groups and names; columns follow GROUPS order. A generator
    of frames frees each frame's blocks before it builds the next.
    """
    ids, timeframes, ys, masks, layout = [], [], [], [], None
    for tf, subject_ids, blocks, y in frames:
        frame_layout = [(tag, list(blocks[tag][0])) for tag in GROUPS if tag in blocks]
        if layout is None:
            layout = frame_layout
            if not layout:
                raise DataError("no feature groups to assemble")
            values = np.empty((n_rows, sum(len(names) for _, names in layout)))
        elif frame_layout != layout:
            raise DataError("timeframe matrices disagree on columns")
        if len(y) != len(subject_ids):
            raise DataError(f"{len(y)} targets for {len(subject_ids)} subjects")
        if len(ids) + len(subject_ids) > n_rows:
            raise DataError(f"the frames hold more than {n_rows} rows")
        rows, left = slice(len(ids), len(ids) + len(subject_ids)), 0
        for tag, names in layout:
            block, *mask = map(np.asarray, blocks[tag][1:])
            if len(block) != len(subject_ids):
                raise DataError(f"{tag} block has {len(block)} rows for {len(subject_ids)} subjects")
            if block.shape[1:] != (len(names),) or mask and mask[0].shape != block.shape:
                raise DataError(f"{tag} block of shape {block.shape} does not match its {len(names)} names")
            cols = slice(left, left + len(names))
            values[rows, cols] = block
            masks += [(rows, cols, m) for m in mask]
            left = cols.stop
        ids += subject_ids
        timeframes += [tf] * len(subject_ids)
        ys.append(y)
        del blocks, block  # a generator builds the next frame while these are bound
    if layout is None:
        raise DataError("nothing to assemble")
    if len(ids) != n_rows:
        raise DataError(f"the frames hold {len(ids)} rows, not {n_rows}")
    # allocated last, which lowered the run's peak RSS at `network` size by 1 MB
    missing = np.zeros(values.shape, dtype=bool)
    for rows, cols, mask in masks:
        missing[rows, cols] = mask
    values[missing] = 0.0
    return FeatureMatrix(subject_ids=ids, timeframes=timeframes,
                         feature_names=[name for _, names in layout for name in names],
                         group_tags=[tag for tag, names in layout for _ in names],
                         values=values, y=np.concatenate(ys), missing=missing)


def column_correlations(values: np.ndarray, cols) -> np.ndarray:
    """`np.corrcoef(values[:, cols], rowvar=False)` as a (k, k) array, bit for bit.

    The one copy of the columns is centred in place and multiplied by its
    transpose, as `np.cov` does; `np.corrcoef` would copy that copy again.
    """
    X = values[:, cols].T  # a row per column, laid out as np.cov's copy
    X -= X.mean(axis=1)[:, None]
    c = np.dot(X, X.T)
    del X
    c *= np.true_divide(1, len(values) - 1)
    if len(c) == 1:  # corrcoef's scalar case
        return c / c
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    return np.clip(c, -1, 1, out=c)


def drop_correlated(matrix: FeatureMatrix, threshold: float) -> tuple[FeatureMatrix, list]:
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
        corr = column_correlations(values, candidates)
        for local_j, j in enumerate(candidates):
            if kept and np.any(np.abs(corr[local_j, kept]) > threshold):
                dropped.append(matrix.feature_names[j])
            else:
                kept.append(local_j)
        kept_cols = candidates[kept]
    else:
        kept_cols = candidates
    pruned = matrix.select_columns(kept_cols)
    if dropped:
        logger.info("correlation pruning dropped %d of %d features", len(dropped), matrix.n_features)
    return pruned, dropped
