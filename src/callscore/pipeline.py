"""End-to-end experiment pipeline: data -> graphs -> exposure -> features ->
models -> evaluation, with fingerprinted stages and one master seed.

Every stage writes its outputs into its own directory under the experiment
directory, together with a fingerprint of the config fields it reads and of
its upstream stages (`run_stages`). A resumed run reuses a stage directory
only when that fingerprint matches; regenerating any stage reproduces it
byte-identically because all randomness flows from named substreams of the
config seed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import shutil
import time
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .features import (
    FeatureMatrix,
    assemble,
    assemble_timeframe,
    calling_behavior_matrix,
    drop_correlated,
    exposure_feature_names,
    exposure_link_matrix,
    link_based_matrix,
    sd_feature_names,
    sociodemographic_features,
)
from .graph import CallGraph, NodeLabelSet, build_graph, load_graph, save_graph
from .ingest import CdrBatch, ingest_bank, ingest_cdr
from .models import (
    ForestModel,
    ScoredDataset,
    SplitSpec,
    load_model,
    predict_forest,
    predict_logistic,
    predict_tree_proba,
    save_model,
    split,
    train_forest,
    train_logistic,
    train_tree,
    undersample,
)
from .netstats import homophily_test
from .profit import (
    EmpParams,
    LoanOutcome,
    accuracy_feature_importance,
    delong_test,
    emp,
    estimate_loss_masses,
    evaluate_economics,
    profit_feature_importance,
    rank_correlations,
    roc_and_auc,
)
from .propagation import (
    ExposureVector,
    PropagationConfig,
    exposure_cutoff,
    personalized_pagerank,
    relabel_high_risk,
    spreading_activation,
    uniform_restart,
)
from .seeding import substream
from .synth import SynthConfig, generate, month_date

logger = logging.getLogger(__name__)

TIMEFRAMES = ("t1", "t2", "t3")
DIR_TO_MODE = {"IN": "incoming", "OUT": "outgoing", "UD": "undirected"}
MODEL_GROUPS = {
    "A": ("SD",),
    "B": ("CB",),
    "C": ("LB",),
    "D": ("PR",),
    "E": ("SPA",),
    "F": ("SD", "CB"),
    "G": ("CB", "LB", "PR", "SPA"),
    "H": ("SD", "CB", "LB", "PR", "SPA"),
}
CLASSIFIERS = ("logit", "tree", "forest")
# ExperimentConfig fields passed through to the synthetic generator
SYNTH_FIELDS = (
    "n_nodes", "n_subjects", "months", "mean_calls_per_node", "default_rate",
    "homophily_strength", "risky_rate", "degree_mode", "degree_exponent", "degree_cutoff",
    "existing_customer_rate", "uncarded_customer_rate", "short_call_rate",
    "planted_feature_effect", "sd_weight", "cb_weight", "contagion_weight", "latent_weight",
    "start_year", "start_month",
)
# ExperimentConfig fields naming input files; when input_cdr is set they replace the generator
INPUT_FIELDS = ("input_cdr", "input_accounts", "input_transactions", "input_card_activity")


# ---------------------------------------------------------------------------
# Experiment configuration: a flat key = value file.
# ---------------------------------------------------------------------------

def _model_list(text: str) -> list:
    ids = [m.strip().upper() for m in text.split(",") if m.strip()]
    bad = [m for m in ids if m not in MODEL_GROUPS]
    if bad:
        raise UsageError(f"unknown model ids {bad}; valid: {sorted(MODEL_GROUPS)}")
    return ids


@dataclass
class ExperimentConfig:
    out_dir: str = ""
    seed: int = 20170501
    # data source: leave the input_* paths empty to generate synthetic data
    input_cdr: str = ""
    input_accounts: str = ""
    input_transactions: str = ""
    input_card_activity: str = ""
    # synthetic generator
    n_nodes: int = 2000
    n_subjects: int = 600
    months: int = 5
    mean_calls_per_node: float = 8.0
    default_rate: float = 0.0449
    homophily_strength: float = 1.0
    risky_rate: float = 0.15
    degree_mode: str = "powerlaw"
    degree_exponent: float = 2.5
    degree_cutoff: float = 30.0
    existing_customer_rate: float = 0.15
    uncarded_customer_rate: float = 0.01
    short_call_rate: float = 0.08
    planted_feature_effect: float = 1.0
    sd_weight: float = 1.0
    cb_weight: float = 1.0
    contagion_weight: float = 1.0
    latent_weight: float = 0.75
    start_year: int = 2017
    start_month: int = 1
    # ingest
    min_duration: int = 5
    delimiter: str = ","
    # propagation
    alpha: float = 0.85
    spread_fraction: float = 0.85
    pr_tolerance: float = 1e-8
    pr_max_iterations: int = 1000
    spa_tolerance: float = 1e-6
    spa_max_iterations: int = 100
    # features
    day_start_hour: int = 8
    day_end_hour: int = 20
    corr_threshold: float = 0.95
    # models
    models: str = "A,B,C,D,E,F,G,H"
    classifiers: str = "forest"
    n_trees: int = 500
    mtry: int = 0
    min_leaf: int = 5
    cv_folds: int = 10
    train_fraction: float = 0.7
    undersample_ratio: float = 1.0
    importance_models: str = "H"
    importance_max_rows: int = 2000
    # profit measure
    roi: float = 0.05
    lgd: float = 0.8

    def model_ids(self) -> list:
        return _model_list(self.models)

    def importance_model_ids(self) -> list:
        return _model_list(self.importance_models)

    def classifier_list(self) -> list:
        kinds = [c.strip().lower() for c in self.classifiers.split(",") if c.strip()]
        bad = [c for c in kinds if c not in CLASSIFIERS]
        if bad:
            raise UsageError(f"unknown classifiers {bad}; valid: {CLASSIFIERS}")
        return kinds

    def synth_config(self) -> SynthConfig:
        return SynthConfig(**{name: getattr(self, name) for name in SYNTH_FIELDS})

    def month_date(self, month_index: int, day: int = 1) -> date:
        return month_date(self.start_year, self.start_month, month_index, day)

    def month_index(self, d: date) -> int:
        return (d.year * 12 + d.month) - (self.start_year * 12 + self.start_month) + 1

    def window(self, k: int) -> tuple[date, date]:
        return self.month_date(k), self.month_date(k + 3) - timedelta(days=1)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a key = value config file; '#' starts a comment."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = fields[key].type
        try:
            if kind == "int":
                values[key] = int(value)
            elif kind == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    config = ExperimentConfig(**values)
    if not config.out_dir:
        raise UsageError("config must set out_dir")
    return config


def dump_config(config: ExperimentConfig) -> str:
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stage plumbing.
# ---------------------------------------------------------------------------

def _save_batch(batch: CdrBatch, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "columns.npy", np.stack([
        batch.date_ord, batch.time_sec, batch.duration, batch.from_code, batch.to_code,
    ]))
    with open(directory / "ids.txt", "w") as fh:
        fh.writelines(f"{i}\n" for i in batch.ids)


def _load_batch(directory: Path) -> CdrBatch:
    cols = np.load(directory / "columns.npy")
    ids = (directory / "ids.txt").read_text().splitlines()
    return CdrBatch(cols[0], cols[1], cols[2], cols[3], cols[4], ids)


LABEL_COLUMNS = (
    "node_id", "identity", "is_subject", "is_bank_customer",
    "delinquency_level", "default_label", "credit_limit", "ead", "y_default",
)


def _save_labels(path: Path, graph: CallGraph, labels: NodeLabelSet, loans: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for node in range(graph.n_nodes):
            identity = graph.ids[node]
            loan = loans.get(identity)
            writer.writerow((
                node, identity, int(labels.is_subject[node]), int(labels.is_bank_customer[node]),
                int(labels.delinquency_level[node]), int(labels.default_label[node]),
                f"{loan.principal:.2f}" if loan else "",
                f"{loan.ead:.2f}" if loan else "",
                int(loan.is_defaulter) if loan else "",
            ))


def load_labels(path: str | Path) -> tuple[NodeLabelSet, dict]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no labels file at {path}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    required = set(LABEL_COLUMNS)
    if rows and not required <= set(rows[0]):
        raise DataError(f"{path} is not a labels file")
    labels = NodeLabelSet(
        delinquency_level=np.array([int(r["delinquency_level"]) for r in rows], dtype=np.int8),
        is_subject=np.array([r["is_subject"] == "1" for r in rows]),
        is_bank_customer=np.array([r["is_bank_customer"] == "1" for r in rows]),
        default_label=np.array([int(r["default_label"]) for r in rows], dtype=np.int8),
    )
    loans = {
        r["identity"]: LoanOutcome(
            principal=float(r["credit_limit"]),
            ead=float(r["ead"]),
            is_defaulter=r["y_default"] == "1",
        )
        for r in rows
        if r["credit_limit"]
    }
    return labels, loans


@dataclass
class PipelineContext:
    config: ExperimentConfig
    out: Path
    batch: CdrBatch | None = None
    bank: list | None = None
    graphs: dict | None = None       # (timeframe, DIR) -> CallGraph
    labels: dict | None = None       # timeframe -> NodeLabelSet
    loans: dict | None = None        # timeframe -> {identity: LoanOutcome}
    exposures: dict | None = None    # (timeframe, method, crit, DIR) -> (ExposureVector, RiskRelabeling)
    matrix: FeatureMatrix | None = None
    row_loans: list | None = None    # LoanOutcome per matrix row
    split: tuple | None = None       # (train, test, train_balanced) row indices
    scored: dict | None = None       # (model_id, classifier) -> ScoredDataset


def _data_paths(ctx: PipelineContext) -> dict:
    cfg = ctx.config
    if cfg.input_cdr:
        # a rebuilt stage replaces its whole directory, inputs included
        rebuilt = [(ctx.out / stage.directory).resolve() for stage in STAGES if stage.name != "data"]
        required = {field.removeprefix("input_"): getattr(cfg, field) for field in INPUT_FIELDS}
        for name, p in required.items():
            if not p:
                raise UsageError(f"input_{name} must be set when input_cdr is given")
            if not Path(p).exists():
                raise DataError(f"missing input file for {name}: {p}")
            if any(Path(p).resolve().is_relative_to(d) for d in rebuilt):
                raise UsageError(f"input_{name} lies inside a stage directory of {ctx.out}: {p}")
        return {k: Path(v) for k, v in required.items()}
    base = ctx.out / "data"
    return {
        "cdr": base / "cdr.csv",
        "accounts": base / "accounts.csv",
        "transactions": base / "transactions.csv",
        "card_activity": base / "card_activity.csv",
    }


def stage_data(ctx: PipelineContext, out: Path) -> None:
    cfg = ctx.config
    if not cfg.input_cdr:
        generate(cfg.synth_config(), cfg.seed).write(out)


def stage_ingest(ctx: PipelineContext, out: Path) -> None:
    paths = _data_paths(ctx)
    with open(out / "rejects.log", "w") as rejects:
        batch, stats = ingest_cdr(
            paths["cdr"], min_duration=ctx.config.min_duration,
            delimiter=ctx.config.delimiter, reject_log=rejects,
        )
    if not stats.conserved:
        raise DataError("ingest stats do not conserve rows")
    _save_batch(batch, out)
    (out / "stats.json").write_text(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True) + "\n")
    ctx.batch = batch
    ctx.bank, bank_stats = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    (out / "bank_stats.json").write_text(
        json.dumps(dataclasses.asdict(bank_stats), indent=2, sort_keys=True) + "\n"
    )


def _build_labels(
    ctx: PipelineContext, graph: CallGraph, timeframe_k: int
) -> tuple[NodeLabelSet, dict]:
    """Role and delinquency labels for one timeframe's node set.

    Delinquency counts arrears months observed up to the window end; subjects
    are card holders issued in the month right after the window, labeled by
    their twelve-month outcome. Existing customers' known outcome (three or
    more observed arrears) also feeds the default label used by the network
    statistics.
    """
    cfg = ctx.config
    window_end_month = timeframe_k + 2
    card_month = timeframe_k + 3
    n = graph.n_nodes
    delinquency = np.full(n, -1, dtype=np.int8)
    is_subject = np.zeros(n, dtype=bool)
    is_bank = np.zeros(n, dtype=bool)
    default_label = np.full(n, -1, dtype=np.int8)
    loans: dict = {}
    n_absent_subjects = 0
    for record in ctx.bank:
        if not graph.has_identity(record.customer_id):
            if cfg.month_index(record.card_issue_date) == card_month:
                n_absent_subjects += 1
            continue
        node = graph.node(record.customer_id)
        is_bank[node] = True
        issue_month = cfg.month_index(record.card_issue_date)
        if issue_month == card_month:
            is_subject[node] = True
            arrears = sum(record.monthly_arrears)
            y = arrears >= 3
            default_label[node] = int(y)
            ead = 0.0
            if y:
                third = [j for j, f in enumerate(record.monthly_arrears) if f][2]
                ead = float(record.monthly_drawn[third])
            loans[record.customer_id] = LoanOutcome(
                principal=float(record.credit_limit), ead=ead, is_defaulter=y,
            )
        elif issue_month <= window_end_month:
            observed = sum(
                1 for j, flagged in enumerate(record.monthly_arrears)
                if flagged and issue_month + j <= window_end_month
            )
            delinquency[node] = min(3, observed)
            default_label[node] = int(delinquency[node] == 3)
    if n_absent_subjects:
        logger.info("timeframe %d: dropped %d subjects with no calls in the window",
                    timeframe_k, n_absent_subjects)
    labels = NodeLabelSet(
        delinquency_level=delinquency,
        is_subject=is_subject,
        is_bank_customer=is_bank,
        default_label=default_label,
    )
    return labels, loans


def stage_network(ctx: PipelineContext, out: Path) -> None:
    ctx.graphs, ctx.labels, ctx.loans = {}, {}, {}
    for k, tf in enumerate(TIMEFRAMES, start=1):
        window = ctx.config.window(k)
        for direction, mode in DIR_TO_MODE.items():
            graph = build_graph(ctx.batch, window=window, mode=mode, timeframe_id=tf)
            save_graph(graph, out / tf / direction)
            ctx.graphs[(tf, direction)] = graph
        ud = ctx.graphs[(tf, "UD")]
        labels, loans = _build_labels(ctx, ud, k)
        _save_labels(out / f"labels_{tf}.csv", ud, labels, loans)
        ctx.labels[tf] = labels
        ctx.loans[tf] = loans
        logger.info(
            "network %s: %d nodes, %d undirected edges, %d subjects, %d delinquents",
            tf, ud.n_nodes, ud.n_edges, int(labels.is_subject.sum()),
            int((labels.delinquency_level >= 1).sum()),
        )


def stage_netstats(ctx: PipelineContext, out: Path) -> None:
    reports = {}
    for tf in TIMEFRAMES:
        graph = ctx.graphs[(tf, "UD")]
        labels = ctx.labels[tf]
        report = homophily_test(graph, labels.default_label)
        reports[tf] = json.loads(report.to_json())
        (out / f"report_{tf}.txt").write_text(report.to_text())
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")


def _propagation_runs():
    for tf in TIMEFRAMES:
        for method in ("PR", "SPA"):
            for crit in (1, 2, 3):
                for direction in ("IN", "OUT", "UD"):
                    yield tf, method, crit, direction, f"{tf}_{method}_ge{crit}_{direction}"


def stage_exposure(ctx: PipelineContext, out: Path) -> None:
    cfg = ctx.config
    pr_config = PropagationConfig(
        alpha=cfg.alpha, spread_fraction=cfg.spread_fraction,
        tolerance=cfg.pr_tolerance, max_iterations=cfg.pr_max_iterations,
    )
    spa_config = PropagationConfig(
        alpha=cfg.alpha, spread_fraction=cfg.spread_fraction,
        tolerance=cfg.spa_tolerance, max_iterations=cfg.spa_max_iterations,
    )
    ctx.exposures = {}
    cutoffs: dict = {}
    for tf, method, crit, direction, name in _propagation_runs():
        graph = ctx.graphs[(tf, direction)]
        labels = ctx.labels[tf]
        seeds = labels.delinquent_nodes(crit)
        if seeds.size == 0:
            raise DataError(f"no delinquent seeds for {name}")
        if method == "PR":
            restart = uniform_restart(graph.n_nodes, seeds)
            exposure = personalized_pagerank(graph, restart, pr_config)
        else:
            exposure = spreading_activation(graph, seeds, spa_config)
        exposure.seed_spec = f"ge{crit}"
        np.save(out / f"{name}.npy", exposure.scores)
        cutoff = exposure_cutoff(exposure, labels)
        relabeling = relabel_high_risk(exposure, cutoff)
        cutoffs[name] = {
            "cutoff": cutoff,
            "n_high_risk": relabeling.n_high_risk,
            "iterations": exposure.iterations_run,
        }
        ctx.exposures[(tf, method, crit, direction)] = (exposure, relabeling)
    (out / "cutoffs.json").write_text(json.dumps(cutoffs, indent=2, sort_keys=True) + "\n")


def stage_features(ctx: PipelineContext, out: Path) -> None:
    cfg = ctx.config
    bank_by_id = {r.customer_id: r for r in ctx.bank}
    frames = []
    total_excluded = 0
    for k, tf in enumerate(TIMEFRAMES, start=1):
        window = cfg.window(k)
        labels = ctx.labels[tf]
        ud = ctx.graphs[(tf, "UD")]
        subject_nodes = np.flatnonzero(labels.is_subject)
        subject_ids = [ud.ids[i] for i in subject_nodes]

        lo, hi = window[0].toordinal(), window[1].toordinal()
        in_window = (ctx.batch.date_ord >= lo) & (ctx.batch.date_ord <= hi)
        sub_batch = ctx.batch.select(in_window)
        code_of = {identity: c for c, identity in enumerate(ctx.batch.ids)}
        subject_codes = np.array([code_of[s] for s in subject_ids], dtype=np.int64)
        cb_names, cb_values = calling_behavior_matrix(
            sub_batch, subject_codes, cfg.day_start_hour, cfg.day_end_hour,
        )

        graphs_by_dir = {d: ctx.graphs[(tf, d)] for d in ("IN", "OUT", "UD")}
        lb_names, lb_values = link_based_matrix(graphs_by_dir, labels, subject_nodes)

        method_blocks = {}
        for method in ("PR", "SPA"):
            cols = []
            for crit in (1, 2, 3):
                for direction in ("IN", "OUT", "UD"):
                    exposure, relabeling = ctx.exposures[(tf, method, crit, direction)]
                    cols.append(exposure_link_matrix(
                        ctx.graphs[(tf, direction)], exposure, relabeling, subject_nodes,
                    ))
            method_blocks[method] = (exposure_feature_names(method), np.concatenate(cols, axis=1))

        sd_rows, sd_masks, sd_ids = [], [], []
        for identity in subject_ids:
            record = bank_by_id.get(identity)
            if record is None:
                continue
            names, values, missing = sociodemographic_features(record)
            sd_rows.append(values)
            sd_masks.append(missing)
            sd_ids.append(identity)
        sd_values = np.asarray(sd_rows) if sd_rows else np.zeros((0, len(sd_feature_names())))
        sd_miss = np.asarray(sd_masks) if sd_masks else np.zeros_like(sd_values, dtype=bool)

        y_by_subject = {}
        for identity in subject_ids:
            loan = ctx.loans[tf].get(identity)
            if loan is not None:
                y_by_subject[identity] = loan.is_defaulter
        parts = {
            "SD": (sd_ids, sd_feature_names(), sd_values, sd_miss),
            "CB": (subject_ids, cb_names, cb_values, None),
            "LB": (subject_ids, lb_names, lb_values, None),
            "PR": (subject_ids, *_with_none(method_blocks["PR"])),
            "SPA": (subject_ids, *_with_none(method_blocks["SPA"])),
        }
        frame, excluded = assemble_timeframe(tf, parts, y_by_subject)
        total_excluded += excluded
        frames.append(frame)

    full = assemble(frames)
    pruned, dropped = drop_correlated(full, cfg.corr_threshold)
    pruned.to_csv(out / "matrix.csv")
    ctx.matrix = pruned
    ctx.row_loans = [
        ctx.loans[tf][sid] for sid, tf in zip(pruned.subject_ids, pruned.timeframes)
    ]
    _save_row_loans(out / "loans.csv", pruned, ctx.row_loans)
    (out / "pruning.json").write_text(json.dumps({
        "dropped": dropped,
        "n_features_before": full.n_features,
        "n_features_after": pruned.n_features,
        "group_sizes_before": full.group_sizes(),
        "group_sizes_after": pruned.group_sizes(),
        "subjects_excluded": total_excluded,
    }, indent=2, sort_keys=True) + "\n")


def _with_none(block):
    names, values = block
    return names, values, None


def _save_row_loans(path: Path, matrix: FeatureMatrix, loans: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("subject_id", "timeframe", "principal", "ead", "is_defaulter"))
        for sid, tf, loan in zip(matrix.subject_ids, matrix.timeframes, loans):
            writer.writerow((sid, tf, f"{loan.principal:.2f}", f"{loan.ead:.2f}", int(loan.is_defaulter)))


def _load_row_loans(path: Path) -> list:
    loans = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            loans.append(LoanOutcome(
                principal=float(row["principal"]),
                ead=float(row["ead"]),
                is_defaulter=row["is_defaulter"] == "1",
            ))
    return loans


def save_scores(path: str | Path, scored: ScoredDataset, matrix: FeatureMatrix, rows) -> None:
    """Write one scored row per matrix row index in `rows`, in that order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("subject_id", "timeframe", "y", "score"))
        for row, i in enumerate(rows):
            writer.writerow((
                matrix.subject_ids[i], matrix.timeframes[i],
                int(scored.y[row]), repr(float(scored.score[row])),
            ))


def load_scores(path: str | Path) -> ScoredDataset:
    ys, ss, ids = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ys.append(row["y"] == "1")
            ss.append(float(row["score"]))
            ids.append(row["subject_id"])
    return ScoredDataset(y=np.array(ys, dtype=bool), score=np.array(ss), subject_ids=ids)


def stage_train(ctx: PipelineContext, out: Path) -> None:
    cfg = ctx.config
    matrix = ctx.matrix
    spec = SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.seed, stratified=True)
    train_idx, test_idx = split(matrix.y, spec)
    train_bal = undersample(train_idx, matrix.y, ratio=cfg.undersample_ratio, seed=cfg.seed)
    (out / "split.json").write_text(json.dumps({
        "train": train_idx.tolist(),
        "test": test_idx.tolist(),
        "train_balanced": train_bal.tolist(),
    }, sort_keys=True) + "\n")

    ctx.split = (train_idx, test_idx, train_bal)
    ctx.scored = {}
    for model_id in cfg.model_ids():
        sub = matrix.select_groups(MODEL_GROUPS[model_id])
        if sub.n_features == 0:
            logger.warning("model %s skipped: correlation pruning left none of its %s features",
                           model_id, "+".join(MODEL_GROUPS[model_id]))
            continue
        X = sub.values
        for classifier in cfg.classifier_list():
            mdir = out / f"{model_id}_{classifier}"
            mdir.mkdir()
            t0 = time.perf_counter()
            if classifier == "forest":
                model = train_forest(
                    X[train_bal], matrix.y[train_bal],
                    n_trees=cfg.n_trees, mtry=cfg.mtry or None,
                    min_leaf=cfg.min_leaf, seed=cfg.seed,
                )
                scored = predict_forest(model, X[test_idx], matrix.y[test_idx])
                np.save(mdir / "votes.npy", scored.per_tree_votes)
            elif classifier == "tree":
                model = train_tree(
                    X[train_bal], matrix.y[train_bal],
                    cv_folds=cfg.cv_folds, min_leaf=cfg.min_leaf, seed=cfg.seed,
                )
                scored = ScoredDataset(y=matrix.y[test_idx], score=predict_tree_proba(model, X[test_idx]))
            else:
                model = train_logistic(X[train_bal], matrix.y[train_bal])
                scored = ScoredDataset(y=matrix.y[test_idx], score=predict_logistic(model, X[test_idx]))
            save_model(model, mdir / "model.json")
            (mdir / "meta.json").write_text(json.dumps({
                "model_id": model_id,
                "classifier": classifier,
                "groups": list(MODEL_GROUPS[model_id]),
                "feature_names": list(sub.feature_names),
            }, sort_keys=True) + "\n")
            save_scores(mdir / "scores.csv", scored, matrix, test_idx)
            ctx.scored[(model_id, classifier)] = scored
            logger.info("trained %s/%s in %.1fs", model_id, classifier, time.perf_counter() - t0)


def stage_eval(ctx: PipelineContext, out: Path) -> None:
    cfg = ctx.config
    matrix = ctx.matrix
    trained = ctx.scored
    train_idx, test_idx, _ = ctx.split
    test_loans = [ctx.row_loans[i] for i in test_idx]
    train_loans = [ctx.row_loans[i] for i in train_idx]
    p0, p1 = estimate_loss_masses(train_loans, cfg.lgd)
    params = EmpParams(roi=cfg.roi, lgd=cfg.lgd, p0=p0, p1=p1)

    rows = []
    reports: dict = {}
    for (model_id, classifier) in sorted(trained):
        scored = trained[(model_id, classifier)]
        _, auc = roc_and_auc(scored)
        report = evaluate_economics(scored, test_loans, params)
        reports[(model_id, classifier)] = (auc, report)
        rows.append((
            model_id, classifier, "+".join(MODEL_GROUPS[model_id]),
            f"{auc:.6f}", f"{report.emp:.8f}", f"{report.emp_fraction:.8f}",
            repr(report.implied_cutoff), f"{report.model_profit:.2f}", f"{report.no_model_profit:.2f}",
        ))
    with open(out / "models.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((
            "model_id", "classifier", "groups", "auc", "emp", "emp_fraction",
            "implied_cutoff", "model_profit", "no_model_profit",
        ))
        writer.writerows(rows)
    (out / "models.json").write_text(json.dumps(
        [
            {
                "model_id": model_id, "classifier": classifier,
                "groups": MODEL_GROUPS[model_id], "auc": auc,
                "emp": report.emp, "emp_fraction": report.emp_fraction,
                "implied_cutoff": (report.implied_cutoff
                                   if np.isfinite(report.implied_cutoff) else None),
                "model_profit": report.model_profit,
                "no_model_profit": report.no_model_profit,
            }
            for (model_id, classifier), (auc, report) in sorted(reports.items())
        ],
        indent=2, sort_keys=True) + "\n")

    # pairwise DeLong on the primary classifier
    primary = "forest" if "forest" in cfg.classifier_list() else cfg.classifier_list()[0]
    ids = [m for m in cfg.model_ids() if (m, primary) in reports]
    with open(out / "delong.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("model_a", "model_b", "auc_a", "auc_b", "auc_diff", "z", "p_value"))
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                res = delong_test(trained[(a, primary)].score, trained[(b, primary)].score, matrix.y[test_idx])
                writer.writerow((
                    a, b, f"{res.auc_a:.6f}", f"{res.auc_b:.6f}",
                    f"{res.auc_diff:.6f}", f"{res.z:.4f}", f"{res.p_value:.6g}",
                ))

    corr_summary = {}
    for model_id in cfg.importance_model_ids():
        if (model_id, "forest") not in trained:
            continue
        sub = matrix.select_groups(MODEL_GROUPS[model_id])
        model = _load_forest(ctx, model_id)
        scored = trained[(model_id, "forest")]
        profit_rank = profit_feature_importance(
            model, scored, test_loans, params, sub.feature_names,
        )
        X_test = sub.values[test_idx]
        y_test = matrix.y[test_idx]
        if cfg.importance_max_rows and len(y_test) > cfg.importance_max_rows:
            keep = substream(cfg.seed, "importance-rows").choice(
                len(y_test), size=cfg.importance_max_rows, replace=False)
            keep = np.sort(keep)
            X_test, y_test = X_test[keep], y_test[keep]
        acc_rank = accuracy_feature_importance(model, X_test, y_test, sub.feature_names, seed=cfg.seed)
        _write_importance(out / f"importance_profit_{model_id}.csv", profit_rank)
        _write_importance(out / f"importance_accuracy_{model_id}.csv", acc_rank["permutation"])
        _write_importance(out / f"importance_accuracy_membership_{model_id}.csv", acc_rank["membership"])
        profit_by_name = {n: v for n, v in profit_rank}
        acc_by_name = {n: v for n, v in acc_rank["permutation"]}
        common = [n for n in sub.feature_names
                  if not np.isnan(profit_by_name[n]) and not np.isnan(acc_by_name[n])]
        if len(common) >= 2:
            corr = rank_correlations(
                [profit_by_name[n] for n in common], [acc_by_name[n] for n in common])
            corr_summary[model_id] = {
                "spearman": corr.spearman, "kendall": corr.kendall,
                "goodman_kruskal": corr.goodman_kruskal, "n_features": len(common),
            }
    (out / "rank_correlations.json").write_text(json.dumps(corr_summary, indent=2, sort_keys=True) + "\n")

    lines = ["model  classifier  auc       emp         emp_fraction  profit"]
    for (model_id, classifier), (auc, report) in sorted(reports.items()):
        lines.append(
            f"{model_id:5s}  {classifier:10s}  {auc:.6f}  {report.emp:.8f}  "
            f"{report.emp_fraction:.8f}  {report.model_profit:.2f}"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


def _load_forest(ctx: PipelineContext, model_id: str) -> ForestModel:
    model = load_model(ctx.out / "models_out" / f"{model_id}_forest" / "model.json")
    if not isinstance(model, ForestModel):
        raise DataError(f"model {model_id} is not a forest")
    return model


def _write_importance(path: Path, ranking: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("feature", "importance"))
        for name, value in ranking:
            writer.writerow((name, "nan" if np.isnan(value) else repr(float(value))))


# ---------------------------------------------------------------------------
# Stage runner: a verifying trace (Mokhov, Mitchell and Peyton Jones, "Build
# Systems a la Carte", ICFP 2018) over one directory per stage.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    name: str          # built by the module-level function stage_<name>
    directory: str     # under out_dir
    fields: tuple      # ExperimentConfig fields the stage reads
    upstream: tuple    # stages whose outputs it reads


STAGES = (
    Stage("data", "data", INPUT_FIELDS + ("seed",) + SYNTH_FIELDS, ()),
    Stage("ingest", "ingest", ("min_duration", "delimiter"), ("data",)),
    Stage("network", "network", ("start_year", "start_month"), ("ingest",)),
    Stage("netstats", "netstats", (), ("network",)),
    Stage("exposure", "exposure", ("alpha", "spread_fraction", "pr_tolerance", "pr_max_iterations",
                                   "spa_tolerance", "spa_max_iterations"), ("network",)),
    Stage("features", "features", ("start_year", "start_month", "day_start_hour", "day_end_hour",
                                   "corr_threshold"), ("ingest", "network", "exposure")),
    Stage("train", "models_out", ("seed", "models", "classifiers", "n_trees", "mtry", "min_leaf",
                                  "cv_folds", "train_fraction", "undersample_ratio"), ("features",)),
    Stage("eval", "eval", ("seed", "models", "classifiers", "importance_models",
                           "importance_max_rows", "roi", "lgd"), ("features", "train")),
)


def _fingerprint(ctx: PipelineContext, stage: Stage, upstream: list) -> str:
    """sha256 over the stage name, the fields it reads and its upstream fingerprints.

    Data read from input files is fingerprinted by their paths and bytes
    alone: the generator's fields play no part in it.
    """
    from_files = stage.name == "data" and ctx.config.input_cdr
    digest = hashlib.sha256(stage.name.encode())
    for name in INPUT_FIELDS if from_files else stage.fields:
        digest.update(f"\n{name} = {getattr(ctx.config, name)}".encode())
    for fingerprint in upstream:
        digest.update(f"\n{fingerprint}".encode())
    if from_files:
        for path in _data_paths(ctx).values():
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()


def _stored_fingerprint(directory: Path) -> str | None:
    path = directory / "fingerprint"
    return path.read_text().strip() if path.exists() else None


def _load_ingest(ctx: PipelineContext, directory: Path) -> None:
    ctx.batch = _load_batch(directory)
    paths = _data_paths(ctx)
    ctx.bank, _ = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])


def _load_network(ctx: PipelineContext, directory: Path) -> None:
    ctx.graphs, ctx.labels, ctx.loans = {}, {}, {}
    for tf in TIMEFRAMES:
        for direction in DIR_TO_MODE:
            ctx.graphs[(tf, direction)] = load_graph(directory / tf / direction)
        ctx.labels[tf], ctx.loans[tf] = load_labels(directory / f"labels_{tf}.csv")


def _load_exposure(ctx: PipelineContext, directory: Path) -> None:
    cutoffs = json.loads((directory / "cutoffs.json").read_text())
    ctx.exposures = {}
    for tf, method, crit, direction, name in _propagation_runs():
        # the residual is not persisted
        exposure = ExposureVector(
            scores=np.load(directory / f"{name}.npy"), method=method, seed_spec=f"ge{crit}",
            iterations_run=cutoffs[name]["iterations"], residual=float("nan"),
        )
        relabeling = relabel_high_risk(exposure, cutoffs[name]["cutoff"])
        ctx.exposures[(tf, method, crit, direction)] = (exposure, relabeling)


def _load_features(ctx: PipelineContext, directory: Path) -> None:
    ctx.matrix = FeatureMatrix.from_csv(directory / "matrix.csv")
    ctx.row_loans = _load_row_loans(directory / "loans.csv")


def _load_train(ctx: PipelineContext, directory: Path) -> None:
    split_rows = json.loads((directory / "split.json").read_text())
    ctx.split = tuple(np.asarray(split_rows[key], dtype=np.int64)
                      for key in ("train", "test", "train_balanced"))
    ctx.scored = {}
    for model_id in ctx.config.model_ids():
        for classifier in ctx.config.classifier_list():
            mdir = directory / f"{model_id}_{classifier}"
            if not mdir.exists():  # a model whose feature groups were pruned away
                continue
            scored = load_scores(mdir / "scores.csv")
            if (mdir / "votes.npy").exists():
                scored.per_tree_votes = np.load(mdir / "votes.npy")
            ctx.scored[(model_id, classifier)] = scored


# Fill the context from a stage directory that was reused instead of built.
_LOADERS = {
    "ingest": _load_ingest,
    "network": _load_network,
    "exposure": _load_exposure,
    "features": _load_features,
    "train": _load_train,
}


def run_stages(config: ExperimentConfig, until: str = "eval", resume: bool = False) -> None:
    """Bring every stage up to and including `until` up to date in config.out_dir.

    With `resume`, a stage whose directory holds a matching fingerprint is
    reused; otherwise it is built into `.<directory>.tmp/`, its fingerprint
    written last, and swapped into place, so an interrupted build leaves
    nothing a later resume trusts. A reused stage's outputs are loaded only
    when a stage that reads them is built. Only when every stage succeeded
    is config.resolved written and every stage directory whose fingerprint
    does not match this config removed; a failed run leaves the outputs of
    the stages it did not rebuild, and the config that made them, in place.
    An input-file run has no data directory: its files are its data.
    """
    # a bad value fails here, before any file of the run is touched
    config.model_ids()
    config.importance_model_ids()
    config.classifier_list()
    EmpParams(roi=config.roi, lgd=config.lgd)
    out = Path(config.out_dir)
    ctx = PipelineContext(config=config, out=out)
    prints: dict = {}
    for stage in STAGES:
        prints[stage.name] = _fingerprint(ctx, stage, [prints[u] for u in stage.upstream])
    names = [stage.name for stage in STAGES]
    owned = [stage for stage in STAGES if not (stage.name == "data" and config.input_cdr)]
    loaded: set = set()  # stages whose outputs ctx holds

    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    for stage in STAGES[: names.index(until) + 1]:
        target = out / stage.directory
        if stage not in owned:
            continue
        if resume and _stored_fingerprint(target) == prints[stage.name]:
            logger.info("stage %-9s reused", stage.name)
            continue
        for name in stage.upstream:
            if name not in loaded and name in _LOADERS:
                _LOADERS[name](ctx, out / STAGES[names.index(name)].directory)
            loaded.add(name)
        t0 = time.perf_counter()
        tmp = out / f".{stage.directory}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            globals()[f"stage_{stage.name}"](ctx, tmp)
            (tmp / "fingerprint").write_text(prints[stage.name] + "\n")
            shutil.rmtree(target, ignore_errors=True)
            tmp.rename(target)
        except Exception as exc:
            logger.error("stage %s failed: %s", stage.name, exc)
            raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        loaded.add(stage.name)
        logger.info("stage %-9s built in %.1fs", stage.name, time.perf_counter() - t0)

    for stage in owned:
        target = out / stage.directory
        stored = _stored_fingerprint(target)
        if stored is not None and stored != prints[stage.name]:
            logger.info("stage %-9s removed: its fingerprint does not match", stage.name)
            shutil.rmtree(target)
    (out / "config.resolved").write_text(dump_config(config))
    logger.info("stages up to %s done in %.1fs", until, time.perf_counter() - t_start)


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
