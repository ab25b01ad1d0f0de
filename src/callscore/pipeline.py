"""End-to-end experiment pipeline: data -> graphs -> exposure -> features ->
models -> evaluation, one master seed.

Holds each stage's body, `stage_<name>`, and the reader of its outputs,
`load_<name>`, which `runner.run_stages` calls by name when a stage has to
be built.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from datetime import date
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .features import (
    FeatureMatrix,
    assemble,
    calling_behavior_matrix,
    drop_correlated,
    exposure_feature_names,
    exposure_link_matrix,
    group_feature_names,
    link_based_matrix,
    sociodemographic_matrix,
)
from .graph import CallGraph, NodeLabelSet, build_graphs, identity_order, load_graph, save_graph
from .ingest import CARD_MONTHS, BankTable, CdrBatch, IngestStats, ingest_bank, ingest_cdr
from .models import (
    load_model,
    load_scores,
    save_model,
    save_scores,
    score_model,
    split,
    train_forests,
    train_logistic,
    train_tree,
    undersample,
)
from .netstats import homophily_test
from .parallel import fork_map
from .profit import (
    EmpParams,
    Loans,
    accuracy_feature_importance,
    delong_test,
    estimate_loss_masses,
    evaluate_economics,
    profit_feature_importance,
    rank_correlations,
    roc_and_auc,
)
from .propagation import (
    METHOD_PAGERANK,
    ExposureVector,
    RiskRelabeling,
    exposure_cutoff,
    personalized_pagerank,
    relabel_high_risk,
    spreading_activation,
    uniform_restart,
)
from .runner import MODEL_GROUPS, ExperimentConfig, _trim_heap, load_data
from .seeding import substream
from .synth import generate
from .tables import parse_column, read_columns, write_csv

logger = logging.getLogger(__name__)

TIMEFRAMES = ("t1", "t2", "t3")
DIR_TO_MODE = {"IN": "incoming", "OUT": "outgoing", "UD": "undirected"}


# ---------------------------------------------------------------------------
# Stage plumbing.
# ---------------------------------------------------------------------------

def _save_batch(batch: CdrBatch, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "columns.npy", np.stack([
        batch.date_ord, batch.time_sec, batch.duration, batch.from_code, batch.to_code,
    ]))
    (directory / "ids.txt").write_text("\n".join([*batch.ids, ""]))


LABEL_COLUMNS = (
    "node_id", "identity", "is_subject", "is_bank_customer",
    "delinquency_level", "default_label", "credit_limit", "ead", "y_default",
)
LOAN_COLUMNS = ("subject_id", "timeframe", "principal", "ead", "is_defaulter")


def _save_labels(path: Path, graph: CallGraph, labels: NodeLabelSet, loans: Loans) -> None:
    """One row per node; the loan columns are set on the subjects' rows, in node order."""
    # a loan text's index: 1 onwards on the subjects' rows, 0 (an empty field) elsewhere
    loan = np.cumsum(labels.is_subject) * labels.is_subject
    write_csv(path, LABEL_COLUMNS, [
        np.arange(graph.n_nodes), graph.ids, labels.is_subject, labels.is_bank_customer,
        labels.delinquency_level, labels.default_label,
        (["", *map(repr, loans.principal.tolist())], loan), (["", *map(repr, loans.ead.tolist())], loan),
        (["", *map(str, loans.is_defaulter.astype(int).tolist())], loan),
    ])


def load_labels(path: str | Path) -> tuple[NodeLabelSet, Loans]:
    """The labels of a labels_t*.csv file and its subjects' loans, in node order."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no labels file at {path}")
    columns, lines = read_columns(path, LABEL_COLUMNS, "labels")
    labels = NodeLabelSet(
        delinquency_level=parse_column(path, "delinquency_level", columns["delinquency_level"], lines, np.int8),
        is_subject=columns["is_subject"] == "1",
        is_bank_customer=columns["is_bank_customer"] == "1",
        default_label=parse_column(path, "default_label", columns["default_label"], lines, np.int8),
    )
    subjects = labels.is_subject
    lines = lines[subjects]
    loans = Loans(
        principal=parse_column(path, "credit_limit", columns["credit_limit"][subjects], lines, np.float64),
        ead=parse_column(path, "ead", columns["ead"][subjects], lines, np.float64),
        is_defaulter=columns["y_default"][subjects] == "1",
    )
    disagree = np.flatnonzero(loans.is_defaulter != (labels.default_label[subjects] == 1))
    if disagree.size:
        raise DataError(f"{path}:{lines[disagree[0]]}: y_default disagrees with default_label")
    return labels, loans


def stage_data(cfg: ExperimentConfig, out: Path) -> None:
    if not cfg.input_cdr:
        generate(cfg, cfg.seed).write(out)


def ingest_calls(cdr: str | Path, out: Path, cfg: ExperimentConfig) -> tuple[CdrBatch, IngestStats]:
    """Parse the CDR log `cdr` under cfg's ingest keys, writing rejects.log
    and stats.json into `out`; refuses stats that do not account for every row."""
    # the source opens first, so a missing file leaves no reject log behind,
    # and a log that turns out not to be UTF-8 leaves none either
    with open(cdr, "rb") as lines, open(out / "rejects.log", "w") as rejects:
        try:
            batch, stats = ingest_cdr(lines, min_duration=cfg.min_duration,
                                      delimiter=cfg.delimiter, reject_log=rejects)
        except DataError:
            rejects.close()
            (out / "rejects.log").unlink()
            raise
    if not stats.conserved:
        raise DataError("ingest stats do not conserve rows")
    (out / "stats.json").write_text(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True) + "\n")
    return batch, stats


def _read_bank(paths: dict, _) -> tuple:
    return ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])


def stage_ingest(cfg: ExperimentConfig, out: Path, data: list) -> tuple[CdrBatch, BankTable]:
    # a worker reads the bank files while this process parses the CDR log;
    # the batch, the larger product, is never pickled
    paths = data.pop()
    with fork_map(_read_bank, [None], paths, beside=1) as banks:
        batch, _ = ingest_calls(paths["cdr"], out, cfg)
        _save_batch(batch, out)
        bank, bank_stats = next(banks)
    (out / "bank_stats.json").write_text(
        json.dumps(dataclasses.asdict(bank_stats), indent=2, sort_keys=True) + "\n"
    )
    return batch, bank


def load_ingest(cfg: ExperimentConfig, directory: Path) -> tuple[CdrBatch, BankTable]:
    cols = np.load(directory / "columns.npy")
    batch = CdrBatch(*cols, (directory / "ids.txt").read_text().splitlines())
    paths = load_data(cfg, directory.parent / "data")
    bank, _ = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    return batch, bank


def _build_labels(
    cfg: ExperimentConfig, bank: BankTable, graph: CallGraph, timeframe_k: int,
) -> tuple[NodeLabelSet, Loans]:
    """Role and delinquency labels for one timeframe's node set, and the subjects' loans in node order.

    Delinquency counts arrears months observed up to the window end; subjects
    are card holders issued in the month right after the window, labeled by
    their twelve-month outcome. Existing customers' known outcome (three or
    more observed arrears) also feeds the default label used by the network
    statistics. Card holders are found among the nodes by a search of the
    graph's sorted identities.
    """
    ids, arrears, drawn = bank.ids, bank.arrears, bank.drawn
    days, day_of = np.unique(bank.issue_day, return_inverse=True)
    issue_month = np.array([cfg.month_index(date.fromordinal(d)) for d in days.tolist()], np.int64)[day_of]
    window_end_month = timeframe_k + 2
    card_month = timeframe_k + 3
    n = graph.n_nodes
    graph_ids = np.asarray(graph.ids, dtype=object)
    node = np.searchsorted(graph_ids, ids)
    found = node < n
    found[found] = graph_ids[node[found]] == ids[found]
    issued_next = issue_month == card_month
    subject = found & issued_next
    n_absent_subjects = int((issued_next & ~found).sum())
    observed = (arrears & (issue_month[:, None] + np.arange(CARD_MONTHS) <= window_end_month)).sum(axis=1)
    existing = found & ~subject & (issue_month <= window_end_month)
    y = arrears.sum(axis=1) >= 3
    # the month of the third arrears, where the running count first reaches three
    ead = np.where(y, drawn[np.arange(len(ids)), np.argmax(np.cumsum(arrears, axis=1) >= 3, axis=1)], 0.0)

    delinquency = np.full(n, -1, dtype=np.int8)
    is_subject = np.zeros(n, dtype=bool)
    is_bank = np.zeros(n, dtype=bool)
    default_label = np.full(n, -1, dtype=np.int8)
    is_bank[node[found]] = True
    is_subject[node[subject]] = True
    default_label[node[subject]] = y[subject]
    delinquency[node[existing]] = np.minimum(3, observed[existing])
    default_label[node[existing]] = observed[existing] >= 3
    # the bank's rows and the graph's nodes both ascend by identity, so the
    # subjects' rows are in node order
    loans = Loans(principal=bank.credit_limit[subject], ead=ead[subject], is_defaulter=y[subject])
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


def stage_network(cfg: ExperimentConfig, out: Path, ingested: list) -> tuple[dict, dict, dict, np.ndarray]:
    """Graphs by (timeframe, DIR), labels and the subjects' Loans by timeframe,
    and the batch's `identity_order`, which the features stage reuses."""
    batch, bank = ingested.pop()
    order = identity_order(batch.ids)
    graphs, labels_by_tf, loans_by_tf = {}, {}, {}
    for k, tf in enumerate(TIMEFRAMES, start=1):
        by_mode = build_graphs(batch, cfg.window(k), "count", tf, order)
        for direction, mode in DIR_TO_MODE.items():
            save_graph(by_mode[mode], out / tf / direction)
            graphs[(tf, direction)] = by_mode[mode]
        ud = graphs[(tf, "UD")]
        labels, loans = _build_labels(cfg, bank, ud, k)
        _save_labels(out / f"labels_{tf}.csv", ud, labels, loans)
        labels_by_tf[tf] = labels
        loans_by_tf[tf] = loans
        logger.info(
            "network %s: %d nodes, %d undirected edges, %d subjects, %d delinquents",
            tf, ud.n_nodes, ud.n_edges, int(labels.is_subject.sum()),
            int((labels.delinquency_level >= 1).sum()),
        )
    return graphs, labels_by_tf, loans_by_tf, order


def load_network(cfg: ExperimentConfig, directory: Path) -> tuple[dict, dict, dict, np.ndarray]:
    graphs, labels, loans = {}, {}, {}
    for tf in TIMEFRAMES:
        for direction in DIR_TO_MODE:
            graphs[(tf, direction)] = load_graph(directory / tf / direction)
        labels[tf], loans[tf] = load_labels(directory / f"labels_{tf}.csv")
    # the order of the ingest stage's identities, which stage_network sorted
    order = identity_order((directory.parent / "ingest" / "ids.txt").read_text().splitlines())
    return graphs, labels, loans, order


def stage_netstats(cfg: ExperimentConfig, out: Path, network: list) -> None:
    graphs, labels = network.pop()[:2]
    reports = {}
    for tf in TIMEFRAMES:
        report = homophily_test(graphs[(tf, "UD")], labels[tf].default_label)
        reports[tf] = json.loads(report.to_json())
        (out / f"report_{tf}.txt").write_text(report.to_text())
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")


def _propagation_runs():
    for tf in TIMEFRAMES:
        for method in ("PR", "SPA"):
            for crit in (1, 2, 3):
                for direction in ("IN", "OUT", "UD"):
                    yield tf, method, crit, direction, f"{tf}_{method}_ge{crit}_{direction}"


def propagate_exposure(
    graph: CallGraph, labels: NodeLabelSet, method: str, criterion: int, cfg: ExperimentConfig,
) -> tuple[ExposureVector, RiskRelabeling]:
    """Exposure from the nodes with at least `criterion` arrears, by the walk
    ("PR", keys alpha and pr_*) or by spreading ("SPA", keys spread_fraction
    and spa_*), and the high-risk split at its cutoff."""
    if labels.n_nodes != graph.n_nodes:
        raise DataError("labels do not match the graph")
    seeds = labels.delinquent_nodes(criterion)
    if seeds.size == 0:
        raise DataError(f"no delinquent seeds with {criterion} or more arrears")
    if method == METHOD_PAGERANK:
        exposure = personalized_pagerank(graph, uniform_restart(graph.n_nodes, seeds), cfg.alpha,
                                         cfg.pr_tolerance, cfg.pr_max_iterations)
    else:
        exposure = spreading_activation(graph, seeds, cfg.spread_fraction,
                                        cfg.spa_tolerance, cfg.spa_max_iterations)
    return exposure, relabel_high_risk(exposure, exposure_cutoff(exposure, labels))


def _graph_exposures(shared: tuple, key: tuple) -> dict:
    """Runs the six propagations on graph `key`, saving each one's scores into
    the stage directory; returns each run's cutoffs.json entry by name."""
    cfg, out, graphs, labels = shared
    # the operator that a graph's six runs share is kept on the graph;
    # kept on a copy, it is freed after them
    graph = dataclasses.replace(graphs[key])
    cutoffs = {}
    for tf, method, crit, direction, name in _propagation_runs():
        if (tf, direction) != key:
            continue
        exposure, relabeling = propagate_exposure(graph, labels[tf], method, crit, cfg)
        np.save(out / f"{name}.npy", exposure.scores)
        cutoffs[name] = {
            "cutoff": relabeling.cutoff,
            "n_high_risk": relabeling.n_high_risk,
            "iterations": exposure.iterations_run,
        }
    return cutoffs


def stage_exposure(cfg: ExperimentConfig, out: Path, network: list) -> None:
    """Saves each propagation run's scores and cutoffs.json into `out`.

    One `fork_map` task per graph. Each worker imports `scipy.sparse` on its
    first graph, so with more than one CPU this process never loads scipy.
    The stage has no product: the features stage reads the files back
    through `load_exposure` once the runner has moved them into place, as a
    resumed run does, and a timeframe's scores only when it builds that
    timeframe. Scores pickled back from the workers would leave this
    process's heap tens of MB larger for the rest of the run.
    """
    graphs, labels = network.pop()[:2]
    cutoffs: dict = {}
    # propagation calls no BLAS
    with fork_map(_graph_exposures, list(graphs), (cfg, out, graphs, labels)) as per_graph:
        for graph_cutoffs in per_graph:
            cutoffs.update(graph_cutoffs)
    (out / "cutoffs.json").write_text(json.dumps(cutoffs, indent=2, sort_keys=True) + "\n")


def load_exposure(cfg: ExperimentConfig, directory: Path) -> tuple[dict, Path]:
    """The cutoffs.json entries by run name, and the directory holding each run's scores."""
    return json.loads((directory / "cutoffs.json").read_text()), directory


def _timeframe_exposures(exposure: tuple, tf: str) -> dict:
    """(ExposureVector, RiskRelabeling) by (method, criterion, DIR) of
    timeframe `tf`, read from the exposure stage's files."""
    cutoffs, directory = exposure
    exposures = {}
    for t, method, crit, direction, name in _propagation_runs():
        if t != tf:
            continue
        # the residual is not persisted
        vector = ExposureVector(
            scores=np.load(directory / f"{name}.npy"), method=method,
            iterations_run=cutoffs[name]["iterations"], residual=float("nan"),
        )
        exposures[(method, crit, direction)] = (vector, relabel_high_risk(vector, cutoffs[name]["cutoff"]))
    return exposures


def _timeframe_blocks(cfg: ExperimentConfig, ingested: list, network: list, exposures: list) -> Iterator[tuple]:
    """Per timeframe, the frame that `assemble` writes, built when `assemble` asks for it.

    Empties the three one-item lists and frees its inputs as it goes: each
    timeframe's graphs, labels and exposures once its blocks are built, and
    the batch, the bank and the SD arrays after the last timeframe's. A
    timeframe's exposures are read from their files when it is built.
    """
    batch, bank = ingested.pop()
    graphs, labels_by_tf, _, order = network.pop()
    exposure_files = exposures.pop()
    # every subject is a card holder, so its SD row is found among the
    # table's rows, which ingest_bank sorts by customer id
    sd_names, sd_values, sd_missing = sociodemographic_matrix(bank)
    # a subject's identity code, found among the ids in sorted order
    sorted_ids = np.asarray(batch.ids, dtype=object)[order]
    for k, tf in enumerate(TIMEFRAMES, start=1):
        window = cfg.window(k)
        labels = labels_by_tf.pop(tf)
        by_dir = {d: graphs.pop((tf, d)) for d in ("IN", "OUT", "UD")}
        exposures = _timeframe_exposures(exposure_files, tf)
        subject_nodes = np.flatnonzero(labels.is_subject)
        subject_ids = [by_dir["UD"].ids[i] for i in subject_nodes]

        lo, hi = window[0].toordinal(), window[1].toordinal()
        in_window = (batch.date_ord >= lo) & (batch.date_ord <= hi)
        subject_codes = order[np.searchsorted(sorted_ids, subject_ids)]
        sd_rows = np.searchsorted(bank.ids, subject_ids)
        blocks = {
            "SD": (sd_names, sd_values[sd_rows], sd_missing[sd_rows]),
            "CB": calling_behavior_matrix(batch.select(in_window), subject_codes,
                                          cfg.day_start_hour, cfg.day_end_hour),
            "LB": link_based_matrix(by_dir, labels, subject_nodes),
        }
        for method in ("PR", "SPA"):
            cols = []
            for crit in (1, 2, 3):
                for direction in ("IN", "OUT", "UD"):
                    exposure, relabeling = exposures.pop((method, crit, direction))
                    cols.append(exposure_link_matrix(
                        by_dir[direction], exposure, relabeling, subject_nodes,
                    ))
            blocks[method] = (exposure_feature_names(method), np.concatenate(cols, axis=1))
        # a subject's default label is its loan outcome
        y = labels.default_label[subject_nodes] == 1
        del labels, by_dir, exposures, exposure, relabeling, cols, in_window
        if k == len(TIMEFRAMES):
            del batch, bank, sd_values, sd_missing, sorted_ids, order
        yield tf, subject_ids, blocks, y
        del blocks  # freed before the next timeframe's builders run


def stage_features(
    cfg: ExperimentConfig, out: Path, ingested: list, network: list, exposures: list,
) -> tuple[FeatureMatrix, Loans]:
    """The pruned matrix and the loan of each of its rows; empties the three
    one-item lists, as `_timeframe_blocks` frees their products part by part."""
    # the matrix's rows are each timeframe's subjects in node order, as are its loans
    row_loans = Loans.concatenate([network[0][2][tf] for tf in TIMEFRAMES])
    full = assemble(_timeframe_blocks(cfg, ingested, network, exposures), len(row_loans))
    # the inputs are freed by now; their pages go back before pruning copies the matrix
    _trim_heap()
    pruned, dropped = drop_correlated(full, cfg.corr_threshold)
    pruning = {
        "dropped": dropped,
        "n_features_before": full.n_features,
        "n_features_after": pruned.n_features,
        "group_sizes_before": full.group_sizes(),
        "group_sizes_after": pruned.group_sizes(),
    }
    # to_csv's workers inherit this process's memory, so the full matrix goes first
    del full
    pruned.to_csv(out / "matrix.csv")
    _save_row_loans(out / "loans.csv", pruned, row_loans)
    (out / "pruning.json").write_text(json.dumps(pruning, indent=2, sort_keys=True) + "\n")
    return pruned, row_loans


def _save_row_loans(path: Path, matrix: FeatureMatrix, loans: Loans) -> None:
    write_csv(path, LOAN_COLUMNS, [
        matrix.subject_ids, matrix.timeframes, list(map(repr, loans.principal.tolist())),
        list(map(repr, loans.ead.tolist())), loans.is_defaulter,
    ])


def load_features(cfg: ExperimentConfig, directory: Path) -> tuple[FeatureMatrix, Loans]:
    matrix = FeatureMatrix.from_csv(directory / "matrix.csv")
    path = directory / "loans.csv"
    columns, lines = read_columns(path, LOAN_COLUMNS, "loans")
    loans = Loans(
        principal=parse_column(path, "principal", columns["principal"], lines, np.float64),
        ead=parse_column(path, "ead", columns["ead"], lines, np.float64),
        is_defaulter=columns["is_defaulter"] == "1",
    )
    return matrix, loans


def refuse_mtry_above_features(cfg: ExperimentConfig) -> None:
    """Refuses an `mtry` above the feature count, before pruning, of a forest
    the config trains; pruning may still leave fewer, which `stage_train` refuses."""
    sizes = {tag: len(names) for tag, names in group_feature_names().items()}
    count, model_id = min((sum(sizes[tag] for tag in MODEL_GROUPS[m]), m) for m in cfg.model_ids())
    if cfg.mtry > count and "forest" in cfg.classifier_list():
        raise DataError(f"mtry {cfg.mtry} exceeds the {count} features of model {model_id} before pruning")


def stage_train(cfg: ExperimentConfig, out: Path, featured: list) -> tuple[tuple, dict]:
    """(train, test, train_balanced) row indices, and test-set scores by (model_id, classifier)."""
    matrix, _ = featured.pop()
    train_idx, test_idx = split(matrix.y, cfg.train_fraction, cfg.seed)
    train_bal = undersample(train_idx, matrix.y, cfg.undersample_ratio, cfg.seed)
    (out / "split.json").write_text(json.dumps({
        "train": train_idx.tolist(),
        "test": test_idx.tolist(),
        "train_balanced": train_bal.tolist(),
    }, sort_keys=True) + "\n")

    # each model reads its columns in place: only its train and test rows are
    # copied, and a forest's only in the pool workers that grow its trees
    trained, columns = {}, {}
    for model_id in cfg.model_ids():
        cols = matrix.group_columns(MODEL_GROUPS[model_id])
        if not cols:
            logger.warning("model %s skipped: correlation pruning left none of its %s features",
                           model_id, "+".join(MODEL_GROUPS[model_id]))
            continue
        columns[model_id] = cols
    values, y = matrix.values, matrix.y
    forests = {}
    if "forest" in cfg.classifier_list():
        t0 = time.perf_counter()
        forests = dict(zip(columns, train_forests(
            values, y, [(train_bal, test_idx, cols) for cols in columns.values()],
            cfg.n_trees, cfg.mtry or None, cfg.min_leaf, max_depth=None, seed=cfg.seed, bootstrap=True,
        )))
        logger.info("trained %d forests in %.1fs", len(forests), time.perf_counter() - t0)
    for model_id, cols in columns.items():
        for classifier in cfg.classifier_list():
            mdir = out / f"{model_id}_{classifier}"
            mdir.mkdir()
            t0 = time.perf_counter()
            if classifier == "forest":
                model, scored = forests[model_id]
            else:
                if classifier == "tree":
                    model = train_tree(values[np.ix_(train_bal, cols)], y[train_bal],
                                       cfg.cv_folds, cfg.min_leaf, cfg.seed)
                else:
                    model = train_logistic(values[np.ix_(train_bal, cols)], y[train_bal])
                scored = score_model(model, values[np.ix_(test_idx, cols)], y[test_idx])
            if scored.per_tree_votes is not None:
                np.save(mdir / "votes.npy", scored.per_tree_votes)
            save_model(model, mdir / "model.json")
            (mdir / "meta.json").write_text(json.dumps({
                "model_id": model_id,
                "classifier": classifier,
                "groups": list(MODEL_GROUPS[model_id]),
                "feature_names": [matrix.feature_names[j] for j in cols],
            }, sort_keys=True) + "\n")
            save_scores(mdir / "scores.csv", scored, matrix, test_idx)
            trained[(model_id, classifier)] = scored
            logger.info("model %s/%s done in %.1fs", model_id, classifier, time.perf_counter() - t0)
    return (train_idx, test_idx, train_bal), trained


def load_train(cfg: ExperimentConfig, directory: Path) -> tuple[tuple, dict]:
    split_rows = json.loads((directory / "split.json").read_text())
    rows = tuple(np.asarray(split_rows[key], dtype=np.int64)
                 for key in ("train", "test", "train_balanced"))
    trained = {}
    for model_id in cfg.model_ids():
        for classifier in cfg.classifier_list():
            mdir = directory / f"{model_id}_{classifier}"
            if not mdir.exists():  # a model whose feature groups were pruned away
                continue
            scored = load_scores(mdir / "scores.csv")
            if (mdir / "votes.npy").exists():
                scored.per_tree_votes = np.load(mdir / "votes.npy")
            trained[(model_id, classifier)] = scored
    return rows, trained


def stage_eval(cfg: ExperimentConfig, out: Path, featured: list, fitted: list) -> None:
    """Reads the importance forests from models_out/, next to `out`; `run_stages` checks cfg first.

    Empties `featured` and `fitted`, the one-item lists of the features and
    train products."""
    matrix, row_loans = featured.pop()
    (train_idx, test_idx, _), trained = fitted.pop()
    test_loans = row_loans[test_idx]
    p0, p1 = estimate_loss_masses(row_loans[train_idx], cfg.lgd)
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
    write_csv(out / "models.csv", ("model_id", "classifier", "groups", "auc", "emp", "emp_fraction",
                                   "implied_cutoff", "model_profit", "no_model_profit"),
              [list(column) for column in zip(*rows)])
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
    rows = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            res = delong_test(trained[(a, primary)].score, trained[(b, primary)].score, matrix.y[test_idx])
            rows.append((a, b, f"{res.auc_a:.6f}", f"{res.auc_b:.6f}", f"{res.auc_diff:.6f}", f"{res.z:.4f}",
                         f"{res.p_value:.6g}"))
    write_csv(out / "delong.csv", ("model_a", "model_b", "auc_a", "auc_b", "auc_diff", "z", "p_value"),
              [list(column) for column in zip(*rows)])

    corr_summary = {}
    for model_id in cfg.importance_model_ids():
        if (model_id, "forest") not in trained:
            continue
        cols = matrix.group_columns(MODEL_GROUPS[model_id])
        names = [matrix.feature_names[j] for j in cols]
        model = load_model(out.parent / "models_out" / f"{model_id}_forest" / "model.json")
        scored = trained[(model_id, "forest")]
        profit_rank = profit_feature_importance(model, scored, test_loans, params, names)
        test_rows = test_idx
        if cfg.importance_max_rows and len(test_rows) > cfg.importance_max_rows:
            keep = substream(cfg.seed, "importance-rows").choice(
                len(test_rows), size=cfg.importance_max_rows, replace=False)
            test_rows = test_rows[np.sort(keep)]
        acc_rank = accuracy_feature_importance(
            model, matrix.values[np.ix_(test_rows, cols)], matrix.y[test_rows], names, cfg.seed)
        _write_importance(out / f"importance_profit_{model_id}.csv", profit_rank)
        _write_importance(out / f"importance_accuracy_{model_id}.csv", acc_rank["permutation"])
        _write_importance(out / f"importance_accuracy_membership_{model_id}.csv", acc_rank["membership"])
        profit_by_name = {n: v for n, v in profit_rank}
        acc_by_name = {n: v for n, v in acc_rank["permutation"]}
        common = [n for n in names
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


def _write_importance(path: Path, ranking: list) -> None:
    write_csv(path, ("feature", "importance"),
              [[name for name, _ in ranking], [repr(float(value)) for _, value in ranking]])
