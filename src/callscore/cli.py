"""Command-line interface.

Subcommands mirror the pipeline stages (`synth`, `ingest`, `build-graph`,
`propagate`, `netstats`, `featurize`, `train`, `predict`, `evaluate`,
`importance`, `compare`, `sweep`) plus `run` for the whole experiment.
Exit codes: 0 success, 1 usage, 2 data error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DataError, UsageError
from .features import FeatureMatrix
from .graph import build_graph, load_graph, save_graph
from .ingest import ingest_cdr, parse_cdr_date, write_cdr
from .models import load_model, predict_forest, predict_logistic, predict_tree_proba
from .models import ForestModel, LogisticModel, ScoredDataset, TreeModel
from .netstats import homophily_test
from .pipeline import (
    ExperimentConfig,
    load_config,
    load_labels,
    load_scores,
    run_stages,
    save_scores,
    sensitivity_sweep,
)
from .profit import EmpParams
from .propagation import (
    PropagationConfig,
    exposure_cutoff,
    personalized_pagerank,
    relabel_high_risk,
    spreading_activation,
    uniform_restart,
)
from .synth import SynthConfig, generate

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="callscore", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CDR + bank dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=2000)
    p.add_argument("--subjects", type=int, default=600)
    p.add_argument("--default-rate", type=float, default=0.0449)
    p.add_argument("--homophily", type=float, default=1.0)
    p.add_argument("--effect", type=float, default=1.0)
    p.add_argument("--mean-calls", type=float, default=8.0)

    p = sub.add_parser("ingest", help="parse and filter a CDR log")
    p.add_argument("--cdr", required=True)
    p.add_argument("--min-duration", type=int, default=5)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build-graph", help="build one call graph from a CDR file")
    p.add_argument("--cdr", required=True)
    p.add_argument("--mode", choices=("in", "out", "ud"), default="ud")
    p.add_argument("--window", nargs=2, metavar=("START", "END"),
                   help="inclusive DDMONYYYY date range")
    p.add_argument("--weight-by", choices=("count", "duration"), default="count")
    p.add_argument("--min-duration", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("propagate", help="compute exposure scores on a saved graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--method", choices=("pr", "spa"), required=True)
    p.add_argument("--seeds", choices=("ge1", "ge2", "ge3"), default="ge1")
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--d", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out", required=True, help="exposure CSV path")

    p = sub.add_parser("netstats", help="homophily statistics of a saved graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--json", help="write the JSON report here")

    p = sub.add_parser("featurize", help="(re)build the feature matrix of a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--groups", default="sd,cb,lb,pr,spa")
    p.add_argument("--corr-threshold", type=float)

    p = sub.add_parser("train", help="train models inside a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--model", choices=("logit", "tree", "forest"))
    p.add_argument("--models", help="model ids, e.g. A,B,H")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("predict", help="score a feature matrix with a saved model")
    p.add_argument("--model", required=True, help="model directory (model.json + meta.json)")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="statistical + economic evaluation of a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--roi", type=float)
    p.add_argument("--lgd", type=float)

    p = sub.add_parser("importance", help="feature importance of a trained forest")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--kind", choices=("profit", "accuracy"), default="profit")
    p.add_argument("--model", default="H")
    p.add_argument("--top", type=int, default=20)

    p = sub.add_parser("compare", help="pairwise DeLong comparison of run models")
    p.add_argument("--run-dir", required=True)

    p = sub.add_parser("sweep", help="EMP sensitivity sweep on fixed scores")
    p.add_argument("--scores", required=True, help="scores.csv from a trained model")
    p.add_argument("--param", choices=("roi", "lgd"), required=True)
    p.add_argument("--grid", required=True,
                   help="comma list '0.01,0.05' or range 'start:stop:count'")
    p.add_argument("--roi", type=float, default=0.05)
    p.add_argument("--lgd", type=float, default=0.8)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--p1", type=float, default=0.0)
    p.add_argument("--out", help="write the sweep CSV here")

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    return parser


def _parse_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError("range grid must be start:stop:count")
    try:
        if len(parts) == 3:
            return list(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None


def _cmd_synth(args) -> int:
    config = SynthConfig(
        n_nodes=args.nodes,
        n_subjects=args.subjects,
        default_rate=args.default_rate,
        homophily_strength=args.homophily,
        planted_feature_effect=args.effect,
        mean_calls_per_node=args.mean_calls,
    )
    paths = generate(config, args.seed).write(args.out)
    print(f"wrote {len(paths)} files under {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rejects.log", "w") as rejects:
        batch, stats = ingest_cdr(args.cdr, min_duration=args.min_duration,
                                  delimiter=args.delimiter, reject_log=rejects)
    write_cdr(out / "filtered.csv", batch)
    (out / "stats.json").write_text(
        json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True) + "\n")
    print(f"read {stats.rows_read} rows: {stats.rows_accepted} accepted, "
          f"{stats.rows_rejected} rejected, {stats.rows_filtered_short} under "
          f"{args.min_duration}s; {stats.distinct_ids} identities")
    return 0


def _cmd_build_graph(args) -> int:
    batch, _ = ingest_cdr(args.cdr, min_duration=args.min_duration)
    window = None
    if args.window:
        window = (parse_cdr_date(args.window[0]), parse_cdr_date(args.window[1]))
    graph = build_graph(batch, window=window, mode=args.mode, weight_by=args.weight_by)
    save_graph(graph, args.out)
    print(f"{graph.mode} graph: {graph.n_nodes} nodes, {graph.n_edges} edges "
          f"({graph.n_out_of_window} records outside window)")
    return 0


def _cmd_propagate(args) -> int:
    graph = load_graph(args.graph)
    labels, _ = load_labels(args.labels)
    if labels.n_nodes != graph.n_nodes:
        raise DataError("labels file does not match the graph")
    criterion = int(args.seeds[-1])
    seeds = labels.delinquent_nodes(criterion)
    config = PropagationConfig(alpha=args.alpha, spread_fraction=args.d,
                               tolerance=args.tol, max_iterations=args.max_iter)
    if args.method == "pr":
        exposure = personalized_pagerank(graph, uniform_restart(graph.n_nodes, seeds), config)
    else:
        exposure = spreading_activation(graph, seeds, config)
    exposure.seed_spec = args.seeds
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("node_id", "score"))
        for i, s in enumerate(exposure.scores):
            writer.writerow((i, repr(float(s))))
    cutoff = exposure_cutoff(exposure, labels)
    relabeling = relabel_high_risk(exposure, cutoff)
    print(f"{exposure.method} converged in {exposure.iterations_run} iterations "
          f"(residual {exposure.residual:.3e}); cutoff {cutoff:.6g} flags "
          f"{relabeling.n_high_risk} high-risk nodes")
    return 0


def _cmd_netstats(args) -> int:
    graph = load_graph(args.graph)
    labels, _ = load_labels(args.labels)
    report = homophily_test(graph, labels.default_label)
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
    print(report.to_text(), end="")
    return 0


def _recorded_config(args) -> ExperimentConfig:
    resolved = Path(args.run_dir) / "config.resolved"
    if not resolved.exists():
        raise DataError(f"{args.run_dir} is not a pipeline run directory (no config.resolved)")
    return dataclasses.replace(load_config(resolved), out_dir=args.run_dir)


def _run_dir(args, until: str, **overrides) -> ExperimentConfig:
    """Bring a run directory's stages up to `until` under its recorded config
    plus the given overrides, which config.resolved then records."""
    changes = {key: value for key, value in overrides.items() if value is not None}
    config = dataclasses.replace(_recorded_config(args), **changes)
    run_stages(config, until, resume=True)
    return config


def _cmd_featurize(args) -> int:
    groups = [g.strip().upper() for g in args.groups.split(",") if g.strip()]
    config = _run_dir(args, "features", corr_threshold=args.corr_threshold)
    target = Path(config.out_dir) / "features" / "matrix.csv"
    matrix = FeatureMatrix.from_csv(target)
    if set(groups) != {"SD", "CB", "LB", "PR", "SPA"}:
        matrix = matrix.select_groups(groups)
        target = target.with_name("matrix_selected.csv")
        matrix.to_csv(target)
    print(f"feature matrix: {matrix.n_rows} rows x {matrix.n_features} features "
          f"(groups {','.join(groups)}) -> {target}")
    return 0


def _cmd_train(args) -> int:
    config = _run_dir(args, "train", classifiers=args.model, models=args.models, seed=args.seed)
    print(f"trained models {config.models} ({config.classifiers}) under "
          f"{Path(config.out_dir) / 'models_out'}")
    return 0


def _cmd_predict(args) -> int:
    model_dir = Path(args.model)
    model = load_model(model_dir / "model.json")
    meta = json.loads((model_dir / "meta.json").read_text())
    matrix = FeatureMatrix.from_csv(args.features)
    index = {name: j for j, name in enumerate(matrix.feature_names)}
    missing = [n for n in meta["feature_names"] if n not in index]
    if missing:
        raise DataError(f"feature matrix lacks {len(missing)} model features, e.g. {missing[:3]}")
    X = matrix.values[:, [index[n] for n in meta["feature_names"]]]
    if isinstance(model, ForestModel):
        scores = predict_forest(model, X).score
    elif isinstance(model, TreeModel):
        scores = predict_tree_proba(model, X)
    elif isinstance(model, LogisticModel):
        scores = predict_logistic(model, X)
    else:
        raise DataError("unsupported model type")
    save_scores(args.out, ScoredDataset(y=matrix.y, score=scores), matrix, range(matrix.n_rows))
    print(f"scored {matrix.n_rows} rows -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _run_dir(args, "eval", roi=args.roi, lgd=args.lgd)
    print((Path(config.out_dir) / "eval" / "summary.txt").read_text(), end="")
    return 0


def _cmd_importance(args) -> int:
    model_id = args.model.upper()
    recorded = _recorded_config(args)
    absent = f"no importance for model {model_id}: the run has no {model_id} forest"
    # refused before the run is touched: listing it would rebuild eval/ for nothing
    if model_id not in recorded.model_ids() or "forest" not in recorded.classifier_list():
        raise DataError(absent)
    listed = recorded.importance_model_ids()
    # a model not yet listed is added, so the tables of the listed ones are kept
    extended = None if model_id in listed else ",".join(listed + [model_id])
    config = _run_dir(args, "eval", importance_models=extended)
    kind = "importance_profit" if args.kind == "profit" else "importance_accuracy"
    path = Path(config.out_dir) / "eval" / f"{kind}_{model_id}.csv"
    if not path.exists():
        raise DataError(absent)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"top {min(args.top, len(rows))} features by {args.kind} importance "
          f"(model {model_id}):")
    for row in rows[: args.top]:
        print(f"  {row['feature']:45s} {row['importance']}")
    return 0


def _cmd_compare(args) -> int:
    config = _run_dir(args, "eval")
    print((Path(config.out_dir) / "eval" / "delong.csv").read_text(), end="")
    return 0


def _cmd_sweep(args) -> int:
    scored = load_scores(args.scores)
    params = EmpParams(roi=args.roi, lgd=args.lgd, p0=args.p0, p1=args.p1)
    rows = sensitivity_sweep(scored, params, args.param, _parse_grid(args.grid))
    lines = [f"{args.param},emp,emp_fraction"]
    lines += [f"{v!r},{e!r},{f!r}" for v, e, f in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run_stages(config, resume=args.resume)
    out = Path(config.out_dir)
    summary = {
        "out_dir": str(out),
        "models_csv": str(out / "eval" / "models.csv"),
        "summary": str(out / "eval" / "summary.txt"),
        "netstats": str(out / "netstats" / "report.json"),
        "matrix": str(out / "features" / "matrix.csv"),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "build-graph": _cmd_build_graph,
    "propagate": _cmd_propagate,
    "netstats": _cmd_netstats,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "importance": _cmd_importance,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
