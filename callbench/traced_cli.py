"""Run one `callscore` CLI command with spans around its calls into each layer.

    python3 callbench/traced_cli.py SPANS.json <callscore arguments...>

Wraps, for the life of this process only, the public functions that
`callscore.pipeline` and `callscore.cli` call in the other modules, plus the
pipeline's stage functions. Each call becomes a span [name, start, end,
parent, counts]; the spans stay in memory and are written to SPANS.json when
the command ends. Counts are read from the objects the calls return. The
program's files are not touched, and its outputs are byte-for-byte those of
an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def span(self, name: str, fn, count=None):
        """`fn` wrapped so that each call records a span; `count(args, result)` adds counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result
        return wrapper

    def patch(self, name: str, modules: list, attr: str, count=None) -> None:
        for module in modules:
            if hasattr(module, attr):
                setattr(module, attr, self.span(name, getattr(module, attr), count))


def _trained(args, kwargs, model) -> dict:
    trees = getattr(model, "trees", [model] if hasattr(model, "feature") else [])
    return {"trees": len(trees), "split_nodes": sum(int((t.feature >= 0).sum()) for t in trees)}


def _tree_rows(args, kwargs, result) -> dict:
    model, X = args[0], args[1]
    return {"tree_rows": len(getattr(model, "trees", [model])) * len(X)}


def _accuracy_rows(args, kwargs, result) -> dict:
    forest, X = args[0], args[1]
    tested = sum(len(t.features_used) for t in forest.trees)
    return {"tree_rows": len(X) * (forest.n_trees + tested)}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def install(tracer: Tracer) -> None:
    import callscore.cli as cli
    import callscore.pipeline as pipeline
    from callscore.features import FeatureMatrix

    # Calls without a metric of their own are spans too, so that a stage's
    # self time holds only the pipeline's own work.
    both = [pipeline, cli]
    patch = tracer.patch
    patch("ingest.cdr", both, "ingest_cdr",
          lambda a, k, r: {"rows_read": r[1].rows_read, "rows_rejected": r[1].rows_rejected})
    patch("ingest.bank", both, "ingest_bank")
    patch("graph.build", both, "build_graph", lambda a, k, g: {"edges": g.n_edges})
    patch("graph.save", both, "save_graph")
    patch("graph.load", both, "load_graph", lambda a, k, g: {"edges": g.n_edges})
    patch("netstats.homophily", both, "homophily_test")
    patch("propagation.pagerank", both, "personalized_pagerank",
          lambda a, k, e: {"iterations": e.iterations_run})
    patch("propagation.spreading", both, "spreading_activation",
          lambda a, k, e: {"iterations": e.iterations_run})
    for attr in ("uniform_restart", "exposure_cutoff", "relabel_high_risk"):
        patch("propagation.relabel", both, attr)
    patch("features.cb", both, "calling_behavior_matrix")
    patch("features.lb", both, "link_based_matrix")
    patch("features.exposure_link", both, "exposure_link_matrix")
    for attr in ("sociodemographic_features", "sd_feature_names"):
        patch("features.sd", both, attr)
    for attr in ("assemble_timeframe", "assemble", "exposure_feature_names"):
        patch("features.assemble", both, attr)
    patch("features.prune", both, "drop_correlated",
          lambda a, k, r: {"rows": r[0].n_rows, "columns": r[0].n_features})
    FeatureMatrix.to_csv = tracer.span(
        "features.matrix_write", FeatureMatrix.to_csv,
        lambda a, k, r: {"rows": a[0].n_rows, "columns": a[0].n_features})
    read = FeatureMatrix.__dict__["from_csv"].__func__
    FeatureMatrix.from_csv = classmethod(tracer.span(
        "features.matrix_read", read,
        lambda a, k, m: {"rows": m.n_rows, "columns": m.n_features}))
    FeatureMatrix.select_groups = tracer.span("features.select", FeatureMatrix.select_groups)
    for attr in ("split", "undersample"):
        patch("models.split", both, attr)
    for attr in ("train_forest", "train_tree", "train_logistic"):
        patch("models.train", both, attr, _trained)
    for attr in ("predict_forest", "predict_tree_proba"):
        patch("models.predict", both, attr, _tree_rows)
    patch("models.predict", both, "predict_logistic")
    patch("models.save", both, "save_model", _bytes_written)
    patch("models.load", both, "load_model")
    for attr in ("roc_and_auc", "estimate_loss_masses", "evaluate_economics"):
        patch("profit.economics", both, attr)
    patch("profit.delong", both, "delong_test")
    patch("profit.importance_profit", both, "profit_feature_importance")
    patch("profit.importance_accuracy", both, "accuracy_feature_importance", _accuracy_rows)
    patch("profit.rank_correlations", both, "rank_correlations")
    patch("profit.sweep", [cli], "sensitivity_sweep")
    for stage in ("data", "ingest", "network", "netstats", "exposure", "features", "train", "eval"):
        patch(f"pipeline.{stage}", both, f"stage_{stage}")


def main(argv: list) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import callscore.cli as cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1, {}])
    install(tracer)
    command = args[0] + ("_resume" if "--resume" in args else "")
    run = tracer.span(f"cli.{command}", cli.main)
    try:
        return run(args)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
