"""Credit scoring on call networks.

Builds weighted call graphs from call-detail records, propagates default
influence from delinquent customers (personalized random walk and energy
spreading), extracts sociodemographic, calling-behavior, link-based and
exposure features, trains baseline classifiers, and evaluates them both
statistically (AUC, DeLong) and economically (expected maximum profit,
model profit, profit-based feature importance).

The names below load their module on first use (PEP 562), so importing the
package, or the CLI through it, loads no numeric module.
"""

import importlib

_EXPORTS = {
    "errors": ("ConvergenceError", "DataError", "UsageError"),
    "features": ("FeatureMatrix", "diversity", "drop_correlated", "loyalty"),
    "graph": ("CallGraph", "NodeLabelSet", "build_graph"),
    "ingest": ("BankTable", "CdrRecord", "IngestStats", "ingest_bank", "ingest_cdr", "parse_cdr_line"),
    "models": (
        "ForestModel", "LogisticModel", "ScoredDataset", "TreeModel", "split", "train_forests",
        "train_logistic", "train_tree", "undersample",
    ),
    "netstats": ("HomophilyReport", "dyadicity", "heterophilicity", "homophily_test"),
    "profit": (
        "DelongResult", "EmpReport", "Loans", "accuracy_feature_importance", "delong_test", "emp",
        "evaluate_economics", "fraction_to_cutoff", "profit_feature_importance",
        "rank_correlations", "roc_and_auc", "sensitivity_sweep",
    ),
    "propagation": (
        "ExposureVector", "RiskRelabeling", "exposure_cutoff", "personalized_pagerank",
        "relabel_high_risk", "spreading_activation",
    ),
    "runner": ("EmpParams", "ExperimentConfig", "SynthConfig", "load_config", "run_stages"),
    "synth": ("generate",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF))
