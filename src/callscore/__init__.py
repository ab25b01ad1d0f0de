"""Credit scoring on call networks.

Builds weighted call graphs from call-detail records, propagates default
influence from delinquent customers (personalized random walk and energy
spreading), extracts sociodemographic, calling-behavior, link-based and
exposure features, trains baseline classifiers, and evaluates them both
statistically (AUC, DeLong) and economically (expected maximum profit,
model profit, profit-based feature importance).
"""

from .errors import ConvergenceError, DataError, UsageError
from .features import FeatureMatrix, diversity, drop_correlated, loyalty
from .graph import CallGraph, NodeLabelSet, build_graph
from .ingest import BankTable, CdrRecord, IngestStats, ingest_bank, ingest_cdr, parse_cdr_line
from .models import (
    ForestModel,
    LogisticModel,
    ScoredDataset,
    TreeModel,
    split,
    train_forests,
    train_logistic,
    train_tree,
    undersample,
)
from .netstats import HomophilyReport, dyadicity, heterophilicity, homophily_test
from .pipeline import ExperimentConfig, load_config, run_stages, sensitivity_sweep
from .profit import (
    DelongResult,
    EmpParams,
    EmpReport,
    Loans,
    accuracy_feature_importance,
    delong_test,
    emp,
    evaluate_economics,
    fraction_to_cutoff,
    model_profit,
    profit_feature_importance,
    rank_correlations,
    roc_and_auc,
)
from .propagation import (
    ExposureVector,
    RiskRelabeling,
    exposure_cutoff,
    personalized_pagerank,
    relabel_high_risk,
    spreading_activation,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
