import filecmp

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.graph import build_graph
from callscore.ingest import ingest_bank, ingest_cdr, write_cdr
from callscore.netstats import dyadicity, heterophilicity
from callscore.synth import ROLE_EXISTING, ROLE_SUBJECT, SynthConfig, generate

SMALL = SynthConfig(n_nodes=400, n_subjects=120, mean_calls_per_node=8.0,
                    default_rate=0.15, planted_feature_effect=1.5)


def test_generate_deterministic_files(tmp_path):
    a = generate(SMALL, seed=11)
    b = generate(SMALL, seed=11)
    pa = a.write(tmp_path / "a")
    pb = b.write(tmp_path / "b")
    for key in pa:
        assert filecmp.cmp(pa[key], pb[key], shallow=False), f"{key} differs"


def test_generate_seed_changes_output(tmp_path):
    pa = generate(SMALL, seed=1).write(tmp_path / "a")
    pb = generate(SMALL, seed=2).write(tmp_path / "b")
    assert not filecmp.cmp(pa["cdr"], pb["cdr"], shallow=False)


def test_emitted_files_ingest_cleanly(tmp_path):
    data = generate(SMALL, seed=3)
    paths = data.write(tmp_path)
    batch, stats = ingest_cdr(paths["cdr"], min_duration=5)
    assert stats.rows_rejected == 0
    assert stats.rows_read == len(data.calls["caller"])
    assert 0 < stats.rows_filtered_short < stats.rows_read  # short calls planted
    records, bank_stats = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    n_cards = int((data.role == ROLE_SUBJECT).sum() + (data.role == ROLE_EXISTING).sum())
    assert len(records) == n_cards
    assert bank_stats.customers_without_card > 0  # uncarded customers planted


def test_default_rate_calibration():
    config = SynthConfig(n_nodes=24_000, n_subjects=20_000, mean_calls_per_node=3.0,
                         default_rate=0.0449, existing_customer_rate=0.08,
                         uncarded_customer_rate=0.0)
    data = generate(config, seed=5)
    subjects = data.role == ROLE_SUBJECT
    realized = float((data.y_default[subjects] == 1).mean())
    assert abs(realized - 0.0449) < 0.005


def test_min_seed_delinquents_guaranteed():
    config = SynthConfig(n_nodes=300, n_subjects=60, existing_customer_rate=0.05,
                         risky_rate=0.02, min_seed_delinquents=3)
    data = generate(config, seed=9)
    assert int((data.delinquency == 3).sum()) >= 3


def test_homophily_null_when_strength_one(tmp_path):
    # graph-independent labels: the behavioral and contagion terms tie default
    # to node degree, which would bias D/H away from 1 even at strength 1
    ds, hs = [], []
    for seed in range(25):
        config = SynthConfig(n_nodes=1200, n_subjects=500, mean_calls_per_node=12.0,
                             default_rate=0.25, homophily_strength=1.0,
                             existing_customer_rate=0.2, planted_feature_effect=1.5,
                             cb_weight=0.0, contagion_weight=0.0)
        data = generate(config, seed=seed)
        batch, _ = ingest_cdr_from(data, tmp_path / "cdr.csv")
        g = build_graph(batch, mode="undirected")
        labels = default_labels_on(g, data)
        ds.append(dyadicity(g, labels))
        hs.append(heterophilicity(g, labels))
    assert abs(np.mean(ds) - 1) < 0.1
    assert abs(np.mean(hs) - 1) < 0.05


def ingest_cdr_from(data, path):
    """Ingest a SynthData's calls as the CDR writer serializes them."""
    write_cdr(path, data.cdr_batch())
    return ingest_cdr(path, min_duration=5)


def default_labels_on(graph, data):
    labels = np.full(graph.n_nodes, -1, dtype=np.int8)
    for node, identity in enumerate(graph.ids):
        i = int(identity[1:])
        if data.y_default[i] >= 0:
            labels[node] = data.y_default[i]
        elif data.delinquency[i] >= 0:
            labels[node] = int(data.delinquency[i] == 3)
    return labels


def test_zero_effect_gives_chance_level_auc(tmp_path):
    import csv

    from callscore.pipeline import ExperimentConfig, run_stages

    aucs = []
    for seed in range(5):
        config = ExperimentConfig(
            out_dir=str(tmp_path / f"null{seed}"), seed=seed,
            n_nodes=1200, n_subjects=520, mean_calls_per_node=10.0,
            default_rate=0.2, planted_feature_effect=0.0,
            models="H", classifiers="forest", n_trees=60,
        )
        run_stages(config)
        with open(tmp_path / f"null{seed}" / "eval" / "models.csv", newline="") as fh:
            aucs.append(float(next(iter(csv.DictReader(fh)))["auc"]))
    assert abs(np.mean(aucs) - 0.5) < 0.03


def test_infeasible_config_rejected():
    with pytest.raises(DataError):
        SynthConfig(n_nodes=100, n_subjects=200)
    with pytest.raises(DataError):
        SynthConfig(default_rate=0.0)
    with pytest.raises(DataError):
        SynthConfig(months=3)


def test_subject_windows_cover_cdr_span():
    from callscore.pipeline import ExperimentConfig

    config = ExperimentConfig(months=SMALL.months, start_year=SMALL.start_year,
                              start_month=SMALL.start_month)
    start, end = config.window(1)
    assert (end - start).days >= 88  # three whole months
    assert config.month_index(end) + 1 == 4  # cards issued in month 4 are scored on timeframe 1
    assert config.window(3)[1] < config.month_date(SMALL.months + 1)  # inside the call data
