import csv
import dataclasses
import filecmp
import hashlib
import math

import numpy as np
import pytest

from callscore import synth, tables
from callscore.errors import DataError
from callscore.graph import build_graph
from callscore.ingest import ingest_bank, ingest_cdr, write_cdr
from callscore.netstats import dyadicity, heterophilicity
from callscore.synth import MIN_SEED_DELINQUENTS, ROLE_EXISTING, ROLE_SUBJECT, SynthConfig, generate

SMALL = SynthConfig(n_nodes=400, n_subjects=120, mean_calls_per_node=8.0,
                    default_rate=0.15, planted_feature_effect=1.5)


def test_generate_deterministic_files(tmp_path):
    a = generate(SMALL, seed=11)
    b = generate(SMALL, seed=11)
    pa = a.write(tmp_path / "a")
    pb = b.write(tmp_path / "b")
    for key in pa:
        assert filecmp.cmp(pa[key], pb[key], shallow=False), f"{key} differs"


# sha256 of each file `generate(SMALL, seed=3).write()` writes; any change to
# the draws, their order or the file format changes these
SMALL_SEED3_SHA256 = {
    "cdr": "05c903712566d1221549c3c39586f13533040d952c727bb6d0e7375f04ec7f52",
    "accounts": "0ebb08a9b075f247f1364d17dbca62d9ed439188f2e5dadd55fe4c53da4da61d",
    "transactions": "f79153d335a0b25fb641892552f7642cb1b26887e7134e22f6921ecc01d20afc",
    "card_activity": "1b8f0b7756b9ae467d90e89b26fc703a866ffa0a3f9a6c2b3cccedeba9fcd3f8",
    "truth": "2d23765df6861a052d5343c72e9a4556c5ff5f9c2501f7915422cb39d15b809c",
}


def test_generated_files_are_pinned(tmp_path):
    paths = generate(SMALL, seed=3).write(tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == SMALL_SEED3_SHA256


def csv_writer_truth(path, data):
    """truth.csv as csv.writer writes it, one formatted row at a time."""
    money = "{:.2f}".format
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("identity", "role", "cohort", "risky", "delinquency", "y_default", "credit_limit", "ead"))
        w.writerows(zip(
            data.identities, data.role.tolist(), data.cohort.tolist(), data.risky.astype(int).tolist(),
            data.delinquency.tolist(), data.y_default.tolist(),
            map(money, data.credit_limit.tolist()), map(money, data.ead.tolist()),
        ))


def test_truth_text_is_the_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_WRITE_CHUNK", 50)  # rows span several chunks
    data = generate(SMALL, seed=4)
    n = len(data.identities)
    edges = [0.125, 2.675, 0.005, 1e16, 1e16 + 2, -0.0, -0.004, math.nan, math.inf, -math.inf, 0.1 + 0.2]
    odd = dataclasses.replace(
        # csv quotes these for a quote or a line break (write_cdr refuses a comma)
        data, identities=[['say "hi"', " pad ", "Zoë", "line\nbreak", "cr\r"][k % 5] + str(k) for k in range(n)],
        credit_limit=np.resize(edges, n) * np.where(np.arange(n) % 3, 1, -1), ead=np.resize(edges[::-1], n))
    for case, d in (("generated", data), ("odd", odd)):
        d.write(tmp_path / case)
        csv_writer_truth(tmp_path / f"{case}_reference.csv", d)
        assert (tmp_path / case / "truth.csv").read_bytes() == (tmp_path / f"{case}_reference.csv").read_bytes()


@pytest.mark.parametrize("p", [synth._MARITAL_P, synth._EXPOSURE_KIND_P, synth._GOOD_FLAGS_P])
def test_one_draw_is_generator_choice(p):
    chosen, drawn = np.random.default_rng(17), np.random.default_rng(17)
    cdf = synth._cdf(p)
    expected = [int(chosen.choice(len(p), p=p)) for _ in range(12_000)]
    assert [synth._draw(drawn, cdf) for _ in range(12_000)] == expected
    assert drawn.bit_generator.state == chosen.bit_generator.state


def test_generate_seed_changes_output(tmp_path):
    pa = generate(SMALL, seed=1).write(tmp_path / "a")
    pb = generate(SMALL, seed=2).write(tmp_path / "b")
    assert not filecmp.cmp(pa["cdr"], pb["cdr"], shallow=False)


def test_emitted_files_ingest_cleanly(tmp_path):
    data = generate(SMALL, seed=3)
    paths = data.write(tmp_path)
    batch, stats = ingest_cdr(paths["cdr"], min_duration=5, delimiter=",")
    assert stats.rows_rejected == 0
    assert stats.rows_read == len(data.calls["caller"])
    assert 0 < stats.rows_filtered_short < stats.rows_read  # short calls planted
    bank, bank_stats = ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    n_cards = int((data.role == ROLE_SUBJECT).sum() + (data.role == ROLE_EXISTING).sum())
    assert len(bank) == n_cards
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
                         risky_rate=0.02)
    data = generate(config, seed=9)
    assert int((data.delinquency == 3).sum()) >= MIN_SEED_DELINQUENTS


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
    return ingest_cdr(path, min_duration=5, delimiter=",")


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

    from callscore.runner import ExperimentConfig, run_stages

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
    from callscore.runner import ExperimentConfig

    config = ExperimentConfig(months=SMALL.months, start_year=SMALL.start_year,
                              start_month=SMALL.start_month)
    start, end = config.window(1)
    assert (end - start).days >= 88  # three whole months
    assert config.month_index(end) + 1 == 4  # cards issued in month 4 are scored on timeframe 1
    assert config.window(3)[1] < config.month_date(SMALL.months + 1)  # inside the call data
