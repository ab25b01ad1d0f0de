import math
from datetime import date

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.features import (
    EXPOSURE_KINDS,
    FeatureMatrix,
    assemble,
    assemble_timeframe,
    calling_behavior_matrix,
    cb_feature_names,
    diversity,
    drop_correlated,
    exposure_feature_names,
    exposure_link_matrix,
    lb_feature_names,
    link_based_matrix,
    loyalty,
    region_of_postcode,
    sd_feature_names,
    sociodemographic_features,
)
from callscore.graph import NodeLabelSet, build_graph
from callscore.ingest import BankRecord, CdrBatch
from callscore.propagation import ExposureVector, RiskRelabeling
from conftest import call, random_records


def feature(names, values, name):
    return values[names.index(name)]


def cb_row(records, subject_id, batch_mask=None):
    """CB names and the one-row CB matrix of `subject_id`, over calls kept by `batch_mask`."""
    batch = CdrBatch.from_records(records)
    if batch_mask is not None:
        batch = batch.select(batch_mask(batch))
    names, matrix = calling_behavior_matrix(batch, np.array([batch.ids.index(subject_id)]))
    return names, matrix[0]


def lb_row(graphs, labels, node):
    names, matrix = link_based_matrix(graphs, labels, np.array([node]))
    return names, matrix[0]


def exposure_row(graph, exposure, relabeling, node):
    return dict(zip(EXPOSURE_KINDS, exposure_link_matrix(graph, exposure, relabeling, np.array([node]))[0]))


# ---------------------------------------------------------------------------
# Calling behavior.
# ---------------------------------------------------------------------------

def test_cb_names_are_72_unique():
    names = cb_feature_names()
    assert len(names) == 72
    assert len(set(names)) == 72


def test_cb_single_incoming_tuesday_call():
    # 2017-05-02 was a Tuesday
    records = [call("X", "SUBJ", duration=30, day=2, hh=14)]
    names, values = cb_row(records, "SUBJ")
    assert feature(names, values, "Count IN") == 1
    assert feature(names, values, "Count OUT") == 0
    assert feature(names, values, "Tuesday Duration UD") == 30
    assert feature(names, values, "Weekend Duration OUT") == 0
    assert feature(names, values, "Day Count IN") == 1
    assert feature(names, values, "Night Count IN") == 0


def test_cb_no_calls_is_zero_vector():
    # SUBJ's only call falls outside the window the batch is cut to
    records = [call("A", "B", day=2), call("SUBJ", "A", day=20)]
    names, values = cb_row(records, "SUBJ", lambda b: b.date_ord < date(2017, 5, 10).toordinal())
    assert len(values) == 72
    assert not values.any()


def test_cb_weekend_outgoing_sum():
    # 2017-05-06 was a Saturday
    records = [
        call("SUBJ", "A", duration=10, day=6),
        call("SUBJ", "B", duration=20, day=6),
    ]
    names, values = cb_row(records, "SUBJ")
    assert feature(names, values, "Weekend Duration OUT") == 30
    assert feature(names, values, "Weekend Count OUT") == 2
    assert feature(names, values, "Saturday Duration OUT") == 30
    assert feature(names, values, "Duration UD") == 30


def test_cb_day_night_boundary():
    records = [
        call("SUBJ", "A", hh=7, duration=5),
        call("SUBJ", "A", hh=8, duration=7),
        call("SUBJ", "A", hh=19, duration=11),
        call("SUBJ", "A", hh=20, duration=13),
    ]
    names, values = cb_row(records, "SUBJ")
    assert feature(names, values, "Day Count OUT") == 2
    assert feature(names, values, "Night Count OUT") == 2
    assert feature(names, values, "Day Duration OUT") == 18
    assert feature(names, values, "Night Duration OUT") == 18


def test_cb_bulk_matches_per_subject(rng):
    records = random_records(rng, 12, 200)
    batch = CdrBatch.from_records(records)
    codes = np.arange(len(batch.ids))
    names, matrix = calling_behavior_matrix(batch, codes)
    for code, identity in enumerate(batch.ids):
        _, single = cb_row(records, identity)
        assert np.array_equal(matrix[code], single)


# ---------------------------------------------------------------------------
# Link-based features.
# ---------------------------------------------------------------------------

def make_labeled_star(levels):
    """Star with SUBJ at the center and one leaf per delinquency level entry."""
    records = [call("SUBJ", f"L{i}") for i in range(len(levels))]
    graphs = {d: build_graph(records, mode=m)
              for d, m in (("IN", "incoming"), ("OUT", "outgoing"), ("UD", "undirected"))}
    g = graphs["UD"]
    delinquency = np.full(g.n_nodes, -1, dtype=np.int8)
    bank = np.zeros(g.n_nodes, dtype=bool)
    for i, level in enumerate(levels):
        node = g.node(f"L{i}")
        if level is not None:
            delinquency[node] = level
            bank[node] = True
    bank[g.node("SUBJ")] = True
    labels = NodeLabelSet(
        delinquency_level=delinquency,
        is_subject=np.eye(1, g.n_nodes, g.node("SUBJ"), dtype=bool)[0],
        is_bank_customer=bank,
        default_label=np.full(g.n_nodes, -1, dtype=np.int8),
    )
    return graphs, labels, g.node("SUBJ")


def test_lb_names_are_36_unique():
    names = lb_feature_names()
    assert len(names) == 36 and len(set(names)) == 36


def test_lb_counts_and_mode():
    graphs, labels, subj = make_labeled_star([0, 0, 1])
    names, values = lb_row(graphs, labels, subj)
    assert feature(names, values, "Binary (0) UD") == 1
    assert feature(names, values, "Count (0) UD") == 2
    assert feature(names, values, "Binary (1) UD") == 1
    assert feature(names, values, "Count (1) UD") == 1
    assert feature(names, values, "Binary (2) UD") == 0
    assert feature(names, values, "Mode (0) UD") == 1
    assert feature(names, values, "Mode (1) UD") == 0


def test_lb_no_labeled_neighbors_uses_no_information_mode():
    graphs, labels, subj = make_labeled_star([None, None])
    names, values = lb_row(graphs, labels, subj)
    assert not values.any()  # all binaries, counts and the mode one-hot are zero


def test_lb_one_delinquent_of_eight():
    graphs, labels, subj = make_labeled_star([3] + [0] * 7)
    names, values = lb_row(graphs, labels, subj)
    assert feature(names, values, "Count (3) UD") == 1
    assert feature(names, values, "Binary (3) UD") == 1
    assert feature(names, values, "Count (0) UD") == 7
    assert feature(names, values, "Mode (0) UD") == 1


def test_lb_count_consistency(rng):
    records = random_records(rng, 20, 150)
    graphs = {d: build_graph(records, mode=m)
              for d, m in (("IN", "incoming"), ("OUT", "outgoing"), ("UD", "undirected"))}
    n = graphs["UD"].n_nodes
    delinquency = rng.integers(-1, 4, size=n).astype(np.int8)
    labels = NodeLabelSet(
        delinquency_level=delinquency,
        is_subject=np.zeros(n, dtype=bool),
        is_bank_customer=delinquency >= 0,
        default_label=np.full(n, -1, dtype=np.int8),
    )
    nodes = np.arange(n)
    names, matrix = link_based_matrix(graphs, labels, nodes)
    for direction in ("IN", "OUT", "UD"):
        counts = sum(matrix[:, names.index(f"Count ({c}) {direction}")] for c in range(4))
        for node in range(n):
            idx, _ = graphs[direction].neighbor_arrays(node)
            labeled = int((delinquency[idx] >= 0).sum())
            assert counts[node] == labeled


# ---------------------------------------------------------------------------
# Exposure link features.
# ---------------------------------------------------------------------------

def test_exposure_feature_names_are_54_per_method():
    for method in ("PR", "SPA"):
        names = exposure_feature_names(method)
        assert len(names) == 54 and len(set(names)) == 54


def test_exposure_link_features_counts():
    records = [call("SUBJ", f"L{i}") for i in range(5)]
    g = build_graph(records)
    scores = np.zeros(g.n_nodes)
    scores[g.node("SUBJ")] = 0.7
    high = np.zeros(g.n_nodes, dtype=bool)
    high[[g.node("L0"), g.node("L1")]] = True
    exposure = ExposureVector(scores=scores, method="PR", seed_spec="ge1",
                              iterations_run=1, residual=0.0)
    relabeling = RiskRelabeling(cutoff=0.5, high_risk=high)
    got = exposure_row(g, exposure, relabeling, g.node("SUBJ"))
    assert got["Exposure"] == pytest.approx(0.7)
    assert got["Binary High Risk"] == 1
    assert got["Count High Risk"] == 2
    assert got["Count Low Risk"] == 3
    assert got["Binary Low Risk"] == 1
    assert got["Mode High Risk"] == 0


def test_exposure_isolated_subject():
    g = build_graph([call("SUBJ", "A"), call("B", "C")])
    # isolate D by giving it no calls: use node with no neighbors in incoming mode
    gi = build_graph([call("SUBJ", "A")], mode="outgoing")
    scores = np.full(gi.n_nodes, 0.2)
    exposure = ExposureVector(scores=scores, method="SPA", seed_spec="ge1",
                              iterations_run=1, residual=0.0)
    relabeling = RiskRelabeling(cutoff=0.1, high_risk=np.ones(gi.n_nodes, dtype=bool))
    got = exposure_row(gi, exposure, relabeling, gi.node("A"))
    assert got["Exposure"] == pytest.approx(0.2)
    assert got["Count High Risk"] == 0
    assert got["Binary High Risk"] == 0


# ---------------------------------------------------------------------------
# Diversity and loyalty.
# ---------------------------------------------------------------------------

def test_diversity_single_bin_is_zero():
    assert diversity([5, 0, 0, 0, 0, 0, 0], "non_empty") == 0.0
    assert diversity([5, 0, 0, 0, 0, 0, 0], "all") == 0.0


def test_diversity_uniform_is_one():
    assert diversity([3, 3, 3, 3, 3, 3, 3], "non_empty") == pytest.approx(1.0)
    assert diversity([3, 3, 3, 3, 3, 3, 3], "all") == pytest.approx(1.0)


def test_diversity_two_even_bins():
    # hand-computed: -(0.5 ln 0.5 + 0.5 ln 0.5) / ln 2 = 1
    assert diversity([4, 4, 0, 0, 0, 0, 0], "non_empty") == pytest.approx(1.0)
    assert diversity([4, 4, 0, 0, 0, 0, 0], "all") == pytest.approx(math.log(2) / math.log(7))


def test_diversity_bounds_property(rng):
    for _ in range(200):
        bins = rng.integers(0, 10, size=7)
        if bins.sum() == 0:
            continue
        for scope in ("non_empty", "all"):
            d = diversity(bins, scope)
            assert 0.0 <= d <= 1.0 + 1e-12
    assert diversity([0] * 7) is None


def test_loyalty_cases():
    assert loyalty([5, 3, 1, 0, 0, 0, 0]) == pytest.approx(1.0)  # all in top 3
    assert loyalty([1, 1, 1, 1, 1, 1, 1]) == pytest.approx(3 / 7)
    assert loyalty([5, 3, 1, 1, 0, 0, 0]) == pytest.approx(9 / 10)  # hand count
    assert loyalty([0] * 7) is None


def test_loyalty_bounds_property(rng):
    for _ in range(200):
        bins = rng.integers(0, 10, size=7)
        if bins.sum() == 0:
            continue
        value = loyalty(bins)
        assert 3 / 7 - 1e-12 <= value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Sociodemographics.
# ---------------------------------------------------------------------------

def bank_record(transactions, age=34.0, marital="married", postcode="1234",
                issue=date(2017, 4, 1)):
    return BankRecord(
        customer_id="C1",
        sociodemographics={"age": age, "marital_status": marital, "postcode": postcode},
        debit_transactions=transactions,
        card_issue_date=issue,
        credit_limit=1000.0,
        monthly_drawn=tuple([100.0] * 12),
        monthly_arrears=tuple([False] * 12),
    )


def test_sd_names_are_35_unique():
    names = sd_feature_names()
    assert len(names) == 35 and len(set(names)) == 35


def test_sd_spend_features():
    txns = [(date(2017, 3, d), 10.0) for d in range(2, 32)]  # 30 in-window days
    record = bank_record(txns)
    names, values, missing = sociodemographic_features(record)
    assert feature(names, values, "Amount Spent") == pytest.approx(300.0)
    assert feature(names, values, "Mean Spent p. Day") == pytest.approx(10.0)
    assert feature(names, values, "Age") == 34.0
    assert not missing[names.index("Age")]
    assert feature(names, values, "Marital Married") == 1.0
    assert feature(names, values, "Marital Single") == 0.0


def test_sd_no_activity_sentinels():
    record = bank_record([])
    names, values, missing = sociodemographic_features(record)
    assert feature(names, values, "Amount Spent") == 0.0
    assert missing[names.index("Loyalty-Number")]
    assert missing[names.index("Diversity-NE Value")]
    assert values[names.index("Diversity-NE Value")] == 0.0


def test_sd_missing_fields_flagged():
    record = bank_record([], age=None, marital=None, postcode=None)
    names, values, missing = sociodemographic_features(record)
    assert missing[names.index("Age")]
    assert missing[names.index("Marital Married")]
    assert missing[names.index("Region Urban")]


def test_sd_window_excludes_older_transactions():
    txns = [(date(2016, 12, 1), 999.0), (date(2017, 3, 15), 40.0)]
    names, values, _ = sociodemographic_features(bank_record(txns))
    assert feature(names, values, "Amount Spent") == pytest.approx(40.0)


def test_region_mapping():
    assert region_of_postcode("1234") == "Urban"
    assert region_of_postcode("522") == "Suburban"
    assert region_of_postcode("901") == "Rural"
    assert region_of_postcode("") is None


# ---------------------------------------------------------------------------
# Assembly and pruning.
# ---------------------------------------------------------------------------

def tiny_parts(ids, n_feat=2, group="CB"):
    values = np.arange(len(ids) * n_feat, dtype=float).reshape(len(ids), n_feat)
    names = [f"{group.lower()}{j}" for j in range(n_feat)]
    return (list(ids), names, values, None)


def test_assemble_timeframe_excludes_incomplete_subjects():
    parts = {
        "SD": tiny_parts(["s1", "s2"], group="SD"),
        "CB": tiny_parts(["s1", "s2", "s3"], group="CB"),
    }
    y = {"s1": True, "s2": False, "s3": False}
    frame, excluded = assemble_timeframe("t1", parts, y)
    assert frame.subject_ids == ["s1", "s2"]
    assert excluded == 1
    assert frame.group_sizes() == {"SD": 2, "CB": 2}


def test_assemble_timeframe_requires_target():
    parts = {"CB": tiny_parts(["s1", "s2"])}
    frame, excluded = assemble_timeframe("t1", parts, {"s1": True})
    assert frame.subject_ids == ["s1"]
    assert excluded == 1


def test_assemble_stacks_timeframes():
    frames = []
    for tf in ("t1", "t2", "t3"):
        frame, _ = assemble_timeframe(tf, {"CB": tiny_parts(["a", "b"])}, {"a": True, "b": False})
        frames.append(frame)
    full = assemble(frames)
    assert full.n_rows == 6
    assert full.timeframes == ["t1", "t1", "t2", "t2", "t3", "t3"]
    # duplicate subject across timeframes stays as distinct rows
    assert full.subject_ids.count("a") == 3


def test_drop_correlated_duplicate_column(rng):
    x = rng.normal(size=(100, 1))
    values = np.hstack([x, x.copy(), rng.normal(size=(100, 1))])
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(100)],
        timeframes=["t1"] * 100,
        feature_names=["f0", "f0copy", "f1"],
        group_tags=["CB"] * 3,
        values=values,
        y=rng.random(100) < 0.5,
        missing=np.zeros_like(values, dtype=bool),
    )
    pruned, dropped = drop_correlated(matrix, 0.95)
    assert dropped == ["f0copy"]
    assert pruned.feature_names == ["f0", "f1"]


def test_drop_correlated_scaled_column(rng):
    x = rng.normal(size=(200, 1))
    values = np.hstack([x, 2 * x, rng.normal(size=(200, 1))])
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(200)],
        timeframes=["t1"] * 200,
        feature_names=["f0", "f0x2", "noise"],
        group_tags=["SD", "SD", "CB"],
        values=values,
        y=rng.random(200) < 0.5,
        missing=np.zeros_like(values, dtype=bool),
    )
    pruned, dropped = drop_correlated(matrix, 0.95)
    assert "f0x2" in dropped


def test_drop_correlated_keeps_independent(rng):
    values = rng.normal(size=(300, 2))
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(300)],
        timeframes=["t1"] * 300,
        feature_names=["a", "b"],
        group_tags=["CB", "CB"],
        values=values,
        y=rng.random(300) < 0.5,
        missing=np.zeros_like(values, dtype=bool),
    )
    pruned, dropped = drop_correlated(matrix, 0.95)
    assert dropped == []
    assert pruned.n_features == 2


def test_drop_correlated_constant_first(rng):
    values = np.hstack([np.ones((50, 1)), rng.normal(size=(50, 1))])
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(50)],
        timeframes=["t1"] * 50,
        feature_names=["const", "x"],
        group_tags=["SD", "SD"],
        values=values,
        y=rng.random(50) < 0.5,
        missing=np.zeros_like(values, dtype=bool),
    )
    pruned, dropped = drop_correlated(matrix, 0.95)
    assert dropped == ["const"]


def test_matrix_csv_round_trip(tmp_path, rng):
    values = rng.normal(size=(5, 3))
    missing = rng.random((5, 3)) < 0.3
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(5)],
        timeframes=["t1", "t1", "t2", "t2", "t3"],
        feature_names=["a", "b", "c"],
        group_tags=["SD", "CB", "PR"],
        values=np.where(missing, 0.0, values),
        y=rng.random(5) < 0.5,
        missing=missing,
    )
    path = tmp_path / "m.csv"
    matrix.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.subject_ids == matrix.subject_ids
    assert back.feature_names == matrix.feature_names
    assert back.group_tags == matrix.group_tags
    assert np.array_equal(back.values, matrix.values)
    assert np.array_equal(back.missing, matrix.missing)
    assert np.array_equal(back.y, matrix.y)


def test_select_groups():
    values = np.zeros((2, 3))
    matrix = FeatureMatrix(
        subject_ids=["a", "b"], timeframes=["t1", "t1"],
        feature_names=["x", "y", "z"], group_tags=["SD", "CB", "SD"],
        values=values, y=np.array([True, False]),
        missing=np.zeros_like(values, dtype=bool),
    )
    sub = matrix.select_groups(["SD"])
    assert sub.feature_names == ["x", "z"]
    with pytest.raises(DataError):
        matrix.select_groups(["nope"])
