import math
from datetime import date, timedelta

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.features import (
    EXPOSURE_KINDS,
    MARITAL_CATEGORIES,
    REGIONS,
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
    sociodemographic_matrix,
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
# Diversity and loyalty, row-wise over (n, 7) bin arrays.
# ---------------------------------------------------------------------------

def div(bins, scope="non_empty"):
    return diversity(np.array([bins]), scope)[0]


def loy(bins):
    return loyalty(np.array([bins]))[0]


def test_diversity_single_bin_is_zero():
    assert div([5, 0, 0, 0, 0, 0, 0], "non_empty") == 0.0
    assert div([5, 0, 0, 0, 0, 0, 0], "all") == 0.0


def test_diversity_uniform_is_one():
    assert div([3, 3, 3, 3, 3, 3, 3], "non_empty") == pytest.approx(1.0)
    assert div([3, 3, 3, 3, 3, 3, 3], "all") == pytest.approx(1.0)


def test_diversity_two_even_bins():
    # hand-computed: -(0.5 ln 0.5 + 0.5 ln 0.5) / ln 2 = 1
    assert div([4, 4, 0, 0, 0, 0, 0], "non_empty") == pytest.approx(1.0)
    assert div([4, 4, 0, 0, 0, 0, 0], "all") == pytest.approx(math.log(2) / math.log(7))


def test_diversity_bounds_property(rng):
    bins = rng.integers(0, 10, size=(200, 7))
    bins = bins[bins.sum(axis=1) > 0]
    for scope in ("non_empty", "all"):
        d = diversity(bins, scope)
        assert np.all((d >= 0.0) & (d <= 1.0 + 1e-12))
    assert np.isnan(div([0] * 7))


def test_loyalty_cases():
    assert loy([5, 3, 1, 0, 0, 0, 0]) == pytest.approx(1.0)  # all in top 3
    assert loy([1, 1, 1, 1, 1, 1, 1]) == pytest.approx(3 / 7)
    assert loy([5, 3, 1, 1, 0, 0, 0]) == pytest.approx(9 / 10)  # hand count
    assert np.isnan(loy([0] * 7))


def test_loyalty_bounds_property(rng):
    bins = rng.integers(0, 10, size=(200, 7))
    value = loyalty(bins[bins.sum(axis=1) > 0])
    assert np.all((value >= 3 / 7 - 1e-12) & (value <= 1.0 + 1e-12))


# ---------------------------------------------------------------------------
# Sociodemographics.
# ---------------------------------------------------------------------------

def bank_record(transactions, age=34.0, marital="married", postcode="1234",
                issue=date(2017, 4, 1), customer_id="C1"):
    return BankRecord(
        customer_id=customer_id,
        sociodemographics={"age": age, "marital_status": marital, "postcode": postcode},
        debit_transactions=transactions,
        card_issue_date=issue,
        credit_limit=1000.0,
        monthly_drawn=tuple([100.0] * 12),
        monthly_arrears=tuple([False] * 12),
    )


def sd_row(record):
    """SD names, values and missing mask of the one-row batch of `record`."""
    names, values, missing = sociodemographic_matrix([record])
    return names, values[0], missing[0]


def test_sd_names_are_35_unique():
    names = sd_feature_names()
    assert len(names) == 35 and len(set(names)) == 35


def test_sd_spend_features():
    txns = [(date(2017, 3, d), 10.0) for d in range(2, 32)]  # 30 in-window days
    record = bank_record(txns)
    names, values, missing = sd_row(record)
    assert feature(names, values, "Amount Spent") == pytest.approx(300.0)
    assert feature(names, values, "Mean Spent p. Day") == pytest.approx(10.0)
    assert feature(names, values, "Age") == 34.0
    assert not missing[names.index("Age")]
    assert feature(names, values, "Marital Married") == 1.0
    assert feature(names, values, "Marital Single") == 0.0


def test_sd_no_activity_sentinels():
    record = bank_record([])
    names, values, missing = sd_row(record)
    assert feature(names, values, "Amount Spent") == 0.0
    assert missing[names.index("Loyalty-Number")]
    assert missing[names.index("Diversity-NE Value")]
    assert values[names.index("Diversity-NE Value")] == 0.0


def test_sd_missing_fields_flagged():
    record = bank_record([], age=None, marital=None, postcode=None)
    names, values, missing = sd_row(record)
    assert missing[names.index("Age")]
    assert missing[names.index("Marital Married")]
    assert missing[names.index("Region Urban")]


def test_sd_window_excludes_older_transactions():
    txns = [(date(2016, 12, 1), 999.0), (date(2017, 3, 15), 40.0)]
    names, values, _ = sd_row(bank_record(txns))
    assert feature(names, values, "Amount Spent") == pytest.approx(40.0)


def test_sd_batch_rows_equal_one_row_batches(rng):
    # 8 or more terms is where numpy's pairwise sum groups additions differently
    records = []
    for k, n_in in enumerate((0, 1, 7, 8, 9, 20)):
        issue = date(2017, 4, 1) + timedelta(days=3 * k)
        days = rng.integers(1, 31, size=n_in)   # 1..30 days before the issue date
        txns = [(issue - timedelta(days=int(d)), float(a))
                for d, a in zip(days, rng.lognormal(3.0, 1.5, size=n_in).round(3))]
        txns.append((issue - timedelta(days=45), 500.0))   # outside the window
        records.append(bank_record(sorted(txns), issue=issue, customer_id=f"C{k}",
                                   age=None if k == 2 else 30.0 + k,
                                   postcode=None if k == 3 else str(k)))
    names, values, missing = sociodemographic_matrix(records)
    assert values.shape == missing.shape == (len(records), 35)
    for i, record in enumerate(records):
        _, one, one_missing = sd_row(record)
        assert one.tobytes() == values[i].tobytes()
        assert np.array_equal(one_missing, missing[i])
    assert values[:, names.index("N Purchases")].tolist() == [0, 1, 7, 8, 9, 20]


def sd_reference(record):
    """One record's SD values and mask by the per-record definition, a loop per transaction."""
    values, missing = np.zeros(35), np.zeros(35, dtype=bool)
    demo = record.sociodemographics
    if demo["age"] is None:
        missing[0] = True
    else:
        values[0] = float(demo["age"])
    marital = (demo["marital_status"] or "").lower()
    if marital in MARITAL_CATEGORIES:
        values[1 + MARITAL_CATEGORIES.index(marital)] = 1.0
    else:
        missing[1:5] = True
    region = region_of_postcode(demo["postcode"])
    if region is None:
        missing[5:8] = True
    else:
        values[5 + REGIONS.index(region)] = 1.0
    start = record.card_issue_date - timedelta(days=30)
    txns = [(d, a) for d, a in record.debit_transactions if start <= d < record.card_issue_date]
    amounts = np.array([a for _, a in txns], dtype=np.float64)
    count_bins, value_bins, daily = np.zeros(7), np.zeros(7), {}
    for d, a in txns:
        count_bins[d.weekday()] += 1
        value_bins[d.weekday()] += a
        daily[d] = daily.get(d, 0.0) + a
    total = float(amounts.sum()) if txns else 0.0
    values[8:15] = [total, total / 30, max(daily.values(), default=0.0), len(txns),
                    float(amounts.mean()) if txns else 0.0, float(amounts.max()) if txns else 0.0,
                    len(daily)]
    for j, (bins, kind) in enumerate([(count_bins, "non_empty"), (count_bins, "all"),
                                      (value_bins, "non_empty"), (value_bins, "all"),
                                      (count_bins, "loyalty"), (value_bins, "loyalty")]):
        if bins.sum() == 0:
            missing[15 + j] = True
            continue
        p = bins / bins.sum()
        if kind == "loyalty":
            values[15 + j] = float(p[np.lexsort((np.arange(7), -p))[:3]].sum()) / float(p.sum())
            continue
        nonzero = p[p > 0]
        m = len(nonzero) if kind == "non_empty" else 7
        values[15 + j] = 0.0 if m == 1 else float(-(nonzero * np.log(nonzero)).sum()) / math.log(m)
    if txns:
        values[21:28] = count_bins / count_bins.sum()
    if total > 0:
        values[28:35] = value_bins / total
    return values, missing


def test_sd_matches_per_record_reference(rng):
    records = []
    for k in range(300):
        issue = date(2017, 4, 1) + timedelta(days=int(rng.integers(0, 90)))
        n = int(rng.choice([0, 1, 2, 7, 8, 9, 16, 20, 40, 130]))
        txns = sorted((issue - timedelta(days=int(rng.integers(-5, 40))),
                       round(float(rng.lognormal(3.0, 1.5)), int(rng.integers(0, 5))))
                      for _ in range(n))
        records.append(bank_record(txns, issue=issue, customer_id=f"C{k}",
                                   age=None if k % 7 == 0 else 20.0 + k % 50,
                                   marital=("single", "Married", None, "other")[k % 4],
                                   postcode=(None, "", "x1", "402", "9")[k % 5]))
    _, values, missing = sociodemographic_matrix(records)
    for i, record in enumerate(records):
        ref_values, ref_missing = sd_reference(record)
        assert values[i].tobytes() == ref_values.tobytes(), i
        assert np.array_equal(missing[i], ref_missing), i


def test_region_mapping():
    assert region_of_postcode("1234") == "Urban"
    assert region_of_postcode("522") == "Suburban"
    assert region_of_postcode("901") == "Rural"
    assert region_of_postcode("") is None


# ---------------------------------------------------------------------------
# Assembly and pruning.
# ---------------------------------------------------------------------------

def tiny_block(ids, n_feat=2, group="CB"):
    values = np.arange(len(ids) * n_feat, dtype=float).reshape(len(ids), n_feat)
    return [f"{group.lower()}{j}" for j in range(n_feat)], values


def test_assemble_timeframe_stacks_aligned_blocks():
    ids = ["s1", "s2"]
    names, values = tiny_block(ids, group="SD")
    missing = np.array([[True, False], [False, False]])
    blocks = {"CB": tiny_block(ids, 3, "CB"), "SD": (names, values, missing)}
    frame = assemble_timeframe("t1", ids, blocks, [True, False])
    assert frame.subject_ids == ids
    assert frame.feature_names == ["sd0", "sd1", "cb0", "cb1", "cb2"]   # GROUPS order
    assert frame.values[0, 0] == 0.0 and frame.missing[0, 0]
    assert not frame.missing[:, 2:].any()
    assert frame.y.tolist() == [True, False]


def test_assemble_timeframe_rejects_misaligned_block():
    with pytest.raises(DataError, match="SD block has 1 rows for 2 subjects"):
        assemble_timeframe("t1", ["s1", "s2"], {
            "CB": tiny_block(["s1", "s2"]), "SD": tiny_block(["s1"], group="SD"),
        }, [True, False])


def test_assemble_stacks_timeframes():
    frames = [assemble_timeframe(tf, ["a", "b"], {"CB": tiny_block(["a", "b"])}, [True, False])
              for tf in ("t1", "t2", "t3")]
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
