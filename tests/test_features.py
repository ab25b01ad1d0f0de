import csv
import math
from datetime import date, timedelta

import numpy as np
import pytest

from callscore import parallel
from callscore.errors import DataError
from callscore.features import (
    EXPOSURE_KINDS,
    MARITAL_CATEGORIES,
    REGIONS,
    _CSV_BLOCK_ROWS,
    FeatureMatrix,
    _matrix_columns,
    _matrix_rows,
    assemble,
    calling_behavior_matrix,
    cb_feature_names,
    column_correlations,
    _compose_cb,
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
from callscore.propagation import ExposureVector, RiskRelabeling
from conftest import BankRecord, call, neighbor_arrays, node_of, random_records, records_batch, records_table


def feature(names, values, name):
    return values[names.index(name)]


def cb_row(records, subject_id, batch_mask=None):
    """CB names and the one-row CB matrix of `subject_id`, over calls kept by `batch_mask`."""
    batch = records_batch(records)
    if batch_mask is not None:
        batch = batch.select(batch_mask(batch))
    names, matrix = calling_behavior_matrix(batch, np.array([batch.ids.index(subject_id)]), 8, 20)
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
    batch = records_batch(records)
    codes = np.arange(len(batch.ids))
    names, matrix = calling_behavior_matrix(batch, codes, 8, 20)
    for code, identity in enumerate(batch.ids):
        _, single = cb_row(records, identity)
        assert np.array_equal(matrix[code], single)


def whole_population_cb(batch, subject_codes, day_start_hour, day_end_hour):
    """The CB rows as four bincount tables over every identity gave them."""
    n_ids = len(batch.ids)
    sec = batch.time_sec
    is_day = ((sec >= day_start_hour * 3600) & (sec < day_end_hour * 3600)).astype(np.int64)
    cell = batch.weekday().astype(np.int64) * 2 + is_day
    dur = batch.duration.astype(np.float64)

    def tab(codes, weights=None):
        key = codes.astype(np.int64) * 14 + cell
        return np.bincount(key, weights=weights, minlength=n_ids * 14).reshape(n_ids, 14)

    out_count, out_dur = tab(batch.from_code), tab(batch.from_code, dur)
    in_count, in_dur = tab(batch.to_code), tab(batch.to_code, dur)
    s = np.asarray(subject_codes, dtype=np.int64)
    cells_count = np.stack([in_count[s], out_count[s], in_count[s] + out_count[s]], axis=1)
    cells_dur = np.stack([in_dur[s], out_dur[s], in_dur[s] + out_dur[s]], axis=1)
    return _compose_cb(cells_count, cells_dur)


def test_cb_subject_tables_match_whole_population_tables(rng):
    # non-subjects call subjects, subjects call each other, and LONE's only
    # call falls outside the window the batch is cut to
    records = random_records(rng, 30, 600) + [call("LONE", "N0001", day=20, month=6)]
    batch = records_batch(records)
    batch = batch.select(batch.date_ord < date(2017, 6, 1).toordinal())
    subjects = ["N0007", "LONE", "N0001", "N0022", "N0003", "N0012", "N0001"]  # one twice
    codes = np.array([batch.ids.index(s) for s in subjects])
    names, matrix = calling_behavior_matrix(batch, codes, 8, 20)
    assert names == cb_feature_names()
    wanted = whole_population_cb(batch, codes, 8, 20)
    assert np.array_equal(matrix.view(np.uint64), wanted.view(np.uint64))
    assert not matrix[1].any() and matrix[0].any() and np.array_equal(matrix[2], matrix[6])


# ---------------------------------------------------------------------------
# Link-based features.
# ---------------------------------------------------------------------------

def make_labeled_star(levels):
    """Star with SUBJ at the center and one leaf per delinquency level entry."""
    records = [call("SUBJ", f"L{i}") for i in range(len(levels))]
    graphs = {d: build_graph(records_batch(records), mode=m)
              for d, m in (("IN", "incoming"), ("OUT", "outgoing"), ("UD", "undirected"))}
    g = graphs["UD"]
    delinquency = np.full(g.n_nodes, -1, dtype=np.int8)
    bank = np.zeros(g.n_nodes, dtype=bool)
    for i, level in enumerate(levels):
        node = node_of(g, f"L{i}")
        if level is not None:
            delinquency[node] = level
            bank[node] = True
    bank[node_of(g, "SUBJ")] = True
    labels = NodeLabelSet(
        delinquency_level=delinquency,
        is_subject=np.eye(1, g.n_nodes, node_of(g, "SUBJ"), dtype=bool)[0],
        is_bank_customer=bank,
        default_label=np.full(g.n_nodes, -1, dtype=np.int8),
    )
    return graphs, labels, node_of(g, "SUBJ")


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
    graphs = {d: build_graph(records_batch(records), mode=m)
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
            idx, _ = neighbor_arrays(graphs[direction], node)
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
    g = build_graph(records_batch(records))
    scores = np.zeros(g.n_nodes)
    scores[node_of(g, "SUBJ")] = 0.7
    high = np.zeros(g.n_nodes, dtype=bool)
    high[[node_of(g, "L0"), node_of(g, "L1")]] = True
    exposure = ExposureVector(scores=scores, method="PR",
                              iterations_run=1, residual=0.0)
    relabeling = RiskRelabeling(cutoff=0.5, high_risk=high)
    got = exposure_row(g, exposure, relabeling, node_of(g, "SUBJ"))
    assert got["Exposure"] == pytest.approx(0.7)
    assert got["Binary High Risk"] == 1
    assert got["Count High Risk"] == 2
    assert got["Count Low Risk"] == 3
    assert got["Binary Low Risk"] == 1
    assert got["Mode High Risk"] == 0


def test_exposure_isolated_subject():
    g = build_graph(records_batch([call("SUBJ", "A"), call("B", "C")]))
    # isolate D by giving it no calls: use node with no neighbors in incoming mode
    gi = build_graph(records_batch([call("SUBJ", "A")]), mode="outgoing")
    scores = np.full(gi.n_nodes, 0.2)
    exposure = ExposureVector(scores=scores, method="SPA",
                              iterations_run=1, residual=0.0)
    relabeling = RiskRelabeling(cutoff=0.1, high_risk=np.ones(gi.n_nodes, dtype=bool))
    got = exposure_row(gi, exposure, relabeling, node_of(gi, "A"))
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
    names, values, missing = sociodemographic_matrix(records_table([record]))
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
    names, values, missing = sociodemographic_matrix(records_table(records))
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
    _, values, missing = sociodemographic_matrix(records_table(records))
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


def test_assemble_stacks_timeframes():
    frames = ((tf, ["a", "b"], {"CB": tiny_block(["a", "b"])}, [True, False]) for tf in ("t1", "t2", "t3"))
    full = assemble(frames, 6)   # a generator, as the features stage passes
    assert full.n_rows == 6
    assert full.timeframes == ["t1", "t1", "t2", "t2", "t3", "t3"]
    # duplicate subject across timeframes stays as distinct rows
    assert full.subject_ids.count("a") == 3
    assert full.y.tolist() == [True, False] * 3
    assert full.values.tolist() == [[0.0, 1.0], [2.0, 3.0]] * 3


def test_assemble_zeroes_and_flags_masked_cells():
    ids = ["s1", "s2"]
    names, values = tiny_block(ids, group="SD")
    values[0, 0] = 7.0
    missing = np.array([[True, False], [False, False]])
    frames = [("t1", ids, {"CB": tiny_block(ids, 3, "CB"), "SD": (names, values, missing)}, [True, False])]
    full = assemble(frames, 2)
    assert full.feature_names == ["sd0", "sd1", "cb0", "cb1", "cb2"]   # GROUPS order
    assert full.group_tags == ["SD", "SD", "CB", "CB", "CB"]
    assert full.values[0, 0] == 0.0 and full.missing[0, 0]
    assert full.missing.sum() == 1
    assert full.values[0, 1] == 1.0


def test_assemble_rejects_misaligned_block():
    with pytest.raises(DataError, match="SD block has 1 rows for 2 subjects"):
        assemble([("t1", ["s1", "s2"], {
            "CB": tiny_block(["s1", "s2"]), "SD": tiny_block(["s1"], group="SD"),
        }, [True, False])], 2)


@pytest.mark.parametrize("second", [
    {"CB": tiny_block(["a"]), "LB": tiny_block(["a"], group="LB")},   # another group
    {"CB": (["cb0", "cbX"], np.zeros((1, 2)))},                        # another name
])
def test_assemble_rejects_timeframes_that_disagree_on_columns(second):
    frames = [("t1", ["a"], {"CB": tiny_block(["a"])}, [True]), ("t2", ["a"], second, [True])]
    with pytest.raises(DataError, match="disagree on columns"):
        assemble(frames, 2)


def test_assemble_refusals():
    with pytest.raises(DataError, match="nothing to assemble"):
        assemble([], 0)
    with pytest.raises(DataError, match="no feature groups"):
        assemble([("t1", ["a"], {}, [True])], 1)
    with pytest.raises(DataError, match="does not match its 2 names"):
        assemble([("t1", ["a", "b"], {"CB": (["cb0", "cb1"], np.zeros((2, 1)))}, [True, False])], 2)
    with pytest.raises(DataError, match="1 targets for 2 subjects"):
        assemble([("t1", ["a", "b"], {"CB": tiny_block(["a", "b"])}, [True])], 2)
    frame = ("t1", ["a", "b"], {"CB": tiny_block(["a", "b"])}, [True, False])
    with pytest.raises(DataError, match="more than 3 rows"):
        assemble([frame, frame], 3)
    with pytest.raises(DataError, match="hold 2 rows, not 3"):
        assemble([frame], 3)


def correlation_cases(rng):
    """(values, candidates): random matrices with constant and rescaled columns,
    a single candidate, and two rows; candidates are the columns with spread."""
    cases = []
    for _ in range(80):
        n, m = int(rng.integers(3, 150)), int(rng.integers(1, 40))
        values = rng.normal(size=(n, m)) * rng.choice([1e-3, 1.0, 1e6], size=m)
        values[:, rng.integers(0, m, size=m // 4)] = rng.normal()
        cases.append(values)
    one = np.full((50, 4), 2.5)
    one[:, 2] = rng.normal(size=50) * 1e6
    cases += [one, rng.normal(size=(2, 6)), rng.normal(size=(2, 1)) * 1e-3]
    return [(values, np.flatnonzero(values.std(axis=0) > 0)) for values in cases]


def test_column_correlations_are_corrcoef_bit_for_bit(rng):
    cases = correlation_cases(rng)
    assert any(len(cols) == 1 for _, cols in cases)
    for values, cols in cases:
        k = len(cols)
        # a "constant" column whose mean rounds is a candidate of zero variance: nan in both
        with np.errstate(invalid="ignore"):
            wanted = np.corrcoef(values[:, cols], rowvar=False).reshape(k, k)
            got = column_correlations(values, cols)
        assert np.array_equal(got.view(np.uint64), wanted.view(np.uint64))


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


def test_columnar_matrix_read_matches_per_row_reader(tmp_path, rng):
    # missing SD cells, alone and in runs at the row's start, and values of every magnitude
    n, m = 400, 12
    values = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-12, 12, size=(n, m))
    missing = rng.random((n, m)) < 0.1
    missing[:, :4] |= rng.random((n, 1)) < 0.3
    matrix = FeatureMatrix(
        subject_ids=[f"s{i}" for i in range(n)],
        timeframes=[f"t{1 + i % 3}" for i in range(n)],
        feature_names=[f"f{j}" for j in range(m)],
        group_tags=["SD"] * 4 + ["CB"] * 4 + ["LB", "PR", "PR", "SPA"],
        values=np.where(missing, 0.0, values),
        y=rng.random(n) < 0.3,
        missing=missing,
    )
    path = tmp_path / "m.csv"
    matrix.to_csv(path)
    columnar, per_row = _matrix_columns(path), _matrix_rows(path)
    for key in ("subject_ids", "timeframes", "feature_names", "group_tags"):
        assert columnar[key] == per_row[key], key
    for key in ("values", "missing", "y"):
        assert columnar[key].dtype == per_row[key].dtype, key
        assert columnar[key].tobytes() == per_row[key].tobytes(), key
    assert columnar["missing"][:, :4].any() and np.array_equal(columnar["missing"], missing)


def per_cell_matrix_csv(matrix: FeatureMatrix, path) -> None:
    """The matrix file as one csv.writer call per row writes it: the writer
    that FeatureMatrix.to_csv's block formatter must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "timeframe",
                         *(f"{name}:{tag}" for name, tag in zip(matrix.feature_names, matrix.group_tags)),
                         "y_default"])
        for sid, frame, vals, gaps, label in zip(matrix.subject_ids, matrix.timeframes, matrix.values.tolist(),
                                                 matrix.missing.tolist(), matrix.y.tolist()):
            writer.writerow([sid, frame, *("" if gap else repr(v) for v, gap in zip(vals, gaps)), int(label)])


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_csv_text_is_the_per_cell_writers(tmp_path, rng, monkeypatch, workers):
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: workers)
    n, m = 4 * _CSV_BLOCK_ROWS + 37, 9
    values = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-20, 20, size=(n, m))
    values[:, 0] = [-0.0, 1e-300, 1e16, 0.1 + 0.2] * (n // 4) + [5e-324] * (n % 4)
    missing = rng.random((n, m)) < 0.02
    missing[_CSV_BLOCK_ROWS + 5] = True
    ids = [f"C{i:06d}" for i in range(n)]
    # keys csv.writer quotes, each in a block of its own and in a row without
    # an empty cell; blocks 1 and 3 are plain
    odd = [3, 2 * _CSV_BLOCK_ROWS + 4, n - 1]
    ids[odd[0]], ids[odd[1]], ids[odd[2]] = "a,b", 'say "hi"', "line\nbreak"
    missing[odd] = False
    matrix = FeatureMatrix(
        subject_ids=ids,
        timeframes=[f"t{1 + i % 3}" for i in range(n)],
        feature_names=["plain", "with,comma", *(f"f{j}" for j in range(m - 2))],
        group_tags=["SD", "CB", "LB", "PR", "SPA", "SD", "CB", "LB", "PR"],
        values=np.where(missing, 0.0, values),
        y=rng.random(n) < 0.3,
        missing=missing,
    )
    for name, written in (("all", matrix), ("none", matrix.select_columns([]))):
        written.to_csv(tmp_path / f"{name}.csv")
        per_cell_matrix_csv(written, tmp_path / f"{name}_oracle.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_oracle.csv").read_bytes(), name


MATRIX_HEAD = "subject_id,timeframe,a:SD,b:CB,y_default\ns1,t1,1.5,,0\n"


@pytest.mark.parametrize("text", [
    MATRIX_HEAD + "s9,t1,nan,,1\n",
    MATRIX_HEAD + "s9,,0.5,2,1\n",
    MATRIX_HEAD + "\"s,9\",t1,0.5,2,1\n",
    MATRIX_HEAD + "\ns9,t1,0.5,2,1\n",
    MATRIX_HEAD + "s9,t1,1_0,2,1\n",
    MATRIX_HEAD + "s9,t1,0.5,2,1.0\n",
], ids=["stored nan", "empty timeframe", "quoted id", "blank line", "underscore digits", "float target"])
def test_columnar_matrix_read_leaves_unusual_files_to_the_per_row_reader(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        _matrix_columns(path)

    def outcome(read):
        try:
            matrix = read(path)
        except DataError as exc:
            return str(exc)
        return (matrix.subject_ids, matrix.timeframes, matrix.values.tolist(), matrix.missing.tolist(),
                matrix.y.tolist())

    assert outcome(FeatureMatrix.from_csv) == outcome(lambda p: FeatureMatrix(**_matrix_rows(p)))


@pytest.mark.parametrize("text, wanted", [
    (MATRIX_HEAD + "s9,t1,0.5,1\n", "m.csv:3: expected 5 fields, got 4"),
    (MATRIX_HEAD + "s9,t1,0.5,abc,,1\n", "m.csv:3: expected 5 fields, got 6"),
    (MATRIX_HEAD + "s9,t1,0.5,abc,1\n", "m.csv:3: could not convert string to float: 'abc'"),
    (MATRIX_HEAD + "s9,t1,0.5,2,yes\n", "m.csv:3: y_default must be 0 or 1, not 'yes'"),
    (MATRIX_HEAD + "s9,t1,0.5,2,\n", "m.csv:3: y_default must be 0 or 1, not ''"),
    ("", "m.csv is not a feature matrix file"),
], ids=["short row", "long row", "non-numeric cell", "non-binary target", "empty target", "empty file"])
def test_matrix_csv_refuses_malformed_file(tmp_path, text, wanted):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=wanted):
        FeatureMatrix.from_csv(path)


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
