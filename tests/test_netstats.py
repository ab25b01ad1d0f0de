import numpy as np
import pytest

from callscore.errors import DataError
from callscore.graph import build_graph
from callscore.netstats import dyadicity, heterophilicity, homophily_test
from conftest import call, random_records, records_batch


def complete_graph(n):
    return build_graph(records_batch([call(f"N{i:02d}", f"N{j:02d}") for i in range(n) for j in range(i + 1, n)]))


def planted_graph(rng, n_per_block=30, p_in=0.25, p_out=0.02):
    records = []
    for i in range(2 * n_per_block):
        for j in range(i + 1, 2 * n_per_block):
            same = (i < n_per_block) == (j < n_per_block)
            if rng.random() < (p_in if same else p_out):
                records.append(call(f"N{i:03d}", f"N{j:03d}"))
    g = build_graph(records_batch(records))
    labels = np.array([int(g.ids[v][1:]) < n_per_block for v in range(g.n_nodes)], dtype=np.int8)
    return g, labels


def er_graph(rng, n=60, p=0.12, frac_pos=0.3):
    records = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                records.append(call(f"N{i:03d}", f"N{j:03d}"))
    g = build_graph(records_batch(records))
    labels = (rng.random(g.n_nodes) < frac_pos).astype(np.int8)
    if labels.sum() < 2:
        labels[:2] = 1
    if (labels == 0).sum() < 2:
        labels[-2:] = 0
    return g, labels


def test_complete_graph_half_half_is_neutral():
    g = complete_graph(8)
    labels = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
    report = homophily_test(g, labels)
    assert report.z_statistic == pytest.approx(0.0, abs=1e-12)
    assert report.observed_cross_fraction == pytest.approx(report.expected_cross_fraction)
    assert report.dyadicity == pytest.approx(1.0)
    assert report.heterophilicity == pytest.approx(1.0)


def test_planted_homophily_detected(rng):
    g, labels = planted_graph(rng)
    report = homophily_test(g, labels)
    assert report.p_value < 0.05
    assert report.observed_cross_fraction < report.expected_cross_fraction
    assert report.heterophilicity < 1


def test_random_labels_give_uniformish_p(rng):
    ps = []
    for k in range(300):
        g, labels = er_graph(np.random.default_rng(k), n=50, p=0.15)
        ps.append(homophily_test(g, labels).p_value)
    median = float(np.median(ps))
    assert 0.35 < median < 0.65


def test_dyadic_clique():
    # defaulters form a clique, the rest hang off one defaulter
    records = [call("D0", "D1"), call("D0", "D2"), call("D1", "D2")]
    records += [call("D0", f"G{i}") for i in range(6)]
    g = build_graph(records_batch(records))
    labels = np.array([1 if g.ids[v].startswith("D") else 0 for v in range(g.n_nodes)], dtype=np.int8)
    assert dyadicity(g, labels) > 1


def test_zero_dyadic_edges():
    records = [call("D0", "G0"), call("D1", "G1")]
    g = build_graph(records_batch(records))
    labels = np.array([1 if g.ids[v].startswith("D") else 0 for v in range(g.n_nodes)], dtype=np.int8)
    assert dyadicity(g, labels) == 0.0


def test_no_cross_edges_heterophilicity_zero():
    records = [call("D0", "D1"), call("G0", "G1")]
    g = build_graph(records_batch(records))
    labels = np.array([1 if g.ids[v].startswith("D") else 0 for v in range(g.n_nodes)], dtype=np.int8)
    assert heterophilicity(g, labels) == 0.0


def test_complete_bipartite_heterophilicity_closed_form():
    n1, n0 = 4, 6
    records = [call(f"D{i}", f"G{j}") for i in range(n1) for j in range(n0)]
    g = build_graph(records_batch(records))
    labels = np.array([1 if g.ids[v].startswith("D") else 0 for v in range(g.n_nodes)], dtype=np.int8)
    n = n1 + n0
    expected = 1.0 / (2 * n1 * n0 / (n * (n - 1)))  # all edges cross, m_total = m_cross
    assert heterophilicity(g, labels) == pytest.approx(expected)


def test_random_mixing_statistics_near_one(rng):
    ds, hs = [], []
    for k in range(200):
        g, labels = er_graph(np.random.default_rng(1000 + k), n=60, p=0.15)
        ds.append(dyadicity(g, labels))
        hs.append(heterophilicity(g, labels))
    assert abs(np.mean(ds) - 1) < 0.05
    assert abs(np.mean(hs) - 1) < 0.05


def test_label_permutation_null(rng):
    g, labels = planted_graph(rng)
    ds, hs = [], []
    for _ in range(1000):
        perm = rng.permutation(len(labels))
        ds.append(dyadicity(g, labels[perm]))
        hs.append(heterophilicity(g, labels[perm]))
    assert 0.95 <= np.mean(ds) <= 1.05
    assert 0.95 <= np.mean(hs) <= 1.05


def test_edge_partition_identity(rng):
    g, labels = er_graph(rng, n=40, p=0.2)
    report = homophily_test(g, labels)
    same_good = report.m_total - report.m_cross - report.m_dyadic
    assert same_good >= 0
    assert report.m_total == report.m_cross + report.m_dyadic + same_good


def test_edge_counts_match_brute_force_over_call_pairs(rng):
    # repeated calls and calls in both directions fold into one edge per pair
    records = random_records(rng, 40, 400)
    g = build_graph(records_batch(records))
    pairs = {frozenset((r.from_id, r.to_id)) for r in records}
    for _ in range(5):
        label = dict(zip(g.ids, rng.integers(-1, 2, g.n_nodes).tolist()))
        label[g.ids[0]], label[g.ids[1]] = 0, 1
        known = [sorted(label[i] for i in pair) for pair in pairs if all(label[i] >= 0 for i in pair)]
        report = homophily_test(g, np.array([label[i] for i in g.ids], dtype=np.int8))
        assert (report.m_total, report.m_cross, report.m_dyadic) == (
            len(known), known.count([0, 1]), known.count([1, 1]))


def test_unlabeled_nodes_excluded(rng):
    g, labels = er_graph(rng, n=40, p=0.2)
    masked = labels.copy()
    masked[:10] = -1
    report = homophily_test(g, masked)
    assert report.n_default + report.n_nondefault == int((masked >= 0).sum())


def test_classification_strings():
    g = complete_graph(6)
    labels = np.array([1, 1, 1, 0, 0, 0], dtype=np.int8)
    assert homophily_test(g, labels).classification == "not dyadic, not heterophilic"
    # remove-cross structure: two cliques
    records = [call(f"D{i}", f"D{j}") for i in range(3) for j in range(i + 1, 3)]
    records += [call(f"G{i}", f"G{j}") for i in range(3) for j in range(i + 1, 3)]
    records += [call("D0", "G0")]
    g2 = build_graph(records_batch(records))
    labels2 = np.array([1 if g2.ids[v].startswith("D") else 0 for v in range(g2.n_nodes)], dtype=np.int8)
    assert homophily_test(g2, labels2).classification == "dyadic, heterophilic"


def test_single_label_rejected():
    g = complete_graph(4)
    with pytest.raises(DataError):
        homophily_test(g, np.ones(4, dtype=np.int8))


def test_directed_graph_rejected(rng):
    g = build_graph(records_batch(random_records(rng, 10, 40)), mode="outgoing")
    with pytest.raises(DataError):
        homophily_test(g, np.zeros(g.n_nodes, dtype=np.int8))
