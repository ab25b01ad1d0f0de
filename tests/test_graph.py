from datetime import date

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.graph import build_graph, degree_distribution, load_graph, save_graph
from conftest import call, random_records


def test_undirected_merges_directions():
    records = [call("A", "B"), call("A", "B"), call("B", "A")]
    g = build_graph(records, mode="undirected")
    assert g.n_edges == 1
    assert g.edge_weight[0] == 3.0
    a, b = g.node("A"), g.node("B")
    assert g.neighbors(a) == [(b, 3.0)]
    assert g.neighbors(b) == [(a, 3.0)]


def test_outgoing_splits_directions():
    records = [call("A", "B"), call("A", "B"), call("B", "A")]
    g = build_graph(records, mode="outgoing")
    a, b = g.node("A"), g.node("B")
    assert g.neighbors(a) == [(b, 2.0)]
    assert g.neighbors(b) == [(a, 1.0)]


def test_incoming_neighbors_are_callers():
    g = build_graph([call("A", "B")], mode="incoming")
    a, b = g.node("A"), g.node("B")
    assert g.neighbors(b) == [(a, 1.0)]
    assert g.neighbors(a) == []


def test_empty_records_give_empty_graph():
    g = build_graph([], mode="undirected")
    assert g.n_nodes == 0
    assert g.n_edges == 0
    assert degree_distribution(g) == {}


def test_window_rejects_outside_records():
    records = [call("A", "B", month=5), call("A", "B", month=7)]
    g = build_graph(records, window=(date(2017, 5, 1), date(2017, 5, 31)))
    assert g.n_out_of_window == 1
    assert g.edge_weight.sum() == 1.0


def test_unknown_node_errors():
    g = build_graph([call("A", "B")])
    with pytest.raises(DataError):
        g.neighbors(5)
    with pytest.raises(DataError):
        g.node("missing")


def test_degree_distribution_cases():
    tri = build_graph([call("A", "B"), call("B", "C"), call("A", "C")])
    assert degree_distribution(tri) == {2: 3}
    star = build_graph([call("HUB", f"L{i}") for i in range(4)])
    assert degree_distribution(star) == {1: 4, 4: 1}
    assert sum(degree_distribution(star).values()) == star.n_nodes


def test_weight_conservation(rng):
    records = random_records(rng, 25, 200)
    out = build_graph(records, mode="outgoing")
    ud = build_graph(records, mode="undirected")
    assert out.total_weight == len(records)
    assert ud.total_weight == len(records)


def test_mode_duality(rng):
    records = random_records(rng, 20, 150)
    incoming = build_graph(records, mode="incoming")
    outgoing = build_graph(records, mode="outgoing")
    assert incoming.ids == outgoing.ids
    for node in range(incoming.n_nodes):
        reverse = sorted(
            (src, w) for src in range(outgoing.n_nodes)
            for dst, w in outgoing.neighbors(src) if dst == node
        )
        assert incoming.neighbors(node) == reverse


def test_build_is_order_invariant(rng):
    records = random_records(rng, 15, 120)
    g1 = build_graph(records, mode="undirected")
    shuffled = [records[i] for i in rng.permutation(len(records))]
    g2 = build_graph(shuffled, mode="undirected")
    assert g1.ids == g2.ids
    assert np.array_equal(g1.edge_src, g2.edge_src)
    assert np.array_equal(g1.edge_dst, g2.edge_dst)
    assert np.array_equal(g1.edge_weight, g2.edge_weight)


def test_neighbors_sorted_ascending(rng):
    g = build_graph(random_records(rng, 30, 300))
    for node in range(g.n_nodes):
        ids = [i for i, _ in g.neighbors(node)]
        assert ids == sorted(ids)
        assert node not in ids  # no self-loops


def test_duration_weighting():
    records = [call("A", "B", duration=30), call("A", "B", duration=12)]
    g = build_graph(records, weight_by="duration")
    assert g.edge_weight[0] == 42.0


def test_graph_round_trip(tmp_path, rng):
    g = build_graph(random_records(rng, 12, 60), mode="incoming", timeframe_id="t2")
    save_graph(g, tmp_path / "g")
    h = load_graph(tmp_path / "g")
    assert h.mode == g.mode
    assert h.ids == g.ids
    assert h.timeframe_id == "t2"
    assert np.array_equal(h.edge_src, g.edge_src)
    assert np.array_equal(h.indptr, g.indptr)
    assert np.allclose(h.weights, g.weights)
