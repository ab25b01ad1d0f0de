from datetime import date

import numpy as np
import pytest

from callscore.errors import DataError
from callscore.graph import MODES, build_graph, build_graphs, identity_order, load_graph, save_graph
from callscore.ingest import CdrBatch
from conftest import (
    call, neighbors, node_of, random_records, records_batch, reference_build_graph, reference_edges,
    total_weight,
)


def test_undirected_merges_directions():
    records = [call("A", "B"), call("A", "B"), call("B", "A")]
    g = build_graph(records_batch(records), mode="undirected")
    assert g.n_edges == 1
    assert g.edges()[2].tolist() == [3.0]
    a, b = node_of(g, "A"), node_of(g, "B")
    assert neighbors(g, a) == [(b, 3.0)]
    assert neighbors(g, b) == [(a, 3.0)]


def test_outgoing_splits_directions():
    records = [call("A", "B"), call("A", "B"), call("B", "A")]
    g = build_graph(records_batch(records), mode="outgoing")
    a, b = node_of(g, "A"), node_of(g, "B")
    assert neighbors(g, a) == [(b, 2.0)]
    assert neighbors(g, b) == [(a, 1.0)]


def test_incoming_neighbors_are_callers():
    g = build_graph(records_batch([call("A", "B")]), mode="incoming")
    a, b = node_of(g, "A"), node_of(g, "B")
    assert neighbors(g, b) == [(a, 1.0)]
    assert neighbors(g, a) == []


def test_empty_records_give_empty_graph():
    g = build_graph(records_batch([]), mode="undirected")
    assert g.n_nodes == 0
    assert g.n_edges == 0
    assert g.degrees().tolist() == []


def test_window_rejects_outside_records():
    records = [call("A", "B", month=5), call("A", "B", month=7)]
    g = build_graph(records_batch(records), window=(date(2017, 5, 1), date(2017, 5, 31)))
    assert g.n_out_of_window == 1
    assert total_weight(g) == 1.0


def test_unknown_node_errors():
    g = build_graph(records_batch([call("A", "B")]))
    with pytest.raises(DataError):
        neighbors(g, 5)
    with pytest.raises(DataError):
        node_of(g, "missing")


def test_degree_distribution_cases():
    tri = build_graph(records_batch([call("A", "B"), call("B", "C"), call("A", "C")]))
    assert tri.degrees().tolist() == [2, 2, 2]
    star = build_graph(records_batch([call("HUB", f"L{i}") for i in range(4)]))
    assert sorted(star.degrees().tolist()) == [1, 1, 1, 1, 4]
    assert len(star.degrees()) == star.n_nodes


def test_weight_conservation(rng):
    records = random_records(rng, 25, 200)
    out = build_graph(records_batch(records), mode="outgoing")
    ud = build_graph(records_batch(records), mode="undirected")
    assert total_weight(out) == len(records)
    assert total_weight(ud) == len(records)


def test_mode_duality(rng):
    records = random_records(rng, 20, 150)
    incoming = build_graph(records_batch(records), mode="incoming")
    outgoing = build_graph(records_batch(records), mode="outgoing")
    assert incoming.ids == outgoing.ids
    for node in range(incoming.n_nodes):
        reverse = sorted(
            (src, w) for src in range(outgoing.n_nodes)
            for dst, w in neighbors(outgoing, src) if dst == node
        )
        assert neighbors(incoming, node) == reverse


def test_build_is_order_invariant(rng):
    records = random_records(rng, 15, 120)
    g1 = build_graph(records_batch(records), mode="undirected")
    shuffled = [records[i] for i in rng.permutation(len(records))]
    g2 = build_graph(records_batch(shuffled), mode="undirected")
    assert g1.ids == g2.ids
    for got, want in zip(g1.edges(), g2.edges()):
        assert np.array_equal(got, want)


def test_neighbors_sorted_ascending(rng):
    g = build_graph(records_batch(random_records(rng, 30, 300)))
    for node in range(g.n_nodes):
        ids = [i for i, _ in neighbors(g, node)]
        assert ids == sorted(ids)
        assert node not in ids  # no self-loops


def test_duration_weighting():
    records = [call("A", "B", duration=30), call("A", "B", duration=12)]
    g = build_graph(records_batch(records), weight_by="duration")
    assert g.edges()[2].tolist() == [42.0]


@pytest.mark.parametrize("mode", MODES)
def test_graph_round_trip(tmp_path, rng, mode):
    batch = records_batch(random_records(rng, 12, 60))
    g = build_graph(batch, mode=mode, timeframe_id="t2")
    save_graph(g, tmp_path / "g")
    h = load_graph(tmp_path / "g")
    assert (h.mode, h.ids, h.timeframe_id, h.n_edges) == (g.mode, g.ids, "t2", g.n_edges)
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(h, name), getattr(g, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # edges.npy lists the per-pair aggregation of the calls, each edge once
    _, edges, _ = reference_edges(batch, None, mode, "count")
    assert np.array_equal(np.load(tmp_path / "g" / "edges.npy"), np.column_stack(edges))


def assert_same_graph(graph, reference):
    assert (graph.mode, graph.ids, graph.timeframe_id, graph.window, graph.n_out_of_window) == (
        reference.mode, reference.ids, reference.timeframe_id, reference.window, reference.n_out_of_window)
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(graph, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def shuffled_batch(rng, n_ids, n_calls):
    """Calls over identities whose codes are not in identity order, with
    repeated calls and calls in both directions between a pair."""
    ids = [f"N{j:03d}" for j in rng.permutation(n_ids)]
    a = rng.integers(0, n_ids, n_calls)
    b = (a + rng.integers(1, n_ids, n_calls)) % n_ids
    a, b = np.concatenate([a, a[:n_calls // 4], b[:n_calls // 5]]), np.concatenate([b, b[:n_calls // 4], a[:n_calls // 5]])
    m = len(a)
    return CdrBatch(736000 + rng.integers(0, 90, m), rng.integers(0, 86400, m), rng.integers(5, 900, m), a, b, ids)


@pytest.mark.parametrize("weight_by", ["count", "duration"])
def test_one_pass_graphs_match_per_mode_reference(rng, weight_by):
    windows = [None, (date.fromordinal(736010), date.fromordinal(736040)),
               (date.fromordinal(737000), date.fromordinal(737030))]  # the last holds no call
    batches = [shuffled_batch(rng, int(rng.integers(2, 60)), int(rng.integers(1, 400))) for _ in range(15)]
    batches.append(CdrBatch([], [], [], [], [], []))
    for batch in batches:
        order = identity_order(batch.ids)
        for window in windows:
            graphs = build_graphs(batch, window, weight_by, "t2", order)
            assert set(graphs) == set(MODES)
            for mode in MODES:
                reference = reference_build_graph(batch, window, mode, weight_by, "t2")
                assert_same_graph(graphs[mode], reference)
                _, edges, _ = reference_edges(batch, window, mode, weight_by)
                assert graphs[mode].n_edges == len(edges[0])
                for got, want in zip(graphs[mode].edges(), edges):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                assert_same_graph(build_graph(batch, window, mode, weight_by, "t2"), reference)


def test_load_graph_refuses_unsorted_edges(tmp_path):
    g = build_graph(records_batch([call("A", "B"), call("B", "C")]), mode="outgoing")
    save_graph(g, tmp_path / "g")
    edges = np.load(tmp_path / "g" / "edges.npy")
    np.save(tmp_path / "g" / "edges.npy", edges[::-1])
    with pytest.raises(DataError, match="sorted by"):
        load_graph(tmp_path / "g")


def test_load_graph_refuses_undirected_self_loop(tmp_path):
    g = build_graph(records_batch([call("A", "B"), call("B", "C")]), mode="undirected")
    save_graph(g, tmp_path / "g")
    # a file from outside the program: a loop at node 1 between the two edges
    np.save(tmp_path / "g" / "edges.npy", np.array([[0, 1, 1.0], [1, 1, 1.0], [1, 2, 1.0]]))
    with pytest.raises(DataError, match="does not list each edge once"):
        load_graph(tmp_path / "g")
