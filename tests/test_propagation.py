import pickle

import numpy as np
import pytest

from callscore.errors import ConvergenceError, DataError
from callscore.graph import NodeLabelSet, build_graph
from callscore.propagation import (
    exposure_cutoff,
    personalized_pagerank,
    relabel_high_risk,
    spreading_activation,
    uniform_restart,
)
from conftest import call, dense_pagerank_solve, neighbor_arrays, node_of, random_records, records_batch


def budget(tolerance: float, max_iterations: int) -> tuple:
    """(alpha or spread fraction, tolerance, max_iterations), with alpha and spread fraction 0.85."""
    return 0.85, tolerance, max_iterations


TIGHT = budget(1e-12, 5000)
SPREAD = budget(1e-6, 100)


def labels_for(graph, levels: dict):
    delinquency = np.full(graph.n_nodes, -1, dtype=np.int8)
    bank = np.zeros(graph.n_nodes, dtype=bool)
    for identity, level in levels.items():
        node = node_of(graph, identity)
        delinquency[node] = level
        bank[node] = True
    return NodeLabelSet(
        delinquency_level=delinquency,
        is_subject=np.zeros(graph.n_nodes, dtype=bool),
        is_bank_customer=bank,
        default_label=np.full(graph.n_nodes, -1, dtype=np.int8),
    )


def test_two_node_exact_solution():
    # xi_A = 0.15 / (1 - 0.85^2) = 20/37, xi_B = 17/37 for restart on A
    g = build_graph(records_batch([call("A", "B")]))
    result = personalized_pagerank(g, np.array([1.0, 0.0]), *TIGHT)
    assert result.scores == pytest.approx([20 / 37, 17 / 37], abs=1e-10)
    assert abs(result.scores.sum() - 1) < 1e-12


def test_uniform_restart_on_ring_is_uniform():
    n = 12
    g = build_graph(records_batch([call(f"N{i:02d}", f"N{(i + 1) % n:02d}") for i in range(n)]))
    result = personalized_pagerank(g, np.ones(n), *TIGHT)
    assert result.scores == pytest.approx(np.full(n, 1 / n), abs=1e-10)


def test_matches_dense_solve_on_random_graphs(rng):
    for k in range(15):
        mode = ("undirected", "outgoing", "incoming")[k % 3]
        g = build_graph(records_batch(random_records(rng, int(rng.integers(5, 60)), 150)), mode=mode)
        z = rng.random(g.n_nodes)
        z[z < 0.4] = 0.0
        if z.sum() == 0:
            z[0] = 1.0
        got = personalized_pagerank(g, z, *TIGHT).scores
        want = dense_pagerank_solve(g, z, alpha=0.85)
        assert np.abs(got - want).max() < 1e-8


def test_fixed_point_residual_bound(rng):
    g = build_graph(records_batch(random_records(rng, 25, 120)))
    z = uniform_restart(g.n_nodes, np.array([0, 1, 2]))
    result = personalized_pagerank(g, z, 0.85, 1e-9, 2000)
    # apply one more update by hand and check the L1 change stays in tolerance
    n = g.n_nodes
    push = np.zeros((n, n))
    for u in range(n):
        idx, w = neighbor_arrays(g, u)
        if w.sum() > 0:
            push[idx, u] = w / w.sum()
    one_more = 0.85 * push @ result.scores + 0.15 * z
    assert np.abs(one_more - result.scores).sum() <= 1e-9


def test_single_seed_path_scores_decay_with_distance():
    # interior seed: the stochastic normalization halves an endpoint's return
    # flow, so an endpoint seed would score below its own first neighbor
    n = 11
    g = build_graph(records_batch([call(f"N{i:02d}", f"N{i + 1:02d}") for i in range(n - 1)]))
    mid = n // 2
    z = np.zeros(n)
    z[node_of(g, f"N{mid:02d}")] = 1.0
    scores = personalized_pagerank(g, z, *TIGHT).scores
    left = [scores[node_of(g, f"N{i:02d}")] for i in range(mid, -1, -1)]
    right = [scores[node_of(g, f"N{i:02d}")] for i in range(mid, n)]
    for side in (left, right):
        assert all(a > b for a, b in zip(side, side[1:]))


def test_all_zero_restart_rejected():
    g = build_graph(records_batch([call("A", "B")]))
    with pytest.raises(DataError):
        personalized_pagerank(g, np.zeros(2), *TIGHT)


def test_nonconvergence_carries_residual():
    g = build_graph(records_batch([call("A", "B"), call("B", "C"), call("C", "A")]))
    with pytest.raises(ConvergenceError) as err:
        personalized_pagerank(g, np.array([1.0, 0, 0]), *budget(1e-15, 3))
    assert err.value.iterations == 3
    assert err.value.residual > 0


def test_convergence_error_survives_pickling():
    # a pool worker's error reaches the main process pickled
    back = pickle.loads(pickle.dumps(ConvergenceError("no luck", iterations=2, residual=1.1)))
    assert (type(back), str(back), back.iterations, back.residual) == (ConvergenceError, "no luck", 2, 1.1)


@pytest.mark.parametrize("args, message", [
    ((1.0, 1e-8, 10), "alpha"), ((0.85, 0.0, 10), "tolerance"), ((0.85, 1e-8, 0), "max_iterations"),
])
def test_walk_values_checked(args, message):
    g = build_graph(records_batch([call("A", "B")]))
    with pytest.raises(DataError, match=message):
        personalized_pagerank(g, np.array([1.0, 0.0]), *args)


@pytest.mark.parametrize("args, message", [
    ((0.0, 1e-6, 10), "spread_fraction"), ((0.85, -1.0, 10), "tolerance"), ((0.85, 1e-6, 0), "max_iterations"),
])
def test_spreading_values_checked(args, message):
    g = build_graph(records_batch([call("A", "B")]))
    with pytest.raises(DataError, match=message):
        spreading_activation(g, np.array([0]), *args)


def test_dangling_mass_returns_to_restart():
    g = build_graph(records_batch([call("A", "B")]), mode="outgoing")  # B has no outgoing edge
    result = personalized_pagerank(g, np.array([1.0, 0.0]), *TIGHT)
    assert abs(result.scores.sum() - 1) < 1e-12
    assert (result.scores > 0).all()


# ---------------------------------------------------------------------------
# Spreading activation.
# ---------------------------------------------------------------------------

def test_isolated_seed_keeps_energy_one_iteration():
    g = build_graph(records_batch([call("A", "B")]), mode="outgoing")  # B is dangling
    result = spreading_activation(g, np.array([node_of(g, "B")]), *SPREAD)
    assert result.iterations_run == 1
    expected = np.zeros(2)
    expected[node_of(g, "B")] = 1.0
    assert result.scores == pytest.approx(expected)


def test_one_round_transfer_split():
    g = build_graph(records_batch([call("A", "B")]))
    result = spreading_activation(g, np.array([node_of(g, "A")]), *budget(1e-6, 1))
    # sender keeps 0.15; the 0.85 delivered to B settles when iterations stop
    assert result.scores[node_of(g, "A")] == pytest.approx(0.15)
    assert result.scores[node_of(g, "B")] == pytest.approx(0.85)


def test_energy_conserved_every_iteration(rng):
    for k in range(15):
        mode = ("undirected", "outgoing", "incoming")[k % 3]
        g = build_graph(records_batch(random_records(rng, int(rng.integers(5, 50)), 140)), mode=mode)
        n_seeds = int(rng.integers(1, max(2, g.n_nodes // 3)))
        seeds = rng.choice(g.n_nodes, size=n_seeds, replace=False)
        result = spreading_activation(g, seeds, *SPREAD)
        assert result.energy_trace, "no iterations recorded"
        for total in result.energy_trace:
            assert abs(total - 1.0) < 1e-9
        assert abs(result.scores.sum() - 1.0) < 1e-9


def test_empty_seed_set_rejected():
    g = build_graph(records_batch([call("A", "B")]))
    with pytest.raises(DataError):
        spreading_activation(g, np.array([], dtype=int), *SPREAD)


def test_both_methods_bit_identical_on_repeat(rng):
    g = build_graph(records_batch(random_records(rng, 30, 150)))
    z = uniform_restart(g.n_nodes, np.array([0, 3, 5]))
    a = personalized_pagerank(g, z, *TIGHT).scores
    b = personalized_pagerank(g, z, *TIGHT).scores
    assert np.array_equal(a, b)
    sa = spreading_activation(g, np.array([0, 3, 5]), *SPREAD).scores
    sb = spreading_activation(g, np.array([0, 3, 5]), *SPREAD).scores
    assert np.array_equal(sa, sb)


# ---------------------------------------------------------------------------
# Cutoff and relabeling.
# ---------------------------------------------------------------------------

def exposure_of(scores):
    from callscore.propagation import ExposureVector

    return ExposureVector(scores=np.asarray(scores, float), method="PR",
                          iterations_run=1, residual=0.0)


def test_cutoff_is_min_over_three_arrears():
    g = build_graph(records_batch([call("A", "B"), call("B", "C")]))
    labels = labels_for(g, {"A": 3, "B": 3, "C": 0})
    scores = np.zeros(g.n_nodes)
    scores[node_of(g, "A")] = 0.9
    scores[node_of(g, "B")] = 0.4
    scores[node_of(g, "C")] = 0.1
    assert exposure_cutoff(exposure_of(scores), labels) == pytest.approx(0.4)


def test_cutoff_single_delinquent():
    g = build_graph(records_batch([call("A", "B")]))
    labels = labels_for(g, {"A": 3})
    scores = np.array([0.0, 0.0])
    scores[node_of(g, "A")] = 0.7
    assert exposure_cutoff(exposure_of(scores), labels) == pytest.approx(0.7)


def test_cutoff_requires_three_arrears_nodes():
    g = build_graph(records_batch([call("A", "B")]))
    labels = labels_for(g, {"A": 2})
    with pytest.raises(DataError, match="explicit cutoff"):
        exposure_cutoff(exposure_of([0.5, 0.1]), labels)


def test_relabel_boundaries():
    exp = exposure_of([0.6, 0.3])
    assert relabel_high_risk(exp, 0.5).high_risk.tolist() == [True, False]
    assert relabel_high_risk(exp, 0.0).high_risk.all()
    assert not relabel_high_risk(exp, 0.7).high_risk.any()
    assert relabel_high_risk(exp, 0.3).high_risk.tolist() == [True, True]  # at-cutoff is high
