"""Default-influence propagation over call graphs.

Two methods produce per-node exposure scores from a seed set of delinquent
customers: a personalized random walk with restart (power iteration on a
column-stochastic weight matrix) and an energy-spreading process in which an
active node keeps a (1 - d) share of its incoming energy and forwards the
rest along outgoing edges proportional to their weights. Both are
deterministic and conserve their respective mass.

The raw propagation update xi <- alpha * W * xi + (1 - alpha) * z diverges
whenever alpha times W's spectral radius reaches 1, so W is column-normalized
into a stochastic matrix first; a node with no outgoing weight hands its mass
back to the restart vector. With `sum(z) = 1` every iterate then sums to 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError
from .graph import CallGraph, neighbor_sum

logger = logging.getLogger(__name__)

METHOD_PAGERANK = "PR"
METHOD_SPREADING = "SPA"


@dataclass
class ExposureVector:
    """Per-node exposure scores plus provenance of the run that produced them."""

    scores: np.ndarray
    method: str
    iterations_run: int
    residual: float
    energy_trace: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.scores)


@dataclass
class RiskRelabeling:
    """Binary high/low-risk split of a network at an exposure cutoff."""

    cutoff: float
    high_risk: np.ndarray

    def __post_init__(self):
        self.high_risk = np.asarray(self.high_risk, dtype=bool)

    @property
    def n_high_risk(self) -> int:
        return int(self.high_risk.sum())


def _transition_operator(graph: CallGraph) -> tuple["sp.csr_matrix", np.ndarray]:
    """Column-stochastic propagation operator P and the dangling-node mask.

    P[j, i] is the share of node i's mass sent to j, i.e. P @ x pushes mass
    one hop along the graph's stored edge direction. Built on a graph's
    first propagation and kept on it, since a graph's arrays do not change.
    """
    if "_transition" in vars(graph):
        return graph._transition
    # imported on use, so that only a process that propagates loads scipy: in a
    # run, each exposure worker on its first graph
    import scipy.sparse as sp

    n = graph.n_nodes
    out_weight = neighbor_sum(graph, graph.weights)
    dangling = out_weight == 0
    share = graph.weights / np.repeat(np.where(dangling, 1.0, out_weight), graph.degrees())
    # node i's CSR row, read as column i, is the transpose
    push = sp.csc_matrix((share, graph.indices, graph.indptr), shape=(n, n)).tocsr()
    graph._transition = push, dangling
    return graph._transition


def _check_budget(tolerance: float, max_iterations: int) -> None:
    if tolerance <= 0:
        raise DataError("tolerance must be positive")
    if max_iterations < 1:
        raise DataError("max_iterations must be at least 1")


def personalized_pagerank(
    graph: CallGraph,
    restart: np.ndarray,
    alpha: float,
    tolerance: float,
    max_iterations: int,
) -> ExposureVector:
    """Exposure by power iteration with restart vector `restart` (>= 0, not all zero).

    `alpha` is the probability of following an edge rather than restarting.
    Returns scores summing to one whose one-step update moves by at most
    `tolerance` in L1 norm; the walk contracts by alpha per step, so the
    returned vector is within tolerance of the exact fixed point scaled by
    alpha / (1 - alpha). Raises ConvergenceError when the `max_iterations`
    budget runs out, carrying the last residual.
    """
    if not 0 < alpha < 1:
        raise DataError("alpha must lie in (0, 1)")
    _check_budget(tolerance, max_iterations)
    z = np.asarray(restart, dtype=np.float64)
    if z.shape != (graph.n_nodes,):
        raise DataError(f"restart vector must have length {graph.n_nodes}")
    if np.any(z < 0):
        raise DataError("restart vector must be non-negative")
    total = z.sum()
    if total <= 0:
        raise DataError("restart vector must have at least one positive entry")
    z = z / total

    push, dangling = _transition_operator(graph)
    xi = z.copy()
    for iteration in range(1, max_iterations + 1):
        lost = xi[dangling].sum() if dangling.any() else 0.0
        nxt = alpha * (push @ xi + lost * z) + (1 - alpha) * z
        residual = float(np.abs(nxt - xi).sum())
        xi = nxt
        if residual <= tolerance:
            return ExposureVector(
                scores=xi,
                method=METHOD_PAGERANK,
                iterations_run=iteration,
                residual=residual,
            )
    raise ConvergenceError(
        f"personalized pagerank did not converge in {max_iterations} iterations "
        f"(last residual {residual:.3e})",
        iterations=max_iterations,
        residual=residual,
    )


def spreading_activation(
    graph: CallGraph,
    seeds: np.ndarray,
    spread_fraction: float,
    tolerance: float,
    max_iterations: int,
) -> ExposureVector:
    """Exposure by energy spreading from `seeds` (node ids), for at most `max_iterations` rounds.

    Each seed starts with equal energy summing to one. Per round, every node
    holding at least `tolerance` of freshly received energy keeps (1 - d) and
    forwards d = `spread_fraction` along its outgoing weights; smaller parcels
    and energy on nodes without outgoing edges settle where they are. Total
    energy is conserved to float precision; `energy_trace` records the total
    after every round.
    """
    if not 0 < spread_fraction < 1:
        raise DataError("spread_fraction must lie in (0, 1)")
    _check_budget(tolerance, max_iterations)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise DataError("spreading activation requires a non-empty seed set")
    if seeds.min() < 0 or seeds.max() >= graph.n_nodes:
        raise DataError("seed node id out of range")
    if len(np.unique(seeds)) != len(seeds):
        raise DataError("duplicate seed node ids")

    push, dangling = _transition_operator(graph)
    d = spread_fraction
    settled = np.zeros(graph.n_nodes)
    active = np.zeros(graph.n_nodes)
    active[seeds] = 1.0 / len(seeds)
    trace = []
    iterations = 0
    residual = float(active.max())
    while iterations < max_iterations:
        spreading = (active >= tolerance) & ~dangling
        if not spreading.any():
            break
        iterations += 1
        parked = np.where(spreading, 0.0, active)
        moving = np.where(spreading, active, 0.0)
        settled += parked + (1 - d) * moving
        active = push @ (d * moving)
        residual = float(active.max()) if active.size else 0.0
        trace.append(float(settled.sum() + active.sum()))
    settled += active  # sub-threshold leftovers settle in place
    if iterations == 0:
        trace.append(float(settled.sum()))
        iterations = 1
    return ExposureVector(
        scores=settled,
        method=METHOD_SPREADING,
        iterations_run=iterations,
        residual=residual,
        energy_trace=tuple(trace),
    )


def exposure_cutoff(exposure: ExposureVector, labels) -> float:
    """Relabeling cutoff: the minimum exposure score among three-arrears delinquents."""
    nodes = labels.delinquent_nodes(3)
    if nodes.size == 0:
        raise DataError(
            "no delinquent customers with three or more arrears in the graph; "
            "supply an explicit cutoff instead"
        )
    return float(exposure.scores[nodes].min())


def relabel_high_risk(exposure: ExposureVector, cutoff: float) -> RiskRelabeling:
    """Split nodes into high risk (score >= cutoff) and low risk."""
    if not np.isfinite(cutoff):
        raise DataError("cutoff must be finite")
    high = exposure.scores >= cutoff
    logger.debug("relabel: %d of %d nodes high-risk at cutoff %.6g", high.sum(), len(high), cutoff)
    return RiskRelabeling(cutoff=float(cutoff), high_risk=high)


def uniform_restart(n_nodes: int, seed_nodes: np.ndarray) -> np.ndarray:
    """Restart vector with uniform mass on the seed set, zero elsewhere."""
    seed_nodes = np.asarray(seed_nodes, dtype=np.int64)
    if seed_nodes.size == 0:
        raise DataError("seed set is empty")
    z = np.zeros(n_nodes)
    z[seed_nodes] = 1.0 / len(seed_nodes)
    return z
