"""Relational dependency of default labels: proportion test, dyadicity, heterophilicity.

All statistics are computed on the undirected graph restricted to nodes whose
default label is known; cross-label connectivity is compared against the
random-mixing expectation over node pairs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .graph import CallGraph
from .normal import ndtr


@dataclass
class HomophilyReport:
    n_default: int
    n_nondefault: int
    m_total: int
    m_cross: int
    m_dyadic: int
    expected_cross_fraction: float
    observed_cross_fraction: float
    z_statistic: float
    p_value: float
    dyadicity: float
    heterophilicity: float

    @property
    def classification(self) -> str:
        dyadic = "dyadic" if self.dyadicity > 1 else "not dyadic"
        hetero = "heterophilic" if self.heterophilicity < 1 else "not heterophilic"
        return f"{dyadic}, {hetero}"

    def to_json(self) -> str:
        payload = asdict(self)
        payload["classification"] = self.classification
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"labeled nodes: {self.n_default} default / {self.n_nondefault} non-default",
            f"edges among labeled nodes: {self.m_total} "
            f"(cross {self.m_cross}, default-default {self.m_dyadic})",
            f"cross-edge fraction: observed {self.observed_cross_fraction:.6f}, "
            f"expected {self.expected_cross_fraction:.6f}",
            f"one-tailed proportion test: z = {self.z_statistic:.4f}, p = {self.p_value:.6f}",
            f"dyadicity D = {self.dyadicity:.4f}, heterophilicity H = {self.heterophilicity:.4f}",
            f"classification: {self.classification}",
        ]
        return "\n".join(lines) + "\n"


def _edge_partition(graph: CallGraph, labels: np.ndarray):
    """Counts over edges whose endpoints both carry a known label."""
    if graph.mode != "undirected":
        raise DataError("homophily statistics require an undirected graph")
    labels = np.asarray(labels)
    if labels.shape != (graph.n_nodes,):
        raise DataError(f"labels must have length {graph.n_nodes}")
    known = labels >= 0
    src, dst, _ = graph.edges()
    both = known[src] & known[dst]
    ls = labels[src[both]]
    ld = labels[dst[both]]
    m_total = int(both.sum())
    m_dyadic = int(np.sum((ls == 1) & (ld == 1)))
    m_cross = int(np.sum(ls != ld))
    n1 = int(np.sum(labels[known] == 1))
    n0 = int(np.sum(labels[known] == 0))
    return n1, n0, m_total, m_cross, m_dyadic


def _mixing_ratios(n1: int, n0: int, m_total: int, m_cross: int, m_dyadic: int):
    """The cross-edge fraction expected under random label mixing, and the
    default-default (dyadicity) and cross-label (heterophilicity) edge counts
    relative to their random-mixing expectations; an undefined ratio is NaN."""
    if m_total == 0:
        raise DataError("no edges among labeled nodes")
    n = n1 + n0
    expected = (2 * n1 * n0) / (n * (n - 1))
    d = m_dyadic / (m_total * (n1 * (n1 - 1)) / (n * (n - 1))) if n1 >= 2 else float("nan")
    h = m_cross / (m_total * expected) if expected > 0 else float("nan")
    return expected, d, h


def dyadicity(graph: CallGraph, labels: np.ndarray) -> float:
    """Same-label (default) edge count relative to the random-mixing expectation."""
    partition = _edge_partition(graph, labels)
    if partition[0] < 2:
        raise DataError("dyadicity requires at least two defaulters")
    return _mixing_ratios(*partition)[1]


def heterophilicity(graph: CallGraph, labels: np.ndarray) -> float:
    """Cross-label edge count relative to the random-mixing expectation."""
    partition = _edge_partition(graph, labels)
    if partition[0] == 0 or partition[1] == 0:
        raise DataError("heterophilicity requires both labels present")
    return _mixing_ratios(*partition)[2]


def homophily_test(graph: CallGraph, labels: np.ndarray) -> HomophilyReport:
    """One-tailed proportion test for fewer cross-label edges than random mixing.

    The expected cross fraction under random label mixing is
    2 * n1 * n0 / (n * (n - 1)); the observed fraction is tested with a normal
    approximation using the expectation-based variance, and the p-value is the
    left tail (small p means homophily: cross-links are avoided).
    """
    n1, n0, m_total, m_cross, m_dyadic = _edge_partition(graph, labels)
    if n1 == 0 or n0 == 0:
        raise DataError("homophily test requires both labels present")
    expected, d, h = _mixing_ratios(n1, n0, m_total, m_cross, m_dyadic)
    observed = m_cross / m_total
    se = np.sqrt(expected * (1 - expected) / m_total)
    z = (observed - expected) / se if se > 0 else 0.0
    p = ndtr(float(z))
    return HomophilyReport(
        n_default=n1,
        n_nondefault=n0,
        m_total=m_total,
        m_cross=m_cross,
        m_dyadic=m_dyadic,
        expected_cross_fraction=float(expected),
        observed_cross_fraction=float(observed),
        z_statistic=float(z),
        p_value=p,
        dyadicity=float(d),
        heterophilicity=float(h),
    )
