"""Compressed sparse weighted call networks aggregated over a date window.

A graph is built per (timeframe, mode). Modes: `outgoing` links caller to
callee, `incoming` stores the reverse so that neighbors(v) are v's callers,
and `undirected` merges both directions into one edge per pair. Edge weights
default to call counts; duration weighting is available but not the default.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError
from .ingest import CdrBatch, CdrRecord

logger = logging.getLogger(__name__)

MODES = ("incoming", "outgoing", "undirected")
MODE_ALIASES = {"in": "incoming", "out": "outgoing", "ud": "undirected"}


def canonical_mode(mode: str) -> str:
    mode = MODE_ALIASES.get(mode, mode)
    if mode not in MODES:
        raise DataError(f"unknown graph mode {mode!r}; expected one of {MODES + tuple(MODE_ALIASES)}")
    return mode


@dataclass
class CallGraph:
    """Sparse weighted graph over dense node ids with an identity bijection.

    `edge_src/edge_dst/edge_weight` store each edge exactly once (undirected
    edges with src < dst). `indptr/indices/weights` form the CSR traversal
    index: rows are senders in directed modes and symmetric when undirected.
    """

    mode: str
    ids: list
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    timeframe_id: str | None = None
    window: tuple | None = None
    n_out_of_window: int = 0
    _id_to_node: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._id_to_node:
            self._id_to_node = {identity: i for i, identity in enumerate(self.ids)}

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_weight)

    @property
    def total_weight(self) -> float:
        return float(self.edge_weight.sum())

    def node(self, identity: str) -> int:
        try:
            return self._id_to_node[identity]
        except KeyError:
            raise DataError(f"unknown identity {identity!r}") from None

    def identity(self, node: int) -> str:
        return self.ids[node]

    def has_identity(self, identity: str) -> bool:
        return identity in self._id_to_node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise DataError(f"unknown node id {node}")

    def neighbor_arrays(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and weights as array views, ascending by node id."""
        self._check_node(node)
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def neighbors(self, node: int) -> list:
        idx, w = self.neighbor_arrays(node)
        return [(int(i), float(x)) for i, x in zip(idx, w)]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _window_ordinals(window) -> tuple[int, int]:
    start, end = window
    if isinstance(start, date):
        start = start.toordinal()
    if isinstance(end, date):
        end = end.toordinal()
    if end < start:
        raise DataError("window end precedes window start")
    return int(start), int(end)


def build_graph(
    records: CdrBatch | Iterable[CdrRecord],
    window: tuple | None = None,
    mode: str = "undirected",
    weight_by: str = "count",
    timeframe_id: str | None = None,
) -> CallGraph:
    """Aggregate duration-filtered call records into one weighted graph.

    Nodes are exactly the identities appearing in a kept call; dense ids are
    assigned in sorted identity order, so the same record multiset always
    yields the same graph regardless of input order. Records outside the
    window (inclusive date range) are dropped and counted.
    """
    mode = canonical_mode(mode)
    if weight_by not in ("count", "duration"):
        raise DataError(f"weight_by must be 'count' or 'duration', got {weight_by!r}")
    if not isinstance(records, CdrBatch):
        records = CdrBatch.from_records(records)

    u = records.from_code
    v = records.to_code
    dur = records.duration
    n_out = 0
    if window is not None and len(u):
        lo, hi = _window_ordinals(window)
        keep = (records.date_ord >= lo) & (records.date_ord <= hi)
        n_out = int(len(keep) - keep.sum())
        u, v, dur = u[keep], v[keep], dur[keep]
        if n_out:
            logger.info("build_graph: %d records outside window dropped", n_out)

    # Remap surviving codes to dense ids ordered by identity string.
    used = np.unique(np.concatenate([u, v])) if len(u) else np.array([], dtype=np.int64)
    id_strings = [records.ids[c] for c in used]
    order = np.argsort(np.asarray(id_strings, dtype=object), kind="stable")
    ids = [id_strings[i] for i in order]
    remap = np.empty(len(records.ids) if len(records.ids) else 1, dtype=np.int64)
    remap[used[order]] = np.arange(len(used))
    if len(u):
        u = remap[u]
        v = remap[v]
    n = len(ids)

    if mode == "incoming":
        u, v = v, u
    if mode == "undirected":
        a = np.minimum(u, v)
        b = np.maximum(u, v)
        u, v = a, b

    if len(u):
        key = u.astype(np.int64) * n + v.astype(np.int64)
        uniq, inverse = np.unique(key, return_inverse=True)
        if weight_by == "count":
            w = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
        else:
            w = np.bincount(inverse, weights=dur.astype(np.float64), minlength=len(uniq))
        edge_src = (uniq // n).astype(np.int32)
        edge_dst = (uniq % n).astype(np.int32)
    else:
        edge_src = np.array([], dtype=np.int32)
        edge_dst = np.array([], dtype=np.int32)
        w = np.array([], dtype=np.float64)

    return _with_csr(mode, ids, edge_src, edge_dst, w, timeframe_id=timeframe_id,
                     window=window, n_out_of_window=n_out)


def _with_csr(mode: str, ids: list, edge_src, edge_dst, w, **extra) -> CallGraph:
    """A CallGraph over an edge list, with its CSR traversal index built.

    Undirected graphs index both directions of each edge for O(deg) scans.
    """
    if mode == "undirected" and len(edge_src):
        rows = np.concatenate([edge_src, edge_dst])
        cols = np.concatenate([edge_dst, edge_src])
        vals = np.concatenate([w, w])
    else:
        rows, cols, vals = edge_src, edge_dst, w
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    if len(rows):
        np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CallGraph(mode=mode, ids=ids, edge_src=edge_src, edge_dst=edge_dst, edge_weight=w,
                     indptr=indptr, indices=cols.astype(np.int32), weights=vals, **extra)


def neighbor_sum(graph: CallGraph, values) -> np.ndarray:
    """Per node, the sum of `values` over its CSR entries (one value per entry of `indices`)."""
    rows = np.repeat(np.arange(graph.n_nodes), graph.degrees())
    return np.bincount(rows, weights=values, minlength=graph.n_nodes)


def degree_distribution(graph: CallGraph) -> dict:
    """Histogram of traversal degree; counts sum to n_nodes."""
    degs = graph.degrees()
    values, counts = np.unique(degs, return_counts=True)
    return {int(d): int(c) for d, c in zip(values, counts)}


@dataclass
class NodeLabelSet:
    """Per-node role and delinquency labels aligned with a graph's dense ids.

    delinquency_level: months in arrears observed before scoring, capped at 3;
    -1 where unknown (telco-only nodes or bank customers without a card).
    default_label: 1/0 where a Basel default outcome is known, else -1.
    """

    delinquency_level: np.ndarray
    is_subject: np.ndarray
    is_bank_customer: np.ndarray
    default_label: np.ndarray

    def __post_init__(self):
        self.delinquency_level = np.asarray(self.delinquency_level, dtype=np.int8)
        self.is_subject = np.asarray(self.is_subject, dtype=bool)
        self.is_bank_customer = np.asarray(self.is_bank_customer, dtype=bool)
        self.default_label = np.asarray(self.default_label, dtype=np.int8)
        n = len(self.delinquency_level)
        if not (len(self.is_subject) == len(self.is_bank_customer) == len(self.default_label) == n):
            raise DataError("label arrays must share one length")
        if np.any(self.is_subject & ~self.is_bank_customer):
            raise DataError("every subject must be a bank customer")
        if np.any((self.delinquency_level >= 0) & ~self.is_bank_customer):
            raise DataError("delinquency is defined only for bank customers")

    @property
    def n_nodes(self) -> int:
        return len(self.delinquency_level)

    def delinquent_nodes(self, min_arrears: int) -> np.ndarray:
        """Nodes with at least `min_arrears` observed months in arrears."""
        if not 1 <= min_arrears <= 3:
            raise DataError("min_arrears must be 1, 2 or 3")
        return np.flatnonzero(self.delinquency_level >= min_arrears)


# ---------------------------------------------------------------------------
# Persistence: binary edge list + node index and a small meta sidecar.
# ---------------------------------------------------------------------------

def save_graph(graph: CallGraph, directory: str | Path) -> None:
    """Persist as edges.npy (src, dst, weight rows), nodes.txt and meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "edges.npy",
            np.column_stack([graph.edge_src, graph.edge_dst, graph.edge_weight]))
    with open(directory / "nodes.txt", "w") as fh:
        fh.writelines(f"{identity}\n" for identity in graph.ids)
    meta = {
        "mode": graph.mode,
        "timeframe_id": graph.timeframe_id,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_out_of_window": graph.n_out_of_window,
        "window": list(_window_ordinals(graph.window)) if graph.window else None,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_graph(directory: str | Path) -> CallGraph:
    directory = Path(directory)
    if not (directory / "meta.json").exists():
        raise DataError(f"no saved graph at {directory}")
    meta = json.loads((directory / "meta.json").read_text())
    triplets = np.load(directory / "edges.npy")
    return _with_csr(
        meta["mode"],
        (directory / "nodes.txt").read_text().splitlines(),
        triplets[:, 0].astype(np.int32),
        triplets[:, 1].astype(np.int32),
        triplets[:, 2].astype(np.float64),
        timeframe_id=meta.get("timeframe_id"),
        window=tuple(meta["window"]) if meta.get("window") else None,
        n_out_of_window=int(meta.get("n_out_of_window", 0)),
    )
