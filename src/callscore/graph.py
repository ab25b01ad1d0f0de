"""Compressed sparse weighted call networks aggregated over a date window.

A timeframe's calls give one graph per mode. Modes: `outgoing` links caller
to callee, `incoming` stores the reverse so that the CSR row of v holds v's callers,
and `undirected` merges both directions into one edge per pair. Edge weights
default to call counts; duration weighting is available but not the default.
A graph in memory is its CSR index; the edge list, each edge once, is derived
from it where it is needed (the saved `edges.npy` and the homophily counts).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import CdrBatch

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

    `indptr/indices/weights` form the CSR index, each row's columns
    ascending: rows are senders in directed modes (receivers when
    `incoming`), and an undirected graph holds each edge in both rows.
    `edges()` derives the edge list. A graph's arrays are not changed once
    built.
    """

    mode: str
    ids: list
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    timeframe_id: str | None = None
    window: tuple | None = None
    n_out_of_window: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2 if self.mode == "undirected" else len(self.indices)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, weight) with each edge once, sorted by (src, dst): the
        CSR entries themselves when directed, the upper triangle (src < dst)
        when undirected."""
        src = np.repeat(np.arange(self.n_nodes, dtype=np.int32), self.degrees())
        if self.mode != "undirected":
            return src, self.indices, self.weights
        upper = src < self.indices
        return src[upper], self.indices[upper], self.weights[upper]


def _window_ordinals(window) -> tuple[int, int]:
    start, end = window
    if isinstance(start, date):
        start = start.toordinal()
    if isinstance(end, date):
        end = end.toordinal()
    if end < start:
        raise DataError("window end precedes window start")
    return int(start), int(end)


def identity_order(ids: list) -> np.ndarray:
    """Identity codes 0..len(ids)-1 in sorted identity order."""
    return np.argsort(np.asarray(ids, dtype=object), kind="stable")


def build_graphs(
    batch: CdrBatch, window: tuple | None, weight_by: str, timeframe_id: str | None, order: np.ndarray,
) -> dict:
    """The graph of each mode over the calls in `window`, by mode.

    `order` is `identity_order(batch.ids)`. Nodes are exactly the identities
    appearing in a kept call, numbered in sorted identity order, so the same
    call multiset always yields the same graphs regardless of input order.
    Calls outside the window (an inclusive date range; None keeps every call)
    are dropped and counted. The calls are filtered, remapped and aggregated
    once, into the outgoing edges. Incoming edges are those reversed, and
    undirected edges their (min, max) fold with weights summed, which is
    exact while the weights are integer-valued.
    """
    if weight_by not in ("count", "duration"):
        raise DataError(f"weight_by must be 'count' or 'duration', got {weight_by!r}")
    u, v, dur = batch.from_code, batch.to_code, batch.duration
    n_out = 0
    if window is not None and len(u):
        lo, hi = _window_ordinals(window)
        keep = (batch.date_ord >= lo) & (batch.date_ord <= hi)
        n_out = int(len(keep) - keep.sum())
        u, v, dur = u[keep], v[keep], dur[keep]
        if n_out:
            logger.info("build_graphs: %d records outside window dropped", n_out)

    present = np.zeros(len(batch.ids), dtype=bool)
    present[u] = True
    present[v] = True
    codes = order[present[order]]
    ids = [batch.ids[c] for c in codes.tolist()]
    n = max(len(ids), 1)
    node = np.zeros(len(batch.ids), dtype=np.int64)
    node[codes] = np.arange(len(codes))

    keys, inverse = np.unique(node[u] * n + node[v], return_inverse=True)
    weights = dur.astype(np.float64) if weight_by == "duration" else None
    w = np.bincount(inverse, weights=weights, minlength=len(keys)).astype(np.float64)
    src, dst = (keys // n).astype(np.int32), (keys % n).astype(np.int32)
    back = np.argsort(dst.astype(np.int64) * n + src)
    pairs, pair = np.unique(np.minimum(src, dst).astype(np.int64) * n + np.maximum(src, dst),
                            return_inverse=True)
    edges = {
        "outgoing": (src, dst, w),
        "incoming": (dst[back], src[back], w[back]),
        "undirected": ((pairs // n).astype(np.int32), (pairs % n).astype(np.int32),
                       np.bincount(pair, weights=w, minlength=len(pairs)).astype(np.float64)),
    }
    return {mode: _with_csr(mode, ids, *edges[mode], timeframe_id=timeframe_id, window=window,
                            n_out_of_window=n_out)
            for mode in MODES}


def build_graph(
    batch: CdrBatch,
    window: tuple | None = None,
    mode: str = "undirected",
    weight_by: str = "count",
    timeframe_id: str | None = None,
) -> CallGraph:
    """The graph of one mode over the calls of `batch` in `window`; see `build_graphs`."""
    mode = canonical_mode(mode)
    return build_graphs(batch, window, weight_by, timeframe_id, identity_order(batch.ids))[mode]


def _with_csr(mode: str, ids: list, edge_src, edge_dst, w, **extra) -> CallGraph:
    """The CallGraph of an edge list sorted by (src, dst), held as its CSR index.

    A directed graph's CSR rows are its edge list itself. An undirected
    graph's index holds both directions of each edge for O(deg) scans; the
    mirrored half, sorted by its column, is merged in by a stable sort on
    the row, which leaves each row's columns ascending.
    """
    rows, cols, vals = edge_src, edge_dst, w
    if mode == "undirected" and len(edge_src):
        rows = np.concatenate([edge_dst, edge_src])
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        cols = np.concatenate([edge_src, edge_dst])[order]
        vals = np.concatenate([w, w])[order]
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(ids)), out=indptr[1:])
    return CallGraph(mode=mode, ids=ids, indptr=indptr, indices=cols, weights=vals, **extra)


def neighbor_sum(graph: CallGraph, values) -> np.ndarray:
    """Per node, the sum of `values` over its CSR entries (one value per entry of `indices`)."""
    rows = np.repeat(np.arange(graph.n_nodes), graph.degrees())
    return np.bincount(rows, weights=values, minlength=graph.n_nodes)


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
    """Persist as edges.npy (the `edges()` rows: src, dst, weight), nodes.txt and meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "edges.npy", np.column_stack(graph.edges()))
    (directory / "nodes.txt").write_text("\n".join([*graph.ids, ""]))
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
    ids = (directory / "nodes.txt").read_text().splitlines()
    src, dst = triplets[:, 0].astype(np.int32), triplets[:, 1].astype(np.int32)
    key = src.astype(np.int64) * max(len(ids), 1) + dst
    if np.any(key[1:] <= key[:-1]) or (meta["mode"] == "undirected" and np.any(src >= dst)):
        raise DataError(f"{directory / 'edges.npy'} does not list each edge once, sorted by (src, dst)")
    return _with_csr(
        meta["mode"],
        ids,
        src,
        dst,
        triplets[:, 2].astype(np.float64),
        timeframe_id=meta.get("timeframe_id"),
        window=tuple(meta["window"]) if meta.get("window") else None,
        n_out_of_window=int(meta.get("n_out_of_window", 0)),
    )
