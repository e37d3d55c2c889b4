"""Quotient graphs of a clustering (unweighted and weighted variants).

Given a decomposition ``C`` of a graph ``G``, the quotient graph ``G_C`` has
one node per cluster and an edge between two clusters whenever ``G`` contains
an edge whose endpoints lie in the two clusters.  Section 4 of the paper uses
two variants:

* the **unweighted** quotient graph, whose diameter ``∆_C`` lower-bounds the
  true diameter and yields the upper bound
  ``∆' = 2·R_ALG2·(∆_C + 1) + ∆_C``;
* the **weighted** quotient graph, where the edge between clusters ``A`` and
  ``B`` is weighted with the length of the shortest path of ``G`` connecting
  the two cluster centers using only nodes of the two clusters (computed as
  ``min over crossing edges (a, b) of dist(a, center_A) + 1 + dist(b,
  center_B)``), yielding the tighter upper bound ``∆'' = 2·R_ALG2 + ∆'_C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.clustering import Clustering
from repro.graph import kernels
from repro.graph.csr import CSRGraph

__all__ = [
    "QuotientGraph",
    "build_quotient_graph",
    "quotient_apsp",
    "quotient_dijkstra",
    "quotient_diameter",
]


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient graph of a clustering, with optional per-arc weights.

    Attributes
    ----------
    graph:
        Cluster-level :class:`CSRGraph` (one node per cluster).
    weights:
        ``float64`` array aligned with ``graph.indices`` giving the weight of
        every stored arc, or ``None`` for the unweighted variant.
    """

    graph: CSRGraph
    weights: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def arc_weight(self, u: int, v: int) -> float:
        """Weight of arc ``(u, v)`` (1.0 for unweighted quotient graphs)."""
        row = self.graph.indices[self.graph.indptr[u]: self.graph.indptr[u + 1]]
        pos = np.searchsorted(row, v)
        if pos >= row.size or row[pos] != v:
            raise KeyError(f"no quotient edge between clusters {u} and {v}")
        if self.weights is None:
            return 1.0
        return float(self.weights[self.graph.indptr[u] + pos])


def build_quotient_graph(
    graph: CSRGraph, clustering: Clustering, *, weighted: bool = False
) -> QuotientGraph:
    """Construct the (optionally weighted) quotient graph of ``clustering``.

    The weight of the quotient edge ``{A, B}`` is
    ``min over G-edges (a, b) with a ∈ A, b ∈ B of
    dist(a, center_A) + 1 + dist(b, center_B)``
    where the distances are the growth distances recorded by the clustering
    (the exact quantity a distributed implementation has available).
    """
    if graph.num_nodes != clustering.num_nodes:
        raise ValueError("graph and clustering refer to different node sets")
    edges = graph.edge_array()
    cu = clustering.assignment[edges[:, 0]]
    cv = clustering.assignment[edges[:, 1]]
    cross = cu != cv
    path_len = None
    if weighted:
        crossing = edges[cross]
        path_len = (
            clustering.distance[crossing[:, 0]]
            + clustering.distance[crossing[:, 1]]
            + 1
        ).astype(np.float64)
    return quotient_from_crossings(cu[cross], cv[cross], clustering.num_clusters, path_len)


def quotient_from_crossings(
    cu: np.ndarray, cv: np.ndarray, num_clusters: int, path_len: Optional[np.ndarray] = None
) -> QuotientGraph:
    """Quotient graph whose edges are the crossing cluster pairs ``(cu[i], cv[i])``.

    With ``path_len`` (one length per crossing) a quotient edge weighs the
    minimum over its crossings: the min-weight fold of ``from_edges``.
    """
    graph = CSRGraph.from_edges(np.stack([cu, cv], axis=1), num_nodes=num_clusters, weights=path_len)
    hops = CSRGraph(indptr=graph.indptr, indices=graph.indices) if graph.is_weighted else graph
    return QuotientGraph(graph=hops, weights=graph.weights)


def quotient_apsp(quotient: QuotientGraph) -> np.ndarray:
    """All-pairs shortest-path matrix of a (small) quotient graph.

    Built entirely on the shared frontier kernels of
    :mod:`repro.graph.kernels` — the bit-parallel
    :func:`~repro.graph.kernels.msbfs_levels` sweep (64 sources per ``uint64``
    word, chunked by :func:`~repro.graph.kernels.msbfs_batch_size`) for the
    unweighted flavour, one exact bucketed delta-stepping relaxation per
    cluster for the weighted one — so the distance-oracle serving plane needs
    no external shortest-path dependency.  Entry ``(a, b)`` is ``float64``
    (``inf`` when the clusters lie in different components), matching the
    conventions of ``scipy.sparse.csgraph.shortest_path``, against which this
    function is bit-compat-tested.

    The quotient graph is small by construction (its size is chosen to fit
    the local memory of a single reducer), so the full sweep costs
    ``O(k/64 · (k + m_Q))`` OR-word work on ``k`` clusters — linear in the
    original graph for the oracle's ``k = O(sqrt(n))`` regime.
    """
    n = quotient.num_nodes
    if n == 0:
        return np.zeros((0, 0))
    indptr = quotient.graph.indptr
    indices = quotient.graph.indices
    weights = quotient.weights
    matrix = np.empty((n, n), dtype=np.float64)
    if weights is None:
        degrees = quotient.graph.degrees
        batch = kernels.msbfs_batch_size()
        for lo in range(0, n, batch):
            chunk = np.arange(lo, min(lo + batch, n), dtype=np.int64)
            hops = kernels.msbfs_levels(indptr, indices, chunk, degrees=degrees)
            block = hops.astype(np.float64)
            block[hops < 0] = np.inf
            matrix[lo : lo + chunk.size] = block
    else:
        for source in range(n):
            source_array = np.asarray([source], dtype=np.int64)
            row, _ = kernels.delta_stepping(indptr, indices, weights, source_array)
            matrix[source] = row
    return matrix


def quotient_dijkstra(quotient: QuotientGraph, source: int) -> np.ndarray:
    """Single-source shortest paths on a quotient graph (weighted or not).

    Runs the shared :func:`repro.graph.kernels.delta_stepping` relaxation on
    the quotient's CSR arrays (unit weights for the unweighted flavour): the
    quotient graph is small by construction (its size is chosen to fit the
    local memory of a single reducer), so this is exactly the "one round,
    single reducer" computation of Theorem 4.
    """
    n = quotient.num_nodes
    if not (0 <= source < n):
        raise IndexError("source out of range")
    weights = quotient.weights
    if weights is None:
        weights = np.ones(quotient.graph.indices.size, dtype=np.float64)
    dist, _ = kernels.delta_stepping(
        quotient.graph.indptr,
        quotient.graph.indices,
        weights,
        np.asarray([source], dtype=np.int64),
    )
    return dist


def quotient_diameter(quotient: QuotientGraph, *, method: str = "auto") -> float:
    """Exact diameter of a (connected) quotient graph.

    Parameters
    ----------
    method:
        ``"auto"`` runs the kernel-based :func:`quotient_apsp` matrix sweep
        when the graph has more than 256 nodes and the per-source loop below
        otherwise; ``"scipy"`` uses ``scipy.sparse.csgraph`` (kept as an
        optional external cross-check — scipy is not a dependency of any
        default path); ``"dijkstra"`` uses the pure-Python all-pairs Dijkstra
        above (the second cross-check used in the tests).

    Raises
    ------
    ValueError
        If the quotient graph is disconnected (the underlying graph was
        disconnected), since the diameter is infinite.
    """
    n = quotient.num_nodes
    if n == 0:
        raise ValueError("quotient graph is empty")
    if n == 1:
        return 0.0
    if method not in ("auto", "scipy", "dijkstra"):
        raise ValueError(f"unknown method {method!r}")
    if method == "scipy":
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        data = (
            quotient.weights
            if quotient.weights is not None
            else np.ones(quotient.graph.indices.size, dtype=np.float64)
        )
        matrix = csr_matrix(
            (data, quotient.graph.indices, quotient.graph.indptr), shape=(n, n)
        )
        if quotient.is_weighted:
            dist = shortest_path(matrix, method="D", directed=False)
        else:
            dist = shortest_path(matrix, method="D", directed=False, unweighted=True)
        finite = dist[np.isfinite(dist)]
        if finite.size != dist.size:
            raise ValueError("quotient graph is disconnected; diameter is infinite")
        return float(finite.max())
    if method == "auto" and n > 256:
        dist = quotient_apsp(quotient)
        if not np.all(np.isfinite(dist)):
            raise ValueError("quotient graph is disconnected; diameter is infinite")
        return float(dist.max())

    best = 0.0
    if quotient.is_weighted:
        for source in range(n):
            dist = quotient_dijkstra(quotient, source)
            if not np.all(np.isfinite(dist)):
                raise ValueError("quotient graph is disconnected; diameter is infinite")
            best = max(best, float(dist.max()))
    else:
        degrees = quotient.graph.degrees
        batch = kernels.msbfs_batch_size()
        for lo in range(0, n, batch):
            chunk = np.arange(lo, min(lo + batch, n), dtype=np.int64)
            hops = kernels.msbfs_levels(
                quotient.graph.indptr, quotient.graph.indices, chunk, degrees=degrees
            )
            if np.any(hops < 0):
                raise ValueError("quotient graph is disconnected; diameter is infinite")
            best = max(best, float(hops.max()))
    return best
