"""Frozen pre-refactor CSR construction paths (reference implementations).

These are verbatim copies of the edge-folding code that lived in
``repro/graph/csr.py`` and ``repro/graph/builders.py`` before construction
moved onto one packed-key sort: the ``(min, max)`` canonicalization with
``np.unique`` + ``np.minimum.at`` + 2D ``lexsort`` behind ``from_edges``, the
lexsort dedup of ``symmetrize_edges``, and the ``subgraph`` that rebuilt its
rows through ``from_edges``.  They are kept in the test tree — like
``tests/weighted/frozen_heapq.py`` — so ``test_construction_equivalence.py``
and ``benchmarks/bench_kernels.py`` can pin the new build's arrays bit for bit
against the historical semantics.  Do not "improve" them.

Every function returns plain ``(indptr, indices, weights)`` arrays (or an
edge array) so comparisons never route through the code under test.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graph import kernels

CSRArrays = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def frozen_fold_undirected_edges(
    edge_array: np.ndarray,
    weight_array: Optional[np.ndarray],
    num_nodes: int,
) -> CSRArrays:
    """The pre-refactor ``_fold_undirected_edges``, verbatim."""
    n = num_nodes
    mask = edge_array[:, 0] != edge_array[:, 1]
    edge_array = edge_array[mask]
    if weight_array is not None:
        weight_array = weight_array[mask]
    if edge_array.size == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            None if weight_array is None else np.zeros(0, dtype=np.float64),
        )
    # Canonicalize to (min, max), fold duplicates, then mirror both ways.
    canonical = np.sort(edge_array, axis=1)
    keys = canonical[:, 0] * np.int64(n) + canonical[:, 1]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    unique_edges = np.stack([unique_keys // n, unique_keys % n], axis=1)
    both = np.concatenate([unique_edges, unique_edges[:, ::-1]], axis=0)
    both_weights = None
    if weight_array is not None:
        folded = np.full(unique_keys.size, np.inf)
        np.minimum.at(folded, inverse, weight_array)
        both_weights = np.concatenate([folded, folded])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    counts = np.bincount(both[:, 0], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    weights = None if both_weights is None else both_weights[order].copy()
    return indptr, both[:, 1].copy(), weights


def frozen_from_edges(
    edges, num_nodes: Optional[int] = None, *, weights=None
) -> CSRArrays:
    """The pre-refactor ``CSRGraph.from_edges`` input handling plus fold."""
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    edge_array = edge_array.astype(np.int64, copy=False)
    weight_array: Optional[np.ndarray] = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64).reshape(-1)
    inferred = int(edge_array.max()) + 1 if edge_array.size else 0
    n = inferred if num_nodes is None else int(num_nodes)
    return frozen_fold_undirected_edges(edge_array, weight_array, n)


def frozen_symmetrize_edges(edges: np.ndarray) -> np.ndarray:
    """The pre-refactor lexsort ``symmetrize_edges``, verbatim."""
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edge_array.size == 0:
        return edge_array
    both = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
    both = both[both[:, 0] != both[:, 1]]
    canonical = np.sort(both, axis=1)
    order = np.lexsort((canonical[:, 1], canonical[:, 0]))
    canonical = canonical[order]
    keep = np.ones(canonical.shape[0], dtype=bool)
    keep[1:] = np.any(canonical[1:] != canonical[:-1], axis=1)
    return canonical[keep]


def frozen_subgraph(graph, nodes: Iterable[int]) -> Tuple[CSRArrays, np.ndarray]:
    """The pre-refactor rebuild-through-``from_edges`` ``CSRGraph.subgraph``."""
    keep = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if keep.size and (keep.min() < 0 or keep.max() >= graph.num_nodes):
        raise IndexError("subgraph nodes out of range")
    new_id = -np.ones(graph.num_nodes, dtype=np.int64)
    new_id[keep] = np.arange(keep.size, dtype=np.int64)
    src, dst, pos = kernels.gather_neighbors(graph.indptr, graph.indices, keep)
    mask = new_id[dst] >= 0
    edges = np.stack([new_id[src[mask]], new_id[dst[mask]]], axis=1)
    sub_weights = None if graph.weights is None else graph.weights[pos[mask]]
    return frozen_from_edges(edges, num_nodes=keep.size, weights=sub_weights), keep


def frozen_largest_component(graph) -> Tuple[CSRArrays, np.ndarray]:
    """The pre-refactor ``largest_component`` (labels + rebuild subgraph)."""
    if graph.num_nodes == 0:
        return (graph.indptr, graph.indices, graph.weights), np.zeros(0, dtype=np.int64)
    labels = kernels.component_labels(graph.indptr, graph.indices, degrees=graph.degrees)
    sizes = np.bincount(labels)
    nodes = np.flatnonzero(labels == int(np.argmax(sizes)))
    return frozen_subgraph(graph, nodes)
