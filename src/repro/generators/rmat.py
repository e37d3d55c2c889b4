"""R-MAT (recursive matrix) generator.

R-MAT graphs reproduce the skewed degree distributions and community-like
structure of large social graphs and are the standard synthetic stand-in for
crawled networks such as the paper's Twitter subgraph (Graph500 uses the same
model).  We generate directed samples and symmetrize them, mirroring the
paper's preprocessing of the Twitter crawl.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.generators.weights import maybe_attach_weights
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["rmat_graph"]


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    connected_only: bool = False,
    weights: Optional[str] = None,
    weight_range: Tuple[float, float] = (1.0, 10.0),
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` nodes.

    Parameters
    ----------
    scale:
        log2 of the number of nodes.
    edge_factor:
        Number of sampled (directed) edges per node.
    a, b, c:
        Quadrant probabilities (the fourth is ``1 - a - b - c``); defaults are
        the Graph500 parameters.
    connected_only:
        If True, return the largest connected component only (relabelled).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if edge_factor < 1:
        raise ValueError("edge_factor must be >= 1")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative and sum to <= 1")
    rng = as_rng(seed)
    num_nodes = 1 << scale
    num_samples = num_nodes * edge_factor

    src = np.zeros(num_samples, dtype=np.int64)
    dst = np.zeros(num_samples, dtype=np.int64)
    # Recursively descend the adjacency matrix one bit per level, vectorized
    # over all sampled edges at once.
    for level in range(scale):
        r = rng.random(num_samples)
        right = (r >= a + c).astype(np.int64)        # choose the right half (column bit)
        # probability of the bottom half depends on which column half was chosen
        bottom_prob = np.where(right == 1, d / max(b + d, 1e-12), c / max(a + c, 1e-12))
        bottom = (rng.random(num_samples) < bottom_prob).astype(np.int64)
        bit = np.int64(1) << np.int64(scale - 1 - level)
        src += bottom * bit
        dst += right * bit

    # from_edges folds both directions, which is the symmetrization itself.
    graph = CSRGraph.from_edges(np.stack([src, dst], axis=1), num_nodes=num_nodes)
    if connected_only:
        from repro.graph.components import largest_component

        graph, _ = largest_component(graph)
    return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=rng)
