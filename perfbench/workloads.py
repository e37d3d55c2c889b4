"""Workload definitions: how each job acquires its graph, from one seed.

A workload seed fans out into named sub-seeds (graph, weights, pipeline,
query log, reference sample), so every input of a job is a pure function
of ``(workload, seed)`` and the program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Decomposition method each workload runs (``PipelineConfig.method``).
METHODS = {"social": "cluster", "road-weighted": "weighted"}

WORKLOADS = tuple(METHODS)

#: R-MAT scale / edge factor of ``social`` (Graph500 a/b/c are the defaults).
RMAT_SCALE = 16
RMAT_EDGE_FACTOR = 16

#: Grid of the ``road-weighted`` topology.
ROAD_ROWS = ROAD_COLS = 60

#: Uniform edge-weight range of ``road-weighted``.
WEIGHT_RANGE = (1.0, 10.0)


def derive_seed(seed: int, name: str) -> int:
    """A 32-bit sub-seed for the input called ``name`` of workload seed ``seed``."""
    state = np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    return int(state.generate_state(1, dtype=np.uint32)[0])


def acquire(workload: str, seed: int, span):
    """Build the workload's graph; ``span(name)`` wraps each acquisition call.

    ``social`` is the largest component of an R-MAT graph;
    ``road-weighted`` is a perturbed grid (its generator keeps the largest
    component itself) with uniform weights attached.
    """
    from repro.generators import attach_weights, rmat_graph, road_network_graph
    from repro.graph import largest_component

    graph_seed = derive_seed(seed, "graph")
    if workload == "social":
        with span("generators"):
            graph = rmat_graph(RMAT_SCALE, RMAT_EDGE_FACTOR, seed=graph_seed)
        with span("graph.lcc"):
            graph, _ = largest_component(graph)
        return graph
    if workload != "road-weighted":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    with span("generators"):
        graph = road_network_graph(ROAD_ROWS, ROAD_COLS, seed=graph_seed)
    low, high = WEIGHT_RANGE
    with span("generators.weights"):
        return attach_weights(
            graph, "uniform", low=low, high=high, seed=derive_seed(seed, "weights")
        )
