"""The packed-key CSR build is bit-identical to the frozen pre-refactor paths.

Every case builds one graph (or edge array) through the library and through
the verbatim reference in ``frozen_csr.py``, and the sweep compares
``indptr``, ``indices`` and ``weights`` array for array.  The cases cover
self-loops, repeated edges carrying different weights, isolated nodes, empty
inputs, ``n = 1``, ``subgraph`` on unsorted and duplicated node lists over
in-memory and mmap graphs, ``largest_component`` on R-MAT, and the streaming
builder.
"""

from __future__ import annotations

import numpy as np
import pytest

from frozen_csr import (  # rootless test layout: pytest puts this dir on sys.path
    frozen_from_edges,
    frozen_largest_component,
    frozen_subgraph,
    frozen_symmetrize_edges,
)
from repro.generators.rmat import rmat_graph
from repro.graph import csr as csr_module
from repro.graph.builders import symmetrize_edges
from repro.graph.components import largest_component
from repro.graph.csr import MAX_NODE_ID, CSRGraph
from repro.graph.ingest import from_edge_chunks
from repro.weighted.wgraph import WeightedCSRGraph


def _messy_edges(seed, num_edges, num_nodes):
    """Random edges plus self-loops and reversed repeats."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(num_edges, 2), dtype=np.int64)
    loops = np.repeat(rng.integers(0, num_nodes, size=(num_edges // 8 + 1, 1)), 2, axis=1)
    return np.vstack([edges, loops, edges[::3, ::-1], edges[::5]])


def _weights_for(edges, seed):
    """Weights on a coarse grid, so repeated edges often carry different ones."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 9, size=len(edges)) * 0.5


def _arrays(graph):
    return graph.indptr, graph.indices, graph.weights


def _from_edges_case(seed, num_edges, num_nodes, *, weighted, extra_nodes=0):
    def build(tmp_path):
        edges = _messy_edges(seed, num_edges, num_nodes)
        weights = _weights_for(edges, seed) if weighted else None
        n = None if not extra_nodes else num_nodes + extra_nodes
        got = CSRGraph.from_edges(edges, num_nodes=n, weights=weights)
        return _arrays(got), frozen_from_edges(edges, num_nodes=n, weights=weights)

    return build


def _literal_case(edges, num_nodes, weights=None):
    def build(tmp_path):
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        got = CSRGraph.from_edges(edge_array, num_nodes=num_nodes, weights=weights)
        return _arrays(got), frozen_from_edges(edge_array, num_nodes=num_nodes, weights=weights)

    return build


def _subgraph_case(seed, *, weighted, mmap):
    def build(tmp_path):
        edges = _messy_edges(seed, 600, 80)
        weights = _weights_for(edges, seed) if weighted else None
        graph = CSRGraph.from_edges(edges, num_nodes=90, weights=weights)
        if mmap:
            graph = CSRGraph.load(graph.save(tmp_path / "g.snap"), mmap=True)
            assert graph.mode == "mmap"
        rng = np.random.default_rng(seed + 100)
        nodes = rng.integers(0, graph.num_nodes, size=50)  # unsorted, with repeats
        sub, mapping = graph.subgraph(nodes)
        expected, expected_mapping = frozen_subgraph(graph, nodes)
        assert np.array_equal(mapping, expected_mapping)
        return _arrays(sub), expected

    return build


def _largest_component_case(seed, *, weighted):
    def build(tmp_path):
        graph = rmat_graph(14, 8, seed=seed, weights="uniform" if weighted else None)
        sub, mapping = largest_component(graph)
        expected, expected_mapping = frozen_largest_component(graph)
        assert np.array_equal(mapping, expected_mapping)
        return _arrays(sub), expected

    return build


def _streaming_case(seed, chunk, *, weighted):
    def build(tmp_path):
        edges = _messy_edges(seed, 700, 70)
        weights = _weights_for(edges, seed) if weighted else None

        def source():
            for lo in range(0, len(edges), chunk):
                yield edges[lo : lo + chunk], None if weights is None else weights[lo : lo + chunk]

        got = from_edge_chunks(source, snapshot_path=tmp_path / "s.snap")
        # A view of the mapped file, not a copy: the scatter wrote every row
        # sorted, so the constructor had nothing to re-sort.
        assert got.mode == "mmap" and not got.indices.flags.owndata
        return _arrays(got), frozen_from_edges(edges, weights=weights)

    return build


def _symmetrize_case(seed):
    def build(tmp_path):
        edges = _messy_edges(seed, 300, 40)
        return (symmetrize_edges(edges),), (frozen_symmetrize_edges(edges),)

    return build


CASES = {
    "from_edges/unweighted": _from_edges_case(0, 500, 60, weighted=False),
    "from_edges/weighted": _from_edges_case(1, 500, 60, weighted=True),
    "from_edges/isolated-tail": _from_edges_case(2, 200, 50, weighted=True, extra_nodes=7),
    "from_edges/dense-repeats": _from_edges_case(3, 2000, 12, weighted=True),
    "from_edges/empty": _literal_case([], None),
    "from_edges/empty-with-nodes": _literal_case([], 5, weights=[]),
    "from_edges/n1-self-loop": _literal_case([(0, 0)], 1),
    "from_edges/n1-weighted": _literal_case([(0, 0), (0, 0)], 1, weights=[2.0, 1.0]),
    "from_edges/only-loops": _literal_case([(1, 1), (3, 3)], None, weights=[1.0, 4.0]),
    "subgraph/memory-unweighted": _subgraph_case(4, weighted=False, mmap=False),
    "subgraph/memory-weighted": _subgraph_case(5, weighted=True, mmap=False),
    "subgraph/mmap-unweighted": _subgraph_case(6, weighted=False, mmap=True),
    "subgraph/mmap-weighted": _subgraph_case(7, weighted=True, mmap=True),
    "largest_component/rmat14": _largest_component_case(8, weighted=False),
    "largest_component/rmat14-weighted": _largest_component_case(9, weighted=True),
    "from_edge_chunks/unweighted": _streaming_case(10, 37, weighted=False),
    "from_edge_chunks/weighted": _streaming_case(11, 101, weighted=True),
    "symmetrize_edges/messy": _symmetrize_case(12),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_frozen_reference(case, tmp_path):
    got, expected = CASES[case](tmp_path)
    assert len(got) == len(expected)
    for array, reference in zip(got, expected):
        if reference is None:
            assert array is None
            continue
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


class TestPackedKeyLimit:
    def test_from_edges_rejects_node_id_above_limit(self):
        with pytest.raises(ValueError, match="2\\^31"):
            CSRGraph.from_edges(np.array([[0, MAX_NODE_ID + 1]]))

    def test_symmetrize_rejects_node_id_above_limit(self):
        with pytest.raises(ValueError, match="2\\^31"):
            symmetrize_edges(np.array([[MAX_NODE_ID + 1, 0]]))

    def test_largest_allowed_id_packs_without_overflow(self):
        edges = np.array([[MAX_NODE_ID, 0], [MAX_NODE_ID, 1]])
        assert np.array_equal(symmetrize_edges(edges), [[0, MAX_NODE_ID], [1, MAX_NODE_ID]])


def _nan_cycle():
    """A 4-cycle with one NaN weight: it made delta-stepping loop forever."""
    return np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), np.array([1.0, np.nan, 1.0, 1.0])


def _inf_edge():
    return np.array([[0, 1], [1, 2]]), np.array([1.0, np.inf])


@pytest.mark.parametrize("bad", [_nan_cycle, _inf_edge], ids=["nan-cycle", "inf-edge"])
class TestNonFiniteWeightsRejected:
    def test_from_edges(self, bad):
        edges, weights = bad()
        with pytest.raises(ValueError, match="finite"):
            CSRGraph.from_edges(edges, weights=weights)
        with pytest.raises(ValueError, match="finite"):
            WeightedCSRGraph.from_edges(edges, weights=weights)

    def test_raw_constructor(self, bad):
        edges, weights = bad()
        good = CSRGraph.from_edges(edges, weights=np.ones(len(edges)))
        arc_weights = good.weights.copy()
        arc_weights[np.argmax(good.indices == 2)] = weights[1]
        with pytest.raises(ValueError, match="finite"):
            CSRGraph(indptr=good.indptr, indices=good.indices, weights=arc_weights)
        with pytest.raises(ValueError, match="finite"):
            WeightedCSRGraph(indptr=good.indptr, indices=good.indices, weights=arc_weights)

    def test_from_edge_chunks(self, bad):
        edges, weights = bad()
        with pytest.raises(ValueError, match="finite"):
            from_edge_chunks(lambda: iter([(edges, weights)]))


def test_subgraph_keeps_raw_arcs_as_given():
    """``subgraph`` relabels and masks; it does not repair raw-constructor input.

    A raw graph with a one-way arc (0 -> 2), a self-loop (2 -> 2) and a
    repeated arc (3 -> 0 twice) keeps exactly those kept-row arcs, relabelled,
    with the weights carried along: no mirroring, no loop removal, no dedup.
    """
    raw = CSRGraph(
        indptr=np.array([0, 2, 2, 4, 7]),
        indices=np.array([1, 2, 2, 3, 0, 0, 2]),
        weights=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
    )
    sub, mapping = raw.subgraph([3, 0, 2, 0])
    assert np.array_equal(mapping, [0, 2, 3])
    assert np.array_equal(sub.indptr, [0, 1, 3, 6])
    assert np.array_equal(sub.indices, [1, 1, 2, 0, 0, 1])
    assert np.array_equal(sub.weights, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_blockwise_scan_matches_whole_array_scan(block, monkeypatch, tmp_path):
    """The constructor's id/weight/sortedness scan is exact across block seams."""
    monkeypatch.setattr(csr_module, "_SCAN_BLOCK", block)
    edges = _messy_edges(5, 300, 40)
    weights = _weights_for(edges, 5)
    graph = CSRGraph.from_edges(edges, weights=weights)
    expected = frozen_from_edges(edges, weights=weights)
    loaded = CSRGraph.load(graph.save(tmp_path / "g"))
    for built in (graph, CSRGraph(*expected), loaded):
        for array, reference in zip(_arrays(built), expected):
            assert np.array_equal(array, reference)

    # Reverse every row: the scan must see the descents and sort them back.
    rows = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    order = np.lexsort((-graph.indices, rows))
    assert csr_module._scan_arcs(graph.indptr, graph.indices, graph.weights)
    assert not csr_module._scan_arcs(graph.indptr, graph.indices[order], graph.weights)
    unsorted = CSRGraph(indptr=graph.indptr, indices=graph.indices[order], weights=graph.weights[order])
    assert np.array_equal(unsorted.indices, graph.indices)
    assert np.array_equal(unsorted.weights, graph.weights)

    # A bad id or weight in the last arc is caught whatever the block size.
    bad_ids = graph.indices.copy()
    bad_ids[-1] = graph.num_nodes
    with pytest.raises(ValueError, match="outside"):
        CSRGraph(indptr=graph.indptr, indices=bad_ids)
    bad_weights = graph.weights.copy()
    bad_weights[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=bad_weights)



def test_scan_keeps_copy_on_write_edits(tmp_path):
    """The scan must not release a private memmap's pages: its edits would be lost."""
    path = tmp_path / "indices.npy"
    np.save(path, np.array([0, 0]))
    indices = np.load(path, mmap_mode="c")
    indices[0] = 1  # private to this mapping; the file still holds 0
    graph = CSRGraph(indptr=np.array([0, 1, 2]), indices=indices)
    assert np.array_equal(indices, [1, 0])
    assert np.array_equal(graph.indices, [1, 0])
