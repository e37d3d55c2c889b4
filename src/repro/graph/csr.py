"""Compressed-sparse-row graph representation — the single array-backed core.

The whole library operates on undirected graphs stored in CSR
(adjacency-array) form, which is both the natural in-memory layout for
vectorized NumPy frontier expansion and the closest analogue to the
edge-partitioned representation a MapReduce/Spark implementation would use.

:class:`CSRGraph` is the one substrate: ``indptr``/``indices`` plus an
*optional* aligned ``weights`` array.  The weighted stack
(:class:`~repro.weighted.wgraph.WeightedCSRGraph`) is a thin subclass that
makes the weights mandatory and adds weight-flavoured accessors; construction,
validation (including the per-node sorted-``indices`` invariant that the
binary-search lookups rely on, with weights permuted alongside), self-loop
removal, duplicate folding (min weight wins), and IO are all shared here.

Construction packs each arc into one ``int64`` key ``u << 32 | v`` (node ids
up to ``MAX_NODE_ID`` = 2^31 - 1) and sorts once; :func:`fold_edge_keys` is
shared with the streaming ingest plane and ``symmetrize_edges``.

Nodes are integers ``0 .. n-1``.  Edges are stored twice (once per endpoint),
self-loops and parallel edges are removed at construction time.

The substrate is storage-agnostic: the arrays may live in RAM or be read-only
``np.memmap`` views over an on-disk snapshot
(:mod:`repro.graph.snapshot` — see :meth:`CSRGraph.load` /
:meth:`CSRGraph.save`), distinguished by the :attr:`CSRGraph.mode` surface
(``"in_memory"`` / ``"mmap"``).  Every kernel and consumer treats the arrays
as read-only, so mmap-backed graphs flow through decomposition, the MR plane,
and the oracle builder unchanged; anything that needs a private mutable copy
must take one explicitly (copy-on-write stays the caller's choice).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.graph import kernels
from repro.utils.validation import check_node_index

__all__ = ["CSRGraph"]


#: Node ids must fit the packed ``u << 32 | v`` int64 edge key.
MAX_NODE_ID = (1 << 31) - 1

_LOW32 = np.int64(0xFFFFFFFF)

#: Arcs per block of the construction-time scan (bounds its temporaries).
_SCAN_BLOCK = 1 << 20


def release_pages(array: np.ndarray) -> None:
    """Drop the resident pages of a shared-memmap-backed array or view (best effort).

    The data stays in the page cache, so later reads fault it back in.  Other
    arrays, copy-on-write memmaps included (their private pages would be
    lost), are left alone.
    """
    owner = array
    while owner is not None and not isinstance(owner, mmap.mmap):
        if isinstance(owner, np.memmap) and owner.mode == "c":
            return
        owner = getattr(owner, "base", None)
    if owner is None or array.nbytes == 0:
        return
    start = array.ctypes.data - np.frombuffer(owner, dtype=np.uint8).ctypes.data
    aligned = start - start % mmap.PAGESIZE
    try:
        owner.madvise(mmap.MADV_DONTNEED, aligned, start + array.nbytes - aligned)
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        pass


def check_edge_weights(weights: np.ndarray) -> None:
    """Reject weights that are not finite and strictly positive (NaN fails both tests)."""
    if weights.size and not (weights.min() > 0 and weights.max() < np.inf):
        raise ValueError("edge weights must be finite and strictly positive")


def checked_edges(edges, weights=None) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Validated ``(int64 (m, 2) edges, float64 weights or None, largest id or -1)``.

    Ids must be non-negative and fit the packed key; weights must align.
    """
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edge_array.shape}")
    edge_array = edge_array.astype(np.int64, copy=False)
    if weights is not None:
        weights = np.asarray(
            list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64
        ).reshape(-1)
        if edge_array.shape[0] != weights.shape[0]:
            raise ValueError("edges and weights must have the same length")
        check_edge_weights(weights)
    if edge_array.size and edge_array.min() < 0:
        raise ValueError("edge endpoints must be non-negative")
    max_id = int(edge_array.max()) if edge_array.size else -1
    if max_id > MAX_NODE_ID:
        raise ValueError(f"node id {max_id} exceeds the 2^31 - 1 limit of the packed edge key")
    return edge_array, weights, max_id


def edge_keys(
    edges: np.ndarray, weights: Optional[np.ndarray] = None, *, mirror: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Packed keys of the non-loop edges of a checked ``(m, 2)`` int64 array.

    One canonical key ``min << 32 | max`` per edge, or with ``mirror`` one key
    ``u << 32 | v`` per arc, both directions (weights duplicated alongside).
    """
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    if not mirror:
        keys = (np.minimum(u, v) << 32) | np.maximum(u, v)
    else:
        keys = np.empty(2 * u.size, dtype=np.int64)
        for half, (row, col) in ((keys[: u.size], (u, v)), (keys[u.size :], (v, u))):
            np.left_shift(row, 32, out=half)
            half |= col
        keep = np.concatenate([keep, keep])
        weights = None if weights is None else np.concatenate([weights, weights])
    if keep.all():
        return keys, weights
    return keys[keep], None if weights is None else weights[keep]


def split_edge_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(u, v)`` endpoint arrays of packed keys ``u << 32 | v``."""
    return keys >> 32, keys & _LOW32


def fold_edge_keys(
    keys: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort packed keys and fold repeats, the minimum weight winning.

    Returns strictly increasing keys and their weights.  Unweighted keys are
    sorted in place.  The argsort need not be stable: a minimum does not
    depend on order.
    """
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if weights is not None and keys.size:
        weights = np.minimum.reduceat(weights, np.flatnonzero(first))
    return keys[first], weights


def _scan_arcs(indptr: np.ndarray, indices: np.ndarray, weights: Optional[np.ndarray]) -> bool:
    """Check every arc's node id and weight; return whether all rows are sorted.

    Memmap pages are released block by block: opening a snapshot stays lean.
    """
    n = indptr.size - 1
    starts = indptr[1:-1]
    rows_sorted = True
    for lo in range(0, indices.size, _SCAN_BLOCK):
        # One arc of overlap with the next block, so every adjacent pair is seen.
        block = indices[lo : lo + _SCAN_BLOCK + 1]
        if block.min() < 0 or block.max() >= n:
            raise ValueError("indices contain node ids outside [0, num_nodes)")
        if rows_sorted and block.size > 1:
            # descending[i] flags block[i + 1] < block[i]; a row start may
            # descend, so those flags are cleared before asking.
            descending = block[1:] < block[:-1]
            first = np.searchsorted(starts, lo + 1)
            last = np.searchsorted(starts, lo + block.size - 1, side="right")
            descending[starts[first:last] - lo - 1] = False
            rows_sorted = not descending.any()
        release_pages(block)
        if weights is not None:
            weight_block = weights[lo : lo + _SCAN_BLOCK]
            check_edge_weights(weight_block)
            release_pages(weight_block)
    return rows_sorted


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form (optionally edge-weighted).

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; the neighbours of node
        ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of length ``2 * num_edges`` holding neighbour ids,
        sorted within each node's slice.  Raw-constructor inputs violating the
        per-node sort order are sorted at construction time (weights are
        permuted alongside), so the invariant relied upon by ``has_edge``'s
        binary search always holds.
    weights:
        Optional ``float64`` array aligned with ``indices``: ``weights[p]`` is
        the strictly positive weight of the arc stored at position ``p`` (both
        copies of an undirected edge carry the same weight).  ``None`` marks a
        purely unweighted graph.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=np.int64))
        indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have length num_nodes + 1 >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        weights = self.weights
        if weights is not None:
            weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
            if weights.shape != indices.shape:
                raise ValueError("weights must be aligned with indices")
        # Enforce the documented invariant that every node's neighbour slice is
        # sorted (``has_edge`` / ``edge_weight`` binary-search it): inputs built
        # via the raw constructor with unsorted rows are sorted here, once,
        # with any weights permuted alongside.
        if indices.size and not _scan_arcs(indptr, indices, weights):
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            order = np.argsort((rows << 32) | indices, kind="stable")
            indices = indices[order]
            if weights is not None:
                weights = weights[order]
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_edges(
        cls,
        edges: "np.ndarray | Sequence[Tuple[int, int]]",
        num_nodes: Optional[int] = None,
        *,
        weights: "np.ndarray | Sequence[float] | None" = None,
    ) -> "CSRGraph":
        """Build a graph from an ``(m, 2)`` edge array (or list of pairs).

        The input is treated as undirected: each edge is inserted in both
        directions; self-loops are dropped.  Without ``weights`` duplicate
        edges are removed; with ``weights`` (a length-``m`` array of finite,
        strictly positive values) duplicates keep the minimum weight.
        Endpoints must not exceed ``MAX_NODE_ID`` (2^31 - 1).

        Parameters
        ----------
        edges:
            Array-like of shape ``(m, 2)`` with integer endpoints.
        num_nodes:
            Number of nodes.  Defaults to ``max endpoint + 1`` (0 for an empty
            edge list), and may be larger to include isolated nodes.
        weights:
            Optional per-edge weights aligned with ``edges``.
        """
        edge_array, weight_array, max_id = checked_edges(edges, weights)
        n = max_id + 1 if num_nodes is None else int(num_nodes)
        if n <= max_id:
            raise ValueError(
                f"num_nodes={n} is smaller than the largest endpoint + 1 ({max_id + 1})"
            )
        # Key order is (row, column) order: the folded keys are the CSR rows,
        # and row r starts at the first key >= r << 32.  Weighted repeats
        # fold on canonical keys first, so the mirrored argsort sees each once.
        keys, folded = fold_edge_keys(
            *edge_keys(edge_array, weight_array, mirror=weight_array is None)
        )
        if folded is not None:
            u, v = split_edge_keys(keys)
            keys, folded = fold_edge_keys(
                np.concatenate([keys, (v << 32) | u]), np.concatenate([folded, folded])
            )
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32)
        keys &= _LOW32
        return cls(indptr=indptr, indices=keys, weights=folded)

    @classmethod
    def empty(cls, num_nodes: int = 0) -> "CSRGraph":
        """Graph with ``num_nodes`` isolated nodes and no edges."""
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        weights = np.zeros(0, dtype=np.float64) if cls._weights_required() else None
        return cls(
            indptr=np.zeros(num_nodes + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            weights=weights,
        )

    @classmethod
    def _weights_required(cls) -> bool:
        """Whether this class mandates a weights array (overridden weighted)."""
        return False

    # ------------------------------------------------------------------ #
    # Snapshot IO (out-of-core storage surface)
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path, *, mmap: bool = True, verify=False) -> "CSRGraph":
        """Open a graph snapshot written by :meth:`save` / the ingest plane.

        With ``mmap=True`` (default) the CSR arrays are read-only
        ``np.memmap`` views and the graph reports ``mode == "mmap"``; with
        ``mmap=False`` they are materialized in RAM.  The returned class
        matches the file contents (weighted snapshots yield
        :class:`~repro.weighted.wgraph.WeightedCSRGraph`), independent of the
        class this is called on.
        """
        from repro.graph.snapshot import load_snapshot

        return load_snapshot(path, mmap=mmap, verify=verify)

    def save(self, path) -> "Path":  # noqa: F821 - forward ref to pathlib.Path
        """Write this graph as an atomic on-disk snapshot; returns the path."""
        from repro.graph.snapshot import save_snapshot

        return save_snapshot(self, path)

    @property
    def mode(self) -> str:
        """``"mmap"`` when any CSR array is a view over an ``np.memmap``."""
        for array in (self.indptr, self.indices, self.weights):
            candidate = array
            while candidate is not None:
                if isinstance(candidate, np.memmap):
                    return "mmap"
                candidate = getattr(candidate, "base", None)
        return "in_memory"

    def materialize(self) -> "CSRGraph":
        """An in-memory copy of this graph (no-op copy for in-memory graphs)."""
        return type(self)(
            indptr=np.array(self.indptr, dtype=np.int64),
            indices=np.array(self.indices, dtype=np.int64),
            weights=None if self.weights is None else np.array(self.weights, dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (each counted once)."""
        return int(self.indices.size // 2)

    @property
    def num_directed_edges(self) -> int:
        """Number of stored arcs (``2m``)."""
        return int(self.indices.size)

    @property
    def is_weighted(self) -> bool:
        """True when the graph carries an edge-weight array."""
        return self.weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Read-only per-node degree array (``np.diff(indptr)``), cached.

        Computed lazily on first access and reused by every frontier kernel
        caller — the per-level direction heuristics read it constantly.  The
        cache lives on the instance (the frozen dataclass still has a
        ``__dict__``), so mmap-backed and in-memory graphs both pay the
        ``np.diff`` exactly once; derived graphs (``materialize()``,
        ``unweighted()``, ``subgraph()``) are new instances with fresh caches.
        """
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = np.diff(self.indptr)
            cached.flags.writeable = False
            object.__setattr__(self, "_degrees", cached)
        return cached

    def degree(self, node: Optional[int] = None) -> "np.ndarray | int":
        """Degree of ``node``, or the full degree array if ``node`` is None."""
        if node is None:
            return self.degrees
        idx = check_node_index(node, self.num_nodes)
        return int(self.indptr[idx + 1] - self.indptr[idx])

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of the neighbour ids of ``node``."""
        idx = check_node_index(node, self.num_nodes)
        view = self.indices[self.indptr[idx] : self.indptr[idx + 1]]
        view.flags.writeable = False
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """True if the undirected edge ``{u, v}`` is present."""
        ui = check_node_index(u, self.num_nodes, "u")
        vi = check_node_index(v, self.num_nodes, "v")
        row = self.indices[self.indptr[ui] : self.indptr[ui + 1]]
        pos = np.searchsorted(row, vi)
        return bool(pos < row.size and row[pos] == vi)

    def edge_list(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(edge_array, weights_or_None)`` with each undirected edge once (``u < v``).

        The single place where per-arc storage is folded back to one row per
        undirected edge with the weight column aligned: IO, the composition
        builders, and the weighted ``edges()`` accessor all delegate here so
        the edge/weight alignment cannot drift between them.
        """
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        mask = src < self.indices
        edges = np.stack([src[mask], self.indices[mask]], axis=1)
        weights = None if self.weights is None else self.weights[mask]
        return edges, weights

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` array of undirected edges with ``u < v``.

        Unlike :meth:`edges` (whose return type the weighted subclass extends
        with the weight column) this accessor is shape-stable across the whole
        substrate, which is what the quotient/decomposition layers consume.
        """
        return self.edge_list()[0]

    def edges(self) -> np.ndarray:
        """Return an ``(m, 2)`` array of undirected edges with ``u < v``."""
        return self.edge_array()

    def neighbor_blocks(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized neighbour gather for a batch of ``nodes``.

        Returns ``(sources, targets)`` where ``targets`` is the concatenation
        of the adjacency lists of ``nodes`` and ``sources[i]`` is the node
        whose adjacency list produced ``targets[i]``.  This is the
        :func:`repro.graph.kernels.gather_neighbors` primitive behind every
        frontier-expansion step in the library.
        """
        sources, targets, _ = kernels.gather_neighbors(self.indptr, self.indices, nodes)
        return sources, targets

    def unweighted(self) -> "CSRGraph":
        """The hop-metric skeleton of the graph (weights dropped)."""
        return CSRGraph(indptr=self.indptr.copy(), indices=self.indices.copy())

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Iterable[int]) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes`` (weights carried over when present).

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        id of new node ``i``.  No rebuild: the kept rows are gathered,
        relabelled (order-preserving, so rows stay sorted) and masked, in
        ``O(n + arcs of the kept rows)``.
        """
        nodes = np.asarray(nodes if isinstance(nodes, np.ndarray) else list(nodes), dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise IndexError("subgraph nodes out of range")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[nodes] = True
        keep = np.flatnonzero(member)
        new_id = np.cumsum(member, dtype=np.int64) - 1
        _, dst, positions = kernels.gather_neighbors(self.indptr, self.indices, keep)
        inside = member[dst]
        kept_before = np.concatenate(([0], np.cumsum(inside)))
        indptr = kept_before[np.concatenate(([0], np.cumsum(self.degrees[keep])))]
        if kept_before[-1] != dst.size:
            dst, positions = dst[inside], positions[inside]
        weights = None if self.weights is None else self.weights[positions]
        return type(self)(indptr=indptr, indices=new_id[dst], weights=weights), keep

    def to_scipy(self):
        """Return the adjacency matrix as a ``scipy.sparse.csr_matrix``.

        Unweighted graphs export 0/1 entries; weighted graphs export the edge
        weights.
        """
        from scipy.sparse import csr_matrix

        data = (
            np.ones(self.indices.size, dtype=np.int8)
            if self.weights is None
            else self.weights
        )
        return csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if (self.weights is None) != (other.weights is None):
            return False
        return bool(
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and (self.weights is None or np.array_equal(self.weights, other.weights))
        )

    def __hash__(self) -> int:  # frozen dataclass with arrays: hash on shape summary
        return hash((self.num_nodes, self.num_directed_edges))

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
