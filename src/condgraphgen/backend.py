"""Graph kernels in NumPy: segment sums for message passing, and the
batched search behind the evaluation statistics.

The statistics run over a block-diagonal union of many graphs, searched by
one multi-source breadth-first search from every node of every graph at
once (Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", PVLDB 8(4), 2014).  Each union node carries a bitset of
``words`` uint64 words whose bit i says that node i of its own graph has
reached it.  A level is one gather over the CSR neighbours, one OR
reduction over every node's segment, a mask against the unreached set and
a popcount.
"""

from __future__ import annotations

import numpy as np

# The benchmark's environment record reads this flag.
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# CSR helpers (undirected graphs; both directions stored)


def csr_from_edges(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) with sorted neighbor lists from undirected
    edges, given as an (E, 2) array or a sequence of pairs."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    # one sort of the (row, col) key orders by row, then by col
    return indptr, np.sort(rows * num_nodes + cols) % max(num_nodes, 1)


# ---------------------------------------------------------------------------
# segment sum (message aggregation and its adjoint)


def segment_sum(x: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum rows of x into n buckets given by idx, each in [0, n); shape
    (n, x.shape[1])."""
    # One bincount over the flattened (bucket, column) index.  It adds the
    # rows in input order, as np.add.at does, so the sums are bit-identical.
    d = x.shape[1]
    flat = (np.asarray(idx, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=np.ravel(x), minlength=n * d)
    # an empty input makes bincount return integers
    return out.astype(np.float64, copy=False).reshape(n, d)


# ---------------------------------------------------------------------------
# multi-source breadth-first search over a union of graphs


def _popcount(bits: np.ndarray) -> np.ndarray:
    """Set bits per row of an (n, words) uint64 array."""
    counts = np.bitwise_count(bits)
    if bits.shape[1] == 1:
        return counts.reshape(-1).astype(np.int64)
    return counts.sum(axis=1, dtype=np.int64)


def sp_pair_sum(
    indptr: np.ndarray, indices: np.ndarray, local: np.ndarray, words: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search from every node of a union at once; ``local[u]`` is u's node
    id within its own graph, below ``64 * words``.

    Returns, per union node u:
      - the sum of shortest-path distances from u to every node it reaches;
      - the reach bitsets: the local ids of u's connected component;
      - the level-one bitsets: the local ids of u's neighbours.
    """
    n = local.shape[0]
    # Rows 0..n-1 of ``frontier`` hold the bits each node reached last
    # level, at first its own; row n stays zero.  An isolated node reads
    # that row, so every node owns a non-empty segment of ``sources`` and
    # one reduceat over them all gives every node's next frontier.
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    reached = frontier[:n]
    bit = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
    reached[np.arange(n), local >> 6] = bit
    unreached = ~reached
    isolated = indptr[1:] == indptr[:-1]
    sources = np.insert(indices, indptr[:-1][isolated], n)
    starts = indptr[:-1] + np.cumsum(isolated) - isolated
    gathered = np.empty((sources.shape[0], words), dtype=np.uint64)
    dist_sum = np.zeros(n, dtype=np.int64)
    neighbours = np.zeros((n, words), dtype=np.uint64)
    level = 0
    while True:
        # every index is in range; "clip" lets take write into ``gathered``
        # directly, where the default mode would go through a temporary
        np.take(frontier, sources, axis=0, out=gathered, mode="clip")
        np.bitwise_or.reduceat(gathered, starts, axis=0, out=reached)
        reached &= unreached
        found = _popcount(reached)
        if not found.any():
            break
        level += 1
        dist_sum += level * found
        unreached ^= reached
        if level == 1:
            neighbours = reached.copy()
    return dist_sum, ~unreached, neighbours


def components_labels(reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label and size of each node's component, read from its final reach
    bitset: the label is the lowest local node id in the component, so a
    lower label holds a lower node id."""
    first = np.argmax(reach != 0, axis=1)  # every node reaches itself
    word = reach[np.arange(reach.shape[0]), first]
    lowest = word & (~word + np.uint64(1))
    labels = 64 * first + np.bitwise_count(lowest - np.uint64(1)).astype(np.int64)
    return labels, _popcount(reach)


def triangle_count(
    indptr: np.ndarray, indices: np.ndarray, neighbours: np.ndarray
) -> np.ndarray:
    """Common neighbours of the two ends of each directed CSR edge, from the
    level-one bitsets.  Each triangle counts once per directed edge, so a
    graph's triangle count is its edges' sum over 6."""
    rows = np.repeat(np.arange(neighbours.shape[0]), np.diff(indptr))
    common = np.take(neighbours, rows, axis=0)
    common &= np.take(neighbours, indices, axis=0)
    return _popcount(common)
