"""Graph kernels in NumPy: segment sums for message passing, and the CSR
adjacency, connected components, shortest-path sums and triangle counts
behind the evaluation statistics.
"""

from __future__ import annotations

import numpy as np

# The benchmark's environment record reads this flag.
HAS_NUMBA = False


# ---------------------------------------------------------------------------
# CSR helpers (undirected graphs; both directions stored)


def csr_from_edges(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) with sorted neighbor lists from undirected edges."""
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _dense(indptr: np.ndarray, indices: np.ndarray, dtype) -> np.ndarray:
    n = indptr.shape[0] - 1
    adj = np.zeros((n, n), dtype=dtype)
    adj[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1
    return adj


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
# connected components


def components_labels(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Component label per node; labels count up from the component that
    holds node 0, so a lower label holds a lower node id."""
    # Frontier expansion over a dense boolean adjacency; one sweep per seed.
    adj = _dense(indptr, indices, bool)
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        reached = np.zeros(n, dtype=bool)
        reached[s] = True
        frontier = reached.copy()
        while frontier.any():
            nxt = adj[frontier].any(axis=0) & ~reached
            reached |= nxt
            frontier = nxt
        labels[reached] = comp
        comp += 1
    return labels


# ---------------------------------------------------------------------------
# shortest-path distance sum within one component (for characteristic path length)


def sp_pair_sum(indptr: np.ndarray, indices: np.ndarray, members: np.ndarray) -> int:
    """Sum of shortest-path distances over unordered member pairs; the
    members must form one connected component."""
    # Level-synchronous BFS from all members at once via float32 matmul.
    n = indptr.shape[0] - 1
    adj = _dense(indptr, indices, np.float32)
    m = members.shape[0]
    reached = np.zeros((m, n), dtype=bool)
    reached[np.arange(m), members] = True
    frontier = reached.astype(np.float32)
    total = 0
    level = 0
    while True:
        nxt = (frontier @ adj > 0) & ~reached
        if not nxt.any():
            break
        level += 1
        total += level * int(nxt[:, members].sum())
        reached |= nxt
        frontier = nxt.astype(np.float32)
    return total // 2


# ---------------------------------------------------------------------------
# triangle count


def triangle_count(indptr: np.ndarray, indices: np.ndarray, n: int) -> int:
    # Every triangle is a closed 3-walk from each of its nodes in both
    # directions.  float64 counts are exact below 2**53; float32 ones stop
    # being exact near 2**24, which 6 * TC of K_300 already exceeds.
    adj = _dense(indptr, indices, np.float64)
    return int((adj * (adj @ adj)).sum()) // 6
