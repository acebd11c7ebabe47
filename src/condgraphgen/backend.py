"""Kernel backends: numba-jitted hot loops with pure-numpy fallbacks.

The active backend is chosen by the ``CCGG_BACKEND`` environment variable:
``auto`` (default, numba when importable), ``numba``, or ``numpy``.
``use_backend()`` overrides the choice at runtime, e.g. for benchmarks.

The numba and numpy routes are deliberately different algorithms (queue BFS
vs. frontier matmul, neighbor intersection vs. bitset popcount) so the
equivalence tests between them are a real cross-check.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap(args[0]) if args and callable(args[0]) else wrap


_VALID = ("auto", "numba", "numpy")
_backend = os.environ.get("CCGG_BACKEND", "auto")
if _backend not in _VALID:
    raise ValueError(f"CCGG_BACKEND must be one of {_VALID}, got {_backend!r}")
if _backend == "numba" and not HAS_NUMBA:
    raise ImportError("CCGG_BACKEND=numba but numba is not importable")


def use_backend(name: str) -> None:
    """Force the kernel backend; name is 'auto', 'numba', or 'numpy'."""
    global _backend
    if name not in _VALID:
        raise ValueError(f"backend must be one of {_VALID}, got {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _backend = name


def active_backend() -> str:
    if _backend == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    return _backend


def thread_cap() -> int:
    """Worker count for parallel maps; capped by the CCGG_THREADS env var."""
    raw = os.environ.get("CCGG_THREADS")
    if raw is None:
        return min(os.cpu_count() or 1, 8)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"CCGG_THREADS must be a positive integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"CCGG_THREADS must be a positive integer, got {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# CSR helpers (undirected graphs; both directions stored)


def csr_from_edges(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) with sorted neighbor lists from undirected edges."""
    deg = np.zeros(num_nodes, dtype=np.int64)
    edges = list(edges)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.zeros(indptr[-1], dtype=np.int64)
    fill = indptr[:-1].copy()
    for u, v in edges:
        indices[fill[u]] = v
        fill[u] += 1
        indices[fill[v]] = u
        fill[v] += 1
    for i in range(num_nodes):
        indices[indptr[i] : indptr[i + 1]].sort()
    return indptr, indices


# ---------------------------------------------------------------------------
# segment sum (message aggregation and its adjoint)


@njit(cache=True, nogil=True)
def _nb_segment_sum(x, idx, n):
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    for e in range(x.shape[0]):
        row = idx[e]
        for d in range(x.shape[1]):
            out[row, d] += x[e, d]
    return out


def _np_segment_sum(x, idx, n):
    # One bincount over the flattened (bucket, column) index.  It adds the
    # rows in input order, as np.add.at does, so the sums are bit-identical.
    d = x.shape[1]
    flat = (np.asarray(idx, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=np.ravel(x), minlength=n * d)
    # an empty input makes bincount return integers
    return out.astype(np.float64, copy=False).reshape(n, d)


def segment_sum(x: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum rows of x into n buckets given by idx, each in [0, n); shape
    (n, x.shape[1])."""
    if active_backend() == "numba":
        return _nb_segment_sum(np.ascontiguousarray(x, dtype=np.float64), idx, n)
    return _np_segment_sum(x, idx, n)


# ---------------------------------------------------------------------------
# connected components


@njit(cache=True, nogil=True)
def _nb_components(indptr, indices, n):
    labels = np.full(n, -1, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    comp = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = comp
        queue[0] = s
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if labels[v] < 0:
                    labels[v] = comp
                    queue[tail] = v
                    tail += 1
        comp += 1
    return labels


def _np_components(indptr, indices, n):
    # Frontier expansion over a dense boolean adjacency; one sweep per seed.
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        adj[u, indices[indptr[u] : indptr[u + 1]]] = True
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


def components_labels(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    if active_backend() == "numba":
        return _nb_components(indptr, indices, n)
    return _np_components(indptr, indices, n)


# ---------------------------------------------------------------------------
# shortest-path distance sum within one component (for characteristic path length)


@njit(cache=True, nogil=True)
def _nb_sp_pair_sum(indptr, indices, members):
    # BFS from every member; members must form one connected component.
    n = indptr.shape[0] - 1
    total = 0
    dist = np.empty(n, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    for mi in range(members.shape[0]):
        s = members[mi]
        dist[:] = -1
        dist[s] = 0
        queue[0] = s
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue[tail] = v
                    tail += 1
        for mj in range(members.shape[0]):
            total += dist[members[mj]]
    return total // 2


def _np_sp_pair_sum(indptr, indices, members):
    # Level-synchronous BFS from all members at once via float32 matmul.
    n = indptr.shape[0] - 1
    adj = np.zeros((n, n), dtype=np.float32)
    for u in range(n):
        adj[u, indices[indptr[u] : indptr[u + 1]]] = 1.0
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


def sp_pair_sum(indptr: np.ndarray, indices: np.ndarray, members: np.ndarray) -> int:
    """Sum of shortest-path distances over unordered member pairs."""
    if active_backend() == "numba":
        return int(_nb_sp_pair_sum(indptr, indices, members))
    return int(_np_sp_pair_sum(indptr, indices, members))


# ---------------------------------------------------------------------------
# triangle count


@njit(cache=True, nogil=True)
def _nb_triangles(indptr, indices, n):
    # Neighbor lists are sorted: for each edge (u, v) with u < v, count common
    # neighbors w > v so each triangle is counted exactly once.
    count = 0
    for u in range(n):
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if v <= u:
                continue
            a, b = indptr[u], indptr[v]
            ea, eb = indptr[u + 1], indptr[v + 1]
            while a < ea and b < eb:
                wa, wb = indices[a], indices[b]
                if wa < wb:
                    a += 1
                elif wb < wa:
                    b += 1
                else:
                    if wa > v:
                        count += 1
                    a += 1
                    b += 1
    return count


def _np_triangles(indptr, indices, n):
    # Bitset rows + popcount; each triangle is seen once per edge, so / 3.
    words = (n + 7) // 8
    rows = np.zeros((n, words), dtype=np.uint8)
    for u in range(n):
        neigh = indices[indptr[u] : indptr[u + 1]]
        bits = np.zeros(n, dtype=np.uint8)
        bits[neigh] = 1
        rows[u] = np.packbits(bits, bitorder="little")[:words]
    eu, ev = [], []
    for u in range(n):
        for v in indices[indptr[u] : indptr[u + 1]]:
            if v > u:
                eu.append(u)
                ev.append(v)
    if not eu:
        return 0
    common = np.bitwise_count(rows[np.array(eu)] & rows[np.array(ev)]).sum()
    return int(common) // 3


def triangle_count(indptr: np.ndarray, indices: np.ndarray, n: int) -> int:
    if active_backend() == "numba":
        return int(_nb_triangles(indptr, indices, n))
    return int(_np_triangles(indptr, indices, n))


def warmup() -> None:
    """Trigger numba compilation of all kernels on a tiny graph."""
    if active_backend() != "numba":
        return
    indptr, indices = csr_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    _nb_components(indptr, indices, 3)
    _nb_sp_pair_sum(indptr, indices, np.arange(3, dtype=np.int64))
    _nb_triangles(indptr, indices, 3)
    _nb_segment_sum(np.ones((2, 2)), np.zeros(2, dtype=np.int64), 1)
