"""Core graph types, canonical ordering, and block decomposition.

Graphs are simple, undirected, node-labeled, and carry a graph-level class
label. Ordering and decomposition fix the single factorization used by the
block-autoregressive likelihood: rows of the strictly lower triangle of the
adjacency matrix under a breadth-first canonical permutation, emitted in
blocks of B consecutive nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import CapacityError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected labeled graph with a class label.

    ``edge_array`` holds the normalized edges as a read-only (edges, 2)
    int64 array in ``edges``' iteration order.  It is derived from
    ``edges``, so it takes no part in ``==``, hashing or ``repr``.
    """

    num_nodes: int
    edges: frozenset[Edge]
    node_labels: tuple[int, ...]
    class_label: int
    dataset_id: str | None = None
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) references a node >= {self.num_nodes}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "node_labels", tuple(int(l) for l in self.node_labels))
        if len(self.node_labels) != self.num_nodes:
            raise ValueError("node_labels length must equal num_nodes")
        self._set_edge_array()

    def _set_edge_array(self) -> None:
        pairs = np.fromiter(
            chain.from_iterable(self.edges), dtype=np.int64, count=2 * len(self.edges)
        ).reshape(-1, 2)
        pairs.flags.writeable = False
        object.__setattr__(self, "edge_array", pairs)

    # A pickle holds the edge set only; loading rebuilds the array from the
    # loaded set, in its own iteration order and read-only.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["edge_array"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._set_edge_array()

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.num_nodes)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.uint8)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.sorted_edges():
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


def union_edges(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block-diagonal union of ``graphs``: each graph's node and edge
    counts, and every edge once as an (edges, 2) array, each graph's nodes
    offset by the nodes of those before it.  Edges keep each graph's
    edge-set order."""
    n = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    m = np.array([g.num_edges for g in graphs], dtype=np.int64)
    pairs = np.concatenate([g.edge_array for g in graphs] or [np.zeros((0, 2), np.int64)])
    pairs += np.repeat(np.cumsum(n) - n, m)[:, None]
    return n, m, pairs


def balanced_cuts(costs: np.ndarray, budget: int) -> np.ndarray:
    """Bounds of k = ceil(total / budget) consecutive runs of items with
    about total / k cost each: cut j sits at the item boundary nearest
    j·total/k, so no item is split and a run exceeds total / k by less than
    one item.  Training cuts a minibatch's steps, the classifier read-out
    and the statistics their graphs, each into unions this way."""
    before = np.concatenate([[0], np.cumsum(costs)])
    k = -(-int(before[-1]) // budget)
    targets = before[-1] * np.arange(1, k) / k
    cut = np.searchsorted(before, targets)
    cut -= targets - before[cut - 1] < before[cut] - targets
    # the cuts never decrease; drop repeats (an item larger than a run)
    bounds = np.concatenate([[0], cut, [costs.shape[0]]])
    return bounds[np.diff(bounds, prepend=-1) > 0]


@dataclass(frozen=True)
class OrderedGraph:
    """A graph together with its canonical permutation and lower-triangular rows.

    pi[k] is the original index of the node at ordered position k. Row i of
    lower_rows holds the adjacency of ordered node i to ordered nodes j < i,
    zero-padded to the capacity N.
    """

    base: Graph
    pi: tuple[int, ...]
    lower_rows: np.ndarray
    N: int

    def __post_init__(self):
        n = self.base.num_nodes
        if sorted(self.pi) != list(range(n)):
            raise ValueError("pi is not a permutation of the node indices")
        if self.lower_rows.shape != (n, self.N):
            raise ValueError("lower_rows must have shape (num_nodes, N)")
        for i in range(n):
            if self.lower_rows[i, i:].any():
                raise ValueError(f"lower_rows[{i}] has entries on/above the diagonal")


def canonical_ordering(g: Graph) -> tuple[int, ...]:
    """Deterministic BFS order: root at the max-degree node (ties: smaller
    index), neighbors expanded in ascending index order; remaining components
    appended by descending size then smallest contained index."""
    deg = g.degrees()
    adj = g.neighbors()
    visited = np.zeros(g.num_nodes, dtype=bool)
    order: list[int] = []

    def bfs(root: int) -> list[int]:
        comp = []
        visited[root] = True
        q = deque([root])
        while q:
            u = q.popleft()
            comp.append(u)
            for v in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    q.append(v)
        return comp

    components: list[list[int]] = []
    for s in range(g.num_nodes):
        if not visited[s]:
            members = bfs(s)
            components.append(members)
    visited[:] = False
    components.sort(key=lambda c: (-len(c), min(c)))
    for comp in components:
        root = max(comp, key=lambda u: (deg[u], -u))
        order.extend(bfs(root))
    return tuple(order)


def block_partition(num_nodes: int, block_size: int) -> tuple[tuple[int, ...], ...]:
    """Ceiling partition of ordered node positions into blocks of size B."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    return tuple(
        tuple(range(start, min(start + block_size, num_nodes)))
        for start in range(0, num_nodes, block_size)
    )


def decompose(g: Graph, N: int) -> OrderedGraph:
    """Canonically order g and build its lower-triangular rows, padded to N."""
    if g.num_nodes > N:
        raise CapacityError(f"graph has {g.num_nodes} nodes, exceeding capacity N={N}")
    pi = canonical_ordering(g)
    pos = {orig: k for k, orig in enumerate(pi)}
    rows = np.zeros((g.num_nodes, N), dtype=np.uint8)
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        if a < b:
            a, b = b, a
        rows[a, b] = 1
    return OrderedGraph(base=g, pi=pi, lower_rows=rows, N=N)


# ---------------------------------------------------------------------------
# synthetic two-class corpus


def _degree_bucket(d: int) -> int:
    if d <= 2:
        return 0
    if d <= 4:
        return 1
    return 2


def _ring_with_chords(n: int, rng: np.random.Generator) -> set[Edge]:
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    non_ring = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    k = max(1, round(0.15 * n))
    picks = rng.choice(len(non_ring), size=min(k, len(non_ring)), replace=False)
    for p in picks:
        edges.add(non_ring[int(p)])
    return edges


def _dense_random(n: int, rng: np.random.Generator, p: float = 0.6) -> set[Edge]:
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return edges


def synthesize_toy_corpus(
    n_graphs: int, node_range: tuple[int, int] = (6, 12), seed: int = 0
) -> list[Graph]:
    """Balanced two-class corpus: class 0 sparse rings with chords (mean
    degree around 2.3), class 1 dense random graphs (edge probability 0.6).
    Node labels are degrees bucketed into {0, 1, 2}. Deterministic in seed."""
    if n_graphs < 2:
        raise ValueError("n_graphs must be at least 2")
    lo, hi = node_range
    if lo < 4 or hi > 16 or lo > hi:
        raise ValueError("node_range must lie within [4, 16]")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_graphs):
        cls = i % 2
        n = int(rng.integers(lo, hi + 1))
        edges = _ring_with_chords(n, rng) if cls == 0 else _dense_random(n, rng)
        deg = np.zeros(n, dtype=int)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        labels = tuple(_degree_bucket(int(d)) for d in deg)
        out.append(
            Graph(
                num_nodes=n,
                edges=frozenset(edges),
                node_labels=labels,
                class_label=cls,
                dataset_id=f"toy-{i}",
            )
        )
    return out
