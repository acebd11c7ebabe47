"""NCI1-shaped synthetic molecule graphs, generated from a seeded RNG.

NCI1 (4110 molecules, two classes) has graphs of 3-111 nodes, a mean of
about 30 nodes and a mean degree of about 2.16: chemical graphs are trees of
atoms with a few rings closed on top.  This module builds graphs of that
shape without the dataset:

- Backbone: a random tree.  Node i > 0 attaches to a uniformly chosen earlier
  node whose degree is still below 3, so degrees stay in 1-4 as in molecules.
- Ring closures: ``round(rate * n)`` extra edges, each joining two nodes at
  tree distance 4 or 5, which closes a 5- or 6-ring.  Class 0 uses rate
  0.06 and class 1 rate 0.18, so the classes differ in closure density; the
  mean degree is 2(n - 1 + closures) / n, about 2.2 at 30 nodes.
- Node labels: three degree buckets (degree <= 1, 2, >= 3).

Sizes are given by the caller, so a workload decides its size distribution;
``lognormal_sizes`` draws NCI1's right-skewed one (median 29 nodes) and
``even_sizes`` spreads sizes evenly over a range.  The output is fully
determined by the caller's ``numpy`` generator, and nothing is downloaded.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from condgraphgen import Graph

CLOSURE_RATE = (0.06, 0.18)


def lognormal_sizes(count: int, lo: int, hi: int, rng: np.random.Generator) -> list[int]:
    """NCI1-like node counts: lognormal with median 29, clipped to [lo, hi]."""
    raw = np.rint(rng.lognormal(mean=np.log(29.0), sigma=0.45, size=count))
    return [int(n) for n in np.clip(raw, lo, hi)]


def even_sizes(count: int, lo: int, hi: int) -> list[int]:
    """``count`` node counts spread evenly over [lo, hi]."""
    return [int(n) for n in np.rint(np.linspace(lo, hi, count))]


def _tree_distances(adj: list[list[int]], root: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def molecule_graph(n: int, class_label: int, rng: np.random.Generator, name: str) -> Graph:
    """One tree-plus-rings graph with ``n`` nodes (see the module docstring)."""
    deg = np.zeros(n, dtype=np.int64)
    adj: list[list[int]] = [[] for _ in range(n)]
    edges = set()
    for i in range(1, n):
        open_nodes = np.flatnonzero(deg[:i] < 3)
        parent = int(rng.choice(open_nodes)) if open_nodes.size else int(rng.integers(i))
        edges.add((parent, i))
        adj[parent].append(i)
        adj[i].append(parent)
        deg[parent] += 1
        deg[i] += 1
    closures = int(round(CLOSURE_RATE[class_label] * n))
    for _ in range(closures):
        u = int(rng.integers(n))
        dist = _tree_distances(adj, u)
        far = [v for v in range(n) if dist[v] in (4, 5) and (min(u, v), max(u, v)) not in edges]
        if not far:
            continue
        v = int(rng.choice(far))
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    labels = tuple(0 if d <= 1 else 1 if d == 2 else 2 for d in deg)
    return Graph(n, frozenset(edges), labels, class_label, dataset_id=name)


def nci1_like_corpus(sizes, rng: np.random.Generator, prefix: str) -> list[Graph]:
    """One graph per entry of ``sizes``, in that order; classes alternate
    0, 1, 0, ...  Graph i is named ``f"{prefix}-{i}"``."""
    return [
        molecule_graph(int(n), i % 2, rng, f"{prefix}-{i}")
        for i, n in enumerate(sizes)
    ]
