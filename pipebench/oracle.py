"""Brute-force graph statistics, independent of ``condgraphgen.backend``.

Distances come from a dense breadth-first search from every node, and
triangles from trace(A^3) / 6.  It is slow on purpose and is only run on a
seed-chosen subset of the evaluated graphs.
"""

from __future__ import annotations

import numpy as np

from condgraphgen import Graph, GraphStats


def dense_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances; -1 where no path exists."""
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(adj[u]):
                    if dist[s, v] < 0:
                        dist[s, v] = level
                        nxt.append(int(v))
            frontier = nxt
    return dist


def oracle_stats(g: Graph) -> GraphStats:
    n = g.num_nodes
    adj = g.adjacency().astype(np.int64)
    dist = dense_distances(adj)

    reach = dist >= 0
    sizes = reach.sum(axis=1)
    lcc = int(sizes.max())
    # the largest component: the reachable set of the first node of maximal
    # reach (ties between equal-size components give the same statistics)
    members = np.flatnonzero(reach[int(np.argmax(sizes))])
    if lcc < 2:
        cpl = 0.0
    else:
        pair_total = int(dist[np.ix_(members, members)].sum()) // 2
        cpl = pair_total / (lcc * (lcc - 1) / 2)

    tc = int(np.trace(adj @ adj @ adj)) // 6

    deg = adj.sum(axis=1)
    total = int(deg.sum())
    mean_d = total / n
    if total == 0:
        gini = 0.0
    else:
        abs_sum = int(np.abs(deg[:, None] - deg[None, :]).sum())
        gini = abs_sum / (2.0 * n * total)
    return GraphStats(float(lcc), float(tc), cpl, mean_d, gini)
