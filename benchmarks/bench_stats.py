"""Throughput and peak memory of ``corpus_stats`` on synthesized corpora.

Each corpus runs in its own child process, so ``ru_maxrss`` is that
corpus's peak.  Nothing is downloaded; both corpora come from a seeded RNG:

- ``nci1``: NCI1-shaped molecules.  Node counts are lognormal with median
  29, clipped to 8-111 nodes.  Each graph is a random tree whose nodes take
  at most three children, plus round(0.1 n) ring closures from a node to
  its ancestor four or five tree steps up (5- and 6-rings).
- ``dense``: 111-node graphs (NCI1's largest) with edge probability 0.5.

    PYTHONPATH=src python3 benchmarks/bench_stats.py

runs 1000 ``nci1`` and 300 ``dense`` graphs unless ``--graphs`` says
otherwise.  It calls ``corpus_stats`` once to warm up and then
``--repeats`` times (default 5).  It prints one JSON line per corpus:
``graphs``, ``nodes``, ``edges``, ``seconds`` (the median call),
``graphs_per_s``, ``rss_before_mb`` (after building the corpus) and
``peak_rss_mb``.  With ``--out`` it also writes them, as a list, to a JSON
file with the git commit and thread settings (see ``record.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

DEFAULT_GRAPHS = {"nci1": 1000, "dense": 300}


def molecule(n: int, rng: np.random.Generator):
    from condgraphgen import Graph

    parent = [-1] * n
    children = np.zeros(n, dtype=np.int64)
    edges = set()
    for v in range(1, n):
        u = int(rng.choice(np.flatnonzero(children[:v] < 3)))
        parent[v] = u
        children[u] += 1
        edges.add((u, v))
    for _ in range(round(0.1 * n)):
        v = int(rng.integers(1, n))
        u = v
        for _ in range(int(rng.integers(4, 6))):
            u = max(parent[u], 0)
        if u != v:
            edges.add((u, v))
    return Graph(n, frozenset(edges), (0,) * n, 0)


def nci1_corpus(count: int, rng: np.random.Generator) -> list:
    sizes = np.clip(np.rint(rng.lognormal(np.log(29.0), 0.45, count)), 8, 111)
    return [molecule(int(n), rng) for n in sizes]


def dense_corpus(count: int, rng: np.random.Generator) -> list:
    from condgraphgen import Graph

    n = 111
    rows, cols = np.triu_indices(n, 1)
    graphs = []
    for _ in range(count):
        keep = rng.random(rows.size) < 0.5
        edges = frozenset(zip(rows[keep].tolist(), cols[keep].tolist()))
        graphs.append(Graph(n, edges, (0,) * n, 0))
    return graphs


CORPORA = {"nci1": nci1_corpus, "dense": dense_corpus}


def measure(corpus: str, count: int, repeats: int, seed: int) -> dict:
    from condgraphgen.evaluation import corpus_stats

    graphs = CORPORA[corpus](count, np.random.default_rng(seed))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    corpus_stats(graphs)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        corpus_stats(graphs)
        times.append(time.perf_counter() - start)
    seconds = statistics.median(times)
    return {
        "corpus": corpus,
        "graphs": len(graphs),
        "nodes": sum(g.num_nodes for g in graphs),
        "edges": sum(g.num_edges for g in graphs),
        "seconds": round(seconds, 5),
        "graphs_per_s": round(len(graphs) / seconds, 1),
        "rss_before_mb": round(before / 1024.0, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--graphs", type=int,
                        help="graphs per corpus (default: 1000 nci1, 300 dense)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON file for the results")
    parser.add_argument("--child", choices=sorted(CORPORA), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        count = args.graphs or DEFAULT_GRAPHS[args.child]
        print(json.dumps(measure(args.child, count, args.repeats, args.seed)))
        return 0
    import record

    options = ["--repeats", str(args.repeats), "--seed", str(args.seed)]
    if args.graphs:
        options += ["--graphs", str(args.graphs)]
    record.run_children(__file__, CORPORA, options, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
