"""Time and peak memory of sampling one graph at a fixed node count.

Each node count runs in its own child process, so ``ru_maxrss`` is that
count's peak.  The generator is freshly initialized from ``--seed`` with the
default ``TrainConfig``, ``max_nodes`` raised to n above its default of 16.
An untrained edge head gives every pair a probability near 0.5, and a
sample's cost grows with its edges, so the head is pinned to one edge
probability that gives a mean degree of about 2.2 (NCI1's, as in
``bench_union_memory.py``); the mixture weights and node states stay
untrained.  Only the public ``generate_batch`` is called, for class 1 with
``num_nodes = n``.
The child first draws one sample, which also pays the process's one-off
costs, then times one ``generate_batch`` call of as many samples as fit in
``--seconds`` at that rate; when the first sample alone takes longer than
``--seconds``, it is the one reported.

    PYTHONPATH=src python3 benchmarks/bench_sample.py

runs 6, 9 and 12 nodes (the ``pipebench`` sample sizes) and 111 (NCI1's
largest graph) unless ``--nodes`` says otherwise; ``--nodes 620``
(PROTEINS' largest graph) takes longer.  It prints one JSON line per node
count (``samples``, the samples timed; ``sample_ms``, wall time per
sample; ``edges``, the mean edge count of the timed samples;
``rss_before_mb`` and ``peak_rss_mb``, the peak RSS before the first
sample and after the timed call) and, with ``--out``, writes them to a
JSON file with the git commit and the ``*_NUM_THREADS`` variables (see
``record.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np


def sample(n: int, seed: int, seconds: float) -> dict:
    from condgraphgen import TrainConfig, generate_batch
    from condgraphgen.classifiers import init_node_classifier
    from condgraphgen.generator import init_generator

    rng = np.random.default_rng(seed)
    config = TrainConfig(max_nodes=max(n, TrainConfig.max_nodes), seed=seed)
    gen = init_generator(config.generator_config(2), rng)
    nodeclf = init_node_classifier(gen.config.hidden_dim, 3, rng)
    edge_prob = min(0.5, 2.2 / max(n - 1, 1))
    final = gen.head_theta.layers[-1]
    final.W.value[:] = 0.0
    final.b.value[:] = np.log(edge_prob / (1.0 - edge_prob))
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    graphs = generate_batch(1, 1, gen, nodeclf, None, seed, num_nodes=n)
    wall = time.perf_counter() - start
    count = int(seconds / wall)
    if count >= 1:
        start = time.perf_counter()
        graphs = generate_batch(1, count, gen, nodeclf, None, seed + 1, num_nodes=n)
        wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "nodes": n,
        "samples": len(graphs),
        "sample_ms": round(1000.0 * wall / len(graphs), 3),
        "edges": round(float(np.mean([g.num_edges for g in graphs])), 1),
        "rss_before_mb": round(rss_before / 1024.0, 1),
        "peak_rss_mb": round(peak / 1024.0, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[6, 9, 12, 111])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="sampling time to aim for per node count")
    parser.add_argument("--out", help="JSON file for the results")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(sample(args.child, args.seed, args.seconds)))
        return 0
    import record

    options = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    record.run_children(__file__, args.nodes, options, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
