"""Peak memory and time of one generator training step on one graph.

Each node count runs in its own child process, so ``ru_maxrss`` is that
step's peak.  The graph is a random tree plus a few ring closures (mean
degree about 2.2, NCI1-like), trained with the default ``TrainConfig``
except ``max_nodes = n`` and a batch of one; the frozen graph classifier is
freshly initialized.  Only the public ``train_step`` is called.

    PYTHONPATH=src python3 benchmarks/bench_union_memory.py --nodes 16 32 64 96

prints one JSON line per node count (``union_nodes``, ``step_s``,
``rss_before_mb``, ``peak_rss_mb``) and, with ``--out``, writes them to a
JSON file.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np


def molecule_like(n: int, rng: np.random.Generator):
    from condgraphgen import Graph

    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < int(1.1 * n) and n > 3:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    labels = tuple(int(x) for x in rng.integers(0, 3, n))
    return Graph(n, frozenset(edges), labels, 1)


def one_step(n: int, seed: int) -> dict:
    from condgraphgen import TrainConfig, decompose
    from condgraphgen.autodiff import Adam
    from condgraphgen.classifiers import init_graph_classifier, init_node_classifier
    from condgraphgen.generator import init_generator
    from condgraphgen.training import train_step

    rng = np.random.default_rng(seed)
    config = TrainConfig(max_nodes=n, batch_size=1, seed=seed)
    og, _ = decompose(molecule_like(n, rng), config.block_size, config.max_nodes)
    gen = init_generator(config.generator_config(2), rng)
    nodeclf = init_node_classifier(gen.config.hidden_dim, 3, rng)
    clf = init_graph_classifier(3, 2, rng)
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=config.lr)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    train_step([(og, 1)], gen, clf, nodeclf, config, opt, config.tau, [rng])
    step_s = time.perf_counter() - start
    return {
        "nodes": n,
        "union_nodes": n * (n + 1) // 2,  # block size 1: step t holds t nodes
        "step_s": round(step_s, 4),
        "rss_before_mb": round(rss_before, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[16, 32, 64, 96])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON file for the results")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(one_step(args.child, args.seed)))
        return 0
    results = []
    for n in args.nodes:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(n), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        results.append(json.loads(out.stdout))
        print(out.stdout.strip(), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
