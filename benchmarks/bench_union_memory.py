"""Peak memory and time of one generator training step on one graph.

Each node count runs in its own child process, so ``ru_maxrss`` is that
step's peak.  The child runs the step twice and times the second, since
the first step of a process pays one-off costs several times the step's
own time.  The graph is a random tree plus a few ring closures (mean
degree about 2.2, NCI1-like), trained with the default ``TrainConfig``
except ``max_nodes = n`` and a batch of one; the frozen graph classifier is
freshly initialized.  Only the public ``train_step`` is called.

    PYTHONPATH=src python3 benchmarks/bench_union_memory.py

runs 16, 32, 64, 96, 111 (NCI1's largest graph), 160 and 320 nodes unless
``--nodes`` says otherwise.  It prints one JSON line per node count
(``union_nodes``; ``union_edges``, the step's union edges; ``chunks``, the
forward/backward passes ``train_step`` split them into; ``max_chunk_edges``,
the union edges of the largest of them; ``tape_nodes``, the autodiff tape
nodes the timed step records, counted by wrapping ``autodiff._make``;
``step_s``, the timed step's time; ``rss_before_mb`` and ``peak_rss_mb``,
the peak RSS before the first step and after the second; and
``minor_faults``, the minor page faults taken during the timed step) and,
with ``--out``, writes them to a JSON file with the git commit and the
``*_NUM_THREADS`` variables (see ``record.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
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


def count_tape_nodes(autodiff) -> list[int]:
    """Wrap ``autodiff._make`` so that every recorded tape node adds one to
    the returned counter."""
    make, counter = autodiff._make, [0]

    def counting(value, parents, backward):
        out = make(value, parents, backward)
        counter[0] += out.requires_grad
        return out

    autodiff._make = counting
    return counter


def one_step(n: int, seed: int) -> dict:
    from condgraphgen import TrainConfig, autodiff, decompose
    from condgraphgen.autodiff import Adam
    from condgraphgen.classifiers import init_graph_classifier, init_node_classifier
    from condgraphgen.generator import init_generator, step_edges
    from condgraphgen.graphs import block_partition
    from condgraphgen.training import train_step

    rng = np.random.default_rng(seed)
    config = TrainConfig(max_nodes=n, batch_size=1, seed=seed)
    og = decompose(molecule_like(n, rng), config.max_nodes)
    gen = init_generator(config.generator_config(2), rng)
    nodeclf = init_node_classifier(gen.config.hidden_dim, 3, rng)
    clf = init_graph_classifier(3, 2, rng)
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=config.lr)
    tape_nodes = count_tape_nodes(autodiff)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    train_step([(og, 1)], gen, clf, nodeclf, config, opt, config.tau, [rng])
    tape_nodes[0] = 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    loss = train_step([(og, 1)], gen, clf, nodeclf, config, opt, config.tau, [rng])
    step_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    edges = step_edges(og.lower_rows, block_partition(n, config.block_size))
    return {
        "nodes": n,
        "union_nodes": n * (n + 1) // 2,  # block size 1: step t holds t nodes
        "union_edges": int(edges.sum()),
        "chunks": loss.chunks,
        "max_chunk_edges": loss.max_chunk_edges,
        "tape_nodes": tape_nodes[0],
        "step_s": round(step_s, 4),
        "rss_before_mb": round(rss_before / 1024.0, 1),
        "peak_rss_mb": round(after.ru_maxrss / 1024.0, 1),
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[16, 32, 64, 96, 111, 160, 320])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON file for the results")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(one_step(args.child, args.seed)))
        return 0
    import record

    record.run_children(__file__, args.nodes, ["--seed", str(args.seed)], args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
