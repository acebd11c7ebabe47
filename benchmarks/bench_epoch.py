"""Wall time and peak memory of one generator training epoch on an
NCI1-sized corpus.

The corpus is ``--graphs`` NCI1-shaped molecules from the benchmark's own
generator (``pipebench/corpus.py``: lognormal node counts with median 29,
clipped to 8-111 nodes, trees with ring closures, three node labels,
alternating classes), built from a seeded RNG; nothing is downloaded.  One
epoch of ``train_generator`` runs with the default ``TrainConfig`` except
``max_nodes = 111`` (NCI1's largest graph) and ``epochs = 1``; the frozen
graph classifier is freshly initialized.

    PYTHONPATH=src python3 benchmarks/bench_epoch.py --graphs 3288

3,288 graphs (the default) is the train split ``ingest`` makes of NCI1's
4,110.  It prints one JSON line: ``graphs``, ``epoch_s``, ``graphs_per_s``,
``rss_before_mb`` (after building the corpus), ``peak_rss_mb``, the
process's peak resident set, and ``minor_faults``, the minor page faults
taken during the epoch.  With ``--out`` it also writes that line to a JSON
file with the git commit and the ``*_NUM_THREADS`` variables (see
``record.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipebench"))

NUM_NODE_LABELS = 3  # the corpus labels nodes by three degree buckets


def one_epoch(count: int, seed: int) -> dict:
    from corpus import lognormal_sizes, nci1_like_corpus

    from condgraphgen import TrainConfig
    from condgraphgen.classifiers import init_graph_classifier
    from condgraphgen.training import train_generator

    rng = np.random.default_rng(seed)
    graphs = nci1_like_corpus(lognormal_sizes(count, 8, 111, rng), rng, "train")
    clf = init_graph_classifier(NUM_NODE_LABELS, 2, rng)
    config = TrainConfig(max_nodes=111, epochs=1, seed=seed)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    train_generator(graphs, clf, config, num_node_labels=NUM_NODE_LABELS)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "graphs": len(graphs),
        "epoch_s": round(seconds, 2),
        "graphs_per_s": round(len(graphs) / seconds, 2),
        "rss_before_mb": round(before.ru_maxrss / 1024.0, 1),
        "peak_rss_mb": round(after.ru_maxrss / 1024.0, 1),
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--graphs", type=int, default=3288)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON file for the result")
    args = parser.parse_args(argv)
    result = one_epoch(args.graphs, args.seed)
    print(json.dumps(result), flush=True)
    if args.out:
        import record

        record.write(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
