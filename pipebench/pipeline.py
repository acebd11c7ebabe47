"""One pipeline iteration (train -> sample -> evaluate) and its output checks.

Each iteration returns a digest of everything it produced: the loss
history, the sampled graphs, the statistics and the report.  Identical
inputs must give identical digests, across iterations and between traced
and untraced runs.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

import condgraphgen.classifiers as classifiers
import condgraphgen.evaluation as evaluation
import condgraphgen.sampling as sampling
import condgraphgen.training as training
from condgraphgen import Graph, GraphStats

from oracle import oracle_stats
from workloads import NUM_NODE_LABELS, Setup, extra_probe_seeds, toy_probe

ORACLE_SUBSET = 24


@dataclass
class Iteration:
    """What one iteration produced.  ``attempted`` and ``failed`` count
    operations per stage: train steps, samples and evaluated graphs;
    ``step_s`` and ``sample_s`` time each train step and each sample."""

    digest: str
    stage_s: dict[str, float]
    step_s: list[float]
    sample_s: list[float]
    attempted: dict[str, int]
    failed: dict[str, int]
    trained_graphs: int
    history: list[dict]
    samples: list[Graph]
    eval_graphs: list[Graph]
    stats: list[GraphStats]


def _sample_ok(g: Graph, label: int, num_nodes: int) -> bool:
    if g.class_label != label or g.num_nodes != num_nodes:
        return False
    if any(not (0 <= u < g.num_nodes and 0 <= v < g.num_nodes) for u, v in g.edges):
        return False
    return all(0 <= l < NUM_NODE_LABELS for l in g.node_labels)


def _graph_key(g: Graph) -> tuple:
    return (g.num_nodes, g.class_label, g.node_labels, tuple(g.sorted_edges()))


def draw_samples(plan, sampler, seed: int) -> tuple[list[Graph], int]:
    """Sample every (class, count, num_nodes) batch of ``plan``; returns the
    samples and the number of failed ones (exceptions count the whole batch)."""
    samples: list[Graph] = []
    failed = 0
    for label, count, num_nodes in plan:
        try:
            batch = sampling.generate_batch(label, count, *sampler, None, seed, num_nodes=num_nodes)
        except Exception:
            traceback.print_exc()
            failed += count
            continue
        samples += batch
        failed += sum(not _sample_ok(g, label, num_nodes) for g in batch)
    return samples, failed


def run_iteration(setup: Setup, seed: int, tracer) -> Iteration:
    """Train, sample and evaluate once; exceptions count as failed operations.
    ``tracer`` must at least hold the ``train_step`` and ``generate`` spans."""
    stage_s: dict[str, float] = {}
    mark = len(tracer.spans)

    def enter(stage: str) -> float:
        tracer.stage = stage
        return time.perf_counter()

    start = enter("train")
    history: list[dict] = []
    trained = False
    try:
        _, _, history = training.train_generator(
            setup.train_graphs, setup.train_clf, setup.train_config
        )
        trained = True
    except Exception:
        traceback.print_exc()
    stage_s["train"] = time.perf_counter() - start
    # train_step raises on a non-finite loss, so one exception is one failed
    # step; the history check guards the epoch means as well
    failed_steps = int(not trained or not all(math.isfinite(r["total"]) for r in history))

    start = enter("sample")
    samples, failed_samples = draw_samples(setup.sample_plan, setup.sampler, seed)
    stage_s["sample"] = time.perf_counter() - start

    start = enter("eval")
    generated = setup.generated + samples
    eval_graphs = setup.reference + generated
    stats: list[GraphStats] = []
    report_json = ""
    try:
        stats = evaluation.corpus_stats(eval_graphs)
        report = evaluation.build_report(setup.reference, generated, setup.eval_clf)
        report_json = report.to_json()
    except Exception:
        traceback.print_exc()
        stats = []
    stage_s["eval"] = time.perf_counter() - start
    tracer.stage = "idle"
    step_s = tracer.durations("train", "training.train_step", mark)

    digest = hashlib.sha256()
    for part in (
        [sorted(r.items()) for r in history],
        [_graph_key(g) for g in samples],
        [s.as_dict() for s in stats],
        report_json,
    ):
        digest.update(repr(part).encode())
    return Iteration(
        digest=digest.hexdigest(),
        stage_s=stage_s,
        step_s=step_s,
        sample_s=tracer.durations("sample", "sampling.generate", mark),
        attempted={
            "train": max(len(step_s), failed_steps),
            "sample": sum(count for _, count, _ in setup.sample_plan),
            "eval": len(eval_graphs),
        },
        failed={
            "train": failed_steps,
            "sample": failed_samples,
            "eval": 0 if stats else len(eval_graphs),
        },
        trained_graphs=len(setup.train_graphs) * setup.train_config.epochs,
        history=history,
        samples=samples,
        eval_graphs=eval_graphs,
        stats=stats,
    )


class OracleCheck:
    """Brute-force statistics on a seed-chosen subset of the evaluated graphs."""

    def __init__(self, graphs: list[Graph], seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 9])
        size = min(len(graphs), 4 if smoke else ORACLE_SUBSET)
        self.index = sorted(int(i) for i in rng.choice(len(graphs), size=size, replace=False))
        self.keys = [_graph_key(graphs[i]) for i in self.index]
        self.expected = [oracle_stats(graphs[i]) for i in self.index]

    def failures(self, it: Iteration) -> int:
        """Subset graphs whose statistics differ from the oracle."""
        if not it.stats:
            return 0  # already counted as failed by run_iteration
        bad = 0
        for i, key, want in zip(self.index, self.keys, self.expected):
            got = it.stats[i]
            same_graph = i < len(it.eval_graphs) and _graph_key(it.eval_graphs[i]) == key
            if not same_graph or any(
                not math.isclose(getattr(got, f), getattr(want, f), rel_tol=1e-12, abs_tol=0.0)
                for f in evaluation.STAT_FIELDS
            ):
                bad += 1
        return bad


def setup_digest(setup: Setup) -> str:
    """Fingerprint of set-up: inputs and every parameter trained in set-up."""
    digest = hashlib.sha256()
    tensors = [*setup.train_clf.tensors(), *setup.sample_clf.tensors(), *setup.eval_clf.tensors(),
               *setup.sampler[0].tensors(), *setup.sampler[1].tensors()]
    for t in tensors:
        digest.update(np.ascontiguousarray(t.value).tobytes())
    for g in setup.train_graphs + setup.reference + setup.generated:
        digest.update(repr(_graph_key(g)).encode())
    return digest.hexdigest()


def sample_class_accuracy(samples: list[Graph], clf) -> float:
    """Share of samples the frozen classifier assigns to their requested class."""
    hits = sum(classifiers.predict_graph_class(clf, g) == g.class_label for g in samples)
    return hits / len(samples) if samples else 0.0


@dataclass
class ProbeScores:
    """``sample_class_accuracy`` of each scoring probe, and the samples the
    extra probes drew (attempted) and failed."""

    accuracy: list[float]
    attempted: int
    failed: int


def score_probes(setup: Setup, samples: list[Graph], seed: int, smoke: bool,
                 scratch: str) -> ProbeScores:
    """Score the workload's probe on ``samples`` (an iteration's), then train
    each extra probe and score it on the workload's sample plan."""
    scores = ProbeScores([sample_class_accuracy(samples, setup.sample_clf)], 0, 0)
    for probe_seed in extra_probe_seeds(seed):
        probe = toy_probe(probe_seed, smoke, scratch)
        drawn, failed = draw_samples(setup.sample_plan, probe.sampler, seed)
        scores.accuracy.append(sample_class_accuracy(drawn, probe.clf))
        scores.attempted += sum(count for _, count, _ in setup.sample_plan)
        scores.failed += failed
    return scores
