"""The benchmark's workloads: what each one sets up from its seed.

Every workload is a closed loop with one caller: set up, then repeat one
pipeline iteration (train -> sample -> evaluate, see ``pipeline.py``) on
identical inputs until the time is up.  Each stage has its own end-to-end
metrics, so one workload can carry two heavy stages:

- ``toy``: the train stage is ``train_generator`` with the default
  ``TrainConfig`` on the 160-graph train split of
  ``synthesize_toy_corpus(200)`` (small matrices, so autodiff tape overhead
  dominates); the sample stage draws four graphs per class and node count
  from 6 to 12 (56 samples) from the probe generator (the per-step sampling
  path, which still records a tape).
- ``nci1``: the train stage is ``train_generator`` on 32 NCI1-shaped graphs
  of 24-48 nodes with batch size 2 (the dense union prefix, the relaxed
  adjacency and the classifier's dense matmuls over them dominate time and
  memory); the eval stage runs ``corpus_stats`` and ``build_report`` on
  1000 NCI1-shaped graphs of 8-111 nodes plus ten of 200-300 nodes, with a
  frozen classifier from set-up (the statistics kernels dominate).

The remaining stage of each workload is a small toy probe, so every
end-to-end metric exists on every workload.  Set-up trains the probe
generator on 56 toy graphs (four per class and node count, seven steps) and
saves and reloads it through ``checkpoint``.  ``toy`` evaluates its samples
against the 180 toy graphs of the train and test splits; ``nci1`` samples
six graphs per class and node count from 6 to 12.

Sample node counts are fixed rather than drawn from the class histograms:
a drawn median size moves the per-sample median time by a whole size step
from seed to seed, while evenly spread sizes keep that median inside a
continuum of costs.  The probe is trained on toy graphs in both workloads
because ``sample_class_acc`` is only steady across seeds for a generator
that has learned something, which the NCI1-shaped training is too short for.

Even on toy graphs, seven steps leave about one probe in fifteen with
class-inconsistent samples (0.7-0.8 of them on the requested class, against
0.94-1.0 otherwise), which decides from the seed alone whether a run scores
low.  ``sample_class_acc`` is therefore the median over ``SCORING_PROBES``
probes: the workload's own and ones trained after the timed part from seeds
derived from the workload seed (``extra_probe_seeds``), each sampled with
the workload's sample plan.  A run scores low only when most of its probes
do, and a change to training or sampling still moves every probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import condgraphgen.checkpoint as checkpoint
import condgraphgen.classifiers as classifiers
import condgraphgen.training as training
from condgraphgen import (
    ClassifierTrainConfig,
    DatasetSplit,
    Graph,
    TrainConfig,
    stratified_split,
    synthesize_toy_corpus,
)

from corpus import even_sizes, lognormal_sizes, nci1_like_corpus

NUM_NODE_LABELS = 3  # both corpora label nodes by three degree buckets
SCORING_PROBES = 3  # sample_class_acc is the median over this many probes


@dataclass
class Setup:
    """Everything an iteration needs; built from the workload seed."""

    # train stage
    train_graphs: list[Graph]
    train_config: TrainConfig
    train_clf: classifiers.GraphClassifierParams
    # sample stage: (class, count, num_nodes) batches
    sampler: tuple  # (generator, node classifier)
    sample_plan: tuple[tuple[int, int, int], ...]
    sample_clf: classifiers.GraphClassifierParams  # scores sample_class_acc
    # eval stage: ``reference`` against ``generated`` plus the samples
    reference: list[Graph]
    generated: list[Graph]
    eval_clf: classifiers.GraphClassifierParams


@dataclass
class ToyProbe:
    split: DatasetSplit
    clf: classifiers.GraphClassifierParams
    sampler: tuple  # (generator, node classifier)


def by_size(graphs: list[Graph], per_cell: int) -> list[Graph]:
    """Up to ``per_cell`` graphs of each (node count, class), ordered by node
    count, so the batches hold the same sizes whatever the seed."""
    cells: dict[tuple[int, int], list[Graph]] = {}
    for g in graphs:
        cells.setdefault((g.num_nodes, g.class_label), []).append(g)
    return [g for key in sorted(cells) for g in cells[key][:per_cell]]


def toy_probe(seed: int, smoke: bool, scratch: str) -> ToyProbe:
    corpus = synthesize_toy_corpus(30 if smoke else 200, seed=seed)
    split = stratified_split(corpus, seed)
    clf, _ = classifiers.train_graph_classifier(split, ClassifierTrainConfig(epochs=2))
    # a larger step size and condition weight than the defaults, so that
    # seven steps give class-consistent samples on (nearly) every seed
    probe_config = TrainConfig(epochs=1, batch_size=8, lr=3e-3, lambda_condition=2.0)
    gen, nodeclf, _ = training.train_generator(
        by_size(split.train, 1 if smoke else 4), clf, probe_config
    )
    path = f"{scratch}/probe-{seed}.npz"
    checkpoint.save_checkpoint(path, generator=gen, graph_classifier=clf, node_classifier=nodeclf)
    ckpt = checkpoint.load_checkpoint(path)
    return ToyProbe(split, ckpt.graph_classifier, (ckpt.generator, ckpt.node_classifier))


def extra_probe_seeds(seed: int) -> list[int]:
    """Seeds of the scoring probes besides the workload's own."""
    return [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            for k in range(1, SCORING_PROBES)]


def sample_plan(per_size: int, smoke: bool) -> tuple[tuple[int, int, int], ...]:
    """``per_size`` samples of each class and toy node count."""
    sizes = (6, 9) if smoke else range(6, 13)
    return tuple((label, per_size, n) for label in (0, 1) for n in sizes)


def _nci1_classifier(rng: np.random.Generator, smoke: bool, lo: int, hi: int):
    graphs = nci1_like_corpus(even_sizes(20 if smoke else 48, lo, hi), rng, "clf")
    clf, _ = classifiers.train_graph_classifier(
        stratified_split(graphs, 0), ClassifierTrainConfig(epochs=3)
    )
    return clf


def build_toy(seed: int, smoke: bool, scratch: str) -> Setup:
    probe = toy_probe(seed, smoke, scratch)
    return Setup(
        train_graphs=probe.split.train,
        train_config=TrainConfig(epochs=1),
        train_clf=probe.clf,
        sampler=probe.sampler,
        sample_plan=sample_plan(1 if smoke else 4, smoke),
        sample_clf=probe.clf,
        reference=probe.split.train + probe.split.test,
        generated=[],
        eval_clf=probe.clf,
    )


def build_nci1(seed: int, smoke: bool, scratch: str) -> Setup:
    probe = toy_probe(seed, smoke, scratch)
    rng = np.random.default_rng([seed, 1])
    lo, hi = (12, 16) if smoke else (24, 48)
    train = nci1_like_corpus(even_sizes(2 if smoke else 32, lo, hi), rng, "train")
    corpus = nci1_like_corpus(lognormal_sizes(40 if smoke else 1000, 8, 111, rng), rng, "eval")
    corpus += nci1_like_corpus(even_sizes(2 if smoke else 10, 200, 300), rng, "sparse")
    half = len(corpus) // 2
    return Setup(
        train_graphs=train,
        train_config=TrainConfig(max_nodes=hi, batch_size=2, epochs=1),
        train_clf=_nci1_classifier(rng, smoke, lo, hi),
        sampler=probe.sampler,
        sample_plan=sample_plan(1 if smoke else 6, smoke),
        sample_clf=probe.clf,
        reference=corpus[:half],
        generated=corpus[half:],
        eval_clf=_nci1_classifier(rng, smoke, 8, 40),
    )


WORKLOADS = {"toy": build_toy, "nci1": build_nci1}
