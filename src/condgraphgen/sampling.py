"""Inference-time class-conditional graph generation.

Generation runs the training-time forward (``step_forward``) on a union
plan of one one-step run, the current block over the sampled prefix, and
draws hard samples: one mixture component per block, from one uniform
through ``generator.draw_components`` as in training, then an independent
Bernoulli draw per candidate edge (no relaxation).  Node labels come from
the node classifier, read once per sample on every block's final states:
a row's value does not depend on the rows it is batched with
(``autodiff._product``), so the labels are those of a read-out per block.
The target node count is drawn from the per-class empirical histogram of
the training split, since the autoregressive model itself has no stopping
rule.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .autodiff import no_grad, sigmoid
from .classifiers import NodeClassifierParams, classify_nodes
from .errors import CapacityError, NumericError
from .generator import (
    GeneratorParams,
    UnionPlan,
    check_mixture_weights,
    draw_components,
    step_forward,
)
from .graphs import Graph, block_partition, decompose

Histogram = Mapping[int, Mapping[int, int]]


def sample_num_nodes(
    class_label: int, histogram: Histogram, rng: np.random.Generator
) -> int:
    """Draw a node count from the class's empirical histogram."""
    counts = histogram.get(class_label)
    if not counts:
        raise ValueError(f"no node-count histogram for class {class_label}")
    sizes = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[int(s)] for s in sizes], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("histogram counts must be nonnegative with positive total")
    return int(rng.choice(sizes, p=weights / weights.sum()))


@no_grad()
def generate(
    class_label: int,
    gen_params: GeneratorParams,
    nodeclf_params: NodeClassifierParams,
    histogram: Optional[Histogram],
    rng: np.random.Generator,
    num_nodes: Optional[int] = None,
    start: Optional[Graph] = None,
) -> Graph:
    """Sample one graph conditioned on ``class_label``.

    The node count is taken from ``num_nodes`` when given, otherwise drawn
    from ``histogram``.  Blocks are emitted autoregressively: forward pass on
    the sampled prefix, hard component draw k ~ alpha (one ``rng.random()``
    through ``draw_components``, the index and stream position of
    ``rng.choice(K, p=alpha)``), edge bits ~ Bernoulli(theta_k).  Each
    block's final states are kept, and the node labels are the argmax of one
    node-classifier read-out over all sampled nodes' states.  Raises
    NumericError when the mixture weights are not finite or the edge logits
    hold a NaN.  Nothing is recorded on the tape.

    When ``start`` is given, its canonically ordered structure and node
    labels become the first nodes of the output and generation continues from
    there; within a block that straddles the boundary, already-decided rows
    keep their given values and only the remaining rows are sampled.
    """
    config = gen_params.config
    if num_nodes is None:
        if histogram is None:
            raise ValueError("either a histogram or an explicit num_nodes is required")
        n = sample_num_nodes(class_label, histogram, rng)
    else:
        n = int(num_nodes)
    if n < 1:
        raise ValueError("num_nodes must be >= 1")
    if n > config.max_nodes:
        raise CapacityError(
            f"requested {n} nodes but the model capacity is {config.max_nodes}"
        )
    if not 0 <= class_label < config.num_classes:
        raise ValueError(f"class {class_label} outside [0, {config.num_classes})")

    lower = np.zeros((n, config.max_nodes))
    labels = np.zeros(n, dtype=np.int64)
    states = np.zeros((n, config.hidden_dim))
    n_fixed = 0
    if start is not None:
        n_fixed = start.num_nodes
        if n < n_fixed:
            raise ValueError(
                f"target node count {n} is smaller than the {n_fixed}-node start graph"
            )
        og = decompose(start, config.max_nodes)
        lower[:n_fixed] = og.lower_rows
        labels[:n_fixed] = [start.node_labels[og.pi[i]] for i in range(n_fixed)]

    for block in block_partition(n, config.block_size):
        if block[-1] < n_fixed:
            continue
        plan = UnionPlan([(lower[: block[0]], [block])])
        log_alpha, theta_logits, h = step_forward(plan, [class_label], gen_params)
        alpha = np.exp(log_alpha.value)
        check_mixture_weights(alpha)
        # the clipped sigmoid lies inside (0, 1) unless a logit is NaN
        if np.isnan(theta_logits.value).any():
            raise NumericError("edge logits hold a NaN")
        if plan.num_pairs:
            k = draw_components(alpha, rng.random(1))[0]
            theta = np.clip(sigmoid(theta_logits.value[:, k]).value, 1e-12, 1.0 - 1e-12)
            bits = rng.random(plan.num_pairs) < theta
            rows, cols = plan.pairs
            keep = rows >= n_fixed
            lower[rows[keep], cols[keep]] = bits[keep].astype(np.float64)
        states[block[0]:block[-1] + 1] = h.value[plan.new_nodes]
    if n_fixed < n:
        dists = classify_nodes(states[n_fixed:], nodeclf_params)
        labels[n_fixed:] = np.argmax(dists.value, axis=1)

    src, dst = np.nonzero(lower[:, :n])
    edges = frozenset((int(i), int(j)) for i, j in zip(src, dst))
    return Graph(
        num_nodes=n,
        edges=edges,
        node_labels=tuple(int(l) for l in labels),
        class_label=int(class_label),
    )


def generate_batch(
    class_label: int,
    count: int,
    gen_params: GeneratorParams,
    nodeclf_params: NodeClassifierParams,
    histogram: Optional[Histogram],
    seed: int,
    num_nodes: Optional[int] = None,
    start: Optional[Graph] = None,
) -> list[Graph]:
    """Sample ``count`` graphs with independent per-sample RNG substreams, so
    the batch is fully determined by (seed, class, count) and unaffected by
    evaluation order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [
        generate(
            class_label,
            gen_params,
            nodeclf_params,
            histogram,
            np.random.default_rng([seed, 4, class_label, i]),
            num_nodes=num_nodes,
            start=start,
        )
        for i in range(count)
    ]
