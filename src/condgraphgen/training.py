"""Composite training objective and optimization loop for the generator.

The loss has three parts: the teacher-forced negative block log-likelihood,
a class-condition loss from a frozen graph classifier applied to relaxed
partial graphs, and a node-label loss from the node classifier.  Discrete
edge samples stay differentiable through a straight-through Gumbel-softmax.
Condition and node-label terms are discounted by gamma^(nodes missing), so
nearly complete prefixes weigh more.

One optimizer step runs every generation step of every graph in the
minibatch as a block-diagonal union graph (see generator.UnionPlan).  The
frozen classifier reads the relaxed partial graphs as that union's own edge
list, weighted by the sampled bits, so memory grows with the union's nodes
and edges, not with their square.  Given its prefix a step does not depend
on the others, so a minibatch whose union holds more than
``UNION_EDGE_BUDGET`` edges runs as a few consecutive chunks of steps, each
with its own forward and backward; gradients add up in the parameters and
the update runs once.  Each chunk builds one union plan, with a run of
steps per graph it touches, and the teacher bits, weights and node targets
of those steps, and drops them when it is done, so nothing held between
steps grows with the corpus, and a step's peak memory follows the budget,
not the size of its graphs.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    Adam,
    Tensor,
    as_tensor,
    bernoulli_log_likelihood,
    clip,
    concat,
    constant,
    gather_rows,
    log,
    logsumexp,
    segment_sum,
    sigmoid,
    straight_through,
)
from .classifiers import (
    GraphClassifierParams,
    NodeClassifierParams,
    class_log_probs,
    classify_nodes,
    graph_logits,
    init_node_classifier,
    uniform_features,
)
from .errors import ConfigError, NumericError
from .generator import (
    GeneratorConfig,
    GeneratorParams,
    UnionPlan,
    candidate_pairs,
    check_mixture_weights,
    draw_components,
    init_generator,
    initial_states,
    mixture_heads,
    run_rounds,
    step_edges,
)
from .graphs import Graph, OrderedGraph, balanced_cuts, block_partition, decompose


# the generator's fields that a training config sets, under the same names
_MODEL_FIELDS = tuple(
    f.name for f in dataclasses.fields(GeneratorConfig) if f.name != "num_classes"
)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for generator training; defaults are the desk-scale
    toy setting.  Serialized as JSON with exactly these field names."""

    block_size: int = 1
    max_nodes: int = 16
    mixture_k: int = 5
    rounds: int = 3
    hidden_dim_h: int = 48
    cond_dim: int = 16
    tied_rounds: bool = True
    gamma: float = 0.8
    lambda_condition: float = 0.5
    lambda_node_label: float = 0.5
    tau: float = 1.0
    tau_end: float = 0.2
    clip_norm: float = 5.0
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if self.tau <= 0.0 or self.tau_end <= 0.0:
            raise ConfigError("temperatures must be positive")
        if self.lambda_condition < 0.0 or self.lambda_node_label < 0.0:
            raise ConfigError("loss weights must be nonnegative")
        if self.clip_norm < 0.0:
            raise ConfigError("clip_norm must be nonnegative (0 disables clipping)")
        if self.lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.generator_config(1)  # checks the model fields

    def generator_config(self, num_classes: int) -> GeneratorConfig:
        return GeneratorConfig(num_classes=num_classes, **{
            name: getattr(self, name) for name in _MODEL_FIELDS
        })

    def tau_at(self, epoch: int) -> float:
        """Exponential decay from tau to tau_end across the epoch range."""
        if self.epochs == 1:
            return self.tau
        frac = epoch / (self.epochs - 1)
        return float(self.tau * (self.tau_end / self.tau) ** frac)


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def train_config_from_dict(raw: dict) -> TrainConfig:
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        want = _CONFIG_FIELDS[name].type
        if want == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"config key {name} must be a boolean")
        elif want == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"config key {name} must be an integer")
        elif want == "float":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"config key {name} must be a number")
            value = float(value)
        kwargs[name] = value
    return TrainConfig(**kwargs)


def load_train_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config JSON must be an object")
    return train_config_from_dict(raw)


# ---------------------------------------------------------------------------
# straight-through Gumbel-softmax edge sampling


def _gumbel_soft(p: Tensor, tau: float, noise_diff: np.ndarray) -> Tensor:
    """Two-category Gumbel-softmax collapsed to its edge coordinate:
    sigmoid((log p - log(1-p) + g1 - g2) / tau)."""
    p = clip(as_tensor(p), 1e-6, 1.0 - 1e-6)
    logit = log(p) - log(1.0 - p)
    return sigmoid((logit + constant(noise_diff)) * (1.0 / tau))


# ---------------------------------------------------------------------------
# one optimization step


@dataclass(frozen=True)
class LossBreakdown:
    """Per-batch averages; total = l_adj + λ1·l_condition + λ2·l_node_label.
    Terms whose weight is zero are skipped and reported as 0.  ``grad_norm``
    is the joint L2 norm of the step's gradients before clipping.
    ``chunks`` is the number of forward/backward passes the step ran and
    ``max_chunk_edges`` the union edges of the largest one."""

    l_adj: float
    l_condition: float
    l_node_label: float
    total: float
    grad_norm: float
    chunks: int
    max_chunk_edges: int


def _check_finite(value: float, term: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"non-finite {term} term in training step")
    return value


def _grad_norm(params: Sequence[Tensor]) -> float:
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(sq))


def clip_gradients(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients down so their joint L2 norm is at most ``max_norm``;
    returns the norm before clipping.  Rare huge spikes (straight-through
    noise hitting near-saturated edge probabilities) otherwise poison the
    optimizer's moment estimates."""
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    norm = _grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                # out of place: a gradient array may be shared by two tensors
                p.grad = p.grad * factor
    return norm


def _non_finite_gradient(params: Sequence[Tensor], named: dict) -> str:
    """Name of the first parameter whose gradient holds a NaN or infinity."""
    names = {id(t): name for name, t in named.items()}
    for i, p in enumerate(params):
        if p.grad is not None and not np.isfinite(p.grad).all():
            return names.get(id(p), f"parameter {i}")
    return "no single parameter (the squared norm overflows)"


def _teacher(og: OrderedGraph, blocks: Sequence[Sequence[int]], gamma: float):
    """What the losses of a run of consecutive steps ``blocks`` of one graph
    read, from the run's block bounds: each candidate pair's teacher bit,
    each step's condition weight gamma^(nodes missing), and each new node's
    node-label weight (its step's, shared by the block) and target.  The
    run's blocks are consecutive, so its pairs are those of its new nodes
    a..c-1 taken as one block, in the order of ``candidate_pairs``."""
    n, a, c = og.base.num_nodes, blocks[0][0], blocks[-1][-1] + 1
    bits = og.lower_rows[candidate_pairs(range(a, c))].astype(np.float64)
    ends = [block[-1] + 1 for block in blocks]
    w_steps = gamma ** (n - np.asarray(ends, dtype=np.float64))
    w_node = np.repeat(
        [gamma ** (n - end) / len(b) for b, end in zip(blocks, ends)], [len(b) for b in blocks]
    )
    targets = np.asarray(og.base.node_labels, dtype=np.int64)[list(og.pi[a:c])]
    return bits, w_steps, w_node, targets


def _draw_components_and_noise(
    alpha: np.ndarray, u: UnionPlan, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's mixture component and Gumbel noise difference, from one
    ``rng.random`` call per graph.  Step s takes one uniform for its
    component (``draw_components``, the index ``rng.choice(K, p=α_s)``
    gives), then two uniforms per pair: the stream and order of a
    step-by-step ``rng.choice`` and ``rng.random((pairs_s, 2))``."""
    check_mixture_weights(alpha)
    per_step = 1 + 2 * np.diff(u.pair_bounds())
    draws = []
    for rng, s0, s1 in zip(rngs, u.step_off, np.append(u.step_off[1:], u.num_steps)):
        draws.append(rng.random(int(per_step[s0:s1].sum())))
    draws = np.concatenate(draws)
    is_component = np.zeros(draws.shape[0], dtype=bool)
    is_component[np.cumsum(per_step) - per_step] = True
    k = draw_components(alpha, draws[is_component])
    gumbels = -np.log(-np.log(np.clip(draws[~is_component], 1e-12, 1 - 1e-12)))
    return k[u.pair_seg], gumbels[0::2] - gumbels[1::2]


def _batch_losses(
    u: UnionPlan,
    labels: Sequence[int],
    rngs: Sequence[np.random.Generator],
    teacher: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    gen_params: GeneratorParams,
    clf_params: Optional[GraphClassifierParams],
    nodeclf_params: Optional[NodeClassifierParams],
    config: TrainConfig,
    tau: float,
) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """Loss terms summed over the steps of one chunk (see ``_chunks``): its
    union plan ``u`` with one class label and RNG per run, and the runs'
    teacher arrays (see ``_teacher``), concatenated.

    All these steps run as one union forward pass.  Each graph draws its
    mixture components and Gumbel noise from its own RNG, step by step (see
    ``_draw_components_and_noise``).  Terms whose weight is zero come back
    as None.
    """
    teacher_bits, w_steps, w_node, node_targets = teacher
    h = initial_states(u, labels, gen_params)
    h = run_rounds(h, u, gen_params)
    log_alpha, theta_logits = mixture_heads(h, u, gen_params)

    pair_ll = bernoulli_log_likelihood(theta_logits, teacher_bits[:, None])
    per_component = segment_sum(pair_ll, u.pair_seg, u.num_steps)
    l_adj = -logsumexp(log_alpha + per_component, axis=1).sum()

    l_cond = None
    if config.lambda_condition > 0.0:
        k_per_pair, noise = _draw_components_and_noise(np.exp(log_alpha.value), u, rngs)
        # the classifier reads the union's own edges: an observed prefix edge
        # weighs 1, a candidate edge its pair's straight-through bit
        weight_table = constant(np.ones((1, 1)))
        if u.num_pairs:
            chosen = theta_logits[np.arange(u.num_pairs)[:, None], k_per_pair[:, None]]
            soft = _gumbel_soft(sigmoid(chosen), tau, noise[:, None])
            st_bits = straight_through(soft, (soft.value > 0.5).astype(np.float64))
            weight_table = concat([weight_table, st_bits], axis=0)
        features = uniform_features(u.num_nodes, clf_params.feature_dim)
        logits = graph_logits(
            clf_params.frozen(), features, *u.edges,
            gather_rows(weight_table, u.edge_pair + 1), u.node_step, u.num_steps,
        )
        log_dist = class_log_probs(logits)
        step_labels = np.repeat(labels, np.diff(u.step_off, append=u.num_steps))
        picked = log_dist[np.arange(u.num_steps), step_labels]
        l_cond = -(constant(w_steps) * picked).sum()

    l_node = None
    if config.lambda_node_label > 0.0:
        block_states = gather_rows(h, u.new_nodes)
        dists = classify_nodes(block_states, nodeclf_params)
        picked = dists[np.arange(node_targets.shape[0]), node_targets]
        l_node = -(constant(w_node) * log(picked)).sum()
    return l_adj, l_cond, l_node


# Union edges per forward/backward pass: a minibatch union of E edges runs
# as k = ceil(E / budget) passes of about E / k edges, each larger than that
# by less than one step.  A step's peak RSS is 10-13 MB per 1,000 edges of
# its largest pass above the RSS it started from (one NCI1-like graph of
# 64-620 nodes, ``bench_union_memory.py``), and a pass costs about 2-3 ms
# beyond its edges (a 16-graph toy batch split into 1 to 12 passes), so this
# keeps NCI1-sized minibatches (up to about 9k edges) to a few passes.
UNION_EDGE_BUDGET = 2**12


def _chunks(batch, rngs, blocks, cuts, gamma):
    """Each run of steps [a, b) of the batch's (graph, step) sequence as the
    arguments of ``_batch_losses`` for those steps: one union plan with a
    run per graph the steps touch, over the rows before the run's last
    block (all its steps read), those graphs' labels and RNGs, and the
    runs' teacher arrays.  A graph's RNG goes to every chunk that holds its
    steps, in step order."""
    first = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    for a, b in zip(cuts[:-1], cuts[1:]):
        graphs = range(
            int(np.searchsorted(first, a, side="right")) - 1,
            int(np.searchsorted(first, b, side="left")),
        )
        runs = [(batch[g][0], blocks[g][max(a - first[g], 0):b - first[g]]) for g in graphs]
        teacher = zip(*(_teacher(og, run, gamma) for og, run in runs))
        yield (
            UnionPlan([(og.lower_rows[:run[-1][0]], run) for og, run in runs]),
            [batch[g][1] for g in graphs],
            [rngs[g] for g in graphs],
            tuple(np.concatenate(arrays) for arrays in teacher),
        )


def _chunk_backward(chunk, gen_params, clf_params, nodeclf_params, config, tau, scale):
    """Forward and backward of one chunk of a minibatch's steps; gradients
    add into the parameters' .grad, and the chunk's tape is released on
    return.  Returns the chunk's adjacency, condition, node-label and total
    loss, each scaled by ``scale``."""
    l_adj, l_cond, l_node = _batch_losses(
        *chunk, gen_params, clf_params, nodeclf_params, config, tau
    )
    adj_total = scale * l_adj
    cond_total = constant(0.0) if l_cond is None else scale * l_cond
    node_total = constant(0.0) if l_node is None else scale * l_node
    total = (
        adj_total
        + config.lambda_condition * cond_total
        + config.lambda_node_label * node_total
    )
    total.backward()
    return adj_total.item(), cond_total.item(), node_total.item(), total.item()


# glibc's mallopt parameters, and the environment settings that fix them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ALLOCATOR_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")
_ALLOCATOR_TUNABLES = ("glibc.malloc.trim_threshold", "glibc.malloc.mmap_threshold")


@functools.cache
def _keep_freed_memory() -> bool:
    """Keep the arrays a training step frees mapped for the next step, on
    glibc only; True when both thresholds were set.

    By default glibc serves each allocation above a dynamic threshold with
    its own mmap and returns the heap's free top to the OS once it exceeds
    twice that threshold.  A chunk of a training step frees its whole tape,
    arrays of up to a few MB, at the end of its backward, so the heap top
    is trimmed after every backward and the next chunk faults its arrays
    in again page by page: 34,000-60,000 minor faults per ``toy`` epoch.
    Fixed thresholds stop that.  Arrays up to 32 MiB, the ceiling of
    glibc's own dynamic threshold, come from the heap, so later large
    arrays reuse what training freed rather than mapping more (at 8 MiB
    the ``nci1`` benchmark's peak RSS rose by about 6%).  The heap keeps up
    to 256 MiB of free top.  64 MiB, the smallest power of two that left no
    repeated faults in a training step on graphs of up to 620 nodes, left
    the same faults per ``nci1`` iteration, but in ten rotated runs of the
    ``nci1`` benchmark its median training step took 11% longer than at
    256 MiB, for no lower peak RSS.  The price is that RSS stays near its
    peak between steps instead of falling.

    The first ``train_step`` of a process calls this, so importing the
    package changes nothing.  Thresholds fixed in the environment
    (``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_MMAP_THRESHOLD_`` or their
    ``GLIBC_TUNABLES``) are left as they are."""
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (not sys.platform.startswith("linux")
            or any(name in os.environ for name in _ALLOCATOR_VARIABLES)
            or any(name in tunables for name in _ALLOCATOR_TUNABLES)):
        return False
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    # fixing either threshold turns off glibc's adjustment of both
    return bool(libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20))


def train_step(
    batch: Sequence[tuple[OrderedGraph, int]],
    gen_params: GeneratorParams,
    clf_params: Optional[GraphClassifierParams],
    nodeclf_params: Optional[NodeClassifierParams],
    config: TrainConfig,
    opt: Adam,
    tau: float,
    rngs: Sequence[np.random.Generator],
) -> LossBreakdown:
    """One optimizer update on a batch; the graph classifier stays frozen
    (it is read through constant tensors, so it neither changes nor
    receives gradients).

    A batch whose union holds more than ``UNION_EDGE_BUDGET`` edges (counted
    by ``step_edges``) runs as ``graphs.balanced_cuts`` chunks of consecutive
    steps, each with its own forward and backward over the one union plan
    it builds; no plan outlives its chunk.  The loss terms sum over steps and
    every graph draws from its own RNG in step order, so the update equals
    the one-pass update up to summation order.  Raises NumericError, before
    the update, on a non-finite loss term or gradient.  The first call of a
    process fixes glibc's allocator thresholds (``_keep_freed_memory``)."""
    if not batch:
        raise ValueError("empty batch")
    _keep_freed_memory()
    if len(rngs) != len(batch):
        raise ValueError("one RNG substream per batch graph required")
    if config.lambda_condition > 0.0 and clf_params is None:
        raise ValueError("condition loss requires a pretrained graph classifier")
    if config.lambda_node_label > 0.0 and nodeclf_params is None:
        raise ValueError("node-label loss requires node-classifier parameters")

    blocks = [block_partition(og.base.num_nodes, config.block_size) for og, _ in batch]
    edges = np.concatenate([step_edges(og.lower_rows, b) for (og, _), b in zip(batch, blocks)])
    cuts = balanced_cuts(edges, UNION_EDGE_BUDGET)
    opt.zero_grad()
    parts = [
        _chunk_backward(chunk, gen_params, clf_params, nodeclf_params, config, tau,
                        1.0 / len(batch))
        for chunk in _chunks(batch, rngs, blocks, cuts, config.gamma)
    ]
    sums = np.sum(parts, axis=0)
    terms = dict(
        l_adj=_check_finite(float(sums[0]), "adjacency likelihood"),
        l_condition=_check_finite(float(sums[1]), "condition"),
        l_node_label=_check_finite(float(sums[2]), "node label"),
        total=_check_finite(float(sums[3]), "total"),
    )
    if config.clip_norm > 0.0:
        norm = clip_gradients(opt.params, config.clip_norm)
    else:
        norm = _grad_norm(opt.params)
    if not np.isfinite(norm):
        named = dict(gen_params.named_tensors())
        if nodeclf_params is not None:
            named.update(nodeclf_params.named_tensors())
        raise NumericError(
            f"non-finite gradient in {_non_finite_gradient(opt.params, named)}"
        )
    opt.step()
    return LossBreakdown(
        **terms, grad_norm=norm, chunks=len(parts),
        max_chunk_edges=int(np.add.reduceat(edges, cuts[:-1]).max()),
    )


# ---------------------------------------------------------------------------
# epoch loop


def train_generator(
    graphs: Sequence[Graph],
    clf_params: Optional[GraphClassifierParams],
    config: TrainConfig,
    log_stream=None,
    num_node_labels: Optional[int] = None,
) -> tuple[GeneratorParams, NodeClassifierParams, list[dict]]:
    """Full training run over a corpus; returns generator and node-classifier
    parameters plus one epoch record per epoch (also written to
    ``log_stream`` as JSON lines when given).  A record holds the epoch's
    mean loss terms, ``tau``, and the mean and largest gradient norm before
    clipping with the number of clipped steps.  The log line adds the wall
    ``seconds`` and ``graphs_per_s``, which the returned records leave out
    so that seeded runs return identical histories, and ``chunks``, the
    forward/backward passes the epoch ran, with ``max_chunk_edges``, the
    union edges of its largest pass (see ``train_step``)."""
    if not graphs:
        raise ValueError("training needs at least one graph")
    num_classes = max(g.class_label for g in graphs) + 1
    if num_node_labels is None:
        num_node_labels = max(max(g.node_labels) for g in graphs) + 1
    ordered = [(decompose(g, config.max_nodes), g.class_label) for g in graphs]

    gen_params = init_generator(
        config.generator_config(num_classes), np.random.default_rng([config.seed, 0])
    )
    nodeclf_params = init_node_classifier(
        gen_params.config.hidden_dim, num_node_labels, np.random.default_rng([config.seed, 1])
    )
    opt = Adam(gen_params.tensors() + nodeclf_params.tensors(), lr=config.lr)

    history = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        tau = config.tau_at(epoch)
        order = np.random.default_rng([config.seed, 2, epoch]).permutation(len(ordered))
        sums = np.zeros(4)
        norms, clipped = [], 0
        passes, max_chunk_edges = 0, 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = [ordered[i] for i in idx]
            rngs = [np.random.default_rng([config.seed, 3, epoch, int(i)]) for i in idx]
            bd = train_step(
                batch, gen_params, clf_params, nodeclf_params, config, opt, tau, rngs
            )
            sums += np.array([bd.l_adj, bd.l_condition, bd.l_node_label, bd.total]) * len(idx)
            norms.append(bd.grad_norm)
            clipped += int(0.0 < config.clip_norm < bd.grad_norm)
            passes += bd.chunks
            max_chunk_edges = max(max_chunk_edges, bd.max_chunk_edges)
        means = sums / len(ordered)
        record = {
            "epoch": epoch,
            "l_adj": float(means[0]),
            "l_condition": float(means[1]),
            "l_node_label": float(means[2]),
            "total": float(means[3]),
            "tau": tau,
            "grad_norm_mean": float(np.mean(norms)),
            "grad_norm_max": float(np.max(norms)),
            "clipped_steps": clipped,
        }
        history.append(record)
        if log_stream is not None:
            seconds = time.perf_counter() - started
            extra = {
                "seconds": seconds,
                "graphs_per_s": len(ordered) / seconds,
                "chunks": passes,
                "max_chunk_edges": max_chunk_edges,
            }
            log_stream.write(json.dumps({**record, **extra}) + "\n")
            log_stream.flush()
    return gen_params, nodeclf_params, history
