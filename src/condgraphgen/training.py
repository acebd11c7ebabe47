"""Composite training objective and optimization loop for the generator.

The loss has three parts: the teacher-forced negative block log-likelihood,
a class-condition loss from a frozen graph classifier applied to relaxed
partial graphs, and a node-label loss from the node classifier.  Discrete
edge samples stay differentiable through a straight-through Gumbel-softmax.
Condition and node-label terms are discounted by gamma^(nodes missing), so
nearly complete prefixes weigh more.

One optimizer step runs every generation step of every graph in the
minibatch as a single forward pass over one block-diagonal union graph
(see _UnionPlan and _BatchUnion).  The frozen classifier reads the relaxed
partial graphs of that union as a weighted edge list, so memory grows with
the union's nodes and edges, not with their square.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (
    Adam,
    Tensor,
    as_tensor,
    clip,
    concat,
    constant,
    gather_rows,
    log,
    log_sigmoid,
    log_softmax,
    logsumexp,
    segment_sum,
    sigmoid,
    straight_through,
)
from .classifiers import (
    GraphClassifierParams,
    NodeClassifierParams,
    ClassProbabilities,
    classify_nodes,
    graph_logits,
    init_node_classifier,
    uniform_features,
)
from .errors import ConfigError, NumericError
from .generator import (
    ClassConditionVector,
    GeneratorConfig,
    GeneratorParams,
    MixtureParams,
    NodeStates,
    augmented_edges,
    block_bits,
    candidate_pairs,
    init_generator,
    run_rounds,
)
from .graphs import Graph, OrderedGraph, block_partition, decompose


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
        for name in ("block_size", "max_nodes", "mixture_k", "rounds",
                     "hidden_dim_h", "cond_dim", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.block_size > self.max_nodes:
            raise ConfigError("block_size cannot exceed max_nodes")

    def generator_config(self, num_classes: int) -> GeneratorConfig:
        return GeneratorConfig(
            max_nodes=self.max_nodes,
            block_size=self.block_size,
            num_classes=num_classes,
            hidden_dim_h=self.hidden_dim_h,
            cond_dim=self.cond_dim,
            mixture_k=self.mixture_k,
            rounds=self.rounds,
            tied_rounds=self.tied_rounds,
        )

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


def train_config_to_dict(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)


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


def gumbel_noise_diff(u) -> np.ndarray:
    u1, u2 = np.asarray(u, dtype=np.float64).reshape(2)
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0):
        raise ValueError("uniform draws must lie strictly in (0, 1)")
    g1, g2 = -np.log(-np.log(u1)), -np.log(-np.log(u2))
    return np.asarray(g1 - g2)


def gumbel_soft_sample(p_edge, tau: float, u) -> Tensor:
    """The relaxed (strictly interior) sample before straight-through."""
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    return _gumbel_soft(as_tensor(p_edge), tau, gumbel_noise_diff(u))


def gumbel_softmax_edge(p_edge, tau: float, u) -> Tensor:
    """Straight-through edge bit: forward value is the hard argmax of the
    two-category Gumbel-softmax, gradient follows the soft sample."""
    soft = gumbel_soft_sample(p_edge, tau, u)
    hard = (soft.value > 0.5).astype(np.float64)
    return straight_through(soft, hard)


def sample_block_relaxed(
    mix: MixtureParams, tau: float, rng: np.random.Generator
) -> Tensor:
    """Sample one mixture component, then straight-through bits for every
    candidate edge of the block (canonical order).  The component choice is
    a hard categorical draw; gradients flow only through the edge path."""
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    if not np.isfinite(mix.alpha.value).all():
        raise NumericError("non-finite mixture weights during edge sampling")
    k = int(rng.choice(mix.num_components, p=mix.alpha.value))
    if mix.num_pairs == 0:
        return constant(np.zeros(0))
    u = rng.random((mix.num_pairs, 2))
    if not ((u > 0).all() and (u < 1).all()):  # pragma: no cover - measure zero
        u = np.clip(u, 1e-12, 1 - 1e-12)
    noise = -np.log(-np.log(u))
    soft = _gumbel_soft(mix.theta[:, k], tau, noise[:, 0] - noise[:, 1])
    hard = (soft.value > 0.5).astype(np.float64)
    return straight_through(soft, hard)


# ---------------------------------------------------------------------------
# discounted loss terms


def _discount(gamma: float, n_full: int, n_prefix: int) -> float:
    if n_prefix > n_full:
        raise ValueError("prefix cannot be larger than the full graph")
    return float(gamma ** (n_full - n_prefix))


def condition_loss(
    probs: ClassProbabilities, target: int, n_full: int, n_prefix: int, gamma: float
) -> Tensor:
    """Classifier cross-entropy at the requested class, discounted by
    gamma^(nodes still missing)."""
    if not 0 <= target < probs.dist.shape[0]:
        raise ValueError(f"target class {target} out of range")
    return _discount(gamma, n_full, n_prefix) * -probs.log_dist[target]


def node_label_loss(
    node_dists: Tensor, targets, n_full: int, n_prefix: int, gamma: float
) -> Tensor:
    """Mean cross-entropy of per-node label distributions at the ground-truth
    labels, discounted like the condition loss."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != node_dists.shape[0]:
        raise ValueError("one target per block node required")
    picked = node_dists[np.arange(targets.shape[0]), targets]
    return _discount(gamma, n_full, n_prefix) * -log(picked).mean()


# ---------------------------------------------------------------------------
# one optimization step


@dataclass(frozen=True)
class LossBreakdown:
    """Per-batch averages; total = l_adj + λ1·l_condition + λ2·l_node_label.
    Terms whose weight is zero are skipped and reported as 0."""

    l_adj: float
    l_condition: float
    l_node_label: float
    total: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


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


class _UnionPlan:
    """Index bookkeeping that lays every teacher-forced generation step of one
    graph side by side in a block-diagonal 'union' graph.

    Teacher forcing makes the steps conditionally independent given the
    ground-truth prefix rows, so one forward pass over the union computes all
    steps at once; per-step quantities are recovered with segment sums.
    Union node u = offsets[t] + i stands for local node i at step t.  Indices
    are local to the graph; _BatchUnion offsets them to stack a minibatch.
    A plan depends only on the ordered graph, so it is built once per
    training run.
    """

    def __init__(self, og: OrderedGraph, block_size: int, gamma: float):
        n = og.base.num_nodes
        blocks = block_partition(n, block_size).blocks
        self.num_nodes = n
        self.num_steps = len(blocks)
        self.rows = og.lower_rows[:n]

        src_idx, x, recv, send, pre_recv, pre_send = [], [], [], [], [], []
        g_rows, g_cols, pair_seg, pair_counts, bits = [], [], [], [], []
        node_seg, counts, block_idx, w_node = [], [], [], []
        offset = 0
        for t, block in enumerate(blocks):
            n_prev, n_cur = block[0], block[-1] + 1
            # previous nodes take their embedded adjacency row; new nodes
            # (marked -1) take an all-zero row
            src_idx.append(np.arange(n_prev))
            src_idx.append(np.full(len(block), -1))
            flags = np.zeros(n_cur)
            flags[n_prev:] = 1.0
            x.append(flags)
            er, es = augmented_edges(og.lower_rows, n_prev, block)
            recv.append(er + offset)
            send.append(es + offset)
            # observed prefix edges, both directions, for the classifier
            obs_i, obs_j = np.nonzero(og.lower_rows[:n_prev])
            pre_recv += [obs_i + offset, obs_j + offset]
            pre_send += [obs_j + offset, obs_i + offset]
            cr, cc = candidate_pairs(block)
            g_rows.append(cr + offset)
            g_cols.append(cc + offset)
            pair_seg.append(np.full(cr.shape[0], t))
            pair_counts.append(cr.shape[0])
            bits.append(block_bits(og.lower_rows, block))
            node_seg.append(np.full(n_cur, t))
            counts.append(n_cur)
            block_idx.append(np.asarray(block) + offset)
            w_node.append(np.full(len(block), gamma ** (n - n_cur) / len(block)))
            offset += n_cur

        def ints(parts):
            return np.concatenate(parts).astype(np.int64)

        self.total_nodes = offset
        self.src_idx = ints(src_idx)
        self.x = np.concatenate(x)
        self.recv, self.send = ints(recv), ints(send)
        self.prefix_recv, self.prefix_send = ints(pre_recv), ints(pre_send)
        self.g_rows = ints(g_rows)
        self.g_cols = ints(g_cols)
        self.pair_seg = ints(pair_seg)
        self.pair_offsets = np.concatenate([[0], np.cumsum(pair_counts)])
        self.num_pairs = int(self.pair_offsets[-1])
        self.teacher_bits = np.concatenate(bits)
        self.node_seg = ints(node_seg)
        self.w_steps = gamma ** (n - np.asarray(counts, dtype=np.float64))
        self.block_idx = ints(block_idx)
        self.w_node = np.concatenate(w_node)
        self.node_targets = np.asarray(
            [og.base.node_labels[og.pi[i]] for i in range(n)], dtype=np.int64
        )


class _BatchUnion:
    """The plans of one minibatch stacked into a single union: each graph's
    node, step and embedded-row indices are offset by the graphs before it.
    New nodes of every graph share one all-zero row after the real rows."""

    def __init__(self, plans: Sequence[_UnionPlan], labels: Sequence[int]):
        def offsets(sizes):
            return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

        node_off = offsets([p.total_nodes for p in plans])
        self.step_off = offsets([p.num_steps for p in plans])
        self.pair_off = offsets([p.num_pairs for p in plans])
        row_off = offsets([p.num_nodes for p in plans])

        def stack(field, offs=None):
            arrays = [getattr(p, field) for p in plans]
            if offs is None:
                return np.concatenate(arrays)
            return np.concatenate([a + o for a, o in zip(arrays, offs)])

        self.num_steps = int(sum(p.num_steps for p in plans))
        self.num_pairs = int(sum(p.num_pairs for p in plans))
        self.rows = stack("rows")
        pad = self.rows.shape[0]
        self.src_idx = np.concatenate(
            [np.where(p.src_idx < 0, pad, p.src_idx + o) for p, o in zip(plans, row_off)]
        )
        self.x = stack("x")
        self.total_nodes = self.x.shape[0]
        self.node_graph = np.repeat(np.arange(len(plans)), [p.total_nodes for p in plans])
        self.edges = (stack("recv", node_off), stack("send", node_off))
        self.g_rows = stack("g_rows", node_off)
        self.g_cols = stack("g_cols", node_off)
        self.pair_seg = stack("pair_seg", self.step_off)
        self.teacher_bits = stack("teacher_bits")
        self.node_seg = stack("node_seg", self.step_off)
        self.w_steps = stack("w_steps")
        self.step_labels = np.repeat(
            np.asarray(labels, dtype=np.int64), [p.num_steps for p in plans]
        )
        self.block_idx = stack("block_idx", node_off)
        self.w_node = stack("w_node")
        self.node_targets = stack("node_targets")
        # classifier edges: observed prefix edges (weight 1), then every
        # candidate pair in both directions (weight = its straight-through bit)
        pre_recv = stack("prefix_recv", node_off)
        pre_send = stack("prefix_send", node_off)
        self.num_prefix_edges = pre_recv.shape[0]
        self.clf_edges = (
            np.concatenate([pre_recv, self.g_rows, self.g_cols]),
            np.concatenate([pre_send, self.g_cols, self.g_rows]),
        )


def _batch_losses(
    batch: Sequence[tuple[OrderedGraph, int]],
    gen_params: GeneratorParams,
    clf_params: Optional[GraphClassifierParams],
    nodeclf_params: Optional[NodeClassifierParams],
    config: TrainConfig,
    tau: float,
    rngs: Sequence[np.random.Generator],
    plans: Optional[Sequence[_UnionPlan]] = None,
) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """Loss terms summed over every generation step of every batch graph.

    All steps of all graphs run as one union forward pass (see _BatchUnion);
    the math per step is identical to step_forward + the per-step loss
    definitions.  Each graph draws its mixture components and Gumbel noise
    from its own RNG, step by step, in batch order.  Terms whose weight is
    zero come back as None.
    """
    if plans is None:
        plans = [_UnionPlan(og, config.block_size, config.gamma) for og, _ in batch]
    labels = [label for _, label in batch]
    num_classes = gen_params.config.num_classes
    onehots = np.stack([ClassConditionVector.for_class(c, num_classes).onehot for c in labels])
    u = _BatchUnion(plans, labels)

    # initial states: embedded prefix rows (each real row embedded once),
    # zeros for new nodes, the graph's class embedding appended everywhere
    hidden_h = gen_params.config.hidden_dim_h
    embedded = gen_params.row_embed(constant(u.rows))
    padded = concat([embedded, constant(np.zeros((1, hidden_h)))], axis=0)
    h_hat = gather_rows(padded, u.src_idx)
    c_hat = gen_params.cond_embed(constant(onehots))
    states = NodeStates(concat([h_hat, gather_rows(c_hat, u.node_graph)], axis=1), u.x)
    states = run_rounds(states, u.edges, gen_params)

    # output heads for every step at once
    diff = gather_rows(states.h, u.g_rows) - gather_rows(states.h, u.g_cols)
    alpha_logits = segment_sum(gen_params.head_alpha(diff), u.pair_seg, u.num_steps)
    log_alpha = log_softmax(alpha_logits, axis=1)
    theta_logits = gen_params.head_theta(diff)

    b = constant(u.teacher_bits[:, None])
    pair_ll = b * log_sigmoid(theta_logits) + (1.0 - b) * log_sigmoid(-theta_logits)
    per_component = segment_sum(pair_ll, u.pair_seg, u.num_steps)
    l_adj = -logsumexp(log_alpha + per_component, axis=1).sum()

    l_cond = None
    if config.lambda_condition > 0.0:
        alpha_vals = np.exp(log_alpha.value)
        if not np.isfinite(alpha_vals).all():
            raise NumericError("non-finite mixture weights during edge sampling")
        k_per_pair = np.zeros(u.num_pairs, dtype=np.int64)
        noise = np.zeros(u.num_pairs)
        for plan, rng, s0, p0 in zip(plans, rngs, u.step_off, u.pair_off):
            for t in range(plan.num_steps):
                k = int(rng.choice(alpha_vals.shape[1], p=alpha_vals[s0 + t]))
                lo, hi = p0 + plan.pair_offsets[t], p0 + plan.pair_offsets[t + 1]
                if hi > lo:
                    draws = np.clip(rng.random((hi - lo, 2)), 1e-12, 1 - 1e-12)
                    gumbels = -np.log(-np.log(draws))
                    noise[lo:hi] = gumbels[:, 0] - gumbels[:, 1]
                    k_per_pair[lo:hi] = k
        weights = [constant(np.ones((u.num_prefix_edges, 1)))]
        if u.num_pairs:
            theta = clip(sigmoid(theta_logits), 1e-12, 1.0 - 1e-12)
            theta_sel = theta[np.arange(u.num_pairs)[:, None], k_per_pair[:, None]]
            soft = _gumbel_soft(theta_sel, tau, noise[:, None])
            st_bits = straight_through(soft, (soft.value > 0.5).astype(np.float64))
            weights += [st_bits, st_bits]
        features = uniform_features(u.total_nodes, clf_params.feature_dim)
        logits = graph_logits(
            clf_params, features, *u.clf_edges, concat(weights, axis=0),
            u.node_seg, u.num_steps,
        )
        log_dist = log_softmax(log_sigmoid(logits), axis=1)
        picked = log_dist[np.arange(u.num_steps), u.step_labels]
        l_cond = -(constant(u.w_steps) * picked).sum()

    l_node = None
    if config.lambda_node_label > 0.0:
        block_states = gather_rows(states.h, u.block_idx)
        dists = classify_nodes(block_states, nodeclf_params)
        picked = dists[np.arange(u.node_targets.shape[0]), u.node_targets]
        l_node = -(constant(u.w_node) * log(picked)).sum()
    return l_adj, l_cond, l_node


def train_step(
    batch: Sequence[tuple[OrderedGraph, int]],
    gen_params: GeneratorParams,
    clf_params: Optional[GraphClassifierParams],
    nodeclf_params: Optional[NodeClassifierParams],
    config: TrainConfig,
    opt: Adam,
    tau: float,
    rngs: Sequence[np.random.Generator],
    plans: Optional[Sequence[_UnionPlan]] = None,
) -> LossBreakdown:
    """One optimizer update on a batch; the graph classifier stays frozen
    (its tensors are never part of ``opt``).  ``plans`` are the batch
    graphs' union plans when the caller keeps them across steps.  Raises
    NumericError, before the update, on a non-finite loss term or gradient."""
    if not batch:
        raise ValueError("empty batch")
    if len(rngs) != len(batch):
        raise ValueError("one RNG substream per batch graph required")
    if config.lambda_condition > 0.0 and clf_params is None:
        raise ValueError("condition loss requires a pretrained graph classifier")
    if config.lambda_node_label > 0.0 and nodeclf_params is None:
        raise ValueError("node-label loss requires node-classifier parameters")

    l_adj, l_cond, l_node = _batch_losses(
        batch, gen_params, clf_params, nodeclf_params, config, tau, rngs, plans
    )
    scale = 1.0 / len(batch)
    adj_total = scale * l_adj
    cond_total = constant(0.0) if l_cond is None else scale * l_cond
    node_total = constant(0.0) if l_node is None else scale * l_node
    total = (
        adj_total
        + config.lambda_condition * cond_total
        + config.lambda_node_label * node_total
    )
    breakdown = LossBreakdown(
        l_adj=_check_finite(adj_total.item(), "adjacency likelihood"),
        l_condition=_check_finite(cond_total.item(), "condition"),
        l_node_label=_check_finite(node_total.item(), "node label"),
        total=_check_finite(total.item(), "total"),
    )
    opt.zero_grad()
    total.backward()
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
    return breakdown


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
    ``log_stream`` as JSON lines when given, each with the epoch's wall
    ``seconds``, which the returned records leave out so that seeded runs
    return identical histories)."""
    if not graphs:
        raise ValueError("training needs at least one graph")
    num_classes = max(g.class_label for g in graphs) + 1
    if num_node_labels is None:
        num_node_labels = max(max(g.node_labels) for g in graphs) + 1
    ordered = [
        (decompose(g, config.block_size, config.max_nodes)[0], g.class_label)
        for g in graphs
    ]
    plans = [_UnionPlan(og, config.block_size, config.gamma) for og, _ in ordered]

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
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = [ordered[i] for i in idx]
            rngs = [np.random.default_rng([config.seed, 3, epoch, int(i)]) for i in idx]
            bd = train_step(
                batch, gen_params, clf_params, nodeclf_params, config, opt, tau, rngs,
                plans=[plans[i] for i in idx],
            )
            sums += np.array([bd.l_adj, bd.l_condition, bd.l_node_label, bd.total]) * len(idx)
        means = sums / len(ordered)
        record = {
            "epoch": epoch,
            "l_adj": float(means[0]),
            "l_condition": float(means[1]),
            "l_node_label": float(means[2]),
            "total": float(means[3]),
            "tau": tau,
        }
        history.append(record)
        if log_stream is not None:
            seconds = time.perf_counter() - started
            log_stream.write(json.dumps({**record, "seconds": seconds}) + "\n")
            log_stream.flush()
    return gen_params, nodeclf_params, history
