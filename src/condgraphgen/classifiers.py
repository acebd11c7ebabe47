"""Graph-level and node-level classifiers.

The graph classifier stacks three aggregate convolutions (self weight plus
weighted-mean neighbor weight, 32 channels each), mean-pools node states,
and scores classes through a two-layer MLP whose sigmoid outputs are
renormalized into a distribution.  The convolutions run on a weighted edge
list (GraphSAGE's neighbor-list mean aggregation), so one forward serves a
single discrete graph, a relaxed graph whose edge weights lie in [0, 1] and
carry gradients, and a union of many graphs pooled per graph with a segment
sum.  The node classifier is an MLP over final generator states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Adam,
    Linear,
    MLP,
    Tensor,
    as_tensor,
    clip,
    constant,
    gather_rows,
    he_uniform,
    log_sigmoid,
    log_softmax,
    make_mlp,
    matmul,
    parameter,
    relu,
    segment_sum,
    sigmoid,
    softmax,
)
from .datasets import DatasetSplit
from .errors import DataError

CONV_CHANNELS = 32
NODE_HIDDEN = (256, 256)


@dataclass
class ConvLayer:
    """ReLU(h W_self + mean_w(neighbors) W_neigh + b) over a weighted edge list."""

    w_self: Tensor
    w_neigh: Tensor
    bias: Tensor

    def __call__(
        self, h: Tensor, recv: np.ndarray, send: np.ndarray, weight: Tensor
    ) -> Tensor:
        """Edge e carries ``weight[e]`` (an (E, 1) column) from node
        ``send[e]`` into node ``recv[e]``."""
        n = h.shape[0]
        neigh_sum = segment_sum(gather_rows(h, send) * weight, recv, n)
        # floor of 1.0: identical to true mean for integer degrees >= 1 and for
        # isolated nodes (0/1 = 0), but keeps the gradient through low-mass
        # relaxed rows bounded instead of ~1/eps on nearly isolated nodes
        denom = clip(segment_sum(weight, recv, n), 1.0, np.inf)
        neigh_mean = neigh_sum / denom
        return relu(matmul(h, self.w_self) + matmul(neigh_mean, self.w_neigh) + self.bias)

    def tensors(self) -> list[Tensor]:
        return [self.w_self, self.w_neigh, self.bias]


@dataclass
class GraphClassifierParams:
    num_classes: int
    feature_dim: int
    convs: tuple
    head: MLP

    def tensors(self) -> list[Tensor]:
        out = []
        for conv in self.convs:
            out += conv.tensors()
        return out + self.head.tensors()

    def named_tensors(self) -> dict:
        named = {}
        for ci, conv in enumerate(self.convs):
            named[f"clf/conv/{ci}/self"] = conv.w_self
            named[f"clf/conv/{ci}/neigh"] = conv.w_neigh
            named[f"clf/conv/{ci}/bias"] = conv.bias
        for li, layer in enumerate(self.head.layers):
            named[f"clf/head/{li}/weight"] = layer.W
            named[f"clf/head/{li}/bias"] = layer.b
        return named


@dataclass
class ClassProbabilities:
    """Sigmoid per-class scores plus their renormalized distribution."""

    scores: Tensor
    dist: Tensor
    log_dist: Tensor

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.dist.value))


def init_graph_classifier(
    feature_dim: int, num_classes: int, rng: np.random.Generator
) -> GraphClassifierParams:
    dims = [feature_dim, CONV_CHANNELS, CONV_CHANNELS, CONV_CHANNELS]
    convs = tuple(
        ConvLayer(
            parameter(he_uniform(rng, d_in, d_out)),
            parameter(he_uniform(rng, d_in, d_out)),
            parameter(np.zeros(d_out)),
        )
        for d_in, d_out in zip(dims[:-1], dims[1:])
    )
    head = make_mlp(rng, [CONV_CHANNELS, CONV_CHANNELS, num_classes])
    return GraphClassifierParams(num_classes, feature_dim, convs, head)


def one_hot_features(labels, dim: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= dim):
        raise ValueError("node label outside feature range")
    out = np.zeros((labels.size, dim))
    out[np.arange(labels.size), labels] = 1.0
    return out


def uniform_features(n: int, dim: int) -> np.ndarray:
    """Stand-in node features when labels are not yet known."""
    return np.full((n, dim), 1.0 / dim)


def graph_logits(
    params: GraphClassifierParams,
    features,
    recv: np.ndarray,
    send: np.ndarray,
    weight: Tensor,
    graph_of_node: np.ndarray,
    num_graphs: int,
) -> Tensor:
    """Class logits, one row per graph, for a union of graphs given as one
    weighted edge list; node states are mean-pooled per ``graph_of_node``."""
    h = as_tensor(features)
    for conv in params.convs:
        h = conv(h, recv, send, weight)
    counts = np.bincount(graph_of_node, minlength=num_graphs)
    pooled = segment_sum(h, graph_of_node, num_graphs) * constant(1.0 / counts[:, None])
    return params.head(pooled)


def _probabilities(logits: Tensor) -> ClassProbabilities:
    log_scores = log_sigmoid(logits)
    return ClassProbabilities(
        scores=sigmoid(logits),
        dist=softmax(log_scores),
        log_dist=log_softmax(log_scores),
    )


def classify_graph(features, adjacency, params: GraphClassifierParams) -> ClassProbabilities:
    """Class scores for a (possibly relaxed) graph.

    ``adjacency`` entries weight the neighbor mean, so the forward pass is
    differentiable with respect to a relaxed adjacency tensor.  All n^2
    entries enter the edge list in row-major order, zeros included, so each
    one receives its gradient.
    """
    h = as_tensor(features)
    a = as_tensor(adjacency)
    if a.value.ndim != 2 or a.value.shape[0] != a.value.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if a.value.shape[0] != h.value.shape[0]:
        raise ValueError("adjacency size does not match feature rows")
    if h.value.shape[1] != params.feature_dim:
        raise ValueError("feature width does not match the classifier")
    if (a.value < 0).any() or (a.value > 1).any():
        raise ValueError("adjacency entries must lie in [0, 1]")

    n = h.value.shape[0]
    recv = np.repeat(np.arange(n), n)
    send = np.tile(np.arange(n), n)
    weight = a[recv[:, None], send[:, None]]
    logits = graph_logits(params, h, recv, send, weight, np.zeros(n, dtype=np.int64), 1)
    return _probabilities(logits[0])


def _discrete_parts(g, feature_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-hot features and (recv, send) edges in row-major adjacency order,
    the order in which classify_graph meets the nonzero entries."""
    recv, send = np.nonzero(g.adjacency())
    return one_hot_features(g.node_labels, feature_dim), recv, send


def _discrete_logits(parts, params: GraphClassifierParams) -> Tensor:
    """Logits of discrete graphs given as (features, recv, send) parts, run as
    one union: each graph's edges are offset by the nodes of those before."""
    sizes = [feats.shape[0] for feats, _, _ in parts]
    offsets = np.cumsum([0] + sizes[:-1])
    feats = np.concatenate([f for f, _, _ in parts])
    recv = np.concatenate([r + o for (_, r, _), o in zip(parts, offsets)])
    send = np.concatenate([s + o for (_, _, s), o in zip(parts, offsets)])
    weight = constant(np.ones((recv.size, 1)))
    graph_of_node = np.repeat(np.arange(len(parts)), sizes)
    return graph_logits(params, feats, recv, send, weight, graph_of_node, len(parts))


def classify_discrete(g, params: GraphClassifierParams) -> ClassProbabilities:
    """Classify a discrete graph with one-hot node-label features."""
    logits = _discrete_logits([_discrete_parts(g, params.feature_dim)], params)
    return _probabilities(logits[0])


def predict_graph_class(params: GraphClassifierParams, g) -> int:
    return classify_discrete(g, params).predicted


def predict_graph_classes(params: GraphClassifierParams, graphs) -> np.ndarray:
    """Predicted class of each discrete graph, all classified as one union."""
    if not graphs:
        return np.zeros(0, dtype=np.int64)
    parts = [_discrete_parts(g, params.feature_dim) for g in graphs]
    return np.argmax(_probabilities(_discrete_logits(parts, params)).dist.value, axis=1)


def classifier_accuracy(params: GraphClassifierParams, graphs) -> float:
    if not graphs:
        raise ValueError("accuracy over an empty set is undefined")
    labels = np.asarray([g.class_label for g in graphs])
    return float(np.mean(predict_graph_classes(params, graphs) == labels))


# ---------------------------------------------------------------------------
# training


@dataclass
class ClassifierTrainConfig:
    epochs: int = 30
    lr: float = 3e-3
    batch_size: int = 16
    seed: int = 0


def _snapshot(params: GraphClassifierParams) -> list[np.ndarray]:
    return [t.value.copy() for t in params.tensors()]


def _restore(params: GraphClassifierParams, snap: list[np.ndarray]) -> None:
    for t, v in zip(params.tensors(), snap):
        t.value[...] = v


def train_graph_classifier(
    split: DatasetSplit, hyper: ClassifierTrainConfig | None = None
) -> tuple[GraphClassifierParams, list[dict]]:
    """Cross-entropy training on discrete graphs; returns the parameters with
    the best validation accuracy plus the per-epoch history."""
    hyper = hyper or ClassifierTrainConfig()
    train = list(split.train)
    classes = {g.class_label for g in train}
    if len(classes) < 2:
        raise DataError("classifier training needs at least two classes")
    everything = train + list(split.validation) + list(split.test)
    num_classes = max(g.class_label for g in everything) + 1
    feature_dim = max(max(g.node_labels) for g in everything) + 1

    rng = np.random.default_rng(hyper.seed)
    params = init_graph_classifier(feature_dim, num_classes, rng)
    opt = Adam(params.tensors(), lr=hyper.lr)

    parts = [_discrete_parts(g, feature_dim) for g in train]
    labels = np.asarray([g.class_label for g in train], dtype=np.int64)

    def batch_loss(idx) -> Tensor:
        """Mean cross-entropy over one minibatch, run as one union."""
        logits = _discrete_logits([parts[i] for i in idx], params)
        log_dist = log_softmax(log_sigmoid(logits), axis=1)
        return -log_dist[np.arange(len(idx)), labels[idx]].sum() * (1.0 / len(idx))

    history = []
    best_acc, best_snap = -1.0, _snapshot(params)
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            opt.zero_grad()
            loss = batch_loss(batch)
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(batch)
        val_acc = classifier_accuracy(params, split.validation)
        history.append(
            {
                "epoch": epoch,
                "loss": epoch_loss / len(train),
                "val_accuracy": val_acc,
            }
        )
        if val_acc > best_acc:
            best_acc, best_snap = val_acc, _snapshot(params)
    _restore(params, best_snap)
    return params, history


# ---------------------------------------------------------------------------
# node-label classifier


@dataclass
class NodeClassifierParams:
    num_labels: int
    input_dim: int
    mlp: MLP = field(repr=False)

    def tensors(self) -> list[Tensor]:
        return self.mlp.tensors()

    def named_tensors(self) -> dict:
        named = {}
        for li, layer in enumerate(self.mlp.layers):
            named[f"nodeclf/{li}/weight"] = layer.W
            named[f"nodeclf/{li}/bias"] = layer.b
        return named


def init_node_classifier(
    input_dim: int, num_labels: int, rng: np.random.Generator
) -> NodeClassifierParams:
    mlp = make_mlp(rng, [input_dim, *NODE_HIDDEN, num_labels])
    return NodeClassifierParams(num_labels, input_dim, mlp)


def node_label_scores(states, params: NodeClassifierParams) -> Tensor:
    """Raw per-node label logits from final node states."""
    h = states.h if hasattr(states, "h") else as_tensor(states)
    if h.value.shape[1] != params.input_dim:
        raise ValueError("state width does not match the node classifier")
    return params.mlp(h)


def classify_nodes(states, params: NodeClassifierParams) -> Tensor:
    """Per-node label distributions (rows sum to 1)."""
    return softmax(node_label_scores(states, params), axis=1)
