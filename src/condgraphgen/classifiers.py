"""Graph-level and node-level classifiers.

The graph classifier stacks three aggregate convolutions (self weight plus
weighted-mean neighbor weight, 32 channels each), mean-pools node states,
and scores classes through a two-layer MLP whose sigmoid outputs are
renormalized into a distribution.  The convolutions run on a weighted edge
list (GraphSAGE's neighbor-list mean aggregation), so one forward serves a
single discrete graph, a relaxed graph whose edge weights lie in [0, 1] and
carry gradients, and a union of many graphs pooled per graph with a segment
sum.  The whole read-out is one tape node (``graph_logits``) that keeps
only arrays with one row per node and rebuilds each layer's per-edge
messages in its backward.  The node classifier is an MLP over final
generator states.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import autodiff, backend
from .autodiff import (
    Adam,
    Linear,
    MLP,
    Tensor,
    _mlp_backward,
    _mlp_values,
    _product,
    _unbroadcast,
    as_tensor,
    constant,
    he_uniform,
    log_sigmoid,
    log_softmax,
    make_mlp,
    no_grad,
    parameter,
    softmax,
)
from .datasets import DatasetSplit
from .errors import DataError
from .graphs import balanced_cuts, union_edges

CONV_CHANNELS = 32
NODE_HIDDEN = (256, 256)


@dataclass
class ConvLayer:
    """ReLU(h W_self + mean_w(neighbors) W_neigh + b) over a weighted edge list."""

    w_self: Tensor
    w_neigh: Tensor
    bias: Tensor

    def __call__(
        self,
        h: np.ndarray,
        recv: np.ndarray,
        send: np.ndarray,
        weight: np.ndarray | None,
        denom: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The layer's forward on arrays, as ``graph_logits`` runs it: edge e
        carries ``weight[e]`` (an (E, 1) column; None means 1) from node
        ``send[e]`` into node ``recv[e]``, and ``denom`` is each node's weight
        sum clipped below at 1, an (n, 1) column.  Returns the layer's output
        and the weighted neighbor sum."""
        msg = h[send]
        if weight is not None:
            msg *= weight
        neigh_sum = backend.segment_sum(msg, recv, h.shape[0])
        out = _product(h, self.w_self.value)
        out += _product(neigh_sum / denom, self.w_neigh.value)
        out += self.bias.value
        np.maximum(out, 0.0, out=out)
        return out, neigh_sum

    def tensors(self) -> list[Tensor]:
        return [self.w_self, self.w_neigh, self.bias]


@dataclass
class GraphClassifierParams:
    num_classes: int
    feature_dim: int
    convs: tuple
    head: MLP

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def frozen(self) -> "GraphClassifierParams":
        """The same classifier read through constant tensors that share these
        values: a forward through it records no tape for its weights, and no
        gradient lands on them."""
        convs = tuple(
            ConvLayer(constant(conv.w_self.value), constant(conv.w_neigh.value),
                      constant(conv.bias.value))
            for conv in self.convs
        )
        head = MLP([Linear(constant(layer.W.value), constant(layer.b.value))
                    for layer in self.head.layers])
        return GraphClassifierParams(self.num_classes, self.feature_dim, convs, head)

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
    weight: Tensor | None,
    graph_of_node: np.ndarray,
    num_graphs: int,
    degree: np.ndarray | None = None,
) -> Tensor:
    """Class logits, one row per graph, for a union of graphs given as one
    weighted edge list; node states are mean-pooled per ``graph_of_node``.
    ``weight`` None means unit weights, with ``degree`` each node's edge
    count clipped below at 1, an (n, 1) float column.

    The convolutions, the pooling and the head are one tape node.  Per
    layer it keeps the layer's input, its ReLU mask and its weighted
    neighbor sum, all one row per node; the backward gathers the senders'
    rows again rather than keeping an array per edge.  The clipped weight
    sum, the same in every layer, is computed once.  Gradients go to the
    edge weights, the features and the classifier's parameters, each only
    when it requires one, with the bits of the op-by-op read-out.  Under
    ``no_grad``, or when nothing requires a gradient, it keeps nothing."""
    x = as_tensor(features)
    n, convs = x.shape[0], params.convs
    conv_params = [t for conv in convs for t in conv.tensors()]
    parents = (x, *(() if weight is None else (weight,)), *conv_params, *params.head.tensors())
    keep = autodiff._records(parents)
    if weight is None:
        w = w_sum = None
        denom = degree
    else:
        w = weight.value
        w_sum = backend.segment_sum(w, recv, n)
        # floor of 1.0: identical to the true mean for integer degrees >= 1
        # and for isolated nodes (0/1 = 0), but keeps the gradient through
        # low-mass relaxed rows bounded instead of ~1/eps on nearly isolated
        # nodes
        denom = np.clip(w_sum, 1.0, np.inf)
    h, kept = x.value, []
    for conv in convs:
        out, neigh_sum = conv(h, recv, send, w, denom)
        if keep:
            kept.append((h, out > 0.0, neigh_sum))
        h = out
    inv_counts = 1.0 / np.bincount(graph_of_node, minlength=num_graphs)[:, None]
    pooled = backend.segment_sum(h, graph_of_node, num_graphs) * inv_counts
    logits, head_inputs = _mlp_values(params.head.layers, pooled)

    weight_grad = weight is not None and weight.requires_grad
    # whether layer l needs the gradient of its input: something below it
    # (a lower layer's parameters, the edge weights or the features) needs one
    input_grad = [x.requires_grad] + [
        x.requires_grad or weight_grad or any(t.requires_grad for t in conv_params[: 3 * l])
        for l in range(1, len(convs) + 1)
    ]

    def backward(g):
        g = _mlp_backward(params.head, head_inputs, g, input_grad[-1])
        if g is None:
            return
        g = (g * inv_counts)[graph_of_node]
        # the weights' adjoint sums its terms in the op-by-op tape's order:
        # the message terms from the last layer down, then the weight-sum
        # terms from the first layer up
        w_adj, sum_adjs = None, []
        for l in reversed(range(len(convs))):
            conv, (h_in, mask, neigh_sum) = convs[l], kept[l]
            g *= mask
            if conv.w_self.requires_grad:
                conv.w_self._accumulate(h_in.T @ g)
            if conv.w_neigh.requires_grad:
                conv.w_neigh._accumulate((neigh_sum / denom).T @ g)
            if conv.bias.requires_grad:
                conv.bias._accumulate(_unbroadcast(g, conv.bias.shape))
            if not (input_grad[l] or weight_grad):
                return
            g_neigh = g @ conv.w_neigh.value.T
            if weight_grad:
                sum_adjs.append(_unbroadcast(-g_neigh * neigh_sum / (denom * denom), denom.shape))
            g_neigh /= denom
            g_msg = g_neigh[recv]
            if weight_grad:
                term = _unbroadcast(g_msg * h_in[send], w.shape)
                w_adj = term if w_adj is None else w_adj + term
            if not input_grad[l]:
                break
            if w is not None:
                g_msg *= w
            g_in = g @ conv.w_self.value.T
            g_in += backend.segment_sum(g_msg, send, n)
            g = g_in
        if x.requires_grad:
            x._accumulate(g)
        if weight_grad:
            unclipped = (w_sum > 1.0) & (w_sum < np.inf)
            for g_denom in reversed(sum_adjs):
                w_adj += (g_denom * unclipped)[recv]
            weight._accumulate(w_adj)

    return autodiff._make(logits, parents, backward)


def _discrete_logits(graphs, params: GraphClassifierParams) -> Tensor:
    """Logits of discrete graphs, run as one union: each graph's nodes are
    offset by the nodes of those before it.  The edges, both directions of
    each, are the union's CSR in row-major adjacency order: a receiver per
    row entry, and the entry as its sender; every edge weighs 1."""
    n, _, pairs = union_edges(graphs)
    indptr, send = backend.csr_from_edges(int(n.sum()), pairs)
    degree = np.diff(indptr)
    recv = np.repeat(np.arange(degree.shape[0]), degree)
    feats = one_hot_features(
        list(chain.from_iterable(g.node_labels for g in graphs)), params.feature_dim
    )
    graph_of_node = np.repeat(np.arange(len(graphs)), n)
    return graph_logits(
        params, feats, recv, send, None, graph_of_node, len(graphs),
        np.maximum(degree, 1.0)[:, None],
    )


# Directed edges per union in ``class_distributions``.  On 589 NCI1-shaped
# graphs one union of all of them raised a pipeline's peak RSS from
# 103.9 MB (training's) to 123.7 MB; at this budget it stays within 1.5 MB
# of training's.  Budgets of 2^11 to 2^14 edges read 505 such graphs in
# 25-26 ms, against 43-44 ms at 2^15 and in one union.
READOUT_EDGES = 1 << 14


def class_log_probs(logits) -> Tensor:
    """Log class distribution, one row per graph: the sigmoid class scores
    of ``logits`` renormalized to sum to 1.  Both classifier training and
    the generator's condition loss read it, and ``class_distributions`` is
    its exponential."""
    return log_softmax(log_sigmoid(logits), axis=1)


@no_grad()
def class_distributions(params: GraphClassifierParams, graphs) -> np.ndarray:
    """Class distribution of each discrete graph, one row per graph (see
    ``class_log_probs``).  Consecutive graphs are classified together, cut
    by their directed edges into k = ceil(total / ``READOUT_EDGES``) unions
    (``graphs.balanced_cuts``); a union holds about total / k directed
    edges and exceeds that by less than one graph.  A row's bits do not
    depend on the union it falls in (see ``autodiff._product``)."""
    edges = np.array([2 * g.num_edges for g in graphs], dtype=np.int64)
    cuts = balanced_cuts(edges, READOUT_EDGES)
    rows = [
        np.exp(class_log_probs(_discrete_logits(graphs[a:b], params)).value)
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    return np.concatenate(rows) if rows else np.zeros((0, params.num_classes))


def predict_graph_classes(params: GraphClassifierParams, graphs) -> np.ndarray:
    """Predicted class of each discrete graph."""
    return np.argmax(class_distributions(params, graphs), axis=1)


def predict_graph_class(params: GraphClassifierParams, g) -> int:
    return int(predict_graph_classes(params, [g])[0])


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
    split: DatasetSplit, hyper: ClassifierTrainConfig | None = None, log_stream=None
) -> tuple[GraphClassifierParams, list[dict]]:
    """Cross-entropy training on discrete graphs; returns the parameters with
    the best validation accuracy, holding no gradients, plus the per-epoch
    history (also written to ``log_stream`` as JSON lines when given).  The
    log line adds the epoch's wall ``seconds``, which the returned records
    leave out so that seeded runs return identical histories."""
    hyper = hyper or ClassifierTrainConfig()
    train = list(split.train)
    classes = {g.class_label for g in train}
    if len(classes) < 2:
        raise DataError("classifier training needs at least two classes")
    if not split.validation:
        raise DataError("classifier training needs a non-empty validation split")
    everything = train + list(split.validation) + list(split.test)
    num_classes = max(g.class_label for g in everything) + 1
    feature_dim = max(max(g.node_labels) for g in everything) + 1

    rng = np.random.default_rng(hyper.seed)
    params = init_graph_classifier(feature_dim, num_classes, rng)
    opt = Adam(params.tensors(), lr=hyper.lr)

    labels = np.asarray([g.class_label for g in train], dtype=np.int64)

    def batch_loss(idx) -> Tensor:
        """Mean cross-entropy over one minibatch, run as one union."""
        log_dist = class_log_probs(_discrete_logits([train[i] for i in idx], params))
        return -log_dist[np.arange(len(idx)), labels[idx]].sum() * (1.0 / len(idx))

    history = []
    best_acc, best_snap = -1.0, _snapshot(params)
    for epoch in range(hyper.epochs):
        started = time.perf_counter()
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
        record = {
            "epoch": epoch,
            "loss": epoch_loss / len(train),
            "val_accuracy": val_acc,
        }
        history.append(record)
        if log_stream is not None:
            seconds = time.perf_counter() - started
            log_stream.write(json.dumps({**record, "seconds": seconds}) + "\n")
            log_stream.flush()
        if val_acc > best_acc:
            best_acc, best_snap = val_acc, _snapshot(params)
    _restore(params, best_snap)
    opt.zero_grad()
    return params, history


# ---------------------------------------------------------------------------
# node-label classifier


@dataclass
class NodeClassifierParams:
    num_labels: int
    input_dim: int
    mlp: MLP = field(repr=False)

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

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


def classify_nodes(states, params: NodeClassifierParams) -> Tensor:
    """Per-node label distributions (rows sum to 1) from final node states."""
    h = as_tensor(states)
    if h.value.shape[1] != params.input_dim:
        raise ValueError("state width does not match the node classifier")
    return softmax(params.mlp(h), axis=1)
