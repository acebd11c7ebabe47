"""Shared test utilities: finite-difference gradient oracle, error norms, the
round-trip oracle for ordered graphs, the autodiff ops that only tests call
(``div``, ``matmul``, ``relu``), the two-branch sigmoid, softplus and
the composed log-sigmoid that the fused ops are held to, the op-by-op reference for one
message-passing round and for the graph classifier's read-out, the per-step
reference oracle for the generator and the graph classifier, and the
per-graph reference for the evaluation statistics.

The package runs one forward, ``generator.step_forward`` over a union plan.
The oracle below is the independent per-step formulation it replaced: each
generation step gets its own augmented edge list (``augmented_edges``), its
own forward (``step_forward`` here), its own mixture (``MixtureParams``), its
own dense classifier pass (``classify_graph``) and its own loss terms, and
``oracle_generate`` samples through it.  ``reference_plan`` lays the same
per-step edge lists out as the fields of a union plan.  Tests hold the union
path to this oracle.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from condgraphgen import autodiff
from condgraphgen.autodiff import (
    MLP,
    GruCell,
    Pending,
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
    softmax,
    straight_through,
)
from condgraphgen.classifiers import ConvLayer, GraphClassifierParams, classify_nodes
from condgraphgen.errors import NumericError
from condgraphgen.evaluation import GraphStats
from condgraphgen.generator import GeneratorParams, candidate_pairs, gnn_round
from condgraphgen.graphs import Graph, block_partition, decompose
from condgraphgen.training import _chunks, _gumbel_soft


def finite_diff(f, arrays, eps=1e-5):
    """Central finite differences of a scalar function.

    `arrays` are numpy arrays referenced by f (perturbed in place). Returns
    one gradient array per input array.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def rel_error(a, b):
    """Max elementwise difference scaled by the largest magnitude involved."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def symmetric_scatter(bits, rows: np.ndarray, cols: np.ndarray, n: int) -> Tensor:
    """Place a vector of edge values into a symmetric (n, n) matrix."""
    bits = as_tensor(bits)
    out_val = np.zeros((n, n), dtype=np.float64)
    out_val[rows, cols] = bits.value
    out_val[cols, rows] = bits.value

    def backward(g):
        bits._accumulate(g[rows, cols] + g[cols, rows])

    return Tensor(out_val, bits.requires_grad, (bits,), backward)


def prefix_matrix(lower_rows: np.ndarray, n_prev: int, n: int) -> np.ndarray:
    """Dense symmetric adjacency of the first n_prev ordered nodes, padded
    to n x n: the observed prefix of a generation step."""
    block = lower_rows[:n_prev, :n].astype(np.float64)
    out = np.zeros((n, n))
    out[:n_prev, :n] = block
    return out + out.T


def reconstructed_edges(og) -> frozenset:
    """Un-permute L + L^T of an ordered graph back to the original edge set."""
    out = set()
    for i in range(og.base.num_nodes):
        for j in np.flatnonzero(og.lower_rows[i, :i]):
            u, v = og.pi[i], og.pi[int(j)]
            out.add((min(u, v), max(u, v)))
    return frozenset(out)


def teacher_chunk(batch, config, rngs) -> tuple:
    """The ``_batch_losses`` arguments of every step of every batch graph:
    the one chunk a ``train_step`` whose union fits the edge budget runs."""
    blocks = [block_partition(og.base.num_nodes, config.block_size) for og, _ in batch]
    return next(_chunks(batch, rngs, blocks, [0, sum(map(len, blocks))], config.gamma))


# ---------------------------------------------------------------------------
# per-step edge lists and the union plan they make


def augmented_edges(
    lower_rows: np.ndarray, n_prev: int, block: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Directed (receiver, sender) arrays over observed prefix edges plus all
    candidate edges of the block, both directions each."""
    obs_i, obs_j = np.nonzero(lower_rows[:n_prev])
    cand_i, cand_j = candidate_pairs(block)
    u = np.concatenate([obs_i, cand_i])
    v = np.concatenate([obs_j, cand_j])
    return np.concatenate([u, v]), np.concatenate([v, u])


def block_bits(lower_rows: np.ndarray, block: Sequence[int]) -> np.ndarray:
    """Ground-truth candidate-edge indicators in canonical order."""
    return np.concatenate([lower_rows[i, :i] for i in block]).astype(np.float64)


def reference_plan(runs) -> dict:
    """The fields of ``generator.UnionPlan(runs)``, laid out one step at a
    time from ``augmented_edges``: union nodes, rows and pairs count up step
    by step and run by run, and new nodes read the zero row after all rows.
    The edges of a run of several steps are numbered by their distinct
    (receiver row, sender row) key in key order, and each edge of a
    one-step run is a key of its own; these round-one keys go to
    ``reference_classes`` for the class tables, which are None when every
    run is one step."""
    zero_row = sum(rows.shape[0] for rows, _ in runs)
    f = {k: [] for k in ("src_idx", "recv", "send", "edge_pair", "pair_rows", "pair_cols",
                         "node_step", "node_graph", "step_off", "index")}
    nodes = pairs = steps = row_off = num_keys = 0
    class_keys = []
    for r, (rows, blocks) in enumerate(runs):
        f["step_off"].append(steps)
        keys = []
        for block in blocks:
            n_prev, n_cur = block[0], block[-1] + 1
            src = [row_off + i for i in range(n_prev)] + [zero_row] * len(block)
            cand = list(zip(*candidate_pairs(block)))
            for i, j in zip(*augmented_edges(rows, n_prev, block)):
                f["recv"].append(nodes + i)
                f["send"].append(nodes + j)
                pair = (max(i, j), min(i, j))
                f["edge_pair"].append(pairs + cand.index(pair) if pair in cand else -1)
                keys.append((src[i], src[j]))
            f["pair_rows"] += [nodes + i for i, _ in cand]
            f["pair_cols"] += [nodes + j for _, j in cand]
            f["src_idx"] += src
            class_keys += [
                (0, r, i, int(sum(rows[k, i] for k in range(i + 1, n_prev))), len(block))
                for i in range(n_prev)
            ] + [(1, nodes + i) for i in block]
            f["node_step"] += [steps] * n_cur
            f["node_graph"] += [r] * n_cur
            nodes, pairs, steps = nodes + n_cur, pairs + len(cand), steps + 1
        if len(blocks) == 1:
            index = list(range(len(keys)))
        else:
            order = sorted(set(keys))
            index = [order.index(key) for key in keys]
        f["index"] += [num_keys + i for i in index]
        num_keys += max(index, default=-1) + 1
        row_off += rows.shape[0]
    out = {k: np.asarray(v, dtype=np.int64) for k, v in f.items()}
    several_steps = any(len(blocks) > 1 for _, blocks in runs)
    classes = reference_classes(class_keys, (out["recv"], out["send"]), out["index"])
    return {
        **{k: v if several_steps else None for k, v in classes.items()},
        "rows": np.concatenate([rows for rows, _ in runs]),
        "src_idx": out["src_idx"],
        "edges": (out["recv"], out["send"]),
        "edge_pair": out["edge_pair"],
        "pairs": (out["pair_rows"], out["pair_cols"]),
        "num_steps": steps,
        "node_step": out["node_step"],
        "node_graph": out["node_graph"],
        "step_off": out["step_off"],
        "x": (out["src_idx"] == zero_row).astype(np.float64),
        "pair_seg": out["node_step"][out["pair_rows"]],
    }


def reference_classes(class_keys, edges, round_one_key) -> dict:
    """The class tables of ``generator.UnionPlan`` from each union node's
    round-one class key, one node at a time: a prefix node's (run, row,
    later neighbours of the row in the step's prefix, block size), a new
    node's own key after every prefix node's.  Classes are numbered in key
    order, and a class's first node represents it; ``class_edges`` lists
    the edges into a representative, in edge order, as class pairs;
    ``class_round_one`` keys those edges by their round-one key, and
    ``round_two`` keys every edge by its (receiver class, sender class),
    each table in key order with the last edge of a key standing for it."""
    order = sorted(set(class_keys))
    node_class = [order.index(key) for key in class_keys]
    class_rep = [class_keys.index(key) for key in order]
    recv, send = edges
    into_rep = [e for e in range(len(recv)) if recv[e] in class_rep]

    def table(keys):
        last = {key: e for e, key in enumerate(keys)}
        order = sorted(last)
        return (np.asarray([last[key] for key in order], dtype=np.int64),
                np.asarray([order.index(key) for key in keys], dtype=np.int64))

    def ints(values):
        return np.asarray(values, dtype=np.int64)

    return {
        "node_class": ints(node_class),
        "class_rep": ints(class_rep),
        "class_edges": (ints([node_class[recv[e]] for e in into_rep]),
                        ints([node_class[send[e]] for e in into_rep])),
        "class_round_one": table([round_one_key[e] for e in into_rep]),
        "round_two": table([(node_class[r], node_class[s]) for r, s in zip(recv, send)]),
    }


# ---------------------------------------------------------------------------
# ops only the tests use, and the op-by-op message-passing round


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_val = a.value / b.value

    def backward(g):
        if a.requires_grad:
            a._accumulate(autodiff._unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(
                autodiff._unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)
            )

    return autodiff._make(out_val, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product of 2-d operands, its forward through the package's
    one product (``autodiff._product``)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul() takes 2-d operands")
    out_val = autodiff._product(a.value, b.value)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.value.T)
        if b.requires_grad:
            b._accumulate(a.value.T @ g)

    return autodiff._make(out_val, (a, b), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_val = np.maximum(x.value, 0.0)

    def backward(g):
        x._accumulate(g * (x.value > 0.0))

    return autodiff._make(out_val, (x,), backward)


def masked_sigmoid(v: np.ndarray) -> np.ndarray:
    """The sigmoid from its two stable branches on boolean-masked copies,
    1 / (1 + exp(-v)) for v >= 0 and e / (1 + e) with e = exp(v) below."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def softplus(x) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    x = as_tensor(x)
    v = x.value
    out_val = np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0)

    def backward(g):
        x._accumulate(g * autodiff._sigmoid_val(v))

    return autodiff._make(out_val, (x,), backward)


def reference_log_sigmoid(x) -> Tensor:
    """log σ(x) as the composition -softplus(-x), three tape nodes."""
    return -softplus(-as_tensor(x))


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.value)

    def backward(g):
        x._accumulate(g * (1.0 - t * t))

    return autodiff._make(t, (x,), backward)


def tmean(x, axis=None) -> Tensor:
    """Mean over ``axis``: None, one axis or a tuple of axes, as in
    ``Tensor.sum``."""
    x = as_tensor(x)
    axes = range(x.value.ndim) if axis is None else np.atleast_1d(axis)
    n = int(np.prod([x.value.shape[a] for a in axes]))
    return x.sum(axis=axis) * (1.0 / n)


def recorded(op: Pending) -> Tensor:
    """A pending op (``autodiff.gated_messages``) as a tape node of its own."""
    return autodiff._make(*op)


def reference_mlp(mlp: MLP, x) -> Tensor:
    """``MLP.__call__`` one tape node per op: each layer a matmul and a bias
    add, with a ReLU between layers."""
    for i, layer in enumerate(mlp.layers):
        if i:
            x = relu(x)
        x = matmul(x, layer.W) + layer.b
    return x


def reference_messages(h, x, aug_edges, msg, gate) -> Tensor:
    """The gated messages of one round, one tape node per op."""
    recv, send = aug_edges
    diff = gather_rows(h, recv) - gather_rows(h, send)
    flag_diff = constant((x[recv] - x[send])[:, None])
    g = sigmoid(reference_mlp(gate, concat([diff, flag_diff], axis=1)))
    return segment_sum(g * reference_mlp(msg, diff), recv, h.shape[0])


def reference_gru(cell: GruCell, h, m) -> Tensor:
    """``GruCell.__call__`` one tape node per op."""
    z = sigmoid(matmul(m, cell.wz) + matmul(h, cell.uz) + cell.bz)
    r = sigmoid(matmul(m, cell.wr) + matmul(h, cell.ur) + cell.br)
    n = tanh(matmul(m, cell.wn) + matmul(r * h, cell.un) + cell.bn)
    return (1.0 - z) * n + z * h


def reference_round(h, x, aug_edges, params: GeneratorParams, r: int = 0) -> Tensor:
    """``generator.gnn_round`` one tape node per op."""
    w = params.round_for(r)
    if aug_edges[0].size:
        agg = reference_messages(h, x, aug_edges, w.msg, w.gate)
    else:
        agg = constant(np.zeros((h.shape[0], params.config.hidden_dim)))
    return reference_gru(w.gru, h, agg)


def per_edge_rounds(h, x, aug_edges, params: GeneratorParams) -> Tensor:
    """Every round per edge, round one included: ``generator.gnn_round``
    chained, which ``generator.run_rounds`` must match."""
    for r in range(params.config.rounds):
        h = gnn_round(h, x, aug_edges, params, r)
    return h


# ---------------------------------------------------------------------------
# op-by-op graph-classifier read-out and dense graph-classifier forward


def reference_conv(conv: ConvLayer, h, recv, send, weight, degree=None) -> Tensor:
    """One graph-classifier layer one tape node per op, as
    ``classifiers.graph_logits`` runs it in its single node: edge e carries
    ``weight[e]`` (an (E, 1) column) from ``send[e]`` into ``recv[e]``;
    ``weight`` None means unit weights with ``degree`` each node's edge
    count clipped below at 1."""
    n = h.shape[0]
    if weight is None:
        neigh_mean = div(segment_sum(gather_rows(h, send), recv, n), degree)
    else:
        neigh_sum = segment_sum(gather_rows(h, send) * weight, recv, n)
        denom = clip(segment_sum(weight, recv, n), 1.0, np.inf)
        neigh_mean = div(neigh_sum, denom)
    return relu(matmul(h, conv.w_self) + matmul(neigh_mean, conv.w_neigh) + conv.bias)


def reference_graph_logits(
    params: GraphClassifierParams, features, recv, send, weight, graph_of_node, num_graphs,
    degree=None,
) -> Tensor:
    """``classifiers.graph_logits`` one tape node per op: three
    ``reference_conv`` layers, a segment-sum mean pooling and the head."""
    h = as_tensor(features)
    for conv in params.convs:
        h = reference_conv(conv, h, recv, send, weight, degree)
    counts = np.bincount(graph_of_node, minlength=num_graphs)
    pooled = segment_sum(h, graph_of_node, num_graphs) * constant(1.0 / counts[:, None])
    return params.head(pooled)


@dataclass
class ClassProbabilities:
    """Sigmoid per-class scores plus their renormalized distribution."""

    scores: Tensor
    dist: Tensor
    log_dist: Tensor

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.dist.value))


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
    logits = reference_graph_logits(
        params, h, recv, send, weight, np.zeros(n, dtype=np.int64), 1
    )[0]
    log_scores = log_sigmoid(logits)
    return ClassProbabilities(
        scores=sigmoid(logits), dist=softmax(log_scores), log_dist=log_softmax(log_scores)
    )


# ---------------------------------------------------------------------------
# per-step generator forward


def one_hot(label: int, num_classes: int) -> np.ndarray:
    """The class-condition vector of ``label``."""
    return np.eye(num_classes)[label]


@dataclass
class MixtureParams:
    """Mixture-of-Bernoulli output for one block's candidate edges.

    theta rows follow the canonical candidate order: new nodes ascending,
    and for each new node i all partners j < i ascending.
    """

    alpha: Tensor
    theta: Tensor
    log_alpha: Tensor
    theta_logits: Tensor

    @property
    def num_pairs(self) -> int:
        return self.theta.shape[0]

    @property
    def num_components(self) -> int:
        return self.alpha.shape[0]

    def validate(self) -> None:
        a = self.alpha.value
        if abs(float(a.sum()) - 1.0) > 1e-6 or (a < 0).any():
            raise AssertionError("alpha is not a probability simplex")
        th = self.theta.value
        if th.size and ((th <= 0).any() or (th >= 1).any()):
            raise AssertionError("theta must lie strictly inside (0, 1)")


def init_representations(
    lower_rows_so_far,
    c: np.ndarray,
    t: int,
    params: GeneratorParams,
    new_nodes: int,
) -> tuple[Tensor, np.ndarray]:
    """Initial node states for step t and their new-node flags: embedded
    adjacency rows for previous nodes, zeros for the new block, class
    subvector appended everywhere.  ``c`` is the one-hot class-condition
    vector."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (params.config.num_classes,):
        raise ValueError("condition vector width does not match the model")
    if np.count_nonzero(c) != 1 or c.max() != 1.0:
        raise ValueError("condition vector must be one-hot")
    if t < 1:
        raise ValueError("step index starts at 1")
    rows = np.asarray(lower_rows_so_far, dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, params.config.max_nodes)
    n_prev = rows.shape[0]
    if (t == 1) != (n_prev == 0):
        raise ValueError("step 1 must see no previous rows, later steps must")
    if rows.shape[1] != params.config.max_nodes:
        raise ValueError("adjacency rows must be padded to max_nodes")
    if new_nodes < 1:
        raise ValueError("a step must add at least one node")

    n = n_prev + new_nodes
    block_zeros = constant(np.zeros((new_nodes, params.config.hidden_dim_h)))
    if n_prev:
        h_hat = concat([params.row_embed(constant(rows)), block_zeros], axis=0)
    else:
        h_hat = block_zeros
    c_hat = params.cond_embed(constant(c[None, :]))
    c_tiled = matmul(constant(np.ones((n, 1))), c_hat)
    h0 = concat([h_hat, c_tiled], axis=1)
    x = np.zeros(n)
    x[n_prev:] = 1.0
    return h0, x


def output_heads(
    h: Tensor, block: Sequence[int], params: GeneratorParams
) -> MixtureParams:
    """Mixture weights from pooled pair scores and per-pair edge logits."""
    block = sorted(int(i) for i in block)
    if not block:
        raise ValueError("output heads need a nonempty block")
    rows, cols = candidate_pairs(block)
    diff = gather_rows(h, rows) - gather_rows(h, cols)
    alpha_logits = params.head_alpha(diff).sum(axis=0)
    log_alpha = log_softmax(alpha_logits)
    alpha = softmax(alpha_logits)
    theta_logits = params.head_theta(diff)
    theta = clip(sigmoid(theta_logits), 1e-12, 1.0 - 1e-12)
    mix = MixtureParams(alpha, theta, log_alpha, theta_logits)
    mix.validate()
    return mix


def block_log_likelihood(mix: MixtureParams, observed_row_bits) -> Tensor:
    """Log-probability of the observed candidate-edge bits under the mixture,
    evaluated in log space."""
    bits = np.asarray(observed_row_bits, dtype=np.float64).reshape(-1)
    if bits.shape[0] != mix.num_pairs:
        raise ValueError(
            f"got {bits.shape[0]} bits for {mix.num_pairs} candidate edges"
        )
    s = mix.theta_logits
    b = constant(bits[:, None])
    pair_ll = b * log_sigmoid(s) + (1.0 - b) * log_sigmoid(-s)
    per_component = pair_ll.sum(axis=0)
    return logsumexp(mix.log_alpha + per_component)


def step_forward(
    lower_rows: np.ndarray,
    block: Sequence[int],
    c: np.ndarray,
    t: int,
    params: GeneratorParams,
) -> tuple[MixtureParams, Tensor]:
    """Full forward pass for one step given the (teacher-forced or sampled)
    prefix rows; returns the mixture plus final states for downstream heads."""
    n_prev = int(block[0])
    h, x = init_representations(lower_rows[:n_prev], c, t, params, len(block))
    h = per_edge_rounds(h, x, augmented_edges(lower_rows, n_prev, block), params)
    return output_heads(h, block, params), h


def graph_log_likelihood(
    og, c: np.ndarray, params: GeneratorParams, block_size: int
) -> Tensor:
    """Teacher-forced log-likelihood of an ordered graph: the sum of
    per-block terms with ground-truth prefixes fed at every step."""
    if og.N != params.config.max_nodes:
        raise ValueError("ordered graph padding does not match the model")
    total = constant(0.0)
    for t, block in enumerate(block_partition(og.base.num_nodes, block_size), start=1):
        mix, _ = step_forward(og.lower_rows, block, c, t, params)
        total = total + block_log_likelihood(mix, block_bits(og.lower_rows, block))
    return total


# ---------------------------------------------------------------------------
# per-step straight-through Gumbel sampling and discounted losses


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


def discount(gamma: float, n_full: int, n_prefix: int) -> float:
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
    return discount(gamma, n_full, n_prefix) * -probs.log_dist[target]


def node_label_loss(
    node_dists: Tensor, targets, n_full: int, n_prefix: int, gamma: float
) -> Tensor:
    """Mean cross-entropy of per-node label distributions at the ground-truth
    labels, discounted like the condition loss."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != node_dists.shape[0]:
        raise ValueError("one target per block node required")
    picked = node_dists[np.arange(targets.shape[0]), targets]
    return discount(gamma, n_full, n_prefix) * -tmean(log(picked))


# ---------------------------------------------------------------------------
# per-step sampler


def oracle_generate(class_label, gen_params, nodeclf_params, rng, num_nodes, start=None):
    """``sampling.generate`` on the per-step forward, with an explicit node
    count: the same draws in the same order."""
    config = gen_params.config
    n = int(num_nodes)
    c = one_hot(class_label, config.num_classes)
    lower = np.zeros((n, config.max_nodes))
    labels = np.zeros(n, dtype=np.int64)
    n_fixed = 0
    if start is not None:
        n_fixed = start.num_nodes
        og = decompose(start, config.max_nodes)
        lower[:n_fixed] = og.lower_rows
        labels[:n_fixed] = [start.node_labels[og.pi[i]] for i in range(n_fixed)]

    for t, block in enumerate(block_partition(n, config.block_size), start=1):
        if block[-1] < n_fixed:
            continue
        mix, h = step_forward(lower, block, c, t, gen_params)
        if mix.num_pairs:
            k = int(rng.choice(mix.num_components, p=mix.alpha.value))
            bits = rng.random(mix.num_pairs) < mix.theta.value[:, k]
            rows, cols = candidate_pairs(block)
            keep = rows >= n_fixed
            lower[rows[keep], cols[keep]] = bits[keep].astype(np.float64)
        block_states = gather_rows(h, np.asarray(block, dtype=np.int64))
        predicted = np.argmax(classify_nodes(block_states, nodeclf_params).value, axis=1)
        for pos, i in enumerate(block):
            if i >= n_fixed:
                labels[i] = predicted[pos]

    src, dst = np.nonzero(lower[:, :n])
    edges = frozenset((int(i), int(j)) for i, j in zip(src, dst))
    return Graph(n, edges, tuple(int(l) for l in labels), int(class_label))


def oracle_generate_batch(class_label, count, gen_params, nodeclf_params, seed, num_nodes,
                          start=None):
    """``sampling.generate_batch`` on the per-step sampler (same substreams)."""
    return [
        oracle_generate(class_label, gen_params, nodeclf_params,
                        np.random.default_rng([seed, 4, class_label, i]), num_nodes, start)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# per-graph statistics: the dense searches that ``evaluation.corpus_stats``
# replaced with one bitset search per union of graphs


def reference_csr(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) with sorted neighbor lists from undirected edges."""
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _dense(indptr: np.ndarray, indices: np.ndarray, dtype) -> np.ndarray:
    n = indptr.shape[0] - 1
    adj = np.zeros((n, n), dtype=dtype)
    adj[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1
    return adj


def reference_components_labels(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Component label per node; labels count up from the component that
    holds node 0, so a lower label holds a lower node id."""
    # Frontier expansion over a dense boolean adjacency; one sweep per seed.
    adj = _dense(indptr, indices, bool)
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        reached = np.zeros(n, dtype=bool)
        reached[s] = True
        frontier = reached.copy()
        while frontier.any():
            nxt = adj[frontier].any(axis=0) & ~reached
            reached |= nxt
            frontier = nxt
        labels[reached] = comp
        comp += 1
    return labels


def reference_sp_pair_sum(indptr: np.ndarray, indices: np.ndarray, members: np.ndarray) -> int:
    """Sum of shortest-path distances over unordered member pairs; the
    members must form one connected component."""
    # Level-synchronous BFS from all members at once via float32 matmul.
    n = indptr.shape[0] - 1
    adj = _dense(indptr, indices, np.float32)
    m = members.shape[0]
    reached = np.zeros((m, n), dtype=bool)
    reached[np.arange(m), members] = True
    frontier = reached.astype(np.float32)
    total = 0
    level = 0
    while True:
        nxt = (frontier @ adj > 0) & ~reached
        if not nxt.any():
            break
        level += 1
        total += level * int(nxt[:, members].sum())
        reached |= nxt
        frontier = nxt.astype(np.float32)
    return total // 2


def reference_triangle_count(indptr: np.ndarray, indices: np.ndarray, n: int) -> int:
    # Every triangle is a closed 3-walk from each of its nodes in both
    # directions.  float64 counts are exact below 2**53; float32 ones stop
    # being exact near 2**24, which 6 * TC of K_300 already exceeds.
    adj = _dense(indptr, indices, np.float64)
    return int((adj * (adj @ adj)).sum()) // 6


def reference_graph_stats(g: Graph) -> GraphStats:
    """The five statistics of one graph, one dense search at a time."""
    n = g.num_nodes
    indptr, indices = reference_csr(n, g.sorted_edges())
    labels = reference_components_labels(indptr, indices, n)
    sizes = np.bincount(labels)
    lcc_label = int(np.argmax(sizes))
    lcc_size = int(sizes[lcc_label])

    tc = reference_triangle_count(indptr, indices, n)

    if lcc_size < 2:
        cpl = 0.0
    else:
        members = np.flatnonzero(labels == lcc_label).astype(np.int64)
        pair_total = reference_sp_pair_sum(indptr, indices, members)
        cpl = pair_total / (lcc_size * (lcc_size - 1) / 2)

    mean_d = 2.0 * g.num_edges / n

    deg = np.sort(g.degrees())
    total = int(deg.sum())
    if total == 0:
        gini = 0.0
    else:
        # sum_{i,j} |d_i - d_j| = 2 * sum_k (2k - n + 1) d_(k) on sorted degrees
        k = np.arange(n)
        abs_sum = 2.0 * float(((2 * k - n + 1) * deg).sum())
        gini = abs_sum / (2.0 * n * total)

    return GraphStats(float(lcc_size), float(tc), cpl, mean_d, gini)
