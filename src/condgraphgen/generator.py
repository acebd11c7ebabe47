"""Block-autoregressive graph generator conditioned on a class label.

Nodes arrive in blocks under a canonical ordering.  For each step the model
embeds the already-generated adjacency rows, appends a class-condition
subvector to every node state, runs attentive gated message passing over the
observed-plus-candidate edge set, and scores all candidate edges of the new
block with a mixture of Bernoulli heads.  Training maximizes the
teacher-forced sum of per-block log-likelihoods.

There is one forward, ``step_forward`` over a ``UnionPlan``, and one way to
build that plan: from runs of consecutive steps, one run per graph.
Training runs the steps of a chunk of a minibatch as one union, each graph
a run; sampling runs one step of one sample, a one-step run.  Teacher
forcing repeats each graph's prefix in every step, so ``run_rounds`` runs
round one once per round-one class of nodes and round two's messages once
per distinct (receiver class, sender class) edge, from the plan's class
tables; later rounds run per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    GruCell,
    Linear,
    MLP,
    Tensor,
    concat,
    constant,
    gather_rows,
    gated_messages,
    he_uniform,
    log_softmax,
    make_mlp,
    parameter,
    segment_sum,
)
from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class GeneratorConfig:
    """Structural hyperparameters; hidden width = hidden_dim_h + cond_dim.
    The one check of these fields: ``TrainConfig`` and checkpoint loading
    validate theirs by building one."""

    max_nodes: int
    block_size: int
    num_classes: int
    hidden_dim_h: int
    cond_dim: int
    mixture_k: int
    rounds: int
    tied_rounds: bool = True

    def __post_init__(self):
        for name in ("max_nodes", "block_size", "num_classes", "hidden_dim_h",
                     "cond_dim", "mixture_k", "rounds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.block_size > self.max_nodes:
            raise ConfigError("block_size cannot exceed max_nodes")

    @property
    def hidden_dim(self) -> int:
        return self.hidden_dim_h + self.cond_dim


@dataclass
class RoundWeights:
    """One message-passing round: message MLP, gate MLP, recurrent update."""

    msg: MLP
    gate: MLP
    gru: GruCell


@dataclass
class GeneratorParams:
    config: GeneratorConfig
    row_embed: Linear
    cond_embed: Linear
    round_weights: tuple
    head_alpha: MLP
    head_theta: MLP

    def round_for(self, r: int) -> RoundWeights:
        if self.config.tied_rounds:
            return self.round_weights[0]
        return self.round_weights[r]

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def named_tensors(self) -> dict:
        """Canonical checkpoint names for every parameter array."""
        named = {
            "gen/Wh": self.row_embed.W,
            "gen/bh": self.row_embed.b,
            "gen/Wc": self.cond_embed.W,
            "gen/bc": self.cond_embed.b,
        }
        gru_names = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")
        for ri, rw in enumerate(self.round_weights):
            for mlp_name, mlp in (("msg", rw.msg), ("gate", rw.gate)):
                for li, layer in enumerate(mlp.layers):
                    named[f"gen/round/{ri}/{mlp_name}/{li}/weight"] = layer.W
                    named[f"gen/round/{ri}/{mlp_name}/{li}/bias"] = layer.b
            for gname, t in zip(gru_names, rw.gru.tensors()):
                named[f"gen/round/{ri}/gru/{gname}"] = t
        for head_name, mlp in (("alpha", self.head_alpha), ("theta", self.head_theta)):
            for li, layer in enumerate(mlp.layers):
                named[f"gen/heads/{head_name}/{li}/weight"] = layer.W
                named[f"gen/heads/{head_name}/{li}/bias"] = layer.b
        return named


def init_generator(config: GeneratorConfig, rng: np.random.Generator) -> GeneratorParams:
    hid = config.hidden_dim
    row_embed = Linear(
        parameter(he_uniform(rng, config.max_nodes, config.hidden_dim_h)),
        parameter(np.zeros(config.hidden_dim_h)),
    )
    cond_embed = Linear(
        parameter(he_uniform(rng, config.num_classes, config.cond_dim)),
        parameter(np.zeros(config.cond_dim)),
    )
    n_rounds = 1 if config.tied_rounds else config.rounds
    rounds = tuple(
        RoundWeights(
            msg=make_mlp(rng, [hid, hid, hid]),
            gate=make_mlp(rng, [hid + 1, hid, 1]),
            gru=GruCell(rng, hid),
        )
        for _ in range(n_rounds)
    )
    head_alpha = make_mlp(rng, [hid, hid, config.mixture_k])
    head_theta = make_mlp(rng, [hid, hid, config.mixture_k])
    return GeneratorParams(config, row_embed, cond_embed, rounds, head_alpha, head_theta)


# ---------------------------------------------------------------------------
# candidate-edge bookkeeping


def candidate_pairs(block: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Canonical candidate-edge order for a block of new nodes: each new node
    i (ascending) paired with every j < i (ascending)."""
    block = np.asarray(block, dtype=np.int64)
    rows = np.repeat(block, block)
    cols = np.arange(rows.shape[0]) - np.repeat(np.cumsum(block) - block, block)
    return rows, cols


def step_edges(lower_rows: np.ndarray, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Union edges of each step over ``blocks`` (see UnionPlan), counted
    without building the plan: both directions of every observed edge among
    the block's prefix nodes and of every candidate pair, new node i pairing
    with each j < i, so 2 × (prefix edges + Σ block)."""
    prefix = np.concatenate([[0], np.cumsum(np.count_nonzero(lower_rows, axis=1))])
    return np.asarray([2 * (prefix[b[0]] + sum(b)) for b in blocks], dtype=np.int64)


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One entry per distinct key, in key order, the last of each key
    standing for it, and each entry's index into that list."""
    keys, index = np.unique(key, return_inverse=True)
    first = np.empty(keys.shape[0], dtype=np.int64)
    first[index] = np.arange(key.shape[0])
    return first, index


class UnionPlan:
    """Index bookkeeping that lays generation steps side by side in one
    block-diagonal 'union' graph, so a single forward pass runs them all.

    Given its prefix rows a step does not depend on the other steps, so
    training runs every teacher-forced step of a chunk of a minibatch at
    once and sampling runs the current block of one sample; per-step
    quantities come back through segment sums.  Union node ``offset_t + i``
    stands for node ``i`` at step ``t``.  A plan is built from ``runs``, one
    ``(lower_rows, blocks)`` pair per graph: the graph's rows (every row is
    embedded once, so pass only the rows the steps read) and a run of its
    consecutive blocks, one step each.  Steps are laid out run after run,
    and the new nodes of every run read one shared zero row after all real
    rows.

    Fields: ``rows`` to embed; ``src_idx``, each union node's embedded row;
    the augmented ``edges`` (receiver, sender), for each step its observed
    prefix edges, then its candidate pairs, then both lists again reversed,
    and ``edge_pair``, the candidate pair each edge carries (-1 for an
    observed prefix edge); candidate ``pairs`` (new node, partner) in
    canonical order; ``node_step`` and ``node_graph``, each node's step and
    run; each run's first step ``step_off``; and the class tables.  Two
    fields are derived from these: the new-node flags ``x`` and each pair's
    step ``pair_seg``.

    The class tables are None when every run is one step.  Two edges of one
    run whose receivers read the same row and whose senders read the same
    row carry the same first-round message, flag included, whatever their
    steps.  An edge's round-one key is one integer, ``run × max(width²,
    edges)`` plus ``receiver row × width + sender row`` with ``width`` the
    zero row plus one, so within a run keys sort by (receiver row, sender
    row) and the zero row after every real row; in a one-step run the edge's
    own place stands for the rows, so each of its edges is a key of its own.
    A prefix node receives from its row's earlier neighbours, from those of
    its later neighbours already in the step's prefix, and from each of the
    block's new nodes, in that order, so two nodes of one run with the same
    row, the same count of later neighbours in the prefix (its observed
    edges in the step) and the same block size hold one state after round
    one.  ``node_class`` numbers these round-one classes in key order, a
    new node being a class of its own after all others, and ``class_rep``
    holds each class's first node; ``class_edges`` gives the (receiver
    class, sender class) of each edge into a representative, in edge order,
    and ``class_round_one`` the table of those edges by round-one key as
    (first, index), made by one sort; every round-one key of the plan has
    such an edge.  ``round_two`` is the
    table of all edges keyed by (receiver class, sender class), laid out as
    the round-one table.
    """

    def __init__(self, runs: Sequence[tuple[np.ndarray, Sequence[Sequence[int]]]]):
        self.rows = np.concatenate([rows for rows, _ in runs])
        if len(runs) == 1 and len(runs[0][1]) == 1:
            self._one_step(runs[0][1][0])
            return
        zero_row = self.rows.shape[0]
        run_rows = np.asarray([rows.shape[0] for rows, _ in runs], dtype=np.int64)
        run_steps = np.asarray([len(blocks) for _, blocks in runs], dtype=np.int64)
        # each step's first new node, which is its count of prefix nodes,
        # and its block size; steps are laid out run after run
        start = np.asarray([b[0] for _, blocks in runs for b in blocks], dtype=np.int64)
        size = np.asarray([len(b) for _, blocks in runs for b in blocks], dtype=np.int64)
        steps = np.arange(start.shape[0])
        step_run = np.repeat(np.arange(len(runs)), run_steps)
        run_row_off = np.cumsum(run_rows) - run_rows
        row_off = run_row_off[step_run]
        end = start + size
        node_off = np.cumsum(end) - end

        # observed edges come row by row, so a step's prefix edges are the
        # head of its run's below row ``start``; candidate pairs, Σ block
        # per step, follow all observed edges in step order
        obs_i, obs_j = np.nonzero(self.rows)
        lo, hi = np.searchsorted(obs_i, [row_off, row_off + start])
        obs_i -= np.repeat(run_row_off, run_rows)[obs_i]
        new = np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)
        cand_i, cand_j = candidate_pairs(new)
        ends_i = np.concatenate([obs_i, cand_i])
        ends_j = np.concatenate([obs_j, cand_j])
        m = hi - lo
        k = size * start + size * (size - 1) // 2
        pair_off = np.cumsum(k) - k

        # a step's edges are u then v as receivers, with v then u as senders,
        # where (u, v) lists its m prefix edges, then its k candidate pairs
        half = m + k
        half_off = np.cumsum(half) - half
        hstep = np.repeat(steps, half)
        p = np.arange(half.sum()) - half_off[hstep]
        cand = p >= m[hstep]
        idx = p + np.where(cand, (pair_off - m)[hstep] + obs_i.shape[0], lo[hstep])
        u = ends_i[idx] + node_off[hstep]
        v = ends_j[idx] + node_off[hstep]
        carried = np.where(cand, idx - obs_i.shape[0], -1)
        at_u = p + 2 * half_off[hstep]
        at_v = at_u + half[hstep]
        num_edges = 2 * u.shape[0]
        recv, send, edge_pair = (np.empty(num_edges, dtype=np.int64) for _ in range(3))
        recv[at_u], recv[at_v] = u, v
        send[at_u], send[at_v] = v, u
        edge_pair[at_u] = edge_pair[at_v] = carried

        # a step's union nodes are its prefix nodes, which read the run's
        # rows, then its block, which reads the zero row
        node_step = np.repeat(steps, end)
        local = np.arange(end.sum()) - node_off[node_step]
        is_new = local >= start[node_step]
        self.src_idx = np.where(is_new, zero_row, local + row_off[node_step])
        self.edges = (recv, send)
        self.edge_pair = edge_pair
        self.pairs = (u[cand], v[cand])
        self.num_steps = steps.shape[0]
        self.node_step = node_step
        self.node_graph = step_run[node_step]
        self.step_off = np.cumsum(run_steps) - run_steps
        self.x = is_new.astype(np.float64)
        # a pair belongs to the step of its new node
        self.pair_seg = hstep[cand]
        if run_steps.max() == 1:
            self._no_classes()
            return
        # a prefix node's round-one class key: (row, later neighbours of
        # the row below the step's first new node, block size), the counts
        # taken over the step's observed edges, whose sender v is the
        # earlier node; a new node's key is its own, above every row's
        old = np.flatnonzero(~is_new)
        step_of = node_step[old]
        row = local[old] + row_off[step_of]
        later = np.bincount(v[~cand], minlength=is_new.shape[0])[old]
        width, sizes = self.rows.shape[1] + 1, size.max() + 1
        key = zero_row * width * sizes + np.arange(is_new.shape[0])
        key[old] = (row * width + later) * sizes + size[step_of]
        _, self.class_rep, self.node_class = np.unique(key, return_index=True,
                                                       return_inverse=True)
        # every round-one key of the plan has an edge into a representative
        into_rep = np.flatnonzero(self.class_rep[self.node_class[recv]] == recv)
        rep_recv, rep_send = recv[into_rep], send[into_rep]
        self.class_edges = (self.node_class[rep_recv], self.node_class[rep_send])
        # an edge's round-one key: its run, then (receiver row, sender row)
        # in a run of several steps, the zero row after every real row, or
        # its own place in a one-step run
        span = zero_row + 1
        edge_run = step_run[node_step[rep_recv]]
        key = np.where(run_steps[edge_run] > 1,
                       self.src_idx[rep_recv] * span + self.src_idx[rep_send], into_rep)
        self.class_round_one = _distinct(edge_run * max(span * span, num_edges) + key)
        self.round_two = _distinct(
            self.node_class[recv] * self.class_rep.shape[0] + self.node_class[send]
        )

    def _no_classes(self) -> None:
        """A plan whose runs are one step each gets no class tables: its
        nodes are all of their own class."""
        self.node_class = self.class_rep = self.class_edges = None
        self.class_round_one = self.round_two = None

    def _one_step(self, block: Sequence[int]) -> None:
        """The fields of a plan of one step of one graph, the plan sampling
        builds for each block: the layout above for one step, written out
        directly.  The general layout's fixed cost of about 60 NumPy calls
        made a one-step plan several times slower to build, and the median
        time per sample of the ``toy`` and ``nci1`` benchmarks 26% and 23%
        longer (ten rotated runs each)."""
        zero_row = self.rows.shape[0]
        obs_i, obs_j = np.nonzero(self.rows[:block[0]])
        cand_i, cand_j = candidate_pairs(block)
        u = np.concatenate([obs_i, cand_i])
        v = np.concatenate([obs_j, cand_j])
        carried = np.arange(-obs_i.shape[0], cand_i.shape[0])
        carried[:obs_i.shape[0]] = -1
        num_nodes = block[-1] + 1
        self.src_idx = np.arange(num_nodes)
        self.src_idx[block[0]:] = zero_row
        self.edges = (np.concatenate([u, v]), np.concatenate([v, u]))
        self.edge_pair = np.concatenate([carried, carried])
        self.pairs = (cand_i, cand_j)
        self.num_steps = 1
        self.node_step = np.zeros(num_nodes, dtype=np.int64)
        self.node_graph = np.zeros(num_nodes, dtype=np.int64)
        self.step_off = np.zeros(1, dtype=np.int64)
        self.x = (self.src_idx == zero_row).astype(np.float64)
        self.pair_seg = np.zeros(cand_i.shape[0], dtype=np.int64)
        self._no_classes()

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_pairs(self) -> int:
        return self.pair_seg.shape[0]

    @property
    def new_nodes(self) -> np.ndarray:
        """Union indices of every step's new block, ascending."""
        return np.flatnonzero(self.x)

    def pair_bounds(self) -> np.ndarray:
        """Step s owns the candidate pairs [bounds[s], bounds[s + 1])."""
        counts = np.bincount(self.pair_seg, minlength=self.num_steps)
        return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


# ---------------------------------------------------------------------------
# forward passes


def gnn_round(
    h: Tensor,
    x: np.ndarray,
    aug_edges: tuple[np.ndarray, np.ndarray],
    params: GeneratorParams,
    r: int = 0,
    distinct: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """One round over node states ``h`` with new-node flags ``x``: gated
    difference messages aggregated over the augmented neighborhood, then a
    recurrent state update, recorded as one tape node.  Isolated nodes
    receive a zero message.  Messages are computed per edge, or once per
    distinct edge of ``distinct`` (see ``gated_messages``)."""
    w = params.round_for(r)
    recv, send = aug_edges
    if recv.size:
        agg = gated_messages(h, x[recv] - x[send], recv, send, w.msg, w.gate, distinct)
    else:
        agg = constant(np.zeros((h.shape[0], params.config.hidden_dim)))
    return w.gru(h, agg)


def run_rounds(h: Tensor, plan: UnionPlan, params: GeneratorParams) -> Tensor:
    """Every round over the plan's initial states ``h``.  Nodes of one
    round-one class (``plan.node_class``) hold one initial state and receive
    the same messages in the same order, so round one runs on the classes'
    representatives, the incoming edges of each as its own, with messages
    once per distinct edge (``plan.class_round_one``), and gathers its
    states back onto the union.  Round two computes its messages once per
    distinct (receiver class, sender class) edge (``plan.round_two``).
    Later rounds, and every round of a plan without class tables, run per
    edge."""
    for r in range(params.config.rounds):
        if r == 0 and plan.node_class is not None:
            rep = plan.class_rep
            h_class = gnn_round(gather_rows(h, rep), plan.x[rep], plan.class_edges, params, 0,
                                plan.class_round_one)
            h = gather_rows(h_class, plan.node_class)
        else:
            h = gnn_round(h, plan.x, plan.edges, params, r, plan.round_two if r == 1 else None)
    return h


def initial_states(
    plan: UnionPlan, labels: Sequence[int], params: GeneratorParams
) -> Tensor:
    """Union input states: embedded prefix rows (zeros for new nodes) with
    the class embedding of each node's graph appended; ``labels`` holds one
    class per graph of the plan."""
    config = params.config
    labels = np.asarray(labels, dtype=np.int64)
    bad = labels[(labels < 0) | (labels >= config.num_classes)]
    if bad.size:
        raise ValueError(f"class {bad[0]} outside [0, {config.num_classes})")
    embedded = params.row_embed(constant(plan.rows))
    padded = concat([embedded, constant(np.zeros((1, config.hidden_dim_h)))], axis=0)
    h_hat = gather_rows(padded, plan.src_idx)
    c_hat = params.cond_embed(constant(np.eye(config.num_classes)[labels]))
    return concat([h_hat, gather_rows(c_hat, plan.node_graph)], axis=1)


def mixture_heads(
    h: Tensor, plan: UnionPlan, params: GeneratorParams
) -> tuple[Tensor, Tensor]:
    """Mixture-of-Bernoulli heads: per-step log mixture weights (steps x K)
    from the summed pair scores, and per-pair edge logits (pairs x K) in
    canonical candidate order."""
    rows, cols = plan.pairs
    diff = gather_rows(h, rows) - gather_rows(h, cols)
    alpha_logits = segment_sum(params.head_alpha(diff), plan.pair_seg, plan.num_steps)
    return log_softmax(alpha_logits, axis=1), params.head_theta(diff)


def check_mixture_weights(alpha: np.ndarray) -> None:
    """Raise NumericError unless every row of ``alpha`` (steps x K, the
    exponentiated ``mixture_heads`` weights) is finite, nonnegative and
    sums to 1 within 1e-6, as the component draws need."""
    if not np.isfinite(alpha).all():
        raise NumericError("non-finite mixture weights")
    if (alpha < 0).any() or (np.abs(alpha.sum(axis=1) - 1.0) > 1e-6).any():
        raise NumericError("mixture weights are not a probability simplex")


def draw_components(alpha: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One mixture component per row of ``alpha`` (steps x K, weights that
    passed ``check_mixture_weights``) from one uniform draw per row: the
    index ``rng.choice(K, p=alpha[s])`` returns when its one
    ``rng.random()`` gives ``uniforms[s]``.  That is
    ``searchsorted(cdf, u, side="right")`` on ``cdf = cumsum(α_s) /
    cumsum(α_s)[-1]``, the count of the sorted row's entries <= u."""
    cdf = np.cumsum(alpha, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= uniforms[:, None], axis=1)


def step_forward(
    plan: UnionPlan, labels: Sequence[int], params: GeneratorParams
) -> tuple[Tensor, Tensor, Tensor]:
    """The generator forward over a union plan: log mixture weights, edge
    logits and the final node states."""
    h = initial_states(plan, labels, params)
    h = run_rounds(h, plan, params)
    log_alpha, theta_logits = mixture_heads(h, plan, params)
    return log_alpha, theta_logits, h
