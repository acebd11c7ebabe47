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
a run; sampling runs one step of one sample, a one-step run.  The first
round's input states depend only on each node's graph and embedded row, so
``run_rounds`` computes its messages once per distinct (run, receiver row,
sender row) edge, from the plan's round-one table, and gathers them back
onto the union's edges; later rounds run per edge.
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


@dataclass(frozen=True)
class GeneratorConfig:
    """Structural hyperparameters; hidden width = hidden_dim_h + cond_dim."""

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
                raise ValueError(f"{name} must be >= 1")
        if self.block_size > self.max_nodes:
            raise ValueError("block_size cannot exceed max_nodes")

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


def _ints(parts) -> np.ndarray:
    return np.concatenate(parts, dtype=np.int64)


def _distinct_edges(
    src_idx: np.ndarray, edges: tuple[np.ndarray, np.ndarray], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """One edge per distinct (receiver row, sender row) key of one run's
    edges, whose nodes read rows ``[0, width)``, in key order, and each
    edge's index into that list.  Keys are counted in a dense table of
    ``width``² flags, not sorted."""
    recv, send = edges
    key = src_idx[recv] * width + src_idx[send]
    present = np.zeros(width * width, dtype=bool)
    present[key] = True
    index = (np.cumsum(present) - 1)[key]
    first = np.empty(np.count_nonzero(present), dtype=np.int64)
    # any edge of a key stands for it: all carry the same message
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
    run; each run's first step ``step_off``; and the round-one table.  Two
    fields are derived from these: the new-node flags ``x`` and each pair's
    step ``pair_seg``.

    The round-one table lists the distinct first-round edges.  Two edges of
    one run whose receivers read the same row and whose senders read the
    same row carry the same first-round message, flag included, whatever
    their steps.  ``round_one_edges`` holds one edge per such
    (run, receiver row, sender row) key, and ``round_one_index`` gives each
    edge's position in it.  A one-step run lists every edge.
    """

    def __init__(self, runs: Sequence[tuple[np.ndarray, Sequence[Sequence[int]]]]):
        self.rows = np.concatenate([rows for rows, _ in runs])
        zero_row = self.rows.shape[0]
        src_idx, recv, send, edge_pair, pair_rows, pair_cols = [], [], [], [], [], []
        first, index, step_nodes, run_nodes, step_off = [], [], [], [], []
        # union nodes, pairs, edges, distinct round-one edges and rows so far
        nodes = pairs = edges = distinct = row_off = 0
        for rows, blocks in runs:
            run_src, run_recv, run_send = [], [], []
            run_start, run_edges = nodes, edges
            step_off.append(len(step_nodes))
            obs_i, obs_j = np.nonzero(rows)
            # observed edges come row by row, so a step's prefix edges are a
            # head of them; the blocks are consecutive, so a step's candidate
            # pairs are the next slice of the run's
            n_obs = np.searchsorted(obs_i, [block[0] for block in blocks])
            cand_i, cand_j = candidate_pairs(range(blocks[0][0], blocks[-1][-1] + 1))
            cand = 0
            for block, m in zip(blocks, n_obs):
                k = sum(block)
                u = np.concatenate([obs_i[:m], cand_i[cand:cand + k]]) + nodes
                v = np.concatenate([obs_j[:m], cand_j[cand:cand + k]]) + nodes
                run_recv += [u, v]
                run_send += [v, u]
                edges += 2 * u.shape[0]
                carried = np.arange(pairs - m, pairs + k)
                carried[:m] = -1
                edge_pair += [carried, carried]
                pair_rows.append(u[m:])
                pair_cols.append(v[m:])
                run_src += [np.arange(row_off, row_off + block[0]),
                            np.full(len(block), zero_row)]
                step_nodes.append(block[-1] + 1)
                nodes += block[-1] + 1
                pairs += k
                cand += k
            if len(blocks) == 1:
                # one step repeats a key only within its block, which saves
                # less than the table costs: sampling runs round one per edge
                run_first = run_index = np.arange(edges - run_edges)
            else:
                # keys over the run's own rows, the zero row right after them
                local = np.minimum(_ints(run_src) - row_off, rows.shape[0])
                run_first, run_index = _distinct_edges(
                    local, (_ints(run_recv) - run_start, _ints(run_send) - run_start),
                    rows.shape[0] + 1,
                )
            src_idx += run_src
            recv += run_recv
            send += run_send
            first.append(run_first + run_edges)
            index.append(run_index + distinct)
            run_nodes.append(nodes - run_start)
            distinct += run_first.shape[0]
            row_off += rows.shape[0]
        self.src_idx = _ints(src_idx)
        self.edges = (_ints(recv), _ints(send))
        self.round_one_edges, self.round_one_index = _ints(first), _ints(index)
        self.edge_pair = _ints(edge_pair)
        self.pairs = (_ints(pair_rows), _ints(pair_cols))
        self.num_steps = len(step_nodes)
        self.node_step = np.repeat(np.arange(self.num_steps), step_nodes)
        self.node_graph = np.repeat(np.arange(len(runs)), run_nodes)
        self.step_off = np.asarray(step_off, dtype=np.int64)
        # a new node reads the zero row, and a pair belongs to the step of
        # its new node
        self.x = (self.src_idx == zero_row).astype(np.float64)
        self.pair_seg = self.node_step[self.pairs[0]]

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_pairs(self) -> int:
        return self.pair_seg.shape[0]

    @property
    def round_one(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The round-one table as ``gated_messages`` takes it, or None when
        it lists every edge (as for a one-step plan), so that round one
        runs per edge."""
        if self.round_one_edges.shape[0] == self.edges[0].shape[0]:
            return None
        return self.round_one_edges, self.round_one_index

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
    """Every round over the plan's initial states ``h``.  Round one computes
    its messages once per distinct edge (``plan.round_one``, see
    ``gated_messages``): its states are ``initial_states``, equal across the
    nodes of a graph that read one row.  Later rounds run per edge."""
    for r in range(params.config.rounds):
        h = gnn_round(h, plan.x, plan.edges, params, r, plan.round_one if r == 0 else None)
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


def step_forward(
    plan: UnionPlan, labels: Sequence[int], params: GeneratorParams
) -> tuple[Tensor, Tensor, Tensor]:
    """The generator forward over a union plan: log mixture weights, edge
    logits and the final node states."""
    h = initial_states(plan, labels, params)
    h = run_rounds(h, plan, params)
    log_alpha, theta_logits = mixture_heads(h, plan, params)
    return log_alpha, theta_logits, h
