"""The fused message-passing round against its op-by-op reference.

``generator.gnn_round`` records one tape node per round: the gated messages
(``autodiff.gated_messages``) run inside the node of the GRU update
(``autodiff.GruCell.__call__``).  Values and gradients must equal the op-by-op
round of ``helpers.reference_round`` to the last bit, including the order in
which gradient terms are summed.
"""

import numpy as np
import pytest
from helpers import (
    finite_diff,
    recorded,
    reference_gru,
    reference_messages,
    reference_round,
    rel_error,
)

from condgraphgen.autodiff import GruCell, Tensor, gated_messages, make_mlp, no_grad
from condgraphgen.generator import (
    GeneratorConfig,
    UnionPlan,
    gnn_round,
    init_generator,
    initial_states,
    run_rounds,
)
from condgraphgen.graphs import Graph, block_partition, decompose


def _params(block_size, tied, seed=0):
    config = GeneratorConfig(max_nodes=10, block_size=block_size, num_classes=2,
                             hidden_dim_h=12, cond_dim=4, mixture_k=3, rounds=3,
                             tied_rounds=tied)
    return init_generator(config, np.random.default_rng(seed))


def _union(params, rng, sizes=(7, 4, 10)):
    """Initial states and plan of a union of random graphs, every step."""
    plans = []
    for n in sizes:
        edges = frozenset((j, i) for i in range(n) for j in range(i) if rng.random() < 0.35)
        og = decompose(Graph(n, edges, (0,) * n, 0), params.config.max_nodes)
        plans.append(UnionPlan(og.lower_rows, block_partition(n, params.config.block_size)))
    u = UnionPlan.stack(plans)
    with no_grad():
        h0 = initial_states(u, [i % 2 for i in range(len(sizes))], params)
    return h0.value, u


def _round_tensors(params, r):
    w = params.round_for(r)
    return w.msg.tensors() + w.gate.tensors() + w.gru.tensors()


def _grads(fn, h_value, tensors, weights):
    """Output of fn(h) plus the gradients of h and of ``tensors`` for the
    scalar sum(weights * fn(h))."""
    for t in tensors:
        t.grad = None
    h = Tensor(h_value.copy(), requires_grad=True)
    out = fn(h)
    (out * weights).sum().backward()
    return [out.value, h.grad] + [t.grad for t in tensors]


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a is not None and b is not None
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_fused_round_matches_op_by_op_reference_bit_for_bit(block_size, tied):
    params = _params(block_size, tied, seed=block_size)
    rng = np.random.default_rng(10 + block_size)
    h0, u = _union(params, rng)
    weights = rng.standard_normal(h0.shape)
    for r in range(params.config.rounds):
        tensors = _round_tensors(params, r)
        got = _grads(lambda h: gnn_round(h, u.x, u.edges, params, r), h0, tensors, weights)
        want = _grads(lambda h: reference_round(h, u.x, u.edges, params, r), h0, tensors, weights)
        _assert_same_bits(got, want)


@pytest.mark.parametrize("tied", [True, False])
def test_fused_rounds_sum_tied_gradients_as_the_reference(tied):
    """All rounds chained: tied weights collect one gradient per round, and
    the sums must come out in the reference's order."""
    params = _params(2, tied, seed=4)
    h0, u = _union(params, np.random.default_rng(5))
    weights = np.random.default_rng(6).standard_normal(h0.shape)
    tensors = [t for w in params.round_weights
               for t in w.msg.tensors() + w.gate.tensors() + w.gru.tensors()]

    def reference(h):
        for r in range(params.config.rounds):
            h = reference_round(h, u.x, u.edges, params, r)
        return h

    got = _grads(lambda h: run_rounds(h, u.x, u.edges, params), h0, tensors, weights)
    _assert_same_bits(got, _grads(reference, h0, tensors, weights))


def test_fused_round_with_an_empty_edge_list():
    params = _params(1, True)
    rng = np.random.default_rng(7)
    h0 = rng.standard_normal((3, params.config.hidden_dim))
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    weights = rng.standard_normal(h0.shape)
    w = params.round_for(0)
    got = _grads(lambda h: gnn_round(h, np.ones(3), empty, params), h0, w.gru.tensors(), weights)
    want = _grads(lambda h: reference_round(h, np.ones(3), empty, params), h0,
                  w.gru.tensors(), weights)
    _assert_same_bits(got, want)
    # no message was sent, so the message weights saw no gradient
    assert all(t.grad is None for t in w.msg.tensors() + w.gate.tensors())


def test_fused_round_records_one_tape_node_and_none_under_no_grad():
    params = _params(2, True)
    h0, u = _union(params, np.random.default_rng(8))
    h = Tensor(h0.copy(), requires_grad=True)
    out = gnn_round(h, u.x, u.edges, params)
    assert out.requires_grad and h in out._parents
    assert all(not p._parents for p in out._parents)  # h and the weights: leaves
    with no_grad():
        quiet = gnn_round(h, u.x, u.edges, params)
    assert not quiet.requires_grad and not quiet._parents
    assert np.array_equal(quiet.value, out.value)
    assert np.array_equal(quiet.value, reference_round(Tensor(h0), u.x, u.edges, params).value)


def test_gru_cell_matches_op_by_op_reference_bit_for_bit():
    rng = np.random.default_rng(9)
    dim = 16
    cell = GruCell(rng, dim)
    h0, m0 = rng.standard_normal((2, 40, dim))
    weights = rng.standard_normal((40, dim))

    def run(gru):
        for t in cell.tensors():
            t.grad = None
        h, m = Tensor(h0.copy(), requires_grad=True), Tensor(m0.copy(), requires_grad=True)
        out = gru(h, m)
        (out * weights).sum().backward()
        return [out.value, h.grad, m.grad] + [t.grad for t in cell.tensors()]

    _assert_same_bits(run(cell), run(lambda h, m: reference_gru(cell, h, m)))


def test_gated_messages_match_op_by_op_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    dim, n = 8, 9
    msg, gate = make_mlp(rng, [dim, dim, dim]), make_mlp(rng, [dim + 1, dim, 1])
    recv = rng.integers(0, n, 30)
    send = rng.integers(0, n, 30)
    x = (rng.random(n) < 0.5).astype(np.float64)
    h0 = rng.standard_normal((n, dim))
    weights = rng.standard_normal((n, dim))
    tensors = msg.tensors() + gate.tensors()
    got = _grads(lambda h: recorded(gated_messages(h, x[recv] - x[send], recv, send, msg, gate)),
                 h0, tensors, weights)
    want = _grads(lambda h: reference_messages(h, x, (recv, send), msg, gate), h0, tensors,
                  weights)
    _assert_same_bits(got, want)


def _check_finite_differences(build, tensors, tol=1e-6):
    """Tape gradients of the scalar build() against central differences over
    the values of ``tensors``, each of which requires gradients."""
    for t in tensors:
        t.grad = None
    build().backward()
    got = [t.grad for t in tensors]

    def f():
        with no_grad():
            return float(build().value)

    want = finite_diff(f, [t.value for t in tensors])
    for t, g, w in zip(tensors, got, want):
        assert rel_error(g, w) < tol, t


def test_gru_cell_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    dim = 4
    cell = GruCell(rng, dim)
    for t in (cell.bz, cell.br, cell.bn):
        t.value[...] = 0.1 * rng.standard_normal(dim)
    h = Tensor(rng.standard_normal((5, dim)), requires_grad=True)
    m = Tensor(rng.standard_normal((5, dim)), requires_grad=True)
    weights = rng.standard_normal((5, dim))
    _check_finite_differences(lambda: (cell(h, m) * weights).sum(), [h, m, *cell.tensors()])


def test_gated_messages_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    dim, n = 4, 5
    msg, gate = make_mlp(rng, [dim, dim, dim]), make_mlp(rng, [dim + 1, dim, 1])
    # biases keep the ReLU inputs away from their kink
    for layer in msg.layers + gate.layers:
        layer.b.value[...] = 0.05 + 0.1 * rng.random(layer.b.value.shape)
    recv = np.array([0, 1, 1, 2, 3, 4, 4, 0])
    send = np.array([1, 0, 2, 1, 4, 3, 0, 4])
    flag = rng.standard_normal(recv.shape[0])
    h = Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    weights = rng.standard_normal((n, dim))

    def build():
        return (recorded(gated_messages(h, flag, recv, send, msg, gate)) * weights).sum()

    _check_finite_differences(build, [h, *msg.tensors(), *gate.tensors()])


def test_round_with_pending_messages_matches_finite_differences():
    """The gated messages run inside the GRU node's backward."""
    rng = np.random.default_rng(14)
    dim, n = 4, 5
    msg, gate = make_mlp(rng, [dim, dim, dim]), make_mlp(rng, [dim + 1, dim, 1])
    for layer in msg.layers + gate.layers:
        layer.b.value[...] = 0.05 + 0.1 * rng.random(layer.b.value.shape)
    cell = GruCell(rng, dim)
    recv = np.array([0, 1, 1, 2, 3, 4])
    send = np.array([1, 0, 2, 1, 4, 3])
    flag = rng.standard_normal(recv.shape[0])
    h = Tensor(rng.standard_normal((n, dim)), requires_grad=True)
    weights = rng.standard_normal((n, dim))

    def build():
        return (cell(h, gated_messages(h, flag, recv, send, msg, gate)) * weights).sum()

    _check_finite_differences(build, [h, *msg.tensors(), *gate.tensors(), *cell.tensors()])
