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
    per_edge_rounds,
    recorded,
    reference_gru,
    reference_messages,
    reference_round,
    rel_error,
)

from condgraphgen import backend, generator
from condgraphgen.autodiff import GruCell, Tensor, gated_messages, gather_rows, make_mlp, no_grad
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
    runs = []
    for n in sizes:
        edges = frozenset((j, i) for i in range(n) for j in range(i) if rng.random() < 0.35)
        og = decompose(Graph(n, edges, (0,) * n, 0), params.config.max_nodes)
        runs.append((og.lower_rows, block_partition(n, params.config.block_size)))
    u = UnionPlan(runs)
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

    got = _grads(lambda h: per_edge_rounds(h, u.x, u.edges, params), h0, tensors, weights)
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


# ---------------------------------------------------------------------------
# round one once per distinct edge (``UnionPlan.class_round_one``, ``run_rounds``)


def _mixed_union(params, seed, sizes=(7, 1, 4, 10, 5)):
    """A union of random graphs with both classes, a 1-node graph among
    them; returns the plan and its labels."""
    rng = np.random.default_rng(seed)
    runs, labels = [], []
    for i, n in enumerate(sizes):
        edges = frozenset((j, k) for k in range(n) for j in range(k) if rng.random() < 0.35)
        og = decompose(Graph(n, edges, (0,) * n, 0), params.config.max_nodes)
        runs.append((og.lower_rows, block_partition(n, params.config.block_size)))
        labels.append((i // 2) % 2)
    return UnionPlan(runs), labels


def _state_keys(u):
    """Nodes with one key hold one initial state: same graph, same row."""
    return u.node_graph * (u.rows.shape[0] + 1) + u.src_idx


def _round_one_keys(u, recv, send):
    """The (receiver state key, sender state key) of each edge: edges of a
    run of several steps with one such key carry one round-one message."""
    return np.stack([_state_keys(u)[recv], _state_keys(u)[send]], axis=1)


def _assert_close(got, want, tol=1e-12):
    for a, b in zip(got, want):
        assert a is not None and b is not None
        assert rel_error(a, b) < tol


def test_round_one_table_lists_each_key_once_and_offsets_in_stack():
    params = _params(2, True)
    u, _ = _mixed_union(params, 0)
    first, index = u.class_round_one
    keys = _round_one_keys(u, *(u.class_rep[c] for c in u.class_edges))
    assert np.array_equal(keys, keys[first][index])
    assert len({tuple(k) for k in keys[first]}) == first.shape[0] < u.edges[0].shape[0]


def test_round_one_runs_per_edge_in_one_step_plans_and_without_edges():
    params = _params(1, True)
    og = decompose(Graph(6, frozenset({(0, 1), (1, 2), (2, 5)}), (0,) * 6, 0), 10)
    for block in [(4,), (3, 4, 5)]:
        one_step = UnionPlan([(og.lower_rows[:block[0]], [block])])
        assert one_step.edges[0].size > 0 and one_step.class_round_one is None
    no_edges = UnionPlan([(np.zeros((1, 10)), [(0,)])] * 3)
    assert no_edges.edges[0].size == 0 and no_edges.class_round_one is None
    h0 = initial_states(no_edges, [0, 1, 0], params)
    assert np.array_equal(run_rounds(h0, no_edges, params).value,
                          per_edge_rounds(h0, no_edges.x, no_edges.edges, params).value)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_distinct_round_one_matches_the_per_edge_round(block_size, tied):
    """Same values to the bit; the gradients of the round weights, and of h
    summed over the nodes that share an initial state, to 1e-12."""
    params = _params(block_size, tied, seed=20 + block_size)
    u, labels = _mixed_union(params, block_size)
    assert u.class_round_one[0].shape[0] < u.edges[0].shape[0]
    with no_grad():
        h0 = initial_states(u, labels, params).value
    weights = np.random.default_rng(block_size).standard_normal(h0.shape)
    tensors = [t for w in params.round_weights
               for t in w.msg.tensors() + w.gate.tensors() + w.gru.tensors()]
    got = _grads(lambda h: run_rounds(h, u, params), h0, tensors, weights)
    want = _grads(lambda h: per_edge_rounds(h, u.x, u.edges, params), h0, tensors, weights)
    assert np.array_equal(got[0], want[0])
    keys, num_keys = _state_keys(u), (u.rows.shape[0] + 1) * len(labels)
    per_state = [backend.segment_sum(g[1], keys, num_keys) for g in (got, want)]
    _assert_close([per_state[0]] + got[2:], [per_state[1]] + want[2:])


@pytest.mark.parametrize("block_size", [1, 3])
def test_distinct_round_one_gives_the_generator_gradients_of_the_per_edge_round(block_size):
    """Through ``initial_states``: the embeddings' gradients too."""
    params = _params(block_size, False, seed=30)
    u, labels = _mixed_union(params, 31)
    weights = np.random.default_rng(32).standard_normal((u.num_nodes, params.config.hidden_dim))

    def grads(rounds):
        for t in params.tensors():
            t.grad = None
        out = rounds(initial_states(u, labels, params), u, params)
        (out * weights).sum().backward()
        return [out.value] + [t.grad for t in params.tensors()[:-8]]  # not the heads

    got = grads(run_rounds)
    want = grads(lambda h, u, params: per_edge_rounds(h, u.x, u.edges, params))
    assert np.array_equal(got[0], want[0])
    _assert_close(got[1:], want[1:])


def test_distinct_round_one_matches_finite_differences():
    """Perturbing one state moves every node that reads it."""
    params = _params(2, False, seed=40)
    for layer in [lay for w in params.round_weights for lay in w.msg.layers + w.gate.layers]:
        layer.b.value[...] = 0.05 + 0.1 * np.random.default_rng(41).random(layer.b.value.shape)
    u, labels = _mixed_union(params, 42, sizes=(4, 1, 3))
    keys = _state_keys(u)
    with no_grad():
        h0 = initial_states(u, labels, params).value
    table = np.zeros((int(keys.max()) + 1, h0.shape[1]))
    table[keys] = h0
    states = Tensor(table, requires_grad=True)
    weights = np.random.default_rng(43).standard_normal(h0.shape)
    w = params.round_for(0)

    def build():
        return (run_rounds(gather_rows(states, keys), u, params) * weights).sum()

    _check_finite_differences(build, [states, *w.msg.tensors(), *w.gate.tensors()])


# ---------------------------------------------------------------------------
# round one once per class, round two once per distinct class pair
# (``UnionPlan.node_class``, ``UnionPlan.round_two``)


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_nodes_of_one_class_hold_equal_round_one_states(block_size):
    """The per-edge round one gives every node of a class the bits of its
    representative."""
    params = _params(block_size, False, seed=50 + block_size)
    u, labels = _mixed_union(params, 50 + block_size, sizes=(10, 1, 9, 10, 5, 8))
    with no_grad():
        h1 = gnn_round(initial_states(u, labels, params), u.x, u.edges, params).value
    assert u.class_rep.shape[0] < u.num_nodes
    assert np.array_equal(u.node_class[u.class_rep], np.arange(u.class_rep.shape[0]))
    assert np.array_equal(h1, h1[u.class_rep][u.node_class])
    # classes of different keys can hold equal states, but every new node
    # is a class of its own
    assert np.unique(u.node_class[u.new_nodes]).shape[0] == u.new_nodes.shape[0]


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_class_tables_list_each_key_once(block_size):
    params = _params(block_size, True)
    u, _ = _mixed_union(params, 60 + block_size, sizes=(10, 1, 9, 10, 5, 8))
    recv, send = u.edges
    # round two: one edge per (receiver class, sender class), in key order
    first, index = u.round_two
    keys = u.node_class[recv] * u.class_rep.shape[0] + u.node_class[send]
    assert np.array_equal(keys, keys[first][index])
    assert np.all(np.diff(keys[first]) > 0)
    # round one: the edges into representatives, as class pairs, keyed by
    # their round-one key, each round-one key once
    into_rep = np.isin(recv, u.class_rep)
    assert np.array_equal(u.class_edges[0], u.node_class[recv[into_rep]])
    assert np.array_equal(u.class_edges[1], u.node_class[send[into_rep]])
    first, index = u.class_round_one
    keys = _round_one_keys(u, *(u.class_rep[c] for c in u.class_edges))
    assert np.array_equal(keys, keys[first][index])
    # and every round-one key of the plan's edges has a representative's
    assert first.shape[0] == np.unique(_round_one_keys(u, recv, send), axis=0).shape[0]


def test_one_step_and_edgeless_plans_get_no_class_tables(monkeypatch):
    """Sampling's one-step plans, stacked or alone, and edgeless plans build
    no tables, and their rounds run per edge."""
    params = _params(1, True)

    def refused(*args):
        raise AssertionError("class tables built")

    monkeypatch.setattr(generator, "_distinct", refused)
    og = decompose(Graph(6, frozenset({(0, 1), (1, 2), (2, 5)}), (0,) * 6, 0), 10)
    one_step = [UnionPlan([(og.lower_rows[:block[0]], [block])]) for block in [(4,), (3, 4, 5)]]
    stacked = UnionPlan([(og.lower_rows[:4], [(4,)]), (og.lower_rows[:3], [(3, 4, 5)])])
    no_edges = UnionPlan([(np.zeros((1, 10)), [(0,)])] * 3)
    for u in one_step + [stacked, no_edges]:
        assert u.node_class is None and u.class_rep is None and u.class_edges is None
        assert u.class_round_one is None and u.round_two is None
        h0 = initial_states(u, [i % 2 for i in range(len(u.step_off))], params)
        assert np.array_equal(run_rounds(h0, u, params).value,
                              per_edge_rounds(h0, u.x, u.edges, params).value)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_distinct_round_two_matches_the_per_edge_round(block_size, tied):
    """Round two on states gathered from the classes: the values to the
    bit, and the gradients of the class states and of the round's weights
    to 1e-12."""
    params = _params(block_size, tied, seed=70 + block_size)
    u, labels = _mixed_union(params, 70 + block_size)
    with no_grad():
        h0 = initial_states(u, labels, params)
        classes = gnn_round(h0, u.x, u.edges, params).value[u.class_rep]
    weights = np.random.default_rng(block_size).standard_normal((u.num_nodes, classes.shape[1]))
    tensors = _round_tensors(params, 1)

    def run(distinct):
        return _grads(lambda c: gnn_round(gather_rows(c, u.node_class), u.x, u.edges, params,
                                          1, distinct), classes, tensors, weights)

    got, want = run(u.round_two), run(None)
    assert np.array_equal(got[0], want[0])
    _assert_close(got[1:], want[1:])


def test_distinct_round_two_matches_finite_differences():
    """Perturbing one class state moves every node of the class."""
    params = _params(2, False, seed=80)
    for layer in [lay for w in params.round_weights for lay in w.msg.layers + w.gate.layers]:
        layer.b.value[...] = 0.05 + 0.1 * np.random.default_rng(81).random(layer.b.value.shape)
    u, labels = _mixed_union(params, 82, sizes=(4, 1, 3))
    with no_grad():
        h1 = gnn_round(initial_states(u, labels, params), u.x, u.edges, params).value
    states = Tensor(h1[u.class_rep], requires_grad=True)
    weights = np.random.default_rng(83).standard_normal(h1.shape)
    w = params.round_for(1)

    def build():
        h = gather_rows(states, u.node_class)
        return (gnn_round(h, u.x, u.edges, params, 1, u.round_two) * weights).sum()

    _check_finite_differences(build, [states, *w.msg.tensors(), *w.gate.tensors()])
