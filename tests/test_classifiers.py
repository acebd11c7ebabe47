import io
import json

import numpy as np
import pytest
from helpers import classify_graph, finite_diff, reference_graph_logits, rel_error

from condgraphgen import backend, classifiers
from condgraphgen.autodiff import Tensor, constant, no_grad, parameter
from condgraphgen.classifiers import (
    ClassifierTrainConfig,
    class_distributions,
    classify_nodes,
    classifier_accuracy,
    graph_logits,
    init_graph_classifier,
    init_node_classifier,
    one_hot_features,
    predict_graph_class,
    predict_graph_classes,
    train_graph_classifier,
    uniform_features,
)
from condgraphgen.datasets import stratified_split
from condgraphgen.errors import DataError
from condgraphgen.graphs import Graph, balanced_cuts, synthesize_toy_corpus, union_edges


def small_clf(seed=0, feature_dim=3, num_classes=2):
    return init_graph_classifier(feature_dim, num_classes, np.random.default_rng(seed))


def random_soft_graph(rng, n, feature_dim):
    feats = rng.dirichlet(np.ones(feature_dim), size=n)
    a = rng.uniform(0.1, 0.9, size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return feats, a


# ---------------------------------------------------------------------------
# graph classifier forward


def test_zero_adjacency_uses_only_node_features():
    params = small_clf(1)
    rng = np.random.default_rng(2)
    feats = rng.dirichlet(np.ones(3), size=4)
    out = classify_graph(feats, np.zeros((4, 4)), params)

    h = feats
    for conv in params.convs:
        h = np.maximum(h @ conv.w_self.value + conv.bias.value, 0.0)
    pooled = h.mean(axis=0)
    for i, layer in enumerate(params.head.layers):
        pooled = pooled @ layer.W.value + layer.b.value
        if i < len(params.head.layers) - 1:
            pooled = np.maximum(pooled, 0.0)
    expect = 1.0 / (1.0 + np.exp(-pooled))
    assert np.allclose(out.scores.value, expect)
    assert out.dist.value.sum() == pytest.approx(1.0, abs=1e-6)


def test_binary_relaxation_matches_discrete():
    params = small_clf(3)
    g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}), (0, 1, 2, 1), 0)
    soft = classify_graph(
        one_hot_features(g.node_labels, 3), g.adjacency().astype(np.float64), params
    )
    hard = class_distributions(params, [g])[0]
    assert np.array_equal(soft.dist.value, hard)


def _dense_order_distributions(params, graphs):
    """Reference for ``class_distributions``: each graph's (recv, send) from
    ``np.nonzero`` of its dense adjacency, offset into one union."""
    from condgraphgen.autodiff import log_sigmoid, softmax

    feats, recv, send, offset = [], [], [], 0
    for g in graphs:
        r, c = np.nonzero(g.adjacency())
        feats.append(one_hot_features(g.node_labels, params.feature_dim))
        recv.append(r + offset)
        send.append(c + offset)
        offset += g.num_nodes
    recv, send = np.concatenate(recv), np.concatenate(send)
    graph_of_node = np.repeat(np.arange(len(graphs)), [g.num_nodes for g in graphs])
    logits = graph_logits(
        params, np.concatenate(feats), recv, send, constant(np.ones((recv.size, 1))),
        graph_of_node, len(graphs),
    )
    return softmax(log_sigmoid(logits), axis=1).value


def test_class_distributions_match_dense_edge_order_bit_for_bit():
    params = small_clf(4)
    graphs = synthesize_toy_corpus(30, (4, 16), seed=6) + [
        Graph(1, frozenset(), (2,), 0),
        Graph(3, frozenset(), (0, 1, 2), 1),
    ]
    got = class_distributions(params, graphs)
    assert np.array_equal(got, _dense_order_distributions(params, graphs))


def _all_ones_logits(graphs, params):
    """``_discrete_logits`` through the weighted convolution, every edge
    carrying an explicit weight of 1."""
    n, _, pairs = union_edges(graphs)
    indptr, send = backend.csr_from_edges(int(n.sum()), pairs)
    recv = np.repeat(np.arange(int(n.sum())), np.diff(indptr))
    feats = one_hot_features([l for g in graphs for l in g.node_labels], params.feature_dim)
    graph_of_node = np.repeat(np.arange(len(graphs)), n)
    weight = constant(np.ones((recv.size, 1)))
    return graph_logits(params, feats, recv, send, weight, graph_of_node, len(graphs))


def test_unit_weight_logits_and_gradients_equal_all_ones_weights_bit_for_bit():
    params = small_clf(8)
    graphs = synthesize_toy_corpus(12, (4, 16), seed=9) + [
        Graph(1, frozenset(), (2,), 0),
        Graph(5, frozenset({(1, 3)}), (0, 1, 2, 0, 1), 1),
        Graph(3, frozenset(), (0, 1, 2), 1),
    ]
    w = np.random.default_rng(3).standard_normal((len(graphs), 2))
    results = []
    for logits_of in (classifiers._discrete_logits, _all_ones_logits):
        for t in params.tensors():
            t.grad = None
        logits = logits_of(graphs, params)
        (logits * constant(w)).sum().backward()
        results.append([logits.value] + [t.grad for t in params.tensors()])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def _relaxed_union(rng):
    """A union of three 5-node graphs with edge weights in (0, 1).  Node 0's
    weights sum to exactly 1 (the clip boundary), node 1's to 0.3, node 2
    receives no edge (sum 0), and the other nodes' sums are random."""
    recv, send = [0, 0, 1, 3, 3, 3], [1, 4, 3, 0, 1, 4]
    weight = [0.25, 0.75, 0.3, 0.9, 0.6, 0.7]
    for base in (5, 10):
        for _ in range(9):
            i, j = rng.choice(5, 2, replace=False) + base
            recv.append(i)
            send.append(j)
            weight.append(rng.uniform(0.05, 0.95))
    graph_of_node = np.repeat(np.arange(3), 5)
    return (np.asarray(recv), np.asarray(send), np.asarray(weight)[:, None], graph_of_node,
            rng.dirichlet(np.ones(3), size=15))


def _jittered_clf(seed):
    params = small_clf(seed)
    rng = np.random.default_rng(seed + 100)
    for t in params.tensors():
        t.value += rng.normal(scale=0.1, size=t.value.shape)
    return params


@pytest.mark.parametrize("with_grad", [
    ("weight",),  # the condition loss: a frozen classifier
    ("params",),  # classifier training
    ("weight", "features", "params"),
])
def test_read_out_is_one_tape_node_equal_to_the_op_by_op_reference_bit_for_bit(with_grad):
    params = _jittered_clf(20)
    recv, send, weight, graph_of_node, feats = _relaxed_union(np.random.default_rng(21))
    sums = backend.segment_sum(weight, recv, 15)[:, 0]
    assert sums[0] == 1.0 and 0.0 < sums[1] < 1.0 and sums[2] == 0.0
    probe = np.random.default_rng(22).standard_normal((3, 2))
    results = []
    for read_out in (graph_logits, reference_graph_logits):
        x = Tensor(feats.copy(), requires_grad="features" in with_grad)
        w = Tensor(weight.copy(), requires_grad="weight" in with_grad)
        for t in params.tensors():
            t.requires_grad, t.grad = "params" in with_grad, None
        logits = read_out(params, x, recv, send, w, graph_of_node, 3)
        (logits * constant(probe)).sum().backward()
        results.append([logits, x.grad, w.grad] + [t.grad for t in params.tensors()])
    fused, reference = results
    # one node, read straight from its inputs
    assert all(p._backward is None for p in fused[0]._parents)
    assert np.array_equal(fused[0].value, reference[0].value)
    for got, want in zip(fused[1:], reference[1:]):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
    # a gradient reaches exactly the inputs that require one
    wanted = ["features" in with_grad, "weight" in with_grad]
    wanted += ["params" in with_grad] * len(params.tensors())
    assert [g is not None for g in fused[1:]] == wanted


def test_unit_weight_read_out_equals_the_op_by_op_reference_bit_for_bit():
    params = _jittered_clf(23)
    graphs = synthesize_toy_corpus(12, (4, 16), seed=24) + [
        Graph(1, frozenset(), (2,), 0),
        Graph(3, frozenset(), (0, 1, 2), 1),
    ]
    n, _, pairs = union_edges(graphs)
    indptr, send = backend.csr_from_edges(int(n.sum()), pairs)
    recv = np.repeat(np.arange(int(n.sum())), np.diff(indptr))
    degree = np.maximum(np.diff(indptr), 1.0)[:, None]
    feats = one_hot_features([l for g in graphs for l in g.node_labels], 3)
    graph_of_node = np.repeat(np.arange(len(graphs)), n)
    probe = np.random.default_rng(25).standard_normal((len(graphs), 2))
    results = []
    for read_out in (graph_logits, reference_graph_logits):
        x = parameter(feats)
        for t in params.tensors():
            t.grad = None
        logits = read_out(params, x, recv, send, None, graph_of_node, len(graphs), degree)
        (logits * constant(probe)).sum().backward()
        results.append([logits.value, x.grad] + [t.grad for t in params.tensors()])
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    with no_grad():
        discrete = classifiers._discrete_logits(graphs, params)
    assert np.array_equal(discrete.value, results[0][0])


def test_read_out_edge_weight_gradient_matches_fd():
    params = _jittered_clf(28)
    recv, send, weight, graph_of_node, feats = _relaxed_union(np.random.default_rng(29))
    # every weight sum stays clear of the clip's kink at 1
    weight[0, 0] = 0.35
    sums = backend.segment_sum(weight, recv, 15)[:, 0]
    assert np.abs(sums - 1.0).min() > 1e-3
    probe = np.random.default_rng(30).standard_normal((3, 2))
    frozen = params.frozen()
    w = parameter(weight)

    def loss():
        return (graph_logits(frozen, feats, recv, send, w, graph_of_node, 3)
                * constant(probe)).sum()

    numeric = finite_diff(lambda: loss().item(), [w.value])[0]
    loss().backward()
    assert rel_error(w.grad, numeric) < 1e-4


def test_classifier_training_through_the_op_by_op_read_out_is_identical(toy_split, monkeypatch):
    cfg = ClassifierTrainConfig(epochs=2, seed=3)
    fused, fused_history = train_graph_classifier(toy_split, cfg)
    monkeypatch.setattr(classifiers, "graph_logits", reference_graph_logits)
    reference, reference_history = train_graph_classifier(toy_split, cfg)
    assert fused_history == reference_history
    for a, b in zip(fused.tensors(), reference.tensors()):
        assert np.array_equal(a.value, b.value)


def count_unions(monkeypatch):
    """Record the graphs of each union ``class_distributions`` reads."""
    unions = []
    logits = classifiers._discrete_logits

    def counted(parts, p):
        unions.append(list(parts))
        return logits(parts, p)

    monkeypatch.setattr(classifiers, "_discrete_logits", counted)
    return unions


def test_read_out_unions_keep_predictions(monkeypatch):
    params = small_clf(10)
    graphs = synthesize_toy_corpus(40, (4, 16), seed=12) + [Graph(2, frozenset(), (1, 0), 0)]
    one_union = class_distributions(params, graphs)
    unions = count_unions(monkeypatch)
    monkeypatch.setattr(classifiers, "READOUT_EDGES", 120)
    chunked = class_distributions(params, graphs)
    # the unions are the balanced runs of whole graphs by directed edges
    edges = np.array([2 * g.num_edges for g in graphs])
    cuts = balanced_cuts(edges, 120)
    assert len(unions) == len(cuts) - 1 > 5
    assert unions == [graphs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    assert chunked.shape == one_union.shape
    # every product of the read-out is padded, so a row's bits do not
    # depend on the union it falls in
    assert np.array_equal(chunked, one_union)


def test_read_out_cuts_graphs_into_the_fewest_unions(monkeypatch):
    # 60 + 70 + 60 + 70 directed edges under 120 make ceil(260 / 120) = 3
    # unions; filling each union up to the budget would make 4
    pairs = [(i, j) for j in range(10) for i in range(j)]
    graphs = [Graph(10, frozenset(pairs[:m]), (0,) * 10, 0) for m in (30, 35, 30, 35)]
    unions = count_unions(monkeypatch)
    monkeypatch.setattr(classifiers, "READOUT_EDGES", 120)
    class_distributions(small_clf(11), graphs)
    assert unions == [graphs[:1], graphs[1:3], graphs[3:]]


def test_classify_graph_permutation_invariant():
    rng = np.random.default_rng(4)
    params = small_clf(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        feats, a = random_soft_graph(rng, n, 3)
        base = classify_graph(feats, a, params).dist.value
        perm = rng.permutation(n)
        permuted = classify_graph(feats[perm], a[np.ix_(perm, perm)], params).dist.value
        assert np.allclose(base, permuted, atol=1e-9)


def test_adjacency_range_validation():
    params = small_clf(6)
    feats = uniform_features(3, 3)
    bad_hi = np.zeros((3, 3))
    bad_hi[0, 1] = bad_hi[1, 0] = 1.5
    with pytest.raises(ValueError):
        classify_graph(feats, bad_hi, params)
    bad_lo = np.zeros((3, 3))
    bad_lo[0, 1] = -0.1
    with pytest.raises(ValueError):
        classify_graph(feats, bad_lo, params)
    with pytest.raises(ValueError):
        classify_graph(feats, np.zeros((2, 2)), params)
    with pytest.raises(ValueError):
        classify_graph(uniform_features(3, 4), np.zeros((3, 3)), params)


def test_classify_graph_adjacency_gradient_matches_fd():
    rng = np.random.default_rng(7)
    params = small_clf(8)
    for t in params.tensors():
        t.value += rng.normal(scale=0.05, size=t.value.shape)
    feats = rng.dirichlet(np.ones(3), size=5)
    # keep every entry (diagonal included) interior to [0, 1] so the
    # finite-difference probes stay inside the valid range
    a_val = rng.uniform(0.1, 0.9, size=(5, 5))
    a_val = (a_val + a_val.T) / 2
    a = parameter(a_val.copy())

    def loss():
        return -classify_graph(feats, a, params).log_dist[1].item()

    numeric = finite_diff(loss, [a.value])[0]
    out = -classify_graph(feats, a, params).log_dist[1]
    out.backward()
    assert rel_error(a.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# training


@pytest.fixture(scope="module")
def toy_split():
    return stratified_split(synthesize_toy_corpus(200, (6, 12), seed=7), seed=0)


def test_toy_training_reaches_high_accuracy(toy_split):
    params, history = train_graph_classifier(toy_split, ClassifierTrainConfig(seed=1))
    assert classifier_accuracy(params, toy_split.test) >= 0.9
    assert history[-1]["loss"] < history[0]["loss"]


def test_shuffled_labels_score_at_chance():
    rng = np.random.default_rng(11)
    graphs = synthesize_toy_corpus(400, (6, 12), seed=9)
    labels = rng.permutation([g.class_label for g in graphs])
    shuffled = [
        Graph(g.num_nodes, g.edges, g.node_labels, int(lbl))
        for g, lbl in zip(graphs, labels)
    ]
    split = stratified_split(shuffled, seed=0)
    params, _ = train_graph_classifier(split, ClassifierTrainConfig(epochs=15, seed=2))
    acc = classifier_accuracy(params, split.test)
    assert abs(acc - 0.5) <= 0.15


def test_training_deterministic_bit_for_bit(toy_split):
    cfg = ClassifierTrainConfig(epochs=3, seed=5)
    p1, h1 = train_graph_classifier(toy_split, cfg)
    p2, h2 = train_graph_classifier(toy_split, cfg)
    assert h1 == h2
    for a, b in zip(p1.tensors(), p2.tensors()):
        assert np.array_equal(a.value, b.value)
        assert a.grad is None


def test_training_log_adds_seconds_to_the_returned_history(toy_split):
    cfg = ClassifierTrainConfig(epochs=2, seed=5)
    log = io.StringIO()
    _, logged = train_graph_classifier(toy_split, cfg, log_stream=log)
    _, plain = train_graph_classifier(toy_split, cfg)
    assert logged == plain  # no timing in the returned history
    lines = [json.loads(line) for line in log.getvalue().splitlines()]
    assert [{k: v for k, v in line.items() if k != "seconds"} for line in lines] == plain
    assert all(line["seconds"] > 0 for line in lines)


def test_single_class_data_rejected():
    graphs = [g for g in synthesize_toy_corpus(20, (6, 10), seed=1) if g.class_label == 0]
    split = stratified_split(graphs, seed=0)
    with pytest.raises(DataError):
        train_graph_classifier(split)


# ---------------------------------------------------------------------------
# node classifier


def test_zero_weight_node_classifier_is_uniform():
    params = init_node_classifier(6, 3, np.random.default_rng(0))
    for t in params.tensors():
        t.value[...] = 0.0
    dist = classify_nodes(constant(np.random.default_rng(1).standard_normal((4, 6))), params)
    assert np.allclose(dist.value, 1 / 3)


def test_identical_states_identical_distributions():
    params = init_node_classifier(6, 4, np.random.default_rng(2))
    states = constant(np.tile(np.linspace(0, 1, 6), (3, 1)))
    dist = classify_nodes(states, params).value
    assert np.allclose(dist, dist[0])


def test_node_distributions_normalized():
    params = init_node_classifier(8, 5, np.random.default_rng(3))
    h = np.random.default_rng(4).standard_normal((7, 8))
    dist = classify_nodes(constant(h), params).value
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-6)
    assert dist.shape == (7, 5)


def test_node_classifier_width_mismatch():
    params = init_node_classifier(8, 5, np.random.default_rng(5))
    with pytest.raises(ValueError):
        classify_nodes(constant(np.zeros((3, 7))), params)


# ---------------------------------------------------------------------------
# helpers


def test_one_hot_features_validation():
    feats = one_hot_features((0, 2, 1), 3)
    assert feats.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    with pytest.raises(ValueError):
        one_hot_features((0, 3), 3)


def test_uniform_features_rows():
    feats = uniform_features(4, 5)
    assert np.allclose(feats.sum(axis=1), 1.0)


def test_predict_matches_argmax(toy_split):
    params, _ = train_graph_classifier(toy_split, ClassifierTrainConfig(epochs=2, seed=0))
    g = toy_split.train[0]
    dense = classify_graph(
        one_hot_features(g.node_labels, params.feature_dim), g.adjacency(), params
    )
    assert predict_graph_class(params, g) == dense.predicted
    graphs = list(toy_split.train)
    batched = predict_graph_classes(params, graphs)
    assert batched.tolist() == [predict_graph_class(params, g) for g in graphs]
    assert predict_graph_classes(params, []).shape == (0,)
