import numpy as np
import pytest
from helpers import finite_diff, rel_error

from condgraphgen.autodiff import Tensor, constant, parameter
from condgraphgen.classifiers import (
    ClassifierTrainConfig,
    classify_discrete,
    classify_graph,
    classify_nodes,
    classifier_accuracy,
    init_graph_classifier,
    init_node_classifier,
    node_label_scores,
    one_hot_features,
    predict_graph_class,
    predict_graph_classes,
    train_graph_classifier,
    uniform_features,
)
from condgraphgen.datasets import stratified_split
from condgraphgen.errors import DataError
from condgraphgen.graphs import Graph, synthesize_toy_corpus


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
    hard = classify_discrete(g, params)
    assert np.array_equal(soft.dist.value, hard.dist.value)


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
    scores = node_label_scores(constant(h), params)
    assert scores.shape == (7, 5)


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
    assert predict_graph_class(params, g) == classify_discrete(g, params).predicted
    graphs = list(toy_split.train)
    batched = predict_graph_classes(params, graphs)
    assert batched.tolist() == [predict_graph_class(params, g) for g in graphs]
    assert predict_graph_classes(params, []).shape == (0,)
