import dataclasses
import io
import json

import numpy as np
import pytest
from helpers import finite_diff, prefix_matrix, rel_error, symmetric_scatter

from condgraphgen import training as T
from condgraphgen.autodiff import Adam, Tensor, constant, exp, parameter, sigmoid
from condgraphgen.classifiers import ClassProbabilities, init_graph_classifier
from condgraphgen.errors import ConfigError, NumericError
from condgraphgen.generator import MixtureParams
from condgraphgen.graphs import Graph, decompose, synthesize_toy_corpus
from condgraphgen.training import (
    LossBreakdown,
    TrainConfig,
    clip_gradients,
    condition_loss,
    gumbel_soft_sample,
    gumbel_softmax_edge,
    load_train_config,
    node_label_loss,
    sample_block_relaxed,
    train_config_from_dict,
    train_config_to_dict,
    train_generator,
    train_step,
)

SMALL = dict(
    block_size=2,
    max_nodes=8,
    mixture_k=2,
    rounds=1,
    hidden_dim_h=6,
    cond_dim=4,
    epochs=2,
    batch_size=4,
    lr=1e-2,
    seed=1,
)


def small_corpus(n_graphs=8, seed=3):
    return synthesize_toy_corpus(n_graphs, (4, 8), seed=seed)


def small_clf(num_labels=3, num_classes=2, seed=0):
    return init_graph_classifier(num_labels, num_classes, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    cfg = TrainConfig(**SMALL)
    assert train_config_from_dict(train_config_to_dict(cfg)) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        train_config_from_dict({"blocksize": 2})


@pytest.mark.parametrize(
    "patch",
    [
        {"gamma": 0.0},
        {"gamma": 1.2},
        {"tau": 0.0},
        {"tau_end": -1.0},
        {"lr": 0.0},
        {"block_size": 0},
        {"block_size": 20, "max_nodes": 16},
        {"lambda_condition": -0.5},
        {"clip_norm": -1.0},
    ],
)
def test_config_rejects_bad_values(patch):
    with pytest.raises(ConfigError):
        train_config_from_dict(patch)


def test_config_type_checks():
    with pytest.raises(ConfigError):
        train_config_from_dict({"epochs": 2.5})
    with pytest.raises(ConfigError):
        train_config_from_dict({"epochs": True})
    with pytest.raises(ConfigError):
        train_config_from_dict({"gamma": "0.8"})
    with pytest.raises(ConfigError):
        train_config_from_dict({"tied_rounds": 1})
    assert train_config_from_dict({"gamma": 1}).gamma == 1.0


def test_config_file_loading(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 3, "seed": 9}))
    cfg = load_train_config(path)
    assert cfg.epochs == 3 and cfg.seed == 9
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_train_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_train_config(path)


def test_tau_schedule():
    cfg = TrainConfig(**{**SMALL, "epochs": 5, "tau": 1.0, "tau_end": 0.2})
    taus = [cfg.tau_at(e) for e in range(5)]
    assert taus[0] == pytest.approx(1.0)
    assert taus[-1] == pytest.approx(0.2)
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_clip_gradients_scales_to_cap():
    a = parameter(np.zeros(3))
    b = parameter(np.zeros((2, 2)))
    missing = parameter(np.zeros(2))  # grad None, must be skipped
    a.grad = np.array([3.0, 0.0, 0.0])
    b.grad = np.full((2, 2), 2.0)
    before = clip_gradients([a, b, missing], 2.5)  # joint norm sqrt(9+16) = 5
    assert before == pytest.approx(5.0)
    assert np.allclose(a.grad, [1.5, 0.0, 0.0])
    assert np.allclose(b.grad, 1.0)
    assert missing.grad is None


def test_clip_gradients_below_cap_is_identity():
    a = parameter(np.zeros(2))
    a.grad = np.array([0.3, 0.4])
    assert clip_gradients([a], 1.0) == pytest.approx(0.5)
    assert np.array_equal(a.grad, np.array([0.3, 0.4]))
    with pytest.raises(ValueError):
        clip_gradients([a], 0.0)


def test_clip_gradients_scales_a_shared_gradient_once():
    a = parameter(np.ones(2))
    b = parameter(np.ones(2))
    (a + b).sum().backward()
    assert a.grad is b.grad  # add hands both leaves the same upstream array
    before = clip_gradients([a, b], 1.0)  # joint norm sqrt(4) = 2
    assert before == pytest.approx(2.0)
    assert np.array_equal(a.grad, [0.5, 0.5])
    assert np.array_equal(b.grad, [0.5, 0.5])


# ---------------------------------------------------------------------------
# gumbel straight-through sampling


def test_gumbel_symmetric_draws_give_half():
    soft = gumbel_soft_sample(0.5, 1.0, (0.37, 0.37))
    assert soft.item() == pytest.approx(0.5)


def test_gumbel_zero_temperature_limit():
    up = gumbel_soft_sample(0.7, 1e-6, (0.9, 0.1))
    down = gumbel_soft_sample(0.7, 1e-6, (0.1, 0.9))
    assert up.item() == pytest.approx(1.0)
    assert down.item() == pytest.approx(0.0)


def test_gumbel_soft_gradient_matches_fd():
    u = (0.62, 0.23)
    lp = parameter(np.array(np.log(0.4)))

    def f():
        return gumbel_soft_sample(exp(lp), 1.0, u).item()

    numeric = finite_diff(f, [lp.value])[0]
    out = gumbel_soft_sample(exp(lp), 1.0, u)
    out.backward()
    assert rel_error(lp.grad, numeric) < 1e-4


def test_gumbel_straight_through_forward_is_binary():
    p = parameter(np.array(0.3))
    st = gumbel_softmax_edge(p, 1.0, (0.8, 0.4))
    assert st.item() in (0.0, 1.0)
    st.backward()
    assert p.grad is not None and p.grad != 0.0


def test_gumbel_gradient_equals_soft_gradient():
    u = (0.8, 0.4)
    p1 = parameter(np.array(0.3))
    gumbel_softmax_edge(p1, 1.0, u).backward()
    p2 = parameter(np.array(0.3))
    gumbel_soft_sample(p2, 1.0, u).backward()
    assert p1.grad == pytest.approx(p2.grad, abs=1e-15)


def test_gumbel_clamps_degenerate_probabilities():
    assert np.isfinite(gumbel_soft_sample(0.0, 1.0, (0.5, 0.5)).item())
    assert np.isfinite(gumbel_soft_sample(1.0, 1.0, (0.5, 0.5)).item())


def test_gumbel_argument_errors():
    with pytest.raises(ValueError):
        gumbel_soft_sample(0.5, 0.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        gumbel_soft_sample(0.5, 1.0, (0.0, 0.5))
    with pytest.raises(ValueError):
        gumbel_soft_sample(0.5, 1.0, (0.5, 1.0))


def manual_mixture(alpha, logits):
    logits_t = parameter(np.asarray(logits, dtype=np.float64))
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    return MixtureParams(
        alpha=constant(alpha_arr),
        theta=sigmoid(logits_t),
        log_alpha=constant(np.log(alpha_arr)),
        theta_logits=logits_t,
    )


def test_block_sample_values_are_binary():
    rng = np.random.default_rng(5)
    mix = manual_mixture([0.4, 0.6], rng.standard_normal((7, 2)))
    bits = sample_block_relaxed(mix, 1.0, rng)
    assert set(np.unique(bits.value)) <= {0.0, 1.0}
    assert bits.shape == (7,)


def test_block_sample_near_one_theta_gives_all_ones():
    logit = np.log(1 - 1e-6) - np.log(1e-6)
    mix = manual_mixture([1.0], np.full((10, 1), logit))
    bits = sample_block_relaxed(mix, 1.0, np.random.default_rng(11))
    assert np.all(bits.value == 1.0)


def test_block_sample_frequency_matches_theta():
    logit = np.log(0.3) - np.log(0.7)
    mix = manual_mixture([1.0], np.full((10, 1), logit))
    rng = np.random.default_rng(17)
    draws = [sample_block_relaxed(mix, 1.0, rng).value for _ in range(1000)]
    freq = np.concatenate(draws).mean()
    assert freq == pytest.approx(0.3, abs=0.02)


def test_block_sample_empty_mixture():
    mix = manual_mixture([1.0], np.zeros((0, 1)))
    bits = sample_block_relaxed(mix, 1.0, np.random.default_rng(0))
    assert bits.shape == (0,)


def test_block_sample_gradient_reaches_logits():
    rng = np.random.default_rng(7)
    mix = manual_mixture([1.0], rng.standard_normal((5, 1)))
    bits = sample_block_relaxed(mix, 1.0, rng)
    bits.sum().backward()
    grad = mix.theta_logits.grad
    assert grad is not None and np.any(grad != 0.0)


# ---------------------------------------------------------------------------
# discounted losses


def manual_probs(dist):
    dist = np.asarray(dist, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_dist = np.log(dist)
    return ClassProbabilities(
        scores=constant(dist), dist=constant(dist), log_dist=constant(log_dist)
    )


def test_condition_loss_no_gap_weight_one():
    probs = manual_probs([0.25, 0.75])
    loss = condition_loss(probs, 1, 10, 10, 0.8)
    assert loss.item() == pytest.approx(-np.log(0.75))


def test_condition_loss_gap_three():
    probs = manual_probs([0.25, 0.75])
    loss = condition_loss(probs, 0, 13, 10, 0.8)
    assert loss.item() == pytest.approx(0.8 ** 3 * -np.log(0.25))


def test_condition_loss_perfect_probs_zero():
    probs = manual_probs([0.0, 1.0])
    assert condition_loss(probs, 1, 12, 9, 0.8).item() == 0.0


def test_condition_loss_argument_errors():
    probs = manual_probs([0.5, 0.5])
    with pytest.raises(ValueError):
        condition_loss(probs, 2, 10, 10, 0.8)
    with pytest.raises(ValueError):
        condition_loss(probs, 0, 5, 6, 0.8)


def test_condition_loss_discount_monotone():
    probs = manual_probs([0.3, 0.7])
    values = [condition_loss(probs, 0, 10, 10 - gap, 0.8).item() for gap in range(6)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_node_label_loss_uniform():
    dists = constant(np.full((3, 4), 0.25))
    loss = node_label_loss(dists, [0, 1, 2], 8, 6, 0.8)
    assert loss.item() == pytest.approx(0.8 ** 2 * np.log(4))


def test_node_label_loss_perfect():
    dists = constant(np.eye(3))
    assert node_label_loss(dists, [0, 1, 2], 9, 9, 0.8).item() == 0.0


def test_node_label_loss_no_discount_at_gamma_one():
    dists = constant(np.full((2, 5), 0.2))
    assert node_label_loss(dists, [1, 3], 20, 2, 1.0).item() == pytest.approx(np.log(5))


def test_node_label_loss_length_mismatch():
    dists = constant(np.full((2, 5), 0.2))
    with pytest.raises(ValueError):
        node_label_loss(dists, [1], 5, 5, 0.8)


# ---------------------------------------------------------------------------
# train_step


def setup_step(lambda_condition=0.5, lambda_node_label=0.5, seed=1):
    cfg = TrainConfig(
        **SMALL, lambda_condition=lambda_condition, lambda_node_label=lambda_node_label
    )
    graphs = small_corpus()
    batch = [
        (decompose(g, cfg.block_size, cfg.max_nodes)[0], g.class_label) for g in graphs[:4]
    ]
    gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(seed))
    nodeclf = T.init_node_classifier(
        gen.config.hidden_dim, 3, np.random.default_rng(seed + 1)
    )
    clf = small_clf()
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
    rngs = [np.random.default_rng([seed, i]) for i in range(len(batch))]
    return cfg, batch, gen, clf, nodeclf, opt, rngs


def test_total_is_weighted_sum():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    bd = train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    want = bd.l_adj + cfg.lambda_condition * bd.l_condition + cfg.lambda_node_label * bd.l_node_label
    assert bd.total == pytest.approx(want, abs=1e-9)
    assert bd.l_adj > 0 and bd.l_condition > 0 and bd.l_node_label > 0


def test_zero_weights_reduce_to_adjacency_loss():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step(0.0, 0.0)
    node_before = [t.value.copy() for t in nodeclf.tensors()]
    bd = train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    assert bd.total == bd.l_adj
    assert bd.l_condition == 0.0 and bd.l_node_label == 0.0
    for t, before in zip(nodeclf.tensors(), node_before):
        assert np.array_equal(t.value, before)


def test_classifier_frozen_bit_for_bit():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    clf_before = [t.value.copy() for t in clf.tensors()]
    gen_before = [t.value.copy() for t in gen.tensors()]
    train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    for t, before in zip(clf.tensors(), clf_before):
        assert np.array_equal(t.value, before)
    assert any(
        not np.array_equal(t.value, before)
        for t, before in zip(gen.tensors(), gen_before)
    )


def test_condition_gradient_reaches_generator():
    cfg, batch, gen, clf, nodeclf, _, _ = setup_step()
    og, label = batch[0]
    found = False
    for seed in range(20):
        _, l_cond, _ = T._batch_losses(
            [(og, label)], gen, clf, nodeclf, cfg, 1.0, [np.random.default_rng(seed)]
        )
        for t in gen.tensors():
            t.grad = None
        l_cond.backward()
        if any(t.grad is not None and np.any(t.grad != 0.0) for t in gen.tensors()):
            found = True
            break
    assert found, "condition loss never produced a generator gradient"


def test_non_finite_loss_names_term():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step(0.0, 0.0)
    gen.row_embed.W.value[0, 0] = np.nan
    with pytest.raises(NumericError, match="adjacency"):
        train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)


def test_non_finite_mixture_weights_raise_numeric_error():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    gen.row_embed.W.value[0, 0] = np.nan
    with pytest.raises(NumericError):
        train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)


@pytest.mark.parametrize("clip_norm", [5.0, 0.0])
def test_non_finite_gradient_names_parameter(monkeypatch, clip_norm):
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    cfg = dataclasses.replace(cfg, clip_norm=clip_norm)
    target = gen.round_weights[0].gru.un
    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        target.grad = np.full_like(target.value, np.nan)

    monkeypatch.setattr(Tensor, "backward", poisoned)
    before = [t.value.copy() for t in gen.tensors() + nodeclf.tensors()]
    with pytest.raises(NumericError, match="gradient in gen/round/0/gru/un"):
        train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    for t, value in zip(gen.tensors() + nodeclf.tensors(), before):
        assert np.array_equal(t.value, value)


def test_step_argument_errors():
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    with pytest.raises(ValueError):
        train_step([], gen, clf, nodeclf, cfg, opt, 1.0, [])
    with pytest.raises(ValueError):
        train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs[:-1])
    with pytest.raises(ValueError):
        train_step(batch, gen, None, nodeclf, cfg, opt, 1.0, rngs)


def reference_graph_losses(og, label, gen, clf, nodeclf, config, tau, rng):
    """Step-by-step oracle: runs each generation step independently through
    the public single-step operations and accumulates the loss terms."""
    from condgraphgen.autodiff import constant as const
    from condgraphgen.autodiff import gather_rows
    from condgraphgen.classifiers import classify_graph, classify_nodes, uniform_features
    from condgraphgen.generator import (
        ClassConditionVector,
        block_bits,
        block_log_likelihood,
        candidate_pairs,
        step_forward,
    )
    from condgraphgen.graphs import block_partition

    c = ClassConditionVector.for_class(label, gen.config.num_classes)
    n_full = og.base.num_nodes
    l_adj, l_cond, l_node = 0.0, 0.0, 0.0
    for t, block in enumerate(block_partition(n_full, config.block_size).blocks, start=1):
        mix, states = step_forward(og.lower_rows, block, c, t, gen)
        l_adj -= block_log_likelihood(mix, block_bits(og.lower_rows, block)).item()
        n_prev, n_cur = block[0], block[-1] + 1
        bits = sample_block_relaxed(mix, tau, rng)
        rows, cols = candidate_pairs(block)
        relaxed = symmetric_scatter(bits, rows, cols, n_cur) + const(
            prefix_matrix(og.lower_rows, n_prev, n_cur)
        )
        probs = classify_graph(
            uniform_features(n_cur, clf.feature_dim), relaxed, clf
        )
        l_cond += condition_loss(probs, label, n_full, n_cur, config.gamma).item()
        block_states = gather_rows(states.h, np.asarray(block, dtype=np.int64))
        dists = classify_nodes(block_states, nodeclf)
        targets = [og.base.node_labels[og.pi[i]] for i in block]
        l_node += node_label_loss(dists, targets, n_full, n_cur, config.gamma).item()
    return l_adj, l_cond, l_node


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_union_losses_match_per_step_oracle(block_size):
    cfg = TrainConfig(**{**SMALL, "block_size": block_size})
    clf = small_clf()
    gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(0))
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(1))
    for gi, g in enumerate(small_corpus(6, seed=11)):
        og, _ = decompose(g, cfg.block_size, cfg.max_nodes)
        got = T._batch_losses(
            [(og, g.class_label)], gen, clf, nodeclf, cfg, 0.7, [np.random.default_rng(gi)]
        )
        want = reference_graph_losses(
            og, g.class_label, gen, clf, nodeclf, cfg, 0.7, np.random.default_rng(gi)
        )
        assert got[0].item() == pytest.approx(want[0], abs=1e-9)
        assert got[1].item() == pytest.approx(want[1], abs=1e-9)
        assert got[2].item() == pytest.approx(want[2], abs=1e-9)


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_batch_losses_match_sum_of_per_graph_oracle(block_size):
    cfg = TrainConfig(**{**SMALL, "block_size": block_size})
    clf = small_clf()
    gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(0))
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(1))
    graphs = small_corpus(5, seed=13) + [Graph(1, frozenset(), (2,), 1)]
    batch = [(decompose(g, cfg.block_size, cfg.max_nodes)[0], g.class_label) for g in graphs]
    assert len({og.base.num_nodes for og, _ in batch}) > 2
    got = T._batch_losses(
        batch, gen, clf, nodeclf, cfg, 0.7, [np.random.default_rng(i) for i in range(len(batch))]
    )
    want = np.zeros(3)
    for i, (og, label) in enumerate(batch):
        want += reference_graph_losses(
            og, label, gen, clf, nodeclf, cfg, 0.7, np.random.default_rng(i)
        )
    for term, expected in zip(got, want):
        assert term.item() == pytest.approx(expected, abs=1e-9)


def test_adjacency_loss_gradient_matches_fd():
    cfg = TrainConfig(**SMALL, lambda_condition=0.0, lambda_node_label=0.0)
    gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(2))
    jitter = np.random.default_rng(3)
    for t in gen.tensors():
        t.value = t.value + jitter.normal(scale=0.05, size=t.value.shape)
    og, _ = decompose(small_corpus(4, seed=5)[1], cfg.block_size, cfg.max_nodes)

    checked = [gen.row_embed.W, gen.round_weights[0].gru.un, gen.head_theta.layers[0].W]

    def loss_value():
        l_adj, _, _ = T._batch_losses(
            [(og, 1)], gen, None, None, cfg, 1.0, [np.random.default_rng(0)]
        )
        return l_adj.item()

    numeric = finite_diff(loss_value, [t.value for t in checked])
    l_adj, _, _ = T._batch_losses([(og, 1)], gen, None, None, cfg, 1.0, [np.random.default_rng(0)])
    for t in gen.tensors():
        t.grad = None
    l_adj.backward()
    for tensor, fd in zip(checked, numeric):
        assert rel_error(tensor.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# epoch loop


def test_train_generator_history_and_log():
    cfg = TrainConfig(**SMALL)
    graphs = small_corpus()
    stream = io.StringIO()
    gen, nodeclf, history = train_generator(graphs, small_clf(), cfg, log_stream=stream)
    assert len(history) == cfg.epochs
    for record in history:
        assert set(record) == {"epoch", "l_adj", "l_condition", "l_node_label", "total"}
    logged = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert logged == history


def test_train_generator_deterministic():
    cfg = TrainConfig(**SMALL)
    graphs = small_corpus()
    gen1, node1, hist1 = train_generator(graphs, small_clf(), cfg)
    gen2, node2, hist2 = train_generator(graphs, small_clf(), cfg)
    assert hist1 == hist2
    for a, b in zip(gen1.tensors() + node1.tensors(), gen2.tensors() + node2.tensors()):
        assert np.array_equal(a.value, b.value)


def test_train_generator_requires_graphs():
    with pytest.raises(ValueError):
        train_generator([], small_clf(), TrainConfig(**SMALL))
