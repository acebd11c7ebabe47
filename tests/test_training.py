import dataclasses
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    ClassProbabilities,
    MixtureParams,
    block_bits,
    block_log_likelihood,
    classify_graph,
    condition_loss,
    finite_diff,
    gumbel_soft_sample,
    gumbel_softmax_edge,
    node_label_loss,
    one_hot,
    prefix_matrix,
    rel_error,
    sample_block_relaxed,
    step_forward,
    symmetric_scatter,
    teacher_chunk,
)

from condgraphgen import autodiff
from condgraphgen import training as T
from condgraphgen.autodiff import Adam, Tensor, constant, exp, parameter, sigmoid
from condgraphgen.classifiers import init_graph_classifier
from condgraphgen.errors import ConfigError, NumericError
from condgraphgen.generator import UnionPlan, step_edges
from condgraphgen.graphs import Graph, block_partition, decompose, synthesize_toy_corpus
from condgraphgen.training import (
    LossBreakdown,
    TrainConfig,
    clip_gradients,
    load_train_config,
    train_config_from_dict,
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
    assert train_config_from_dict(dataclasses.asdict(cfg)) == cfg


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


@pytest.mark.parametrize(
    "patch",
    [
        {"block_size": 0},
        {"max_nodes": 0},
        {"mixture_k": 0},
        {"rounds": 0},
        {"hidden_dim_h": 0},
        {"cond_dim": 0},
        {"block_size": 20, "max_nodes": 16},
    ],
)
def test_train_and_generator_configs_reject_the_same_model_fields(patch):
    with pytest.raises(ConfigError) as from_train:
        TrainConfig(**patch)
    with pytest.raises(ConfigError) as from_generator:
        dataclasses.replace(TrainConfig().generator_config(2), **patch)
    assert str(from_train.value) == str(from_generator.value)


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
        (decompose(g, cfg.max_nodes), g.class_label) for g in graphs[:4]
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


def test_step_reports_the_gradient_norm_before_clipping():
    for clip_norm in (1e-3, 0.0):
        cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
        cfg = dataclasses.replace(cfg, clip_norm=clip_norm)
        bd = train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
        # Adam leaves the gradients, clipped when clip_norm > 0, in place
        left = T._grad_norm(opt.params)
        assert bd.grad_norm > 1e-3
        assert left == pytest.approx(clip_norm if clip_norm else bd.grad_norm, rel=1e-12)


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
        assert t.grad is None
    assert any(
        not np.array_equal(t.value, before)
        for t, before in zip(gen.tensors(), gen_before)
    )


def _molecule_like(n, rng):
    """The NCI1-like graph (tree plus ring closures) of the union-memory benchmark."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_union_memory.py"
    spec = importlib.util.spec_from_file_location("bench_union_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.molecule_like(n, rng)


def test_step_peak_memory_stays_near_the_tape(monkeypatch):
    """Backward may hold little beyond the forward tape: interior gradients
    are released as soon as they have been routed to the parents.  The
    parameter gradients are a fixed part that does not scale with the
    tape."""
    n, rng = 24, np.random.default_rng(0)
    cfg = TrainConfig(max_nodes=n, batch_size=1, seed=0)
    og = decompose(_molecule_like(n, rng), cfg.max_nodes)
    gen = T.init_generator(cfg.generator_config(2), rng)
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, rng)
    clf = init_graph_classifier(3, 2, rng)
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
    held_at_backward = []
    backward = Tensor.backward

    def recording_backward(self):
        held_at_backward.append(tracemalloc.get_traced_memory()[0])
        backward(self)

    monkeypatch.setattr(Tensor, "backward", recording_backward)
    tracemalloc.start()
    try:
        train_step([(og, 1)], gen, clf, nodeclf, cfg, opt, cfg.tau, [rng])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held_at_backward) == 1
    assert peak <= 1.3 * held_at_backward[0] + sum(p.value.nbytes for p in opt.params)


_REPEATED_EPOCHS = """
import resource
import numpy as np
from condgraphgen import TrainConfig, training
from condgraphgen.classifiers import init_graph_classifier
from condgraphgen.graphs import synthesize_toy_corpus

# importing the package leaves the allocator alone
assert training._keep_freed_memory.cache_info().currsize == 0
graphs = synthesize_toy_corpus(16, seed=0)
clf = init_graph_classifier(3, 2, np.random.default_rng(0))
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train_generator(graphs, clf, TrainConfig(epochs=1))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(training._keep_freed_memory(), faults[1])
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator thresholds are set on glibc only",
)
def test_repeated_training_reuses_freed_memory():
    """Once a first epoch has run, another one on the same graphs takes
    its arrays from memory the process already holds: a few minor page
    faults, not one per page of every chunk's tape (about 14,600 with
    glibc's default thresholds, against 6-170 with the package's)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in T._ALLOCATOR_VARIABLES and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _REPEATED_EPOCHS],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    applied, faults = out.stdout.split()
    assert applied == "True" and int(faults) < 1000


@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
    ("MALLOC_MMAP_THRESHOLD_", "1048576"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
    ("GLIBC_TUNABLES", "glibc.cpu.x86_shstk=on:glibc.malloc.mmap_threshold=65536"),
])
def test_allocator_thresholds_set_in_the_environment_are_kept(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    # the uncached function, so the check runs again in this process
    assert T._keep_freed_memory.__wrapped__() is False


def _step_peak(n, max_nodes):
    """Union edges, loss breakdown and tracemalloc peak of one train_step on
    the benchmark's n-node graph; the step builds its plans inside the
    trace, as it does in ``train_generator``."""
    rng = np.random.default_rng(0)
    cfg = TrainConfig(max_nodes=max_nodes, batch_size=1, seed=0)
    og = decompose(_molecule_like(n, rng), cfg.max_nodes)
    gen = T.init_generator(cfg.generator_config(2), rng)
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, rng)
    clf = init_graph_classifier(3, 2, rng)
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
    tracemalloc.start()
    try:
        bd = train_step([(og, 1)], gen, clf, nodeclf, cfg, opt, cfg.tau, [rng])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return int(step_edges(og.lower_rows, block_partition(n, cfg.block_size)).sum()), bd, peak


def test_step_peak_memory_follows_the_union_edge_budget():
    """A union three times the budget runs as chunks of steps, so its step
    peaks near a union just under the budget, not three times higher."""
    small_edges, small, small_peak = _step_peak(45, 78)
    large_edges, large, large_peak = _step_peak(78, 78)
    assert small_edges < T.UNION_EDGE_BUDGET <= large_edges / 3
    assert small.chunks == 1 and large.chunks >= 3
    assert small.max_chunk_edges == small_edges
    assert large.max_chunk_edges < T.UNION_EDGE_BUDGET
    assert large_peak <= 1.3 * small_peak


def _recorded_step(batch, cfg, budget, monkeypatch):
    """One train_step on fresh parameters under ``budget``: its loss
    breakdown, the gradients it leaves, its component and noise draws and
    the next value of each graph's RNG."""
    monkeypatch.setattr(T, "UNION_EDGE_BUDGET", budget)
    draws = []
    draw = T._draw_components_and_noise

    def recording_draw(*args):
        out = draw(*args)
        draws.append(out)
        return out

    monkeypatch.setattr(T, "_draw_components_and_noise", recording_draw)
    gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(0))
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(1))
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
    rngs = [np.random.default_rng([4, i]) for i in range(len(batch))]
    bd = train_step(batch, gen, small_clf(), nodeclf, cfg, opt, 0.7, rngs)
    return (
        bd,
        [p.grad for p in opt.params],
        [np.concatenate(part) for part in zip(*draws)],
        [r.random() for r in rngs],
    )


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_chunked_step_matches_one_pass(block_size, monkeypatch):
    cfg = TrainConfig(**{**SMALL, "block_size": block_size, "clip_norm": 0.0})
    graphs = small_corpus(5, seed=13) + [Graph(1, frozenset(), (2,), 1)]
    batch = [(decompose(g, cfg.max_nodes), g.class_label) for g in graphs]
    one = _recorded_step(batch, cfg, 10**9, monkeypatch)
    assert one[0].chunks == 1
    # 25 edges is less than some single steps, 120 cuts through graphs
    for budget in (25, 120):
        got = _recorded_step(batch, cfg, budget, monkeypatch)
        assert got[0].chunks > 2 and got[0].max_chunk_edges < one[0].max_chunk_edges
        for term in ("l_adj", "l_condition", "l_node_label", "total", "grad_norm"):
            assert getattr(got[0], term) == pytest.approx(getattr(one[0], term), rel=1e-12)
        for g, want in zip(got[1], one[1]):
            assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
        assert all(np.array_equal(a, b) for a, b in zip(got[2], one[2]))
        assert got[3] == one[3]


@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_closed_form_step_edges_count_the_union_plan(block_size):
    graphs = small_corpus() + [
        Graph(1, frozenset(), (0,), 0),
        Graph(7, frozenset(), (0,) * 7, 1),
        _molecule_like(48, np.random.default_rng(5)),
    ]
    for g in graphs:
        og = decompose(g, 48)
        blocks = block_partition(g.num_nodes, block_size)
        u = UnionPlan([(og.lower_rows, blocks)])
        want = np.bincount(u.node_step[u.edges[0]], minlength=len(blocks))
        assert step_edges(og.lower_rows, blocks).tolist() == want.tolist()


def test_train_generator_holds_no_plan_between_steps(monkeypatch):
    alive = []
    init = UnionPlan.__init__

    def registering_init(self, *args):
        init(self, *args)
        alive.append(weakref.ref(self))

    step = T.train_step
    entries = []

    def checking_step(*args, **kwargs):
        entries.append(sum(ref() is not None for ref in alive))
        return step(*args, **kwargs)

    monkeypatch.setattr(UnionPlan, "__init__", registering_init)
    monkeypatch.setattr(T, "train_step", checking_step)
    cfg, graphs = TrainConfig(**SMALL), small_corpus()
    train_generator(graphs, small_clf(), cfg)
    assert alive and len(entries) == cfg.epochs * -(-len(graphs) // cfg.batch_size)
    assert entries == [0] * len(entries)


def test_over_budget_step_builds_no_whole_graph_plan(monkeypatch):
    built = []

    class RecordingPlan(UnionPlan):
        def __init__(self, runs):
            built.extend((blocks[0][0], blocks[-1][-1] + 1) for _, blocks in runs)
            super().__init__(runs)

    monkeypatch.setattr(T, "UnionPlan", RecordingPlan)
    cfg = TrainConfig(**{**SMALL, "max_nodes": 80, "block_size": 1})
    rng = np.random.default_rng(2)
    graphs = [_molecule_like(80, rng), _molecule_like(64, rng)]
    batch = [(decompose(g, cfg.max_nodes), 1) for g in graphs]
    gen = T.init_generator(cfg.generator_config(2), rng)
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, rng)
    opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
    bd = train_step(batch, gen, small_clf(), nodeclf, cfg, opt, 1.0, [rng, rng])
    # no run holds every step of a graph, from node 0 to its last node
    assert not any(start == 0 and end in {g.num_nodes for g in graphs} for start, end in built)
    # each graph's union alone exceeds a chunk, so every graph is cut
    for og, _ in batch:
        whole = step_edges(og.lower_rows, block_partition(og.base.num_nodes, 1)).sum()
        assert whole > bd.max_chunk_edges
    assert len(built) > bd.chunks > 2


def test_chunk_plans_embed_only_the_rows_their_steps_read(monkeypatch):
    plans = []

    class RecordingPlan(UnionPlan):
        def __init__(self, runs):
            super().__init__(runs)
            plans.append((runs, self))

    monkeypatch.setattr(T, "UnionPlan", RecordingPlan)
    monkeypatch.setattr(T, "UNION_EDGE_BUDGET", 60)
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    assert len(plans) > 2
    for runs, plan in plans:
        # a run holds the rows before its last block, the prefix of that step
        assert all(rows.shape[0] == blocks[-1][0] for rows, blocks in runs)
        # every row (and the shared zero row after them) is some node's row
        assert np.array_equal(np.unique(plan.src_idx), np.arange(plan.rows.shape[0] + 1))


def test_non_finite_gradient_in_an_early_chunk_raises(monkeypatch):
    cfg, batch, gen, clf, nodeclf, opt, rngs = setup_step()
    monkeypatch.setattr(T, "UNION_EDGE_BUDGET", 60)
    target = gen.round_weights[0].gru.un
    backward = Tensor.backward
    calls = []

    def poisoned_first(self):
        backward(self)
        if not calls:
            target.grad = np.full_like(target.value, np.nan)
        calls.append(1)

    monkeypatch.setattr(Tensor, "backward", poisoned_first)
    before = [t.value.copy() for t in gen.tensors() + nodeclf.tensors()]
    with pytest.raises(NumericError, match="gradient in gen/round/0/gru/un"):
        train_step(batch, gen, clf, nodeclf, cfg, opt, 1.0, rngs)
    assert len(calls) > 1
    for t, value in zip(gen.tensors() + nodeclf.tensors(), before):
        assert np.array_equal(t.value, value)


# The condition loss's tape nodes in one chunk: the component pick, the
# pick's sigmoid, the Gumbel relaxation (clip, log p, 1 - p, log(1 - p),
# their difference, the added noise and the temperature scale: 7), its
# sigmoid, the straight-through add, the weight table's concat, the gather
# of each edge's weight, the classifier read-out (one node), its log-sigmoid,
# log-softmax (logsumexp and a subtraction: 2), the label pick, the discount
# product, the sum, the negation, and in the chunk's total the batch scale
# and the lambda weight.
CONDITION_CHAIN_NODES = 23


def test_condition_chain_is_its_stated_tape_nodes_in_a_toy_chunk(monkeypatch):
    """A 16-graph toy chunk records ``CONDITION_CHAIN_NODES`` more tape
    nodes with the condition loss than without it, and the read-out is one
    of them."""
    graphs = synthesize_toy_corpus(16, seed=0)
    counts = []
    for lam in (0.5, 0.0):
        cfg = TrainConfig(lambda_condition=lam)
        gen = T.init_generator(cfg.generator_config(2), np.random.default_rng(0))
        nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(1))
        opt = Adam(gen.tensors() + nodeclf.tensors(), lr=cfg.lr)
        batch = [(decompose(g, cfg.max_nodes), g.class_label) for g in graphs]
        rngs = [np.random.default_rng(i) for i in range(len(batch))]
        make, made = autodiff._make, []

        def counting(value, parents, backward):
            out = make(value, parents, backward)
            if out.requires_grad:
                made.append(sys._getframe(1).f_code.co_name)
            return out

        monkeypatch.setattr(autodiff, "_make", counting)
        bd = train_step(batch, gen, small_clf(), nodeclf, cfg, opt, cfg.tau, rngs)
        monkeypatch.setattr(autodiff, "_make", make)
        assert bd.chunks == 1
        assert made.count("graph_logits") == (1 if lam else 0)
        counts.append(len(made))
    assert counts[0] - counts[1] == CONDITION_CHAIN_NODES


def test_condition_gradient_reaches_generator():
    cfg, batch, gen, clf, nodeclf, _, _ = setup_step()
    found = False
    for seed in range(20):
        _, l_cond, _ = T._batch_losses(
            *teacher_chunk(batch[:1], cfg, [np.random.default_rng(seed)]),
            gen, clf, nodeclf, cfg, 1.0,
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


def _per_step_draws(alpha, u, rngs):
    """Components and noise drawn step by step: ``rng.choice`` over the
    step's weights, then ``rng.random((pairs, 2))``."""
    k, noise = np.zeros(u.num_pairs, dtype=np.int64), np.zeros(u.num_pairs)
    bounds = u.pair_bounds()
    for rng, s0, s1 in zip(rngs, u.step_off, np.append(u.step_off[1:], u.num_steps)):
        for s in range(s0, s1):
            component = int(rng.choice(alpha.shape[1], p=alpha[s]))
            lo, hi = bounds[s], bounds[s + 1]
            if hi > lo:
                gumbels = -np.log(-np.log(np.clip(rng.random((hi - lo, 2)), 1e-12, 1 - 1e-12)))
                noise[lo:hi] = gumbels[:, 0] - gumbels[:, 1]
                k[lo:hi] = component
    return k, noise


@pytest.mark.parametrize("block_size", [1, 3])
def test_component_and_noise_draws_match_per_step_choice(block_size):
    graphs = small_corpus(5, seed=17) + [Graph(1, frozenset(), (0,), 1)]
    u = UnionPlan([
        (decompose(g, 8).lower_rows, block_partition(g.num_nodes, block_size)) for g in graphs
    ])
    alpha = np.random.default_rng(block_size).dirichlet(np.full(4, 0.2), size=u.num_steps)
    alpha[0] = [0.0, 1.0, 0.0, 0.0]

    def rngs():
        return [np.random.default_rng([block_size, i]) for i in range(len(graphs))]

    got_rngs, want_rngs = rngs(), rngs()
    got = T._draw_components_and_noise(alpha, u, got_rngs)
    want = _per_step_draws(alpha, u, want_rngs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # both read each stream to the same point
    assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]


def test_mixture_weights_off_the_simplex_raise_numeric_error():
    g = small_corpus()[0]
    u = UnionPlan([(decompose(g, 8).lower_rows, block_partition(g.num_nodes, 1))])
    alpha = np.full((u.num_steps, 2), 0.5)
    for bad in ([0.5, 0.6], [1.5, -0.5], [np.nan, 0.5]):
        alpha[-1] = bad
        with pytest.raises(NumericError):
            T._draw_components_and_noise(alpha, u, [np.random.default_rng(0)])


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
    the per-step forward of tests/helpers.py and accumulates the loss terms."""
    from condgraphgen.autodiff import constant as const
    from condgraphgen.autodiff import gather_rows
    from condgraphgen.classifiers import classify_nodes, uniform_features
    from condgraphgen.generator import candidate_pairs
    from condgraphgen.graphs import block_partition

    c = one_hot(label, gen.config.num_classes)
    n_full = og.base.num_nodes
    l_adj, l_cond, l_node = 0.0, 0.0, 0.0
    for t, block in enumerate(block_partition(n_full, config.block_size), start=1):
        mix, h = step_forward(og.lower_rows, block, c, t, gen)
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
        block_states = gather_rows(h, np.asarray(block, dtype=np.int64))
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
        og = decompose(g, cfg.max_nodes)
        batch = [(og, g.class_label)]
        got = T._batch_losses(
            *teacher_chunk(batch, cfg, [np.random.default_rng(gi)]),
            gen, clf, nodeclf, cfg, 0.7,
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
    batch = [(decompose(g, cfg.max_nodes), g.class_label) for g in graphs]
    assert len({og.base.num_nodes for og, _ in batch}) > 2
    got = T._batch_losses(
        *teacher_chunk(batch, cfg, [np.random.default_rng(i) for i in range(len(batch))]),
        gen, clf, nodeclf, cfg, 0.7,
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
    og = decompose(small_corpus(4, seed=5)[1], cfg.max_nodes)

    checked = [gen.row_embed.W, gen.round_weights[0].gru.un, gen.head_theta.layers[0].W]
    batch = [(og, 1)]

    def loss_value():
        l_adj, _, _ = T._batch_losses(
            *teacher_chunk(batch, cfg, [np.random.default_rng(0)]), gen, None, None, cfg, 1.0
        )
        return l_adj.item()

    numeric = finite_diff(loss_value, [t.value for t in checked])
    l_adj, _, _ = T._batch_losses(
        *teacher_chunk(batch, cfg, [np.random.default_rng(0)]), gen, None, None, cfg, 1.0
    )
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
    for epoch, record in enumerate(history):
        assert set(record) == {
            "epoch", "l_adj", "l_condition", "l_node_label", "total", "tau",
            "grad_norm_mean", "grad_norm_max", "clipped_steps",
        }
        assert record["tau"] == cfg.tau_at(epoch)
    logged = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert all(line.pop("seconds") > 0 for line in logged)
    assert all(line.pop("graphs_per_s") > 0 for line in logged)
    # toy unions fit the budget: one forward/backward pass per step
    steps = -(-len(graphs) // cfg.batch_size)
    assert all(line.pop("chunks") == steps for line in logged)
    assert all(0 < line.pop("max_chunk_edges") <= T.UNION_EDGE_BUDGET for line in logged)
    assert logged == history


def test_train_generator_history_records_gradient_norms_and_clipping(monkeypatch):
    graphs = small_corpus()
    steps = -(-len(graphs) // SMALL["batch_size"])
    norms = []
    step = T.train_step

    def recording_step(*args, **kwargs):
        bd = step(*args, **kwargs)
        norms.append(bd.grad_norm)
        return bd

    monkeypatch.setattr(T, "train_step", recording_step)
    for clip_norm, want_clipped in ((1e-9, steps), (0.0, 0), (1e9, 0)):
        norms.clear()
        cfg = TrainConfig(**{**SMALL, "clip_norm": clip_norm})
        _, _, history = train_generator(graphs, small_clf(), cfg)
        assert len(norms) == steps * cfg.epochs
        for epoch, record in enumerate(history):
            mine = norms[epoch * steps:(epoch + 1) * steps]
            assert record["grad_norm_mean"] == pytest.approx(np.mean(mine), rel=1e-12)
            assert record["grad_norm_max"] == max(mine) > 0.0
            assert record["clipped_steps"] == want_clipped


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
