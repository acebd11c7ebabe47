import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import oracle_generate_batch

from condgraphgen import sampling
from condgraphgen.classifiers import init_graph_classifier, init_node_classifier
from condgraphgen.errors import CapacityError, NumericError
from condgraphgen.generator import GeneratorConfig, draw_components, init_generator
from condgraphgen.graphs import Graph, synthesize_toy_corpus
from condgraphgen.sampling import generate, generate_batch, sample_num_nodes
from condgraphgen.training import TrainConfig, train_generator

CONFIG = GeneratorConfig(
    max_nodes=8,
    block_size=2,
    num_classes=2,
    hidden_dim_h=6,
    cond_dim=4,
    mixture_k=2,
    rounds=1,
)


@pytest.fixture(scope="module")
def model():
    gen = init_generator(CONFIG, np.random.default_rng(0))
    nodeclf = init_node_classifier(CONFIG.hidden_dim, 3, np.random.default_rng(1))
    return gen, nodeclf


def force_theta(gen, logit):
    final = gen.head_theta.layers[-1]
    final.W.value[:] = 0.0
    final.b.value[:] = logit


# ---------------------------------------------------------------------------
# node-count sampling


def test_single_mass_histogram_always_returns_it():
    rng = np.random.default_rng(0)
    hist = {1: {7: 4}}
    assert all(sample_num_nodes(1, hist, rng) == 7 for _ in range(50))


def test_histogram_mean_matches_monte_carlo():
    hist = {0: {5: 1, 10: 3}}
    rng = np.random.default_rng(2)
    draws = [sample_num_nodes(0, hist, rng) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(8.75, rel=0.02)


def test_unseen_class_raises():
    with pytest.raises(ValueError, match="class 3"):
        sample_num_nodes(3, {0: {5: 1}}, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_num_nodes(0, {0: {}}, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# single-graph generation


def test_single_node_graph(model):
    gen, nodeclf = model
    g = generate(0, gen, nodeclf, None, np.random.default_rng(3), num_nodes=1)
    assert g.num_nodes == 1 and g.num_edges == 0 and g.class_label == 0
    assert len(g.node_labels) == 1


def test_fixed_seed_reproduces_graph(model):
    gen, nodeclf = model
    hist = {1: {4: 1, 6: 2, 8: 1}}
    a = generate(1, gen, nodeclf, hist, np.random.default_rng(7))
    b = generate(1, gen, nodeclf, hist, np.random.default_rng(7))
    assert a == b


def test_capacity_error(model):
    gen, nodeclf = model
    with pytest.raises(CapacityError):
        generate(0, gen, nodeclf, None, np.random.default_rng(0), num_nodes=9)
    with pytest.raises(CapacityError):
        generate(0, gen, nodeclf, {0: {100: 1}}, np.random.default_rng(0))


def test_requires_histogram_or_num_nodes(model):
    gen, nodeclf = model
    with pytest.raises(ValueError):
        generate(0, gen, nodeclf, None, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate(0, gen, nodeclf, None, np.random.default_rng(0), num_nodes=0)


def test_saturated_heads_give_complete_and_empty_graphs():
    gen = init_generator(CONFIG, np.random.default_rng(0))
    nodeclf = init_node_classifier(CONFIG.hidden_dim, 3, np.random.default_rng(1))
    force_theta(gen, 20.0)
    full = generate(0, gen, nodeclf, None, np.random.default_rng(5), num_nodes=6)
    assert full.num_edges == 15
    force_theta(gen, -20.0)
    empty = generate(0, gen, nodeclf, None, np.random.default_rng(5), num_nodes=6)
    assert empty.num_edges == 0


def test_node_labels_come_from_node_classifier(model):
    gen, _ = model
    nodeclf = init_node_classifier(CONFIG.hidden_dim, 3, np.random.default_rng(1))
    final = nodeclf.mlp.layers[-1]
    final.W.value[:] = 0.0
    final.b.value[:] = np.array([0.0, 0.0, 10.0])
    g = generate(0, gen, nodeclf, None, np.random.default_rng(9), num_nodes=5)
    assert g.node_labels == (2, 2, 2, 2, 2)


def test_generated_graphs_are_valid(model):
    gen, nodeclf = model
    hist = {0: {3: 1, 5: 1, 8: 2}, 1: {4: 1, 7: 1}}
    for cls in (0, 1):
        for seed in range(10):
            g = generate(cls, gen, nodeclf, hist, np.random.default_rng(seed))
            assert g.class_label == cls
            assert 1 <= g.num_nodes <= CONFIG.max_nodes
            for u, v in g.edges:
                assert u != v and 0 <= u < g.num_nodes and 0 <= v < g.num_nodes
            assert all(0 <= l < 3 for l in g.node_labels)


def test_start_prefix_is_preserved():
    gen = init_generator(CONFIG, np.random.default_rng(0))
    nodeclf = init_node_classifier(CONFIG.hidden_dim, 3, np.random.default_rng(1))
    force_theta(gen, -20.0)
    triangle = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}), (2, 0, 1), class_label=0)
    g = generate(
        1, gen, nodeclf, None, np.random.default_rng(4), num_nodes=6, start=triangle
    )
    assert g.num_nodes == 6 and g.class_label == 1
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert sorted(g.node_labels[:3]) == [0, 1, 2]


def test_start_equal_to_target_count_round_trips_structure(model):
    gen, nodeclf = model
    path = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}), (0, 0, 0, 0), class_label=1)
    g = generate(
        0, gen, nodeclf, None, np.random.default_rng(4), num_nodes=4, start=path
    )
    assert g.num_edges == 3 and g.class_label == 0
    assert sorted(g.degrees()) == [1, 1, 2, 2]


def test_start_larger_than_target_count_rejected(model):
    gen, nodeclf = model
    big = Graph(5, frozenset({(0, 1)}), (0,) * 5, class_label=0)
    with pytest.raises(ValueError, match="start"):
        generate(0, gen, nodeclf, None, np.random.default_rng(0), num_nodes=3, start=big)


# ---------------------------------------------------------------------------
# batch generation


def test_batch_count_zero(model):
    gen, nodeclf = model
    assert generate_batch(0, 0, gen, nodeclf, None, seed=0, num_nodes=4) == []
    with pytest.raises(ValueError):
        generate_batch(0, -1, gen, nodeclf, None, seed=0, num_nodes=4)


def test_batch_stamps_class_and_is_deterministic(model):
    gen, nodeclf = model
    hist = {1: {4: 2, 6: 1}}
    a = generate_batch(1, 6, gen, nodeclf, hist, seed=11)
    b = generate_batch(1, 6, gen, nodeclf, hist, seed=11)
    assert a == b
    assert all(g.class_label == 1 for g in a)
    assert len({g for g in a}) > 1, "samples should vary across the batch"


def test_batch_substreams_independent_of_order(model):
    gen, nodeclf = model
    hist = {0: {4: 1, 5: 1, 6: 1}}
    batch = generate_batch(0, 8, gen, nodeclf, hist, seed=13)
    prefix = generate_batch(0, 5, gen, nodeclf, hist, seed=13)
    assert batch[:5] == prefix
    shuffled_order = [
        generate(0, gen, nodeclf, hist, np.random.default_rng([13, 4, 0, i]))
        for i in np.random.default_rng(0).permutation(8)
    ]
    restored = [g for _, g in sorted(zip(np.random.default_rng(0).permutation(8), shuffled_order))]
    assert restored == batch


# ---------------------------------------------------------------------------
# golden set: the union forward against the per-step oracle sampler

_START = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 4)}), (0, 1, 2, 0, 1), 0)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda b: f"block{b}")
def golden_models(request):
    """Random and briefly trained weights for one block size."""
    block_size = request.param
    cfg = TrainConfig(
        block_size=block_size, max_nodes=10, mixture_k=3, rounds=2, hidden_dim_h=6,
        cond_dim=4, epochs=2, batch_size=4, lr=1e-2, seed=block_size,
    )
    corpus = synthesize_toy_corpus(12, (4, 10), seed=block_size)
    clf = init_graph_classifier(3, 2, np.random.default_rng(0))
    trained = train_generator(corpus, clf, cfg)[:2]
    gen = init_generator(cfg.generator_config(2), np.random.default_rng(10 + block_size))
    nodeclf = init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(20))
    return {"random": (gen, nodeclf), "trained": trained}


@pytest.mark.parametrize("weights", ["random", "trained"])
@pytest.mark.parametrize("start", [None, _START], ids=["scratch", "start"])
def test_generate_batch_matches_per_step_oracle(golden_models, weights, start):
    gen, nodeclf = golden_models[weights]
    for class_label in (0, 1):
        for seed, num_nodes in ((3, 5), (4, 7), (5, 10)):
            got = generate_batch(
                class_label, 12, gen, nodeclf, None, seed, num_nodes=num_nodes, start=start
            )
            want = oracle_generate_batch(
                class_label, 12, gen, nodeclf, seed, num_nodes, start=start
            )
            assert got == want  # structure, node labels and class


@pytest.mark.parametrize("poisoned", ["row_embed", "head_theta"])
def test_non_finite_weights_raise_numeric_error(poisoned):
    gen = init_generator(CONFIG, np.random.default_rng(0))
    nodeclf = init_node_classifier(CONFIG.hidden_dim, 3, np.random.default_rng(1))
    if poisoned == "row_embed":  # every mixture weight from the second step on
        gen.row_embed.W.value[0, 0] = np.nan
    else:  # the edge probabilities only; the mixture weights stay finite
        gen.head_theta.layers[-1].b.value[0] = np.nan
    with pytest.raises(NumericError):
        generate(0, gen, nodeclf, None, np.random.default_rng(0), num_nodes=6)


# ---------------------------------------------------------------------------
# one node-label read-out per sample, one uniform per component draw


def _count_node_reads(monkeypatch) -> list[int]:
    calls = [0]
    classify = sampling.classify_nodes

    def counted(states, params):
        calls[0] += 1
        return classify(states, params)

    monkeypatch.setattr(sampling, "classify_nodes", counted)
    return calls


def test_node_labels_are_read_once_per_sample(model, monkeypatch):
    gen, nodeclf = model
    calls = _count_node_reads(monkeypatch)
    graphs = generate_batch(1, 5, gen, nodeclf, None, seed=3, num_nodes=7)
    assert calls[0] == 5 and all(g.num_nodes == 7 for g in graphs)
    # a start that straddles a block still reads the rest in one call
    path = Graph(3, frozenset({(0, 1), (1, 2)}), (2, 2, 2), class_label=0)
    calls[0] = 0
    g = generate(0, gen, nodeclf, None, np.random.default_rng(4), num_nodes=8, start=path)
    assert calls[0] == 1 and g.num_nodes == 8


def test_no_node_labels_are_read_when_start_has_the_target_count(model, monkeypatch):
    gen, nodeclf = model
    calls = _count_node_reads(monkeypatch)
    path = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}), (2, 0, 1, 2), class_label=1)
    g = generate(0, gen, nodeclf, None, np.random.default_rng(4), num_nodes=4, start=path)
    assert calls[0] == 0 and sorted(g.node_labels) == [0, 1, 2, 2]


def test_component_draw_matches_rng_choice():
    """The index and the RNG state after the draw, on random mixture rows,
    rows with zero weights and one-hot rows."""
    rng = np.random.default_rng(70)
    rows = []
    for k in (1, 2, 3, 7):
        for _ in range(40):
            alpha = rng.dirichlet(np.ones(k))
            if k > 1 and rng.random() < 0.5:
                alpha[rng.choice(k, rng.integers(1, k), replace=False)] = 0.0
                alpha /= alpha.sum()
            rows.append(alpha)
        rows.append(np.eye(k)[k - 1])
        rows.append(np.eye(k)[0])
    for i, alpha in enumerate(rows):
        want_rng, got_rng = np.random.default_rng(i), np.random.default_rng(i)
        want = want_rng.choice(alpha.shape[0], p=alpha)
        got = draw_components(alpha[None, :], got_rng.random(1))
        assert got.shape == (1,) and got[0] == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # several rows at once, as training draws them
    stacked = [r for r in rows if r.shape[0] == 7]
    uniforms = np.random.default_rng(71).random(len(stacked))
    want = [np.searchsorted(np.cumsum(a) / np.cumsum(a)[-1], u, side="right")
            for a, u in zip(stacked, uniforms)]
    assert np.array_equal(draw_components(np.stack(stacked), uniforms), want)


def test_class_label_out_of_range(model):
    gen, nodeclf = model
    with pytest.raises(ValueError, match="class 2"):
        generate(2, gen, nodeclf, None, np.random.default_rng(0), num_nodes=3)


# ---------------------------------------------------------------------------
# bits independent of the BLAS thread count

_SAMPLING_DIGEST = """
import hashlib
import numpy as np
from condgraphgen.autodiff import no_grad
from condgraphgen.classifiers import init_node_classifier
from condgraphgen.generator import GeneratorConfig, UnionPlan, init_generator, step_forward
from condgraphgen.graphs import Graph, decompose
from condgraphgen.sampling import generate_batch

digest = hashlib.sha256()
for block_size, mixture_k in ((1, 1), (2, 2), (3, 7)):
    config = GeneratorConfig(max_nodes=160, block_size=block_size, num_classes=2,
                             hidden_dim_h=12, cond_dim=4, mixture_k=mixture_k, rounds=3)
    gen = init_generator(config, np.random.default_rng(block_size))
    nodeclf = init_node_classifier(config.hidden_dim, 3, np.random.default_rng(9))
    for label in (0, 1):
        for g in generate_batch(label, 2, gen, nodeclf, None, seed=5, num_nodes=24):
            digest.update(repr((sorted(g.edges), g.node_labels)).encode())
    # one block over a dense 150-node prefix: products of about 12,000 rows
    rng = np.random.default_rng(block_size)
    edges = frozenset((j, i) for i in range(150) for j in range(i) if rng.random() < 0.5)
    og = decompose(Graph(150, edges, (0,) * 150, 0), config.max_nodes)
    plan = UnionPlan([(og.lower_rows, [list(range(150, 150 + block_size))])])
    with no_grad():
        for out in step_forward(plan, [1], gen):
            digest.update(out.value.tobytes())
print(digest.hexdigest())
"""


def test_sampling_bits_do_not_depend_on_the_blas_thread_count():
    """Samples and the raw forward outputs of a large one-step plan come out
    bit for bit the same with one and with two OpenBLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", _SAMPLING_DIGEST], capture_output=True,
                             text=True, env=env, timeout=300, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
