"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `[ACCEPTANCE n] PASS/FAIL/SKIP` line (visible with
`pytest -s`).  Criteria:

1. graph statistics match a brute-force oracle on 200 random graphs
2. per-class statistics of the raw NCI1/PROTEINS corpora match published
   reference values (skipped unless CCGG_TU_ROOT points at the datasets)
3. analytic gradients match finite differences; the relaxed-sample path
   carries a nonzero condition gradient into the generator
4. the default desk-scale training run converges and is seed-deterministic
5. samples drawn per class are distinguishable by density and by the
   pretrained classifier
6. straight-through edge samples and the AUC ranking statistic are unbiased
7. structural property suite (equivariance, invariance, ordering round-trip,
   loss additivity, frozen-classifier identity) has zero failures
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import finite_diff, rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluation import oracle_stats, random_graph

from condgraphgen import training as T
from condgraphgen.autodiff import constant, parameter
from condgraphgen.classifiers import (
    ClassifierTrainConfig,
    classify_graph,
    init_graph_classifier,
    predict_graph_class,
    train_graph_classifier,
)
from condgraphgen.datasets import build_manifest, histogram_from_manifest, stratified_split
from condgraphgen.evaluation import STAT_FIELDS, auc, corpus_stats, graph_stats, mean_stats
from condgraphgen.generator import (
    ClassConditionVector,
    GeneratorConfig,
    NodeStates,
    gnn_round,
    graph_log_likelihood,
    init_generator,
)
from condgraphgen.graphs import Graph, decompose, synthesize_toy_corpus
from condgraphgen.sampling import generate_batch
from condgraphgen.training import TrainConfig, gumbel_softmax_edge, train_generator, train_step
from condgraphgen.tu_io import load_tu


def report(criterion: int, status: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] {status}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. metric-oracle equivalence


def test_acceptance_1_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    failures = []
    for i in range(200):
        g = random_graph(rng)
        got, want = graph_stats(g), oracle_stats(g)
        for field in ("lcc", "tc"):  # mathematically integer-valued
            if getattr(got, field) != getattr(want, field):
                failures.append(f"graph {i} {field}: {getattr(got, field)} != {getattr(want, field)}")
        for field in ("cpl", "mean_d", "gini"):
            if abs(getattr(got, field) - getattr(want, field)) > 1e-9:
                failures.append(f"graph {i} {field} off by >1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    status = "PASS" if not failures else "FAIL"
    report(1, status, f"200 random graphs vs brute-force oracle in {elapsed:.1f}s")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 2. per-class statistics of the raw corpora
#
# Reference values: per-class means over each raw dataset (largest-component
# size, triangle count, characteristic path length, mean degree, degree Gini),
# indexed by the dataset's class id after sorted-label remapping.

REFERENCE_CORPUS_STATS = {
    "NCI1": {
        0: {"lcc": 25.206, "tc": 0.034, "cpl": 4.974, "mean_d": 2.163, "gini": 0.085},
        1: {"lcc": 36.052, "tc": 0.092, "cpl": 6.239, "mean_d": 2.194, "gini": 0.120},
    },
    "PROTEINS": {
        0: {"lcc": 47.670, "tc": 34.302, "cpl": 5.605, "mean_d": 3.798, "gini": 0.052},
        1: {"lcc": 22.267, "tc": 17.242, "cpl": 3.330, "mean_d": 3.641, "gini": 0.035},
    },
}


def _cell_tolerance(field: str, target: float) -> float:
    # 5% relative everywhere; near-zero triangle/Gini means keep a 0.02
    # absolute floor so the relative band does not collapse
    tol = 0.05 * abs(target)
    if field in ("tc", "gini"):
        tol = max(tol, 0.02)
    return tol


def test_acceptance_2_reference_corpus_statistics():
    root = os.environ.get("CCGG_TU_ROOT")
    if not root:
        report(
            2,
            "SKIP",
            "CCGG_TU_ROOT is unset; raw NCI1/PROTEINS are not bundled and the "
            "sandbox has no network access — point CCGG_TU_ROOT at a directory "
            "holding NCI1/ and PROTEINS/ in TU format to run this criterion",
        )
        pytest.skip("raw TU datasets unavailable in this environment")
    start = time.perf_counter()
    failures = []
    lines = []
    for name, targets in REFERENCE_CORPUS_STATS.items():
        directory = Path(root) / name
        if not directory.is_dir():
            failures.append(f"{directory} missing")
            continue
        dataset = load_tu(directory, name)
        by_class = {}
        for g in dataset.graphs:
            by_class.setdefault(g.class_label, []).append(g)
        for cls, cells in targets.items():
            got = mean_stats(corpus_stats(by_class.get(cls, [])))
            for field, target in cells.items():
                value = getattr(got, field)
                tol = _cell_tolerance(field, target)
                mark = "ok" if abs(value - target) <= tol else "MISMATCH"
                lines.append(f"  {name} class {cls} {field}: got {value:.3f} want {target:.3f} +/- {tol:.3f} [{mark}]")
                if abs(value - target) > tol:
                    failures.append(f"{name} class {cls} {field}: {value:.3f} vs {target:.3f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    print("\n".join(lines))
    status = "PASS" if not failures else "FAIL"
    report(2, status, f"per-class corpus statistics vs reference values in {elapsed:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 3. gradient integrity


def _six_node_graph(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = {(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.45}
    labels = tuple(int(x) for x in rng.integers(0, 3, size=6))
    return Graph(6, frozenset(edges), labels, int(rng.integers(0, 2)))


def test_acceptance_3_gradient_integrity():
    start = time.perf_counter()
    failures = []

    # (a) teacher-forced log-likelihood vs central finite differences
    cfg = GeneratorConfig(
        max_nodes=6, block_size=2, num_classes=2, hidden_dim_h=6, cond_dim=4,
        mixture_k=2, rounds=2,
    )
    gen = init_generator(cfg, np.random.default_rng(0))
    jitter = np.random.default_rng(1)
    for t in gen.tensors():  # move off ReLU kinks
        t.value += 0.05 * jitter.standard_normal(t.value.shape)
    og, _ = decompose(_six_node_graph(2), cfg.block_size, cfg.max_nodes)
    c = ClassConditionVector.for_class(1, cfg.num_classes)
    checked = [gen.row_embed.W, gen.round_weights[0].gru.un, gen.head_theta.layers[0].W]

    def ll_value():
        return graph_log_likelihood(og, c, gen, cfg.block_size).item()

    for t in gen.tensors():
        t.grad = None
    graph_log_likelihood(og, c, gen, cfg.block_size).backward()
    for t, fd in zip(checked, finite_diff(ll_value, [t.value for t in checked])):
        err = rel_error(t.grad, fd)
        if err >= 1e-4:
            failures.append(f"log-likelihood gradient rel err {err:.2e} >= 1e-4")

    # (a) classifier forward vs finite differences, through adjacency and weights
    clf = init_graph_classifier(feature_dim=3, num_classes=2, rng=np.random.default_rng(3))
    for t in clf.tensors():
        t.value += 0.05 * np.random.default_rng(4).standard_normal(t.value.shape)
    soft = np.random.default_rng(5).uniform(0.1, 0.9, size=(6, 6))
    soft = (soft + soft.T) / 2.0
    np.fill_diagonal(soft, 0.5)  # keeps every entry perturbable within [0, 1]
    adj = parameter(soft)
    feats = np.random.default_rng(6).dirichlet(np.ones(3), size=6)

    def clf_value():
        return classify_graph(feats, adj, clf).log_dist[0].item()

    for t in clf.tensors() + [adj]:
        t.grad = None
    classify_graph(feats, adj, clf).log_dist[0].backward()
    checked_clf = [adj, clf.convs[0].w_neigh, clf.head.layers[0].W]
    for t, fd in zip(checked_clf, finite_diff(clf_value, [t.value for t in checked_clf])):
        err = rel_error(t.grad, fd)
        if err >= 1e-4:
            failures.append(f"classifier gradient rel err {err:.2e} >= 1e-4")

    # (b) nonzero generator gradient from the condition loss alone
    tcfg = TrainConfig(
        block_size=2, max_nodes=8, mixture_k=2, rounds=1, hidden_dim_h=6,
        cond_dim=4, lambda_condition=1.0, lambda_node_label=0.0, seed=0,
    )
    gen2 = init_generator(tcfg.generator_config(2), np.random.default_rng(7))
    clf2 = init_graph_classifier(feature_dim=3, num_classes=2, rng=np.random.default_rng(8))
    og2, _ = decompose(_six_node_graph(9), tcfg.block_size, tcfg.max_nodes)
    got_grad = False
    for seed in range(20):
        for t in gen2.tensors():
            t.grad = None
        _, l_cond, _ = T._batch_losses(
            [(og2, 1)], gen2, clf2, None, tcfg, 1.0, [np.random.default_rng(seed)]
        )
        l_cond.backward()
        if any(t.grad is not None and np.any(t.grad != 0.0) for t in gen2.tensors()):
            got_grad = True
            break
    if not got_grad:
        failures.append("condition loss produced no generator gradient")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    status = "PASS" if not failures else "FAIL"
    report(3, status, f"finite-difference checks and relaxed-path gradient flow in {elapsed:.1f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 4 + 5 share one desk-scale training run


@pytest.fixture(scope="module")
def toy_run():
    graphs = synthesize_toy_corpus(200, seed=7)
    split = stratified_split(graphs, seed=0)
    clf, _ = train_graph_classifier(split, ClassifierTrainConfig())
    config = TrainConfig()
    start = time.perf_counter()
    gen, nodeclf, history = train_generator(split.train, clf, config)
    train_seconds = time.perf_counter() - start
    histogram = histogram_from_manifest(build_manifest(split, "toy", 0))
    return {
        "split": split,
        "clf": clf,
        "config": config,
        "gen": gen,
        "nodeclf": nodeclf,
        "history": history,
        "histogram": histogram,
        "train_seconds": train_seconds,
    }


def test_acceptance_4_training_sanity(toy_run):
    failures = []
    config, history = toy_run["config"], toy_run["history"]
    assert (config.block_size, config.max_nodes, config.mixture_k, config.rounds) == (1, 16, 5, 3)
    assert (config.hidden_dim_h + config.cond_dim, config.cond_dim) == (64, 16)
    assert config.epochs == 50

    first, last = history[0]["total"], history[-1]["total"]
    if not last <= 0.70 * first:
        failures.append(f"total {last:.3f} > 70% of epoch-1 average {first:.3f}")
    if toy_run["train_seconds"] >= 600.0:
        failures.append(f"runtime {toy_run['train_seconds']:.0f}s >= 600s")

    # seed determinism: two fresh single-epoch runs agree bit-for-bit with
    # each other and with the recorded first epoch of the long run
    one_epoch = dataclasses.replace(config, epochs=1)
    graphs = toy_run["split"].train
    gen_a, _, hist_a = train_generator(graphs, toy_run["clf"], one_epoch)
    gen_b, _, hist_b = train_generator(graphs, toy_run["clf"], one_epoch)
    if hist_a != hist_b:
        failures.append("two same-seed runs disagree")
    if hist_a[0] != history[0]:
        failures.append("single-epoch rerun does not reproduce the recorded first epoch")
    for name, tensor in gen_a.named_tensors().items():
        if not np.array_equal(tensor.value, gen_b.named_tensors()[name].value):
            failures.append(f"parameter {name} differs between same-seed runs")
            break

    ratio = last / first
    status = "PASS" if not failures else "FAIL"
    report(
        4,
        status,
        f"50-epoch run: total {first:.2f} -> {last:.2f} ({ratio:.0%} of epoch 1, need <=70%), "
        f"{toy_run['train_seconds']:.0f}s, seed-deterministic",
    )
    assert not failures, failures


def test_acceptance_5_conditional_efficacy(toy_run):
    failures = []
    samples = {
        cls: generate_batch(
            cls, 100, toy_run["gen"], toy_run["nodeclf"], toy_run["histogram"], seed=1234
        )
        for cls in (0, 1)
    }
    mean_degree = {
        cls: float(np.mean([2 * g.num_edges / g.num_nodes for g in batch]))
        for cls, batch in samples.items()
    }
    gap = mean_degree[1] - mean_degree[0]
    if not gap > 0.5:
        failures.append(f"class-1 minus class-0 mean degree {gap:.3f} <= 0.5")

    agreement = {
        cls: float(np.mean([predict_graph_class(toy_run["clf"], g) == cls for g in batch]))
        for cls, batch in samples.items()
    }
    for cls, frac in agreement.items():
        if frac < 0.80:
            failures.append(f"class {cls} classifier agreement {frac:.2f} < 0.80")

    status = "PASS" if not failures else "FAIL"
    report(
        5,
        status,
        f"100 samples/class: mean degree {mean_degree[0]:.2f} vs {mean_degree[1]:.2f} "
        f"(gap {gap:.2f} > 0.5), classifier agreement {agreement[0]:.0%}/{agreement[1]:.0%} (>=80%)",
    )
    assert not failures, failures


# ---------------------------------------------------------------------------
# 6. distributional sampling checks


def test_acceptance_6_sampling_distributions():
    failures = []
    rng = np.random.default_rng(42)
    hard = [gumbel_softmax_edge(0.3, 1.0, rng.random(2)).item() for _ in range(10_000)]
    freq = float(np.mean(hard))
    if abs(freq - 0.3) > 0.02:
        failures.append(f"hard-sample frequency {freq:.4f} outside 0.3 +/- 0.02")
    if set(hard) - {0.0, 1.0}:
        failures.append("straight-through forward values are not binary")

    scores = rng.random(10_000)
    labels = rng.integers(0, 2, size=10_000)
    area = auc(scores, labels)
    if abs(area - 0.5) > 0.02:
        failures.append(f"random-score AUC {area:.4f} outside 0.5 +/- 0.02")

    status = "PASS" if not failures else "FAIL"
    report(
        6,
        status,
        f"theta=0.3 frequency {freq:.3f} (0.3 +/- 0.02), random AUC {area:.3f} (0.5 +/- 0.02)",
    )
    assert not failures, failures


# ---------------------------------------------------------------------------
# 7. structural property suite

_PROP = settings(max_examples=15, deadline=None, derandomize=True)
_GEN_CFG = GeneratorConfig(
    max_nodes=10, block_size=2, num_classes=2, hidden_dim_h=5, cond_dim=3,
    mixture_k=2, rounds=2,
)
_GEN = init_generator(_GEN_CFG, np.random.default_rng(0))
_CLF = init_graph_classifier(feature_dim=3, num_classes=2, rng=np.random.default_rng(1))


@_PROP
@given(st.integers(0, 2**32 - 1))
def prop_round_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    h = rng.standard_normal((n, _GEN_CFG.hidden_dim))
    x = (rng.random(n) < 0.5).astype(np.float64)
    und = [(i, j) for i in range(n) for j in range(i) if rng.random() < 0.5]
    recv = np.array([e[0] for e in und] + [e[1] for e in und], dtype=np.int64)
    send = np.array([e[1] for e in und] + [e[0] for e in und], dtype=np.int64)
    out = gnn_round(NodeStates(constant(h.copy()), x), (recv, send), _GEN)

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    out_p = gnn_round(
        NodeStates(constant(h[inv].copy()), x[inv]),
        (perm[recv], perm[send]),
        _GEN,
    )
    assert np.allclose(out_p.h.value, out.h.value[inv], atol=1e-9)


@_PROP
@given(st.integers(0, 2**32 - 1))
def prop_classifier_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    feats = rng.dirichlet(np.ones(3), size=n)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    base = classify_graph(feats, a, _CLF).dist.value
    perm = rng.permutation(n)
    permuted = classify_graph(feats[perm], a[np.ix_(perm, perm)], _CLF).dist.value
    assert np.allclose(base, permuted, atol=1e-9)


@_PROP
@given(st.integers(0, 2**32 - 1))
def prop_canonical_order_round_trip(seed):
    g = random_graph(np.random.default_rng(seed))
    og, _ = decompose(g, 2, 10)
    rebuilt = set()
    n = g.num_nodes
    for i in range(n):
        for j in range(i):
            if og.lower_rows[i, j]:
                a, b = og.pi[i], og.pi[j]
                rebuilt.add((min(a, b), max(a, b)))
    assert rebuilt == set(g.edges)


_STEP_CFG = TrainConfig(
    block_size=2, max_nodes=8, mixture_k=2, rounds=1, hidden_dim_h=6, cond_dim=4,
    lambda_condition=0.7, lambda_node_label=0.3, epochs=1, batch_size=2, seed=0,
)


def _one_train_step(seed):
    rng = np.random.default_rng(seed)
    graphs = synthesize_toy_corpus(2, (4, 8), seed=int(rng.integers(1 << 30)))
    batch = [
        (decompose(g, _STEP_CFG.block_size, _STEP_CFG.max_nodes)[0], g.class_label)
        for g in graphs
    ]
    gen = init_generator(_STEP_CFG.generator_config(2), np.random.default_rng(seed))
    clf = init_graph_classifier(3, 2, np.random.default_rng(seed + 1))
    nodeclf = T.init_node_classifier(gen.config.hidden_dim, 3, np.random.default_rng(seed + 2))
    opt = T.Adam(gen.tensors() + nodeclf.tensors(), lr=1e-3)
    rngs = [np.random.default_rng([seed, i]) for i in range(len(batch))]
    before = {k: t.value.copy() for k, t in clf.named_tensors().items()}
    breakdown = train_step(batch, gen, clf, nodeclf, _STEP_CFG, opt, 0.8, rngs)
    return breakdown, clf, before


@_PROP
@given(st.integers(0, 2**32 - 1))
def prop_total_loss_additivity(seed):
    breakdown, _, _ = _one_train_step(seed)
    expected = (
        breakdown.l_adj
        + _STEP_CFG.lambda_condition * breakdown.l_condition
        + _STEP_CFG.lambda_node_label * breakdown.l_node_label
    )
    assert abs(breakdown.total - expected) <= 1e-9


@_PROP
@given(st.integers(0, 2**32 - 1))
def prop_frozen_classifier_bit_identity(seed):
    _, clf, before = _one_train_step(seed)
    for name, tensor in clf.named_tensors().items():
        assert np.array_equal(tensor.value, before[name]), name


def test_acceptance_7_structural_property_suite():
    properties = [
        prop_round_permutation_equivariant,
        prop_classifier_permutation_invariant,
        prop_canonical_order_round_trip,
        prop_total_loss_additivity,
        prop_frozen_classifier_bit_identity,
    ]
    failures = []
    for prop in properties:
        try:
            prop()
        except Exception as exc:  # noqa: BLE001 - reported then re-raised below
            failures.append(f"{prop.__name__}: {exc}")
    status = "PASS" if not failures else "FAIL"
    report(7, status, f"{len(properties)} property checks, {len(failures)} failures")
    assert not failures, failures
