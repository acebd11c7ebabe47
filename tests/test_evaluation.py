import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen import backend, evaluation
from condgraphgen.classifiers import (
    ClassifierTrainConfig,
    class_distributions,
    train_graph_classifier,
)
from condgraphgen.datasets import stratified_split
from condgraphgen.evaluation import (
    GraphStats,
    accuracy_per_class,
    auc,
    average_ranks,
    build_report,
    corpus_stats,
    graph_stats,
    mean_stats,
    render_table,
    stats_diff_table,
)
from condgraphgen.graphs import Graph, synthesize_toy_corpus, union_edges
from helpers import (
    reference_components_labels,
    reference_graph_stats,
    reference_sp_pair_sum,
)


def make_graph(n, edges, cls=0):
    return Graph(n, frozenset(edges), tuple([0] * n), cls)


def assert_stats_close(got, want, tol=1e-9):
    for f in evaluation.STAT_FIELDS:
        assert abs(getattr(got, f) - getattr(want, f)) <= tol, f


def random_graph(rng):
    n = int(rng.integers(1, 11))
    p = rng.uniform(0.0, 0.7)
    edges = {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    }
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# hand-countable cases


def test_triangle_stats():
    s = graph_stats(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert (s.lcc, s.tc, s.cpl, s.mean_d, s.gini) == (3, 1, 1.0, 2.0, 0.0)


def test_path_stats():
    s = graph_stats(make_graph(3, [(0, 1), (1, 2)]))
    assert s.tc == 0
    assert s.cpl == pytest.approx(4 / 3)
    assert s.mean_d == pytest.approx(4 / 3)


def test_star_gini():
    s = graph_stats(make_graph(6, [(0, i) for i in range(1, 6)]))
    assert s.gini == pytest.approx(1 / 3)


def test_disjoint_triangles():
    s = graph_stats(
        make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    )
    assert s.lcc == 3
    assert s.cpl == 1.0
    assert s.tc == 2


def test_single_node():
    s = graph_stats(make_graph(1, []))
    assert (s.lcc, s.tc, s.cpl, s.mean_d, s.gini) == (1, 0, 0.0, 0.0, 0.0)


def test_all_isolated_gini_zero():
    assert graph_stats(make_graph(5, [])).gini == 0.0


def test_stats_match_oracle_on_200_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        g = random_graph(rng)
        assert_stats_close(graph_stats(g), reference_graph_stats(g))


def test_stats_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(rng)
        perm = rng.permutation(g.num_nodes)
        edges = frozenset(
            (min(int(perm[u]), int(perm[v])), max(int(perm[u]), int(perm[v])))
            for u, v in g.edges
        )
        h = make_graph(g.num_nodes, edges)
        assert_stats_close(graph_stats(g), graph_stats(h))


def molecule_like_graph(n, rng, rings):
    """A random tree on n nodes plus ``rings`` ring closures between nodes
    four to six tree steps apart, like the rings of a molecule."""
    parent = [int(rng.integers(0, i)) for i in range(1, n)]
    edges = {(p, i + 1) for i, p in enumerate(parent)}
    closed = 0
    while closed < rings:
        v = int(rng.integers(1, n))
        u = v
        for _ in range(int(rng.integers(4, 7))):
            u = parent[u - 1] if u > 0 else u
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            closed += 1
    return make_graph(n, edges)


def test_stats_match_oracle_on_molecule_like_graphs():
    rng = np.random.default_rng(2024)
    for n in (60, 90, 120, 180, 240, 300):
        g = molecule_like_graph(n, rng, rings=int(rng.integers(2, 8)))
        assert_stats_close(graph_stats(g), reference_graph_stats(g))


@pytest.mark.parametrize(
    "triangle, path, want_cpl",
    [
        ((0, 1, 2), (3, 4, 5), 1.0),
        ((3, 4, 5), (0, 1, 2), 4 / 3),
        ((1, 3, 5), (0, 2, 4), 4 / 3),
    ],
)
def test_tied_largest_components_use_lowest_node_id(triangle, path, want_cpl):
    a, b, c = triangle
    p, q, r = path
    g = make_graph(6, [(a, b), (b, c), (a, c), (p, q), (q, r)])
    s = graph_stats(g)
    assert s.lcc == 3
    assert s.cpl == pytest.approx(want_cpl)
    assert_stats_close(s, reference_graph_stats(g))


def test_complete_graph_300():
    n = 300
    s = graph_stats(make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
    assert s.tc == 4_455_100
    assert s.cpl == 1.0
    assert (s.lcc, s.mean_d, s.gini) == (300, 299.0, 0.0)


# ---------------------------------------------------------------------------
# aggregation


def test_mean_stats():
    a = GraphStats(1, 0, 0.0, 0.0, 0.0)
    b = GraphStats(3, 1, 1.0, 2.0, 0.5)
    m = mean_stats([a, b])
    assert (m.lcc, m.tc, m.cpl, m.mean_d, m.gini) == (2.0, 0.5, 0.5, 1.0, 0.25)
    with pytest.raises(ValueError):
        mean_stats([])


def test_corpus_stats_preserves_order():
    graphs = synthesize_toy_corpus(60, (6, 12), seed=3)
    assert corpus_stats(graphs) == [graph_stats(g) for g in graphs]


def test_identical_sets_zero_diff():
    graphs = synthesize_toy_corpus(30, (6, 10), seed=1)
    table = stats_diff_table(graphs, list(graphs))
    assert set(table) == {0, 1}
    for comp in table.values():
        for f in evaluation.STAT_FIELDS:
            assert getattr(comp.diff, f) == 0.0


def test_missing_class_reported_as_missing():
    graphs = synthesize_toy_corpus(30, (6, 10), seed=1)
    only0 = [g for g in graphs if g.class_label == 0]
    table = stats_diff_table(graphs, only0)
    assert table[1].generated is None
    assert table[1].diff is None
    assert table[1].reference is not None
    assert table[0].diff is not None


# ---------------------------------------------------------------------------
# the batched search against the per-graph reference


def random_edges(n, p, rng):
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < p
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


def path(nodes):
    return list(zip(nodes, nodes[1:]))


def star(nodes):
    return [(nodes[0], v) for v in nodes[1:]]


def mixed_corpus(rng):
    """Graphs at and around the bitset word boundaries (edgeless, sparse
    with isolated nodes and several components, denser), tied largest
    components, K_300, two dense 300-node graphs and more dense 60-node
    graphs than one chunk holds, in random order."""
    graphs = [
        make_graph(n, random_edges(n, p, rng))
        for n in (1, 2, 63, 64, 65, 128, 129, 300)
        for p in (0.0, 1.5 / n, 0.1)
    ]
    graphs += [random_graph(rng) for _ in range(40)]
    # a triangle tied with a path; two 64-node components whose node ids
    # interleave across the first word boundary, node 128 isolated
    graphs.append(make_graph(6, [(3, 4), (4, 5), (3, 5)] + path([0, 1, 2])))
    low, high = [0] + list(range(65, 128)), list(range(1, 65))
    graphs.append(make_graph(129, path(low) + star(high)))
    graphs.append(make_graph(129, star(low) + path(high)))
    graphs.append(make_graph(300, [(i, j) for i in range(300) for j in range(i + 1, 300)]))
    graphs += [make_graph(300, random_edges(300, 0.8, rng)) for _ in range(2)]
    # enough dense one-word graphs to fill more than one chunk
    graphs += [make_graph(60, random_edges(60, 0.9, rng)) for _ in range(25)]
    return [graphs[i] for i in rng.permutation(len(graphs))]


def test_corpus_stats_equal_the_per_graph_reference():
    graphs = mixed_corpus(np.random.default_rng(31))
    chunks = list(evaluation._chunks(graphs))
    widths = [evaluation._words(graphs[c[0]].num_nodes) for c in chunks]
    assert len(chunks) >= 3
    # the budget splits a bitset width between chunks of several graphs
    assert any(len(c) > 1 and widths.count(w) > 1 for c, w in zip(chunks, widths))
    assert corpus_stats(graphs) == [reference_graph_stats(g) for g in graphs]


def test_statistics_cut_a_width_into_the_fewest_chunks(monkeypatch):
    # (2 edges + nodes) x one word of 60 + 70 + 60 + 70 under 120 make
    # ceil(260 / 120) = 3 chunks; filling each chunk up to the budget
    # would make 4
    pairs = [(i, j) for j in range(10) for i in range(j)]
    graphs = [make_graph(10, pairs[:m]) for m in (25, 30, 25, 30)]
    monkeypatch.setattr(evaluation, "CHUNK_WORDS", 120)
    assert [list(c) for c in evaluation._chunks(graphs)] == [[0], [1, 2], [3]]
    assert corpus_stats(graphs) == [reference_graph_stats(g) for g in graphs]


def isolated_union():
    """Graphs with isolated nodes at the union's start, inside graphs,
    between graphs and at its end, up to 70 nodes (two bitset words)."""
    rng = np.random.default_rng(5)
    return [
        make_graph(1, []),
        make_graph(5, [(1, 2), (2, 4), (1, 4)]),
        make_graph(3, []),
        make_graph(6, [(0, 5), (5, 3)]),
        make_graph(70, [(u, v) for u, v in random_edges(70, 0.04, rng) if u % 7 and v % 7]),
        make_graph(4, [(0, 1), (2, 3)]),
        make_graph(2, []),
    ]


@pytest.mark.parametrize("words", [1, 2])
def test_search_with_isolated_nodes_matches_the_dense_references(words):
    graphs = isolated_union()
    if words == 1:
        graphs = [g for g in graphs if g.num_nodes <= 64]
    n, _, pairs = union_edges(graphs)
    total = int(n.sum())
    indptr, indices = backend.csr_from_edges(total, pairs)
    assert (np.diff(indptr) == 0).sum() > len(graphs)
    local = np.concatenate([np.arange(k) for k in n])
    dist_sum, reach, neighbours = backend.sp_pair_sum(indptr, indices, local, words)
    assert reach.shape == neighbours.shape == (total, words)

    def bits(ids):
        out = np.zeros(words, dtype=np.uint64)
        for i in ids:
            out[i >> 6] |= np.uint64(1) << np.uint64(i & 63)
        return out

    labels = reference_components_labels(indptr, indices, total)
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        assert dist_sum[members].sum() // 2 == reference_sp_pair_sum(indptr, indices, members)
        assert (reach[members] == bits(local[members])).all()
    for u in range(total):
        assert (neighbours[u] == bits(local[indices[indptr[u]:indptr[u + 1]]])).all()
    assert corpus_stats(graphs) == [reference_graph_stats(g) for g in graphs]


def test_search_over_edgeless_graphs_and_an_empty_union():
    local = np.array([0, 0, 1, 2], dtype=np.int64)
    indptr = np.zeros(5, dtype=np.int64)
    dist_sum, reach, neighbours = backend.sp_pair_sum(
        indptr, np.zeros(0, dtype=np.int64), local, 1
    )
    assert dist_sum.tolist() == [0, 0, 0, 0]
    assert reach[:, 0].tolist() == [1, 1, 2, 4] and not neighbours.any()
    empty = backend.sp_pair_sum(indptr[:1], indptr[:0], local[:0], 2)
    assert [a.shape for a in empty] == [(0,), (0, 2), (0, 2)]


def test_corpus_stats_peak_memory_follows_the_chunk_budget():
    # 100 dense 111-node graphs fill 20 chunks and 300 fill 60; the peak
    # should stay near one chunk's, not grow with the corpus
    rng = np.random.default_rng(11)
    graphs = [make_graph(111, random_edges(111, 0.5, rng)) for _ in range(300)]

    def peak(corpus):
        tracemalloc.start()
        try:
            corpus_stats(corpus)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(graphs[:100]), peak(graphs)
    assert large <= 1.1 * small, (small, large)


# ---------------------------------------------------------------------------
# classifier-based metrics


def test_accuracy_with_oracle_classifier():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=2)
    acc = accuracy_per_class(graphs, [g.class_label for g in graphs])
    assert acc == {0: 1.0, 1: 1.0}


def test_accuracy_with_constant_classifier():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=2)
    acc = accuracy_per_class(graphs, [0] * len(graphs))
    assert acc == {0: 1.0, 1: 0.0}


def test_auc_separated():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_all_ties():
    assert auc([0.5] * 10, [0, 1] * 5) == 0.5


def test_auc_single_class_missing():
    assert auc([0.1, 0.9], [1, 1]) is None


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(99)
    scores = rng.uniform(size=10_000)
    labels = rng.integers(0, 2, size=10_000)
    assert abs(auc(scores, labels) - 0.5) < 0.02


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=40),
    st.data(),
)
def test_auc_monotone_transform_invariant(scores, data):
    # quantize so tanh(s) + 7 cannot merge distinct scores in float rounding
    scores = [round(s, 3) for s in scores]
    labels = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
    )
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    squashed = auc([np.tanh(s) + 7 for s in scores], labels)
    assert base == pytest.approx(squashed, abs=1e-12)


def test_average_ranks_share_tied_ranks():
    assert average_ranks(np.array([0.3, 0.1, 0.3, 0.2, 0.3])).tolist() == [4, 1, 4, 2, 4]
    assert average_ranks(np.array([1.0, 1.0])).tolist() == [1.5, 1.5]


def test_average_ranks_match_scipy_rankdata():
    rankdata = pytest.importorskip("scipy.stats").rankdata
    rng = np.random.default_rng(5)
    for i in range(300):
        size = int(rng.integers(1, 200))
        if i % 2:  # heavy ties: a handful of distinct values
            x = rng.integers(0, int(rng.integers(1, 6)), size=size) / 7.0
        else:
            x = rng.standard_normal(size)
        assert np.array_equal(average_ranks(x), rankdata(x))


def test_import_leaves_scipy_unloaded():
    code = "import sys, condgraphgen; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# report serialization and rendering


@pytest.fixture(scope="module")
def toy_clf():
    split = stratified_split(synthesize_toy_corpus(40, (6, 10), seed=3), seed=0)
    params, _ = train_graph_classifier(split, ClassifierTrainConfig(epochs=5, seed=0))
    return params


def test_report_json_holds_classes_accuracy_and_auc(toy_clf):
    graphs = synthesize_toy_corpus(30, (6, 10), seed=4)
    gen = synthesize_toy_corpus(30, (6, 10), seed=5)
    report = build_report(graphs, gen, toy_clf)
    payload = json.loads(report.to_json())
    assert set(payload["classes"]) == {"0", "1"}
    assert payload == report.to_dict()
    # accuracy and AUC come from one class-distribution read-out
    dist = class_distributions(toy_clf, gen)
    labels = [g.class_label for g in gen]
    want_auc = auc(dist[:, 1], labels)
    assert want_auc is not None and payload["auc"] == want_auc
    want = accuracy_per_class(gen, dist.argmax(axis=1))
    assert {int(c): e["accuracy"] for c, e in payload["classes"].items()} == want


def test_render_table_layout(toy_clf):
    graphs = synthesize_toy_corpus(20, (6, 10), seed=4)
    report = build_report(graphs, list(graphs), toy_clf)
    text = render_table(report)
    lines = text.splitlines()
    assert "LCC" in lines[0] and "GINI" in lines[0]
    assert any("generated" in ln for ln in lines)
    assert any("diff" in ln for ln in lines)
    assert any("accuracy" in ln for ln in lines)


def test_render_table_missing_rows():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=4)
    only0 = [g for g in graphs if g.class_label == 0]
    report = build_report(graphs, only0)
    assert "missing" in render_table(report)
