import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen import evaluation
from condgraphgen.evaluation import (
    EvalReport,
    GraphStats,
    accuracy_per_class,
    auc,
    build_report,
    corpus_stats,
    graph_stats,
    mean_stats,
    render_table,
    stats_diff_table,
)
from condgraphgen.graphs import Graph, synthesize_toy_corpus


def make_graph(n, edges, cls=0):
    return Graph(n, frozenset(edges), tuple([0] * n), cls)


# ---------------------------------------------------------------------------
# independent brute-force oracle: dense adjacency, trace-based triangles,
# Floyd-Warshall path lengths, pairwise-difference Gini


def oracle_stats(g):
    n = g.num_nodes
    A = g.adjacency().astype(np.float64)

    tc = np.trace(np.linalg.matrix_power(A, 3)) / 6.0

    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    D[A > 0] = 1.0
    for k in range(n):
        D = np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :])

    comps = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        comp = [j for j in range(n) if np.isfinite(D[i, j])]
        seen.update(comp)
        comps.append(comp)
    members = max(comps, key=len)
    lcc = len(members)
    if lcc < 2:
        cpl = 0.0
    else:
        dsum = sum(D[i, j] for i in members for j in members if i < j)
        cpl = dsum / (lcc * (lcc - 1) / 2)

    deg = A.sum(axis=1)
    total = deg.sum()
    if total == 0:
        gini = 0.0
    else:
        gini = sum(abs(a - b) for a in deg for b in deg) / (2 * n * total)

    return GraphStats(float(lcc), float(tc), float(cpl), float(2 * g.num_edges / n), float(gini))


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
        assert_stats_close(graph_stats(g), oracle_stats(g))


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
        assert_stats_close(graph_stats(g), oracle_stats(g))


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
    assert_stats_close(s, oracle_stats(g))


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
# classifier-based metrics


def test_accuracy_with_oracle_classifier():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=2)
    acc = accuracy_per_class(graphs, lambda g: g.class_label)
    assert acc == {0: 1.0, 1: 1.0}


def test_accuracy_with_constant_classifier():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=2)
    acc = accuracy_per_class(graphs, lambda g: 0)
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


# ---------------------------------------------------------------------------
# report serialization and rendering


def test_report_round_trip():
    graphs = synthesize_toy_corpus(30, (6, 10), seed=4)
    gen = synthesize_toy_corpus(30, (6, 10), seed=5)
    report = build_report(
        graphs,
        gen,
        clf=lambda g: g.class_label,
        scores=[0.2, 0.8, 0.3, 0.9],
        score_labels=[0, 1, 0, 1],
    )
    text = report.to_json()
    again = EvalReport.from_json(text)
    assert again == report
    payload = json.loads(text)
    assert set(payload["classes"]) == {"0", "1"}
    assert payload["auc"] == 1.0


def test_render_table_layout():
    graphs = synthesize_toy_corpus(20, (6, 10), seed=4)
    report = build_report(graphs, list(graphs), clf=lambda g: g.class_label)
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
