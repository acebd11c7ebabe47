import dataclasses
import pickle
from itertools import chain

import numpy as np
import pytest
from helpers import reconstructed_edges
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen.errors import CapacityError
from condgraphgen.graphs import (
    Graph,
    balanced_cuts,
    block_partition,
    canonical_ordering,
    decompose,
    synthesize_toy_corpus,
    union_edges,
)


def make_graph(n, edges, labels=None, cls=0):
    return Graph(
        num_nodes=n,
        edges=frozenset(edges),
        node_labels=tuple(labels) if labels else (0,) * n,
        class_label=cls,
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return make_graph(n, chosen, labels, cls=draw(st.integers(0, 1)))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="references"):
            make_graph(3, [(0, 3)])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="node_labels"):
            Graph(num_nodes=3, edges=frozenset(), node_labels=(0, 1), class_label=0)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=0, edges=frozenset(), node_labels=(), class_label=0)

    def test_edge_orientation_normalized(self):
        g = make_graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.num_edges == 2

    def test_degrees_and_adjacency(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert list(g.degrees()) == [1, 2, 1]
        a = g.adjacency()
        assert np.array_equal(a, a.T) and a[0, 1] == 1 and a[0, 2] == 0


class TestCanonicalOrdering:
    def test_star_rooted_at_center(self):
        # star with center at index 3
        g = make_graph(5, [(3, 0), (3, 1), (3, 2), (3, 4)])
        assert canonical_ordering(g)[0] == 3

    def test_path_hand_traced(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert canonical_ordering(g) == (1, 0, 2)

    def test_disjoint_triangles_component_order(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        pi = canonical_ordering(g)
        assert set(pi[:3]) == {0, 1, 2}
        assert set(pi[3:]) == {3, 4, 5}

    def test_larger_component_first(self):
        # sizes 4 vs 2; larger comes first despite higher indices
        g = make_graph(6, [(2, 3), (3, 4), (4, 5), (2, 5), (0, 1)])
        pi = canonical_ordering(g)
        assert set(pi[:4]) == {2, 3, 4, 5}

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_is_permutation_and_deterministic(self, g):
        pi = canonical_ordering(g)
        assert sorted(pi) == list(range(g.num_nodes))
        assert pi == canonical_ordering(g)


class TestDecompose:
    def test_triangle_rows(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        og = decompose(g, N=5)
        assert len(block_partition(g.num_nodes, 1)) == 3
        expect = np.array(
            [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=np.uint8
        )
        assert np.array_equal(og.lower_rows, expect)

    def test_ceiling_partition(self):
        assert block_partition(5, 2) == ((0, 1), (2, 3), (4,))

    def test_empty_graph_rows_zero(self):
        g = make_graph(3, [])
        og = decompose(g, N=4)
        assert not og.lower_rows.any()

    def test_capacity_error(self):
        g = make_graph(5, [(0, 1)])
        with pytest.raises(CapacityError):
            decompose(g, N=4)

    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        og = decompose(g, N=10)
        assert reconstructed_edges(og) == g.edges


def test_union_edges_offset_each_graph_by_the_nodes_before_it():
    graphs = [make_graph(3, [(0, 1), (1, 2)]), make_graph(1, []), make_graph(2, [(0, 1)])]
    n, m, pairs = union_edges(graphs)
    assert n.tolist() == [3, 1, 2] and m.tolist() == [2, 0, 1]
    assert sorted(map(tuple, pairs[:2].tolist())) == [(0, 1), (1, 2)]
    assert pairs[2:].tolist() == [[4, 5]] and pairs.dtype == np.int64


def _tuple_union_edges(graphs):
    """``union_edges`` as it was built from each edge set's tuples."""
    n = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    m = np.array([g.num_edges for g in graphs], dtype=np.int64)
    flat = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
    pairs = np.fromiter(flat, dtype=np.int64, count=2 * int(m.sum())).reshape(-1, 2)
    pairs += np.repeat(np.cumsum(n) - n, m)[:, None]
    return n, m, pairs


@pytest.mark.parametrize("graphs", [
    [],
    [make_graph(1, [])],
    [make_graph(2, []), make_graph(3, [])],
    [make_graph(1, []), make_graph(3, [(0, 1), (1, 2)]), make_graph(4, []),
     make_graph(2, [(0, 1)]), make_graph(1, [])],
    synthesize_toy_corpus(40, (4, 16), seed=3),
])
def test_union_edges_equal_the_tuple_iteration(graphs):
    got, want = union_edges(graphs), _tuple_union_edges(graphs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert got[2].shape == (sum(g.num_edges for g in graphs), 2)
    assert got[2].flags.writeable


def test_balanced_cuts_keep_items_whole_and_runs_even():
    costs = np.array([0, 10, 30, 5, 40, 40, 1, 2, 60, 12])
    for budget in (1, 20, 50, 100, 200, 10**6):
        cuts = balanced_cuts(costs, budget)
        assert cuts[0] == 0 and cuts[-1] == costs.shape[0]
        assert (np.diff(cuts) > 0).all()
        runs = np.add.reduceat(costs, cuts[:-1])
        k = -(-int(costs.sum()) // budget)
        assert len(runs) <= max(k, 1)
        # a run exceeds total / k by less than one item
        assert runs.max() < costs.sum() / max(k, 1) + costs.max()
    assert balanced_cuts(costs, 200).tolist() == [0, 10]
    assert balanced_cuts(costs, 100).tolist() == [0, 5, 10]
    assert balanced_cuts(np.zeros(3, dtype=np.int64), 4).tolist() == [0, 3]


class TestEdgeArray:
    def test_holds_the_normalized_pairs_read_only(self):
        g = make_graph(5, [(1, 0), (3, 2), (4, 1)])
        assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (3, 2)
        # the edge set's own iteration order, each pair (low, high)
        assert [tuple(p) for p in g.edge_array.tolist()] == list(g.edges)
        assert not g.edge_array.flags.writeable
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 4
        assert make_graph(3, []).edge_array.shape == (0, 2)

    def test_stays_out_of_equality_hash_and_repr(self):
        g, h = make_graph(3, [(0, 1), (1, 2)]), make_graph(3, [(2, 1), (1, 0)])
        assert g == h and hash(g) == hash(h)
        assert "edge_array" not in repr(g)
        assert [f.name for f in dataclasses.fields(g) if f.compare] == [
            "num_nodes", "edges", "node_labels", "class_label", "dataset_id",
        ]

    def test_replace_rebuilds_it(self):
        g = make_graph(4, [(0, 1)])
        same = dataclasses.replace(g, class_label=1)
        assert np.array_equal(same.edge_array, g.edge_array)
        assert not same.edge_array.flags.writeable
        other = dataclasses.replace(g, edges=frozenset({(3, 2), (0, 2)}))
        assert [tuple(p) for p in other.edge_array.tolist()] == list(other.edges)

    def test_pickle_carries_it(self):
        graphs = synthesize_toy_corpus(6, (4, 16), seed=2) + [make_graph(2, [])]
        for g in graphs:
            loaded = pickle.loads(pickle.dumps(g))
            assert loaded == g and loaded.edges == g.edges
            assert [tuple(p) for p in loaded.edge_array.tolist()] == list(loaded.edges)
            assert loaded.edge_array.dtype == np.int64
            assert not loaded.edge_array.flags.writeable
            assert "edge_array" not in g.__getstate__()


class TestToyCorpus:
    def test_deterministic(self):
        a = synthesize_toy_corpus(200, (6, 12), seed=7)
        b = synthesize_toy_corpus(200, (6, 12), seed=7)
        assert a == b

    def test_mean_degree_gap(self):
        graphs = synthesize_toy_corpus(200, (6, 12), seed=7)
        mean_deg = lambda gs: np.mean([g.degrees().mean() for g in gs])
        d0 = mean_deg([g for g in graphs if g.class_label == 0])
        d1 = mean_deg([g for g in graphs if g.class_label == 1])
        assert d1 - d0 > 1.0

    def test_class0_connected(self):
        for g in synthesize_toy_corpus(60, (6, 12), seed=1):
            if g.class_label != 0:
                continue
            # ring backbone guarantees connectivity
            adj = g.neighbors()
            seen = {0}
            stack = [0]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == g.num_nodes

    def test_balance_and_ranges(self):
        graphs = synthesize_toy_corpus(51, (4, 16), seed=2)
        counts = [sum(1 for g in graphs if g.class_label == c) for c in (0, 1)]
        assert abs(counts[0] - counts[1]) <= 1
        for g in graphs:
            assert 4 <= g.num_nodes <= 16
            assert set(g.node_labels) <= {0, 1, 2}

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            synthesize_toy_corpus(1, (6, 12), seed=0)
        with pytest.raises(ValueError):
            synthesize_toy_corpus(10, (2, 12), seed=0)
        with pytest.raises(ValueError):
            synthesize_toy_corpus(10, (6, 20), seed=0)
