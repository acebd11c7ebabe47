import numpy as np
import pytest
from helpers import reconstructed_edges
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraphgen.errors import CapacityError
from condgraphgen.graphs import (
    Graph,
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
