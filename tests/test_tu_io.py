import pytest

from condgraphgen.errors import IngestionError, TuFormatError
from condgraphgen.graphs import Graph, synthesize_toy_corpus
from condgraphgen import tu_io


def write_tu(tmp_path, name, a, indicator, glabels, nlabels=None):
    (tmp_path / f"{name}_A.txt").write_text(a)
    (tmp_path / f"{name}_graph_indicator.txt").write_text(indicator)
    (tmp_path / f"{name}_graph_labels.txt").write_text(glabels)
    if nlabels is not None:
        (tmp_path / f"{name}_node_labels.txt").write_text(nlabels)


def test_smallest_well_formed_input(tmp_path):
    write_tu(tmp_path, "tiny", "1, 2\n2, 1\n", "1\n1\n", "1\n")
    graphs = tu_io.load_tu(tmp_path, "tiny").graphs
    assert len(graphs) == 1
    g = graphs[0]
    assert g.num_nodes == 2 and g.edges == frozenset({(0, 1)})
    assert g.node_labels == (0, 0)  # no node-label file -> all zeros


def test_two_graphs_with_labels(tmp_path):
    write_tu(
        tmp_path,
        "two",
        "1, 2\n2, 1\n3, 4\n4, 3\n4, 5\n5, 4\n",
        "1\n1\n2\n2\n2\n",
        "-1\n1\n",
        "7\n7\n9\n7\n9\n",
    )
    ds = tu_io.load_tu(tmp_path, "two")
    assert [g.class_label for g in ds.graphs] == [0, 1]
    assert ds.graph_label_map == {"-1": 0, "1": 1}
    assert ds.node_label_map == {"7": 0, "9": 1}
    assert ds.graphs[1].node_labels == (1, 0, 1)
    assert ds.graphs[1].edges == frozenset({(0, 1), (1, 2)})


def test_missing_mandatory_file_names_it(tmp_path):
    write_tu(tmp_path, "x", "1, 2\n", "1\n1\n", "0\n")
    (tmp_path / "x_A.txt").unlink()
    with pytest.raises(IngestionError, match="x_A.txt"):
        tu_io.load_tu(tmp_path, "x")


def test_cross_graph_edge_reports_line(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n2, 3\n", "1\n1\n2\n", "0\n0\n")
    with pytest.raises(TuFormatError, match="line 2"):
        tu_io.load_tu(tmp_path, "bad")


def test_undeclared_node_reports_line(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n1, 9\n", "1\n1\n", "0\n")
    with pytest.raises(TuFormatError, match="line 2"):
        tu_io.load_tu(tmp_path, "bad")


def test_malformed_pair_reports_line(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n1 2 3\n", "1\n1\n", "0\n")
    with pytest.raises(TuFormatError, match="line 2"):
        tu_io.load_tu(tmp_path, "bad")


def test_tu_round_trip(tmp_path):
    graphs = synthesize_toy_corpus(20, (4, 9), seed=5)
    tu_io.save_tu_dataset(tmp_path, "toy", graphs)
    reloaded = tu_io.load_tu(tmp_path, "toy").graphs
    assert len(reloaded) == len(graphs)
    for a, b in zip(graphs, reloaded):
        assert a.num_nodes == b.num_nodes
        assert a.edges == b.edges
        assert a.node_labels == b.node_labels
        assert a.class_label == b.class_label


def test_graph_json_round_trip(tmp_path):
    g = Graph(
        num_nodes=4,
        edges=frozenset({(0, 1), (2, 3), (0, 3)}),
        node_labels=(0, 1, 2, 1),
        class_label=1,
    )
    path = tmp_path / "g.json"
    tu_io.save_graph_json(path, g)
    loaded = tu_io.load_graph_json(path)
    assert loaded.edges == g.edges
    assert loaded.node_labels == g.node_labels
    assert loaded.class_label == g.class_label


def test_graph_list_round_trip(tmp_path):
    graphs = synthesize_toy_corpus(8, (4, 8), seed=3)
    path = tmp_path / "graphs.json"
    tu_io.save_graph_list(path, graphs)
    reloaded = tu_io.load_graph_list(path)
    assert [g.edges for g in reloaded] == [g.edges for g in graphs]


@pytest.mark.parametrize(
    "field, suffix, files",
    [
        ("node label", "node_labels", ("1, 2\n", "1\n1\n", "0\n", "3\nC\n")),
        ("graph label", "graph_labels", ("1, 2\n", "1\n1\n2\n", "0\nx\n")),
        ("graph indicator", "graph_indicator", ("1, 2\n", "1\none\n", "0\n")),
    ],
)
def test_non_integer_value_names_file_and_line(tmp_path, field, suffix, files):
    write_tu(tmp_path, "bad", *files)
    where = rf"in bad_{suffix}.txt \(line 2\)"
    with pytest.raises(TuFormatError, match=rf"non-integer {field} .* {where}"):
        tu_io.load_tu(tmp_path, "bad")


def test_out_of_range_indicator_reports_its_first_line(tmp_path):
    write_tu(tmp_path, "bad", "1, 3\n", "1\n0\n1\n5\n", "0\n")
    with pytest.raises(TuFormatError, match=r"indicator 0 outside \[1, 1\] .*\(line 2\)"):
        tu_io.load_tu(tmp_path, "bad")


def test_edge_error_reports_the_file_line_past_blank_lines(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n2, 1\n\n2, x\n", "1\n1\n", "0\n")
    with pytest.raises(TuFormatError, match=r"in bad_A.txt \(line 4\)"):
        tu_io.load_tu(tmp_path, "bad")


def test_indicator_error_reports_the_file_line_past_blank_lines(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n", "\n1\nq\n", "0\n")
    with pytest.raises(TuFormatError, match=r"in bad_graph_indicator.txt \(line 3\)"):
        tu_io.load_tu(tmp_path, "bad")


def test_node_ids_count_non_blank_indicator_lines(tmp_path):
    write_tu(tmp_path, "gaps", "2, 3\n3, 2\n", "\n1\n\n2\n2\n", "0\n\n1\n", "\n5\n6\n\n7\n")
    graphs = tu_io.load_tu(tmp_path, "gaps").graphs
    assert [g.num_nodes for g in graphs] == [1, 2]
    assert graphs[0].edges == frozenset() and graphs[1].edges == frozenset({(0, 1)})
    assert graphs[1].node_labels == (1, 2) and graphs[1].class_label == 1


@pytest.mark.parametrize(
    "edge, problem",
    [
        ("1 2 3", "expected 'i, j' pair"),
        ("1, y", "non-integer node id"),
        ("1, 9", "undeclared node"),
        ("1, 3", "spans graphs 1 and 2"),
        ("2, 2", "self-loop at node 2"),
    ],
)
def test_every_edge_error_names_the_edge_file(tmp_path, edge, problem):
    write_tu(tmp_path, "bad", f"1, 2\n\n{edge}\n", "1\n1\n2\n", "0\n1\n")
    with pytest.raises(TuFormatError, match=rf"{problem}.* in bad_A.txt \(line 3\)"):
        tu_io.load_tu(tmp_path, "bad")


def test_graph_without_nodes_reports_its_label_line(tmp_path):
    write_tu(tmp_path, "bad", "1, 2\n", "1\n1\n", "0\n\n1\n")
    with pytest.raises(TuFormatError, match=r"graph 2 of bad_graph_labels.txt .*\(line 3\)"):
        tu_io.load_tu(tmp_path, "bad")
