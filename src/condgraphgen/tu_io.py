"""TU text-format dataset ingestion/serialization and per-graph JSON files.

TU layout (all indices 1-based): ``<name>_A.txt`` holds "i, j" edge pairs,
``<name>_graph_indicator.txt`` one graph id per node line,
``<name>_graph_labels.txt`` one label per graph line, and optionally
``<name>_node_labels.txt`` one label per node line. Labels are remapped to
contiguous 0-based vocabularies at load time; the mappings are returned so
callers can persist them.

``atomic_open`` is how the package writes every file of a run directory
that a later command reads: checkpoints, config, dataset splits, samples,
manifests and the report.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, IngestionError, TuFormatError
from .graphs import Graph


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing.  When the block
    ends normally the file is flushed, fsynced and renamed over ``path``;
    when it raises, the temporary file is removed.  Either way ``path``
    holds a complete file: the previous one or the new one."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class TuDataset:
    graphs: list[Graph]
    graph_label_map: dict[str, int]
    node_label_map: dict[str, int]


def _read_lines(path: Path) -> list[tuple[int, str]]:
    """The stripped non-blank lines of a file, each with its line number in
    the file."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestionError(f"missing or unreadable mandatory file: {path}") from exc
    return [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]


def _read_ints(path: Path, what: str) -> tuple[list[int], list[int]]:
    """One integer per non-blank line, and each one's line number in the
    file; anything else raises TuFormatError naming the file and the line."""
    values, lines = [], []
    for lineno, ln in _read_lines(path):
        try:
            values.append(int(ln))
        except ValueError:
            raise TuFormatError(f"non-integer {what} {ln!r} in {path.name}", line=lineno) from None
        lines.append(lineno)
    return values, lines


def load_tu(directory, name: str) -> TuDataset:
    directory = Path(directory)
    a_path = directory / f"{name}_A.txt"
    ind_path = directory / f"{name}_graph_indicator.txt"
    glab_path = directory / f"{name}_graph_labels.txt"
    nlab_path = directory / f"{name}_node_labels.txt"

    # node ids count the indicator's values, not its file lines
    indicator, ind_lines = _read_ints(ind_path, "graph indicator")
    total_nodes = len(indicator)
    if total_nodes == 0:
        raise IngestionError(f"{ind_path} declares no nodes")

    vals, glab_lines = _read_ints(glab_path, "graph label")
    num_graphs = len(vals)
    if num_graphs == 0:
        raise IngestionError(f"{glab_path} declares no graphs")
    for lineno, gid in zip(ind_lines, indicator):
        if not 1 <= gid <= num_graphs:
            raise TuFormatError(
                f"graph indicator {gid} outside [1, {num_graphs}] in {ind_path.name}", line=lineno
            )
    graph_label_map = {str(v): i for i, v in enumerate(sorted(set(vals)))}
    graph_labels = [graph_label_map[str(v)] for v in vals]

    if nlab_path.exists():
        vals, nlab_lines = _read_ints(nlab_path, "node label")
        if len(vals) != total_nodes:
            raise TuFormatError(
                f"{nlab_path.name} has {len(vals)} lines, expected {total_nodes}",
                line=nlab_lines[-1] if nlab_lines else None,
            )
        node_label_map = {str(v): i for i, v in enumerate(sorted(set(vals)))}
        node_labels_global = [node_label_map[str(v)] for v in vals]
    else:
        node_label_map = {"0": 0}
        node_labels_global = [0] * total_nodes

    # group nodes per graph; local index = order of appearance
    nodes_of: list[list[int]] = [[] for _ in range(num_graphs)]
    local_index = {}
    for node_id, gid in enumerate(indicator, start=1):
        local_index[node_id] = len(nodes_of[gid - 1])
        nodes_of[gid - 1].append(node_id)

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    where = f"in {a_path.name}"
    for lineno, ln in _read_lines(a_path):
        parts = ln.replace(",", " ").split()
        if len(parts) != 2:
            raise TuFormatError(f"expected 'i, j' pair, got {ln!r} {where}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TuFormatError(f"non-integer node id in {ln!r} {where}", line=lineno) from None
        if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
            raise TuFormatError(
                f"edge ({u}, {v}) references an undeclared node {where}", line=lineno
            )
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise TuFormatError(f"edge ({u}, {v}) spans graphs {gu} and {gv} {where}", line=lineno)
        if u == v:
            raise TuFormatError(f"self-loop at node {u} {where}", line=lineno)
        lu, lv = local_index[u], local_index[v]
        edge_sets[gu - 1].add((min(lu, lv), max(lu, lv)))

    graphs = []
    for gi in range(num_graphs):
        members = nodes_of[gi]
        if not members:
            raise TuFormatError(f"graph {gi + 1} of {glab_path.name} has no nodes",
                                line=glab_lines[gi])
        graphs.append(
            Graph(
                num_nodes=len(members),
                edges=frozenset(edge_sets[gi]),
                node_labels=tuple(node_labels_global[nid - 1] for nid in members),
                class_label=graph_labels[gi],
                dataset_id=f"{name}-{gi}",
            )
        )
    return TuDataset(graphs=graphs, graph_label_map=graph_label_map, node_label_map=node_label_map)


def save_tu_dataset(directory, name: str, graphs: list[Graph]) -> None:
    """Serialize graphs in TU text format (edges written in both directions)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, nlab_lines, glab_lines = [], [], [], []
    offset = 0
    for gi, g in enumerate(graphs, start=1):
        glab_lines.append(str(g.class_label))
        for lbl in g.node_labels:
            ind_lines.append(str(gi))
            nlab_lines.append(str(lbl))
        directed = sorted(
            [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
        )
        for u, v in directed:
            a_lines.append(f"{u + 1 + offset}, {v + 1 + offset}")
        offset += g.num_nodes
    (directory / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(glab_lines) + "\n")
    (directory / f"{name}_node_labels.txt").write_text("\n".join(nlab_lines) + "\n")


# ---------------------------------------------------------------------------
# JSON graph files (generated-graph output format)


def graph_to_dict(g: Graph) -> dict:
    return {
        "num_nodes": g.num_nodes,
        "edges": [[u, v] for u, v in g.sorted_edges()],
        "node_labels": list(g.node_labels),
        "class_label": g.class_label,
    }


def graph_from_dict(d: dict) -> Graph:
    return Graph(
        num_nodes=int(d["num_nodes"]),
        edges=frozenset((int(u), int(v)) for u, v in d["edges"]),
        node_labels=tuple(int(x) for x in d["node_labels"]),
        class_label=int(d["class_label"]),
    )


def save_graph_json(path, g: Graph) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(graph_to_dict(g), indent=None, sort_keys=True))


def _load_graph_file(path, build):
    """``build`` applied to the parsed JSON of ``path``; malformed JSON or
    graph data raises DataError naming the file."""
    text = Path(path).read_text()
    try:
        return build(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed graph file {path}: {exc}") from exc


def load_graph_json(path) -> Graph:
    return _load_graph_file(path, graph_from_dict)


def save_graph_list(path, graphs: list[Graph]) -> None:
    payload = {"graphs": [graph_to_dict(g) for g in graphs]}
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True))


def load_graph_list(path) -> list[Graph]:
    return _load_graph_file(path, lambda payload: [graph_from_dict(d) for d in payload["graphs"]])
