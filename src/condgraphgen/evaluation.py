"""Statistics-based evaluation of generated graphs against a reference set.

Per-graph statistics: size of the largest connected component, triangle
count, characteristic path length, mean degree, and the Gini index of the
degree sequence.  A class-conditional report compares per-class means of a
generated set against a reference set and adds classifier-based accuracy
and AUC.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Optional, Sequence

import numpy as np

from . import backend
from .classifiers import GraphClassifierParams, class_distributions
from .graphs import Graph, balanced_cuts, union_edges

STAT_FIELDS = ("lcc", "tc", "cpl", "mean_d", "gini")
_STAT_HEADERS = ("LCC", "TC", "CPL", "MeanD", "GINI")


@dataclass(frozen=True)
class GraphStats:
    """Per-graph statistics; also used for per-class means, hence floats."""

    lcc: float
    tc: float
    cpl: float
    mean_d: float
    gini: float

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in STAT_FIELDS}


# (Directed edges + nodes) x bitset words per chunk's union (see
# ``_chunks``): a chunk holds at most this many words plus one graph's, so
# each of the search's arrays takes about 512 KB whatever the corpus size.
# Larger chunks were no faster on NCI1-shaped or dense 111-node corpora.
CHUNK_WORDS = 1 << 16


def graph_stats(g: Graph) -> GraphStats:
    """The five statistics of one graph; see ``corpus_stats``."""
    return corpus_stats([g])[0]


def corpus_stats(graphs: Sequence[Graph]) -> list[GraphStats]:
    """Per-graph statistics, in input order.

    Path length is averaged over unordered node pairs inside the largest
    connected component only, so it stays finite on disconnected graphs;
    among tied largest components the one holding the lowest node id counts.

    The graphs are sorted by node count and cut into chunks of one bitset
    width under ``CHUNK_WORDS`` (see ``_chunks``); each chunk is one
    block-diagonal union and one multi-source search
    (``backend.sp_pair_sum``).
    """
    out = np.zeros((len(graphs), len(STAT_FIELDS)))
    for chunk in _chunks(graphs):
        out[chunk] = _union_stats([graphs[i] for i in chunk])
    return [GraphStats(*row) for row in out.tolist()]


def _words(num_nodes: int) -> int:
    return -(-num_nodes // 64)


def _chunks(graphs: Sequence[Graph]) -> Iterator[list[int]]:
    """Input positions of size-sorted graphs, one bitset width per chunk.
    Each width's graphs are cut by their (directed edges + nodes) × words
    into k = ceil(total / ``CHUNK_WORDS``) chunks (``graphs.balanced_cuts``),
    each of about total / k words and above that by less than one graph."""
    order = sorted(range(len(graphs)), key=lambda i: graphs[i].num_nodes)
    for words, group in groupby(order, key=lambda i: _words(graphs[i].num_nodes)):
        group = list(group)
        cost = [(2 * graphs[i].num_edges + graphs[i].num_nodes) * words for i in group]
        cuts = balanced_cuts(np.array(cost, dtype=np.int64), CHUNK_WORDS)
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield group[a:b]


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values[bounds[k]:bounds[k + 1]]``; empty segments give 0."""
    cum = np.concatenate(([0], np.cumsum(values)))
    return cum[bounds[1:]] - cum[bounds[:-1]]


def _union_stats(graphs: Sequence[Graph]) -> np.ndarray:
    """Statistics of graphs of one bitset width, one row per graph, from one
    search over their union."""
    n, m, pairs = union_edges(graphs)
    node_bounds = np.concatenate(([0], np.cumsum(n)))
    indptr, indices = backend.csr_from_edges(int(node_bounds[-1]), pairs)

    graph_of = np.repeat(np.arange(len(graphs)), n)
    local = np.arange(node_bounds[-1]) - node_bounds[:-1][graph_of]
    dist_sum, reach, neighbours = backend.sp_pair_sum(
        indptr, indices, local, _words(int(n.max()))
    )
    labels, comp_size = backend.components_labels(reach)
    common = backend.triangle_count(indptr, indices, neighbours)
    tc = _segment_sums(common, indptr[node_bounds]) // 6

    # per graph, a node of the largest component; among tied components
    # the one with the lowest label
    best = np.lexsort((labels, -comp_size, graph_of))[node_bounds[:-1]]
    lcc, lcc_label = comp_size[best], labels[best]
    in_lcc = labels == lcc_label[graph_of]
    pair_total = _segment_sums(np.where(in_lcc, dist_sum, 0), node_bounds) // 2
    cpl = np.divide(pair_total, lcc * (lcc - 1) / 2, out=np.zeros(len(graphs)), where=lcc >= 2)

    mean_d = 2.0 * m / n

    # sum_{i,j} |d_i - d_j| = 2 * sum_k (2k - n + 1) d_(k) on sorted degrees
    deg = np.diff(indptr)
    sorted_deg = deg[np.lexsort((deg, graph_of))]
    weighted = _segment_sums((2 * local - n[graph_of] + 1) * sorted_deg, node_bounds)
    total = 2 * m
    gini = np.divide(2.0 * weighted, 2.0 * n * total, out=np.zeros(len(graphs)), where=total > 0)

    return np.stack([lcc, tc, cpl, mean_d, gini], axis=1)


def mean_stats(stats: Sequence[GraphStats]) -> GraphStats:
    if not stats:
        raise ValueError("mean_stats needs at least one GraphStats")
    return GraphStats(
        *(float(np.mean([getattr(s, f) for s in stats])) for f in STAT_FIELDS)
    )


@dataclass(frozen=True)
class ClassComparison:
    """Per-class reference/generated means and their absolute differences.

    A side with no graphs for the class is reported as None, never as zeros.
    """

    reference: Optional[GraphStats]
    generated: Optional[GraphStats]
    diff: Optional[GraphStats]


def _class_means(graphs: Sequence[Graph]) -> dict[int, GraphStats]:
    """Mean statistics per class label, from one ``corpus_stats`` call."""
    buckets: dict = {}
    for g, s in zip(graphs, corpus_stats(graphs)):
        buckets.setdefault(g.class_label, []).append(s)
    return {c: mean_stats(stats) for c, stats in buckets.items()}


def stats_diff_table(
    reference: Sequence[Graph], generated: Sequence[Graph]
) -> dict[int, ClassComparison]:
    """Per-class mean statistics for both sets and elementwise |ref - gen|,
    for every class either set holds."""
    ref_means = _class_means(reference)
    gen_means = _class_means(generated)
    table: dict[int, ClassComparison] = {}
    for c in sorted(set(ref_means) | set(gen_means)):
        ref_mean, gen_mean = ref_means.get(c), gen_means.get(c)
        if ref_mean is not None and gen_mean is not None:
            diff = GraphStats(
                *(abs(getattr(ref_mean, f) - getattr(gen_mean, f)) for f in STAT_FIELDS)
            )
        else:
            diff = None
        table[c] = ClassComparison(ref_mean, gen_mean, diff)
    return table


def accuracy_per_class(
    generated: Sequence[Graph], predicted: Sequence[int]
) -> dict[int, Optional[float]]:
    """Fraction of graphs stamped with each class that the classifier assigns
    back to that class; ``predicted`` holds each graph's predicted class, in
    order.
    """
    hits: dict[int, list[bool]] = {}
    for g, p in zip(generated, predicted):
        hits.setdefault(g.class_label, []).append(bool(p == g.class_label))
    return {c: sum(hits[c]) / len(hits[c]) for c in sorted(hits)}


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return ((2 * np.cumsum(counts) - counts + 1) / 2)[inverse]


def auc(scores: Sequence[float], labels: Sequence[int]) -> Optional[float]:
    """Rank-based AUC of class-1 scores; ties count half.

    Returns None when only one label value is present (undefined).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d and the same length")
    pos = labels == 1
    n1 = int(pos.sum())
    n0 = labels.shape[0] - n1
    if n1 == 0 or n0 == 0:
        return None
    ranks = average_ranks(scores)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


@dataclass(frozen=True)
class EvalReport:
    """Comparison table plus classifier-based metrics, JSON-serializable."""

    classes: dict[int, ClassComparison]
    accuracy: dict[int, Optional[float]]
    auc: Optional[float]

    def to_dict(self) -> dict:
        out: dict = {"classes": {}, "auc": self.auc}
        for c, comp in sorted(self.classes.items()):
            entry = {
                side: (getattr(comp, side).as_dict() if getattr(comp, side) else None)
                for side in ("reference", "generated", "diff")
            }
            entry["accuracy"] = self.accuracy.get(c)
            out["classes"][str(c)] = entry
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_report(
    reference: Sequence[Graph],
    generated: Sequence[Graph],
    clf: Optional[GraphClassifierParams] = None,
) -> EvalReport:
    """The statistics table of both sets and, given graph-classifier
    parameters ``clf``, the classifier metrics of the generated set from
    one ``class_distributions`` read-out: per-class accuracy of its argmax
    and, for two classes, the AUC of its class-1 column."""
    table = stats_diff_table(reference, generated)
    if clf is None:
        return EvalReport(table, {}, None)
    distributions = class_distributions(clf, generated)
    accuracy = accuracy_per_class(generated, distributions.argmax(axis=1))
    auc_value = None
    if clf.num_classes == 2:
        auc_value = auc(distributions[:, 1], [g.class_label for g in generated])
    return EvalReport(table, accuracy, auc_value)


def render_table(report: EvalReport) -> str:
    """Aligned text table: one block per class with real/generated/diff rows."""
    col = 9
    lines = []
    header = "class  row        " + "".join(h.rjust(col) for h in _STAT_HEADERS)
    lines.append(header)
    for c, comp in sorted(report.classes.items()):
        for row_name, stats in (
            ("real", comp.reference),
            ("generated", comp.generated),
            ("diff", comp.diff),
        ):
            cells = (
                "".join(f"{getattr(stats, f):{col}.3f}" for f in STAT_FIELDS)
                if stats is not None
                else "  missing".rjust(col * len(STAT_FIELDS))
            )
            lines.append(f"{c!s:<6} {row_name:<10}" + cells)
        acc = report.accuracy.get(c)
        if acc is not None:
            lines.append(f"{c!s:<6} {'accuracy':<10}" + f"{acc:{col}.3f}")
    if report.auc is not None:
        lines.append(f"AUC: {report.auc:.3f}")
    return "\n".join(lines)
