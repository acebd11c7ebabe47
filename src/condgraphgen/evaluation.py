"""Statistics-based evaluation of generated graphs against a reference set.

Per-graph statistics: size of the largest connected component, triangle
count, characteristic path length, mean degree, and the Gini index of the
degree sequence.  A class-conditional report compares per-class means of a
generated set against a reference set and adds classifier-based accuracy
and AUC.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from . import backend
from .graphs import Graph

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

    @classmethod
    def from_dict(cls, d: dict) -> "GraphStats":
        return cls(**{f: float(d[f]) for f in STAT_FIELDS})


def graph_stats(g: Graph) -> GraphStats:
    """Compute the five per-graph statistics.

    Path length is averaged over unordered node pairs inside the largest
    connected component only, so it stays finite on disconnected graphs.
    """
    n = g.num_nodes
    indptr, indices = backend.csr_from_edges(n, g.sorted_edges())
    labels = backend.components_labels(indptr, indices, n)
    sizes = np.bincount(labels)
    lcc_label = int(np.argmax(sizes))
    lcc_size = int(sizes[lcc_label])

    tc = backend.triangle_count(indptr, indices, n)

    if lcc_size < 2:
        cpl = 0.0
    else:
        members = np.flatnonzero(labels == lcc_label).astype(np.int64)
        pair_total = backend.sp_pair_sum(indptr, indices, members)
        cpl = pair_total / (lcc_size * (lcc_size - 1) / 2)

    mean_d = 2.0 * g.num_edges / n

    deg = np.sort(g.degrees())
    total = int(deg.sum())
    if total == 0:
        gini = 0.0
    else:
        # sum_{i,j} |d_i - d_j| = 2 * sum_k (2k - n + 1) d_(k) on sorted degrees
        k = np.arange(n)
        abs_sum = 2.0 * float(((2 * k - n + 1) * deg).sum())
        gini = abs_sum / (2.0 * n * total)

    return GraphStats(float(lcc_size), float(tc), cpl, mean_d, gini)


def corpus_stats(graphs: Sequence[Graph]) -> list[GraphStats]:
    """Per-graph statistics as an order-preserving parallel map."""
    workers = backend.thread_cap()
    if workers == 1 or len(graphs) < 32:
        return [graph_stats(g) for g in graphs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(graph_stats, graphs))


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


def _bucket_by_class(graphs: Iterable[Graph]) -> dict:
    buckets: dict = {}
    for g in graphs:
        buckets.setdefault(g.class_label, []).append(g)
    return buckets


def stats_diff_table(
    reference: Sequence[Graph],
    generated: Sequence[Graph],
    classes: Optional[Sequence[int]] = None,
) -> dict[int, ClassComparison]:
    """Per-class mean statistics for both sets and elementwise |ref - gen|."""
    ref_buckets = _bucket_by_class(reference)
    gen_buckets = _bucket_by_class(generated)
    if classes is None:
        classes = sorted(set(ref_buckets) | set(gen_buckets))

    table: dict[int, ClassComparison] = {}
    for c in classes:
        ref_mean = mean_stats(corpus_stats(ref_buckets[c])) if c in ref_buckets else None
        gen_mean = mean_stats(corpus_stats(gen_buckets[c])) if c in gen_buckets else None
        if ref_mean is not None and gen_mean is not None:
            diff = GraphStats(
                *(abs(getattr(ref_mean, f) - getattr(gen_mean, f)) for f in STAT_FIELDS)
            )
        else:
            diff = None
        table[c] = ClassComparison(ref_mean, gen_mean, diff)
    return table


def accuracy_per_class(
    generated: Sequence[Graph], clf
) -> dict[int, Optional[float]]:
    """Fraction of graphs stamped with each class that the classifier assigns
    back to that class.  ``clf`` is either a callable Graph -> class index or
    trained graph-classifier parameters.
    """
    if callable(clf):
        predicted = [clf(g) for g in generated]
    else:
        from .classifiers import predict_graph_classes

        predicted = predict_graph_classes(clf, generated)

    hits: dict[int, list[bool]] = {}
    for g, p in zip(generated, predicted):
        hits.setdefault(g.class_label, []).append(bool(p == g.class_label))
    return {c: sum(hits[c]) / len(hits[c]) for c in sorted(hits)}


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
    ranks = rankdata(scores)
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

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        classes: dict[int, ClassComparison] = {}
        accuracy: dict[int, Optional[float]] = {}
        for key, entry in d["classes"].items():
            c = int(key)
            classes[c] = ClassComparison(
                *(
                    GraphStats.from_dict(entry[side]) if entry[side] else None
                    for side in ("reference", "generated", "diff")
                )
            )
            accuracy[c] = entry.get("accuracy")
        return cls(classes, accuracy, d.get("auc"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls.from_dict(json.loads(text))


def build_report(
    reference: Sequence[Graph],
    generated: Sequence[Graph],
    clf=None,
    scores: Optional[Sequence[float]] = None,
    score_labels: Optional[Sequence[int]] = None,
) -> EvalReport:
    table = stats_diff_table(reference, generated)
    accuracy = accuracy_per_class(generated, clf) if clf is not None else {}
    auc_value = auc(scores, score_labels) if scores is not None else None
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
