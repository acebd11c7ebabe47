"""Dataset splits, per-class node-count histograms, and run manifests."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, DataError, DependencyError
from .graphs import Graph
from . import tu_io

SPLIT_NAMES = ("train", "validation", "test")


@dataclass
class DatasetSplit:
    train: list[Graph]
    validation: list[Graph]
    test: list[Graph]

    def __post_init__(self):
        classes = {g.class_label for g in self.train + self.validation + self.test}
        missing = classes - {g.class_label for g in self.train}
        if missing:
            raise ValueError(f"classes {sorted(missing)} absent from the train split")

    def split(self, name: str) -> list[Graph]:
        return getattr(self, name)

    def node_count_histogram(self, name: str) -> dict[int, dict[int, int]]:
        """Per-class histogram {class: {num_nodes: count}} for one split."""
        hist: dict[int, dict[int, int]] = {}
        for g in self.split(name):
            hist.setdefault(g.class_label, {})
            hist[g.class_label][g.num_nodes] = hist[g.class_label].get(g.num_nodes, 0) + 1
        return hist


def stratified_split(graphs: list[Graph], seed: int) -> DatasetSplit:
    """Seeded per-class 80/10/10 split; every class keeps at least one
    training graph."""
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[Graph]] = {}
    for g in graphs:
        by_class.setdefault(g.class_label, []).append(g)
    parts: dict[str, list[Graph]] = {name: [] for name in SPLIT_NAMES}
    for cls in sorted(by_class):
        members = by_class[cls]
        order = rng.permutation(len(members))
        n = len(members)
        n_train = max(1, int(round(0.8 * n)))
        n_val = int(round(0.1 * n))
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        for k, idx in enumerate(order):
            if k < n_train:
                parts["train"].append(members[idx])
            elif k < n_train + n_val:
                parts["validation"].append(members[idx])
            else:
                parts["test"].append(members[idx])
    return DatasetSplit(parts["train"], parts["validation"], parts["test"])


def build_manifest(
    split: DatasetSplit,
    source: str,
    seed: int,
    graph_label_map: dict[str, int] | None = None,
    node_label_map: dict[str, int] | None = None,
    max_nodes: int | None = None,
) -> dict:
    all_graphs = split.train + split.validation + split.test
    classes = sorted({g.class_label for g in all_graphs})
    num_node_labels = max(max(g.node_labels) for g in all_graphs) + 1
    observed_max = max(g.num_nodes for g in all_graphs)
    if max_nodes is None:
        max_nodes = observed_max
    elif observed_max > max_nodes:
        raise CapacityError(
            f"dataset contains a {observed_max}-node graph, above capacity N={max_nodes}"
        )
    return {
        "source": source,
        "seed": seed,
        "num_classes": len(classes),
        "classes": classes,
        "num_node_labels": int(num_node_labels),
        "max_nodes": int(max_nodes),
        "class_counts": {
            name: {str(c): sum(1 for g in split.split(name) if g.class_label == c) for c in classes}
            for name in SPLIT_NAMES
        },
        "node_count_histograms": {
            name: {
                str(c): {str(k): v for k, v in sorted(hist.items())}
                for c, hist in sorted(split.node_count_histogram(name).items())
            }
            for name in SPLIT_NAMES
        },
        "graph_label_map": graph_label_map,
        "node_label_map": node_label_map,
        "splits": {name: f"splits/{name}.json" for name in SPLIT_NAMES},
    }


def write_run_dataset(run_dir, split: DatasetSplit, manifest: dict) -> None:
    run_dir = Path(run_dir)
    (run_dir / "splits").mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        tu_io.save_graph_list(run_dir / manifest["splits"][name], split.split(name))
    with tu_io.atomic_open(run_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


# the manifest keys the commands read, with the split names each one holds
_MANIFEST_KEYS = {"num_node_labels": (), "splits": SPLIT_NAMES, "node_count_histograms": SPLIT_NAMES}


def read_manifest(run_dir) -> dict:
    """A run's manifest.json, checked for every key the commands read;
    a missing key raises DataError naming it."""
    path = Path(run_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise DependencyError(
            f"no dataset manifest at {path}; run the ingest command first"
        ) from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    for key, names in _MANIFEST_KEYS.items():
        if key not in manifest:
            raise DataError(f"manifest {path} lacks the key {key!r}")
        for name in names:
            if not isinstance(manifest[key], dict) or name not in manifest[key]:
                raise DataError(f"manifest {path} lacks the key {key!r}/{name!r}")
    return manifest


def load_run_dataset(run_dir) -> tuple[DatasetSplit, dict]:
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    parts = {
        name: tu_io.load_graph_list(run_dir / manifest["splits"][name])
        for name in SPLIT_NAMES
    }
    return DatasetSplit(parts["train"], parts["validation"], parts["test"]), manifest


def histogram_from_manifest(manifest: dict, split_name: str = "train") -> dict[int, dict[int, int]]:
    raw = manifest["node_count_histograms"][split_name]
    return {int(c): {int(k): int(v) for k, v in h.items()} for c, h in raw.items()}
