"""Single-archive persistence for generator and classifier parameters.

One ``.npz`` archive holds canonically named 64-bit float arrays (see each
params class's ``named_tensors``) plus a JSON header under ``__config__``
with the generator hyperparameters {B, N, K, R, hidden_dim_h, cond_dim, m}.
Classifier parameters share the archive under the ``clf/`` and ``nodeclf/``
namespaces; their layer widths are recovered from the stored array shapes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classifiers import (
    GraphClassifierParams,
    NodeClassifierParams,
    init_graph_classifier,
    init_node_classifier,
)
from .errors import DataError
from .generator import GeneratorConfig, GeneratorParams, init_generator
from .tu_io import atomic_open

_HEADER_KEY = "__config__"
# each generator header key and the GeneratorConfig field it stores; the
# header leaves out tied_rounds, which the stored round arrays show
_GEN_HEADER = (
    ("B", "block_size"),
    ("N", "max_nodes"),
    ("K", "mixture_k"),
    ("R", "rounds"),
    ("hidden_dim_h", "hidden_dim_h"),
    ("cond_dim", "cond_dim"),
    ("m", "num_classes"),
)


@dataclass
class Checkpoint:
    """Deserialized archive contents; absent sections are None."""

    generator: Optional[GeneratorParams]
    graph_classifier: Optional[GraphClassifierParams]
    node_classifier: Optional[NodeClassifierParams]
    header: dict


def save_checkpoint(
    path,
    generator: Optional[GeneratorParams] = None,
    graph_classifier: Optional[GraphClassifierParams] = None,
    node_classifier: Optional[NodeClassifierParams] = None,
) -> None:
    """Write the given parameter sets to one archive at exactly ``path``.

    The archive is written to a temporary file next to ``path`` and renamed
    over it, so an interrupted save leaves the previous archive intact.
    """
    if generator is None and graph_classifier is None and node_classifier is None:
        raise ValueError("nothing to save")
    header: dict = {}
    arrays: dict[str, np.ndarray] = {}
    if generator is not None:
        header.update({key: getattr(generator.config, name) for key, name in _GEN_HEADER})
        arrays.update(generator.named_tensors())
    if graph_classifier is not None:
        arrays.update(graph_classifier.named_tensors())
    if node_classifier is not None:
        if generator is not None and node_classifier.input_dim != generator.config.hidden_dim:
            raise ValueError(
                "node classifier input width does not match the generator's state width"
            )
        arrays.update(node_classifier.named_tensors())
    payload = {
        name: np.ascontiguousarray(t.value, dtype=np.float64)
        for name, t in arrays.items()
    }
    payload[_HEADER_KEY] = np.array(json.dumps(header, sort_keys=True))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **payload)


def _load_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with np.load(path, allow_pickle=False) as archive:
            raw = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if _HEADER_KEY not in raw:
        raise DataError(f"checkpoint {path} has no config header")
    try:
        header = json.loads(str(raw.pop(_HEADER_KEY)))
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} has a corrupt config header") from exc
    if not isinstance(header, dict):
        raise DataError(f"checkpoint {path} header must be a JSON object")
    return header, raw


def _assign(template: dict, arrays: dict[str, np.ndarray], section: str) -> None:
    stored = {name for name in arrays if name.startswith(section + "/")}
    missing = sorted(set(template) - stored)
    extra = sorted(stored - set(template))
    if missing or extra:
        raise DataError(
            f"checkpoint section {section!r} does not match the declared shape: "
            f"missing {missing}, unexpected {extra}"
        )
    for name, tensor in template.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != tensor.value.shape:
            raise DataError(
                f"checkpoint array {name!r} has shape {arr.shape}, "
                f"expected {tensor.value.shape}"
            )
        tensor.value = arr.copy()


def _rebuild_generator(header: dict, arrays: dict[str, np.ndarray]) -> GeneratorParams:
    missing = [key for key, _ in _GEN_HEADER if key not in header]
    if missing:
        raise DataError(f"checkpoint header is missing generator fields {missing}")
    for key, _ in _GEN_HEADER:
        if not isinstance(header[key], int) or isinstance(header[key], bool):
            raise DataError(f"checkpoint header field {key} must be an integer")
    tied = not any(name.startswith("gen/round/1/") for name in arrays)
    try:
        config = GeneratorConfig(
            **{name: header[key] for key, name in _GEN_HEADER}, tied_rounds=tied
        )
    except (ValueError, TypeError) as exc:
        raise DataError(f"checkpoint header is not a valid configuration: {exc}") from exc
    params = init_generator(config, np.random.default_rng(0))
    _assign(params.named_tensors(), arrays, "gen")
    return params


# per classifier section: its builder, the weight whose rows give the input
# width, the prefix of its numbered layers and its name in errors
_CLASSIFIERS = {
    "clf": (init_graph_classifier, "clf/conv/0/self", "clf/head/", "graph-classifier"),
    "nodeclf": (init_node_classifier, "nodeclf/0/weight", "nodeclf/", "node-classifier"),
}


def _rebuild_classifier(arrays: dict[str, np.ndarray], section: str):
    """A classifier section built at the input width of its first weight
    and the output width of its highest-numbered layer's bias."""
    init, first, layers, what = _CLASSIFIERS[section]
    try:
        in_dim = int(arrays[first].shape[0])
        last_bias = max(
            (name for name in arrays if name.startswith(layers) and name.endswith("/bias")),
            key=lambda name: int(name[len(layers):].split("/")[0]),
        )
        out_dim = int(arrays[last_bias].shape[0])
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint {what} section is incomplete") from exc
    params = init(in_dim, out_dim, np.random.default_rng(0))
    _assign(params.named_tensors(), arrays, section)
    return params


def load_checkpoint(path) -> Checkpoint:
    """Read an archive back into parameter objects, validating names, shapes,
    and the config header."""
    header, arrays = _load_arrays(path)
    sections = {name.split("/", 1)[0] for name in arrays}
    unknown = sections - {"gen", "clf", "nodeclf"}
    if unknown:
        raise DataError(f"checkpoint contains unknown sections {sorted(unknown)}")
    generator = _rebuild_generator(header, arrays) if "gen" in sections else None
    graph_classifier, node_classifier = (
        _rebuild_classifier(arrays, section) if section in sections else None
        for section in ("clf", "nodeclf")
    )
    if generator is None and graph_classifier is None and node_classifier is None:
        raise DataError(f"checkpoint {path} holds no parameters")
    return Checkpoint(generator, graph_classifier, node_classifier, header)


def checkpoint_hash(path) -> str:
    """Hex SHA-256 of the archive bytes, for sample-batch manifests."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
