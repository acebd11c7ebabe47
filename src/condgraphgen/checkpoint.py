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
import os
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

_HEADER_KEY = "__config__"
_GEN_HEADER_FIELDS = ("B", "N", "K", "R", "hidden_dim_h", "cond_dim", "m")


@dataclass
class Checkpoint:
    """Deserialized archive contents; absent sections are None."""

    generator: Optional[GeneratorParams]
    graph_classifier: Optional[GraphClassifierParams]
    node_classifier: Optional[NodeClassifierParams]
    header: dict


def _generator_header(config: GeneratorConfig) -> dict:
    return {
        "B": config.block_size,
        "N": config.max_nodes,
        "K": config.mixture_k,
        "R": config.rounds,
        "hidden_dim_h": config.hidden_dim_h,
        "cond_dim": config.cond_dim,
        "m": config.num_classes,
    }


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
        header.update(_generator_header(generator.config))
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
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    missing = [k for k in _GEN_HEADER_FIELDS if k not in header]
    if missing:
        raise DataError(f"checkpoint header is missing generator fields {missing}")
    tied = not any(name.startswith("gen/round/1/") for name in arrays)
    try:
        config = GeneratorConfig(
            max_nodes=int(header["N"]),
            block_size=int(header["B"]),
            num_classes=int(header["m"]),
            hidden_dim_h=int(header["hidden_dim_h"]),
            cond_dim=int(header["cond_dim"]),
            mixture_k=int(header["K"]),
            rounds=int(header["R"]),
            tied_rounds=tied,
        )
    except (ValueError, TypeError) as exc:
        raise DataError(f"checkpoint header is not a valid configuration: {exc}") from exc
    params = init_generator(config, np.random.default_rng(0))
    _assign(params.named_tensors(), arrays, "gen")
    return params


def _rebuild_graph_classifier(arrays: dict[str, np.ndarray]) -> GraphClassifierParams:
    try:
        feature_dim = int(arrays["clf/conv/0/self"].shape[0])
        last_bias = max(
            (name for name in arrays if name.startswith("clf/head/") and name.endswith("/bias")),
            key=lambda name: int(name.split("/")[2]),
        )
        num_classes = int(arrays[last_bias].shape[0])
    except (KeyError, ValueError) as exc:
        raise DataError("checkpoint graph-classifier section is incomplete") from exc
    params = init_graph_classifier(feature_dim, num_classes, np.random.default_rng(0))
    _assign(params.named_tensors(), arrays, "clf")
    return params


def _rebuild_node_classifier(arrays: dict[str, np.ndarray]) -> NodeClassifierParams:
    try:
        input_dim = int(arrays["nodeclf/0/weight"].shape[0])
        last_bias = max(
            (name for name in arrays if name.startswith("nodeclf/") and name.endswith("/bias")),
            key=lambda name: int(name.split("/")[1]),
        )
        num_labels = int(arrays[last_bias].shape[0])
    except (KeyError, ValueError) as exc:
        raise DataError("checkpoint node-classifier section is incomplete") from exc
    params = init_node_classifier(input_dim, num_labels, np.random.default_rng(0))
    _assign(params.named_tensors(), arrays, "nodeclf")
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
    graph_classifier = (
        _rebuild_graph_classifier(arrays) if "clf" in sections else None
    )
    node_classifier = (
        _rebuild_node_classifier(arrays) if "nodeclf" in sections else None
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
