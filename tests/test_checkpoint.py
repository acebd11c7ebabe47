import fnmatch
import hashlib
import json

import numpy as np
import pytest

from condgraphgen.checkpoint import (
    checkpoint_hash,
    load_checkpoint,
    save_checkpoint,
)
from condgraphgen.classifiers import init_graph_classifier, init_node_classifier
from condgraphgen.errors import DataError
from condgraphgen.generator import GeneratorConfig, init_generator
from condgraphgen.sampling import generate

CONFIG = GeneratorConfig(
    max_nodes=8,
    block_size=2,
    num_classes=2,
    hidden_dim_h=6,
    cond_dim=4,
    mixture_k=3,
    rounds=2,
)


def make_params(tied=True, seed=0):
    cfg = GeneratorConfig(**{**CONFIG.__dict__, "tied_rounds": tied})
    gen = init_generator(cfg, np.random.default_rng(seed))
    clf = init_graph_classifier(3, 2, np.random.default_rng(seed + 1))
    nodeclf = init_node_classifier(cfg.hidden_dim, 3, np.random.default_rng(seed + 2))
    return gen, clf, nodeclf


def test_round_trip_all_sections(tmp_path):
    gen, clf, nodeclf = make_params()
    path = tmp_path / "model.npz"
    save_checkpoint(path, gen, clf, nodeclf)
    ckpt = load_checkpoint(path)
    assert ckpt.generator.config == gen.config
    for original, loaded in (
        (gen, ckpt.generator),
        (clf, ckpt.graph_classifier),
        (nodeclf, ckpt.node_classifier),
    ):
        want, got = original.named_tensors(), loaded.named_tensors()
        assert set(want) == set(got)
        for name in want:
            assert np.array_equal(want[name].value, got[name].value), name
            assert got[name].value.dtype == np.float64


def test_round_trip_preserves_generation(tmp_path):
    gen, clf, nodeclf = make_params()
    path = tmp_path / "model.npz"
    save_checkpoint(path, gen, node_classifier=nodeclf)
    ckpt = load_checkpoint(path)
    before = generate(1, gen, nodeclf, None, np.random.default_rng(3), num_nodes=7)
    after = generate(
        1, ckpt.generator, ckpt.node_classifier, None, np.random.default_rng(3), num_nodes=7
    )
    assert before == after


@pytest.mark.parametrize("tied", [True, False])
def test_round_weight_tying_survives_round_trip(tmp_path, tied):
    gen, _, _ = make_params(tied=tied)
    path = tmp_path / "gen.npz"
    save_checkpoint(path, gen)
    loaded = load_checkpoint(path).generator
    assert loaded.config.tied_rounds is tied
    assert len(loaded.round_weights) == len(gen.round_weights)


def test_partial_archives(tmp_path):
    gen, clf, nodeclf = make_params()
    for kwargs, present in [
        (dict(generator=gen), ("generator",)),
        (dict(graph_classifier=clf), ("graph_classifier",)),
        (dict(generator=gen, node_classifier=nodeclf), ("generator", "node_classifier")),
    ]:
        path = tmp_path / "part.npz"
        save_checkpoint(path, **kwargs)
        ckpt = load_checkpoint(path)
        for field in ("generator", "graph_classifier", "node_classifier"):
            value = getattr(ckpt, field)
            assert (value is not None) == (field in present), field


def test_header_holds_generator_hyperparameters(tmp_path):
    gen, _, _ = make_params()
    path = tmp_path / "gen.npz"
    save_checkpoint(path, gen)
    with np.load(path) as archive:
        header = json.loads(str(archive["__config__"]))
    assert header == {
        "B": 2,
        "N": 8,
        "K": 3,
        "R": 2,
        "hidden_dim_h": 6,
        "cond_dim": 4,
        "m": 2,
    }


def test_classifier_only_header_is_empty(tmp_path):
    _, clf, _ = make_params()
    path = tmp_path / "clf.npz"
    save_checkpoint(path, graph_classifier=clf)
    ckpt = load_checkpoint(path)
    assert ckpt.header == {}
    assert ckpt.graph_classifier.feature_dim == 3
    assert ckpt.graph_classifier.num_classes == 2


def test_save_requires_something():
    with pytest.raises(ValueError):
        save_checkpoint("/tmp/never-written.npz")


def test_save_rejects_mismatched_node_classifier(tmp_path):
    gen, _, _ = make_params()
    bad = init_node_classifier(gen.config.hidden_dim + 1, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="width"):
        save_checkpoint(tmp_path / "bad.npz", gen, node_classifier=bad)


def corrupt_archive(tmp_path, mutate):
    gen, _, _ = make_params()
    path = tmp_path / "gen.npz"
    save_checkpoint(path, gen)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    mutate(payload)
    np.savez(path, **payload)
    return path


def test_missing_header_rejected(tmp_path):
    path = corrupt_archive(tmp_path, lambda p: p.pop("__config__"))
    with pytest.raises(DataError, match="header"):
        load_checkpoint(path)


def test_corrupt_header_rejected(tmp_path):
    def mutate(p):
        p["__config__"] = np.array("{not json")

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match="header"):
        load_checkpoint(path)


def test_missing_array_rejected(tmp_path):
    path = corrupt_archive(tmp_path, lambda p: p.pop("gen/Wh"))
    with pytest.raises(DataError, match="gen/Wh"):
        load_checkpoint(path)


def test_unexpected_array_rejected(tmp_path):
    def mutate(p):
        p["gen/extra"] = np.zeros(3)

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match="gen/extra"):
        load_checkpoint(path)


def test_unknown_section_rejected(tmp_path):
    def mutate(p):
        p["mystery/weight"] = np.zeros(3)

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match="mystery"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    def mutate(p):
        p["gen/bh"] = np.zeros(99)

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "dropped, section",
    [
        ("clf/conv/0/self", "graph-classifier"),
        ("nodeclf/0/weight", "node-classifier"),
        ("clf/head/*/bias", "graph-classifier"),
        ("nodeclf/*/bias", "node-classifier"),
    ],
)
def test_incomplete_classifier_section_names_it(tmp_path, dropped, section):
    """Without the first weight, or without any layer bias, a classifier's
    widths cannot be read."""
    _, clf, nodeclf = make_params()
    path = tmp_path / "clf.npz"
    save_checkpoint(path, graph_classifier=clf, node_classifier=nodeclf)
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files
                   if not fnmatch.fnmatchcase(name, dropped)}
    np.savez(path, **payload)
    with pytest.raises(DataError, match=f"checkpoint {section} section is incomplete"):
        load_checkpoint(path)


def test_classifier_widths_come_from_the_stored_shapes(tmp_path):
    clf = init_graph_classifier(5, 4, np.random.default_rng(3))
    nodeclf = init_node_classifier(7, 6, np.random.default_rng(4))
    path = tmp_path / "clf.npz"
    save_checkpoint(path, graph_classifier=clf, node_classifier=nodeclf)
    ckpt = load_checkpoint(path)
    got_clf, got_node = ckpt.graph_classifier, ckpt.node_classifier
    assert (got_clf.feature_dim, got_clf.num_classes) == (5, 4)
    assert (got_node.input_dim, got_node.num_labels) == (7, 6)
    for want, got in ((clf, got_clf), (nodeclf, got_node)):
        for a, b in zip(want.tensors(), got.tensors()):
            assert np.array_equal(a.value, b.value)


def test_incomplete_header_rejected(tmp_path):
    def mutate(p):
        p["__config__"] = np.array(json.dumps({"B": 2, "N": 8}))

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match="missing generator fields"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("B", 2.9), ("R", 3.7), ("B", True), ("R", "3")])
def test_header_value_that_is_not_an_integer_rejected(tmp_path, key, value):
    """No array shape depends on B or R, so the header check is all that
    stops a truncated or coerced value from loading."""
    def mutate(p):
        header = json.loads(str(p["__config__"]))
        p["__config__"] = np.array(json.dumps({**header, key: value}))

    path = corrupt_archive(tmp_path, mutate)
    with pytest.raises(DataError, match=f"header field {key} must be an integer"):
        load_checkpoint(path)


def test_non_archive_file_rejected(tmp_path):
    path = tmp_path / "not-an-archive.npz"
    path.write_text("plain text")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_hash_matches_file_bytes(tmp_path):
    gen, _, _ = make_params()
    path = tmp_path / "gen.npz"
    save_checkpoint(path, gen)
    assert checkpoint_hash(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_identical_saves_are_byte_identical(tmp_path):
    gen, _, nodeclf = make_params()
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(first, gen, node_classifier=nodeclf)
    save_checkpoint(second, gen, node_classifier=nodeclf)
    assert checkpoint_hash(first) == checkpoint_hash(second)


def test_interrupted_save_keeps_previous_archive(tmp_path, monkeypatch):
    gen, _, _ = make_params()
    path = tmp_path / "gen.npz"
    save_checkpoint(path, gen)
    before = path.read_bytes()

    def failing_savez(file, **arrays):
        file.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    other, _, _ = make_params(seed=5)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, other)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == ["gen.npz"]
    assert path.read_bytes() == before
    loaded = load_checkpoint(path).generator.named_tensors()
    for name, tensor in gen.named_tensors().items():
        assert np.array_equal(loaded[name].value, tensor.value), name
