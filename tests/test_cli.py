import hashlib
import json

import numpy as np
import pytest

from condgraphgen.cli import main
from condgraphgen.training import load_train_config

FAST_CONFIG = {
    "block_size": 2,
    "max_nodes": 12,
    "mixture_k": 2,
    "rounds": 1,
    "hidden_dim_h": 8,
    "cond_dim": 4,
    "epochs": 2,
    "batch_size": 8,
    "seed": 1,
    "lr": 3e-3,
}


def write_config(tmp_path, **overrides):
    path = tmp_path / "train-config.json"
    path.write_text(json.dumps({**FAST_CONFIG, **overrides}))
    return str(path)


def file_digests(root, pattern):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.glob(pattern))
    }


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A run directory taken through ingest -> classifiers -> train."""
    run = tmp_path_factory.mktemp("run")
    config = write_config(run)
    assert main(["ingest", "--toy", "30", "--out", str(run), "--seed", "7"]) == 0
    assert main(["train-classifier", "--out", str(run)]) == 0
    assert main(["train", "--out", str(run), "--config", config]) == 0
    return run


def test_ingest_writes_manifest_and_splits(tmp_path):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run), "--seed", "3"]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["num_classes"] == 2
    assert manifest["source"] == "toy:20"
    for name in ("train", "validation", "test"):
        assert (run / manifest["splits"][name]).is_file()
    counts = manifest["class_counts"]["train"]
    assert counts["0"] == counts["1"] == 8


def test_ingest_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["ingest", "--toy", "20", "--out", str(tmp_path / sub), "--seed", "3"]) == 0
    assert file_digests(tmp_path / "a", "**/*.json") == file_digests(tmp_path / "b", "**/*.json")


def test_ingest_missing_tu_directory(tmp_path):
    assert main(["ingest", "--tu", str(tmp_path / "missing"), "--out", str(tmp_path / "run")]) == 3


def test_ingest_capacity_violation(tmp_path):
    config = write_config(tmp_path, max_nodes=5, block_size=1)
    code = main(["ingest", "--toy", "20", "--out", str(tmp_path / "run"), "--config", config])
    assert code == 3


def test_usage_errors_exit_two(tmp_path):
    for argv in (
        [],
        ["frobnicate"],
        ["ingest", "--toy", "10"],
        ["ingest", "--toy", "10", "--tu", "x", "--out", str(tmp_path)],
        ["generate", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_train_requires_classifier_checkpoint(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["train", "--out", str(run), "--config", write_config(tmp_path)]) == 3
    assert "classifier" in capsys.readouterr().err


def test_train_without_condition_loss_skips_classifier(tmp_path):
    run = tmp_path / "run"
    config = write_config(tmp_path, lambda_condition=0.0, epochs=1)
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["train", "--out", str(run), "--config", config]) == 0
    log = [json.loads(l) for l in (run / "logs" / "train.jsonl").read_text().splitlines()]
    assert all(rec["l_condition"] == 0.0 for rec in log)


def test_train_rejects_unknown_config_key(tmp_path):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**FAST_CONFIG, "mystery": 1}))
    assert main(["train", "--out", str(run), "--config", str(bad)]) == 2


def test_train_writes_resolved_config_and_log(pipeline_run):
    saved = json.loads((pipeline_run / "config.json").read_text())
    assert saved == {
        **FAST_CONFIG,
        "tied_rounds": True,
        "gamma": 0.8,
        "lambda_condition": 0.5,
        "lambda_node_label": 0.5,
        "tau": 1.0,
        "tau_end": 0.2,
        "clip_norm": 5.0,
    }
    log = [json.loads(l) for l in (pipeline_run / "logs" / "train.jsonl").read_text().splitlines()]
    assert len(log) == FAST_CONFIG["epochs"]
    assert set(log[0]) == {"epoch", "l_adj", "l_condition", "l_node_label", "total", "tau", "seconds"}
    assert (pipeline_run / "checkpoints" / "generator.npz").is_file()


def test_train_log_records_temperature_and_timing(pipeline_run):
    config = load_train_config(pipeline_run / "config.json")
    log = [json.loads(l) for l in (pipeline_run / "logs" / "train.jsonl").read_text().splitlines()]
    assert [rec["epoch"] for rec in log] == [0, 1]
    for rec in log:
        assert rec["tau"] == config.tau_at(rec["epoch"])
        assert rec["seconds"] > 0


def test_generate_writes_samples_and_manifest(pipeline_run):
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "1", "--count", "4", "--seed", "3",
    ]) == 0
    batch_dir = pipeline_run / "samples" / "class1"
    manifest = json.loads((batch_dir / "manifest.json").read_text())
    assert manifest["class"] == 1 and manifest["count"] == 4 and manifest["seed"] == 3
    assert len(manifest["checkpoint_sha256"]) == 64
    assert len(manifest["files"]) == 4
    for rel in manifest["files"]:
        record = json.loads((pipeline_run / rel).read_text())
        assert record["class_label"] == 1
        assert set(record) == {"num_nodes", "edges", "node_labels", "class_label"}


def test_generate_is_reproducible(pipeline_run):
    args = ["generate", "--out", str(pipeline_run), "--class", "0", "--count", "3", "--seed", "9"]
    assert main(args) == 0
    first = file_digests(pipeline_run / "samples" / "class0", "*.json")
    assert main(args) == 0
    assert file_digests(pipeline_run / "samples" / "class0", "*.json") == first


def test_generate_count_zero_writes_empty_manifest(tmp_path, pipeline_run):
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "1", "--count", "0", "--seed", "1",
        "--checkpoint", str(pipeline_run / "checkpoints" / "generator.npz"),
    ]) == 0
    manifest = json.loads(
        (pipeline_run / "samples" / "class1" / "manifest.json").read_text()
    )
    assert manifest["files"] == [] and manifest["count"] == 0


def test_generate_class_out_of_range(pipeline_run, capsys):
    code = main(["generate", "--out", str(pipeline_run), "--class", "5", "--count", "1"])
    assert code == 2
    assert "--class" in capsys.readouterr().err


def test_generate_missing_checkpoint(tmp_path):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["generate", "--out", str(run), "--class", "0", "--count", "1"]) == 3


def test_evaluate_without_samples(tmp_path):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["evaluate", "--out", str(run)]) == 3


def test_evaluate_writes_report(pipeline_run, capsys):
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "1", "--count", "4", "--seed", "3",
    ]) == 0
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "0", "--count", "3", "--seed", "9",
    ]) == 0
    assert main(["evaluate", "--out", str(pipeline_run)]) == 0
    table = capsys.readouterr().out
    assert "class" in table and "generated" in table
    report = json.loads((pipeline_run / "report.json").read_text())
    assert set(report["classes"]) == {"0", "1"}
    for entry in report["classes"].values():
        assert entry["accuracy"] is not None
        assert entry["reference"] is not None and entry["generated"] is not None
    assert report["auc"] is None or 0.0 <= report["auc"] <= 1.0


def test_evaluate_with_explicit_reference(pipeline_run, tmp_path):
    manifest = json.loads((pipeline_run / "manifest.json").read_text())
    reference = pipeline_run / manifest["splits"]["train"]
    assert main([
        "evaluate", "--out", str(pipeline_run), "--reference", str(reference),
    ]) == 0


def test_numeric_failures_exit_four(tmp_path, monkeypatch, capsys):
    from condgraphgen import cli
    from condgraphgen.errors import NumericError

    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["train-classifier", "--out", str(run)]) == 0

    def explode(*args, **kwargs):
        raise NumericError("non-finite total term in training step")

    monkeypatch.setattr(cli, "train_generator", explode)
    assert main(["train", "--out", str(run), "--config", write_config(tmp_path)]) == 4
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_gradient_exits_four(tmp_path, monkeypatch, capsys):
    from condgraphgen import training
    from condgraphgen.autodiff import Tensor

    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    assert main(["train-classifier", "--out", str(run)]) == 0

    made = []
    init_generator = training.init_generator
    backward = Tensor.backward

    def init_and_keep(*args, **kwargs):
        made.append(init_generator(*args, **kwargs))
        return made[-1]

    def poisoned(self):
        backward(self)
        if made:  # the generator's first step: poison one gradient
            w = made[0].cond_embed.W
            w.grad = np.full_like(w.value, np.nan)

    monkeypatch.setattr(training, "init_generator", init_and_keep)
    monkeypatch.setattr(Tensor, "backward", poisoned)
    assert main(["train", "--out", str(run), "--config", write_config(tmp_path)]) == 4
    assert "non-finite gradient in gen/Wc" in capsys.readouterr().err
