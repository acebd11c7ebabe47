import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from condgraphgen.checkpoint import load_checkpoint
from condgraphgen.classifiers import ClassifierTrainConfig
from condgraphgen.cli import main
from condgraphgen.datasets import load_run_dataset
from condgraphgen.errors import ConfigError
from condgraphgen.evaluation import build_report, corpus_stats, mean_stats
from condgraphgen.tu_io import load_graph_json, save_graph_list
from condgraphgen.training import UNION_EDGE_BUDGET, load_train_config, train_config_from_dict

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


def test_ingest_malformed_tu_label_exits_three(tmp_path, capsys):
    tu = tmp_path / "bad"
    tu.mkdir()
    (tu / "bad_A.txt").write_text("1, 2\n2, 1\n")
    (tu / "bad_graph_indicator.txt").write_text("1\n1\n")
    (tu / "bad_graph_labels.txt").write_text("1\n")
    (tu / "bad_node_labels.txt").write_text("0\nC\n")
    assert main(["ingest", "--tu", str(tu), "--out", str(tmp_path / "run")]) == 3
    assert "bad_node_labels.txt (line 2)" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "key", ["lr", "tau", "tau_end", "clip_norm", "lambda_condition", "lambda_node_label"]
)
def test_non_finite_config_values_exit_two(tmp_path, capsys, key, value):
    # Python's json reads NaN and Infinity, and no range check rejects them
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        train_config_from_dict({key: value})
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    config = write_config(tmp_path, **{key: value})
    assert main(["train", "--out", str(run), "--config", config]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (run / "checkpoints" / "generator.npz").exists()


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
    assert set(log[0]) == {
        "epoch", "l_adj", "l_condition", "l_node_label", "total", "tau",
        "grad_norm_mean", "grad_norm_max", "clipped_steps", "seconds", "graphs_per_s",
        "chunks", "max_chunk_edges",
    }
    assert (pipeline_run / "checkpoints" / "generator.npz").is_file()


def test_train_log_records_temperature_and_timing(pipeline_run):
    config = load_train_config(pipeline_run / "config.json")
    log = [json.loads(l) for l in (pipeline_run / "logs" / "train.jsonl").read_text().splitlines()]
    assert [rec["epoch"] for rec in log] == [0, 1]
    for rec in log:
        assert rec["tau"] == config.tau_at(rec["epoch"])
        assert rec["seconds"] > 0


def test_train_log_records_gradient_norms_and_throughput(pipeline_run):
    config = load_train_config(pipeline_run / "config.json")
    split, _ = load_run_dataset(pipeline_run)
    steps = -(-len(split.train) // config.batch_size)
    log = [json.loads(l) for l in (pipeline_run / "logs" / "train.jsonl").read_text().splitlines()]
    for rec in log:
        assert 0.0 < rec["grad_norm_mean"] <= rec["grad_norm_max"]
        assert isinstance(rec["clipped_steps"], int) and 0 <= rec["clipped_steps"] <= steps
        # a step is clipped exactly when its norm exceeds clip_norm
        assert (rec["clipped_steps"] > 0) == (rec["grad_norm_max"] > config.clip_norm)
        assert rec["graphs_per_s"] == pytest.approx(len(split.train) / rec["seconds"])


def test_train_log_records_forward_backward_passes(pipeline_run):
    config = load_train_config(pipeline_run / "config.json")
    split, _ = load_run_dataset(pipeline_run)
    steps = -(-len(split.train) // config.batch_size)
    log = [json.loads(l) for l in (pipeline_run / "logs" / "train.jsonl").read_text().splitlines()]
    for rec in log:
        # every step runs at least one pass; toy unions fit the edge budget
        assert rec["chunks"] == steps
        assert 0 < rec["max_chunk_edges"] <= UNION_EDGE_BUDGET


def test_classifier_log_records_epoch_seconds(pipeline_run):
    log = [
        json.loads(l)
        for l in (pipeline_run / "logs" / "classifier.jsonl").read_text().splitlines()
    ]
    assert [rec["epoch"] for rec in log] == list(range(ClassifierTrainConfig().epochs))
    for rec in log:
        assert set(rec) == {"epoch", "loss", "val_accuracy", "seconds"}
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


def test_evaluate_reads_the_classifier_out_once(pipeline_run, monkeypatch):
    from condgraphgen import classifiers

    for label, seed in (("1", "3"), ("0", "9")):
        assert main([
            "generate", "--out", str(pipeline_run), "--class", label, "--count", "3",
            "--seed", seed,
        ]) == 0
    unions = []
    logits = classifiers._discrete_logits

    def counted(parts, params):
        unions.append(len(parts))
        return logits(parts, params)

    monkeypatch.setattr(classifiers, "_discrete_logits", counted)
    assert main(["evaluate", "--out", str(pipeline_run)]) == 0
    # one union forward over the six samples gives both accuracy and AUC
    assert unions == [6]
    report = json.loads((pipeline_run / "report.json").read_text())
    assert report["auc"] is not None
    assert all(entry["accuracy"] is not None for entry in report["classes"].values())


def test_evaluate_report_equals_the_library_report(pipeline_run):
    for label, seed in (("1", "5"), ("0", "6")):
        assert main([
            "generate", "--out", str(pipeline_run), "--class", label, "--count", "4",
            "--seed", seed,
        ]) == 0
    assert main(["evaluate", "--out", str(pipeline_run)]) == 0
    split, _ = load_run_dataset(pipeline_run)
    generated = [
        load_graph_json(pipeline_run / rel)
        for path in sorted((pipeline_run / "samples").glob("class*/manifest.json"))
        for rel in json.loads(path.read_text())["files"]
    ]
    clf = load_checkpoint(pipeline_run / "checkpoints" / "classifier.npz").graph_classifier
    text = (pipeline_run / "report.json").read_text()
    assert text == build_report(split.test, generated, clf).to_json() + "\n"
    assert json.loads(text)["auc"] is not None


def test_evaluate_reads_only_the_latest_samples(tmp_path, pipeline_run):
    run = tmp_path / "run"
    for name in ("manifest.json", "splits", "checkpoints"):
        src = pipeline_run / name
        if src.is_dir():
            shutil.copytree(src, run / name)
        else:
            run.mkdir()
            shutil.copy(src, run / name)
    earlier = []
    for count in ("3", "1"):
        assert main([
            "generate", "--out", str(run), "--class", "1", "--count", count, "--seed", "2",
        ]) == 0
        on_disk = sorted((run / "samples" / "class1").glob("sample_*.json"))
        earlier = earlier or [load_graph_json(p) for p in on_disk]
    # the second generate removed the two files its manifest does not list
    assert len(on_disk) == 1
    assert main(["evaluate", "--out", str(run)]) == 0
    generated = json.loads((run / "report.json").read_text())["classes"]["1"]["generated"]
    # the class mean is the statistics of the one listed sample, not of all three
    latest = mean_stats(corpus_stats([load_graph_json(on_disk[0])]))
    stale = mean_stats(corpus_stats(earlier))
    assert generated == pytest.approx(latest.as_dict())
    assert generated != pytest.approx(stale.as_dict())


def test_interrupted_report_write_keeps_previous_report(pipeline_run, monkeypatch):
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "0", "--count", "2", "--seed", "4",
    ]) == 0
    assert main(["evaluate", "--out", str(pipeline_run)]) == 0
    report = pipeline_run / "report.json"
    before = report.read_bytes()
    assert main([
        "generate", "--out", str(pipeline_run), "--class", "0", "--count", "5", "--seed", "5",
    ]) == 0

    def crash(fd):  # the new report is written but not yet durable
        raise OSError("power cut")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="power cut"):
        main(["evaluate", "--out", str(pipeline_run)])
    monkeypatch.undo()
    assert report.read_bytes() == before
    assert not list(pipeline_run.glob("report.json.*"))


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _graph(edges):
    return {"num_nodes": 3, "edges": edges, "node_labels": [0, 0, 0], "class_label": 0}


def _truncated_split(run, tmp_path):
    _truncate(run / "splits" / "train.json")
    return ["train-classifier", "--out", str(run)], "train.json"


def _truncated_reference(run, tmp_path):
    ref = tmp_path / "ref.json"
    shutil.copy(run / "splits" / "test.json", ref)
    _truncate(ref)
    return ["evaluate", "--out", str(run), "--reference", str(ref)], "ref.json"


def _self_loop_reference(run, tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"graphs": [_graph([[0, 1], [2, 2]])]}))
    return ["evaluate", "--out", str(run), "--reference", str(ref)], "ref.json"


def _out_of_range_sample(run, tmp_path):
    rel = "samples/class0/sample_00000.json"
    (run / "samples" / "class0").mkdir(parents=True)
    (run / rel).write_text(json.dumps(_graph([[0, 7]])))
    (run / "samples" / "class0" / "manifest.json").write_text(json.dumps({"files": [rel]}))
    return ["evaluate", "--out", str(run)], "sample_00000.json"


def _class_missing_from_train(run, tmp_path):
    path = run / "splits" / "train.json"
    payload = json.loads(path.read_text())
    payload["graphs"] = [g for g in payload["graphs"] if g["class_label"] == 0]
    path.write_text(json.dumps(payload))
    return ["train-classifier", "--out", str(run)], "absent from the train split"


@pytest.mark.parametrize(
    "corrupt",
    [_truncated_split, _truncated_reference, _self_loop_reference, _out_of_range_sample,
     _class_missing_from_train],
    ids=["truncated-split", "truncated-reference", "self-loop-reference", "out-of-range-sample",
         "class-missing-from-train"],
)
def test_malformed_run_files_exit_three(tmp_path, capsys, corrupt):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    argv, culprit = corrupt(run, tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert culprit in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [
        (["train-classifier"], "splits"),
        (["train"], "num_node_labels"),
        (["generate", "--class", "0", "--count", "1"], "node_count_histograms"),
    ],
    ids=["train-classifier", "train", "generate"],
)
def test_manifest_missing_a_key_exits_three(tmp_path, capsys, pipeline_run, command, key):
    run = tmp_path / "run"
    for name in ("splits", "checkpoints"):
        shutil.copytree(pipeline_run / name, run / name)
    manifest = json.loads((pipeline_run / "manifest.json").read_text())
    del manifest[key]
    (run / "manifest.json").write_text(json.dumps(manifest))
    if command[0] == "train":
        command = [*command, "--config", write_config(tmp_path)]
    capsys.readouterr()
    assert main([*command, "--out", str(run)]) == 3
    assert repr(key) in capsys.readouterr().err


def test_ingest_rejects_an_empty_validation_split(tmp_path, capsys):
    run = tmp_path / "run"  # four graphs per class round to no validation graph
    assert main(["ingest", "--toy", "8", "--out", str(run)]) == 3
    assert "validation split" in capsys.readouterr().err
    assert not (run / "manifest.json").exists()


def test_ingest_rejects_an_empty_test_split(tmp_path, capsys):
    run = tmp_path / "run"  # six graphs per class round to no test graph
    assert main(["ingest", "--toy", "12", "--out", str(run)]) == 3
    assert "test split" in capsys.readouterr().err
    assert not (run / "manifest.json").exists()


@pytest.mark.parametrize("source", ["reference-file", "test-split"])
def test_evaluate_rejects_an_empty_reference_set(tmp_path, capsys, pipeline_run, source):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(pipeline_run / "manifest.json", run)
    for name in ("splits", "checkpoints"):
        shutil.copytree(pipeline_run / name, run / name)
    assert main(["generate", "--out", str(run), "--class", "0", "--count", "1"]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    args = ["evaluate", "--out", str(run)]
    if source == "reference-file":
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"graphs": []}))
        args += ["--reference", str(empty)]
    else:
        save_graph_list(run / manifest["splits"]["test"], [])
    capsys.readouterr()
    assert main(args) == 3
    assert "reference set is empty" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_train_classifier_rejects_an_empty_validation_split(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    save_graph_list(run / manifest["splits"]["validation"], [])
    capsys.readouterr()
    assert main(["train-classifier", "--out", str(run)]) == 3
    assert "validation split" in capsys.readouterr().err


@pytest.mark.parametrize("failing_fsync", [1, 4], ids=["first-split", "manifest"])
def test_interrupted_ingest_keeps_previous_manifest(tmp_path, monkeypatch, failing_fsync):
    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run), "--seed", "1"]) == 0
    before = (run / "manifest.json").read_bytes()
    fsync = os.fsync
    calls = []

    def crash(fd):  # splits are written first (three files), then the manifest
        calls.append(fd)
        if len(calls) == failing_fsync:
            raise OSError("power cut")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="power cut"):
        main(["ingest", "--toy", "20", "--out", str(run), "--seed", "2"])
    monkeypatch.undo()
    assert (run / "manifest.json").read_bytes() == before
    assert not list(run.rglob("*.tmp"))


def test_train_classifier_reports_the_saved_accuracy(tmp_path, monkeypatch, capsys):
    from condgraphgen import cli

    run = tmp_path / "run"
    assert main(["ingest", "--toy", "20", "--out", str(run)]) == 0
    train = cli.train_graph_classifier

    def peaks_early(split, hyper, log_stream=None):  # the saved parameters are epoch 1's
        params, history = train(split, dataclasses.replace(hyper, epochs=3), log_stream)
        for record, acc in zip(history, (0.5, 0.875, 0.625)):
            record["val_accuracy"] = acc
        return params, history

    monkeypatch.setattr(cli, "train_graph_classifier", peaks_early)
    capsys.readouterr()
    assert main(["train-classifier", "--out", str(run)]) == 0
    assert "validation accuracy 0.875" in capsys.readouterr().out


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
