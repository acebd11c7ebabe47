"""Operator command-line interface.

Subcommands cover the full pipeline: ``ingest`` (TU directory or synthetic
toy corpus -> splits + manifest), ``train-classifier`` (frozen graph
classifier), ``train`` (generator + node classifier), ``generate`` (sample
graphs for a class), and ``evaluate`` (statistics table + report JSON).

Every command works inside a run directory (``--out``) with the layout
config.json, manifest.json, checkpoints/, logs/, samples/, report.json.
Exit codes: 0 success, 2 usage/configuration error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import checkpoint_hash, load_checkpoint, save_checkpoint
from .classifiers import ClassifierTrainConfig, train_graph_classifier
from .datasets import (
    SPLIT_NAMES,
    build_manifest,
    histogram_from_manifest,
    load_run_dataset,
    read_manifest,
    stratified_split,
    write_run_dataset,
)
from .errors import ConfigError, DataError, DependencyError, NumericError
from .evaluation import build_report, render_table
from .graphs import synthesize_toy_corpus
from .sampling import generate_batch
from .training import (
    TrainConfig,
    load_train_config,
    train_generator,
)
from .tu_io import atomic_open, load_graph_json, load_graph_list, load_tu, save_graph_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_run(run_dir: Path):
    try:
        return load_run_dataset(run_dir)
    except OSError as exc:
        raise DataError(f"run directory {run_dir} is missing split files: {exc}") from exc
    except ValueError as exc:  # a class of the splits is absent from the train split
        raise DataError(f"run directory {run_dir} holds inconsistent splits: {exc}") from exc


def _resolve_config(args) -> TrainConfig:
    config = load_train_config(args.config) if args.config else TrainConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _write_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_checkpoint(path: Path, hint: str):
    if not path.is_file():
        raise DependencyError(f"missing checkpoint {path}; {hint}")
    return load_checkpoint(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    out = Path(args.out)
    if args.tu is not None:
        directory = Path(args.tu)
        if not directory.is_dir():
            raise DataError(f"TU dataset directory not found: {directory}")
        dataset = load_tu(directory, directory.name)
        graphs = dataset.graphs
        source = f"tu:{directory.name}"
        label_maps = dict(
            graph_label_map=dataset.graph_label_map,
            node_label_map=dataset.node_label_map,
        )
    else:
        graphs = synthesize_toy_corpus(args.toy, seed=args.seed)
        source = f"toy:{args.toy}"
        label_maps = {}
    max_nodes = None
    if args.config:
        max_nodes = load_train_config(args.config).max_nodes
    split = stratified_split(graphs, args.seed)
    # train-classifier selects its checkpoint on the validation split and
    # evaluate compares the samples against the test split
    for name in SPLIT_NAMES:
        if not split.split(name):
            raise DataError(
                f"{len(graphs)} graphs leave the {name} split empty; "
                "ingest more graphs per class"
            )
    manifest = build_manifest(split, source, args.seed, max_nodes=max_nodes, **label_maps)
    write_run_dataset(out, split, manifest)
    print(
        f"ingested {len(graphs)} graphs from {source}: "
        f"{manifest['num_classes']} classes, "
        f"{manifest['num_node_labels']} node labels, "
        f"splits {[len(split.split(n)) for n in SPLIT_NAMES]}"
    )
    return EXIT_OK


def cmd_train_classifier(args) -> int:
    out = Path(args.out)
    split, _ = _load_run(out)
    hyper = ClassifierTrainConfig(seed=args.seed if args.seed is not None else 0)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    with open(out / "logs" / "classifier.jsonl", "w", encoding="utf-8") as fh:
        params, history = train_graph_classifier(split, hyper, log_stream=fh)
    ckpt_path = out / "checkpoints" / "classifier.npz"
    save_checkpoint(ckpt_path, graph_classifier=params)
    best = max(record["val_accuracy"] for record in history)
    print(f"classifier saved to {ckpt_path}; validation accuracy {best:.3f}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = Path(args.out)
    split, manifest = _load_run(out)
    config = _resolve_config(args)

    clf_params = None
    if config.lambda_condition > 0.0:
        clf_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoints" / "classifier.npz"
        ckpt = _require_checkpoint(
            clf_path, "train the graph classifier first (train-classifier command)"
        )
        clf_params = ckpt.graph_classifier
        if clf_params is None:
            raise DependencyError(f"{clf_path} holds no graph-classifier parameters")

    _write_json(out / "config.json", dataclasses.asdict(config))
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(parents=True, exist_ok=True)
    with open(out / "logs" / "train.jsonl", "w", encoding="utf-8") as fh:
        gen_params, nodeclf_params, history = train_generator(
            split.train,
            clf_params,
            config,
            log_stream=fh,
            num_node_labels=manifest["num_node_labels"],
        )
    ckpt_path = out / "checkpoints" / "generator.npz"
    save_checkpoint(ckpt_path, generator=gen_params, node_classifier=nodeclf_params)
    print(
        f"generator saved to {ckpt_path}; "
        f"total loss {history[0]['total']:.4f} -> {history[-1]['total']:.4f} "
        f"over {len(history)} epochs"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    out = Path(args.out)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoints" / "generator.npz"
    ckpt = _require_checkpoint(ckpt_path, "train the generator first (train command)")
    if ckpt.generator is None or ckpt.node_classifier is None:
        raise DependencyError(
            f"{ckpt_path} must hold generator and node-classifier parameters"
        )
    num_classes = ckpt.generator.config.num_classes
    if not 0 <= args.class_label < num_classes:
        raise ConfigError(
            f"--class must lie in [0, {num_classes}) for this checkpoint"
        )
    histogram = histogram_from_manifest(read_manifest(out))

    graphs = generate_batch(
        args.class_label,
        args.count,
        ckpt.generator,
        ckpt.node_classifier,
        histogram,
        seed=args.seed,
    )
    batch_dir = out / "samples" / f"class{args.class_label}"
    batch_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, g in enumerate(graphs):
        rel = f"samples/class{args.class_label}/sample_{i:05d}.json"
        save_graph_json(out / rel, g)
        files.append(rel)
    batch_manifest = {
        "class": args.class_label,
        "count": args.count,
        "seed": args.seed,
        "checkpoint_sha256": checkpoint_hash(ckpt_path),
        "files": files,
    }
    _write_json(batch_dir / "manifest.json", batch_manifest)
    listed = {Path(rel).name for rel in files}
    for path in batch_dir.glob("sample_*.json"):
        if path.name not in listed:  # left over from an earlier, larger generate
            path.unlink()
    print(f"wrote {len(files)} samples for class {args.class_label} under {batch_dir}")
    return EXIT_OK


def _collect_samples(out: Path):
    """The samples each class's manifest lists; sample files that no manifest
    lists are not read."""
    graphs = []
    for path in sorted((out / "samples").glob("class*/manifest.json")):
        try:
            files = json.loads(path.read_text())["files"]
            graphs += [load_graph_json(out / rel) for rel in files]
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read the samples listed in {path}: {exc}") from exc
    return graphs


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    if args.reference:
        try:
            reference = load_graph_list(args.reference)
        except OSError as exc:
            raise DataError(f"cannot read reference graphs: {exc}") from exc
    else:
        split, _ = _load_run(out)
        reference = split.test
    if not reference:
        raise DataError("the reference set is empty; nothing to compare the samples with")
    generated = _collect_samples(out)
    if not generated:
        raise DependencyError(
            f"no samples under {out / 'samples'}; run the generate command first"
        )

    clf_params = None
    clf_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoints" / "classifier.npz"
    if args.checkpoint or clf_path.is_file():
        ckpt = _require_checkpoint(clf_path, "pass --checkpoint or train a classifier")
        clf_params = ckpt.graph_classifier
        if clf_params is None:
            raise DependencyError(f"{clf_path} holds no graph-classifier parameters")

    report = build_report(reference, generated, clf_params)
    with atomic_open(out / "report.json") as fh:
        fh.write(report.to_json() + "\n")
    print(render_table(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condgraphgen",
        description="Class-conditional autoregressive graph generation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load a TU dataset or synthesize a toy corpus")
    group = p_ingest.add_mutually_exclusive_group(required=True)
    group.add_argument("--tu", help="TU-format dataset directory (named after the dataset)")
    group.add_argument("--toy", type=int, help="number of synthetic toy graphs")
    p_ingest.add_argument("--out", required=True, help="run directory")
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--config", help="training config JSON; enforces its node capacity")
    p_ingest.set_defaults(func=cmd_ingest)

    p_clf = sub.add_parser("train-classifier", help="pretrain the frozen graph classifier")
    p_clf.add_argument("--out", required=True, help="run directory with an ingested dataset")
    p_clf.add_argument("--seed", type=int, default=None)
    p_clf.set_defaults(func=cmd_train_classifier)

    p_train = sub.add_parser("train", help="train the generator and node classifier")
    p_train.add_argument("--out", required=True, help="run directory with an ingested dataset")
    p_train.add_argument("--config", help="training config JSON (unknown keys rejected)")
    p_train.add_argument("--checkpoint", help="graph-classifier checkpoint (default: run's)")
    p_train.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="sample graphs for one class")
    p_gen.add_argument("--out", required=True, help="run directory")
    p_gen.add_argument("--class", dest="class_label", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--checkpoint", help="generator checkpoint (default: run's)")
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="compare samples against reference graphs")
    p_eval.add_argument("--out", required=True, help="run directory with samples")
    p_eval.add_argument("--reference", help="graph-list JSON (default: run's test split)")
    p_eval.add_argument("--checkpoint", help="graph-classifier checkpoint for accuracy/AUC")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
