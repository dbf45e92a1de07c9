"""Command line entry points: prepare, train, eval, analyze.

Exit codes: 0 on success, 2 for validation problems (bad arguments,
configuration, files that do not fit together), 3 for failures while
processing data. All inputs are checked before anything is written.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import load_run_config
from .errors import (
    CheckpointError,
    ConfigurationError,
    CoverageError,
    InsufficientDataError,
    SkelactError,
)
from .manifest import (
    PROTOCOLS,
    DatasetManifest,
    build_protocol,
    load_split,
    save_split,
    split_class_counts,
)
from .metrics import (
    classwise_table,
    confusion_matrix,
    pearson,
    sequence_confidence,
    spearman,
    top_k_accuracy,
)
from .model import load_weights, read_checkpoint, save_weights
from .train import SequenceDataset, evaluate, run_training

_VALIDATION_ERRORS = (
    ConfigurationError,
    InsufficientDataError,
    CheckpointError,
    CoverageError,
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _require_file(path: str, label: str) -> Path:
    resolved = Path(path)
    if not resolved.is_file():
        raise ConfigurationError(f"{label} {path} does not exist")
    return resolved


def _require_dir(path: str, label: str) -> Path:
    resolved = Path(path)
    if not resolved.is_dir():
        raise ConfigurationError(f"{label} {path} does not exist")
    return resolved


def cmd_prepare(args: argparse.Namespace) -> int:
    manifest = DatasetManifest.load(_require_file(args.manifest, "manifest"))
    split = build_protocol(
        manifest, args.protocol, seed=args.seed, stratified=not args.no_stratify
    )
    save_split(split, args.out, manifest)
    counts = split_class_counts(split, manifest)
    per_class = ", ".join(f"{name}={count}" for name, count in counts.items())
    print(
        f"{split.protocol}: {len(split.train_ids)} train / "
        f"{len(split.test_ids)} test samples over "
        f"{len(split.class_names)} classes ({per_class}) -> {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(_require_file(args.config, "config"))
    manifest = DatasetManifest.load(_require_file(config.manifest, "manifest"))
    split = load_split(_require_dir(args.split, "split"))
    if config.train.mode != "vanilla":
        _require_file(config.train.source_checkpoint, "checkpoint")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    net, history = run_training(manifest, split, config.model, config.train)
    if history.best_state is not None:
        net.load_state_arrays(history.best_state)
    save_weights(net, out / "checkpoint.ckpt")
    (out / "history.csv").write_text(history.to_csv())
    best = history.best_test_top1
    print(
        f"trained {config.train.epochs} epochs; best test top-1 "
        f"{best:.4f} at epoch {history.best_epoch} -> {out}"
    )
    return 0


def _float_columns(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_run_config(_require_file(args.config, "config"))
    manifest = DatasetManifest.load(_require_file(config.manifest, "manifest"))
    split = load_split(_require_dir(args.split, "split"))
    checkpoint = _require_file(args.checkpoint, "checkpoint")
    meta, _ = read_checkpoint(checkpoint)
    if meta.get("layout") != config.model.layout:
        raise CheckpointError(
            f"checkpoint graph {meta.get('layout')!r} does not match "
            f"configured graph {config.model.layout!r}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    dataset = SequenceDataset.from_manifest(
        manifest, split.test_ids, split.class_names, config.model
    )
    net = config.model.build(len(split.class_names))
    load_weights(net, checkpoint, strict_head=True)
    top1, logits = evaluate(net, dataset, config.train.batch_size)
    predictions = np.argsort(-logits, axis=1, kind="stable")[:, 0]
    confidences = np.stack(
        [sequence_confidence(seq) for seq in dataset.sequences]
    )
    class_count = len(split.class_names)
    top5 = top_k_accuracy(logits, dataset.labels, min(5, class_count))

    with open(out / "predictions.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["sample_id", "label", "prediction"]
            + _float_columns("confidence_", confidences.shape[1])
            + _float_columns("logit_", class_count)
        )
        for row in range(len(dataset)):
            writer.writerow(
                [dataset.sample_ids[row], int(dataset.labels[row]), int(predictions[row])]
                + [repr(float(v)) for v in confidences[row]]
                + [repr(float(v)) for v in logits[row]]
            )

    with open(out / "metrics.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "value"])
        writer.writerow(["top1", repr(top1)])
        writer.writerow(["top5", repr(top5)])

    matrix = confusion_matrix(predictions, dataset.labels, class_count)
    with open(out / "confusion.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class"] + list(split.class_names))
        for index, name in enumerate(split.class_names):
            writer.writerow([name] + [int(v) for v in matrix[index]])

    table = classwise_table(
        dataset.labels, predictions, confidences, split.class_names
    )
    with open(out / "classwise.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["class_index", "class_name", "support", "accuracy"]
            + _float_columns("confidence_", confidences.shape[1])
            + ["position"]
        )
        for summary in table:
            writer.writerow(
                [summary.index, summary.name, summary.support, repr(summary.accuracy)]
                + [repr(v) for v in summary.confidence]
                + [summary.position]
            )

    print(f"top-1 {top1:.4f}, top-5 {top5:.4f} on {len(dataset)} samples -> {out}")
    return 0


def _read_predictions(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path} is empty") from None
        rows = list(reader)
    required = ["sample_id", "label", "prediction"]
    if header[:3] != required or "confidence_0" not in header:
        raise ConfigurationError(
            f"{path} lacks the expected prediction columns"
        )
    confidence_columns = [
        i for i, name in enumerate(header) if name.startswith("confidence_")
    ]
    ids = [row[0] for row in rows]
    labels = np.array([int(row[1]) for row in rows], dtype=np.int64)
    predictions = np.array([int(row[2]) for row in rows], dtype=np.int64)
    confidences = np.array(
        [[float(row[i]) for i in confidence_columns] for row in rows]
    )
    return ids, labels, predictions, confidences


def cmd_analyze(args: argparse.Namespace) -> int:
    predictions_path = _require_file(args.predictions, "predictions")
    split = load_split(_require_dir(args.split, "split"))
    ids, labels, predictions, confidences = _read_predictions(predictions_path)
    row_by_id = {sample_id: row for row, sample_id in enumerate(ids)}
    missing = [i for i in split.test_ids if i not in row_by_id]
    if missing:
        raise CoverageError(
            "predictions do not cover the split; missing sample ids: "
            + ", ".join(missing)
        )
    # Rows outside the split are ignored; the split defines the population.
    keep = [row_by_id[i] for i in split.test_ids]
    labels = labels[keep]
    predictions = predictions[keep]
    confidences = confidences[keep]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table = classwise_table(labels, predictions, confidences, split.class_names)
    accuracies = np.array([row.accuracy for row in table])
    # The first person slot carries the main subject; its confidence is
    # what accuracy is correlated against.
    lead_confidence = np.array([row.confidence[0] for row in table])
    pearson_r = pearson(accuracies, lead_confidence)
    spearman_r = spearman(accuracies, lead_confidence)

    report = {
        "pearson": pearson_r,
        "spearman": spearman_r,
        "class_count": len(table),
        "classes": [
            {
                "index": row.index,
                "name": row.name,
                "support": row.support,
                "accuracy": row.accuracy,
                "confidence": row.confidence[0],
                "position": row.position,
            }
            for row in table
        ],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    with open(out / "scatter.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class_index", "class_name", "accuracy", "confidence"])
        for row in table:
            writer.writerow(
                [row.index, row.name, repr(row.accuracy), repr(row.confidence[0])]
            )
    print(
        f"pearson {pearson_r:.4f}, spearman {spearman_r:.4f} over "
        f"{len(table)} classes -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelact",
        description="Skeleton-based action recognition toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    prepare = commands.add_parser(
        "prepare", help="build a protocol split from a manifest"
    )
    prepare.add_argument("--manifest", required=True)
    prepare.add_argument("--protocol", required=True, choices=PROTOCOLS)
    prepare.add_argument("--seed", type=int, default=0)
    prepare.add_argument(
        "--no-stratify", action="store_true",
        help="split the pooled samples instead of per class",
    )
    prepare.add_argument("--out", required=True)
    prepare.set_defaults(func=cmd_prepare)

    train = commands.add_parser("train", help="train a network on a split")
    train.add_argument("--config", required=True)
    train.add_argument("--split", required=True)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    evaluate_cmd = commands.add_parser(
        "eval", help="evaluate a checkpoint on a split's test part"
    )
    evaluate_cmd.add_argument("--config", required=True)
    evaluate_cmd.add_argument("--checkpoint", required=True)
    evaluate_cmd.add_argument("--split", required=True)
    evaluate_cmd.add_argument("--out", required=True)
    evaluate_cmd.set_defaults(func=cmd_eval)

    analyze = commands.add_parser(
        "analyze", help="correlate per-class accuracy with detector confidence"
    )
    analyze.add_argument("--predictions", required=True)
    analyze.add_argument("--split", required=True)
    analyze.add_argument("--out", required=True)
    analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        return _fail(str(exc), 2)
    except SkelactError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
