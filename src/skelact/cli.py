"""Command line entry points: prepare, train, eval, analyze.

Exit codes: 0 on success, 2 for validation problems (bad arguments,
configuration, files that do not fit together), 3 for failures while
processing data. All inputs are checked before anything is written,
and a command creates its ``--out`` directory right before its first
write, so a failure leaves none behind. Each command first checks that
``--out`` is a directory or could be made one, before it reads any data.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from .atomic import open_atomic
from .config import read_text
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
from .model import load_weights, save_weights
from .train import SequenceDataset, evaluate, load_run_config, run_training

_VALIDATION_ERRORS = (
    ConfigurationError,
    InsufficientDataError,
    CheckpointError,
    CoverageError,
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _output_directory(path: str) -> Path:
    """``path`` as a Path, creating nothing; ``ConfigurationError`` if it,
    or its nearest existing ancestor, is not a directory."""
    ancestor = Path(path)
    while not os.path.lexists(ancestor):
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise ConfigurationError(f"out {path}: not a directory")
    return Path(path)


def cmd_prepare(args: argparse.Namespace) -> int:
    out = _output_directory(args.out)
    manifest = DatasetManifest.load(args.manifest)
    split = build_protocol(
        manifest, args.protocol, seed=args.seed, stratified=not args.no_stratify
    )
    save_split(split, out, manifest)
    counts = split_class_counts(split, manifest)
    per_class = ", ".join(f"{name}={count}" for name, count in counts.items())
    print(
        f"{split.protocol}: {len(split.train_ids)} train / "
        f"{len(split.test_ids)} test samples over "
        f"{len(split.class_names)} classes ({per_class}) -> {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    out = _output_directory(args.out)
    config = load_run_config(args.config)
    manifest = DatasetManifest.load(config.manifest)
    split = load_split(args.split)
    net, history = run_training(manifest, split, config.model, config.train)
    net.load_state_arrays(history.best_state)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(net, out / "checkpoint.ckpt")
    with open_atomic(out / "history.csv") as handle:
        handle.write(history.to_csv())
    best = history.best_test_top1
    print(
        f"trained {config.train.epochs} epochs; best test top-1 "
        f"{best:.4f} at epoch {history.best_epoch} -> {out}"
    )
    return 0


def _float_columns(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _write_csv(path: Path, rows) -> None:
    """Write ``rows``, the header row first, as one CSV file (``open_atomic``)."""
    with open_atomic(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def cmd_eval(args: argparse.Namespace) -> int:
    out = _output_directory(args.out)
    config = load_run_config(args.config)
    manifest = DatasetManifest.load(config.manifest)
    split = load_split(args.split)
    net = config.model.build(len(split.class_names))
    load_weights(net, args.checkpoint)

    dataset = SequenceDataset.from_manifest(
        manifest, split.test_ids, split.class_names, config.model
    )
    top1, logits = evaluate(net, dataset, config.train.batch_size)
    predictions = np.argmax(logits, axis=1)
    confidences = np.stack(
        [sequence_confidence(seq) for seq in dataset.sequences]
    )
    class_count = len(split.class_names)
    top5 = top_k_accuracy(logits, dataset.labels, min(5, class_count))
    matrix = confusion_matrix(predictions, dataset.labels, class_count)
    table = classwise_table(
        dataset.labels, predictions, confidences, split.class_names
    )

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "predictions.csv", [
        ["sample_id", "label", "prediction"]
        + _float_columns("confidence_", confidences.shape[1])
        + _float_columns("logit_", class_count),
        *([dataset.sample_ids[row], int(dataset.labels[row]), int(predictions[row])]
          + [repr(float(v)) for v in confidences[row]]
          + [repr(float(v)) for v in logits[row]]
          for row in range(len(dataset))),
    ])
    _write_csv(out / "metrics.csv",
               [["metric", "value"], ["top1", repr(top1)], ["top5", repr(top5)]])
    _write_csv(out / "confusion.csv", [
        ["class"] + list(split.class_names),
        *([name] + [int(v) for v in matrix[index]]
          for index, name in enumerate(split.class_names)),
    ])
    _write_csv(out / "classwise.csv", [
        ["class_index", "class_name", "support", "accuracy"]
        + _float_columns("confidence_", confidences.shape[1])
        + ["position"],
        *([summary.index, summary.name, summary.support, repr(summary.accuracy)]
          + [repr(v) for v in summary.confidence]
          + [summary.position]
          for summary in table),
    ])

    print(f"top-1 {top1:.4f}, top-5 {top5:.4f} on {len(dataset)} samples -> {out}")
    return 0


def _read_predictions(path: str) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    rows = list(csv.reader(read_text(path, "predictions").splitlines()))
    if not rows:
        raise ConfigurationError(f"{path} is empty")
    header, *rows = rows
    required = ["sample_id", "label", "prediction"]
    if header[:3] != required or "confidence_0" not in header:
        raise ConfigurationError(
            f"{path} lacks the expected prediction columns"
        )
    confidence_columns = [
        i for i, name in enumerate(header) if name.startswith("confidence_")
    ]
    # Each sample id's index into the returned arrays.
    row_by_id, labels, predictions, confidences = {}, [], [], []
    # Row 1 is the header, so row ``number`` has index ``number - 2``.
    for number, row in enumerate(rows, start=2):
        try:
            labels.append(int(row[1]))
            predictions.append(int(row[2]))
            confidences.append([float(row[i]) for i in confidence_columns])
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(f"{path} row {number}: {exc}") from None
        for column, value in zip(confidence_columns, confidences[-1]):
            # NaN fails the comparison too.
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{path} row {number}: {header[column]} must lie in [0, 1], "
                    f"got {value}"
                )
        if row[0] in row_by_id:
            raise ConfigurationError(
                f"{path} row {number}: sample_id {row[0]!r} repeats row "
                f"{row_by_id[row[0]] + 2}"
            )
        row_by_id[row[0]] = number - 2
    return (row_by_id, np.array(labels, dtype=np.int64),
            np.array(predictions, dtype=np.int64), np.array(confidences))


def cmd_analyze(args: argparse.Namespace) -> int:
    out = _output_directory(args.out)
    row_by_id, labels, predictions, confidences = _read_predictions(args.predictions)
    split = load_split(args.split)
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
    out.mkdir(parents=True, exist_ok=True)
    with open_atomic(out / "report.json") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True))
    _write_csv(out / "scatter.csv", [
        ["class_index", "class_name", "accuracy", "confidence"],
        *([row.index, row.name, repr(row.accuracy), repr(row.confidence[0])]
          for row in table),
    ])
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


# glibc's mallopt parameters and the values set for them. Temporaries
# below 32 MiB come from the heap, not from a fresh mmap whose pages fault
# in on every step; memory freed below the 2 GiB trim threshold, the
# ceiling of mallopt's C int, stays with the process for the next step.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
ALLOCATOR_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 2**31 - 1))
ALLOCATOR_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def set_allocator_thresholds() -> None:
    """Set ``ALLOCATOR_THRESHOLDS`` through the C library's ``mallopt``.

    Nothing changes where the C library has no ``mallopt``, or when the
    user has set either of glibc's ``ALLOCATOR_VARIABLES``: then both
    settings are theirs.
    """
    if any(name in os.environ for name in ALLOCATOR_VARIABLES):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for parameter, value in ALLOCATOR_THRESHOLDS:
        mallopt(parameter, value)


def main(argv=None) -> int:
    set_allocator_thresholds()
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
