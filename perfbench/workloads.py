"""The benchmark's workloads: set-up, one timed pass, output checks.

Each workload is a closed loop with one client: the worker calls
``run_pass`` again only after the previous pass has returned. A pass is
one or more CLI commands, each an operation that fails when the command does not exit 0, raises, or writes
output that does not pass the checks below. A failed operation is
recorded in the ledger; it never stops the benchmark.
"""
from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Module attributes are looked up at call time, so the tracer's wrappers
# see these calls.
from skelact import cli
from skelact.model import ModelConfig, save_weights

import data

# The paper's 10-block plan, (out_channels, temporal_stride) per block,
# pinned here so a change of the program's default cannot change the
# benchmark. Read at call time, so the benchmark's tests can swap in a
# smaller plan.
PAPER_PLAN = [[64, 1], [64, 1], [64, 1], [64, 1], [128, 2], [128, 1],
              [128, 1], [256, 2], [256, 1], [256, 1]]
PROTOCOL = "KS-Full"
# Seed of the fixed reference inputs whose outputs are stored in
# reference.json; independent of the workload seed.
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Stored train losses and logits may drift by reordered float64 sums (a
# fused or reordered op); anything beyond this is a wrong result.
TOLERANCE = {"rtol": 1e-6, "atol": 1e-9}


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, operation: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{operation}: {'; '.join(problems)}")
        return not problems


@dataclass
class Pass:
    """One timed pass: ``items`` units of work done in ``seconds``.

    ``seconds`` is None when the timed operation failed. ``outputs`` maps
    output names to their bytes, for the rerun and tracing identity checks.
    """

    items: int
    seconds: float | None
    outputs: dict[str, bytes]


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def matches(name: str, got, want) -> list[str]:
    if want is None:
        return [f"no stored reference {name}"]
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name} has shape {got.shape}, reference {want.shape}"]
    if not np.allclose(got, want, **TOLERANCE):
        worst = float(np.max(np.abs(got - want)))
        return [f"{name} differs from the reference by up to {worst:.3g}"]
    return []


def compare_outputs(outputs: dict[str, bytes], names, expected) -> list[str]:
    if expected is None:
        return []
    return [
        f"{name} differs from the first pass"
        for name in names if outputs.get(name) != expected.get(name)
    ]


def run_cli(argv: list[str], tracer) -> tuple[list[str], float]:
    """Run one CLI command in-process; returns (problems, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with tracer.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        return [f"raised {exc!r}"], perf_counter() - start
    seconds = perf_counter() - start
    if code != 0:
        return [f"exit {code}: {err.getvalue().strip()[-300:]}"], seconds
    return [], seconds


def write_config(path: Path, manifest: Path, frames: int, slots: int,
                 batch: int, epochs: int, window: int) -> Path:
    doc = {
        "manifest": str(manifest.resolve()),
        "model": {"layout": "COCO18", "person_slots": slots,
                  "target_frames": frames, "channel_plan": PAPER_PLAN, "seed": 0},
        "train": {
            "mode": "vanilla", "base_lr": 0.01, "decay_boundaries": [10, 20],
            "decay_factor": 0.1, "batch_size": batch, "epochs": epochs,
            "momentum": 0.9, "weight_decay": 0.0001, "seed": 0,
            "augmentation": {"window": True, "window_size": window,
                             "move": True, "subsample": True, "drop_rate": 0.1},
        },
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, predictions and logits from an eval predictions.csv."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    logit_columns = [i for i, name in enumerate(header) if name.startswith("logit_")]
    labels = np.array([int(row[1]) for row in body])
    predictions = np.array([int(row[2]) for row in body])
    logits = np.array([[float(row[i]) for i in logit_columns] for row in body])
    return labels, predictions, logits


def check_eval(out: Path) -> list[str]:
    """Finite logits, predictions that are the logit argmax, and a top-1
    in metrics.csv equal to the one recomputed from predictions.csv."""
    try:
        labels, predictions, logits = read_predictions(out / "predictions.csv")
        with open(out / "metrics.csv", newline="") as handle:
            reported = {row[0]: float(row[1]) for row in list(csv.reader(handle))[1:]}
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable eval output: {exc!r}"]
    problems = []
    if logits.size == 0 or not np.isfinite(logits).all():
        problems.append("non-finite or missing logits")
    elif not np.array_equal(predictions, np.argmax(logits, axis=1)):
        problems.append("predictions are not the logit argmax")
    top1 = float(np.mean(labels == predictions)) if labels.size else math.nan
    # A missing or NaN top1 on either side fails: isclose(nan, x) is False.
    if "top1" not in reported or not math.isclose(reported["top1"], top1,
                                                  rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"metrics.csv top1 {reported.get('top1')} != recomputed {top1}")
    return problems


def train_losses(out: Path) -> list[float]:
    with open(out / "history.csv", newline="") as handle:
        return [float(row["train_loss"]) for row in csv.DictReader(handle)]


def split_count(split: Path, part: str) -> int:
    return len((split / f"{part}.txt").read_text().split())


class Workload:
    """Shared state: a working directory, the seed, the ledger, a tracer."""

    name = ""

    def __init__(self, work: Path, seed: int, ledger: Ledger, tracer):
        self.work = Path(work)
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer
        self.stored = load_reference().get(self.name, {})

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, expected: dict[str, bytes] | None = None) -> Pass:
        raise NotImplementedError

    def reference_values(self) -> dict:
        """The outputs of the set-up's reference run, as stored in
        reference.json."""
        raise NotImplementedError

    def prepare(self, manifest: Path, out: Path, seed: int) -> bool:
        problems, _ = run_cli(["prepare", "--manifest", str(manifest), "--protocol",
                               PROTOCOL, "--seed", str(seed), "--out", str(out)],
                              self.tracer)
        return self.ledger.record("prepare", problems)

    def evaluate(self, config: Path, checkpoint: Path, split: Path, out: Path):
        """One eval command with its output checks; returns (problems, seconds)."""
        problems, seconds = run_cli(
            ["eval", "--config", str(config), "--checkpoint", str(checkpoint),
             "--split", str(split), "--out", str(out)], self.tracer)
        if not problems:
            problems = check_eval(out)
        return problems, seconds


class TrainT30(Workload):
    """prepare -> train -> eval -> analyze at T=30, M=2, B=4, one epoch."""

    name = "train_t30"
    frames, slots, batch, epochs, window = 30, 2, 4, 1, 24
    reference_epochs = 2

    def setup(self) -> None:
        manifest = data.write_dataset(self.work / "data", self.seed, self.frames,
                                      child_per_class=4)
        self.config = write_config(self.work / "run.json", manifest, self.frames,
                                   self.slots, self.batch, self.epochs, self.window)
        # Warm-up: a cycle on fixed reference inputs whose per-epoch train
        # loss is checked against the stored values.
        reference = data.write_dataset(self.work / "reference", REFERENCE_SEED,
                                       self.frames, child_per_class=2)
        config = write_config(self.work / "reference.json", reference, self.frames,
                              self.slots, self.batch, self.reference_epochs,
                              self.window)
        self.cycle(config, self.work / "reference_out", REFERENCE_SEED,
                   self.reference_epochs, reference=self.stored.get("train_loss"))

    def reference_values(self) -> dict:
        return {"train_loss": train_losses(self.work / "reference_out" / "train")}

    def run_pass(self, expected=None) -> Pass:
        return self.cycle(self.config, self.work / "out", self.seed, self.epochs,
                          expected)

    def cycle(self, config: Path, out: Path, seed: int, epochs: int,
              expected=None, reference=False) -> Pass:
        """One checked prepare -> train -> eval -> analyze cycle; times train.

        ``reference`` is the stored per-epoch train loss to compare with,
        or False for no comparison.
        """
        manifest = Path(json.loads(config.read_text())["manifest"])
        split, trained = out / "split", out / "train"
        scored, analysis = out / "eval", out / "analysis"
        failed = Pass(0, None, {})
        if not self.prepare(manifest, split, seed):
            for operation in ("train", "eval", "analyze"):
                self.ledger.record(operation, ["skipped: prepare failed"])
            return failed

        problems, seconds = run_cli(["train", "--config", str(config), "--split",
                                     str(split), "--out", str(trained)], self.tracer)
        outputs = {}
        if not problems:
            outputs = {name: (trained / name).read_bytes()
                       for name in ("checkpoint.ckpt", "history.csv")}
            losses = train_losses(trained)
            if len(losses) != epochs or not np.isfinite(losses).all():
                problems.append(f"train losses {losses} are not finite per epoch")
            if reference is not False:
                problems += matches("train loss", losses, reference)
            problems += compare_outputs(outputs, ("checkpoint.ckpt", "history.csv"),
                                        expected)
        if not self.ledger.record("train", problems):
            for operation in ("eval", "analyze"):
                self.ledger.record(operation, ["skipped: train failed"])
            return failed

        problems, _ = self.evaluate(config, trained / "checkpoint.ckpt", split, scored)
        if not problems:
            outputs["predictions.csv"] = (scored / "predictions.csv").read_bytes()
            problems += compare_outputs(outputs, ("predictions.csv",), expected)
        self.ledger.record("eval", problems)

        problems, _ = run_cli(["analyze", "--predictions", str(scored / "predictions.csv"),
                               "--split", str(split), "--out", str(analysis)], self.tracer)
        if not problems:
            report = json.loads((analysis / "report.json").read_text())
            if report.get("class_count") != len(data.CLASSES):
                problems.append(f"report covers {report.get('class_count')} classes")
        self.ledger.record("analyze", problems)
        return Pass(split_count(split, "train") * epochs, seconds, outputs)


class EvalT300(Workload):
    """``skelact eval`` of a seeded checkpoint at T=300, M=1, B=1."""

    name = "eval_t300"
    frames, slots, batch = 300, 1, 1

    def setup(self) -> None:
        # One child sample per class: KS-Full puts every one of them in the
        # test split, and nothing is generated that eval would not read.
        manifest = data.write_dataset(self.work / "data", self.seed, self.frames,
                                      child_per_class=1, adult_per_class=0)
        self.config = write_config(self.work / "run.json", manifest, self.frames,
                                   self.slots, self.batch, 1, self.frames)
        self.checkpoint = self.work / "checkpoint.ckpt"
        model = ModelConfig(layout="COCO18", person_slots=self.slots,
                            target_frames=self.frames,
                            channel_plan=tuple(map(tuple, PAPER_PLAN)), seed=0)
        save_weights(model.build(len(data.CLASSES)), self.checkpoint)
        self.split = self.work / "split"
        self.prepare(manifest, self.split, self.seed)

        # Warm-up: fixed reference inputs whose logits are checked against
        # the stored values.
        reference = data.write_dataset(self.work / "reference", REFERENCE_SEED,
                                       self.frames, child_per_class=1,
                                       adult_per_class=0)
        config = write_config(self.work / "reference.json", reference, self.frames,
                              self.slots, self.batch, 1, self.frames)
        split = self.work / "reference_split"
        if self.prepare(reference, split, REFERENCE_SEED):
            problems, _ = self.evaluate(config, self.checkpoint, split,
                                        self.work / "reference_out")
            if not problems:
                problems = matches("logits", self.reference_values()["logits"],
                                   self.stored.get("logits"))
        else:
            problems = ["skipped: prepare failed"]
        self.ledger.record("eval", problems)

    def reference_values(self) -> dict:
        predictions = self.work / "reference_out" / "predictions.csv"
        return {"logits": read_predictions(predictions)[2].tolist()}

    def run_pass(self, expected=None) -> Pass:
        out = self.work / "out"
        problems, seconds = self.evaluate(self.config, self.checkpoint, self.split, out)
        outputs = {}
        if not problems:
            outputs = {"predictions.csv": (out / "predictions.csv").read_bytes()}
            problems = compare_outputs(outputs, ("predictions.csv",), expected)
        if not self.ledger.record("eval", problems):
            return Pass(0, None, {})
        return Pass(split_count(self.split, "test"), seconds, outputs)


WORKLOADS = {cls.name: cls for cls in (TrainT30, EvalT300)}
