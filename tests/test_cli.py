"""Command line workflows: prepare, train, eval, analyze."""
import csv
import json

import numpy as np
import pytest

from skelact import load_split
from skelact.cli import main
from helpers import build_manifest_tree


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A manifest tree plus one completed prepare/train/eval chain."""
    root = tmp_path_factory.mktemp("cli")
    manifest = build_manifest_tree(root / "data", per_class=8, frames=10)
    config = {
        "manifest": "data/manifest.json",
        "model": {"layout": "COCO18", "person_slots": 1, "target_frames": 10,
                  "channel_plan": [[4, 1], [8, 2]], "seed": 0},
        "train": {"base_lr": 0.05, "epochs": 3, "batch_size": 4,
                  "decay_boundaries": [], "seed": 0},
    }
    (root / "run.json").write_text(json.dumps(config))
    assert main(["prepare", "--manifest", str(manifest),
                 "--protocol", "KS-Full", "--out", str(root / "split")]) == 0
    assert main(["train", "--config", str(root / "run.json"),
                 "--split", str(root / "split"),
                 "--out", str(root / "run1")]) == 0
    assert main(["eval", "--config", str(root / "run.json"),
                 "--checkpoint", str(root / "run1" / "checkpoint.ckpt"),
                 "--split", str(root / "split"),
                 "--out", str(root / "eval1")]) == 0
    return root


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# -------------------------------------------------------------------- prepare

def test_prepare_writes_a_loadable_split(workspace, capsys):
    split = load_split(workspace / "split")
    assert split.protocol == "KS-Full"
    assert split.class_names == ("wave", "jump", "spin")
    assert len(split.train_ids) == 18
    assert len(split.test_ids) == 6
    assert not set(split.train_ids) & set(split.test_ids)
    summary = json.loads((workspace / "split" / "summary.json").read_text())
    assert summary["class_counts"] == {"wave": 8, "jump": 8, "spin": 8}

    assert main(["prepare", "--manifest", str(workspace / "data/manifest.json"),
                 "--protocol", "KS-Full", "--seed", "0",
                 "--out", str(workspace / "split_again")]) == 0
    out = capsys.readouterr().out
    assert "KS-Full: 18 train / 6 test" in out
    again = load_split(workspace / "split_again")
    assert again.train_ids == split.train_ids
    assert again.test_ids == split.test_ids


def test_prepare_seed_changes_the_split(workspace):
    assert main(["prepare", "--manifest", str(workspace / "data/manifest.json"),
                 "--protocol", "KS-Full", "--seed", "1",
                 "--out", str(workspace / "split_seed1")]) == 0
    assert (load_split(workspace / "split_seed1").train_ids
            != load_split(workspace / "split").train_ids)


def test_prepare_no_stratify_pools_the_samples(workspace):
    assert main(["prepare", "--manifest", str(workspace / "data/manifest.json"),
                 "--protocol", "KS-Full", "--no-stratify",
                 "--out", str(workspace / "split_pooled")]) == 0
    pooled = load_split(workspace / "split_pooled")
    assert len(pooled.train_ids) == 18
    assert len(pooled.test_ids) == 6


def test_prepare_rejects_unknown_protocols(workspace):
    with pytest.raises(SystemExit) as info:
        main(["prepare", "--manifest", str(workspace / "data/manifest.json"),
              "--protocol", "KS-Tiny", "--out", str(workspace / "x")])
    assert info.value.code == 2


def test_prepare_insufficient_data_exits_2(workspace, capsys):
    code = main(["prepare", "--manifest", str(workspace / "data/manifest.json"),
                 "--protocol", "KS-Balanced", "--out", str(workspace / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "needs 5 classes" in err


def test_prepare_missing_manifest_exits_2(workspace, capsys):
    assert main(["prepare", "--manifest", str(workspace / "nowhere.json"),
                 "--protocol", "KS-Full", "--out", str(workspace / "x")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_prepare_bad_manifest_values_exit_2(workspace, capsys):
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc["records"][0]["fps"] = -3
    bad = workspace / "bad_manifest.json"
    bad.write_text(json.dumps(doc))
    assert main(["prepare", "--manifest", str(bad), "--protocol", "KS-Full",
                 "--out", str(workspace / "x")]) == 2
    assert ".fps: must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_history(workspace, capsys):
    run = workspace / "run1"
    assert (run / "checkpoint.ckpt").is_file()
    header, rows = read_csv(run / "history.csv")
    assert header == ["epoch", "lr", "train_loss", "train_top1", "test_top1"]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(float(row[1]) == 0.05 for row in rows)


def test_train_rerun_is_byte_identical(workspace):
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "run2")]) == 0
    for name in ("checkpoint.ckpt", "history.csv"):
        assert (workspace / "run1" / name).read_bytes() == \
            (workspace / "run2" / name).read_bytes()


def test_train_missing_split_exits_2(workspace, capsys):
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--split", str(workspace / "no_split"),
                 "--out", str(workspace / "x")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_train_transfer_requires_the_checkpoint_file(workspace, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["train"]["mode"] = "fine_tune"
    doc["train"]["source_checkpoint"] = "missing.ckpt"
    config = workspace / "transfer.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert "missing.ckpt" in capsys.readouterr().err


def test_train_transfer_mode_without_checkpoint_exits_2(workspace, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["train"]["mode"] = "propagation"
    config = workspace / "no_source.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert "source_checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------- eval

def test_eval_outputs_are_internally_consistent(workspace):
    split = load_split(workspace / "split")
    header, rows = read_csv(workspace / "eval1" / "predictions.csv")
    assert header[:3] == ["sample_id", "label", "prediction"]
    logit_columns = [i for i, n in enumerate(header) if n.startswith("logit_")]
    assert len(logit_columns) == 3
    assert sorted(row[0] for row in rows) == sorted(split.test_ids)
    hits = 0
    for row in rows:
        logits = np.array([float(row[i]) for i in logit_columns])
        assert int(row[2]) == int(np.argmax(logits))
        hits += int(row[1] == row[2])

    metrics = dict(read_csv(workspace / "eval1" / "metrics.csv")[1])
    assert float(metrics["top1"]) == pytest.approx(hits / len(rows))
    assert 0.0 <= float(metrics["top5"]) <= 1.0

    header, matrix_rows = read_csv(workspace / "eval1" / "confusion.csv")
    assert header == ["class", "wave", "jump", "spin"]
    counts = np.array([[int(v) for v in row[1:]] for row in matrix_rows])
    assert counts.sum() == len(rows)
    assert counts.trace() == hits

    header, class_rows = read_csv(workspace / "eval1" / "classwise.csv")
    assert [row[1] for row in class_rows] == ["wave", "jump", "spin"]
    for index, row in enumerate(class_rows):
        support = int(row[2])
        assert counts[index].sum() == support
        assert float(row[3]) == pytest.approx(counts[index, index] / support)


def test_eval_top1_matches_the_best_training_epoch(workspace):
    # cmd_train stores the best-scoring snapshot, so eval on its
    # checkpoint reproduces the best test accuracy from the history.
    _, history = read_csv(workspace / "run1" / "history.csv")
    best = max(float(row[4]) for row in history)
    metrics = dict(read_csv(workspace / "eval1" / "metrics.csv")[1])
    assert float(metrics["top1"]) == best


def test_eval_rerun_is_byte_identical(workspace):
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "eval2")]) == 0
    for name in ("predictions.csv", "metrics.csv", "confusion.csv",
                 "classwise.csv"):
        assert (workspace / "eval1" / name).read_bytes() == \
            (workspace / "eval2" / name).read_bytes()


def test_eval_layout_mismatch_exits_2(workspace, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["model"]["layout"] = "BODY25"
    config = workspace / "body25.json"
    config.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(config),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert "BODY25" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(workspace):
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "ghost.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2


# -------------------------------------------------------------------- analyze

def write_predictions(path, split, accuracy_by_class, confidence_by_class,
                      extra_rows=(), drop=()):
    """Crafted predictions covering the split's test ids."""
    class_index = {name: i for i, name in enumerate(split.class_names)}
    rows = []
    seen = {name: 0 for name in split.class_names}
    counts = {name: sum(1 for i in split.test_ids if i.startswith(name))
              for name in split.class_names}
    for sample_id in split.test_ids:
        if sample_id in drop:
            continue
        name = sample_id.rsplit("_", 1)[0]
        label = class_index[name]
        correct = seen[name] < round(accuracy_by_class[name] * counts[name])
        seen[name] += 1
        prediction = label if correct else (label + 1) % len(class_index)
        rows.append([sample_id, label, prediction,
                     repr(confidence_by_class[name])])
    rows.extend(extra_rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "label", "prediction", "confidence_0"])
        writer.writerows(rows)
    return path


def test_analyze_reports_known_correlations(workspace, capsys):
    split = load_split(workspace / "split")
    predictions = write_predictions(
        workspace / "crafted.csv", split,
        {"wave": 1.0, "jump": 0.5, "spin": 0.0},
        {"wave": 0.9, "jump": 0.6, "spin": 0.3},
    )
    assert main(["analyze", "--predictions", str(predictions),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "analysis")]) == 0
    assert "pearson" in capsys.readouterr().out
    report = json.loads((workspace / "analysis" / "report.json").read_text())
    # Confidence is affine in accuracy, so both correlations are one.
    assert report["pearson"] == pytest.approx(1.0, abs=1e-12)
    assert report["spearman"] == pytest.approx(1.0, abs=1e-12)
    assert report["class_count"] == 3
    by_name = {entry["name"]: entry for entry in report["classes"]}
    assert by_name["wave"]["accuracy"] == 1.0
    assert by_name["jump"]["accuracy"] == 0.5
    assert by_name["spin"]["accuracy"] == 0.0
    assert by_name["wave"]["position"] == 1
    assert by_name["spin"]["position"] == 3
    header, scatter = read_csv(workspace / "analysis" / "scatter.csv")
    assert header == ["class_index", "class_name", "accuracy", "confidence"]
    assert len(scatter) == 3


def test_analyze_ignores_rows_outside_the_split(workspace):
    split = load_split(workspace / "split")
    with_extras = write_predictions(
        workspace / "extras.csv", split,
        {"wave": 1.0, "jump": 0.5, "spin": 0.0},
        {"wave": 0.9, "jump": 0.6, "spin": 0.3},
        extra_rows=[["stranger_000", 0, 1, "0.1"],
                    ["stranger_001", 2, 2, "0.99"]],
    )
    assert main(["analyze", "--predictions", str(with_extras),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "analysis_extras")]) == 0
    assert (workspace / "analysis_extras" / "report.json").read_bytes() == \
        (workspace / "analysis" / "report.json").read_bytes()


def test_analyze_missing_coverage_exits_2_and_names_ids(workspace, capsys):
    split = load_split(workspace / "split")
    dropped = split.test_ids[0]
    partial = write_predictions(
        workspace / "partial.csv", split,
        {"wave": 1.0, "jump": 0.5, "spin": 0.0},
        {"wave": 0.9, "jump": 0.6, "spin": 0.3},
        drop={dropped},
    )
    assert main(["analyze", "--predictions", str(partial),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert dropped in capsys.readouterr().err


def test_analyze_degenerate_correlation_exits_3(workspace, capsys):
    split = load_split(workspace / "split")
    perfect = write_predictions(
        workspace / "perfect.csv", split,
        {"wave": 1.0, "jump": 1.0, "spin": 1.0},
        {"wave": 0.9, "jump": 0.6, "spin": 0.3},
    )
    assert main(["analyze", "--predictions", str(perfect),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 3
    assert "constant" in capsys.readouterr().err


def test_analyze_rejects_malformed_predictions(workspace, capsys):
    bad = workspace / "bad.csv"
    bad.write_text("sample_id,label\nwave_000,0\n")
    assert main(["analyze", "--predictions", str(bad),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    empty = workspace / "empty.csv"
    empty.write_text("")
    assert main(["analyze", "--predictions", str(empty),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2


def test_analyze_full_chain_on_real_eval_output(workspace):
    assert main(["analyze", "--predictions",
                 str(workspace / "eval1" / "predictions.csv"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "analysis_real")]) == 0
    report = json.loads(
        (workspace / "analysis_real" / "report.json").read_text())
    assert -1.0 <= report["pearson"] <= 1.0
    assert -1.0 <= report["spearman"] <= 1.0
    assert {entry["name"] for entry in report["classes"]} == \
        {"wave", "jump", "spin"}
