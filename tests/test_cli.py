"""Command line workflows: prepare, train, eval, analyze."""
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skelact.cli
import skelact.model
import skelact.train
from skelact import (
    AugmentConfig,
    ConfigurationError,
    ModelConfig,
    MoveParams,
    RunConfig,
    TrainConfig,
    load_run_config,
    load_split,
    load_weights,
    read_checkpoint,
    save_weights,
)
from skelact.cli import main
from helpers import build_manifest_tree, rewrite_checkpoint


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


@pytest.mark.parametrize("sample_id", ["", "wave\r000", "wave\u2028000"],
                         ids=["empty", "carriage_return", "line_separator"])
def test_prepare_rejects_a_sample_id_a_split_file_cannot_hold(workspace, tmp_path,
                                                              capsys, sample_id):
    # train.txt and test.txt hold one id per line, read with str.splitlines.
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc["records"][0]["sample_id"] = sample_id
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "split"
    assert main(["prepare", "--manifest", str(bad), "--protocol", "KS-Full",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"manifest {bad}: records[0].sample_id: must be one non-empty line" in err
    assert not out.exists()


def test_prepare_non_number_fps_exits_2(workspace, capsys):
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    doc["records"][0]["fps"] = "30"
    bad = workspace / "string_fps_manifest.json"
    bad.write_text(json.dumps(doc))
    assert main(["prepare", "--manifest", str(bad), "--protocol", "KS-Full",
                 "--out", str(workspace / "x")]) == 2
    assert "records[0].fps: expected float" in capsys.readouterr().err


def test_prepare_repeated_manifest_key_exits_2(workspace, tmp_path, capsys):
    # json.loads keeps the last of two equal keys: this record read as fps 30.
    text = (workspace / "data" / "manifest.json").read_text()
    bad = tmp_path / "manifest.json"
    bad.write_text(text.replace('"fps": 30.0', '"fps": 25, "fps": 30.0', 1))
    assert main(["prepare", "--manifest", str(bad), "--protocol", "KS-Full",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"manifest {bad}: duplicate key 'fps'" in capsys.readouterr().err


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


def test_reruns_are_byte_identical_at_one_blas_thread_count(workspace, tmp_path):
    # The bits of a matrix product may depend on how many threads share it,
    # so runs at 1 and 2 OpenBLAS threads need only agree to rounding.
    config = write_run_config(workspace, tmp_path, "train",
                              dict(epochs=1, batch_size=9, momentum=0.9))
    src = str(Path(skelact.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in (1, 2):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
        for rerun in (0, 1):
            subprocess.run([sys.executable, "-m", "skelact.cli", "train",
                            "--config", str(config), "--split", str(workspace / "split"),
                            "--out", str(tmp_path / f"{threads}-{rerun}")],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("checkpoint.ckpt", "history.csv"):
            assert (tmp_path / f"{threads}-0" / name).read_bytes() == \
                (tmp_path / f"{threads}-1" / name).read_bytes()
    one, two = (read_checkpoint(tmp_path / f"{threads}-0" / "checkpoint.ckpt")[1]
                for threads in (1, 2))
    for name, array in one.items():
        assert np.abs(two[name] - array).max() <= 1e-12 * np.abs(array).max(), name
    (_, first), (_, second) = (read_csv(tmp_path / f"{threads}-0" / "history.csv")
                               for threads in (1, 2))
    assert len(first) == 1
    assert abs(float(second[0][2]) - float(first[0][2])) <= 1e-12 * float(first[0][2])


def test_the_cli_module_runs_without_a_warning():
    # The package root must not import skelact.cli, or runpy warns that the
    # module it is about to run is already in sys.modules.
    src = str(Path(skelact.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "skelact.cli", "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "usage: skelact" in done.stdout


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


def test_train_checks_the_source_checkpoint_before_reading_a_keypoint_file(
        workspace, tmp_path, monkeypatch, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    other = ModelConfig(**{**doc["model"], "channel_plan": [[4, 1]]})
    save_weights(other.build(3), tmp_path / "other.ckpt")
    doc["manifest"] = str(workspace / doc["manifest"])
    doc["train"].update(mode="fine_tune", source_checkpoint=str(tmp_path / "other.ckpt"))
    config = tmp_path / "transfer.json"
    config.write_text(json.dumps(doc))
    calls = []
    load = skelact.train.load_sequence

    def counting(*args, **kwargs):
        calls.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(skelact.train, "load_sequence", counting)
    assert main(["train", "--config", str(config), "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "channel_plan" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_train_rejects_an_empty_test_split_before_the_first_step(
        workspace, tmp_path, monkeypatch, capsys):
    split = tmp_path / "split"
    shutil.copytree(workspace / "split", split)
    (split / "test.txt").write_text("")
    summary = json.loads((split / "summary.json").read_text())
    summary["test_count"] = 0
    (split / "summary.json").write_text(json.dumps(summary))
    steps = []
    monkeypatch.setattr(skelact.train.SGD, "step", lambda self, lr: steps.append(lr))
    assert main(["train", "--config", str(workspace / "run.json"), "--split", str(split),
                 "--out", str(tmp_path / "out")]) == 2
    assert steps == []
    assert "test dataset is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_transfer_mode_without_checkpoint_exits_2(workspace, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["train"]["mode"] = "propagation"
    config = workspace / "no_source.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert "source_checkpoint" in capsys.readouterr().err


def test_train_divergence_exits_3_and_writes_nothing(workspace, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["train"]["base_lr"] = 1e300
    config = workspace / "diverge.json"
    config.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(config),
                     "--split", str(workspace / "split"),
                     "--out", str(workspace / "diverged")])
    assert code == 3
    assert "epoch 0, batch 1: loss is nan" in capsys.readouterr().err
    assert not (workspace / "diverged" / "checkpoint.ckpt").exists()


NON_FINITE_FIELDS = {
    "weight_decay-NaN": (("train", "weight_decay"), float("nan")),
    "weight_decay-Infinity": (("train", "weight_decay"), float("inf")),
    "base_lr-Infinity": (("train", "base_lr"), float("inf")),
    "rotation-NaN": (("train", "augmentation", "move_params", "rotation"), float("nan")),
    "translation-NaN": (("train", "augmentation", "move_params", "translation"),
                        float("nan")),
}


@pytest.mark.parametrize("keys, value", NON_FINITE_FIELDS.values(),
                         ids=NON_FINITE_FIELDS.keys())
def test_train_rejects_a_non_finite_config_number_with_exit_2(keys, value, workspace,
                                                               tmp_path, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["manifest"] = str(workspace / "data" / "manifest.json")
    doc["train"]["augmentation"] = {"move": True}
    section = doc
    for key in keys[:-1]:
        section = section.setdefault(key, {})
    section[keys[-1]] = value
    config = tmp_path / "run.json"
    # json writes the NaN and Infinity literals that json.loads accepts.
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config), "--split",
                 str(workspace / "split"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"config {config}: {'.'.join(keys)}: must be a finite number" in err
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


def oversized_integer(sample):
    """Frame 3 gets a 400-digit integer in place of person 0's first x."""
    path = sample / "000003.json"
    doc = json.loads(path.read_text())
    doc["people"][0]["pose_keypoints_2d"][0] = "BIG"
    path.write_text(json.dumps(doc).replace('"BIG"', "9" * 400))
    return path.name


def directory_frame(sample):
    (sample / "000030.json").mkdir()
    return "000030.json"


def config_with_a_broken_frame(workspace, tmp_path, sample_id, breaker):
    """A copy of the workspace's run config whose manifest points sample
    ``sample_id`` at a copy of its frames broken by ``breaker``; returns
    the config path and the broken file's name."""
    doc = json.loads((workspace / "data" / "manifest.json").read_text())
    for record in doc["records"]:
        if record["sample_id"] == sample_id:
            shutil.copytree(record["keypoint_path"], tmp_path / sample_id)
            record["keypoint_path"] = str(tmp_path / sample_id)
    broken = breaker(tmp_path / sample_id)
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    config = json.loads((workspace / "run.json").read_text())
    config["manifest"] = str(tmp_path / "manifest.json")
    (tmp_path / "run.json").write_text(json.dumps(config))
    return tmp_path / "run.json", broken


@pytest.mark.parametrize("breaker, fragment", [
    (oversized_integer, "person 0, joint 0"),
    (directory_frame, "000030.json: cannot read keypoint file"),
])
def test_train_on_a_broken_frame_exits_3_naming_it(breaker, fragment, workspace,
                                                    tmp_path, capsys):
    sample_id = load_split(workspace / "split").train_ids[0]
    config, broken = config_with_a_broken_frame(workspace, tmp_path, sample_id, breaker)
    assert main(["train", "--config", str(config),
                 "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert f"{sample_id}/{broken}" in err
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_broken_frame_exits_3_and_leaves_no_out(command, workspace, tmp_path, capsys):
    # eval reads only the test samples, train both parts.
    split = load_split(workspace / "split")
    sample_id = (split.train_ids if command == "train" else split.test_ids)[0]
    config, broken = config_with_a_broken_frame(workspace, tmp_path, sample_id,
                                                oversized_integer)
    checkpoint = ["--checkpoint", str(workspace / "run1" / "checkpoint.ckpt")]
    assert main([command, "--config", str(config), "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]
                + (checkpoint if command == "eval" else [])) == 3
    assert f"{sample_id}/{broken}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_on_a_dangling_symlink_frame_exits_3_naming_it(workspace, tmp_path,
                                                             capsys):
    sample_id = load_split(workspace / "split").test_ids[0]

    def dangling_symlink(sample):
        (sample / "000030.json").symlink_to(sample / "gone.json")
        return "000030.json"

    config, broken = config_with_a_broken_frame(workspace, tmp_path, sample_id,
                                                dangling_symlink)
    assert main(["eval", "--config", str(config), "--split", str(workspace / "split"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{sample_id}/{broken}: cannot read keypoint file" in err
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------- eval

def test_eval_of_a_nan_checkpoint_exits_3_and_writes_no_scores(workspace, capsys):
    config = load_run_config(workspace / "run.json")
    net = config.model.build(3)
    load_weights(net, workspace / "run1" / "checkpoint.ckpt")
    net.state_arrays()["blocks.0.gcn_weight.0"][0, 0] = np.nan
    poisoned = workspace / "nan.ckpt"
    save_weights(net, poisoned)
    with np.errstate(all="ignore"):
        code = main(["eval", "--config", str(workspace / "run.json"),
                     "--checkpoint", str(poisoned),
                     "--split", str(workspace / "split"),
                     "--out", str(workspace / "eval_nan")])
    assert code == 3
    assert "evaluation batch 0: logits are not finite" in capsys.readouterr().err
    assert not (workspace / "eval_nan" / "predictions.csv").exists()
    assert not (workspace / "eval_nan" / "metrics.csv").exists()


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


def test_eval_reads_the_checkpoint_once(workspace, tmp_path, monkeypatch):
    calls = []
    read = skelact.model.read_checkpoint

    def counting(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(skelact.model, "read_checkpoint", counting)
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "eval")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "eval" / "predictions.csv").read_bytes() == \
        (workspace / "eval1" / "predictions.csv").read_bytes()


def test_eval_builds_a_network_with_no_gradient_buffers(workspace, tmp_path,
                                                        monkeypatch):
    networks = []
    load = skelact.cli.load_weights

    def spying(net, path):
        networks.append(net)
        return load(net, path)

    monkeypatch.setattr(skelact.cli, "load_weights", spying)
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "eval")]) == 0
    (net,) = networks
    assert [name for name, tensor in net.named_parameters().items()
            if tensor.grad is not None] == []
    assert (tmp_path / "eval" / "predictions.csv").read_bytes() == \
        (workspace / "eval1" / "predictions.csv").read_bytes()


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
    assert not (workspace / "x").exists()


def test_eval_zero_confidence_mismatch_exits_2(workspace, capsys):
    # The run1 checkpoint was trained on all three channels.
    doc = json.loads((workspace / "run.json").read_text())
    doc["model"]["zero_confidence"] = True
    config = workspace / "zero_confidence.json"
    config.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(config),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split"),
                 "--out", str(workspace / "x")]) == 2
    assert "checkpoint zero_confidence is False" in capsys.readouterr().err
    assert not (workspace / "x").exists()


def test_eval_rejects_a_format_2_checkpoint_with_a_conv_bias(workspace, tmp_path,
                                                           capsys):
    # Format 2 has no conv biases; only a format-1 file's are folded away.
    stray = tmp_path / "stray.ckpt"
    rewrite_checkpoint(workspace / "run1" / "checkpoint.ckpt", stray, 2,
                       {"blocks.0.gcn_bias": np.zeros(4)})
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(stray), "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "eval")]) == 2
    assert "unexpected ['blocks.0.gcn_bias']" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "predictions.csv").exists()


def test_eval_of_a_split_whose_test_part_lacks_a_class_exits_2_and_leaves_no_out(
        workspace, tmp_path, capsys):
    # The per-class table needs every class in the test part; it is built
    # before --out is made, so the failure writes no partial scores.
    split = tmp_path / "split"
    shutil.copytree(workspace / "split", split)
    test_ids = [i for i in (split / "test.txt").read_text().splitlines()
                if not i.startswith("jump_")]
    (split / "test.txt").write_text("".join(f"{i}\n" for i in test_ids))
    summary = json.loads((split / "summary.json").read_text())
    summary["test_count"] = len(test_ids)
    (split / "summary.json").write_text(json.dumps(summary))
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(split), "--out", str(tmp_path / "out")]) == 2
    assert "class 'jump' has no samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_analyze_an_undefined_correlation_exits_3_and_leaves_no_out(workspace, tmp_path,
                                                                    capsys):
    # Every class at one accuracy: the correlation with confidence is
    # undefined, which is known only after the predictions are read.
    split = load_split(workspace / "split")
    even = write_predictions(
        tmp_path / "even.csv", split,
        {"wave": 0.5, "jump": 0.5, "spin": 0.5},
        {"wave": 0.9, "jump": 0.6, "spin": 0.3},
    )
    assert main(["analyze", "--predictions", str(even),
                 "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 3
    assert "constant" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5"])
def test_analyze_rejects_a_confidence_outside_0_1_before_writing(value, workspace,
                                                                 tmp_path, capsys):
    split = load_split(workspace / "split")
    predictions = write_predictions(
        tmp_path / "predictions.csv", split,
        {"wave": 1.0, "jump": 0.5, "spin": 0.0},
        {"wave": 0.9, "jump": float(value), "spin": 0.3},
    )
    assert main(["analyze", "--predictions", str(predictions),
                 "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "predictions.csv row " in err
    assert f"confidence_0 must lie in [0, 1], got {float(value)}" in err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out").exists()


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


# ----------------------------------------------------------------------- --out

def argv_with_out(command, workspace, out):
    inputs = {
        "prepare": ["--manifest", str(workspace / "data" / "manifest.json"),
                    "--protocol", "KS-Full"],
        "train": ["--config", str(workspace / "run.json"),
                  "--split", str(workspace / "split")],
        "eval": ["--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "run1" / "checkpoint.ckpt"),
                 "--split", str(workspace / "split")],
        "analyze": ["--predictions", str(workspace / "eval1" / "predictions.csv"),
                    "--split", str(workspace / "split")],
    }
    return [command, *inputs[command], "--out", str(out)]


@pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("command", ["prepare", "train", "eval", "analyze"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_any_work(
        command, below, workspace, tmp_path, capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(skelact.train.SGD, "step", lambda self, lr: steps.append(lr))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    assert main(argv_with_out(command, workspace, out)) == 2
    assert f"error: out {out}: not a directory" in capsys.readouterr().err
    assert steps == []
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept\n"


def test_an_out_below_a_missing_directory_is_made_at_the_first_write(
        workspace, tmp_path):
    out = tmp_path / "new" / "analysis"
    assert main(argv_with_out("analyze", workspace, out)) == 0
    assert sorted(path.name for path in out.iterdir()) == ["report.json",
                                                           "scatter.csv"]


# ------------------------------------------------------- boundary rejections

def train_with(section, key, value):
    def argv(workspace, tmp_path):
        doc = json.loads((workspace / "run.json").read_text())
        doc["manifest"] = str(workspace / "data" / "manifest.json")
        doc[section][key] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        return ["train", "--config", str(config), "--split",
                str(workspace / "split"), "--out", str(tmp_path / "out")]
    return argv


def prepare_with(seed=0, shares=None):
    def argv(workspace, tmp_path):
        manifest = workspace / "data" / "manifest.json"
        if shares is not None:
            doc = json.loads(manifest.read_text())
            doc["child_percentage"] = shares
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(doc))
        return ["prepare", "--manifest", str(manifest), "--protocol", "KS-Small-C",
                "--seed", str(seed), "--out", str(tmp_path / "out")]
    return argv


def analyze_with(row=None, summary=None):
    def argv(workspace, tmp_path):
        split = workspace / "split"
        if summary is not None:
            split = tmp_path / "split"
            shutil.copytree(workspace / "split", split)
            (split / "summary.json").write_text(summary)
        predictions = workspace / "eval1" / "predictions.csv"
        if row is not None:
            predictions = tmp_path / "predictions.csv"
            predictions.write_text(
                "sample_id,label,prediction,confidence_0\n" + row + "\n")
        return ["analyze", "--predictions", str(predictions), "--split", str(split),
                "--out", str(tmp_path / "out")]
    return argv


BOUNDARY_CASES = {
    "unknown-model-layout": (train_with("model", "layout", "FOO"),
                             "model.layout: unknown skeleton layout 'FOO'"),
    "negative-model-seed": (train_with("model", "seed", -1),
                            "model.seed: must be non-negative"),
    "negative-train-seed": (train_with("train", "seed", -1),
                            "train.seed: must be non-negative"),
    "negative-prepare-seed": (prepare_with(seed=-1), "seed: must be non-negative"),
    "string-child-share": (prepare_with(shares={"wave": "high"}),
                           "manifest.json: child_percentage[wave]"),
    "list-child-share": (prepare_with(shares={"wave": [50]}),
                         "manifest.json: child_percentage[wave]"),
    "NaN-child-share": (prepare_with(shares={"spin": float("nan")}),
                        "manifest.json: child_percentage[spin]"),
    "negative-child-share": (prepare_with(shares={"jump": -5}),
                             "manifest.json: child_percentage[jump]"),
    "child-share-above-100": (prepare_with(shares={"jump": 250}),
                              "manifest.json: child_percentage[jump]"),
    "non-integer-label": (analyze_with(row="wave_000,zero,0,0.5"),
                          "predictions.csv row 2"),
    "short-prediction-row": (analyze_with(row="wave_000,0"),
                             "predictions.csv row 2"),
    "repeated-sample-id": (analyze_with(row="wave_000,0,0,0.9\nwave_000,0,1,0.1"),
                           "predictions.csv row 3: sample_id 'wave_000' repeats row 2"),
    "split-summary-not-an-object": (analyze_with(summary="[1, 2]"),
                                    "summary.json: expected an object"),
    "split-summary-seed-not-a-number": (
        analyze_with(summary='{"protocol": "KS-Full", "seed": "x", "classes": '
                             '["wave", "jump", "spin"], "train_count": 18, '
                             '"test_count": 6}'),
        "summary.json: seed: expected int"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_bad_input_exits_2_naming_the_problem(case, workspace, tmp_path, capsys):
    argv, fragment = BOUNDARY_CASES[case]
    assert main(argv(workspace, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert not (tmp_path / "out").exists()


MOVE = "train.augmentation.move_params"
# Every setting a config dataclass rejects: where its object sits in a run
# config, the dataclass, the bad values, and the field its message names.
REJECTED_SETTINGS = {
    "layout": ("model", ModelConfig, dict(layout="hexapod"), "layout"),
    "person_slots": ("model", ModelConfig, dict(person_slots=0), "person_slots"),
    "target_frames": ("model", ModelConfig, dict(target_frames=0), "target_frames"),
    "model-seed": ("model", ModelConfig, dict(seed=-1), "seed"),
    "person_pool": ("model", ModelConfig, dict(person_pool="median"), "person_pool"),
    "dropout-negative": ("model", ModelConfig, dict(dropout=-0.1), "dropout"),
    "dropout-one": ("model", ModelConfig, dict(dropout=1.0), "dropout"),
    "channel_plan-empty": ("model", ModelConfig, dict(channel_plan=()), "channel_plan"),
    "channel_plan-stride": ("model", ModelConfig, dict(channel_plan=((4, 1), (4, 0))),
                            "channel_plan[1]"),
    "mode": ("train", TrainConfig, dict(mode="transfer"), "mode"),
    "base_lr-zero": ("train", TrainConfig, dict(base_lr=0.0), "base_lr"),
    "base_lr-negative": ("train", TrainConfig, dict(base_lr=-0.1), "base_lr"),
    "decay_factor-zero": ("train", TrainConfig, dict(decay_factor=0.0), "decay_factor"),
    "decay_factor-one": ("train", TrainConfig, dict(decay_factor=1.0), "decay_factor"),
    "decay_boundaries-repeated": ("train", TrainConfig, dict(decay_boundaries=(10, 10)),
                                  "decay_boundaries"),
    "decay_boundaries-descending": ("train", TrainConfig,
                                    dict(decay_boundaries=(20, 10)), "decay_boundaries"),
    "decay_boundaries-negative": ("train", TrainConfig, dict(decay_boundaries=(-1, 5)),
                                  "decay_boundaries"),
    "batch_size": ("train", TrainConfig, dict(batch_size=0), "batch_size"),
    "epochs": ("train", TrainConfig, dict(epochs=0), "epochs"),
    "train-seed": ("train", TrainConfig, dict(seed=-1), "seed"),
    "momentum-one": ("train", TrainConfig, dict(momentum=1.0), "momentum"),
    "momentum-negative": ("train", TrainConfig, dict(momentum=-0.1), "momentum"),
    "weight_decay": ("train", TrainConfig, dict(weight_decay=-0.5), "weight_decay"),
    "source_checkpoint": ("train", TrainConfig, dict(mode="fine_tune"),
                          "source_checkpoint"),
    "source_checkpoint-vanilla": ("train", TrainConfig,
                                  dict(source_checkpoint="base.ckpt"), "source_checkpoint"),
    "window_size": ("train.augmentation", AugmentConfig, dict(window_size=0),
                    "window_size"),
    "window_pad_position": ("train.augmentation", AugmentConfig,
                            dict(window_pad_position="left"), "window_pad_position"),
    "drop_rate": ("train.augmentation", AugmentConfig, dict(drop_rate=1.5), "drop_rate"),
    "rotation": (MOVE, MoveParams, dict(rotation=-0.1), "rotation"),
    "scale_min-zero": (MOVE, MoveParams, dict(scale_min=0.0), "scale_min"),
    "scale_min-above-scale_max": (MOVE, MoveParams, dict(scale_min=1.2, scale_max=1.1),
                                  "scale_min"),
    "translation": (MOVE, MoveParams, dict(translation=-1.0), "translation"),
    "anchors": (MOVE, MoveParams, dict(anchors=0), "anchors"),
}


def write_run_config(workspace, tmp_path, where, values):
    """The workspace's run config with ``values`` set in the object at ``where``."""
    doc = json.loads((workspace / "run.json").read_text())
    doc["manifest"] = str(workspace / "data" / "manifest.json")
    section = doc
    for key in where.split("."):
        section = section.setdefault(key, {})
    section.update(values)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    return config


@pytest.mark.parametrize("case", REJECTED_SETTINGS)
def test_each_rejected_setting_names_its_field_and_exits_2_before_out(
        case, workspace, tmp_path, capsys):
    where, cls, values, name = REJECTED_SETTINGS[case]
    with pytest.raises(ConfigurationError) as built:
        cls(**values)
    assert str(built.value).startswith(f"{name}: ")
    config = write_run_config(workspace, tmp_path, where, values)
    assert main(["train", "--config", str(config), "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config {config}: {where}.{built.value}\n"
    assert not (tmp_path / "out").exists()


def test_a_window_longer_than_the_loaded_frames_exits_2_before_out(
        workspace, tmp_path, capsys):
    window = dict(window=True, window_size=11)
    config = write_run_config(workspace, tmp_path, "train.augmentation", window)
    assert main(["train", "--config", str(config), "--split", str(workspace / "split"),
                 "--out", str(tmp_path / "out")]) == 2
    message = ("train.augmentation.window_size: must not exceed model.target_frames "
               "(10), got 11")
    assert capsys.readouterr().err == f"error: config {config}: {message}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigurationError) as built:
        RunConfig("m.json", ModelConfig(target_frames=10),
                  TrainConfig(augmentation=AugmentConfig(**window)))
    assert str(built.value) == message
    # A window of every loaded frame is valid, and a disabled one is never cut.
    for values in (dict(window=True, window_size=10), dict(window=False, window_size=11)):
        config = write_run_config(workspace, tmp_path, "train.augmentation", values)
        assert load_run_config(config).train.augmentation.window_size == \
            values["window_size"]


def input_file(name, workspace, tmp_path):
    """Input ``name`` of a command as a path under ``tmp_path``: the label its
    messages give it, the path, and the command's argv. The command's other
    inputs are the workspace's own."""
    split = tmp_path / "split"
    shutil.copytree(workspace / "split", split)
    out = ["--out", str(tmp_path / "out")]
    config = write_run_config(workspace, tmp_path, "train", {})
    train = ["train", "--config", str(config), "--split", str(split), *out]
    manifest = tmp_path / "manifest.json"
    predictions = tmp_path / "predictions.csv"
    checkpoint = tmp_path / "checkpoint.ckpt"
    return {
        "config": ("config", config, train),
        "manifest": ("manifest", manifest, ["prepare", "--manifest", str(manifest),
                                            "--protocol", "KS-Full", *out]),
        "summary.json": ("split", split / "summary.json", train),
        "train.txt": ("split", split / "train.txt", train),
        "test.txt": ("split", split / "test.txt", train),
        "predictions.csv": ("predictions", predictions,
                            ["analyze", "--predictions", str(predictions),
                             "--split", str(split), *out]),
        "checkpoint": ("cannot read checkpoint", checkpoint,
                       ["eval", "--config", str(config), "--checkpoint", str(checkpoint),
                        "--split", str(split), *out]),
    }[name]


TEXT_INPUTS = ("config", "manifest", "summary.json", "train.txt", "test.txt",
               "predictions.csv")


@pytest.mark.parametrize("name, spoil", [
    *((name, spoil) for name in TEXT_INPUTS
      for spoil in ("missing", "a-directory", "not-UTF-8")),
    ("checkpoint", "missing"), ("checkpoint", "a-directory"),
])
def test_an_input_file_that_cannot_be_read_exits_2_naming_it_before_out(
        name, spoil, workspace, tmp_path, capsys):
    label, path, argv = input_file(name, workspace, tmp_path)
    path.unlink(missing_ok=True)
    if spoil == "a-directory":
        path.mkdir()
    elif spoil == "not-UTF-8":
        path.write_bytes(b"\xff\xfe not UTF-8\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {label} {path}")
    if spoil == "missing" and name != "checkpoint":
        assert err == f"error: {label} {path} does not exist\n"
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------ allocator

class FakeLibc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

        def mallopt(parameter, value):
            self.calls.append((parameter, value))
            return 1

        self.mallopt = mallopt


def run_a_failing_command(tmp_path):
    return main(["prepare", "--manifest", str(tmp_path / "missing.json"),
                 "--protocol", "KS-Full", "--out", str(tmp_path / "split")])


@pytest.fixture
def no_allocator_variables(monkeypatch):
    for name in skelact.cli.ALLOCATOR_VARIABLES:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def fake_libc(no_allocator_variables, monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(skelact.cli.ctypes, "CDLL", lambda name: libc)
    return libc


def test_main_sets_each_allocator_threshold_once(fake_libc, tmp_path):
    assert run_a_failing_command(tmp_path) == 2
    assert fake_libc.calls == [(-3, 32 * 2**20), (-1, 2**31 - 1)]
    # mallopt takes a C int, so the trim threshold is that type's ceiling.
    assert skelact.cli.ctypes.c_int(2**31 - 1).value == 2**31 - 1


@pytest.mark.parametrize("variable", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
def test_main_leaves_the_allocator_to_a_user_who_set_a_variable(
        variable, fake_libc, tmp_path, monkeypatch):
    monkeypatch.setenv(variable, "0")
    assert run_a_failing_command(tmp_path) == 2
    assert fake_libc.calls == []


@pytest.mark.parametrize("libc", [object(), OSError("no C library")],
                         ids=["no_mallopt", "no_library"])
def test_main_runs_where_mallopt_is_missing(libc, no_allocator_variables, tmp_path,
                                            monkeypatch):
    def load(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(skelact.cli.ctypes, "CDLL", load)
    assert run_a_failing_command(tmp_path) == 2
