"""The benchmark's own checks. Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench

The workloads run here with a two-block network so the tests take
seconds; the stored reference values belong to the paper's plan, so the
warm-up's reference comparison fails there and only the passes after it
are held to a clean ledger.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import data
import workloads
from tracer import Tracer, metric_names, unit_of
from workloads import WORKLOADS, Ledger

HERE = Path(__file__).resolve().parent
SMALL_PLAN = [[8, 1], [16, 2]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_leaves_outputs_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_PLAN", SMALL_PLAN)
    tracer = Tracer()
    workload = WORKLOADS[name](tmp_path, 5, Ledger(), tracer)
    workload.setup()
    workload.ledger = ledger = Ledger()
    plain = workload.run_pass()
    tracer.install(run=0)
    try:
        traced = workload.run_pass(plain.outputs)
    finally:
        tracer.uninstall()

    if name == "train_t30":
        assert set(plain.outputs) == {"checkpoint.ckpt", "history.csv", "predictions.csv"}
    else:
        assert set(plain.outputs) == {"predictions.csv"}
    assert traced.outputs == plain.outputs
    assert ledger.attempted > 0 and ledger.failures == []
    metrics = tracer.metrics(passes=1)
    assert list(metrics) == metric_names()
    assert tracer.absent == {}
    assert metrics["keypoints.parse_calls"] > 0
    assert metrics["model.block0.nodes"] > 0
    assert metrics["autodiff.alloc_mb_per_step"] > 0
    if name == "train_t30":
        assert metrics["train.steps"] == 3
        assert metrics["autodiff.backward_s"] > metrics["autodiff.backward_self_s"] > 0
        assert metrics["model.block1.bwd_s"] > 0


def test_uninstall_restores_every_patched_name():
    import skelact.autodiff as ad
    import skelact.model as model

    before = (ad.add, vars(ad.Tensor)["__init__"], vars(model.StgcnNetwork)["forward"],
              vars(model.StgcnBlock)["forward"])
    tracer = Tracer()
    tracer.install(run=0)
    assert ad.add is not before[0]
    tracer.uninstall()
    after = (ad.add, vars(ad.Tensor)["__init__"], vars(model.StgcnNetwork)["forward"],
             vars(model.StgcnBlock)["forward"])
    assert after == before
    assert not tracer.active


def test_generator_is_a_function_of_the_seed(tmp_path):
    def written(root, seed):
        data.write_dataset(root, seed, frames=12, child_per_class=1)
        keypoints = sorted((root / "keypoints").rglob("*.json"))
        return [p.read_bytes() for p in keypoints]

    first = written(tmp_path / "a", 3)
    assert first == written(tmp_path / "b", 3) and first != written(tmp_path / "c", 4)
    frames = [json.loads(b)["people"] for b in first]
    assert {len(people) for people in frames} <= {0, 3}
    assert all(len(person["pose_keypoints_2d"]) == 3 * data.JOINTS
               for people in frames for person in people)


@pytest.mark.parametrize("metrics_rows", ["top1,0.5\n", "top5,1.0\n", "top1,nan\n"],
                         ids=["wrong", "missing", "nan"])
def test_eval_check_fails_on_a_wrong_missing_or_nan_top1(metrics_rows, tmp_path):
    (tmp_path / "predictions.csv").write_text(
        "sample_id,label,prediction,logit_0,logit_1\n"
        "a,0,0,2.0,1.0\n"
        "b,1,1,0.5,3.0\n")
    (tmp_path / "metrics.csv").write_text("metric,value\n" + metrics_rows)
    assert any("top1" in p for p in workloads.check_eval(tmp_path))
    (tmp_path / "metrics.csv").write_text("metric,value\ntop1,1.0\n")
    assert workloads.check_eval(tmp_path) == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_t300",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
