"""Whole-system acceptance checks.

Each test prints one PASS/FAIL verdict line on the real stdout so the
gate's outcome stays visible under any capture settings.
"""
import json
import time

import numpy as np
import pytest

from skelact import (
    BODY25,
    BODY25_NO_FEET,
    COCO18,
    COCO18_MODIFIED,
    AugmentConfig,
    DatasetManifest,
    ManifestRecord,
    ModelConfig,
    MoveParams,
    SGD,
    SkeletonSequence,
    StgcnNetwork,
    TrainConfig,
    augment_combined,
    build_graph,
    build_protocol,
    cross_entropy,
    normalize_centralize,
    pad_sequence,
    partition_spatial,
    pearson,
    random_frame_window,
    random_move,
    set_trainable,
    spearman,
    subsample_frames,
    track,
    train_loop,
)
from skelact.cli import main
from helpers import (
    build_manifest_tree,
    confidence_interval,
    five_number_summary,
    max_rel_err,
    motion_dataset,
    mp_five_numbers,
    mp_interval,
    mp_pearson,
    mp_spearman,
    numeric_grad,
    oracle_track,
    pair_dataset,
    path_graph,
    random_tracking_data,
)


@pytest.fixture
def report(capfd):
    """Print one verdict line per check, bypassing output capture."""

    def emit(index: int, name: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"acceptance {index}: {verdict} {name}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)

    return emit


# 1 ------------------------------------------------------------- gradients

def test_1_gradients_match_finite_differences(report):
    started = time.monotonic()
    net = StgcnNetwork(path_graph(5, center=0), 3,
                       ModelConfig(channel_plan=((4, 1), (8, 2), (8, 1)), seed=0))
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, (2, 3, 8, 5, 1))
    labels = np.array([0, 2])

    def loss_value():
        return cross_entropy(net.forward(x, training=True).data, labels)[0]

    logits = net.forward(x, training=True)
    _, grad = cross_entropy(logits.data, labels)
    logits.backward(grad)
    named = net.named_parameters()
    worst = max(
        max_rel_err(tensor.grad, numeric_grad(loss_value, tensor, eps=1e-4))
        for tensor in named.values()
    )
    elapsed = time.monotonic() - started
    ok = worst < 1e-3 and elapsed < 60.0
    report(1, "reverse-mode gradients match central differences", ok,
           f"{len(named)} tensors, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok, (worst, elapsed)


# 2 ------------------------------------------------------------- adjacency

def test_2_adjacency_invariants_hold_for_every_layout(report):
    expected_vertices = {COCO18: 18, COCO18_MODIFIED: 18,
                         BODY25: 25, BODY25_NO_FEET: 19}
    worst_sum = 0.0
    exclusive = True
    for layout, vertices in expected_vertices.items():
        graph = build_graph(layout)
        assert graph.vertex_count == vertices
        adjacency = partition_spatial(graph)
        column_sums = adjacency.sum(axis=(0, 1))
        worst_sum = max(worst_sum, float(np.abs(column_sums - 1.0).max()))
        occupied = (adjacency != 0.0).sum(axis=0)
        exclusive = exclusive and bool((occupied <= 1).all())
    ok = worst_sum < 1e-12 and exclusive
    report(2, "partitioned adjacency invariants hold for all four layouts",
           ok, f"worst column-sum error {worst_sum:.1e}")
    assert ok


# 3 -------------------------------------------------------------- tracking

def test_3_greedy_tracking_equals_brute_force_on_1000_sequences(report):
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        frames = int(rng.integers(2, 12))
        data = random_tracking_data(rng, frames=frames, slots=2, joints=6)
        seq = SkeletonSequence(data.copy(), "synthetic", (640, 480))
        if not np.array_equal(track(seq).data, oracle_track(data)):
            mismatches += 1
    ok = mismatches == 0
    report(3, "greedy tracking equals exhaustive permutation search", ok,
           f"{mismatches} mismatched sequences out of 1000")
    assert ok


# 4 --------------------------------------------------------------- overfit

def test_4_synthetic_three_class_dataset_is_learned(report):
    started = time.monotonic()
    pairs = motion_dataset(per_class=20, frames=24, joints=5, seed=3)
    train, test = pair_dataset(pairs[:45]), pair_dataset(pairs[45:])
    net = StgcnNetwork(path_graph(5, center=0), 3,
                       ModelConfig(channel_plan=((16, 1), (32, 2), (32, 1)), seed=0))
    config = TrainConfig(base_lr=1e-2, epochs=200, batch_size=4,
                         decay_boundaries=(), momentum=0.9, seed=0)
    history = train_loop(
        net, train, test, config,
        stop_when=lambda h: (h.records[-1].train_top1 >= 0.95
                             and h.records[-1].test_top1 >= 0.90),
    )
    last = history.records[-1]
    elapsed = time.monotonic() - started
    ok = (len(history.records) <= 200 and last.train_top1 >= 0.95
          and last.test_top1 >= 0.90 and elapsed < 600.0)
    report(4, "60-sequence synthetic dataset reaches the accuracy bar", ok,
           f"epoch {last.epoch}: train {last.train_top1:.2f}, "
           f"held-out {last.test_top1:.2f}, {elapsed:.1f}s")
    assert ok, (len(history.records), last, elapsed)


# 5 -------------------------------------------------------------- freezing

def test_5_transfer_modes_freeze_exactly_the_documented_tensors(report):
    graph = path_graph(5, center=0)
    rng = np.random.default_rng(11)
    batch = rng.uniform(-1.0, 1.0, (4, 3, 8, 5, 1))
    labels = np.array([0, 1, 2, 0])
    expectations = {
        "feature_extraction": lambda name: name.startswith("fc."),
        "fine_tune": lambda name: name.startswith(("blocks.9.", "fc.")),
        "propagation": lambda name: True,
    }
    failures = []
    for mode, expect in expectations.items():
        net = StgcnNetwork(graph, 3, ModelConfig(seed=0))
        assert len(net.blocks) == 10
        before = {name: tensor.data.copy()
                  for name, tensor in net.named_parameters().items()}
        set_trainable(net, mode)
        optimizer = SGD(net.parameters(), momentum=0.9)
        for _ in range(10):
            logits = net.forward(batch, training=True)
            _, grad = cross_entropy(logits.data, labels)
            logits.backward(grad)
            optimizer.step(0.01)
        changed = {name for name, tensor in net.named_parameters().items()
                   if not np.array_equal(before[name], tensor.data)}
        expected = {name for name in before if expect(name)}
        if changed != expected:
            failures.append((mode, sorted(changed ^ expected)))
    ok = not failures
    report(5, "after 10 steps each transfer mode moved exactly its tensors",
           ok, "feature_extraction/fine_tune/propagation" if ok
           else repr(failures))
    assert ok, failures


# 6 -------------------------------------------------------------- protocols

def synthetic_manifest(per_class: int = 260) -> DatasetManifest:
    classes = [f"c{i}" for i in range(6)]
    records = [
        ManifestRecord(
            sample_id=f"{name}_{k:04d}",
            class_name=name,
            performer="child",
            keypoint_path=f"keypoints/{name}_{k:04d}",
            image_size=(640, 480),
        )
        for name in classes
        for k in range(per_class)
    ]
    return DatasetManifest(records=records, class_table=classes)


def class_counts(split, class_names):
    counts = {}
    for name in class_names:
        train = sum(1 for i in split.train_ids if i.startswith(name + "_"))
        test = sum(1 for i in split.test_ids if i.startswith(name + "_"))
        counts[name] = (train, test)
    return counts


def test_6_balanced_protocols_draw_the_documented_counts(report):
    manifest = synthetic_manifest()
    problems = []
    for protocol, per_class in (("KS-Balanced", 250), ("KSS-Balanced", 110)):
        split = build_protocol(manifest, protocol, seed=0)
        if len(split.class_names) != 5:
            problems.append((protocol, "classes", split.class_names))
        for name, (train, test) in class_counts(split, split.class_names).items():
            if train + test != per_class:
                problems.append((protocol, name, train + test))
            if abs(train - 0.75 * per_class) > 1.0:
                problems.append((protocol, name, "train", train))
        again = build_protocol(manifest, protocol, seed=0)
        if (again.train_ids, again.test_ids) != (split.train_ids, split.test_ids):
            problems.append((protocol, "not seed-deterministic"))
        other = build_protocol(manifest, protocol, seed=1)
        if other.train_ids == split.train_ids:
            problems.append((protocol, "seed has no effect"))
    ok = not problems
    report(6, "balanced protocols select 250/110 per class, split 75/25",
           ok, "" if ok else repr(problems))
    assert ok, problems


# 7 ------------------------------------------------------------- statistics

ACCURACIES = [48.0, 14.58, 36.0, 4.0, 8.0, 0.0, 48.0, 74.0]
CONFIDENCES = [0.40, 0.35, 0.39, 0.39, 0.19, 0.06, 0.40, 0.32]


def test_7_statistics_match_arbitrary_precision_references(report):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.normal(0.0, 3.0, n)
        y = rng.normal(1.0, 2.0, n)
        worst = max(worst, abs(pearson(x, y) - mp_pearson(x, y)))
        worst = max(worst, abs(spearman(x, y) - mp_spearman(x, y)))
        level = float(rng.choice([0.8, 0.9, 0.95, 0.99]))
        interval = confidence_interval(x, level)
        mean, lower, upper = mp_interval(x, level)
        worst = max(worst, abs(interval.mean - mean),
                    abs(interval.lower - lower), abs(interval.upper - upper))
        summary = five_number_summary(x)
        reference = mp_five_numbers(x)
        worst = max(worst, *(abs(a - b) for a, b in zip(
            (summary.minimum, summary.q1, summary.median,
             summary.q3, summary.maximum), reference)))
    fixture_ok = (
        pearson(ACCURACIES, CONFIDENCES)
        == pytest.approx(0.505691933434053, abs=5e-15)
        and spearman(ACCURACIES, CONFIDENCES)
        == pytest.approx(0.5091002590437844, abs=5e-15)
    )
    ok = worst < 1e-10 and fixture_ok
    report(7, "statistics agree with arbitrary-precision references", ok,
           f"worst deviation {worst:.1e} over 100 vectors; "
           f"8-class fixture {'matches' if fixture_ok else 'differs'}")
    assert ok, worst


# 8 ------------------------------------------------------------ determinism

def test_8_training_runs_are_byte_identical(tmp_path, report):
    manifest = build_manifest_tree(tmp_path / "data", per_class=8, frames=10)
    config = {
        "manifest": "data/manifest.json",
        "model": {"layout": "COCO18", "person_slots": 1, "target_frames": 10,
                  "channel_plan": [[4, 1], [8, 2]], "seed": 0},
        "train": {"base_lr": 0.05, "epochs": 3, "batch_size": 4,
                  "decay_boundaries": [], "seed": 0},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["prepare", "--manifest", str(manifest),
                 "--protocol", "KS-Full", "--out", str(tmp_path / "split")]) == 0
    for out in ("first", "second"):
        assert main(["train", "--config", str(tmp_path / "run.json"),
                     "--split", str(tmp_path / "split"),
                     "--out", str(tmp_path / out)]) == 0
    same_history = (tmp_path / "first" / "history.csv").read_bytes() == \
        (tmp_path / "second" / "history.csv").read_bytes()
    same_checkpoint = (tmp_path / "first" / "checkpoint.ckpt").read_bytes() == \
        (tmp_path / "second" / "checkpoint.ckpt").read_bytes()
    ok = same_history and same_checkpoint
    report(8, "two identical training commands are byte-identical", ok,
           f"history equal: {same_history}, checkpoint equal: {same_checkpoint}")
    assert ok


# 9 -------------------------------------------------------------- pipeline

def visible_sequence(frames, joints, seed):
    rng = np.random.default_rng(seed)
    data = np.zeros((frames, 1, joints, 3))
    data[..., 0] = rng.uniform(0.0, 640.0, (frames, 1, joints))
    data[..., 1] = rng.uniform(0.0, 480.0, (frames, 1, joints))
    data[..., 2] = rng.uniform(0.1, 1.0, (frames, 1, joints))
    return SkeletonSequence(data, "synthetic", (640, 480))


def test_9_pipeline_invariants_hold(report):
    seq = visible_sequence(frames=5, joints=8, seed=2)
    rng = np.random.default_rng(9)
    confidence_kept = (
        np.array_equal(normalize_centralize(seq).data[..., 2],
                       seq.data[..., 2])
        and np.array_equal(random_move(seq, MoveParams(), rng).data[..., 2],
                           seq.data[..., 2])
    )

    zero = SkeletonSequence(np.zeros((6, 2, 4, 3)), "synthetic", (640, 480))
    zero_rng = np.random.default_rng(1)
    augmentation = AugmentConfig(window=True, window_size=3, move=True,
                                 subsample=True, drop_rate=0.4)
    zero_outputs = [
        track(zero),
        normalize_centralize(zero),
        pad_sequence(zero, 9),
        random_frame_window(zero, 3, zero_rng),
        random_move(zero, MoveParams(), zero_rng),
        subsample_frames(zero, 0.4, zero_rng),
        augment_combined(zero, augmentation, zero_rng),
    ]
    zero_kept = all((out.data == 0.0).all() for out in zero_outputs)

    params = MoveParams(rotation=np.pi, scale_min=1.0, scale_max=1.0,
                        translation=0.3, anchors=2)
    moved = random_move(seq, params, np.random.default_rng(11))
    distortion = 0.0
    for t in range(seq.frame_count):
        before = seq.data[t, 0, :, :2]
        after = moved.data[t, 0, :, :2]
        for v in range(8):
            for w in range(v + 1, 8):
                d0 = float(np.linalg.norm(before[v] - before[w]))
                d1 = float(np.linalg.norm(after[v] - after[w]))
                distortion = max(distortion, abs(d0 - d1))
    isometric = distortion < 1e-9

    ok = confidence_kept and zero_kept and isometric
    report(9, "pipeline invariants hold", ok,
           f"confidence kept: {confidence_kept}, zero kept: {zero_kept}, "
           f"max distance distortion {distortion:.1e}")
    assert ok
