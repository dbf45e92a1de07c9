"""Loss, optimizer, schedule, datasets, and the training loop."""
import json
import math

import numpy as np
import pytest

from skelact import (
    AugmentConfig,
    ConfigurationError,
    DatasetManifest,
    ModelConfig,
    NonFiniteError,
    ProtocolSplit,
    SequenceDataset,
    TrainConfig,
    cross_entropy,
    evaluate,
    lr_schedule,
    pad_sequence,
    random_frame_window,
    run_training,
    save_weights,
    select_persons,
    set_trainable,
    subsample_frames,
    to_model_input,
    top_k_accuracy,
    train_loop,
)
from skelact.autodiff import Tensor, dropout, mul, no_grad, reduce_sum, temporal_conv
from skelact.keypoints import layout_joint_count
from skelact.model import StgcnNetwork
from skelact.train import SGD, EpochRecord, TrainHistory, load_sequence
from helpers import (
    build_manifest_tree,
    motion_dataset,
    pair_dataset,
    path_graph,
    person_flat,
    record_entry,
    traced_peak,
    write_frames,
)


def tiny_net(num_classes=3, seed=0, plan=((8, 1), (8, 1))):
    return StgcnNetwork(path_graph(5, center=0), num_classes,
                        ModelConfig(channel_plan=plan, seed=seed))


def tiny_datasets(per_class=4, frames=12, seed=3):
    pairs = motion_dataset(per_class, frames, 5, seed)
    split = 3 * per_class * 3 // 4
    return pair_dataset(pairs[:split]), pair_dataset(pairs[split:])


# ------------------------------------------------------------------- schedule

def test_lr_schedule_piecewise_decay():
    assert lr_schedule(0, 0.001, (10, 20)) == 0.001
    assert lr_schedule(9, 0.001, (10, 20)) == 0.001
    assert lr_schedule(10, 0.1, (10, 20)) == pytest.approx(0.01)
    assert lr_schedule(25, 0.001, (10, 20)) == pytest.approx(1e-5)
    assert lr_schedule(100, 0.5, ()) == 0.5
    assert lr_schedule(7, 1.0, (5,), factor=0.5) == 0.5


def test_lr_schedule_never_increases():
    values = [lr_schedule(e, 0.1, (3, 7, 11), 0.2) for e in range(15)]
    assert all(b <= a for a, b in zip(values, values[1:]))


# -------------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = np.zeros((2, 8))
    loss, grad = cross_entropy(logits, np.array([3, 5]))
    assert loss == 2.0794415416798357
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)


def test_cross_entropy_frozen_fixture():
    logits = np.array([[0.2, -1.1, 0.7, 2.0],
                       [1.5, 1.5, -0.3, 0.0],
                       [-2.0, 0.4, 0.1, 0.9]])
    loss, grad = cross_entropy(logits, np.array([2, 0, 3]))
    assert loss == 1.1039093938838522
    assert grad.shape == (3, 4)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(0.0, 1.5, (4, 5))
    labels = np.array([1, 0, 4, 2])
    _, grad = cross_entropy(logits, labels)
    eps = 1e-6
    for i in range(4):
        for j in range(5):
            bumped = logits.copy()
            bumped[i, j] += eps
            up, _ = cross_entropy(bumped, labels)
            bumped[i, j] -= 2 * eps
            down, _ = cross_entropy(bumped, labels)
            assert grad[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-8)


def test_cross_entropy_is_stable_for_huge_logits():
    loss, grad = cross_entropy(np.array([[1000.0, 0.0], [0.0, 1000.0]]),
                               np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()


def test_cross_entropy_validation():
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros(4), np.array([0]))
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0]))
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ConfigurationError):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


# ------------------------------------------------------------------ optimizer

def test_sgd_step_moves_against_the_gradient():
    t = Tensor([1.0, 2.0], trainable=True)
    t.grad = np.array([2.0, -4.0])
    SGD([t]).step(0.1)
    assert np.allclose(t.data, [0.8, 2.4])
    assert t.grad is None


def test_sgd_step_zero_lr_is_a_no_op_that_clears_gradients():
    t = Tensor([1.0], trainable=True)
    t.grad = np.array([5.0])
    SGD([t]).step(0.0)
    assert t.data[0] == 1.0
    assert t.grad is None


def test_sgd_step_rejects_negative_lr():
    with pytest.raises(ConfigurationError):
        SGD([Tensor([1.0], trainable=True)]).step(-0.1)
    opt = SGD([Tensor([1.0], trainable=True)])
    with pytest.raises(ConfigurationError):
        opt.step(-1e-9)


def test_sgd_step_rejects_a_nan_lr_before_moving_anything():
    t = Tensor([1.0], trainable=True)
    t.grad = np.array([5.0])
    with pytest.raises(ConfigurationError, match="lr: must be non-negative, got nan"):
        SGD([t]).step(float("nan"))
    assert t.data[0] == 1.0 and t.grad[0] == 5.0


def test_sgd_leaves_frozen_tensors_but_clears_their_gradients():
    # A tensor frozen by hand holds the buffer it had until the step drops it.
    frozen = Tensor([3.0], trainable=True)
    frozen.grad = np.array([7.0])
    frozen.trainable = False
    bare = Tensor([3.0], trainable=False)
    live = Tensor([3.0], trainable=True)
    live.grad = np.array([7.0])
    SGD([frozen, bare, live]).step(0.1)
    assert frozen.data[0] == 3.0
    assert frozen.grad is None
    assert bare.data[0] == 3.0 and bare.grad is None
    assert live.data[0] == pytest.approx(2.3) and live.grad is None


def test_sgd_momentum_and_weight_decay_match_a_manual_loop():
    rng = np.random.default_rng(1)
    start = rng.normal(size=3)
    grads = [rng.normal(size=3) for _ in range(4)]
    t = Tensor(start.copy(), trainable=True)
    opt = SGD([t], momentum=0.9, weight_decay=0.01)
    data = start.copy()
    velocity = np.zeros(3)
    for g in grads:
        t.grad = g
        opt.step(0.05)
        step_grad = g + 0.01 * data
        velocity = 0.9 * velocity + step_grad
        data = data - 0.05 * velocity
        assert np.allclose(t.data, data, atol=1e-14)


def test_a_first_momentum_step_has_the_bits_of_a_zero_velocity():
    # The first velocity is 0 + grad, which is 0.0 where grad is -0.0, so
    # the -0.0 weight stays -0.0 (-0.0 - 0.0) rather than becoming 0.0.
    start, grad = np.array([-0.0, 1.5, -2.0]), np.array([-0.0, 0.25, -0.0])
    t = Tensor(start.copy(), trainable=True)
    t.grad = grad.copy()
    SGD([t], momentum=0.9).step(0.1)
    velocity = np.zeros(3)
    velocity *= 0.9
    velocity += grad
    assert t.data.tobytes() == (start - 0.1 * velocity).tobytes()
    assert np.signbit(t.data[0])


def test_sgd_treats_a_missing_gradient_buffer_as_zeros():
    # A trainable tensor built under no_grad has no buffer until backward
    # hands it a gradient; a step before that moves it as a zero gradient.
    start = np.array([0.5, -1.5])
    with no_grad():
        bare = Tensor(start.copy(), trainable=True)
    zeroed = Tensor(start.copy(), trainable=True)
    for tensor in (bare, zeroed):
        optimizer = SGD([tensor], momentum=0.9, weight_decay=0.01)
        optimizer.step(0.1)
        optimizer.step(0.1)
    assert bare.grad is None
    assert bare.data.tobytes() == zeroed.data.tobytes()


def test_sgd_holds_a_velocity_only_for_what_a_frozen_network_trains():
    # feature_extraction trains the classifier alone: a momentum SGD holds
    # nothing before its first step, which makes the classifier's velocity
    # and no trunk-sized zero array.
    net = ModelConfig(seed=0).build(10)
    set_trainable(net, "feature_extraction")
    optimizer, built, _ = traced_peak(lambda: SGD(net.parameters(), momentum=0.9))
    assert built <= 2**12
    _, held, _ = traced_peak(lambda: optimizer.step(0.1))
    head = net.fc_weight.data.nbytes + net.fc_bias.data.nbytes
    assert head <= held <= head + 2**12


def test_sgd_gives_a_tensor_made_trainable_later_a_zero_velocity():
    # The late tensor was built frozen, so it has no gradient buffer until
    # its first gradient arrives.
    late, fresh = Tensor([1.0, -2.0]), Tensor([1.0, -2.0], trainable=True)
    lagging = SGD([late], momentum=0.9, weight_decay=0.01)
    lagging.step(0.1)
    late.trainable = True
    assert late.grad is None
    leading = SGD([fresh], momentum=0.9, weight_decay=0.01)
    for _ in range(3):
        for tensor in (late, fresh):
            reduce_sum(mul(tensor, Tensor([0.5, 0.25])), (0,)).backward()
        lagging.step(0.1)
        leading.step(0.1)
    assert late.data.tobytes() == fresh.data.tobytes()


def test_sgd_step_drops_every_gradient_buffer():
    net = tiny_net()
    batch = np.stack([to_model_input(s) for s, _ in motion_dataset(1, 12, 5, seed=4)])
    logits = net.forward(batch, training=True)
    logits.backward(np.ones(logits.data.shape))
    assert all(t.grad is not None for t in net.parameters())
    SGD(net.parameters(), momentum=0.9, weight_decay=0.01).step(0.1)
    assert all(t.grad is None for t in net.parameters())


def test_two_backward_passes_before_one_step_sum():
    start, weight = np.array([0.5, -1.5]), np.array([0.75, -0.25])
    t = Tensor(start.copy(), trainable=True)
    for _ in range(2):
        reduce_sum(mul(t, Tensor(weight)), (0,)).backward()
    assert np.array_equal(t.grad, weight + weight)
    SGD([t]).step(0.1)
    assert t.data.tobytes() == (start - 0.1 * (weight + weight)).tobytes()


def test_no_frozen_tensor_holds_a_gradient_buffer_over_a_fine_tune_step():
    net = tiny_net(plan=((8, 1), (8, 1), (8, 1)))
    set_trainable(net, "fine_tune")
    frozen = [t for t in net.parameters() if not t.trainable]
    trained = [t for t in net.parameters() if t.trainable]
    assert frozen and trained
    optimizer = SGD(net.parameters(), momentum=0.9)
    batch = np.stack([to_model_input(s) for s, _ in motion_dataset(1, 12, 5, seed=4)])
    for _ in range(2):
        assert all(t.grad is None for t in net.parameters())
        logits = net.forward(batch, training=True)
        assert all(t.grad is None for t in net.parameters())
        logits.backward(np.ones(logits.data.shape))
        assert all(t.grad is None for t in frozen)
        assert all(t.grad is not None for t in trained)
        optimizer.step(0.1)
    assert all(t.grad is None for t in net.parameters())


def test_sgd_validation():
    t = Tensor([1.0], trainable=True)
    with pytest.raises(ConfigurationError):
        SGD([t], momentum=1.0)
    with pytest.raises(ConfigurationError):
        SGD([t], momentum=-0.1)
    with pytest.raises(ConfigurationError):
        SGD([t], weight_decay=-0.01)


def test_functions_handed_a_bare_value_check_it_as_the_config_does():
    net = tiny_net()
    seq = motion_dataset(1, 6, 5, seed=0)[0][0]
    rng = np.random.default_rng(0)
    cases = [
        (lambda: SGD([Tensor([1.0], trainable=True)], momentum=1.0),
         lambda: TrainConfig(momentum=1.0)),
        (lambda: SGD([Tensor([1.0], trainable=True)], momentum=-0.1),
         lambda: TrainConfig(momentum=-0.1)),
        (lambda: SGD([Tensor([1.0], trainable=True)], weight_decay=-0.01),
         lambda: TrainConfig(weight_decay=-0.01)),
        (lambda: SGD([Tensor([1.0], trainable=True)], weight_decay=math.nan),
         lambda: TrainConfig(weight_decay=math.nan)),
        (lambda: set_trainable(net, "transfer"), lambda: TrainConfig(mode="transfer")),
        (lambda: random_frame_window(seq, 2, rng, pad_position="left"),
         lambda: AugmentConfig(window_pad_position="left")),
        (lambda: random_frame_window(seq, 0, rng), lambda: AugmentConfig(window_size=0)),
        (lambda: subsample_frames(seq, 1.5, rng), lambda: AugmentConfig(drop_rate=1.5)),
        (lambda: select_persons([seq.data[0]], 0), lambda: ModelConfig(person_slots=0)),
        (lambda: pad_sequence(seq, 0), lambda: ModelConfig(target_frames=0)),
        (lambda: temporal_conv(Tensor(np.zeros((2, 1, 4, 5))), Tensor(np.zeros((2, 3))),
                               dropout=1.0),
         lambda: ModelConfig(dropout=1.0)),
        (lambda: dropout(Tensor(np.zeros(3)), 1.0, rng), lambda: ModelConfig(dropout=1.0)),
        (lambda: layout_joint_count("FOO"), lambda: ModelConfig(layout="FOO")),
    ]
    for direct, configured in cases:
        with pytest.raises(ConfigurationError) as bare:
            direct()
        with pytest.raises(ConfigurationError) as built:
            configured()
        assert str(built.value) == str(bare.value)


def test_five_fixed_batch_steps_strictly_reduce_the_loss():
    net = tiny_net(seed=1)
    pairs = motion_dataset(3, 12, 5, seed=5)
    batch = np.stack([to_model_input(s) for s, _ in pairs])
    labels = np.array([l for _, l in pairs])
    optimizer = SGD(net.parameters())
    losses = []
    for _ in range(5):
        logits = net.forward(batch, training=True)
        loss, grad = cross_entropy(logits.data, labels)
        logits.backward(grad)
        optimizer.step(1e-3)
        losses.append(loss)
    assert all(b < a for a, b in zip(losses, losses[1:]))


# -------------------------------------------------------------------- dataset

def test_dataset_validation_and_inputs():
    pairs = motion_dataset(2, 8, 5, seed=0)
    sequences = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    ids = [f"s{i}" for i in range(6)]
    data = SequenceDataset(sequences, labels, ids)
    assert len(data) == 6
    assert data.sample_ids == ids
    assert data.input(0).shape == (3, 8, 5, 1)
    assert np.array_equal(data.input(2), to_model_input(sequences[2]))
    with pytest.raises(ConfigurationError):
        SequenceDataset(sequences, labels[:-1], ids)
    with pytest.raises(ConfigurationError):
        SequenceDataset(sequences, [-1] + labels[1:], ids)
    with pytest.raises(ConfigurationError):
        SequenceDataset(sequences, labels, ["a"])


def test_dataset_from_manifest_maps_labels_to_split_classes(tmp_path):
    manifest = DatasetManifest.load(build_manifest_tree(tmp_path, per_class=2))
    ids = [r.sample_id for r in manifest.records]
    config = ModelConfig(layout="COCO18", person_slots=1, target_frames=10,
                         channel_plan=((4, 1),))
    # Class order here is deliberately not the manifest table order.
    data = SequenceDataset.from_manifest(manifest, ids, ("spin", "wave", "jump"),
                                         config)
    assert len(data) == 6
    by_id = manifest.by_id()
    for sample_id, label in zip(data.sample_ids, data.labels):
        assert ("spin", "wave", "jump")[label] == by_id[sample_id].class_name
    seq = data.sequences[0]
    assert seq.layout == "COCO18"
    assert seq.frame_count == 10
    assert seq.person_slots == 1
    assert abs(seq.data[..., 0]).max() <= 0.5


def test_dataset_from_manifest_normalizes_each_sample_by_its_records_image_size(
        tmp_path):
    sizes = ((640, 480), (320, 240))
    clip = write_frames(tmp_path / "clip",
                        [[person_flat(np.random.default_rng(t), 18)] for t in range(4)])
    records = [record_entry(sample_id=f"s{width}", keypoint_path=str(clip),
                            image_size=[width, height]) for width, height in sizes]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"classes": ["a"], "layout": "COCO18", "records": records}))
    config = ModelConfig(layout="COCO18", person_slots=1, target_frames=4,
                         channel_plan=((4, 1),))
    data = SequenceDataset.from_manifest(DatasetManifest.load(path),
                                         ["s640", "s320"], ("a",), config)
    raw = load_sequence(clip, "COCO18", person_slots=1, target_frames=4).data
    for seq, (width, height) in zip(data.sequences, sizes):
        assert seq.image_size == (width, height)
        assert np.array_equal(seq.data[..., 0], raw[..., 0] / width - 0.5)
        assert np.array_equal(seq.data[..., 1], raw[..., 1] / height - 0.5)


def test_dataset_from_manifest_rejects_foreign_samples(tmp_path):
    manifest = DatasetManifest.load(build_manifest_tree(tmp_path, per_class=2))
    config = ModelConfig(layout="COCO18", person_slots=1, target_frames=10,
                         channel_plan=((4, 1),))
    with pytest.raises(ConfigurationError):
        SequenceDataset.from_manifest(manifest, ["ghost_000"],
                                      ("wave", "jump", "spin"), config)
    with pytest.raises(ConfigurationError):
        SequenceDataset.from_manifest(manifest, ["spin_000"],
                                      ("wave", "jump"), config)


# ------------------------------------------------------------------- evaluate

def test_evaluate_returns_logits_in_dataset_order():
    net = tiny_net(seed=4)
    train, _ = tiny_datasets(per_class=2)
    acc, logits = evaluate(net, train, batch_size=4)
    assert logits.shape == (len(train), 3)
    assert acc == top_k_accuracy(logits, train.labels, 1)
    single = np.vstack([
        net.forward(train.input(i)[None]).data for i in range(len(train))
    ])
    assert np.allclose(logits, single, atol=1e-12)
    again, _ = evaluate(net, train, batch_size=5)
    assert again == acc


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    train, _ = tiny_datasets()
    with pytest.raises(ConfigurationError, match="^batch_size: must be at least 1$"):
        evaluate(tiny_net(), train, batch_size)


def test_evaluate_rejects_an_empty_dataset():
    with pytest.raises(ConfigurationError):
        evaluate(tiny_net(), SequenceDataset([], [], []))


# -------------------------------------------------------------------- history

def test_history_to_csv_format():
    history = TrainHistory(records=[
        EpochRecord(0, 0.1, 1.5, 0.25, 0.5),
        EpochRecord(1, 0.01, 0.75, 1.0, 0.875),
    ])
    assert history.to_csv() == (
        "epoch,lr,train_loss,train_top1,test_top1\n"
        "0,0.1,1.5,0.25,0.5\n"
        "1,0.01,0.75,1.0,0.875\n"
    )


# ------------------------------------------------------------------ train loop

def loop_config(**overrides):
    settings = dict(base_lr=0.01, decay_boundaries=(), batch_size=4,
                    epochs=3, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


def test_train_loop_is_deterministic():
    train, test = tiny_datasets()
    runs = []
    for _ in range(2):
        net = tiny_net(seed=2)
        history = train_loop(net, train, test, loop_config())
        runs.append((net, history))
    a, b = runs
    assert a[1].records == b[1].records
    assert a[1].best_epoch == b[1].best_epoch
    for name, tensor in a[0].named_parameters().items():
        assert np.array_equal(tensor.data, b[0].named_parameters()[name].data)
    for name, array in a[1].best_state.items():
        assert np.array_equal(array, b[1].best_state[name])


def test_a_network_built_under_no_grad_trains_to_the_same_bytes():
    # Its trainable leaves have no gradient buffer; each gets a zero one
    # with its first gradient, so the step adds into zeros as usual.
    train, test = tiny_datasets(per_class=2)
    config = loop_config(batch_size=len(train), epochs=1, momentum=0.9,
                         weight_decay=0.01)
    with no_grad():
        bare = tiny_net(seed=2)
    assert all(tensor.grad is None for tensor in bare.parameters())
    built = tiny_net(seed=2)
    for net in (bare, built):
        train_loop(net, train, test, config)
    for name, array in built.state_arrays().items():
        assert bare.state_arrays()[name].tobytes() == array.tobytes(), name


def test_train_loop_records_and_best_snapshot():
    train, test = tiny_datasets()
    net = tiny_net(seed=2)
    history = train_loop(net, train, test, loop_config())
    assert [r.epoch for r in history.records] == [0, 1, 2]
    assert all(r.lr == 0.01 for r in history.records)
    scores = [r.test_top1 for r in history.records]
    assert history.best_test_top1 == max(scores)
    assert history.best_epoch == scores.index(max(scores))
    assert set(history.best_state) == set(net.state_arrays())
    # The snapshot owns its arrays.
    net.fc_weight.data += 100.0
    assert abs(history.best_state["fc.weight"]).max() < 100.0


def test_train_loop_reduces_the_loss():
    train, test = tiny_datasets(per_class=4)
    history = train_loop(tiny_net(seed=2), train, test,
                         loop_config(epochs=5))
    assert history.records[-1].train_loss < history.records[0].train_loss


def test_train_loop_stop_when_ends_early():
    train, test = tiny_datasets(per_class=2)
    history = train_loop(tiny_net(), train, test,
                         loop_config(epochs=10),
                         stop_when=lambda h: len(h.records) == 2)
    assert len(history.records) == 2


def test_train_loop_fails_on_non_finite_values_before_any_weight_moves(monkeypatch):
    train, test = tiny_datasets()
    # NaN passes through every op, ReLU included, so NaN inputs give a NaN loss.
    poisoned = SequenceDataset(
        [s.replace_data(np.full_like(s.data, np.nan)) for s in train.sequences],
        train.labels, train.sample_ids)
    net = tiny_net()
    before = {n: t.data.copy() for n, t in net.named_parameters().items()}
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match=r"^epoch 0, batch 0: loss is nan$"):
        train_loop(net, poisoned, test, loop_config())
    for name, tensor in net.named_parameters().items():
        assert np.array_equal(tensor.data, before[name]), name

    # A finite loss with an infinite seed gradient: the first parameter named
    # in the network's order is reported.
    def infinite_seed(logits, labels):
        loss, grad = cross_entropy(logits, labels)
        return loss, np.full_like(grad, np.inf)

    monkeypatch.setattr("skelact.train.cross_entropy", infinite_seed)
    net = tiny_net()
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError,
            match=r"^epoch 0, batch 0: gradient of input_bn\.gamma is not finite$"):
        train_loop(net, train, test, loop_config())
    for name, tensor in net.named_parameters().items():
        assert np.array_equal(tensor.data, before[name]), name
    monkeypatch.undo()

    net = tiny_net()
    net.fc_bias.data[0] = np.inf
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match=r"^epoch 0, batch 0: loss is nan$"):
        train_loop(net, train, test, loop_config())


def test_train_loop_with_augmentation_is_deterministic():
    train, test = tiny_datasets(per_class=2)
    augmentation = AugmentConfig(window=True, window_size=10,
                                 subsample=True, drop_rate=0.1)
    histories = []
    for _ in range(2):
        net = tiny_net(seed=6)
        histories.append(train_loop(net, train, test,
                                    loop_config(augmentation=augmentation)))
    assert histories[0].records == histories[1].records


def test_train_loop_rejects_an_empty_training_set():
    _, test = tiny_datasets(per_class=2)
    with pytest.raises(ConfigurationError):
        train_loop(tiny_net(), SequenceDataset([], [], []), test, loop_config())


# ---------------------------------------------------------------- run_training

@pytest.fixture(scope="module")
def manifest_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    path = build_manifest_tree(root, per_class=4, frames=10)
    return DatasetManifest.load(path)


def full_split(manifest, train_per_class=3):
    by_class = {}
    for record in manifest.records:
        by_class.setdefault(record.class_name, []).append(record.sample_id)
    train_ids, test_ids = [], []
    for name in manifest.class_table:
        train_ids += by_class[name][:train_per_class]
        test_ids += by_class[name][train_per_class:]
    return ProtocolSplit(protocol="custom", seed=0,
                         class_names=tuple(manifest.class_table),
                         train_ids=tuple(train_ids), test_ids=tuple(test_ids))


def run_config(**overrides):
    settings = dict(base_lr=0.01, decay_boundaries=(), batch_size=4,
                    epochs=2, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


def small_model_config(seed=0):
    return ModelConfig(layout="COCO18", person_slots=1, target_frames=10,
                       channel_plan=((4, 1), (4, 1)), seed=seed)


def test_run_training_vanilla(manifest_tree):
    split = full_split(manifest_tree)
    net, history = run_training(manifest_tree, split, small_model_config(),
                                run_config())
    assert all(tensor.trainable for tensor in net.parameters())
    assert net.num_classes == 3
    assert len(history.records) == 2
    assert history.best_state is not None


def test_run_training_validates_each_config_once_before_reading_keypoints(
        manifest_tree, monkeypatch):
    events = []
    for cls in (ModelConfig, TrainConfig):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            events.append(name)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)

    def loading(*args, **kwargs):
        events.append("load")
        return load_sequence(*args, **kwargs)

    monkeypatch.setattr("skelact.train.load_sequence", loading)
    split = full_split(manifest_tree)
    run_training(manifest_tree, split, small_model_config(), run_config(epochs=1))
    assert sorted(events[:2]) == ["ModelConfig", "TrainConfig"]
    assert set(events[2:]) == {"load"}

    del events[:]
    with pytest.raises(ConfigurationError, match=r"^batch_size"):
        run_training(manifest_tree, split, small_model_config(),
                     run_config(batch_size=0))
    with pytest.raises(ConfigurationError, match=r"^person_slots"):
        run_training(manifest_tree, split,
                     ModelConfig(person_slots=0), run_config())
    assert "load" not in events


def test_run_training_requires_a_checkpoint_for_transfer(manifest_tree):
    split = full_split(manifest_tree)
    with pytest.raises(ConfigurationError):
        run_training(manifest_tree, split, small_model_config(),
                     run_config(mode="propagation"))


def test_run_training_fine_tune_freezes_early_blocks(manifest_tree, tmp_path):
    split = full_split(manifest_tree)
    source, _ = run_training(manifest_tree, split, small_model_config(),
                             run_config(epochs=1))
    checkpoint = tmp_path / "source.ckpt"
    save_weights(source, checkpoint)
    source_state = source.state_arrays()

    net, _ = run_training(
        manifest_tree, split, small_model_config(seed=9),
        run_config(mode="fine_tune", source_checkpoint=str(checkpoint)),
    )
    assert {name for name, tensor in net.named_parameters().items()
            if tensor.trainable} == {name for name in net.named_parameters()
                                     if name.startswith(("blocks.1.", "fc."))}
    state = net.state_arrays()
    for name in state:
        if name.startswith("blocks.0.") or name.startswith("input_bn."):
            assert np.array_equal(state[name], source_state[name]), name
    assert not np.array_equal(state["fc.weight"], source_state["fc.weight"])


def test_run_training_feature_extraction_only_moves_the_head(
        manifest_tree, tmp_path):
    split = full_split(manifest_tree)
    source, _ = run_training(manifest_tree, split, small_model_config(),
                             run_config(epochs=1))
    checkpoint = tmp_path / "source.ckpt"
    save_weights(source, checkpoint)
    source_state = source.state_arrays()

    net, _ = run_training(
        manifest_tree, split, small_model_config(seed=9),
        run_config(mode="feature_extraction",
                   source_checkpoint=str(checkpoint)),
    )
    state = net.state_arrays()
    changed = {name for name in state
               if not np.array_equal(state[name], source_state[name])}
    assert changed == {"fc.weight", "fc.bias"}


def test_run_training_skips_the_head_when_classes_differ(
        manifest_tree, tmp_path):
    split = full_split(manifest_tree)
    two_class = ProtocolSplit(
        protocol="custom", seed=0,
        class_names=tuple(manifest_tree.class_table[:2]),
        train_ids=tuple(i for i in split.train_ids
                        if not i.startswith("spin")),
        test_ids=tuple(i for i in split.test_ids
                       if not i.startswith("spin")),
    )
    source, _ = run_training(manifest_tree, two_class, small_model_config(),
                             run_config(epochs=1))
    checkpoint = tmp_path / "two_class.ckpt"
    save_weights(source, checkpoint)

    net, _ = run_training(
        manifest_tree, split, small_model_config(seed=9),
        run_config(mode="propagation", source_checkpoint=str(checkpoint)),
    )
    assert net.num_classes == 3
    assert net.fc_weight.data.shape == (4, 3)


def test_run_training_needs_two_classes(manifest_tree):
    split = full_split(manifest_tree)
    lone = ProtocolSplit(protocol="custom", seed=0,
                         class_names=("wave",),
                         train_ids=split.train_ids[:3],
                         test_ids=split.test_ids[:1])
    with pytest.raises(ConfigurationError):
        run_training(manifest_tree, lone, small_model_config(), run_config())
