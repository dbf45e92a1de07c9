"""Network assembly, forward pass, transfer modes, checkpoints."""
import json
import struct

import numpy as np
import pytest

from skelact import (
    COCO18,
    CheckpointError,
    ConfigurationError,
    ModelConfig,
    StateError,
    build_graph,
    load_weights,
    partition_spatial,
    read_checkpoint,
    save_weights,
    set_trainable,
)
from skelact.autodiff import Tensor, mul, reduce_sum
from skelact.model import (
    CHECKPOINT_MAGIC,
    DEFAULT_CHANNEL_PLAN,
    StgcnNetwork,
    spatial_graph_conv,
)
from helpers import max_rel_err, numeric_grad, path_graph


PLAN = ((4, 1), (8, 2))


def small_adjacency():
    return partition_spatial(path_graph(5, center=0))


def small_net(num_classes=3, seed=0, **kwargs):
    return StgcnNetwork(small_adjacency(), num_classes,
                        channel_plan=PLAN, seed=seed, **kwargs)


def small_input(rng, samples=2, frames=8, slots=2):
    return rng.uniform(-1.0, 1.0, (samples, 3, frames, 5, slots))


# --------------------------------------------------------- spatial graph conv

def oracle_spatial_conv(x, adjacency, weights, masks, bias):
    batch, channels, frames, vertices = x.shape
    out_channels = weights[0].shape[1]
    out = np.zeros((batch, out_channels, frames, vertices))
    for k in range(len(adjacency)):
        gated = adjacency[k] * masks[k]
        for b in range(batch):
            for d in range(out_channels):
                for t in range(frames):
                    for w in range(vertices):
                        for v in range(vertices):
                            for c in range(channels):
                                out[b, d, t, w] += (
                                    x[b, c, t, v] * gated[v, w] * weights[k][c, d]
                                )
    return out + bias[None, :, None, None]


def test_spatial_graph_conv_matches_loop_oracle():
    rng = np.random.default_rng(0)
    adjacency = small_adjacency()
    x = rng.uniform(-1.0, 1.0, (2, 3, 4, 5))
    weights = [rng.uniform(-1.0, 1.0, (3, 6)) for _ in range(3)]
    masks = [rng.uniform(0.5, 1.5, (5, 5)) for _ in range(3)]
    bias = rng.uniform(-0.5, 0.5, 6)
    out = spatial_graph_conv(
        Tensor(x),
        [Tensor(m) for m in adjacency.matrices],
        [Tensor(w) for w in weights],
        [Tensor(m) for m in masks],
        Tensor(bias),
    )
    expected = oracle_spatial_conv(x, adjacency.matrices, weights, masks, bias)
    assert out.shape == (2, 6, 4, 5)
    assert np.allclose(out.data, expected, atol=1e-10)


def test_spatial_graph_conv_gradcheck():
    rng = np.random.default_rng(1)
    adjacency = [Tensor(m) for m in small_adjacency().matrices]
    x = Tensor(rng.uniform(-1.0, 1.0, (1, 2, 3, 5)), trainable=True)
    weights = [Tensor(rng.uniform(-1.0, 1.0, (2, 4)), trainable=True)
               for _ in range(3)]
    masks = [Tensor(rng.uniform(0.5, 1.5, (5, 5)), trainable=True)
             for _ in range(3)]
    bias = Tensor(rng.uniform(-0.5, 0.5, 4), trainable=True)

    def build():
        out = spatial_graph_conv(x, adjacency, weights, masks, bias)
        return reduce_sum(mul(out, out), (0, 1, 2, 3))

    build().backward()
    for tensor in [x, weights[0], weights[2], masks[1], bias]:
        estimate = numeric_grad(lambda: float(build().data), tensor)
        assert max_rel_err(tensor.grad, estimate) < 1e-5
        tensor.zero_grad()


def test_spatial_graph_conv_length_mismatch():
    adjacency = [Tensor(m) for m in small_adjacency().matrices]
    x = Tensor(np.ones((1, 2, 3, 5)))
    weights = [Tensor(np.ones((2, 4))) for _ in range(2)]
    masks = [Tensor(np.ones((5, 5))) for _ in range(3)]
    with pytest.raises(ConfigurationError):
        spatial_graph_conv(x, adjacency, weights, masks)


# ----------------------------------------------------------------- structure

def test_default_channel_plan():
    assert DEFAULT_CHANNEL_PLAN == (
        (64, 1), (64, 1), (64, 1), (64, 1), (128, 2),
        (128, 1), (128, 1), (256, 2), (256, 1), (256, 1),
    )


def test_parameter_names_for_a_two_block_net():
    net = small_net()
    block = ["gcn_weight.0", "gcn_weight.1", "gcn_weight.2", "gcn_bias",
             "edge_mask.0", "edge_mask.1", "edge_mask.2",
             "bn1.gamma", "bn1.beta", "tcn_kernel", "tcn_bias",
             "bn2.gamma", "bn2.beta"]
    expected = ["input_bn.gamma", "input_bn.beta"]
    expected += [f"blocks.0.{n}" for n in block]
    expected += [f"blocks.1.{n}" for n in block]
    expected += ["blocks.1.res_weight", "blocks.1.res_bn.gamma",
                 "blocks.1.res_bn.beta", "fc.weight", "fc.bias"]
    assert sorted(net.named_parameters()) == sorted(expected)
    assert net.named_parameters()["fc.weight"].shape == (8, 3)
    assert net.named_parameters()["blocks.0.tcn_kernel"].shape == (4, 9)
    assert net.named_parameters()["input_bn.gamma"].shape == (15,)


def test_residual_kinds_follow_channels_and_stride():
    net = StgcnNetwork(small_adjacency(), 2,
                       channel_plan=((8, 1), (8, 1), (16, 2)))
    assert net.blocks[0].residual == "none"
    assert net.blocks[1].residual == "identity"
    assert net.blocks[2].residual == "project"


def test_constructor_validation():
    adjacency = small_adjacency()
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 1, channel_plan=PLAN)
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 3, channel_plan=())
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 3, channel_plan=((4, 0),))
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 3, channel_plan=PLAN, person_pool="max")
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 3, channel_plan=PLAN, dropout=1.0)
    with pytest.raises(ConfigurationError):
        StgcnNetwork(adjacency, 3, channel_plan=PLAN, in_channels=2,
                     zero_confidence=True)


def test_seeded_init_is_deterministic():
    a = small_net(seed=7).named_parameters()
    b = small_net(seed=7).named_parameters()
    c = small_net(seed=8).named_parameters()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


# -------------------------------------------------------------------- forward

def test_forward_shapes_and_eval_determinism():
    net = small_net()
    x = small_input(np.random.default_rng(2))
    first = net.forward(x)
    second = net.forward(x)
    assert first.shape == (2, 3)
    assert np.array_equal(first.data, second.data)


def test_forward_handles_odd_frame_counts():
    net = small_net()
    out = net.forward(small_input(np.random.default_rng(3), frames=7))
    assert out.shape == (2, 3)


def test_forward_input_validation():
    net = small_net()
    rng = np.random.default_rng(4)
    with pytest.raises(ConfigurationError):
        net.forward(rng.uniform(size=(2, 3, 8, 5)))
    with pytest.raises(ConfigurationError):
        net.forward(rng.uniform(size=(2, 2, 8, 5, 2)))
    with pytest.raises(ConfigurationError):
        net.forward(rng.uniform(size=(2, 3, 8, 6, 2)))


@pytest.mark.parametrize("pool", ["mean", "sum"])
def test_person_slots_commute(pool):
    net = small_net(person_pool=pool)
    x = small_input(np.random.default_rng(5))
    swapped = x[..., ::-1].copy()
    assert np.array_equal(net.forward(x).data, net.forward(swapped).data)


def test_zero_confidence_blinds_the_third_channel():
    net = small_net(zero_confidence=True)
    rng = np.random.default_rng(6)
    x = small_input(rng)
    y = x.copy()
    y[:, 2] = rng.uniform(0.0, 1.0, y[:, 2].shape)
    assert np.array_equal(net.forward(x).data, net.forward(y).data)
    plain = small_net()
    assert not np.array_equal(plain.forward(x).data, plain.forward(y).data)


def test_backward_needs_a_forward_first():
    net = small_net()
    with pytest.raises(StateError):
        net.backward(np.ones((2, 3)))
    logits = net.forward(small_input(np.random.default_rng(7)), training=True)
    net.backward(np.ones(logits.shape))
    fc = net.named_parameters()["fc.weight"]
    assert not (fc.grad == 0.0).all()
    net.zero_grad()
    assert (fc.grad == 0.0).all()


def test_training_updates_running_stats_and_eval_does_not():
    net = small_net()
    x = small_input(np.random.default_rng(8))
    before = net.input_bn.running_mean.copy()
    net.forward(x)
    assert np.array_equal(net.input_bn.running_mean, before)
    net.forward(x, training=True)
    assert not np.array_equal(net.input_bn.running_mean, before)


def test_track_stats_off_never_updates():
    net = small_net(track_stats=False)
    x = small_input(np.random.default_rng(9))
    net.forward(x, training=True)
    assert (net.input_bn.running_mean == 0.0).all()
    assert (net.input_bn.running_var == 1.0).all()


# ------------------------------------------------------------- transfer modes

def trainable_names(net):
    return {n for n, t in net.named_parameters().items() if t.trainable}


def test_mode_vanilla_and_propagation_train_everything():
    net = small_net()
    all_names = set(net.named_parameters())
    for mode in ("vanilla", "propagation"):
        set_trainable(net, mode)
        assert trainable_names(net) == all_names
        assert net.mode == mode
        assert not any(bn.frozen for _, bn in net.batch_norm_layers())


def test_mode_fine_tune_keeps_last_block_and_head():
    net = small_net()
    set_trainable(net, "fine_tune")
    expected = {n for n in net.named_parameters()
                if n.startswith(("blocks.1.", "fc."))}
    assert trainable_names(net) == expected
    frozen = dict(net.batch_norm_layers())
    assert frozen["input_bn"].frozen
    assert frozen["blocks.0.bn1"].frozen
    assert not frozen["blocks.1.bn1"].frozen
    assert not frozen["blocks.1.res_bn"].frozen


def test_mode_feature_extraction_keeps_only_the_head():
    net = small_net()
    set_trainable(net, "feature_extraction")
    assert trainable_names(net) == {"fc.weight", "fc.bias"}
    assert all(bn.frozen for _, bn in net.batch_norm_layers())
    set_trainable(net, "vanilla")
    assert trainable_names(net) == set(net.named_parameters())


def test_mode_validation():
    net = small_net()
    with pytest.raises(ConfigurationError):
        set_trainable(net, "finetune")


def test_frozen_batch_norm_keeps_running_stats_during_training():
    net = small_net()
    set_trainable(net, "feature_extraction")
    x = small_input(np.random.default_rng(10))
    before = net.input_bn.running_mean.copy()
    net.forward(x, training=True)
    assert np.array_equal(net.input_bn.running_mean, before)


# ---------------------------------------------------------------- checkpoints

def test_save_is_byte_deterministic(tmp_path):
    net = small_net(seed=3)
    twin = small_net(seed=3)
    paths = [tmp_path / f"{i}.ckpt" for i in range(3)]
    save_weights(net, paths[0])
    save_weights(net, paths[1])
    save_weights(twin, paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].startswith(CHECKPOINT_MAGIC)


def test_checkpoint_header_is_compact_sorted_json(tmp_path):
    net = small_net()
    path = tmp_path / "net.ckpt"
    save_weights(net, path)
    raw = path.read_bytes()
    length = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))[0]
    start = len(CHECKPOINT_MAGIC) + 8
    blob = raw[start:start + length]
    header = json.loads(blob)
    assert blob == json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode()
    assert header["meta"]["num_classes"] == 3
    assert header["meta"]["layout"] == "path"
    names = [entry["name"] for entry in header["arrays"]]
    assert "fc.weight" in names and "input_bn.running_var" in names


def test_read_checkpoint_round_trips_every_array(tmp_path):
    net = small_net(seed=11)
    path = tmp_path / "net.ckpt"
    save_weights(net, path)
    meta, arrays = read_checkpoint(path)
    state = net.state_arrays()
    assert set(arrays) == set(state)
    for name in state:
        assert np.array_equal(arrays[name], state[name])
    assert meta["vertex_count"] == 5


def test_load_restores_state_and_outputs(tmp_path):
    source = small_net(seed=1)
    x = small_input(np.random.default_rng(12))
    source.forward(x, training=True)
    path = tmp_path / "trained.ckpt"
    save_weights(source, path)

    target = small_net(seed=99)
    assert load_weights(target, path) == []
    for name, array in source.state_arrays().items():
        assert np.array_equal(target.state_arrays()[name], array)
    assert np.array_equal(target.forward(x).data, source.forward(x).data)


def test_strict_head_controls_class_count_mismatches(tmp_path):
    source = small_net(num_classes=4, seed=5)
    path = tmp_path / "source.ckpt"
    save_weights(source, path)

    target = small_net(num_classes=6, seed=6)
    with pytest.raises(CheckpointError):
        load_weights(target, path)

    target = small_net(num_classes=6, seed=6)
    head_before = target.fc_weight.data.copy()
    skipped = load_weights(target, path, strict_head=False)
    assert skipped == ["fc.weight", "fc.bias"]
    assert np.array_equal(target.fc_weight.data, head_before)
    assert np.array_equal(
        target.state_arrays()["blocks.0.tcn_kernel"],
        source.state_arrays()["blocks.0.tcn_kernel"],
    )


def test_structure_mismatch_is_rejected(tmp_path):
    shallow = StgcnNetwork(small_adjacency(), 3, channel_plan=((4, 1),))
    path = tmp_path / "shallow.ckpt"
    save_weights(shallow, path)
    with pytest.raises(CheckpointError):
        load_weights(small_net(), path)


def test_corrupt_checkpoints_are_rejected(tmp_path):
    net = small_net()
    good = tmp_path / "good.ckpt"
    save_weights(net, good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(CheckpointError):
        read_checkpoint(bad_magic)

    cut_header = tmp_path / "cut_header.ckpt"
    cut_header.write_bytes(raw[:20])
    with pytest.raises(CheckpointError):
        read_checkpoint(cut_header)

    cut_payload = tmp_path / "cut_payload.ckpt"
    cut_payload.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError):
        read_checkpoint(cut_payload)

    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", 4) + b"@@@@")
    with pytest.raises(CheckpointError):
        read_checkpoint(garbled)

    wrong_format = tmp_path / "format.ckpt"
    blob = json.dumps({"format": 999, "arrays": [], "meta": {}}).encode()
    wrong_format.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(CheckpointError):
        read_checkpoint(wrong_format)

    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "absent.ckpt")


# ----------------------------------------------------------------- ModelConfig

def test_model_config_builds_a_working_network():
    config = ModelConfig(layout=COCO18, channel_plan=((4, 1),), seed=2)
    net = config.build(3)
    assert net.vertex_count == 18
    assert net.num_classes == 3
    out = net.forward(np.zeros((1, 3, 4, 18, 1)))
    assert out.shape == (1, 3)


def test_model_config_validation():
    with pytest.raises((ConfigurationError, Exception)):
        ModelConfig(layout="hexapod").validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(person_slots=0).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(target_frames=0).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(dropout=-0.1).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(person_pool="median").validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(zero_confidence=True, in_channels=2).validate()
    ModelConfig().validate()


def test_network_and_model_config_share_one_option_check():
    cases = [dict(in_channels=0), dict(person_pool="max"), dict(dropout=1.0),
             dict(in_channels=2, zero_confidence=True), dict(channel_plan=()),
             dict(channel_plan=((4, 0),))]
    for options in cases:
        with pytest.raises(ConfigurationError) as direct:
            StgcnNetwork(small_adjacency(), 3, **options)
        with pytest.raises(ConfigurationError) as configured:
            ModelConfig(**options).validate()
        assert str(configured.value) == "model." + str(direct.value)


def test_meta_reports_the_structure():
    meta = small_net().meta()
    assert meta == {
        "layout": "path",
        "vertex_count": 5,
        "partition_count": 3,
        "num_classes": 3,
        "in_channels": 3,
        "channel_plan": [[4, 1], [8, 2]],
        "person_pool": "mean",
    }
