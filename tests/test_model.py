"""Network assembly, forward pass, transfer modes, checkpoints."""
import hashlib
import json
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from skelact import (
    COCO18,
    CheckpointError,
    ConfigurationError,
    ModelConfig,
    SGD,
    SkeletonGraph,
    TrainConfig,
    build_graph,
    cross_entropy,
    load_weights,
    partition_spatial,
    read_checkpoint,
    save_weights,
    set_trainable,
    train_loop,
)
from skelact import autodiff as ad
from skelact.autodiff import (
    Tensor,
    add,
    graph_conv,
    matmul_last,
    mean,
    mul,
    reduce_sum,
    reshape,
    transpose,
)
from skelact.model import (
    CHECKPOINT_MAGIC,
    DEFAULT_CHANNEL_PLAN,
    BatchNorm,
    StgcnBlock,
    StgcnNetwork,
)
from helpers import (
    _oracle_norm,
    max_rel_err,
    motion_dataset,
    numeric_grad,
    oracle_block,
    oracle_graph_conv,
    pair_dataset,
    path_graph,
    rewrite_checkpoint,
    traced_peak,
)


PLAN = ((4, 1), (8, 2))


def small_graph():
    return path_graph(5, center=0)


def small_adjacency():
    return partition_spatial(small_graph())


def small_net(num_classes=3, seed=0, **kwargs):
    return StgcnNetwork(small_graph(), num_classes,
                        ModelConfig(channel_plan=PLAN, seed=seed, **kwargs))


def small_input(rng, samples=2, frames=8, slots=2):
    return rng.uniform(-1.0, 1.0, (samples, 3, frames, 5, slots))


# ---------------------------------------------------------- spatial graph conv

def test_spatial_graph_conv_matches_loop_oracle():
    rng = np.random.default_rng(0)
    adjacency = small_adjacency()
    x = rng.uniform(-1.0, 1.0, (3, 2, 4, 5))
    weight = rng.uniform(-1.0, 1.0, (3, 3, 6))
    mask = rng.uniform(0.5, 1.5, (3, 5, 5))
    out = graph_conv(Tensor(x), adjacency, Tensor(weight), Tensor(mask))
    expected = oracle_graph_conv(x, adjacency, weight, mask)
    assert out.data.shape == (6, 2, 4, 5)
    assert np.allclose(out.data, expected, atol=1e-10)


def test_spatial_graph_conv_gradcheck():
    rng = np.random.default_rng(1)
    adjacency = small_adjacency()
    x = Tensor(rng.uniform(-1.0, 1.0, (2, 1, 3, 5)), trainable=True)
    weight = Tensor(rng.uniform(-1.0, 1.0, (3, 2, 4)), trainable=True)
    mask = Tensor(rng.uniform(0.5, 1.5, (3, 5, 5)), trainable=True)

    def build():
        out = graph_conv(x, adjacency, weight, mask)
        return reduce_sum(mul(out, out), (0, 1, 2, 3))

    build().backward()
    for tensor in [x, weight, mask]:
        estimate = numeric_grad(lambda: float(build().data), tensor)
        assert max_rel_err(tensor.grad, estimate) < 1e-5
        tensor.zero_grad()


# ---------------------------------------------------------------------- blocks

def small_block(in_channels, out_channels, stride, seed=0):
    return StgcnBlock(in_channels, out_channels, 5, 3,
                      np.random.default_rng(seed), stride=stride)


def test_stride_two_projection_matches_a_loop_oracle():
    block = small_block(3, 6, stride=2)
    assert block.residual == "project"
    # A zero bn2 silences the main path, so the block emits
    # relu(res_bn(projection of every second frame)).
    block.bn2.gamma.data[...] = 0.0
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, (3, 2, 7, 5))
    adjacency = small_adjacency()
    out = block.forward(Tensor(x), adjacency, training=False, rng=None)

    weight = block.res_weight.data
    expected = np.zeros((6, 2, 4, 5))
    for b in range(2):
        for d in range(6):
            for t in range(4):
                for v in range(5):
                    for c in range(3):
                        expected[d, b, t, v] += x[c, b, 2 * t, v] * weight[c, d]
    expected = np.maximum(expected / np.sqrt(1.0 + BatchNorm.EPS), 0.0)
    assert np.allclose(out.data, expected, atol=1e-12)


def perturb_batch_norms(layers, rng):
    """Move running statistics, gamma and beta away from their start."""
    for bn in layers:
        bn.running_mean = rng.uniform(-0.5, 0.5, bn.running_mean.shape)
        bn.running_var = rng.uniform(0.3, 3.0, bn.running_var.shape)
        bn.gamma.data[...] = rng.uniform(-1.5, 1.5, bn.gamma.data.shape)
        bn.beta.data[...] = rng.uniform(-0.5, 0.5, bn.beta.data.shape)


def unfused_logits(net, x):
    samples, channels, frames, vertices, slots = x.shape
    h = Tensor(x.transpose(3, 1, 0, 4, 2).reshape(
        vertices * channels, samples * slots, frames, 1))
    h = _oracle_norm(net.input_bn, h, training=False)
    h = transpose(reshape(h, (vertices, channels, samples * slots, frames)),
                  (1, 2, 3, 0))
    for block in net.blocks:
        h = oracle_block(block, h, net.adjacency, training=False)
    h = reshape(mean(h, axes=(2, 3)), (net.channel_plan[-1][0], samples, slots))
    h = transpose(mean(h, axes=(2,)), (1, 0))
    return add(matmul_last(h, net.fc_weight), net.fc_bias).data


def perturbed_block(in_channels, stride, residual=True, dropout=0.0, seed=30):
    """A block whose batch norms have moved away from their start."""
    block = StgcnBlock(in_channels, 8, 5, 3, np.random.default_rng(seed),
                       stride=stride, residual=residual, dropout=dropout)
    perturb_batch_norms([bn for _, bn in block.batch_norms()],
                        np.random.default_rng(seed + 1))
    return block


RESIDUAL_KINDS = {"identity": (8, 1, True), "project": (4, 2, True),
                  "none": (4, 1, False)}


# "Folded" names the eval block's batch norms, run inside their
# convolutions' nodes (bn1 as the temporal conv's prologue, the others as
# epilogues); the oracle runs each batch norm as its own node.
@pytest.mark.parametrize("in_channels,stride,residual", RESIDUAL_KINDS.values(),
                         ids=RESIDUAL_KINDS.keys())
def test_folded_eval_block_matches_the_unfused_batch_norm_chain(
        in_channels, stride, residual):
    block = perturbed_block(in_channels, stride, residual)
    assert block.residual == {True: "identity" if stride == 1 else "project",
                              False: "none"}[residual]
    adjacency = small_adjacency()
    x = Tensor(np.random.default_rng(32).uniform(-1.0, 1.0, (in_channels, 2, 7, 5)))
    expected = oracle_block(block, x, adjacency, training=False).data
    out = block.forward(x, adjacency, training=False, rng=None)
    assert out.is_leaf and out.grad is None
    assert (expected > 0).mean() > 0.2
    assert np.abs(out.data - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("frames", [6, 7])
@pytest.mark.parametrize("in_channels,stride,residual", RESIDUAL_KINDS.values(),
                         ids=RESIDUAL_KINDS.keys())
def test_eval_block_has_the_bits_of_the_folded_chain(in_channels, stride, residual,
                                                     frames):
    block = perturbed_block(in_channels, stride, residual)
    adjacency = small_adjacency()
    x = Tensor(np.random.default_rng(33).uniform(-1.0, 1.0,
                                                 (in_channels, 2, frames, 5)))
    expected = oracle_block(block, x, adjacency, training=False).data
    out = block.forward(x, adjacency, training=False, rng=None)
    assert out.is_leaf and out.grad is None
    assert (expected > 0).mean() > 0.2
    assert out.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("frames", [6, 7])
@pytest.mark.parametrize("in_channels,stride,residual", RESIDUAL_KINDS.values(),
                         ids=RESIDUAL_KINDS.keys())
def test_frozen_block_trains_with_the_bits_of_its_eval_forward(
        in_channels, stride, residual, frames):
    block = perturbed_block(in_channels, stride, residual)
    for _, bn in block.batch_norms():
        bn.gamma.trainable = bn.beta.trainable = False
    adjacency = small_adjacency()
    x = np.random.default_rng(33).uniform(-1.0, 1.0, (in_channels, 2, frames, 5))
    trained = block.forward(Tensor(x, trainable=True), adjacency, training=True,
                            rng=np.random.default_rng(34))
    evaluated = block.forward(Tensor(x), adjacency, training=False, rng=None)
    assert not trained.is_leaf and evaluated.is_leaf
    assert trained.data.tobytes() == evaluated.data.tobytes()


# The outputs of graph_conv and temporal_conv; the strided projection runs
# inside the temporal conv's node, and no weight is copied.
EVAL_TENSORS = {"identity": 2, "project": 2, "none": 2}


@pytest.mark.parametrize("kind", RESIDUAL_KINDS)
def test_eval_block_builds_only_its_ops_outputs(kind, monkeypatch):
    in_channels, stride, residual = RESIDUAL_KINDS[kind]
    block = perturbed_block(in_channels, stride, residual)
    adjacency = small_adjacency()
    x = Tensor(np.random.default_rng(33).uniform(-1.0, 1.0, (in_channels, 2, 7, 5)))
    constructed = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    out = block.forward(x, adjacency, training=False, rng=None)
    assert out is constructed[-1]
    assert len(constructed) == EVAL_TENSORS[kind]


# (in_channels, stride, residual, frames, dropout rate)
TRAINING_CASES = {
    "none": (4, 1, False, 6, 0.0),
    "identity": (8, 1, True, 6, 0.0),
    "project": (4, 1, True, 6, 0.0),
    "strided_project": (4, 2, True, 6, 0.0),
    "odd_frames": (4, 2, True, 7, 0.0),
    "dropout": (8, 1, True, 6, 0.3),
}


def training_run(block, forward, x_data):
    """Outputs, gradients and running statistics of one training step."""
    adjacency = small_adjacency()
    x = Tensor(x_data, trainable=True)
    out = forward(block, x, adjacency, True, np.random.default_rng(34))
    out.backward(np.random.default_rng(35).uniform(-1.0, 1.0, out.data.shape))
    grads = {name: t.grad for name, t in block.parameters()}
    stats = [a for _, bn in block.batch_norms()
             for a in (bn.running_mean, bn.running_var)]
    return out.data, x.grad, grads, stats


@pytest.mark.parametrize("in_channels,stride,residual,frames,rate",
                         TRAINING_CASES.values(), ids=TRAINING_CASES.keys())
def test_training_block_has_the_bits_of_the_unfused_chain(
        in_channels, stride, residual, frames, rate):
    x = np.random.default_rng(36).uniform(-1.0, 1.0, (in_channels, 2, frames, 5))
    fused = training_run(perturbed_block(in_channels, stride, residual, rate),
                         StgcnBlock.forward, x)
    chain = training_run(perturbed_block(in_channels, stride, residual, rate),
                         oracle_block, x)
    assert_same_training_bits(fused, chain)
    out, _, grads, _ = fused
    assert 0.2 < (out > 0).mean() < 0.9
    # Gradients reached the convolutions and the batch norms.
    assert all(np.abs(part).max() > 0.0 for part in grads["gcn_weight"])
    assert np.abs(grads["bn1.gamma"]).max() > 0.0


def assert_same_training_bits(fused, chain):
    out, x_grad, grads, stats = fused
    assert out.tobytes() == chain[0].tobytes()
    assert x_grad.tobytes() == chain[1].tobytes()
    assert grads.keys() == chain[2].keys()
    for name, grad in grads.items():
        assert grad.tobytes() == chain[2][name].tobytes(), name
    assert [a.tobytes() for a in stats] == [a.tobytes() for a in chain[3]]


@pytest.mark.parametrize("in_channels,stride,residual,frames,rate",
                         TRAINING_CASES.values(), ids=TRAINING_CASES.keys())
def test_block_reads_no_uninitialized_memory(in_channels, stride, residual, frames,
                                             rate, monkeypatch):
    # The zero borders around the frames are written explicitly; every
    # other element of an np.empty array must be written before it is read.
    x = np.random.default_rng(36).uniform(-1.0, 1.0, (in_channels, 2, frames, 5))
    adjacency = small_adjacency()
    chain = training_run(perturbed_block(in_channels, stride, residual, rate),
                         oracle_block, x)
    expected = oracle_block(perturbed_block(in_channels, stride, residual),
                            Tensor(x), adjacency, training=False).data
    empty = np.empty

    def nan_filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(ad.np, "empty", nan_filled)
    assert np.isnan(ad.np.empty(3)).all()
    fused = training_run(perturbed_block(in_channels, stride, residual, rate),
                         StgcnBlock.forward, x)
    evaluated = perturbed_block(in_channels, stride, residual).forward(
        Tensor(x), adjacency, training=False, rng=None).data
    assert_same_training_bits(fused, chain)
    assert evaluated.tobytes() == expected.tobytes()


def held_by_a_training_forward(stride, dropout=0.0):
    """What one warm training forward of a first-stage block of a T=30,
    B=4, M=2 run, at (64, 8, 30, 18), keeps alive, in input sizes."""
    channels = 64
    block = StgcnBlock(channels, channels * stride, 18, 3,
                       np.random.default_rng(37), stride=stride, dropout=dropout)
    assert block.residual == ("identity" if stride == 1 else "project")
    adjacency = partition_spatial(build_graph(COCO18))
    x = Tensor(np.random.default_rng(38).standard_normal((channels, 8, 30, 18)),
               trainable=True)
    rng = np.random.default_rng(39)
    block.forward(x, adjacency, training=True, rng=rng)
    out, held, _ = traced_peak(
        lambda: block.forward(x, adjacency, training=True, rng=rng))
    assert not out.is_leaf
    return held / x.data.nbytes


@pytest.mark.parametrize("stride,bound", [(1, 3.3), (2, 5.4)],
                         ids=["identity", "strided_projection"])
def test_training_block_forward_holds_few_input_sizes(stride, bound):
    # Held: node A's output, which node B's prologue centered in place for
    # bn1, node B's centered conv output for bn2, and the output, which is
    # node B's; with a projection also res_bn's centered input, which
    # node B's epilogue keeps. The graph conv's aggregate (3x the input),
    # the zero-bordered buffer node B convolves and the projection's
    # subsampled input are rebuilt in backward, the projection's output is
    # added and dropped, and no ReLU keeps a bool mask: 3.01x and 5.01x.
    assert held_by_a_training_forward(stride) <= bound


def test_training_block_forward_keeps_the_dropout_mask_as_bools():
    # Dropout adds one bool per element, 1/8 of the input, to the 3.01x an
    # identity block holds without it: 3.13x.
    assert held_by_a_training_forward(1, dropout=0.3) <= 3.3


def test_training_block_keeps_no_bordered_buffer_after_its_forward(monkeypatch):
    # Node B writes bn1's rectified output into a zero-bordered buffer,
    # convolves it and drops it; backward builds it again.
    block = small_block(4, 8, 2)
    built, shapes = [], []
    bordered = ad._bordered

    def watched(*args):
        out = bordered(*args)
        built.append(weakref.ref(out))
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(ad, "_bordered", watched)
    x = Tensor(np.random.default_rng(17).uniform(-1.0, 1.0, (4, 2, 6, 5)),
               trainable=True)
    out = block.forward(x, small_adjacency(), training=True, rng=None)
    assert not out.is_leaf and shapes == [(8, 2, 6 + 8, 5)]
    assert built[0]() is None
    out.backward(np.ones(out.data.shape))
    assert np.abs(block.tcn_kernel.grad).max() > 0.0


def test_training_forward_of_the_paper_plan_holds_what_backward_needs():
    # One warm training forward at the benchmark's train shape (N=4, T=30,
    # M=2, COCO18, 10-block plan), input batch norm, projections and
    # pooling included. It keeps 47.7 MiB (69.3 MiB when each node B kept
    # bn2's centered input, 73.7 MiB when each projection also kept
    # res_bn's, instead of rebuilding them in backward).
    net = StgcnNetwork(build_graph(COCO18), 10, ModelConfig(seed=0))
    x = np.random.default_rng(40).uniform(-1.0, 1.0, (4, 3, 30, 18, 2))
    net.forward(x, training=True)
    logits, held, _ = traced_peak(lambda: net.forward(x, training=True))
    assert not logits.is_leaf
    assert held <= 50 * 2**20


def test_training_step_of_the_paper_plan_has_a_bounded_peak():
    # One warm step, forward, backward and SGD, at the same shape. Each
    # batch norm's backward masks, sums and writes dx a few channels at a
    # time over its centered input, the temporal conv's input gradient
    # and the graph conv's aggregate gradient go over arrays whose last
    # reader has run, and backward frees each node's saved arrays once it
    # has run, so the later blocks' backward temporaries replace what they
    # free: 59.5 MiB (78.5 MiB when each node B kept bn2's centered input,
    # 85.2 MiB when each backward result was also a fresh array, 90.6 MiB
    # when every node also lived to the end of the pass).
    net = StgcnNetwork(build_graph(COCO18), 10, ModelConfig(seed=0))
    optimizer = SGD(net.parameters(), momentum=0.9)
    x = np.random.default_rng(40).uniform(-1.0, 1.0, (4, 3, 30, 18, 2))

    def step():
        logits = net.forward(x, training=True)
        _, grad = cross_entropy(logits.data, np.arange(4))
        logits.backward(grad)
        del logits
        optimizer.step(0.1)

    step()
    _, _, peak = traced_peak(step)
    assert peak <= 62 * 2**20


def test_backward_of_the_paper_plan_frees_the_graph_while_the_logits_live():
    # The 47.7 MiB the forward holds goes during the backward pass itself,
    # not when the caller drops the logits.
    net = StgcnNetwork(build_graph(COCO18), 10, ModelConfig(seed=0))
    x = np.random.default_rng(40).uniform(-1.0, 1.0, (4, 3, 30, 18, 2))
    net.forward(x, training=True).backward(np.zeros((4, 10)))

    def step():
        logits = net.forward(x, training=True)
        _, grad = cross_entropy(logits.data, np.arange(4))
        logits.backward(grad)
        return logits

    logits, held, _ = traced_peak(step)
    assert not logits.is_leaf
    assert held < 2**20


def test_eval_network_has_the_bits_of_the_unfused_chain():
    # At 9 frames a weight fold, which scaled each weight by its batch
    # norm's factor, differs from this chain in the last bits.
    net = small_net(seed=4)
    rng = np.random.default_rng(32)
    perturb_batch_norms([bn for _, bn in net.batch_norm_layers()], rng)
    x = small_input(rng, frames=9)
    expected = unfused_logits(net, x)
    logits = net.forward(x)
    assert logits.data.tobytes() == expected.tobytes()


def test_eval_forward_at_the_paper_shape_keeps_no_graph_and_little_memory():
    # One T=300 sample through the 10-block plan. Recording a graph kept
    # every block's aggregate, padded input and masks alive: a 273 MiB
    # peak. Without one, only a few layer-sized arrays are alive at once.
    net = StgcnNetwork(build_graph(COCO18), 10, ModelConfig(seed=0))
    x = np.random.default_rng(33).uniform(-1.0, 1.0, (1, 3, 300, 18, 1))
    net.forward(x)
    logits, _, peak = traced_peak(lambda: net.forward(x))
    assert logits.is_leaf and logits.grad is None
    assert peak < 64 * 2**20


@pytest.mark.parametrize("in_channels,stride", [(8, 1), (4, 1), (4, 2)])
def test_block_forward_builds_two_nodes(in_channels, stride, monkeypatch):
    # Node A (graph conv) and node B (temporal conv, bn1 and ReLU as its
    # prologue) carry the block's batch norms, ReLUs and residual add; a
    # projection, strided or not, runs inside node B's epilogue.
    block = small_block(in_channels, 8, stride)
    assert block.residual == ("identity" if in_channels == 8 else "project")
    adjacency = small_adjacency()
    x = Tensor(np.random.default_rng(14).uniform(-1.0, 1.0, (in_channels, 2, 6, 5)))
    built = []
    init = Tensor.__init__

    def counting(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        built.append(tensor)

    monkeypatch.setattr(Tensor, "__init__", counting)
    block.forward(x, adjacency, training=True, rng=None)
    assert len(built) == 2


def test_feature_extraction_training_forward_records_only_the_head(monkeypatch):
    # Only the classifier trains, so the ops before it take no trainable
    # operand and return bare leaves: the graph is the head's two nodes.
    net = small_net()
    set_trainable(net, "feature_extraction")
    recorded = []
    init = Tensor.__init__

    def recording(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        if not tensor.is_leaf:
            recorded.append(tensor)

    monkeypatch.setattr(Tensor, "__init__", recording)
    logits = net.forward(small_input(np.random.default_rng(15)), training=True)
    assert len(recorded) == 2 and recorded[-1] is logits
    logits.backward(np.ones(logits.data.shape))
    assert np.abs(net.fc_weight.grad).max() > 0.0


def test_fine_tune_training_forward_keeps_no_array_of_a_frozen_block(monkeypatch):
    # Blocks 0 and 1 are frozen. Of every array built before block 2 runs,
    # only block 1's output, the input block 2 trains on, outlives the
    # forward.
    net = StgcnNetwork(small_graph(), 3,
                       ModelConfig(channel_plan=((4, 1), (4, 1), (8, 2))))
    set_trainable(net, "fine_tune")
    built, frozen, trained_input = [], [], []
    init = Tensor.__init__

    def watched(tensor, *args, **kwargs):
        init(tensor, *args, **kwargs)
        built.append(weakref.ref(tensor.data))

    last = net.blocks[-1]

    def last_block(x, *args):
        frozen.extend(built)
        trained_input.append(x.data)
        return StgcnBlock.forward(last, x, *args)

    monkeypatch.setattr(Tensor, "__init__", watched)
    monkeypatch.setattr(last, "forward", last_block, raising=False)
    logits = net.forward(small_input(np.random.default_rng(16)), training=True)
    assert not logits.is_leaf and len(frozen) == 8
    alive = [ref() for ref in frozen if ref() is not None]
    assert len(alive) == 1 and alive[0] is trained_input.pop()


def fine_tune_step(path, trainable_input=False):
    """One SGD step of a fine_tune net whose last block, the one that
    trains, has a strided projection shortcut; saves the checkpoint to
    ``path``. ``trainable_input`` makes the block's input a trainable leaf,
    so that every input gradient is computed. Returns that input and each
    (tensor, gradient shape) handed to ``_accumulate``."""
    accumulated = []
    accumulate = ad._accumulate

    def watched(tensor, grad):
        accumulated.append((tensor, grad.shape))
        accumulate(tensor, grad)

    net = StgcnNetwork(small_graph(), 3,
                       ModelConfig(channel_plan=((4, 1), (4, 1), (8, 2))))
    set_trainable(net, "fine_tune")
    last, inputs = net.blocks[-1], []

    def last_block(h, *args):
        inputs.append(Tensor(h.data, trainable=True) if trainable_input else h)
        return StgcnBlock.forward(last, inputs[0], *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "_accumulate", watched)
        patch.setattr(last, "forward", last_block, raising=False)
        logits = net.forward(small_input(np.random.default_rng(16)), training=True)
        logits.backward(np.random.default_rng(17).uniform(-1.0, 1.0, logits.data.shape))
    SGD(net.parameters(), momentum=0.9).step(0.1)
    save_weights(net, path)
    return inputs[0], accumulated


def test_fine_tune_step_computes_no_gradient_for_a_frozen_blocks_output(tmp_path):
    # The last block trains on block 1's output, a bare leaf, so its graph
    # conv's backward skips the K products of an input gradient. A step in
    # which that input is made trainable, so that its gradient is
    # computed, saves the same checkpoint bytes.
    skipped, accumulated = fine_tune_step(tmp_path / "skipped.ckpt")
    assert not any(tensor is skipped for tensor, _ in accumulated)
    computed, accumulated = fine_tune_step(tmp_path / "computed.ckpt",
                                           trainable_input=True)
    assert any(tensor is computed for tensor, _ in accumulated)
    assert ((tmp_path / "skipped.ckpt").read_bytes()
            == (tmp_path / "computed.ckpt").read_bytes())


def test_fine_tune_step_hands_no_gradient_to_a_frozen_leaf(tmp_path):
    # The projection shortcut, run inside the last block's temporal conv
    # node, reads block 1's output, a bare leaf, so its backward skips its
    # input gradient too. Computing every input gradient, the projection's
    # and the graph conv's, saves the same checkpoint bytes.
    _, accumulated = fine_tune_step(tmp_path / "skipped.ckpt")
    assert [shape for tensor, shape in accumulated
            if tensor.is_leaf and not tensor.trainable] == []
    computed, accumulated = fine_tune_step(tmp_path / "computed.ckpt",
                                           trainable_input=True)
    assert [shape for tensor, shape in accumulated
            if tensor is computed] == [(4, 4, 8, 5)] * 2
    assert ((tmp_path / "skipped.ckpt").read_bytes()
            == (tmp_path / "computed.ckpt").read_bytes())


# ----------------------------------------------------------------- structure

def test_default_channel_plan():
    assert DEFAULT_CHANNEL_PLAN == (
        (64, 1), (64, 1), (64, 1), (64, 1), (128, 2),
        (128, 1), (128, 1), (256, 2), (256, 1), (256, 1),
    )


def test_parameter_names_for_a_two_block_net():
    net = small_net()
    block = ["gcn_weight", "edge_mask", "bn1.gamma", "bn1.beta", "tcn_kernel",
             "bn2.gamma", "bn2.beta"]
    expected = ["input_bn.gamma", "input_bn.beta"]
    expected += [f"blocks.0.{n}" for n in block]
    expected += [f"blocks.1.{n}" for n in block]
    expected += ["blocks.1.res_weight", "blocks.1.res_bn.gamma",
                 "blocks.1.res_bn.beta", "fc.weight", "fc.bias"]
    assert sorted(net.named_parameters()) == sorted(expected)
    assert net.named_parameters()["fc.weight"].data.shape == (8, 3)
    assert net.named_parameters()["blocks.0.tcn_kernel"].data.shape == (4, 9)
    assert net.named_parameters()["input_bn.gamma"].data.shape == (15,)
    # One (K, C, D) weight and one (K, V, V) edge importance per block.
    assert net.named_parameters()["blocks.1.gcn_weight"].data.shape == (3, 4, 8)
    assert net.named_parameters()["blocks.1.edge_mask"].data.shape == (3, 5, 5)


def test_residual_kinds_follow_channels_and_stride():
    net = StgcnNetwork(small_graph(), 2,
                       ModelConfig(channel_plan=((8, 1), (8, 1), (16, 2))))
    assert net.blocks[0].residual == "none"
    assert net.blocks[1].residual == "identity"
    assert net.blocks[2].residual == "project"


def test_constructor_validation():
    graph = small_graph()
    with pytest.raises(ConfigurationError):
        StgcnNetwork(graph, 1, ModelConfig(channel_plan=PLAN))
    with pytest.raises(ConfigurationError):
        StgcnNetwork(graph, 3, ModelConfig(channel_plan=()))
    with pytest.raises(ConfigurationError):
        StgcnNetwork(graph, 3, ModelConfig(channel_plan=((4, 0),)))
    with pytest.raises(ConfigurationError):
        StgcnNetwork(graph, 3, ModelConfig(channel_plan=PLAN, person_pool="max"))
    with pytest.raises(ConfigurationError):
        StgcnNetwork(graph, 3, ModelConfig(channel_plan=PLAN, dropout=1.0))


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
    assert first.data.shape == (2, 3)
    assert np.array_equal(first.data, second.data)


def test_forward_handles_odd_frame_counts():
    net = small_net()
    out = net.forward(small_input(np.random.default_rng(3), frames=7))
    assert out.data.shape == (2, 3)


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
    logits = net.forward(small_input(np.random.default_rng(7)), training=True)
    logits.backward(np.ones(logits.data.shape))
    fc = net.named_parameters()["fc.weight"]
    assert not (fc.grad == 0.0).all()
    before = fc.data.copy()
    SGD(net.parameters()).step(0.0)
    assert fc.grad is None and np.array_equal(fc.data, before)


def test_previous_step_graph_is_gone_when_the_next_training_forward_starts():
    # Tensor has __slots__ and takes no weak reference; its data array does,
    # and only the logits tensor, the root of the step's graph, holds it.
    net = small_net()
    forward = net.forward
    previous = []
    still_alive = []

    def watched(x, training=False):
        if training and previous:
            still_alive.append(previous[-1]() is not None)
        logits = forward(x, training)
        if training:
            previous.append(weakref.ref(logits.data))
        return logits

    net.forward = watched
    pairs = motion_dataset(2, 8, 5, seed=4)
    data = pair_dataset(pairs)
    train_loop(net, data, data, TrainConfig(batch_size=2, epochs=2))
    assert len(still_alive) == 5
    assert not any(still_alive)


def test_training_updates_running_stats_and_eval_does_not():
    net = small_net()
    x = small_input(np.random.default_rng(8))
    before = net.input_bn.running_mean.copy()
    net.forward(x)
    assert np.array_equal(net.input_bn.running_mean, before)
    net.forward(x, training=True)
    assert not np.array_equal(net.input_bn.running_mean, before)


def test_training_forward_folds_the_batch_statistics_in_with_momentum():
    rng = np.random.default_rng(9)
    bn = BatchNorm(3)
    bn.running_mean = rng.uniform(-1.0, 1.0, 3)
    bn.running_var = rng.uniform(0.5, 2.0, 3)
    old_mean, old_var = bn.running_mean.copy(), bn.running_var.copy()
    x = rng.uniform(-1.0, 3.0, (3, 4, 5, 2))
    ad.batch_norm(Tensor(x), bn.norm(training=True))
    assert np.array_equal(bn.running_mean,
                          0.9 * old_mean + 0.1 * x.mean(axis=(1, 2, 3)))
    assert np.array_equal(bn.running_var,
                          0.9 * old_var + 0.1 * x.var(axis=(1, 2, 3)))


# ------------------------------------------------------------- transfer modes

def trainable_names(net):
    return {n for n, t in net.named_parameters().items() if t.trainable}


def test_mode_vanilla_and_propagation_train_everything():
    net = small_net()
    all_names = set(net.named_parameters())
    for mode in ("vanilla", "propagation"):
        set_trainable(net, "feature_extraction")
        set_trainable(net, mode)
        assert trainable_names(net) == all_names
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


def test_feature_extraction_leaves_gradient_buffers_only_on_the_head():
    # No parameter has a gradient buffer before backward gives it one,
    # and backward gives none to the frozen trunk.
    net = small_net()
    assert all(t.grad is None for t in net.parameters())
    set_trainable(net, "feature_extraction")
    logits = net.forward(small_input(np.random.default_rng(8)), training=True)
    logits.backward(np.ones(logits.data.shape))
    holding = {name: t.grad.nbytes for name, t in net.named_parameters().items()
               if t.grad is not None}
    assert holding == {"fc.weight": net.fc_weight.data.nbytes,
                       "fc.bias": net.fc_bias.data.nbytes}


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
    assert header["format"] == 2
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


def test_read_checkpoint_arrays_are_read_only_and_loading_copies_them(tmp_path):
    path = tmp_path / "net.ckpt"
    save_weights(small_net(seed=11), path)
    _, arrays = read_checkpoint(path)
    net = small_net(seed=12)
    load_weights(net, path)
    state = net.state_arrays()
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        assert state[name].flags.writeable, name
        assert not np.shares_memory(state[name], array), name
        assert np.array_equal(state[name], array), name


def test_loading_a_paper_plan_checkpoint_peaks_near_its_file_size(tmp_path):
    # The benchmark's eval network: 4 classes, the 10-block plan. Loading
    # holds the file's bytes once and writes each weight from them into the
    # network: 1.02x the file. A copy of each array as it was read made it
    # 2.01x.
    path = tmp_path / "paper.ckpt"
    save_weights(ModelConfig(seed=0).build(4), path)
    net = ModelConfig(seed=1).build(4)
    _, _, peak = traced_peak(lambda: load_weights(net, path))
    assert peak <= 1.25 * path.stat().st_size
    assert np.array_equal(net.fc_weight.data, read_checkpoint(path)[1]["fc.weight"])


# SHA-256 of ``small_net(seed=7)``'s checkpoint, recorded while each
# partition's weight and mask were tensors of their own: the stacked
# (K, ...) parameters draw the same values in the same order and save them
# under the same names.
SEED_7_CHECKPOINT = "5c6cd0a12b375e6736adddfe4e3e498ce02a900ddddaab689ca95befd97d1bb2"


def test_a_seeded_network_saves_the_recorded_checkpoint_bytes(tmp_path):
    path = tmp_path / "seed7.ckpt"
    save_weights(small_net(seed=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED_7_CHECKPOINT


def test_state_arrays_are_views_and_loading_writes_them_in_place():
    net = small_net(seed=3)
    state = net.state_arrays()
    block = net.blocks[0]
    for k in range(3):
        assert np.shares_memory(state[f"blocks.0.gcn_weight.{k}"], block.gcn_weight.data[k])
        assert np.shares_memory(state[f"blocks.0.edge_mask.{k}"], block.edge_mask.data[k])
    # Training moves the running statistics off their initial values.
    source = small_net(seed=4)
    source.forward(small_input(np.random.default_rng(13)), training=True)
    net.load_state_arrays(source.state_arrays())
    loaded = net.state_arrays()
    for name, array in state.items():
        assert np.shares_memory(loaded[name], array), name
        assert np.array_equal(array, source.state_arrays()[name]), name
    assert net.input_bn.running_mean is state["input_bn.running_mean"]
    assert not (state["blocks.1.res_bn.running_var"] == 1.0).all()


def test_a_state_view_taken_before_a_training_step_sees_its_statistics():
    net = small_net(seed=3)
    state = net.state_arrays()
    initial = {name: array.copy() for name, array in state.items()}
    net.forward(small_input(np.random.default_rng(13)), training=True)
    after = net.state_arrays()
    running = [name for name in state if name.endswith((".running_mean", ".running_var"))]
    assert running
    for name in running:
        assert np.shares_memory(state[name], after[name]), name
        assert not np.array_equal(state[name], initial[name]), name


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
    shallow = StgcnNetwork(small_graph(), 3, ModelConfig(channel_plan=((4, 1),)))
    path = tmp_path / "shallow.ckpt"
    save_weights(shallow, path)
    with pytest.raises(CheckpointError):
        load_weights(small_net(), path)


def star_graph():
    """Five joints, like ``small_graph``, under another layout name."""
    return SkeletonGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)), 0, "star")


# Saved and loaded networks whose arrays all have equal shapes, so only the
# checkpoint's meta tells them apart.
META_MISMATCHES = {
    "stride": (dict(channel_plan=((8, 1), (16, 2))),
               dict(channel_plan=((8, 1), (16, 1))), "channel_plan"),
    "pool": (dict(person_pool="sum"), dict(person_pool="mean"), "person_pool"),
    "layout": (dict(graph=star_graph()), dict(), "layout"),
}


@pytest.mark.parametrize("saved,loaded,key", META_MISMATCHES.values(),
                         ids=META_MISMATCHES.keys())
def test_load_weights_rejects_a_checkpoint_of_another_structure(saved, loaded, key,
                                                                tmp_path):
    def build(options):
        options = {"graph": small_graph(), "channel_plan": PLAN, **options}
        return StgcnNetwork(options.pop("graph"), 3, ModelConfig(seed=2, **options))

    source, target = build(saved), build(loaded)
    assert {n: a.shape for n, a in source.state_arrays().items()} == \
        {n: a.shape for n, a in target.state_arrays().items()}
    path = tmp_path / "source.ckpt"
    save_weights(source, path)
    before = {n: a.copy() for n, a in target.state_arrays().items()}
    with pytest.raises(CheckpointError) as caught:
        load_weights(target, path, strict_head=False)
    message = str(caught.value)
    assert key in message
    assert repr(source.meta()[key]) in message and repr(target.meta()[key]) in message
    for name, array in target.state_arrays().items():
        assert np.array_equal(array, before[name]), name


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


def test_a_checkpoint_header_with_a_repeated_key_is_rejected(tmp_path):
    good = tmp_path / "good.ckpt"
    save_weights(small_net(), good)
    raw = good.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))[0]
    # json.loads keeps the last of two equal keys: this header read as format 2.
    blob = raw[start:end].replace(b'"format":2', b'"format":1,"format":2')
    assert blob != raw[start:end]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[end:])
    with pytest.raises(CheckpointError, match="corrupt header: duplicate key 'format'"):
        read_checkpoint(bad)


def entry_edit(index, drop=None, **fields):
    def edit(header):
        header["arrays"][index].update(fields)
        header["arrays"][index].pop(drop, None)
        return header
    return edit


def first_entry_copied(field):
    def edit(header):
        header["arrays"][1][field] = header["arrays"][0][field]
        return header
    return edit


# (edit of a saved header, extra payload bytes, what the error names).
# Entry 0 is input_bn.gamma, entry 1 input_bn.beta.
HEADER_EDITS = {
    "negative_offset": (entry_edit(0, offset=-64), b"", "'input_bn.gamma' has offset -64"),
    "fractional_offset": (entry_edit(0, offset=3.5), b"", "'input_bn.gamma' has offset 3.5"),
    "bool_offset": (entry_edit(0, offset=False), b"", "'input_bn.gamma' has offset False"),
    "overlapping_offsets": (first_entry_copied("offset"), b"", "'input_bn.beta' has offset 0"),
    "negative_dim": (entry_edit(0, shape=[-1]), b"", "'input_bn.gamma' has shape"),
    "non_numeric_dim": (entry_edit(0, shape=["3"]), b"", "'input_bn.gamma' has shape"),
    "missing_shape": (entry_edit(0, drop="shape"), b"", "'input_bn.gamma' has shape None"),
    "missing_name": (entry_edit(0, drop="name"), b"", "array entry 0 has no string name"),
    "missing_offset": (entry_edit(1, drop="offset"), b"", "'input_bn.beta' has offset None"),
    "duplicate_name": (first_entry_copied("name"), b"", "'input_bn.gamma' appears twice"),
    "arrays_not_a_list": (lambda h: {**h, "arrays": 5}, b"", "arrays must be a list"),
    "header_not_an_object": (lambda h: [h], b"", "not an object"),
    "meta_not_an_object": (lambda h: {**h, "meta": 5}, b"", "meta an object"),
    "bool_format": (lambda h: {**h, "format": True}, b"", "format True"),
    "trailing_bytes": (lambda h: h, bytes(8), "8 bytes after its last array"),
}


@pytest.mark.parametrize("edit,tail,names", HEADER_EDITS.values(), ids=HEADER_EDITS)
def test_a_checkpoint_header_that_does_not_tile_the_payload_is_rejected(
        tmp_path, edit, tail, names):
    # A fresh save and tests/data/format1.ckpt load (tests above); these
    # hand edits once read header bytes as weights, read misaligned
    # garbage, or crashed with a KeyError or TypeError.
    good = tmp_path / "good.ckpt"
    save_weights(small_net(), good)
    raw = good.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))[0]
    blob = json.dumps(edit(json.loads(raw[start:end]))).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
                    + raw[end:] + tail)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(bad)
    assert names in str(caught.value)


DATA = Path(__file__).parent / "data"


def test_a_format_1_checkpoint_loads_with_its_conv_biases_folded_away(tmp_path):
    # format1.ckpt holds a 2-block net whose conv biases, running statistics
    # and edge masks are far from their start; the JSON next to it has the
    # logits the code that wrote it gave.
    reference = json.loads((DATA / "format1_logits.json").read_text())
    expected = np.array(reference["logits"])
    x = (np.random.default_rng(7).uniform(-1.0, 1.0, (4, 3, 8, 5, 2))
         + np.random.default_rng(8).uniform(-3.0, 3.0, (4, 3, 1, 1, 1)))
    _, arrays = read_checkpoint(DATA / "format1.ckpt")
    assert not [name for name in arrays if name.endswith(("gcn_bias", "tcn_bias"))]
    net = small_net(num_classes=4)
    assert load_weights(net, DATA / "format1.ckpt") == []
    logits = net.forward(x).data
    assert np.abs(logits - expected).max() <= 1e-12 * np.abs(expected).max()
    assert list(logits.argmax(axis=1)) == list(expected.argmax(axis=1)) == [2, 2, 0, 1]

    # Saved again, it is a format-2 file with the same outputs.
    resaved = tmp_path / "format2.ckpt"
    save_weights(net, resaved)
    again = small_net(num_classes=4, seed=1)
    load_weights(again, resaved)
    assert again.forward(x).data.tobytes() == logits.tobytes()


def test_a_checkpoint_without_zero_confidence_reads_as_false(tmp_path):
    # Checkpoints written before the key existed, format1.ckpt among them,
    # load into a network without zero_confidence and no other.
    net = small_net(seed=2)
    saved, old = tmp_path / "net.ckpt", tmp_path / "old.ckpt"
    save_weights(net, saved)
    assert read_checkpoint(saved)[0]["zero_confidence"] is False
    meta = {k: v for k, v in net.meta().items() if k != "zero_confidence"}
    rewrite_checkpoint(saved, old, 2, {}, meta=meta)
    assert load_weights(small_net(), old) == []
    with pytest.raises(CheckpointError, match="checkpoint zero_confidence is False"):
        load_weights(small_net(zero_confidence=True), old)


def test_a_format_1_bias_folds_into_the_running_mean_after_it(tmp_path):
    net = small_net()
    net.blocks[1].bn2.running_mean = np.linspace(-1.0, 1.0, 8)
    saved = tmp_path / "net.ckpt"
    save_weights(net, saved)
    old = tmp_path / "old.ckpt"
    bias = np.linspace(0.5, -0.2, 8)
    rewrite_checkpoint(saved, old, 1, {"blocks.1.tcn_bias": bias})
    _, arrays = read_checkpoint(old)
    assert "blocks.1.tcn_bias" not in arrays
    assert np.array_equal(arrays["blocks.1.bn2.running_mean"],
                          np.linspace(-1.0, 1.0, 8) - bias)
    assert np.array_equal(arrays["blocks.1.bn1.running_mean"], np.zeros(8))

    misfit = tmp_path / "misfit.ckpt"
    rewrite_checkpoint(saved, misfit, 1, {"blocks.0.gcn_bias": np.zeros(3)})
    with pytest.raises(CheckpointError, match="blocks.0.gcn_bias"):
        read_checkpoint(misfit)


# ----------------------------------------------------------------- ModelConfig

def test_model_config_builds_a_working_network():
    config = ModelConfig(layout=COCO18, channel_plan=((4, 1),), seed=2)
    net = config.build(3)
    assert net.vertex_count == 18
    assert net.num_classes == 3
    out = net.forward(np.zeros((1, 3, 4, 18, 1)))
    assert out.data.shape == (1, 3)


def test_the_network_partitions_the_graph_it_is_given(tmp_path):
    config = ModelConfig(channel_plan=PLAN, seed=3)
    net = StgcnNetwork(path_graph(5), 3, config)
    assert isinstance(net.adjacency, np.ndarray)
    assert np.array_equal(net.adjacency, partition_spatial(path_graph(5)))
    assert net.meta()["layout"] == "path"
    # A network built from the named layout's graph is the one the config builds.
    direct, built = tmp_path / "direct.ckpt", tmp_path / "built.ckpt"
    save_weights(StgcnNetwork(build_graph(COCO18), 4, config), direct)
    save_weights(config.build(4), built)
    assert direct.read_bytes() == built.read_bytes()


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
        "zero_confidence": False,
    }
