"""Reverse-mode differentiation engine."""
import tracemalloc

import numpy as np
import pytest

from skelact import ConfigurationError, StateError
from skelact import autodiff as ad
from skelact.autodiff import (
    Norm,
    Projection,
    Tensor,
    add,
    batch_norm,
    batch_norm_batch,
    batch_norm_given,
    dropout,
    graph_conv,
    matmul_last,
    mean,
    mul,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    temporal_conv,
    temporal_subsample,
    transpose,
)
from helpers import (
    add_relu,
    max_rel_err,
    numeric_grad,
    oracle_batch_norm,
    oracle_graph_conv,
    pointwise_conv,
    whole_array_batch_norm,
)


def leaf(rng, shape, offset=0.0):
    return Tensor(rng.uniform(-1.0, 1.0, shape) + offset, trainable=True)


def channels_first(tensor):
    """The (C, B, T, V) leaf holding the values of a (B, C, T, V) one."""
    return Tensor(np.ascontiguousarray(tensor.data.swapaxes(0, 1)),
                  trainable=tensor.trainable)


def check_grads(build, tensors, tol=1e-5):
    """Compare analytic gradients against central differences."""
    loss = build()
    loss.backward()
    for tensor in tensors:
        estimate = numeric_grad(lambda: float(build().data), tensor)
        assert max_rel_err(tensor.grad, estimate) < tol
        tensor.zero_grad()


# ------------------------------------------------------------- tensor basics

def test_tensor_defaults():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.shape == (2, 2)
    assert not t.trainable
    assert t.is_leaf
    assert (t.grad == 0.0).all()


def test_scalar_backward_seeds_with_one():
    x = Tensor(3.0, trainable=True)
    y = mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_seed_for_multi_element_output():
    x = Tensor([1.0, 2.0], trainable=True)
    y = relu(x)
    with pytest.raises(StateError):
        y.backward()


def test_backward_rejects_seed_shape_mismatch():
    x = Tensor([1.0, 2.0], trainable=True)
    y = relu(x)
    with pytest.raises(StateError):
        y.backward(np.ones(3))


def test_explicit_seed_scales_gradients():
    x = Tensor([1.0, 2.0, 3.0], trainable=True)
    y = mul(x, x)
    y.backward(np.array([1.0, 10.0, 100.0]))
    assert np.allclose(x.grad, [2.0, 40.0, 600.0])


def test_repeated_backward_accumulates():
    x = Tensor(2.0, trainable=True)
    y = mul(x, x)
    y.backward()
    assert y.grad is None
    y.backward()
    assert y.grad is None
    assert x.grad == pytest.approx(8.0)
    x.zero_grad()
    assert x.grad == 0.0


def test_frozen_leaves_keep_zero_gradients():
    x = Tensor([1.0, 2.0], trainable=True)
    c = Tensor([3.0, 4.0], trainable=False)
    loss = reduce_sum(mul(x, c), (0,))
    loss.backward()
    assert np.allclose(x.grad, [3.0, 4.0])
    assert (c.grad == 0.0).all()


def test_diamond_graph_accumulates_both_paths():
    # z = (x + x)^2 has derivative 8x; a premature backward visit of the
    # shared node would drop one of the paths.
    x = Tensor(3.0, trainable=True)
    y = add(x, x)
    z = mul(y, y)
    z.backward()
    assert x.grad == pytest.approx(24.0)


def test_reused_leaf_sums_contributions():
    x = Tensor(4.0, trainable=True)
    loss = add(mul(x, x), x)
    loss.backward()
    assert x.grad == pytest.approx(9.0)


def test_long_chain_does_not_recurse():
    x = Tensor(0.0, trainable=True)
    node = x
    for _ in range(2000):
        node = add(node, 1.0)
    assert float(node.data) == pytest.approx(2000.0)
    node.backward()
    assert x.grad == pytest.approx(1.0)


# ------------------------------------------------------------ elementwise ops

def test_add_broadcasts_and_unbroadcasts():
    rng = np.random.default_rng(0)
    a = leaf(rng, (2, 3))
    b = leaf(rng, (3,))
    out = add(a, b)
    assert np.array_equal(out.data, a.data + b.data)
    check_grads(lambda: reduce_sum(mul(add(a, b), add(a, b)), (0, 1)), [a, b])
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)


def test_add_scalar_operand():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], trainable=True)
    s = Tensor(10.0, trainable=True)
    loss = reduce_sum(add(a, s), (0, 1))
    loss.backward()
    assert s.grad == pytest.approx(4.0)
    assert (a.grad == 1.0).all()


def test_mul_broadcast_gradients():
    rng = np.random.default_rng(1)
    a = leaf(rng, (4, 1, 3))
    b = leaf(rng, (2, 3))
    out = mul(a, b)
    assert out.data.shape == (4, 2, 3)
    check_grads(lambda: reduce_sum(mul(a, b), (0, 1, 2)), [a, b])


def test_relu_forward_and_mask_gradient():
    x = Tensor([-2.0, -0.5, 0.0, 0.5, 2.0], trainable=True)
    out = relu(x)
    assert np.array_equal(out.data, [0.0, 0.0, 0.0, 0.5, 2.0])
    out.backward(np.ones(5))
    assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 1.0])


def test_relu_passes_nan_through_and_keeps_finite_bits():
    x = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-300, 2.0, np.inf])
    out = relu(Tensor(x)).data
    assert np.isnan(out[0])
    finite = ~np.isnan(x)
    assert out[finite].tobytes() == np.where(x > 0, x, 0.0)[finite].tobytes()


def test_relu_gradcheck_away_from_the_kink():
    rng = np.random.default_rng(2)
    x = Tensor(np.concatenate([rng.uniform(0.5, 1.5, 10),
                               rng.uniform(-1.5, -0.5, 10)]), trainable=True)
    check_grads(lambda: reduce_sum(mul(relu(x), relu(x)), (0,)), [x])


def test_add_relu_has_the_bits_of_relu_of_add():
    rng = np.random.default_rng(3)
    a = np.concatenate([[-0.0, 0.0, -0.0, 0.0, 1e-300, -1.0, np.inf],
                        rng.uniform(-1.0, 1.0, 9)])
    b = np.concatenate([[-0.0, -0.0, 0.0, 0.0, -1e-300, 1.0, -1.0],
                        rng.uniform(-1.0, 1.0, 9)])
    seed = rng.uniform(-1.0, 1.0, a.shape)
    runs = []
    for op in (add_relu, lambda x, y: relu(add(x, y))):
        x, y = Tensor(a, trainable=True), Tensor(b, trainable=True)
        out = op(x, y)
        out.backward(seed)
        runs.append([out.data.tobytes(), x.grad.tobytes(), y.grad.tobytes()])
    assert runs[0] == runs[1]
    assert not np.signbit(add_relu(Tensor(a), Tensor(b)).data).any()


def test_add_relu_gradcheck_away_from_the_kink():
    rng = np.random.default_rng(4)
    signs = np.where(rng.random((2, 3, 4, 2)) < 0.5, -1.0, 1.0)
    a = Tensor(signs * rng.uniform(0.5, 1.5, signs.shape), trainable=True)
    b = leaf(rng, signs.shape)
    b.data *= 0.2
    check_grads(lambda: reduce_sum(mul(add_relu(a, b), add_relu(a, b)),
                                   (0, 1, 2, 3)), [a, b])


def test_fused_relu_nodes_pass_nan_through():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (3, 2, 4, 2))
    x[2, 1, 3, 0] = np.nan
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out, _, _ = batch_norm_batch(Tensor(x), gamma, beta, relu=True)
    # A NaN in the batch makes its channel's statistics NaN.
    assert np.isnan(out.data[2]).all()
    assert not np.isnan(out.data[:2]).any()
    given = batch_norm_given(Tensor(x), gamma, beta, np.zeros(3), np.ones(3),
                             relu=True)
    assert np.array_equal(np.isnan(given.data), np.isnan(x))
    summed = add_relu(Tensor(x), Tensor(np.ones_like(x)))
    assert np.array_equal(np.isnan(summed.data), np.isnan(x))


# ------------------------------------------------------------ structural ops

def test_matmul_last_batched():
    rng = np.random.default_rng(3)
    x = leaf(rng, (2, 3, 4, 5))
    w = leaf(rng, (5, 6))
    out = matmul_last(x, w)
    assert out.data.shape == (2, 3, 4, 6)
    assert np.allclose(out.data, x.data @ w.data)
    check_grads(lambda: reduce_sum(mul(matmul_last(x, w), matmul_last(x, w)),
                                   (0, 1, 2, 3)), [x, w])


def test_matmul_last_validation():
    with pytest.raises(ConfigurationError):
        matmul_last(Tensor([1.0, 2.0]), Tensor(np.ones((2, 2))))
    with pytest.raises(ConfigurationError):
        matmul_last(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


def test_transpose_forward_and_grad():
    rng = np.random.default_rng(4)
    x = leaf(rng, (2, 3, 4))
    out = transpose(x, (2, 0, 1))
    assert out.data.shape == (4, 2, 3)
    assert np.array_equal(out.data, x.data.transpose(2, 0, 1))
    assert out.data.flags["C_CONTIGUOUS"]
    check_grads(lambda: reduce_sum(mul(transpose(x, (2, 0, 1)),
                                       transpose(x, (2, 0, 1))), (0, 1, 2)), [x])


def test_reshape_round_trip_grad():
    rng = np.random.default_rng(5)
    x = leaf(rng, (2, 3, 4))
    out = reshape(x, (6, 4))
    assert out.data.shape == (6, 4)
    check_grads(lambda: reduce_sum(mul(reshape(x, (6, 4)),
                                       reshape(x, (6, 4))), (0, 1)), [x])


def test_reduce_sum_and_mean():
    rng = np.random.default_rng(6)
    x = leaf(rng, (2, 3, 4))
    assert np.allclose(reduce_sum(x, (0, 2)).data, x.data.sum(axis=(0, 2)))
    assert np.allclose(mean(x, (1,)).data, x.data.mean(axis=1))
    check_grads(lambda: reduce_sum(mul(reduce_sum(x, (0, 2)),
                                       reduce_sum(x, (0, 2))), (0,)), [x])
    check_grads(lambda: reduce_sum(mul(mean(x, (0, 2)), mean(x, (0, 2))),
                                   (0,)), [x])


# -------------------------------------------------------------- temporal ops

def test_temporal_subsample_picks_every_stride_th_frame():
    rng = np.random.default_rng(7)
    x = leaf(rng, (2, 3, 7, 4))
    out = temporal_subsample(x, 2)
    assert out.data.shape == (2, 3, 4, 4)
    assert np.array_equal(out.data, x.data[:, :, ::2, :])
    out.backward(np.ones(out.data.shape))
    assert (x.grad[:, :, 1::2, :] == 0.0).all()
    assert (x.grad[:, :, ::2, :] == 1.0).all()
    with pytest.raises(ConfigurationError):
        temporal_subsample(x, 0)


def oracle_temporal_conv(x, kernel, stride):
    channels, batch, frames, vertices = x.shape
    taps = kernel.shape[1]
    pad = (taps - 1) // 2
    padded = np.zeros((channels, batch, frames + 2 * pad, vertices))
    padded[:, :, pad:pad + frames] = x
    out_frames = (frames + 2 * pad - taps) // stride + 1
    out = np.zeros((channels, batch, out_frames, vertices))
    for c in range(channels):
        for n in range(batch):
            for t in range(out_frames):
                for v in range(vertices):
                    for k in range(taps):
                        out[c, n, t, v] += (
                            padded[c, n, stride * t + k, v] * kernel[c, k]
                        )
    return out


@pytest.mark.parametrize("stride,frames", [(1, 7), (2, 7), (2, 8), (3, 10)])
def test_temporal_conv_matches_loop_oracle(stride, frames):
    rng = np.random.default_rng(8)
    x = leaf(rng, (3, 2, frames, 4))
    kernel = leaf(rng, (3, 3))
    out = temporal_conv(x, kernel, stride=stride)
    expected = oracle_temporal_conv(x.data, kernel.data, stride)
    # Both add the taps in order, so the bits agree.
    assert np.array_equal(out.data, expected)


def test_temporal_conv_stride_one_keeps_frame_count():
    rng = np.random.default_rng(9)
    x = leaf(rng, (2, 1, 9, 3))
    kernel = leaf(rng, (2, 5))
    assert temporal_conv(x, kernel).data.shape == (2, 1, 9, 3)


def test_temporal_conv_gradcheck():
    rng = np.random.default_rng(10)
    # With a 3-tap kernel, stride 3 and 9 frames, the last frame reaches no
    # output window.
    for stride, frames in [(1, 6), (2, 6), (3, 9)]:
        x = leaf(rng, (2, 2, frames, 3))
        kernel = leaf(rng, (2, 3))

        def build():
            out = temporal_conv(x, kernel, stride=stride)
            return reduce_sum(mul(out, out), (0, 1, 2, 3))

        check_grads(build, [x, kernel])
        build().backward()
        assert (x.grad[:, :, -1] == 0.0).all() == (stride == 3)


def test_temporal_conv_validation():
    x = Tensor(np.ones((3, 2, 5, 4)))
    with pytest.raises(ConfigurationError):
        temporal_conv(x, Tensor(np.ones((3, 4))))
    with pytest.raises(ConfigurationError):
        temporal_conv(x, Tensor(np.ones((2, 3))))
    with pytest.raises(ConfigurationError):
        temporal_conv(Tensor(np.ones((3, 5, 4))), Tensor(np.ones((3, 3))))
    with pytest.raises(ConfigurationError):
        temporal_conv(x, Tensor(np.ones((3, 3))), stride=0)


# ------------------------------------------------------------- channel mixing

def graph_conv_operands(rng, c_in, c_out, partitions=3, vertices=5):
    x = leaf(rng, (c_in, 2, 3, vertices))
    adjacency = rng.uniform(0.0, 1.0, (partitions, vertices, vertices))
    weights = [leaf(rng, (c_in, c_out)) for _ in range(partitions)]
    masks = [leaf(rng, (vertices, vertices), offset=1.0) for _ in range(partitions)]
    return x, adjacency, weights, masks


@pytest.mark.parametrize("c_in,c_out", [(4, 2), (3, 3), (2, 4)])
def test_graph_conv_gradcheck(c_in, c_out):
    rng = np.random.default_rng(17)
    x, adjacency, weights, masks = graph_conv_operands(rng, c_in, c_out)
    out = graph_conv(x, adjacency, weights, masks)
    expected = oracle_graph_conv(
        x.data, adjacency, [w.data for w in weights], [m.data for m in masks]
    )
    assert out.data.shape == (c_out, 2, 3, 5)
    assert np.allclose(out.data, expected, atol=1e-10)

    def build():
        out = graph_conv(x, adjacency, weights, masks)
        return reduce_sum(mul(out, out), (0, 1, 2, 3))

    check_grads(build, [x, weights[0], weights[2], masks[0], masks[1]])


def test_graph_conv_frozen_weight_and_mask_keep_zero_gradients():
    rng = np.random.default_rng(19)
    x, adjacency, weights, masks = graph_conv_operands(rng, 2, 4)
    weights[1].trainable = False
    masks[2].trainable = False
    out = graph_conv(x, adjacency, weights, masks)
    out.backward(rng.uniform(-1.0, 1.0, out.data.shape))
    assert (weights[1].grad == 0.0).all()
    assert (masks[2].grad == 0.0).all()
    for tensor in (x, weights[0], weights[2], masks[0], masks[1]):
        assert not (tensor.grad == 0.0).all()


def test_graph_conv_rejects_a_non_4d_input():
    rng = np.random.default_rng(20)
    _, adjacency, weights, masks = graph_conv_operands(rng, 2, 4)
    with pytest.raises(ConfigurationError):
        graph_conv(Tensor(np.ones((2, 3, 5))), adjacency, weights, masks)


def test_graph_conv_rejects_unequal_operand_lists():
    rng = np.random.default_rng(20)
    x, adjacency, weights, masks = graph_conv_operands(rng, 2, 4)
    with pytest.raises(ConfigurationError):
        graph_conv(x, adjacency, weights[:2], masks)


def test_pointwise_conv_gradcheck():
    rng = np.random.default_rng(21)
    x = leaf(rng, (3, 2, 4, 5))
    weight = leaf(rng, (3, 6))
    out = pointwise_conv(x, weight)
    assert out.data.shape == (6, 2, 4, 5)
    assert np.allclose(out.data, np.einsum("cbtv,cd->dbtv", x.data, weight.data),
                       atol=1e-12)

    def build():
        out = pointwise_conv(x, weight)
        return reduce_sum(mul(out, out), (0, 1, 2, 3))

    check_grads(build, [x, weight])


def test_pointwise_conv_validation():
    with pytest.raises(ConfigurationError):
        pointwise_conv(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 2))))
    with pytest.raises(ConfigurationError):
        pointwise_conv(Tensor(np.ones((3, 2, 4, 5))), Tensor(np.ones(3)))


# ----------------------------------------------------------------- batch norm

def test_batch_norm_batch_standardizes():
    rng = np.random.default_rng(11)
    x = leaf(rng, (3, 4, 5, 2), offset=2.0)
    gamma = Tensor(np.ones(3), trainable=True)
    beta = Tensor(np.zeros(3), trainable=True)
    out, mu, var = batch_norm_batch(x, gamma, beta, eps=1e-12)
    assert np.allclose(out.data.mean(axis=(1, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(out.data.var(axis=(1, 2, 3)), 1.0, atol=1e-6)
    # The statistics it returns are the ones it normalized with.
    assert np.array_equal(mu, x.data.mean(axis=(1, 2, 3)))
    assert np.array_equal(var, x.data.var(axis=(1, 2, 3)))


# The shape of a bn1 layer in the first block of a T=30, B=4, M=2 run.
@pytest.mark.parametrize("relu", [False, True])
def test_batch_norm_batch_matches_the_textbook_chain_rule(relu):
    rng = np.random.default_rng(24)
    shape = (64, 8, 30, 18)
    x = rng.normal(rng.uniform(-2.0, 2.0, (64, 1, 1, 1)),
                   rng.uniform(0.1, 3.0, (64, 1, 1, 1)), shape)
    gamma = rng.uniform(-1.5, 1.5, 64)
    beta = rng.uniform(-0.5, 0.5, 64)
    seed = rng.uniform(-1.0, 1.0, shape)
    leaves = [Tensor(v, trainable=True) for v in (x, gamma, beta)]
    out, mu, var = batch_norm_batch(*leaves, relu=relu)
    out.backward(seed)
    expected = oracle_batch_norm(x, gamma, beta, 1e-5, relu, seed)
    got = (out.data, mu, var, leaves[1].grad, leaves[2].grad, leaves[0].grad)
    for value, reference in zip(got, expected):
        assert np.abs(value - reference).max() <= 1e-12 * np.abs(reference).max()


def test_batch_norm_batch_forward_keeps_one_input_sized_array_besides_its_output():
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal((64, 8, 30, 18)), trainable=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 64), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 64), trainable=True)
    tracemalloc.start()
    try:
        out, _, _ = batch_norm_batch(x, gamma, beta, relu=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x - mu and the output, one input size each, plus the bool ReLU mask
    # (1/8); the variance's product buffer is freed before the output.
    assert out.data.shape == x.data.shape
    assert peak <= 2.2 * x.data.nbytes


def test_batch_norm_batch_gradcheck():
    rng = np.random.default_rng(12)
    x = leaf(rng, (2, 3, 4, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, 2), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 2), trainable=True)
    target = rng.uniform(-1.0, 1.0, (2, 3, 4, 2))

    def build():
        out, _, _ = batch_norm_batch(x, gamma, beta)
        diff = add(out, Tensor(-target))
        return reduce_sum(mul(diff, diff), (0, 1, 2, 3))

    check_grads(build, [x, gamma, beta], tol=1e-4)


def test_batch_norm_given_is_a_per_channel_affine_map():
    rng = np.random.default_rng(13)
    x = leaf(rng, (3, 2, 4, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 3), trainable=True)
    mu = rng.uniform(-0.2, 0.2, 3)
    var = rng.uniform(0.5, 2.0, 3)
    eps = 1e-5
    out = batch_norm_given(x, gamma, beta, mu, var, eps=eps)
    expected = (gamma.data / np.sqrt(var + eps))[:, None, None, None] * (
        x.data - mu[:, None, None, None]
    ) + beta.data[:, None, None, None]
    assert np.allclose(out.data, expected, atol=1e-12)
    out.backward(np.ones(out.data.shape))
    scale = gamma.data / np.sqrt(var + eps)
    assert np.allclose(
        x.grad, np.broadcast_to(scale[:, None, None, None], x.data.shape)
    )


def test_batch_norm_given_gradcheck():
    rng = np.random.default_rng(14)
    x = leaf(rng, (2, 2, 3, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, 2), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 2), trainable=True)
    mu = rng.uniform(-0.2, 0.2, 2)
    var = rng.uniform(0.5, 2.0, 2)

    def build():
        out = batch_norm_given(x, gamma, beta, mu, var)
        return reduce_sum(mul(out, out), (0, 1, 2, 3))

    check_grads(build, [x, gamma, beta])


# The tolerances are those of the unfused gradchecks above.
@pytest.mark.parametrize("batch_stats,seed,tol", [(True, 5, 1e-4), (False, 6, 1e-5)])
def test_batch_norm_relu_gradcheck_away_from_the_kink(batch_stats, seed, tol):
    rng = np.random.default_rng(seed)
    x = channels_first(leaf(rng, (3, 2, 4, 2)))
    gamma = Tensor(rng.uniform(0.5, 1.5, 2), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 2), trainable=True)
    mu = rng.uniform(-0.2, 0.2, 2)
    var = rng.uniform(0.5, 2.0, 2)
    target = rng.uniform(-1.0, 1.0, x.data.shape)

    def normalize(relu_out):
        if batch_stats:
            return batch_norm_batch(x, gamma, beta, relu=relu_out)[0]
        return batch_norm_given(x, gamma, beta, mu, var, relu=relu_out)

    # Every pre-activation is far from zero next to the difference step.
    assert np.abs(normalize(False).data).min() > 0.05
    assert np.array_equal(normalize(True).data, np.maximum(normalize(False).data, 0))

    def build():
        diff = add(normalize(True), Tensor(-target))
        return reduce_sum(mul(diff, diff), (0, 1, 2, 3))

    check_grads(build, [x, gamma, beta], tol=tol)


def test_batch_norm_relu_has_the_bits_of_relu_of_batch_norm():
    # The fused node masks the gradient by its rectified output; the
    # unfused ``relu`` keeps the mask of its input, so it is the oracle.
    rng = np.random.default_rng(15)
    x = rng.uniform(-1.0, 1.0, (3, 2, 2, 2))
    x[0] = np.array([0.0, -0.0])  # mean 0, so every (x - mu) is a zero
    x[1, 0, 0] = [-0.0, 0.0]
    gamma = np.array([-1.0, 0.5, 2.0])
    beta = np.array([-0.0, 0.0, -0.0])
    seed = rng.uniform(-1.0, 1.0, x.shape)
    # Fixed statistics with a = 1 and b = -0.0 on channel 0: its
    # pre-activations are its inputs, the edge values of the rule.
    edges = rng.uniform(-1.0, 1.0, x.shape)
    edges[0] = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 0.5]
                        ).reshape(2, 2, 2)
    running = (np.array([0.0, 0.1, -0.2]), np.array([1.0 - 1e-5, 0.5, 2.0]))

    edge_operands = (edges, np.array([1.0, -0.5, 2.0]), np.array([-0.0, 0.1, -0.3]))

    def batch(*leaves, relu):
        return batch_norm_batch(*leaves, relu=relu)[0]

    def given(*leaves, relu):
        return batch_norm_given(*leaves, *running, relu=relu)

    pre = given(*map(Tensor, edge_operands), relu=False).data
    assert pre[0].tobytes() == edges[0].tobytes()
    # Only the edge case's backward computes 0 * inf (gamma's gradient at
    # the infinite pre-activations); the batch case must raise on it.
    cases = [((x, gamma, beta), batch, "raise"), (edge_operands, given, "ignore")]
    for operands, normalize, invalid in cases:
        runs = []
        for fused in (True, False):
            leaves = [Tensor(v, trainable=True) for v in operands]
            out = normalize(*leaves, relu=fused)
            if not fused:
                out = relu(out)
            with np.errstate(invalid=invalid):
                out.backward(seed)
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
        assert runs[0] == runs[1]


def test_batch_norm_given_folds_into_one_affine_map():
    rng = np.random.default_rng(17)
    x = leaf(rng, (3, 4, 5, 2))
    gamma = Tensor(rng.uniform(-1.5, 1.5, 3), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 3), trainable=True)
    mu = rng.uniform(-0.2, 0.2, 3)[:, None, None, None]
    var = rng.uniform(0.5, 2.0, 3)
    inv_std = 1.0 / np.sqrt(var + 1e-5)[:, None, None, None]
    unfused = (gamma.data[:, None, None, None] * ((x.data - mu) * inv_std)
               + beta.data[:, None, None, None])
    for fused_relu, expected in [(False, unfused), (True, np.maximum(unfused, 0))]:
        out = batch_norm_given(x, gamma, beta, mu.reshape(-1), var, relu=fused_relu)
        assert np.abs(out.data - expected).max() <= 1e-15 * np.abs(expected).max()


def test_batch_norm_rejects_non_4d_input():
    flat = Tensor(np.ones((2, 3)))
    ones = Tensor(np.ones(3))
    zeros = Tensor(np.zeros(3))
    with pytest.raises(ConfigurationError):
        batch_norm_batch(flat, ones, zeros)
    with pytest.raises(ConfigurationError):
        batch_norm_given(flat, ones, zeros, np.zeros(3), np.ones(3))


# ---------------------------------------------------------------- fused nodes

def norm_leaves(rng, channels, batch_stats):
    """A trainable batch norm for a prologue or an epilogue, with batch or
    fixed statistics."""
    gamma = Tensor(rng.uniform(0.5, 1.5, channels), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, channels), trainable=True)
    running = None if batch_stats else (rng.uniform(-0.2, 0.2, channels),
                                        rng.uniform(0.5, 2.0, channels))
    return Norm(gamma, beta, running=running)


def graph_conv_node(rng, in_channels, frames, batch_stats):
    """Node A's operands, a call of it on them, and the batch norm the
    temporal node's prologue runs on A's output before a ReLU."""
    adjacency = rng.uniform(0.0, 1.0, (3, 5, 5))
    x = channels_first(leaf(rng, (2, in_channels, frames, 5)))
    weights = [leaf(rng, (in_channels, 3)) for _ in range(3)]
    masks = [Tensor(rng.uniform(0.5, 1.5, (5, 5)), trainable=True) for _ in range(3)]
    norm = norm_leaves(rng, 3, batch_stats)

    def node():
        return graph_conv(x, adjacency, weights, masks)

    return node, norm, [x, *weights, *masks, norm.gamma, norm.beta]


def squared_error(out, target):
    diff = add(out, Tensor(-target))
    return reduce_sum(mul(diff, diff), (0, 1, 2, 3))


# Seeds whose pre-activations all lie at least 0.02 from the ReLU kink.
@pytest.mark.parametrize("batch_stats,seed", [(True, 60), (False, 62)],
                         ids=["batch_statistics", "fixed_statistics"])
def test_temporal_conv_prologue_on_the_graph_conv_node_gradcheck(batch_stats, seed):
    # The prologue normalizes node A's output in place and rectifies it
    # into a buffer with a one-frame zero border; backward rebuilds it.
    rng = np.random.default_rng(seed)
    node, norm, leaves = graph_conv_node(rng, 2, 3, batch_stats)
    pre = batch_norm(node(), norm).data
    assert pre.shape == (3, 2, 3, 5)
    assert np.abs(pre).min() > 0.02
    kernel = leaf(rng, (3, 3))
    target = rng.uniform(-1.0, 1.0, pre.shape)
    check_grads(lambda: squared_error(temporal_conv(node(), kernel, prologue=norm),
                                      target), leaves + [kernel], tol=1e-3)


@pytest.mark.parametrize("batch_stats,seed", [(True, 73), (False, 236)],
                         ids=["batch_statistics", "fixed_statistics"])
def test_temporal_conv_node_fed_by_the_graph_conv_node_gradcheck(batch_stats, seed):
    # Node B runs bn1 and ReLU on node A's output as its prologue, with
    # dropout and a strided projection shortcut (subsample, 1x1 conv and
    # batch norm) inside its epilogue.
    rng = np.random.default_rng(seed)
    node, norm_in, leaves = graph_conv_node(rng, 2, 5, batch_stats)
    x = leaves[0]
    kernel = leaf(rng, (3, 3))
    norm = norm_leaves(rng, 3, batch_stats)
    res_weight = leaf(rng, (2, 3))
    res_norm = norm_leaves(rng, 3, batch_stats)

    def block(relu_out=True):
        shortcut = Projection(x, res_weight, res_norm, 2)
        return temporal_conv(node(), kernel, 2, prologue=norm_in, norm=norm,
                             dropout=0.3, rng=np.random.default_rng(64),
                             shortcut=shortcut, relu=relu_out)

    assert np.abs(batch_norm(node(), norm_in).data).min() > 0.02
    pre = block(relu_out=False).data
    assert pre.shape == (3, 2, 3, 5)
    assert np.abs(pre).min() > 0.02
    target = rng.uniform(-1.0, 1.0, pre.shape)
    check_grads(lambda: squared_error(block(), target),
                leaves + [kernel, norm.gamma, norm.beta, res_weight,
                          res_norm.gamma, res_norm.beta], tol=1e-3)


# (input channels, stride) of node B's shortcut.
SHORTCUTS = {"none": (7, 1), "identity": (7, 1), "projection": (4, 1),
             "strided_projection": (4, 2)}


@pytest.mark.parametrize("run", [1, 3, 7], ids=["one_channel", "uneven", "whole"])
@pytest.mark.parametrize("kind", SHORTCUTS)
def test_node_b_has_the_bits_of_the_whole_array_batch_norm_at_any_run_length(
        kind, run, monkeypatch):
    # Node B on 7 channels with bn1 and ReLU as its prologue, and bn2,
    # dropout, the residual add (none for "none") and ReLU as its epilogue,
    # against a chain of separate nodes whose batch norms run on whole
    # arrays. Runs are ``run`` output channels long: 7 in runs of 3 leaves a
    # short last run. With stride 2 a channel of the prologue's input is
    # twice as long, so its runs hold half as many channels, at least one.
    in_channels, stride = SHORTCUTS[kind]
    rng = np.random.default_rng(80)
    values = {"x": rng.uniform(-1.0, 1.0, (in_channels, 2, 6, 5)),
              "h": rng.uniform(-1.0, 1.0, (7, 2, 6, 5)),
              "kernel": rng.uniform(-1.0, 1.0, (7, 3)),
              "weight": rng.uniform(-1.0, 1.0, (in_channels, 7))}
    for name in ("bn1", "bn2", "res_bn"):
        values[f"{name}.gamma"] = rng.uniform(0.5, 1.5, 7)
        values[f"{name}.beta"] = rng.uniform(-0.5, 0.5, 7)
    seed = rng.uniform(-1.0, 1.0, (7, 2, 6 // stride, 5))
    monkeypatch.setattr(ad, "_PRODUCT_BYTES", run * seed[0].nbytes)

    def run_node(fused):
        t = {name: Tensor(v.copy(), trainable=True) for name, v in values.items()}
        norms = {name: (t[f"{name}.gamma"], t[f"{name}.beta"])
                 for name in ("bn1", "bn2", "res_bn")}
        dropout_rng = np.random.default_rng(81)
        if fused:
            if kind == "none":
                shortcut = None
            elif kind == "identity":
                shortcut = t["x"]
            else:
                shortcut = Projection(t["x"], t["weight"], Norm(*norms["res_bn"]), stride)
            out = temporal_conv(t["h"], t["kernel"], stride, prologue=Norm(*norms["bn1"]),
                                norm=Norm(*norms["bn2"]), dropout=0.3, rng=dropout_rng,
                                shortcut=shortcut, relu=True)
        else:
            y = whole_array_batch_norm(t["h"], *norms["bn1"], relu=True)
            y = whole_array_batch_norm(temporal_conv(y, t["kernel"], stride), *norms["bn2"])
            y = dropout(y, 0.3, dropout_rng)
            if kind == "none":
                out = relu(y)
            else:
                out = add_relu(y, t["x"] if kind == "identity" else whole_array_batch_norm(
                    pointwise_conv(temporal_subsample(t["x"], stride), t["weight"]),
                    *norms["res_bn"]))
        out.backward(seed)
        return out.data, {name: tensor.grad for name, tensor in t.items()}

    out, grads = run_node(fused=True)
    expected_out, expected = run_node(fused=False)
    assert out.tobytes() == expected_out.tobytes()
    for name, grad in grads.items():
        assert grad.tobytes() == expected[name].tobytes(), name
    assert 0.2 < (out > 0).mean() < 0.9 and np.abs(grads["h"]).max() > 0.0


def test_fused_node_validation():
    x = Tensor(np.arange(120.0).reshape(3, 2, 4, 5))
    kernel = Tensor(np.ones((3, 5)))
    with pytest.raises(ConfigurationError, match="shortcut"):
        temporal_conv(x, kernel, 2, shortcut=x)
    # The check runs before the prologue writes over the input.
    with pytest.raises(ConfigurationError, match="shortcut"):
        temporal_conv(x, kernel, 2, prologue=Norm(Tensor(np.ones(3)),
                                                  Tensor(np.zeros(3))), shortcut=x)
    assert np.array_equal(x.data, np.arange(120.0).reshape(3, 2, 4, 5))
    with pytest.raises(ConfigurationError, match="dropout"):
        temporal_conv(x, kernel, dropout=1.0, rng=np.random.default_rng(0))


# -------------------------------------------------------------------- dropout

def test_dropout_mask_is_reproducible_from_the_seed():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(1.0, 2.0, (4, 5)), trainable=True)
    out = dropout(x, 0.4, np.random.default_rng(5))
    mask = (np.random.default_rng(5).random((4, 5)) >= 0.4) / 0.6
    assert np.array_equal(out.data, x.data * mask)
    out.backward(np.ones((4, 5)))
    assert np.array_equal(x.grad, mask)


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3), trainable=True)
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)
    out.backward(np.ones((2, 3)))
    assert (x.grad == 1.0).all()


def test_dropout_rate_bounds():
    x = Tensor(np.ones(3))
    with pytest.raises(ConfigurationError):
        dropout(x, 1.0, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        dropout(x, -0.1, np.random.default_rng(0))


def test_dropout_scaling_preserves_the_mean():
    x = Tensor(np.ones((100, 100)), trainable=True)
    out = dropout(x, 0.3, np.random.default_rng(42))
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert abs(out.data.mean() - 1.0) < 0.02


# ------------------------------------------------------------------- no_grad

def _op_cases():
    """(name, operands, op): every public op, called on fresh operands."""
    rng = np.random.default_rng(40)
    x4 = rng.uniform(-1.0, 1.0, (3, 2, 7, 5))
    other = rng.uniform(-1.0, 1.0, (3, 2, 7, 5))
    gamma, beta = rng.uniform(0.5, 1.5, 3), rng.uniform(-0.5, 0.5, 3)
    mu, var = rng.uniform(-0.2, 0.2, 3), rng.uniform(0.5, 2.0, 3)
    adjacency = [rng.uniform(0.0, 1.0, (5, 5)) for _ in range(3)]
    weights = [rng.uniform(-1.0, 1.0, (3, 4)) for _ in range(3)]
    masks = [rng.uniform(0.5, 1.5, (5, 5)) for _ in range(3)]
    # Batch norm coefficients and statistics, kernel and shortcut of the
    # 4-channel outputs.
    coefficients = rng.uniform(-0.5, 0.5, 4)
    running = (coefficients[::-1], coefficients + 1.0)
    kernel = rng.uniform(-1.0, 1.0, (4, 3))
    shortcut = rng.uniform(-1.0, 1.0, (4, 2, 4, 5))
    return [
        ("add", (x4, other), add),
        ("mul", (x4, other), mul),
        ("relu", (x4,), relu),
        ("add_relu", (x4, other), add_relu),
        ("matmul_last", (x4, adjacency[0]), matmul_last),
        ("transpose", (x4,), lambda a: transpose(a, (0, 2, 3, 1))),
        ("reshape", (x4,), lambda a: reshape(a, (6, 35))),
        ("reduce_sum", (x4,), lambda a: reduce_sum(a, (2, 3))),
        ("mean", (x4,), lambda a: mean(a, (0, 2))),
        ("temporal_subsample", (x4,), lambda a: temporal_subsample(a, 2)),
        ("temporal_conv", (x4, rng.uniform(-1.0, 1.0, (3, 3))),
         lambda a, k: temporal_conv(a, k, 2)),
        ("graph_conv", (x4, *weights, *masks),
         lambda a, *rest: graph_conv(a, adjacency, list(rest[0:3]), list(rest[3:6]))),
        ("pointwise_conv", (x4, weights[0]), pointwise_conv),
        # The prologue writes over its input, so each call gets a fresh
        # graph_conv output.
        ("graph_conv_then_temporal_conv_prologue",
         (x4, *weights, *masks, kernel, coefficients[::-1], coefficients + 0.5),
         lambda a, *rest: temporal_conv(
             graph_conv(a, adjacency, list(rest[0:3]), list(rest[3:6])), rest[6],
             prologue=Norm(rest[7], rest[8]))),
        ("temporal_conv_prologue_and_epilogue",
         (x4, *weights, *masks, kernel, coefficients, coefficients[::-1], shortcut),
         lambda a, *rest: temporal_conv(
             graph_conv(a, adjacency, list(rest[0:3]), list(rest[3:6])), rest[6], 2,
             prologue=Norm(rest[7], rest[8], running=running),
             norm=Norm(rest[8], rest[7], running=running), dropout=0.4,
             rng=np.random.default_rng(41), shortcut=rest[9], relu=True)),
        ("pointwise_conv_batch_norm", (x4, weights[0], coefficients, coefficients[::-1]),
         lambda a, w, g, b: batch_norm(pointwise_conv(a, w), Norm(g, b))),
        ("temporal_conv_projection_shortcut",
         (x4, kernel[:3], weights[0][:, :3], coefficients[:3], coefficients[1:]),
         lambda a, k, w, g, b: temporal_conv(
             a, k, 2, norm=Norm(b, g), shortcut=Projection(a, w, Norm(g, b), 2),
             relu=True)),
        ("batch_norm_batch", (x4, gamma, beta),
         lambda a, g, b: batch_norm_batch(a, g, b)[0]),
        ("batch_norm_batch_relu", (x4, gamma, beta),
         lambda a, g, b: batch_norm_batch(a, g, b, relu=True)[0]),
        ("batch_norm_given", (x4, gamma, beta),
         lambda a, g, b: batch_norm_given(a, g, b, mu, var)),
        ("batch_norm_given_relu", (x4, gamma, beta),
         lambda a, g, b: batch_norm_given(a, g, b, mu, var, relu=True)),
        ("dropout", (x4,), lambda a: dropout(a, 0.4, np.random.default_rng(41))),
    ]


OP_CASES = _op_cases()


@pytest.mark.parametrize("name,operands,op", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_no_grad_outputs_have_the_bits_of_recorded_ones_and_are_bare_leaves(
        name, operands, op):
    recorded = op(*[Tensor(v, trainable=True) for v in operands])
    assert not recorded.is_leaf
    with no_grad():
        bare = op(*[Tensor(v, trainable=True) for v in operands])
    assert bare.data.tobytes() == recorded.data.tobytes()
    assert bare.is_leaf and bare.grad is None and bare._backward_fn is None


def test_graph_conv_under_no_grad_frees_its_aggregate_before_the_bordered_output():
    # The (K·C, B·T·V) aggregate is 3x the input; the graph conv output and
    # the zero-bordered buffer the temporal conv's prologue writes are
    # about 1x and 1.2x. Alive at once they would peak near 5.2x. The
    # prologue normalizes the graph conv output in place, so it adds no
    # third array of that size.
    rng = np.random.default_rng(44)
    x = Tensor(rng.uniform(-1.0, 1.0, (16, 2, 40, 18)))
    adjacency = rng.uniform(0.0, 1.0, (3, 18, 18))
    weights = [Tensor(rng.uniform(-1.0, 1.0, (16, 16))) for _ in range(3)]
    masks = [Tensor(np.ones((18, 18))) for _ in range(3)]
    kernel = Tensor(rng.uniform(-1.0, 1.0, (16, 9)))
    norm = Norm(Tensor(np.ones(16)), Tensor(np.zeros(16)),
                running=(np.zeros(16), np.ones(16)))
    with no_grad():
        tracemalloc.start()
        try:
            out = temporal_conv(graph_conv(x, adjacency, weights, masks), kernel,
                                prologue=norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.shape == (16, 2, 40, 18)
    assert peak <= 4.5 * x.data.nbytes


def test_fixed_statistics_batch_norm_under_no_grad_normalizes_in_place():
    # A recorded node with a trainable gamma keeps its input for gamma's
    # gradient, so it writes its output to a second array. Under no_grad
    # nothing reads the input back: the eval input batch norm's copy of
    # the batch is normalized in place. The shape is one T=300 COCO18
    # sample with two person slots, as (V·C, N·M, T, 1).
    rng = np.random.default_rng(45)
    x = Tensor(rng.uniform(-1.0, 1.0, (54, 2, 300, 1)))
    gamma = Tensor(rng.uniform(0.5, 1.5, 54), trainable=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 54), trainable=True)
    mu, var = rng.uniform(-0.2, 0.2, 54), rng.uniform(0.5, 2.0, 54)
    with no_grad():
        tracemalloc.start()
        try:
            out = batch_norm_given(x, gamma, beta, mu, var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.shape == x.data.shape
    assert peak <= 1.5 * x.data.nbytes


def test_tensors_built_under_no_grad_have_no_gradient_buffer():
    with no_grad():
        built = Tensor(np.ones((2, 3)), trainable=True)
    assert built.is_leaf and built.grad is None
    assert (Tensor(np.ones((2, 3))).grad == 0.0).all()


def test_no_grad_nests_and_restores_recording_on_exit_and_on_error():
    x = Tensor(np.ones(3), trainable=True)

    def records() -> bool:
        return not relu(x).is_leaf

    with no_grad():
        with no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("inside")
    assert records()
    with pytest.raises(ConfigurationError):
        with no_grad():
            with no_grad():
                dropout(x, 2.0, np.random.default_rng(0))
    assert records()
    out = mul(x, x)
    out.backward(np.ones(3))
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
