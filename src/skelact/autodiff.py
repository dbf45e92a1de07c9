"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation builds a new Tensor that remembers its parents and a
closure propagating the output gradient to them. ``Tensor.backward`` walks
the recorded graph once in reverse topological order. Inside ``no_grad``
nothing is recorded: every operation returns a bare leaf with no
gradient buffer, and the arrays a backward pass would need are freed as
soon as the operation returns. Only the operations the network actually
needs exist here, each with an exact analytic gradient; there is no graph
optimization, no dtype besides float64, and no in-place arithmetic on
tracked values.

Leaf gradients accumulate into ``Tensor.grad`` buffers. Leaf tensors
marked non-trainable (inputs, adjacency constants, frozen weights) keep
their gradient buffer at zero: backward skips them, which is both the
freezing semantics and a small saving. An interior node's ``grad`` is
``None`` except while ``backward`` runs: it is set when the first
contribution arrives and dropped once the node has passed it on.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, StateError

_recording = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Run operations without recording a graph; contexts nest.

    Each Tensor built inside, an operation's output or a leaf, has no
    parents, no backward closure and no gradient buffer. The previous
    state comes back on exit, also when the body raises.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A float64 array plus gradient buffer and autodiff bookkeeping.

    Under ``no_grad`` the parents and backward closure are dropped and no
    gradient buffer is made.
    """

    __slots__ = ("data", "grad", "trainable", "_parents", "_backward_fn")

    def __init__(self, data, trainable=False, parents=(), backward_fn=None):
        recording = _recording.get()
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if recording and not parents else None
        self.trainable = bool(trainable)
        self._parents = tuple(parents) if recording else ()
        self._backward_fn = backward_fn if recording else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def backward(self, grad=None) -> None:
        """Propagate gradients of this tensor to everything upstream.

        ``grad`` seeds the output gradient and must match this tensor's
        shape; it may only be omitted for single-element tensors, where it
        defaults to one. Repeated calls accumulate into leaf gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise StateError(
                    "backward() without a seed needs a single-element tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise StateError(
                f"seed gradient shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}"
            )

        order = _topological_order(self)
        _accumulate(self, grad)
        for node in order:
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, trainable={self.trainable})"


def _topological_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from root, root first, parents always after children."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    # Frozen leaves take no gradient; interior nodes always do, or the
    # chain would break.
    if tensor.is_leaf:
        if tensor.trainable:
            tensor.grad += grad
        return
    # Never add in place: ``add`` hands one array to both parents and
    # ``reshape``/``transpose`` hand on views. Strided gradients are made
    # C-contiguous, since numpy reductions round differently on them.
    if tensor.grad is not None:
        grad = tensor.grad + grad
    tensor.grad = np.require(grad, requirements="C")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(
        axis for axis, size in enumerate(shape)
        if size == 1 and grad.shape[axis] != 1
    )
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward_fn(grad):
        _accumulate(a, _unbroadcast(grad, a.data.shape))
        _accumulate(b, _unbroadcast(grad, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward_fn(grad):
        _accumulate(a, _unbroadcast(grad * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(grad * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=backward_fn)


def _rectify(data: np.ndarray) -> np.ndarray | None:
    """max(data, 0) in place; NaN stays visible.

    Returns where data > 0, the backward mask, or None under ``no_grad``.
    """
    mask = data > 0.0 if _recording.get() else None
    np.maximum(data, 0.0, out=data)
    return mask


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.copy()
    mask = _rectify(out_data)

    def backward_fn(grad):
        _accumulate(x, grad * mask)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """relu(a + b) as one node: the end of a residual block."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data
    mask = _rectify(out_data)

    def backward_fn(grad):
        masked = grad * mask
        _accumulate(a, _unbroadcast(masked, a.data.shape))
        _accumulate(b, _unbroadcast(masked, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=backward_fn)


def matmul_last(x: Tensor, w: Tensor) -> Tensor:
    """Contract the last axis of ``x`` with the first axis of 2D ``w``."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ConfigurationError(
            "matmul_last needs x with at least 2 axes and a 2D weight"
        )
    out_data = x.data @ w.data

    def backward_fn(grad):
        _accumulate(x, grad @ w.data.T)
        leading = tuple(range(x.data.ndim - 1))
        _accumulate(w, np.tensordot(x.data, grad, axes=(leading, leading)))

    return Tensor(out_data, parents=(x, w), backward_fn=backward_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out_data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward_fn(grad):
        _accumulate(x, grad.transpose(inverse))

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def backward_fn(grad):
        _accumulate(x, grad.reshape(x.data.shape))

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def reduce_sum(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    out_data = x.data.sum(axis=axes)

    def backward_fn(grad):
        expanded = np.expand_dims(grad, axes)
        _accumulate(x, np.broadcast_to(expanded, x.data.shape).copy())

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def mean(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    count = int(np.prod([x.data.shape[a] for a in axes]))
    out_data = x.data.mean(axis=axes)

    def backward_fn(grad):
        expanded = np.expand_dims(grad / count, axes)
        _accumulate(x, np.broadcast_to(expanded, x.data.shape).copy())

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def temporal_subsample(x: Tensor, stride: int) -> Tensor:
    """Keep every stride-th frame of a (B, C, T, V) tensor."""
    x = _as_tensor(x)
    if stride < 1:
        raise ConfigurationError(f"stride: must be positive, got {stride}")
    out_data = x.data[:, :, ::stride, :].copy()

    def backward_fn(grad):
        buffer = np.zeros_like(x.data)
        buffer[:, :, ::stride, :] = grad
        _accumulate(x, buffer)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


def _tap_windows(padded: np.ndarray, taps: int, stride: int) -> np.ndarray:
    """The (B, C, K, T_out, V) view ``padded[b, c, stride * t + k, v]``."""
    return np.moveaxis(sliding_window_view(padded, taps, axis=2)[:, :, ::stride], -1, 2)


def _correlate(padded: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """out[b, c, t, v] = sum_k kernel[c, k] * padded[b, c, stride * t + k, v].

    einsum without ``optimize`` adds the taps in order in one fixed loop, so
    the result has the bits of a tap-by-tap loop. With stride 1 the
    (T_out, V) axes fold into one without a copy: one long inner loop.
    """
    windows = _tap_windows(padded, kernel.shape[1], stride)
    if stride > 1:
        return np.einsum("ck,bcktv->bctv", kernel, windows)
    out = np.einsum("ck,bckn->bcn", kernel, windows.reshape(*windows.shape[:3], -1))
    return out.reshape(windows.shape[:2] + windows.shape[3:])


def temporal_conv(
    x: Tensor, kernel: Tensor, stride: int = 1, bias: Tensor | None = None
) -> Tensor:
    """Depthwise convolution over the frame axis of a (B, C, T, V) tensor.

    ``kernel`` has shape (C, K) with K odd; the input is zero padded by
    (K - 1) / 2 on both sides, so with stride 1 the frame count is
    preserved and with stride s it becomes ceil(T / s). ``bias`` (C,), if
    given, is added per channel. The input gradient is the same windowed
    sum of the stride-dilated gradient with the flipped kernel.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 4:
        raise ConfigurationError("temporal_conv expects a (B, C, T, V) input")
    channels, taps = kernel.data.shape
    if channels != x.data.shape[1]:
        raise ConfigurationError(
            f"kernel has {channels} channels, input has {x.data.shape[1]}"
        )
    if taps % 2 != 1:
        raise ConfigurationError(f"kernel size must be odd, got {taps}")
    if stride < 1:
        raise ConfigurationError(f"stride: must be positive, got {stride}")

    batch, _, frames, vertices = x.data.shape
    pad = (taps - 1) // 2
    padded = np.zeros((batch, channels, frames + 2 * pad, vertices))
    padded[:, :, pad:pad + frames, :] = x.data
    out_data = _correlate(padded, kernel.data, stride)
    if bias is not None:
        out_data += bias.data[:, None, None]

    def backward_fn(grad):
        if bias is not None:
            _accumulate(bias, grad.sum(axis=(0, 2, 3)))
        windows = _tap_windows(padded, taps, stride)
        _accumulate(kernel, np.einsum("bcktv,bctv->ck", windows, grad))
        dilated = np.zeros_like(padded)
        dilated[:, :, pad:pad + stride * grad.shape[2]:stride, :] = grad
        _accumulate(x, _correlate(dilated, kernel.data[:, ::-1], 1))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return Tensor(out_data, parents=parents, backward_fn=backward_fn)


def _batch_outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_b left[b] @ right[b].T, without a (B, M, P) intermediate."""
    total = left[0] @ right[0].T
    for b in range(1, left.shape[0]):
        total += left[b] @ right[b].T
    return total


def graph_conv(
    x: Tensor,
    adjacency: list[Tensor],
    weights: list[Tensor],
    masks: list[Tensor],
    bias: Tensor | None = None,
) -> Tensor:
    """Spatial graph convolution over the joint axis of a (B, C, T, V) tensor.

    Partition k aggregates the input over joints with the gated adjacency
    ``A_k * M_k`` (V, V) and mixes channels with ``W_k`` (C, D); the
    partitions are summed and ``bias`` (D,), if given, is added:

        y[b, d, t, w] = sum_k sum_v sum_c x[b, c, t, v] (A_k * M_k)[v, w] W_k[c, d]

    One matmul per partition fills a (B, K, C, T, V) aggregate, then one
    batched GEMM with the stacked (K·C, D) weight writes the output, so no
    activation is transposed. Aggregating before mixing is the cheaper
    order while C <= D. The backward pass contracts against the saved
    aggregate.
    """
    x = _as_tensor(x)
    partitions = len(adjacency)
    if not partitions == len(weights) == len(masks):
        raise ConfigurationError(
            "adjacency, weights and edge_importance must have equal length"
        )
    if x.data.ndim != 4:
        raise ConfigurationError("graph_conv expects a (B, C, T, V) input")
    batch, channels, frames, vertices = x.data.shape
    gated = [a.data * m.data for a, m in zip(adjacency, masks)]
    stacked = np.stack([w.data for w in weights]).reshape(partitions * channels, -1)
    out_channels = stacked.shape[1]

    # Row block k of a sample's (K·C, T·V) aggregate holds x[b] @ gated[k].
    columns = x.data.reshape(batch, channels * frames, vertices)
    aggregated = np.empty((batch, partitions, channels * frames, vertices))
    for k in range(partitions):
        np.matmul(columns, gated[k], out=aggregated[:, k])
    aggregated = aggregated.reshape(batch, partitions * channels, frames * vertices)
    out_data = np.matmul(stacked.T, aggregated)
    out_data = out_data.reshape(batch, out_channels, frames, vertices)
    if bias is not None:
        out_data += bias.data[:, None, None]

    def backward_fn(grad):
        if bias is not None:
            _accumulate(bias, grad.sum(axis=(0, 2, 3)))
        grad_flat = grad.reshape(batch, out_channels, frames * vertices)
        grad_stacked = _batch_outer(aggregated, grad_flat)
        grad_aggregated = np.matmul(stacked, grad_flat).reshape(
            batch, partitions, channels * frames, vertices
        )
        grad_columns = np.zeros_like(columns)
        for k in range(partitions):
            slab = grad_aggregated[:, k]
            grad_columns += slab @ gated[k].T
            grad_gated = _batch_outer(
                columns.transpose(0, 2, 1), slab.transpose(0, 2, 1)
            )
            _accumulate(weights[k], grad_stacked[k * channels:(k + 1) * channels])
            _accumulate(masks[k], grad_gated * adjacency[k].data)
            _accumulate(adjacency[k], grad_gated * masks[k].data)
        _accumulate(x, grad_columns.reshape(x.data.shape))

    parents = (x, *adjacency, *weights, *masks) + (() if bias is None else (bias,))
    return Tensor(out_data, parents=parents, backward_fn=backward_fn)


def pointwise_conv(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Mix the channels of a (B, C, T, V) tensor with a (C, D) weight.

    A 1x1 convolution: ``W.T @ x[b]`` on each sample's (C, T·V) matrix, so
    the output is (B, D, T, V) with no transpose. ``bias`` (D,), if given,
    is added per channel.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 2:
        raise ConfigurationError(
            "pointwise_conv needs a (B, C, T, V) input and a 2D weight"
        )
    if bias is not None and bias.data.shape != weight.data.shape[1:]:
        raise ConfigurationError(
            f"pointwise_conv bias has shape {bias.data.shape}, "
            f"expected ({weight.data.shape[1]},)"
        )
    batch, channels, frames, vertices = x.data.shape
    flat = x.data.reshape(batch, channels, frames * vertices)
    out_data = np.matmul(weight.data.T, flat).reshape(batch, -1, frames, vertices)
    if bias is not None:
        out_data += bias.data[:, None, None]

    def backward_fn(grad):
        if bias is not None:
            _accumulate(bias, grad.sum(axis=(0, 2, 3)))
        grad_flat = grad.reshape(batch, -1, frames * vertices)
        _accumulate(weight, _batch_outer(flat, grad_flat))
        _accumulate(x, np.matmul(weight.data, grad_flat).reshape(x.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out_data, parents=parents, backward_fn=backward_fn)


_BN_AXES = (0, 2, 3)


def _batch_norm_input(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigurationError("batch_norm expects a (B, C, T, V) input")
    return x


def fold_batch_norm(gamma, beta, mean, inv_std) -> tuple[np.ndarray, np.ndarray]:
    """Batch norm with fixed statistics as the per-channel map ``x * a + b``.

    Returns ``a = gamma * inv_std`` and ``b = beta - mean * a``; the
    arguments are arrays that broadcast against each other. A convolution
    followed by this map is the convolution with its output channels
    scaled by ``a`` and its bias mapped through it.
    """
    a = gamma * inv_std
    return a, beta - mean * a


def _normalize(x, gamma, beta, mu, inv_std, batch_stats: bool, relu: bool) -> Tensor:
    """``gamma * (x - mu) * inv_std + beta`` per channel, as one node.

    ``mu`` and ``inv_std`` are (1, C, 1, 1). With ``batch_stats`` they were
    computed from ``x`` and the input gradient accounts for that; otherwise
    they are constants, the output is the folded map ``x * a + b`` and the
    input gradient is a per-channel scale. ``relu`` fuses a ReLU onto it.
    """
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    scale = gamma.data[None, :, None, None]
    shift = beta.data[None, :, None, None]
    if batch_stats:
        normalized = (x.data - mu) * inv_std
        out_data = scale * normalized + shift
    else:
        a, b = fold_batch_norm(scale, shift, mu, inv_std)
        out_data = x.data * a + b
    mask = _rectify(out_data) if relu else None

    def backward_fn(grad):
        if mask is not None:
            grad = grad * mask
        _accumulate(beta, grad.sum(axis=_BN_AXES))
        if not batch_stats:
            _accumulate(gamma, (grad * ((x.data - mu) * inv_std)).sum(axis=_BN_AXES))
            _accumulate(x, grad * a)
            return
        _accumulate(gamma, (grad * normalized).sum(axis=_BN_AXES))
        grad_normalized = grad * scale
        mean_grad = grad_normalized.mean(axis=_BN_AXES, keepdims=True)
        mean_grad_normalized = (grad_normalized * normalized).mean(
            axis=_BN_AXES, keepdims=True
        )
        _accumulate(
            x,
            inv_std * (grad_normalized - mean_grad - normalized * mean_grad_normalized),
        )

    return Tensor(out_data, parents=(x, gamma, beta), backward_fn=backward_fn)


def batch_norm_batch(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, relu: bool = False
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize a (B, C, T, V) tensor with its own batch statistics.

    Returns the output with the per-channel batch mean and biased variance
    it used, (C,) each, so a caller can track running statistics without a
    second pass. Gradients are exact: the backward pass accounts for the
    dependence of mean and variance on the input.
    """
    x = _batch_norm_input(x)
    mu = x.data.mean(axis=_BN_AXES, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=_BN_AXES, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out = _normalize(x, gamma, beta, mu, inv_std, batch_stats=True, relu=relu)
    return out, mu.reshape(-1), var.reshape(-1)


def batch_norm_given(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
    relu: bool = False,
) -> Tensor:
    """Normalize with fixed (C,) statistics, the evaluation and frozen path."""
    x = _batch_norm_input(x)
    inv_std = 1.0 / np.sqrt(np.asarray(running_var, dtype=np.float64) + eps)
    mu = np.asarray(running_mean, dtype=np.float64)
    return _normalize(x, gamma, beta, mu[None, :, None, None],
                      inv_std[None, :, None, None], batch_stats=False, relu=relu)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling keeps the expectation unchanged."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        mask = np.ones_like(x.data)
    else:
        mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out_data = x.data * mask

    def backward_fn(grad):
        _accumulate(x, grad * mask)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)
