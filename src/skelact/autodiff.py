"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation builds a new Tensor that remembers its parents and a
closure propagating the output gradient to them. ``Tensor.backward`` walks
the recorded graph once in reverse topological order. Inside ``no_grad``
nothing is recorded: every operation returns a bare leaf with no
gradient buffer, and the arrays a backward pass would need are freed as
soon as the operation returns. An operation none of whose operands is a
trainable leaf or a recorded node returns such a leaf too, since no
gradient through it reaches a trainable tensor: frozen layers record
nothing. Only the operations the network actually needs exist here, each
with an exact analytic gradient; there is no graph optimization, no dtype
besides float64, and no in-place arithmetic on tracked values but one:
``temporal_conv``'s prologue normalizes its input over the input's own
array.

An ST-GCN block is two nodes. ``graph_conv`` returns its raw channel mix.
``temporal_conv`` runs bn1 and a ReLU on that mix as its prologue, into a
zero-bordered buffer it convolves and drops, and bn2, dropout, the
residual add and ReLU as its epilogue, with a ``Projection`` shortcut
computed there too. The prologue may write over its input because
``graph_conv``'s backward never reads its output. Between forward and
backward a block holds only what a backward reads: that output, bn2's
and a projection's centered inputs, the dropout mask and the node's
output. Each batch norm's backward runs a few channels at a time
(``_chunks``), so its only full-size array is dx.

Leaf gradients accumulate into ``Tensor.grad`` buffers. Leaf tensors
marked non-trainable (inputs, frozen weights) keep their gradient buffer
at zero: backward skips them, which is both the freezing semantics and a
small saving. An interior node's ``grad`` is
``None`` except while ``backward`` runs: it is set when the first
contribution arrives and dropped once the node has passed it on.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple

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

    Under ``no_grad``, and for an operation output none of whose parents
    is a trainable leaf or a recorded node, the parents and backward
    closure are dropped and no gradient buffer is made.
    """

    __slots__ = ("data", "grad", "trainable", "_parents", "_backward_fn")

    def __init__(self, data, trainable=False, parents=(), backward_fn=None):
        recording = _recording.get() and (
            not parents or any(_needs_grad(p) for p in parents))
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if recording and not parents else None
        self.trainable = bool(trainable)
        self._parents = tuple(parents) if recording else ()
        self._backward_fn = backward_fn if recording else None

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


def _needs_grad(tensor: Tensor) -> bool:
    """Whether a gradient handed to ``tensor`` reaches a trainable leaf."""
    return tensor.trainable or bool(tensor._parents)


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


def relu(x: Tensor) -> Tensor:
    """max(x, 0); NaN stays visible. The node keeps a bool mask of x > 0."""
    x = _as_tensor(x)
    mask = x.data > 0.0 if _recording.get() else None
    out_data = x.data.copy()
    np.maximum(out_data, 0.0, out=out_data)

    def backward_fn(grad):
        _accumulate(x, grad * mask)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


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
    """Keep every stride-th frame of a (C, B, T, V) tensor."""
    x = _as_tensor(x)
    if stride < 1:
        raise ConfigurationError(f"stride: must be positive, got {stride}")
    out_data = x.data[:, :, ::stride, :].copy()

    def backward_fn(grad):
        buffer = np.zeros_like(x.data)
        buffer[:, :, ::stride, :] = grad
        _accumulate(x, buffer)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)


_BN_AXES = (1, 2, 3)
# Bytes of the scratch buffer ``_chunks`` hands out with each run of channels.
_PRODUCT_BYTES = 1 << 18


def _chunks(a: np.ndarray):
    """(slice, buffer) for each run of whole channels of a (C, ...) array
    that fits in ``_PRODUCT_BYTES`` (one channel if a channel is larger),
    with a contiguous scratch buffer of the run's shape. An elementwise
    chain over a run stays in cache and gives each element the bits of
    whole-array code; a channel's sum is numpy's sum of one contiguous row."""
    step = max(1, _PRODUCT_BYTES // a[0].nbytes)
    buffer = np.empty((min(step, len(a)),) + a.shape[1:])
    for start in range(0, len(a), step):
        stop = min(start + step, len(a))
        yield slice(start, stop), buffer[:stop - start]


def _row_sum(a: np.ndarray, out: np.ndarray) -> None:
    """Sum each channel of a contiguous (k, ...) run into (k,) ``out``."""
    a.reshape(len(a), -1).sum(axis=1, out=out)


def _dropout_mask(shape: tuple[int, ...], rate: float, rng) -> tuple[np.ndarray, float]:
    """Inverted dropout as a bool keep mask and one scale, 1 / (1 - rate).

    Multiplying by the mask, then by the scale, has the bits of multiplying
    by 0 or 1 / (1 - rate), signed zeros included.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=bool), 1.0
    return rng.random(shape) >= rate, 1.0 / (1.0 - rate)


def _bordered(shape: tuple[int, ...], pad: int) -> np.ndarray:
    """An uninitialized array whose first and last ``pad`` frames, on axis
    2, are zero: the inner frames are the caller's to write."""
    out = np.empty(shape)
    out[:, :, :pad] = 0.0
    out[:, :, shape[2] - pad:] = 0.0
    return out


class Norm(NamedTuple):
    """A batch norm run inside a node: as the epilogue of its output or,
    in ``temporal_conv``, as the prologue of its input.

    With ``running`` None it normalizes with the batch's own mean and
    biased variance and hands them, (C,) each, to ``track``. A
    ``(mean, var)`` pair of (C,) arrays normalizes with those fixed
    statistics instead.
    """

    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5
    running: tuple[np.ndarray, np.ndarray] | None = None
    track: Callable[[np.ndarray, np.ndarray], None] | None = None


class Projection(NamedTuple):
    """A residual branch run inside a node's epilogue: every ``stride``-th
    frame of ``x``, (C, B, T, V), mixed by a (C, D) ``weight``, then batch
    norm ``norm``. Its input frames and output are temporaries; backward
    subsamples ``x`` again for the weight gradient."""

    x: Tensor
    weight: Tensor
    norm: Norm
    stride: int


def _per_channel(values: np.ndarray) -> np.ndarray:
    return values[:, None, None, None]


class _Epilogue:
    """The elementwise tail of a node: batch norm, dropout, residual add
    and ReLU, in that order, each optional.

    ``apply`` runs it on a fresh (C, B, T, V) array; ``backward`` takes
    the gradient of the result back to that array, accumulating the batch
    norm and shortcut gradients on the way. The shortcut is a tensor or a
    ``Projection``, which the tail computes for the add and drops. Only
    what the backward reads is kept: with batch statistics the centered
    input, with fixed ones the input while gamma trains and a graph is
    recorded, the dropout mask, and the same for a projection's batch
    norm. ReLU keeps no mask: the backward reads where the rectified
    result is > 0, which is where its input was, NaN and both zeros giving
    False either way. The result is the node's output, so it stays alive,
    and nothing writes into it once the node has returned.

    ``fit``, ``rectify``, ``affine`` and ``normalize_backward`` are the
    batch norm and a ReLU alone, for a prologue.
    """

    def __init__(self, norm: Norm | None = None, dropout: float = 0.0, rng=None,
                 shortcut: Tensor | Projection | None = None, relu: bool = False):
        self.norm, self.shortcut = norm, shortcut
        self.dropout, self.rng, self.relu = dropout, rng, relu
        self.centered = self.source = self.keep = self.rectified = None

    def apply(self, out: np.ndarray) -> np.ndarray:
        """Run the tail on ``out``, the caller's fresh array, and return the result.

        The result goes over ``out`` when no backward reads ``out``, and to
        a new array when one does.
        """
        result = out if self.norm is None else self.normalize(out)
        if self.dropout:
            self.keep, self.scale = _dropout_mask(result.shape, self.dropout, self.rng)
            result *= self.keep
            result *= self.scale
        branch = self.shortcut
        if isinstance(branch, Projection):
            self.branch = _Epilogue(branch.norm)
            columns = np.ascontiguousarray(branch.x.data[:, :, ::branch.stride])
            mixed = branch.weight.data.T @ columns.reshape(len(columns), -1)
            del columns
            result += self.branch.apply(mixed.reshape(-1, *result.shape[1:]))
        elif branch is not None:
            result += branch.data
        if self.relu:
            self.rectified = np.maximum(result, 0.0, out=result)
        return result

    def normalize(self, out: np.ndarray) -> np.ndarray:
        """Batch-normalize ``out`` and return the result: ``out`` itself
        if the map ran over it in place (see ``fit``), else a new array."""
        self.fit(out)
        if self.in_place:
            return out
        result = np.multiply(out, self.a)
        result += self.b
        return result

    def fit(self, out: np.ndarray) -> None:
        """Find the batch norm's map ``x * a + b`` for ``out``.

        With batch statistics ``out`` is centered in place, and the map
        reads it from there. With fixed ones the map runs over ``out`` in
        place, contiguous (``in_place``), unless the backward reads ``out``
        because gamma trains in a recorded graph.
        """
        norm = self.norm
        gamma, shift = _per_channel(norm.gamma.data), _per_channel(norm.beta.data)
        self.in_place = False
        if norm.running is None:
            mu = out.mean(axis=_BN_AXES, keepdims=True)
            centered = np.subtract(out, mu, out=out)
            var = np.empty(len(out))
            for part, buffer in _chunks(out):
                _row_sum(np.square(centered[part], out=buffer), var[part])
            var /= centered[0].size
            self.inv_std = 1.0 / _per_channel(np.sqrt(var + norm.eps))
            self.a, self.b = gamma * self.inv_std, shift
            self.centered = centered
            if norm.track is not None:
                norm.track(mu.reshape(-1), var)
            return
        mean, var = (np.asarray(s, dtype=np.float64) for s in norm.running)
        self.mu = _per_channel(mean)
        self.inv_std = _per_channel(1.0 / np.sqrt(var + norm.eps))
        self.a = gamma * self.inv_std
        self.b = shift - self.mu * self.a
        if norm.gamma.trainable and _recording.get():
            self.source = out
            return
        out *= self.a
        out += self.b
        self.in_place = True

    def affine(self, out: np.ndarray, part: slice, buffer: np.ndarray) -> np.ndarray:
        """The batch norm's result on channels ``part``, from what ``fit``
        left in ``out``: ``out[part]`` if the map ran in place, else
        ``out[part] * a + b`` written to ``buffer``."""
        if self.in_place:
            return out[part]
        result = np.multiply(out[part], self.a[part], out=buffer)
        result += self.b[part]
        return result

    def rectify(self, out: np.ndarray, dest: np.ndarray) -> None:
        """Write the ReLU of the batch norm's result to ``dest``, which may
        be a strided view, a run of channels at a time; every call writes
        the same bits."""
        for part, buffer in _chunks(out):
            np.maximum(self.affine(out, part, buffer), 0.0, out=dest[part])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """The gradient of the array ``apply`` ran on. ``grad`` may also be
        a sibling's gradient, so it is never written; the ReLU mask is made
        whole only if a shortcut reads the masked gradient."""
        relu, branch = None, self.shortcut
        if self.rectified is not None and branch is None:
            relu = lambda part, _: self.rectified[part] > 0.0
        elif self.rectified is not None:
            grad = grad * (self.rectified > 0.0)
        if isinstance(branch, Projection):
            self.project_backward(grad)
        elif branch is not None:
            _accumulate(branch, grad)
        # Once a projection has read it, the masked copy is this tail's own.
        own = isinstance(branch, Projection) and self.rectified is not None
        return self.normalize_backward(grad, grad if own else None, relu)

    def project_backward(self, grad: np.ndarray) -> None:
        """Accumulate the projection shortcut's gradients; ``grad`` is read only."""
        branch = self.shortcut
        grad_rows = self.branch.backward(grad).reshape(len(grad), -1)
        columns = np.ascontiguousarray(branch.x.data[:, :, ::branch.stride])
        _accumulate(branch.weight, columns.reshape(len(columns), -1) @ grad_rows.T)
        if not _needs_grad(branch.x):
            return
        grad_x = (branch.weight.data @ grad_rows).reshape(columns.shape)
        if branch.stride > 1:
            grad_x, strided = np.zeros_like(branch.x.data), grad_x
            grad_x[:, :, ::branch.stride] = strided
        _accumulate(branch.x, grad_x)

    def normalize_backward(self, grad: np.ndarray, dest: np.ndarray | None,
                           relu: Callable | None) -> np.ndarray:
        """dx of the batch norm from ``grad``, the gradient of the tail's
        result with the shortcut's part taken: one pass per run of whole
        channels applies the ReLU mask ``relu(part, buffer)``, if given, and
        the dropout mask, takes both per-channel sums and writes dx to
        ``dest`` (``grad`` itself, or a new array if None)."""
        norm, batch = self.norm, self.centered is not None
        if norm is None and relu is None and self.keep is None:
            return grad
        dest = np.empty(grad.shape) if dest is None else dest
        sums = np.empty((2, len(grad)))  # of g and of g times the normalized input
        for part, buffer in _chunks(grad):
            g = grad[part]
            if relu is not None:
                g = np.multiply(g, relu(part, buffer), out=dest[part])
            if self.keep is not None:
                g = np.multiply(g, self.keep[part], out=dest[part])
                g *= self.scale
            if norm is None:
                continue
            _row_sum(g, sums[0, part])
            a = self.a[part]
            if not batch:
                # Fixed statistics: the map is x * a + b.
                if self.source is not None:
                    normalized = np.subtract(self.source[part], self.mu[part], out=buffer)
                    normalized *= self.inv_std[part]
                    _row_sum(np.multiply(g, normalized, out=buffer), sums[1, part])
                np.multiply(g, a, out=dest[part])
                continue
            centered = self.centered[part]
            _row_sum(np.multiply(g, centered, out=buffer), sums[1, part])
            mean_grad = _per_channel(sums[0, part] / g[0].size)
            mean_grad_centered = _per_channel(sums[1, part] / g[0].size)
            # dx = a * (g - mean(g) - centered * inv_std**2 * mean(g * centered))
            coefficient = -a * self.inv_std[part] ** 2 * mean_grad_centered
            term = np.multiply(centered, coefficient, out=buffer)
            term -= a * mean_grad
            np.add(term, np.multiply(g, a, out=dest[part]), out=dest[part])
        if norm is not None:
            _accumulate(norm.beta, sums[0])
            if batch or self.source is not None:
                _accumulate(norm.gamma, sums[1] * self.inv_std.reshape(-1) if batch
                            else sums[1])
        return dest

    def parents(self) -> tuple[Tensor, ...]:
        """The tensors the tail reads besides the node's own operands."""
        extra = () if self.norm is None else (self.norm.gamma, self.norm.beta)
        branch = self.shortcut
        if isinstance(branch, Projection):
            return extra + (branch.x, branch.weight, branch.norm.gamma, branch.norm.beta)
        return extra + (() if branch is None else (branch,))


def _tap_windows(padded: np.ndarray, taps: int, stride: int) -> np.ndarray:
    """The (C, B, K, T_out, V) view ``padded[c, b, stride * t + k, v]``."""
    return np.moveaxis(sliding_window_view(padded, taps, axis=2)[:, :, ::stride], -1, 2)


def _correlate(padded: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """out[c, b, t, v] = sum_k kernel[c, k] * padded[c, b, stride * t + k, v].

    einsum without ``optimize`` adds the taps in order in one fixed loop, so
    the result has the bits of a tap-by-tap loop. With stride 1 the
    (T_out, V) axes fold into one without a copy: one long inner loop.
    """
    windows = _tap_windows(padded, kernel.shape[1], stride)
    if stride > 1:
        return np.einsum("ck,cbktv->cbtv", kernel, windows)
    out = np.einsum("ck,cbkn->cbn", kernel, windows.reshape(*windows.shape[:3], -1))
    return out.reshape(windows.shape[:2] + windows.shape[3:])


def temporal_conv(
    x: Tensor,
    kernel: Tensor,
    stride: int = 1,
    *,
    prologue: Norm | None = None,
    norm: Norm | None = None,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    shortcut: Tensor | Projection | None = None,
    relu: bool = False,
) -> Tensor:
    """Depthwise convolution over the frame axis of a (C, B, T, V) tensor.

    ``kernel`` has shape (C, K) with K odd; the input is zero padded by
    (K - 1) / 2 on both sides, so with stride 1 the frame count is
    preserved and with stride s it becomes ceil(T / s).

    With ``prologue``, batch norm ``prologue`` and a ReLU run on the input
    before the convolution. The batch norm runs over the input's own
    array: the batch mean is subtracted in place, and the fixed map
    ``x * a + b`` runs in place unless gamma trains in a recorded graph.
    So the input's data must be an array no one reads afterwards, as
    ``graph_conv``'s output is: that op's backward never reads it, and
    under ``no_grad`` nothing does.

    The padded input, rectified if there is a prologue, goes to a
    zero-bordered buffer the node owns and drops once it has convolved;
    only the prologue's ReLU writes into it. The backward pass builds the
    buffer again from what the forward left in the input's array, by the
    same operations, so with the same bits, for the kernel gradient, then
    reuses it for the stride-dilated output gradient. The input gradient
    is the windowed sum of that buffer with the flipped kernel; the
    prologue's backward rebuilds its ReLU mask a run of channels at a
    time and writes dx over that sum.

    The epilogue runs in this node, in order: batch norm ``norm``,
    inverted dropout at rate ``dropout`` drawn from ``rng``, the
    residual add of ``shortcut``, ReLU. The shortcut is a tensor of the
    output's shape or a ``Projection`` to that shape.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 4:
        raise ConfigurationError("temporal_conv expects a (C, B, T, V) input")
    channels, taps = kernel.data.shape
    if channels != x.data.shape[0]:
        raise ConfigurationError(
            f"kernel has {channels} channels, input has {x.data.shape[0]}"
        )
    if taps % 2 != 1:
        raise ConfigurationError(f"kernel size must be odd, got {taps}")
    if stride < 1:
        raise ConfigurationError(f"stride: must be positive, got {stride}")

    _, batch, frames, vertices = x.data.shape
    out_shape = (channels, batch, -(-frames // stride), vertices)
    if isinstance(shortcut, Projection):
        shortcut_shape = (shortcut.weight.data.shape[1:]
                          + shortcut.x.data[:, :, ::shortcut.stride].shape[1:])
    else:
        shortcut_shape = out_shape if shortcut is None else shortcut.data.shape
    if shortcut_shape != out_shape:
        raise ConfigurationError(
            f"shortcut has shape {shortcut_shape}, output has {out_shape}"
        )
    pad = (taps - 1) // 2
    entry = None if prologue is None else _Epilogue(prologue)

    def padded_input() -> np.ndarray:
        # The array the kernel slides over: the input, or its rectified
        # batch norm, inside a zero border.
        padded = _bordered((channels, batch, frames + 2 * pad, vertices), pad)
        inner = padded[:, :, pad:pad + frames]
        if entry is None:
            inner[...] = x.data
        else:
            entry.rectify(x.data, inner)
        return padded

    if entry is not None:
        entry.fit(x.data)
    out_data = _correlate(padded_input(), kernel.data, stride)
    epilogue = _Epilogue(norm, dropout, rng, shortcut, relu)
    out_data = epilogue.apply(out_data)

    def backward_fn(grad):
        grad = epilogue.backward(grad)
        padded = padded_input()
        windows = _tap_windows(padded, taps, stride)
        _accumulate(kernel, np.einsum("cbktv,cbtv->ck", windows, grad))
        # The buffer becomes the dilated gradient: its border is zero, stride
        # 1 writes every inner frame, and a larger stride leaves gaps that
        # must be zero too.
        if stride > 1:
            padded[:, :, pad:pad + frames] = 0.0
        padded[:, :, pad:pad + stride * grad.shape[2]:stride] = grad
        del grad, windows
        grad_x = _correlate(padded, kernel.data[:, ::-1], 1)
        del padded
        if entry is not None:
            # The ReLU mask: where the rectified input was > 0.
            entry.normalize_backward(
                grad_x, grad_x, lambda part, buf: entry.affine(x.data, part, buf) > 0.0)
        _accumulate(x, grad_x)

    parents = (x, kernel) + (() if entry is None else entry.parents())
    return Tensor(out_data, parents=parents + epilogue.parents(),
                  backward_fn=backward_fn)


def graph_conv(
    x: Tensor,
    adjacency: np.ndarray,
    weights: list[Tensor],
    masks: list[Tensor],
) -> Tensor:
    """Spatial graph convolution over the joint axis of a (C, B, T, V) tensor.

    Partition k aggregates the input over joints with the gated adjacency
    ``A_k * M_k`` (V, V) and mixes channels with ``W_k`` (C, D); the
    partitions are summed:

        y[d, b, t, w] = sum_k sum_v sum_c x[c, b, t, v] (A_k * M_k)[v, w] W_k[c, d]

    ``adjacency`` holds the constant A_k, (K, V, V), which take no gradient.

    One matmul per partition on the (C·B·T, V) input fills a (K·C, B·T·V)
    aggregate, then one GEMM with the stacked (K·C, D) weight writes the
    output, so no activation is transposed and the whole batch is one
    call. Aggregating before mixing is the cheaper order while C <= D. The
    aggregate, 3x the input for K = 3, and the stacked weight are freed as
    soon as the output is mixed, and the backward pass builds both again,
    by the same operations, so with the same bits. The weight and
    aggregate gradients are one GEMM each over the whole batch; the input
    gradient, K more products, is computed only if a gradient of the input
    reaches a trainable tensor.

    The backward pass never reads the output, so the next node may write
    over it, as ``temporal_conv``'s prologue does.
    """
    x = _as_tensor(x)
    partitions = len(adjacency)
    if not partitions == len(weights) == len(masks):
        raise ConfigurationError(
            "adjacency, weights and edge_importance must have equal length"
        )
    if x.data.ndim != 4:
        raise ConfigurationError("graph_conv expects a (C, B, T, V) input")
    channels, batch, frames, vertices = x.data.shape
    gated = [a * m.data for a, m in zip(adjacency, masks)]
    out_channels = weights[0].data.shape[1]

    columns = x.data.reshape(channels * batch * frames, vertices)

    def stacked() -> np.ndarray:
        return np.stack([w.data for w in weights]).reshape(partitions * channels, -1)

    def aggregate() -> np.ndarray:
        # Row block k of the (K·C, B·T·V) aggregate holds x @ gated[k].
        out = np.empty((partitions, channels * batch * frames, vertices))
        for k in range(partitions):
            np.matmul(columns, gated[k], out=out[k])
        return out.reshape(partitions * channels, batch * frames * vertices)

    out_data = (stacked().T @ aggregate()).reshape(out_channels, batch, frames, vertices)

    def backward_fn(grad):
        grad_flat = grad.reshape(out_channels, batch * frames * vertices)
        grad_stacked = aggregate() @ grad_flat.T
        grad_aggregated = (stacked() @ grad_flat).reshape(
            partitions, channels * batch * frames, vertices
        )
        by_channel = columns.reshape(channels, -1, vertices).transpose(0, 2, 1)
        needs_input = _needs_grad(x)
        for k in range(partitions):
            slab = grad_aggregated[k]
            if needs_input and k == 0:
                grad_columns = slab @ gated[k].T
            elif needs_input:
                grad_columns += slab @ gated[k].T
            # One product per input channel, summed: a single (V, C·B·T)
            # @ (C·B·T, V) product runs BLAS at a fraction of its rate.
            grad_gated = np.matmul(by_channel,
                                   slab.reshape(channels, -1, vertices)).sum(axis=0)
            _accumulate(weights[k], grad_stacked[k * channels:(k + 1) * channels])
            _accumulate(masks[k], grad_gated * adjacency[k])
        if needs_input:
            _accumulate(x, grad_columns.reshape(x.data.shape))

    return Tensor(out_data, parents=(x, *weights, *masks), backward_fn=backward_fn)


def batch_norm(x: Tensor, norm: Norm, relu: bool = False) -> Tensor:
    """Batch norm ``norm`` of a (C, B, T, V) tensor as one node; ``relu`` fuses a ReLU."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigurationError("batch_norm expects a (C, B, T, V) input")
    epilogue = _Epilogue(norm=norm, relu=relu)
    out_data = epilogue.apply(x.data.copy())

    def backward_fn(grad):
        _accumulate(x, epilogue.backward(grad))

    return Tensor(out_data, parents=(x,) + epilogue.parents(), backward_fn=backward_fn)


def batch_norm_batch(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, relu: bool = False
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize a (C, B, T, V) tensor with its own batch statistics.

    Returns the output with the per-channel batch mean and biased variance
    it used, (C,) each, so a caller can track running statistics without a
    second pass. Gradients are exact: the backward pass accounts for the
    dependence of mean and variance on the input. ``relu`` fuses a ReLU
    onto the output.
    """
    statistics = []
    out = batch_norm(
        x, Norm(_as_tensor(gamma), _as_tensor(beta), eps,
                track=lambda mu, var: statistics.extend((mu, var))), relu)
    return out, *statistics


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
    norm = Norm(_as_tensor(gamma), _as_tensor(beta), eps, (running_mean, running_var))
    return batch_norm(x, norm, relu)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling keeps the expectation unchanged."""
    x = _as_tensor(x)
    keep, scale = _dropout_mask(x.data.shape, rate, rng)
    out_data = x.data * keep
    out_data *= scale

    def backward_fn(grad):
        grad = grad * keep
        grad *= scale
        _accumulate(x, grad)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)
