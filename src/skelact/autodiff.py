"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation builds a new Tensor that remembers its parents and a
closure propagating the output gradient to them. ``Tensor.backward`` walks
the recorded graph once in reverse topological order and frees each node
as it goes, so a graph can be walked only once. Inside ``no_grad``
nothing is recorded: every operation returns a bare leaf, and the arrays
a backward pass would need are freed as soon as the operation returns.
An operation none of whose operands is a trainable leaf or a recorded
node returns such a leaf too, since no gradient through it reaches a
trainable tensor: frozen layers record nothing. Only the operations the
network actually needs exist here, each with an exact analytic gradient;
there is no graph optimization, no dtype besides float64, and no
in-place arithmetic on tracked values but one: on batch statistics,
``temporal_conv``'s prologue centers its input over the input's own
array.

An ST-GCN block is two nodes. ``graph_conv`` returns its raw channel mix.
``temporal_conv`` runs bn1 and a ReLU on that mix as its prologue, into a
zero-bordered buffer it convolves and drops, and bn2, dropout, the
residual add and ReLU as its epilogue, with a ``Projection`` shortcut
computed there too. The prologue may write over its input because
``graph_conv``'s backward never reads its output. Between forward and
backward a block holds two full-size arrays, that output and the node's
output, plus the dropout mask: bn2's centered input, like a projection's
mixed input, is built again in backward by the forward's operations and
centered with the batch mean the forward kept. Each batch norm runs a few
whole channels at a time (``_chunks``), forward and backward. A backward
writes each large result over an array it has finished reading.

Leaf gradients accumulate into ``Tensor.grad`` buffers. No tensor is
built with one: ``_accumulate`` makes a trainable leaf's buffer when its
first gradient arrives, as zeros plus that gradient, and
``Tensor.zero_grad``, which ``SGD.step`` calls once it has used the
buffer, drops it. Leaf tensors marked non-trainable (inputs, frozen
weights) take no gradient and so never get a buffer: backward skips
them, which is the freezing semantics. An interior node's ``grad`` is
``None`` except while ``backward`` runs: it is set when the first
contribution arrives and dropped once the node has passed it on.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_fraction
from .errors import ConfigurationError, StateError

_recording = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Run operations without recording a graph; contexts nest.

    Each operation inside returns a leaf, with no parents and no backward
    closure. The previous state comes back on exit, also when the body
    raises.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A float64 array plus gradient buffer and autodiff bookkeeping.

    ``grad`` starts as None, and a trainable leaf's first gradient makes
    it. Under ``no_grad``, and for an operation output none of whose
    parents is a trainable leaf or a recorded node, the parents and
    backward closure are dropped, so the output is a leaf.
    """

    __slots__ = ("data", "grad", "trainable", "_parents", "_backward_fn")

    def __init__(self, data, trainable=False, parents=(), backward_fn=None):
        recording = _recording.get() and any(_needs_grad(p) for p in parents)
        self.data = np.asarray(data, dtype=np.float64)
        self.trainable = bool(trainable)
        self.grad = None
        self._parents = tuple(parents) if recording else ()
        self._backward_fn = backward_fn if recording else None

    @property
    def is_leaf(self) -> bool:
        return self._backward_fn is None

    def zero_grad(self) -> None:
        """Drop the gradient buffer; the next gradient makes a new one."""
        self.grad = None

    def backward(self, grad=None) -> None:
        """Propagate gradients of this tensor to everything upstream.

        ``grad`` seeds the output gradient and must match this tensor's
        shape; it may only be omitted for single-element tensors, where it
        defaults to one. Each node is freed as soon as its backward has run:
        it keeps its data and stays a non-leaf, but drops its parents and
        the closure holding its saved arrays, so those go once no later
        node reads them. A backward whose graph reaches a node freed this
        way raises ``StateError`` before it changes any gradient. Leaf
        gradients accumulate over separate forward/backward pairs.
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
        if any(node._backward_fn is _consumed for node in order):
            raise StateError("backward reaches a node an earlier backward freed")
        _accumulate(self, grad)
        for index, node in enumerate(order):
            order[index] = None
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad, node._backward_fn, node._parents = None, _consumed, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, trainable={self.trainable})"


def _consumed(grad):
    """The ``backward_fn`` of a node whose backward has run and been freed."""


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
    return tensor.trainable or tensor._backward_fn is not None


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    # Frozen leaves take no gradient; interior nodes always do, or the
    # chain would break.
    if tensor.is_leaf:
        if tensor.trainable:
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
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


# Bytes of the scratch buffer ``_chunks`` hands out with each run of channels.
_PRODUCT_BYTES = 1 << 18


def _chunks(a: np.ndarray, scratch: bool = True):
    """(slice, buffer) for each run of whole channels of a (C, ...) array
    that fits in ``_PRODUCT_BYTES`` (one channel if a channel is larger),
    with a contiguous scratch buffer of the run's shape if ``scratch``, else
    None. An elementwise chain over a run stays in cache and gives each
    element the bits of whole-array code; a channel's sum is numpy's sum of
    one contiguous row."""
    step = max(1, _PRODUCT_BYTES // a[0].nbytes)
    buffer = np.empty((min(step, len(a)),) + a.shape[1:]) if scratch else None
    for start in range(0, len(a), step):
        stop = min(start + step, len(a))
        yield slice(start, stop), None if buffer is None else buffer[:stop - start]


def _row_sum(a: np.ndarray, out: np.ndarray) -> None:
    """Sum each channel of a contiguous (k, ...) run into (k,) ``out``."""
    a.reshape(len(a), -1).sum(axis=1, out=out)


def _dropout_mask(shape: tuple[int, ...], rate: float, rng) -> tuple[np.ndarray, float]:
    """Inverted dropout as a bool keep mask and one scale, 1 / (1 - rate).

    Multiplying by the mask, then by the scale, has the bits of multiplying
    by 0 or 1 / (1 - rate), signed zeros included.
    """
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
    ``(mean, var)`` pair of (C,) arrays, the running statistics, makes it
    the constant map ``x * a + b``: it reads its input without writing to
    it and takes no gradient, so a backward through it raises ``StateError``.
    """

    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5
    running: tuple[np.ndarray, np.ndarray] | None = None
    track: Callable[[np.ndarray, np.ndarray], None] | None = None


class Projection(NamedTuple):
    """A residual branch run inside a node's epilogue: every ``stride``-th
    frame of ``x``, (C, B, T, V), mixed by a (C, D) ``weight``, then batch
    norm ``norm``. Its input frames and output are temporaries: the norm
    keeps its batch mean, and backward subsamples ``x`` again, mixes it
    again and centers the mix with that mean for the norm's backward."""

    x: Tensor
    weight: Tensor
    norm: Norm
    stride: int


def _per_channel(values: np.ndarray) -> np.ndarray:
    return values[:, None, None, None]


def _project(branch: Projection) -> tuple[np.ndarray, np.ndarray]:
    """Every ``stride``-th frame of the projection's input, (C, B, T, V),
    and their mix by the weight, (D, B·T·V)."""
    columns = np.ascontiguousarray(branch.x.data[:, :, ::branch.stride])
    return columns, branch.weight.data.T @ columns.reshape(len(columns), -1)


class _Epilogue:
    """The elementwise tail of a node: batch norm, dropout, residual add
    and ReLU, in that order, each optional.

    ``fit`` finds each batch norm's map ``x * a + b``; ``apply`` then runs
    the whole tail on a fresh (C, B, T, V) array in one pass per run of
    whole channels. ``backward`` takes the gradient of the result back to
    that array, accumulating the batch norm and shortcut gradients on the
    way. The shortcut is a tensor or a ``Projection``, which the tail
    computes for the add and drops. Only what the backward reads is kept:
    the dropout mask and a batch-statistics norm's centered input or, if
    the caller builds that input again (``rebuilt``, as ``temporal_conv``
    does, and always for a projection), only its batch mean, which
    ``center`` subtracts from the rebuilt array before the backward. A
    norm on running statistics keeps nothing, since no gradient goes
    through it. ReLU keeps no mask: the backward reads where the rectified
    result is > 0, which is where its input was, NaN and both zeros giving
    False either way. The result is the node's output, so nothing writes
    into it once the node returns.

    ``fit``, ``rectify``, ``affine`` and ``normalize_backward`` are the
    batch norm and a ReLU alone, for a prologue.
    """

    def __init__(self, norm: Norm | None = None, dropout: float = 0.0, rng=None,
                 shortcut: Tensor | Projection | None = None, relu: bool = False):
        self.norm, self.shortcut = norm, shortcut
        self.dropout, self.rng, self.relu = dropout, rng, relu
        self.centered = self.keep = self.rectified = None

    def apply(self, out: np.ndarray, rebuilt: bool = False) -> np.ndarray:
        """Run the tail on ``out``, the caller's fresh array, and return the
        result: ``out`` itself when no backward reads ``out`` (no norm,
        running statistics, or ``rebuilt``; see ``fit``), else a new array."""
        if self.norm is not None:
            self.fit(out, rebuilt)
        result = out if self.centered is None else np.empty(out.shape)
        if self.dropout:
            self.keep, self.scale = _dropout_mask(out.shape, self.dropout, self.rng)
        branch = self.shortcut
        projected = isinstance(branch, Projection)
        if projected:
            self.branch = _Epilogue(branch.norm)
            mixed = _project(branch)[1].reshape(out.shape)
            self.branch.fit(mixed, rebuilt=True)
        for part, _ in _chunks(out, scratch=False):
            run = result[part]
            if self.norm is not None:
                self.affine(out, part, run)
            if self.keep is not None:
                run *= self.keep[part]
                run *= self.scale
            if projected:
                run += self.branch.affine(mixed, part, mixed[part])
            elif branch is not None:
                run += branch.data[part]
            if self.relu:
                np.maximum(run, 0.0, out=run)
        self.rectified = result if self.relu else None
        return result

    def fit(self, out: np.ndarray, rebuilt: bool = False) -> None:
        """Find the batch norm's map ``x * a + b`` for ``out``.

        With batch statistics each run of channels takes its row sums and
        is centered in place, then its squares are summed in a scratch run;
        ``out``, which the map reads, is kept as ``centered`` unless
        ``rebuilt``: then only the batch mean is kept, and the caller builds
        ``out`` again for ``center`` before the backward. On running
        statistics ``fit`` writes nothing.
        """
        norm = self.norm
        gamma, shift = _per_channel(norm.gamma.data), _per_channel(norm.beta.data)
        if norm.running is not None:
            mean, var = (np.asarray(s, dtype=np.float64) for s in norm.running)
            self.a = gamma * _per_channel(1.0 / np.sqrt(var + norm.eps))
            self.b = shift - _per_channel(mean) * self.a
            return
        mu, var = np.empty(len(out)), np.empty(len(out))
        for part, buffer in _chunks(out):
            _row_sum(out[part], mu[part])
            mu[part] /= out[0].size
            out[part] -= _per_channel(mu[part])
            _row_sum(np.square(out[part], out=buffer), var[part])
        var /= out[0].size
        self.inv_std = 1.0 / _per_channel(np.sqrt(var + norm.eps))
        self.a, self.b, self.mean = gamma * self.inv_std, shift, mu
        self.centered = None if rebuilt else out
        if norm.track is not None:
            norm.track(mu, var)

    def center(self, out: np.ndarray) -> None:
        """Keep ``out``, the array ``fit`` ran on built again by the same
        operations, as ``centered``, centered in place by the subtraction
        ``fit`` made, so with the same bits."""
        out -= _per_channel(self.mean)
        self.centered = out

    def affine(self, out: np.ndarray, part: slice, dest: np.ndarray) -> np.ndarray:
        """Write the map ``fit`` found, on channels ``part`` of ``out``, to
        ``dest``, which may be ``out[part]`` itself, and return ``dest``."""
        np.multiply(out[part], self.a[part], out=dest)
        dest += self.b[part]
        return dest

    def rectify(self, out: np.ndarray, dest: np.ndarray) -> None:
        """Write the ReLU of the batch norm's result to ``dest``, which may
        be a strided view, a run of channels at a time; every call writes
        the same bits."""
        for part, buffer in _chunks(out):
            np.maximum(self.affine(out, part, buffer), 0.0, out=dest[part])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """The gradient of the array ``apply`` ran on, written over it if
        there is a norm. ``grad`` may also be a sibling's gradient, so it is
        never written; the ReLU mask is made whole only if a shortcut reads
        the masked gradient."""
        relu, branch = None, self.shortcut
        if self.rectified is not None and branch is None:
            relu = lambda part, _: self.rectified[part] > 0.0
        elif self.rectified is not None:
            grad = grad * (self.rectified > 0.0)
        if isinstance(branch, Projection):
            self.project_backward(grad)
        elif branch is not None:
            _accumulate(branch, grad)
        return self.normalize_backward(grad, relu)

    def project_backward(self, grad: np.ndarray) -> None:
        """Accumulate the projection shortcut's gradients; ``grad`` is read
        only. The norm's centered input is made again, by the same operations."""
        branch = self.shortcut
        columns, mixed = _project(branch)
        self.branch.center(mixed.reshape(grad.shape))
        del mixed
        grad_rows = self.branch.backward(grad).reshape(len(grad), -1)
        _accumulate(branch.weight, columns.reshape(len(columns), -1) @ grad_rows.T)
        if not _needs_grad(branch.x):
            return
        grad_x = (branch.weight.data @ grad_rows).reshape(columns.shape)
        if branch.stride > 1:
            grad_x, strided = np.zeros_like(branch.x.data), grad_x
            grad_x[:, :, ::branch.stride] = strided
        _accumulate(branch.x, grad_x)

    def normalize_backward(self, grad: np.ndarray, relu: Callable | None) -> np.ndarray:
        """dx of the batch norm from ``grad``, the gradient of the tail's
        result with the shortcut's part taken: one pass per run of whole
        channels applies the ReLU mask ``relu(part, buffer)``, if given, and
        the dropout mask into a scratch run, takes both per-channel sums and
        writes dx over the centered input (a new array if there is no norm,
        ``grad`` itself if nothing applies). The norm is on batch
        statistics; ``_check_differentiable`` rejects running ones."""
        norm = self.norm
        if norm is None and relu is None and self.keep is None:
            return grad
        dest = np.empty(grad.shape) if norm is None else self.centered
        sums = np.empty((2, len(grad)))  # of g and of g times the centered input
        # Two scratch runs: the masked gradient and the products.
        for (part, buffer), (_, masked) in zip(_chunks(grad), _chunks(grad)):
            g = grad[part]
            masked = dest[part] if norm is None else masked
            if relu is not None:
                g = np.multiply(g, relu(part, buffer), out=masked)
            if self.keep is not None:
                g = np.multiply(g, self.keep[part], out=masked)
                g *= self.scale
            if norm is None:
                continue
            _row_sum(g, sums[0, part])
            a = self.a[part]
            centered = self.centered[part]
            _row_sum(np.multiply(g, centered, out=buffer), sums[1, part])
            mean_grad = _per_channel(sums[0, part] / g[0].size)
            mean_grad_centered = _per_channel(sums[1, part] / g[0].size)
            # dx = a * (g - mean(g) - centered * inv_std**2 * mean(g * centered))
            coefficient = -a * self.inv_std[part] ** 2 * mean_grad_centered
            term = np.multiply(centered, coefficient, out=centered)
            term -= a * mean_grad
            term += np.multiply(g, a, out=buffer)
        if norm is not None:
            _accumulate(norm.beta, sums[0])
            _accumulate(norm.gamma, sums[1] * self.inv_std.reshape(-1))
        return dest

    def parents(self) -> tuple[Tensor, ...]:
        """The tensors the tail reads besides the node's own operands."""
        extra = () if self.norm is None else (self.norm.gamma, self.norm.beta)
        branch = self.shortcut
        if isinstance(branch, Projection):
            return extra + (branch.x, branch.weight, branch.norm.gamma, branch.norm.beta)
        return extra + (() if branch is None else (branch,))


def _check_differentiable(*norms: Norm | None) -> None:
    """Raise ``StateError``, before a node's backward accumulates anything,
    if one of the node's batch norms is on running statistics."""
    if any(norm is not None and norm.running is not None for norm in norms):
        raise StateError("a batch norm on running statistics takes no gradient")


def _tap_windows(padded: np.ndarray, taps: int, stride: int) -> np.ndarray:
    """The (C, B, K, T_out, V) view ``padded[c, b, stride * t + k, v]``."""
    return np.moveaxis(sliding_window_view(padded, taps, axis=2)[:, :, ::stride], -1, 2)


def _correlate(padded: np.ndarray, kernel: np.ndarray, stride: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """out[c, b, t, v] = sum_k kernel[c, k] * padded[c, b, stride * t + k, v].

    einsum without ``optimize`` adds the taps in order in one fixed loop, so
    the result has the bits of a tap-by-tap loop, also when it goes to a
    given stride-1 ``out``. With stride 1 the (T_out, V) axes fold into one
    without a copy: one long inner loop.
    """
    windows = _tap_windows(padded, kernel.shape[1], stride)
    if stride > 1:
        return np.einsum("ck,cbktv->cbtv", kernel, windows)
    shape = windows.shape[:2] + windows.shape[3:]
    out = np.einsum("ck,cbkn->cbn", kernel, windows.reshape(*windows.shape[:3], -1),
                    out=None if out is None else out.reshape(*shape[:2], -1))
    return out.reshape(shape)


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
    before the convolution. On batch statistics the batch mean is
    subtracted over the input's own array, so the input's data must be an
    array no one reads afterwards, as ``graph_conv``'s output is: that
    op's backward never reads it. A norm on running statistics writes
    nothing to the input.

    The padded input, rectified if there is a prologue, goes to a
    zero-bordered buffer the node owns and drops once it has convolved;
    only the prologue's ReLU writes into it. The backward pass builds the
    buffer again from what the forward left in the input's array, by the
    same operations, so with the same bits, and correlates it again: bn2
    maps the forward's correlation in place and keeps only its batch mean,
    which centers the new correlation into bn2's centered input, so the
    node holds no full-size float array but its output until backward.
    The buffer then serves the kernel gradient and becomes the
    stride-dilated output gradient. The input gradient is the windowed sum
    of that buffer with the flipped kernel, written with stride 1 over
    bn2's dx; the prologue's backward rebuilds its ReLU mask a run of
    channels at a time and writes dx over the input's array.

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
    check_fraction("dropout", dropout)

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
    out_data = epilogue.apply(out_data, rebuilt=True)

    def backward_fn(grad):
        # A tensor shortcut has no norm; a Projection has one.
        _check_differentiable(prologue, norm, getattr(shortcut, "norm", None))
        padded = padded_input()
        if norm is not None:
            # bn2's centered input, from the forward's own correlation call.
            epilogue.center(_correlate(padded, kernel.data, stride))
        dx = epilogue.backward(grad)
        windows = _tap_windows(padded, taps, stride)
        _accumulate(kernel, np.einsum("cbktv,cbtv->ck", windows, dx))
        # The buffer becomes the dilated gradient: its border is zero, stride
        # 1 writes every inner frame, and a larger stride leaves gaps that
        # must be zero too.
        if stride > 1:
            padded[:, :, pad:pad + frames] = 0.0
        padded[:, :, pad:pad + stride * dx.shape[2]:stride] = dx
        # With stride 1, dx is over bn2's rebuilt centered input, the input's
        # shape and read by no one else, so the input gradient goes over it.
        own = stride == 1 and norm is not None
        grad_x = _correlate(padded, kernel.data[:, ::-1], 1, dx if own else None)
        del windows, padded, dx
        if entry is not None:
            # The ReLU mask: where the rectified input was > 0. dx goes over
            # the input's array, which the prologue centered.
            grad_x = entry.normalize_backward(
                grad_x, lambda part, buf: entry.affine(x.data, part, buf) > 0.0)
        _accumulate(x, grad_x)

    parents = (x, kernel) + (() if entry is None else entry.parents())
    return Tensor(out_data, parents=parents + epilogue.parents(),
                  backward_fn=backward_fn)


def graph_conv(x: Tensor, adjacency: np.ndarray, weight: Tensor, mask: Tensor) -> Tensor:
    """Spatial graph convolution over the joint axis of a (C, B, T, V) tensor.

    Partition k aggregates the input over joints with the gated adjacency
    ``A_k * M_k`` (V, V) and mixes channels with ``W_k`` (C, D); the
    partitions are summed:

        y[d, b, t, w] = sum_k sum_v sum_c x[c, b, t, v] (A_k * M_k)[v, w] W_k[c, d]

    ``adjacency`` holds the constant A_k, (K, V, V), which take no gradient;
    ``weight`` holds the W_k, (K, C, D), and ``mask`` the edge importance
    M_k, (K, V, V), as ST-GCN stores them.

    One matmul per partition on the (C·B·T, V) input fills a (K·C, B·T·V)
    aggregate, then one GEMM with the weight viewed as (K·C, D) writes the
    output, so no activation is transposed and the whole batch is one
    call. Aggregating before mixing is the cheaper order while C <= D. The
    aggregate, 3x the input for K = 3, is freed as soon as the output is
    mixed, and the backward pass builds it again, by the same operations,
    so with the same bits. The weight and aggregate gradients are one GEMM
    each over the whole batch, the second over the aggregate the first has
    read; the input gradient, K more products, is computed only if a
    gradient of the input reaches a trainable tensor.

    The backward pass never reads the output, so the next node may write
    over it, as ``temporal_conv``'s prologue does.
    """
    x, weight, mask = _as_tensor(x), _as_tensor(weight), _as_tensor(mask)
    if x.data.ndim != 4:
        raise ConfigurationError("graph_conv expects a (C, B, T, V) input")
    channels, batch, frames, vertices = x.data.shape
    partitions = len(adjacency)
    if (weight.data.shape[:-1] != (partitions, channels)
            or mask.data.shape != adjacency.shape):
        raise ConfigurationError(
            f"graph_conv needs a ({partitions}, {channels}, D) weight and a "
            f"{adjacency.shape} mask, got {weight.data.shape} and {mask.data.shape}")
    gated = adjacency * mask.data
    out_channels = weight.data.shape[-1]
    columns = x.data.reshape(channels * batch * frames, vertices)

    def aggregate() -> np.ndarray:
        # Row block k of the (K·C, B·T·V) aggregate holds x @ gated[k].
        out = np.empty((partitions, channels * batch * frames, vertices))
        for k in range(partitions):
            np.matmul(columns, gated[k], out=out[k])
        return out.reshape(partitions * channels, batch * frames * vertices)

    weight_rows = weight.data.reshape(partitions * channels, out_channels)
    out_data = (weight_rows.T @ aggregate()).reshape(out_channels, batch, frames, vertices)

    def backward_fn(grad):
        grad_flat = grad.reshape(out_channels, batch * frames * vertices)
        aggregated = aggregate()
        _accumulate(weight, (aggregated @ grad_flat.T).reshape(weight.data.shape))
        # The aggregate gradient goes over the aggregate, and each partition's
        # input gradient product over the slab before it, once both are read.
        grad_aggregated = np.matmul(weight_rows, grad_flat, out=aggregated).reshape(
            partitions, channels * batch * frames, vertices)
        by_channel = columns.reshape(channels, -1, vertices).transpose(0, 2, 1)
        needs_input = _needs_grad(x)
        grad_gated = np.empty(gated.shape)
        for k in range(partitions):
            slab = grad_aggregated[k]
            if needs_input and k == 0:
                grad_columns = slab @ gated[k].T
            elif needs_input:
                grad_columns += np.matmul(slab, gated[k].T, out=grad_aggregated[k - 1])
            # One product per input channel, summed: a single (V, C·B·T)
            # @ (C·B·T, V) product runs BLAS at a fraction of its rate.
            grad_gated[k] = np.matmul(by_channel,
                                      slab.reshape(channels, -1, vertices)).sum(axis=0)
        del aggregated, grad_aggregated, slab
        _accumulate(mask, grad_gated * adjacency)
        if needs_input:
            _accumulate(x, grad_columns.reshape(x.data.shape))

    return Tensor(out_data, parents=(x, weight, mask), backward_fn=backward_fn)


def batch_norm(x: Tensor, norm: Norm, relu: bool = False) -> Tensor:
    """Batch norm ``norm`` of a (C, B, T, V) tensor as one node; ``relu`` fuses a ReLU."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigurationError("batch_norm expects a (C, B, T, V) input")
    epilogue = _Epilogue(norm=norm, relu=relu)
    out_data = epilogue.apply(x.data.copy())

    def backward_fn(grad):
        _check_differentiable(norm)
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
    """Normalize with running (C,) statistics, the evaluation and frozen
    path: a constant map of ``x``, which takes no gradient (see ``Norm``)."""
    norm = Norm(_as_tensor(gamma), _as_tensor(beta), eps, (running_mean, running_var))
    return batch_norm(x, norm, relu)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling keeps the expectation unchanged."""
    check_fraction("dropout", rate)
    x = _as_tensor(x)
    keep, scale = _dropout_mask(x.data.shape, rate, rng)
    out_data = x.data * keep
    out_data *= scale

    def backward_fn(grad):
        grad = grad * keep
        grad *= scale
        _accumulate(x, grad)

    return Tensor(out_data, parents=(x,), backward_fn=backward_fn)
