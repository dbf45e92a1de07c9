"""Shared builders and independent reference implementations.

Everything here is deliberately written from the documented behavior, not
from the package internals, so tests compare two independent derivations.
"""
import itertools
import json
import math
import statistics
import struct
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from skelact import (
    ConfigurationError,
    SequenceDataset,
    SkeletonGraph,
    SkeletonSequence,
    normalize_centralize,
)
from skelact.autodiff import (
    Tensor,
    _accumulate,
    _unbroadcast,
    batch_norm_batch,
    batch_norm_given,
    dropout,
    graph_conv,
    relu,
    temporal_conv,
    temporal_subsample,
)

mp.mp.dps = 50


# ---------------------------------------------------------------- keypoints

def frame_bytes(people) -> bytes:
    """JSON bytes for one keypoint frame from flat 3V-value lists."""
    doc = {
        "people": [
            {"pose_keypoints_2d": [float(v) for v in flat]} for flat in people
        ]
    }
    return json.dumps(doc).encode("utf-8")


def serialize_keypoint_frame(people) -> bytes:
    """Frame bytes for a ``(P, V, 3)`` array, the inverse of
    parse_keypoint_frame."""
    return frame_bytes([person.reshape(-1) for person in np.asarray(people)])


def write_frames(directory, frames) -> Path:
    """One zero-padded .json file per frame; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, people in enumerate(frames):
        (directory / f"{t:06d}.json").write_bytes(frame_bytes(people))
    return directory


def person_flat(rng, joints, size=(640, 480), hidden=()):
    """Random flat keypoint list; joints in ``hidden`` become (0, 0, 0)."""
    width, height = size
    flat = []
    for v in range(joints):
        if v in hidden:
            flat.extend([0.0, 0.0, 0.0])
        else:
            flat.extend([
                float(rng.uniform(0.0, width)),
                float(rng.uniform(0.0, height)),
                float(rng.uniform(0.05, 1.0)),
            ])
    return flat


def oracle_select_persons(frames, slots, joints):
    """Person selection one frame and one person at a time.

    ``frames`` lists each frame's people as flat value lists in file order.
    A person's score is the mean confidence of its visible joints (0.0
    with none); a stable sort per frame puts the highest first. Returns
    (T, slots, V, 3).
    """
    out = np.zeros((len(frames), slots, joints, 3))
    for t, people in enumerate(frames):
        persons = [np.asarray(flat, dtype=np.float64).reshape(joints, 3)
                   for flat in people]
        scores = []
        for person in persons:
            visible = person[:, 2] > 0.0
            scores.append(float(person[visible, 2].mean()) if visible.any() else 0.0)
        order = np.argsort(-np.array(scores), kind="stable")
        for slot, index in enumerate(order[:slots]):
            out[t, slot] = persons[index]
    return out


# --------------------------------------------------------- synthetic motion

def motion_sequence(rng, label, frames, joints, image_size=(640, 480)):
    """Pixel-space data (T, 1, V, 3) with a class-specific trajectory.

    All joints ride a common path with fixed per-joint offsets: class 0
    orbits, class 1 sweeps horizontally, class 2 vertically. A small
    Gaussian jitter keeps samples distinct; confidences are positive.
    """
    width, height = image_size
    cx, cy = width / 2.0, height / 2.0
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(frames) * (2.0 * np.pi / frames) + phase
    if label == 0:
        px = cx + 80.0 * np.cos(t)
        py = cy + 80.0 * np.sin(t)
    elif label == 1:
        px = cx + 110.0 * np.sin(t)
        py = np.full(frames, cy)
    else:
        px = np.full(frames, cx)
        py = cy + 110.0 * np.sin(t)
    offsets = rng.uniform(-40.0, 40.0, (joints, 2))
    data = np.zeros((frames, 1, joints, 3))
    data[:, 0, :, 0] = px[:, None] + offsets[None, :, 0]
    data[:, 0, :, 1] = py[:, None] + offsets[None, :, 1]
    data[:, 0, :, :2] += rng.normal(0.0, 2.0, (frames, joints, 2))
    data[:, 0, :, 2] = rng.uniform(0.5, 1.0, (frames, joints))
    return data


def motion_dataset(per_class, frames, joints, seed, classes=3,
                   image_size=(640, 480)):
    """Balanced, shuffled list of (normalized sequence, label) pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for label in range(classes):
        for _ in range(per_class):
            data = motion_sequence(rng, label, frames, joints, image_size)
            seq = SkeletonSequence(data, "synthetic", image_size)
            pairs.append((normalize_centralize(seq), label))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def record_entry(**overrides) -> dict:
    """One manifest record as JSON, with ``overrides`` applied."""
    entry = {"sample_id": "s1", "class_name": "a", "performer": "child",
             "keypoint_path": "/data/s1", "image_size": [640, 480], "fps": 30.0}
    entry.update(overrides)
    return entry


def pair_dataset(pairs) -> SequenceDataset:
    """A dataset of (sequence, label) pairs; sample ids are "0", "1", ..."""
    return SequenceDataset([seq for seq, _ in pairs], [label for _, label in pairs],
                           [str(i) for i in range(len(pairs))])


def build_manifest_tree(root, classes=("wave", "jump", "spin"), per_class=8,
                        frames=12, layout="COCO18", seed=0,
                        image_size=(640, 480)):
    """Write keypoint directories plus a manifest.json; returns its path.

    Motion follows motion_sequence per class index, so a small network can
    actually fit the data end to end.
    """
    from skelact import LAYOUT_JOINT_COUNT

    root = Path(root)
    joints = LAYOUT_JOINT_COUNT[layout]
    rng = np.random.default_rng(seed)
    records = []
    for label, name in enumerate(classes):
        for k in range(per_class):
            sample_id = f"{name}_{k:03d}"
            data = motion_sequence(rng, label % 3, frames, joints, image_size)
            payload = [[data[t, 0].reshape(-1).tolist()] for t in range(frames)]
            directory = write_frames(root / "keypoints" / sample_id, payload)
            records.append(record_entry(sample_id=sample_id, class_name=name,
                                        keypoint_path=str(directory),
                                        image_size=list(image_size)))
    path = root / "manifest.json"
    doc = {"classes": list(classes), "layout": layout, "records": records}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


# -------------------------------------------------------------------- graphs

def path_graph(n=5, center=0) -> SkeletonGraph:
    return SkeletonGraph(n, tuple((i, i + 1) for i in range(n - 1)), center, "path")


def triangle_graph() -> SkeletonGraph:
    return SkeletonGraph(3, ((0, 1), (1, 2), (0, 2)), 0, "triangle")


# ----------------------------------------------------------------- gradients

def numeric_grad(loss_fn, tensor, eps=1e-4):
    """Central-difference gradient of ``loss_fn()`` w.r.t. tensor.data."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = loss_fn()
        flat[i] = keep - eps
        lo = loss_fn()
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(a, b, floor=1e-6) -> float:
    """Largest elementwise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


def oracle_graph_conv(x, adjacency, weights, masks):
    """Partitioned graph convolution on a (C, B, T, V) input as explicit
    loops over every index."""
    channels, batch, frames, vertices = x.shape
    out = np.zeros((weights[0].shape[1], batch, frames, vertices))
    for k in range(len(adjacency)):
        gated = adjacency[k] * masks[k]
        for b in range(batch):
            for t in range(frames):
                for w in range(vertices):
                    for v in range(vertices):
                        for c in range(channels):
                            out[:, b, t, w] += x[c, b, t, v] * gated[v, w] * weights[k][c]
    return out


def add_relu(a, b):
    """relu(a + b) as one autodiff node, for the oracle chains: a block's
    residual add and final ReLU. It has the bits of ``relu(add(a, b))``."""
    out = a.data + b.data
    mask = out > 0.0
    np.maximum(out, 0.0, out=out)

    def backward_fn(grad):
        masked = grad * mask
        _accumulate(a, _unbroadcast(masked, a.data.shape))
        _accumulate(b, _unbroadcast(masked, b.data.shape))

    return Tensor(out, parents=(a, b), backward_fn=backward_fn)


def pointwise_conv(x, weight):
    """A 1x1 convolution as one autodiff node, for the oracle chains: the
    (C, D) ``weight`` mixes the channels of a (C, B, T, V) input with one
    GEMM, ``W.T @ x`` on the (C, B·T·V) matrix."""
    if x.data.ndim != 4 or weight.data.ndim != 2:
        raise ConfigurationError(
            "pointwise_conv needs a (C, B, T, V) input and a 2D weight")
    flat = x.data.reshape(len(x.data), -1)
    out = (weight.data.T @ flat).reshape(-1, *x.data.shape[1:])

    def backward_fn(grad):
        grad_flat = grad.reshape(len(grad), -1)
        _accumulate(weight, flat @ grad_flat.T)
        _accumulate(x, (weight.data @ grad_flat).reshape(x.data.shape))

    return Tensor(out, parents=(x, weight), backward_fn=backward_fn)


def oracle_batch_norm(x, gamma, beta, eps, relu, seed):
    """Training batch norm of a (C, B, T, V) input and its gradients by
    the textbook chain rule.

    Follows Ioffe & Szegedy (2015), Algorithm 1 and its backward pass,
    through the normalized input, the variance and the mean in turn.
    Returns (out, mean, var, grad_gamma, grad_beta, grad_x) for the output
    gradient ``seed``.
    """
    axes = (1, 2, 3)
    count = x.size // x.shape[0]

    def per_channel(v):
        return v[:, None, None, None]

    mean = x.mean(axis=axes)
    var = ((x - per_channel(mean)) ** 2).mean(axis=axes)
    std = np.sqrt(var + eps)
    normalized = (x - per_channel(mean)) / per_channel(std)
    out = per_channel(gamma) * normalized + per_channel(beta)
    grad_out = seed
    if relu:
        grad_out = np.where(out > 0.0, seed, 0.0)
        out = np.maximum(out, 0.0)
    grad_normalized = grad_out * per_channel(gamma)
    grad_var = (grad_normalized * (x - per_channel(mean))).sum(axis=axes) * (
        -0.5 * std ** -3
    )
    grad_mean = (-grad_normalized / per_channel(std)).sum(axis=axes) + grad_var * (
        -2.0 * (x - per_channel(mean)).mean(axis=axes)
    )
    grad_x = (grad_normalized / per_channel(std)
              + per_channel(grad_var) * 2.0 * (x - per_channel(mean)) / count
              + per_channel(grad_mean) / count)
    return (out, mean, var, (grad_out * normalized).sum(axis=axes),
            grad_out.sum(axis=axes), grad_x)


def whole_array_batch_norm(x, gamma, beta, eps=1e-5, relu=False):
    """Training batch norm of a (C, B, T, V) tensor, with a fused ReLU if
    ``relu``, as one node that runs every step on whole arrays.

    Forward and backward follow the formulas the fused nodes run a few
    channels at a time, in the same order, so the two must agree bit for
    bit at any run length: each channel's sum is numpy's sum of one
    contiguous row, and dx = a * (g - mean(g) - centered * inv_std**2 *
    mean(g * centered)) is formed as three whole-array terms.
    """
    channels = len(x.data)
    count = x.data[0].size
    centered = x.data - x.data.mean(axis=(1, 2, 3), keepdims=True)
    var = (centered * centered).reshape(channels, -1).sum(axis=1) / count
    inv_std = 1.0 / np.sqrt(var + eps)[:, None, None, None]
    a = gamma.data[:, None, None, None] * inv_std
    out = centered * a
    out += beta.data[:, None, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward_fn(grad):
        if relu:
            grad = grad * (out > 0.0)
        grad_sum = grad.reshape(channels, -1).sum(axis=1)
        grad_centered_sum = (grad * centered).reshape(channels, -1).sum(axis=1)
        _accumulate(beta, grad_sum)
        _accumulate(gamma, grad_centered_sum * inv_std.reshape(-1))
        mean_grad = (grad_sum / count)[:, None, None, None]
        mean_grad_centered = (grad_centered_sum / count)[:, None, None, None]
        grad_x = centered * (-a * inv_std ** 2 * mean_grad_centered)
        grad_x -= a * mean_grad
        grad_x += grad * a
        _accumulate(x, grad_x)

    return Tensor(out, parents=(x, gamma, beta), backward_fn=backward_fn)


def _oracle_norm(bn, y, training, relu=False):
    """One batch norm layer as its own node, tracking statistics as
    documented: momentum 0.1 in training, none when frozen or evaluating."""
    if bn.frozen or not training:
        return batch_norm_given(y, bn.gamma, bn.beta, bn.running_mean,
                                bn.running_var, bn.EPS, relu)
    out, mu, var = batch_norm_batch(y, bn.gamma, bn.beta, bn.EPS, relu)
    m = bn.MOMENTUM
    bn.running_mean = (1.0 - m) * bn.running_mean + m * mu
    bn.running_var = (1.0 - m) * bn.running_var + m * var
    return out


def oracle_block(block, x, adjacency, training, rng=None):
    """An ST-GCN block on a (C, B, T, V) input as a chain of separate
    autodiff nodes.

    Graph conv, bn1 with ReLU, temporal conv, bn2, dropout (training only),
    then relu(y + shortcut): the chain the fused block must reproduce bit
    for bit. In evaluation, and for a frozen layer, a batch norm uses its
    running statistics.
    """
    y = graph_conv(x, adjacency, block.gcn_weights, block.edge_masks)
    y = _oracle_norm(block.bn1, y, training, relu=True)
    y = temporal_conv(y, block.tcn_kernel, block.stride)
    y = _oracle_norm(block.bn2, y, training)
    if training and block.dropout > 0.0:
        y = dropout(y, block.dropout, rng)
    if block.residual == "none":
        return relu(y)
    shortcut = x
    if block.residual == "project":
        shortcut = x if block.stride == 1 else temporal_subsample(x, block.stride)
        shortcut = _oracle_norm(
            block.res_bn, pointwise_conv(shortcut, block.res_weight), training)
    return add_relu(y, shortcut)


def rewrite_checkpoint(source, target, fmt, extra, meta=None):
    """Copy a checkpoint file with its header's format set to ``fmt``, its
    meta replaced by ``meta`` if given, and the float64 arrays in ``extra``
    (name -> array) appended, following the documented layout: magic, uint64
    header length, JSON header, payload."""
    raw = Path(source).read_bytes()
    start = 16
    end = start + struct.unpack_from("<Q", raw, 8)[0]
    header = json.loads(raw[start:end])
    header["format"] = fmt
    if meta is not None:
        header["meta"] = meta
    payload = raw[end:]
    for name, value in extra.items():
        header["arrays"].append({"name": name, "shape": list(value.shape),
                                 "offset": len(payload)})
        payload += np.asarray(value, dtype="<f8").tobytes()
    blob = json.dumps(header).encode()
    Path(target).write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + payload)


# ---------------------------------------------------------- tracking oracle

def oracle_slot_cost(a, b) -> float:
    """Documented slot distance, written with plain loops."""
    common = (a[:, 2] > 0.0) & (b[:, 2] > 0.0)
    if common.any():
        total = 0.0
        count = 0
        for v in np.nonzero(common)[0]:
            total += math.hypot(a[v, 0] - b[v, 0], a[v, 1] - b[v, 1])
            count += 1
        return total / count
    if not (a[:, 2] > 0.0).any() and not (b[:, 2] > 0.0).any():
        return 0.0
    return 1e6


def oracle_track(data):
    """Frame-by-frame brute force over slot permutations.

    Matches against the most recent frame with any visible joint; strict
    improvement only, so ties keep the earliest permutation (identity
    first in itertools order).
    """
    out = np.array(data, dtype=np.float64, copy=True)
    slots = out.shape[1]
    reference = None
    for t in range(out.shape[0]):
        frame = out[t]
        if reference is not None and slots > 1:
            best_perm = None
            best_cost = None
            for perm in itertools.permutations(range(slots)):
                cost = 0.0
                for s in range(slots):
                    cost += oracle_slot_cost(reference[s], frame[perm[s]])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_perm = perm
            frame = frame[list(best_perm)]
            out[t] = frame
        if (frame[:, :, 2] > 0.0).any():
            reference = frame
    return out


def random_tracking_data(rng, frames=8, slots=2, joints=6):
    """Fuzz input with missing joints, empty slots, and exact duplicates."""
    data = np.zeros((frames, slots, joints, 3))
    for t in range(frames):
        for m in range(slots):
            if rng.random() < 0.15:
                continue
            visible = rng.random(joints) < 0.7
            data[t, m, visible, 0] = rng.uniform(0.0, 640.0, visible.sum())
            data[t, m, visible, 1] = rng.uniform(0.0, 480.0, visible.sum())
            data[t, m, visible, 2] = rng.uniform(0.05, 1.0, visible.sum())
        if slots > 1 and rng.random() < 0.1:
            data[t, 1] = data[t, 0]
    return data


# ------------------------------------------------- high-precision statistics

def mp_pearson(x, y) -> float:
    xs = [mp.mpf(float(v)) for v in x]
    ys = [mp.mpf(float(v)) for v in y]
    n = len(xs)
    mx = mp.fsum(xs) / n
    my = mp.fsum(ys) / n
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    num = mp.fsum(a * b for a, b in zip(dx, dy))
    den = mp.sqrt(mp.fsum(a * a for a in dx)) * mp.sqrt(mp.fsum(b * b for b in dy))
    return float(num / den)


def mp_midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def mp_spearman(x, y) -> float:
    return mp_pearson(mp_midranks(list(x)), mp_midranks(list(y)))


def mp_interval(samples, level=0.95):
    """(mean, lower, upper) via the two-sided normal quantile."""
    xs = [mp.mpf(float(v)) for v in samples]
    n = len(xs)
    mean = mp.fsum(xs) / n
    var = mp.fsum((v - mean) ** 2 for v in xs) / n
    z = mp.sqrt(2) * mp.erfinv(mp.mpf(float(level)))
    half = z * mp.sqrt(var) / mp.sqrt(n)
    return float(mean), float(mean - half), float(mean + half)


def mp_five_numbers(samples):
    """(min, q1, median, q3, max) with linear quartile interpolation."""
    xs = sorted(mp.mpf(float(v)) for v in samples)
    n = len(xs)

    def quantile(p):
        pos = mp.mpf(p) * (n - 1)
        lo = int(mp.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return float(xs[lo] + (xs[hi] - xs[lo]) * frac)

    return (
        float(xs[0]),
        quantile("0.25"),
        quantile("0.5"),
        quantile("0.75"),
        float(xs[-1]),
    )


# ------------------------------------------------- small-sample statistics
# Checked against the mpmath references above by acceptance 7; the
# package itself reports no interval or quartiles.

@dataclass(frozen=True)
class ConfidenceInterval:
    mean: float
    lower: float
    upper: float
    level: float


def confidence_interval(samples, level: float = 0.95) -> ConfidenceInterval:
    """Gaussian-approximation interval for the mean.

    Uses the population standard deviation and the two-sided normal
    quantile for ``level``, i.e. mean +- z * sd / sqrt(n).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2:
        raise ConfigurationError("samples must be a 1D array of at least 2 values")
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    mean = float(samples.mean())
    sd = float(samples.std(ddof=0))
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * sd / np.sqrt(samples.size)
    return ConfidenceInterval(mean, mean - half, mean + half, level)


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def five_number_summary(samples) -> FiveNumberSummary:
    """Min, quartiles (linear interpolation), and max."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ConfigurationError("samples must be a non-empty 1D array")
    q1, median, q3 = np.percentile(samples, [25.0, 50.0, 75.0])
    return FiveNumberSummary(
        float(samples.min()), float(q1), float(median), float(q3),
        float(samples.max()),
    )

