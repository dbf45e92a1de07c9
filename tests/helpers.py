"""Shared builders and independent reference implementations.

Everything here is deliberately written from the documented behavior, not
from the package internals, so tests compare two independent derivations.
"""
import itertools
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from skelact import (
    ConfigurationError,
    DatasetManifest,
    ManifestRecord,
    SkeletonGraph,
    SkeletonSequence,
    normalize_centralize,
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
            records.append(ManifestRecord(
                sample_id=sample_id,
                class_name=name,
                performer="child",
                keypoint_path=str(directory),
                image_size=image_size,
            ))
    manifest = DatasetManifest(
        records=records, class_table=list(classes), layout=layout
    )
    path = root / "manifest.json"
    manifest.save(path)
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


def oracle_graph_conv(x, adjacency, weights, masks, bias):
    """Partitioned graph convolution as explicit loops over every index."""
    batch, channels, frames, vertices = x.shape
    out = np.zeros((batch, weights[0].shape[1], frames, vertices))
    for k in range(len(adjacency)):
        gated = adjacency[k] * masks[k]
        for b in range(batch):
            for t in range(frames):
                for w in range(vertices):
                    for v in range(vertices):
                        for c in range(channels):
                            out[b, :, t, w] += x[b, c, t, v] * gated[v, w] * weights[k][c]
    return out if bias is None else out + bias[:, None, None]


def oracle_batch_norm(x, gamma, beta, eps, relu, seed):
    """Training batch norm and its gradients by the textbook chain rule.

    Follows Ioffe & Szegedy (2015), Algorithm 1 and its backward pass,
    through the normalized input, the variance and the mean in turn.
    Returns (out, mean, var, grad_gamma, grad_beta, grad_x) for the output
    gradient ``seed``.
    """
    axes = (0, 2, 3)
    count = x.size // x.shape[1]

    def per_channel(v):
        return v[None, :, None, None]

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

