"""Sequence preprocessing and training-time augmentation.

All transforms take and return SkeletonSequence values and never mutate
their input. Randomized transforms draw from a generator passed by the
caller, in a documented fixed order, so a run is reproducible from its
seed alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import check_count, check_fraction, check_non_negative
from .errors import ConfigurationError, WindowError
from .sequence import SkeletonSequence

# Slot distance assigned when two non-empty skeletons share no visible
# joint. Large enough to lose against any plausible pixel distance.
MISMATCH_COST = 1e6


def select_persons(frames: list[np.ndarray], slots: int) -> np.ndarray:
    """Keep the ``slots`` most confident people of every frame.

    ``frames`` holds one ``(P, V, 3)`` array per frame, people in detector
    order, as ``parse_keypoint_frame`` returns them. Ranking is by mean
    confidence over visible joints, descending, 0.0 for a person with none;
    the sort is stable, so equally confident people keep their detector
    order. Unused slots stay all-zero. Returns an array of shape
    ``(T, slots, V, 3)``.
    """
    check_count("person_slots", slots)
    shape_error = "frames: need (P, V, 3) arrays with one joint count V"
    try:
        people = np.concatenate(frames)
    except ValueError as exc:
        raise ConfigurationError(shape_error) from exc
    if people.ndim != 3 or people.shape[2] != 3:
        raise ConfigurationError(shape_error)
    counts = np.array([len(frame) for frame in frames])
    frame_of = np.repeat(np.arange(len(frames)), counts)
    conf = people[:, :, 2]
    visible = conf > 0.0
    # Summed joint by joint, so people whose visible confidences are equal
    # in order get equal scores, wherever the hidden joints sit.
    total = np.zeros(len(people))
    for v in range(conf.shape[1]):
        total += np.where(visible[:, v], conf[:, v], 0.0)
    score = total / np.maximum(visible.sum(axis=1), 1)
    order = np.lexsort((-score, frame_of))
    rank = np.arange(len(people)) - (np.cumsum(counts) - counts)[frame_of]
    keep = rank < slots
    out = np.zeros((len(frames), slots) + people.shape[1:])
    out[frame_of[keep], rank[keep]] = people[order[keep]]
    return out


def _slot_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two (V, 3) skeletons for slot matching.

    Mean Euclidean distance over joints visible in both. Two empty
    skeletons match at distance zero; a pair with no commonly visible
    joint gets MISMATCH_COST.
    """
    visible_a = a[:, 2] > 0.0
    visible_b = b[:, 2] > 0.0
    common = visible_a & visible_b
    if common.any():
        deltas = a[common, :2] - b[common, :2]
        return float(np.sqrt((deltas ** 2).sum(axis=1)).mean())
    if not visible_a.any() and not visible_b.any():
        return 0.0
    return MISMATCH_COST


def track(seq: SkeletonSequence) -> SkeletonSequence:
    """Stabilize person-slot assignment over time.

    Each frame is matched against the most recent frame that had any
    visible joint: every slot permutation is scored by the summed slot
    distance to that reference and the cheapest one is applied. Ties keep
    the identity assignment (comparison is strict), so an already
    consistent sequence passes through unchanged. Frames with no visible
    joints are skipped as references. Cost is exact and exhaustive,
    factorial in the number of slots, which is fine for the usual one or
    two. A one-slot sequence has nothing to match and comes back as a copy.
    """
    data = seq.data.copy()
    slots = seq.person_slots
    if slots == 1:
        return seq.replace_data(data)
    reference: np.ndarray | None = None
    permutations = list(itertools.permutations(range(slots)))
    for t in range(seq.frame_count):
        frame = data[t]
        if reference is not None:
            best = None
            best_cost = np.inf
            for perm in permutations:
                cost = sum(
                    _slot_distance(reference[s], frame[perm[s]])
                    for s in range(slots)
                )
                if cost < best_cost:
                    best_cost = cost
                    best = perm
            frame = frame[list(best)]
            data[t] = frame
        if bool((frame[:, :, 2] > 0.0).any()):
            reference = frame
    return seq.replace_data(data)


def normalize_centralize(seq: SkeletonSequence) -> SkeletonSequence:
    """Scale pixel coordinates into [0, 1] and center them on the frame.

    ``x`` is divided by the sequence's image width and ``y`` by its
    height, then 0.5 is subtracted from both, so coordinates inside the
    frame land in [-0.5, 0.5]. Only visible joints are touched; missing joints stay
    exactly (0, 0, 0). Confidences are unchanged.
    """
    width, height = seq.image_size
    if width <= 0 or height <= 0:
        raise ConfigurationError(
            f"image_size: needs positive width and height, got {seq.image_size}"
        )
    data = seq.data.copy()
    visible = data[..., 2] > 0.0
    data[..., 0] = np.where(visible, data[..., 0] / width - 0.5, data[..., 0])
    data[..., 1] = np.where(visible, data[..., 1] / height - 0.5, data[..., 1])
    return seq.replace_data(data)


def pad_sequence(seq: SkeletonSequence, target_frames: int) -> SkeletonSequence:
    """Bring the sequence to exactly target_frames frames.

    Shorter sequences get all-zero frames appended; longer ones lose their
    tail.
    """
    check_count("target_frames", target_frames)
    if target_frames <= seq.frame_count:
        return seq.replace_data(seq.data[:target_frames].copy())
    tail = np.zeros(
        (target_frames - seq.frame_count,) + seq.data.shape[1:]
    )
    return seq.replace_data(np.concatenate([seq.data, tail], axis=0))


PAD_POSITIONS = ("tail", "head")


def _check_pad_position(pad_position) -> None:
    """Reject a window pad position; the message names AugmentConfig's field."""
    if pad_position not in PAD_POSITIONS:
        raise ConfigurationError(
            f"window_pad_position: expected one of {PAD_POSITIONS}, got {pad_position!r}"
        )


def random_frame_window(
    seq: SkeletonSequence,
    window: int,
    rng: np.random.Generator,
    pad_position: str = "tail",
) -> SkeletonSequence:
    """Keep a random contiguous window of ``window`` frames, zero the rest.

    The start frame is uniform over all valid positions and the output
    keeps the input's length: the window is moved to the front and the
    remainder zero-padded (or to the back with ``pad_position="head"``).
    """
    total = seq.frame_count
    _check_pad_position(pad_position)
    check_count("window_size", window, WindowError)
    if window > total:
        raise WindowError(f"window_size: must not exceed {total} frames, got {window}")
    start = int(rng.integers(0, total - window + 1))
    data = np.zeros_like(seq.data)
    offset = 0 if pad_position == "tail" else total - window
    data[offset:offset + window] = seq.data[start:start + window]
    return seq.replace_data(data)


@dataclass
class MoveParams:
    """Bounds for the simulated camera movement, checked when built.

    The rotation angle is drawn from [-rotation, rotation] radians, the
    scale factor from [scale_min, scale_max] (one factor for both axes),
    and each translation component from [-translation, translation] in
    normalized coordinates. Parameters are drawn at ``anchors`` evenly
    spaced frames and linearly interpolated in between, which makes the
    camera drift smoothly instead of jittering.
    """

    rotation: float = np.pi / 18.0
    scale_min: float = 0.9
    scale_max: float = 1.1
    translation: float = 0.1
    anchors: int = 3

    def __post_init__(self):
        check_non_negative("rotation", self.rotation)
        if not 0.0 < self.scale_min <= self.scale_max:
            raise ConfigurationError("scale_min: needs 0 < scale_min <= scale_max")
        check_non_negative("translation", self.translation)
        check_count("anchors", self.anchors)


def random_move(
    seq: SkeletonSequence, params: MoveParams, rng: np.random.Generator
) -> SkeletonSequence:
    """Apply a smoothly interpolated random rotation, scale and shift.

    Draw order is fixed: angles, then scales, then x shifts, then y
    shifts, each as one batch of ``anchors`` values. Visible joints are
    mapped through ``p' = s R p + t``; missing joints stay exactly zero.
    With zero-width parameter ranges the transform is the identity bit for
    bit.
    """
    anchors = params.anchors
    ranges = ((-params.rotation, params.rotation),
              (params.scale_min, params.scale_max),
              (-params.translation, params.translation),
              (-params.translation, params.translation))
    draws = [rng.uniform(low, high, anchors) for low, high in ranges]

    total = seq.frame_count
    if anchors == 1 or total == 1:
        per_frame = [np.full(total, values[0]) for values in draws]
    else:
        positions = np.linspace(0.0, max(total - 1, 0), anchors)
        frames = np.arange(total, dtype=np.float64)
        per_frame = [np.interp(frames, positions, values) for values in draws]
    frame_angles, frame_scales, frame_sx, frame_sy = per_frame

    cos = np.cos(frame_angles)
    sin = np.sin(frame_angles)
    # Per-frame linear map, scale folded into the rotation matrix.
    matrices = np.empty((total, 2, 2))
    matrices[:, 0, 0] = frame_scales * cos
    matrices[:, 0, 1] = -frame_scales * sin
    matrices[:, 1, 0] = frame_scales * sin
    matrices[:, 1, 1] = frame_scales * cos
    shifts = np.stack([frame_sx, frame_sy], axis=1)

    data = seq.data.copy()
    xy = data[..., :2]
    moved = np.einsum("tij,tmvj->tmvi", matrices, xy) + shifts[:, None, None, :]
    visible = data[..., 2:3] > 0.0
    data[..., :2] = np.where(visible, moved, xy)
    return seq.replace_data(data)


def subsample_frames(
    seq: SkeletonSequence, drop_rate: float, rng: np.random.Generator
) -> SkeletonSequence:
    """Drop each frame independently with probability drop_rate.

    Survivors are packed to the front in order; the tail is filled with
    empty frames so the length never changes. A drop rate of zero keeps
    the sequence identical.
    """
    check_fraction("drop_rate", drop_rate)
    keep = rng.random(seq.frame_count) >= drop_rate
    data = np.zeros_like(seq.data)
    survivors = seq.data[keep]
    data[:survivors.shape[0]] = survivors
    return seq.replace_data(data)


@dataclass
class AugmentConfig:
    """Which augmentations to apply during training, with their settings,
    checked when built."""

    window: bool = False
    window_size: int = 150
    window_pad_position: str = "tail"
    move: bool = False
    move_params: MoveParams = field(default_factory=MoveParams)
    subsample: bool = False
    drop_rate: float = 0.0

    def __post_init__(self):
        check_count("window_size", self.window_size)
        _check_pad_position(self.window_pad_position)
        check_fraction("drop_rate", self.drop_rate)

    def enabled(self) -> bool:
        return self.window or self.move or self.subsample


def split_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from one parent.

    One batch of seeds is drawn from the parent, so sibling streams never
    overlap and the derivation itself is reproducible.
    """
    seeds = rng.integers(0, 2 ** 63, size=count, dtype=np.uint64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def augment_combined(
    seq: SkeletonSequence,
    config: AugmentConfig,
    rng: np.random.Generator,
) -> SkeletonSequence:
    """Apply the configured augmentations in their fixed order.

    Order is window cut, camera move, frame subsampling. Each stage owns
    one child generator derived from ``rng`` whether or not the stage is
    enabled, so enabling one stage never shifts the draws of another.
    With everything disabled, the input is returned unchanged (as a copy).
    """
    if not config.enabled():
        return seq.copy()
    window_rng, move_rng, subsample_rng = split_rng(rng, 3)
    out = seq
    if config.window:
        out = random_frame_window(
            out, config.window_size, window_rng,
            pad_position=config.window_pad_position,
        )
    if config.move:
        out = random_move(out, config.move_params, move_rng)
    if config.subsample:
        out = subsample_frames(out, config.drop_rate, subsample_rng)
    return out
