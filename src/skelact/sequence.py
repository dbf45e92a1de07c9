"""The in-memory skeleton sequence type and its loader.

A sequence is a dense float64 array of shape ``(T, M, V, 3)``: frames,
person slots, joints, and the channels ``(x, y, confidence)``. Frames
without a detection for some slot hold all-zero joints there; a missing
joint is ``(0, 0, 0)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, EmptySequenceError, LayoutMismatchError
from .keypoints import (
    BODY25,
    BODY25_NO_FEET,
    BODY25_TO_COCO,
    COCO18,
    COCO18_MODIFIED,
    LAYOUT_JOINT_COUNT,
    layout_joint_count,
    parse_keypoint_frame,
)


@dataclass
class SkeletonSequence:
    """A fixed-slot multi-person keypoint sequence."""

    data: np.ndarray
    layout: str
    image_size: tuple[int, int] = (0, 0)
    fps: float = 30.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4 or self.data.shape[-1] != 3:
            raise LayoutMismatchError(
                f"sequence data must have shape (T, M, V, 3), got {self.data.shape}"
            )
        if self.layout in LAYOUT_JOINT_COUNT:
            expected = LAYOUT_JOINT_COUNT[self.layout]
            if self.data.shape[2] != expected:
                raise LayoutMismatchError(
                    f"layout {self.layout} expects {expected} joints, "
                    f"got {self.data.shape[2]}"
                )

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]

    @property
    def person_slots(self) -> int:
        return self.data.shape[1]

    @property
    def joint_count(self) -> int:
        return self.data.shape[2]

    def visible_mask(self) -> np.ndarray:
        """Boolean array (T, M, V): joints with nonzero confidence."""
        return self.data[..., 2] > 0.0

    def copy(self) -> "SkeletonSequence":
        return SkeletonSequence(
            self.data.copy(), self.layout, tuple(self.image_size), self.fps
        )

    def replace_data(self, data: np.ndarray) -> "SkeletonSequence":
        """New sequence with the same metadata but different frames."""
        return SkeletonSequence(data, self.layout, tuple(self.image_size), self.fps)


# Data-compatible source layout per graph layout. The modified 18-joint
# graph runs on plain COCO joint data; only the edges differ.
_DATA_LAYOUT = {COCO18_MODIFIED: COCO18}


# Joint indices, in target order, for each supported (source, target) pair.
_CONVERSIONS = {
    (BODY25, COCO18): BODY25_TO_COCO,
    (BODY25, BODY25_NO_FEET): tuple(range(LAYOUT_JOINT_COUNT[BODY25_NO_FEET])),
}


def convert_layout(seq: SkeletonSequence, target: str) -> SkeletonSequence:
    """Re-index a sequence's joints to a data-compatible target layout."""
    target = _DATA_LAYOUT.get(target, target)
    if _DATA_LAYOUT.get(seq.layout, seq.layout) == target:
        out = seq.copy()
        out.layout = target
        return out
    joints = _CONVERSIONS.get((seq.layout, target))
    if joints is None:
        raise LayoutMismatchError(
            f"no conversion from layout {seq.layout} to {target}"
        )
    return SkeletonSequence(
        seq.data[:, :, list(joints), :].copy(), target,
        tuple(seq.image_size), seq.fps,
    )


def to_model_input(seq: SkeletonSequence) -> np.ndarray:
    """Rearrange (T, M, V, 3) into the network input layout (3, T, V, M)."""
    return np.ascontiguousarray(seq.data.transpose(3, 0, 2, 1))


def load_sequence(
    source,
    layout: str,
    person_slots: int = 2,
    target_frames: int = 300,
    image_size: tuple[int, int] = (0, 0),
    fps: float = 30.0,
) -> SkeletonSequence:
    """Load one sample's keypoint files into a sequence.

    ``source`` is a directory of per-frame ``.json`` files, or any object
    with ``keypoint_path``, ``image_size``, and ``fps`` attributes (a
    manifest record), in which case those fields override the arguments.
    Frame order is the lexicographic order of the file names, so frame
    numbers in names must be zero padded. Each frame keeps at most
    ``person_slots`` people, the most confident first; the sequence is then
    zero padded or tail truncated to exactly ``target_frames``. Frames
    whose joint count disagrees with ``layout`` raise LayoutMismatchError.
    """
    from .pipeline import pad_sequence, select_persons

    if hasattr(source, "keypoint_path"):
        image_size = tuple(source.image_size)
        fps = source.fps
        source = source.keypoint_path
    if person_slots < 1:
        raise ConfigurationError("person_slots: must be at least 1")
    directory = Path(source)
    if not directory.is_dir():
        raise EmptySequenceError(f"{directory} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    if not paths:
        raise EmptySequenceError(f"{directory} holds no keypoint files")

    joint_count = layout_joint_count(layout)
    frames = np.zeros((len(paths), person_slots, joint_count, 3))
    for t, path in enumerate(paths):
        persons = parse_keypoint_frame(path.read_bytes(), layout)
        frames[t] = select_persons(persons, person_slots, joint_count)

    seq = SkeletonSequence(frames, layout, image_size, fps)
    if target_frames != seq.frame_count:
        seq = pad_sequence(seq, target_frames)
    return seq
