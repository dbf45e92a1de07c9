"""The in-memory skeleton sequence type and its loader.

A sequence is a dense float64 array of shape ``(T, M, V, 3)``: frames,
person slots, joints, and the channels ``(x, y, confidence)``. Frames
without a detection for some slot hold all-zero joints there; a missing
joint is ``(0, 0, 0)``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptySequenceError, KeypointParseError, LayoutMismatchError
from .keypoints import (
    BODY25,
    BODY25_NO_FEET,
    BODY25_TO_COCO,
    COCO18,
    COCO18_MODIFIED,
    LAYOUT_JOINT_COUNT,
    parse_keypoint_frame,
)


@dataclass
class SkeletonSequence:
    """A fixed-slot multi-person keypoint sequence."""

    data: np.ndarray
    layout: str
    image_size: tuple[int, int] = (0, 0)

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

    def copy(self) -> "SkeletonSequence":
        return self.replace_data(self.data.copy())

    def replace_data(self, data: np.ndarray) -> "SkeletonSequence":
        """New sequence with the same metadata but different frames."""
        return SkeletonSequence(data, self.layout, tuple(self.image_size))


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
        return SkeletonSequence(seq.data.copy(), target, tuple(seq.image_size))
    joints = _CONVERSIONS.get((seq.layout, target))
    if joints is None:
        raise LayoutMismatchError(
            f"no conversion from layout {seq.layout} to {target}"
        )
    return SkeletonSequence(
        seq.data[:, :, list(joints), :].copy(), target, tuple(seq.image_size)
    )


def to_model_input(seq: SkeletonSequence) -> np.ndarray:
    """Rearrange (T, M, V, 3) into the network input layout (3, T, V, M)."""
    return np.ascontiguousarray(seq.data.transpose(3, 0, 2, 1))


def load_sequence(
    directory: str | Path,
    layout: str,
    person_slots: int = 2,
    target_frames: int = 300,
    image_size: tuple[int, int] = (0, 0),
) -> SkeletonSequence:
    """Load a directory of per-frame ``.json`` keypoint files into a sequence.

    Frame order is the lexicographic order of the file names, so frame
    numbers in names must be zero padded. Each frame keeps at most
    ``person_slots`` people, the most confident first; the sequence is then
    zero padded or tail truncated to exactly ``target_frames``. Frames
    whose joint count disagrees with ``layout`` raise LayoutMismatchError,
    and a ``.json`` entry that cannot be read or parsed raises
    KeypointParseError; both name the file.
    """
    from .pipeline import pad_sequence, select_persons

    directory = Path(directory)
    if not directory.is_dir():
        raise EmptySequenceError(f"{directory} is not a directory")
    # A bare ".json" has no suffix, as in pathlib.
    names = sorted(
        entry.name for entry in os.scandir(directory)
        if entry.name.endswith(".json") and entry.name != ".json"
    )
    if not names:
        raise EmptySequenceError(f"{directory} holds no keypoint files")

    frames = [_load_frame(os.path.join(directory, name), layout) for name in names]
    seq = SkeletonSequence(select_persons(frames, person_slots), layout, image_size)
    if target_frames != seq.frame_count:
        seq = pad_sequence(seq, target_frames)
    return seq


def _load_frame(path: str, layout: str) -> np.ndarray:
    """Parse one frame file; a parse error names the file."""
    data = _read_frame(path)
    try:
        return parse_keypoint_frame(data, layout)
    except KeypointParseError as exc:
        raise KeypointParseError(f"{path}: {exc.message}", exc.offset) from exc
    except LayoutMismatchError as exc:
        raise LayoutMismatchError(f"{path}: {exc}") from exc


def _read_frame(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise KeypointParseError(
            f"{path}: cannot read keypoint file ({exc.strerror})"
        ) from exc
