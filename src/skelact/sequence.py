"""The in-memory skeleton sequence type and its loader.

A sequence is a dense float64 array of shape ``(T, M, V, 3)``: frames,
person slots, joints, and the channels ``(x, y, confidence)``. Frames
without a detection for some slot hold all-zero joints there; a missing
joint is ``(0, 0, 0)``.
"""
from __future__ import annotations

import os
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import open_atomic
from .errors import EmptySequenceError, KeypointParseError, LayoutMismatchError
from .keypoints import (
    BODY25,
    BODY25_NO_FEET,
    BODY25_TO_COCO,
    COCO18,
    COCO18_MODIFIED,
    LAYOUT_JOINT_COUNT,
    _check_values,
    layout_joint_count,
    parse_keypoint_frame,
)

# The file that keeps a sample directory's parsed frames (README, Data
# layout), and how much older than a load's start every frame's mtime and
# ctime must be for the load to write it: a frame rewritten within one
# timestamp tick of its read can then never match.
_CACHE_NAME = ".skelact-frames.npz"
_SETTLE_NS = 2_000_000_000


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
    KeypointParseError; both name the file. The parsed frames are kept in
    the directory and reused while every frame file's name and stat match.
    """
    from .pipeline import pad_sequence, select_persons

    directory = Path(directory)
    if not directory.is_dir():
        raise EmptySequenceError(f"{directory} is not a directory")
    # A bare ".json" has no suffix, as in pathlib.
    entries = sorted((entry for entry in os.scandir(directory)
                      if entry.name.endswith(".json") and entry.name != ".json"),
                     key=lambda entry: entry.name)
    if not entries:
        raise EmptySequenceError(f"{directory} holds no keypoint files")

    joint_count = layout_joint_count(layout)
    start = time.time_ns()
    try:
        stats = np.array([(st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
                          for st in (entry.stat() for entry in entries)],
                         dtype=np.int64)
    except OSError:
        stats = None
    cache = os.path.join(directory, _CACHE_NAME)
    key = {"layout": np.array(layout), "stats": stats,
           "names": np.array([entry.name for entry in entries])}
    frames = _read_cache(cache, key, joint_count)
    if frames is None:
        frames = [_load_frame(entry.path, layout) for entry in entries]
        if stats is not None and stats[:, 1:3].max() < start - _SETTLE_NS:
            # A directory that cannot take the file is parsed on every load.
            with suppress(OSError), open_atomic(cache, "wb") as handle:
                np.savez(handle, people=np.concatenate(frames), **key,
                         counts=np.array([len(f) for f in frames], dtype=np.int64))
    seq = SkeletonSequence(select_persons(frames, person_slots), layout, image_size)
    if target_frames != seq.frame_count:
        seq = pad_sequence(seq, target_frames)
    return seq


def _read_cache(path: str, key: dict, joint_count: int) -> list[np.ndarray] | None:
    """The frames kept in ``path`` if it holds ``key``'s arrays and
    well-formed, valid people; None otherwise."""
    try:
        with open(path, "rb") as handle, np.load(handle) as kept:
            if not all(np.array_equal(kept[name], key[name]) for name in key):
                return None
            counts, people = kept["counts"], kept["people"]
        if (counts.dtype != np.int64 or counts.shape != key["stats"].shape[:1]
                or counts.min() < 0 or people.dtype != np.float64
                or people.shape != (counts.sum(), joint_count, 3)):
            return None
        _check_values(people)
        ends = np.cumsum(counts).tolist()
        return [people[a:b] for a, b in zip([0] + ends, ends)]
    except Exception:  # a missing, unreadable or corrupt file is a miss
        return None


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
