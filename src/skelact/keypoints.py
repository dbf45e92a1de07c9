"""Parsing of per-frame 2D pose keypoint files and skeleton layout tables.

A keypoint file is the JSON produced per video frame by common 2D pose
estimators: a top-level ``people`` list where each entry carries a flat
``pose_keypoints_2d`` array of ``3 * V`` numbers laid out as
``(x, y, confidence)`` triples. A joint that was not detected is encoded
exactly as ``(0.0, 0.0, 0.0)``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import KeypointParseError, LayoutMismatchError

COCO18 = "COCO18"
BODY25 = "BODY25"
BODY25_NO_FEET = "BODY25_NO_FEET"
COCO18_MODIFIED = "COCO18_MODIFIED"

COCO18_JOINT_NAMES = (
    "nose", "neck",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_hip", "right_knee", "right_ankle",
    "left_hip", "left_knee", "left_ankle",
    "right_eye", "left_eye", "right_ear", "left_ear",
)

BODY25_JOINT_NAMES = (
    "nose", "neck",
    "right_shoulder", "right_elbow", "right_wrist",
    "left_shoulder", "left_elbow", "left_wrist",
    "mid_hip",
    "right_hip", "right_knee", "right_ankle",
    "left_hip", "left_knee", "left_ankle",
    "right_eye", "left_eye", "right_ear", "left_ear",
    "left_big_toe", "left_small_toe", "left_heel",
    "right_big_toe", "right_small_toe", "right_heel",
)

# The 19-joint body layout is the 25-joint one with the six foot joints cut.
BODY25_NO_FEET_JOINT_NAMES = BODY25_JOINT_NAMES[:19]

# Joint counts per layout tag. The modified 18-joint layout shares the COCO
# joint order; only its edge structure differs.
LAYOUT_JOINT_COUNT = {
    COCO18: len(COCO18_JOINT_NAMES),
    BODY25: len(BODY25_JOINT_NAMES),
    BODY25_NO_FEET: len(BODY25_NO_FEET_JOINT_NAMES),
    COCO18_MODIFIED: len(COCO18_JOINT_NAMES),
}


def layout_joint_count(layout: str) -> int:
    """Joint count of a named layout; LayoutMismatchError if it is unknown."""
    if layout not in LAYOUT_JOINT_COUNT:
        raise LayoutMismatchError(f"unknown skeleton layout {layout!r}")
    return LAYOUT_JOINT_COUNT[layout]


# For each COCO-18 joint, the index of the same-named joint in the 25-joint
# layout. Mid-hip and the foot joints have no COCO counterpart and are
# dropped.
BODY25_TO_COCO = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)


class Joint(NamedTuple):
    """One 2D keypoint with its detector confidence."""

    x: float
    y: float
    c: float

    @property
    def visible(self) -> bool:
        return self.c > 0.0


@dataclass
class PersonSkeleton:
    """All joints of one detected person as a ``(V, 3)`` float array.

    Columns are ``(x, y, confidence)``. The row order follows the layout's
    published joint order.
    """

    joints: np.ndarray
    layout: str

    def __post_init__(self):
        expected = layout_joint_count(self.layout)
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.shape != (expected, 3):
            raise LayoutMismatchError(
                f"layout {self.layout} expects joint array of shape "
                f"({expected}, 3), got {self.joints.shape}"
            )

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]

    def joint(self, index: int) -> Joint:
        x, y, c = self.joints[index]
        return Joint(float(x), float(y), float(c))

    def visible_mask(self) -> np.ndarray:
        """Boolean mask over joints with nonzero detector confidence."""
        return self.joints[:, 2] > 0.0

    def is_empty(self) -> bool:
        return not bool(self.visible_mask().any())

    def mean_confidence(self) -> float:
        """Mean confidence over visible joints; 0.0 when none are visible."""
        conf = self.joints[:, 2]
        mask = conf > 0.0
        if not mask.any():
            return 0.0
        return float(conf[mask].mean())


def parse_keypoint_frame(data: bytes, layout: str) -> list[PersonSkeleton]:
    """Parse one per-frame keypoint file into a list of person skeletons.

    Raises KeypointParseError (with a byte offset) for malformed JSON,
    non-finite values or out-of-range confidences, and LayoutMismatchError
    when a person's value count disagrees with the declared layout. An
    empty ``people`` list is valid and yields an empty list. People keep
    their file order.
    """
    joint_count = layout_joint_count(layout)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeypointParseError("file is not valid UTF-8", offset=exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KeypointParseError(exc.msg, offset=exc.pos) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("people"), list):
        raise KeypointParseError("expected a JSON object with a 'people' list")

    persons = []
    for index, entry in enumerate(doc["people"]):
        if not isinstance(entry, dict) or "pose_keypoints_2d" not in entry:
            raise KeypointParseError(f"person {index} lacks 'pose_keypoints_2d'")
        flat = entry["pose_keypoints_2d"]
        if not isinstance(flat, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in flat
        ):
            raise KeypointParseError(
                f"person {index}: 'pose_keypoints_2d' must be a flat number list"
            )
        if len(flat) != 3 * joint_count:
            raise LayoutMismatchError(
                f"person {index}: layout {layout} expects {3 * joint_count} "
                f"values, got {len(flat)}"
            )
        joints = np.asarray(flat, dtype=np.float64).reshape(joint_count, 3)
        conf = joints[:, 2]
        valid = np.isfinite(joints).all(axis=1) & (conf >= 0.0) & (conf <= 1.0)
        if not valid.all():
            bad = int(np.nonzero(~valid)[0][0])
            raise KeypointParseError(
                f"person {index}, joint {bad}: needs finite values and a "
                f"confidence in [0, 1]"
            )
        persons.append(PersonSkeleton(joints, layout))
    return persons


def serialize_keypoint_frame(persons: list[PersonSkeleton]) -> bytes:
    """Inverse of parse_keypoint_frame, used to write fixtures and exports."""
    people = []
    for person in persons:
        flat = [float(v) for v in person.joints.reshape(-1)]
        people.append({"pose_keypoints_2d": flat})
    return json.dumps({"people": people}).encode("utf-8")

