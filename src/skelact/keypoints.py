"""Parsing of per-frame 2D pose keypoint files and skeleton layout tables.

A keypoint file is the JSON produced per video frame by common 2D pose
estimators: a top-level ``people`` list where each entry carries a flat
``pose_keypoints_2d`` array of ``3 * V`` numbers laid out as
``(x, y, confidence)`` triples. A joint that was not detected is encoded
exactly as ``(0.0, 0.0, 0.0)``.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError, KeypointParseError, LayoutMismatchError

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


def check_layout(layout) -> None:
    """Reject an unknown layout tag as a configuration error naming ``layout``."""
    if layout not in LAYOUT_JOINT_COUNT:
        raise ConfigurationError(f"layout: unknown skeleton layout {layout!r}")


def layout_joint_count(layout: str) -> int:
    """Joint count of a named layout; ``check_layout`` rejects an unknown one."""
    check_layout(layout)
    return LAYOUT_JOINT_COUNT[layout]


# For each COCO-18 joint, the index of the same-named joint in the 25-joint
# layout. Mid-hip and the foot joints have no COCO counterpart and are
# dropped.
BODY25_TO_COCO = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)


# The one value type a keypoint list may hold: every JSON number is read as
# a float (see _int_as_float), and ``true``/``false`` stay ``bool``.
_NUMBER_TYPES = {float}


def _int_as_float(literal: str) -> float:
    """Read a JSON integer as float64.

    A literal too large for float64 becomes ``inf``, which the value check
    then rejects, instead of an OverflowError (or, past 4,300 digits, a
    ValueError inside the JSON decoder). Adding 0.0 maps ``-0`` to 0.0, as
    converting the integer would.
    """
    return float(literal) + 0.0


_DECODER = json.JSONDecoder(parse_int=_int_as_float)

# Per-channel bounds of a valid (x, y, confidence) triple. NaN fails every
# comparison, and only inf lies beyond the largest finite float.
_LARGEST = np.finfo(np.float64).max
_LOW = np.array([-_LARGEST, -_LARGEST, 0.0])
_HIGH = np.array([_LARGEST, _LARGEST, 1.0])


def _check_values(people: np.ndarray) -> None:
    """Reject the first joint, in file order, with a non-finite value or a
    confidence outside [0, 1]."""
    valid = (people >= _LOW) & (people <= _HIGH)
    if not valid.all():
        person, joint = np.argwhere(~valid.all(axis=2))[0]
        raise KeypointParseError(
            f"person {person}, joint {joint}: needs finite values and a "
            f"confidence in [0, 1]"
        )


def parse_keypoint_frame(data: bytes, layout: str) -> np.ndarray:
    """Parse one per-frame keypoint file into a ``(P, V, 3)`` float array.

    Rows are people in file order; columns are ``(x, y, confidence)`` per
    joint in the layout's published order. An empty ``people`` list gives
    shape ``(0, V, 3)``. Raises KeypointParseError for malformed UTF-8 or
    JSON (with the byte offset of the fault), non-finite values (an integer literal too large for
    float64 counts as one) or out-of-range confidences, and
    LayoutMismatchError when a person's value count disagrees with the
    declared layout. The error names the first faulty person in file order.
    """
    joint_count = layout_joint_count(layout)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeypointParseError("file is not valid UTF-8", offset=exc.start) from exc
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise KeypointParseError(exc.msg, offset=exc.pos) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("people"), list):
        raise KeypointParseError("expected a JSON object with a 'people' list")

    rows = []
    try:
        for index, entry in enumerate(doc["people"]):
            if not isinstance(entry, dict) or "pose_keypoints_2d" not in entry:
                raise KeypointParseError(f"person {index} lacks 'pose_keypoints_2d'")
            flat = entry["pose_keypoints_2d"]
            if not isinstance(flat, list) or not set(map(type, flat)) <= _NUMBER_TYPES:
                raise KeypointParseError(
                    f"person {index}: 'pose_keypoints_2d' must be a flat number list"
                )
            if len(flat) != 3 * joint_count:
                raise LayoutMismatchError(
                    f"person {index}: layout {layout} expects {3 * joint_count} "
                    f"values, got {len(flat)}"
                )
            rows.append(flat)
    except (KeypointParseError, LayoutMismatchError):
        # A bad value in an earlier person is the first fault in file order.
        _check_values(np.array(rows, dtype=np.float64).reshape(-1, joint_count, 3))
        raise
    people = np.array(rows, dtype=np.float64).reshape(-1, joint_count, 3)
    _check_values(people)
    return people
