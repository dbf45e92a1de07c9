"""Keypoint file parsing, serialization, and layout index maps."""
import json

import numpy as np
import pytest

from skelact import (
    BODY25,
    BODY25_JOINT_NAMES,
    BODY25_NO_FEET,
    BODY25_NO_FEET_JOINT_NAMES,
    BODY25_TO_COCO,
    COCO18,
    COCO18_JOINT_NAMES,
    COCO18_MODIFIED,
    KeypointParseError,
    LAYOUT_JOINT_COUNT,
    LayoutMismatchError,
    PersonSkeleton,
    parse_keypoint_frame,
    serialize_keypoint_frame,
)
from helpers import frame_bytes


def indexed_person(joints):
    """Joint v sits at (v, 100 + v) with confidence (v + 1) / (V + 1)."""
    flat = []
    for v in range(joints):
        flat.extend([float(v), 100.0 + v, (v + 1) / (joints + 1)])
    return flat


def test_layout_tables_are_consistent():
    assert LAYOUT_JOINT_COUNT[COCO18] == len(COCO18_JOINT_NAMES) == 18
    assert LAYOUT_JOINT_COUNT[BODY25] == len(BODY25_JOINT_NAMES) == 25
    assert LAYOUT_JOINT_COUNT[BODY25_NO_FEET] == len(BODY25_NO_FEET_JOINT_NAMES) == 19
    assert LAYOUT_JOINT_COUNT[COCO18_MODIFIED] == 18
    assert BODY25_NO_FEET_JOINT_NAMES == BODY25_JOINT_NAMES[:19]


def test_index_map_matches_joint_names():
    # The 25-joint layout renames nothing, so each mapped index must point
    # at the joint with the same name.
    assert len(BODY25_TO_COCO) == 18
    for coco_index, body_index in enumerate(BODY25_TO_COCO):
        assert BODY25_JOINT_NAMES[body_index] == COCO18_JOINT_NAMES[coco_index]
    assert "mid_hip" not in [BODY25_JOINT_NAMES[i] for i in BODY25_TO_COCO]


def test_parse_single_person_values():
    flat = indexed_person(18)
    persons = parse_keypoint_frame(frame_bytes([flat]), COCO18)
    assert len(persons) == 1
    person = persons[0]
    assert person.layout == COCO18
    assert person.joints.shape == (18, 3)
    for v in range(18):
        assert person.joints[v, 0] == v
        assert person.joints[v, 1] == 100.0 + v
    assert person.joint(3).x == 3.0


def test_parse_keeps_people_in_file_order():
    first = indexed_person(18)
    second = [v + 1000.0 if i % 3 == 0 else v for i, v in enumerate(indexed_person(18))]
    second = [min(v, 1.0) if i % 3 == 2 else v for i, v in enumerate(second)]
    persons = parse_keypoint_frame(frame_bytes([first, second]), COCO18)
    assert persons[0].joints[0, 0] == 0.0
    assert persons[1].joints[0, 0] == 1000.0


def test_parse_empty_people_list():
    assert parse_keypoint_frame(frame_bytes([]), COCO18) == []


def test_round_trip_through_serializer():
    rng = np.random.default_rng(3)
    flat = [
        float(v) for _ in range(25)
        for v in (rng.uniform(0, 640), rng.uniform(0, 480), rng.uniform(0, 1))
    ]
    persons = parse_keypoint_frame(frame_bytes([flat]), BODY25)
    again = parse_keypoint_frame(serialize_keypoint_frame(persons), BODY25)
    assert np.array_equal(persons[0].joints, again[0].joints)


def test_parse_rejects_bad_utf8_with_offset():
    data = b'{"people": \xff[]}'
    with pytest.raises(KeypointParseError) as info:
        parse_keypoint_frame(data, COCO18)
    assert info.value.offset == data.index(b"\xff")
    assert "byte offset" in str(info.value)


def test_parse_rejects_bad_json_with_offset():
    data = b'{"people": [}'
    with pytest.raises(KeypointParseError) as info:
        parse_keypoint_frame(data, COCO18)
    assert info.value.offset == 12


def test_parse_rejects_non_object_documents():
    for payload in (b"[]", b'"people"', b'{"persons": []}', b'{"people": 3}'):
        with pytest.raises(KeypointParseError):
            parse_keypoint_frame(payload, COCO18)


def test_parse_rejects_malformed_person_entries():
    with pytest.raises(KeypointParseError):
        parse_keypoint_frame(b'{"people": [{}]}', COCO18)
    doc = {"people": [{"pose_keypoints_2d": "not a list"}]}
    with pytest.raises(KeypointParseError):
        parse_keypoint_frame(json.dumps(doc).encode(), COCO18)
    doc = {"people": [{"pose_keypoints_2d": [True] * 54}]}
    with pytest.raises(KeypointParseError):
        parse_keypoint_frame(json.dumps(doc).encode(), COCO18)


def test_parse_rejects_wrong_value_count():
    flat = indexed_person(18)[:-3]
    with pytest.raises(LayoutMismatchError):
        parse_keypoint_frame(frame_bytes([flat]), COCO18)
    # A 25-joint person is not a valid 18-joint frame and vice versa.
    with pytest.raises(LayoutMismatchError):
        parse_keypoint_frame(frame_bytes([indexed_person(25)]), COCO18)
    with pytest.raises(LayoutMismatchError):
        parse_keypoint_frame(frame_bytes([indexed_person(18)]), BODY25)


def test_parse_rejects_out_of_range_confidence():
    flat = indexed_person(18)
    flat[3 * 7 + 2] = 1.5
    with pytest.raises(KeypointParseError) as info:
        parse_keypoint_frame(frame_bytes([flat]), COCO18)
    assert "person 0" in str(info.value)
    assert "joint 7" in str(info.value)
    flat[3 * 7 + 2] = -0.1
    with pytest.raises(KeypointParseError):
        parse_keypoint_frame(frame_bytes([flat]), COCO18)


def test_parse_rejects_non_finite_values():
    for column, value in ((0, float("nan")), (1, float("inf")),
                          (2, float("nan")), (0, float("-inf"))):
        flat = indexed_person(18)
        flat[3 * 5 + column] = value
        with pytest.raises(KeypointParseError) as info:
            parse_keypoint_frame(frame_bytes([indexed_person(18), flat]), COCO18)
        assert "person 1" in str(info.value)
        assert "joint 5" in str(info.value)


def test_parse_rejects_unknown_layout():
    with pytest.raises(LayoutMismatchError):
        parse_keypoint_frame(frame_bytes([]), "coco18")


def test_zero_triplet_means_missing():
    flat = indexed_person(18)
    flat[0:3] = [0.0, 0.0, 0.0]
    person = parse_keypoint_frame(frame_bytes([flat]), COCO18)[0]
    mask = person.visible_mask()
    assert not mask[0]
    assert mask[1:].all()
    assert not person.joint(0).visible
    assert not person.is_empty()


def test_mean_confidence_ignores_missing_joints():
    joints = np.zeros((18, 3))
    joints[2] = (5.0, 5.0, 0.4)
    joints[3] = (6.0, 6.0, 0.8)
    person = PersonSkeleton(joints, COCO18)
    assert person.mean_confidence() == pytest.approx(0.6)
    empty = PersonSkeleton(np.zeros((18, 3)), COCO18)
    assert empty.mean_confidence() == 0.0
    assert empty.is_empty()


def test_person_skeleton_validates_shape_and_layout():
    with pytest.raises(LayoutMismatchError):
        PersonSkeleton(np.zeros((17, 3)), COCO18)
    with pytest.raises(LayoutMismatchError):
        PersonSkeleton(np.zeros((18, 3)), "mystery")

