"""Sequence loading, layout conversion, and model-input reshaping."""
import numpy as np
import pytest

from skelact import (
    BODY25,
    BODY25_NO_FEET,
    BODY25_TO_COCO,
    COCO18,
    COCO18_MODIFIED,
    ConfigurationError,
    EmptySequenceError,
    LayoutMismatchError,
    ManifestRecord,
    SkeletonSequence,
    convert_layout,
    load_sequence,
    to_model_input,
)
from helpers import person_flat, write_frames


def coded_frames(frames, joints, slots=2):
    """Frame t carries x = 1000 t + slot so positions identify themselves."""
    payload = []
    for t in range(frames):
        people = []
        for m in range(slots):
            flat = []
            for v in range(joints):
                flat.extend([1000.0 * t + m, float(v), 1.0 - 0.1 * m])
            people.append(flat)
        payload.append(people)
    return payload


def test_sequence_shape_and_accessors():
    seq = SkeletonSequence(np.zeros((4, 2, 18, 3)), COCO18, (640, 480), 25.0)
    assert seq.frame_count == 4
    assert seq.person_slots == 2
    assert seq.joint_count == 18
    assert seq.fps == 25.0
    assert not seq.visible_mask().any()


def test_sequence_validates_shape_against_layout():
    with pytest.raises(LayoutMismatchError):
        SkeletonSequence(np.zeros((4, 2, 17, 3)), COCO18)
    with pytest.raises(LayoutMismatchError):
        SkeletonSequence(np.zeros((4, 2, 18)), COCO18)
    # Unknown layout tags skip the joint-count check.
    SkeletonSequence(np.zeros((4, 1, 5, 3)), "synthetic")


def test_copy_and_replace_do_not_share_data():
    seq = SkeletonSequence(np.ones((2, 1, 18, 3)), COCO18)
    cloned = seq.copy()
    cloned.data[0, 0, 0, 0] = 9.0
    assert seq.data[0, 0, 0, 0] == 1.0
    swapped = seq.replace_data(np.zeros((5, 1, 18, 3)))
    assert swapped.frame_count == 5
    assert swapped.layout == COCO18


def test_load_sequence_orders_frames_by_padded_name(tmp_path):
    # Twelve frames force a two-digit count; zero padding keeps the
    # lexicographic order identical to the numeric one.
    directory = write_frames(tmp_path / "clip", coded_frames(12, 18))
    seq = load_sequence(directory, COCO18, person_slots=2, target_frames=12,
                        image_size=(640, 480))
    assert seq.frame_count == 12
    for t in range(12):
        assert seq.data[t, 0, 0, 0] == 1000.0 * t


def test_load_sequence_pads_and_truncates(tmp_path):
    directory = write_frames(tmp_path / "clip", coded_frames(6, 18))
    padded = load_sequence(directory, COCO18, target_frames=9)
    assert padded.frame_count == 9
    assert (padded.data[6:] == 0.0).all()
    trimmed = load_sequence(directory, COCO18, target_frames=4)
    assert trimmed.frame_count == 4
    assert trimmed.data[3, 0, 0, 0] == 3000.0


def test_load_sequence_ranks_people_by_confidence(tmp_path):
    rng = np.random.default_rng(0)
    weak = person_flat(rng, 18)
    strong = person_flat(rng, 18)
    weak[2::3] = [0.2] * 18
    strong[2::3] = [0.9] * 18
    directory = write_frames(tmp_path / "clip", [[weak, strong]])
    seq = load_sequence(directory, COCO18, person_slots=1, target_frames=1)
    assert seq.person_slots == 1
    assert seq.data[0, 0, 0, 0] == strong[0]


def test_load_sequence_accepts_a_manifest_record(tmp_path):
    directory = write_frames(tmp_path / "clip", coded_frames(3, 18))
    record = ManifestRecord(
        sample_id="s", class_name="c", performer="child",
        keypoint_path=str(directory), image_size=(320, 240), fps=15.0,
    )
    seq = load_sequence(record, COCO18, target_frames=3, image_size=(999, 999))
    # The record's own metadata wins over the arguments.
    assert seq.image_size == (320, 240)
    assert seq.fps == 15.0
    assert seq.data[2, 0, 0, 0] == 2000.0


def test_load_sequence_error_cases(tmp_path):
    with pytest.raises(EmptySequenceError):
        load_sequence(tmp_path / "missing", COCO18)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptySequenceError):
        load_sequence(empty, COCO18)
    directory = write_frames(tmp_path / "clip", coded_frames(2, 18))
    with pytest.raises(ConfigurationError):
        load_sequence(directory, COCO18, person_slots=0)
    with pytest.raises(LayoutMismatchError):
        load_sequence(directory, "bones")
    with pytest.raises(LayoutMismatchError):
        load_sequence(directory, BODY25)


def test_convert_body25_to_coco_reindexes_joints():
    rng = np.random.default_rng(1)
    data = rng.uniform(0.0, 1.0, (4, 2, 25, 3))
    seq = SkeletonSequence(data, BODY25, (640, 480))
    converted = convert_layout(seq, COCO18)
    assert converted.layout == COCO18
    assert converted.joint_count == 18
    for coco_index, body_index in enumerate(BODY25_TO_COCO):
        assert np.array_equal(
            converted.data[:, :, coco_index], data[:, :, body_index]
        )
    assert converted.image_size == (640, 480)


def test_convert_body25_to_no_feet_truncates():
    data = np.arange(2 * 1 * 25 * 3, dtype=np.float64).reshape(2, 1, 25, 3)
    data[..., 2] = 0.5
    seq = SkeletonSequence(data, BODY25)
    converted = convert_layout(seq, BODY25_NO_FEET)
    assert converted.joint_count == 19
    assert np.array_equal(converted.data, data[:, :, :19])


def test_convert_to_modified_layout_is_a_relabel():
    data = np.random.default_rng(2).uniform(0.0, 1.0, (3, 1, 18, 3))
    seq = SkeletonSequence(data, COCO18)
    converted = convert_layout(seq, COCO18_MODIFIED)
    # Same joints, different graph tag family: data must be untouched.
    assert converted.layout == COCO18
    assert np.array_equal(converted.data, data)


def test_convert_rejects_impossible_targets():
    seq = SkeletonSequence(np.zeros((2, 1, 18, 3)), COCO18)
    with pytest.raises(LayoutMismatchError):
        convert_layout(seq, BODY25)
    trimmed = SkeletonSequence(np.zeros((2, 1, 19, 3)), BODY25_NO_FEET)
    with pytest.raises(LayoutMismatchError):
        convert_layout(trimmed, COCO18)


def test_model_input_round_trip():
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 1.0, (5, 2, 18, 3))
    seq = SkeletonSequence(data, COCO18, (640, 480))
    array = to_model_input(seq)
    assert array.shape == (3, 5, 18, 2)
    assert array.flags["C_CONTIGUOUS"]
    # Channel c of joint v, frame t, slot m must match the source value.
    assert array[1, 4, 7, 1] == data[4, 1, 7, 1]
    assert np.array_equal(array.transpose(1, 3, 2, 0), data)
