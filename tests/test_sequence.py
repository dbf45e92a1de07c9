"""Sequence loading, layout conversion, and model-input reshaping."""
import json
import os
import time

import numpy as np
import pytest

from skelact import sequence
from skelact import (
    BODY25,
    BODY25_NO_FEET,
    BODY25_TO_COCO,
    COCO18,
    COCO18_MODIFIED,
    ConfigurationError,
    EmptySequenceError,
    KeypointParseError,
    LayoutMismatchError,
    SkeletonSequence,
    convert_layout,
    load_sequence,
    to_model_input,
)
from helpers import oracle_select_persons, person_flat, write_frames


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
    seq = SkeletonSequence(np.zeros((4, 2, 18, 3)), COCO18, (640, 480))
    assert seq.frame_count == 4
    assert seq.person_slots == 2


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
    with pytest.raises(ConfigurationError, match="layout: unknown skeleton layout"):
        load_sequence(directory, "bones")
    with pytest.raises(LayoutMismatchError):
        load_sequence(directory, BODY25)


def crowd_frames(rng, frames, joints=18):
    """Three people per frame with hidden joints, some empty frames, and
    people who copy an earlier person's confidences, in place or shifted
    to other joints."""
    payload = []
    for _ in range(frames):
        if rng.random() < 0.1:
            payload.append([])
            continue
        people = []
        for _ in range(3):
            hidden = set(np.nonzero(rng.random(joints) < 0.3)[0])
            people.append(person_flat(rng, joints, hidden=hidden))
        if rng.random() < 0.3:
            conf = [c for c in people[0][2::3] if c > 0.0]
            copy = [0.0] * (3 * joints)
            start = int(rng.integers(0, joints - len(conf) + 1))
            for k, c in enumerate(conf):
                copy[3 * (start + k):3 * (start + k) + 3] = [1.0 + k, 2.0 + k, c]
            people.insert(int(rng.integers(0, 2)), copy)
        payload.append(people)
    return payload


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_load_sequence_selects_people_as_the_per_frame_oracle(tmp_path, slots):
    rng = np.random.default_rng(slots)
    payload = crowd_frames(rng, 40)
    directory = write_frames(tmp_path / "clip", payload)
    seq = load_sequence(directory, COCO18, person_slots=slots, target_frames=40)
    expected = oracle_select_persons(payload, slots, 18)
    assert seq.data.tobytes() == expected.tobytes()


def test_load_sequence_of_empty_frames_is_all_zero(tmp_path):
    directory = write_frames(tmp_path / "clip", [[]] * 5)
    seq = load_sequence(directory, COCO18, person_slots=2, target_frames=7)
    assert seq.data.shape == (7, 2, 18, 3)
    assert (seq.data == 0.0).all()


def test_load_sequence_rejects_an_unreadable_frame_entry(tmp_path):
    directory = write_frames(tmp_path / "clip", coded_frames(3, 18))
    (directory / "000030.json").mkdir()
    with pytest.raises(KeypointParseError, match="000030.json: cannot read"):
        load_sequence(directory, COCO18, target_frames=3)


def test_load_sequence_rejects_a_dangling_symlink_frame(tmp_path):
    directory = write_frames(tmp_path / "clip", coded_frames(3, 18))
    (directory / "000003.json").symlink_to(tmp_path / "gone.json")
    with pytest.raises(KeypointParseError,
                       match="clip/000003.json: cannot read keypoint file"):
        load_sequence(directory, COCO18, target_frames=4)


# ------------------------------------------------------- kept parsed frames

CACHE = ".skelact-frames.npz"


@pytest.fixture
def settled(monkeypatch):
    """Frames written just now count as settled: ctime cannot be
    backdated, and waiting out the 2 s margin would slow every test."""
    monkeypatch.setattr(sequence, "_SETTLE_NS", 0)


@pytest.fixture
def parse_calls(monkeypatch):
    """A list that grows by one at every frame parse."""
    calls, parse = [], sequence.parse_keypoint_frame

    def counted(data, layout):
        calls.append(layout)
        return parse(data, layout)

    monkeypatch.setattr(sequence, "parse_keypoint_frame", counted)
    return calls


def test_a_settled_directory_is_parsed_once(tmp_path, settled, parse_calls):
    payload = crowd_frames(np.random.default_rng(4), 20)
    directory = write_frames(tmp_path / "clip", payload)
    cold = load_sequence(directory, COCO18, person_slots=2, target_frames=24)
    assert len(parse_calls) == 20
    names = [f"{t:06d}.json" for t in range(20)]
    assert sorted(os.listdir(directory)) == [CACHE] + names
    warm = load_sequence(directory, COCO18, person_slots=2, target_frames=24)
    assert len(parse_calls) == 20
    assert warm.data.tobytes() == cold.data.tobytes()
    assert cold.data[:20].tobytes() == oracle_select_persons(payload, 2, 18).tobytes()


def test_a_frame_rewritten_at_its_size_and_mtime_is_parsed_again(tmp_path, settled,
                                                                  parse_calls):
    directory = write_frames(tmp_path / "clip", coded_frames(4, 18))
    load_sequence(directory, COCO18, target_frames=4)
    path = directory / "000002.json"
    before = path.stat()
    changed = path.read_text().replace("2000.0", "2999.0")
    # Only the ctime tells the files apart; it moves with the next tick.
    while path.stat().st_ctime_ns == before.st_ctime_ns:
        time.sleep(0.001)
        path.write_text(changed)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino)
    seq = load_sequence(directory, COCO18, target_frames=4)
    assert len(parse_calls) == 8
    assert (seq.data[2, 0, :, 0] == 2999.0).all()


def test_a_directory_changed_within_the_margin_is_parsed_every_time(tmp_path,
                                                                     parse_calls):
    directory = write_frames(tmp_path / "clip", coded_frames(3, 18))
    first = load_sequence(directory, COCO18, target_frames=3)
    second = load_sequence(directory, COCO18, target_frames=3)
    assert len(parse_calls) == 6
    assert second.data.tobytes() == first.data.tobytes()
    assert sorted(os.listdir(directory)) == [f"{t:06d}.json" for t in range(3)]


def truncated(directory):
    cache = directory / CACHE
    cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])


def holding_a_nan(directory):
    with np.load(directory / CACHE) as kept:
        arrays = dict(kept)
    arrays["people"][0, 0, 0] = np.nan
    np.savez(directory / CACHE, **arrays)


def written_for_another_layout(directory):
    (directory / CACHE).unlink()
    load_sequence(directory, COCO18_MODIFIED, target_frames=12)


@pytest.mark.parametrize("spoil",
                         [truncated, holding_a_nan, written_for_another_layout])
def test_a_spoiled_cache_is_ignored(spoil, tmp_path, settled, parse_calls):
    payload = crowd_frames(np.random.default_rng(5), 12)
    directory = write_frames(tmp_path / "clip", payload)
    cold = load_sequence(directory, COCO18, target_frames=12)
    spoil(directory)
    assert (directory / CACHE).is_file()
    parsed = len(parse_calls)
    seq = load_sequence(directory, COCO18, target_frames=12)
    assert len(parse_calls) == parsed + 12
    assert seq.data.tobytes() == cold.data.tobytes()
    assert seq.layout == COCO18


def test_a_directory_that_cannot_take_the_cache_still_loads(tmp_path, settled,
                                                            parse_calls, monkeypatch):
    def refuse(path, mode="w", **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(sequence, "open_atomic", refuse)
    directory = write_frames(tmp_path / "clip", coded_frames(5, 18))
    first = load_sequence(directory, COCO18, target_frames=5)
    second = load_sequence(directory, COCO18, target_frames=5)
    assert len(parse_calls) == 10
    assert second.data.tobytes() == first.data.tobytes()
    assert not (directory / CACHE).exists()


def oversized_integer(directory):
    path = directory / "000001.json"
    doc = json.loads(path.read_text())
    doc["people"][0]["pose_keypoints_2d"][0] = "BIG"
    path.write_text(json.dumps(doc).replace('"BIG"', "9" * 400))


def directory_entry(directory):
    (directory / "000030.json").mkdir()


def dangling_symlink(directory):
    (directory / "000030.json").symlink_to(directory / "gone.json")


@pytest.mark.parametrize("breaker, fragment", [
    (oversized_integer, "000001.json: person 0, joint 0"),
    (directory_entry, "000030.json: cannot read keypoint file"),
    (dangling_symlink, "000030.json: cannot read keypoint file"),
])
def test_a_broken_frame_raises_as_it_would_without_a_cache(breaker, fragment, tmp_path,
                                                            settled):
    directory = write_frames(tmp_path / "clip", coded_frames(3, 18))
    load_sequence(directory, COCO18, target_frames=3)
    breaker(directory)
    with pytest.raises(KeypointParseError, match=fragment) as stale:
        load_sequence(directory, COCO18, target_frames=3)
    (directory / CACHE).unlink()
    with pytest.raises(KeypointParseError) as cold:
        load_sequence(directory, COCO18, target_frames=3)
    assert str(stale.value) == str(cold.value)

def test_convert_body25_to_coco_reindexes_joints():
    rng = np.random.default_rng(1)
    data = rng.uniform(0.0, 1.0, (4, 2, 25, 3))
    seq = SkeletonSequence(data, BODY25, (640, 480))
    converted = convert_layout(seq, COCO18)
    assert converted.layout == COCO18
    assert converted.data.shape[2] == 18
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
    assert converted.data.shape[2] == 19
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
