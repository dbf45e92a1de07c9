"""Preprocessing and augmentation transforms."""
import numpy as np
import pytest

from skelact import (
    AugmentConfig,
    COCO18,
    ConfigurationError,
    MoveParams,
    SkeletonSequence,
    WindowError,
    augment_combined,
    normalize_centralize,
    pad_sequence,
    random_frame_window,
    random_move,
    select_persons,
    split_rng,
    subsample_frames,
    track,
)
from helpers import oracle_track, random_tracking_data


def make_person(confidence, joints=18, base=0.0):
    data = np.zeros((joints, 3))
    data[:, 0] = base + np.arange(joints)
    data[:, 1] = base + np.arange(joints) * 2.0
    data[:, 2] = confidence
    return data


def counted_sequence(frames, slots=1, joints=2):
    """Every value of frame t equals t + 1, so zeros mark padding."""
    data = np.zeros((frames, slots, joints, 3))
    data += np.arange(1, frames + 1)[:, None, None, None]
    return SkeletonSequence(data, "synthetic")


# ------------------------------------------------------------ select_persons

def test_select_orders_by_mean_confidence():
    persons = [make_person(0.9, base=10.0), make_person(0.5, base=20.0),
               make_person(0.7, base=30.0)]
    out = select_persons([np.stack(persons)], 2)
    assert out.shape == (1, 2, 18, 3)
    assert out[0, 0, 0, 0] == 10.0
    assert out[0, 1, 0, 0] == 30.0


def test_select_breaks_ties_by_detector_order():
    persons = [make_person(0.6, base=10.0), make_person(0.6, base=20.0)]
    out = select_persons([np.stack(persons)], 2)
    assert out[0, 0, 0, 0] == 10.0
    assert out[0, 1, 0, 0] == 20.0


def test_select_ties_hold_when_equal_confidences_sit_at_other_joints():
    # The same visible confidences, in the same order, at joints 0-9 and at
    # 8-17: equally confident, so detector order decides. Summed in
    # another grouping, these values give means that differ in the last bit.
    values = np.array([0.8, 0.28, 0.88, 0.11, 0.37, 0.19, 0.48, 0.81, 0.27, 0.1])
    early = make_person(0.0, base=10.0)
    late = make_person(0.0, base=20.0)
    early[:10, 2] = values
    late[8:, 2] = values
    for frame in (np.stack([early, late]), np.stack([late, early])):
        out = select_persons([frame], 2)[0]
        assert np.array_equal(out, frame)


def test_select_ranks_every_frame_on_its_own():
    frames = [np.stack([make_person(0.2, base=1.0), make_person(0.8, base=2.0)]),
              np.zeros((0, 18, 3)),
              np.stack([make_person(0.9, base=3.0)]),
              np.stack([make_person(0.1, base=4.0), make_person(0.3, base=5.0),
                        make_person(0.2, base=6.0)])]
    out = select_persons(frames, 2)
    assert out.shape == (4, 2, 18, 3)
    assert out[:, :, 0, 0].tolist() == [[2.0, 1.0], [0.0, 0.0], [3.0, 0.0], [5.0, 6.0]]


def test_select_zero_fills_spare_slots():
    out = select_persons([np.stack([make_person(0.5)])], 3)
    assert (out[0, 1:] == 0.0).all()
    empty = select_persons([np.zeros((0, 18, 3))] * 4, 2)
    assert empty.shape == (4, 2, 18, 3)
    assert (empty == 0.0).all()


def test_select_validation():
    with pytest.raises(ConfigurationError):
        select_persons([], 2)
    with pytest.raises(ConfigurationError):
        select_persons([np.stack([make_person(0.5)])], 0)
    with pytest.raises(ConfigurationError):
        select_persons([np.stack([make_person(0.5)]),
                        np.stack([make_person(0.5, joints=25)])], 1)
    with pytest.raises(ConfigurationError):
        select_persons([make_person(0.5)], 1)


# --------------------------------------------------------------------- track

def two_person_frames(frames):
    """Slot 0 near the top left, slot 1 near the bottom right."""
    rng = np.random.default_rng(0)
    data = np.zeros((frames, 2, 4, 3))
    for t in range(frames):
        data[t, 0, :, 0] = 100.0 + rng.uniform(-2, 2, 4)
        data[t, 0, :, 1] = 100.0 + rng.uniform(-2, 2, 4)
        data[t, 1, :, 0] = 500.0 + rng.uniform(-2, 2, 4)
        data[t, 1, :, 1] = 400.0 + rng.uniform(-2, 2, 4)
        data[t, :, :, 2] = 0.9
    return data


def test_track_restores_a_swapped_frame():
    data = two_person_frames(4)
    swapped = data.copy()
    swapped[2] = swapped[2, ::-1]
    tracked = track(SkeletonSequence(swapped, "synthetic"))
    assert np.array_equal(tracked.data, data)


def test_track_skips_empty_reference_frames():
    data = two_person_frames(4)
    gappy = data.copy()
    gappy[1] = 0.0
    gappy[2] = gappy[2, ::-1]
    tracked = track(SkeletonSequence(gappy, "synthetic"))
    # Frame 2 is matched against frame 0, not the empty frame 1.
    assert np.array_equal(tracked.data[2], data[2])


def test_track_keeps_identity_on_exact_ties():
    data = two_person_frames(3)
    data[:, 1] = data[:, 0]
    tracked = track(SkeletonSequence(data, "synthetic"))
    assert np.array_equal(tracked.data, data)


def test_track_single_slot_is_identity():
    rng = np.random.default_rng(4)
    data = rng.uniform(0.0, 1.0, (6, 1, 5, 3))
    seq = SkeletonSequence(data, "synthetic")
    tracked = track(seq)
    assert np.array_equal(tracked.data, data)
    assert not np.shares_memory(tracked.data, seq.data)


def test_track_swaps_on_disjoint_visibility():
    # The reference sees joints {0,1} in slot 0 and {2,3} in slot 1; the
    # next frame carries those joint groups in the opposite slots. The
    # identity assignment has no commonly visible joint anywhere, so the
    # mismatch cost forces the swap.
    data = np.zeros((2, 2, 4, 3))
    data[0, 0, 0] = (10.0, 10.0, 0.9)
    data[0, 0, 1] = (12.0, 10.0, 0.9)
    data[0, 1, 2] = (300.0, 200.0, 0.9)
    data[0, 1, 3] = (302.0, 200.0, 0.9)
    data[1, 0, 2] = (301.0, 201.0, 0.9)
    data[1, 0, 3] = (303.0, 201.0, 0.9)
    data[1, 1, 0] = (11.0, 11.0, 0.9)
    data[1, 1, 1] = (13.0, 11.0, 0.9)
    tracked = track(SkeletonSequence(data, "synthetic"))
    assert np.array_equal(tracked.data[1, 0], data[1, 1])
    assert np.array_equal(tracked.data[1, 1], data[1, 0])


def test_track_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        data = random_tracking_data(rng)
        tracked = track(SkeletonSequence(data, "synthetic"))
        assert np.array_equal(tracked.data, oracle_track(data))


def test_track_three_slots():
    rng = np.random.default_rng(123)
    for _ in range(40):
        data = random_tracking_data(rng, frames=5, slots=3, joints=4)
        tracked = track(SkeletonSequence(data, "synthetic"))
        assert np.array_equal(tracked.data, oracle_track(data))


def test_track_does_not_mutate_its_input():
    data = two_person_frames(3)
    data[1] = data[1, ::-1]
    seq = SkeletonSequence(data.copy(), "synthetic")
    track(seq)
    assert np.array_equal(seq.data, data)


# ------------------------------------------------------- normalize_centralize

def test_normalize_maps_known_points():
    data = np.zeros((1, 1, 4, 3))
    data[0, 0, 0] = (320.0, 240.0, 0.5)
    data[0, 0, 1] = (0.0, 0.0, 0.7)
    data[0, 0, 2] = (640.0, 480.0, 1.0)
    # Joint 3 stays missing.
    seq = SkeletonSequence(data, "synthetic", image_size=(640, 480))
    out = normalize_centralize(seq)
    assert np.allclose(out.data[0, 0, 0], (0.0, 0.0, 0.5))
    assert np.allclose(out.data[0, 0, 1], (-0.5, -0.5, 0.7))
    assert np.allclose(out.data[0, 0, 2], (0.5, 0.5, 1.0))
    assert np.array_equal(out.data[0, 0, 3], (0.0, 0.0, 0.0))
    # Confidences carry through untouched.
    assert np.array_equal(out.data[..., 2], data[..., 2])


def test_normalize_respects_explicit_size_argument():
    data = np.full((1, 1, 1, 3), 50.0)
    data[..., 2] = 1.0
    seq = SkeletonSequence(data, "synthetic", image_size=(100, 100))
    out = normalize_centralize(seq)
    assert out.data[0, 0, 0, 0] == pytest.approx(0.0)


def test_normalize_rejects_degenerate_sizes():
    seq = SkeletonSequence(np.zeros((1, 1, 1, 3)), "synthetic")
    with pytest.raises(ConfigurationError):
        normalize_centralize(seq)
    with pytest.raises(ConfigurationError):
        normalize_centralize(SkeletonSequence(seq.data, "synthetic", (640, 0)))


# ---------------------------------------------------------------- pad / window

def test_pad_sequence_extends_with_zero_frames():
    seq = counted_sequence(3)
    out = pad_sequence(seq, 5)
    assert out.frame_count == 5
    assert np.array_equal(out.data[:3], seq.data)
    assert (out.data[3:] == 0.0).all()


def test_pad_sequence_truncates_the_tail():
    seq = counted_sequence(6)
    out = pad_sequence(seq, 4)
    assert out.frame_count == 4
    assert np.array_equal(out.data, seq.data[:4])


def test_pad_sequence_identity_and_validation():
    seq = counted_sequence(3)
    out = pad_sequence(seq, 3)
    assert out is not seq
    assert np.array_equal(out.data, seq.data)
    with pytest.raises(ConfigurationError):
        pad_sequence(seq, 0)


def test_window_keeps_length_and_moves_a_contiguous_slice():
    seq = counted_sequence(10)
    rng = np.random.default_rng(0)
    starts = set()
    for _ in range(200):
        out = random_frame_window(seq, 6, rng)
        assert out.frame_count == 10
        start = int(out.data[0, 0, 0, 0]) - 1
        starts.add(start)
        assert np.array_equal(out.data[:6], seq.data[start:start + 6])
        assert (out.data[6:] == 0.0).all()
    # Uniform start over [0, 4]: two hundred draws reach every offset.
    assert starts == {0, 1, 2, 3, 4}


def test_window_head_padding_puts_the_slice_at_the_back():
    seq = counted_sequence(8)
    out = random_frame_window(seq, 5, np.random.default_rng(1), pad_position="head")
    assert out.frame_count == 8
    assert (out.data[:3] == 0.0).all()
    start = int(out.data[3, 0, 0, 0]) - 1
    assert np.array_equal(out.data[3:], seq.data[start:start + 5])


def test_window_full_length_is_identity():
    seq = counted_sequence(7)
    out = random_frame_window(seq, 7, np.random.default_rng(2))
    assert np.array_equal(out.data, seq.data)


def test_window_validation():
    seq = counted_sequence(5)
    rng = np.random.default_rng(0)
    with pytest.raises(WindowError):
        random_frame_window(seq, 6, rng)
    with pytest.raises(WindowError):
        random_frame_window(seq, 0, rng)
    with pytest.raises(ConfigurationError):
        random_frame_window(seq, 3, rng, pad_position="middle")


# --------------------------------------------------------------- random_move

def visible_sequence(frames=5, joints=6, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-0.4, 0.4, (frames, 1, joints, 3))
    data[..., 2] = rng.uniform(0.1, 1.0, (frames, 1, joints))
    return SkeletonSequence(data, "synthetic")


def test_move_with_zero_ranges_is_bitwise_identity():
    seq = visible_sequence()
    params = MoveParams(rotation=0.0, scale_min=1.0, scale_max=1.0,
                        translation=0.0, anchors=3)
    out = random_move(seq, params, np.random.default_rng(5))
    assert np.array_equal(out.data, seq.data)


def test_move_matches_a_replicated_draw():
    seq = visible_sequence(frames=5)
    params = MoveParams(rotation=0.3, scale_min=0.8, scale_max=1.2,
                        translation=0.1, anchors=3)
    out = random_move(seq, params, np.random.default_rng(7))

    # Replay the documented draw order with a twin generator.
    rng = np.random.default_rng(7)
    angles = rng.uniform(-0.3, 0.3, 3)
    scales = rng.uniform(0.8, 1.2, 3)
    sx = rng.uniform(-0.1, 0.1, 3)
    sy = rng.uniform(-0.1, 0.1, 3)
    anchor_pos = np.linspace(0.0, 4.0, 3)
    frames = np.arange(5, dtype=np.float64)
    a = np.interp(frames, anchor_pos, angles)
    s = np.interp(frames, anchor_pos, scales)
    tx = np.interp(frames, anchor_pos, sx)
    ty = np.interp(frames, anchor_pos, sy)
    for t in range(5):
        rot = s[t] * np.array([[np.cos(a[t]), -np.sin(a[t])],
                               [np.sin(a[t]), np.cos(a[t])]])
        for v in range(seq.data.shape[2]):
            expected = rot @ seq.data[t, 0, v, :2] + (tx[t], ty[t])
            assert np.allclose(out.data[t, 0, v, :2], expected, atol=1e-12)


def test_move_leaves_missing_joints_and_confidence_alone():
    seq = visible_sequence()
    seq.data[1, 0, 2] = 0.0
    seq.data[3, 0, 4] = 0.0
    params = MoveParams(translation=0.5)
    out = random_move(seq, params, np.random.default_rng(9))
    assert np.array_equal(out.data[1, 0, 2], (0.0, 0.0, 0.0))
    assert np.array_equal(out.data[3, 0, 4], (0.0, 0.0, 0.0))
    assert np.array_equal(out.data[..., 2], seq.data[..., 2])


def test_move_without_scaling_preserves_pairwise_distances():
    seq = visible_sequence(frames=4, joints=8, seed=3)
    params = MoveParams(rotation=np.pi, scale_min=1.0, scale_max=1.0,
                        translation=0.3, anchors=2)
    out = random_move(seq, params, np.random.default_rng(11))
    for t in range(4):
        before = seq.data[t, 0, :, :2]
        after = out.data[t, 0, :, :2]
        for v in range(8):
            for w in range(v + 1, 8):
                d0 = np.linalg.norm(before[v] - before[w])
                d1 = np.linalg.norm(after[v] - after[w])
                assert abs(d0 - d1) < 1e-9


def test_move_single_anchor_is_constant_over_time():
    seq = visible_sequence(frames=6, joints=2, seed=8)
    seq.data[..., :2] = 0.25
    params = MoveParams(rotation=0.5, scale_min=0.9, scale_max=1.1,
                        translation=0.2, anchors=1)
    out = random_move(seq, params, np.random.default_rng(13))
    first = out.data[0, 0, 0, :2]
    for t in range(6):
        assert np.allclose(out.data[t, 0, 0, :2], first, atol=1e-15)


# ----------------------------------------------------------- subsample_frames

def test_subsample_matches_a_replicated_draw():
    seq = counted_sequence(40)
    out = subsample_frames(seq, 0.3, np.random.default_rng(11))
    keep = np.random.default_rng(11).random(40) >= 0.3
    expected = np.zeros_like(seq.data)
    survivors = seq.data[keep]
    expected[:survivors.shape[0]] = survivors
    assert np.array_equal(out.data, expected)


def test_subsample_packs_survivors_in_order():
    seq = counted_sequence(60)
    out = subsample_frames(seq, 0.5, np.random.default_rng(21))
    values = out.data[:, 0, 0, 0]
    kept = values[values > 0.0]
    assert (np.diff(kept) > 0).all()
    assert (values[len(kept):] == 0.0).all()


def test_subsample_zero_rate_is_identity():
    seq = counted_sequence(10)
    out = subsample_frames(seq, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.data, seq.data)


def test_subsample_drop_count_is_plausible():
    # 400 frames at thirty percent: the kept count sits within five
    # standard deviations of the mean, a deterministic check for the
    # seeds used here.
    seq = counted_sequence(400)
    for seed in range(5):
        out = subsample_frames(seq, 0.3, np.random.default_rng(seed))
        kept = int((out.data[:, 0, 0, 0] > 0).sum())
        assert abs(kept - 280) < 5 * np.sqrt(400 * 0.3 * 0.7)


def test_subsample_validation():
    seq = counted_sequence(4)
    with pytest.raises(ConfigurationError):
        subsample_frames(seq, 1.0, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        subsample_frames(seq, -0.1, np.random.default_rng(0))


# ------------------------------------------------------------------ split_rng

def test_split_rng_is_deterministic_and_divergent():
    children = split_rng(np.random.default_rng(17), 3)
    again = split_rng(np.random.default_rng(17), 3)
    draws = [c.random(4) for c in children]
    for mine, twin in zip(draws, [c.random(4) for c in again]):
        assert np.array_equal(mine, twin)
    assert not np.allclose(draws[0], draws[1])
    assert not np.allclose(draws[1], draws[2])
    assert split_rng(np.random.default_rng(17), 0) == []


# ------------------------------------------------------------ augment_combined

def full_config():
    return AugmentConfig(
        window=True, window_size=6,
        move=True,
        move_params=MoveParams(rotation=0.2, scale_min=0.9, scale_max=1.1,
                               translation=0.05, anchors=3),
        subsample=True, drop_rate=0.2,
    )


def test_augment_disabled_or_eval_returns_an_equal_copy():
    seq = visible_sequence()
    config = AugmentConfig()
    out = augment_combined(seq, config, np.random.default_rng(0))
    assert out is not seq
    assert np.array_equal(out.data, seq.data)


def test_augment_composes_the_documented_stage_chain():
    seq = visible_sequence(frames=10, joints=4, seed=5)
    config = full_config()
    out = augment_combined(seq, config, np.random.default_rng(23))

    window_rng, move_rng, subsample_rng = split_rng(np.random.default_rng(23), 3)
    expected = random_frame_window(seq, 6, window_rng)
    expected = random_move(expected, config.move_params, move_rng)
    expected = subsample_frames(expected, 0.2, subsample_rng)
    assert np.array_equal(out.data, expected.data)


def test_augment_stages_draw_from_private_streams():
    # Turning the middle stage into a no-op must not change what the
    # window stage produces: each stage owns a fixed child generator.
    seq = visible_sequence(frames=9, joints=3, seed=6)
    window_only = AugmentConfig(window=True, window_size=4)
    with_identity_move = AugmentConfig(
        window=True, window_size=4, move=True,
        move_params=MoveParams(rotation=0.0, scale_min=1.0, scale_max=1.0,
                               translation=0.0),
    )
    a = augment_combined(seq, window_only, np.random.default_rng(31))
    b = augment_combined(seq, with_identity_move, np.random.default_rng(31))
    assert np.array_equal(a.data, b.data)


def test_augment_keeps_frame_count():
    seq = visible_sequence(frames=12, joints=4, seed=7)
    out = augment_combined(seq, full_config(), np.random.default_rng(3))
    assert out.frame_count == 12


def test_augment_window_position_flows_through():
    seq = counted_sequence(8)
    config = AugmentConfig(window=True, window_size=3,
                           window_pad_position="head")
    out = augment_combined(seq, config, np.random.default_rng(2))
    assert (out.data[:5] == 0.0).all()
    assert (out.data[5:] > 0.0).all()


def test_augmentation_is_enabled_by_any_stage():
    assert not AugmentConfig().enabled()
    assert AugmentConfig(subsample=True).enabled()


# ------------------------------------------------------------ zero in, zero out

def test_every_transform_maps_zero_to_zero():
    zero = SkeletonSequence(np.zeros((6, 2, 4, 3)), "synthetic", (640, 480))
    rng = np.random.default_rng(1)
    outputs = [
        track(zero),
        normalize_centralize(zero),
        pad_sequence(zero, 9),
        random_frame_window(zero, 3, rng),
        random_move(zero, MoveParams(), rng),
        subsample_frames(zero, 0.4, rng),
        augment_combined(zero, full_config(), rng),
    ]
    for out in outputs:
        assert (out.data == 0.0).all()
