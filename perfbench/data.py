"""Seeded synthetic BODY25 keypoint datasets written in the estimator format.

Every frame lists three detected people in a random order: two performers
whose per-frame mean confidences overlap, so the confidence ranking in
``select_persons`` flips between them and ``track`` has to restore their
identities, and one low-confidence bystander that selection must drop.
About 20% of joints are hidden (written as ``(0, 0, 0)``) and about 5% of
frames are empty. Each class moves the performers along its own path, so
the classes are learnable.

This module uses only numpy and the standard library; it never imports the
program under test.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
JOINTS = 25
HIDDEN_SHARE = 0.2
EMPTY_FRAME_SHARE = 0.05
CLASSES = ("wave", "jump", "sway", "spin")

# Joint positions of a standing figure in pixels, relative to its mid hip,
# in BODY25 order.
TEMPLATE = np.array([
    (0, -95), (0, -70),
    (-18, -70), (-28, -45), (-32, -20),
    (18, -70), (28, -45), (32, -20),
    (0, 0),
    (-10, 0), (-12, 35), (-13, 70),
    (10, 0), (12, 35), (13, 70),
    (-4, -99), (4, -99), (-8, -96), (8, -96),
    (18, 78), (22, 77), (12, 74),
    (-18, 78), (-22, 77), (-12, 74),
], dtype=np.float64)

# Mid-hip anchors of the two performers and the bystander.
ANCHORS = ((0.3 * WIDTH, 0.55 * HEIGHT), (0.7 * WIDTH, 0.55 * HEIGHT),
           (0.5 * WIDTH, 0.7 * HEIGHT))
PERFORMER_CONFIDENCE = (0.55, 0.95)
BYSTANDER_CONFIDENCE = (0.05, 0.35)


def _path(label: int, t: np.ndarray) -> np.ndarray:
    """Per-frame mid-hip displacement (T, 2) of one class."""
    if label == 0:
        return np.stack([8.0 * np.sin(t), 4.0 * np.sin(2 * t)], axis=1)
    if label == 1:
        return np.stack([np.zeros_like(t), -30.0 * np.abs(np.sin(t))], axis=1)
    if label == 2:
        return np.stack([35.0 * np.sin(t), np.zeros_like(t)], axis=1)
    return np.stack([25.0 * np.cos(t), 25.0 * np.sin(t)], axis=1)


def _sample(rng: np.random.Generator, label: int, frames: int) -> np.ndarray:
    """Pixel data (T, 3, 25, 3): performer, performer, bystander."""
    t = np.arange(frames) * (4.0 * np.pi / frames) + rng.uniform(0.0, 2.0 * np.pi)
    data = np.zeros((frames, 3, JOINTS, 3))
    for person, (ax, ay) in enumerate(ANCHORS):
        scale = rng.uniform(0.9, 1.1)
        move = _path(label, t) if person < 2 else np.zeros((frames, 2))
        xy = np.array([ax, ay]) + move[:, None, :] + scale * TEMPLATE[None]
        if label == 0 and person < 2:
            # Waving: the right forearm swings with the body.
            xy[:, 3:5, 1] += 25.0 * np.sin(3 * t)[:, None]
        xy += rng.normal(0.0, 1.5, xy.shape)
        low, high = PERFORMER_CONFIDENCE if person < 2 else BYSTANDER_CONFIDENCE
        # Estimator precision: pixels to 3 decimals, confidences to 4.
        data[:, person, :, :2] = np.round(xy, 3)
        data[:, person, :, 2] = np.round(rng.uniform(low, high, (frames, JOINTS)), 4)
    hidden = rng.random((frames, 3, JOINTS)) < HIDDEN_SHARE
    data[hidden] = 0.0
    empty = rng.random(frames) < EMPTY_FRAME_SHARE
    data[empty] = 0.0
    return data


def _write_sample(directory: Path, data: np.ndarray, rng: np.random.Generator) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for t in range(data.shape[0]):
        if not data[t, :, :, 2].any():
            people = []
        else:
            people = [
                {"pose_keypoints_2d": data[t, p].reshape(-1).tolist()}
                for p in rng.permutation(3)
            ]
        (directory / f"{t:06d}.json").write_text(json.dumps({"people": people}))


def write_dataset(
    root: Path,
    seed: int,
    frames: int,
    child_per_class: int,
    adult_per_class: int = 1,
) -> Path:
    """Write ``root/manifest.json`` and its keypoint directories; returns
    the manifest's path.

    Only child samples enter the KS-Full protocol; the adult ones are in
    the manifest so that protocol selection has something to filter out.
    """
    root = Path(root)
    rng = np.random.default_rng(np.random.SeedSequence([seed, frames]))
    records = []
    for label, name in enumerate(CLASSES):
        for performer, count in (("child", child_per_class), ("adult", adult_per_class)):
            for k in range(count):
                sample_id = f"{name}_{performer}_{k:03d}"
                data = _sample(rng, label, frames)
                _write_sample(root / "keypoints" / sample_id, data, rng)
                records.append({
                    "sample_id": sample_id,
                    "class_name": name,
                    "performer": performer,
                    # Absolute: the loader resolves a relative path against
                    # the working directory, not the manifest's.
                    "keypoint_path": str((root / "keypoints" / sample_id).resolve()),
                    "image_size": [WIDTH, HEIGHT],
                    "fps": 30.0,
                })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(
        {"classes": list(CLASSES), "layout": "BODY25", "records": records},
        indent=1,
    ))
    return manifest
