"""Dataset manifests and evaluation protocol splits.

A manifest lists every sample of a keypoint dataset: its id, action class,
performer group (child or adult), the directory holding its per-frame
keypoint files, and the source image size. Protocols select subsets of the
manifest and split them into train and test parts with a seeded shuffle.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .atomic import open_atomic
from .config import check_non_negative, read_document, read_text, resolve_relative
from .errors import ConfigurationError, InsufficientDataError
from .keypoints import BODY25, check_layout

PERFORMER_CHILD = "child"
PERFORMER_ADULT = "adult"
PERFORMERS = (PERFORMER_CHILD, PERFORMER_ADULT)

# Protocol families differ only in which manifest they are applied to; the
# variants select classes and performers the same way in both families.
PROTOCOLS = (
    "KS-Full", "KS-Large", "KS-Balanced", "KS-Small-C", "KS-Small-A",
    "KSS-Full", "KSS-Large", "KSS-Balanced", "KSS-Small-C",
)

# Per-class sample count drawn by the balanced variants.
BALANCED_PER_CLASS = {"KS": 250, "KSS": 110}

LARGE_CLASS_COUNT = 5
SMALL_CLASS_COUNT = 3
TRAIN_FRACTION = 0.75


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset sample, which checks its sample id, performer, image size and fps."""

    sample_id: str
    class_name: str
    performer: str
    keypoint_path: str
    image_size: tuple[int, int]
    fps: float = 30.0

    def __post_init__(self):
        # A split file holds one id per line, as ``str.splitlines`` reads it.
        if self.sample_id.splitlines() != [self.sample_id]:
            raise ConfigurationError(
                f"sample_id: must be one non-empty line, got {self.sample_id!r}")
        if self.performer not in PERFORMERS:
            raise ConfigurationError(
                f"performer: expected one of {PERFORMERS}, got {self.performer!r}"
            )
        if not all(v > 0 for v in self.image_size):
            raise ConfigurationError(
                f"image_size: expected two positive integers, got {self.image_size!r}"
            )
        if not 0.0 < self.fps < math.inf:
            raise ConfigurationError(f"fps: must be positive, got {self.fps}")


@dataclass
class DatasetManifest:
    """All samples of a dataset plus its class table and layout tag.

    ``child_percentage`` optionally stores, per class, the share of samples
    performed by children in the source material. When absent it is derived
    from the records themselves.
    """

    records: list[ManifestRecord]
    class_table: list[str] = field(metadata={"key": "classes"})
    layout: str = BODY25
    child_percentage: dict[str, float] | None = None

    def __post_init__(self):
        check_layout(self.layout)
        if len(set(self.class_table)) != len(self.class_table):
            raise ConfigurationError("classes: duplicate class name")
        class_set = set(self.class_table)
        seen = set()
        for index, record in enumerate(self.records):
            where = f"records[{index}]"
            if record.sample_id in seen:
                raise ConfigurationError(
                    f"{where}.sample_id: duplicate sample id {record.sample_id!r}"
                )
            seen.add(record.sample_id)
            if record.class_name not in class_set:
                raise ConfigurationError(
                    f"{where}.class_name: {record.class_name!r} not in class table"
                )
        for name, share in (self.child_percentage or {}).items():
            if name not in class_set:
                raise ConfigurationError(f"child_percentage: unknown class {name!r}")
            if not 0.0 <= share <= 100.0:
                raise ConfigurationError(
                    f"child_percentage[{name}]: expected a number in "
                    f"[0, 100], got {share!r}"
                )

    def by_id(self) -> dict[str, ManifestRecord]:
        return {record.sample_id: record for record in self.records}

    def class_child_percentage(self, class_name: str) -> float:
        """Share of child samples in a class, in percent.

        Prefers the stored source-material figure; falls back to counting
        the manifest's own records.
        """
        if self.child_percentage and class_name in self.child_percentage:
            return float(self.child_percentage[class_name])
        members = [r for r in self.records if r.class_name == class_name]
        if not members:
            return 0.0
        children = sum(1 for r in members if r.performer == PERFORMER_CHILD)
        return 100.0 * children / len(members)

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """Read a manifest; relative keypoint paths resolve from its directory."""
        manifest = read_document(cls, path, "manifest")
        base = Path(path).parent
        manifest.records = [
            replace(r, keypoint_path=resolve_relative(base, r.keypoint_path))
            for r in manifest.records
        ]
        return manifest


@dataclass(frozen=True)
class ProtocolSplit:
    """A seeded train/test split produced by one protocol."""

    protocol: str
    seed: int
    class_names: tuple[str, ...]
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _rank_classes(manifest: DatasetManifest) -> list[str]:
    """Class names ordered by descending child share, table order on ties."""
    indexed = list(enumerate(manifest.class_table))
    indexed.sort(key=lambda item: (-manifest.class_child_percentage(item[1]), item[0]))
    return [name for _, name in indexed]


def protocol_class_names(manifest: DatasetManifest, protocol: str) -> tuple[str, ...]:
    """Classes a protocol keeps, in manifest class-table order."""
    variant = protocol.split("-", 1)[1]
    if variant == "Full":
        return tuple(manifest.class_table)
    needed = LARGE_CLASS_COUNT if variant in ("Large", "Balanced") else SMALL_CLASS_COUNT
    if len(manifest.class_table) < needed:
        raise InsufficientDataError(
            f"{protocol} needs {needed} classes, manifest has "
            f"{len(manifest.class_table)}"
        )
    ranked = _rank_classes(manifest)
    chosen = ranked[:needed] if variant in ("Large", "Balanced") else ranked[-needed:]
    return tuple(name for name in manifest.class_table if name in set(chosen))


def build_protocol(
    manifest: DatasetManifest,
    protocol: str,
    seed: int = 0,
    stratified: bool = True,
) -> ProtocolSplit:
    """Select a protocol's samples and split them 75/25 into train and test.

    All selection is deterministic in (manifest content, protocol, seed):
    candidate ids are sorted before any random draw and classes are visited
    in class-table order. With ``stratified`` (the default) each class is
    split separately, so class proportions carry over to both parts up to
    one sample per class; otherwise a single shuffle splits the pooled
    selection.
    """
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; expected one of {', '.join(PROTOCOLS)}"
        )
    check_non_negative("seed", seed)
    family, variant = protocol.split("-", 1)
    performer = PERFORMER_ADULT if variant == "Small-A" else PERFORMER_CHILD
    class_names = protocol_class_names(manifest, protocol)

    rng = np.random.default_rng(seed)
    per_class: dict[str, list[str]] = {}
    for name in class_names:
        ids = sorted(
            r.sample_id
            for r in manifest.records
            if r.class_name == name and r.performer == performer
        )
        if variant == "Balanced":
            count = BALANCED_PER_CLASS[family]
            if len(ids) < count:
                raise InsufficientDataError(
                    f"{protocol}: class {name!r} has {len(ids)} {performer} "
                    f"samples, needs {count}"
                )
            picked = rng.choice(len(ids), size=count, replace=False)
            ids = [ids[i] for i in sorted(picked)]
        if not ids:
            raise InsufficientDataError(
                f"{protocol}: class {name!r} has no {performer} samples"
            )
        per_class[name] = ids

    groups = [per_class[name] for name in class_names]
    if not stratified:
        groups = [[i for ids in groups for i in ids]]
    train_ids: list[str] = []
    test_ids: list[str] = []
    for ids in groups:
        order = rng.permutation(len(ids))
        cut = math.floor(TRAIN_FRACTION * len(ids))
        train_ids.extend(ids[i] for i in order[:cut])
        test_ids.extend(ids[i] for i in order[cut:])

    return ProtocolSplit(
        protocol=protocol,
        seed=seed,
        class_names=class_names,
        train_ids=tuple(train_ids),
        test_ids=tuple(test_ids),
    )


def split_class_counts(
    split: ProtocolSplit, manifest: DatasetManifest
) -> dict[str, int]:
    """Pre-split sample count per class (train plus test)."""
    records = manifest.by_id()
    counts = {name: 0 for name in split.class_names}
    for sample_id in split.train_ids + split.test_ids:
        counts[records[sample_id].class_name] += 1
    return counts


def save_split(
    split: ProtocolSplit,
    directory: str | Path,
    manifest: DatasetManifest,
) -> None:
    """Write train.txt, test.txt and a summary.json into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, ids in (("train.txt", split.train_ids), ("test.txt", split.test_ids)):
        with open_atomic(directory / name) as handle:
            handle.write("".join(f"{i}\n" for i in ids))
    summary = {
        "protocol": split.protocol,
        "seed": split.seed,
        "classes": list(split.class_names),
        "train_count": len(split.train_ids),
        "test_count": len(split.test_ids),
        "class_counts": split_class_counts(split, manifest),
    }
    with open_atomic(directory / "summary.json") as handle:
        handle.write(json.dumps(summary, indent=2, sort_keys=True))


@dataclass(frozen=True)
class _SplitSummary:
    """The summary.json that save_split writes beside the id files."""

    protocol: str
    seed: int
    classes: list[str]
    train_count: int
    test_count: int
    class_counts: dict[str, int]


def load_split(directory: str | Path) -> ProtocolSplit:
    """Read a split previously written by save_split."""
    directory = Path(directory)
    summary_path = directory / "summary.json"
    summary = read_document(_SplitSummary, summary_path, "split")
    train_ids, test_ids = (
        [line for line in read_text(directory / name, "split").splitlines() if line]
        for name in ("train.txt", "test.txt")
    )
    if len(set(summary.classes)) != len(summary.classes):
        raise ConfigurationError(
            f"split {summary_path}: classes: expected distinct names, "
            f"got {summary.classes!r}"
        )
    parts = (("train.txt", train_ids, summary.train_count),
             ("test.txt", test_ids, summary.test_count))
    for name, ids, _ in parts:
        if len(set(ids)) != len(ids):
            repeated = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(
                f"split {directory}: {name} lists {', '.join(repeated)} more than once"
            )
    shared = sorted(set(train_ids) & set(test_ids))
    if shared:
        raise ConfigurationError(
            f"split {directory}: {', '.join(shared)} appear in both train.txt "
            "and test.txt"
        )
    for name, ids, count in parts:
        if len(ids) != count:
            raise ConfigurationError(
                f"split {directory}: summary.json counts {count} ids in {name}, "
                f"which lists {len(ids)}"
            )
    return ProtocolSplit(summary.protocol, summary.seed, tuple(summary.classes),
                         tuple(train_ids), tuple(test_ids))
