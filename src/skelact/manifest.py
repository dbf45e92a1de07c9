"""Dataset manifests and evaluation protocol splits.

A manifest lists every sample of a keypoint dataset: its id, action class,
performer group (child or adult), the directory holding its per-frame
keypoint files, and the source image size. Protocols select subsets of the
manifest and split them into train and test parts with a seeded shuffle.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .keypoints import BODY25, LAYOUT_JOINT_COUNT

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
    """One dataset sample."""

    sample_id: str
    class_name: str
    performer: str
    keypoint_path: str
    image_size: tuple[int, int]
    fps: float = 30.0


@dataclass
class DatasetManifest:
    """All samples of a dataset plus its class table and layout tag.

    ``child_percentage`` optionally stores, per class, the share of samples
    performed by children in the source material. When absent it is derived
    from the records themselves.
    """

    records: list[ManifestRecord]
    class_table: list[str]
    layout: str = BODY25
    child_percentage: dict[str, float] | None = None

    def __post_init__(self):
        if self.layout not in LAYOUT_JOINT_COUNT:
            raise ConfigurationError(f"layout: unknown skeleton layout {self.layout!r}")
        if len(set(self.class_table)) != len(self.class_table):
            raise ConfigurationError("classes: duplicate class name")
        class_set = set(self.class_table)
        seen = set()
        for record in self.records:
            if record.sample_id in seen:
                raise ConfigurationError(
                    f"records: duplicate sample id {record.sample_id!r}"
                )
            seen.add(record.sample_id)
            if record.class_name not in class_set:
                raise ConfigurationError(
                    f"records[{record.sample_id}].class_name: "
                    f"{record.class_name!r} not in class table"
                )
            if record.performer not in PERFORMERS:
                raise ConfigurationError(
                    f"records[{record.sample_id}].performer: "
                    f"expected one of {PERFORMERS}, got {record.performer!r}"
                )
            if len(record.image_size) != 2 or not all(
                isinstance(v, int) and not isinstance(v, bool) and v > 0
                for v in record.image_size
            ):
                raise ConfigurationError(
                    f"records[{record.sample_id}].image_size: expected two "
                    f"positive integers, got {record.image_size!r}"
                )
            if not 0.0 < record.fps < math.inf:
                raise ConfigurationError(
                    f"records[{record.sample_id}].fps: must be positive, "
                    f"got {record.fps}"
                )
        if self.child_percentage is not None:
            for name in self.child_percentage:
                if name not in class_set:
                    raise ConfigurationError(
                        f"child_percentage: unknown class {name!r}"
                    )

    def __len__(self) -> int:
        return len(self.records)

    def label_index(self, class_name: str) -> int:
        try:
            return self.class_table.index(class_name)
        except ValueError:
            raise ConfigurationError(f"unknown class {class_name!r}") from None

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

    def save(self, path: str | Path) -> None:
        doc = {
            "layout": self.layout,
            "classes": list(self.class_table),
            "records": [
                {
                    "sample_id": r.sample_id,
                    "class_name": r.class_name,
                    "performer": r.performer,
                    "keypoint_path": r.keypoint_path,
                    "image_size": list(r.image_size),
                    "fps": r.fps,
                }
                for r in self.records
            ],
        }
        if self.child_percentage is not None:
            doc["child_percentage"] = dict(self.child_percentage)
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"manifest {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"manifest {path}: expected a JSON object")
        base = Path(path).parent
        try:
            records = [
                ManifestRecord(
                    sample_id=str(entry["sample_id"]),
                    class_name=str(entry["class_name"]),
                    performer=str(entry["performer"]),
                    keypoint_path=resolve_relative(
                        base, str(entry["keypoint_path"])
                    ),
                    image_size=tuple(entry["image_size"]),
                    fps=float(entry.get("fps", 30.0)),
                )
                for entry in doc.get("records", [])
            ]
            manifest = cls(
                records=records,
                class_table=[str(c) for c in doc["classes"]],
                layout=str(doc.get("layout", BODY25)),
                child_percentage=doc.get("child_percentage"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"manifest {path}: {exc!r}") from exc
        return manifest


def resolve_relative(base: Path, path: str) -> str:
    """A path from a JSON document, resolved against the document's directory."""
    return path if Path(path).is_absolute() else str(base / path)


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

    train_ids: list[str] = []
    test_ids: list[str] = []
    if stratified:
        for name in class_names:
            ids = per_class[name]
            order = rng.permutation(len(ids))
            cut = math.floor(TRAIN_FRACTION * len(ids))
            train_ids.extend(ids[i] for i in order[:cut])
            test_ids.extend(ids[i] for i in order[cut:])
    else:
        pooled = [i for name in class_names for i in per_class[name]]
        order = rng.permutation(len(pooled))
        cut = math.floor(TRAIN_FRACTION * len(pooled))
        train_ids.extend(pooled[i] for i in order[:cut])
        test_ids.extend(pooled[i] for i in order[cut:])

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
    manifest: DatasetManifest | None = None,
) -> None:
    """Write train.txt, test.txt and a summary.json into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "train.txt").write_text(
        "".join(f"{i}\n" for i in split.train_ids)
    )
    (directory / "test.txt").write_text(
        "".join(f"{i}\n" for i in split.test_ids)
    )
    summary = {
        "protocol": split.protocol,
        "seed": split.seed,
        "classes": list(split.class_names),
        "train_count": len(split.train_ids),
        "test_count": len(split.test_ids),
    }
    if manifest is not None:
        summary["class_counts"] = split_class_counts(split, manifest)
    (directory / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True)
    )


def load_split(directory: str | Path) -> ProtocolSplit:
    """Read a split previously written by save_split."""
    directory = Path(directory)
    try:
        summary = json.loads((directory / "summary.json").read_text())
        train_ids = [
            line for line in (directory / "train.txt").read_text().splitlines()
            if line
        ]
        test_ids = [
            line for line in (directory / "test.txt").read_text().splitlines()
            if line
        ]
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"split {directory}: {exc}") from exc
    return ProtocolSplit(
        protocol=str(summary.get("protocol", "")),
        seed=int(summary.get("seed", 0)),
        class_names=tuple(summary.get("classes", [])),
        train_ids=tuple(train_ids),
        test_ids=tuple(test_ids),
    )
