"""Dataset manifests, protocol selection, and split persistence."""
import json

import pytest

from helpers import write_frames

from skelact import (
    COCO18,
    ConfigurationError,
    DatasetManifest,
    InsufficientDataError,
    ManifestRecord,
    PROTOCOLS,
    build_protocol,
    load_sequence,
    load_split,
    protocol_class_names,
    save_split,
    split_class_counts,
)

# Child share per class, descending: a..e are the five child-heavy classes,
# f..h the three child-light ones.
SHARES = {"a": 90.0, "b": 80.0, "c": 70.0, "d": 60.0, "e": 50.0,
          "f": 40.0, "g": 30.0, "h": 20.0}


def make_records(spec):
    records = []
    for name, child_count, adult_count in spec:
        for k in range(child_count):
            records.append(ManifestRecord(
                sample_id=f"{name}_c{k:04d}", class_name=name,
                performer="child", keypoint_path=f"/data/{name}_c{k:04d}",
                image_size=(640, 480),
            ))
        for k in range(adult_count):
            records.append(ManifestRecord(
                sample_id=f"{name}_a{k:04d}", class_name=name,
                performer="adult", keypoint_path=f"/data/{name}_a{k:04d}",
                image_size=(640, 480),
            ))
    return records


def big_manifest(child_top=260, child_bottom=30, adult_bottom=12):
    spec = [(name, child_top, 4) for name in "abcde"]
    spec += [(name, child_bottom, adult_bottom) for name in "fgh"]
    return DatasetManifest(
        records=make_records(spec),
        class_table=list("abcdefgh"),
        child_percentage=dict(SHARES),
    )


def test_protocol_families_cover_both_datasets():
    assert "KS-Small-A" in PROTOCOLS
    assert "KSS-Small-A" not in PROTOCOLS
    assert len(PROTOCOLS) == 9


def test_class_selection_per_variant():
    manifest = big_manifest()
    assert protocol_class_names(manifest, "KS-Full") == tuple("abcdefgh")
    assert protocol_class_names(manifest, "KS-Large") == tuple("abcde")
    # The balanced variant keeps the same classes as the large one, only
    # the per-class sample count changes.
    assert protocol_class_names(manifest, "KS-Balanced") == tuple("abcde")
    assert protocol_class_names(manifest, "KS-Small-C") == tuple("fgh")
    assert protocol_class_names(manifest, "KS-Small-A") == tuple("fgh")
    assert protocol_class_names(manifest, "KSS-Balanced") == tuple("abcde")


def test_class_ranking_breaks_ties_by_table_order():
    spec = [("x", 10, 0), ("y", 10, 0), ("z", 10, 0), ("w", 10, 0)]
    manifest = DatasetManifest(
        records=make_records(spec),
        class_table=["x", "y", "z", "w"],
        child_percentage={"x": 50.0, "y": 80.0, "z": 50.0, "w": 20.0},
    )
    # y leads, then the tied x/z keep table order, then w.
    assert protocol_class_names(manifest, "KS-Small-C") == ("x", "z", "w")


def test_child_percentage_falls_back_to_record_counts():
    spec = [("p", 3, 1), ("q", 1, 3)]
    manifest = DatasetManifest(records=make_records(spec), class_table=["p", "q"])
    assert manifest.class_child_percentage("p") == pytest.approx(75.0)
    assert manifest.class_child_percentage("q") == pytest.approx(25.0)


def test_balanced_protocol_draws_exact_counts():
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Balanced", seed=7)
    counts = split_class_counts(split, manifest)
    assert counts == {name: 250 for name in "abcde"}
    assert len(split.train_ids) + len(split.test_ids) == 1250
    assert len(split.train_ids) == 5 * 187
    assert len(split.test_ids) == 5 * 63


def test_kss_balanced_uses_its_own_count():
    manifest = big_manifest(child_top=115)
    split = build_protocol(manifest, "KSS-Balanced", seed=1)
    counts = split_class_counts(split, manifest)
    assert counts == {name: 110 for name in "abcde"}
    assert len(split.train_ids) == 5 * 82
    assert len(split.test_ids) == 5 * 28


def test_small_protocols_select_performer():
    manifest = big_manifest()
    child = build_protocol(manifest, "KS-Small-C", seed=0)
    adult = build_protocol(manifest, "KS-Small-A", seed=0)
    assert child.class_names == adult.class_names == tuple("fgh")
    by_id = manifest.by_id()
    assert all(by_id[i].performer == "child" for i in child.train_ids + child.test_ids)
    assert all(by_id[i].performer == "adult" for i in adult.train_ids + adult.test_ids)
    assert len(child.train_ids) + len(child.test_ids) == 90
    assert len(adult.train_ids) + len(adult.test_ids) == 36


def test_full_and_large_use_every_child_sample():
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Large", seed=3)
    counts = split_class_counts(split, manifest)
    assert counts == {name: 260 for name in "abcde"}


def test_stratified_split_is_75_25_per_class():
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Full", seed=11)
    by_id = manifest.by_id()
    for name in split.class_names:
        train = sum(1 for i in split.train_ids if by_id[i].class_name == name)
        test = sum(1 for i in split.test_ids if by_id[i].class_name == name)
        total = train + test
        # floor semantics: the train part never exceeds three quarters.
        assert train == int(0.75 * total)
        assert abs(train - 0.75 * total) < 1.0


def test_split_parts_are_disjoint_and_unique():
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Balanced", seed=5)
    train = set(split.train_ids)
    test = set(split.test_ids)
    assert len(train) == len(split.train_ids)
    assert len(test) == len(split.test_ids)
    assert not train & test


def test_split_is_seed_deterministic():
    manifest = big_manifest()
    first = build_protocol(manifest, "KS-Balanced", seed=42)
    second = build_protocol(manifest, "KS-Balanced", seed=42)
    assert first == second
    other = build_protocol(manifest, "KS-Balanced", seed=43)
    assert other.train_ids != first.train_ids


def test_unstratified_split_pools_all_classes():
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Small-C", seed=2, stratified=False)
    total = len(split.train_ids) + len(split.test_ids)
    assert total == 90
    assert len(split.train_ids) == int(0.75 * total)


def test_insufficient_data_errors_name_the_problem():
    manifest = big_manifest(child_top=240)
    with pytest.raises(InsufficientDataError) as info:
        build_protocol(manifest, "KS-Balanced", seed=0)
    assert "240" in str(info.value) and "250" in str(info.value)

    spec = [(name, 5, 0) for name in "fgh"] + [(name, 20, 0) for name in "abcde"]
    no_adults = DatasetManifest(
        records=make_records(spec), class_table=list("abcdefgh"),
        child_percentage=dict(SHARES),
    )
    with pytest.raises(InsufficientDataError) as info:
        build_protocol(no_adults, "KS-Small-A", seed=0)
    assert "adult" in str(info.value)

    tiny = DatasetManifest(
        records=make_records([("only", 4, 0)]), class_table=["only"]
    )
    with pytest.raises(InsufficientDataError):
        protocol_class_names(tiny, "KS-Large")


def test_unknown_protocol_is_rejected():
    with pytest.raises(ConfigurationError):
        build_protocol(big_manifest(), "KSS-Small-A", seed=0)


def test_save_and_load_split_round_trip(tmp_path):
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Small-C", seed=9)
    save_split(split, tmp_path / "split", manifest)
    loaded = load_split(tmp_path / "split")
    assert loaded == split

    summary = json.loads((tmp_path / "split" / "summary.json").read_text())
    assert summary["protocol"] == "KS-Small-C"
    assert summary["seed"] == 9
    assert summary["train_count"] == len(split.train_ids)
    assert summary["class_counts"] == {"f": 30, "g": 30, "h": 30}


def test_load_split_tolerates_blank_lines(tmp_path):
    manifest = big_manifest()
    split = build_protocol(manifest, "KS-Small-C", seed=9)
    save_split(split, tmp_path / "split")
    train = tmp_path / "split" / "train.txt"
    train.write_text(train.read_text() + "\n\n")
    assert load_split(tmp_path / "split").train_ids == split.train_ids


def test_load_split_reports_missing_files(tmp_path):
    with pytest.raises(ConfigurationError):
        load_split(tmp_path / "nowhere")


def test_manifest_save_load_round_trip(tmp_path):
    manifest = big_manifest(child_top=4, child_bottom=3, adult_bottom=2)
    manifest.save(tmp_path / "manifest.json")
    loaded = DatasetManifest.load(tmp_path / "manifest.json")
    assert loaded.class_table == manifest.class_table
    assert loaded.layout == manifest.layout
    assert loaded.child_percentage == manifest.child_percentage
    assert loaded.records == manifest.records


def test_manifest_validation():
    record = ManifestRecord("s1", "a", "child", "/data/s1", (640, 480))
    clone = ManifestRecord("s1", "a", "child", "/data/s1b", (640, 480))
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[record, clone], class_table=["a"])
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[record], class_table=["b"])
    bad_performer = ManifestRecord("s2", "a", "robot", "/data/s2", (640, 480))
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[bad_performer], class_table=["a"])
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[], class_table=["a", "a"])
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[], class_table=["a"], layout="bones")
    with pytest.raises(ConfigurationError):
        DatasetManifest(
            records=[], class_table=["a"], child_percentage={"zz": 1.0}
        )


def record_entry(**overrides):
    entry = {"sample_id": "s1", "class_name": "a", "performer": "child",
             "keypoint_path": "/data/s1", "image_size": [640, 480], "fps": 30.0}
    entry.update(overrides)
    return entry


def test_relative_keypoint_paths_resolve_against_the_manifest(
        tmp_path, monkeypatch):
    data = tmp_path / "data"
    write_frames(data / "keypoints" / "s1", [[]])
    doc = {"classes": ["a"], "layout": COCO18,
           "records": [record_entry(keypoint_path="keypoints/s1"),
                       record_entry(sample_id="s2", keypoint_path="/abs/s2")]}
    (data / "manifest.json").write_text(json.dumps(doc))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    manifest = DatasetManifest.load("../data/manifest.json")
    first, second = manifest.records
    assert first.keypoint_path == "../data/keypoints/s1"
    assert second.keypoint_path == "/abs/s2"
    assert load_sequence(first, COCO18, target_frames=1).frame_count == 1


def test_manifest_rejects_bad_image_size_and_fps(tmp_path):
    path = tmp_path / "manifest.json"
    cases = [({"image_size": [0, -1]}, "image_size"),
             ({"image_size": [640]}, "image_size"),
             ({"image_size": [640, 480, 3]}, "image_size"),
             ({"image_size": [640.5, 480]}, "image_size"),
             ({"image_size": ["640", 480]}, "image_size"),
             ({"image_size": [True, 480]}, "image_size"),
             ({"fps": -3}, "fps"), ({"fps": 0}, "fps"),
             ({"fps": float("nan")}, "fps")]
    for overrides, name in cases:
        doc = {"classes": ["a"], "records": [record_entry(**overrides)]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=rf"records\[s1\]\.{name}"):
            DatasetManifest.load(path)
    path.write_text(json.dumps({"classes": ["a"], "records": [record_entry()]}))
    assert DatasetManifest.load(path).records[0].image_size == (640, 480)


def test_label_index_lookup():
    manifest = DatasetManifest(records=[], class_table=["x", "y"])
    assert manifest.label_index("y") == 1
    with pytest.raises(ConfigurationError):
        manifest.label_index("zz")


def test_manifest_load_rejects_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("not json")
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(path)
    path.write_text(json.dumps({"records": []}))
    with pytest.raises(ConfigurationError):
        DatasetManifest.load(path)
