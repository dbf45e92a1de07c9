"""Dataset manifests, protocol selection, and split persistence."""
import json
import re

import pytest

from helpers import record_entry, write_frames

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
    save_split(split, tmp_path / "split", manifest)
    train = tmp_path / "split" / "train.txt"
    train.write_text(train.read_text() + "\n\n")
    assert load_split(tmp_path / "split").train_ids == split.train_ids


def set_summary(key, value):
    def edit(directory):
        path = directory / "summary.json"
        summary = json.loads(path.read_text())
        summary[key] = value
        path.write_text(json.dumps(summary))
    return edit


def drop_summary_key(key):
    def edit(directory):
        path = directory / "summary.json"
        summary = json.loads(path.read_text())
        del summary[key]
        path.write_text(json.dumps(summary))
    return edit


def keep_first_id(part):
    def edit(directory):
        path = directory / part
        path.write_text(path.read_text().splitlines()[0] + "\n")
    return edit


def append_id(part, source):
    """Append to ``part`` the first id of ``source``."""
    def edit(directory):
        first = (directory / source).read_text().splitlines()[0]
        with open(directory / part, "a") as handle:
            handle.write(first + "\n")
    return edit


MALFORMED_SPLITS = {
    "classes-a-string": (set_summary("classes", "wave"), "classes"),
    "classes-repeated": (set_summary("classes", ["f", "g", "f"]), "classes"),
    "classes-not-strings": (set_summary("classes", ["f", 7, "h"]), "classes"),
    "seed-a-bool": (set_summary("seed", True), "seed"),
    "seed-a-string": (set_summary("seed", "9"), "seed"),
    "protocol-not-a-string": (set_summary("protocol", 5), "protocol"),
    "train-id-repeated": (append_id("train.txt", "train.txt"), "train.txt"),
    "test-id-repeated": (append_id("test.txt", "test.txt"), "test.txt"),
    "test-id-in-train": (append_id("train.txt", "test.txt"), "both"),
    "misspelled-key": (set_summary("protcol", "KS-Small-C"),
                       "summary.json: protcol: unknown field"),
    "protocol-absent": (drop_summary_key("protocol"),
                        "summary.json: protocol: required field is missing"),
    "train-cut-short": (keep_first_id("train.txt"),
                        "summary.json counts 66 ids in train.txt, which lists 1"),
}


@pytest.mark.parametrize("case", MALFORMED_SPLITS)
def test_load_split_rejects_a_malformed_split(case, tmp_path):
    edit, fragment = MALFORMED_SPLITS[case]
    manifest = big_manifest()
    save_split(build_protocol(manifest, "KS-Small-C", seed=9), tmp_path / "split",
               manifest)
    edit(tmp_path / "split")
    with pytest.raises(ConfigurationError, match=fragment):
        load_split(tmp_path / "split")


def test_load_split_reports_missing_files(tmp_path):
    with pytest.raises(ConfigurationError):
        load_split(tmp_path / "nowhere")


def test_manifest_validation():
    record = ManifestRecord("s1", "a", "child", "/data/s1", (640, 480))
    clone = ManifestRecord("s1", "a", "child", "/data/s1b", (640, 480))
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[record, clone], class_table=["a"])
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[record], class_table=["b"])
    # A record checks its own fields, naming each without a records[i] path.
    for performer, size, fps, message in [
            ("robot", (640, 480), 30.0, "performer: expected one of"),
            ("child", (0, 480), 30.0, "image_size: expected two positive integers"),
            ("child", (640, 480), -3.0, "fps: must be positive, got -3.0")]:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            ManifestRecord("s2", "a", performer, "/data/s2", size, fps)
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[], class_table=["a", "a"])
    with pytest.raises(ConfigurationError):
        DatasetManifest(records=[], class_table=["a"], layout="bones")
    with pytest.raises(ConfigurationError):
        DatasetManifest(
            records=[], class_table=["a"], child_percentage={"zz": 1.0}
        )


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
    assert load_sequence(first.keypoint_path, COCO18, target_frames=1).frame_count == 1


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
        with pytest.raises(ConfigurationError, match=rf"records\[0\]\.{name}"):
            DatasetManifest.load(path)
    path.write_text(json.dumps({"classes": ["a"], "records": [record_entry()]}))
    assert DatasetManifest.load(path).records[0].image_size == (640, 480)


def test_manifest_rejects_a_non_number_fps(tmp_path):
    path = tmp_path / "manifest.json"
    for fps in ["30", True, None, [30]]:
        doc = {"classes": ["a"], "records": [record_entry(fps=fps)]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError,
                           match=r"records\[0\]\.fps: expected float"):
            DatasetManifest.load(path)


# A value of another JSON type in each string field, and the field the
# error names. Converted with str(), each would have loaded or failed
# later under another message; "wave" made the four classes w, a, v, e.
NON_STRING_FIELDS = {
    "sample_id": ({"records": [record_entry(sample_id=7)]},
                  "records[0].sample_id: expected str"),
    "class_name": ({"records": [record_entry(class_name=["a"])]},
                   "records[0].class_name: expected str"),
    "performer": ({"records": [record_entry(performer=None)]},
                  "records[0].performer: expected str"),
    "keypoint_path": ({"records": [record_entry(keypoint_path=5)]},
                      "records[0].keypoint_path: expected str"),
    "layout": ({"layout": [COCO18]}, "layout: expected str"),
    "classes": ({"classes": "wave"}, "classes: expected a list"),
    "class_table_entry": ({"classes": ["a", 7]}, "classes[1]: expected str"),
}


@pytest.mark.parametrize("case", NON_STRING_FIELDS)
def test_manifest_load_rejects_a_field_that_is_not_a_string(case, tmp_path):
    edit, fragment = NON_STRING_FIELDS[case]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"classes": ["a"], "records": [record_entry()], **edit}))
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        DatasetManifest.load(path)


# A malformed records value, and the field the error names. Each failed
# naming no field, or, for the misspelled "fsp", loaded with fps 30.
MALFORMED_RECORDS = {
    "object": ({"sample_id": "s1"}, r"records: expected a list"),
    "string": ("abc", r"records: expected a list"),
    "record_list": ([record_entry(), ["s2", "a"]], r"records\[1\]: expected an object"),
    "image_size-a-number": ([record_entry(image_size=5)],
                            r"records\[0\]\.image_size: expected a list$"),
    "record-without-id": (
        [{key: value for key, value in record_entry().items() if key != "sample_id"}],
        r"records\[0\]\.sample_id: required field is missing$"),
    "misspelled-record-key": ([record_entry(fsp=25)],
                              r"records\[0\]\.fsp: unknown field$"),
}


@pytest.mark.parametrize("case", MALFORMED_RECORDS)
def test_manifest_load_names_a_malformed_records_field(case, tmp_path):
    records, message = MALFORMED_RECORDS[case]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"classes": ["a"], "records": records}))
    prefix = re.escape(f"manifest {path}: ")
    with pytest.raises(ConfigurationError, match=f"^{prefix}{message}"):
        DatasetManifest.load(path)


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
    path.write_text(json.dumps({"classes": ["a"]}))
    with pytest.raises(ConfigurationError, match="records: required field is missing"):
        DatasetManifest.load(path)
    path.write_text(json.dumps({"classes": ["a"], "records": [], "layuot": COCO18}))
    with pytest.raises(ConfigurationError, match="layuot: unknown field"):
        DatasetManifest.load(path)
