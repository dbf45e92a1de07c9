"""Run configuration file parsing."""
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import pytest

from skelact import (
    AugmentConfig,
    ConfigurationError,
    ModelConfig,
    MoveParams,
    Tensor,
    TrainConfig,
    build_protocol,
    load_run_config,
)
from skelact.config import check_non_negative, from_document
from skelact.train import SGD


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc():
    return {"manifest": "data/manifest.json"}


def test_defaults_fill_missing_sections(tmp_path):
    config = load_run_config(write_config(tmp_path, minimal_doc()))
    assert config.model == ModelConfig()
    assert config.train == TrainConfig()
    assert config.manifest == str(tmp_path / "data/manifest.json")


def test_relative_paths_resolve_against_the_file(tmp_path):
    nested = tmp_path / "configs"
    nested.mkdir()
    doc = minimal_doc()
    doc["train"] = {"mode": "fine_tune",
                    "source_checkpoint": "weights/base.ckpt"}
    config = load_run_config(write_config(nested, doc))
    assert config.manifest == str(nested / "data/manifest.json")
    assert config.train.source_checkpoint == str(nested / "weights/base.ckpt")

    doc["manifest"] = "/abs/manifest.json"
    doc["train"]["source_checkpoint"] = "/abs/base.ckpt"
    config = load_run_config(write_config(nested, doc, "abs.json"))
    assert config.manifest == "/abs/manifest.json"
    assert config.train.source_checkpoint == "/abs/base.ckpt"


def test_full_document_round_trip(tmp_path):
    doc = {
        "manifest": "m.json",
        "model": {
            "layout": "BODY25",
            "person_slots": 1,
            "target_frames": 64,
            "person_pool": "sum",
            "zero_confidence": True,
            "dropout": 0.5,
            "channel_plan": [[16, 1], [32, 2]],
            "seed": 7,
        },
        "train": {
            "mode": "vanilla",
            "base_lr": 0.05,
            "decay_boundaries": [5, 9],
            "decay_factor": 0.5,
            "batch_size": 8,
            "epochs": 12,
            "seed": 3,
            "momentum": 0.9,
            "weight_decay": 0.0001,
            "augmentation": {
                "window": True,
                "window_size": 48,
                "window_pad_position": "head",
                "move": True,
                "move_params": {"rotation": 0.3, "scale_min": 0.9,
                                "scale_max": 1.1, "translation": 0.1,
                                "anchors": 4},
                "subsample": True,
                "drop_rate": 0.25,
            },
        },
    }
    config = load_run_config(write_config(tmp_path, doc))
    assert config.model.layout == "BODY25"
    assert config.model.channel_plan == ((16, 1), (32, 2))
    assert config.model.person_pool == "sum"
    assert config.train.decay_boundaries == (5, 9)
    assert config.train.momentum == 0.9
    augmentation = config.train.augmentation
    assert augmentation.window_size == 48
    assert augmentation.window_pad_position == "head"
    assert augmentation.move_params.anchors == 4
    assert augmentation.drop_rate == 0.25
    assert augmentation.enabled()


def test_every_field_round_trips_with_a_non_default_value(tmp_path):
    model = ModelConfig(layout="BODY25", person_slots=1, target_frames=64,
                        person_pool="sum", zero_confidence=True, dropout=0.5,
                        channel_plan=((16, 1), (32, 2)),
                        seed=7)
    move = MoveParams(rotation=0.3, scale_min=0.8, scale_max=1.2,
                      translation=0.2, anchors=4)
    augmentation = AugmentConfig(window=True, window_size=48,
                                 window_pad_position="head", move=True,
                                 move_params=move, subsample=True,
                                 drop_rate=0.25)
    train = TrainConfig(mode="fine_tune", base_lr=0.05, decay_boundaries=(5, 9),
                        decay_factor=0.5, batch_size=8, epochs=12, seed=3,
                        momentum=0.9, weight_decay=0.0001,
                        source_checkpoint=str(tmp_path / "base.ckpt"),
                        augmentation=augmentation)
    covered = ((ModelConfig(), (model,)), (TrainConfig(), (train,)),
               (AugmentConfig(), (augmentation,)), (MoveParams(), (move,)))
    for default, values in covered:
        for spec in fields(default):
            assert any(getattr(value, spec.name) != getattr(default, spec.name)
                       for value in values), spec.name
    doc = {"manifest": "m.json", "model": asdict(model),
           "train": dict(asdict(train), source_checkpoint="base.ckpt")}
    config = load_run_config(write_config(tmp_path, doc))
    assert config.model == model
    assert config.train == train


def test_a_new_dataclass_field_loads_with_no_parser_edit():
    @dataclass
    class WarmupTrainConfig(TrainConfig):
        warmup_epochs: int = 0
        warmup_lrs: tuple[float, ...] = ()

    parsed = from_document(
        WarmupTrainConfig,
        {"warmup_epochs": 2, "warmup_lrs": [1, 0.5], "base_lr": 0.1},
        "config.train",
    )
    assert parsed == WarmupTrainConfig(warmup_epochs=2, warmup_lrs=(1.0, 0.5),
                                       base_lr=0.1)
    with pytest.raises(ConfigurationError,
                       match=r"config\.train\.warmup_lrs\[1\]: expected float"):
        from_document(WarmupTrainConfig, {"warmup_lrs": [1, "x"]},
                      "config.train")


def test_lists_objects_and_renamed_keys_load():
    @dataclass
    class Table:
        names: list[str] = field(default_factory=list, metadata={"key": "classes"})
        shares: dict[str, float] = field(default_factory=dict)

    assert (from_document(Table, {"classes": ["a"], "shares": {"a": 1}})
            == Table(["a"], {"a": 1.0}))
    with pytest.raises(ConfigurationError, match=r"^shares\[a\]: expected float$"):
        from_document(Table, {"shares": {"a": "x"}})
    with pytest.raises(ConfigurationError, match=r"^names: unknown field$"):
        from_document(Table, {"names": []})


def test_integers_are_accepted_for_float_fields(tmp_path):
    doc = minimal_doc()
    doc["train"] = {"base_lr": 1, "weight_decay": 0}
    config = load_run_config(write_config(tmp_path, doc))
    assert config.train.base_lr == 1.0
    assert isinstance(config.train.base_lr, float)


def test_unknown_fields_name_their_path(tmp_path):
    doc = minimal_doc()
    doc["train"] = {"learning_rate": 0.1}
    with pytest.raises(ConfigurationError, match=r"\.json: train\.learning_rate"):
        load_run_config(write_config(tmp_path, doc))
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigurationError, match=r"\.json: extra"):
        load_run_config(write_config(tmp_path, doc, "b.json"))
    doc = minimal_doc()
    doc["model"] = {"vertex_count": 18}
    with pytest.raises(ConfigurationError, match=r"\.json: model\.vertex_count"):
        load_run_config(write_config(tmp_path, doc, "c.json"))
    doc = minimal_doc()
    doc["train"] = {"augmentation": {"windows": True}}
    with pytest.raises(ConfigurationError,
                       match=r"\.json: train\.augmentation\.windows"):
        load_run_config(write_config(tmp_path, doc, "d.json"))


def test_type_errors_name_their_path(tmp_path):
    cases = [
        ({"model": {"layout": 18}}, r"\.json: model\.layout"),
        ({"model": {"person_slots": "two"}}, r"\.json: model\.person_slots"),
        ({"model": {"zero_confidence": "yes"}},
         r"\.json: model\.zero_confidence"),
        ({"train": {"base_lr": "fast"}}, r"\.json: train\.base_lr"),
        ({"train": {"decay_boundaries": [5, "x"]}},
         r"\.json: train\.decay_boundaries"),
        ({"train": {"augmentation": {"drop_rate": "half"}}},
         r"\.json: train\.augmentation\.drop_rate"),
        ({"train": {"source_checkpoint": 3}},
         r"\.json: train\.source_checkpoint"),
        ({"train": {"augmentation": {"move_params": {"anchors": 2.5}}}},
         r"move_params\.anchors"),
    ]
    for index, (section, pattern) in enumerate(cases):
        doc = minimal_doc()
        doc.update(section)
        with pytest.raises(ConfigurationError, match=pattern):
            load_run_config(write_config(tmp_path, doc, f"case{index}.json"))


def test_booleans_are_not_integers(tmp_path):
    doc = minimal_doc()
    doc["train"] = {"epochs": True}
    with pytest.raises(ConfigurationError, match=r"\.json: train\.epochs"):
        load_run_config(write_config(tmp_path, doc))
    doc = minimal_doc()
    doc["train"] = {"decay_boundaries": [True]}
    with pytest.raises(ConfigurationError):
        load_run_config(write_config(tmp_path, doc, "b.json"))


def test_channel_plan_shape_is_checked(tmp_path):
    for index, plan in enumerate(([], [[16]], [[16, 1, 1]], [["a", 1]],
                                  [[16, True]], "deep")):
        doc = minimal_doc()
        doc["model"] = {"channel_plan": plan}
        with pytest.raises(ConfigurationError, match=r"channel_plan"):
            load_run_config(write_config(tmp_path, doc, f"plan{index}.json"))


def test_values_are_validated_after_parsing(tmp_path):
    doc = minimal_doc()
    doc["train"] = {"base_lr": -0.5}
    with pytest.raises(ConfigurationError, match=r"base_lr"):
        load_run_config(write_config(tmp_path, doc))
    doc = minimal_doc()
    doc["model"] = {"person_pool": "max"}
    with pytest.raises(ConfigurationError, match=r"person_pool"):
        load_run_config(write_config(tmp_path, doc, "b.json"))
    doc = minimal_doc()
    doc["train"] = {"augmentation": {"window_pad_position": "center"}}
    with pytest.raises(ConfigurationError, match=r"window_pad_position"):
        load_run_config(write_config(tmp_path, doc, "c.json"))


NON_NEGATIVE_SITES = {
    "model-seed": ("seed", lambda v: ModelConfig(seed=v)),
    "train-seed": ("seed", lambda v: TrainConfig(seed=v)),
    "protocol-seed": ("seed", lambda v: build_protocol(None, "KS-Full", seed=v)),
    "weight_decay": ("weight_decay", lambda v: SGD([], weight_decay=v)),
    "lr": ("lr", lambda v: SGD([Tensor([1.0], trainable=True)]).step(v)),
    "rotation": ("rotation", lambda v: MoveParams(rotation=v)),
    "translation": ("translation", lambda v: MoveParams(translation=v)),
}


def test_check_non_negative_rejects_a_negative_value_or_nan():
    for value in (0, 0.0, 5, math.inf):
        check_non_negative("x", value)
    for value in (-1, -1e-9, -math.inf, math.nan):
        with pytest.raises(ConfigurationError) as raised:
            check_non_negative("x", value)
        assert str(raised.value) == f"x: must be non-negative, got {value}"


@pytest.mark.parametrize("site", NON_NEGATIVE_SITES)
def test_each_non_negative_setting_rejects_a_negative_value_and_nan(site):
    name, build = NON_NEGATIVE_SITES[site]
    for value in (-1, math.nan):
        with pytest.raises(ConfigurationError) as raised:
            build(value)
        assert str(raised.value) == f"{name}: must be non-negative, got {value}"


def test_document_level_errors(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ConfigurationError):
        load_run_config(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_run_config(broken)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        load_run_config(array)
    with pytest.raises(ConfigurationError, match=r"\.json: manifest"):
        load_run_config(write_config(tmp_path, {"model": {}}))
    with pytest.raises(ConfigurationError, match=r"\.json: manifest"):
        load_run_config(write_config(tmp_path, {"manifest": 5}, "b.json"))
    with pytest.raises(ConfigurationError, match=r"\.json: model"):
        load_run_config(write_config(tmp_path, {"manifest": "m", "model": 5},
                                     "c.json"))


def test_augmentation_defaults_stay_disabled(tmp_path):
    doc = minimal_doc()
    doc["train"] = {"augmentation": {}}
    config = load_run_config(write_config(tmp_path, doc))
    assert config.train.augmentation == AugmentConfig()
    assert not config.train.augmentation.enabled()
