"""Run configuration files: one JSON document driving train and eval.

Shape:

    {
      "manifest": "path/to/manifest.json",
      "model": { ... ModelConfig fields ... },
      "train": { ... TrainConfig fields, "augmentation": {...} ... }
    }

The accepted keys of each object are the fields of its dataclass, and each
value is checked against the field's annotation, so a new field needs no
parser change. Relative paths inside the file resolve against the file's
own directory. Unknown keys and wrong types are rejected with the
offending field path.
"""
from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigurationError
from .manifest import resolve_relative
from .model import ModelConfig
from .train import TrainConfig


@dataclass
class RunConfig:
    manifest: str
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.model.validate()
        self.train.validate()


def from_document(cls, doc, path: str):
    """Build dataclass ``cls`` from a JSON object; absent keys keep defaults."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected an object")
    known = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown field")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, spec in known.items():
        if name in doc:
            values[name] = _convert(hints[name], doc[name], f"{path}.{name}")
        elif spec.default is MISSING and spec.default_factory is MISSING:
            raise ConfigurationError(f"{path}.{name}: required field is missing")
    return cls(**values)


def _convert(kind, value, path: str):
    """Check one JSON value against a field annotation and convert it."""
    if is_dataclass(kind):
        return from_document(kind, value, path)
    origin = typing.get_origin(kind)
    args = typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _convert(inner, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: expected a list")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{path}: expected {len(args)} values")
        return tuple(
            _convert(arg, item, f"{path}[{index}]")
            for index, (arg, item) in enumerate(zip(args, value))
        )
    # bool is an int subclass in Python but not a number in a config file.
    if isinstance(value, bool) and kind is not bool:
        raise ConfigurationError(f"{path}: expected {kind.__name__}")
    if kind is float and isinstance(value, int):
        return float(value)
    if not isinstance(value, kind):
        raise ConfigurationError(f"{path}: expected {kind.__name__}")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config {path}: {exc}") from exc
    config = from_document(RunConfig, doc, "config")
    base = path.parent
    config.manifest = resolve_relative(base, config.manifest)
    source = config.train.source_checkpoint
    if source is not None:
        config.train.source_checkpoint = resolve_relative(base, source)
    config.validate()
    return config
