"""JSON documents read into dataclasses: run configs, manifests, split summaries.

The accepted keys of each object are the fields of its dataclass (a field
may name its JSON key with ``metadata={"key": ...}``), and each value is
checked against the field's annotation, so a new field needs no parser
change. Unknown keys, missing required keys, wrong types and non-finite
numbers are rejected with the offending field path. ``check_count``,
``check_non_negative`` and ``check_fraction`` are range rules that a config
field and a function handed the bare value both check, with one message.
"""
from __future__ import annotations

import functools
import json
import math
import os
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

from .errors import ConfigurationError


def check_count(name: str, value, error=ConfigurationError) -> None:
    """Reject setting ``name`` below 1, or NaN, with ``error``, a ConfigurationError."""
    if not value >= 1:
        raise error(f"{name}: must be at least 1")


def check_non_negative(name: str, value) -> None:
    """Reject setting ``name`` below 0, or NaN."""
    if not value >= 0:
        raise ConfigurationError(f"{name}: must be non-negative, got {value}")


def check_fraction(name: str, value) -> None:
    """Reject setting ``name`` outside [0, 1)."""
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name}: must lie in [0, 1), got {value}")


def read_text(path: str | Path, label: str) -> str:
    """The text of input file ``path``, the one read of every run config,
    manifest, split and predictions file. A missing file fails as ``<label>
    <path> does not exist``, any other as ``<label> <path>: <reason>``."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise ConfigurationError(f"{label} {path} does not exist") from None
    # ValueError covers bytes that do not decode.
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{label} {path}: {exc}") from exc


def read_document(cls, path: str | Path, label: str):
    """Read JSON file ``path`` into dataclass ``cls``. Every error, its
    ``__post_init__``'s too, reads ``<label> <path>: <field path>: <problem>``."""
    try:
        doc = json.loads(read_text(path, label), object_pairs_hook=unique_keys)
    # ValueError covers bad JSON syntax and a repeated key.
    except ValueError as exc:
        raise ConfigurationError(f"{label} {path}: {exc}") from exc
    try:
        return from_document(cls, doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{label} {path}: {exc}") from exc


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook that rejects a key repeated in one
    object, which ``json`` would otherwise resolve to the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def resolve_relative(base: Path, path: str | None) -> str | None:
    """A path from a JSON document, resolved against the document's
    directory; None, for a path the document leaves out, stays None."""
    return path if path is None or os.path.isabs(path) else os.path.join(base, path)


@functools.cache
def _fields(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, annotation, required) of dataclass ``cls``;
    cached, as resolving the annotations costs more than converting a record."""
    hints = typing.get_type_hints(cls)
    return {
        spec.metadata.get("key", spec.name): (
            spec.name, hints[spec.name],
            spec.default is MISSING and spec.default_factory is MISSING,
        )
        for spec in fields(cls)
    }


def from_document(cls, doc, path: str = ""):
    """Build dataclass ``cls`` from a JSON object; absent keys keep defaults.

    ``cls`` checks its own values in ``__post_init__``, naming the field;
    ``path``, the object's place in the document, goes in front.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: expected an object" if path
                                 else "expected an object")
    known = _fields(cls)
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in known:
            raise ConfigurationError(f"{prefix}{key}: unknown field")
    values = {}
    for key, (name, kind, required) in known.items():
        if key in doc:
            values[name] = _convert(kind, doc[key], prefix + key)
        elif required:
            raise ConfigurationError(f"{prefix}{key}: required field is missing")
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from exc


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
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path}: expected an object")
        return {key: _convert(args[1], item, f"{path}[{key}]")
                for key, item in value.items()}
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: expected a list")
        if origin is list or (len(args) == 2 and args[1] is Ellipsis):
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{path}: expected {len(args)} values")
        return origin(
            _convert(arg, item, f"{path}[{index}]")
            for index, (arg, item) in enumerate(zip(args, value))
        )
    # bool is an int subclass in Python but not a number in a config file.
    if isinstance(value, bool) and kind is not bool:
        raise ConfigurationError(f"{path}: expected {kind.__name__}")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not isinstance(value, kind):
        raise ConfigurationError(f"{path}: expected {kind.__name__}")
    # json.loads accepts NaN and Infinity; no float setting means either.
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(f"{path}: must be a finite number, got {value}")
    return value
