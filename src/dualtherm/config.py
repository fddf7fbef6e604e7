"""Strict JSON configuration for scenario runs.

The schema mirrors the config dataclasses one-to-one: top-level scalars plus
one JSON object per settings section, every key named exactly like the
corresponding dataclass field.  Unknown keys are rejected with a
closest-match suggestion; invariant violations surface as
:class:`ConfigError` naming the offending field path.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .scenarios import ScenarioConfig, ScenarioKind


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


#: the schema is ScenarioConfig's own: each field typed as a dataclass is a
#: section, every other field a top-level scalar
_TYPES: dict[str, type] = get_type_hints(ScenarioConfig)
_SECTIONS: dict[str, type] = {name: cls for name, cls in _TYPES.items() if is_dataclass(cls)}


def _suggest(key: str, known: list[str]) -> str:
    matches = difflib.get_close_matches(key, known, n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _show(key: str) -> str:
    # keys are echoed as written unless that would break the one-line message
    return key if key.isprintable() else repr(key)


def _number(path: str, value: Any) -> float:
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    # strict JSON has no NaN or Infinity, and no field means anything by them
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _coerce(path: str, value: Any, annotation: str) -> Any:
    if annotation == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return _number(path, value)
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if annotation.startswith("tuple[float"):
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
        return tuple(_number(f"{path}[{i}]", v) for i, v in enumerate(value))
    if annotation.startswith("tuple[str"):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{path}: expected a list of strings, got {value!r}")
        return tuple(value)
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _build_section(name: str, cls: type, data: Any) -> Any:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name}: expected an object")
    known = [f.name for f in fields(cls)]
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{_show(key)}{_suggest(key, known)}")
        annotation = next(f.type for f in fields(cls) if f.name == key)
        kwargs[key] = _coerce(f"{name}.{key}", value, annotation)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def scenario_config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed JSON object into a :class:`ScenarioConfig`."""
    if not isinstance(data, Mapping):
        raise ConfigError("top level: expected an object")
    known = list(_TYPES)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {_show(key)}{_suggest(key, known)}")
        if key in _SECTIONS:
            kwargs[key] = _build_section(key, _SECTIONS[key], value)
        elif key == "kind":
            if not isinstance(value, str):
                raise ConfigError(f"kind: expected a string, got {value!r}")
            try:
                kwargs[key] = ScenarioKind(value)
            except ValueError:
                valid = [k.value for k in ScenarioKind]
                raise ConfigError(f"kind: {value!r} is not one of {valid}{_suggest(value, valid)}") from None
        else:
            kwargs[key] = _coerce(key, value, _TYPES[key].__name__)
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        # malformed JSON, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return scenario_config_from_dict(data)


def default_config_dict(kind: str = "ramp") -> dict[str, Any]:
    """Fully populated configuration echoing the documented defaults."""
    config = ScenarioConfig(kind=ScenarioKind(kind))
    out: dict[str, Any] = {name: getattr(config, name) for name in _TYPES if name not in _SECTIONS}
    out["kind"] = config.kind.value
    for name, cls in _SECTIONS.items():
        section = getattr(config, name)
        entry: dict[str, Any] = {}
        for f in fields(cls):
            value = getattr(section, f.name)
            entry[f.name] = list(value) if isinstance(value, tuple) else value
        out[name] = entry
    return out
