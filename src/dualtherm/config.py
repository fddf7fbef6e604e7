"""Strict JSON configuration for scenario runs.

The schema mirrors the config dataclasses one-to-one: top-level scalars plus
one JSON object per settings section, every key named exactly like the
corresponding dataclass field.  This module only maps JSON objects onto the
classes, which check each field's type and bound (``forward.Settings``).
Unknown keys are rejected with a closest-match suggestion; every refusal
surfaces as :class:`ConfigError` naming the offending field path.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Mapping

from .forward import declared_fields
from .scenarios import ScenarioConfig, ScenarioKind


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


#: the sections: the fields of ScenarioConfig typed as a dataclass
_SECTIONS: dict[str, type] = {name: hint for name, hint, _ in declared_fields(ScenarioConfig) if is_dataclass(hint)}


def _suggest(key: str, known: list[str]) -> str:
    matches = difflib.get_close_matches(key, known, n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _kind(value: Any) -> ScenarioKind:
    if not isinstance(value, str):
        raise ConfigError(f"kind: expected a string, got {value!r}")
    try:
        return ScenarioKind(value)
    except ValueError:
        valid = [k.value for k in ScenarioKind]
        raise ConfigError(f"kind: {value!r} is not one of {valid}{_suggest(value, valid)}") from None


def _build(path: str, cls: type, data: Any) -> Any:
    """``cls`` built from the JSON object ``data`` found at ``path``, which is empty at the top level."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    prefix = f"{path}." if path else ""
    types = {name: hint for name, hint, _ in declared_fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in types:
            # keys are echoed as written unless that would break the one-line message
            shown = key if key.isprintable() else repr(key)
            raise ConfigError(f"unknown key {prefix}{shown}{_suggest(key, list(types))}")
        if is_dataclass(types[key]):
            value = _build(prefix + key, types[key], value)
        elif types[key] is ScenarioKind:
            value = _kind(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def scenario_config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed JSON object into a :class:`ScenarioConfig`."""
    return _build("", ScenarioConfig, data)


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
    """Fully populated configuration echoing the documented defaults, as the JSON that loads it."""
    defaults = asdict(ScenarioConfig(kind=ScenarioKind(kind)))
    return json.loads(json.dumps(defaults, default=lambda member: member.value))
