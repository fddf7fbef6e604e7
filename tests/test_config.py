"""JSON config loading: defaults round trip, strict typing, key suggestions."""

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtherm.cli import main
from dualtherm.config import (
    _SECTIONS,
    ConfigError,
    default_config_dict,
    load_config,
    scenario_config_from_dict,
)
from dualtherm.scenarios import ScenarioConfig, ScenarioKind


ALL_KINDS = ("ramp", "precision_sweep", "bfield_artifact", "laser_modulation")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_default_dict_round_trips_to_default_config(kind):
    config = scenario_config_from_dict(default_config_dict(kind))
    assert config == ScenarioConfig(kind=ScenarioKind(kind))


def test_load_config_reads_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(default_config_dict("ramp")), encoding="utf-8")
    assert load_config(path) == ScenarioConfig(kind=ScenarioKind.RAMP)


def test_partial_config_keeps_defaults_elsewhere():
    config = scenario_config_from_dict(
        {"kind": "ramp", "seed": 99, "odmr": {"contrast": 0.2}}
    )
    assert config.seed == 99
    assert config.odmr.contrast == 0.2
    # untouched sections and fields stay at their dataclass defaults
    assert config.odmr.baseline_rate_cps == 5e8
    assert config.pl == ScenarioConfig().pl


def test_unknown_top_level_key_gets_a_suggestion():
    with pytest.raises(ConfigError, match=r"unknown key durations_s.*did you mean 'duration_s'"):
        scenario_config_from_dict({"kind": "ramp", "durations_s": 60})


def test_unknown_section_key_gets_a_suggestion():
    with pytest.raises(
        ConfigError, match=r"unknown key odmr\.baseline_rate.*did you mean 'baseline_rate_cps'"
    ):
        scenario_config_from_dict({"odmr": {"baseline_rate": 1e8}})


def test_unknown_kind_lists_valid_values():
    with pytest.raises(ConfigError, match=r"'rampp' is not one of.*ramp"):
        scenario_config_from_dict({"kind": "rampp"})
    with pytest.raises(ConfigError, match="kind: expected a string"):
        scenario_config_from_dict({"kind": 3})


def test_booleans_are_not_accepted_as_numbers():
    with pytest.raises(ConfigError, match="seed must be an integer, got True"):
        scenario_config_from_dict({"seed": True})
    with pytest.raises(ConfigError, match="duration_s must be a finite number, got True"):
        scenario_config_from_dict({"duration_s": True})
    with pytest.raises(ConfigError, match="odmr: sweep_points must be an integer >= 8, got True"):
        scenario_config_from_dict({"odmr": {"sweep_points": True}})


def test_numbers_are_not_accepted_as_booleans():
    with pytest.raises(ConfigError, match="noiseless must be true or false, got 1"):
        scenario_config_from_dict({"noiseless": 1})


def test_strings_are_not_accepted_as_numbers():
    with pytest.raises(ConfigError, match="duration_s must be a finite number, got '60'"):
        scenario_config_from_dict({"duration_s": "60"})
    with pytest.raises(ConfigError, match="odmr: contrast must be a finite number, got '0.1'"):
        scenario_config_from_dict({"odmr": {"contrast": "0.1"}})


def test_float_fields_accept_json_integers():
    config = scenario_config_from_dict({"duration_s": 60, "odmr": {"linewidth_mhz": 14}})
    assert config.duration_s == 60.0
    assert isinstance(config.duration_s, float)
    assert config.odmr.linewidth_mhz == 14.0
    assert isinstance(config.odmr.linewidth_mhz, float)


def test_tuple_of_floats_coerces_from_json_list():
    config = scenario_config_from_dict(
        {"precision": {"integration_times_s": [1, 3.0], "repetitions": 2}}
    )
    assert config.precision.integration_times_s == (1.0, 3.0)
    assert all(isinstance(v, float) for v in config.precision.integration_times_s)


def test_tuple_of_strings_coerces_from_json_list():
    config = scenario_config_from_dict({"precision": {"channels": ["nv", "siv"]}})
    assert config.precision.channels == ("nv", "siv")


def test_tuple_fields_reject_scalars_and_mixed_lists():
    with pytest.raises(ConfigError, match="precision: integration_times_s must be a list of numbers"):
        scenario_config_from_dict({"precision": {"integration_times_s": 1.0}})
    with pytest.raises(ConfigError, match="precision: integration_times_s must be a list of numbers"):
        scenario_config_from_dict({"precision": {"integration_times_s": [1.0, "x"]}})
    with pytest.raises(ConfigError, match="precision: channels must be a list of strings"):
        scenario_config_from_dict({"precision": {"channels": [1, 2]}})


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="odmr: expected an object"):
        scenario_config_from_dict({"odmr": 5})


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigError, match="top level: expected an object"):
        scenario_config_from_dict([1, 2, 3])


def test_invariant_violations_name_the_section():
    with pytest.raises(ConfigError, match="ramp: n_steps must be an integer >= 1"):
        scenario_config_from_dict({"ramp": {"n_steps": 0}})
    with pytest.raises(ConfigError, match=r"odmr: contrast must lie in \(0, 1\)"):
        scenario_config_from_dict({"odmr": {"contrast": 1.5}})


def test_repeated_precision_channel_is_a_config_error(tmp_path, capsys):
    # a repeated channel would run its sweep twice into one series
    with pytest.raises(ConfigError, match="precision: channels must not repeat a channel"):
        scenario_config_from_dict({"precision": {"channels": ["siv", "siv"]}})
    path = tmp_path / "sweep.json"
    sweep = {"integration_times_s": [0.1, 1.0, 10.0], "repetitions": 2, "channels": ["nv", "siv", "nv"]}
    path.write_text(json.dumps({"kind": "precision_sweep", "precision": sweep}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["scenario", "--config", str(path), "--out", str(out)]) == 3
    assert "channels must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_non_finite_and_out_of_range_numbers_are_rejected():
    with pytest.raises(ConfigError, match="duration_s must be a finite number, got inf"):
        scenario_config_from_dict({"duration_s": float("inf")})
    with pytest.raises(ConfigError, match="odmr: contrast must be a finite number, got nan"):
        scenario_config_from_dict({"odmr": {"contrast": float("nan")}})
    with pytest.raises(ConfigError, match="precision: integration_times_s must be a finite number, got inf"):
        scenario_config_from_dict({"precision": {"integration_times_s": [1.0, 10**400]}})
    # a window that spans no finite number of steps is refused before any
    # axis is built
    with pytest.raises(ConfigError, match="no finite number"):
        scenario_config_from_dict({"pl": {"window_start_nm": -1e308, "window_stop_nm": 1e308}})


def test_load_config_rejects_undecodable_text(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "ramp", "x": "\xff"}')
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        load_config(path)
    # json refuses integers past Python's digit limit with a plain ValueError
    path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


# -- fuzzing ------------------------------------------------------------------

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # past float range, past the 64-bit seed range, negative
    st.sampled_from([10**400, -(10**400), 2**64, -1, 0]),
    st.floats(),
    st.text(max_size=6),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _section_dicts(cls: type) -> st.SearchStrategy:
    # mostly the section's own field names, so values reach the validators
    names = st.sampled_from([f.name for f in fields(cls)]) | st.text(max_size=6)
    return st.dictionaries(names, _json_values, max_size=4)


_config_dicts = st.fixed_dictionaries(
    {},
    optional={
        **{name: _json_values for name in ("kind", "seed", "duration_s", "sample_period_s", "noiseless")},
        **{name: _section_dicts(cls) | _json_values for name, cls in _SECTIONS.items()},
    },
)
_config_inputs = _config_dicts | _json_values | st.dictionaries(st.text(max_size=10), _json_values, max_size=3)


def _cli_scenario(text: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["scenario", "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    return code, err.getvalue()


def _assert_one_line_config_error(code: int, err: str) -> None:
    assert code == 3, err
    assert err.startswith("config error: ") and err.endswith("\n"), err
    assert len(err.splitlines()) == 1, err


@FUZZ
@given(data=_config_inputs)
def test_fuzzed_configs_are_accepted_or_rejected_with_a_config_error(data):
    """Any JSON value either validates or ends as one ``ConfigError`` line, exit 3.

    A config that validates is not run: it may describe an arbitrarily long
    session.
    """
    try:
        scenario_config_from_dict(data)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1, str(exc)
    else:
        return
    _assert_one_line_config_error(*_cli_scenario(json.dumps(data).encode()))


@FUZZ
@given(text=st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
def test_fuzzed_config_files_are_accepted_or_rejected_with_a_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(text)
        try:
            load_config(path)
        except ConfigError:
            pass
        else:
            return
    _assert_one_line_config_error(*_cli_scenario(text))
