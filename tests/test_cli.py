"""End-to-end command-line checks driven through ``main(argv)`` in process."""

import json

import pytest

from dualtherm import (
    ScenarioConfig,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
)
from dualtherm.cli import main
from dualtherm.config import default_config_dict
from dualtherm.records import CSV_HEADER, format_number


def _write_config(tmp_path, name="config.json", **overrides):
    data = default_config_dict(overrides.pop("kind", "ramp"))
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("simulate", "fit", "scenario", "sensitivity", "crossval"):
        assert name in out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["simulate", "--channel", "odmr", "--bogus"]) == 2


def test_simulate_odmr_csv_shape(capsys):
    assert main(["simulate", "--channel", "odmr", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "freq_MHz,counts"
    assert len(lines) == 1 + 201
    first_axis = float(lines[1].split(",")[0])
    last_axis = float(lines[-1].split(",")[0])
    assert (first_axis, last_axis) == (2820.0, 2920.0)


def test_simulate_pl_csv_shape(capsys):
    assert main(["simulate", "--channel", "pl", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "wavelength_nm,counts"
    assert len(lines) == 1 + 451


def test_simulate_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    for path, seed in zip(paths, ("7", "7", "8")):
        assert main(["simulate", "--channel", "odmr", "--seed", seed, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_simulate_noiseless_json_places_dip_at_calibration(capsys):
    code = main(["simulate", "--channel", "odmr", "--noiseless", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["axis_kind"] == "freq_MHz"
    assert len(payload["axis"]) == len(payload["counts"]) == 201
    # default temperature 25 degC sits exactly on the 2870 MHz grid point
    dip_index = min(range(201), key=lambda i: payload["counts"][i])
    assert payload["axis"][dip_index] == 2870.0


@pytest.mark.parametrize("channel", ["odmr", "pl"])
def test_simulate_noiseless_prints_the_forward_model(channel, capsys):
    assert main(["simulate", "--channel", channel, "--noiseless", "--temperature", "41.5"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    cfg = ScenarioConfig()
    if channel == "odmr":
        axis = cfg.odmr.axis()
        model = cfg.odmr.model(nv_resonance_of_temperature(cfg.nv_cal, 41.5))
        expected = odmr_expected_counts(model, axis, cfg.odmr.sweep_time_s / axis.size)
    else:
        axis = cfg.pl.axis()
        model = cfg.pl.model(*siv_zpl_of_temperature(cfg.siv_cal, 41.5))
        expected = pl_expected_counts(model, axis, cfg.pl.exposure_s)
    assert lines == [f"{format_number(a)},{format_number(c)}" for a, c in zip(axis, expected)]


def test_fit_recovers_noiseless_odmr_center(tmp_path, capsys):
    spectrum = tmp_path / "odmr.csv"
    assert main(["simulate", "--channel", "odmr", "--noiseless", "--out", str(spectrum)]) == 0
    assert main(["fit", "--input", str(spectrum), "--kind", "odmr", "--n-dips", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["n_dips"] == 1
    assert payload["params"]["center_1"] == pytest.approx(2870.0, abs=1e-6)
    assert payload["params"]["fwhm_1"] == pytest.approx(12.0, abs=1e-6)


def test_fit_auto_keeps_one_dip_on_clean_data(tmp_path, capsys):
    spectrum = tmp_path / "odmr.csv"
    assert main(["simulate", "--channel", "odmr", "--seed", "3", "--out", str(spectrum)]) == 0
    assert main(["fit", "--input", str(spectrum), "--kind", "odmr"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_dips"] == 1


def test_fit_recovers_noiseless_pl_center(tmp_path, capsys):
    spectrum = tmp_path / "pl.csv"
    assert main(["simulate", "--channel", "pl", "--noiseless", "--out", str(spectrum)]) == 0
    assert main(["fit", "--input", str(spectrum), "--kind", "pl"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    # the 637 nm line's in-window tail pulls the fitted center blue by ~1e-4 nm
    assert payload["params"]["center"] == pytest.approx(737.0, abs=5e-4)
    assert "n_dips" not in payload


def test_fit_rejects_single_column_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("axis\n1.0\n2.0\n", encoding="utf-8")
    assert main(["fit", "--input", str(bad), "--kind", "odmr"]) == 4
    assert "expected at least 2 columns" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad_count,message",
    [("nan", "counts must be finite, got nan"), ("inf", "counts must be finite, got inf"), (None, "no data rows")],
)
def test_fit_rejects_non_finite_or_empty_input(tmp_path, capsys, bad_count, message):
    spectrum = tmp_path / "odmr.csv"
    assert main(["simulate", "--channel", "odmr", "--seed", "3", "--out", str(spectrum)]) == 0
    lines = spectrum.read_text(encoding="utf-8").splitlines()
    if bad_count is None:
        lines = lines[:1]
    else:
        lines[100] = lines[100].split(",")[0] + "," + bad_count
    spectrum.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", "--input", str(spectrum), "--kind", "odmr"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_scenario_requires_config(capsys):
    assert main(["scenario"]) == 3
    assert "scenario requires --config" in capsys.readouterr().err


def test_scenario_rejects_broken_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["scenario", "--config", str(path)]) == 3
    assert "config error" in capsys.readouterr().err


def test_scenario_ramp_writes_record_csv(tmp_path):
    config = _write_config(tmp_path, ramp={"n_steps": 3})
    out = tmp_path / "records.csv"
    assert main(["scenario", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3


def test_scenario_seed_flag_overrides_config(tmp_path):
    config = _write_config(tmp_path, ramp={"n_steps": 2})
    outputs = []
    for name, seed in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        assert main(["scenario", "--config", config, "--seed", seed, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_precision_sweep_requires_out(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        kind="precision_sweep",
        precision={"integration_times_s": [0.1], "repetitions": 2},
    )
    assert main(["scenario", "--config", config]) == 4
    assert "pass --out" in capsys.readouterr().err


def test_precision_sweep_writes_series(tmp_path):
    config = _write_config(
        tmp_path,
        kind="precision_sweep",
        precision={"integration_times_s": [0.1], "repetitions": 2},
    )
    out = tmp_path / "series.csv"
    assert main(["scenario", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "channel,integration_time_s,sigma_T_C"
    assert len(lines) == 2
    assert lines[1].startswith("siv,0.1,")


def test_sensitivity_reports_default_figure(capsys):
    assert main(["sensitivity"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sensitivity_k_per_sqrt_hz"] == pytest.approx(0.428550977, rel=1e-9)
    assert payload["contrast"] == 0.12
    assert payload["photon_rate_cps"] == 1e7


def test_sensitivity_rejects_nonpositive_inputs(capsys):
    assert main(["sensitivity", "--contrast", "0"]) == 4
    assert "error" in capsys.readouterr().err


def test_crossval_reports_regression_and_windows(tmp_path, capsys):
    # 40 ramp records: two complete 20-sample monitor windows
    config = _write_config(tmp_path, seed=3, ramp={"n_steps": 40})
    records = tmp_path / "ramp.csv"
    assert main(["scenario", "--config", config, "--out", str(records)]) == 0
    assert main(["crossval", "--input", str(records), "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_records"] == 40
    assert payload["expected_slope_nm_per_mhz"] == pytest.approx(-0.113836563, rel=1e-6)
    assert payload["r_squared"] > 0.9
    assert abs(payload["slope_z"]) < 4.0
    assert payload["windows"]["count"] == 2
    assert payload["windows"]["flagged"] == 0
    verdict = payload["windows"]["verdicts"][0]
    assert verdict["flagged"] is False
    assert isinstance(verdict["reason"], str)
    assert verdict["window_end_s"] > verdict["window_start_s"]


@pytest.mark.parametrize("n_records", [None, 2])
def test_crossval_without_a_regression_line_reports_windows(tmp_path, capsys, n_records):
    # noiseless field-off run: every record has the same NV frequency
    config = tmp_path / "config.json"
    config.write_text('{"kind":"bfield_artifact","noiseless":true,"duration_s":45}', encoding="utf-8")
    records = tmp_path / "records.csv"
    assert main(["scenario", "--config", str(config), "--out", str(records)]) == 0
    if n_records is not None:
        lines = records.read_text(encoding="utf-8").splitlines()
        records.write_text("\n".join(lines[: 1 + n_records]) + "\n", encoding="utf-8")
    assert main(["crossval", "--input", str(records), "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_records"] == (n_records or 30)
    assert payload["expected_slope_nm_per_mhz"] == pytest.approx(-0.113836563, rel=1e-6)
    for key in ("slope_nm_per_mhz", "intercept_nm", "r_squared", "slope_z"):
        assert payload[key] is None
    assert payload["windows"]["count"] == (0 if n_records else 1)
    assert payload["windows"]["flagged"] == 0


def test_crossval_missing_input_is_io_error(tmp_path, capsys):
    assert main(["crossval", "--input", str(tmp_path / "absent.csv")]) == 4
    assert "i/o error" in capsys.readouterr().err
