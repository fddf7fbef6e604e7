"""End-to-end command-line checks driven through ``main(argv)`` in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualtherm
from dualtherm import (
    AxisKind,
    OdmrModel,
    PlSettings,
    ScenarioConfig,
    SpectrumTrace,
    fit_pl_peak,
    fitting,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
)
from dualtherm.cli import main
from dualtherm.config import default_config_dict
from dualtherm.records import CSV_HEADER, format_number, parse_records_csv


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
        # at zero field the Zeeman pair is one dip of the full contrast
        dip = (nv_resonance_of_temperature(cfg.nv_cal, 41.5), cfg.odmr.linewidth_mhz, cfg.odmr.contrast)
        model = OdmrModel(cfg.odmr.baseline_rate_cps, (dip,))
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


def test_fit_of_two_dips_on_a_field_off_spectrum_reads_not_converged(tmp_path, capsys):
    """Forced to two dips, one 12 MHz line is no Zeeman pair, and the fit gives it up at the patience.

    Fitted in full, seed 6 ran to a second dip of 0.1 MHz on a 0.5 MHz
    sample step, a single bin, not a line, and seed 4 took all
    ``MAX_ITERATIONS`` to a dip 197 MHz wide on a 100 MHz sweep.
    """
    spectrum = tmp_path / "odmr.csv"
    for seed in ("6", "4"):
        assert main(["simulate", "--channel", "odmr", "--seed", seed, "--out", str(spectrum)]) == 0
        assert main(["fit", "--input", str(spectrum), "--kind", "odmr", "--n-dips", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] <= fitting._PATIENCE + 1, seed
        assert payload["converged"] is False, seed


def test_a_scenario_run_leaves_numpy_ma_unimported(tmp_path):
    """``np.median`` imports ``numpy.ma`` on its first call, a cost of every cold start; no stage calls it."""
    config = _write_config(tmp_path, kind="bfield_artifact", duration_s=30.0, bfield={"b_max_mt": 0.5})
    code = (
        "import sys; from dualtherm.cli import main; "
        f"assert main(['scenario', '--config', {config!r}, '--out', {str(tmp_path / 'records.csv')!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(dualtherm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


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


@pytest.mark.parametrize(
    "kind,axis,count",
    [
        ("odmr", [2820.0 + 0.5 * k for k in range(201)], 1000.0),
        ("odmr", [2820.0 + 0.5 * k for k in range(201)], 0.0),
        ("odmr", [2820.0 + 100.0 * k / 7 for k in range(8)], 1000.0),
        ("pl", [715.0 + 0.1 * k for k in range(451)], 5.0),
    ],
)
def test_fit_of_a_flat_spectrum_reports_json(tmp_path, capsys, kind, axis, count):
    """A flat trace has its only half-prominence crossing at the extremum; the start width must not be 0."""
    spectrum = tmp_path / "flat.csv"
    spectrum.write_text("axis,counts\n" + "".join(f"{a!r},{count!r}\n" for a in axis), encoding="utf-8")
    assert main(["fit", "--input", str(spectrum), "--kind", kind]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"converged", "params", "std_errors"}
    # an exact fit leaves no residual to scale by, not zero uncertainty
    assert all(sigma > 0 for sigma in payload["std_errors"].values()), payload["std_errors"]


def test_fit_of_counts_too_large_for_a_covariance_reports_no_convergence(tmp_path, capsys):
    """At 1e300 counts per bin the covariance diagonal is NaN: the fit reports that, it does not raise."""
    axis = PlSettings().axis()
    fit = fit_pl_peak(SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, np.full(axis.size, 1e300)))
    assert fit.converged is False
    spectrum = tmp_path / "huge.csv"
    spectrum.write_text("axis,counts\n" + "".join(f"{a!r},1e300\n" for a in axis.tolist()), encoding="utf-8")
    assert main(["fit", "--input", str(spectrum), "--kind", "pl"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False
    assert payload["std_errors"] == dict.fromkeys(("center", "fwhm", "amplitude", "background"))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--channel", "odmr", "--temperature", "nan"],
        ["sensitivity", "--contrast", "nan"],
        ["sensitivity", "--linewidth-mhz", "inf"],
        ["sensitivity", "--photon-rate-cps", "1e400"],
        ["sensitivity", "--dddt-mhz-per-k=-Infinity"],
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and "expected a finite number" in errors[0]


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


#: one run of every kind of result; ``{name}`` is a file the test makes first
_PRINTED_RUNS = {
    "simulate-csv": ["simulate", "--channel", "odmr", "--seed", "3"],
    "simulate-json": ["simulate", "--channel", "pl", "--seed", "3", "--format", "json"],
    "fit": ["fit", "--input", "{spectrum}", "--kind", "odmr"],
    "scenario-csv": ["scenario", "--config", "{ramp}"],
    "scenario-json": ["scenario", "--config", "{ramp}", "--format", "json"],
    "precision-csv": ["scenario", "--config", "{precision}"],
    "precision-json": ["scenario", "--config", "{precision}", "--format", "json"],
    "sensitivity": ["sensitivity"],
    "crossval": ["crossval", "--input", "{records}", "--config", "{ramp}"],
}


@pytest.mark.parametrize("run", list(_PRINTED_RUNS))
def test_stdout_bytes_equal_the_out_file_bytes(tmp_path, capsysbinary, run):
    paths = {
        "spectrum": str(tmp_path / "spectrum.csv"),
        "ramp": _write_config(tmp_path, ramp={"n_steps": 3}),
        "precision": _write_config(
            tmp_path,
            name="precision.json",
            kind="precision_sweep",
            precision={"integration_times_s": [0.1, 1.0], "repetitions": 2, "channels": ["nv", "siv"]},
        ),
        "records": str(tmp_path / "records.csv"),
    }
    assert main(["simulate", "--channel", "odmr", "--seed", "5", "--out", paths["spectrum"]]) == 0
    assert main(["scenario", "--config", paths["ramp"], "--out", paths["records"]]) == 0
    argv = [arg.format(**paths) for arg in _PRINTED_RUNS[run]]
    assert main(argv) == 0
    printed = capsysbinary.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert printed.err == b"" and printed.out
    assert out.read_bytes() == printed.out
    assert capsysbinary.readouterr() == (b"", b"")


def test_a_refused_run_leaves_an_existing_out_file_alone(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    config = _write_config(tmp_path, duration_s=-1.0)
    assert main(["scenario", "--config", config, "--out", str(out)]) == 3
    records = tmp_path / "records.csv"
    records.write_text(f"{CSV_HEADER}\nabc{',1' * 17}\n", encoding="utf-8")
    assert main(["crossval", "--input", str(records), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "config error: duration_s must be > 0, got -1.0",
        "error: line 2, column time_s: expected a number, got 'abc'",
    ]
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "config,message",
    [
        # a 5e297 s sweep step leaves the field clock unchanged when a 0.5 s
        # dwell is taken off it; the clock used to loop for good
        (
            {"duration_s": 3, "odmr": {"sweep_time_s": 1e300}, "bfield": {"b_max_mt": 0.5}},
            "error: a 0.5 s field dwell cannot be counted off a clock at ",
        ),
        ({"duration_s": 1e15}, "error: Unable to allocate 14.2 PiB"),  # 6.7e14 per-record rows
        ({"sample_period_s": 1e-300}, "error: Python int too large"),  # more records than an index holds
    ],
    ids=["field_clock", "duration", "sample_period"],
)
def test_a_run_that_cannot_finish_is_a_runtime_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "bfield_artifact", **config}), encoding="utf-8")
    assert main(["scenario", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(message)


def test_sensitivity_reports_default_figure(capsys):
    assert main(["sensitivity"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sensitivity_k_per_sqrt_hz"] == pytest.approx(0.428550977, rel=1e-9)
    assert payload["contrast"] == 0.12
    assert payload["photon_rate_cps"] == 1e7


def test_sensitivity_rejects_nonpositive_inputs(capsys):
    for contrast in ("0", "1", "2"):
        assert main(["sensitivity", "--contrast", contrast]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: contrast must lie in (0, 1), got {float(contrast)}"]


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


@pytest.mark.parametrize("seed,b_max_mt", [(0, 0.5), (1, 0.5), (2, 0.5), (1000, 0.0)])
def test_record_flags_are_the_crossval_verdicts_of_their_windows(tmp_path, capsys, seed, b_max_mt):
    # 45 s is 30 records: one complete 20-sample window, then 10 unscreened
    config = _write_config(tmp_path, kind="bfield_artifact", seed=seed, duration_s=45.0, bfield={"b_max_mt": b_max_mt})
    records = tmp_path / "records.csv"
    assert main(["scenario", "--config", config, "--out", str(records)]) == 0
    assert main(["crossval", "--input", str(records), "--config", config]) == 0
    [verdict] = json.loads(capsys.readouterr().out)["windows"]["verdicts"]
    flags = [record.artifact_flag for record in parse_records_csv(str(records))]
    # the field flags its window; a field-off window is clean
    assert verdict["flagged"] is (b_max_mt > 0)
    assert flags == [verdict["flagged"]] * 20 + [False] * 10


def test_crossval_missing_input_is_io_error(tmp_path, capsys):
    assert main(["crossval", "--input", str(tmp_path / "absent.csv")]) == 4
    assert "i/o error" in capsys.readouterr().err
