"""Command-line front end.

Subcommands: ``simulate`` (emit one synthetic spectrum), ``fit`` (fit a
spectrum CSV), ``scenario`` (run a configured experiment to CSV/JSON),
``sensitivity`` (evaluate the ODMR shot-noise sensitivity relation), and
``crossval`` (cross-channel consistency report over a record file).

Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 I/O or runtime
failure.  All state comes from flags and the config file; no environment
variables are consulted, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import ConfigError, load_config
from .crossval import calibration_slope, channel_regression, tumbling_verdicts
from .fitting import FitResult, fit_odmr_dips, fit_pl_peak, select_dip_count
from .forward import (
    AxisKind,
    SpectrumTrace,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
)
from .noise import sample_poisson_counts, subsystem_generators
from .records import (
    format_number,
    parse_records_csv,
    write_precision_series,
    write_records,
    write_records_csv,
    write_records_json,
)
from .scenarios import ScenarioConfig, ScenarioKind, run_scenario
from .thermometry import Channel, TemperatureEstimate, nv_shot_noise_sensitivity

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_CONFIG = 3
_EXIT_RUNTIME = 4


@dataclass(frozen=True)
class CliCommand:
    subcommand: str
    config_path: str | None
    seed: int | None
    out: str | None
    fmt: str
    options: dict[str, Any]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualtherm",
        description="Dual-channel diamond thermometry simulator and estimation toolkit.",
        epilog="exit codes: 0 success, 2 usage, 3 invalid configuration, 4 I/O or runtime failure",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: bool = True) -> None:
        p.add_argument("--config", help="path to a JSON scenario configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    p_sim = sub.add_parser("simulate", help="emit one synthetic spectrum")
    add_common(p_sim)
    p_sim.add_argument("--channel", choices=("odmr", "pl"), required=True)
    p_sim.add_argument("--temperature", type=float, default=25.0, help="true temperature in degC")
    p_sim.add_argument("--noiseless", action="store_true", help="skip photon sampling")

    p_fit = sub.add_parser("fit", help="fit a two-column spectrum CSV")
    p_fit.add_argument("--input", required=True, help="CSV with axis,counts columns")
    p_fit.add_argument("--kind", choices=("odmr", "pl"), required=True)
    p_fit.add_argument("--n-dips", choices=("auto", "1", "2"), default="auto")
    p_fit.add_argument("--exposure-s", type=float, default=1.0, help="seconds per sample")
    p_fit.add_argument("--out", help="output path (default: stdout)")

    p_scn = sub.add_parser("scenario", help="run a configured scenario")
    add_common(p_scn)

    p_sen = sub.add_parser("sensitivity", help="ODMR shot-noise sensitivity")
    p_sen.add_argument("--contrast", type=float, default=0.12)
    p_sen.add_argument("--linewidth-mhz", type=float, default=12.0)
    p_sen.add_argument("--photon-rate-cps", type=float, default=1e7)
    p_sen.add_argument("--dddt-mhz-per-k", type=float, default=0.07379)
    p_sen.add_argument("--out", help="output path (default: stdout)")

    p_xv = sub.add_parser("crossval", help="cross-channel consistency report")
    p_xv.add_argument("--input", required=True, help="record CSV from the scenario subcommand")
    p_xv.add_argument("--config", help="config supplying calibrations and thresholds")
    p_xv.add_argument("--out", help="output path (default: stdout)")

    return parser


def parse_args(argv: Sequence[str] | None = None) -> CliCommand:
    ns = _build_parser().parse_args(argv)
    options = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("subcommand", "config", "seed", "out", "format")
    }
    return CliCommand(
        subcommand=ns.subcommand,
        config_path=getattr(ns, "config", None),
        seed=getattr(ns, "seed", None),
        out=getattr(ns, "out", None),
        fmt=getattr(ns, "format", "csv"),
        options=options,
    )


def _load_or_default(cmd: CliCommand) -> ScenarioConfig:
    config = load_config(cmd.config_path) if cmd.config_path else ScenarioConfig()
    if cmd.seed is not None:
        try:
            config = replace(config, seed=cmd.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _round9(value: float) -> float:
    return float(format_number(float(value)))


def _cmd_simulate(cmd: CliCommand) -> int:
    config = _load_or_default(cmd)
    gens = subsystem_generators(config.seed)
    t_c = float(cmd.options["temperature"])
    noiseless = bool(cmd.options["noiseless"])
    if cmd.options["channel"] == "odmr":
        axis = config.odmr.axis()
        tau_s = config.odmr.sweep_time_s / axis.size
        model = config.odmr.model(nv_resonance_of_temperature(config.nv_cal, t_c))
        expected = odmr_expected_counts(model, axis, tau_s)
        rng = gens["odmr"]
        axis_label, exposure_s = "freq_MHz", tau_s
    else:
        axis = config.pl.axis()
        model = config.pl.model(*siv_zpl_of_temperature(config.siv_cal, t_c))
        expected = pl_expected_counts(model, axis, config.pl.exposure_s)
        rng = gens["pl"]
        axis_label, exposure_s = "wavelength_nm", config.pl.exposure_s
    counts = expected if noiseless else sample_poisson_counts(expected, rng).astype(np.float64)

    if cmd.fmt == "csv":
        lines = [f"{axis_label},counts"]
        lines += [f"{format_number(a)},{format_number(c)}" for a, c in zip(axis, counts)]
        _emit("\n".join(lines) + "\n", cmd.out)
    else:
        payload = {
            "axis_kind": axis_label,
            "exposure_s": _round9(exposure_s),
            "axis": [_round9(a) for a in axis],
            "counts": [_round9(c) for c in counts],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cmd.out)
    return _EXIT_OK


def _read_trace_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected at least 2 columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1]


def _fit_payload(fit: FitResult, n_dips: int | None) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "converged": fit.converged,
        "iterations": fit.iterations,
        "params": {k: _round9(v) for k, v in fit.params.items()},
        "std_errors": {k: _round9(v) for k, v in fit.std_errors.items()},
        "residual_rms": _round9(fit.residual_rms),
        "reduced_chi2": _round9(fit.reduced_chi2),
    }
    if n_dips is not None:
        payload["n_dips"] = n_dips
    if fit.derived:
        payload["derived"] = {k: [_round9(v), _round9(s)] for k, (v, s) in fit.derived.items()}
    return payload


def _cmd_fit(cmd: CliCommand) -> int:
    axis, counts = _read_trace_csv(cmd.options["input"])
    exposure_s = float(cmd.options["exposure_s"])
    if cmd.options["kind"] == "odmr":
        trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts, exposure_s)
        choice = cmd.options["n_dips"]
        if choice == "auto":
            n_dips, fit = select_dip_count(trace)
        else:
            n_dips = int(choice)
            fit = fit_odmr_dips(trace, n_dips)
        payload = _fit_payload(fit, n_dips)
    else:
        trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, counts, exposure_s)
        payload = _fit_payload(fit_pl_peak(trace), None)
    _emit(json.dumps(payload, indent=2) + "\n", cmd.out)
    return _EXIT_OK


def _cmd_scenario(cmd: CliCommand) -> int:
    if not cmd.config_path:
        raise ConfigError("scenario requires --config")
    config = _load_or_default(cmd)
    result = run_scenario(config)
    if config.kind is ScenarioKind.PRECISION_SWEEP:
        if cmd.out is None:
            raise ValueError("precision sweeps write files; pass --out")
        write_precision_series(result, cmd.out, cmd.fmt)
        return _EXIT_OK
    if cmd.out is None:
        if cmd.fmt == "csv":
            write_records_csv(result, sys.stdout)
        else:
            write_records_json(result, sys.stdout)
    else:
        write_records(result, cmd.out, cmd.fmt)
    return _EXIT_OK


def _cmd_sensitivity(cmd: CliCommand) -> int:
    eta = nv_shot_noise_sensitivity(
        cmd.options["contrast"],
        cmd.options["linewidth_mhz"],
        cmd.options["photon_rate_cps"],
        cmd.options["dddt_mhz_per_k"],
    )
    payload = {
        "contrast": _round9(cmd.options["contrast"]),
        "linewidth_mhz": _round9(cmd.options["linewidth_mhz"]),
        "photon_rate_cps": _round9(cmd.options["photon_rate_cps"]),
        "dddt_mhz_per_k": _round9(cmd.options["dddt_mhz_per_k"]),
        "sensitivity_k_per_sqrt_hz": _round9(eta),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cmd.out)
    return _EXIT_OK


def _cmd_crossval(cmd: CliCommand) -> int:
    records = parse_records_csv(cmd.options["input"])
    config = _load_or_default(cmd)
    nv = np.array([r.nv_f0_mhz for r in records])
    siv = np.array([r.siv_pos_nm for r in records])
    expected_slope = calibration_slope(config.nv_cal, config.siv_cal)
    try:
        report = channel_regression(nv, siv, expected_slope)
    except ValueError:
        # fewer than 3 records, or one NV frequency throughout: no line to fit
        fitted = dict.fromkeys(("slope_nm_per_mhz", "intercept_nm", "r_squared", "slope_z"))
    else:
        fitted = {
            "slope_nm_per_mhz": _round9(report.regression.slope),
            "intercept_nm": _round9(report.regression.intercept),
            "r_squared": _round9(report.regression.r_squared),
            "slope_z": _round9(report.slope_z),
        }

    pairs = [
        (
            TemperatureEstimate(r.t_nv_c, r.t_nv_sigma_c, Channel.NV_ODMR, r.time_s),
            TemperatureEstimate(r.t_siv_c, r.t_siv_sigma_c, Channel.SIV_ZPL, r.time_s),
        )
        for r in records
    ]
    verdicts = list(tumbling_verdicts(pairs, config.detection))
    payload = {
        "n_records": len(records),
        "expected_slope_nm_per_mhz": _round9(expected_slope),
        **fitted,
        "windows": {
            "count": len(verdicts),
            "flagged": sum(1 for v in verdicts if v.flagged),
            "verdicts": [
                {
                    "window_start_s": _round9(v.window_start_s),
                    "window_end_s": _round9(v.window_end_s),
                    "variance_ratio": _round9(v.variance_ratio),
                    "max_abs_z": _round9(v.max_abs_z),
                    "flagged": v.flagged,
                    "reason": v.reason.value,
                }
                for v in verdicts
            ],
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", cmd.out)
    return _EXIT_OK


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "scenario": _cmd_scenario,
    "sensitivity": _cmd_sensitivity,
    "crossval": _cmd_crossval,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cmd = parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else _EXIT_USAGE
    try:
        return _DISPATCH[cmd.subcommand](cmd)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
