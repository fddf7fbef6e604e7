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
import functools
import math
import sys
from dataclasses import replace
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from .config import ConfigError, load_config
from .crossval import calibration_slope, channel_regression, tumbling_verdicts
from .fitting import FitResult, fit_odmr_dips, fit_pl_peak, select_dip_count
from .forward import AxisKind, SpectrumTrace
from .noise import sample_poisson_counts, subsystem_generators
from .records import (
    format_number,
    json_number,
    json_text,
    parse_records_csv,
    write_precision_series,
    write_records,
)
from .scenarios import ScenarioConfig, ScenarioKind, odmr_sweep_counts, pl_counts, run_scenario
from .thermometry import Channel, TemperatureEstimate, nv_shot_noise_sensitivity

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_CONFIG = 3
_EXIT_RUNTIME = 4

#: what a subcommand returns: the writer of its result to an open text stream
_Writer = Callable[[TextIO], object]


def _finite_float(text: str) -> float:
    """argparse type of the float options: a finite number, or a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing reads it and never changes it."""
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
    p_sim.add_argument("--temperature", type=_finite_float, default=25.0, help="true temperature in degC")
    p_sim.add_argument("--noiseless", action="store_true", help="skip photon sampling")

    p_fit = sub.add_parser("fit", help="fit a two-column spectrum CSV")
    p_fit.add_argument("--input", required=True, help="CSV with axis,counts columns")
    p_fit.add_argument("--kind", choices=("odmr", "pl"), required=True)
    p_fit.add_argument("--n-dips", choices=("auto", "1", "2"), default="auto")
    p_fit.add_argument("--out", help="output path (default: stdout)")

    p_scn = sub.add_parser("scenario", help="run a configured scenario")
    add_common(p_scn)

    p_sen = sub.add_parser("sensitivity", help="ODMR shot-noise sensitivity")
    p_sen.add_argument("--contrast", type=_finite_float, default=0.12)
    p_sen.add_argument("--linewidth-mhz", type=_finite_float, default=12.0)
    p_sen.add_argument("--photon-rate-cps", type=_finite_float, default=1e7)
    p_sen.add_argument("--dddt-mhz-per-k", type=_finite_float, default=0.07379)
    p_sen.add_argument("--out", help="output path (default: stdout)")

    p_xv = sub.add_parser("crossval", help="cross-channel consistency report")
    p_xv.add_argument("--input", required=True, help="record CSV from the scenario subcommand")
    p_xv.add_argument("--config", help="config supplying calibrations and thresholds")
    p_xv.add_argument("--out", help="output path (default: stdout)")

    return parser


def _load_or_default(args: argparse.Namespace) -> ScenarioConfig:
    config_path, seed = getattr(args, "config", None), getattr(args, "seed", None)
    config = load_config(config_path) if config_path else ScenarioConfig()
    if seed is not None:
        try:
            config = replace(config, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


def _cmd_simulate(args: argparse.Namespace) -> _Writer:
    config = _load_or_default(args)
    gens = subsystem_generators(config.seed)
    if args.channel == "odmr":
        axis = config.odmr.axis()
        exposure_s = config.odmr.sweep_time_s / axis.size
        expected = odmr_sweep_counts(config, axis, args.temperature, 0.0, exposure_s)
        rng, axis_label = gens["odmr"], "freq_MHz"
    else:
        axis, exposure_s = config.pl.axis(), config.pl.exposure_s
        expected = pl_counts(config, axis, args.temperature, exposure_s)
        rng, axis_label = gens["pl"], "wavelength_nm"
    counts = expected if args.noiseless else sample_poisson_counts(expected, rng).astype(np.float64)

    if args.format == "csv":
        lines = [f"{axis_label},counts"]
        lines += [f"{format_number(a)},{format_number(c)}" for a, c in zip(axis, counts)]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "axis_kind": axis_label,
            "exposure_s": json_number(exposure_s),
            "axis": [json_number(a) for a in axis],
            "counts": [json_number(c) for c in counts],
        }
        text = json_text(payload)
    return lambda stream: stream.write(text)


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
        "params": {k: json_number(v) for k, v in fit.params.items()},
        "std_errors": {k: json_number(v) for k, v in fit.std_errors.items()},
        "residual_rms": json_number(fit.residual_rms),
        "reduced_chi2": json_number(fit.reduced_chi2),
    }
    if n_dips is not None:
        payload["n_dips"] = n_dips
    if fit.derived:
        payload["derived"] = {k: [json_number(v), json_number(s)] for k, (v, s) in fit.derived.items()}
    return payload


def _cmd_fit(args: argparse.Namespace) -> _Writer:
    axis, counts = _read_trace_csv(args.input)
    if args.kind == "odmr":
        trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts)
        choice = args.n_dips
        if choice == "auto":
            n_dips, fit = select_dip_count(trace)
        else:
            n_dips = int(choice)
            fit = fit_odmr_dips(trace, n_dips)
        payload = _fit_payload(fit, n_dips)
    else:
        trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, counts)
        payload = _fit_payload(fit_pl_peak(trace), None)
    return lambda stream: stream.write(json_text(payload))


def _cmd_scenario(args: argparse.Namespace) -> _Writer:
    if not args.config:
        raise ConfigError("scenario requires --config")
    config = _load_or_default(args)
    result = run_scenario(config)
    write = write_precision_series if config.kind is ScenarioKind.PRECISION_SWEEP else write_records
    return lambda stream: write(result, stream, args.format)


def _cmd_sensitivity(args: argparse.Namespace) -> _Writer:
    eta = nv_shot_noise_sensitivity(args.contrast, args.linewidth_mhz, args.photon_rate_cps, args.dddt_mhz_per_k)
    payload = {
        "contrast": json_number(args.contrast),
        "linewidth_mhz": json_number(args.linewidth_mhz),
        "photon_rate_cps": json_number(args.photon_rate_cps),
        "dddt_mhz_per_k": json_number(args.dddt_mhz_per_k),
        "sensitivity_k_per_sqrt_hz": json_number(eta),
    }
    return lambda stream: stream.write(json_text(payload))


def _cmd_crossval(args: argparse.Namespace) -> _Writer:
    records = parse_records_csv(args.input)
    config = _load_or_default(args)
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
            "slope_nm_per_mhz": json_number(report.regression.slope),
            "intercept_nm": json_number(report.regression.intercept),
            "r_squared": json_number(report.regression.r_squared),
            "slope_z": json_number(report.slope_z),
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
        "expected_slope_nm_per_mhz": json_number(expected_slope),
        **fitted,
        "windows": {
            "count": len(verdicts),
            "flagged": sum(1 for v in verdicts if v.flagged),
            "verdicts": [
                {
                    "window_start_s": json_number(v.window_start_s),
                    "window_end_s": json_number(v.window_end_s),
                    "variance_ratio": json_number(v.variance_ratio),
                    "max_abs_z": json_number(v.max_abs_z),
                    "flagged": v.flagged,
                    "reason": v.reason.value,
                }
                for v in verdicts
            ],
        },
    }
    return lambda stream: stream.write(json_text(payload))


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "scenario": _cmd_scenario,
    "sensitivity": _cmd_sensitivity,
    "crossval": _cmd_crossval,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else _EXIT_USAGE
    try:
        write = _DISPATCH[args.subcommand](args)
        # the one output path; the file is opened only once the result is
        # ready, so a refused run leaves an existing file as it was
        if args.out is None:
            write(sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as stream:
                write(stream)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except (ValueError, OverflowError, MemoryError) as exc:
        # a run too large to hold or to count is a runtime failure too
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
