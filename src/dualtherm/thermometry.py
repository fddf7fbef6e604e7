"""Temperature readout from fitted spectral parameters.

Inverts the linear calibration maps of :mod:`dualtherm.forward` to turn
fitted line positions into temperature estimates with propagated 1-sigma
uncertainty, evaluates the ODMR shot-noise sensitivity relation, and
extracts noise floors from precision-vs-integration-time series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fitting import FitResult, linear_regression
from .forward import NvCalibration, SivCalibration


class Channel(enum.Enum):
    NV_ODMR = "nv_odmr"
    SIV_ZPL = "siv_zpl"
    FUSED = "fused"


@dataclass(frozen=True)
class TemperatureEstimate:
    value_c: float
    sigma_c: float
    channel: Channel
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_c < 0:
            raise ValueError(f"sigma_c must be >= 0, got {self.sigma_c}")


def odmr_readout(
    d_center_mhz: float, d_sigma_mhz: float, cal: NvCalibration, timestamp_s: float = 0.0
) -> TemperatureEstimate:
    """Temperature from an NV resonance midpoint and its 1-sigma uncertainty.

    Exact inverse of the resonance-vs-temperature line:
    ``T = t_ref + (d_center - d_ref) / slope`` with ``sigma_T = sigma_d / |slope|``.
    """
    return TemperatureEstimate(
        value_c=cal.t_ref_c + (d_center_mhz - cal.d_ref_mhz) / cal.slope_mhz_per_c,
        sigma_c=d_sigma_mhz / abs(cal.slope_mhz_per_c),
        channel=Channel.NV_ODMR,
        timestamp_s=timestamp_s,
    )


def zpl_readout(
    center_nm: float, sigma_nm: float, cal: SivCalibration, timestamp_s: float = 0.0
) -> TemperatureEstimate:
    """Temperature from a SiV zero-phonon-line position and its 1-sigma uncertainty.

    ``T = t_ref + (pos - pos_ref) / slope`` with ``sigma_T = sigma_pos / |slope|``.
    """
    return TemperatureEstimate(
        value_c=cal.t_ref_c + (center_nm - cal.pos_ref_nm) / cal.pos_slope_nm_per_c,
        sigma_c=sigma_nm / abs(cal.pos_slope_nm_per_c),
        channel=Channel.SIV_ZPL,
        timestamp_s=timestamp_s,
    )


def temperature_from_odmr(
    fit: FitResult, cal: NvCalibration, timestamp_s: float = 0.0
) -> TemperatureEstimate:
    """Temperature from the midpoint of a converged ODMR dip fit (``odmr_readout``)."""
    if not fit.converged:
        raise ValueError("ODMR fit did not converge; refusing a temperature readout")
    if "d_center" not in fit.derived:
        raise ValueError("fit carries no d_center; expected a dip fit")
    return odmr_readout(*fit.derived["d_center"], cal, timestamp_s)


def temperature_from_zpl(
    fit: FitResult, cal: SivCalibration, timestamp_s: float = 0.0
) -> TemperatureEstimate:
    """Temperature from the center of a converged zero-phonon-line fit (``zpl_readout``)."""
    if not fit.converged:
        raise ValueError("ZPL fit did not converge; refusing a temperature readout")
    if "center" not in fit.params:
        raise ValueError("fit carries no center parameter; expected a peak fit")
    return zpl_readout(fit.params["center"], fit.std_errors["center"], cal, timestamp_s)


def nv_shot_noise_sensitivity(
    contrast: float,
    linewidth_mhz: float,
    photon_rate_cps: float,
    dddt_mhz_per_k: float,
) -> float:
    """Shot-noise-limited ODMR temperature sensitivity in K per root Hz.

    ``eta = linewidth / (contrast * sqrt(rate) * |dD/dT|)``: linear in the
    linewidth, inverse in contrast, inverse square root in photon rate.  It
    omits the Lorentzian line-shape prefactor ``4 / (3 sqrt(3))`` of Dreau et
    al. (PRB 84, 195204, 2011), so it reads ``3 sqrt(3) / 4`` (about 1.30)
    times their optimum-slope figure.  The contrast must lie in (0, 1), as
    for any dip the ODMR model takes.
    """
    if not 0.0 < contrast < 1.0:
        raise ValueError(f"contrast must lie in (0, 1), got {contrast}")
    for name, v in (
        ("linewidth_mhz", linewidth_mhz),
        ("photon_rate_cps", photon_rate_cps),
        ("dddt_mhz_per_k", dddt_mhz_per_k),
    ):
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v}")
    return linewidth_mhz / (contrast * math.sqrt(photon_rate_cps) * dddt_mhz_per_k)


def estimate_noise_floor(
    series: Iterable[tuple[float, float]]
) -> tuple[float, float]:
    """Noise floor and exponent of a precision-vs-integration-time series.

    Fits ``sigma(t) = eta * t**e`` by least squares in log space; for
    shot-noise-limited data ``e = -1/2`` and ``eta`` is the precision at one
    second, i.e. the floor in degC per root Hz.
    """
    pairs = list(series)
    times = np.array([t for t, _ in pairs], dtype=np.float64)
    sigmas = np.array([s for _, s in pairs], dtype=np.float64)
    if times.size < 3:
        raise ValueError(f"need at least 3 points, got {times.size}")
    if np.any(times <= 0) or np.any(sigmas <= 0):
        raise ValueError("times and sigmas must all be > 0")
    reg = linear_regression(np.log(times), np.log(sigmas))
    return math.exp(reg.intercept), reg.slope
