"""Deterministic forward models for the two spectroscopy channels.

Expected photon counts for continuous-wave ODMR sweeps (absorption dips on a
flat rate baseline) and for photoluminescence spectra (emission peaks on a
flat background), plus the small linear maps that tie spectral observables to
temperature: Zeeman placement of the NV resonance pair, the NV zero-field
splitting vs temperature line, the SiV zero-phonon line position/width vs
temperature lines, and laser-power heating.

All functions here are pure and deterministic; noise lives in
:mod:`dualtherm.noise`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

# electron gyromagnetic ratio of the NV ground-state spin, MHz per mT
GYROMAGNETIC_MHZ_PER_MT = 28.024


class AxisKind(enum.Enum):
    FREQUENCY_MHZ = "frequency_mhz"
    WAVELENGTH_NM = "wavelength_nm"


def default_odmr_axis() -> FloatArray:
    """Default ODMR sweep grid: 2820-2920 MHz in 0.5 MHz steps."""
    return np.linspace(2820.0, 2920.0, 201)


def default_pl_axis() -> FloatArray:
    """Default spectrometer grid: 600-800 nm in 0.1 nm steps."""
    return np.linspace(600.0, 800.0, 2001)


def unit_lorentzian(axis: FloatArray, center: float, fwhm: float) -> FloatArray:
    """Unit-height Lorentzian ``1 / (1 + (2 (x - c) / w)^2)`` with FWHM ``w``."""
    u = 2.0 * (np.asarray(axis, dtype=np.float64) - center) / fwhm
    return 1.0 / (1.0 + u * u)


@dataclass(frozen=True)
class OdmrModel:
    """Expected-count model for a CW ODMR sweep.

    Parameters
    ----------
    baseline_rate:
        Off-resonance photon rate in counts/s.  Must be positive.
    dips:
        Ordered ``(center_mhz, fwhm_mhz, contrast)`` triples.  Contrasts are
        fractional dip depths; their sum must stay below 1 so the spectrum
        remains positive.
    """

    baseline_rate: float
    dips: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.baseline_rate > 0:
            raise ValueError(f"baseline_rate must be > 0, got {self.baseline_rate}")
        total = 0.0
        for i, (center, fwhm, contrast) in enumerate(self.dips):
            if not fwhm > 0:
                raise ValueError(f"dip {i}: fwhm must be > 0, got {fwhm}")
            if not 0.0 < contrast < 1.0:
                raise ValueError(f"dip {i}: contrast must lie in (0, 1), got {contrast}")
            total += contrast
        if not total < 1.0:
            raise ValueError(f"sum of contrasts must be < 1, got {total}")
        object.__setattr__(self, "dips", tuple((float(c), float(w), float(k)) for c, w, k in self.dips))


@dataclass(frozen=True)
class PlModel:
    """Expected-count model for a photoluminescence spectrum.

    ``background_rate`` is the flat rate per sample bin (counts/s) and each
    peak is ``(center_nm, fwhm_nm, amplitude_cps)`` with the amplitude the
    peak rate above background.
    """

    background_rate: float
    peaks: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if self.background_rate < 0:
            raise ValueError(f"background_rate must be >= 0, got {self.background_rate}")
        for i, (center, fwhm, amplitude) in enumerate(self.peaks):
            if not fwhm > 0:
                raise ValueError(f"peak {i}: fwhm must be > 0, got {fwhm}")
            if not amplitude > 0:
                raise ValueError(f"peak {i}: amplitude must be > 0, got {amplitude}")
        object.__setattr__(self, "peaks", tuple((float(c), float(w), float(a)) for c, w, a in self.peaks))


@dataclass(frozen=True)
class NvCalibration:
    """Linear map between temperature and the NV zero-field splitting.

    ``slope`` is signed (MHz per degC); the default configuration uses a
    negative slope because the splitting shifts down as the sample warms.
    """

    d_ref_mhz: float = 2870.0
    t_ref_c: float = 25.0
    slope_mhz_per_c: float = -0.07379

    def __post_init__(self) -> None:
        if self.slope_mhz_per_c == 0:
            raise ValueError("slope_mhz_per_c must be nonzero")


@dataclass(frozen=True)
class SivCalibration:
    """Linear maps between temperature and the SiV zero-phonon line.

    Position and FWHM both shift linearly; only the position slope must be
    nonzero because only position feeds the temperature estimate.
    """

    pos_ref_nm: float = 737.0
    fwhm_ref_nm: float = 4.8
    t_ref_c: float = 25.0
    pos_slope_nm_per_c: float = 0.0084
    fwhm_slope_nm_per_c: float = 0.0398

    def __post_init__(self) -> None:
        if self.pos_slope_nm_per_c == 0:
            raise ValueError("pos_slope_nm_per_c must be nonzero")


@dataclass(frozen=True)
class HeatingModel:
    """Steady-state laser heating: T = t_ambient + slope * power."""

    t_ambient_c: float = 25.0
    slope_k_per_mw: float = 0.0735

    def __post_init__(self) -> None:
        if self.slope_k_per_mw < 0:
            raise ValueError(f"slope_k_per_mw must be >= 0, got {self.slope_k_per_mw}")


@dataclass(frozen=True)
class SpectrumTrace:
    """One recorded spectrum: sample axis, counts, and acquisition metadata."""

    axis_kind: AxisKind
    axis: FloatArray
    counts: FloatArray
    exposure_s: float
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.float64)
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError("axis must be a non-empty 1-d sequence")
        if counts.shape != axis.shape:
            raise ValueError(
                f"counts length {counts.shape} does not match axis length {axis.shape}"
            )
        for name, values in (("axis", axis), ("counts", counts)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {values[bad[0]]} at sample {bad[0]}")
        if not np.all(np.diff(axis) > 0):
            raise ValueError("axis must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self.exposure_s > 0:
            raise ValueError(f"exposure_s must be > 0, got {self.exposure_s}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "counts", counts)


def _check_axis(axis: FloatArray) -> FloatArray:
    arr = np.asarray(axis, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("axis must be a non-empty 1-d sequence")
    return arr


def odmr_dip_counts(
    axis: FloatArray,
    baseline_rate: float,
    dips: Sequence[tuple[float | FloatArray, float, float]],
    exposure_s: float,
) -> FloatArray:
    """Expected counts per sample of a CW ODMR sweep whose dips may move.

    ``R * t * (1 - sum_k C_k * L_k(f))`` with ``t`` the per-sample exposure.
    Each dip is ``(center_mhz, fwhm_mhz, contrast)``; a center is either one
    value or an array holding the center in effect at each sample, as when
    the field changes mid-sweep.
    """
    arr = _check_axis(axis)
    if not exposure_s > 0:
        raise ValueError(f"exposure_s must be > 0, got {exposure_s}")
    depth = np.zeros_like(arr)
    for center, fwhm, contrast in dips:
        # C / (1 + u^2), not C * unit_lorentzian: the two round differently
        # in the last bit, and recorded spectra are built with this form
        u = 2.0 * (arr - center) / fwhm
        depth += contrast / (1.0 + u * u)
    return baseline_rate * exposure_s * (1.0 - depth)


def odmr_expected_counts(model: OdmrModel, axis: FloatArray, exposure_s: float) -> FloatArray:
    """Expected counts per sample of a CW ODMR sweep (see ``odmr_dip_counts``)."""
    return odmr_dip_counts(axis, model.baseline_rate, model.dips, exposure_s)


def pl_expected_counts(model: PlModel, axis: FloatArray, exposure_s: float) -> FloatArray:
    """Expected counts per bin of a PL spectrum: ``t * (bg + sum_k A_k * L_k)``."""
    arr = _check_axis(axis)
    if not exposure_s > 0:
        raise ValueError(f"exposure_s must be > 0, got {exposure_s}")
    rate = np.full_like(arr, model.background_rate)
    for center, fwhm, amplitude in model.peaks:
        rate += amplitude * unit_lorentzian(arr, center, fwhm)
    return rate * exposure_s


def zeeman_resonances(
    d_mhz: float,
    b_parallel_mt: float | FloatArray,
    gyromagnetic_mhz_per_mt: float = GYROMAGNETIC_MHZ_PER_MT,
) -> tuple[float, float] | tuple[FloatArray, FloatArray]:
    """Resonance pair ``d -/+ gamma * |B_par|`` of a Zeeman-split ODMR spectrum.

    The midpoint of the returned pair equals ``d_mhz`` exactly and the result
    is invariant under a sign flip of the field projection.  An array of
    field projections gives arrays of resonances, element by element.
    """
    if not gyromagnetic_mhz_per_mt > 0:
        raise ValueError(f"gyromagnetic ratio must be > 0, got {gyromagnetic_mhz_per_mt}")
    shift = gyromagnetic_mhz_per_mt * abs(b_parallel_mt)
    return d_mhz - shift, d_mhz + shift


def nv_resonance_of_temperature(cal: NvCalibration, t_c: float) -> float:
    """Zero-field splitting (MHz) at temperature ``t_c``."""
    return cal.d_ref_mhz + cal.slope_mhz_per_c * (t_c - cal.t_ref_c)


def siv_zpl_of_temperature(cal: SivCalibration, t_c: float) -> tuple[float, float]:
    """SiV zero-phonon line ``(position_nm, fwhm_nm)`` at temperature ``t_c``."""
    dt = t_c - cal.t_ref_c
    return cal.pos_ref_nm + cal.pos_slope_nm_per_c * dt, cal.fwhm_ref_nm + cal.fwhm_slope_nm_per_c * dt


def temperature_of_laser_power(model: HeatingModel, power_mw: float) -> float:
    """Steady-state sample temperature (degC) under ``power_mw`` of laser power."""
    if power_mw < 0:
        raise ValueError(f"power_mw must be >= 0, got {power_mw}")
    return model.t_ambient_c + model.slope_k_per_mw * power_mw
