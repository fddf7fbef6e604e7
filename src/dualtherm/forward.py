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
import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, get_type_hints

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

# electron gyromagnetic ratio of the NV ground-state spin, MHz per mT
GYROMAGNETIC_MHZ_PER_MT = 28.024


def bound(rule: str, holds: Callable[[Any], bool]) -> dict[str, Any]:
    """Field metadata declaring a single-field bound: a value ``v`` with ``holds(v)`` false fails ``rule``."""
    return {"rule": rule, "holds": holds}


POSITIVE = bound("must be > 0", lambda v: v > 0)
NON_NEGATIVE = bound("must be >= 0", lambda v: v >= 0)
FRACTION = bound("must lie in (0, 1)", lambda v: 0.0 < v < 1.0)
NONZERO = bound("must be nonzero", lambda v: v != 0)


def integer_at_least(n: int) -> dict[str, Any]:
    """Bound of an ``int`` field: an integer, not a ``bool``, of at least ``n``."""
    return bound(f"must be an integer >= {n}", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= n)


FINITE = bound("must be a finite number", math.isfinite)

#: the rule of each declared field type but ``int``, which its bound checks (``integer_at_least``,
#: or ``noise.validate_seed`` for the seed); a field typed as a class holds an instance of it
_TYPE_RULES = {
    float: FINITE["rule"],
    bool: "must be true or false",
    tuple[float, ...]: "must be a list of numbers",
    tuple[str, ...]: "must be a list of strings",
}
_TUPLE_TYPES = (tuple[float, ...], tuple[str, ...])


def _stored(hint: Any, v: Any) -> Any:
    """``v`` in the form a field declared as ``hint`` stores it, or ``None`` if it has another type."""
    if hint is float:
        if type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool):
            try:
                return float(v)
            except OverflowError:
                return math.inf
        return None
    if hint in _TUPLE_TYPES:
        items = tuple(_stored(hint.__args__[0], x) for x in v) if isinstance(v, (list, tuple)) else (None,)
        return None if None in items else items
    return v if isinstance(v, hint) else None


@functools.cache
def declared_fields(cls: type) -> tuple[tuple[str, Any, tuple[Mapping[str, Any], ...]], ...]:
    """``(name, declared type, bounds)`` of each field of the settings class ``cls``, read once."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        finite = (FINITE,) if hints[f.name] in (float, tuple[float, ...]) else ()
        out.append((f.name, hints[f.name], finite + ((f.metadata,) if "rule" in f.metadata else ())))
    return tuple(out)


@dataclass(frozen=True)
class Settings:
    """Base of the settings dataclasses: checks what their fields declare.

    Field by field, a value must have the field's declared type
    (``_TYPE_RULES``); a number is stored as a ``float``, a list as a
    tuple.  Then every value of a ``float`` or ``tuple[float, ...]`` field
    must be finite, and every value must pass the field's declared bound;
    the values of a tuple field are its elements, of any other field the
    field's value itself.  A failed type or bound reads ``"{name} {rule},
    got {value!r}"``.  A subclass adds only its cross-field checks, after
    ``super().__post_init__()``.
    """

    def __post_init__(self) -> None:
        for name, hint, bounds in declared_fields(type(self)):
            value = getattr(self, name)
            if hint is not int:
                stored = _stored(hint, value)
                if stored is None:
                    rule = _TYPE_RULES.get(hint, f"must be of type {hint.__name__}")
                    raise ValueError(f"{name} {rule}, got {value!r}")
                object.__setattr__(self, name, stored)
                value = stored
            for v in value if hint in _TUPLE_TYPES else (value,):
                for b in bounds:
                    if not b["holds"](v):
                        raise ValueError(f"{name} {b['rule']}, got {v!r}")


class AxisKind(enum.Enum):
    FREQUENCY_MHZ = "frequency_mhz"
    WAVELENGTH_NM = "wavelength_nm"


def unit_lorentzian(axis: FloatArray, center: float, fwhm: float) -> FloatArray:
    """Unit-height Lorentzian ``1 / (1 + (2 (x - c) / w)^2)`` with FWHM ``w``."""
    # (x - c) / (w / 2), not 2 (x - c) / w: the same bits, as both round
    # once, but no overflow on an axis that spans more than half the range
    u = (np.asarray(axis, dtype=np.float64) - center) / (0.5 * fwhm)
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
        remains positive.  A center is either one value or an array holding
        the center in effect at each sample, as when the field changes
        mid-sweep; a ``(B, n)`` array of centers models ``B`` sweeps at
        once.
    """

    baseline_rate: float
    dips: tuple[tuple[float | FloatArray, float, float], ...]

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
        object.__setattr__(self, "dips", tuple((c, float(w), float(k)) for c, w, k in self.dips))


@dataclass(frozen=True)
class PlModel:
    """Expected-count model for a photoluminescence spectrum.

    ``background_rate`` is the flat rate per sample bin (counts/s) and each
    peak is ``(center_nm, fwhm_nm, amplitude_cps)`` with the amplitude the
    peak rate above background.  A center and a width are each either one
    value or a ``(B, 1)`` column of one value per row, which models ``B``
    spectra at once.
    """

    background_rate: float
    peaks: tuple[tuple[float | FloatArray, float | FloatArray, float], ...]

    def __post_init__(self) -> None:
        if self.background_rate < 0:
            raise ValueError(f"background_rate must be >= 0, got {self.background_rate}")
        for i, (center, fwhm, amplitude) in enumerate(self.peaks):
            if not np.all(np.asarray(fwhm) > 0):
                raise ValueError(f"peak {i}: fwhm must be > 0, got {fwhm}")
            if not amplitude > 0:
                raise ValueError(f"peak {i}: amplitude must be > 0, got {amplitude}")
        object.__setattr__(self, "peaks", tuple((c, w, float(a)) for c, w, a in self.peaks))


@dataclass(frozen=True)
class NvCalibration(Settings):
    """Linear map between temperature and the NV zero-field splitting.

    ``slope`` is signed (MHz per degC); the default configuration uses a
    negative slope because the splitting shifts down as the sample warms.
    """

    d_ref_mhz: float = 2870.0
    t_ref_c: float = 25.0
    slope_mhz_per_c: float = field(default=-0.07379, metadata=NONZERO)


@dataclass(frozen=True)
class SivCalibration(Settings):
    """Linear maps between temperature and the SiV zero-phonon line.

    Position and FWHM both shift linearly; only the position slope must be
    nonzero because only position feeds the temperature estimate.
    """

    pos_ref_nm: float = 737.0
    fwhm_ref_nm: float = 4.8
    t_ref_c: float = 25.0
    pos_slope_nm_per_c: float = field(default=0.0084, metadata=NONZERO)
    fwhm_slope_nm_per_c: float = 0.0398


@dataclass(frozen=True)
class HeatingModel(Settings):
    """Steady-state laser heating: T = t_ambient + slope * power."""

    t_ambient_c: float = 25.0
    slope_k_per_mw: float = field(default=0.0735, metadata=NON_NEGATIVE)


@dataclass(frozen=True)
class SpectrumTrace:
    """One recorded spectrum: its sample axis and the counts on it."""

    axis_kind: AxisKind
    axis: FloatArray
    counts: FloatArray

    def __post_init__(self) -> None:
        axis, counts = check_spectra(self.axis, self.counts)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "counts", counts)


def _check_axis(axis: FloatArray) -> FloatArray:
    arr = np.asarray(axis, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("axis must be a non-empty 1-d sequence")
    return arr


def check_spectra(axis: FloatArray, counts: FloatArray, rows: bool = False) -> tuple[FloatArray, FloatArray]:
    """``axis`` and ``counts`` as float arrays, once they are valid spectra.

    The axis is finite, strictly increasing and non-empty, and its span is
    finite too; the counts are finite and non-negative, ``(n,)`` on ``n``
    samples or, with ``rows``, ``(B, n)``.
    """
    axis = _check_axis(axis)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != (2 if rows else 1) or counts.shape[-1:] != axis.shape:
        shape = "(B, n)" if rows else "(n,)"
        raise ValueError(f"counts of shape {counts.shape} are not {shape} for an axis of n = {axis.size} samples")
    for name, values in (("axis", axis), ("counts", counts)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {values.flat[bad[0]]} at sample {bad[0] % axis.size}")
    if not np.all(np.diff(axis) > 0):
        raise ValueError("axis must be strictly increasing")
    # a difference of Python floats overflows to inf without a numpy warning
    if not math.isfinite(float(axis[-1]) - float(axis[0])):
        raise ValueError(f"axis span from {axis[0]} to {axis[-1]} is not finite")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return axis, counts


def odmr_expected_counts(model: OdmrModel, axis: FloatArray, exposure_s: float) -> FloatArray:
    """Expected counts per sample of a CW ODMR sweep.

    ``R * t * (1 - sum_k C_k * L_k(f))`` with ``t`` the per-sample exposure;
    a dip center may be one value, one value per sample, or one per sample
    of each of several sweeps, which gives one row of counts per sweep.
    The sum runs from 0 in dip order, so every row is bit for bit that
    sweep's counts computed alone.
    """
    arr = _check_axis(axis)
    if not exposure_s > 0:
        raise ValueError(f"exposure_s must be > 0, got {exposure_s}")
    depth = np.zeros_like(arr)
    for center, fwhm, contrast in model.dips:
        # C / (1 + u^2), not C * unit_lorentzian: the two round differently
        # in the last bit, and recorded spectra are built with this form
        u = 2.0 * (arr - center) / fwhm
        depth = depth + contrast / (1.0 + u * u)
    return model.baseline_rate * exposure_s * (1.0 - depth)


def pl_expected_counts(model: PlModel, axis: FloatArray, exposure_s: float) -> FloatArray:
    """Expected counts per bin of a PL spectrum: ``t * (bg + sum_k A_k * L_k)``.

    Peaks with ``(B, 1)`` columns of centers or widths give one row of
    counts per row; the sum runs from the background in peak order, so
    every row is bit for bit that row's model computed alone.
    """
    arr = _check_axis(axis)
    if not exposure_s > 0:
        raise ValueError(f"exposure_s must be > 0, got {exposure_s}")
    rate = np.full_like(arr, model.background_rate)
    for center, fwhm, amplitude in model.peaks:
        rate = rate + amplitude * unit_lorentzian(arr, center, fwhm)
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
