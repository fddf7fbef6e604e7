"""Invariants of the Lorentzian fits, checked over generated spectra.

Each spectrum is one Poisson draw; the properties compare fits of that same
draw, so they hold to the solver's convergence tolerance, far below the
statistical error.  ``TOL`` is that tolerance in units of the fitted
standard error.  Scaling the counts leaves the fitted shape unchanged but
not quite its standard errors: the solver's ridge, a fixed fraction of the
normal matrix trace, weighs more against the background and amplitude
entries as the counts grow, so the scale properties compare parameters only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtherm import (
    AxisKind,
    OdmrModel,
    PlModel,
    SpectrumTrace,
    fit_odmr_dips,
    fit_pl_peak,
    odmr_expected_counts,
    pl_expected_counts,
)

ODMR_AXIS = np.linspace(2820.0, 2920.0, 201)
PL_AXIS = np.arange(715.0, 760.05, 0.1)
TOL = 1e-3

# a fixed example sequence keeps the suite deterministic
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
dip_centers = st.floats(2850.0, 2890.0)
dip_widths = st.floats(8.0, 16.0)
contrasts = st.floats(0.05, 0.15)
peak_centers = st.floats(730.0, 745.0)
peak_widths = st.floats(3.0, 7.0)


def _draw(expected: np.ndarray, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).poisson(expected).astype(np.float64)


def _odmr_counts(dips, seed: int) -> np.ndarray:
    # about 2e4 counts per sample, so every weight is 1/counts
    return _draw(odmr_expected_counts(OdmrModel(baseline_rate=2e6, dips=dips), ODMR_AXIS, 0.01), seed)


def _pl_counts(center: float, fwhm: float, seed: int) -> np.ndarray:
    return _draw(pl_expected_counts(PlModel(background_rate=2e4, peaks=((center, fwhm, 1.3e5),)), PL_AXIS, 1.0), seed)


def _odmr(counts: np.ndarray, axis: np.ndarray = ODMR_AXIS) -> SpectrumTrace:
    return SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts, 0.01)


def _pl(counts: np.ndarray, axis: np.ndarray = PL_AXIS) -> SpectrumTrace:
    return SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, counts, 1.0)


def _assert_same(fit, ref, names, scale=1.0, errors=True):
    """``fit`` matches ``ref`` (times ``scale``) to ``TOL`` standard errors."""
    assert fit.converged and ref.converged
    for name in names:
        tol = TOL * scale * ref.std_errors[name]
        assert abs(fit.params[name] - scale * ref.params[name]) <= tol, name
        if errors:
            assert abs(fit.std_errors[name] - scale * ref.std_errors[name]) <= tol, name


@PROPERTY
@given(seed=seeds, center=dip_centers, fwhm=dip_widths, contrast=contrasts, shift=st.floats(-500.0, 500.0))
def test_dip_fit_translates_with_the_axis(seed, center, fwhm, contrast, shift):
    counts = _odmr_counts(((center, fwhm, contrast),), seed)
    ref = fit_odmr_dips(_odmr(counts), 1)
    moved = fit_odmr_dips(_odmr(counts, ODMR_AXIS + shift), 1)
    assert abs(moved.params["center_1"] - (ref.params["center_1"] + shift)) <= TOL * ref.std_errors["center_1"]
    _assert_same(moved, ref, ("baseline", "fwhm_1", "contrast_1"))


@PROPERTY
@given(seed=seeds, center=peak_centers, fwhm=peak_widths, shift=st.floats(-100.0, 100.0))
def test_peak_fit_translates_with_the_axis(seed, center, fwhm, shift):
    counts = _pl_counts(center, fwhm, seed)
    ref = fit_pl_peak(_pl(counts))
    moved = fit_pl_peak(_pl(counts, PL_AXIS + shift))
    assert abs(moved.params["center"] - (ref.params["center"] + shift)) <= TOL * ref.std_errors["center"]
    _assert_same(moved, ref, ("fwhm", "amplitude", "background"))


@PROPERTY
@given(seed=seeds, center=dip_centers, fwhm=dip_widths, contrast=contrasts, scale=st.floats(0.01, 100.0))
def test_dip_fit_scales_only_the_baseline(seed, center, fwhm, contrast, scale):
    counts = _odmr_counts(((center, fwhm, contrast),), seed)
    ref = fit_odmr_dips(_odmr(counts), 1)
    scaled = fit_odmr_dips(_odmr(scale * counts), 1)
    _assert_same(scaled, ref, ("center_1", "fwhm_1", "contrast_1"), errors=False)
    _assert_same(scaled, ref, ("baseline",), scale, errors=False)


@PROPERTY
@given(seed=seeds, center=peak_centers, fwhm=peak_widths, scale=st.floats(0.01, 100.0))
def test_peak_fit_scales_only_background_and_amplitude(seed, center, fwhm, scale):
    counts = _pl_counts(center, fwhm, seed)
    ref = fit_pl_peak(_pl(counts))
    scaled = fit_pl_peak(_pl(scale * counts))
    _assert_same(scaled, ref, ("center", "fwhm"), errors=False)
    _assert_same(scaled, ref, ("background", "amplitude"), scale, errors=False)


def _assert_width_folded(fit, ref, width):
    """A fit started at minus ``ref``'s start width mirrors ``ref`` exactly."""
    assert fit.params[width] > 0.0
    assert fit.params == ref.params
    assert fit.std_errors == ref.std_errors
    np.testing.assert_array_equal(fit.covariance, ref.covariance)


@PROPERTY
@given(seed=seeds, center=dip_centers, fwhm=dip_widths, contrast=contrasts, start=st.floats(4.0, 30.0))
def test_negative_start_width_folds_onto_positive_dip_width(seed, center, fwhm, contrast, start):
    trace = _odmr(_odmr_counts(((center, fwhm, contrast),), seed))
    ref = fit_odmr_dips(trace, 1, init={"fwhm_1": start})
    _assert_width_folded(fit_odmr_dips(trace, 1, init={"fwhm_1": -start}), ref, "fwhm_1")


@PROPERTY
@given(seed=seeds, center=peak_centers, fwhm=peak_widths, start=st.floats(1.0, 15.0))
def test_negative_start_width_folds_onto_positive_peak_width(seed, center, fwhm, start):
    trace = _pl(_pl_counts(center, fwhm, seed))
    ref = fit_pl_peak(trace, init={"fwhm": start})
    _assert_width_folded(fit_pl_peak(trace, init={"fwhm": -start}), ref, "fwhm")


@PROPERTY
@given(
    seed=seeds,
    mid=st.floats(2860.0, 2880.0),
    split=st.floats(30.0, 50.0),
    widths=st.tuples(st.floats(6.0, 12.0), st.floats(6.0, 12.0)),
    depths=st.tuples(st.floats(0.04, 0.08), st.floats(0.04, 0.08)),
    negative=st.sampled_from(("fwhm_1", "fwhm_2")),
)
def test_two_dip_fit_orders_centers_whatever_the_start(seed, mid, split, widths, depths, negative):
    dips = ((mid - 0.5 * split, widths[0], depths[0]), (mid + 0.5 * split, widths[1], depths[1]))
    trace = _odmr(_odmr_counts(dips, seed))
    start = {"baseline": 2e4}
    for d, (c, w, cn) in enumerate(dips, start=1):
        start.update({f"center_{d}": c, f"fwhm_{d}": w, f"contrast_{d}": cn})
    ref = fit_odmr_dips(trace, 2, init=start)
    names = ("baseline", "center_1", "fwhm_1", "contrast_1", "center_2", "fwhm_2", "contrast_2")

    swapped = {name.replace("_1", "_x").replace("_2", "_1").replace("_x", "_2"): v for name, v in start.items()}
    fit = fit_odmr_dips(trace, 2, init=swapped)
    assert fit.params["center_1"] < fit.params["center_2"]
    _assert_same(fit, ref, names)
    assert abs(fit.derived["d_center"][1] - ref.derived["d_center"][1]) <= TOL * ref.derived["d_center"][1]

    _assert_width_folded(fit_odmr_dips(trace, 2, init={**start, negative: -start[negative]}), ref, negative)
