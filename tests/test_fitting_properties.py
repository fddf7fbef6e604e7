"""Invariants of the Lorentzian fits, checked over generated spectra.

Each spectrum is one Poisson draw; the properties compare fits of that same
draw, so they hold to the solver's convergence tolerance, far below the
statistical error.  ``TOL`` is that tolerance in units of the fitted
standard error.  Scaling the counts leaves the fitted shape unchanged but
not quite its standard errors: the solver's ridge, a fixed fraction of the
normal matrix trace, weighs more against the background and amplitude
entries as the counts grow, so the scale properties compare parameters only.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtherm import (
    AxisKind,
    OdmrModel,
    PlModel,
    SpectrumTrace,
    fit_odmr_dips,
    fit_pl_peak,
    fitting,
    odmr_expected_counts,
    pl_expected_counts,
)
from dualtherm.fitting import (
    _dips_model,
    _fit,
    _fit_dips,
    _odmr_init,
    _peak_init,
    _peak_model,
    _peak_result,
    _physical_dips,
    _physical_peak,
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
    return SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts)


def _pl(counts: np.ndarray, axis: np.ndarray = PL_AXIS) -> SpectrumTrace:
    return SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, counts)


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


def _dips_from(trace, start):
    """The dip fit of ``trace`` from ``start``, in ``_odmr_param_names`` order."""
    return _fit_dips(trace.axis, trace.counts[None], np.array([start]))[0]


def _peak_from(trace, start):
    """The peak fit of ``trace`` from ``start``, in model order ``[bg, A, c, w]``."""
    return _peak_result(*_fit(_peak_model, _physical_peak, trace.axis, trace.counts[None], np.array([start]))[0])


@PROPERTY
@given(seed=seeds, center=dip_centers, fwhm=dip_widths, contrast=contrasts, start=st.floats(4.0, 30.0))
def test_negative_start_width_folds_onto_positive_dip_width(seed, center, fwhm, contrast, start):
    trace = _odmr(_odmr_counts(((center, fwhm, contrast),), seed))
    baseline, center_0, _, contrast_0 = _odmr_init(trace.axis, trace.counts, 1)
    ref = _dips_from(trace, [baseline, center_0, start, contrast_0])
    _assert_width_folded(_dips_from(trace, [baseline, center_0, -start, contrast_0]), ref, "fwhm_1")


@PROPERTY
@given(seed=seeds, center=peak_centers, fwhm=peak_widths, start=st.floats(1.0, 15.0))
def test_negative_start_width_folds_onto_positive_peak_width(seed, center, fwhm, start):
    trace = _pl(_pl_counts(center, fwhm, seed))
    background, amplitude, center_0, _ = _peak_init(trace.axis, trace.counts)
    ref = _peak_from(trace, [background, amplitude, center_0, start])
    _assert_width_folded(_peak_from(trace, [background, amplitude, center_0, -start]), ref, "fwhm")


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
    start = [2e4, *dips[0], *dips[1]]
    ref = _dips_from(trace, start)
    names = ("baseline", "center_1", "fwhm_1", "contrast_1", "center_2", "fwhm_2", "contrast_2")

    fit = _dips_from(trace, start[:1] + start[4:] + start[1:4])
    assert fit.params["center_1"] < fit.params["center_2"]
    _assert_same(fit, ref, names)
    assert abs(fit.derived["d_center"][1] - ref.derived["d_center"][1]) <= TOL * ref.derived["d_center"][1]

    j = names.index(negative)
    start[j] = -start[j]
    _assert_width_folded(_dips_from(trace, start), ref, negative)


@PROPERTY
@given(
    spectra=st.lists(
        st.tuples(seeds, dip_centers, st.floats(0.0, 10.0), contrasts, st.sampled_from((1e-4, 0.01, 1.0))),
        min_size=10,
        max_size=22,
    ),
    case=st.sampled_from([(kind, cap) for kind in ("1 dip", "2 dips", "2 dips retired", "peak") for cap in (2, 200)]),
)
def test_stacked_fit_rows_do_not_depend_on_the_stack(spectra, case):
    """Each row of a stacked fit comes out bit for bit as the fit of that row alone.

    The spectra mix single dips and Zeeman-split pairs at several count
    levels, so rows leave the stack at different steps.  Two-dip stacks
    also run with retirement put past the cap, as the unretired reference
    fits run, and peak stacks fit PL peaks placed and widened by the same
    draws.
    """
    kind, max_iterations = case
    patience = fitting._PATIENCE
    if kind == "peak":
        model, physical, axis, init = _peak_model, _physical_peak, PL_AXIS, _peak_init
        counts = np.array(
            [_pl_counts(735.0 + split, 40.0 * contrast, seed) * level for seed, _, split, contrast, level in spectra]
        )
    else:
        model, physical, axis = _dips_model, _physical_dips, ODMR_AXIS
        n_dips = 1 if kind == "1 dip" else 2
        init = functools.partial(_odmr_init, n_dips=n_dips)
        counts = np.array(
            [
                _odmr_counts(((center - split, 12.0, 0.5 * contrast), (center + split, 12.0, 0.5 * contrast)), seed)
                * level
                for seed, center, split, contrast, level in spectra
            ]
        )
        if kind == "2 dips":
            patience = max_iterations + 1
    counts = np.round(counts)
    starts = np.array([init(axis, c) for c in counts])

    def fitted(rows):
        return [
            (p.tobytes(), cov.tobytes(), np.float64(rms).tobytes(), np.float64(chi2).tobytes(), iterations, converged)
            for p, cov, rms, chi2, iterations, converged in _fit(model, physical, axis, counts[rows], starts[rows])
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "MAX_ITERATIONS", max_iterations)
        patch.setattr(fitting, "_PATIENCE", patience)
        alone = [fitted([i])[0] for i in range(len(counts))]
        assert fitted(slice(None)) == alone
        order = np.random.default_rng(spectra[0][0]).permutation(len(counts))
        assert fitted(order) == [alone[i] for i in order]
