"""Solver layer: Jacobians, round trips, model selection, regression."""

import math

import numpy as np
import pytest

from dualtherm import (
    AxisKind,
    FitResult,
    OdmrModel,
    PlModel,
    SpectrumTrace,
    backend_name,
    fit_odmr_dips,
    fit_pl_peak,
    fit_power_law,
    linear_regression,
    odmr_expected_counts,
    pl_expected_counts,
    select_dip_count,
)
from dualtherm.fitting import (
    _dips_model,
    _peak_model,
    _second_dip_score,
    _select_dip_count_unscreened,
    _weighted_cost,
)

ODMR_AXIS = np.linspace(2820.0, 2920.0, 201)
PL_AXIS = np.arange(715.0, 760.05, 0.1)


def _odmr_trace(model: OdmrModel, exposure_s: float = 0.01, rng=None) -> SpectrumTrace:
    expected = odmr_expected_counts(model, ODMR_AXIS, exposure_s)
    counts = expected if rng is None else rng.poisson(expected).astype(np.float64)
    return SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts, exposure_s)


def _pl_trace(model: PlModel, exposure_s: float = 1.0, rng=None) -> SpectrumTrace:
    expected = pl_expected_counts(model, PL_AXIS, exposure_s)
    counts = expected if rng is None else rng.poisson(expected).astype(np.float64)
    return SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, counts, exposure_s)


@pytest.mark.parametrize(
    "model,params",
    [
        (_dips_model, np.array([3.7e6, 2869.0, 11.5, 0.118])),
        (_dips_model, np.array([2.1e6, 2852.0, 9.0, 0.05, 2887.0, 14.0, 0.07])),
        (_peak_model, np.array([2.6e4, 1.7e5, 737.3, 4.9])),
    ],
)
def test_analytic_jacobian_matches_finite_differences(model, params):
    axis = ODMR_AXIS if model is _dips_model else PL_AXIS
    _, jac = model(axis, params)
    for j in range(params.size):
        h = 1e-6 * max(abs(params[j]), 1.0)
        up, dn = params.copy(), params.copy()
        up[j] += h
        dn[j] -= h
        fd = (model(axis, up)[0] - model(axis, dn)[0]) / (2 * h)
        scale = np.max(np.abs(fd)) + 1e-12
        np.testing.assert_allclose(jac[:, j], fd, atol=3e-5 * scale)


def test_single_dip_noiseless_round_trip():
    model = OdmrModel(baseline_rate=5e8, dips=((2869.2, 13.0, 0.11),))
    fit = fit_odmr_dips(_odmr_trace(model), 1)
    assert fit.converged
    assert fit.params["center_1"] == pytest.approx(2869.2, abs=1e-9)
    assert fit.params["fwhm_1"] == pytest.approx(13.0, rel=1e-9)
    assert fit.params["contrast_1"] == pytest.approx(0.11, rel=1e-9)
    assert fit.derived["d_center"][0] == pytest.approx(2869.2, abs=1e-9)
    assert fit.residual_rms < 1e-3


def test_two_dip_noiseless_round_trip_and_ordering():
    model = OdmrModel(baseline_rate=2e8, dips=((2855.0, 12.0, 0.06), (2885.0, 12.0, 0.06)))
    fit = fit_odmr_dips(_odmr_trace(model), 2)
    assert fit.converged
    assert fit.params["center_1"] < fit.params["center_2"]
    assert fit.params["center_1"] == pytest.approx(2855.0, abs=1e-8)
    assert fit.params["center_2"] == pytest.approx(2885.0, abs=1e-8)
    assert fit.derived["d_center"][0] == pytest.approx(2870.0, abs=1e-8)


def test_pl_peak_noiseless_round_trip():
    model = PlModel(background_rate=2e4, peaks=((737.6, 4.9, 1.3e5),))
    fit = fit_pl_peak(_pl_trace(model))
    assert fit.converged
    assert fit.params["center"] == pytest.approx(737.6, abs=1e-9)
    assert fit.params["fwhm"] == pytest.approx(4.9, rel=1e-9)
    assert fit.params["amplitude"] == pytest.approx(1.3e5, rel=1e-9)
    assert fit.params["background"] == pytest.approx(2e4, rel=1e-9)


def test_fit_reports_positive_width_regardless_of_start():
    # the model is even in the width, so a negative start must fold back
    model = OdmrModel(baseline_rate=1e7, dips=((2870.0, 12.0, 0.12),))
    fit = fit_odmr_dips(_odmr_trace(model), 1, init={"fwhm_1": -9.0})
    assert fit.converged
    assert fit.params["fwhm_1"] == pytest.approx(12.0, rel=1e-8)
    pl = PlModel(background_rate=1e4, peaks=((736.0, 5.0, 9e4),))
    fit2 = fit_pl_peak(_pl_trace(pl), init={"fwhm": -4.0})
    assert fit2.params["fwhm"] == pytest.approx(5.0, rel=1e-8)


def test_noised_fit_statistics():
    rng = np.random.default_rng(17)
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    fit = fit_odmr_dips(_odmr_trace(model, 1.5 / 201, rng), 1)
    assert fit.converged
    # weighted residuals of a correct model have unit reduced chi-square
    assert 0.7 < fit.reduced_chi2 < 1.3
    assert abs(fit.params["center_1"] - 2870.0) < 5 * fit.std_errors["center_1"]


def test_fit_result_rejects_inconsistent_std_errors():
    cov = np.array([[4.0]])
    with pytest.raises(ValueError):
        FitResult(
            param_names=("center",),
            params={"center": 1.0},
            std_errors={"center": 1.0},
            covariance=cov,
            residual_rms=0.0,
            reduced_chi2=1.0,
            converged=True,
            iterations=3,
        )


def test_init_override_rejects_unknown_keys():
    model = OdmrModel(baseline_rate=1e6, dips=((2870.0, 12.0, 0.1),))
    with pytest.raises(ValueError):
        fit_odmr_dips(_odmr_trace(model), 1, init={"centre": 2870.0})
    pl = PlModel(background_rate=1e3, peaks=((737.0, 5.0, 1e4),))
    with pytest.raises(ValueError):
        fit_pl_peak(_pl_trace(pl), init={"middle": 737.0})


def test_odmr_fit_validates_inputs():
    model = OdmrModel(baseline_rate=1e6, dips=((2870.0, 12.0, 0.1),))
    trace = _odmr_trace(model)
    with pytest.raises(ValueError):
        fit_odmr_dips(trace, 3)
    pl = SpectrumTrace(AxisKind.WAVELENGTH_NM, trace.axis, trace.counts, 0.01)
    with pytest.raises(ValueError):
        fit_odmr_dips(pl, 1)
    short = SpectrumTrace(
        AxisKind.FREQUENCY_MHZ, trace.axis[:5], trace.counts[:5], 0.01
    )
    with pytest.raises(ValueError):
        fit_odmr_dips(short, 1)


def test_pl_window_excludes_neighbouring_peak():
    # a strong line outside the window must not pull the fit
    model = PlModel(background_rate=2e4, peaks=((737.0, 4.8, 1.3e5), (637.0, 3.0, 6e4)))
    axis = np.arange(600.0, 800.05, 0.1)
    expected = pl_expected_counts(model, axis, 1.3)
    trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, expected, 1.3)
    fit = fit_pl_peak(trace, window=(715.0, 760.0))
    assert fit.converged
    assert fit.params["center"] == pytest.approx(737.0, abs=1e-4)
    with pytest.raises(ValueError):
        fit_pl_peak(trace, window=(715.0, 715.3))


def test_select_dip_count_single_dip_data():
    rng = np.random.default_rng(5)
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    n, fit = select_dip_count(_odmr_trace(model, 1.5 / 201, rng))
    assert n == 1
    assert tuple(fit.params) == ("baseline", "center_1", "fwhm_1", "contrast_1")


def test_select_dip_count_split_data():
    rng = np.random.default_rng(6)
    model = OdmrModel(baseline_rate=5e8, dips=((2856.0, 12.0, 0.06), (2884.0, 12.0, 0.06)))
    n, fit = select_dip_count(_odmr_trace(model, 1.5 / 201, rng))
    assert n == 2
    assert fit.derived["d_center"][0] == pytest.approx(2870.0, abs=0.05)


@pytest.mark.parametrize("depth_sigma", [4.5, 6.0])
def test_select_dip_count_ignores_single_sample_spike(depth_sigma):
    """A one-point dip can buy chi-square but must never win selection."""
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.5 / 201)
    rng = np.random.default_rng(3)
    counts = rng.poisson(expected).astype(np.float64)
    # push one off-resonance sample several sigma low
    counts[30] -= depth_sigma * np.sqrt(expected[30])
    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts, 1.5 / 201)
    n, fit = select_dip_count(trace)
    assert n == 1
    assert fit.derived["d_center"][0] == pytest.approx(2870.0, abs=0.05)


def test_select_dip_count_spurious_rate_on_clean_spectra():
    """Phantom second dips must stay rare on clean single-dip spectra."""
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.5 / 201)
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(300):
        counts = rng.poisson(expected).astype(np.float64)
        trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts, 1.5 / 201)
        n, _ = select_dip_count(trace)
        hits += n == 2
    assert hits == 0


def test_linear_regression_matches_polyfit():
    rng = np.random.default_rng(21)
    x = np.linspace(0.0, 9.0, 40)
    y = 3.25 * x - 7.5 + rng.normal(0.0, 0.4, x.size)
    reg = linear_regression(x, y)
    slope_ref, intercept_ref = np.polyfit(x, y, 1)
    assert reg.slope == pytest.approx(slope_ref, rel=1e-12)
    assert reg.intercept == pytest.approx(intercept_ref, rel=1e-12)
    # textbook standard error of the slope
    resid = y - (reg.intercept + reg.slope * x)
    se_ref = np.sqrt(resid @ resid / (x.size - 2) / np.sum((x - x.mean()) ** 2))
    assert reg.slope_std_error == pytest.approx(se_ref, rel=1e-12)
    assert 0.97 < reg.r_squared < 1.0


def test_linear_regression_edge_cases():
    x = np.array([1.0, 2.0, 3.0])
    assert linear_regression(x, 2 * x + 1).r_squared == pytest.approx(1.0, abs=1e-15)
    assert linear_regression(x, np.full(3, 4.0)).r_squared == 0.0
    with pytest.raises(ValueError):
        linear_regression(np.full(3, 2.0), x)
    with pytest.raises(ValueError):
        linear_regression(x[:2], x[:2])


def test_fit_power_law_matches_loglog_polyfit():
    rng = np.random.default_rng(31)
    t = np.array([0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    sigma = 0.155 * t**-0.5 * np.exp(rng.normal(0.0, 0.03, t.size))
    amp, exponent = fit_power_law(t, sigma)
    b, a = np.polyfit(np.log(t), np.log(sigma), 1)
    assert amp == pytest.approx(np.exp(a), rel=1e-12)
    assert exponent == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        fit_power_law(t, -sigma)


@pytest.mark.parametrize("zero_counts", [False, True])
def test_weighted_cost_matches_explicit_sum(zero_counts):
    rng = np.random.default_rng(4711)
    model = odmr_expected_counts(
        OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),)), ODMR_AXIS, 1.5 / 201
    )
    if zero_counts:
        # sparse spectrum: most samples count nothing at all
        model = 0.3 * model / model.max()
    counts = rng.poisson(model).astype(np.float64)
    assert (counts == 0).any() == zero_counts
    weights = 1.0 / np.maximum(counts, 1.0)
    explicit = math.fsum(w * (c - m) ** 2 for c, m, w in zip(counts, model, weights))
    assert _weighted_cost(counts, model, weights) == pytest.approx(explicit, rel=1e-12)


def test_screened_dip_count_agrees_with_unscreened_selector():
    """The score screen may skip the two-dip fit but never change the choice."""
    tau = 1.5 / 201
    rng = np.random.default_rng(7001)
    clean = []
    for _ in range(40):
        model = OdmrModel(baseline_rate=5e8, dips=((rng.uniform(2860.0, 2880.0), 12.0, 0.12),))
        clean.append(_odmr_trace(model, tau, rng))
    pairs = []
    for n_pairs, (c_lo, c_hi), (s_lo, s_hi) in (
        # field-split pairs, unresolved to well resolved
        (40, (0.06, 0.06), (0.0, 14.0)),
        # faint pairs: here the score underestimates the two-dip gain, so the
        # selector must not trust it
        (80, (0.001, 0.002), (4.5, 7.5)),
        # pairs whose two-dip fits clear the BIC margin by 2-10x
        (40, (0.004, 0.006), (3.5, 5.5)),
    ):
        group = []
        for _ in range(n_pairs):
            mid, shift, c = rng.uniform(2860.0, 2880.0), rng.uniform(s_lo, s_hi), rng.uniform(c_lo, c_hi)
            model = OdmrModel(baseline_rate=5e8, dips=((mid - shift, 12.0, c), (mid + shift, 12.0, c)))
            group.append(_odmr_trace(model, tau, rng))
        pairs.append(group)

    margin = 3.0 * math.log(ODMR_AXIS.size)
    for g, group in enumerate([clean] + pairs):
        chosen = []
        for i, trace in enumerate(group):
            n_screened, fit_screened = select_dip_count(trace)
            n_full, fit_full = _select_dip_count_unscreened(trace)
            assert n_screened == n_full, f"group {g}, spectrum {i}"
            assert fit_screened.params == fit_full.params, f"group {g}, spectrum {i}"
            chosen.append(n_full)
        # the corpus must exercise both outcomes in each group of pairs ...
        if g == 0:
            assert chosen == [1] * len(group)
        else:
            assert 0 < chosen.count(2) < len(group), g
    # ... and the screen must skip the two-dip fit on clean spectra
    skipped = 0
    for trace in clean:
        skipped += _second_dip_score(trace, fit_odmr_dips(trace, 1)) < margin
    assert skipped >= 36, skipped


def test_backend_name_reports_numpy():
    # the fit kernels are plain numpy; benchmark output records this name
    assert backend_name() == "numpy"
