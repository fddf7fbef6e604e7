"""Solver layer: Jacobians, round trips, model selection, regression."""

import math
import tracemalloc
from dataclasses import replace

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
    sample_poisson_counts,
    select_dip_count,
    subsystem_generators,
)
from dualtherm import fitting
from dualtherm.fitting import (
    MAX_DIP_CONTRAST_RATIO,
    _bic_choice,
    _bic_margin,
    _dips_model,
    _dips_result,
    _fit,
    _fit_dips,
    _median,
    _odmr_init,
    _odmr_param_names,
    _peak_init,
    _peak_model,
    _peak_result,
    _physical_dips,
    _physical_peak,
    _screen_shapes,
    _screened_out,
    _second_dip_scores,
    _two_dip_starts,
    _weighted_cost,
    fit_odmr_candidates,
    fit_pl_peaks,
)
from dip_reference import select_dip_count_unscreened

ODMR_AXIS = np.linspace(2820.0, 2920.0, 201)
PL_AXIS = np.arange(715.0, 760.05, 0.1)


def _odmr_trace(model: OdmrModel, exposure_s: float = 0.01, rng=None) -> SpectrumTrace:
    expected = odmr_expected_counts(model, ODMR_AXIS, exposure_s)
    counts = expected if rng is None else rng.poisson(expected).astype(np.float64)
    return SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)


def _pl_trace(model: PlModel, exposure_s: float = 1.0, rng=None) -> SpectrumTrace:
    expected = pl_expected_counts(model, PL_AXIS, exposure_s)
    counts = expected if rng is None else rng.poisson(expected).astype(np.float64)
    return SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, counts)


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
    counts = _odmr_trace(model).counts
    start = _odmr_init(ODMR_AXIS, counts, 1)
    start[2] = -9.0
    [fit] = _fit_dips(ODMR_AXIS, counts[None], np.array([start]))
    assert fit.converged
    assert fit.params["fwhm_1"] == pytest.approx(12.0, rel=1e-8)
    pl = PlModel(background_rate=1e4, peaks=((736.0, 5.0, 9e4),))
    counts = _pl_trace(pl).counts
    start = _peak_init(PL_AXIS, counts)
    start[3] = -4.0
    fit2 = _peak_result(*_fit(_peak_model, _physical_peak, PL_AXIS, counts[None], np.array([start]))[0])
    assert fit2.params["fwhm"] == pytest.approx(5.0, rel=1e-8)


def test_noised_fit_statistics():
    rng = np.random.default_rng(17)
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    fit = fit_odmr_dips(_odmr_trace(model, 1.5 / 201, rng), 1)
    assert fit.converged
    # weighted residuals of a correct model have unit reduced chi-square
    assert 0.7 < fit.reduced_chi2 < 1.3
    assert abs(fit.params["center_1"] - 2870.0) < 5 * fit.std_errors["center_1"]


def test_fit_result_reads_std_errors_off_the_covariance():
    names = ("center", "fwhm", "amplitude")
    fit = FitResult(
        param_names=names,
        params=dict.fromkeys(names, 1.0),
        covariance=np.array([[4.0, 0.5, 0.0], [0.5, -1e-20, 0.0], [0.0, 0.0, math.nan]]),
        residual_rms=0.0,
        reduced_chi2=1.0,
        converged=True,
        iterations=3,
    )
    assert list(fit.std_errors) == list(names)
    assert fit.std_errors["center"] == 2.0
    # a negative variance reads as no spread, a NaN one stays NaN
    assert fit.std_errors["fwhm"] == 0.0
    assert math.isnan(fit.std_errors["amplitude"])
    with pytest.raises(TypeError):
        FitResult(
            param_names=("center",),
            params={"center": 1.0},
            std_errors={"center": 2.0},
            covariance=np.array([[4.0]]),
            residual_rms=0.0,
            reduced_chi2=1.0,
            converged=True,
            iterations=3,
        )


def test_odmr_fit_validates_inputs():
    model = OdmrModel(baseline_rate=1e6, dips=((2870.0, 12.0, 0.1),))
    trace = _odmr_trace(model)
    with pytest.raises(ValueError):
        fit_odmr_dips(trace, 3)
    pl = SpectrumTrace(AxisKind.WAVELENGTH_NM, trace.axis, trace.counts)
    with pytest.raises(ValueError):
        fit_odmr_dips(pl, 1)
    short = SpectrumTrace(AxisKind.FREQUENCY_MHZ, trace.axis[:5], trace.counts[:5])
    with pytest.raises(ValueError):
        fit_odmr_dips(short, 1)
    # the bare selector checks the trace itself
    with pytest.raises(ValueError, match="frequency-axis"):
        select_dip_count(pl)
    with pytest.raises(ValueError, match="need at least 8 samples, got 5"):
        select_dip_count(short)


@pytest.mark.parametrize("n_dips", [1, 2])
def test_dip_fits_with_negative_expected_counts_do_not_converge(n_dips):
    # at 10 counts per bin the free contrasts of many fits run to 1 or
    # beyond, a model with negative expected counts; such a fit must not
    # read as converged
    model = OdmrModel(baseline_rate=10.0, dips=((2870.0, 12.0, 0.3),))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.0)
    unphysical = 0
    for seed in range(40):
        counts = np.random.default_rng(seed).poisson(expected).astype(np.float64)
        fit = fit_odmr_dips(SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts), n_dips)
        contrasts = [fit.params[f"contrast_{d}"] for d in range(1, n_dips + 1)]
        physical = min(contrasts) > 0.0 and sum(contrasts) < 1.0
        assert physical or not fit.converged, seed
        unphysical += not physical
    assert unphysical >= 10, unphysical


def test_one_dip_fits_narrower_than_a_sample_step_do_not_converge():
    # at 10 counts per bin the weights 1 / max(counts, 1) give an empty bin
    # the most pull, and a one-dip fit can collapse onto that single bin
    model = OdmrModel(baseline_rate=10.0, dips=((2870.0, 12.0, 0.3),))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.0)
    step = float(np.median(np.diff(ODMR_AXIS)))
    converged = narrow = 0
    for seed in range(100):
        counts = np.random.default_rng(seed).poisson(expected).astype(np.float64)
        fit = fit_odmr_dips(SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts), 1)
        narrow += fit.params["fwhm_1"] < step
        if fit.converged:
            converged += 1
            assert fit.params["fwhm_1"] >= step, seed
    # the corpus holds collapsed fits, and fits of the line that still converge
    assert narrow >= 10, narrow
    assert converged >= 20, converged


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, n)
        assert _median(values) == float(np.median(values)), n
        values[rng.integers(n)] = np.nan
        assert math.isnan(_median(values)), n


def test_weak_pl_peak_fit_on_a_single_bin_does_not_converge():
    # a 30 cps peak on 100 cps for 1 s: the fit collapses onto one bin at
    # 728.1 nm, 9 nm from the line, which would read as a SiV temperature
    # far below absolute zero
    model = PlModel(background_rate=100.0, peaks=((737.0, 4.8, 30.0),))
    fit = fit_pl_peak(_pl_trace(model, rng=np.random.default_rng(1)))
    assert fit.params["fwhm"] < 1e-4
    assert fit.params["center"] == pytest.approx(728.1, abs=1e-6)
    assert not fit.converged


def test_pl_fits_narrower_than_a_sample_step_do_not_converge():
    # on a flat 10 counts per bin the weights 1 / max(counts, 1) let a peak
    # collapse onto a single bin that fluctuates high
    step = float(np.median(np.diff(PL_AXIS)))
    narrow = 0
    for seed in range(100):
        counts = np.random.default_rng(seed).poisson(np.full(PL_AXIS.size, 10.0)).astype(np.float64)
        fit = fit_pl_peak(SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, counts))
        narrow += fit.params["fwhm"] < step
        assert fit.params["fwhm"] >= step or not fit.converged, seed
    assert narrow >= 10, narrow


def test_pl_fit_at_ten_counts_per_bin_keeps_the_center_but_reads_the_background_low():
    """The weights ``1 / max(counts, 1)`` bias a sparse fit's flat level low.

    Weighting by the observed counts (Neyman's chi-square) gives the bins
    that fluctuate low the most weight, so at 10 background counts per bin
    the fitted background averages about 11% below the truth.  A symmetric
    line keeps its center: the bias moves both flanks alike.
    """
    model = PlModel(background_rate=10.0, peaks=((737.0, 4.8, 65.0),))
    expected = pl_expected_counts(model, PL_AXIS, 1.0)
    centers, backgrounds = [], []
    for seed in range(400):
        counts = np.random.default_rng(seed).poisson(expected).astype(np.float64)
        fit = fit_pl_peak(SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, counts))
        assert fit.converged, seed
        centers.append(fit.params["center"])
        backgrounds.append(fit.params["background"])

    def mean_and_se(values):
        return np.mean(values), np.std(values, ddof=1) / math.sqrt(len(values))

    center, center_se = mean_and_se(centers)
    assert abs(center - 737.0) < 3.0 * center_se, (center, center_se)
    background, background_se = mean_and_se(backgrounds)
    assert background + 5.0 * background_se < 10.0, (background, background_se)
    assert background > 8.0, background


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


def test_select_dip_count_reads_a_missing_candidate_as_screened_out():
    rng = np.random.default_rng(6)
    model = OdmrModel(baseline_rate=5e8, dips=((2856.0, 12.0, 0.06), (2884.0, 12.0, 0.06)))
    trace = _odmr_trace(model, 1.5 / 201, rng)
    [(one, two)] = fit_odmr_candidates(ODMR_AXIS, trace.counts[None])
    n_dips, fit = select_dip_count(trace)
    assert n_dips == 2 and fit.params == two.params
    assert select_dip_count(trace, (one, two)) == (2, two)
    # the caller's screen ruled the pair out: the one-dip fit stands
    assert select_dip_count(trace, (one, None)) == (1, one)


@pytest.mark.parametrize("depth_sigma", [4.5, 6.0])
def test_select_dip_count_ignores_single_sample_spike(depth_sigma):
    """A one-point dip can buy chi-square but must never win selection."""
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.5 / 201)
    rng = np.random.default_rng(3)
    counts = rng.poisson(expected).astype(np.float64)
    # push one off-resonance sample several sigma low
    counts[30] -= depth_sigma * np.sqrt(expected[30])
    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
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
        trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
        n, _ = select_dip_count(trace)
        hits += n == 2
    assert hits == 0


def test_partially_resolved_pairs_fit_as_two_positive_dips():
    """Pairs split by about one width must not fall into degenerate minima.

    Started from the samples alone, the two-dip fit of these pairs ran to the
    iteration cap with contrasts such as +1.98 and -1.94 (the 14 MHz split),
    and the selector kept one dip.
    """
    rng = np.random.default_rng(1)
    for split in (8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0):
        model = OdmrModel(
            baseline_rate=5e8, dips=((2870.0 - split / 2, 12.0, 0.06), (2870.0 + split / 2, 12.0, 0.06))
        )
        trace = _odmr_trace(model, 1.5 / 201, rng)
        n, selected = select_dip_count(trace)
        assert n == 2, split
        for fit in (selected, fit_odmr_dips(trace, 2)):
            assert fit.converged, split
            assert 0.0 < fit.params["contrast_1"] < 0.5, split
            assert 0.0 < fit.params["contrast_2"] < 0.5, split
            d_center, d_sigma = fit.derived["d_center"]
            assert abs(d_center - 2870.0) < 4.0 * d_sigma, split


def _pair_fit(contrast_1: float, contrast_2: float) -> FitResult:
    # a converged two-dip fit with every dip detected far above 5 sigma
    names = ("baseline", "center_1", "fwhm_1", "contrast_1", "center_2", "fwhm_2", "contrast_2")
    values = (3.7e6, 2866.0, 12.0, contrast_1, 2874.0, 12.0, contrast_2)
    sigmas = (10.0, 0.01, 0.01, 1e-4, 0.01, 0.01, 1e-4)
    return FitResult(
        param_names=names,
        params=dict(zip(names, values)),
        covariance=np.diag(np.square(sigmas)),
        residual_rms=1.0,
        reduced_chi2=1.0,
        converged=True,
        iterations=5,
    )


def _pair_result(contrast_1: float, contrast_2: float) -> FitResult:
    # the ``_pair_fit`` vector with the verdict of a ``_fit`` row that stops
    # on it: the fit of its own noiseless counts, started there
    fit = _pair_fit(contrast_1, contrast_2)
    p = np.array([fit.params[name] for name in fit.param_names])
    [(p_fit, *_, converged)] = _fit(_dips_model, _physical_dips, ODMR_AXIS, _dips_model(ODMR_AXIS, p)[0][None], p[None])
    assert p_fit.tobytes() == p.tobytes()
    return _dips_result(p, fit.covariance, 1.0, 1.0, 5, converged)


def test_dip_pairs_keep_the_contrast_ratio():
    # the lines of a Zeeman pair carry half the contrast each; a 12% dip
    # beside a 0.11% one (11 sigma) is no such pair, and its fit reads not
    # converged, so the selector keeps one dip even where the pair wins BIC
    trace = _odmr_trace(OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),)))
    # a one-dip chi-square far above the pair's, so that the pair wins BIC
    one = replace(fit_odmr_dips(trace, 1), reduced_chi2=10.0)
    for contrasts, kept in [
        ((0.12, 0.0011), False),
        ((0.0011, 0.12), False),
        ((0.06, 0.06), True),
        ((0.0299 * MAX_DIP_CONTRAST_RATIO, 0.03), True),
        ((0.0301 * MAX_DIP_CONTRAST_RATIO, 0.03), False),
    ]:
        two = _pair_result(*contrasts)
        assert two.converged is kept, contrasts
        assert _bic_choice(trace, one, two)[0] == (2 if kept else 1), contrasts


def _physical_dips_reference(axis: np.ndarray, p: np.ndarray) -> bool:
    # the physical-dip checks one dip at a time, as a loop
    step = float(np.median(np.diff(axis)))
    lo, hi = float(axis[0]), float(axis[-1])
    for j in range(1, p.size, 3):
        center, fwhm, contrast = p[j], abs(p[j + 1]), p[j + 2]
        if not (0.0 < contrast < 1.0 and lo <= center <= hi and step <= fwhm <= hi - lo):
            return False
    contrasts = p[3::3]
    return max(contrasts) <= MAX_DIP_CONTRAST_RATIO * min(contrasts) and sum(contrasts) < 1.0


def test_physical_dips_match_the_per_dip_checks():
    """Raw LM iterates of one and two dips: either width sign and either dip order give the same verdict."""
    rng = np.random.default_rng(13)
    n = 4000
    p = np.column_stack(
        [
            np.full(n, 3.7e6),
            rng.uniform(2810.0, 2930.0, n),
            rng.uniform(-120.0, 120.0, n) * rng.choice([1.0, 0.001], n, p=[0.9, 0.1]),
            rng.uniform(-0.1, 0.7, n),
            rng.uniform(2810.0, 2930.0, n),
            rng.uniform(-120.0, 120.0, n),
            rng.uniform(-0.1, 0.7, n),
        ]
    )
    for vectors in (p, p[:, :4]):
        physical = _physical_dips(ODMR_AXIS, vectors)
        assert physical.tolist() == [_physical_dips_reference(ODMR_AXIS, row) for row in vectors]
        assert 100 < physical.sum() < n - 100
        flipped = vectors * np.array([1, 1, -1, 1, 1, -1, 1])[: vectors.shape[1]]
        assert (_physical_dips(ODMR_AXIS, flipped) == physical).all()
        assert not _physical_dips(ODMR_AXIS, np.full(vectors.shape[1], np.nan))
    swapped = p[:, [0, 4, 5, 6, 1, 2, 3]]
    assert (_physical_dips(ODMR_AXIS, swapped) == _physical_dips(ODMR_AXIS, p)).all()


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

    for g, group in enumerate([clean] + pairs):
        chosen = []
        for i, trace in enumerate(group):
            n_screened, fit_screened = select_dip_count(trace)
            n_full, fit_full = select_dip_count_unscreened(trace)
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
        score = _second_dip_scores(ODMR_AXIS, trace.counts[None], [fit_odmr_dips(trace, 1)])[0]
        skipped += _screened_out(score, ODMR_AXIS.size)
    assert skipped >= 36, skipped


def test_screen_threshold_is_the_admissible_significance_or_the_bic_margin():
    # 5 sigma of contrast buys a chi-square of 25, which exceeds the BIC
    # margin 3 ln n up to n = exp(25 / 3), about 4,160 samples
    assert not _screened_out(25.0, 201)
    assert _screened_out(np.nextafter(25.0, 0.0), 201)
    assert _screened_out(24.99, 4150) and not _screened_out(25.0, 4150)
    margin = _bic_margin(4170)
    assert margin > 25.0
    assert _screened_out(np.nextafter(margin, 0.0), 4170) and not _screened_out(margin, 4170)
    assert _screened_out(np.array([15.0, 24.0, 25.0, math.inf]), 201).tolist() == [True, True, False, False]


def test_screen_at_the_admissible_significance_keeps_every_choice():
    """Nearly unresolved pairs score around the threshold; skipping their fits changes no choice."""
    tau = 1.5 / 201
    rng = np.random.default_rng(7401)
    n = ODMR_AXIS.size
    scores, chosen = [], []
    for i in range(40):
        mid, half = rng.uniform(2860.0, 2880.0), rng.uniform(0.0, 3.0)
        model = OdmrModel(baseline_rate=5e8, dips=((mid - half, 12.0, 0.06), (mid + half, 12.0, 0.06)))
        trace = _odmr_trace(model, tau, rng)
        n_screened, fit_screened = select_dip_count(trace)
        n_full, fit_full = select_dip_count_unscreened(trace)
        assert n_screened == n_full, f"spectrum {i}"
        assert fit_screened.params == fit_full.params, f"spectrum {i}"
        scores.append(float(_second_dip_scores(ODMR_AXIS, trace.counts[None], [fit_odmr_dips(trace, 1)])[0]))
        chosen.append(n_full)
    scores = np.array(scores)
    kept = np.array(chosen) == 2
    # some fits the BIC margin alone would run are skipped ...
    assert ((scores >= _bic_margin(n)) & (scores < 25.0)).any()
    # ... and every kept pair clears the threshold
    assert 0 < kept.sum() < kept.size
    assert not _screened_out(scores[kept], n).any()


def test_backend_name_reports_numpy():
    # the fit kernels are plain numpy; benchmark output records this name
    assert backend_name() == "numpy"


def _reference_score(trace: SpectrumTrace, one: FitResult) -> float:
    """The score of one trace as a per-trace loop over the candidate grid.

    Trusts the fit as ``_second_dip_scores`` does and projects with one
    vector product per candidate; the batched screen must agree with it.
    """
    margin = 3.0 * math.log(trace.axis.size)
    c, sigma = one.params["contrast_1"], one.std_errors["contrast_1"]
    if not (one.converged and c * c >= 100.0 * margin * sigma * sigma):
        return math.inf
    lor, _ = _screen_shapes(trace.axis.tobytes())
    candidates = lor.transpose(1, 0, 2).reshape(trace.axis.size, -1)
    weights = 1.0 / np.maximum(trace.counts, 1.0)
    root_w = np.sqrt(weights)
    model, jac = _dips_model(trace.axis, np.array([one.params[name] for name in one.param_names]))
    q, _ = np.linalg.qr(jac * root_w[:, None])
    s = root_w * (trace.counts - model)
    best = 0.0
    for g in candidates.T:
        norm2 = float(np.dot(weights, g * g))
        if norm2 == 0.0:
            # padding of the grid
            continue
        gq = q.T @ (root_w * g)
        num = float(np.dot(root_w * g, s) - gq @ (q.T @ s))
        den = norm2 - float(gq @ gq)
        if den > 1e-9 * norm2:
            best = max(best, num * num / den)
    qs = q.T @ s
    return float(qs @ qs) + best


def _screen_corpus() -> tuple[list[SpectrumTrace], list[FitResult], list[str]]:
    """Quiet, field-split, faint-pair, weak-pair and non-converged one-dip fits."""
    tau = 1.5 / 201
    rng = np.random.default_rng(7301)
    traces, ones, kinds = [], [], []

    def add(kind, dips):
        trace = _odmr_trace(OdmrModel(baseline_rate=5e8, dips=dips), tau, rng)
        traces.append(trace)
        if kind == "stopped":
            # fit_odmr_dips(trace, 1) stopped after one iteration
            start = np.array([_odmr_init(ODMR_AXIS, trace.counts, 1)])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fitting, "MAX_ITERATIONS", 1)
                ones.append(_fit_dips(ODMR_AXIS, trace.counts[None], start)[0])
        else:
            ones.append(fit_odmr_dips(trace, 1))
        kinds.append(kind)

    for k in range(4):
        add("quiet", ((2866.0 + 3.0 * k, 12.0, 0.12),))
        mid = 2868.0 + k
        for shift in rng.uniform(1.0, 7.0, 2):
            add("split", ((mid - shift, 12.0, 0.06), (mid + shift, 12.0, 0.06)))
        # faint pairs are trusted, and some of their candidates lie close to
        # the span of the one-dip Jacobian, where the score is most sensitive
        # to rounding
        add("faint", ((mid - 4.5, 12.0, 0.005), (mid + 4.5, 12.0, 0.005)))
        # too faint for the score to be trusted
        add("weak", ((mid - 3.0, 12.0, 0.0015), (mid + 3.0, 12.0, 0.0015)))
        add("stopped", ((2862.0 + 4.0 * k, 12.0, 0.12),))
    return traces, ones, kinds


@pytest.mark.parametrize("block", [1, 3, 8])
def test_block_scores_equal_single_trace_scores(block):
    traces, ones, kinds = _screen_corpus()
    n = ODMR_AXIS.size
    counts = np.array([t.counts for t in traces])
    single = np.array([_second_dip_scores(ODMR_AXIS, c[None], [o])[0] for c, o in zip(counts, ones)])
    scores = np.concatenate(
        [_second_dip_scores(ODMR_AXIS, counts[i : i + block], ones[i : i + block]) for i in range(0, len(traces), block)]
    )
    reference = np.array([_reference_score(t, o) for t, o in zip(traces, ones)])
    assert [o.converged for o in ones] == [kind != "stopped" for kind in kinds]
    # the weak and the non-converged fits are not trusted, and not scored
    untrusted = np.array([kind in ("weak", "stopped") for kind in kinds])
    assert np.array_equal(np.isinf(reference), untrusted)
    assert np.array_equal(np.isinf(scores), untrusted)
    assert np.array_equal(np.isinf(single), untrusted)
    np.testing.assert_allclose(scores[~untrusted], single[~untrusted], rtol=1e-12, atol=0.0)
    assert np.array_equal(_screened_out(scores, n), _screened_out(single, n))
    # the reference sums in another order; a gain counts only where its
    # denominator keeps 1e-9 of the candidate norm, so rounding moves it by
    # at most about 1e9 * 2.2e-16
    np.testing.assert_allclose(scores[~untrusted], reference[~untrusted], rtol=1e-6, atol=0.0)
    assert np.array_equal(_screened_out(scores, n), _screened_out(reference, n))
    # both decisions occur among the trusted records
    assert 0 < _screened_out(scores, n).sum() < (~untrusted).sum()


def test_block_scores_validate_their_inputs():
    traces, ones, _ = _screen_corpus()
    counts = np.array([t.counts for t in traces])
    assert _second_dip_scores(ODMR_AXIS, counts[:0], []).shape == (0,)
    with pytest.raises(ValueError, match="one-dip fits"):
        _second_dip_scores(ODMR_AXIS, counts[:2], ones[:1])


def test_block_score_memory_stays_small():
    # the screen reduces the grid a few hundred candidates at a time; the
    # cached grid itself (about 7 MB) is built before measuring
    traces, ones, kinds = _screen_corpus()
    trusted = [i for i, kind in enumerate(kinds) if kind in ("quiet", "split", "faint")][:8]
    block_counts, block_ones = np.array([traces[i].counts for i in trusted]), [ones[i] for i in trusted]
    _second_dip_scores(ODMR_AXIS, block_counts[:1], block_ones[:1])
    tracemalloc.start()
    try:
        _second_dip_scores(ODMR_AXIS, block_counts, block_ones)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"block of 8 peaked at {peak / 1e6:.2f} MB"


def test_two_dip_center_errors_match_monte_carlo_scatter():
    # 200 seeded fits of a 6% + 6% pair split by 20 MHz: the seed-to-seed
    # scatter of the fitted pattern midpoint must sit within [0.67, 1.5]
    # times the mean reported standard error
    model = OdmrModel(baseline_rate=5e8, dips=((2860.0, 12.0, 0.06), (2880.0, 12.0, 0.06)))
    expected = odmr_expected_counts(model, ODMR_AXIS, 1.5 / 201)
    centers = []
    errors = []
    for seed in range(200):
        rng = subsystem_generators(seed)["odmr"]
        counts = sample_poisson_counts(expected, rng).astype(np.float64)
        fit = fit_odmr_dips(SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts), 2)
        assert fit.converged
        d_center, d_sigma = fit.derived["d_center"]
        centers.append(d_center)
        errors.append(d_sigma)
    ratio = float(np.std(centers, ddof=1) / np.mean(errors))
    assert 0.67 <= ratio <= 1.5, f"scatter/reported ratio {ratio:.3f}"


def _stack_corpus(n_dips: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and sample starts of a mixed ODMR stack.

    Quiet and field-split spectra at the pipeline's exposure, a sparse row of
    at most 10 counts per bin, and a noiseless row started at its own
    parameters, whose weighted cost is 0 from the start; its dips share the
    contrast of the first start, so that they are physical.
    """
    tau = 1.5 / 201
    rng = np.random.default_rng(8101)
    counts = []
    for k in range(5):
        counts.append(_odmr_trace(OdmrModel(5e8, ((2866.0 + 2.0 * k, 12.0, 0.12),)), tau, rng).counts)
        shift = 2.0 + 1.5 * k
        pair = ((2870.0 - shift, 12.0, 0.06), (2870.0 + shift, 12.0, 0.06))
        counts.append(_odmr_trace(OdmrModel(5e8, pair), tau, rng).counts)
    counts.append(_odmr_trace(OdmrModel(5e8, ((2870.0, 12.0, 0.12),)), 5e-9, rng).counts)
    assert counts[-1].max() <= 10
    starts = [_odmr_init(ODMR_AXIS, c, n_dips) for c in counts]
    truth = np.array(starts[0])
    truth[3::3] = truth[3] / n_dips
    counts.append(_dips_model(ODMR_AXIS, truth)[0])
    starts.append(truth)
    return np.array(counts), np.array(starts)


def _fitted(model, physical, axis, counts, starts) -> list[tuple]:
    """Each row of a stacked ``_fit``, as bytes."""
    return [
        (p.tobytes(), cov.tobytes(), np.float64(rms).tobytes(), np.float64(chi2).tobytes(), iterations, converged)
        for p, cov, rms, chi2, iterations, converged in _fit(model, physical, axis, counts, starts)
    ]


def _fitted_alone(model, physical, axis, counts, starts) -> list[tuple]:
    """Each row fitted as a stack of one, as bytes."""
    return [_fitted(model, physical, axis, counts[i : i + 1], starts[i : i + 1])[0] for i in range(len(counts))]


@pytest.mark.parametrize("max_iterations", [200, 3])
@pytest.mark.parametrize("n_dips", [1, 2])
def test_stacked_fit_rows_equal_fits_of_one(monkeypatch, n_dips, max_iterations):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", max_iterations)
    counts, starts = _stack_corpus(n_dips)
    alone = _fitted_alone(_dips_model, _physical_dips, ODMR_AXIS, counts, starts)
    assert _fitted(_dips_model, _physical_dips, ODMR_AXIS, counts, starts) == alone
    assert _fitted(_dips_model, _physical_dips, ODMR_AXIS, counts[::-1], starts[::-1]) == alone[::-1]
    # a longer stack, in which every spectrum leaves three times
    tiled = np.concatenate([counts, counts[::-1], counts])
    long_rows = _fitted(_dips_model, _physical_dips, ODMR_AXIS, tiled, np.concatenate([starts, starts[::-1], starts]))
    assert long_rows == alone + alone[::-1] + alone
    # the corpus reaches the paths it is meant to: the noiseless row ends at
    # zero cost, rows leave the stack at different iterations, and a small
    # cap stops rows that would have gone on
    assert alone[-1][3] == np.float64(0.0).tobytes() and alone[-1][5]
    assert len({row[4] for row in alone}) > 1
    assert max_iterations > 3 or any(n == 3 and not converged for *_, n, converged in alone)


def test_stacked_peak_fits_equal_fits_of_one(monkeypatch):
    rng = np.random.default_rng(8102)
    peaks = [PlModel(background_rate=2e4, peaks=((735.0 + 0.5 * k, 4.8, 1.3e5),)) for k in range(9)]
    # and a sparse spectrum of a few counts per bin
    peaks.append(PlModel(background_rate=2.0, peaks=((737.0, 4.8, 6.0),)))
    counts = np.array([_pl_trace(model, 1.3, rng).counts for model in peaks])
    starts = np.array([[c[:20].mean(), c.max() - c[:20].mean(), PL_AXIS[np.argmax(c)], 4.0] for c in counts])
    tiled, tiled_starts = np.concatenate([counts, counts[::-1]]), np.concatenate([starts, starts[::-1]])
    for max_iterations in (200, 2):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", max_iterations)
        alone = _fitted_alone(_peak_model, _physical_peak, PL_AXIS, counts, starts)
        assert _fitted(_peak_model, _physical_peak, PL_AXIS, tiled, tiled_starts) == alone + alone[::-1]


def _assert_same_fit(fit, ref):
    assert fit.params == ref.params and fit.std_errors == ref.std_errors
    assert fit.covariance.tobytes() == ref.covariance.tobytes()
    assert (fit.residual_rms, fit.reduced_chi2) == (ref.residual_rms, ref.reduced_chi2)
    assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
    assert fit.derived == ref.derived


def test_fit_odmr_candidates_equal_fit_odmr_dips():
    counts, starts = _stack_corpus(2)
    traces = [SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, c) for c in counts]
    for n_dips in (1, 2):
        inits = starts[:, : len(_odmr_param_names(n_dips))]
        for stacked, row, init in zip(_fit_dips(ODMR_AXIS, counts, inits), counts, inits):
            [alone] = _fit_dips(ODMR_AXIS, row[None], init[None])
            _assert_same_fit(stacked, alone)
    # from the samples, each trace starts as fit_odmr_dips starts it
    candidates = fit_odmr_candidates(ODMR_AXIS, counts)
    ones = [one for one, _ in candidates]
    pairs = _fit_dips(ODMR_AXIS, counts, _two_dip_starts(ODMR_AXIS, counts, ones))
    for (one, two), pair, row, trace in zip(candidates, pairs, counts, traces):
        _assert_same_fit(one, fit_odmr_dips(trace, 1))
        _assert_same_fit(pair, fit_odmr_dips(trace, 2))
        # each row is fitted as in a stack of one
        [(one_alone, two_alone)] = fit_odmr_candidates(ODMR_AXIS, row[None])
        _assert_same_fit(one, one_alone)
        assert (two is None) == (two_alone is None)
        if two is not None:
            _assert_same_fit(two, two_alone)
        # a candidate not retired early is the full two-dip fit
        if two is not None and two.converged:
            _assert_same_fit(two, pair)
    # the corpus reaches both outcomes of the screen
    assert 0 < sum(two is None for _, two in candidates) < len(candidates)


def test_fit_pl_peaks_equal_fit_pl_peak():
    rng = np.random.default_rng(8103)
    models = [PlModel(background_rate=2e4, peaks=((735.0 + 0.7 * k, 4.8, 1.3e5),)) for k in range(6)]
    # a sparse spectrum of a few counts per bin
    models.append(PlModel(background_rate=2.0, peaks=((737.0, 4.8, 6.0),)))
    rows = [_pl_trace(model, 1.3, rng).counts for model in models]
    # a weak peak that collapses onto one bin and reads not converged
    weak = PlModel(background_rate=100.0, peaks=((737.0, 4.8, 30.0),))
    rows.append(_pl_trace(weak, rng=np.random.default_rng(1)).counts)
    counts = np.array(rows)
    assert counts[-2].mean() < 5
    fits = fit_pl_peaks(PL_AXIS, counts)
    assert len(fits) == len(counts)
    assert not fits[-1].converged and fits[0].converged
    for fit, row in zip(fits, counts):
        trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, row)
        _assert_same_fit(fit, fit_pl_peak(trace))
        # given its entry of the stage, the trace is not fitted again
        assert fit_pl_peak(trace, fit) is fit
    for fit, ref in zip(fit_pl_peaks(PL_AXIS, counts[::-1]), fits[::-1]):
        _assert_same_fit(fit, ref)


def test_fit_pl_peaks_check_the_spectra():
    counts = np.array([_pl_trace(PlModel(background_rate=2e4, peaks=((737.0, 4.8, 1.3e5),)), 1.3).counts] * 2)
    assert fit_pl_peaks(PL_AXIS, counts[:0]) == []
    with_nan = counts.copy()
    with_nan[1, 5] = np.nan
    cases = [
        (PL_AXIS, counts[0], r"counts of shape \(451,\) are not \(B, n\) for an axis of n = 451 samples"),
        (PL_AXIS, with_nan, "counts must be finite, got nan at sample 5"),
        (PL_AXIS[:4], counts[:, :4], "need at least 8 samples, got 4"),
    ]
    for axis, rows, message in cases:
        with pytest.raises(ValueError, match=message):
            fit_pl_peaks(axis, rows)


def test_two_dip_starts_do_not_depend_on_the_stack():
    # the screen corpus starts from the Zeeman pair, well resolved pairs
    # from the samples
    traces, ones, _ = _screen_corpus()
    rng = np.random.default_rng(7501)
    for shift in (12.0, 16.0, 20.0):
        model = OdmrModel(baseline_rate=5e8, dips=((2870.0 - shift, 8.0, 0.06), (2870.0 + shift, 8.0, 0.06)))
        trace = _odmr_trace(model, 1.5 / 201, rng)
        traces.append(trace)
        ones.append(fit_odmr_dips(trace, 1))
    counts = np.array([trace.counts for trace in traces])
    stacked = _two_dip_starts(ODMR_AXIS, counts, ones)
    alone = [_two_dip_starts(ODMR_AXIS, row[None], [one])[0] for row, one in zip(counts, ones)]
    assert stacked.tobytes() == np.array(alone).tobytes()
    from_pair = [start[2] == 0.7 * one.params["fwhm_1"] for start, one in zip(stacked, ones)]
    assert 0 < sum(from_pair) < len(from_pair)
    assert _two_dip_starts(ODMR_AXIS, counts[:0], []).shape == (0, 7)


def test_fit_odmr_candidates_of_no_spectra_are_empty():
    counts, _ = _stack_corpus(1)
    assert fit_odmr_candidates(ODMR_AXIS, counts[:0]) == []


def test_stack_fits_refuse_what_a_trace_refuses():
    counts, _ = _stack_corpus(1)
    with_nan, negative = counts.copy(), counts.copy()
    with_nan[1, 5] = np.nan
    negative[2, 7] = -1.0
    cases = [
        (ODMR_AXIS, counts[0], r"counts of shape \(201,\) are not \(B, n\) for an axis of n = 201 samples"),
        (ODMR_AXIS[:4], counts[:, :4], "need at least 8 samples, got 4"),
        (ODMR_AXIS[::-1], counts, "axis must be strictly increasing"),
        (ODMR_AXIS, with_nan, "counts must be finite, got nan at sample 5"),
        (ODMR_AXIS, negative, "counts must be non-negative"),
    ]
    for axis, rows, message in cases:
        with pytest.raises(ValueError, match=message):
            fit_odmr_candidates(axis, rows)
    with pytest.raises(ValueError, match="need at least 8 samples, got 4"):
        fit_odmr_dips(SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS[:4], counts[0, :4]), 1)
