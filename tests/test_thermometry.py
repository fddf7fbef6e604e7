"""Temperature conversion, sensitivity relation, noise-floor extraction."""

import numpy as np
import pytest

from dualtherm import (
    AxisKind,
    Channel,
    NvCalibration,
    OdmrModel,
    PlModel,
    SivCalibration,
    SpectrumTrace,
    estimate_noise_floor,
    fit_odmr_dips,
    fit_pl_peak,
    nv_resonance_of_temperature,
    nv_shot_noise_sensitivity,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
    temperature_from_odmr,
    temperature_from_zpl,
)


def _odmr_fit_at(t_c: float):
    cal = NvCalibration()
    d = nv_resonance_of_temperature(cal, t_c)
    axis = np.linspace(2820.0, 2920.0, 201)
    model = OdmrModel(baseline_rate=1e8, dips=((d, 12.0, 0.12),))
    counts = odmr_expected_counts(model, axis, 0.01)
    return fit_odmr_dips(SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts), 1)


def _pl_fit_at(t_c: float):
    cal = SivCalibration()
    pos, fwhm = siv_zpl_of_temperature(cal, t_c)
    axis = np.arange(715.0, 760.05, 0.1)
    model = PlModel(background_rate=2e4, peaks=((pos, fwhm, 1.3e5),))
    counts = pl_expected_counts(model, axis, 1.3)
    return fit_pl_peak(SpectrumTrace(AxisKind.WAVELENGTH_NM, axis, counts))


@pytest.mark.parametrize("t_true", [10.0, 25.0, 42.5, 85.0])
def test_odmr_temperature_round_trip(t_true):
    est = temperature_from_odmr(_odmr_fit_at(t_true), NvCalibration(), timestamp_s=4.0)
    assert est.channel is Channel.NV_ODMR
    assert est.timestamp_s == 4.0
    assert est.value_c == pytest.approx(t_true, abs=1e-7)
    assert est.sigma_c >= 0.0


@pytest.mark.parametrize("t_true", [10.0, 25.0, 42.5, 85.0])
def test_zpl_temperature_round_trip(t_true):
    est = temperature_from_zpl(_pl_fit_at(t_true), SivCalibration())
    assert est.channel is Channel.SIV_ZPL
    assert est.value_c == pytest.approx(t_true, abs=1e-7)


def test_temperature_sigma_scales_with_inverse_slope():
    fit = _odmr_fit_at(25.0)
    base = temperature_from_odmr(fit, NvCalibration())
    doubled = temperature_from_odmr(fit, NvCalibration(slope_mhz_per_c=-0.14758))
    assert doubled.sigma_c == pytest.approx(base.sigma_c / 2, rel=1e-12)


def test_unconverged_fit_is_refused():
    fit = _odmr_fit_at(25.0)
    broken = type(fit)(
        param_names=fit.param_names,
        params=fit.params,
        covariance=fit.covariance,
        residual_rms=fit.residual_rms,
        reduced_chi2=fit.reduced_chi2,
        converged=False,
        iterations=fit.iterations,
        derived=fit.derived,
    )
    with pytest.raises(ValueError):
        temperature_from_odmr(broken, NvCalibration())
    with pytest.raises(ValueError):
        # a dip fit carries no "center" parameter for the ZPL reader
        temperature_from_zpl(fit, SivCalibration())


def test_sensitivity_hand_value():
    # 12 / (0.12 * sqrt(1e7) * 0.07379), checked against 40-digit arithmetic
    eta = nv_shot_noise_sensitivity(0.12, 12.0, 1e7, 0.07379)
    assert eta == pytest.approx(0.4285509771199863575, rel=1e-15)


def test_sensitivity_scaling_identities_exact():
    eta = nv_shot_noise_sensitivity(0.12, 12.0, 1e7, 0.07379)
    assert nv_shot_noise_sensitivity(0.12, 24.0, 1e7, 0.07379) == 2 * eta
    assert nv_shot_noise_sensitivity(0.24, 12.0, 1e7, 0.07379) == eta / 2
    assert nv_shot_noise_sensitivity(0.12, 12.0, 4e7, 0.07379) == eta / 2


def test_sensitivity_scaling_random_parameters():
    rng = np.random.default_rng(55)
    for _ in range(200):
        c = rng.uniform(0.01, 0.5)
        w = rng.uniform(1.0, 30.0)
        r = 10 ** rng.uniform(4, 9)
        k = rng.uniform(0.01, 0.2)
        eta = nv_shot_noise_sensitivity(c, w, r, k)
        assert nv_shot_noise_sensitivity(c, 2 * w, r, k) == pytest.approx(2 * eta, rel=4e-16)
        assert nv_shot_noise_sensitivity(2 * c, w, r, k) == pytest.approx(eta / 2, rel=4e-16)
        assert nv_shot_noise_sensitivity(c, w, 4 * r, k) == pytest.approx(eta / 2, rel=4e-16)


def test_sensitivity_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        nv_shot_noise_sensitivity(0.0, 12.0, 1e7, 0.07379)
    with pytest.raises(ValueError):
        nv_shot_noise_sensitivity(0.12, 12.0, 1e7, -0.07)
    # a dip cannot remove more than all of the light
    for contrast in (1.0, 2.0):
        with pytest.raises(ValueError, match=r"contrast must lie in \(0, 1\)"):
            nv_shot_noise_sensitivity(contrast, 12.0, 1e7, 0.07379)


def test_estimate_noise_floor():
    t = np.array([0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    series = [(float(ti), float(0.155 * ti**-0.5)) for ti in t]
    floor, exponent = estimate_noise_floor(series)
    assert floor == pytest.approx(0.155, rel=1e-12)
    assert exponent == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_noise_floor([])


def test_estimate_noise_floor_matches_loglog_polyfit():
    rng = np.random.default_rng(31)
    t = np.array([0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    sigma = 0.155 * t**-0.5 * np.exp(rng.normal(0.0, 0.03, t.size))
    floor, exponent = estimate_noise_floor(zip(t.tolist(), sigma.tolist()))
    b, a = np.polyfit(np.log(t), np.log(sigma), 1)
    assert floor == pytest.approx(np.exp(a), rel=1e-12)
    assert exponent == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError, match="must all be > 0"):
        estimate_noise_floor(zip(t.tolist(), (-sigma).tolist()))
