"""Acceptance suite: the nine headline guarantees, one test each.

Every test states its tolerance inline and runs from fixed seeds.  The
timing-capped tests measure wall-clock time around the full workload, so a
pass here certifies both the statistics and the runtime budget.
"""

import io
import math
import time

import numpy as np
import pytest

from dualtherm import (
    AxisKind,
    BfieldSettings,
    OdmrModel,
    OdmrSettings,
    PlModel,
    ScenarioConfig,
    ScenarioKind,
    SpectrumTrace,
    channel_regression,
    estimate_noise_floor,
    fit_odmr_dips,
    fit_pl_peak,
    nv_shot_noise_sensitivity,
    odmr_expected_counts,
    pl_expected_counts,
    recovered_step_amplitude,
    run_bfield_artifact,
    run_laser_modulation,
    run_precision_sweep,
    run_ramp,
    sample_poisson_counts,
    subsystem_generators,
    write_records,
    zeeman_resonances,
)

ODMR_AXIS = np.linspace(2820.0, 2920.0, 201)
ODMR_TAU = 1.5 / 201
PL_AXIS = np.arange(715.0, 760.05, 0.1)


def _rel(fitted: float, true: float) -> float:
    return abs(fitted - true) / abs(true)


def test_noiseless_round_trips_recover_parameters_to_1e6():
    # 100 randomized parameter sets over single-dip, double-dip, and peak
    # models; every fitted parameter must land within 1e-6 relative in < 10 s
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        kind = i % 3
        if kind == 0:
            rate = 10.0 ** rng.uniform(7.0, 9.0)
            truth = {
                "baseline": rate * ODMR_TAU,
                "center_1": rng.uniform(2835.0, 2905.0),
                "fwhm_1": rng.uniform(8.0, 16.0),
                "contrast_1": rng.uniform(0.04, 0.18),
            }
            model = OdmrModel(
                baseline_rate=rate,
                dips=((truth["center_1"], truth["fwhm_1"], truth["contrast_1"]),),
            )
            counts = odmr_expected_counts(model, ODMR_AXIS, ODMR_TAU)
            trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
            fit = fit_odmr_dips(trace, 1)
        elif kind == 1:
            rate = 10.0 ** rng.uniform(7.0, 9.0)
            mid = rng.uniform(2855.0, 2885.0)
            half_split = rng.uniform(10.0, 25.0)
            truth = {
                "baseline": rate * ODMR_TAU,
                "center_1": mid - half_split,
                "fwhm_1": rng.uniform(8.0, 15.0),
                "contrast_1": rng.uniform(0.04, 0.12),
                "center_2": mid + half_split,
                "fwhm_2": rng.uniform(8.0, 15.0),
                "contrast_2": rng.uniform(0.04, 0.12),
            }
            model = OdmrModel(
                baseline_rate=rate,
                dips=(
                    (truth["center_1"], truth["fwhm_1"], truth["contrast_1"]),
                    (truth["center_2"], truth["fwhm_2"], truth["contrast_2"]),
                ),
            )
            counts = odmr_expected_counts(model, ODMR_AXIS, ODMR_TAU)
            trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
            fit = fit_odmr_dips(trace, 2)
        else:
            bg_rate = 10.0 ** rng.uniform(3.7, 4.7)
            amp_rate = 10.0 ** rng.uniform(4.5, 5.5)
            center = rng.uniform(725.0, 750.0)
            fwhm = rng.uniform(3.5, 6.5)
            # fitted amplitude and background come out in integrated counts
            truth = {
                "background": bg_rate * 1.3,
                "amplitude": amp_rate * 1.3,
                "center": center,
                "fwhm": fwhm,
            }
            model = PlModel(background_rate=bg_rate, peaks=((center, fwhm, amp_rate),))
            counts = pl_expected_counts(model, PL_AXIS, 1.3)
            trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, PL_AXIS, counts)
            fit = fit_pl_peak(trace)
        assert fit.converged, f"set {i} failed to converge"
        for name, true_value in truth.items():
            worst = max(worst, _rel(fit.params[name], true_value))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst relative parameter error {worst:.3e}"
    assert elapsed < 10.0, f"round trips took {elapsed:.1f} s"


def test_precision_scales_as_root_time_with_155_mk_floor():
    # 100 repetitions per integration time; sigma(t) = eta * t**e must give
    # e = -0.5 +/- 0.05 and eta = 0.155 K/rtHz +/- 20%, inside 2 minutes
    start = time.perf_counter()
    cfg = ScenarioConfig(kind=ScenarioKind.PRECISION_SWEEP, seed=42)
    series = run_precision_sweep(cfg)["siv"]
    floor, exponent = estimate_noise_floor(series)
    elapsed = time.perf_counter() - start
    assert [t for t, _ in series] == [0.1, 0.3, 1.0, 3.0, 10.0, 30.0]
    assert exponent == pytest.approx(-0.5, abs=0.05)
    assert floor == pytest.approx(0.155, rel=0.20)
    assert elapsed < 120.0, f"precision sweep took {elapsed:.1f} s"


def test_shot_noise_sensitivity_value_and_exact_scalings():
    eta = nv_shot_noise_sensitivity(0.12, 12.0, 1e7, 0.07379)
    # hand arithmetic: 12 / (0.12 * sqrt(1e7) * 0.07379); the Lorentzian
    # prefactor 4 / (3 sqrt(3)) is not part of this figure
    assert eta == pytest.approx(0.4286, rel=1e-3)
    assert eta == pytest.approx(0.4285509771199863575, rel=1e-12)
    # doubling the linewidth doubles eta; doubling contrast or quadrupling
    # the photon rate halves it, all exactly in floating point
    assert nv_shot_noise_sensitivity(0.12, 24.0, 1e7, 0.07379) == 2.0 * eta
    assert nv_shot_noise_sensitivity(0.24, 12.0, 1e7, 0.07379) == 0.5 * eta
    assert nv_shot_noise_sensitivity(0.12, 12.0, 4e7, 0.07379) == 0.5 * eta


def test_cross_channel_linearity_noiseless_and_noised():
    expected_slope = 0.0084 / -0.07379
    # noiseless 25 -> 65 degC ramp: the two line positions must fall on the
    # susceptibility-ratio line with r^2 = 1
    clean = run_ramp(ScenarioConfig(kind=ScenarioKind.RAMP, seed=0, noiseless=True))
    nv = np.array([r.nv_f0_mhz for r in clean])
    siv = np.array([r.siv_pos_nm for r in clean])
    report = channel_regression(nv, siv, expected_slope)
    assert report.regression.slope == pytest.approx(expected_slope, rel=1e-9)
    assert report.regression.r_squared == pytest.approx(1.0, abs=1e-12)

    # photon-noised ramps: r^2 > 0.99 and |slope z| < 3 in at least 95% of
    # 200 seeded runs
    passes = 0
    for seed in range(200):
        records = run_ramp(ScenarioConfig(kind=ScenarioKind.RAMP, seed=seed))
        nv = np.array([r.nv_f0_mhz for r in records])
        siv = np.array([r.siv_pos_nm for r in records])
        rep = channel_regression(nv, siv, expected_slope)
        if rep.regression.r_squared > 0.99 and abs(rep.slope_z) < 3.0:
            passes += 1
    assert passes >= 190, f"only {passes}/200 noised ramps passed"


def test_zeeman_midpoint_identity_and_split_fit_recovery():
    # midpoint identity at machine precision for 10^4 random configurations
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        d = rng.uniform(2850.0, 2890.0)
        b = rng.uniform(-1.5, 1.5)
        lo, hi = zeeman_resonances(d, b)
        assert abs(0.5 * (lo + hi) - d) <= 8.0 * np.finfo(float).eps * d

    # noiseless split spectrum: the fitted dip-pair midpoint must recover
    # the zero-field center within 1e-6 MHz
    d_true = 2869.4
    lo, hi = zeeman_resonances(d_true, 0.3)
    model = OdmrModel(baseline_rate=5e8, dips=((lo, 12.0, 0.06), (hi, 12.0, 0.06)))
    counts = odmr_expected_counts(model, ODMR_AXIS, ODMR_TAU)
    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
    fit = fit_odmr_dips(trace, 2)
    assert fit.converged
    d_center, _ = fit.derived["d_center"]
    assert abs(d_center - d_true) < 1e-6


def test_field_artifact_flagging_rates_and_runtime():
    start = time.perf_counter()

    # detection: 100 seeds x 60 s -> 200 complete 20-sample windows; > 95%
    # must show the NV/SiV scatter ratio above 3 and carry the flag
    detected = 0
    for seed in range(100):
        cfg = ScenarioConfig(
            kind=ScenarioKind.BFIELD_ARTIFACT,
            seed=seed,
            duration_s=60.0,
            bfield=BfieldSettings(b_max_mt=0.5),
        )
        records = run_bfield_artifact(cfg)
        assert len(records) == 40
        for lo in (0, 20):
            window = records[lo : lo + 20]
            ratio = np.std([r.t_nv_c for r in window], ddof=1) / np.std(
                [r.t_siv_c for r in window], ddof=1
            )
            if ratio > 3.0 and all(r.artifact_flag for r in window):
                detected += 1
    assert detected / 200 > 0.95, f"detected {detected}/200 artifact windows"

    # false positives: 250 quiet seeds x 120 s -> 1000 windows, < 1% flagged
    false_hits = 0
    n_windows = 0
    for seed in range(250):
        cfg = ScenarioConfig(
            kind=ScenarioKind.BFIELD_ARTIFACT, seed=1000 + seed, duration_s=120.0
        )
        records = run_bfield_artifact(cfg)
        for lo in range(0, 80, 20):
            window = records[lo : lo + 20]
            n_windows += 1
            if any(r.artifact_flag for r in window):
                false_hits += 1
    assert n_windows == 1000
    assert false_hits / n_windows < 0.01, f"{false_hits}/1000 quiet windows flagged"

    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"artifact sweep took {elapsed:.1f} s"


def test_laser_step_amplitudes_agree_across_channels():
    # 85 -> 145 mW square modulation; each channel must recover its heating
    # step (4.41 K spin, 4.506 K optical) within 3 sigma, and the channels
    # must agree with each other within combined 3 sigma
    cfg = ScenarioConfig(
        kind=ScenarioKind.LASER_MODULATION,
        seed=5,
        duration_s=600.0,
        odmr=OdmrSettings(baseline_rate_cps=8e6),
    )
    records = run_laser_modulation(cfg)
    amp_nv, se_nv = recovered_step_amplitude(records, "nv")
    amp_siv, se_siv = recovered_step_amplitude(records, "siv")
    assert abs(amp_nv - 4.41) < 3.0 * se_nv, f"NV step {amp_nv:.3f} +/- {se_nv:.3f}"
    assert abs(amp_siv - 4.506) < 3.0 * se_siv, f"SiV step {amp_siv:.3f} +/- {se_siv:.3f}"
    assert abs(amp_nv - amp_siv) < 3.0 * math.hypot(se_nv, se_siv)


def test_seed_determinism_and_optical_channel_isolation():
    # identical configuration -> byte-identical CSV
    def csv_bytes() -> str:
        cfg = ScenarioConfig(
            kind=ScenarioKind.BFIELD_ARTIFACT,
            seed=21,
            duration_s=45.0,
            bfield=BfieldSettings(b_max_mt=0.5),
        )
        buf = io.StringIO()
        write_records(run_bfield_artifact(cfg), buf)
        return buf.getvalue()

    assert csv_bytes() == csv_bytes()

    # switching the field process on must leave every optical-channel value
    # bitwise unchanged: the two channels consume independent streams
    quiet = run_bfield_artifact(
        ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=21, duration_s=45.0)
    )
    noisy = run_bfield_artifact(
        ScenarioConfig(
            kind=ScenarioKind.BFIELD_ARTIFACT,
            seed=21,
            duration_s=45.0,
            bfield=BfieldSettings(b_max_mt=0.5),
        )
    )
    for rq, rn in zip(quiet, noisy):
        assert rq.siv_pos_nm == rn.siv_pos_nm
        assert rq.siv_pos_sigma_nm == rn.siv_pos_sigma_nm
        assert rq.siv_fwhm_nm == rn.siv_fwhm_nm
        assert rq.t_siv_c == rn.t_siv_c
        assert rq.t_siv_sigma_c == rn.t_siv_sigma_c


def test_reported_center_errors_match_monte_carlo_scatter():
    # 200 seeded fits of the 12% contrast, 12 MHz dip: the seed-to-seed
    # scatter of the fitted center must sit within [0.67, 1.5] times the
    # mean reported standard error
    model = OdmrModel(baseline_rate=5e8, dips=((2870.0, 12.0, 0.12),))
    expected = odmr_expected_counts(model, ODMR_AXIS, ODMR_TAU)
    centers = []
    errors = []
    for seed in range(200):
        rng = subsystem_generators(seed)["odmr"]
        counts = sample_poisson_counts(expected, rng).astype(np.float64)
        trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, ODMR_AXIS, counts)
        fit = fit_odmr_dips(trace, 1)
        assert fit.converged
        centers.append(fit.params["center_1"])
        errors.append(fit.std_errors["center_1"])
    ratio = float(np.std(centers, ddof=1) / np.mean(errors))
    assert 0.67 <= ratio <= 1.5, f"scatter/reported ratio {ratio:.3f}"
