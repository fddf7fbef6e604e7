"""Forward spectral models, calibration lines, and trace validation."""

import numpy as np
import pytest

from dualtherm import (
    AxisKind,
    GYROMAGNETIC_MHZ_PER_MT,
    HeatingModel,
    NvCalibration,
    OdmrModel,
    PlModel,
    SivCalibration,
    SpectrumTrace,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
    temperature_of_laser_power,
    unit_lorentzian,
    zeeman_resonances,
)


def test_unit_lorentzian_peak_and_half_maximum():
    axis = np.array([700.0, 734.0, 737.0, 740.0, 780.0])
    vals = unit_lorentzian(axis, 737.0, 6.0)
    assert vals[2] == 1.0
    # half maximum exactly one half width from the center
    assert vals[1] == pytest.approx(0.5, abs=1e-15)
    assert vals[3] == pytest.approx(0.5, abs=1e-15)
    assert vals[0] < 0.1 and vals[4] < 0.1


def test_unit_lorentzian_is_even_around_center():
    offsets = np.linspace(0.1, 40.0, 57)
    left = unit_lorentzian(737.0 - offsets, 737.0, 4.8)
    right = unit_lorentzian(737.0 + offsets, 737.0, 4.8)
    np.testing.assert_array_equal(left, right)


def test_odmr_expected_counts_hand_values():
    # rate 100 cps, exposure 2 s, one dip of contrast 0.5: center sees half
    model = OdmrModel(baseline_rate=100.0, dips=((2870.0, 12.0, 0.5),))
    axis = np.array([2870.0, 2876.0])
    counts = odmr_expected_counts(model, axis, exposure_s=2.0)
    assert counts[0] == pytest.approx(100.0, rel=1e-15)
    # one half width off center the dip depth is halved
    assert counts[1] == pytest.approx(200.0 * (1.0 - 0.25), rel=1e-15)


def test_odmr_expected_counts_two_dips_add():
    single_a = OdmrModel(baseline_rate=1e6, dips=((2860.0, 10.0, 0.05),))
    single_b = OdmrModel(baseline_rate=1e6, dips=((2880.0, 10.0, 0.07),))
    both = OdmrModel(baseline_rate=1e6, dips=((2860.0, 10.0, 0.05), (2880.0, 10.0, 0.07)))
    axis = np.linspace(2820.0, 2920.0, 201)
    depth_a = 1e6 * 0.1 - odmr_expected_counts(single_a, axis, 0.1)
    depth_b = 1e6 * 0.1 - odmr_expected_counts(single_b, axis, 0.1)
    depth_both = 1e6 * 0.1 - odmr_expected_counts(both, axis, 0.1)
    np.testing.assert_allclose(depth_both, depth_a + depth_b, rtol=1e-12)


def test_odmr_model_takes_per_sample_centers():
    # each sample of a moving-dip sweep is the static model with the dip
    # parked at that sample's center
    rng = np.random.default_rng(5)
    axis = np.linspace(2820.0, 2920.0, 201)
    b_points = rng.uniform(-0.5, 0.5, axis.size)
    lo, hi = zeeman_resonances(2870.0, b_points)
    moving = odmr_expected_counts(OdmrModel(5e8, ((lo, 12.0, 0.06), (hi, 12.0, 0.06))), axis, 0.0075)
    for i in range(axis.size):
        static = OdmrModel(baseline_rate=5e8, dips=((lo[i], 12.0, 0.06), (hi[i], 12.0, 0.06)))
        assert moving[i] == odmr_expected_counts(static, axis, 0.0075)[i]
    with pytest.raises(ValueError):
        odmr_expected_counts(OdmrModel(5e8, ((lo, 12.0, 0.06),)), axis, 0.0)


def test_odmr_model_refuses_contrasts_summing_to_one_or_more():
    # at a sum of 1 the counts reach zero where the dips overlap; past it
    # they go negative
    for contrasts in ((0.6, 0.6), (0.5, 0.5), (0.25, 0.25, 0.5)):
        dips = tuple((2860.0 + 10.0 * i, 12.0, c) for i, c in enumerate(contrasts))
        with pytest.raises(ValueError, match="sum of contrasts must be < 1"):
            OdmrModel(baseline_rate=1e6, dips=dips)
    centers = np.full(201, 2870.0)
    with pytest.raises(ValueError, match="sum of contrasts must be < 1"):
        OdmrModel(baseline_rate=1e6, dips=((centers, 12.0, 0.5), (centers, 12.0, 0.5)))
    OdmrModel(baseline_rate=1e6, dips=((centers, 12.0, 0.49), (centers, 12.0, 0.5)))


def test_pl_expected_counts_hand_values():
    model = PlModel(background_rate=50.0, peaks=((737.0, 5.0, 200.0),))
    axis = np.array([737.0])
    counts = pl_expected_counts(model, axis, exposure_s=3.0)
    assert counts[0] == pytest.approx(3.0 * 250.0, rel=1e-15)


def test_pl_expected_counts_of_per_row_lines_equal_each_row_alone():
    # a column of SiV lines beside the static NV line models one spectrum per row
    axis = 715.0 + 0.1 * np.arange(451)
    centers = np.array([[736.2], [737.0], [737.31], [739.9], [737.0]])
    widths = np.array([[4.6], [4.8], [5.03], [5.5], [4.8]])
    nv_line = (637.0, 3.0, 6e4)
    stacked = pl_expected_counts(PlModel(2e4, ((centers, widths, 1.3e5), nv_line)), axis, 1.3)
    rows = [
        pl_expected_counts(PlModel(2e4, ((c, w, 1.3e5), nv_line)), axis, 1.3)
        for c, w in zip(centers[:, 0].tolist(), widths[:, 0].tolist())
    ]
    assert stacked.shape == (5, axis.size)
    assert stacked.tobytes() == np.array(rows).tobytes()
    with pytest.raises(ValueError, match="fwhm must be > 0"):
        PlModel(2e4, ((centers, np.array([[4.8], [0.0], [4.8], [4.8], [4.8]]), 1.3e5),))


def test_odmr_expected_counts_of_per_row_centers_equal_each_row_alone():
    # each row of sweeps sees its own field at each sample, as the record
    # pipeline's chunks do
    axis = np.linspace(2820.0, 2920.0, 201)
    rng = np.random.default_rng(5)
    d_mhz = 2870.0 + rng.normal(0.0, 0.5, size=(6, 1))
    b_points = np.repeat(rng.uniform(-0.5, 0.5, size=(6, 4)), [50, 50, 50, 51], axis=1)
    f_lo, f_hi = zeeman_resonances(d_mhz, b_points)
    stacked = odmr_expected_counts(OdmrModel(5e8, ((f_lo, 12.0, 0.06), (f_hi, 12.0, 0.06))), axis, 1.5 / 201)
    rows = [
        odmr_expected_counts(OdmrModel(5e8, ((lo, 12.0, 0.06), (hi, 12.0, 0.06))), axis, 1.5 / 201)
        for lo, hi in zip(f_lo, f_hi)
    ]
    assert stacked.shape == (6, axis.size)
    assert stacked.tobytes() == np.array(rows).tobytes()


def test_model_validation_rejects_unphysical_parameters():
    with pytest.raises(ValueError):
        OdmrModel(baseline_rate=0.0, dips=((2870.0, 12.0, 0.1),))
    with pytest.raises(ValueError):
        OdmrModel(baseline_rate=1e6, dips=((2870.0, -1.0, 0.1),))
    with pytest.raises(ValueError):
        OdmrModel(baseline_rate=1e6, dips=((2870.0, 12.0, 0.0),))
    with pytest.raises(ValueError):
        OdmrModel(baseline_rate=1e6, dips=((2870.0, 12.0, 1.0),))
    with pytest.raises(ValueError):
        PlModel(background_rate=-1.0, peaks=((737.0, 5.0, 10.0),))
    with pytest.raises(ValueError):
        PlModel(background_rate=10.0, peaks=((737.0, 5.0, -10.0),))


def test_zeeman_resonances_hand_values():
    lo, hi = zeeman_resonances(2870.0, 1.0)
    assert lo == pytest.approx(2870.0 - 28.024, abs=1e-12)
    assert hi == pytest.approx(2870.0 + 28.024, abs=1e-12)
    assert GYROMAGNETIC_MHZ_PER_MT == 28.024


def test_zeeman_resonances_depend_on_magnitude_only():
    for b in (0.0, 0.3, 1.7):
        assert zeeman_resonances(2868.0, b) == zeeman_resonances(2868.0, -b)


def test_zeeman_resonances_of_a_field_array_match_scalar_calls():
    b = np.array([-0.4, 0.0, 0.13, 0.5])
    lo, hi = zeeman_resonances(2869.5, b)
    for i, b_i in enumerate(b):
        assert (lo[i], hi[i]) == zeeman_resonances(2869.5, float(b_i))


def test_zeeman_midpoint_recovers_splitting_center():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        d = rng.uniform(2800.0, 2940.0)
        b = rng.uniform(-5.0, 5.0)
        lo, hi = zeeman_resonances(d, b)
        assert lo <= hi
        assert 0.5 * (lo + hi) == pytest.approx(d, abs=8 * np.finfo(float).eps * d)


def test_nv_resonance_line():
    cal = NvCalibration()
    assert nv_resonance_of_temperature(cal, 25.0) == 2870.0
    # negative susceptibility: hotter sample, lower resonance
    assert nv_resonance_of_temperature(cal, 35.0) == pytest.approx(2870.0 - 0.7379, rel=1e-12)


def test_siv_zpl_line():
    cal = SivCalibration()
    pos, fwhm = siv_zpl_of_temperature(cal, 25.0)
    assert (pos, fwhm) == (737.0, 4.8)
    pos, fwhm = siv_zpl_of_temperature(cal, 45.0)
    assert pos == pytest.approx(737.0 + 20 * 0.0084, rel=1e-12)
    assert fwhm == pytest.approx(4.8 + 20 * 0.0398, rel=1e-12)


def test_laser_heating_line():
    heating = HeatingModel(t_ambient_c=25.0, slope_k_per_mw=0.0735)
    assert temperature_of_laser_power(heating, 0.0) == 25.0
    assert temperature_of_laser_power(heating, 100.0) == pytest.approx(32.35, rel=1e-12)
    with pytest.raises(ValueError):
        HeatingModel(slope_k_per_mw=-0.1)


def test_calibration_slope_must_not_vanish():
    with pytest.raises(ValueError):
        NvCalibration(slope_mhz_per_c=0.0)
    with pytest.raises(ValueError):
        SivCalibration(pos_slope_nm_per_c=0.0)


def test_trace_validation():
    axis = np.array([1.0, 2.0, 3.0])
    counts = np.array([1.0, 2.0, 3.0])
    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts)
    np.testing.assert_array_equal(trace.counts, counts)
    with pytest.raises(ValueError):
        SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis[::-1].copy(), counts)
    with pytest.raises(ValueError):
        SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts[:2])
    with pytest.raises(ValueError):
        SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError, match="axis must be finite, got nan at sample 1"):
        SpectrumTrace(AxisKind.FREQUENCY_MHZ, np.array([1.0, np.nan, 3.0]), counts)
    with pytest.raises(ValueError, match="counts must be finite, got inf at sample 2"):
        SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, np.array([1.0, 2.0, np.inf]))
