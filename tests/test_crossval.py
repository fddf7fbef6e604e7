"""Channel agreement scoring, fusion, and the window artifact screen."""

import math

import numpy as np
import pytest

from dualtherm import (
    ArtifactReason,
    ArtifactVerdict,
    Channel,
    MonitorConfig,
    TemperatureEstimate,
    artifact_monitor,
    channel_regression,
    fuse,
    pair_z,
    tumbling_verdicts,
    window_z_cutoff,
)


def _nv(value, sigma=0.1, t=0.0):
    return TemperatureEstimate(value, sigma, Channel.NV_ODMR, t)


def _siv(value, sigma=0.1, t=0.0):
    return TemperatureEstimate(value, sigma, Channel.SIV_ZPL, t)


def _window(rng, n=20, nv_scale=0.1, siv_scale=0.1, nv_offset=0.0):
    pairs = []
    for i in range(n):
        pairs.append(
            (
                _nv(25.0 + nv_offset + nv_scale * rng.standard_normal(), nv_scale, float(i)),
                _siv(25.0 + siv_scale * rng.standard_normal(), siv_scale, float(i)),
            )
        )
    return pairs


def test_pair_z_hand_value_and_antisymmetry():
    a = _nv(26.0, 0.3)
    b = _siv(25.0, 0.4)
    assert pair_z(a, b) == pytest.approx(2.0, rel=1e-12)
    assert pair_z(b, a) == -pair_z(a, b)
    assert pair_z(a, a) == 0.0


def test_consistency_z_degenerate_sigmas():
    # two exact readings: agreement scores 0, disagreement a signed infinity
    assert pair_z(_nv(25.0, 0.0), _siv(25.0, 0.0)) == 0.0
    assert pair_z(_nv(26.0, 0.0), _siv(25.0, 0.0)) == math.inf
    assert pair_z(_siv(25.0, 0.0), _nv(26.0, 0.0)) == -math.inf


def test_pair_z_is_undefined_only_for_two_zero_sigmas():
    # one zero sigma leaves the other to scale the difference
    assert pair_z(_nv(25.0, 0.0), _siv(26.0, 0.5)) == -2.0
    assert pair_z(_nv(26.0, 0.5), _siv(25.0, 0.0)) == 2.0
    assert math.isfinite(pair_z(_nv(26.0, 0.3), _siv(25.0, 0.4)))
    # only two exact readings that differ leave the score without a finite value
    assert not math.isfinite(pair_z(_nv(25.0, 0.0), _siv(26.0, 0.0)))


def test_fuse_inverse_variance_oracle():
    a = _nv(24.0, 0.1, t=10.0)
    b = _siv(25.0, 0.3, t=20.0)
    fused = fuse(a, b)
    wa, wb = 1 / 0.01, 1 / 0.09
    assert fused.value_c == pytest.approx((24.0 * wa + 25.0 * wb) / (wa + wb), rel=1e-12)
    assert fused.sigma_c == pytest.approx((wa + wb) ** -0.5, rel=1e-12)
    assert fused.channel is Channel.FUSED
    assert fused.timestamp_s == 15.0
    # fused precision beats either input, value stays bracketed
    assert fused.sigma_c < min(a.sigma_c, b.sigma_c)
    assert a.value_c < fused.value_c < b.value_c


def test_fuse_equal_sigmas_is_plain_mean():
    fused = fuse(_nv(24.0, 0.2), _siv(26.0, 0.2))
    assert fused.value_c == pytest.approx(25.0, rel=1e-12)
    assert fused.sigma_c == pytest.approx(0.2 / math.sqrt(2), rel=1e-12)


def test_fuse_rejects_zero_sigma():
    with pytest.raises(ValueError):
        fuse(_nv(25.0, 0.0), _siv(25.0, 0.1))


def test_window_z_cutoff_oracle():
    # independent bisection on erfc gives 3.816855602507 for (3 sigma, 20)
    assert window_z_cutoff(3.0, 20) == pytest.approx(3.816855602507, abs=1e-9)
    assert window_z_cutoff(3.0, 1) == pytest.approx(3.0, rel=1e-12)
    assert window_z_cutoff(2.0, 1) == pytest.approx(2.0, rel=1e-12)


def test_window_z_cutoff_grows_with_window():
    cuts = [window_z_cutoff(3.0, n) for n in (1, 5, 20, 100)]
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    with pytest.raises(ValueError):
        window_z_cutoff(0.0, 20)
    with pytest.raises(ValueError):
        window_z_cutoff(3.0, 0)


def test_window_z_cutoff_controls_family_false_alarm():
    """Monte-Carlo check: a clean 20-sample window trips the adjusted cutoff
    about as often as a single sample would trip the raw threshold."""
    cutoff = window_z_cutoff(3.0, 20)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((200_000, 20))
    fp = np.mean(np.max(np.abs(z), axis=1) > cutoff)
    alpha = math.erfc(3.0 / math.sqrt(2.0))
    assert abs(fp - alpha) < 5 * math.sqrt(alpha / 200_000)


def test_monitor_clean_window_not_flagged():
    verdict = artifact_monitor(_window(np.random.default_rng(0)))
    assert not verdict.flagged
    assert verdict.reason is ArtifactReason.NONE
    assert 0.2 < verdict.variance_ratio < 5.0


def test_monitor_flags_variance_inflation():
    verdict = artifact_monitor(_window(np.random.default_rng(1), nv_scale=2.0))
    assert verdict.flagged
    assert verdict.reason in (ArtifactReason.VARIANCE_RATIO, ArtifactReason.BOTH)
    assert verdict.variance_ratio > 10.0


def test_monitor_flags_mean_disagreement():
    # constant offset blows the z scores without a 10x variance ratio
    verdict = artifact_monitor(_window(np.random.default_rng(2), nv_offset=1.0))
    assert verdict.flagged
    assert verdict.reason in (ArtifactReason.Z_SCORE, ArtifactReason.BOTH)
    assert verdict.max_abs_z > window_z_cutoff(3.0, 20)


def test_monitor_degenerate_payloads():
    equal = [(_nv(25.0, 0.1, float(i)), _siv(25.0, 0.1, float(i))) for i in range(20)]
    verdict = artifact_monitor(equal)
    assert verdict.variance_ratio == 1.0 and not verdict.flagged
    differing = [(_nv(25.0, 0.1, float(i)), _siv(24.0, 0.1, float(i))) for i in range(20)]
    verdict = artifact_monitor(differing)
    assert verdict.flagged and verdict.max_abs_z > window_z_cutoff(3.0, 20)


def test_monitor_flags_one_exact_disagreeing_pair():
    # both sigmas zero and the values apart: the pair's |z| is infinite
    window = [(_nv(25.0, 0.1, float(i)), _siv(25.0, 0.1, float(i))) for i in range(20)]
    window[7] = (_nv(25.5, 0.0, 7.0), _siv(25.0, 0.0, 7.0))
    verdict = artifact_monitor(window)
    assert verdict.max_abs_z == math.inf
    assert verdict.flagged
    assert verdict.reason in (ArtifactReason.Z_SCORE, ArtifactReason.BOTH)


def test_monitor_rejects_short_windows():
    with pytest.raises(ValueError):
        artifact_monitor(_window(np.random.default_rng(3), n=5))


def test_verdict_invariant_enforced():
    with pytest.raises(ValueError):
        ArtifactVerdict(0.0, 10.0, -1.0, 0.5, reason=ArtifactReason.NONE)
    # flagged reads off the reason, so the two cannot disagree
    assert [ArtifactVerdict(0.0, 10.0, 1.0, 0.5, reason).flagged for reason in ArtifactReason] == [
        reason is not ArtifactReason.NONE for reason in ArtifactReason
    ]


def test_monitor_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig(variance_ratio_threshold=0.0)
    with pytest.raises(ValueError):
        MonitorConfig(min_window=1)
    with pytest.raises(ValueError):
        MonitorConfig(window_samples=5, min_window=10)


@pytest.mark.parametrize("name", ["window_samples", "min_window"])
def test_monitor_config_window_sizes_are_integers(name):
    # a window of 20.5 samples was taken, and tumbling_verdicts then
    # screened no window at all
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        MonitorConfig(**{name: 20.5 if name == "window_samples" else 2.5})


def test_tumbling_verdicts_partition():
    rng = np.random.default_rng(4)
    pairs = _window(rng, n=50)
    verdicts = list(tumbling_verdicts(pairs))
    # two complete windows of 20; the trailing 10 pairs are dropped
    assert len(verdicts) == 2
    assert verdicts[0].window_start_s == 0.0
    assert verdicts[0].window_end_s == verdicts[1].window_start_s - 1.0


def test_channel_regression_on_calibration_line():
    nv = np.linspace(2867.0, 2870.0, 12)
    expected = -0.0084 / 0.07379
    siv = 737.0 + expected * (nv - 2870.0)
    report = channel_regression(nv, siv, expected)
    assert report.regression.r_squared > 1 - 1e-12
    assert report.regression.slope == pytest.approx(expected, rel=1e-9)
    assert abs(report.slope_z) < 3.0


def test_channel_regression_degenerate_residuals():
    # float-exact line: zero residuals, so the slope error collapses to zero
    x = np.arange(12.0)
    y = 2.0 * x + 1.0
    assert channel_regression(x, y, 2.0).slope_z == 0.0
    assert math.isinf(channel_regression(x, y, 3.0).slope_z)


def test_channel_regression_shape_mismatch():
    with pytest.raises(ValueError):
        channel_regression(np.zeros(4), np.zeros(5), -0.11)
