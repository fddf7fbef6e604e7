"""Cross-validation of the two temperature channels.

The ODMR and zero-phonon-line thermometers measure the same sample, so their
raw observables must co-move along a line whose slope is the ratio of the two
calibration susceptibilities; per-sample agreement is scored with a z
statistic; rolling windows are screened for the magnetic-field artifact that
inflates only the ODMR channel; and consistent estimates are combined by
inverse-variance weighting.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .fitting import RegressionResult, linear_regression
from .forward import POSITIVE, NvCalibration, Settings, SivCalibration, integer_at_least
from .thermometry import Channel, TemperatureEstimate


@dataclass(frozen=True)
class ConsistencyReport:
    """Channel-vs-channel regression compared against the calibration slope."""

    regression: RegressionResult
    expected_slope: float
    slope_z: float


class ArtifactReason(enum.Enum):
    NONE = "none"
    VARIANCE_RATIO = "variance_ratio"
    Z_SCORE = "z_score"
    BOTH = "both"


@dataclass(frozen=True)
class ArtifactVerdict:
    window_start_s: float
    window_end_s: float
    variance_ratio: float
    max_abs_z: float
    reason: ArtifactReason

    def __post_init__(self) -> None:
        if self.variance_ratio < 0:
            raise ValueError(f"variance_ratio must be >= 0, got {self.variance_ratio}")

    @property
    def flagged(self) -> bool:
        return self.reason is not ArtifactReason.NONE


@dataclass(frozen=True)
class MonitorConfig(Settings):
    """Thresholds for the rolling artifact screen.

    A window is flagged when the NV/SiV temperature variance ratio exceeds
    ``variance_ratio_threshold`` or the largest per-sample |z| exceeds the
    window-size-adjusted cutoff derived from ``z_threshold`` (see
    ``artifact_monitor``).  Windows are tumbling (non-overlapping) with
    ``window_samples`` samples each.
    """

    variance_ratio_threshold: float = field(default=10.0, metadata=POSITIVE)
    z_threshold: float = field(default=3.0, metadata=POSITIVE)
    min_window: int = field(default=10, metadata=integer_at_least(2))
    window_samples: int = field(default=20, metadata=integer_at_least(1))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window_samples < self.min_window:
            raise ValueError("window_samples must be >= min_window")


def calibration_slope(nv_cal: NvCalibration, siv_cal: SivCalibration) -> float:
    """SiV line shift per NV resonance shift (nm per MHz) the calibrations predict."""
    return siv_cal.pos_slope_nm_per_c / nv_cal.slope_mhz_per_c


def channel_regression(
    nv_freqs_mhz: NDArray[np.float64],
    siv_positions_nm: NDArray[np.float64],
    expected_slope_nm_per_mhz: float,
) -> ConsistencyReport:
    """Regress SiV line position against NV resonance frequency.

    ``slope_z`` measures how many standard errors the fitted slope sits from
    the slope the two calibrations predict.
    """
    x = np.asarray(nv_freqs_mhz, dtype=np.float64)
    y = np.asarray(siv_positions_nm, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"channel lengths differ: {x.shape} vs {y.shape}")
    reg = linear_regression(x, y)
    if reg.slope_std_error == 0.0:
        slope_z = 0.0 if reg.slope == expected_slope_nm_per_mhz else math.inf
    else:
        slope_z = (reg.slope - expected_slope_nm_per_mhz) / reg.slope_std_error
    return ConsistencyReport(
        regression=reg,
        expected_slope=expected_slope_nm_per_mhz,
        slope_z=slope_z,
    )


def pair_z(a: TemperatureEstimate, b: TemperatureEstimate) -> float:
    """Agreement score ``(a - b) / sqrt(sigma_a^2 + sigma_b^2)``.

    Every z in the package is this score.  It is antisymmetric under an
    argument swap and 0 for equal values.  When both sigmas are zero it is
    0 for equal values and an infinity of the sign of ``a - b`` otherwise:
    two exact readings that differ cannot be reconciled.
    """
    diff = a.value_c - b.value_c
    denom = math.hypot(a.sigma_c, b.sigma_c)
    if denom == 0.0:
        return math.copysign(math.inf, diff) if diff else 0.0
    return diff / denom


def fuse(a: TemperatureEstimate, b: TemperatureEstimate) -> TemperatureEstimate:
    """Inverse-variance weighted combination of two estimates.

    The fused sigma ``(1/sigma_a^2 + 1/sigma_b^2)^(-1/2)`` never exceeds the
    smaller input sigma, and the fused value lies between the inputs.
    """
    if not a.sigma_c > 0 or not b.sigma_c > 0:
        raise ValueError("fusion needs strictly positive sigmas on both inputs")
    wa = 1.0 / (a.sigma_c * a.sigma_c)
    wb = 1.0 / (b.sigma_c * b.sigma_c)
    return TemperatureEstimate(
        value_c=(wa * a.value_c + wb * b.value_c) / (wa + wb),
        sigma_c=1.0 / math.sqrt(wa + wb),
        channel=Channel.FUSED,
        timestamp_s=0.5 * (a.timestamp_s + b.timestamp_s),
    )


def window_z_cutoff(z_threshold: float, n_samples: int) -> float:
    """Per-sample |z| cutoff that keeps the whole-window false-alarm rate at
    the two-sided tail probability of ``z_threshold``.

    Testing the max of ``n_samples`` scores against a fixed per-sample
    threshold multiplies the chance of a clean window tripping it by roughly
    the sample count, so the per-sample level is Sidak-adjusted: with
    ``alpha = 2 (1 - Phi(z_threshold))`` the cutoff is the z value whose
    two-sided tail is ``1 - (1 - alpha)^(1/n)``.  For one sample this reduces
    to ``z_threshold`` itself; for the defaults (3 sigma, 20 samples) it is
    about 3.82.
    """
    if not z_threshold > 0:
        raise ValueError(f"z_threshold must be > 0, got {z_threshold}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    dist = statistics.NormalDist()
    alpha = 2.0 * (1.0 - dist.cdf(z_threshold))
    if alpha <= 0.0:
        return z_threshold
    alpha_pc = 1.0 - (1.0 - alpha) ** (1.0 / n_samples)
    return dist.inv_cdf(1.0 - 0.5 * alpha_pc)


def artifact_monitor(
    window: Sequence[tuple[TemperatureEstimate, TemperatureEstimate]],
    config: MonitorConfig = MonitorConfig(),
) -> ArtifactVerdict:
    """Screen one time-ordered window of (NV, SiV) estimate pairs.

    The fluctuating-field artifact inflates the variance of the ODMR channel
    while leaving the optical channel untouched, so the NV/SiV variance ratio
    and the per-sample z scores both expose it.  The z test compares the
    window maximum of ``abs(pair_z)`` against
    ``window_z_cutoff(config.z_threshold, n)`` so that clean windows of any
    length false-alarm at the same rate a single sample would at
    ``z_threshold``; a disagreeing pair whose sigmas are both zero reads
    ``max_abs_z = inf`` and flags its window.  A ratio of 0/0 (two exactly
    constant channels) counts as 1: no evidence of disagreement.
    """
    if len(window) < config.min_window:
        raise ValueError(
            f"window holds {len(window)} pairs, need at least {config.min_window}"
        )
    t_nv = np.array([nv.value_c for nv, _ in window])
    t_siv = np.array([siv.value_c for _, siv in window])
    var_nv = float(np.var(t_nv, ddof=1))
    var_siv = float(np.var(t_siv, ddof=1))
    if var_nv == 0.0 and var_siv == 0.0:
        ratio = 1.0
    elif var_siv == 0.0:
        ratio = math.inf
    else:
        ratio = var_nv / var_siv
    max_abs_z = max(abs(pair_z(nv, siv)) for nv, siv in window)

    ratio_hit = ratio > config.variance_ratio_threshold
    z_hit = max_abs_z > window_z_cutoff(config.z_threshold, len(window))
    if ratio_hit and z_hit:
        reason = ArtifactReason.BOTH
    elif ratio_hit:
        reason = ArtifactReason.VARIANCE_RATIO
    elif z_hit:
        reason = ArtifactReason.Z_SCORE
    else:
        reason = ArtifactReason.NONE
    return ArtifactVerdict(
        window_start_s=window[0][0].timestamp_s,
        window_end_s=window[-1][0].timestamp_s,
        variance_ratio=ratio,
        max_abs_z=max_abs_z,
        reason=reason,
    )


def tumbling_verdicts(
    pairs: Iterable[tuple[TemperatureEstimate, TemperatureEstimate]],
    config: MonitorConfig = MonitorConfig(),
) -> Iterator[ArtifactVerdict]:
    """Yield one verdict per complete tumbling window of estimate pairs.

    Windows are non-overlapping runs of ``config.window_samples`` pairs; a
    trailing partial window is dropped.
    """
    buffer: list[tuple[TemperatureEstimate, TemperatureEstimate]] = []
    for pair in pairs:
        buffer.append(pair)
        if len(buffer) == config.window_samples:
            yield artifact_monitor(buffer, config)
            buffer = []
