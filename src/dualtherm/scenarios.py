"""End-to-end seeded experiments producing dual-channel time series.

Each scenario hands one record pipeline a table of true temperatures and
laser powers, one row per time step.  The pipeline runs in chunks of records:
evaluate both forward models at the true temperatures, apply intensity drift,
sample Poisson counts, fit both spectra, invert the calibrations to
temperature estimates, score cross-channel agreement; then it screens
tumbling windows for the magnetic-field artifact.  Four scenario kinds drive
that pipeline: a temperature ramp, a
precision-vs-integration-time sweep, a fluctuating-field artifact run, and
square-wave laser-power modulation.

Randomness is partitioned: the master seed spawns one independent child
stream per subsystem (ODMR sampling, PL sampling, drift, B field), so the
optical channel's draws are structurally independent of the field amplitude.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .crossval import MonitorConfig, pair_z, tumbling_verdicts

# not called here: perfbench's tracer patches ``scenarios.artifact_monitor``
# and refuses to attach where it is missing
from .crossval import artifact_monitor  # noqa: F401
from .fitting import (
    MIN_FIT_SAMPLES,
    FitResult,
    fit_odmr_candidates,
    fit_odmr_dips,
    fit_pl_peak,
    select_dip_count,
)
from .forward import (
    FRACTION,
    GYROMAGNETIC_MHZ_PER_MT,
    NON_NEGATIVE,
    POSITIVE,
    AxisKind,
    HeatingModel,
    NvCalibration,
    OdmrModel,
    PlModel,
    SivCalibration,
    Settings,
    SpectrumTrace,
    bound,
    integer_at_least,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    pl_expected_counts,
    siv_zpl_of_temperature,
    temperature_of_laser_power,
    zeeman_resonances,
)
from .noise import (
    BFieldProcess,
    DriftState,
    bfield_resample,
    bfield_sweep,
    drift_step,
    sample_poisson_counts,
    subsystem_generators,
    validate_seed,
)
from .thermometry import TemperatureEstimate, odmr_readout, zpl_readout

FloatArray = NDArray[np.float64]

#: records synthesised and fitted at a time: the bound on the spectra and
#: fits a run holds at once, whatever its length, and on the rows of every
#: count matrix and of every stack the pipeline hands ``fitting._fit``,
#: which sets no bound of its own
FIT_CHUNK_RECORDS = 64


class ScenarioKind(enum.Enum):
    RAMP = "ramp"
    PRECISION_SWEEP = "precision_sweep"
    BFIELD_ARTIFACT = "bfield_artifact"
    LASER_MODULATION = "laser_modulation"


@dataclass(frozen=True)
class OdmrSettings(Settings):
    """ODMR channel: photon budget, line shape, and sweep grid."""

    baseline_rate_cps: float = field(default=5e8, metadata=POSITIVE)
    contrast: float = field(default=0.12, metadata=FRACTION)
    linewidth_mhz: float = field(default=12.0, metadata=POSITIVE)
    sweep_start_mhz: float = 2820.0
    sweep_stop_mhz: float = 2920.0
    sweep_points: int = field(default=201, metadata=integer_at_least(MIN_FIT_SAMPLES))
    sweep_time_s: float = field(default=1.5, metadata=POSITIVE)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sweep_stop_mhz > self.sweep_start_mhz:
            raise ValueError("sweep_stop_mhz must exceed sweep_start_mhz")

    def axis(self) -> FloatArray:
        return np.linspace(self.sweep_start_mhz, self.sweep_stop_mhz, self.sweep_points)


@dataclass(frozen=True)
class PlSettings(Settings):
    """PL channel: photon budget and spectrometer window.

    The window defaults cover the SiV zero-phonon line with room for its
    thermal shift; the static NV zero-phonon line is included in the model so
    full-range spectra show both peaks, though its tail is negligible inside
    the default window.
    """

    peak_amplitude_cps: float = field(default=1.3e5, metadata=POSITIVE)
    background_cps: float = field(default=2e4, metadata=NON_NEGATIVE)
    window_start_nm: float = 715.0
    window_stop_nm: float = 760.0
    step_nm: float = field(default=0.1, metadata=POSITIVE)
    exposure_s: float = field(default=1.3, metadata=POSITIVE)
    nv_peak_nm: float = 637.0
    nv_peak_fwhm_nm: float = field(default=3.0, metadata=POSITIVE)
    nv_peak_amplitude_cps: float = field(default=6e4, metadata=POSITIVE)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.window_stop_nm > self.window_start_nm:
            raise ValueError("window_stop_nm must exceed window_start_nm")
        # counted, not built: a tiny step would make the axis huge
        n_steps = (self.window_stop_nm - self.window_start_nm) / self.step_nm
        if not math.isfinite(n_steps):
            raise ValueError(f"PL window holds no finite number of {self.step_nm} nm steps")
        if round(n_steps) + 1 < MIN_FIT_SAMPLES:
            raise ValueError(f"PL window must contain at least {MIN_FIT_SAMPLES} samples")

    def axis(self) -> FloatArray:
        n = int(round((self.window_stop_nm - self.window_start_nm) / self.step_nm)) + 1
        return self.window_start_nm + self.step_nm * np.arange(n)

    def model(self, pos_nm: float, fwhm_nm: float) -> PlModel:
        """The SiV zero-phonon line at ``pos_nm`` plus the static NV line."""
        return PlModel(
            self.background_cps,
            ((pos_nm, fwhm_nm, self.peak_amplitude_cps), self.nv_line().peaks[0]),
        )

    def nv_line(self) -> PlModel:
        """The static 637 nm NV line alone, on zero background."""
        return PlModel(0.0, ((self.nv_peak_nm, self.nv_peak_fwhm_nm, self.nv_peak_amplitude_cps),))


@dataclass(frozen=True)
class BfieldSettings(Settings):
    """Fluctuating-field amplitude, resample dwell, and coupling strength."""

    b_max_mt: float = field(default=0.0, metadata=NON_NEGATIVE)
    dwell_s: float = field(default=0.5, metadata=POSITIVE)
    gyromagnetic_mhz_per_mt: float = field(default=GYROMAGNETIC_MHZ_PER_MT, metadata=POSITIVE)


# linear calibrations are extrapolation outside this band
_RAMP_BAND = bound("must lie in [0, 200] degC", lambda t: 0.0 <= t <= 200.0)


@dataclass(frozen=True)
class RampParams(Settings):
    t_start_c: float = field(default=25.0, metadata=_RAMP_BAND)
    t_stop_c: float = field(default=65.0, metadata=_RAMP_BAND)
    n_steps: int = field(default=10, metadata=integer_at_least(1))


@dataclass(frozen=True)
class PrecisionParams(Settings):
    integration_times_s: tuple[float, ...] = field(default=(0.1, 0.3, 1.0, 3.0, 10.0, 30.0), metadata=POSITIVE)
    repetitions: int = field(default=100, metadata=integer_at_least(2))
    channels: tuple[str, ...] = ("siv",)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.integration_times_s:
            raise ValueError("integration_times_s must be non-empty")
        if not self.channels:
            raise ValueError("channels must be non-empty")
        for ch in self.channels:
            if ch not in ("nv", "siv"):
                raise ValueError(f"channels entries must be 'nv' or 'siv', got {ch!r}")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"channels must not repeat a channel, got {list(self.channels)}")


@dataclass(frozen=True)
class LaserParams(Settings):
    power_low_mw: float = field(default=85.0, metadata=NON_NEGATIVE)
    power_high_mw: float = field(default=145.0, metadata=NON_NEGATIVE)
    period_s: float = field(default=200.0, metadata=POSITIVE)


@dataclass(frozen=True)
class ScenarioConfig(Settings):
    kind: ScenarioKind = ScenarioKind.RAMP
    seed: int = 1
    duration_s: float = field(default=300.0, metadata=POSITIVE)
    sample_period_s: float = field(default=1.5, metadata=POSITIVE)
    noiseless: bool = False
    odmr: OdmrSettings = field(default_factory=OdmrSettings)
    pl: PlSettings = field(default_factory=PlSettings)
    nv_cal: NvCalibration = field(default_factory=NvCalibration)
    siv_cal: SivCalibration = field(default_factory=SivCalibration)
    heating_nv: HeatingModel = field(default_factory=HeatingModel)
    heating_siv: HeatingModel = field(default_factory=lambda: HeatingModel(slope_k_per_mw=0.0751))
    drift: DriftState = field(default_factory=DriftState)
    bfield: BfieldSettings = field(default_factory=BfieldSettings)
    detection: MonitorConfig = field(default_factory=MonitorConfig)
    ramp: RampParams = field(default_factory=RampParams)
    precision: PrecisionParams = field(default_factory=PrecisionParams)
    laser: LaserParams = field(default_factory=LaserParams)

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_seed(self.seed)


@dataclass(frozen=True)
class ScenarioRecord:
    """One joint measurement cycle of both channels."""

    time_s: float
    true_t_c: float
    laser_mw: float
    b_par_mt: float
    nv_n_dips: int
    nv_f0_mhz: float
    nv_f0_sigma_mhz: float
    nv_contrast: float
    nv_fwhm_mhz: float
    siv_pos_nm: float
    siv_pos_sigma_nm: float
    siv_fwhm_nm: float
    t_nv_c: float
    t_nv_sigma_c: float
    t_siv_c: float
    t_siv_sigma_c: float
    z_score: float
    artifact_flag: bool

    def __post_init__(self) -> None:
        for name in ("nv_f0_sigma_mhz", "siv_pos_sigma_nm", "t_nv_sigma_c", "t_siv_sigma_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _nv_summary(fit: FitResult, n_dips: int) -> tuple[float, float]:
    # mean contrast and mean linewidth over the fitted dips
    contrast = sum(fit.params[f"contrast_{d}"] for d in range(1, n_dips + 1)) / n_dips
    fwhm = sum(fit.params[f"fwhm_{d}"] for d in range(1, n_dips + 1)) / n_dips
    return contrast, fwhm


def odmr_sweep_counts(
    config: ScenarioConfig,
    axis: FloatArray,
    t_nv_c: float | FloatArray,
    b_points: float | FloatArray,
    exposure_s: float,
) -> FloatArray:
    """Expected counts of an ODMR sweep on ``axis``, ``exposure_s`` per sample.

    The Zeeman pair about the splitting at ``t_nv_c``, each line with half
    the configured contrast, in the field projection ``b_points`` each
    sample sees; at zero field the pair merges into one dip.  A ``(B, 1)``
    column of temperatures with ``(B, n)`` or ``(B, 1)`` projections gives
    one row of counts per sweep.
    """
    d_mhz = nv_resonance_of_temperature(config.nv_cal, t_nv_c)
    f_lo, f_hi = zeeman_resonances(d_mhz, b_points, config.bfield.gyromagnetic_mhz_per_mt)
    line = (config.odmr.linewidth_mhz, 0.5 * config.odmr.contrast)
    model = OdmrModel(config.odmr.baseline_rate_cps, ((f_lo, *line), (f_hi, *line)))
    return odmr_expected_counts(model, axis, exposure_s)


def pl_counts(config: ScenarioConfig, axis: FloatArray, t_siv_c: float | FloatArray, exposure_s: float) -> FloatArray:
    """Expected counts of a PL spectrum on ``axis`` at ``t_siv_c``, ``exposure_s`` per bin (``PlSettings.model``).

    A ``(B, 1)`` column of temperatures gives one row of counts per spectrum.
    """
    model = config.pl.model(*siv_zpl_of_temperature(config.siv_cal, t_siv_c))
    return pl_expected_counts(model, axis, exposure_s)


def _without_nv_line(counts: FloatArray, nv_line_counts: FloatArray) -> FloatArray:
    """PL counts with the static 637 nm line's counts subtracted.

    Its in-window tail is a static instrument property, so the PL fit runs
    on counts with that known contribution subtracted.  Skipping the
    subtraction would bias the fitted center blue by ~1e-4 nm (~0.01 K),
    well under shot noise but fatal to noiseless exactness.  The result is
    clamped at 0: the subtracted tail can undercut sparse low-count samples.
    """
    return np.maximum(counts - nv_line_counts, 0.0)


def _synthesise(
    config: ScenarioConfig, truth: FloatArray, odmr_axis: FloatArray, pl_axis: FloatArray
) -> Iterator[tuple[FloatArray, FloatArray, FloatArray]]:
    """Both channels' spectra on their axes, ``FIT_CHUNK_RECORDS`` records at a time.

    ``truth`` holds one ``(t_nv_c, t_siv_c, laser_mw)`` row per record.
    Each chunk yields the field at the start of each record's sweep and the
    chunk's ``(B, n)`` ODMR and PL count matrices.  The 637 nm line is part
    of every synthesized PL spectrum; the PL counts come without it
    (``_without_nv_line``).  Each stream is drawn once per chunk, in the
    order a record at a time would draw it: the sweeps follow each other on
    the field clock, and a Poisson draw over a matrix runs in C order.
    """
    gens = subsystem_generators(config.seed)
    drift_state = config.drift
    drifting = not config.noiseless and config.drift.stationary_rel_std > 0
    b_active = config.bfield.b_max_mt > 0 and not config.noiseless
    bproc = BFieldProcess(b_max_mt=config.bfield.b_max_mt, dwell_s=config.bfield.dwell_s)
    if b_active:
        bproc = bfield_resample(bproc, gens["bfield"])
    n_pts = odmr_axis.size
    tau_s = config.odmr.sweep_time_s / n_pts
    nv_line_counts = pl_expected_counts(config.pl.nv_line(), pl_axis, config.pl.exposure_s)

    for start in range(0, len(truth), FIT_CHUNK_RECORDS):
        rows = truth[start : start + FIT_CHUNK_RECORDS]
        factors = np.empty((len(rows), 1))
        for i in range(len(rows)):
            if drifting:
                drift_state = drift_step(drift_state, config.sample_period_s, gens["drift"])
            factors[i] = drift_state.current_factor

        if b_active:
            # the field can change mid-sweep: each frequency point sees the
            # projection in effect at its own acquisition instant
            bproc, b_points = bfield_sweep(bproc, tau_s, len(rows) * n_pts, gens["bfield"])
            b_points = b_points.reshape(len(rows), n_pts)
        else:
            # without a field every sample sees B = 0, where the Zeeman pair
            # merges into one dip; nothing is drawn from the field stream
            b_points = np.zeros((len(rows), 1))
        odmr_counts = odmr_sweep_counts(config, odmr_axis, rows[:, :1], b_points, tau_s) * factors
        pl_spectra = pl_counts(config, pl_axis, rows[:, 1:2], config.pl.exposure_s) * factors
        if not config.noiseless:
            odmr_counts = sample_poisson_counts(odmr_counts, gens["odmr"]).astype(np.float64)
            pl_spectra = sample_poisson_counts(pl_spectra, gens["pl"]).astype(np.float64)
        yield b_points[:, 0], odmr_counts, _without_nv_line(pl_spectra, nv_line_counts)


def _timeseries(config: ScenarioConfig, truth: FloatArray) -> list[ScenarioRecord]:
    """Shared record pipeline: generate, fit, invert, score, screen.

    ``truth`` holds the per-channel true temperatures and the laser power
    of each record, one ``(t_nv_c, t_siv_c, laser_mw)`` row per record;
    record ``k`` is taken at ``k * sample_period_s``.  Spectra come from
    the :mod:`dualtherm.forward` count models, temperatures from the
    :mod:`dualtherm.thermometry` readouts and ``z_score`` from
    ``crossval.pair_z``.  The readouts are applied without the convergence
    check of ``temperature_from_odmr``/``temperature_from_zpl``: a
    non-converged fit still yields a best-effort row rather than dropping
    the record.

    The run goes in chunks of ``FIT_CHUNK_RECORDS`` records from truth to
    fits: the chunk's spectra as two count matrices (``_synthesise``), one
    ``fit_odmr_candidates`` call on the shared ODMR axis (a stack of one-dip
    fits, the score screen and a stack of the two-dip candidates it lets
    through), then per record the dip-count choice, the PL fit and the
    readouts.  Every record comes out as if handled alone.
    The readouts of the whole run then go through the tumbling-window
    artifact monitor, and each record is built once, flagged if its window
    was.
    """
    readouts: list[dict[str, float]] = []
    pairs: list[tuple[TemperatureEstimate, TemperatureEstimate]] = []
    odmr_axis = config.odmr.axis()
    pl_axis = config.pl.axis()
    rows = truth.tolist()
    for b_par, odmr_counts, pl_counts in _synthesise(config, truth, odmr_axis, pl_axis):
        candidates = fit_odmr_candidates(odmr_axis, odmr_counts)
        for b_par_mt, odmr, pl, fits in zip(b_par.tolist(), odmr_counts, pl_counts, candidates):
            k = len(readouts)
            time_s = k * config.sample_period_s
            true_t_c, _, laser_mw = rows[k]
            odmr_trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, odmr_axis, odmr)
            n_dips, nv_fit = select_dip_count(odmr_trace, fits)
            d_center, d_sigma = nv_fit.derived["d_center"]
            nv_contrast, nv_fwhm = _nv_summary(nv_fit, n_dips)
            est_nv = odmr_readout(d_center, d_sigma, config.nv_cal, time_s)

            pl_fit = fit_pl_peak(SpectrumTrace(AxisKind.WAVELENGTH_NM, pl_axis, pl))
            est_siv = zpl_readout(pl_fit.params["center"], pl_fit.std_errors["center"], config.siv_cal, time_s)
            pairs.append((est_nv, est_siv))
            readouts.append(
                dict(
                    time_s=time_s,
                    true_t_c=true_t_c,
                    laser_mw=laser_mw,
                    b_par_mt=b_par_mt,
                    nv_n_dips=n_dips,
                    nv_f0_mhz=d_center,
                    nv_f0_sigma_mhz=d_sigma,
                    nv_contrast=nv_contrast,
                    nv_fwhm_mhz=nv_fwhm,
                    siv_pos_nm=pl_fit.params["center"],
                    siv_pos_sigma_nm=pl_fit.std_errors["center"],
                    siv_fwhm_nm=pl_fit.params["fwhm"],
                    t_nv_c=est_nv.value_c,
                    t_nv_sigma_c=est_nv.sigma_c,
                    t_siv_c=est_siv.value_c,
                    t_siv_sigma_c=est_siv.sigma_c,
                    z_score=pair_z(est_nv, est_siv),
                )
            )

    # one verdict per complete tumbling window; a trailing part window is
    # not screened
    win = config.detection.window_samples
    flags = [verdict.flagged for verdict in tumbling_verdicts(pairs, config.detection) for _ in range(win)]
    flags += [False] * (len(readouts) - len(flags))
    return [ScenarioRecord(**readout, artifact_flag=flag) for readout, flag in zip(readouts, flags)]


def _record_count(config: ScenarioConfig) -> int:
    return max(1, int(math.floor(config.duration_s / config.sample_period_s + 1e-9)))


def run_ramp(config: ScenarioConfig) -> list[ScenarioRecord]:
    """Stepwise temperature ramp; one record per temperature."""
    p = config.ramp
    temps = np.linspace(p.t_start_c, p.t_stop_c, p.n_steps)
    return _timeseries(config, np.column_stack([temps, temps, np.zeros(p.n_steps)]))


def run_bfield_artifact(config: ScenarioConfig) -> list[ScenarioRecord]:
    """Constant-temperature run with the fluctuating-field process active."""
    row = (config.heating_nv.t_ambient_c, config.heating_siv.t_ambient_c, 0.0)
    return _timeseries(config, np.tile(row, (_record_count(config), 1)))


def run_laser_modulation(config: ScenarioConfig) -> list[ScenarioRecord]:
    """Square-wave laser power; each channel heats per its own coefficient."""
    p = config.laser
    powers = [
        p.power_low_mw if math.fmod(k * config.sample_period_s, p.period_s) < 0.5 * p.period_s else p.power_high_mw
        for k in range(_record_count(config))
    ]
    truth = [
        (temperature_of_laser_power(config.heating_nv, w), temperature_of_laser_power(config.heating_siv, w), w)
        for w in powers
    ]
    return _timeseries(config, np.array(truth))


def run_precision_sweep(config: ScenarioConfig) -> dict[str, list[tuple[float, float]]]:
    """Empirical temperature precision vs integration time, per channel.

    For each channel and integration time, repeats the single-spectrum
    pipeline with an independent derived seed per repetition and reports the
    sample standard deviation of the temperature estimate.  Drift is not
    applied: a constant per-spectrum intensity factor cannot move a fitted
    line center, so this sweep isolates the shot-noise scaling.  The spectra
    are the record pipeline's: zero-field ``odmr_sweep_counts``, and PL
    counts fitted without the static 637 nm line (``_without_nv_line``).
    Each channel sits at its own ambient temperature, as in
    ``run_bfield_artifact``.
    """
    p = config.precision
    children = np.random.SeedSequence(config.seed).spawn(
        len(p.channels) * len(p.integration_times_s) * p.repetitions
    )
    child_iter = iter(children)

    odmr_axis = config.odmr.axis()
    pl_axis = config.pl.axis()

    results: dict[str, list[tuple[float, float]]] = {ch: [] for ch in p.channels}
    for channel in p.channels:
        for t_int in p.integration_times_s:
            if channel == "nv":
                tau_s = t_int / odmr_axis.size
                expected = odmr_sweep_counts(config, odmr_axis, config.heating_nv.t_ambient_c, 0.0, tau_s)
            else:
                expected = pl_counts(config, pl_axis, config.heating_siv.t_ambient_c, t_int)
                nv_line_counts = pl_expected_counts(config.pl.nv_line(), pl_axis, t_int)
            values = []
            for _ in range(p.repetitions):
                counts = sample_poisson_counts(expected, np.random.default_rng(next(child_iter))).astype(np.float64)
                if channel == "nv":
                    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, odmr_axis, counts)
                    fit = fit_odmr_dips(trace, 1)
                    estimate = odmr_readout(*fit.derived["d_center"], config.nv_cal)
                else:
                    trace = SpectrumTrace(AxisKind.WAVELENGTH_NM, pl_axis, _without_nv_line(counts, nv_line_counts))
                    fit = fit_pl_peak(trace)
                    estimate = zpl_readout(fit.params["center"], fit.std_errors["center"], config.siv_cal)
                values.append(estimate.value_c)
            sigma = float(np.std(np.asarray(values), ddof=1))
            results[channel].append((t_int, sigma))
    return results


def recovered_step_amplitude(
    records: Sequence[ScenarioRecord], channel: str
) -> tuple[float, float]:
    """Step amplitude of a two-level modulation run, with standard error.

    Groups records by laser power level, takes the difference of the two
    level means, and propagates the standard errors of the means.
    """
    if channel not in ("nv", "siv"):
        raise ValueError(f"channel must be 'nv' or 'siv', got {channel!r}")
    levels = sorted({r.laser_mw for r in records})
    if len(levels) != 2:
        raise ValueError(f"need exactly 2 power levels, found {len(levels)}")
    attr = "t_nv_c" if channel == "nv" else "t_siv_c"
    groups = []
    for level in levels:
        vals = np.array([getattr(r, attr) for r in records if r.laser_mw == level])
        if vals.size < 2:
            raise ValueError(f"need at least 2 records at power {level} mW")
        groups.append((float(np.mean(vals)), float(np.var(vals, ddof=1) / vals.size)))
    (mean_lo, var_lo), (mean_hi, var_hi) = groups
    return mean_hi - mean_lo, math.sqrt(var_lo + var_hi)


def run_scenario(
    config: ScenarioConfig,
) -> list[ScenarioRecord] | dict[str, list[tuple[float, float]]]:
    """Dispatch a configured scenario to its runner."""
    if config.kind is ScenarioKind.RAMP:
        return run_ramp(config)
    if config.kind is ScenarioKind.PRECISION_SWEEP:
        return run_precision_sweep(config)
    if config.kind is ScenarioKind.BFIELD_ARTIFACT:
        return run_bfield_artifact(config)
    return run_laser_modulation(config)
