"""Dual-channel diamond thermometry: simulation and estimation toolkit.

Synthesizes ODMR and photoluminescence spectra under realistic photon noise,
intensity drift, and magnetic-field fluctuation; fits them with weighted
Lorentzian models; converts fitted line positions to temperature through
linear calibrations; and cross-validates the two channels against each other.
"""

from .crossval import (
    ArtifactReason,
    ArtifactVerdict,
    ConsistencyReport,
    MonitorConfig,
    artifact_monitor,
    calibration_slope,
    channel_regression,
    fuse,
    pair_z,
    tumbling_verdicts,
    window_z_cutoff,
)
from .fitting import (
    FitResult,
    RegressionResult,
    fit_odmr_dips,
    fit_pl_peak,
    fit_power_law,
    linear_regression,
    select_dip_count,
)
from .forward import (
    GYROMAGNETIC_MHZ_PER_MT,
    AxisKind,
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
from .noise import (
    BFieldProcess,
    DriftState,
    bfield_resample,
    drift_step,
    sample_poisson_counts,
    subsystem_generators,
    validate_seed,
)
from .records import (
    CSV_HEADER,
    format_number,
    parse_records_csv,
    write_precision_series,
    write_records,
)
from .scenarios import (
    BfieldSettings,
    LaserParams,
    OdmrSettings,
    PlSettings,
    PrecisionParams,
    RampParams,
    ScenarioConfig,
    ScenarioKind,
    ScenarioRecord,
    recovered_step_amplitude,
    run_bfield_artifact,
    run_laser_modulation,
    run_precision_sweep,
    run_ramp,
    run_scenario,
)
from .thermometry import (
    Channel,
    TemperatureEstimate,
    estimate_noise_floor,
    nv_shot_noise_sensitivity,
    odmr_readout,
    temperature_from_odmr,
    temperature_from_zpl,
    zpl_readout,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the fit-kernel backend; the kernels are plain numpy."""
    return "numpy"
