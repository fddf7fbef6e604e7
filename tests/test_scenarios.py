"""Scenario engine: determinism, truth tracking, channel structure."""

import math
import re
import tracemalloc
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from dualtherm import (
    AxisKind,
    BFieldProcess,
    BfieldSettings,
    DriftState,
    HeatingModel,
    LaserParams,
    MonitorConfig,
    NvCalibration,
    OdmrModel,
    OdmrSettings,
    PlSettings,
    PrecisionParams,
    RampParams,
    ScenarioConfig,
    ScenarioKind,
    SivCalibration,
    SpectrumTrace,
    nv_resonance_of_temperature,
    odmr_expected_counts,
    odmr_readout,
    pair_z,
    recovered_step_amplitude,
    run_bfield_artifact,
    run_laser_modulation,
    run_precision_sweep,
    run_ramp,
    run_scenario,
    unit_lorentzian,
    zpl_readout,
)
from dualtherm import fitting, scenarios
from dualtherm.scenarios import ScenarioRecord
from dip_reference import select_dip_count_unscreened


def test_identical_configs_reproduce_identical_records():
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=21, duration_s=30.0)
    assert run_bfield_artifact(cfg) == run_bfield_artifact(cfg)


def test_different_seeds_differ():
    a = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=1, duration_s=15.0)
    b = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=2, duration_s=15.0)
    assert run_bfield_artifact(a) != run_bfield_artifact(b)


def test_optical_channel_immune_to_field_amplitude():
    """Raising b_max must leave every SiV output bitwise unchanged."""
    quiet = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=33, duration_s=30.0)
    noisy = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT,
        seed=33,
        duration_s=30.0,
        bfield=BfieldSettings(b_max_mt=0.4),
    )
    for rq, rn in zip(run_bfield_artifact(quiet), run_bfield_artifact(noisy)):
        assert rq.siv_pos_nm == rn.siv_pos_nm
        assert rq.siv_pos_sigma_nm == rn.siv_pos_sigma_nm
        assert rq.siv_fwhm_nm == rn.siv_fwhm_nm
        assert rq.t_siv_c == rn.t_siv_c
        assert rq.t_siv_sigma_c == rn.t_siv_sigma_c


def test_noiseless_ramp_recovers_truth():
    cfg = ScenarioConfig(kind=ScenarioKind.RAMP, seed=0, noiseless=True)
    records = run_ramp(cfg)
    assert len(records) == 10
    truths = np.linspace(25.0, 65.0, 10)
    for record, t_true in zip(records, truths):
        assert record.true_t_c == pytest.approx(t_true, rel=1e-12)
        assert record.t_nv_c == pytest.approx(t_true, abs=1e-6)
        # exact optical recovery relies on the pipeline subtracting the
        # static 637 nm tail before the single-peak fit
        assert record.t_siv_c == pytest.approx(t_true, abs=1e-6)
        assert not record.artifact_flag


def test_ramp_record_times_follow_sample_period():
    cfg = ScenarioConfig(kind=ScenarioKind.RAMP, seed=3, sample_period_s=2.0, noiseless=True)
    records = run_ramp(cfg)
    times = [r.time_s for r in records]
    assert times == pytest.approx(np.arange(10) * 2.0)


def test_record_count_follows_duration():
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=5, duration_s=45.0, noiseless=True)
    assert len(run_bfield_artifact(cfg)) == 30  # 45 s / 1.5 s
    assert all(r.b_par_mt == 0.0 for r in run_bfield_artifact(cfg))


def test_field_column_reports_active_field():
    cfg = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT,
        seed=6,
        duration_s=30.0,
        bfield=BfieldSettings(b_max_mt=0.5),
    )
    records = run_bfield_artifact(cfg)
    b = np.array([r.b_par_mt for r in records])
    assert np.all(np.abs(b) <= 0.5)
    assert np.any(b != 0.0)


def test_field_artifact_inflates_only_nv_scatter():
    quiet = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=7, duration_s=60.0)
    noisy = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT,
        seed=7,
        duration_s=60.0,
        bfield=BfieldSettings(b_max_mt=0.5),
    )
    rq = run_bfield_artifact(quiet)
    rn = run_bfield_artifact(noisy)
    std_nv_quiet = np.std([r.t_nv_c for r in rq], ddof=1)
    std_nv_noisy = np.std([r.t_nv_c for r in rn], ddof=1)
    std_siv_noisy = np.std([r.t_siv_c for r in rn], ddof=1)
    assert std_nv_noisy / std_siv_noisy > 3.0
    assert std_nv_noisy > 10 * std_nv_quiet
    assert all(r.artifact_flag for r in rn)


def test_laser_modulation_truth_assignment():
    cfg = ScenarioConfig(kind=ScenarioKind.LASER_MODULATION, seed=8, duration_s=400.0, noiseless=True)
    records = run_laser_modulation(cfg)
    powers = sorted({r.laser_mw for r in records})
    assert powers == [85.0, 145.0]
    for r in records:
        expected_power = 85.0 if (r.time_s % 200.0) < 100.0 else 145.0
        assert r.laser_mw == expected_power
        # NV truth column: ambient plus the NV heating coefficient
        assert r.true_t_c == pytest.approx(25.0 + 0.0735 * r.laser_mw, rel=1e-12)
        assert r.t_nv_c == pytest.approx(r.true_t_c, abs=1e-6)
        assert r.t_siv_c == pytest.approx(25.0 + 0.0751 * r.laser_mw, abs=1e-6)


def test_recovered_step_amplitude_hand_case():
    def rec(t, power, t_nv, t_siv):
        return ScenarioRecord(
            time_s=t, true_t_c=25.0, laser_mw=power, b_par_mt=0.0, nv_n_dips=1,
            nv_f0_mhz=2870.0, nv_f0_sigma_mhz=0.01, nv_contrast=0.12, nv_fwhm_mhz=12.0,
            siv_pos_nm=737.0, siv_pos_sigma_nm=0.001, siv_fwhm_nm=4.8,
            t_nv_c=t_nv, t_nv_sigma_c=0.1, t_siv_c=t_siv, t_siv_sigma_c=0.1,
            z_score=0.0, artifact_flag=False,
        )

    records = [
        rec(0.0, 85.0, 31.0, 31.5),
        rec(1.0, 85.0, 33.0, 31.7),
        rec(2.0, 145.0, 35.0, 36.0),
        rec(3.0, 145.0, 37.0, 36.4),
    ]
    amp, se = recovered_step_amplitude(records, "nv")
    assert amp == pytest.approx(4.0, rel=1e-12)
    # each level holds two points spaced 2 K and 0.4 K apart
    assert se == pytest.approx(np.sqrt(1.0 + 1.0), rel=1e-12)
    amp_siv, se_siv = recovered_step_amplitude(records, "siv")
    assert amp_siv == pytest.approx(4.6, rel=1e-12)
    assert se_siv == pytest.approx(np.sqrt(0.02 / 2 + 0.08 / 2), rel=1e-9)
    with pytest.raises(ValueError):
        recovered_step_amplitude(records, "fused")
    with pytest.raises(ValueError):
        recovered_step_amplitude(records[:2], "nv")


def test_noiseless_scenarios_report_vanishing_uncertainty():
    # exact data leaves only solver roundoff: the reported sigmas collapse
    # toward zero.  the z score divides one roundoff quantity by another, so
    # only its finiteness is meaningful
    cfg = ScenarioConfig(kind=ScenarioKind.RAMP, seed=4, noiseless=True)
    for r in run_ramp(cfg):
        assert 0.0 <= r.t_nv_sigma_c < 1e-9
        assert 0.0 <= r.t_siv_sigma_c < 1e-9
        assert np.isfinite(r.z_score)


def test_precision_sweep_shapes_and_scaling():
    cfg = ScenarioConfig(kind=ScenarioKind.PRECISION_SWEEP, seed=42)
    result = run_precision_sweep(cfg)
    assert set(result) == {"siv"}
    times = [t for t, _ in result["siv"]]
    assert times == [0.1, 0.3, 1.0, 3.0, 10.0, 30.0]
    sigmas = np.array([s for _, s in result["siv"]])
    assert np.all(sigmas > 0)
    # precision must improve by roughly sqrt(300) across the sweep
    assert sigmas[0] / sigmas[-1] > 5.0


def test_precision_sweep_is_deterministic():
    cfg = ScenarioConfig(kind=ScenarioKind.PRECISION_SWEEP, seed=10)
    assert run_precision_sweep(cfg) == run_precision_sweep(cfg)


def test_precision_sweep_puts_each_channel_at_its_own_ambient(monkeypatch):
    fits = {"fit_odmr_dips": [], "fit_pl_peak": []}
    for name, kept in fits.items():

        def spy(*args, _fn=getattr(scenarios, name), _kept=kept, **kwargs):
            _kept.append(_fn(*args, **kwargs))
            return _kept[-1]

        monkeypatch.setattr(scenarios, name, spy)
    cfg = ScenarioConfig(
        kind=ScenarioKind.PRECISION_SWEEP,
        seed=3,
        heating_nv=HeatingModel(t_ambient_c=40.0),
        heating_siv=HeatingModel(t_ambient_c=60.0, slope_k_per_mw=0.0751),
        precision=PrecisionParams(integration_times_s=(1.0,), repetitions=4, channels=("nv", "siv")),
    )
    run_precision_sweep(cfg)
    d_center = np.mean([fit.derived["d_center"][0] for fit in fits["fit_odmr_dips"]])
    siv_center = np.mean([fit.params["center"] for fit in fits["fit_pl_peak"]])
    # 15 K and 35 K from the 25 degC calibration points: 1.1 MHz and 0.294 nm
    assert d_center == pytest.approx(nv_resonance_of_temperature(cfg.nv_cal, 40.0), abs=0.05)
    assert siv_center == pytest.approx(737.294, abs=0.01)


def test_run_scenario_dispatch():
    ramp = ScenarioConfig(kind=ScenarioKind.RAMP, seed=1, noiseless=True)
    assert isinstance(run_scenario(ramp)[0], ScenarioRecord)
    sweep = ScenarioConfig(kind=ScenarioKind.PRECISION_SWEEP, seed=1)
    assert isinstance(run_scenario(sweep), dict)


def test_ramp_params_validation():
    with pytest.raises(ValueError):
        RampParams(t_start_c=-5.0)
    with pytest.raises(ValueError):
        RampParams(n_steps=0)
    with pytest.raises(ValueError):
        ScenarioConfig(sample_period_s=0.0)


def test_ramp_step_count_is_not_a_bool():
    # True passed as n_steps >= 1 although OdmrSettings refused sweep_points=True
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1, got True"):
        RampParams(n_steps=True)


@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(kind=ScenarioKind.RAMP, seed=2),
        ScenarioConfig(
            kind=ScenarioKind.BFIELD_ARTIFACT, seed=9, duration_s=45.0, bfield=BfieldSettings(b_max_mt=0.5)
        ),
    ],
    ids=["noisy_ramp", "field_0.5mT"],
)
def test_record_temperatures_and_z_come_from_the_one_readout(cfg):
    # every temperature column is the thermometry readout of the fitted line
    # columns, and z is the crossval score of those estimates, bit for bit
    records = run_scenario(cfg)
    assert any(r.nv_n_dips == 2 for r in records) == (cfg.bfield.b_max_mt > 0)
    for r in records:
        nv = odmr_readout(r.nv_f0_mhz, r.nv_f0_sigma_mhz, cfg.nv_cal, r.time_s)
        siv = zpl_readout(r.siv_pos_nm, r.siv_pos_sigma_nm, cfg.siv_cal, r.time_s)
        assert (r.t_nv_c, r.t_nv_sigma_c) == (nv.value_c, nv.sigma_c)
        assert (r.t_siv_c, r.t_siv_sigma_c) == (siv.value_c, siv.sigma_c)
        assert r.z_score == pair_z(nv, siv)


def test_second_dip_wider_than_the_sweep_is_rejected():
    # on this field-off run the two-dip fit of record 25 (t = 37.5 s) pairs
    # the true dip with a 119 MHz-wide, 0.17% dip across the 100 MHz sweep;
    # admitted, it read T_nv = 78 degC against a true 25 degC
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=784315707, duration_s=120.0)
    record = run_bfield_artifact(cfg)[25]
    assert record.time_s == 37.5
    assert record.nv_n_dips == 1
    assert abs(record.t_nv_c - 25.0) < 1.0


def test_second_dip_far_weaker_than_the_first_is_rejected():
    # on this field-off run the two-dip fit at t = 181.5 s paired the true
    # 12% dip with a 0.11% dip 10 MHz away; admitted, it read
    # T_nv = -41.5 degC against a true 25 degC and flagged its window
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=1003, duration_s=300.0)
    records = run_bfield_artifact(cfg)
    k = 121
    assert records[k].time_s == 181.5
    assert records[k].nv_n_dips == 1
    assert abs(records[k].t_nv_c - 25.0) < 1.0
    first = k - k % cfg.detection.window_samples
    assert not any(r.artifact_flag for r in records[first : first + cfg.detection.window_samples])


def test_two_dip_fits_rarely_reach_the_iteration_cap(monkeypatch):
    """A count, not a timing: field spectra must not run the two-dip fit to the cap.

    Started from the samples alone, 75 of the 378 two-dip fits the BIC
    margin let through stopped at ``MAX_ITERATIONS``; the screen at the
    admissible significance lets 362 through.  The pipeline fits the two-dip
    candidates of a chunk of records as one stack, so the iterations are
    read off the candidates ``fit_odmr_candidates`` returns.
    """
    candidates = scenarios.fit_odmr_candidates
    iterations = []

    def counted(axis, counts):
        fits = candidates(axis, counts)
        iterations.extend(two.iterations for _, two in fits if two is not None)
        return fits

    monkeypatch.setattr(scenarios, "fit_odmr_candidates", counted)
    for seed in range(10):
        run_bfield_artifact(
            ScenarioConfig(
                kind=ScenarioKind.BFIELD_ARTIFACT, seed=seed, duration_s=60.0, bfield=BfieldSettings(b_max_mt=0.5)
            )
        )
    assert len(iterations) == 362
    capped = sum(n >= fitting.MAX_ITERATIONS for n in iterations)
    assert capped <= 10, capped


@pytest.mark.parametrize("b_max_mt", [0.0, 0.5])
def test_records_do_not_depend_on_the_screen_blocks(b_max_mt):
    """A session whose length is no multiple of the score block or the fit chunk reads as the start of a longer one."""

    def session(duration_s):
        return run_bfield_artifact(
            ScenarioConfig(
                kind=ScenarioKind.BFIELD_ARTIFACT,
                seed=5,
                duration_s=duration_s,
                bfield=BfieldSettings(b_max_mt=b_max_mt),
            )
        )

    win = ScenarioConfig().detection.window_samples
    for short_s, full_s, n_short, n_full in ((46.5, 60.0, 31, 40), (100.5, 150.0, 67, 100)):
        short, full = session(short_s), session(full_s)
        assert len(short) == n_short and len(full) == n_full
        assert len(short) % fitting.SCREEN_BLOCK_RECORDS != 0
        # only the complete windows of the short session are screened
        screened = len(short) - len(short) % win
        assert screened < len(short)
        for k, (a, b) in enumerate(zip(short, full)):
            if k < screened:
                assert a == b, k
            else:
                assert replace(a, artifact_flag=False) == replace(b, artifact_flag=False), k
    # the second pair crosses a chunk boundary of the stacked fits
    assert n_short > scenarios.FIT_CHUNK_RECORDS and n_short % scenarios.FIT_CHUNK_RECORDS != 0


def test_pipeline_stacks_no_more_rows_than_a_fit_chunk(monkeypatch):
    """``FIT_CHUNK_RECORDS`` is the one bound on the stacks ``fitting._fit`` is handed."""
    fit = fitting._fit
    stacks = []

    def spy(model, physical, axis, counts, p0):
        stacks.append((model, p0.shape))
        return fit(model, physical, axis, counts, p0)

    monkeypatch.setattr(fitting, "_fit", spy)
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=0, duration_s=300.0, bfield=BfieldSettings(b_max_mt=0.5))
    n_records = 200
    assert len(run_bfield_artifact(cfg)) == n_records
    chunk = scenarios.FIT_CHUNK_RECORDS
    assert max(rows for _, (rows, _) in stacks) <= chunk
    # one one-dip stack and one PL stack per chunk, the last ones part full
    full, part = divmod(n_records, chunk)
    assert part > 0
    assert [rows for model, (rows, k) in stacks if model is fitting._dips_model and k == 4] == [chunk] * full + [part]
    assert [rows for model, (rows, _) in stacks if model is fitting._peak_model] == [chunk] * full + [part]
    assert any(k == 7 for _, (_, k) in stacks)


def test_session_memory_stays_within_a_chunk_working_set():
    # a 120 s field-off session of 80 records; a first session builds the
    # score screen's cached candidate grid (3.5 MB) before measuring.
    # PL fits of one peaked at 2.45 MB, stacks of 64 at 5.7 MB, and stacks
    # of 16 at 1.65 MB
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=1001, duration_s=120.0)
    run_bfield_artifact(replace(cfg, seed=999, duration_s=30.0))
    tracemalloc.start()
    try:
        assert len(run_bfield_artifact(cfg)) == 80
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"session peaked at {peak / 1e6:.2f} MB"


_CHUNK_SESSIONS = {
    "0.5 mT 150 s": ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT, seed=4, duration_s=150.0, bfield=BfieldSettings(b_max_mt=0.5)
    ),
    "field-off 105 s": ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=1003, duration_s=105.0),
    "noiseless 0.5 mT 105 s": ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT, seed=4, duration_s=105.0, noiseless=True, bfield=BfieldSettings(b_max_mt=0.5)
    ),
    "laser 105 s": ScenarioConfig(
        kind=ScenarioKind.LASER_MODULATION, seed=8, duration_s=105.0, laser=LaserParams(period_s=30.0)
    ),
}


@pytest.mark.parametrize("name", list(_CHUNK_SESSIONS))
def test_records_do_not_depend_on_the_chunk_size(monkeypatch, name):
    """Synthesis and fits in chunks of 1, 7, ``FIT_CHUNK_RECORDS`` or 64 records give the same records."""
    runs = []
    for chunk in (64, scenarios.FIT_CHUNK_RECORDS, 7, 1):
        monkeypatch.setattr(scenarios, "FIT_CHUNK_RECORDS", chunk)
        runs.append(run_scenario(_CHUNK_SESSIONS[name]))
    # every session crosses a 64-record chunk boundary
    assert len(runs[0]) > 64
    for run in runs[1:]:
        assert run == runs[0]


@pytest.mark.parametrize("b_max_mt", [0.5, 0.0])
def test_synthesis_draws_each_stream_once_per_chunk(monkeypatch, b_max_mt):
    """One Poisson draw per channel and one field sweep per chunk; drift steps per record."""
    calls = {"sample_poisson_counts": 0, "bfield_sweep": 0, "drift_step": 0}
    for name in calls:

        def spy(*args, _name=name, _fn=getattr(scenarios, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, spy)
    cfg = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT, seed=4, duration_s=150.0, bfield=BfieldSettings(b_max_mt=b_max_mt)
    )
    n_records = 100
    assert len(run_bfield_artifact(cfg)) == n_records
    # full chunks, then one part chunk; an inactive field draws nothing
    n_chunks = -(-n_records // scenarios.FIT_CHUNK_RECORDS)
    assert n_chunks > 1 and n_records % scenarios.FIT_CHUNK_RECORDS
    assert calls == {
        "sample_poisson_counts": 2 * n_chunks,
        "bfield_sweep": n_chunks if b_max_mt else 0,
        "drift_step": n_records,
    }


@pytest.mark.parametrize(
    "seed,duration_s,b_max_mt,n_records",
    [(5, 100.5, 0.5, 67), (1003, 120.0, 0.0, 80), (3, 60.0, 0.2, 40)],
)
def test_pipeline_dip_count_equals_a_fresh_selection(monkeypatch, seed, duration_s, b_max_mt, n_records):
    """The pipeline's chunked fits and screen choose what ``select_dip_count(trace)`` chooses alone."""
    select = scenarios.select_dip_count
    captured = []

    def spy(trace, *args):
        result = select(trace, *args)
        captured.append((trace, result))
        return result

    monkeypatch.setattr(scenarios, "select_dip_count", spy)
    cfg = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT, seed=seed, duration_s=duration_s, bfield=BfieldSettings(b_max_mt=b_max_mt)
    )
    assert len(run_bfield_artifact(cfg)) == len(captured) == n_records
    for k, (trace, (n_dips, fit)) in enumerate(captured):
        fresh_n_dips, fresh = fitting.select_dip_count(trace)
        assert n_dips == fresh_n_dips, k
        assert (fit.params, fit.std_errors, fit.iterations) == (fresh.params, fresh.std_errors, fresh.iterations), k
    two_dip = sum(n_dips == 2 for _, (n_dips, _) in captured)
    # with a field both choices are made; without one, never the pair
    assert (0 < two_dip < n_records) if b_max_mt > 0 else two_dip == 0


@pytest.mark.parametrize("seed", [2, 7, 9, 13])
def test_retired_candidates_choose_what_the_full_fit_chooses(monkeypatch, seed):
    """Retiring unphysical fits after ``_PATIENCE`` iterations changes no choice of the fits never retired.

    At 1.0 mT each of these sessions has a candidate that is no physical
    pair after 15 iterations but is kept after the full fit, so a patience
    of 15 fails here.
    """
    select = scenarios.select_dip_count
    captured = []

    def spy(trace, *args):
        result = select(trace, *args)
        captured.append((trace, result))
        return result

    monkeypatch.setattr(scenarios, "select_dip_count", spy)
    cfg = ScenarioConfig(
        kind=ScenarioKind.BFIELD_ARTIFACT, seed=seed, duration_s=60.0, bfield=BfieldSettings(b_max_mt=1.0)
    )
    assert len(run_bfield_artifact(cfg)) == len(captured) == 40
    for k, (trace, (n_dips, fit)) in enumerate(captured):
        full_n_dips, full = select_dip_count_unscreened(trace)
        assert (n_dips, fit.params) == (full_n_dips, full.params), k


@pytest.mark.parametrize("seed", [1016, 1020])
def test_field_off_candidates_that_chase_a_sample_gap_are_retired(monkeypatch, seed):
    """A field-off candidate whose second dip shrinks into a gap between samples stops at the patience.

    Fitted in full, with retirement put past the cap, the dip narrows far
    below the sample step and the fit runs to ``MAX_ITERATIONS`` and reads
    not converged.
    """
    candidates = fitting.fit_odmr_candidates
    captured = []

    def spy(axis, counts):
        fits = candidates(axis, counts)
        captured.extend((axis, row, one, two) for row, (one, two) in zip(counts, fits) if two is not None)
        return fits

    monkeypatch.setattr(scenarios, "fit_odmr_candidates", spy)
    cfg = ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, seed=seed, duration_s=120.0)
    run_bfield_artifact(cfg)
    [(axis, counts, one, two)] = captured
    assert not two.converged
    assert two.iterations <= fitting._PATIENCE + 1
    trace = SpectrumTrace(AxisKind.FREQUENCY_MHZ, axis, counts)
    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_PATIENCE", fitting.MAX_ITERATIONS + 1)
        [full] = fitting._fit_dips(axis, counts[None], fitting._two_dip_starts(axis, counts[None], [one]))
    assert not full.converged and full.iterations == fitting.MAX_ITERATIONS
    step = float(np.median(np.diff(trace.axis)))
    assert min(full.params["fwhm_1"], full.params["fwhm_2"]) < 0.1 * step
    n_dips, fit = fitting.select_dip_count(trace)
    full_n_dips, full_fit = select_dip_count_unscreened(trace)
    assert (n_dips, fit.params) == (full_n_dips, full_fit.params) == (1, one.params)


def _nv_temperature_crb(cfg: ScenarioConfig) -> float:
    """NV temperature Cramér-Rao bound for 1 s of sweep, in K/rtHz.

    Poisson Fisher information of the forward ODMR model with the baseline,
    center, width and contrast free, at the ambient temperature the sweep
    runs at.
    """
    axis = cfg.odmr.axis()
    center = nv_resonance_of_temperature(cfg.nv_cal, cfg.heating_nv.t_ambient_c)
    width, contrast = cfg.odmr.linewidth_mhz, cfg.odmr.contrast
    rate = cfg.odmr.baseline_rate_cps / axis.size
    # the zero-field sweep: one dip of the full contrast
    model = OdmrModel(cfg.odmr.baseline_rate_cps, ((center, width, contrast),))
    mu = odmr_expected_counts(model, axis, 1.0 / axis.size)
    lor = unit_lorentzian(axis, center, width)
    u = 2.0 * (axis - center) / width
    jac = np.column_stack(
        [
            1.0 - contrast * lor,
            -rate * contrast * 4.0 * u * lor * lor / width,
            -rate * contrast * 2.0 * u * u * lor * lor / width,
            -rate * lor,
        ]
    )
    fisher = jac.T @ (jac / mu[:, None])
    return math.sqrt(np.linalg.inv(fisher)[1, 1]) / abs(cfg.nv_cal.slope_mhz_per_c)


def test_precision_sweep_nv_floor_matches_the_cramer_rao_bound():
    """The NV series is shot-noise efficient: pooled sigma^2 t sits at the CRB^2."""
    cfg = ScenarioConfig(kind=ScenarioKind.PRECISION_SWEEP, seed=42, precision=PrecisionParams(channels=("nv",)))
    crb = _nv_temperature_crb(cfg)
    assert crb == pytest.approx(0.1345, rel=1e-3)
    series = run_precision_sweep(cfg)["nv"]
    times = np.array([t for t, _ in series])
    sigmas = np.array([s for _, s in series])
    assert list(times) == list(cfg.precision.integration_times_s)
    ratio = float(np.mean(sigmas**2 * times / crb**2))
    # each sample variance over n repetitions has relative SD sqrt(2 / (n - 1))
    standard_error = math.sqrt(2.0 / (cfg.precision.repetitions - 1)) / math.sqrt(times.size)
    assert abs(ratio - 1.0) < 5.0 * standard_error, f"sigma^2 t / CRB^2 = {ratio:.3f} +/- {standard_error:.3f}"


_SETTINGS = (
    ScenarioConfig,
    OdmrSettings,
    PlSettings,
    BfieldSettings,
    RampParams,
    PrecisionParams,
    LaserParams,
    NvCalibration,
    SivCalibration,
    HeatingModel,
    DriftState,
    MonitorConfig,
    BFieldProcess,
)

#: the arguments a settings class needs besides the field under test
_REQUIRED = {BFieldProcess: {"b_max_mt": 0.5}}


def _build(cls, name, value):
    return cls(**{**_REQUIRED.get(cls, {}), name: value})


def _float_fields():
    """``(settings class, field name, whether the field is a tuple)`` for every float field of the settings."""
    return [
        (cls, f.name, f.type != "float")
        for cls in _SETTINGS
        for f in fields(cls)
        if f.type in ("float", "tuple[float, ...]")
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "cls,name,is_tuple", [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}") for case in _float_fields()]
)
def test_settings_reject_non_finite_numbers(cls, name, is_tuple, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        _build(cls, name, (1.0, value) if is_tuple else value)


def test_settings_cover_every_float_field():
    names = {(cls.__name__, name) for cls, name, _ in _float_fields()}
    assert ("ScenarioConfig", "duration_s") in names and ("PrecisionParams", "integration_times_s") in names
    assert len(names) == 45


def _just_outside(rule):
    """Values that just miss a declared bound, found from its rule text."""
    if rule.startswith("must be an integer >= "):
        n = int(rule.rsplit(" ", 1)[1])
        return [n - 1, n + 0.5, float(n), True]
    tiny = math.ulp(0.0)
    return {
        "must be > 0": [0.0, -tiny],
        "must be >= 0": [-tiny],
        "must lie in (0, 1)": [0.0, 1.0],
        "must be nonzero": [0.0, -0.0],
        "must lie in [0, 200] degC": [-tiny, math.nextafter(200.0, math.inf)],
    }[rule]


def _bounded_fields():
    """``(settings class, field)`` for every field that declares a bound."""
    return [(cls, f) for cls in _SETTINGS for f in fields(cls) if "rule" in f.metadata]


@pytest.mark.parametrize(
    "cls,f", [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}") for cls, f in _bounded_fields()]
)
def test_declared_bounds_refuse_values_just_outside(cls, f):
    default = getattr(cls(**_REQUIRED.get(cls, {})), f.name)
    is_tuple = f.type == "tuple[float, ...]"
    for v in default if is_tuple else (default,):
        assert f.metadata["holds"](v), (f.name, v)
    for value in _just_outside(f.metadata["rule"]):
        with pytest.raises(ValueError, match="^" + re.escape(f"{f.name} {f.metadata['rule']}, got {value}") + "$"):
            _build(cls, f.name, (1.0, value) if is_tuple else value)


def test_every_single_field_bound_is_declared():
    names = {(cls.__name__, f.name) for cls, f in _bounded_fields()}
    assert ("MonitorConfig", "window_samples") in names and ("BFieldProcess", "time_since_resample_s") in names
    assert len(names) == 37


def test_infinite_duration_is_refused_before_the_run():
    # an infinite session used to pass validation and overflow in the run
    with pytest.raises(ValueError, match="duration_s must be a finite number"):
        ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, duration_s=math.inf)


def _wrong_types(hint):
    """Values of the wrong type for a field declared as ``hint``."""
    if hint in (float, int):
        return ["1.0", None, True, (), (8,)]
    if hint is bool:
        return [1, "no"]
    if hint == tuple[float, ...]:
        return [1.0, [1.0, "x"], [1.0, True]]
    if hint == tuple[str, ...]:
        return ["siv", ["siv", 1]]
    if hint is ScenarioKind:
        return ["ramp"]
    return [{}]


def _typed_fields():
    """``(settings class, field name, declared type)`` for every field of the settings."""
    return [(cls, name, hint) for cls in _SETTINGS for name, hint in get_type_hints(cls).items()]


@pytest.mark.parametrize(
    "cls,name,hint", [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}") for case in _typed_fields()]
)
def test_declared_types_refuse_values_of_another_type(cls, name, hint):
    for value in _wrong_types(hint):
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} ")):
            _build(cls, name, value)


def test_every_field_type_is_one_the_settings_check():
    hints = [hint for _, _, hint in _typed_fields()]
    counts = {hint: hints.count(hint) for hint in (float, int, bool, tuple[float, ...], tuple[str, ...])}
    assert counts == {float: 44, int: 6, bool: 1, tuple[float, ...]: 1, tuple[str, ...]: 1}
    classes = [hint for hint in hints if hint not in counts]
    assert len(classes) == 13 and ScenarioKind in classes


def test_library_configs_of_the_wrong_type_are_refused_before_the_run():
    # each of these used to run, or fail later, as another run than asked for
    with pytest.raises(ValueError, match="^kind must be of type ScenarioKind, got 'ramp'$"):
        run_scenario(ScenarioConfig(kind="ramp", duration_s=15.0))
    with pytest.raises(ValueError, match="^noiseless must be true or false, got 'no'$"):
        run_bfield_artifact(ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, duration_s=15.0, noiseless="no"))
    with pytest.raises(ValueError, match=r"^odmr must be of type OdmrSettings, got \{\}$"):
        run_bfield_artifact(ScenarioConfig(kind=ScenarioKind.BFIELD_ARTIFACT, duration_s=15.0, odmr={}))
    with pytest.raises(ValueError, match="^contrast must be a finite number, got '0.1'$"):
        OdmrSettings(contrast="0.1")
    with pytest.raises(ValueError, match=r"^z_threshold must be a finite number, got \(1\+2j\)$"):
        MonitorConfig(z_threshold=1 + 2j)


def test_numbers_are_stored_as_floats():
    config = ScenarioConfig(duration_s=60, precision=PrecisionParams(integration_times_s=[1, np.float32(3.0)]))
    assert config.duration_s == 60.0 and type(config.duration_s) is float
    assert config.precision.integration_times_s == (1.0, 3.0)
    assert all(type(t) is float for t in config.precision.integration_times_s)
