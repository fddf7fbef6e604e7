"""Randomness layer: seed partitioning, photon sampling, drift, field process."""

import math

import numpy as np
import pytest

from dualtherm import (
    BFieldProcess,
    DriftState,
    bfield_resample,
    drift_step,
    sample_poisson_counts,
    subsystem_generators,
    validate_seed,
)
from dualtherm.noise import SUBSYSTEMS, bfield_sweep


def test_validate_seed_accepts_unsigned_64_bit():
    assert validate_seed(0) == 0
    assert validate_seed(2**64 - 1) == 2**64 - 1
    with pytest.raises(ValueError):
        validate_seed(-1)
    with pytest.raises(ValueError):
        validate_seed(2**64)


def test_subsystem_generators_names_and_determinism():
    gens = subsystem_generators(123)
    assert tuple(gens) == SUBSYSTEMS
    again = subsystem_generators(123)
    for name in SUBSYSTEMS:
        np.testing.assert_array_equal(
            gens[name].standard_normal(8), again[name].standard_normal(8)
        )


def test_subsystem_streams_are_independent():
    """Consuming extra draws from one stream must not shift any other."""
    a = subsystem_generators(7)
    b = subsystem_generators(7)
    a["odmr"].standard_normal(1000)
    for name in ("pl", "drift", "bfield"):
        np.testing.assert_array_equal(
            a[name].standard_normal(16), b[name].standard_normal(16)
        )


def test_subsystem_streams_differ_between_seeds():
    a = subsystem_generators(1)["odmr"].standard_normal(16)
    b = subsystem_generators(2)["odmr"].standard_normal(16)
    assert not np.array_equal(a, b)


def test_poisson_counts_moments():
    rng = np.random.default_rng(11)
    lam = 100.0
    draws = sample_poisson_counts(np.full(200_000, lam), rng)
    assert draws.dtype == np.int64
    assert np.all(draws >= 0)
    # mean and variance both equal lambda; allow 5 sigma of sampling error
    n = draws.size
    assert abs(draws.mean() - lam) < 5 * math.sqrt(lam / n)
    assert abs(draws.var() - lam) < 5 * lam * math.sqrt(2.0 / n)


def test_poisson_counts_zero_rate_and_validation():
    rng = np.random.default_rng(0)
    assert np.all(sample_poisson_counts(np.zeros(10), rng) == 0)
    with pytest.raises(ValueError):
        sample_poisson_counts(np.array([1.0, -0.5]), rng)


def test_poisson_counts_deterministic_per_seed():
    a = sample_poisson_counts(np.full(50, 3.7e6), np.random.default_rng(5))
    b = sample_poisson_counts(np.full(50, 3.7e6), np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_drift_zero_std_is_identity():
    state = DriftState(stationary_rel_std=0.0)
    rng = np.random.default_rng(3)
    assert drift_step(state, 10.0, rng) is state


def test_drift_stationary_moments():
    """Long chains must keep the configured stationary log spread."""
    state = DriftState(reversion_rate=1.0 / 300.0, stationary_rel_std=7e-4)
    rng = np.random.default_rng(42)
    logs = []
    for _ in range(20_000):
        state = drift_step(state, 150.0, rng)
        logs.append(math.log(state.current_factor))
    logs = np.asarray(logs[200:])
    assert abs(logs.mean()) < 5 * 7e-4 / math.sqrt(logs.size)
    assert logs.std() == pytest.approx(7e-4, rel=0.05)
    # lag-1 autocorrelation of the exact discretization is exp(-theta dt)
    rho = np.corrcoef(logs[:-1], logs[1:])[0, 1]
    assert rho == pytest.approx(math.exp(-150.0 / 300.0), abs=0.02)


def test_drift_step_splitting_consistency():
    """Two successive steps compose to the closed-form two-step law."""

    class TwoDraws:
        def __init__(self, values):
            self.values = list(values)

        def standard_normal(self):
            return self.values.pop(0)

    theta, sigma = 1.0 / 300.0, 7e-4
    state = DriftState(current_factor=1.001, reversion_rate=theta, stationary_rel_std=sigma)
    z1, z2 = 0.8, -1.3
    split = drift_step(drift_step(state, 60.0, TwoDraws([z1])), 60.0, TwoDraws([z2]))
    # compose the two-step law by hand: x2 = x0 e^(-2h) + s sqrt(1-e^(-2h)) (z1 e^(-h) + ...)
    h = theta * 60.0
    decay = math.exp(-h)
    x0 = math.log(1.001)
    x2 = x0 * decay * decay + sigma * math.sqrt(1 - decay * decay) * (z1 * decay + z2)
    assert split.current_factor == pytest.approx(math.exp(x2), rel=1e-12)


def test_drift_requires_positive_dt():
    with pytest.raises(ValueError):
        drift_step(DriftState(), 0.0, np.random.default_rng(0))


def test_bfield_projection_bounded_by_amplitude():
    proc = BFieldProcess(b_max_mt=0.5)
    rng = np.random.default_rng(8)
    seen = []
    for _ in range(500):
        proc = bfield_resample(proc, rng)
        seen.append(proc.current_projection_mt)
    seen = np.asarray(seen)
    assert np.all(np.abs(seen) <= 0.5)
    assert seen.min() < -0.2 and seen.max() > 0.2
    with pytest.raises(ValueError):
        BFieldProcess(b_max_mt=0.5, current_projection_mt=0.6)


def test_bfield_process_refuses_non_finite_settings():
    # a NaN clock phase used to hold the projection at its start value for
    # good, and an infinite amplitude overflowed inside bfield_sweep
    with pytest.raises(ValueError, match="time_since_resample_s must be a finite number, got nan"):
        BFieldProcess(b_max_mt=0.5, time_since_resample_s=math.nan)
    with pytest.raises(ValueError, match="b_max_mt must be a finite number, got inf"):
        BFieldProcess(b_max_mt=math.inf)


def test_bfield_sweep_holds_between_resamples():
    proc = bfield_resample(BFieldProcess(b_max_mt=1.0, dwell_s=0.5), np.random.default_rng(1))
    held, projections = bfield_sweep(proc, 0.2, 1, np.random.default_rng(2))
    assert held.current_projection_mt == proc.current_projection_mt == projections[0]
    assert held.time_since_resample_s == pytest.approx(0.2)


def test_bfield_sweep_redraws_once_per_dwell():
    # crossing two dwell boundaries consumes exactly two (magnitude, direction) pairs
    proc = BFieldProcess(b_max_mt=1.0, dwell_s=0.5)
    rng = np.random.default_rng(9)
    stepped, _ = bfield_sweep(proc, 1.1, 1, rng)
    ref = np.random.default_rng(9)
    for _ in range(2):
        expected = ref.uniform(0.0, 1.0) * ref.uniform(-1.0, 1.0)
    assert stepped.current_projection_mt == expected
    assert stepped.time_since_resample_s == pytest.approx(0.1)


@pytest.mark.parametrize(
    "dt_s,dwell_s,phase_s,n_steps",
    [
        (1.5 / 201, 0.5, 0.0, 201),  # one sweep at the pipeline's sweep step
        (1.5 / 201, 0.5, 0.0, 16 * 201),  # a chunk of sweeps
        (1.5 / 101, 0.5, 0.3, 2_000),  # a starting phase part way to a redraw
        (1.1, 0.5, 0.0, 40),  # a step longer than the dwell redraws twice
        (0.7, 0.5, 0.45, 40),
        (0.125, 0.5, 0.0, 400),  # steps that divide the dwell exactly
        (0.125, 0.5, 0.375, 400),
        (0.1, 0.5, 0.0, 400),
        (0.01, 0.5, 0.75, 300),  # a phase past the dwell redraws at once
        (1e-4, 0.5, 0.0, 12_000),  # redraws far apart
        (0.3, 0.5, 0.0, 0),  # no steps
    ],
)
def test_bfield_sweep_matches_repeated_steps(dt_s, dwell_s, phase_s, n_steps):
    # n steps followed by m steps reproduce one sweep of n + m steps bit for
    # bit, draws included; n = 1 repeated is the per-step process
    start = BFieldProcess(b_max_mt=0.5, dwell_s=dwell_s, current_projection_mt=-0.2, time_since_resample_s=phase_s)
    sweep_rng = np.random.default_rng(31)
    swept, projections = bfield_sweep(start, dt_s, n_steps, sweep_rng)
    assert n_steps == 0 or len(set(projections.tolist())) > 1
    one, third = min(1, n_steps), n_steps // 3
    for splits in ((0, n_steps), (one, n_steps - one), (third, n_steps - third), (n_steps, 0), (1,) * n_steps):
        rng = np.random.default_rng(31)
        proc = start
        expected = []
        for n in splits:
            proc, part = bfield_sweep(proc, dt_s, n, rng)
            expected += part.tolist()
        assert projections.tolist() == expected
        assert swept == proc
        assert sweep_rng.bit_generator.state == rng.bit_generator.state
    # the clock ends on the phase of the elapsed time past its last redraw,
    # having drawn the field once per dwell it counted off
    assert 0.0 <= swept.time_since_resample_s < dwell_s
    dwells = round((phase_s + n_steps * dt_s - swept.time_since_resample_s) / dwell_s)
    assert phase_s + n_steps * dt_s - swept.time_since_resample_s == pytest.approx(dwells * dwell_s, abs=1e-9)
    ref = np.random.default_rng(31)
    projection = start.current_projection_mt
    for _ in range(dwells):
        projection = ref.uniform(0.0, 0.5) * ref.uniform(-1.0, 1.0)
    assert swept.current_projection_mt == projection
    assert sweep_rng.bit_generator.state == ref.bit_generator.state
    # a resample draws in the same order
    resampled = bfield_resample(swept, sweep_rng)
    assert resampled.current_projection_mt == ref.uniform(0.0, 0.5) * ref.uniform(-1.0, 1.0)


def test_bfield_sweep_refuses_a_clock_that_cannot_run_down():
    # a dwell taken off 1e300 s leaves the clock unchanged, so counting the
    # dwells off one at a time would never end
    with pytest.raises(ValueError, match="cannot be counted off a clock at 1e[+]300 s"):
        bfield_sweep(BFieldProcess(b_max_mt=0.5), 1e300, 1, np.random.default_rng(0))


def test_bfield_zero_amplitude_still_consumes_draws():
    """Stream alignment must not depend on the field amplitude."""
    rng = np.random.default_rng(4)
    proc, _ = bfield_sweep(BFieldProcess(b_max_mt=0.0), 0.7, 1, rng)
    assert proc.current_projection_mt == 0.0
    ref = np.random.default_rng(4)
    ref.uniform(0.0, 0.0)
    ref.uniform(-1.0, 1.0)
    np.testing.assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))
