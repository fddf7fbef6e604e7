"""Correctness checks made apart from the program under test.

Nothing here imports dualtherm.  The Cramér-Rao bounds come from the forward
formulas and the Poisson Fisher information written out again below, the
record CSV is parsed by a parser of our own, and the artifact flags are
recomputed from the record values.  Every statistical tolerance is derived
from the sample size at hand: normal-approximation checks allow
``Z_TOL`` standard errors, binomial checks a one-sided tail of
``BINOMIAL_ALPHA``.  Each check returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Mapping, Sequence

import numpy as np

Table = dict[str, np.ndarray]

#: standard errors a pooled statistic may sit from its expected value
Z_TOL = 5.0
#: one-sided tail probability below which a binomial count is rejected
BINOMIAL_ALPHA = 1e-6
#: CSV values carry 9 significant digits, so a threshold decision closer than
#: this (relative) to its threshold cannot be verified from the file
DECISION_MARGIN = 1e-6

INT_COLUMNS = ("nv_n_dips", "artifact_flag")
POOLED_COLUMNS = ("nv_n_dips", "t_nv_c", "t_nv_sigma_c", "t_siv_c", "t_siv_sigma_c", "artifact_flag")


# -- Cramér-Rao bounds -------------------------------------------------------


def _lorentz_terms(axis: np.ndarray, center: float, fwhm: float) -> tuple[np.ndarray, ...]:
    """Unit Lorentzian L and its derivatives with respect to center and fwhm."""
    u = 2.0 * (axis - center) / fwhm
    lor = 1.0 / (1.0 + u * u)
    d_center = 4.0 * u * lor * lor / fwhm
    d_fwhm = 2.0 * u * u * lor * lor / fwhm
    return lor, d_center, d_fwhm


def _center_crb(mu: np.ndarray, jac: np.ndarray, index: int) -> float:
    # Poisson Fisher information sum_i (d mu_i)(d mu_i)^T / mu_i
    fisher = jac.T @ (jac / mu[:, None])
    return math.sqrt(float(np.linalg.inv(fisher)[index, index]))


def nv_floor_k_per_rt_hz(physics: Mapping) -> float:
    """NV ODMR temperature Cramér-Rao bound for 1 s of sweep time.

    One Lorentzian dip on a flat baseline with baseline, center, width and
    contrast all free; the sweep time is split evenly over the points.
    """
    odmr, cal = physics["odmr"], physics["nv_cal"]
    t_c = physics["heating_nv"]["t_ambient_c"]
    axis = np.linspace(odmr["sweep_start_mhz"], odmr["sweep_stop_mhz"], odmr["sweep_points"])
    base = odmr["baseline_rate_cps"] / axis.size
    center = cal["d_ref_mhz"] + cal["slope_mhz_per_c"] * (t_c - cal["t_ref_c"])
    contrast = odmr["contrast"]
    lor, d_center, d_fwhm = _lorentz_terms(axis, center, odmr["linewidth_mhz"])
    mu = base * (1.0 - contrast * lor)
    jac = np.column_stack(
        [1.0 - contrast * lor, -base * contrast * d_center, -base * contrast * d_fwhm, -base * lor]
    )
    return _center_crb(mu, jac, 1) / abs(cal["slope_mhz_per_c"])


def siv_floor_k_per_rt_hz(physics: Mapping) -> float:
    """SiV zero-phonon-line temperature Cramér-Rao bound for 1 s of exposure.

    One Lorentzian peak on a flat background with background, amplitude,
    center and width free; the static 637 nm NV line adds to the Poisson
    mean but has no free parameter.
    """
    pl, cal = physics["pl"], physics["siv_cal"]
    t_c = physics["heating_nv"]["t_ambient_c"]
    n = int(round((pl["window_stop_nm"] - pl["window_start_nm"]) / pl["step_nm"])) + 1
    axis = pl["window_start_nm"] + pl["step_nm"] * np.arange(n)
    center = cal["pos_ref_nm"] + cal["pos_slope_nm_per_c"] * (t_c - cal["t_ref_c"])
    fwhm = cal["fwhm_ref_nm"] + cal["fwhm_slope_nm_per_c"] * (t_c - cal["t_ref_c"])
    amp = pl["peak_amplitude_cps"]
    lor, d_center, d_fwhm = _lorentz_terms(axis, center, fwhm)
    tail, _, _ = _lorentz_terms(axis, pl["nv_peak_nm"], pl["nv_peak_fwhm_nm"])
    mu = pl["background_cps"] + amp * lor + pl["nv_peak_amplitude_cps"] * tail
    jac = np.column_stack([np.ones_like(axis), lor, amp * d_center, amp * d_fwhm])
    return _center_crb(mu, jac, 2) / abs(cal["pos_slope_nm_per_c"])


def fit_dof(physics: Mapping, channel: str) -> int:
    """Residual degrees of freedom of a channel's four-parameter fit."""
    if channel == "nv":
        n = physics["odmr"]["sweep_points"]
    else:
        pl = physics["pl"]
        n = int(round((pl["window_stop_nm"] - pl["window_start_nm"]) / pl["step_nm"])) + 1
    return n - 4


# -- statistics --------------------------------------------------------------


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def chi2_3_survival(x: float) -> float:
    """P(X > x) for a chi-square variable with 3 degrees of freedom."""
    return math.erfc(math.sqrt(0.5 * x)) + math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)


def binomial_upper_bound(n: int, p: float, alpha: float = BINOMIAL_ALPHA) -> int:
    """Smallest k with P(X > k) < alpha for X ~ Binomial(n, p)."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.exp(_log_binom_pmf(k, n, p))
        if tail < alpha:
            return k
    return n


def binomial_lower_tail(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return min(1.0, sum(math.exp(_log_binom_pmf(j, n, p)) for j in range(k + 1)))


def window_z_cutoff(z_threshold: float, n_samples: int) -> float:
    """Šidák-adjusted per-sample |z| cutoff of the monitor's design.

    A clean window of ``n_samples`` trips the max-|z| test with the two-sided
    tail probability of ``z_threshold``.
    """
    dist = statistics.NormalDist()
    alpha = 2.0 * (1.0 - dist.cdf(z_threshold))
    per_sample = 1.0 - (1.0 - alpha) ** (1.0 / n_samples)
    return dist.inv_cdf(1.0 - 0.5 * per_sample)


def check_pooled_z(name: str, z: np.ndarray, dof: int) -> list[str]:
    """z = error / reported sigma: zero mean and Student-t spread.

    The reported sigma is scaled by the fit's reduced chi-square, so z
    follows Student's t with the fit's residual degrees of freedom: variance
    dof / (dof - 2) and excess kurtosis 6 / (dof - 4).
    """
    n = z.size
    if n < 2:
        return [f"{name}: need at least 2 values, got {n}"]
    var_t = dof / (dof - 2.0)
    kurt = 6.0 / (dof - 4.0)
    mean = float(np.mean(z))
    var = float(np.var(z, ddof=1))
    failures = []
    if abs(mean) > Z_TOL * math.sqrt(var_t / n):
        failures.append(f"{name}: pooled z mean {mean:.4f} over {n} values")
    if abs(var - var_t) > Z_TOL * var_t * math.sqrt((2.0 + kurt) / n):
        failures.append(f"{name}: pooled z variance {var:.4f}, expected {var_t:.4f}, over {n} values")
    return failures


def check_reported_sigma(name: str, sigma: np.ndarray, crb: float) -> list[str]:
    """Mean reported variance matches the Cramér-Rao variance."""
    ratio = (sigma / crb) ** 2
    n = ratio.size
    if n < 2:
        return [f"{name}: need at least 2 values, got {n}"]
    mean = float(np.mean(ratio))
    se = float(np.std(ratio, ddof=1)) / math.sqrt(n)
    if abs(mean - 1.0) > Z_TOL * se:
        return [f"{name}: mean reported variance / CRB^2 = {mean:.5f} +/- {se:.5f} over {n} records"]
    return []


# -- records -----------------------------------------------------------------


def parse_records_csv(text: str) -> Table:
    """Parse a record CSV into columns keyed by lower-cased header names."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty record CSV")
    names = [h.lower() for h in lines[0].split(",")]
    rows = [line.split(",") for line in lines[1:] if line]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(names):
            raise ValueError(f"line {i}: {len(row)} cells for {len(names)} columns")
    table: Table = {}
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if name in INT_COLUMNS:
            table[name] = np.array([int(c) for c in cells], dtype=np.int64)
        else:
            table[name] = np.array([float(c) for c in cells], dtype=np.float64)
    return table


def records_table(records: Sequence) -> Table:
    """Columns of in-memory records, keyed by attribute name."""
    if not records:
        return {}
    names = list(vars(records[0]))
    table: Table = {}
    for name in names:
        values = [getattr(r, name) for r in records]
        if name in INT_COLUMNS:
            table[name] = np.array([int(v) for v in values], dtype=np.int64)
        else:
            table[name] = np.array(values, dtype=np.float64)
    return table


def pooled_columns(table: Table) -> Table:
    """The columns the pooled workload checks read, so a run keeps little per session."""
    return {k: table[k] for k in POOLED_COLUMNS}


def concat(tables: Sequence[Table]) -> Table:
    tables = [t for t in tables if t]
    if not tables:
        return {}
    return {k: np.concatenate([t[k] for t in tables]) for k in tables[0]}


def n_rows(table: Table) -> int:
    return int(next(iter(table.values())).size) if table else 0


def window_verdicts(table: Table, detection: Mapping) -> list[bool | None]:
    """Recompute each tumbling window's flag; ``None`` when undecidable."""
    win = detection["window_samples"]
    cutoff = window_z_cutoff(detection["z_threshold"], win)
    threshold = detection["variance_ratio_threshold"]
    verdicts: list[bool | None] = []
    for lo in range(0, n_rows(table) - win + 1, win):
        t_nv = table["t_nv_c"][lo : lo + win]
        t_siv = table["t_siv_c"][lo : lo + win]
        var_nv = float(np.var(t_nv, ddof=1))
        var_siv = float(np.var(t_siv, ddof=1))
        if var_siv > 0.0:
            ratio = var_nv / var_siv
        else:
            ratio = 1.0 if var_nv == 0.0 else math.inf
        denom = np.hypot(table["t_nv_sigma_c"][lo : lo + win], table["t_siv_sigma_c"][lo : lo + win])
        max_z = float(np.max(np.abs(t_nv - t_siv) / denom))
        near = abs(ratio / threshold - 1.0) < DECISION_MARGIN or abs(max_z / cutoff - 1.0) < DECISION_MARGIN
        verdicts.append(None if near else (ratio > threshold or max_z > cutoff))
    return verdicts


def check_flags(name: str, table: Table, detection: Mapping) -> list[str]:
    """Each complete window's flag matches the recomputed verdict on every
    record, and records of a trailing partial window are unflagged."""
    win = detection["window_samples"]
    flags = table["artifact_flag"]
    failures = []
    for w, verdict in enumerate(window_verdicts(table, detection)):
        got = flags[w * win : (w + 1) * win]
        if verdict is None:
            if got.min() != got.max():
                failures.append(f"{name}: window {w} flags are not uniform")
        elif not np.all(got == int(verdict)):
            failures.append(f"{name}: window {w} flags {got.tolist()} but recomputed verdict is {verdict}")
    tail = flags[(n_rows(table) // win) * win :]
    if np.any(tail != 0):
        failures.append(f"{name}: records of the trailing partial window are flagged")
    return failures


def flagged_windows(table: Table, win: int) -> int:
    flags = table["artifact_flag"]
    return sum(int(flags[lo]) for lo in range(0, n_rows(table) - win + 1, win))


def check_crossval_report(name: str, table: Table, report_text: str, win: int) -> list[str]:
    """The crossval report's record, window and flag counts agree with the CSV."""
    report = json.loads(report_text)
    windows = report["windows"]
    expect = (n_rows(table), n_rows(table) // win, flagged_windows(table, win))
    got = (report["n_records"], windows["count"], windows["flagged"])
    if got != expect or len(windows["verdicts"]) != windows["count"]:
        return [f"{name}: crossval (records, windows, flagged) = {got}, CSV gives {expect}"]
    if sum(1 for v in windows["verdicts"] if v["flagged"]) != windows["flagged"]:
        return [f"{name}: crossval flagged count disagrees with its verdicts"]
    return []


def check_csv_round_trip(table: Table, records: Table) -> list[str]:
    """CSV values equal the in-memory record values at 9 significant digits."""
    if n_rows(table) != n_rows(records):
        return [f"CSV has {n_rows(table)} rows, the run produced {n_rows(records)} records"]
    if set(table) != set(records):
        return [f"CSV columns {sorted(table)} differ from record fields {sorted(records)}"]
    failures = []
    for name, values in records.items():
        if name in INT_COLUMNS:
            expect = values
        else:
            expect = np.array([float(f"{v:.9g}") for v in values])
        if not np.array_equal(table[name], expect):
            failures.append(f"CSV column {name} does not round-trip at 9 significant digits")
    return failures


def check_siv_isolation(quiet: Table, field: Table) -> list[str]:
    """Optical-channel values are bitwise identical with the field on and off."""
    cols = ("siv_pos_nm", "siv_pos_sigma_nm", "siv_fwhm_nm", "t_siv_c", "t_siv_sigma_c")
    if n_rows(quiet) != n_rows(field) or n_rows(quiet) == 0:
        return ["isolation runs differ in record count"]
    return [
        f"SiV column {c} differs between field-on and field-off runs of one seed"
        for c in cols
        if quiet[c].tobytes() != field[c].tobytes()
    ]


# -- workload checks -----------------------------------------------------------


def check_quiet(tables: Sequence[Table], physics: Mapping) -> list[str]:
    """Field-off sessions: calibrated z, CRB-sized sigmas, one dip, few flags."""
    pooled = concat(tables)
    if not pooled:
        return ["quiet_monitor: no records"]
    det = physics["detection"]
    failures = []
    # a second dip costs 3 ln n of BIC; on one-dip spectra noise alone buys
    # that much chi-square with probability P(chi2_3 > 3 ln n)
    n_records = n_rows(pooled)
    n_two = int(np.sum(pooled["nv_n_dips"] != 1))
    rate = chi2_3_survival(3.0 * math.log(physics["odmr"]["sweep_points"]))
    if n_two > binomial_upper_bound(n_records, rate):
        failures.append(f"quiet_monitor: {n_two} of {n_records} records chose two dips")
    nv_crb = nv_floor_k_per_rt_hz(physics) / math.sqrt(physics["odmr"]["sweep_time_s"])
    siv_crb = siv_floor_k_per_rt_hz(physics) / math.sqrt(physics["pl"]["exposure_s"])
    t_nv = physics["heating_nv"]["t_ambient_c"]
    t_siv = physics["heating_siv"]["t_ambient_c"]
    failures += check_pooled_z(
        "quiet_monitor NV", (pooled["t_nv_c"] - t_nv) / pooled["t_nv_sigma_c"], fit_dof(physics, "nv")
    )
    failures += check_pooled_z(
        "quiet_monitor SiV", (pooled["t_siv_c"] - t_siv) / pooled["t_siv_sigma_c"], fit_dof(physics, "siv")
    )
    failures += check_reported_sigma("quiet_monitor NV", pooled["t_nv_sigma_c"], nv_crb)
    failures += check_reported_sigma("quiet_monitor SiV", pooled["t_siv_sigma_c"], siv_crb)
    win = det["window_samples"]
    n_windows = 0
    n_flagged = 0
    for i, table in enumerate(tables):
        failures += check_flags(f"quiet_monitor session {i}", table, det)
        n_windows += n_rows(table) // win
        n_flagged += flagged_windows(table, win)
    # the z test's design rate; the variance-ratio test adds well under 1e-6
    rate = 2.0 * (1.0 - statistics.NormalDist().cdf(det["z_threshold"]))
    bound = binomial_upper_bound(n_windows, rate)
    if n_flagged > bound:
        failures.append(f"quiet_monitor: {n_flagged} of {n_windows} windows flagged, bound {bound}")
    return failures


def check_field(tables: Sequence[Table], physics: Mapping) -> list[str]:
    """Field-on sessions: windows flagged with NV scatter inflated, SiV intact."""
    pooled = concat(tables)
    if not pooled:
        return ["field_artifact: no records"]
    det = physics["detection"]
    win = det["window_samples"]
    failures = []
    siv_crb = siv_floor_k_per_rt_hz(physics) / math.sqrt(physics["pl"]["exposure_s"])
    t_siv = physics["heating_siv"]["t_ambient_c"]
    failures += check_pooled_z(
        "field_artifact SiV", (pooled["t_siv_c"] - t_siv) / pooled["t_siv_sigma_c"], fit_dof(physics, "siv")
    )
    failures += check_reported_sigma("field_artifact SiV", pooled["t_siv_sigma_c"], siv_crb)
    n_windows = 0
    detected = 0
    for i, table in enumerate(tables):
        failures += check_flags(f"field_artifact session {i}", table, det)
        for lo in range(0, n_rows(table) - win + 1, win):
            n_windows += 1
            ratio = np.std(table["t_nv_c"][lo : lo + win], ddof=1) / np.std(
                table["t_siv_c"][lo : lo + win], ddof=1
            )
            if ratio > 3.0 and np.all(table["artifact_flag"][lo : lo + win] == 1):
                detected += 1
    # "more than 95% detected" is rejected only when the count is implausibly
    # low for a 95% rate
    if n_windows == 0 or binomial_lower_tail(detected, n_windows, 0.95) < BINOMIAL_ALPHA:
        failures.append(f"field_artifact: {detected} of {n_windows} windows flagged with NV/SiV spread > 3")
    return failures


def check_precision(series: Sequence[Mapping], physics: Mapping, times: Sequence[float], reps: int) -> list[str]:
    """Pooled sweep floors match the Cramér-Rao bounds and scale as t^-1/2."""
    if not series:
        return ["precision_sweep: no sweeps"]
    failures = []
    floors = {"nv": nv_floor_k_per_rt_hz(physics), "siv": siv_floor_k_per_rt_hz(physics)}
    log_t = np.log(np.asarray(times))
    sxx = float(np.sum((log_t - log_t.mean()) ** 2))
    for channel, crb in floors.items():
        sigmas = []
        for result in series:
            pairs = result.get(channel, [])
            if [t for t, _ in pairs] != list(times):
                return [f"precision_sweep {channel}: integration times {[t for t, _ in pairs]}"]
            sigmas.append([s for _, s in pairs])
        sig = np.asarray(sigmas)
        k = sig.shape[0]
        # each sample variance over `reps` repetitions has relative SD sqrt(2/(reps-1))
        rel_sd = math.sqrt(2.0 / (reps - 1))
        ratio = float(np.mean(sig**2 * np.asarray(times) / crb**2))
        if abs(ratio - 1.0) > Z_TOL * rel_sd / math.sqrt(k * len(times)):
            failures.append(
                f"precision_sweep {channel}: floor {crb * math.sqrt(ratio):.4f} K/rtHz against CRB {crb:.4f}"
            )
        log_sigma = 0.5 * np.log(np.mean(sig**2, axis=0))
        slope = float(np.sum((log_t - log_t.mean()) * (log_sigma - log_sigma.mean())) / sxx)
        # log of a pooled sample SD has SD rel_sd / (2 sqrt(k))
        if abs(slope + 0.5) > Z_TOL * rel_sd / (2.0 * math.sqrt(k * sxx)):
            failures.append(f"precision_sweep {channel}: exponent {slope:.4f}, expected -0.5")
    return failures
