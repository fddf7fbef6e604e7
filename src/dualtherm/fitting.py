"""Nonlinear least-squares estimation for the two spectral channels.

Lorentzian dip/peak fits with analytic Jacobians and Poisson-motivated
weights, dip-count model selection by BIC, ordinary least-squares regression,
and power-law fitting of precision-vs-integration-time curves.

Both line shapes use the unit-height Lorentzian
``L(x; c, w) = 1 / (1 + (2 (x - c) / w)^2)`` with ``w`` the full width at
half maximum:

* ODMR dips on a flat baseline, ``m(f) = b * (1 - sum_d C_d * L(f; c_d, w_d))``,
  parameter vector ``[b, c_1, w_1, C_1, ..., c_n, w_n, C_n]``;
* one PL peak on a flat background, ``m(x) = bg + A * L(x; c, w)``,
  parameter vector ``[bg, A, c, w]``.

Both fits run through one damped Gauss-Newton (Levenberg-Marquardt) loop,
``_fit``, with analytic Jacobians and fixed weights ``1 / max(counts, 1)``.
Failure is never silent: a fit that does not converge comes back with
``converged = False`` and best-effort parameters.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .forward import AxisKind, SpectrumTrace, unit_lorentzian

FloatArray = NDArray[np.float64]

MAX_ITERATIONS = 200
#: stop when the relative decrease of the weighted cost falls below this
COST_RTOL = 1e-10
_STEP_XTOL = 1e-12
#: each dip of a two-dip candidate must clear this many sigma of contrast
MIN_DIP_SIGNIFICANCE = 5.0
#: score-screen candidate widths step by sqrt(2) from one sample step up to
#: twice the scanned span
_SCREEN_WIDTH_RATIO = math.sqrt(2.0)
#: largest candidate grid (samples x candidates) the score screen builds;
#: longer axes go straight to the two-dip fit
_SCREEN_MAX_ELEMENTS = 2_000_000
#: the screen's products run over blocks of at most this many multiply-adds;
#: BLAS keeps such small products on the calling thread, whereas one large
#: product wakes its thread pool, which stalls when other processes hold
#: the cores
_SCREEN_BLOCK_MADDS = 1 << 18
#: the score screen is trusted only when the one-dip contrast chi-square
#: (C / sigma_C)^2 exceeds the BIC margin this many times
_SCREEN_MIN_DIP_CHI2_RATIO = 100.0

PL_PARAM_NAMES = ("center", "fwhm", "amplitude", "background")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one weighted Lorentzian fit.

    ``params``/``std_errors`` are keyed by parameter name; ``covariance`` is
    ordered like ``param_names``.  ``derived`` holds quantities computed from
    the fitted parameters with propagated uncertainty (for dip fits, the dip
    pattern midpoint ``d_center``).
    """

    param_names: tuple[str, ...]
    params: dict[str, float]
    std_errors: dict[str, float]
    covariance: FloatArray
    residual_rms: float
    reduced_chi2: float
    converged: bool
    iterations: int
    derived: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=np.float64)
        k = len(self.param_names)
        if cov.shape != (k, k):
            raise ValueError(f"covariance shape {cov.shape} does not match {k} parameters")
        if set(self.params) != set(self.param_names) or set(self.std_errors) != set(self.param_names):
            raise ValueError("params and std_errors must be keyed exactly by param_names")
        for i, name in enumerate(self.param_names):
            se = math.sqrt(max(cov[i, i], 0.0))
            if not math.isclose(self.std_errors[name], se, rel_tol=1e-9, abs_tol=1e-30):
                raise ValueError(f"std_errors[{name!r}] is not the covariance diagonal root")
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    slope_std_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


def _edge_median(counts: FloatArray) -> float:
    # flat-level estimate from the outer 10% of samples (5% per end, >= 3 each)
    n_edge = max(3, int(math.ceil(0.05 * counts.size)))
    return float(np.median(np.concatenate([counts[:n_edge], counts[-n_edge:]])))


def _half_prominence_fwhm(
    axis: FloatArray, counts: FloatArray, idx: int, level: float, invert: bool
) -> float:
    """Width between the half-prominence crossings around the extremum at ``idx``.

    ``invert`` selects dip geometry (counts rise toward the crossing level)
    versus peak geometry.  Falls back to twice the one-sided width, then to a
    sixth of the axis span, when a crossing is missing.
    """
    y = counts if not invert else -counts
    lvl = level if not invert else -level
    half: list[float] = []
    for direction in (1, -1):
        j = idx
        crossing = math.nan
        while 0 <= j + direction < y.size:
            nxt = j + direction
            if y[nxt] <= lvl:
                y0, y1 = y[j], y[nxt]
                frac = 0.0 if y1 == y0 else (lvl - y0) / (y1 - y0)
                crossing = abs(axis[nxt] - axis[j]) * frac + abs(axis[j] - axis[idx])
                break
            j = nxt
        half.append(crossing)
    span = float(axis[-1] - axis[0])
    left, right = half
    if math.isnan(left) and math.isnan(right):
        return span / 6.0
    if math.isnan(left):
        return 2.0 * right
    if math.isnan(right):
        return 2.0 * left
    width = left + right
    return width if width > 0 else span / 6.0


def _clip_window(trace: SpectrumTrace, window: tuple[float, float] | None) -> tuple[FloatArray, FloatArray]:
    axis, counts = trace.axis, trace.counts
    if window is None:
        return axis, counts
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    mask = (axis >= lo) & (axis <= hi)
    return axis[mask], counts[mask]


def _dips_model(axis: FloatArray, p: FloatArray) -> tuple[FloatArray, FloatArray]:
    """ODMR dip model and its Jacobian at ``p = [b, c_1, w_1, C_1, ...]``."""
    b = p[0]
    s = np.zeros(axis.size)
    jac = np.empty((axis.size, p.size))
    for j in range(1, p.size, 3):
        c, w, cn = p[j], p[j + 1], p[j + 2]
        dx = axis - c
        u = dx * (2.0 / w)
        lor = 1.0 / (1.0 + u * u)
        lor2 = lor * lor
        s += cn * lor
        jac[:, j] = -b * cn * (8.0 / (w * w)) * dx * lor2
        jac[:, j + 1] = -b * cn * (2.0 / w) * u * u * lor2
        jac[:, j + 2] = -b * lor
    jac[:, 0] = 1.0 - s
    return b * (1.0 - s), jac


def _peak_model(axis: FloatArray, p: FloatArray) -> tuple[FloatArray, FloatArray]:
    """PL peak model and its Jacobian at ``p = [bg, A, c, w]``."""
    bg, amp, c, w = p
    dx = axis - c
    u = dx * (2.0 / w)
    lor = 1.0 / (1.0 + u * u)
    lor2 = lor * lor
    jac = np.empty((axis.size, 4))
    jac[:, 0] = 1.0
    jac[:, 1] = lor
    jac[:, 2] = amp * (8.0 / (w * w)) * dx * lor2
    jac[:, 3] = amp * (2.0 / w) * u * u * lor2
    return bg + amp * lor, jac


def _weighted_cost(counts: FloatArray, model: FloatArray, weights: FloatArray) -> float:
    r = counts - model
    return np.dot(weights * r, r)


def _fit(
    model: Callable[[FloatArray, FloatArray], tuple[FloatArray, FloatArray]],
    axis: FloatArray,
    counts: FloatArray,
    p0: FloatArray,
    max_iterations: int,
) -> tuple[FloatArray, FloatArray, float, float, int, bool]:
    """Damped Gauss-Newton minimisation of the weighted squared residual.

    Returns ``(p, cov, residual_rms, reduced_chi2, iterations, converged)``;
    ``cov`` is the inverse weighted normal matrix at the solution scaled by
    the reduced chi-square.  Never raises on a bad fit: failure shows as
    ``converged = False``.
    """
    weights = 1.0 / np.maximum(counts, 1.0)
    diag = np.diag_indices(p0.size)
    with np.errstate(all="ignore"):
        p = p0
        m, jac = model(axis, p)
        cost = _weighted_cost(counts, m, weights)
        lam = 1e-3
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            wj = jac * weights[:, None]
            nmat = jac.T @ wj
            grad = wj.T @ (counts - m)
            # ridge keeps the damped system solvable when a parameter is inert
            ridge = 1e-14 * np.trace(nmat) / p.size + 1e-300

            accepted = False
            step_small = False
            for _ in range(60):
                damped = nmat.copy()
                damped[diag] = nmat[diag] * (1.0 + lam) + ridge
                delta = np.linalg.solve(damped, grad)
                if np.isfinite(delta).all():
                    small = not (np.abs(delta) > _STEP_XTOL * (np.abs(p) + _STEP_XTOL)).any()
                    p_try = p + delta
                    m_try, jac_try = model(axis, p_try)
                    cost_try = _weighted_cost(counts, m_try, weights)
                    if cost_try < cost:
                        rel = (cost - cost_try) / max(cost, 1e-300)
                        p, m, jac, cost = p_try, m_try, jac_try, cost_try
                        lam = max(lam * 0.3, 1e-12)
                        accepted = True
                        if rel < COST_RTOL or small:
                            converged = True
                        break
                    if small:
                        # no downhill direction and the proposed move is
                        # negligible: the iterate sits at the floor of the cost
                        step_small = True
                        break
                lam *= 10.0
                if lam > 1e14:
                    break

            if step_small or cost == 0.0:
                converged = True
                break
            if converged or not accepted:
                break

        nmat = jac.T @ (jac * weights[:, None])
        nmat[diag] += 1e-14 * np.trace(nmat) / p.size + 1e-300
        cov = np.linalg.inv(nmat)
        residual_rms = float(np.sqrt(np.mean((counts - m) ** 2)))
    dof = axis.size - p.size
    reduced_chi2 = cost / dof if dof > 0 else math.inf
    if dof > 0:
        cov = cov * reduced_chi2
    return p, 0.5 * (cov + cov.T), residual_rms, reduced_chi2, iterations, converged


def _fold_widths(p: FloatArray, cov: FloatArray, widths: Iterable[int]) -> None:
    """The models are even in each width: fold negative widths onto the positive branch."""
    for j in widths:
        if p[j] < 0.0:
            p[j] = -p[j]
            cov[j, :] *= -1.0
            cov[:, j] *= -1.0


def fit_pl_peak(
    trace: SpectrumTrace,
    window: tuple[float, float] | None = None,
    *,
    init: dict[str, float] | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> FitResult:
    """Fit one Lorentzian emission peak on a flat background.

    ``window`` restricts the fit to a wavelength interval (at least 8
    samples).  ``init`` overrides individual starting values by parameter
    name.  A converged result whose center escaped the fitted interval is
    demoted to ``converged = False``.
    """
    if trace.axis_kind is not AxisKind.WAVELENGTH_NM:
        raise ValueError(f"expected a wavelength-axis trace, got {trace.axis_kind}")
    axis, counts = _clip_window(trace, window)
    if axis.size < 8:
        raise ValueError(f"need at least 8 samples in the fit window, got {axis.size}")

    background = _edge_median(counts)
    idx = int(np.argmax(counts))
    amplitude = max(float(counts[idx]) - background, 1e-6 * max(background, 1.0))
    level = background + 0.5 * (counts[idx] - background)
    fwhm = _half_prominence_fwhm(axis, counts, idx, level, invert=False)
    start = {
        "center": float(axis[idx]),
        "fwhm": float(fwhm),
        "amplitude": amplitude,
        "background": background,
    }
    if init:
        unknown = set(init) - set(PL_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown init keys: {sorted(unknown)}")
        start.update(init)

    p0 = np.array([start["background"], start["amplitude"], start["center"], start["fwhm"]])
    p, cov, residual_rms, reduced_chi2, iterations, converged = _fit(_peak_model, axis, counts, p0, max_iterations)
    _fold_widths(p, cov, (3,))

    # model order [bg, amp, c, w] -> named order (center, fwhm, amplitude, background)
    perm = np.array([2, 3, 1, 0])
    values = p[perm]
    cov = cov[np.ix_(perm, perm)]
    if converged and not (axis[0] <= values[0] <= axis[-1]):
        converged = False

    params = dict(zip(PL_PARAM_NAMES, (float(v) for v in values)))
    std = {name: math.sqrt(max(cov[i, i], 0.0)) for i, name in enumerate(PL_PARAM_NAMES)}
    return FitResult(
        param_names=PL_PARAM_NAMES,
        params=params,
        std_errors=std,
        covariance=cov,
        residual_rms=residual_rms,
        reduced_chi2=reduced_chi2,
        converged=converged,
        iterations=iterations,
    )


def _odmr_param_names(n_dips: int) -> tuple[str, ...]:
    names = ["baseline"]
    for d in range(1, n_dips + 1):
        names += [f"center_{d}", f"fwhm_{d}", f"contrast_{d}"]
    return tuple(names)


def _odmr_init(axis: FloatArray, counts: FloatArray, n_dips: int) -> dict[str, float]:
    baseline = _edge_median(counts)
    idx = int(np.argmin(counts))
    depth = max(baseline - float(counts[idx]), 1e-6 * max(baseline, 1.0))
    level = baseline - 0.5 * depth
    fwhm = _half_prominence_fwhm(axis, counts, idx, level, invert=True)
    contrast = min(max(depth / max(baseline, 1e-300), 1e-4), 0.8)
    start = {
        "baseline": baseline,
        "center_1": float(axis[idx]),
        "fwhm_1": float(fwhm),
        "contrast_1": contrast,
    }
    if n_dips == 2:
        # second dip: deepest sample at least one width away from the first
        away = np.abs(axis - axis[idx]) >= fwhm
        if np.any(away):
            idx2 = int(np.flatnonzero(away)[np.argmin(counts[away])])
            center_2 = float(axis[idx2])
            depth2 = max(baseline - float(counts[idx2]), 1e-6 * max(baseline, 1.0))
        else:
            on_right = (axis[idx] - axis[0]) < (axis[-1] - axis[idx])
            center_2 = float(axis[idx] + fwhm) if on_right else float(axis[idx] - fwhm)
            depth2 = depth
        start["center_2"] = center_2
        start["fwhm_2"] = float(fwhm)
        start["contrast_2"] = min(max(depth2 / max(baseline, 1e-300), 1e-4), 0.8)
    return start


def fit_odmr_dips(
    trace: SpectrumTrace,
    n_dips: int,
    *,
    init: dict[str, float] | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> FitResult:
    """Fit one or two Lorentzian absorption dips with a shared flat baseline.

    Dips have independent center/width/contrast.  For ``n_dips = 2`` the dips
    are reported in ascending center order, and ``derived["d_center"]`` holds
    the midpoint of the dip pattern with its propagated 1-sigma uncertainty.
    """
    if trace.axis_kind is not AxisKind.FREQUENCY_MHZ:
        raise ValueError(f"expected a frequency-axis trace, got {trace.axis_kind}")
    if n_dips not in (1, 2):
        raise ValueError(f"n_dips must be 1 or 2, got {n_dips}")
    axis, counts = trace.axis, trace.counts
    if axis.size < 8:
        raise ValueError(f"need at least 8 samples, got {axis.size}")

    names = _odmr_param_names(n_dips)
    start = _odmr_init(axis, counts, n_dips)
    if init:
        unknown = set(init) - set(names)
        if unknown:
            raise ValueError(f"unknown init keys: {sorted(unknown)}")
        start.update(init)

    p0 = np.array([start[name] for name in names], dtype=np.float64)
    p, cov, residual_rms, reduced_chi2, iterations, converged = _fit(_dips_model, axis, counts, p0, max_iterations)
    _fold_widths(p, cov, range(2, p.size, 3))
    if n_dips == 2 and p[1] > p[4]:
        perm = np.array([0, 4, 5, 6, 1, 2, 3])
        p = p[perm]
        cov = cov[np.ix_(perm, perm)]

    params = dict(zip(names, (float(v) for v in p)))
    std = {name: math.sqrt(max(cov[i, i], 0.0)) for i, name in enumerate(names)}

    if n_dips == 1:
        d_center = params["center_1"]
        d_sigma = std["center_1"]
    else:
        d_center = 0.5 * (params["center_1"] + params["center_2"])
        i1, i2 = names.index("center_1"), names.index("center_2")
        d_sigma = math.sqrt(max(0.25 * (cov[i1, i1] + cov[i2, i2] + 2.0 * cov[i1, i2]), 0.0))

    return FitResult(
        param_names=names,
        params=params,
        std_errors=std,
        covariance=cov,
        residual_rms=residual_rms,
        reduced_chi2=reduced_chi2,
        converged=converged,
        iterations=iterations,
        derived={"d_center": (d_center, d_sigma)},
    )


def _dip_pair_admissible(trace: SpectrumTrace, res: FitResult) -> bool:
    """Reject two-dip solutions that cannot describe a real spectrum.

    A second dip with a free center can always buy chi-square by swallowing a
    single low-fluctuating sample, so BIC alone picks phantom dips on a few
    percent of clean spectra, and a free width can likewise flatten a second
    dip into a faint tilt of the whole baseline.  Both dips must therefore be
    physical (positive sub-unity contrasts summing below 1, centers inside
    the scanned span, widths from one sample step up to the scanned span)
    and detected at ``MIN_DIP_SIGNIFICANCE`` sigma, not merely fitted.
    """
    if not res.converged:
        return False
    step = float(np.median(np.diff(trace.axis)))
    lo, hi = float(trace.axis[0]), float(trace.axis[-1])
    total_contrast = 0.0
    for d in (1, 2):
        contrast = res.params[f"contrast_{d}"]
        sigma = res.std_errors[f"contrast_{d}"]
        if not 0.0 < contrast < 1.0:
            return False
        if contrast < MIN_DIP_SIGNIFICANCE * sigma:
            return False
        if not lo <= res.params[f"center_{d}"] <= hi:
            return False
        if not step <= res.params[f"fwhm_{d}"] <= hi - lo:
            return False
        total_contrast += contrast
    return total_contrast < 1.0


@functools.lru_cache(maxsize=2)
def _screen_shapes(axis_bytes: bytes) -> tuple[FloatArray, FloatArray] | None:
    """Unit Lorentzians for every candidate second dip on one sample axis.

    Widths run from one median sample step to twice the span in ratios of
    ``_SCREEN_WIDTH_RATIO``; centers cover the span at a quarter width apart,
    but never closer than half a step.  Returns ``(L, L**2)`` as ``(n, M)``
    arrays, or ``None`` when the axis has no positive median step or the
    grid would exceed ``_SCREEN_MAX_ELEMENTS``.
    """
    axis = np.frombuffer(axis_bytes, dtype=np.float64)
    step = float(np.median(np.diff(axis)))
    lo, hi = float(axis[0]), float(axis[-1])
    if not (step > 0.0 and hi > lo):
        return None
    grid = []
    width = step
    while width <= 2.0 * (hi - lo):
        n_centers = int(math.floor((hi - lo) / max(0.25 * width, 0.5 * step))) + 1
        grid.append((width, n_centers))
        width *= _SCREEN_WIDTH_RATIO
    if axis.size * sum(n_centers for _, n_centers in grid) > _SCREEN_MAX_ELEMENTS:
        return None
    shapes = np.hstack(
        [unit_lorentzian(axis[:, None], np.linspace(lo, hi, n_centers), width) for width, n_centers in grid]
    )
    squares = shapes * shapes
    # cached and shared by every caller
    shapes.flags.writeable = False
    squares.flags.writeable = False
    return shapes, squares


def _second_dip_score(trace: SpectrumTrace, one: FitResult) -> float:
    """Rao score estimate of the chi-square a second dip can buy.

    Linearises the two-dip model about the one-dip fit with the second
    contrast at zero.  For a second dip of fixed center and width the
    chi-square gain is then ``(g' W r)^2 / (g' W g)``, with ``g`` the
    contrast derivative projected off the one-dip Jacobian in the weight
    metric and ``r`` the one-dip residuals.  The score is the largest gain
    over the ``_screen_shapes`` grid, plus whatever the one-dip parameters
    themselves could still gain.  It is an estimate, not a bound: the
    nonlinear two-dip fit can gain somewhat more.  Returns ``inf`` when the
    grid cannot be built for this axis.
    """
    counts = trace.counts
    shapes = _screen_shapes(trace.axis.tobytes())
    if shapes is None:
        return math.inf
    lor, lor2 = shapes
    p = np.array([one.params[name] for name in one.param_names])
    weights = 1.0 / np.maximum(counts, 1.0)
    root_w = np.sqrt(weights)
    with np.errstate(all="ignore"):
        model, jac = _dips_model(trace.axis, p)
        # orthonormal basis of the weighted one-dip Jacobian
        q, _ = np.linalg.qr(jac * root_w[:, None])
        s = root_w * (counts - model)
        qs = q.T @ s
        rows = np.vstack([root_w * s, (q * root_w[:, None]).T])
        block = max(1, _SCREEN_BLOCK_MADDS // rows.size)
        proj = np.hstack([rows @ lor[:, j : j + block] for j in range(0, lor.shape[1], block)])
        num = proj[0] - qs @ proj[1:]
        # einsum, not a BLAS matrix-vector product, for the same reason
        norm2 = np.einsum("i,ij->j", weights, lor2)
        den = norm2 - np.einsum("ij,ij->j", proj[1:], proj[1:])
        # a candidate the one-dip Jacobian already spans adds nothing
        gain = np.where(den > 1e-9 * norm2, num * num / den, 0.0)
        score = float(qs @ qs + np.max(gain))
    return score if math.isfinite(score) else math.inf


def _bic_choice(
    trace: SpectrumTrace, one: FitResult, max_iterations: int
) -> tuple[int, FitResult]:
    """Fit the two-dip candidate and keep it only if it wins BIC and is admissible."""
    n = trace.axis.size
    two = fit_odmr_dips(trace, 2, max_iterations=max_iterations)
    bic = {}
    for n_dips, res in ((1, one), (2, two)):
        k = len(res.param_names)
        bic[n_dips] = res.reduced_chi2 * (n - k) + k * math.log(n)
    if bic[2] < bic[1] and _dip_pair_admissible(trace, two):
        return 2, two
    return 1, one


def _select_dip_count_unscreened(
    trace: SpectrumTrace, *, max_iterations: int = MAX_ITERATIONS
) -> tuple[int, FitResult]:
    """``select_dip_count`` without the score screen: always fits two dips."""
    return _bic_choice(trace, fit_odmr_dips(trace, 1, max_iterations=max_iterations), max_iterations)


def select_dip_count(trace: SpectrumTrace, *, max_iterations: int = MAX_ITERATIONS) -> tuple[int, FitResult]:
    """Choose between the one- and two-dip models by BIC.

    BIC = weighted chi-square + n_params * ln(n_samples); the lower value
    wins and ties go to the single-dip model.  The two-dip candidate is only
    eligible when it passes the physical-admissibility screen (see
    ``_dip_pair_admissible``).

    The second dip costs ``3 ln(n_samples)`` of BIC, so the two-dip fit is
    skipped when the linearised chi-square gain of any second dip
    (``_second_dip_score``) stays below that margin.  The linearisation is
    only trusted around a converged one-dip fit whose own contrast
    chi-square is at least ``_SCREEN_MIN_DIP_CHI2_RATIO`` times the margin:
    a two-dip model within reach of the margin is then a small perturbation
    of the fitted dip.  Around a weak dip, splitting it in two is no small
    perturbation and the score underestimates the gain, so such spectra
    always get the two-dip fit.  The screen is meant to save the two-dip fit
    without changing the decision.
    """
    one = fit_odmr_dips(trace, 1, max_iterations=max_iterations)
    margin = 3.0 * math.log(trace.axis.size)
    strong = (
        one.params["contrast_1"] ** 2
        >= _SCREEN_MIN_DIP_CHI2_RATIO * margin * one.std_errors["contrast_1"] ** 2
    )
    if one.converged and strong and _second_dip_score(trace, one) < margin:
        return 1, one
    return _bic_choice(trace, one, max_iterations)


def linear_regression(xs: FloatArray, ys: FloatArray) -> RegressionResult:
    """Ordinary least squares of ``ys`` against ``xs`` with intercept.

    ``r_squared`` is defined as 0 when ``ys`` has no variance.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d sequences of equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("xs must not all be equal")
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    slope_var = (ss_res / (n - 2)) / sxx
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        slope_std_error=math.sqrt(max(slope_var, 0.0)),
    )


def fit_power_law(
    integration_times_s: FloatArray, sigmas: FloatArray
) -> tuple[float, float]:
    """Fit ``sigma(t) = floor * t**exponent`` by least squares in log space.

    Returns ``(floor, exponent)``; for shot-noise-limited data the exponent
    comes out at -1/2 and the floor is the one-second precision.
    """
    t = np.asarray(integration_times_s, dtype=np.float64)
    s = np.asarray(sigmas, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("times and sigmas must be 1-d sequences of equal length")
    if t.size < 3:
        raise ValueError(f"need at least 3 points, got {t.size}")
    if np.any(t <= 0) or np.any(s <= 0):
        raise ValueError("times and sigmas must all be > 0")
    reg = linear_regression(np.log(t), np.log(s))
    return math.exp(reg.intercept), reg.slope
