"""Nonlinear least-squares estimation for the two spectral channels.

Lorentzian dip/peak fits with analytic Jacobians and Poisson-motivated
weights, dip-count model selection by BIC, and ordinary least-squares
regression.

Both line shapes use the unit-height Lorentzian
``L(x; c, w) = 1 / (1 + (2 (x - c) / w)^2)`` with ``w`` the full width at
half maximum:

* ODMR dips on a flat baseline, ``m(f) = b * (1 - sum_d C_d * L(f; c_d, w_d))``,
  parameter vector ``[b, c_1, w_1, C_1, ..., c_n, w_n, C_n]``;
* one PL peak on a flat background, ``m(x) = bg + A * L(x; c, w)``,
  parameter vector ``[bg, A, c, w]``.

Both fits run through one damped Gauss-Newton (Levenberg-Marquardt) loop,
``_fit``, with analytic Jacobians and fixed weights ``1 / max(counts, 1)``.
The loop fits a stack of spectra that share an axis, each row with its own
damping and stopping, and a single fit is a stack of one; a row comes out
bit for bit the same in any stack.  Failure is never silent: a fit that
does not converge comes back with ``converged = False`` and best-effort
parameters.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .forward import AxisKind, SpectrumTrace, check_spectra, unit_lorentzian

FloatArray = NDArray[np.float64]

MAX_ITERATIONS = 200
#: the fewest samples a spectrum must have to be fitted
MIN_FIT_SAMPLES = 8
#: a fit whose lines are still not physical after this many iterations is
#: given up: partially resolved pairs that drift to a lopsided or over-wide
#: pair, and dips that chase a gap between samples, would run on to the cap
_PATIENCE = 30
#: stop when the relative decrease of the weighted cost falls below this
COST_RTOL = 1e-10
_STEP_XTOL = 1e-12
#: each dip of a two-dip candidate must clear this many sigma of contrast
MIN_DIP_SIGNIFICANCE = 5.0
#: the two lines of a Zeeman pair carry half the contrast each, so a two-dip
#: candidate whose contrasts differ by more than this factor is no such pair
MAX_DIP_CONTRAST_RATIO = 3.0
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
#: the screen scores this many records per pass over its candidate grid
SCREEN_BLOCK_RECORDS = 8
#: candidate columns the screen reduces at a time, so that it never holds a
#: records x candidates array
_SCREEN_SUPER_BLOCK = 256
#: the score screen is trusted only when the one-dip contrast chi-square
#: (C / sigma_C)^2 exceeds the BIC margin this many times
_SCREEN_MIN_DIP_CHI2_RATIO = 100.0

PL_PARAM_NAMES = ("center", "fwhm", "amplitude", "background")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one weighted Lorentzian fit.

    ``params`` is keyed by parameter name; ``covariance`` is ordered like
    ``param_names``.  ``std_errors``, keyed like ``params``, is read off the
    covariance: the root of each diagonal entry, 0 for a negative one and
    NaN for a NaN one.  ``derived`` holds quantities computed from the
    fitted parameters with propagated uncertainty (for dip fits, the dip
    pattern midpoint ``d_center``).  ``converged`` means the fit stopped at
    a cost minimum on physical lines: ``_physical_lines`` for a peak,
    ``_physical_dips`` for dips.
    """

    param_names: tuple[str, ...]
    params: dict[str, float]
    std_errors: dict[str, float] = field(init=False)
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
        if set(self.params) != set(self.param_names):
            raise ValueError("params must be keyed exactly by param_names")
        std = {name: math.sqrt(max(cov[i, i], 0.0)) for i, name in enumerate(self.param_names)}
        object.__setattr__(self, "std_errors", std)
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


def _median(values: FloatArray) -> float:
    """Median of a non-empty 1-d array, bit for bit as ``np.median``, which imports ``numpy.ma`` on first use."""
    ordered = np.sort(values)
    half = ordered.size // 2
    middle = ordered[half] if ordered.size % 2 else (ordered[half - 1] + ordered[half]) / 2
    # a NaN sorts last and makes the median NaN
    return float(ordered[-1] if math.isnan(ordered[-1]) else middle)


def _edge_median(counts: FloatArray) -> float:
    # flat-level estimate from the outer 10% of samples (5% per end, >= 3 each)
    n_edge = max(3, int(math.ceil(0.05 * counts.size)))
    return _median(np.concatenate([counts[:n_edge], counts[-n_edge:]]))


def _half_prominence_fwhm(axis: FloatArray, counts: FloatArray, idx: int, level: float) -> float:
    """Width between the crossings of ``level`` around the peak of ``counts`` at ``idx``.

    A dip is measured as the peak of the negated counts and level.  Falls
    back to twice the one-sided width when a crossing is missing, and to a
    sixth of the axis span when the width is not positive: on a flat
    spectrum the only crossing is at the extremum itself, and the model is
    undefined at zero width.
    """
    half: list[float] = []
    for direction in (1, -1):
        j = idx
        crossing = math.nan
        while 0 <= j + direction < counts.size:
            nxt = j + direction
            if counts[nxt] <= level:
                y0, y1 = counts[j], counts[nxt]
                frac = 0.0 if y1 == y0 else (level - y0) / (y1 - y0)
                crossing = abs(axis[nxt] - axis[j]) * frac + abs(axis[j] - axis[idx])
                break
            j = nxt
        half.append(crossing)
    span = float(axis[-1] - axis[0])
    left, right = half
    if math.isnan(left):
        left = right
    if math.isnan(right):
        right = left
    # NaN when both crossings are missing
    width = left + right
    return width if width > 0 else span / 6.0


def _dips_model(axis: FloatArray, p: FloatArray) -> tuple[FloatArray, FloatArray]:
    """ODMR dip model and its Jacobian at ``p[..., :] = [b, c_1, w_1, C_1, ...]``.

    A stack of parameter vectors gives a stack of models ``(..., n)`` and
    Jacobians ``(..., n, k)``.
    """
    b = p[..., 0, None]
    s = np.zeros(p.shape[:-1] + axis.shape)
    jac = np.empty(s.shape + p.shape[-1:])
    for j in range(1, p.shape[-1], 3):
        c, w, cn = p[..., j, None], p[..., j + 1, None], p[..., j + 2, None]
        dx = axis - c
        two_w = 2.0 / w
        u = dx * two_w
        lor = 1.0 / (1.0 + u * u)
        lor2 = lor * lor
        s += cn * lor
        depth = -b * cn
        jac[..., j] = depth * (8.0 / (w * w)) * dx * lor2
        jac[..., j + 1] = depth * two_w * u * u * lor2
        jac[..., j + 2] = -b * lor
    flat = 1.0 - s
    jac[..., 0] = flat
    return b * flat, jac


def _peak_model(axis: FloatArray, p: FloatArray) -> tuple[FloatArray, FloatArray]:
    """PL peak model and its Jacobian at ``p[..., :] = [bg, A, c, w]``, stacked like ``_dips_model``."""
    bg, amp, c, w = p[..., 0, None], p[..., 1, None], p[..., 2, None], p[..., 3, None]
    dx = axis - c
    two_w = 2.0 / w
    u = dx * two_w
    lor = 1.0 / (1.0 + u * u)
    lor2 = lor * lor
    jac = np.empty(dx.shape + (4,))
    jac[..., 0] = 1.0
    jac[..., 1] = lor
    jac[..., 2] = amp * (8.0 / (w * w)) * dx * lor2
    jac[..., 3] = amp * two_w * u * u * lor2
    return bg + amp * lor, jac


def _weights(counts: FloatArray) -> FloatArray:
    """Least-squares weights of Poisson counts: the inverse variance, floored at one count."""
    return 1.0 / np.maximum(counts, 1.0)


def _weighted_cost(counts: FloatArray, model: FloatArray, weights: FloatArray) -> FloatArray:
    """Weighted squared residual over the last axis, one per stacked spectrum."""
    r = counts - model
    return np.vecdot(weights * r, r)


#: a line shape's model: its values and Jacobian at stacked parameter vectors
_Model = Callable[[FloatArray, FloatArray], tuple[FloatArray, FloatArray]]


def _diagonals(mats: FloatArray) -> FloatArray:
    """Writable view of the diagonals of a contiguous ``(B, k, k)`` stack, as ``(B, k)``."""
    return mats.reshape(mats.shape[0], -1)[:, :: mats.shape[-1] + 1]


def _ridges(nmat: FloatArray) -> FloatArray:
    """Diagonal ridges that keep stacked normal matrices solvable when a parameter is inert."""
    return 1e-14 * nmat.trace(axis1=1, axis2=2) / nmat.shape[-1] + 1e-300


def _evaluate(
    model: _Model, axis: FloatArray, counts: FloatArray, weights: FloatArray, p: FloatArray
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """Model, weighted normal matrix ``J' W J``, gradient ``J' W r`` and cost of ``counts`` at stacked ``p``."""
    m, jac = model(axis, p)
    wj = jac * weights[:, :, None]
    nmat = np.matmul(jac.swapaxes(1, 2), wj)
    grad = np.matmul(wj.swapaxes(1, 2), (counts - m)[:, :, None])
    return m, nmat, grad, _weighted_cost(counts, m, weights)


def _solution_stats(
    counts: FloatArray, model: FloatArray, nmat: FloatArray, cost: FloatArray, dof: int
) -> tuple[FloatArray, list[float], list[float]]:
    """Covariances, residual RMS and reduced chi-squares of stacked solutions.

    ``nmat`` holds the weighted normal matrices at the solutions, as ``_fit``
    carries them.  A covariance is the inverse of the ridged matrix, scaled
    by the reduced chi-square when that is positive: a model that fits its
    counts exactly (a flat spectrum) keeps the unscaled inverse rather than
    claiming zero uncertainty.
    """
    ridged = nmat.copy()
    diag = _diagonals(ridged)
    diag += _ridges(nmat)[:, None]
    cov = np.linalg.inv(ridged)
    # MIN_FIT_SAMPLES (8) exceeds every model's parameter count (at most 7), so dof >= 1
    chi2 = cost / dof
    cov = cov * np.where(chi2 > 0.0, chi2, 1.0)[:, None, None]
    rms = np.sqrt(((counts - model) ** 2).sum(axis=1) / counts.shape[1])
    return 0.5 * (cov + cov.swapaxes(1, 2)), rms.tolist(), chi2.tolist()


#: one row's result from ``_fit``: ``(p, cov, residual_rms, reduced_chi2,
#: iterations, converged)``
_RowFit = tuple[FloatArray, FloatArray, float, float, int, bool]


def _fit(
    model: _Model,
    physical: Callable[[FloatArray, FloatArray], NDArray[np.bool_]],
    axis: FloatArray,
    counts: FloatArray,
    p0: FloatArray,
) -> list[_RowFit]:
    """Damped Gauss-Newton minimisation of the weighted squared residual, for a stack of spectra.

    Row ``i`` fits ``counts[i]`` (``(B, n)``) from ``p0[i]`` (``(B, k)``) and
    gets ``(p, cov, residual_rms, reduced_chi2, iterations, converged)``;
    ``cov`` is the inverse weighted normal matrix at the solution scaled by
    the reduced chi-square (``_solution_stats``).  Never raises on a bad
    fit: failure shows as ``converged = False``.

    Every row is in flight from the first step and keeps its own damping,
    iteration count and retries; a row that converges, stalls, reaches
    ``MAX_ITERATIONS`` or is retired takes its covariance and leaves, and
    the stack shrinks.  The start and every trial are evaluated once, in
    one place (``_evaluate``), and each row carries ``(p, model, nmat,
    grad, cost)`` at its accepted iterate: a rejected row takes its own
    back.  The step and the covariance both read that carried matrix.

    ``physical(axis, p)``, the line shape's test of a stack of parameter
    vectors (``_physical_dips`` or ``_physical_peak``), ends every row by
    one rule.  A row whose accepted iterate fails it once the row has run
    ``_PATIENCE`` iterations is retired there, not converged; a row that
    leaves otherwise is converged only if it stopped at a cost minimum and
    its parameters pass it.

    The caller bounds the stack: the record pipeline passes at
    most ``scenarios.FIT_CHUNK_RECORDS`` rows, single fits pass one.  Every
    product, solve and inverse is a stacked ``np.matmul`` / ``np.linalg``
    call, which makes one BLAS or LAPACK call per row, so a row comes out
    bit for bit as when fitted alone.
    """
    n_rows, k = p0.shape
    dof = axis.size - k
    results: list[_RowFit | None] = [None] * n_rows

    with np.errstate(all="ignore"):
        # the rows in flight, one slot each, and their state
        rows = list(range(n_rows))
        c, p = counts, p0
        w = _weights(c)
        m, nmat, grad, cost = _evaluate(model, axis, c, w, p)
        lam = [1e-3] * n_rows
        it = [1] * n_rows
        while rows:
            # one trial step per row at its current damping
            damped = nmat.copy()
            diag = _diagonals(damped)
            diag *= 1.0 + np.array(lam)[:, None]
            diag += _ridges(nmat)[:, None]
            delta = np.linalg.solve(damped, grad)[:, :, 0]
            finite = np.isfinite(delta).all(axis=1).tolist()
            small = (~(np.abs(delta) > _STEP_XTOL * (np.abs(p) + _STEP_XTOL)).any(axis=1)).tolist()
            p_try = p + delta
            m_try, nmat_try, grad_try, cost_try = _evaluate(model, axis, c, w, p_try)
            if max(it) >= _PATIENCE:
                hopeless = (~physical(axis, p_try)).tolist()
            else:
                hopeless = [False] * len(rows)

            rejected = np.ones(len(rows), dtype=bool)
            done: list[tuple[int, bool]] = []
            for s, (now, trial) in enumerate(zip(cost.tolist(), cost_try.tolist())):
                if finite[s] and trial < now:
                    rejected[s] = False
                    lam[s] = max(lam[s] * 0.3, 1e-12)
                    if (now - trial) / max(now, 1e-300) < COST_RTOL or small[s] or trial == 0.0:
                        done.append((s, True))
                    elif it[s] == MAX_ITERATIONS or (hopeless[s] and it[s] >= _PATIENCE):
                        done.append((s, False))
                    else:
                        it[s] += 1
                elif finite[s] and small[s]:
                    # no downhill direction and the proposed move is
                    # negligible: the row sits at the floor of its cost
                    done.append((s, True))
                else:
                    lam[s] *= 10.0
                    if lam[s] > 1e14:
                        done.append((s, now == 0.0))
            # the trial arrays take the rejected rows back and become the state
            for new, old in ((p_try, p), (m_try, m), (nmat_try, nmat), (grad_try, grad), (cost_try, cost)):
                np.copyto(new, old, where=rejected.reshape((-1,) + (1,) * (old.ndim - 1)))
            p, m, nmat, grad, cost = p_try, m_try, nmat_try, grad_try, cost_try
            if not done:
                continue

            # finished rows take their covariance and leave the stack,
            # converged only on physical lines
            leave = [s for s, _ in done]
            cov, rms, chi2 = _solution_stats(c[leave], m[leave], nmat[leave], cost[leave], dof)
            ok = physical(axis, p[leave]).tolist()
            for i, (p_row, (s, stopped)) in enumerate(zip(p[leave], done)):
                results[rows[s]] = (p_row, cov[i], rms[i], chi2[i], it[s], stopped and ok[i])
            if len(leave) == len(rows):
                break
            gone = set(leave)
            keep = [s for s in range(len(rows)) if s not in gone]
            rows, lam, it = ([a[s] for s in keep] for a in (rows, lam, it))
            c, w, p, m, nmat, grad, cost = (a[keep] for a in (c, w, p, m, nmat, grad, cost))
    return results  # type: ignore[return-value]


def _fold_widths(p: FloatArray, cov: FloatArray, widths: Iterable[int]) -> None:
    """The models are even in each width: fold negative widths onto the positive branch."""
    for j in widths:
        if p[j] < 0.0:
            p[j] = -p[j]
            cov[j, :] *= -1.0
            cov[:, j] *= -1.0


def _peak_init(axis: FloatArray, counts: FloatArray) -> list[float]:
    """Start of a peak fit from the samples alone, in model order ``[bg, A, c, w]``."""
    background = _edge_median(counts)
    idx = int(np.argmax(counts))
    amplitude = max(float(counts[idx]) - background, 1e-6 * max(background, 1.0))
    level = background + 0.5 * (counts[idx] - background)
    fwhm = _half_prominence_fwhm(axis, counts, idx, level)
    return [background, amplitude, float(axis[idx]), float(fwhm)]


def _peak_result(
    p: FloatArray, cov: FloatArray, residual_rms: float, reduced_chi2: float, iterations: int, converged: bool
) -> FitResult:
    """A ``_fit`` row of a peak fit as a ``FitResult``: width folded, parameters named."""
    _fold_widths(p, cov, (3,))
    # model order [bg, amp, c, w] -> named order (center, fwhm, amplitude, background)
    perm = [2, 3, 1, 0]
    values = p[perm]
    cov = cov[perm][:, perm]
    params = dict(zip(PL_PARAM_NAMES, (float(v) for v in values)))
    return FitResult(
        param_names=PL_PARAM_NAMES,
        params=params,
        covariance=cov,
        residual_rms=residual_rms,
        reduced_chi2=reduced_chi2,
        converged=converged,
        iterations=iterations,
    )


def _check_sample_count(axis: FloatArray) -> None:
    if axis.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples, got {axis.size}")


def _check_trace(trace: SpectrumTrace, kind: AxisKind) -> None:
    # the trace checked its spectrum when it was built, so a fit of it checks only its kind and size
    if trace.axis_kind is not kind:
        raise ValueError(f"expected a {kind.value.split('_')[0]}-axis trace, got {trace.axis_kind}")
    _check_sample_count(trace.axis)


def fit_pl_peaks(axis: FloatArray, counts: FloatArray) -> list[FitResult]:
    """Peak fits of every row of ``counts`` ``(B, n)`` on ``axis``, as one stack.

    Row ``i`` gets ``fit_pl_peak`` of it alone, bit for bit.  Every row is
    in flight at once, so the caller bounds the stack (the record pipeline
    by ``scenarios.FIT_CHUNK_RECORDS``).  The spectra must pass
    ``forward.check_spectra`` and have at least ``MIN_FIT_SAMPLES`` samples.
    """
    axis, counts = check_spectra(axis, counts, rows=True)
    _check_sample_count(axis)
    if not len(counts):
        return []
    p0 = np.array([_peak_init(axis, row) for row in counts])
    return [_peak_result(*row) for row in _fit(_peak_model, _physical_peak, axis, counts, p0)]


def fit_pl_peak(trace: SpectrumTrace, fit: FitResult | None = None) -> FitResult:
    """Fit one Lorentzian emission peak on a flat background.

    The trace needs at least ``MIN_FIT_SAMPLES`` samples.  The fit starts
    from the samples alone (``_peak_init``) and converges only on a physical
    line (``_physical_peak``).

    ``fit`` is the trace's entry of ``fit_pl_peaks``; a caller that fitted a
    run of records passes it and gets it back, unfitted.  Without it the
    trace is checked and fitted here, as a stack of one.
    """
    if fit is None:
        _check_trace(trace, AxisKind.WAVELENGTH_NM)
        [fit] = fit_pl_peaks(trace.axis, trace.counts[None])
    return fit


def _odmr_param_names(n_dips: int) -> tuple[str, ...]:
    if n_dips not in (1, 2):
        raise ValueError(f"n_dips must be 1 or 2, got {n_dips}")
    names = ["baseline"]
    for d in range(1, n_dips + 1):
        names += [f"center_{d}", f"fwhm_{d}", f"contrast_{d}"]
    return tuple(names)


def _odmr_init(axis: FloatArray, counts: FloatArray, n_dips: int) -> list[float]:
    """Start of a dip fit from the samples alone, in ``_odmr_param_names`` order."""
    baseline = _edge_median(counts)
    idx = int(np.argmin(counts))
    depth = max(baseline - float(counts[idx]), 1e-6 * max(baseline, 1.0))
    level = baseline - 0.5 * depth
    fwhm = _half_prominence_fwhm(axis, -counts, idx, -level)
    contrast = min(max(depth / max(baseline, 1e-300), 1e-4), 0.8)
    start = [baseline, float(axis[idx]), float(fwhm), contrast]
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
        start += [center_2, float(fwhm), min(max(depth2 / max(baseline, 1e-300), 1e-4), 0.8)]
    return start


def _two_dip_starts(axis: FloatArray, counts: FloatArray, ones: Sequence[FitResult]) -> FloatArray:
    """Starts ``(B, 7)`` of the two-dip fits of ``counts``, built from their one-dip fits ``ones``.

    Splits each fitted dip into a Zeeman pair: centers a quarter width
    either side of its center, 0.7 of its width and 0.6 of its contrast
    each, on the same baseline.  Partially resolved pairs started from the
    samples alone (``_odmr_init``) fall into degenerate minima with one dip
    of negative contrast and hit the iteration cap, but on a well-resolved
    pair the split of one broad dip lies far from either line.  Of the two
    starts of a spectrum the one with the lower weighted cost is returned;
    ties go to the pair.  Every start is costed in one stacked model call.
    """
    pairs, samples = [], []
    for one, row in zip(ones, counts):
        baseline, center, fwhm, contrast = (one.params[name] for name in _odmr_param_names(1))
        split = (0.7 * fwhm, 0.6 * contrast)
        pairs.append((baseline, center - 0.25 * fwhm, *split, center + 0.25 * fwhm, *split))
        samples.append(_odmr_init(axis, row, 2))
    starts = np.array([pairs, samples]).reshape(2, -1, 7)
    with np.errstate(all="ignore"):
        model, _ = _dips_model(axis, starts)
        pair_costs, sample_costs = _weighted_cost(counts, model, _weights(counts))
    # a non-finite pair cost fails this test and falls back to the samples
    return np.where((pair_costs <= sample_costs)[:, None], starts[0], starts[1])


def fit_odmr_dips(trace: SpectrumTrace, n_dips: int) -> FitResult:
    """Fit one or two Lorentzian absorption dips with a shared flat baseline.

    Dips have independent center/width/contrast.  For ``n_dips = 2`` the dips
    are reported in ascending center order, and ``derived["d_center"]`` holds
    the midpoint of the dip pattern with its propagated 1-sigma uncertainty.
    A one-dip fit starts from the samples alone (``_odmr_init``).  A two-dip
    fit first fits one dip and starts from ``_two_dip_starts`` of that fit,
    the start of the candidates of ``fit_odmr_candidates`` too.
    """
    _check_trace(trace, AxisKind.FREQUENCY_MHZ)
    _odmr_param_names(n_dips)  # rejects any n_dips but 1 and 2
    axis, counts = trace.axis, trace.counts[None]
    [one] = _one_dip_fits(axis, counts)
    if n_dips == 1:
        return one
    return _fit_dips(axis, counts, _two_dip_starts(axis, counts, [one]))[0]


def _one_dip_fits(axis: FloatArray, counts: FloatArray) -> list[FitResult]:
    """One-dip fits of the rows of ``counts``, each started from its samples alone, as one stack."""
    return _fit_dips(axis, counts, np.array([_odmr_init(axis, row, 1) for row in counts]))


def _fit_dips(axis: FloatArray, counts: FloatArray, starts: FloatArray) -> list[FitResult]:
    """``_fit`` of a stack of dip fits, each row reported by ``_dips_result``."""
    return [_dips_result(*row) for row in _fit(_dips_model, _physical_dips, axis, counts, starts)]


def _dips_result(
    p: FloatArray, cov: FloatArray, residual_rms: float, reduced_chi2: float, iterations: int, converged: bool
) -> FitResult:
    """A ``_fit`` row of a dip fit as a ``FitResult``: widths folded, dips in center order, ``d_center`` derived."""
    names = _odmr_param_names(p.size // 3)
    _fold_widths(p, cov, range(2, p.size, 3))
    if p.size == 7 and p[1] > p[4]:
        perm = np.array([0, 4, 5, 6, 1, 2, 3])
        p = p[perm]
        cov = cov[np.ix_(perm, perm)]

    params = dict(zip(names, (float(v) for v in p)))
    if p.size == 4:
        d_center, d_var = params["center_1"], cov[1, 1]
    else:
        d_center = 0.5 * (params["center_1"] + params["center_2"])
        d_var = 0.25 * (cov[1, 1] + cov[4, 4] + 2.0 * cov[1, 4])

    return FitResult(
        param_names=names,
        params=params,
        covariance=cov,
        residual_rms=residual_rms,
        reduced_chi2=reduced_chi2,
        converged=converged,
        iterations=iterations,
        derived={"d_center": (d_center, math.sqrt(max(d_var, 0.0)))},
    )


def _physical_lines(axis: FloatArray, centers: FloatArray, widths: FloatArray) -> NDArray[np.bool_]:
    """Which stacked lines ``centers[..., :]``, ``widths[..., :]`` are all physical on ``axis``.

    Physical: every center inside the scanned span, and every width (either
    sign, as the models are even in it) from one median sample step up to
    the span.
    """
    step, lo, hi, widths = _median_step(axis.tobytes()), axis[0], axis[-1], np.abs(widths)
    return ((lo <= centers) & (centers <= hi) & (step <= widths) & (widths <= hi - lo)).all(axis=-1)


def _physical_dips(axis: FloatArray, p: FloatArray) -> NDArray[np.bool_]:
    """Which dip parameter vectors ``p[..., :] = [b, c_1, w_1, C_1, ...]`` of one or two dips are physical on ``axis``.

    Physical: lines that pass ``_physical_lines``, with contrasts in (0, 1)
    summing below 1 and within ``MAX_DIP_CONTRAST_RATIO`` of each other.  At
    low counts a dip narrower than the sample step fits a single empty bin,
    and a second dip far fainter than the first is no Zeeman pair.
    """
    contrasts = p[..., 3::3]
    return (
        _physical_lines(axis, p[..., 1::3], p[..., 2::3])
        & ((0.0 < contrasts) & (contrasts < 1.0)).all(axis=-1)
        & (contrasts.max(axis=-1) <= MAX_DIP_CONTRAST_RATIO * contrasts.min(axis=-1))
        & (contrasts.sum(axis=-1) < 1.0)
    )


def _physical_peak(axis: FloatArray, p: FloatArray) -> NDArray[np.bool_]:
    """Which peak parameter vectors ``p[..., :] = [bg, A, c, w]`` are physical lines on ``axis`` (``_physical_lines``)."""
    return _physical_lines(axis, p[..., 2:3], p[..., 3:4])


@functools.lru_cache(maxsize=2)
def _median_step(axis_bytes: bytes) -> float:
    """Median sample step of the float64 axis held in ``axis_bytes``."""
    return _median(np.diff(np.frombuffer(axis_bytes, dtype=np.float64)))


@functools.lru_cache(maxsize=2)
def _screen_shapes(axis_bytes: bytes) -> FloatArray | None:
    """Unit Lorentzians ``L`` for every candidate second dip on one sample axis.

    Widths run from one median sample step to twice the span in ratios of
    ``_SCREEN_WIDTH_RATIO``; centers cover the span at a quarter width apart,
    but never closer than half a step.  Returns ``None`` when the grid would
    exceed ``_SCREEN_MAX_ELEMENTS``.  The squares ``L**2`` are not cached:
    ``_block_scores`` squares one super-block at a time.

    The ``(n, M)`` candidate columns are stored as contiguous slabs, in an
    ``(n_slabs, n, width)`` array built one slab at a time.  A slab is as
    wide as keeps its product with the ``5 * SCREEN_BLOCK_RECORDS`` rows of
    a full block within ``_SCREEN_BLOCK_MADDS``.  The last slab is padded
    with zero columns, which score no gain.
    """
    axis = np.frombuffer(axis_bytes, dtype=np.float64)
    step = _median_step(axis_bytes)
    lo, hi = float(axis[0]), float(axis[-1])
    centers, widths = [], []
    width = step
    # the width halved, not the span doubled, so that the bound cannot overflow
    while 0.5 * width <= hi - lo:
        n_centers = int(math.floor((hi - lo) / max(0.25 * width, 0.5 * step))) + 1
        centers.append(np.linspace(lo, hi, n_centers))
        widths.append(np.full(n_centers, width))
        width *= _SCREEN_WIDTH_RATIO
    center, width = np.concatenate(centers), np.concatenate(widths)
    if axis.size * center.size > _SCREEN_MAX_ELEMENTS:
        return None
    slab = max(1, _SCREEN_BLOCK_MADDS // (5 * SCREEN_BLOCK_RECORDS * axis.size))
    shapes = np.zeros((-(-center.size // slab), axis.size, slab))
    for k in range(shapes.shape[0]):
        columns = slice(k * slab, (k + 1) * slab)
        shapes[k, :, : center[columns].size] = unit_lorentzian(axis[:, None], center[columns], width[columns])
    # cached and shared by every caller
    shapes.flags.writeable = False
    return shapes


def _second_dip_scores(axis: FloatArray, counts: FloatArray, ones: Sequence[FitResult]) -> FloatArray:
    """Rao score estimates of the chi-square a second dip can buy, one per row of ``counts``.

    ``ones[i]`` is the one-dip fit of ``counts[i]`` on ``axis``.  Linearises
    the two-dip model about the one-dip fit with the second contrast at
    zero.  For a second dip of fixed center and width the chi-square gain is
    then ``(g' W r)^2 / (g' W g)``, with ``g`` the contrast derivative
    projected off the one-dip Jacobian in the weight metric and ``r`` the
    one-dip residuals.  A score is the largest gain over the
    ``_screen_shapes`` grid, plus whatever the one-dip parameters themselves
    could still gain.  It is an estimate, not a bound: the nonlinear two-dip
    fit can gain somewhat more.  ``_screened_out`` says which scores rule
    the two-dip fit out.

    The score is trusted only around a converged one-dip fit whose contrast
    chi-square is at least ``_SCREEN_MIN_DIP_CHI2_RATIO`` times the BIC
    margin ``3 ln n``: a two-dip model within reach of the threshold is then
    a small perturbation of the fitted dip.  Around a weak dip, splitting it
    in two is no small perturbation and the score underestimates the gain.
    So any other record is not scored and reads ``inf``, as does every
    record when the grid cannot be built for the axis.

    Trusted records are scored ``SCREEN_BLOCK_RECORDS`` at a time, so that
    each pass over the cached grid, the screen's main memory traffic, serves
    the whole block.  ``fit_odmr_candidates`` checks the spectra first.
    """
    if len(ones) != len(counts):
        raise ValueError(f"got {len(ones)} one-dip fits for {len(counts)} spectra")
    scores = np.full(len(counts), math.inf)
    shapes = _screen_shapes(axis.tobytes())
    if shapes is None:
        return scores
    margin = _bic_margin(axis.size)
    trusted = [
        i
        for i, one in enumerate(ones)
        if one.converged
        and one.params["contrast_1"] ** 2 >= _SCREEN_MIN_DIP_CHI2_RATIO * margin * one.std_errors["contrast_1"] ** 2
    ]
    for start in range(0, len(trusted), SCREEN_BLOCK_RECORDS):
        block = trusted[start : start + SCREEN_BLOCK_RECORDS]
        scores[block] = _block_scores(axis, counts[block], [ones[i] for i in block], shapes)
    return scores


def _block_scores(axis: FloatArray, counts: FloatArray, ones: Sequence[FitResult], lor: FloatArray) -> FloatArray:
    """``_second_dip_scores`` of one block of trusted records over the slabs ``lor``."""
    n_records = len(ones)
    weights = _weights(counts)
    root_w = np.sqrt(weights)
    with np.errstate(all="ignore"):
        model, jac = _dips_model(axis, np.array([[one.params[name] for name in one.param_names] for one in ones]))
        # orthonormal bases of the weighted one-dip Jacobians
        q, _ = np.linalg.qr(jac * root_w[:, :, None])
        s = root_w * (counts - model)
        qs = np.matmul(s[:, None, :], q)[:, 0]
        # five rows per record: the weighted residual projected off the
        # basis, and the basis, each weighted once more
        r = s - np.matmul(q, qs[:, :, None])[:, :, 0]
        rows = np.concatenate([(root_w * r)[:, None, :], np.swapaxes(q * root_w[:, :, None], 1, 2)], axis=1)
        rows = rows.reshape(5 * n_records, axis.size)
        # BLAS hands a one-row product to its matrix-vector kernel, which
        # sums in another order; two rows keep a block of one summing alike
        weight_rows = weights if n_records > 1 else np.vstack([weights, weights])
        best = np.zeros(n_records)
        step = max(1, _SCREEN_SUPER_BLOCK // lor.shape[2])
        for k in range(0, lor.shape[0], step):
            # one BLAS product per slab: (slabs, records, 5, slab width)
            slabs = lor[k : k + step]
            proj = np.matmul(rows, slabs).reshape(-1, n_records, 5, lor.shape[2])
            norm2 = np.matmul(weight_rows, slabs * slabs)[:, :n_records]
            num = proj[:, :, 0]
            den = norm2 - np.einsum("sbij,sbij->sbj", proj[:, :, 1:], proj[:, :, 1:])
            # a candidate the one-dip Jacobian already spans adds nothing
            gain = np.where(den > 1e-9 * norm2, num * num / den, 0.0)
            best = np.maximum(best, gain.max(axis=(0, 2)))
        scores = np.einsum("bi,bi->b", qs, qs) + best
    return np.where(np.isfinite(scores), scores, math.inf)


def _bic_margin(n_samples: int) -> float:
    """BIC cost of a second dip's three parameters."""
    return 3.0 * math.log(n_samples)


def _screened_out(score: float | FloatArray, n_samples: int) -> bool | NDArray[np.bool_]:
    """Whether a ``_second_dip_scores`` score rules the two-dip fit out, leaving the choice at one dip.

    A second dip costs the BIC margin ``3 ln n``, and a kept pair must also
    clear ``MIN_DIP_SIGNIFICANCE`` (5) sigma of contrast in each dip
    (``_bic_choice``).  Where the score is trusted the fit is
    linear enough that the chi-square a dip buys equals its Wald statistic
    ``(C / sigma_C)^2``, so an admissible dip buys at least
    ``MIN_DIP_SIGNIFICANCE**2``.  A score below ``max(3 ln n,
    MIN_DIP_SIGNIFICANCE**2)``, 25 up to about 4,160 samples and the BIC
    margin beyond, therefore skips the two-dip fit without changing the
    choice.
    """
    return score < max(_bic_margin(n_samples), MIN_DIP_SIGNIFICANCE**2)


def _bic_choice(trace: SpectrumTrace, one: FitResult, two: FitResult) -> tuple[int, FitResult]:
    """Keep the two-dip candidate ``two`` only if it wins BIC, converged and detects each dip.

    A second dip with a free center can always buy chi-square by swallowing
    a single low-fluctuating sample, so BIC alone picks phantom dips.  The
    pair must have converged, which ``_fit`` grants only to physical dips
    (``_physical_dips``), with each dip detected at
    ``MIN_DIP_SIGNIFICANCE`` sigma of contrast, not merely fitted.
    """
    n = trace.axis.size
    bic = {}
    for n_dips, res in ((1, one), (2, two)):
        k = len(res.param_names)
        bic[n_dips] = res.reduced_chi2 * (n - k) + k * math.log(n)
    faint = any(two.params[f"contrast_{d}"] < MIN_DIP_SIGNIFICANCE * two.std_errors[f"contrast_{d}"] for d in (1, 2))
    if bic[2] < bic[1] and two.converged and not faint:
        return 2, two
    return 1, one


def fit_odmr_candidates(axis: FloatArray, counts: FloatArray) -> list[tuple[FitResult, FitResult | None]]:
    """The fits ``select_dip_count`` chooses between, for every row of ``counts`` ``(B, n)`` on ``axis``.

    Row ``i`` gets its one-dip fit, which equals ``fit_odmr_dips`` of it
    with one dip bit for bit, and its two-dip candidate, or ``None`` where
    the row's ``_second_dip_scores`` score rules the second dip out
    (``_screened_out``).  The one-dip fits are one stack; every candidate
    starts from ``_two_dip_starts`` of its one-dip fit, and the candidates
    are a second stack.  Every row of a stack is in flight at once, so the
    caller bounds it (the record pipeline by ``scenarios.FIT_CHUNK_RECORDS``).
    The spectra must pass ``forward.check_spectra`` and have at least
    ``MIN_FIT_SAMPLES`` samples.

    A candidate that is still no physical pair (``_physical_dips``) after
    ``_PATIENCE`` iterations is retired there by ``_fit``, not converged, so
    ``_bic_choice`` keeps one dip, as it would after the full fit: such
    candidates drift to a lopsided pair or widen a dip past the sweep, where
    the cost has no finite minimum, and would otherwise run to the cap and
    hold their stack open.  On 1.0 mT sessions a patience of 20 or 30
    changed none of 600 choices against the full fit (``_bic_choice`` of
    one- and two-dip fits never retired), and one of 15 changed 4.
    """
    axis, counts = check_spectra(axis, counts, rows=True)
    _check_sample_count(axis)
    if not len(counts):
        return []
    ones = _one_dip_fits(axis, counts)
    picked = np.flatnonzero(~_screened_out(_second_dip_scores(axis, counts, ones), axis.size))
    starts = _two_dip_starts(axis, counts[picked], [ones[i] for i in picked])
    twos: list[FitResult | None] = [None] * len(ones)
    for i, fit in zip(picked.tolist(), _fit_dips(axis, counts[picked], starts)):
        twos[i] = fit
    return list(zip(ones, twos))


def select_dip_count(
    trace: SpectrumTrace, fits: tuple[FitResult, FitResult | None] | None = None
) -> tuple[int, FitResult]:
    """Choose between the one- and two-dip models by BIC.

    BIC = weighted chi-square + n_params * ln(n_samples); the lower value
    wins and ties go to the single-dip model.  The two-dip candidate is only
    eligible when it converged, which it does only as a physical pair
    (``_physical_dips``), and detects each dip at ``MIN_DIP_SIGNIFICANCE``
    sigma (``_bic_choice``).  The two-dip fit is skipped where the score
    screen shows that no second dip could be kept (``_screened_out``).

    ``fits`` is the trace's entry of ``fit_odmr_candidates``, the one-dip
    fit and the two-dip candidate or ``None``; a caller that fitted a run of
    records passes it.  Without it the trace is checked and fitted here, as
    a stack of one.
    """
    if fits is None:
        _check_trace(trace, AxisKind.FREQUENCY_MHZ)
        [fits] = fit_odmr_candidates(trace.axis, trace.counts[None])
    one, two = fits
    if two is None:
        return 1, one
    return _bic_choice(trace, one, two)


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

