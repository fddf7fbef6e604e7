"""Numerical kernels for Lorentzian line fitting.

``kind`` selects the model family:

* ``kind == 0``: absorption dips on a flat baseline,
  ``m(f) = b * (1 - sum_d C_d * L(f; c_d, w_d))``,
  parameter vector ``[b, c_1, w_1, C_1, ..., c_n, w_n, C_n]``.
* ``kind == 1``: one emission peak on a flat background,
  ``m(x) = bg + A * L(x; c, w)``, parameter vector ``[bg, A, c, w]``.

``L`` is the unit-height Lorentzian ``1 / (1 + (2 (x - c) / w)^2)`` with ``w``
the full width at half maximum.  The solver is a damped Gauss-Newton
(Levenberg-Marquardt) loop with analytic Jacobians and fixed per-sample
weights; it never raises, reporting failure through its ``converged`` flag.
"""

from __future__ import annotations

import numpy as np

KIND_DIPS = 0
KIND_PEAK = 1


def eval_model(axis, p, kind, m, jac):
    n = axis.shape[0]
    if kind == 0:
        b = p[0]
        n_dips = (p.shape[0] - 1) // 3
        s = np.zeros(n)
        for d in range(n_dips):
            c = p[1 + 3 * d]
            w = p[2 + 3 * d]
            cn = p[3 + 3 * d]
            dx = axis - c
            u = dx * (2.0 / w)
            lor = 1.0 / (1.0 + u * u)
            lor2 = lor * lor
            s += cn * lor
            jac[:, 1 + 3 * d] = -b * cn * (8.0 / (w * w)) * dx * lor2
            jac[:, 2 + 3 * d] = -b * cn * (2.0 / w) * u * u * lor2
            jac[:, 3 + 3 * d] = -b * lor
        m[:] = b * (1.0 - s)
        jac[:, 0] = 1.0 - s
    else:
        bg = p[0]
        amp = p[1]
        c = p[2]
        w = p[3]
        dx = axis - c
        u = dx * (2.0 / w)
        lor = 1.0 / (1.0 + u * u)
        lor2 = lor * lor
        m[:] = bg + amp * lor
        jac[:, 0] = 1.0
        jac[:, 1] = lor
        jac[:, 2] = amp * (8.0 / (w * w)) * dx * lor2
        jac[:, 3] = amp * (2.0 / w) * u * u * lor2


def weighted_cost(counts, m, weights):
    r = counts - m
    return np.dot(weights * r, r)


def lm_solve(axis, counts, weights, p0, kind, max_iter, rtol, xtol):
    """Damped Gauss-Newton minimization of the weighted squared residual.

    Returns ``(p, cov_raw, cost, n_iter, converged)`` where ``cov_raw`` is the
    unscaled inverse of the weighted normal matrix at the solution.
    """
    n = axis.shape[0]
    k = p0.shape[0]
    p = p0.copy()
    m = np.empty(n)
    jac = np.empty((n, k))
    m_try = np.empty(n)
    jac_try = np.empty((n, k))

    eval_model(axis, p, kind, m, jac)
    cost = weighted_cost(counts, m, weights)
    lam = 1e-3
    converged = False
    n_iter = 0

    for it in range(max_iter):
        n_iter = it + 1
        wj = jac * weights.reshape(n, 1)
        nmat = jac.T @ wj
        grad = wj.T @ (counts - m)
        # ridge keeps the damped system solvable when a parameter is inert
        trace = 0.0
        for j in range(k):
            trace += nmat[j, j]
        ridge = 1e-14 * trace / k + 1e-300

        accepted = False
        step_small = False
        for _ in range(60):
            nd = nmat.copy()
            for j in range(k):
                nd[j, j] = nmat[j, j] * (1.0 + lam) + ridge
            delta = np.linalg.solve(nd, grad)

            if not np.isfinite(delta).all():
                lam *= 10.0
                if lam > 1e14:
                    break
                continue
            small = not (np.abs(delta) > xtol * (np.abs(p) + xtol)).any()

            p_try = p + delta
            eval_model(axis, p_try, kind, m_try, jac_try)
            cost_try = weighted_cost(counts, m_try, weights)

            if cost_try < cost:
                rel = (cost - cost_try) / max(cost, 1e-300)
                p = p_try
                m[:] = m_try
                jac[:, :] = jac_try
                cost = cost_try
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if rel < rtol or small:
                    converged = True
                break
            if small:
                # no downhill direction and the proposed move is negligible:
                # the iterate sits at the floor of the cost surface
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

    wj = jac * weights.reshape(n, 1)
    nmat = jac.T @ wj
    trace = 0.0
    for j in range(k):
        trace += nmat[j, j]
    ridge = 1e-14 * trace / k + 1e-300
    for j in range(k):
        nmat[j, j] += ridge
    cov_raw = np.linalg.inv(nmat)
    return p, cov_raw, cost, n_iter, converged

