"""Small dense least-squares machinery for the tomography fits.

A residual function maps a real parameter vector to a real residual vector;
the Levenberg-Marquardt driver minimizes its squared norm.  Problems here are
tiny (tens of parameters, hundreds of residuals), so Jacobians are either
supplied analytically or formed by central differences, and the damped normal
equations are solved densely.  Model functions that can evaluate many
parameter vectors at once may be passed as ``residual_batch`` to speed the
finite-difference Jacobian up considerably.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FD_STEP = 1e-6


@dataclass
class OptimizeResult:
    x: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    message: str = ""
    history: list = field(default_factory=list)


def numeric_jacobian(residual_fn, x, step: float = FD_STEP, residual_batch=None):
    """Central-difference Jacobian d r_i / d x_j.

    With ``residual_batch`` (mapping an (m, n) stack of parameter vectors to an
    (m, k) stack of residuals) all 2n evaluations happen in one call.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if residual_batch is not None:
        pts = np.repeat(x[None, :], 2 * n, axis=0)
        idx = np.arange(n)
        pts[2 * idx, idx] += step
        pts[2 * idx + 1, idx] -= step
        res = np.asarray(residual_batch(pts))
        return (res[0::2] - res[1::2]).T / (2.0 * step)
    cols = []
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        cols.append((np.asarray(residual_fn(xp)) - np.asarray(residual_fn(xm))) / (2.0 * step))
    return np.stack(cols, axis=1)


def _gradient_descent(residual_fn, x, cost, grad, max_backtracks=30):
    """Backtracking line search along -grad; fallback when the LM step stalls."""
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    for _ in range(max_backtracks):
        trial = x - step * grad
        r = np.asarray(residual_fn(trial))
        c = float(r @ r)
        if c < cost:
            return trial, c, True
        step *= 0.5
    return x, cost, False


def levenberg_marquardt(residual_fn, x0, *, jacobian=None, residual_batch=None,
                        step: float = FD_STEP, max_iter: int = 200,
                        lam0: float = 1e-3, ftol: float = 1e-10,
                        gtol: float = 1e-10, stall_iters: int = 3,
                        keep_history: bool = False) -> OptimizeResult:
    """Minimize ||r(x)||^2 by damped Gauss-Newton steps.

    The normal equations are damped with the running maximum of the Jacobian
    column norms (Marquardt scaling), which keeps progress uniform across
    badly scaled parameter directions.  ``jacobian`` may supply an analytic
    (m, n) Jacobian; otherwise central differences are used.  Convergence is
    declared after ``stall_iters`` consecutive relative cost gains below
    ``ftol``; if no damping in a wide range yields descent, one backtracking
    gradient step is attempted before giving up.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual_fn(x))
    cost = float(r @ r)
    lam = lam0
    history = [cost] if keep_history else []
    message = "max_iter reached"
    converged = False
    n = x.size
    col_scale = np.zeros(n)
    damped = np.empty((n, n))         # J^T J plus the damping, refilled per trial
    damped_diag = damped.reshape(-1)[::n + 1]
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        if jacobian is not None:
            jac = np.asarray(jacobian(x))
        else:
            jac = numeric_jacobian(residual_fn, x, step=step, residual_batch=residual_batch)
        g = jac.T @ r
        if float(np.max(np.abs(g))) < gtol:
            converged, message = True, "gradient below gtol"
            break
        jtj = jac.T @ jac
        col_scale = np.maximum(col_scale, np.sqrt(np.diag(jtj)))
        damp = np.maximum(col_scale, 1e-12) ** 2
        neg_g = -g
        accepted = False
        gain = 0.0
        for _ in range(30):
            np.copyto(damped, jtj)
            damped_diag += lam * damp
            try:
                delta = np.linalg.solve(damped, neg_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + delta
            r_trial = np.asarray(residual_fn(trial))
            c_trial = float(r_trial @ r_trial)
            if c_trial < cost:
                gain = cost - c_trial
                x, r, cost = trial, r_trial, c_trial
                lam = max(lam / 5.0, 1e-14)
                accepted = True
                if keep_history:
                    history.append(cost)
                break
            lam *= 10.0
        if not accepted:
            prev = cost
            x, cost, moved = _gradient_descent(residual_fn, x, cost, 2.0 * g)
            r = np.asarray(residual_fn(x))
            if not moved:
                converged, message = True, "no descent direction found"
                break
            gain = prev - cost
        stall = stall + 1 if gain < ftol * max(cost, 1.0) else 0
        if stall >= stall_iters:
            converged, message = True, "cost decrease below ftol"
            break
    return OptimizeResult(x=x, cost=cost, n_iter=it, converged=converged,
                          message=message, history=history)
