"""Small dense least-squares machinery for the tomography fits.

Two solvers.  ``psd_least_squares`` solves the convex problem of the (C, D)
state fit exactly: least squares over the Hermitian matrices that are
positive semidefinite, stopped by a duality gap that bounds its distance to
the optimum.  ``levenberg_marquardt`` minimizes the squared norm of a residual
function given its analytic Jacobian; the 8x8 fit still uses it.  Problems
here are tiny (tens of parameters, hundreds of residuals), so every linear
system is solved densely.  The stopping rules are the constants below.
``numeric_jacobian`` forms central differences, the reference that analytic
Jacobians are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FD_STEP = 1e-6
LAM0 = 1e-3        # initial damping
FTOL = 1e-6        # a relative cost gain below this counts as a stall
GTOL = 1e-8        # converged once every gradient entry is below this
STALL_ITERS = 10   # consecutive stalls that end a run
GAP_TOL = 1e-6     # duality gap at which psd_least_squares stops, in cost units
STEP_FRAC = 0.99   # share of the step to the boundary of the PSD cone taken
START_FLOOR = 1e-9   # smallest start eigenvalue, relative to the largest


@dataclass
class OptimizeResult:
    x: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    message: str = ""
    history: list = field(default_factory=list)
    gap: float | None = None    # certified bound on cost - optimum, if known
    dual: np.ndarray | None = None   # the dual matrix Z that certifies gap


def numeric_jacobian(residual_fn, x, step: float = FD_STEP):
    """Central-difference Jacobian d r_i / d x_j."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
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


def levenberg_marquardt(residual_fn, jacobian, x0, max_iter: int) -> OptimizeResult:
    """Minimize ||r(x)||^2 by damped Gauss-Newton steps.

    ``jacobian`` returns the (m, n) Jacobian of ``residual_fn``.  The normal
    equations are damped with the running maximum of the Jacobian column
    norms (Marquardt scaling), which keeps progress uniform across badly
    scaled parameter directions.  Convergence is declared once the gradient
    is below GTOL, or after STALL_ITERS consecutive relative cost gains below
    FTOL; if no damping in a wide range yields descent, one backtracking
    gradient step is attempted before giving up.  ``history`` holds the
    starting cost and the cost after each accepted damped step.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual_fn(x))
    cost = float(r @ r)
    lam = LAM0
    history = [cost]
    message = "max_iter reached"
    converged = False
    n = x.size
    col_scale = np.zeros(n)
    damped = np.empty((n, n))         # J^T J plus the damping, refilled per trial
    damped_diag = damped.reshape(-1)[::n + 1]
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        jac = np.asarray(jacobian(x))
        g = jac.T @ r
        if float(np.max(np.abs(g))) < GTOL:
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
        stall = stall + 1 if gain < FTOL * max(cost, 1.0) else 0
        if stall >= STALL_ITERS:
            converged, message = True, "cost decrease below ftol"
            break
    return OptimizeResult(x=x, cost=cost, n_iter=it, converged=converged,
                          message=message, history=history)


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _step_to_boundary(scale: np.ndarray, steps: np.ndarray) -> float:
    """Largest a with X + a dX and Z + a dZ both PSD, given scale = (X^-1/2,
    Z^-1/2) and steps = (dX, dZ)."""
    w_min = np.linalg.eigvalsh(scale @ steps @ scale).min()
    return np.inf if w_min >= 0.0 else -1.0 / w_min


def psd_least_squares(r: np.ndarray, b: np.ndarray, basis: np.ndarray,
                      max_iter: int) -> OptimizeResult:
    """Minimize f(z) = ||r z + b||^2 subject to S(z) = sum_i z_i E_i >= 0.

    ``r`` is an invertible (n, n) matrix, ``b`` an n-vector and ``basis`` the
    (n, d, d) stack of the E_i: Hermitian, orthonormal under Tr(E_i E_j) and
    spanning the Hermitian d x d matrices.

    The unconstrained minimizer z = -r^-1 b comes first; when S(z) is
    positive definite it is the optimum, with n_iter 0 and gap 0.  Otherwise
    primal-dual interior-point steps follow the central path S Z = mu 1 of
    the barrier t f(z) - log det S(z), t = 1/mu, with a dual matrix Z > 0.
    Each step is the HKM Newton direction (Helmberg et al., SIAM J. Optim. 6,
    342 (1996)) with Mehrotra's predictor-corrector (SIAM J. Optim. 2, 575
    (1992)); its reduced system is (2 r^T r + M) dz = rhs with M_ij =
    Re Tr(E_i S^-1 E_j Z), the Gram matrix of the batched products
    S^-1/2 E_i Z^1/2, both square roots from one eigh.  A step goes
    STEP_FRAC of the way to the boundary of either cone at most, so S and Z
    stay positive definite.  The path starts at S with the eigenvalues of
    the unconstrained solution clipped from below at the size of the most
    negative one, and at START_FLOOR of the largest, and Z = (f/d) S^-1.  On
    the central path Z = mu S^-1, where M is the barrier's Hessian
    Tr(S^-1 E_i S^-1 E_j) over t.

    Every iterate is certified: for any Z >= 0 the dual function g(Z) =
    min_z f(z) - Tr(Z S(z)) is a lower bound on min f, and f(z) - g(Z) =
    Tr(S Z) + |r^-T (grad f(z) - A*(Z))|^2 / 4 with A*(Z)_i = Tr(E_i Z); on
    the central path this gap is d mu, the barrier's d/t.  The steps stop
    once gap <= GAP_TOL; ``converged`` means that happened within
    ``max_iter`` steps, and ``n_iter`` counts the steps taken.  The result
    carries the gap and its dual matrix Z (zero for the closed form).
    """
    n, d = basis.shape[:2]
    flat = basis.reshape(n, d * d)
    adjoint = flat.conj()                 # A*(M) = Re(adjoint @ M.reshape(-1))
    z = np.linalg.solve(r, -b)
    w, v = np.linalg.eigh((z @ flat).reshape(d, d))
    resid = r @ z + b
    if w[0] > 0.0:
        return OptimizeResult(x=z, cost=float(resid @ resid), n_iter=0, converged=True,
                              message="unconstrained optimum is positive definite",
                              gap=0.0, dual=np.zeros((d, d), dtype=complex))
    w = np.maximum(w, max(-w[0], START_FLOOR * w[-1]))
    z = np.real(adjoint @ ((v * w) @ v.conj().T).reshape(-1))
    resid = r @ z + b
    zd = (v * (resid @ resid / d / w)) @ v.conj().T
    hess_f = 2.0 * (r.T @ r)
    r_inv_t = np.linalg.inv(r).T
    pair = np.empty((2, d, d), dtype=complex)       # (X, Z), then (dX, dZ)
    it = 0
    while True:
        x = (z @ flat).reshape(d, d)
        grad = r.T @ (2.0 * resid)
        dual_res = r_inv_t @ (grad - np.real(adjoint @ zd.reshape(-1)))
        tr_xz = float(np.real(np.vdot(x, zd)))
        gap = tr_xz + 0.25 * float(dual_res @ dual_res)
        if gap <= GAP_TOL or it == max_iter:
            break
        it += 1
        pair[0], pair[1] = x, zd
        w, v = np.linalg.eigh(pair)
        if w[:, 0].min() <= 0.0:
            raise np.linalg.LinAlgError("an interior-point iterate is not positive definite")
        vh = v.conj().transpose(0, 2, 1)
        scale = (v * w[:, None, :] ** -0.5) @ vh            # X^-1/2, Z^-1/2
        x_inv = (v[0] / w[0]) @ vh[0]
        g = (scale[0] @ basis @ (v[1] * np.sqrt(w[1])) @ vh[1]).reshape(n, -1).view(float)
        h_inv = np.linalg.inv(hess_f + g @ g.T)
        # predictor: the affine direction, aiming at mu = 0
        dz = h_inv @ -grad
        pair[0] = dx = (dz @ flat).reshape(d, d)
        pair[1] = dzd = -zd - _herm(x_inv @ dx @ zd)
        a = min(1.0, _step_to_boundary(scale, pair))
        mu = tr_xz / d
        mu_aff = float(np.real(np.vdot(x + a * dx, zd + a * dzd))) / d
        target = mu * min(1.0, (mu_aff / mu) ** 3)
        # corrector: aim at the target mu, with the second-order term of S Z
        shift = target * x_inv - _herm(x_inv @ dx @ dzd)
        dz = h_inv @ (np.real(adjoint @ shift.reshape(-1)) - grad)
        pair[0] = dx = (dz @ flat).reshape(d, d)
        pair[1] = dzd = shift - zd - _herm(x_inv @ dx @ zd)
        a = min(1.0, STEP_FRAC * _step_to_boundary(scale, pair))
        z = z + a * dz
        zd = _herm(zd + a * dzd)
        resid = r @ z + b
    converged = gap <= GAP_TOL
    return OptimizeResult(x=z, cost=float(resid @ resid), n_iter=it, converged=converged,
                          message="duality gap below GAP_TOL" if converged else "max_iter reached",
                          gap=gap, dual=zd)
