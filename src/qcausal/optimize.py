"""Convex minimization over positive semidefinite matrices, certified by a
duality gap.

``psd_minimize`` minimizes a smooth convex f(z) of the real coordinates of
S(z) = sum_i z_i E_i subject to S >= 0, by primal-dual interior-point steps.
An objective is a callable giving f, its gradient and its Hessian at z, with
a ``residual_cost`` method that completes the duality gap (see
psd_minimize).  Two objectives are defined here: ``LeastSquares``,
||r z + b||^2, which ``psd_least_squares`` solves in closed form whenever
that is positive definite, and ``PoissonLikelihood``, the negative
log-likelihood of Poisson counts whose means are linear in z.  Problems here
are tiny (tens of parameters, hundreds of counts), so every linear system is
solved densely.  The stopping rule is GAP_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-6     # duality gap at which psd_minimize stops, in units of f
STEP_FRAC = 0.99   # share of the step to the boundary of the PSD cone taken
START_FLOOR = 1e-9   # smallest start eigenvalue, relative to the largest


@dataclass
class OptimizeResult:
    x: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    message: str = ""
    gap: float | None = None    # certified bound on cost - optimum
    dual: np.ndarray | None = None   # the dual matrix Z that certifies gap


class LeastSquares:
    """f(z) = ||r z + b||^2 for an invertible (n, n) r and an n-vector b."""

    def __init__(self, r: np.ndarray, b: np.ndarray):
        self.r, self.b = r, b
        self.hess = 2.0 * (r.T @ r)
        self.r_inv_t = np.linalg.inv(r).T

    def __call__(self, z: np.ndarray):
        resid = self.r @ z + self.b
        return float(resid @ resid), self.r.T @ (2.0 * resid), self.hess

    def residual_cost(self, z, grad, hess, w) -> float:
        """Exactly f(z) + f*(w) - <w, z>, with f* the convex conjugate:
        |r^-T (grad - w)|^2 / 4."""
        dual_res = self.r_inv_t @ (grad - w)
        return 0.25 * float(dual_res @ dual_res)


class PoissonLikelihood:
    """f(z) = sum_k m_k - n_k - n_k log(m_k / n_k) with means m = a z.

    The Poisson negative log-likelihood of the counts n less that of the
    saturated model m = n: half the deviance, 0 only when every mean equals
    its count.  Terms with n_k = 0 are m_k alone.  Every m_k must be
    positive, which S(z) > 0 ensures when each mean is m_k = Tr(S P_k) for a
    nonzero P_k >= 0, that is a_ki = Tr(E_i P_k).
    """

    def __init__(self, a: np.ndarray, counts: np.ndarray):
        self.a, self.n = a, counts
        self.pos = counts > 0

    def __call__(self, z: np.ndarray):
        a, n, pos = self.a, self.n, self.pos
        m = a @ z
        ratio = n / m
        value = float(np.sum(m - n) + n[pos] @ np.log(ratio[pos]))
        return value, a.T @ (1.0 - ratio), (a.T * (ratio / m)) @ a

    def residual_cost(self, z, grad, hess, w) -> float:
        """An upper bound on f(z) + f*(w) - <w, z>; inf if none is found.

        For any nu with a^T nu = w and nu_k < 1 (nu_k <= 1 where n_k = 0),
        min over m > 0 of sum_k f_k(m_k) - nu_k m_k is g(nu) = sum_{n_k > 0}
        n_k log(1 - nu_k), so f*(w) <= -g(nu).  Here nu = 1 - n/m + delta:
        the gradient's multipliers, corrected by the least change delta =
        W a H^-1 (w - grad) in the metric of the Hessian H = a^T W a, W =
        diag(n/m^2), that makes a^T nu = w.  With x_k = (a H^-1 (w -
        grad))_k / m_k the bound is sum_k n_k (-x_k - log(1 - x_k)), about
        (w - grad)^T H^-1 (w - grad) / 2; it needs every x_k < 1.
        """
        pos = self.pos
        try:
            x = (self.a @ np.linalg.solve(hess, w - grad))[pos] / (self.a[pos] @ z)
        except np.linalg.LinAlgError:
            return np.inf
        if not np.all(x < 1.0):
            return np.inf
        return float(self.n[pos] @ (-x - np.log1p(-x)))


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _step_to_boundary(scale: np.ndarray, steps: np.ndarray) -> float:
    """Largest a with X + a dX and Z + a dZ both PSD, given scale = (X^-1/2,
    Z^-1/2) and steps = (dX, dZ)."""
    w_min = np.linalg.eigvalsh(scale @ steps @ scale).min()
    return np.inf if w_min >= 0.0 else -1.0 / w_min


def psd_minimize(objective, basis: np.ndarray, z: np.ndarray, max_iter: int,
                 dual: np.ndarray | None = None) -> OptimizeResult:
    """Minimize a smooth convex f(z) subject to S(z) = sum_i z_i E_i >= 0.

    ``objective(z)`` returns f, its gradient and its Hessian; ``basis`` is
    the (n, d, d) stack of the E_i, Hermitian and orthonormal under
    Tr(E_i E_j); ``z`` is a start with S(z) positive definite.  The dual
    start is ``dual``, or else (f/d) S^-1, which suits an f >= 0 that is 0
    at a perfect fit.

    Primal-dual interior-point steps follow the central path S Z = mu 1 of
    the barrier t f(z) - log det S(z), t = 1/mu, with a dual matrix Z > 0.
    Each step is the HKM Newton direction (Helmberg et al., SIAM J. Optim. 6,
    342 (1996)) with Mehrotra's predictor-corrector (SIAM J. Optim. 2, 575
    (1992)); its reduced system is (hess f + M) dz = rhs with M_ij =
    Re Tr(E_i S^-1 E_j Z), the Gram matrix of the batched products
    S^-1/2 E_i Z^1/2, both square roots from one eigh.  A step goes
    STEP_FRAC of the way to the boundary of either cone at most, so S and Z
    stay positive definite.

    Every iterate is certified: for any Z >= 0 the dual function g(Z) =
    min_z f(z) - Tr(Z S(z)) is a lower bound on the constrained minimum, and
    f(z) - g(Z) = Tr(S Z) + [f(z) + f*(w) - <w, z>] with w = A*(Z), w_i =
    Tr(E_i Z), and f* the convex conjugate.  The bracket, 0 when grad f(z) =
    w, is ``objective.residual_cost(z, grad, hess, w)`` or a bound on it.
    The steps stop once the gap is at most GAP_TOL; ``converged`` means that
    happened within ``max_iter`` steps, and ``n_iter`` counts the steps
    taken.  An iterate that round-off puts outside the cone, which happens
    only next to an optimum where S or Z is singular to working precision,
    is dropped when the next step finds it: the last interior iterate is
    returned, with its gap.  The result carries the gap and its dual
    matrix Z.
    """
    n, d = basis.shape[:2]
    flat = basis.reshape(n, d * d)
    adjoint = flat.conj()                 # A*(M) = Re(adjoint @ M.reshape(-1))
    x = (z @ flat).reshape(d, d)
    if dual is None:
        w, v = np.linalg.eigh(x)
        if w[0] <= 0.0:
            raise ValueError("the start of psd_minimize is not positive definite")
    cost, grad, hess = objective(z)
    zd = (v * (cost / d / w)) @ v.conj().T if dual is None else dual
    pair = np.empty((2, d, d), dtype=complex)       # (X, Z), then (dX, dZ)
    message = "max_iter reached"
    last = None                # the last iterate found positive definite
    it = 0
    while True:
        w_dual = np.real(adjoint @ zd.reshape(-1))
        tr_xz = float(np.real(np.vdot(x, zd)))
        gap = tr_xz + objective.residual_cost(z, grad, hess, w_dual)
        if gap <= GAP_TOL:
            message = "duality gap below GAP_TOL"
            break
        if it == max_iter:
            break
        pair[0], pair[1] = x, zd
        w, v = np.linalg.eigh(pair)
        if w[:, 0].min() <= 0.0:
            if last is None:
                raise ValueError("the start of psd_minimize is not positive definite")
            # the step to the boundary is exact only to round-off; next to an
            # optimum whose S or Z is singular, keep the last interior iterate
            z, zd, cost, gap = last
            it -= 1
            message = "a step left the cone at round-off"
            break
        last = z, zd, cost, gap
        it += 1
        vh = v.conj().transpose(0, 2, 1)
        scale = (v * w[:, None, :] ** -0.5) @ vh            # X^-1/2, Z^-1/2
        x_inv = (v[0] / w[0]) @ vh[0]
        g = (scale[0] @ basis @ (v[1] * np.sqrt(w[1])) @ vh[1]).reshape(n, -1).view(float)
        h_inv = np.linalg.inv(hess + g @ g.T)
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
        x = (z @ flat).reshape(d, d)
        cost, grad, hess = objective(z)
    return OptimizeResult(x=z, cost=cost, n_iter=it, converged=gap <= GAP_TOL,
                          message=message, gap=gap, dual=zd)


def psd_least_squares(r: np.ndarray, b: np.ndarray, basis: np.ndarray,
                      max_iter: int) -> OptimizeResult:
    """Minimize f(z) = ||r z + b||^2 subject to S(z) = sum_i z_i E_i >= 0.

    ``r`` is an invertible (n, n) matrix, ``b`` an n-vector and ``basis`` the
    (n, d, d) stack of the E_i: Hermitian, orthonormal under Tr(E_i E_j) and
    spanning the Hermitian d x d matrices.

    The unconstrained minimizer z = -r^-1 b comes first; when S(z) is
    positive definite it is the optimum, with n_iter 0 and gap 0.  Otherwise
    psd_minimize takes over from S with the eigenvalues of the unconstrained
    solution clipped from below at the size of the most negative one, and at
    START_FLOOR of the largest, and Z = (f/d) S^-1.  For least squares the
    gap's residual term is exact: f(z) - g(Z) = Tr(S Z) + |r^-T (grad f(z)
    - A*(Z))|^2 / 4, and on the central path the gap is d mu.
    """
    n, d = basis.shape[:2]
    flat = basis.reshape(n, d * d)
    z = np.linalg.solve(r, -b)
    w, v = np.linalg.eigh((z @ flat).reshape(d, d))
    resid = r @ z + b
    if w[0] > 0.0:
        return OptimizeResult(x=z, cost=float(resid @ resid), n_iter=0, converged=True,
                              message="unconstrained optimum is positive definite",
                              gap=0.0, dual=np.zeros((d, d), dtype=complex))
    w = np.maximum(w, max(-w[0], START_FLOOR * w[-1]))
    z = np.real(flat.conj() @ ((v * w) @ v.conj().T).reshape(-1))
    resid = r @ z + b
    dual = (v * (resid @ resid / d / w)) @ v.conj().T
    return psd_minimize(LeastSquares(r, b), basis, z, max_iter, dual)
