"""Weighted least squares over positive semidefinite matrices, certified by
a duality gap.

``psd_minimize`` minimizes the quadratics f(z) = (z - c)^T g (z - c) of the
real coordinates of S(z) = sum_i z_i E_i subject to S >= 0, by primal-dual
interior-point steps, for a stack of K such problems over one basis at once.
Each f is a weighted least squares ||L z - y||^2 with g = L^T L, about its
unconstrained minimizer c, less its minimum.  ``psd_least_squares`` is its
front end: it starts each problem at c, lifted along the identity when S(c)
is not well inside the cone.  Problems here are tiny (tens of parameters,
hundreds of counts), so every linear system is solved densely; the solver
keeps Cholesky factors of its primal and dual matrices.  The stopping rule
is GAP_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlin import hermitize

GAP_TOL = 1e-6     # duality gap at which psd_minimize stops, in units of f
STEP_FRAC = 0.99   # share of the step to the boundary of the PSD cone taken
START_FLOOR = 1e-9   # smallest start eigenvalue, relative to the largest


@dataclass
class OptimizeResult:
    x: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    message: str
    gap: float              # certified bound on cost - optimum
    dual: np.ndarray        # the dual matrix Z that certifies gap


# Products over a stack are taken one problem at a time (a stacked matmul
# makes one BLAS call per problem), so that no problem's round-off depends on
# the problems stacked with it.

def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_k @ v_k for stacks m (K, p, q) and v (K, q)."""
    return (m @ v[:, :, None])[:, :, 0]


def _solve(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_k^-1 v_k for stacks m (K, p, p) and v (K, p)."""
    return np.linalg.solve(m, v[:, :, None])[:, :, 0]


def _rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v_k @ m for each row v_k of v (K, p) and one (p, q) matrix m."""
    return (v[:, None, :] @ m)[:, 0, :]


def _rows_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re sum conj(p_k) q_k over all but the first axis of two real or
    complex stacks of one shape."""
    if np.iscomplexobj(p):
        p, q = p.view(float), q.view(float)
    return (p.reshape(len(p), 1, -1) @ q.reshape(len(q), -1, 1))[:, 0, 0]


def _each(fn, out: np.ndarray, *stacks: np.ndarray) -> np.ndarray:
    """out = fn(*stacks) for a numpy.linalg function fn over stacks of K
    problems; returns the problems at which fn raises LinAlgError, whose
    part of out is left as it was.  numpy rejects the whole stack when one
    problem fails, so then each problem is run as a stack of its own."""
    fails = np.zeros(len(out), dtype=bool)
    try:
        out[:] = fn(*stacks)
    except np.linalg.LinAlgError:
        for j in range(len(out)):
            try:
                out[j:j + 1] = fn(*(s[j:j + 1] for s in stacks))
            except np.linalg.LinAlgError:
                fails[j] = True
    return fails


def psd_minimize(g: np.ndarray, c: np.ndarray, basis: np.ndarray, z: np.ndarray,
                 max_iter: int) -> list[OptimizeResult]:
    """Minimize f_k(z) = (z - c_k)^T g_k (z - c_k) subject to S(z) = sum_i
    z_i E_i >= 0, for k = 1..K at once; returns the K results in order.

    ``g`` is a (K, n, n) stack of positive definite matrices and ``c`` a
    (K, n) stack of unconstrained minimizers; ``basis`` is the (n, d, d)
    stack of the E_i, Hermitian and orthonormal under Tr(E_i E_j); ``z`` is
    a (K, n) stack of starts, any with S(z_k) positive definite.  The dual
    starts are (s_k/d) S(z_k)^-1, whose Tr(S Z) is s_k = |f_k| floored at
    GAP_TOL/2: the size of an f >= 0 that is 0 at a perfect fit.  So a start
    that is already optimal, with f_k 0 or below 0 at round-off, gets a dual
    start like any other, and its gap can certify it at step 0.

    Primal-dual interior-point steps follow the central path S Z = mu 1 of
    the barrier t f(z) - log det S(z), t = 1/mu, with a dual matrix Z > 0.
    Each step is the HKM Newton direction (Helmberg et al., SIAM J. Optim. 6,
    342 (1996)) with Mehrotra's predictor-corrector (SIAM J. Optim. 2, 575
    (1992)), both directions from one routine.  Its reduced system is
    (2 g + M) dz = rhs with M_ij = Re Tr(E_i S^-1 E_j Z), the Gram matrix
    of L^-1 E_i R for the Cholesky factors S = L L^H and Z = R R^H (Todd,
    Toh & Tutuncu, SIAM J. Optim. 8, 769 (1998)): L^-1 and R^-1 come from
    one inv of the stacked factors, S^-1 = L^-H L^-1, and the products are
    two GEMMs through a (d, n d) layout of the basis.  A step goes STEP_FRAC
    of the way to the boundary of either cone at most, the eigvalsh of
    L^-1 dS L^-H and R^-1 dZ R^-H, so S and Z stay positive definite.  The
    K problems share the numpy calls of a step and nothing else: each has
    its own step lengths, gap and stop, and every product is taken one
    problem at a time, so its result is the one it gets alone.

    An iterate is certified by its gap: for any Z >= 0 the dual function
    q(Z) = min_z f(z) - Tr(Z S(z)) is a lower bound on the constrained
    minimum, and f(z) - q(Z) = Tr(S Z) + u^T g^-1 u / 4 with u = grad f(z)
    - A*(Z), A*(Z)_i = Tr(E_i Z).  The second term is f(z) + f*(w) - <w, z>
    at w = A*(Z), f* the convex conjugate, and 0 when grad f(z) = w.  It is
    >= 0, so it is computed only once Tr(S Z) <= GAP_TOL, and at the
    iterate a problem stops at, whatever stops it.  Tr(S Z) is summed in
    coordinates, z . A*(Z), for mu and for that test; in the gap it is
    ||L^H R||_F^2 of the Cholesky factors instead, a sum of squares, since
    the coordinate sum cancels at large counts and can come out below 0.

    A problem stops, and leaves the stack, once its gap is at most GAP_TOL;
    ``converged`` means that happened within ``max_iter`` steps, and
    ``n_iter`` counts its steps.  Each step is tested against both cones
    before it is taken, by the Cholesky factorization of the new (S, Z) that
    the next step needs anyway.  A step that round-off puts outside either
    cone, which happens only next to an optimum where S or Z is singular to
    working precision, is not taken: its problem stops at its current
    iterate, with its gap, so the result does not depend on ``max_iter`` once
    that stop is reached.  So is a step whose Newton system is singular to
    working precision, which happens only there too.  Each result carries
    its gap and its dual matrix.
    """
    n, d = basis.shape[:2]
    basis = np.ascontiguousarray(basis)
    flat = basis.reshape(n, d * d)
    real_t = flat.view(float).T
    left = np.ascontiguousarray(basis.transpose(1, 0, 2)).reshape(d, n * d)

    def primal(y):          # S(y_k) for each row y_k
        return _rows(y, flat).reshape(len(y), d, d)

    def adjoint(m):         # A*(M_k) = (Tr(E_i M_k))_i for contiguous Hermitian M_k
        return _rows(m.reshape(len(m), -1).view(float), real_t)

    def value(y):           # f_k(y_k) and grad f_k(y_k) for each row y_k of the current stack
        diff = y - c
        g_diff = _matvec(g, diff)
        return _rows_dot(diff, g_diff), 2.0 * g_diff

    z = np.asarray(z, dtype=float)
    x = primal(z)
    factors = np.empty((len(z), 2, d, d), dtype=complex)    # (L, R)
    if _each(np.linalg.cholesky, factors[:, 0], x).any():
        raise ValueError("the start of psd_minimize is not positive definite")
    cost, grad = value(z)
    hess = 2.0 * g
    l_inv = np.linalg.inv(factors[:, 0])
    size = np.maximum(np.abs(cost), GAP_TOL / 2)       # Tr(S Z) of the dual start
    zd = (size[:, None, None] / d) * (l_inv.conj().swapaxes(1, 2) @ l_inv)
    factors[:, 1] = np.linalg.cholesky(zd)
    results: list[OptimizeResult | None] = [None] * len(z)
    active = np.arange(len(z))          # the problems still in the stack
    newton = np.empty((len(z), n, n))
    pair = np.empty((len(z), 2, d, d), dtype=complex)    # (X, Z), then (dX, dZ)
    back = np.zeros(len(z), dtype=bool)     # the problems whose last step was not taken
    it = 0
    while True:
        w_dual = adjoint(zd)
        tr_xz = _rows_dot(z, w_dual)
        check = (tr_xz <= GAP_TOL) | back if it < max_iter else np.ones(len(z), dtype=bool)
        if check.any():
            gap = np.full(len(z), np.inf)
            rows = np.flatnonzero(check)
            u = grad[rows] - w_dual[rows]
            lr = factors[rows, 0].conj().swapaxes(1, 2) @ factors[rows, 1]     # L^H R
            gap[rows] = _rows_dot(lr, lr) + 0.25 * _rows_dot(u, _solve(g[rows], u))
            stop = (gap <= GAP_TOL) | back if it < max_iter else check
            for j in np.flatnonzero(stop):
                done = bool(gap[j] <= GAP_TOL)
                results[active[j]] = OptimizeResult(
                    x=z[j], cost=float(cost[j]), n_iter=it - int(back[j]), converged=done,
                    message="duality gap below GAP_TOL" if done else
                    "a step left the cone at round-off" if back[j] else "max_iter reached",
                    gap=float(gap[j]), dual=zd[j])
            if stop.all():
                break
            if stop.any():            # take the stopped problems out of the stack
                rows = np.flatnonzero(~stop)
                active, z, x, zd, cost, grad, tr_xz, factors, g, c, hess = (
                    part[rows] for part in
                    (active, z, x, zd, cost, grad, tr_xz, factors, g, c, hess))
        k = len(z)
        it += 1
        scale = np.linalg.inv(factors)                  # L^-1, R^-1
        x_inv = scale[:, 0].conj().swapaxes(1, 2) @ scale[:, 0]
        for j in range(k):
            # L^-1 E_i R for every i as (d, n, d), then as real rows by i
            m = ((scale[j, 0] @ left).reshape(d * n, d) @ factors[j, 1]).reshape(d, n, d)
            m = m.transpose(1, 0, 2).copy().view(float).reshape(n, -1)
            np.matmul(m, m.T, out=newton[j])
        system = np.add(newton[:k], hess, out=newton[:k])

        def direction(rhs, base, frac):
            """The step for the Newton right-hand side rhs: dz from
            (2 g + M) dz = rhs, dS = S(dz) and the HKM dZ = base -
            sym(S^-1 dS Z); the problems whose system is singular to working
            precision; and the step length min(1, frac a), a the largest
            with S + a dS and Z + a dZ both PSD.  S + a dS >= 0 exactly when
            1 + a L^-1 dS L^-H >= 0 (the conjugate transpose on the right,
            as L^-1 is not Hermitian), and Z + a dZ likewise with R."""
            dz = np.zeros((k, n))
            fails = _each(_solve, dz, system, rhs)
            pair[:k, 0] = dx = primal(dz)
            pair[:k, 1] = dzd = base - hermitize(x_inv @ dx @ zd)
            w = np.linalg.eigvalsh(scale @ pair[:k] @ scale.conj().swapaxes(-1, -2))
            return dz, dx, dzd, fails, frac / np.maximum(frac, -w.min(axis=(1, 2)))

        # predictor: the affine direction, aiming at mu = 0
        _, dx, dzd, fails_aff, a = direction(-grad, -zd, 1.0)
        # mu = Tr(S Z) / d now, and after the affine step
        mu_aff = _rows_dot(x + a[:, None, None] * dx, zd + a[:, None, None] * dzd)
        target = tr_xz / d * np.minimum(1.0, (mu_aff / tr_xz) ** 3)
        # corrector: aim at the target mu, with the second-order term of S Z
        shift = target[:, None, None] * x_inv - hermitize(x_inv @ dx @ dzd)
        dz, _, dzd, fails, a = direction(adjoint(shift) - grad, shift - zd, STEP_FRAC)
        z_new, zd_new = z + a[:, None] * dz, hermitize(zd + a[:, None, None] * dzd)
        x = primal(z_new)
        pair[:k, 0], pair[:k, 1] = x, zd_new
        # the step to the boundary is exact only to round-off: next to an
        # optimum whose S or Z is singular, a step can leave a cone, or its
        # Newton solve can fail.  Such a step is not taken, and its problem
        # stops at the top of the loop, which uses none of its x and keeps
        # the factors of its iterate for the gap
        new = np.empty_like(factors)
        back = fails_aff | fails | _each(np.linalg.cholesky, new, pair[:k])
        z, zd = np.where(back[:, None], z, z_new), np.where(back[:, None, None], zd, zd_new)
        factors = np.where(back[:, None, None, None], factors, new)
        cost, grad = value(z)
    return results


def psd_least_squares(g: np.ndarray, c: np.ndarray, basis: np.ndarray,
                      max_iter: int) -> list[OptimizeResult]:
    """Minimize f_k(z) = (z - c_k)^T g_k (z - c_k) subject to S(z) = sum_i
    z_i E_i >= 0, for k = 1..K at once; returns the K results in order.

    ``g``, ``c`` and ``basis`` are as in psd_minimize, and the span of the
    E_i holds the identity, whose coordinates are then Tr E_i.
    psd_minimize solves the K problems as one stack.  Each starts at c_k
    when S(c_k) is well inside the cone, its smallest eigenvalue above
    START_FLOOR of its largest: the optimum, whose gap certifies it at step
    0 with cost 0, unless S(c_k) is so near singular that the dual start is
    large; then it takes steps from c_k.  Otherwise c_k is lifted along the
    identity until the smallest eigenvalue of S is the size of the most
    negative one of S(c_k), and at least START_FLOOR of its largest.  A
    noiseless table of a pure state has an S(c_k) singular to round-off,
    whose smallest eigenvalue can come out just above 0; that start would
    give a dual start of the size of 1/round-off, so it is lifted to the
    floor.  On the central path the gap is d mu.
    """
    n, d = basis.shape[:2]
    w = np.linalg.eigvalsh(_rows(c, basis.reshape(n, d * d)).reshape(-1, d, d))
    floor = START_FLOOR * w[:, -1]
    lift = np.where(w[:, 0] > floor, 0.0, np.maximum(-w[:, 0], floor) - w[:, 0])
    start = c + lift[:, None] * np.real(np.trace(basis, axis1=1, axis2=2))
    return psd_minimize(g, c, basis, start, max_iter)
