import numpy as np
import pytest

from qcausal.optimize import (
    CountModel,
    GAP_TOL,
    START_FLOOR,
    LeastSquares,
    PoissonLikelihood,
    psd_least_squares,
    psd_minimize,
)


def _hermitian_basis(d):
    """Orthonormal basis of the Hermitian d x d matrices as a (d^2, d, d) stack."""
    basis = []
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            if a == b:
                e[a, a] = 1.0
            elif a < b:
                e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
            else:
                e[a, b], e[b, a] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            basis.append(e)
    return np.stack(basis)


def _problem(seed, d=3):
    """A random well-conditioned g = r^T r and the basis of the d x d
    Hermitian matrices."""
    rng = np.random.default_rng(seed)
    n = d * d
    r = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
    return rng, r.T @ r, _hermitian_basis(d)


class TestPsdLeastSquares:
    def test_interior_optimum_is_the_closed_form(self):
        # S(c) > 0: psd_minimize starts at c, the optimum, and certifies it at
        # step 0 with a gap and a dual matrix computed like every other fit's
        rng, g, basis = _problem(0)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        target = h @ h.conj().T + np.eye(3)                        # positive definite
        c = np.real(np.einsum("iab,ba->i", basis, target))
        res = psd_least_squares(g, c, basis, 50)
        assert np.array_equal(res.x, c) and res.cost == 0.0
        assert res.n_iter == 0 and res.converged
        assert np.linalg.eigvalsh(res.dual)[0] >= 0.0
        assert 0.0 < res.gap <= GAP_TOL
        # the gap is Tr(S Z) + (grad f - A*(Z))^T g^-1 (grad f - A*(Z)) / 4, grad f(c) = 0
        u = -np.real(np.einsum("iab,ba->i", basis, res.dual))
        tr_sz = np.real(np.trace(target @ res.dual))
        assert res.gap == pytest.approx(tr_sz + 0.25 * u @ np.linalg.solve(g, u), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_optimum_is_certified(self, seed):
        rng, g, basis = _problem(seed)
        # the unconstrained optimum has a negative eigenvalue
        target = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        c = np.real(np.einsum("iab,ba->i", basis, u @ target @ u.conj().T))
        res = psd_least_squares(g, c, basis, 50)
        assert res.converged and 0 < res.n_iter <= 20
        s_mat = np.tensordot(res.x, basis, 1)
        assert np.linalg.eigvalsh(s_mat)[0] > 0.0
        assert np.linalg.eigvalsh(res.dual)[0] > 0.0
        # weak duality: the dual function at Z is min_y (y - c)^T g (y - c) - Tr(Z S(y))
        w = np.real(np.einsum("iab,ba->i", basis, res.dual))
        y = c + np.linalg.solve(g, w / 2.0)
        dual_value = (y - c) @ g @ (y - c) - w @ y
        assert res.cost - dual_value == pytest.approx(res.gap, abs=1e-12)
        assert res.gap <= GAP_TOL

    def test_budget_caps_the_steps(self):
        rng, g, basis = _problem(1)
        c = np.real(np.einsum("iab,ba->i", basis, np.diag([-1.0, 1.0, 1.0])))
        res = psd_least_squares(g, c, basis, 1)
        assert res.n_iter == 1 and not res.converged and res.gap > GAP_TOL
        assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0


def _poisson_problem(seed, d=3, n_rows=30, mean=200.0):
    """Counts over rows Tr(S P_k) of random rank-one P_k >= 0, Poisson-drawn
    around a rank-one state plus 0.05 1; returns the rows a (n_rows, d^2),
    the counts, the basis and a positive definite start."""
    rng = np.random.default_rng(seed)
    basis = _hermitian_basis(d)
    kets = rng.standard_normal((n_rows, d)) + 1j * rng.standard_normal((n_rows, d))
    proj = np.einsum("ka,kb->kab", kets, kets.conj())
    a = np.real(np.einsum("kab,iba->ki", proj, basis))
    g = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
    truth = g @ g.conj().T + 0.05 * np.eye(d)             # near the boundary
    truth *= mean / np.real(np.einsum("kab,ba->k", proj, truth)).mean()
    counts = rng.poisson(np.real(np.einsum("kab,ba->k", proj, truth))).astype(float)
    start = np.real(np.einsum("iaa->i", basis)) * counts.mean()
    return a, counts, basis, start


def _numeric_gradient(fn, z, step=1e-5):
    return np.array([(fn(z + step * e) - fn(z - step * e)) / (2.0 * step)
                     for e in np.eye(z.size)])


class TestPoissonLikelihood:
    def test_value_is_half_the_deviance(self):
        a, counts, _, start = _poisson_problem(0)
        counts[:3] = 0.0
        m = a @ start
        [value], _, _ = PoissonLikelihood(CountModel(a[None]), counts[None])(start[None])
        pos = counts > 0
        deviance = 2.0 * (np.sum(counts[pos] * np.log(counts[pos] / m[pos])) - np.sum(counts - m))
        assert value == pytest.approx(deviance / 2.0, rel=1e-12)
        [saturated], _, _ = PoissonLikelihood(CountModel(a[None]), (a @ start)[None])(start[None])
        assert saturated == pytest.approx(0.0, abs=1e-9)

    def test_derivatives_match_finite_differences(self):
        a, counts, _, start = _poisson_problem(1)
        counts[:3] = 0.0
        stacked = PoissonLikelihood(CountModel(a[None]), counts[None])

        def objective(y):
            return tuple(part[0] for part in stacked(y[None]))

        z = start + np.random.default_rng(2).uniform(-0.1, 0.1, start.size) * start.max()
        _, grad, hess = objective(z)
        num_grad = _numeric_gradient(lambda y: objective(y)[0], z)
        num_hess = np.stack([_numeric_gradient(lambda y: objective(y)[1][i], z)
                             for i in range(z.size)])
        assert np.max(np.abs(grad - num_grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(hess - num_hess)) <= 1e-6 * np.max(np.abs(hess))
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-15 * np.max(np.abs(hess)))


class TestPsdMinimize:
    @pytest.mark.parametrize("seed", range(5))
    def test_poisson_gap_is_a_dual_certificate(self, seed):
        # rebuild the dual point the gap rests on and check it directly: a^T nu
        # = A*(Z), nu < 1 on the nonzero counts, and f - g(nu) = gap, with
        # g(nu) = sum_{n > 0} n log(1 - nu) the dual function of the shifted NLL
        a, counts, basis, start = _poisson_problem(seed)
        counts[seed] = 0.0
        objective = PoissonLikelihood(CountModel(a[None]), counts[None])
        [res] = psd_minimize(objective, basis, start[None], 100)
        assert res.converged and 0 < res.n_iter <= 40 and res.gap <= GAP_TOL
        s_mat = np.tensordot(res.x, basis, 1)
        assert np.linalg.eigvalsh(s_mat)[0] > 0.0
        assert np.linalg.eigvalsh(res.dual)[0] > 0.0
        m = a @ res.x
        _, [grad], [hess] = objective(res.x[None])
        w = np.real(np.einsum("iab,ba->i", basis, res.dual))
        nu = 1.0 - counts / m + (counts / m ** 2) * (a @ np.linalg.solve(hess, w - grad))
        assert np.allclose(a.T @ nu, w, rtol=0, atol=1e-12 * np.abs(a).sum())
        pos = counts > 0
        assert np.all(nu[pos] < 1.0) and np.all(nu[~pos] <= 1.0)
        dual_value = counts[pos] @ np.log(1.0 - nu[pos])
        assert res.cost - dual_value == pytest.approx(res.gap, abs=1e-9)

    def test_optimal_start_is_certified_at_step_0(self):
        # counts equal to the means at the start: f = 0 there, so the dual
        # start takes its size Tr(S Z) from GAP_TOL / 2, and the gap
        # certifies the start as it is
        a, _, basis, start = _poisson_problem(0)
        counts = (start[None, None, :] @ a.T)[0, 0]       # the objective's own product
        objective = PoissonLikelihood(CountModel(a[None]), counts[None])
        assert objective(start[None])[0][0] == 0.0
        [res] = psd_minimize(objective, basis, start[None], 10)
        assert np.array_equal(res.x, start) and res.cost == 0.0
        assert res.n_iter == 0 and res.converged and 0.0 < res.gap <= GAP_TOL
        assert np.linalg.eigvalsh(res.dual)[0] > 0.0

    def test_budget_caps_the_steps(self):
        a, counts, basis, start = _poisson_problem(0)
        objective = PoissonLikelihood(CountModel(a[None]), counts[None])
        [res] = psd_minimize(objective, basis, start[None], 1)
        assert res.n_iter == 1 and not res.converged and res.gap > GAP_TOL
        assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0

    def test_least_squares_is_the_same_solver(self):
        # psd_least_squares runs psd_minimize on LeastSquares from the
        # unconstrained solution with its eigenvalues clipped: the same call
        # here gives the same result, bit for bit
        rng, g, basis = _problem(3)
        c = np.real(np.einsum("iab,ba->i", basis, np.diag([-1.0, 0.5, 2.0])))
        res = psd_least_squares(g, c, basis, 50)
        assert res.converged and res.n_iter > 0
        flat = basis.reshape(9, 9)
        w, v = np.linalg.eigh((c @ flat).reshape(3, 3))
        w = np.maximum(w, max(-w[0], START_FLOOR * w[-1]))
        start = np.real(flat.conj() @ ((v * w) @ v.conj().T).reshape(-1))
        [again] = psd_minimize(LeastSquares(g[None], c[None]), basis, start[None], 50)
        assert again.n_iter == res.n_iter and again.converged
        assert again.cost == res.cost and again.gap == res.gap
        assert np.array_equal(again.x, res.x) and np.array_equal(again.dual, res.dual)

    def test_rejects_a_start_off_the_cone(self):
        a, counts, basis, start = _poisson_problem(0)
        bad = np.real(np.einsum("iab,ba->i", basis, np.diag([1.0, 1.0, -1.0])))
        with pytest.raises(ValueError, match="not positive definite"):
            psd_minimize(PoissonLikelihood(CountModel(a[None]), counts[None]), basis, bad[None], 10)
