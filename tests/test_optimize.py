import numpy as np
import pytest

from qcausal.optimize import GAP_TOL, levenberg_marquardt, numeric_jacobian, psd_least_squares


def quad_residual(a, b):
    def fn(x):
        return a @ x - b
    return fn


class TestNumericJacobian:
    def test_matches_analytic_linear(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        jac = numeric_jacobian(quad_residual(a, np.zeros(6)), rng.standard_normal(4))
        assert np.allclose(jac, a, atol=1e-7)


class TestLevenbergMarquardt:
    def test_linear_least_squares(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        res = levenberg_marquardt(quad_residual(a, b), lambda x: a, np.zeros(4), 200)
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert res.converged
        assert np.allclose(res.x, expected, atol=1e-6)

    def test_rosenbrock_valley(self):
        def fn(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        res = levenberg_marquardt(fn, jac, np.array([-1.2, 1.0]), 500)
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_analytic_jacobian_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        res = levenberg_marquardt(quad_residual(a, b), lambda x: a, np.zeros(3), 200)
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(res.x, expected, atol=1e-6)

    def test_already_optimal(self):
        res = levenberg_marquardt(lambda x: x, lambda x: np.eye(3), np.zeros(3), 200)
        assert res.converged and res.n_iter <= 1

    def test_history_recorded(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal(6)
        res = levenberg_marquardt(quad_residual(a, b), lambda x: a, np.zeros(2), 200)
        assert len(res.history) >= 2
        assert res.history[0] >= res.history[-1]
        assert res.history[-1] == pytest.approx(res.cost)

    def test_max_iter_respected(self):
        def fn(x):
            return np.array([np.exp(0.1 * x[0]) - 5.0])

        def jac(x):
            return np.array([[0.1 * np.exp(0.1 * x[0])]])

        res = levenberg_marquardt(fn, jac, np.array([100.0]), 2)
        assert res.n_iter <= 2


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
    """A random well-conditioned r and the basis of the d x d Hermitian matrices."""
    rng = np.random.default_rng(seed)
    n = d * d
    r = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
    return rng, r, _hermitian_basis(d)


class TestPsdLeastSquares:
    def test_interior_optimum_is_the_closed_form(self):
        rng, r, basis = _problem(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        target = g @ g.conj().T + np.eye(3)                        # positive definite
        z = np.real(np.einsum("iab,ba->i", basis, target))
        res = psd_least_squares(r, -r @ z, basis, 50)
        assert res.n_iter == 0 and res.converged and res.gap == 0.0
        assert np.allclose(res.x, z, atol=1e-12)
        assert res.cost <= 1e-20

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_optimum_is_certified(self, seed):
        rng, r, basis = _problem(seed)
        # the unconstrained optimum has a negative eigenvalue
        target = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        z_target = np.real(np.einsum("iab,ba->i", basis, u @ target @ u.conj().T))
        b = -r @ z_target
        res = psd_least_squares(r, b, basis, 50)
        assert res.converged and 0 < res.n_iter <= 20
        s_mat = np.tensordot(res.x, basis, 1)
        assert np.linalg.eigvalsh(s_mat)[0] > 0.0
        assert np.linalg.eigvalsh(res.dual)[0] > 0.0
        # weak duality: the dual function at Z is min_y |r y + b|^2 - Tr(Z S(y))
        c = np.real(np.einsum("iab,ba->i", basis, res.dual))
        y = np.linalg.solve(r, np.linalg.solve(r.T, c / 2.0) - b)
        dual_value = np.sum((r @ y + b) ** 2) - c @ y
        assert res.cost - dual_value == pytest.approx(res.gap, abs=1e-12)
        assert res.gap <= GAP_TOL

    def test_budget_caps_the_steps(self):
        rng, r, basis = _problem(1)
        b = -r @ np.real(np.einsum("iab,ba->i", basis, np.diag([-1.0, 1.0, 1.0])))
        res = psd_least_squares(r, b, basis, 1)
        assert res.n_iter == 1 and not res.converged and res.gap > GAP_TOL
        assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0
