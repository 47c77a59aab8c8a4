import numpy as np
import pytest

from qcausal.optimize import levenberg_marquardt, numeric_jacobian


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
