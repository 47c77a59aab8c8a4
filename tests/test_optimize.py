import numpy as np
import pytest

from qcausal import optimize
from qcausal.optimize import (
    GAP_TOL,
    START_FLOOR,
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
        [res] = psd_least_squares(g[None], c[None], basis, 50)
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
        [res] = psd_least_squares(g[None], c[None], basis, 50)
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
        [res] = psd_least_squares(g[None], c[None], basis, 1)
        assert res.n_iter == 1 and not res.converged and res.gap > GAP_TOL
        assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0


class TestQuadratic:
    def test_cost_is_the_excess_weighted_cost(self):
        # f(z) = ||L z - y||^2 less its minimum, for g = L^T L and c the
        # least-squares solution of L c = y: the cost of a result at step 0
        # is f at its start
        rng, _, basis = _problem(0)
        lin = rng.standard_normal((30, 9))
        y = lin @ np.real(np.einsum("iaa->i", basis)) + 0.1 * rng.standard_normal(30)
        c = np.linalg.lstsq(lin, y, rcond=None)[0]
        assert np.linalg.eigvalsh(np.tensordot(c, basis, 1))[0] > 0.0
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        above = np.real(np.einsum("iab,ba->i", basis, h @ h.conj().T))
        starts = np.stack([c, c + above, 10.0 * c, c + 0.01 * above])
        results = psd_minimize(np.tile(lin.T @ lin, (4, 1, 1)), np.tile(c, (4, 1)), basis,
                               starts, 0)
        for z, res in zip(starts, results):
            assert res.n_iter == 0 and np.array_equal(res.x, z)
            excess = np.sum((lin @ z - y) ** 2) - np.sum((lin @ c - y) ** 2)
            assert res.cost == pytest.approx(excess, rel=1e-9, abs=1e-12)
        assert results[0].cost == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gap_is_the_conjugate_bracket(self, seed):
        # the gap at a start is Tr(S Z) + u^T g^-1 u / 4 with u = grad f(z) -
        # A*(Z), grad f(z) = 2 g (z - c): that bracket is f(z) + f*(w) - <w,
        # z> at w = A*(Z), f*(w) = sup_y <w, y> - f(y) = <w, y> - f(y) at its
        # maximizer y = c + g^-1 w / 2, so the gap is f(z) - q(Z), the dual
        # function q(Z) = min_y f(y) - <w, y>
        rng, g, basis = _problem(seed)
        c = rng.standard_normal(9)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        start = np.real(np.einsum("iab,ba->i", basis, h @ h.conj().T + np.eye(3)))
        [res] = psd_minimize(g[None], c[None], basis, start[None], 0)
        assert res.n_iter == 0 and not res.converged
        f = (start - c) @ g @ (start - c)
        assert res.cost == pytest.approx(f, rel=1e-12)
        w = np.real(np.einsum("iab,ba->i", basis, res.dual))
        tr_sz = np.real(np.trace(np.tensordot(start, basis, 1) @ res.dual))
        u = 2.0 * g @ (start - c) - w
        bracket = 0.25 * u @ np.linalg.solve(g, u)
        assert res.gap == pytest.approx(tr_sz + bracket, rel=1e-12)
        y = c + np.linalg.solve(g, w) / 2.0
        conjugate = w @ y - (y - c) @ g @ (y - c)
        assert bracket == pytest.approx(f + conjugate - w @ start, rel=1e-9)
        assert res.gap == pytest.approx(f - ((y - c) @ g @ (y - c) - w @ y), rel=1e-9)
        assert bracket > 0.0


def _boundary_stack(k):
    """k boundary problems, whose unconstrained optima have a negative
    eigenvalue, and one interior problem last: g (k + 1, 9, 9), c (k + 1, 9)
    and the basis."""
    gs, cs = [], []
    for seed in range(k + 1):
        rng, g, basis = _problem(seed)
        target = np.diag([-1.0, 0.5, 2.0]) if seed < k else np.diag([0.5, 1.0, 2.0])
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        gs.append(g)
        cs.append(np.real(np.einsum("iab,ba->i", basis, u @ target @ u.conj().T)))
    return np.stack(gs), np.stack(cs), basis


class TestStart:
    def test_lift_along_the_identity(self):
        # a start off the cone is c lifted along the identity, whose
        # coordinates are Tr E_i, until its smallest eigenvalue is the size
        # of the most negative one of S(c); one inside the cone is c
        g, c, basis = _boundary_stack(3)
        identity = np.real(np.einsum("iaa->i", basis))
        for res, ck in zip(psd_least_squares(g, c, basis, 0), c):
            assert res.n_iter == 0
            w = np.linalg.eigvalsh(np.tensordot(ck, basis, 1))
            lift = (res.x - ck) @ identity / (identity @ identity)
            assert np.allclose(res.x, ck + lift * identity, rtol=0, atol=1e-14)
            start = np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))
            if w[0] > 0.0:
                assert np.array_equal(res.x, ck)
            else:
                assert start[0] == pytest.approx(-w[0], rel=1e-12)

    @pytest.mark.parametrize("low", [0.0, 1e-12, 1e-8])
    def test_floor_is_relative_to_the_largest_eigenvalue(self, low):
        # S(c) singular, or positive definite with its smallest eigenvalue
        # at most START_FLOOR of the largest (4e-9 here), as the S(c) of a
        # noiseless table of a pure state is to round-off: no negative
        # eigenvalue to mirror, so the lift stops at START_FLOOR of the
        # largest.  An S(c) above the floor is the start as it is
        _, g, basis = _problem(0)
        c = np.real(np.einsum("iab,ba->i", basis, np.diag([low, 1.0, 4.0])))
        [res] = psd_least_squares(g[None], c[None], basis, 0)
        start = np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))
        if low > START_FLOOR * 4.0:
            assert np.array_equal(res.x, c)
        else:
            assert start[0] == pytest.approx(START_FLOOR * 4.0, rel=1e-6)
        assert start[0] > 0.0

    def test_stacked_problems_are_their_own(self):
        # each problem of a stack gets the start and the result it gets
        # alone, bit for bit, and stops at its own step
        g, c, basis = _boundary_stack(3)
        for max_iter in (0, 3, 50):
            stacked = psd_least_squares(g, c, basis, max_iter)
            for j, res in enumerate(stacked):
                [alone] = psd_least_squares(g[j:j + 1], c[j:j + 1], basis, max_iter)
                assert np.array_equal(res.x, alone.x) and np.array_equal(res.dual, alone.dual)
                assert res.n_iter == alone.n_iter and res.gap == alone.gap
                assert res.message == alone.message
        assert [res.n_iter == 0 for res in stacked] == [False, False, False, True]
        assert all(res.converged for res in stacked)


class TestPsdMinimize:
    def test_least_squares_is_the_same_solver(self):
        # psd_least_squares runs psd_minimize from the unconstrained
        # solution lifted along the identity: the same call
        # here gives the same result, bit for bit
        rng, g, basis = _problem(3)
        c = np.real(np.einsum("iab,ba->i", basis, np.diag([-1.0, 0.5, 2.0])))
        [res] = psd_least_squares(g[None], c[None], basis, 50)
        assert res.converged and res.n_iter > 0
        w = np.linalg.eigvalsh(np.tensordot(c, basis, 1))
        lift = max(-w[0], START_FLOOR * w[-1]) - w[0]
        start = c + lift * np.real(np.einsum("iaa->i", basis))
        [again] = psd_minimize(g[None], c[None], basis, start[None], 50)
        assert again.n_iter == res.n_iter and again.converged
        assert again.cost == res.cost and again.gap == res.gap
        assert np.array_equal(again.x, res.x) and np.array_equal(again.dual, res.dual)

    def test_optimal_start_is_certified_at_step_0(self):
        # a start at the optimum has f = 0, so the dual start takes its size
        # Tr(S Z) from GAP_TOL / 2, and the gap certifies the start as it is
        g, c, basis = _boundary_stack(0)
        [res] = psd_minimize(g, c, basis, c, 10)
        assert np.array_equal(res.x, c[0]) and res.cost == 0.0
        assert res.n_iter == 0 and res.converged and 0.0 < res.gap <= GAP_TOL
        tr_sz = np.real(np.trace(np.tensordot(c[0], basis, 1) @ res.dual))
        assert tr_sz == pytest.approx(GAP_TOL / 2, rel=1e-9)

    def test_dual_start_takes_its_size_from_f(self):
        # the dual start is (s / d) S^-1, s = |f| at the start
        g, c, basis = _boundary_stack(1)
        start = 5.0 * np.real(np.einsum("iaa->i", basis))
        f = (start - c[0]) @ g[0] @ (start - c[0])
        [res] = psd_minimize(g[:1], c[:1], basis, start[None], 0)
        assert res.n_iter == 0 and not res.converged and res.cost == pytest.approx(f, rel=1e-12)
        assert f > GAP_TOL
        s_mat = np.tensordot(start, basis, 1)
        assert np.allclose(res.dual, f / 3.0 * np.linalg.inv(s_mat), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_any_start_reaches_the_optimum(self, scale):
        # psd_minimize takes any positive definite start: from multiples of
        # the identity far below and far above the optimum, each problem is
        # certified at the optimum psd_least_squares finds from its own start
        g, c, basis = _boundary_stack(3)
        start = np.tile(scale * np.real(np.einsum("iaa->i", basis)), (len(c), 1))
        for res, ref in zip(psd_minimize(g, c, basis, start, 100),
                            psd_least_squares(g, c, basis, 100)):
            assert res.converged and ref.converged and res.n_iter <= 40
            assert abs(res.cost - ref.cost) <= max(res.gap, ref.gap)
            assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0

    @pytest.mark.parametrize("j", range(3))
    def test_every_gap_bounds_the_optimum(self, j):
        # an iterate stopped by its budget is not certified, but its gap is
        # still a bound: cost - gap is at most the optimal cost
        g, c, basis = _boundary_stack(3)
        g, c = g[j:j + 1], c[j:j + 1]
        [full] = psd_least_squares(g, c, basis, 100)
        assert full.converged and full.n_iter > 1
        for max_iter in range(full.n_iter):
            [res] = psd_least_squares(g, c, basis, max_iter)
            assert res.n_iter == max_iter and not res.converged
            assert res.message == "max_iter reached" and res.gap > GAP_TOL
            assert res.cost - res.gap <= full.cost + 1e-12
            assert full.cost - full.gap <= res.cost
            assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0

    def test_round_off_stop(self, monkeypatch):
        # a step that leaves the cone is what round-off does next to a
        # singular optimum.  Forced here by steps of twice the distance to
        # the boundary, the Cholesky factorization of the trial point raises
        # LinAlgError: that step is not taken, and its problem stops at its
        # current iterate, inside the cone, with a finite gap and the result
        # it gets alone, while the interior problem stacked with it is
        # certified at step 0
        g, c, basis = _boundary_stack(2)
        monkeypatch.setattr(optimize, "STEP_FRAC", 2.0)
        stacked = psd_least_squares(g, c, basis, 50)
        assert [res.message for res in stacked] == ["a step left the cone at round-off"] * 2 + [
            "duality gap below GAP_TOL"]
        assert [res.converged for res in stacked] == [False, False, True]
        for j, res in enumerate(stacked):
            [alone] = psd_least_squares(g[j:j + 1], c[j:j + 1], basis, 50)
            assert np.array_equal(res.x, alone.x) and res.gap == alone.gap
            assert res.n_iter == alone.n_iter and np.isfinite(res.gap)
            assert np.linalg.eigvalsh(np.tensordot(res.x, basis, 1))[0] > 0.0
            # the stop does not depend on max_iter once it is reached: the
            # step not taken is the last one of a budget of n_iter + 1
            [cut] = psd_least_squares(g[j:j + 1], c[j:j + 1], basis, res.n_iter + 1)
            assert np.array_equal(cut.x, res.x) and cut.message == res.message

    def test_singular_newton_stop_keeps_its_certificate(self, monkeypatch):
        # a Newton system singular to working precision, forced from the
        # third step on: the step is not taken, though the trial point it
        # leaves is inside both cones, and the gap is that of the iterate the
        # problem stops at and its dual matrix, Tr(S Z) + u^T g^-1 u / 4 with
        # u = grad f(x) - A*(Z)
        g, c, basis = _boundary_stack(1)
        each, solves = optimize._each, []

        def failing_solves(fn, out, *stacks):
            if fn is optimize._solve:
                solves.append(fn)
                if len(solves) > 4:     # the predictor and corrector of steps 1 and 2
                    return np.ones(len(out), dtype=bool)
            return each(fn, out, *stacks)

        monkeypatch.setattr(optimize, "_each", failing_solves)
        res = psd_least_squares(g[:1], c[:1], basis, 50)[0]
        assert res.message == "a step left the cone at round-off" and res.n_iter == 2
        w = np.real(np.einsum("iab,ba->i", basis, res.dual))
        u = 2.0 * g[0] @ (res.x - c[0]) - w
        tr_sz = np.real(np.trace(np.tensordot(res.x, basis, 1) @ res.dual))
        assert res.gap == pytest.approx(tr_sz + 0.25 * u @ np.linalg.solve(g[0], u), rel=1e-12)

    def test_rejects_a_start_off_the_cone(self):
        _, g, basis = _problem(0)
        bad = np.real(np.einsum("iab,ba->i", basis, np.diag([1.0, 1.0, -1.0])))
        with pytest.raises(ValueError, match="not positive definite"):
            psd_minimize(g[None], bad[None], basis, bad[None], 10)
