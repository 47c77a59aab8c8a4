import csv
import dataclasses
import io
import json
import warnings
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcausal import causal, matlin, optimize, quantum, tomography
from qcausal.causal import (
    CBD_FACTORS,
    CausalChoi,
    build_scenario,
    induced_state_given_b,
    joint_distribution,
    no_retro_deviation,
    random_probabilistic_mixture,
)
from qcausal.quantum import fidelity, pauli_projector
from qcausal.tomography import (
    CountTable,
    FitConfig,
    bootstrap_errorbars,
    expected_conditioned_counts,
    expected_counts,
    fit_causal_map,
    fit_conditioned_state,
    sample_conditioned_counts,
    sample_counts,
)
from qcausal.witness import classify

FAST = FitConfig(restarts=1, max_iter=400)


class TestCountTable:
    def test_expected_totals(self):
        table = expected_counts(build_scenario("coh"), 27_000)
        assert table.counts.sum() == pytest.approx(27_000, abs=1e-6)
        # each setting triple gets N/27 runs
        assert np.allclose(table.counts.sum(axis=(3, 4, 5)), 1000.0, atol=1e-9)

    def test_matches_joint_distribution(self):
        tau = build_scenario("physc")
        table = expected_counts(tau, 27_000)
        block = table.counts[0, 1, 2]                   # (c, b, d) at (x, y, z)
        joint = joint_distribution(tau, "x", "y", "z")  # (c, d, b), sums to 1
        assert np.allclose(block, joint.transpose(0, 2, 1) * 1000.0, atol=1e-9)

    def test_sampling_deterministic(self):
        tau = build_scenario("probq")
        a = sample_counts(tau, 10_000, seed=7)
        b = sample_counts(tau, 10_000, seed=7)
        c = sample_counts(tau, 10_000, seed=8)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_csv_roundtrip(self):
        # to_csv writes one row per cell, with the axes and +-1 outcomes of
        # its index, and a count that reads back exactly
        table = sample_counts(build_scenario("coh"), 5_000, seed=1)
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows[0] == ["s", "t", "u", "c", "b", "d", "count"] and len(rows) == 217
        again = np.zeros_like(table.counts)
        for s, t, u, c, b, d, n in rows[1:]:
            idx = tuple(tomography.AXES.index(a) for a in (s, t, u))
            again[idx + tuple((1 - int(o)) // 2 for o in (c, b, d))] = float(n)
        assert np.array_equal(again, table.counts)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CountTable(np.zeros((3, 3, 3, 2, 2)), 100)
        with pytest.raises(ValueError):
            CountTable(-np.ones((3, 3, 3, 2, 2, 2)), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
    def test_rejects_bad_count(self, bad):
        counts = expected_counts(build_scenario("coh"), 27_000).counts.copy()
        counts[1, 2, 0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            CountTable(counts, 27_000)


# An independent reference for the tau_CBD fit, apart from tomography's model,
# basis, solver and certificate: the 216 cell operators M_k = Pi_c x Pi_b x
# T(Pi_d) built by kron, the no-retrocausation span from an explicit partial
# trace, and the Neyman-weighted cost over that span in closed form.
_CBD_OPS = np.stack([np.kron(np.kron(pauli_projector(tomography.AXES[si], 1 - 2 * ci),
                                     pauli_projector(tomography.AXES[ui], 1 - 2 * bi)),
                             pauli_projector(tomography.AXES[ti], 1 - 2 * di).T)
                     for si, ti, ui, ci, bi, di in product(range(3), range(3), range(3),
                                                           range(2), range(2), range(2))])


def _kron_means(s_mat):
    """Tr(M_k S) for the 216 cells (s, t, u, c, b, d) of a Hermitian S."""
    return np.real(np.einsum("kab,ba->k", _CBD_OPS, s_mat))


def _no_retro_span():
    """Orthonormal Hermitian basis (52, 8, 8) of the S with Tr_B S = Tr_BD S x 1/2."""
    full = np.zeros((64, 8, 8), dtype=complex)
    for e, (a, b) in zip(full, product(range(8), repeat=2)):
        e[a, b] += 1.0 if a <= b else 1j
        e[b, a] += 1.0 if a <= b else -1j
    full /= np.sqrt(np.einsum("iab,iba->i", full, full).real)[:, None, None]
    t = full.reshape(64, 2, 2, 2, 2, 2, 2)
    marg = np.einsum("ncbdebf->ncdef", t)                 # Tr_B, (c, d, c', d')
    rho_c = np.einsum("ncded->nce", marg)                 # Tr_BD
    dev = (marg - np.einsum("nce,df->ncdef", rho_c, np.eye(2) / 2)).reshape(64, -1)
    _, sing, vh = np.linalg.svd(np.concatenate([dev.real, dev.imag], axis=1).T)
    return np.tensordot(vh[int(np.sum(sing > 1e-10)):], full, 1)


@cache
def _span_model():
    """The test's own span basis and the kron-model cell means of each of
    its elements, (216, 52)."""
    basis = _no_retro_span()
    return basis, np.real(np.einsum("kab,iba->ki", _CBD_OPS, basis))


def _span_least_squares(counts, z_mat=None):
    """The Neyman-weighted cost over the no-retrocausation span, from the
    kron model: with a the cell means of the span's basis and W = diag(1 /
    max(n, EPS_CELL)), the minimizer S of (a y - n)^T W (a y - n) - Tr(Z S)
    over the span and its value, for a Hermitian Z (0 by default).  At Z = 0
    that is the equality-constrained least-squares solution; at Z >= 0 the
    value is the dual function, a lower bound on the constrained optimum."""
    basis, a = _span_model()
    w = 1.0 / np.maximum(counts, tomography.EPS_CELL)
    zv = np.zeros(len(basis)) if z_mat is None else np.real(np.einsum("ab,iba->i", z_mat, basis))
    y = np.linalg.solve(2.0 * (a.T * w) @ a, 2.0 * (a.T * w) @ counts + zv)
    r = a @ y - counts
    return np.tensordot(y, basis, 1), float(np.sum(w * r * r) - zv @ y)


def _neyman_chi2(s_mat, counts):
    """sum_k (Tr(M_k S) - n_k)^2 / max(n_k, EPS_CELL) over the kron model."""
    return float(np.sum((_kron_means(s_mat) - counts) ** 2 / np.maximum(counts, tomography.EPS_CELL)))


class TestFullFit:
    def test_noiseless_recovery(self):
        tau = build_scenario("coh")
        fit = fit_causal_map(expected_counts(tau, 200_000), FAST)
        assert fit.converged
        assert fidelity(fit.tau.tau, tau.tau) > 0.999
        assert fit.penalty_residual < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_noiseless_roundtrip_recovers_the_truth(self, seed):
        # the expected counts of a random probabilistic mixture fit back to
        # the mixture itself, with a certified gap
        tau = random_probabilistic_mixture(seed)
        fit = fit_causal_map(expected_counts(tau, 200_000))
        assert fit.converged
        assert 1.0 - fidelity(fit.tau.tau, tau.tau) <= 1e-9

    def test_poisson_recovery(self):
        tau = build_scenario("probq")
        fit = fit_causal_map(sample_counts(tau, 200_000, seed=5),
                             FitConfig(restarts=1, max_iter=1000))
        assert fidelity(fit.tau.tau, tau.tau) > 0.97
        assert fit.chi2 < 1000.0

    def test_result_is_valid_causal_choi(self):
        fit = fit_causal_map(sample_counts(build_scenario("physc"), 50_000, seed=2), FAST)
        # CausalChoi construction enforces trace, PSD and no-retrocausation
        assert fit.tau.tau.factors == CBD_FACTORS

    def test_short_budget_returns_valid_unconverged_fit(self):
        # one interior-point step leaves the gap far above GAP_TOL, but every
        # iterate lies in the no-retrocausation span and is positive definite
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        fit = fit_causal_map(table, FitConfig(max_iter=1))
        assert fit.n_iter == 1
        assert not fit.converged and fit.gap > optimize.GAP_TOL
        assert np.min(np.linalg.eigvalsh(fit.tau.mat)) > 0.0
        # the CausalChoi validation (trace, PSD, no-retrocausation) accepts it again
        CausalChoi(quantum.DensityOperator(fit.tau.mat, CBD_FACTORS))
        assert fit_causal_map(table, FitConfig(max_iter=2)).n_iter == 2

    @pytest.mark.parametrize("name", ["probc", "physc", "probq", "coh"])
    def test_roundtrip_fits_reach_the_gap(self, name):
        # every fit of the acceptance round trip (criterion 07), with its
        # budgets: the noiseless fit, the bootstrap refits at 800 steps and
        # the 20 seeded fits at 1000 steps
        tau = build_scenario(name)
        assert fit_causal_map(expected_counts(tau, 200_000), FitConfig(restarts=1)).converged
        bs = bootstrap_errorbars(sample_counts(tau, 200_000, seed=100),
                                 lambda f: {"certified": f.converged and f.gap <= optimize.GAP_TOL},
                                 n_resamples=10, seed=101, config=FitConfig(max_iter=800))
        assert bs["mean"]["certified"] == 1.0
        for seed in range(20):
            fit = fit_causal_map(sample_counts(tau, 200_000, seed=seed),
                                 FitConfig(restarts=1, max_iter=1000))
            assert fit.converged and fit.gap <= optimize.GAP_TOL, (name, seed)

    @pytest.mark.parametrize("n_runs", [0, 1000])
    def test_rejects_empty_table(self, n_runs):
        with pytest.raises(ValueError, match="empty"):
            fit_causal_map(CountTable(np.zeros((3, 3, 3, 2, 2, 2)), n_runs), FAST)

    @pytest.mark.parametrize("n_runs", [0, -27_000])
    def test_rejects_counts_without_runs(self, n_runs):
        # the table checks its own runs, so no fit is handed one without
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        with pytest.raises(ValueError, match="n_runs"):
            CountTable(table.counts, n_runs)

    def test_rejects_a_stacked_table_without_runs(self):
        # a copy of a valid table with its runs set to 0 is checked too, so
        # no table of a stack can hold counts without runs
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        with pytest.raises(ValueError, match="n_runs"):
            dataclasses.replace(table, n_runs=0)

    def test_rejects_no_tables(self):
        with pytest.raises(ValueError, match="at least one count table"):
            tomography.fit_causal_maps([], FAST)

    def test_penalty_residual_is_the_deviation_of_tau(self):
        fit = fit_causal_map(sample_counts(build_scenario("coh"), 200_000, seed=0), FAST)
        assert fit.penalty_residual == np.max(np.abs(no_retro_deviation(fit.tau.mat)))

    @staticmethod
    def _fit_and_means():
        """A fit of sampled counts, the counts and the kron-model means of
        its unnormalized S, which tau must be S over its trace."""
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        fit = fit_causal_map(table, FAST)
        s_mat = np.tensordot(fit.params, tomography._NO_RETRO_BASIS, 1)
        assert np.allclose(fit.tau.mat, s_mat / np.trace(s_mat).real, rtol=0, atol=1e-15)
        return fit, table.counts.reshape(-1), _kron_means(s_mat)

    def test_cost_is_full_weighted_cost(self):
        # chi2 is the Neyman-weighted cost of the same S over all 216 cells,
        # weights 1/max(n, 0.5); cost is chi2 less its unconstrained minimum
        # over the no-retrocausation span, here a boundary fit
        fit, n, m = self._fit_and_means()
        assert fit.chi2 == pytest.approx(np.sum((m - n) ** 2 / np.maximum(n, 0.5)), rel=1e-12)
        assert fit.cost == pytest.approx(fit.chi2 - _span_least_squares(n)[1], rel=1e-9)
        assert fit.cost > 1.0

    @pytest.mark.parametrize("name", ["probc", "physc", "probq", "coh", "epsmix"])
    def test_optimality_certificate(self, name):
        # the solver call of fit_causal_map, certified, and its certificate
        # rebuilt with the kron model over the test's own span
        table = sample_counts(build_scenario(name), 200_000, seed=0)
        fit = fit_causal_map(table)
        assert fit.converged and fit.gap <= optimize.GAP_TOL
        data, [res] = _stack_solve([table], FitConfig().max_iter)
        assert np.array_equal(res.x, fit.params) and res.gap == fit.gap
        _check_cbd_certificate(data[0], res)

    @pytest.mark.parametrize("name", ["physc", "epsmix"])
    def test_interior_fit_is_the_closed_form(self, name):
        # the equality-constrained least-squares solution of the kron model
        # over the span is positive definite: the fit starts there and
        # certifies it at step 0, at cost 0
        table = sample_counts(build_scenario(name), 200_000, seed=0)
        n = table.counts.reshape(-1)
        s_ref, chi2_ref = _span_least_squares(n)
        assert np.linalg.eigvalsh(s_ref)[0] > 0.0
        fit = fit_causal_map(table)
        assert fit.n_iter == 0 and fit.converged and fit.cost == 0.0
        s_mat = np.tensordot(fit.params, tomography._NO_RETRO_BASIS, 1)
        assert np.max(np.abs(s_mat - s_ref)) <= 1e-10 * np.max(np.abs(s_ref))
        assert fit.chi2 == pytest.approx(chi2_ref, rel=1e-10)

    def test_to_json(self):
        fit = fit_causal_map(expected_counts(build_scenario("probc"), 20_000), FAST)
        data = json.loads(fit.to_json())
        assert np.array(data["tau"]["re"]).shape == (8, 8)
        assert data["converged"] is True
        assert data["gap"] == fit.gap <= optimize.GAP_TOL
        assert data["config"] == {"eps_cell": tomography.EPS_CELL, "max_iter": FAST.max_iter}

    def test_uncertified_fit_carries_its_gap(self):
        # a fit stopped by its budget of one step is not certified, but tau is
        # still a causal Choi state and the fit and its JSON carry its finite gap
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        fit = fit_causal_map(table, FitConfig(max_iter=1))
        assert not fit.converged and fit.n_iter == 1
        assert optimize.GAP_TOL < fit.gap < np.inf
        assert isinstance(fit.tau, CausalChoi)
        assert np.linalg.eigvalsh(fit.tau.mat)[0] > 0.0
        data = json.loads(fit.to_json())
        assert data["converged"] is False and data["gap"] == fit.gap
        assert data["config"]["max_iter"] == 1


def _stack_solve(tables, max_iter):
    """The solver call of fit_causal_maps, for its certificates: the tables
    as one stack of least-squares problems."""
    data = np.stack([t.counts.reshape(-1) for t in tables])
    g, c = tomography._neyman_quadratic(tomography._CBD_ROWS, data,
                                        tomography._count_weights(data))
    return data, optimize.psd_least_squares(g, c, tomography._NO_RETRO_BASIS, max_iter)


def _check_cbd_certificate(counts, res):
    """Check a tau_CBD fit's optimality certificate with the kron model over
    the test's own span, as _check_certificate does for the (C, D) fit: S
    and the returned dual matrix Z are PSD, Tr(Z S) is within GAP_TOL, the
    duality gap chi2(S) - dual(Z) is res.gap and within GAP_TOL, and
    res.cost is chi2(S) less its unconstrained minimum over the span."""
    s_mat = np.tensordot(res.x, tomography._NO_RETRO_BASIS, 1)
    chi2 = _neyman_chi2(s_mat, counts)
    assert res.cost == pytest.approx(chi2 - _span_least_squares(counts)[1], abs=1e-9 * chi2)
    assert np.linalg.eigvalsh(s_mat)[0] > 0.0
    z_mat = res.dual
    assert np.linalg.eigvalsh(z_mat)[0] >= -1e-12 * max(np.abs(z_mat).max(), 1.0)
    assert np.real(np.trace(z_mat @ s_mat)) <= optimize.GAP_TOL
    gap = chi2 - _span_least_squares(counts, z_mat)[1]
    assert gap <= optimize.GAP_TOL + 1e-9 * chi2
    assert gap == pytest.approx(res.gap, abs=1e-9 * chi2)


def _first_tables(name, n_runs, count, seed=2000):
    """The first ``count`` non-empty tables of a scenario at n_runs, in
    sample seed order from ``seed``."""
    tau, tables = build_scenario(name), []
    while len(tables) < count:
        table = sample_counts(tau, n_runs, seed=seed)
        if table.counts.any():
            tables.append(table)
        seed += 1
    return tables


class TestStackedFit:
    # four tables at N = 2e5, of which physc and epsmix are interior and
    # certified at step 0, and two sparse tables
    TABLES = (("coh", 200_000, 0), ("probc", 200_000, 0), ("physc", 200_000, 0),
              ("epsmix", 200_000, 0), ("probq", 4, 2638), ("coh", 27, 0))

    def _tables(self):
        return [sample_counts(build_scenario(name), n, seed=seed) for name, n, seed in self.TABLES]

    @pytest.mark.parametrize("max_iter", [5, 10, 14, 2000])
    def test_each_problem_is_its_own_solve(self, max_iter):
        tables = self._tables()
        data, stacked = _stack_solve(tables, max_iter)
        for table, res in zip(tables, stacked):
            [alone] = _stack_solve([table], max_iter)[1]
            assert res.n_iter == alone.n_iter <= max_iter
            assert res.converged == alone.converged and res.message == alone.message
            assert np.array_equal(res.x, alone.x) and np.array_equal(res.dual, alone.dual)
            assert res.cost == alone.cost and res.gap == alone.gap
        messages = [res.message for res in stacked]
        if max_iter >= 14:
            # the sparse probq table of 4 runs certifies in 8 steps, and every
            # result at max_iter = 14 is the one of max_iter = 2000, bit for bit
            assert messages == ["duality gap below GAP_TOL"] * 6
            assert [res.n_iter for res in stacked] == [11, 8, 0, 0, 8, 8]
            for res, full in zip(stacked, _stack_solve(tables, 2000)[1]):
                assert np.array_equal(res.x, full.x) and res.gap == full.gap
        else:
            assert "max_iter reached" in messages and "duality gap below GAP_TOL" in messages
        for counts, res in zip(data, stacked):
            assert np.isfinite(res.gap)
            if res.converged:
                _check_cbd_certificate(counts, res)
            else:
                s_mat = np.tensordot(res.x, tomography._NO_RETRO_BASIS, 1)
                assert np.linalg.eigvalsh(s_mat)[0] > 0.0 and res.gap > optimize.GAP_TOL

    def test_starts_are_their_own(self):
        # each table's quadratic and start in a stack are the ones it gets
        # alone, bit for bit; an interior table starts at its c
        tables = self._tables()
        data, starts = _stack_solve(tables, 0)
        g, c = tomography._neyman_quadratic(tomography._CBD_ROWS, data,
                                            tomography._count_weights(data))
        for j, (table, counts, start) in enumerate(zip(tables, data, starts)):
            g_one, c_one = tomography._neyman_quadratic(tomography._CBD_ROWS, counts,
                                                        tomography._count_weights(counts))
            assert np.array_equal(g[j], g_one) and np.array_equal(c[j], c_one)
            [alone] = _stack_solve([table], 0)[1]
            assert start.n_iter == 0 and np.array_equal(start.x, alone.x)
        assert [np.array_equal(start.x, cj) for start, cj in zip(starts, c)] == [
            False, False, True, True, False, False]

    def test_certified_problem_stays_frozen(self):
        # a problem certified early leaves the stack: the steps the others
        # take after it change none of its result
        tables = self._tables()
        _, full = _stack_solve(tables, 2000)
        early = min((j for j in range(len(full)) if full[j].n_iter > 0),
                    key=lambda j: full[j].n_iter)
        assert full[early].converged and full[early].n_iter < max(r.n_iter for r in full)
        _, cut = _stack_solve(tables, full[early].n_iter)
        assert cut[early].converged
        assert np.array_equal(cut[early].x, full[early].x)
        assert np.array_equal(cut[early].dual, full[early].dual)
        assert cut[early].gap == full[early].gap and cut[early].n_iter == full[early].n_iter

    @pytest.mark.parametrize("n_runs, seeds", [(27, range(10)), (5, range(10, 40))],
                             ids=["27_runs", "5_runs"])
    def test_sparse_tables_are_certified(self, n_runs, seeds):
        # every cell carries a weight, the cells without counts too, so the
        # quadratic is positive definite at any N: every fit is certified,
        # and every certificate checked directly
        tables = [sample_counts(build_scenario(name), n_runs, seed=seed)
                  for name in ("probc", "physc", "probq", "coh", "epsmix") for seed in seeds]
        data, stacked = _stack_solve(tables, 2000)
        for counts, res in zip(data, stacked):
            assert res.converged and res.gap <= optimize.GAP_TOL
            _check_cbd_certificate(counts, res)
        assert all(fit.converged for fit in tomography.fit_causal_maps(tables))

    @pytest.mark.parametrize("n_runs", [3, 4, 5, 6])
    def test_very_sparse_tables_are_certified(self, n_runs):
        # tables of 3 to 6 runs, the first 20 non-empty ones from sample seed
        # 2000 of each scenario, one stack per scenario: every fit certified
        # within 30 steps
        for name in ("probc", "physc", "probq", "coh", "epsmix"):
            tables = _first_tables(name, n_runs, 20)
            data, stacked = _stack_solve(tables, 2000)
            for counts, res in zip(data, stacked):
                assert res.converged and res.n_iter <= 30, (name, res.n_iter)
                _check_cbd_certificate(counts, res)

    def test_round_off_failures_stop_their_problem(self, monkeypatch):
        # steps of twice the distance to the boundary stand in for what
        # round-off does next to a singular optimum: a step that leaves the
        # cone is not taken, and only its problem stops, at its current
        # iterate inside the cone, with a finite gap and the result it gets
        # alone; the interior tables stacked with it are certified at step 0
        monkeypatch.setattr(optimize, "STEP_FRAC", 2.0)
        tables = self._tables()
        data, stacked = _stack_solve(tables, 2000)
        for table, res in zip(tables, stacked):
            [alone] = _stack_solve([table], 2000)[1]
            assert np.array_equal(res.x, alone.x) and res.n_iter == alone.n_iter
            assert res.gap == alone.gap and res.message == alone.message
            assert np.isfinite(res.gap)
            s_mat = np.tensordot(res.x, tomography._NO_RETRO_BASIS, 1)
            assert np.linalg.eigvalsh(s_mat)[0] > 0.0
        assert [res.message for res in stacked] == ["a step left the cone at round-off"] * 2 + [
            "duality gap below GAP_TOL"] * 2 + ["a step left the cone at round-off"] * 2
        for j in (2, 3):
            assert stacked[j].n_iter == 0
            _check_cbd_certificate(data[j], stacked[j])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_iter=st.integers(1, 15))
    def test_converged_fits_carry_their_certificate(self, seed, max_iter):
        # random probabilistic mixtures at N log-uniform in [3, 2e5], under a
        # budget of a few steps: a fit that says it converged carries its
        # checked certificate; one that does not is inside the cone, and its
        # gap still bounds the optimum: cost - gap is at most the optimal cost
        rng = np.random.default_rng(seed)
        n_runs = int(round(np.exp(rng.uniform(np.log(3.0), np.log(2e5)))))
        table = sample_counts(random_probabilistic_mixture(rng), n_runs, seed=seed)
        assume(table.counts.any())
        data, [res] = _stack_solve([table], max_iter)
        if res.converged:
            _check_cbd_certificate(data[0], res)
        else:
            assert res.message == "max_iter reached" and res.n_iter == max_iter
            assert optimize.GAP_TOL < res.gap < np.inf
            s_mat = np.tensordot(res.x, tomography._NO_RETRO_BASIS, 1)
            assert np.linalg.eigvalsh(s_mat)[0] > 0.0
            [full] = _stack_solve([table], FitConfig().max_iter)[1]
            assert full.converged
            assert res.cost - res.gap <= full.cost + 1e-9 * max(full.cost, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_mixtures_are_certified(self, seed):
        # random probabilistic mixtures at N log-uniform in [3, 2e5], sparse
        # tables included: every fit is certified, tau is a causal Choi state
        # and the certificate rebuilds with the kron model
        rng = np.random.default_rng(seed)
        n_runs = int(round(np.exp(rng.uniform(np.log(3.0), np.log(2e5)))))
        table = sample_counts(random_probabilistic_mixture(rng), n_runs, seed=seed)
        assume(table.counts.any())
        fit = fit_causal_map(table)
        assert isinstance(fit.tau, CausalChoi)
        assert fit.converged and fit.gap <= optimize.GAP_TOL
        data, [res] = _stack_solve([table], FitConfig().max_iter)
        assert np.array_equal(res.x, fit.params) and res.gap == fit.gap
        _check_cbd_certificate(data[0], res)

    @pytest.mark.parametrize("stack", ["fit_poisson", "pipeline_bootstrap"])
    def test_benchmark_stacks_take_their_steps(self, stack):
        # the steps of the benchmark's tau fits, pinned, so that a change
        # that keeps every fit bit for bit shows it here: the five tables at
        # N = 2e5 of fit_poisson, and the pipeline's stack of the coh table
        # at sample seed 1 with its ten bootstrap resamples
        if stack == "fit_poisson":
            tables = [sample_counts(build_scenario(name), 200_000, seed=0)
                      for name in ("probc", "physc", "probq", "coh", "epsmix")]
            steps = [8, 0, 10, 11, 0]
        else:
            table = sample_counts(build_scenario("coh"), 200_000, seed=1)
            tables = [table, *tomography.bootstrap_resamples(table, 10, seed=1)]
            steps = [11, 11, 11, 10, 11, 10, 11, 11, 11, 11, 11]
        fits = tomography.fit_causal_maps(tables)
        assert all(fit.converged for fit in fits)
        assert [fit.n_iter for fit in fits] == steps

    @pytest.mark.parametrize("n_runs, seed", [(10**10, 6), (10**11, 1)])
    def test_gap_of_a_large_table_is_not_negative(self, n_runs, seed):
        # at large N the coordinate sum z . A*(Z) of Tr(S Z) cancels to below
        # 0; the gap takes it as ||L^H R||^2 from the Cholesky factors
        fit = fit_causal_map(sample_counts(build_scenario("probc"), n_runs, seed=seed))
        assert fit.gap >= 0.0 and fit.converged == (fit.gap <= optimize.GAP_TOL)


class TestNoiselessTables:
    # noiseless tables of pure-state scenarios, whose unconstrained S(c) is
    # singular to round-off: its smallest eigenvalue can come out just above
    # 0, and a start there would give a dual start of the size of
    # 1/round-off.  Such a start is lifted to the floor like one just below
    # 0, so each fit is certified in a few steps, with no RuntimeWarning
    @pytest.mark.parametrize("name, n_runs", [("probc", 3), ("probc", 141), ("probq", 11),
                                              ("probq", 22), ("coh", 2), ("coh", 91)])
    def test_tau_fit_is_certified(self, name, n_runs):
        fit = fit_causal_map(expected_counts(build_scenario(name), n_runs))
        assert fit.converged and fit.gap <= optimize.GAP_TOL and fit.n_iter <= 4

    @pytest.mark.parametrize("name, outcome, n_runs", [
        ("probc", +1, 5), ("probc", +1, 10), ("probc", +1, 67),
        ("coh", +1, 25), ("coh", -1, 3), ("coh", -1, 74)])
    def test_conditioned_fit_is_certified(self, name, outcome, n_runs):
        state, _ = induced_state_given_b(build_scenario(name), pauli_projector("z", outcome))
        _, res = fit_conditioned_state(expected_conditioned_counts(state, n_runs))
        assert res.converged and res.gap <= optimize.GAP_TOL and res.n_iter <= 4


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("restarts", 0), ("max_iter", 0), ("lam", -1.0), ("lam", float("nan")),
        ("lam", float("inf")),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_default_seed_repeats_fit(self):
        # the fit has no random start and ignores seed: two calls agree bit for bit
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        a, b, c = (fit_causal_map(table, FitConfig(max_iter=300, seed=s)) for s in (0, 0, 5))
        assert a.cost == b.cost == c.cost
        assert np.array_equal(a.tau.mat, b.tau.mat) and np.array_equal(a.tau.mat, c.tau.mat)

    def test_default_seed_repeats_conditioned_fit(self):
        # the conditioned fit has no seed to draw from: two calls agree bit for bit
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", -1))
        counts = sample_conditioned_counts(st_cd, 100_000, seed=3)
        (rho_a, a), (rho_b, b) = (fit_conditioned_state(counts) for _ in range(2))
        assert a.cost == b.cost
        assert np.array_equal(rho_a.mat, rho_b.mat)


# Kron-built rows of the conditioned fit over (s, t, c, d): the transpose of
# Pi_c x Pi_d, flattened, for sigma_s on C and sigma_t on D, to be applied to
# vec(T_D rho).
_CD_KRON_ROWS = np.stack([np.kron(pauli_projector(tomography.AXES[si], 1 - 2 * ci),
                                  pauli_projector(tomography.AXES[ti], 1 - 2 * di)).T.reshape(-1)
                          for si, ti, ci, di in product(range(3), range(3), range(2), range(2))])


def _direct_model(s_mat, dim):
    """The cell means of S computed from kron-built operators, without the
    fits' row models."""
    if dim == 8:
        return _kron_means(s_mat)
    td = matlin.partial_transpose(s_mat, tomography.CD_FACTORS, "D")
    return np.real(_CD_KRON_ROWS @ td.reshape(-1))


# The basis of each fit, by the dimension of S: the coordinates of its rows.
_BASIS = {8: tomography._NO_RETRO_BASIS, 4: tomography._CD_BASIS}


def _model_jacobian(dim):
    """Jacobian of the kron-built cell means in the coordinates of S = sum_p
    z_p E_p of the fit's basis: column p is the model applied to E_p."""
    return np.stack([_direct_model(e, dim) for e in _BASIS[dim]], axis=1)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dim, lin", [(8, tomography._CBD_ROWS), (4, tomography._CD_ROWS)])
class TestModelMap:
    def test_shape(self, dim, lin):
        n = {8: 52, 4: 16}[dim]
        assert lin.shape == ({8: 216, 4: 36}[dim], n)
        # the basis of each fit: trace-orthonormal Hermitian E_i
        basis = _BASIS[dim]
        assert basis.shape == (n, dim, dim)
        assert matlin.is_hermitian(basis)
        gram = np.einsum("iab,jba->ij", basis, basis)
        assert np.allclose(gram, np.eye(n), atol=1e-15)

    def test_residual_matches_model(self, dim, lin):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            z = rng.standard_normal(lin.shape[1])
            want = _direct_model(np.tensordot(z, _BASIS[dim], 1), dim)
            assert np.max(np.abs(lin @ z - want)) <= 1e-12 * np.max(np.abs(want))

    def test_quadratic_is_the_weighted_cost(self, dim, lin):
        # the quadratic each fit hands the solver, (z - c)^T G (z - c), is
        # its weighted cost under the kron-built model less that cost's
        # minimum, which it takes at c, on random data and count weights
        rng = np.random.default_rng(dim + 1)
        basis = _BASIS[dim]

        def cost(y):
            return np.sum(((_direct_model(np.tensordot(y, basis, 1), dim) - data) * w) ** 2)

        for _ in range(3):
            w = rng.uniform(0.01, 2.0, len(lin))
            data = rng.standard_normal(len(lin)) * 30.0
            g, c = tomography._neyman_quadratic(lin, data, w)
            for z in (c + rng.standard_normal(len(c)), rng.standard_normal(len(c)) * 10.0):
                assert (z - c) @ g @ (z - c) == pytest.approx(cost(z) - cost(c), rel=1e-9)

    def test_jacobian_matches_ds_stack(self, dim, lin):
        # the count rows are the Jacobian J of the model in the fit's
        # coordinates, and the solver reads the quadratic of the weighted
        # rows L = w J: G = L^T L and the c that solves the normal equations
        # G c = L^T (w n)
        jac = _model_jacobian(dim)
        assert _rel(lin, jac) <= 1e-12
        rng = np.random.default_rng(dim + 2)
        for _ in range(5):
            w = rng.uniform(0.01, 2.0, len(lin))
            data = rng.standard_normal(len(lin))
            g, c = tomography._neyman_quadratic(lin, data, w)
            jac_w = jac * w[:, None]
            assert _rel(g, jac_w.T @ jac_w) <= 1e-12
            assert _rel(g @ c, jac_w.T @ (data * w)) <= 1e-12


class TestNoRetroBasis:
    def test_orthonormal_basis_of_the_constraint(self):
        basis = tomography._NO_RETRO_BASIS
        assert basis.shape == (52, 8, 8)
        assert matlin.is_hermitian(basis)
        gram = np.einsum("iab,jba->ij", basis, basis)
        assert np.allclose(gram, np.eye(52), rtol=0, atol=1e-14)
        assert max(np.max(np.abs(no_retro_deviation(f))) for f in basis) <= 1e-15
        # the test's own null space, from an explicit partial trace, is the same span
        own = _no_retro_span().reshape(52, -1)
        overlap = np.real(own.conj() @ basis.reshape(52, -1).T)
        assert np.allclose(overlap @ overlap.T, np.eye(52), rtol=0, atol=1e-12)

    def test_basis_is_the_pauli_strings_that_cannot_signal(self):
        # the basis is 52 of the 64 normalized Pauli strings over (C, B, D),
        # built here by kron; the 12 left out are sigma_C x 1_B x sigma_D
        # with sigma_D != 1
        paulis = [np.eye(2)] + [quantum.SIGMA[a] for a in tomography.AXES]
        strings = {idx: np.kron(np.kron(paulis[idx[0]], paulis[idx[1]]), paulis[idx[2]])
                   / np.sqrt(8.0) for idx in product(range(4), repeat=3)}
        kept = [idx for idx, p in strings.items()
                if any(np.array_equal(f, p) for f in tomography._NO_RETRO_BASIS)]
        assert len(kept) == len(tomography._NO_RETRO_BASIS) == 52
        assert set(strings) - set(kept) == {(c, 0, d) for c in range(4) for d in (1, 2, 3)}
        # a cell's row meets the strings of 1 or its setting's sigma on each
        # wire, eight, of which all but sigma_C x 1_B x sigma_t are kept
        rows = tomography._CBD_ROWS
        assert np.all(np.count_nonzero(rows, axis=1) == 6)
        assert np.allclose(np.abs(rows[rows != 0]), 1.0 / np.sqrt(8.0), rtol=1e-15, atol=0)

    def test_identity_and_scenarios_lie_in_the_span(self):
        basis = tomography._NO_RETRO_BASIS
        identity = np.tensordot(np.real(np.einsum("iaa->i", basis)), basis, 1)
        assert np.max(np.abs(identity - np.eye(8))) <= 1e-14
        for name in ("probc", "physc", "probq", "coh", "epsmix"):
            tau = build_scenario(name).mat
            z = np.real(np.einsum("iab,ba->i", basis, tau))
            assert np.max(np.abs(np.tensordot(z, basis, 1) - tau)) <= 1e-14

    def test_count_rows_are_the_kron_model(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.standard_normal(52)
            s_mat = np.tensordot(z, tomography._NO_RETRO_BASIS, 1)
            want = _kron_means(s_mat)
            assert np.max(np.abs(tomography._CBD_ROWS @ z - want)) <= 1e-13 * np.max(np.abs(want))


# Model of the conditioned fit built here from the Pauli projectors, apart
# from tomography's: a count table's cells over (s, t, c, d) have model
# counts Tr(M_k S) with M_k = Pi_c x T(Pi_d).
_CD_OPS = np.stack([np.kron(pauli_projector(tomography.AXES[si], 1 - 2 * ci),
                            pauli_projector(tomography.AXES[ti], 1 - 2 * di).T)
                    for si, ti, ci, di in product(range(3), range(3), range(2), range(2))])


def _chi2_and_gradient(s_mat, counts):
    """Weighted cost sum_k (Tr(M_k S) - n_k)^2 / max(n_k, EPS_CELL) of a
    Hermitian S and its gradient matrix, the Hermitian G with df = Tr(G dS)."""
    n = counts.reshape(-1)
    w = 1.0 / np.maximum(n, tomography.EPS_CELL)
    r = np.real(np.einsum("kab,ba->k", _CD_OPS, s_mat)) - n
    return float(np.sum(w * r * r)), np.einsum("k,kab->ab", 2.0 * w * r, _CD_OPS)


def _dual_value(z_mat, counts):
    """The dual function min over Hermitian S of cost(S) - Tr(Z S): a lower
    bound on the constrained optimum for every Z >= 0.  Closed form over the
    16 real coordinates of S in the orthonormal Hermitian basis."""
    basis = tomography._CD_BASIS
    a = np.real(np.einsum("kab,iba->ki", _CD_OPS, basis))
    n = counts.reshape(-1)
    w = 1.0 / np.maximum(n, tomography.EPS_CELL)
    zv = np.real(np.einsum("ab,iba->i", z_mat, basis))
    s = np.linalg.solve(2.0 * (a.T * w) @ a, 2.0 * (a.T * w) @ n + zv)
    r = a @ s - n
    return float(np.sum(w * r * r) - zv @ s)


def _fista_chi2(counts, max_iter=20_000):
    """Reference optimum by accelerated projected gradient (FISTA with
    restart on a cost increase; Beck & Teboulle 2009, O'Donoghue & Candes
    2015) over the PSD cone, projecting by clipping eigenvalues."""
    flat = _CD_OPS.reshape(36, 16)
    w = 1.0 / np.maximum(counts.reshape(-1), tomography.EPS_CELL)
    step = 0.5 / np.linalg.eigvalsh((flat.conj().T * w) @ flat)[-1]
    s = np.eye(4, dtype=complex) * counts.sum() / 36.0
    y, t, cost = s, 1.0, np.inf
    for _ in range(max_iter):
        ev, v = np.linalg.eigh(y - step * _chi2_and_gradient(y, counts)[1])
        s_new = (v * np.maximum(ev, 0.0)) @ v.conj().T
        cost_new = _chi2_and_gradient(s_new, counts)[0]
        if cost_new > cost:
            y, t = s, 1.0
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = s_new + (t - 1.0) / t_new * (s_new - s)
        done = cost - cost_new <= 1e-13 * cost_new
        s, t, cost = s_new, t_new, cost_new
        if done:
            break
    return cost


def _check_certificate(counts, rho, res):
    """Check the fit's optimality certificate with the model above: S =
    sum z_i E_i and the returned dual matrix Z are both PSD, Tr(Z S) and the
    duality gap cost(S) - dual(Z) are within GAP_TOL, and the cost matches
    the FISTA optimum to 1e-6.

    Z is the gradient matrix of the cost at the minimizer of the Lagrangian
    cost - Tr(Z .).  The gradient matrix at S itself is no certificate at
    this tolerance: the cost's curvature along S is about twice the number
    of counts, so at a point 1e-6 from the optimum Tr(grad(S) S) can still
    be of order 1e-3."""
    s_mat = np.tensordot(res.x, tomography._CD_BASIS, 1)
    cost, _ = _chi2_and_gradient(s_mat, counts)
    assert cost == pytest.approx(res.cost, rel=1e-9)
    assert np.allclose(rho.mat, s_mat / np.trace(s_mat).real, atol=1e-12)
    assert np.linalg.eigvalsh(s_mat)[0] >= 0.0
    z_mat = res.dual
    assert np.linalg.eigvalsh(z_mat)[0] >= -1e-12 * max(np.abs(z_mat).max(), 1.0)
    assert np.real(np.trace(z_mat @ s_mat)) <= optimize.GAP_TOL
    gap = cost - _dual_value(z_mat, counts)
    assert gap <= optimize.GAP_TOL + 1e-9 * cost
    assert gap == pytest.approx(res.gap, abs=1e-9 * cost)
    reference = _fista_chi2(counts)
    assert abs(res.cost - reference) <= 1e-6 * reference


def _berkson_tables():
    """The berkson_witness benchmark's conditioned tables: the (C, D) state
    given each z outcome on B of each scenario, at N P(b) with N = 2e5,
    Poisson-sampled at seed 0."""
    tables = []
    for name in ("probc", "physc", "probq", "coh", "epsmix"):
        for outcome in (+1, -1):
            state, prob = induced_state_given_b(build_scenario(name),
                                                pauli_projector("z", outcome))
            counts = sample_conditioned_counts(state, int(round(200_000 * prob)), seed=0)
            tables.append(pytest.param(name, counts, id=f"{name}-{outcome:+d}"))
    return tables


class TestConditionedFit:
    def test_expected_table_normalization(self):
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", +1))
        cells = expected_conditioned_counts(st_cd, 9_000)
        assert cells.shape == (3, 3, 2, 2)
        assert np.allclose(cells.sum(axis=(2, 3)), 1000.0, atol=1e-9)

    def test_noiseless_recovery(self):
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", +1))
        rho, res = fit_conditioned_state(expected_conditioned_counts(st_cd, 90_000), FAST)
        assert fidelity(rho, st_cd) > 0.9999

    def test_poisson_recovery(self):
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", -1))
        counts = sample_conditioned_counts(st_cd, 100_000, seed=3)
        rho, _ = fit_conditioned_state(counts, FAST)
        assert fidelity(rho, st_cd) > 0.99

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            fit_conditioned_state(np.zeros((3, 3, 2)))

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            fit_conditioned_state(np.zeros((3, 3, 2, 2)), FAST)

    @pytest.mark.parametrize("fill", [-5.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_rejects_bad_counts(self, fill):
        with pytest.raises(ValueError, match="finite and non-negative"):
            fit_conditioned_state(np.full((3, 3, 2, 2), fill), FAST)

    def test_rejects_one_nan_cell(self):
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", +1))
        counts = expected_conditioned_counts(st_cd, 90_000).copy()
        counts[2, 0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite and non-negative"):
            fit_conditioned_state(counts, FAST)

    @pytest.mark.parametrize("name, counts", _berkson_tables())
    def test_optimality_certificate(self, name, counts):
        rho, res = fit_conditioned_state(counts)
        assert res.converged and res.gap <= optimize.GAP_TOL
        _check_certificate(counts, rho, res)
        # physc and epsmix are interior: the solver starts at the closed form,
        # the optimum, and certifies it there
        assert (res.n_iter == 0) == (name in ("physc", "epsmix"))

    def test_benchmark_tables_take_their_steps(self):
        # the steps of the berkson_witness benchmark's (C, D) fits, pinned,
        # so that a change that keeps every fit bit for bit shows it here
        steps = [fit_conditioned_state(param.values[1])[1].n_iter for param in _berkson_tables()]
        assert steps == [4, 5, 0, 0, 4, 5, 7, 9, 0, 0]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4),
           log_runs=st.floats(2.0, 6.0))
    def test_optimality_certificate_random_tables(self, seed, rank, log_runs):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        state = quantum.DensityOperator(g @ g.conj().T / np.linalg.norm(g) ** 2,
                                        tomography.CD_FACTORS)
        counts = sample_conditioned_counts(state, int(10 ** log_runs), seed=seed)
        assume(counts.any())
        rho, res = fit_conditioned_state(counts)
        assert res.converged
        _check_certificate(counts, rho, res)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_converged_fits_are_positive_definite(self, seed, rank):
        # random two-qubit states at N log-uniform in [27, 2e5]: every fit
        # converges, within GAP_TOL, at a positive definite S
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        state = quantum.DensityOperator(g @ g.conj().T / np.linalg.norm(g) ** 2,
                                        tomography.CD_FACTORS)
        n_runs = int(round(np.exp(rng.uniform(np.log(27.0), np.log(2e5)))))
        counts = sample_conditioned_counts(state, n_runs, seed=seed)
        assume(counts.any())
        _, res = fit_conditioned_state(counts)
        assert res.converged and res.gap <= optimize.GAP_TOL
        assert np.linalg.eigvalsh(np.tensordot(res.x, tomography._CD_BASIS, 1))[0] > 0.0

    @pytest.mark.parametrize("config", [None, FitConfig(max_iter=1)], ids=["optimum", "budget"])
    def test_cost_is_the_weighted_cost_of_every_cell(self, config):
        # cost is sum_k (Tr(M_k S) - n_k)^2 / max(n_k, EPS_CELL) over all 36
        # cells of the kron-built model, for the closed form (physc, epsmix),
        # for certified boundary optima and for a budget-stopped iterate
        for param in _berkson_tables():
            counts = param.values[1]
            _, res = fit_conditioned_state(counts, config)
            cost, _ = _chi2_and_gradient(np.tensordot(res.x, tomography._CD_BASIS, 1), counts)
            assert res.cost == pytest.approx(cost, rel=1e-10)

    def test_short_budget_returns_valid_unconverged_fit(self):
        st_cd, prob = induced_state_given_b(build_scenario("coh"), pauli_projector("z", +1))
        counts = sample_conditioned_counts(st_cd, int(round(200_000 * prob)), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, res = fit_conditioned_state(counts, FitConfig(max_iter=1))
        assert res.n_iter == 1
        assert not res.converged and res.gap > optimize.GAP_TOL
        assert isinstance(rho, quantum.DensityOperator)
        assert np.linalg.eigvalsh(rho.mat)[0] > 0.0
        rho, res = fit_conditioned_state(counts)
        assert res.converged and res.gap <= optimize.GAP_TOL and res.n_iter > 1

    def test_stack_bit_identical_to_kron_loop(self):
        # the rows act on vec(rho): the transpose of Pi_c x Pi_d^T, flattened
        stack = causal._pauli_rows(2).reshape(36, 16)
        ref = _CD_OPS.transpose(0, 2, 1).reshape(36, 16)
        assert np.array_equal(stack, ref)
        assert np.array_equal(np.signbit(stack.view(float)), np.signbit(ref.view(float)))

    def test_cell_probabilities_are_born_rule(self):
        # rows on vec(rho) give Tr[rho Pi_c x T(Pi_d)], the model of _CD_OPS
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = _random_state(rng, 4)
            want = np.real(np.einsum("kab,ba->k", _CD_OPS, rho))
            got = tomography._cell_probabilities(causal._pauli_rows(2), rho)
            assert np.max(np.abs(got - want)) <= 1e-15


# Kron-built rows of the full experiment over (s, t, u, c, b, d): the
# transpose of Pi_c x Pi_b x Pi_d, flattened, to be applied to vec(T_D tau).
_CBD_KRON_ROWS = np.stack([np.kron(np.kron(pauli_projector(tomography.AXES[si], 1 - 2 * ci),
                                           pauli_projector(tomography.AXES[ui], 1 - 2 * bi)),
                                   pauli_projector(tomography.AXES[ti], 1 - 2 * di)).T.reshape(-1)
                           for si, ti, ui, ci, bi, di in product(range(3), range(3), range(3),
                                                                 range(2), range(2), range(2))])


def _random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / np.trace(g @ g.conj().T).real


@pytest.mark.parametrize("cells, kron_rows, factors", [
    (causal.MEAS_STACK, _CBD_KRON_ROWS, causal.CBD_FACTORS),
    (causal._pauli_rows(2), _CD_KRON_ROWS, tomography.CD_FACTORS),
])
def test_cell_probabilities_match_partial_transpose_formula(cells, kron_rows, factors):
    # the rows transpose the prepared wire D on its projector; the reference
    # transposes it on the state instead, Tr[T_D(rho) Pi_c x (Pi_b x) Pi_d]
    rng = np.random.default_rng(24)
    for _ in range(20):
        rho = _random_state(rng, 2 ** len(factors))
        want = np.real(kron_rows @ matlin.partial_transpose(rho, factors, "D").reshape(-1))
        assert np.max(np.abs(tomography._cell_probabilities(cells, rho) - want)) <= 1e-15


def _ccd_statistic(fit):
    return {"ccd": classify(fit.tau).ccd}


class TestBootstrap:
    @staticmethod
    def _physc_bootstrap():
        table = sample_counts(build_scenario("physc"), 30_000, seed=9)
        return bootstrap_errorbars(table, _ccd_statistic, n_resamples=3, seed=11, config=FAST)

    def test_keys_and_determinism(self):
        a = self._physc_bootstrap()
        b = self._physc_bootstrap()
        assert a == b
        assert set(a) == {"mean", "std", "n_resamples"}
        assert a["std"]["ccd"] > 0.0

    def test_matches_fits_one_at_a_time(self):
        # the refits are one stacked solve of the resampled tables, drawn in
        # order from sub-seeds of the seed; each refit is its table's own fit
        table = sample_counts(build_scenario("physc"), 30_000, seed=9)
        rng = np.random.default_rng(11)
        ccd = []
        for _ in range(3):
            draw = np.random.default_rng(int(rng.integers(0, 2**32 - 1)))
            resampled = CountTable(draw.poisson(table.counts).astype(float), table.n_runs)
            ccd.append(_ccd_statistic(fit_causal_map(resampled, FAST))["ccd"])
        bs = self._physc_bootstrap()
        assert bs["mean"]["ccd"] == pytest.approx(np.mean(ccd), rel=0, abs=1e-9)
        assert bs["std"]["ccd"] == pytest.approx(np.std(ccd, ddof=1), rel=0, abs=1e-9)

    def test_empty_resample_is_named(self):
        # two counts, and the second resample draws none: it is neither
        # skipped nor redrawn
        table = sample_counts(build_scenario("coh"), 3, seed=5)
        with pytest.raises(tomography.EmptyResampleError, match="resample 2 of 2 drew no counts"):
            bootstrap_errorbars(table, _ccd_statistic, n_resamples=2, seed=5, config=FAST)

    @pytest.mark.parametrize("n_resamples", [1, 0])
    def test_needs_two_resamples(self, n_resamples):
        table = sample_counts(build_scenario("physc"), 30_000, seed=9)
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_errorbars(table, _ccd_statistic, n_resamples=n_resamples, config=FAST)
