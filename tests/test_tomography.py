import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcausal import matlin, optimize, quantum, tomography
from qcausal.causal import CBD_FACTORS, build_scenario, induced_state_given_b, joint_distribution
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
        block = table.setting("x", "y", "z")           # (c, b, d)
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
        table = sample_counts(build_scenario("coh"), 5_000, seed=1)
        again = CountTable.from_csv(table.to_csv(), n_runs=table.n_runs)
        assert np.array_equal(again.counts, table.counts)
        assert again.n_runs == table.n_runs

    def test_csv_missing_rows_are_zero(self):
        text = "s,t,u,c,b,d,count\nx,x,x,1,1,1,42.0\n"
        table = CountTable.from_csv(text)
        assert table.counts[0, 0, 0, 0, 0, 0] == 42.0
        assert table.counts.sum() == 42.0

    @pytest.mark.parametrize("row, message", [
        ("x,x,x,1,1", "7 fields"),
        ("w,x,x,1,1,1,5", "unknown axis"),
        ("x,x,x,0,1,1,5", "not all"),
        ("x,x,x,1,1,2,5", "not all"),
        ("x,x,x,1,1,1,-3", "non-negative"),
        ("x,x,x,1,1,1,nan", "finite"),
        ("x,x,x,1,1,1,inf", "finite"),
        ("y,z,x,-1,1,1,7", "duplicate"),
    ])
    def test_csv_rejects_bad_row(self, row, message):
        with pytest.raises(ValueError, match=message):
            CountTable.from_csv(f"s,t,u,c,b,d,count\ny,z,x,-1,1,1,7\n{row}\n")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CountTable(np.zeros((3, 3, 3, 2, 2)), 100)
        with pytest.raises(ValueError):
            CountTable(-np.ones((3, 3, 3, 2, 2, 2)), 100)


class TestFullFit:
    def test_noiseless_recovery(self):
        tau = build_scenario("coh")
        fit = fit_causal_map(expected_counts(tau, 200_000), FAST)
        assert fit.converged
        assert fidelity(fit.tau.tau, tau.tau) > 0.999
        assert fit.penalty_residual < 1e-6

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

    def test_restart_costs_recorded(self):
        fit = fit_causal_map(expected_counts(build_scenario("probc"), 20_000),
                             FitConfig(restarts=3, max_iter=200, seed=0))
        assert len(fit.restart_costs) == 3
        assert fit.cost == pytest.approx(min(fit.restart_costs))

    def test_short_budget_returns_valid_unconverged_fit(self):
        # two iterations leave tau far from the constraint: projecting it
        # back gives an eigenvalue of about -1.4e-3, more than the roundoff
        # blend can lift
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        fit = fit_causal_map(table, FitConfig(restarts=1, max_iter=2))
        assert fit.n_iter == 2
        assert not fit.converged
        assert np.min(np.linalg.eigvalsh(fit.tau.mat)) >= -1e-12

    def test_to_json(self):
        import json
        fit = fit_causal_map(expected_counts(build_scenario("probc"), 20_000), FAST)
        data = json.loads(fit.to_json())
        assert np.array(data["tau"]["re"]).shape == (8, 8)
        assert data["converged"] is True


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("restarts", 0), ("max_iter", 0), ("lam", -1.0), ("lam", float("nan")),
        ("lam", float("inf")),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_default_seed_repeats_fit(self):
        # the jittered restarts draw from the default seed, not OS entropy
        table = sample_counts(build_scenario("coh"), 200_000, seed=0)
        a, b = (fit_causal_map(table, FitConfig(max_iter=300)) for _ in range(2))
        assert a.restart_costs == b.restart_costs
        assert np.array_equal(a.tau.mat, b.tau.mat)

    def test_default_seed_repeats_conditioned_fit(self):
        st_cd, _ = induced_state_given_b(build_scenario("coh"), pauli_projector("z", -1))
        counts = sample_conditioned_counts(st_cd, 100_000, seed=3)
        (rho_a, a), (rho_b, b) = (fit_conditioned_state(counts) for _ in range(2))
        assert a.cost == b.cost
        assert np.array_equal(rho_a.mat, rho_b.mat)


def _direct_model(s_mat, dim):
    """The model rows of S computed without the linear map."""
    if dim == 8:
        return np.concatenate([tomography._cell_probabilities(s_mat),
                               tomography._penalty_residuals(s_mat)])
    return np.real(tomography._CD_MEAS_STACK @ s_mat.reshape(-1))


# the Hermitian stacks that the fits scale by their row weights, by dimension
_STACKS = {8: tomography._CBD_STACK, 4: tomography._CD_STACK}


@pytest.mark.parametrize("dim, lin", [(8, tomography._CBD_MAP), (4, tomography._CD_MAP)])
class TestModelMap:
    def test_shape(self, dim, lin):
        assert lin.shape == ({8: 248, 4: 36}[dim], 2 * dim * dim)
        assert _STACKS[dim].shape == (2 * dim, dim, lin.shape[0])

    def test_residual_matches_model(self, dim, lin):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            x = rng.standard_normal(dim * dim)
            const = rng.standard_normal(lin.shape[0])
            want = _direct_model(matlin.cholesky_psd(x, dim), dim) + const
            got = tomography._residual(x, lin, const, dim)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jacobian_matches_finite_differences(self, dim, lin):
        rng = np.random.default_rng(dim + 1)
        w = rng.uniform(0.5, 2.0, lin.shape[0])
        const = rng.standard_normal(lin.shape[0])
        for _ in range(5):
            x = rng.standard_normal(dim * dim)
            jac = tomography._jacobian(x, _STACKS[dim] * w, dim)
            num = optimize.numeric_jacobian(
                lambda y: tomography._residual(y, lin * w[:, None], const, dim), x)
            assert jac.shape == (lin.shape[0], dim * dim)
            assert np.max(np.abs(jac - num)) <= 1e-6 * np.max(np.abs(jac))

    def test_jacobian_matches_ds_stack(self, dim, lin):
        # column p is L applied to dS/dx_p = E_p^dag J + J^dag E_p, where
        # E_p = dJ/dx_p is the factor built from the p-th unit vector
        rng = np.random.default_rng(dim + 2)
        w = rng.uniform(0.5, 2.0, lin.shape[0])
        for _ in range(5):
            x = rng.standard_normal(dim * dim)
            j = matlin.cholesky_factor(x, dim)
            cols = []
            for unit in np.eye(dim * dim):
                e = matlin.cholesky_factor(unit, dim)
                ds = e.conj().T @ j + j.conj().T @ e
                cols.append((lin * w[:, None]) @ ds.reshape(-1).view(float))
            want = np.stack(cols, axis=1)
            got = tomography._jacobian(x, _STACKS[dim] * w, dim)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


def _ccd_statistic(fit):
    return {"ccd": classify(fit.tau).ccd}


# The spawn test's script repeats this table, statistic and config.
SPAWN_SCRIPT = """
import json, multiprocessing
from qcausal import tomography
from qcausal.causal import build_scenario
from qcausal.witness import classify

def ccd(fit):
    return {"ccd": classify(fit.tau).ccd}

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    tomography._usable_cpus = lambda: 2      # a pool even on one CPU
    table = tomography.sample_counts(build_scenario("physc"), 30_000, seed=9)
    config = tomography.FitConfig(restarts=1, max_iter=400)
    print(json.dumps(tomography.bootstrap_errorbars(table, ccd, n_resamples=3,
                                                    seed=11, config=config)))
"""


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

    def test_in_process_matches_pool(self, monkeypatch):
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: 2)
        pooled = self._physc_bootstrap()
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: 1)
        assert self._physc_bootstrap() == pooled
        # a daemonic process may not start workers, so it fits in-process
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert self._physc_bootstrap() == pooled

    def test_spawn_start_method(self, tmp_path):
        # spawned workers import qcausal afresh and receive every job pickled
        script = tmp_path / "spawn_bootstrap.py"
        script.write_text(SPAWN_SCRIPT)
        src = str(Path(tomography.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert json.loads(out.stdout) == self._physc_bootstrap()

    @pytest.mark.parametrize("n_resamples", [1, 0])
    def test_needs_two_resamples(self, n_resamples):
        table = sample_counts(build_scenario("physc"), 30_000, seed=9)
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_errorbars(table, _ccd_statistic, n_resamples=n_resamples, config=FAST)
