"""Causal tomography: simulate counting experiments and reconstruct the
tripartite Choi state from them.

The full experiment runs all 27 Pauli setting triples (s on C, t for the
repreparation on D, u on B), N/27 runs each, recording the 8 outcome triples.
Reconstruction is weighted least squares over a Cholesky-parametrized PSD
matrix S = J^dag J, with a large quadratic penalty enforcing that the fitted
map cannot signal from B back to (C, D).  Every residual row, counts and
penalty alike, is real-linear in S, so each model is one real matrix L built
once from the code that defines it; Levenberg-Marquardt then evaluates
r(x) = L [Re S, Im S] + c.  Row k is also Tr(A_k S) + c_k for a Hermitian
A_k, so the exact Jacobian is one real product of J with the stacked A_k.
This fit and that of a conditioned (C, D) state, which has no penalty rows,
share one driver, _wls_fit.  FitConfig holds only what callers set: lam, the
restart seed (0 by default, so a default fit repeats), the number of
restarts and the iteration budget; EPS_CELL and JITTER are constants.
"""

from __future__ import annotations

import csv
import functools
import io
import os
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import matlin, optimize
from .causal import CBD_FACTORS, MEAS_STACK, CausalChoi, no_retro_deviation
from .quantum import DensityOperator, pauli_projector

AXES = ("x", "y", "z")
DEFAULT_RUNS = 200_000
EPS_CELL = 0.5   # count floor in the weight 1/sqrt(max(n, EPS_CELL)) of a cell
JITTER = 1e-3    # restart spread, in units of sqrt(runs per setting)


def _axis_index(a) -> int:
    if isinstance(a, str):
        return AXES.index(a)
    return int(a)


@dataclass(frozen=True)
class CountTable:
    """Counts of one full experiment, indexed [s, t, u, c, b, d].

    Setting axes run over (x, y, z); outcome index 0 means +1, 1 means -1.
    ``n_runs`` is the designed total; the recorded counts fluctuate around
    n_runs/27 per setting when Poisson-sampled.
    """

    counts: np.ndarray
    n_runs: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (3, 3, 3, 2, 2, 2):
            raise ValueError("expected a (3, 3, 3, 2, 2, 2) count array")
        if np.any(c < 0):
            raise ValueError("negative counts")
        object.__setattr__(self, "counts", c.astype(float))

    def setting(self, s, t, u) -> np.ndarray:
        """(c, b, d) block for one setting triple (axis names or indices)."""
        return self.counts[_axis_index(s), _axis_index(t), _axis_index(u)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["s", "t", "u", "c", "b", "d", "count"])
        for si, ti, ui, ci, bi, di in product(range(3), range(3), range(3),
                                              range(2), range(2), range(2)):
            w.writerow([AXES[si], AXES[ti], AXES[ui],
                        1 - 2 * ci, 1 - 2 * bi, 1 - 2 * di,
                        repr(float(self.counts[si, ti, ui, ci, bi, di]))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, n_runs: int | None = None) -> "CountTable":
        """Read the to_csv format.  Cells without a row count zero; rows
        without 7 fields, unknown axes, outcomes other than +-1, repeated
        cells and counts that are negative or not finite raise ValueError."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["s", "t", "u", "c", "b", "d", "count"]:
            raise ValueError("unexpected CSV header")
        counts = np.zeros((3, 3, 3, 2, 2, 2))
        seen = set()
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != 7:
                raise ValueError(f"line {line}: expected 7 fields, got {len(row)}")
            s, t, u, c, b, d, n = row
            if not {s, t, u} <= set(AXES):
                raise ValueError(f"line {line}: unknown axis in {(s, t, u)}")
            outcomes = tuple(int(o) for o in (c, b, d))
            if not set(outcomes) <= {1, -1}:
                raise ValueError(f"line {line}: outcomes {outcomes} are not all +-1")
            idx = (AXES.index(s), AXES.index(t), AXES.index(u),
                   *((1 - o) // 2 for o in outcomes))
            if idx in seen:
                raise ValueError(f"line {line}: duplicate cell {(s, t, u) + outcomes}")
            seen.add(idx)
            value = float(n)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"line {line}: count {n!r} is not finite and non-negative")
            counts[idx] = value
        total = int(round(counts.sum())) if n_runs is None else n_runs
        return cls(counts, total)


# Row i, dotted with vec(T_D tau), gives P(c, b, d | s, t, u) for the i-th
# (s, t, u, c, b, d) cell.
_MEAS_STACK = MEAS_STACK.reshape(216, 64)


def _cell_probabilities(tau_mat: np.ndarray) -> np.ndarray:
    """All 216 values Tr[T_D(tau) Pi_c x Pi_b x T(Pi_d)], flattened."""
    td = matlin.partial_transpose(tau_mat, CBD_FACTORS, "D")
    return np.real(_MEAS_STACK @ td.reshape(-1))


def expected_counts(tau: CausalChoi, n_runs: int = DEFAULT_RUNS) -> CountTable:
    """Noiseless count table: n_runs/27 per setting times the cell probability."""
    cells = _cell_probabilities(tau.mat) * (n_runs / 27.0)
    return CountTable(cells.reshape(3, 3, 3, 2, 2, 2), n_runs)


def sample_counts(tau: CausalChoi, n_runs: int = DEFAULT_RUNS,
                  seed: int | None = None) -> CountTable:
    """Poisson-sample every cell of the expected table independently."""
    rng = np.random.default_rng(seed)
    mean = np.clip(expected_counts(tau, n_runs).counts, 0.0, None)
    return CountTable(rng.poisson(mean).astype(float), n_runs)


@dataclass(frozen=True)
class FitConfig:
    """Penalty weight on the no-retrocausation rows, seed of the restart
    jitter, number of LM runs and the iteration budget of each."""

    lam: float = 1e7
    seed: int | None = 0
    restarts: int = 5
    max_iter: int = 2000

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class FitResult:
    tau: CausalChoi
    cost: float
    chi2: float
    penalty_residual: float
    n_iter: int
    converged: bool
    params: np.ndarray
    config: FitConfig
    restart_costs: tuple = ()

    def to_json(self) -> str:
        import json
        m = self.tau.mat
        cfg = self.config
        return json.dumps({
            "tau": {"re": m.real.tolist(), "im": m.imag.tolist()},
            "chi2": self.chi2,
            "penalty_residual": self.penalty_residual,
            "cost": self.cost,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "config": {"lam": cfg.lam, "eps_cell": EPS_CELL, "seed": cfg.seed,
                       "restarts": cfg.restarts, "jitter": JITTER,
                       "max_iter": cfg.max_iter},
        })


def _penalty_residuals(s_mat: np.ndarray) -> np.ndarray:
    """Deviation of Tr_B(S) from Tr_BD(S) x 1/2, as 32 real numbers."""
    flat = no_retro_deviation(s_mat).reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _real_linear_map(fn, dim: int) -> np.ndarray:
    """Real matrix L with fn(S) = L @ S.reshape(-1).view(float) for a
    real-linear fn: its columns take Re S_ab and Im S_ab in turn."""
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    return np.stack([fn(z * e) for e in units for z in (1.0, 1j)], axis=1)


def _hermitian_stack(lin: np.ndarray, dim: int) -> np.ndarray:
    """The K Hermitian A_k with Tr(A_k S) = row k of lin applied to a
    Hermitian S, as a real (2 dim, dim, K) stack whose entry [p dim + a, b, k]
    is 2 Re (A_k)_ab for p = 0 and 2 Im (A_k)_ab for p = 1."""
    cols = lin.reshape(-1, dim, dim, 2)
    b = cols[..., 0] - 1j * cols[..., 1]
    a = np.swapaxes(b, 1, 2) + b.conj()          # 2 A_k = B_k^T + conj(B_k)
    parts = np.stack([a.real, a.imag])             # (part, k, a, b)
    return np.ascontiguousarray(parts.transpose(0, 2, 3, 1)).reshape(2 * dim, dim, -1)


# Model rows of the 8x8 fit: the 216 cell probabilities, then the 32
# no-retrocausation residuals.
_CBD_MAP = _real_linear_map(
    lambda s: np.concatenate([_cell_probabilities(s), _penalty_residuals(s)]), 8)
_CBD_STACK = _hermitian_stack(_CBD_MAP, 8)


@functools.cache
def _factor_layout(dim: int):
    """Where each parameter x_p enters J: the entries of the real block form
    [[Re J, -Im J], [Im J, Re J]] it fills, with their signs, and the row
    (Re or Im, a, b) of the grid of J A_k entries that holds dr/dx_p."""
    n = dim * dim
    e = np.stack([matlin.cholesky_factor(u, dim) for u in np.eye(n)])   # dJ/dx_p
    blocks = np.concatenate([np.concatenate([e.real, -e.imag], axis=2),
                             np.concatenate([e.imag, e.real], axis=2)], axis=1)
    p, pos = np.nonzero(blocks.reshape(n, -1))
    _, rows = np.nonzero(np.stack([e.real, e.imag], axis=1).reshape(n, -1))
    return pos, p, blocks.reshape(n, -1)[p, pos], rows


def _residual(x: np.ndarray, lin: np.ndarray, const: np.ndarray, dim: int) -> np.ndarray:
    """r(x) = L [Re S, Im S] + c with S = J^dag J built from x."""
    return lin @ matlin.cholesky_psd(x, dim).reshape(-1).view(float) + const


def _jacobian(x: np.ndarray, stack: np.ndarray, dim: int) -> np.ndarray:
    """dr/dx for the rows r_k = Tr(A_k S) + c_k whose _hermitian_stack is stack.

    With S = J^dag J, dr_k/dRe J_ab = 2 Re(J A_k)_ab and dr_k/dIm J_ab =
    2 Im(J A_k)_ab, so every J A_k comes from one real product of the block
    form of J with the stack, and the Jacobian is a gather of its rows.
    """
    pos, src, sign, rows = _factor_layout(dim)
    block = np.zeros(4 * dim * dim)
    block[pos] = sign * x[src]
    grid = block.reshape(2 * dim, 2 * dim) @ stack.reshape(2 * dim, -1)
    return grid.reshape(2 * dim * dim, -1)[rows].T


def _cost_flattened(history, tail_frac: float = 0.1, rel: float = 0.01) -> bool:
    """Whether the cost curve gained less than `rel` over its final stretch.

    A fit that hits max_iter while only polishing the last fraction of a
    percent is effectively converged; only genuinely stuck runs fail this.
    """
    if len(history) < 20:
        return False
    tail = history[int((1.0 - tail_frac) * len(history)):]
    return (tail[0] - tail[-1]) < rel * max(tail[-1], 1e-30)


def _wls_fit(data: np.ndarray, lin: np.ndarray, stack: np.ndarray,
             start: np.ndarray, scale: float, config: FitConfig):
    """Weighted least squares of the model rows (lin, stack) over S = J^dag J.

    The first len(data) rows fit the counts ``data`` with weights
    1/sqrt(max(n, EPS_CELL)); later rows are penalty rows, target 0, weight
    sqrt(lam).  LM starts from the linear inversion ``start`` clipped to
    positive eigenvalues and trace ``scale``, then restarts jittered around
    it.  Returns the best LM result, its chi^2 over the count rows and the
    cost of every run.
    """
    dim = start.shape[0]
    n_penalty = len(lin) - len(data)
    weights = 1.0 / np.sqrt(np.maximum(data, EPS_CELL))
    row_weights = np.concatenate([weights, np.full(n_penalty, np.sqrt(config.lam))])
    lin = lin * row_weights[:, None]
    stack = stack * row_weights
    const = np.concatenate([-data * weights, np.zeros(n_penalty)])

    w, v = matlin.hermitian_eigs(matlin.hermitize(start))
    clipped = (v * np.clip(w, 1e-6 * scale / dim, None)) @ v.conj().T
    base = matlin.cholesky_params(matlin.hermitize(clipped / np.trace(clipped).real * scale), dim)
    rng = np.random.default_rng(config.seed)
    best, costs = None, []
    for k in range(config.restarts):
        x0 = base if k == 0 else base + JITTER * np.sqrt(scale) * rng.standard_normal(base.size)
        res = optimize.levenberg_marquardt(lambda x: _residual(x, lin, const, dim),
                                           lambda x: _jacobian(x, stack, dim),
                                           x0, config.max_iter)
        costs.append(res.cost)
        if best is None or res.cost < best.cost:
            best = res
    counts = _residual(best.x, lin, const, dim)[:len(data)]
    return best, float(counts @ counts), tuple(costs)


def _project_no_retro(mat: np.ndarray) -> np.ndarray:
    """Remove the (traceless) component violating Tr_B tau = rho_C x 1/2."""
    corr = np.einsum("ikjl,ab->iakjbl", no_retro_deviation(mat), np.eye(2) / 2)
    return matlin.hermitize(mat - corr.reshape(8, 8))


def fit_causal_map(table: CountTable, config: FitConfig | None = None) -> FitResult:
    """Reconstruct the Choi state from a count table.

    Parametrizes (N/27) tau = J^dag J with 64 real numbers, minimizes the
    variance-weighted count residuals plus the no-signalling penalty, then
    renormalizes the optimum to unit trace.  The first restart begins at the
    linear-inversion estimate; further restarts jitter around it.
    """
    config = config or FitConfig()
    data = table.counts.reshape(-1)
    # The 27 setting triples are Pauli-complete, so least squares on the
    # (216, 64) system inverts the counts; S = J^dag J carries the N/27 scale.
    v, *_ = np.linalg.lstsq(_MEAS_STACK, data.astype(complex), rcond=None)
    start = matlin.partial_transpose(v.reshape(8, 8), CBD_FACTORS, "D")
    best, chi2, restart_costs = _wls_fit(data, _CBD_MAP, _CBD_STACK, start,
                                         table.n_runs / 27.0, config)
    s_mat = matlin.cholesky_psd(best.x, 8)
    normalized = s_mat / np.trace(s_mat).real
    penalty = float(np.max(np.abs(_penalty_residuals(normalized))))
    converged = (best.converged
                 or (penalty < 1e-6 and _cost_flattened(best.history)))
    tau_mat = _project_no_retro(normalized)
    w_min = float(matlin.hermitian_eigs(tau_mat)[0].min())
    if w_min < 0.0:
        # lift roundoff negatives by blending in 1/8, which obeys the
        # no-retrocausation constraint exactly and maps each eigenvalue w
        # to (1 - eta) w + eta / 8
        eta = min(1e-6, 16.0 * -w_min + 1e-14)
        if (1.0 - eta) * w_min + eta / 8.0 < 0.0:
            # more than roundoff (a fit stopped far from the constraint):
            # the smallest blend that makes tau PSD
            eta = -8.0 * w_min / (1.0 - 8.0 * w_min)
            converged = False
        tau_mat = matlin.hermitize((1.0 - eta) * tau_mat + eta * np.eye(8) / 8.0)
    tau = CausalChoi(DensityOperator(tau_mat, CBD_FACTORS))
    return FitResult(tau=tau, cost=best.cost, chi2=chi2, penalty_residual=penalty,
                     n_iter=best.n_iter, converged=converged,
                     params=best.x, config=config, restart_costs=restart_costs)


# ---------------------------------------------------------------------------
# Tomography of an induced two-qubit state (C with a repreparation on D),
# used for the Berkson analysis of post-selected data.

CD_FACTORS = (("C", 2), ("D", 2))


def _cd_measurement_stack() -> np.ndarray:
    rows = []
    for si, ti, ci, di in product(range(3), range(3), range(2), range(2)):
        op = np.kron(pauli_projector(AXES[si], 1 - 2 * ci),
                     pauli_projector(AXES[ti], 1 - 2 * di).T)
        rows.append(op.T.reshape(-1))
    return np.stack(rows)


_CD_MEAS_STACK = _cd_measurement_stack()


def _cd_cell_probabilities(rho: np.ndarray) -> np.ndarray:
    """All 36 values Tr[rho Pi_c x T(Pi_d)], flattened."""
    return np.real(_CD_MEAS_STACK @ rho.reshape(-1))


_CD_MAP = _real_linear_map(_cd_cell_probabilities, 4)
_CD_STACK = _hermitian_stack(_CD_MAP, 4)


def expected_conditioned_counts(state: DensityOperator, n_runs: int) -> np.ndarray:
    """Noiseless (3, 3, 2, 2) table over (s, t, c, d) for a (C, D) state whose
    D wire is a transposed input: model count (N/9) Tr[rho Pi_c x T(Pi_d)]."""
    if state.factors != CD_FACTORS:
        raise ValueError("expected a state over factors (C, D)")
    cells = _cd_cell_probabilities(state.mat) * (n_runs / 9.0)
    return cells.reshape(3, 3, 2, 2)


def sample_conditioned_counts(state: DensityOperator, n_runs: int,
                              seed: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.poisson(np.clip(expected_conditioned_counts(state, n_runs), 0, None)).astype(float)


def fit_conditioned_state(counts: np.ndarray, config: FitConfig | None = None):
    """Least-squares reconstruction of the induced (C, D) state from a
    (3, 3, 2, 2) count table; 16 Cholesky parameters, no penalty term."""
    config = config or FitConfig()
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (3, 3, 2, 2):
        raise ValueError("expected a (3, 3, 2, 2) count array")
    data = counts.reshape(-1)
    v, *_ = np.linalg.lstsq(_CD_MEAS_STACK, data.astype(complex), rcond=None)
    best, _, _ = _wls_fit(data, _CD_MAP, _CD_STACK, v.reshape(4, 4), data.sum() / 9.0, config)
    s_mat = matlin.cholesky_psd(best.x, 4)
    rho = matlin.hermitize(s_mat / np.trace(s_mat).real)
    return DensityOperator(rho, CD_FACTORS), best


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else all CPUs of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bootstrap_errorbars(table: CountTable, statistic, n_resamples: int = 20,
                        seed: int | None = None,
                        config: FitConfig | None = None) -> dict:
    """Parametric bootstrap around an observed count table.

    Each resample Poisson-fluctuates the observed counts and is refitted with
    a single restart, starting from its own linear inversion; ``statistic``
    (a FitResult -> dict of floats) is then applied to every refit.  Returns
    per-key mean and standard deviation over ``n_resamples`` >= 2 refits.

    The resampled tables are drawn here, in order, from ``seed``; the refits
    run in worker processes, one per usable CPU up to ``n_resamples``, or in
    this process when only one CPU is usable or this process is a daemon,
    which may not start children.  Every refit runs the same code on the same
    inputs, so the result does not depend on the number of workers.
    ``statistic`` runs in this process and need not be picklable.
    """
    if n_resamples < 2:
        raise ValueError(f"a standard deviation needs n_resamples >= 2, got {n_resamples}")
    configs = [replace(config or FitConfig(), restarts=1)] * n_resamples
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(n_resamples):
        sub_seed = int(rng.integers(0, 2**32 - 1))
        tables.append(CountTable(
            np.random.default_rng(sub_seed).poisson(np.clip(table.counts, 0, None)).astype(float),
            table.n_runs))

    # imported here: the pool machinery costs ~20 ms and ~2 MB at import,
    # which callers that never bootstrap should not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(n_resamples, _usable_cpus())
    if workers < 2 or multiprocessing.current_process().daemon:
        fits = list(map(fit_causal_map, tables, configs))
    else:
        with ProcessPoolExecutor(workers) as pool:
            fits = list(pool.map(fit_causal_map, tables, configs))

    samples: dict[str, list] = {}
    for fit in fits:
        for key, val in statistic(fit).items():
            samples.setdefault(key, []).append(float(val))
    return {
        "mean": {k: float(np.mean(v)) for k, v in samples.items()},
        "std": {k: float(np.std(v, ddof=1)) for k, v in samples.items()},
        "n_resamples": n_resamples,
    }
