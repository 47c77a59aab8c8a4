"""Causal tomography: simulate counting experiments and reconstruct the
tripartite Choi state from them.

The full experiment runs all 27 Pauli setting triples (s on C, t for the
repreparation on D, u on B), N/27 runs each, recording the 8 outcome
triples.  Both experiments take their Pauli rows from causal's one builder,
in one convention, each row dotted with vec(T_D rho): the 216 rows of
MEAS_STACK for tau_CBD and its two-wire stack, 36 rows, for a (C, D) state
of the Berkson analysis.  Every cell mean is real-linear in the fitted
Hermitian S, so each model is one real matrix built once at import from the
code that defines it.  Both fits are exact convex programs over positive
semidefinite S, solved by optimize.psd_minimize and stopped by a certified
duality gap; of FitConfig they read only max_iter, which caps the
interior-point steps.  fit_causal_maps solves several tables, such as the
bootstrap's resamples, as one stack of problems.

tau_CBD is the Poisson maximum-likelihood estimate (Hradil, PRA 55, R1561
(1997)) over the S that cannot signal from B back to (C, D).  Those S form a
52-dimensional subspace of the Hermitian 8x8 matrices, the null space of
no_retro_deviation; _NO_RETRO_BASIS is a trace-orthonormal basis of it, and
_CBD_ROWS the (216, 52) count model over its coordinates.  The identity lies
in the subspace, and every cell mean is Tr(S P) with P >= 0, so S > 0 keeps
every mean positive.  The fit starts from the Neyman-weighted least-squares
solution lifted along the identity until positive definite.

The (C, D) state is fitted by Neyman-weighted least squares, weights
1/sqrt(max(n, EPS_CELL)), over all Hermitian 4x4 S >= 0: the weighted rows
are put in square-root form, the thin Householder QR L H = Q R over an
orthonormal basis H of the Hermitian matrices, which gives the cost of
S = H z as ||R z + Q^T c||^2 plus a constant, and optimize.psd_least_squares
takes the closed form when that is positive definite.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import matlin, optimize
from .causal import CBD_FACTORS, MEAS_STACK, CausalChoi, _pauli_rows, no_retro_deviation
from .quantum import PAULI_AXES as AXES, DensityOperator

DEFAULT_RUNS = 200_000
EPS_CELL = 0.5   # count floor in the weight 1/sqrt(max(n, EPS_CELL)) of a cell
START_LIFT = 0.01   # smallest start eigenvalue of the tau_CBD fit, over the mean one


def _check_counts(counts: np.ndarray) -> None:
    """ValueError unless every count is finite and non-negative."""
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")


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
        c = np.array(self.counts, dtype=float)
        if c.shape != (3, 3, 3, 2, 2, 2):
            raise ValueError("expected a (3, 3, 3, 2, 2, 2) count array")
        _check_counts(c)
        object.__setattr__(self, "counts", c)

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
    """Settings of the fits.

    Both fits read only max_iter, which caps their interior-point steps.
    lam, seed and restarts are kept, validated, for the penalty weight, the
    restart seed and the restart count of an earlier penalized fit; the
    certified fits have no penalty, no random start and no restart, so they
    ignore them.
    """

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
    """A tau_CBD fit.  cost is the Poisson deviance over two at the fitted S,
    gap the certified bound on its distance to the optimum, chi2 the Neyman
    chi^2 sum_k (m_k - n_k)^2 / max(n_k, EPS_CELL) of the fitted means, and
    penalty_residual the largest no-retrocausation deviation of tau."""

    tau: CausalChoi
    cost: float
    chi2: float
    penalty_residual: float
    n_iter: int
    converged: bool
    gap: float
    params: np.ndarray
    config: FitConfig

    def to_json(self) -> str:
        import json
        m = self.tau.mat
        cfg = self.config
        return json.dumps({
            "tau": {"re": m.real.tolist(), "im": m.imag.tolist()},
            "chi2": self.chi2,
            "penalty_residual": self.penalty_residual,
            "cost": self.cost,
            "gap": self.gap if math.isfinite(self.gap) else None,   # None: no certificate
            "converged": self.converged,
            "n_iter": self.n_iter,
            "config": {"lam": cfg.lam, "eps_cell": EPS_CELL, "seed": cfg.seed,
                       "restarts": cfg.restarts, "max_iter": cfg.max_iter},
        })


def _real_linear_map(fn, dim: int) -> np.ndarray:
    """Real matrix L with fn(S) = L @ S.reshape(-1).view(float) for a
    real-linear fn: its columns take Re S_ab and Im S_ab in turn."""
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    return np.stack([fn(z * e) for e in units for z in (1.0, 1j)], axis=1)


# The 216 cell probabilities of an 8x8 S, as a real-linear map.
_CBD_MAP = _real_linear_map(_cell_probabilities, 8)


@functools.cache
def _basis_stack(dim: int) -> np.ndarray:
    """The trace-orthonormal basis E_i of the Hermitian dim x dim matrices, as
    a complex (dim^2, dim, dim) stack: E_aa, (E_ab + E_ba)/sqrt 2 for a < b
    and i (E_ab - E_ba)/sqrt 2 for a > b.  Its real form H, with columns
    E_i.reshape(-1).view(float), is .reshape(dim^2, -1).view(float).T."""
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    for e, (a, b) in zip(basis, product(range(dim), repeat=2)):
        if a == b:
            e[a, a] = 1.0
        else:
            e[a, b], e[b, a] = (1.0, 1.0) if a < b else (1j, -1j)
            e /= np.sqrt(2.0)
    basis.flags.writeable = False    # cached: every caller shares this array
    return basis


def _real_form(basis: np.ndarray) -> np.ndarray:
    """The real (2 dim^2, n) matrix whose column i is E_i.reshape(-1).view(float)."""
    return basis.reshape(len(basis), -1).view(float).T


def _no_retro_basis() -> np.ndarray:
    """A trace-orthonormal basis of the Hermitian 8x8 S with no_retro_deviation
    S = 0, as a (52, 8, 8) stack: the null space of the 32 real deviation
    rows in the coordinates of _basis_stack(8), whose rank is 12."""
    def rows(s):
        flat = no_retro_deviation(s).reshape(-1)
        return np.concatenate([flat.real, flat.imag])

    deviation = _real_linear_map(rows, 8)
    _, sing, vh = np.linalg.svd(deviation @ _real_form(_basis_stack(8)))
    rank = int(np.sum(sing > 1e-12 * sing[0]))
    basis = np.tensordot(vh[rank:], _basis_stack(8), 1)
    basis.flags.writeable = False
    return basis


# The tau_CBD fit's parameter space and count model: S = sum_i z_i F_i over
# the no-retrocausation basis F, whose 216 cell means are _CBD_ROWS @ z.
_NO_RETRO_BASIS = _no_retro_basis()
_CBD_ROWS = _CBD_MAP @ _real_form(_NO_RETRO_BASIS)
# coordinates of the identity, which lies in the span: Tr(F_i)
_CBD_IDENTITY = np.real(np.trace(_NO_RETRO_BASIS, axis1=1, axis2=2))


def _square_root_form(lin: np.ndarray, const: np.ndarray):
    """The weighted model rows (lin, const) as the square root of their cost.

    With H the Hermitian basis, lin H = Q R (thin Householder QR), so the
    cost of a Hermitian S = H z is ||lin S + const||^2 = ||R z + Q^T const||^2
    + rest^2 with rest = |const - Q Q^T const|.  Returns (Q, R, Q^T const,
    rest).
    """
    dim = math.isqrt(lin.shape[1] // 2)
    q, r = np.linalg.qr(lin @ _real_form(_basis_stack(dim)))
    q_const = q.T @ const
    return q, r, q_const, float(np.linalg.norm(const - q @ q_const))


def _count_weights(data: np.ndarray) -> np.ndarray:
    """Weights 1/sqrt(max(n, EPS_CELL)) of the Neyman chi^2 of both fits, for
    one table of counts or a stack of them along the first axis."""
    if not np.all(data.any(axis=-1)):
        raise ValueError("the count table is empty: there are no counts to fit")
    return 1.0 / np.sqrt(np.maximum(data, EPS_CELL))


def _poisson_start(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinates of a positive definite start for the tau_CBD fit: the
    least-squares solution over the span with the _count_weights, lifted
    along the identity until its smallest eigenvalue is START_LIFT of the
    mean one."""
    rows = _CBD_ROWS * weights[:, None]
    z = np.linalg.solve(rows.T @ rows, rows.T @ (data * weights))
    w_min = np.linalg.eigvalsh(np.tensordot(z, _NO_RETRO_BASIS, 1))[0]
    floor = START_LIFT * data.sum() / 216.0
    return z + max(floor - w_min, 0.0) * _CBD_IDENTITY


def fit_causal_maps(tables: Sequence[CountTable],
                    config: FitConfig | None = None) -> list[FitResult]:
    """Reconstruct the Choi state from each of a sequence of count tables.

    The Poisson maximum-likelihood estimate over the positive semidefinite S
    that cannot signal from B back to (C, D): the 216 cell means m =
    _CBD_ROWS z of S = sum_i z_i F_i minimize the negative log-likelihood
    sum_k m_k - n_k log m_k (optimize.PoissonLikelihood) by
    optimize.psd_minimize from _poisson_start, all tables as one stack of
    problems that each stop at their own gap.  At the optimum Tr S is the
    total count over 27; tau is S over its trace.  ``converged`` means the
    certified gap fell to optimize.GAP_TOL within config.max_iter steps;
    otherwise tau is the last iterate, still a valid causal Choi state.
    Returns one FitResult per table, in order.
    """
    config = config or FitConfig()
    data = np.stack([table.counts.reshape(-1) for table in tables])
    for table, counts in zip(tables, data):
        if table.n_runs <= 0 and counts.any():
            raise ValueError(f"n_runs must be positive for a table with counts, got {table.n_runs}")
    weights = _count_weights(data)
    starts = np.stack([_poisson_start(*row) for row in zip(data, weights)])
    solved = optimize.psd_minimize(optimize.PoissonLikelihood(_CBD_ROWS, data), _NO_RETRO_BASIS,
                                   starts, config.max_iter)
    fits = []
    for res, counts, w in zip(solved, data, weights):
        s_mat = np.tensordot(res.x, _NO_RETRO_BASIS, 1)
        tau_mat = matlin.hermitize(s_mat / np.trace(s_mat).real)
        resid = (_CBD_ROWS @ res.x - counts) * w
        penalty = float(np.max(np.abs(no_retro_deviation(tau_mat))))
        tau = CausalChoi(DensityOperator(tau_mat, CBD_FACTORS))
        fits.append(FitResult(tau=tau, cost=res.cost, chi2=float(resid @ resid),
                              penalty_residual=penalty, n_iter=res.n_iter,
                              converged=res.converged, gap=res.gap, params=res.x,
                              config=config))
    return fits


def fit_causal_map(table: CountTable, config: FitConfig | None = None) -> FitResult:
    """Reconstruct the Choi state from one count table: fit_causal_maps of
    that table alone."""
    return fit_causal_maps([table], config)[0]


# ---------------------------------------------------------------------------
# Tomography of an induced two-qubit state (C with a repreparation on D),
# used for the Berkson analysis of post-selected data.

CD_FACTORS = (("C", 2), ("D", 2))

# rows over (s, t, c, d) on vec(T_D rho): sigma_s on C, sigma_t for the repreparation on D
_CD_MEAS_STACK = _pauli_rows(2).reshape(36, 16)


def _cd_cell_probabilities(rho: np.ndarray) -> np.ndarray:
    """All 36 values Tr[T_D(rho) Pi_c x Pi_d] = Tr[rho Pi_c x T(Pi_d)], flattened."""
    td = matlin.partial_transpose(rho, CD_FACTORS, "D")
    return np.real(_CD_MEAS_STACK @ td.reshape(-1))


_CD_MAP = _real_linear_map(_cd_cell_probabilities, 4)


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
    (3, 3, 2, 2) count table.

    Minimizes the weighted cost of the 36 count rows over positive
    semidefinite 4x4 S, exactly (optimize.psd_least_squares on the
    _square_root_form): S in the orthonormal Hermitian basis, no penalty
    term, no start or restart to choose.  Of ``config`` only max_iter is
    read; it caps the interior-point steps.  Returns the state S/Tr S and
    the solver's result, whose cost is the weighted cost of the count rows
    and whose gap bounds its distance to the optimum.
    """
    config = config or FitConfig()
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (3, 3, 2, 2):
        raise ValueError("expected a (3, 3, 2, 2) count array")
    _check_counts(counts)
    data = counts.reshape(-1)
    weights = _count_weights(data)
    _, r, q_const, rest = _square_root_form(_CD_MAP * weights[:, None], -data * weights)
    res = optimize.psd_least_squares(r, q_const, _basis_stack(4), config.max_iter)
    s_mat = np.tensordot(res.x, _basis_stack(4), 1)
    rho = matlin.hermitize(s_mat / np.trace(s_mat).real)
    return DensityOperator(rho, CD_FACTORS), replace(res, cost=res.cost + rest ** 2)


def bootstrap_errorbars(table: CountTable, statistic, n_resamples: int = 20,
                        seed: int | None = None,
                        config: FitConfig | None = None) -> dict:
    """Parametric bootstrap around an observed count table.

    Each resample Poisson-fluctuates the observed counts; the resampled
    tables are drawn in order from ``seed`` and refitted with ``config`` by
    one call of fit_causal_maps, a stack of ``n_resamples`` problems that
    each keep their own certified gap.  ``statistic`` (a FitResult -> dict
    of floats) is then applied to every refit.  Returns per-key mean and
    standard deviation over ``n_resamples`` >= 2 refits.
    """
    if n_resamples < 2:
        raise ValueError(f"a standard deviation needs n_resamples >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(n_resamples):
        sub_seed = int(rng.integers(0, 2**32 - 1))
        tables.append(CountTable(
            np.random.default_rng(sub_seed).poisson(np.clip(table.counts, 0, None)).astype(float),
            table.n_runs))

    samples: dict[str, list] = {}
    for fit in fit_causal_maps(tables, config):
        for key, val in statistic(fit).items():
            samples.setdefault(key, []).append(float(val))
    return {
        "mean": {k: float(np.mean(v)) for k, v in samples.items()},
        "std": {k: float(np.std(v, ddof=1)) for k, v in samples.items()},
        "n_resamples": n_resamples,
    }
