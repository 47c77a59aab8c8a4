"""Causal tomography: simulate counting experiments and reconstruct the
tripartite Choi state from them.

The full experiment runs all 27 Pauli setting triples (s on C, t for the
repreparation on D, u on B), N/27 runs each, recording the 8 outcome
triples.  Both experiments take their Pauli rows from causal's one builder,
causal._pauli_rows, whose rows act on vec(rho) itself, the prepared wire D
transposed there: the 216 rows of MEAS_STACK for tau_CBD and the two-wire
stack, 36 rows, for a (C, D) state of the Berkson analysis; one
_cell_probabilities serves both.  Both fits work in the coordinates of
normalized Pauli strings, a trace-orthonormal basis
(causal._pauli_strings), and each count model is one product of its rows
with that basis, a real matrix built at import.  Both fits are stopped by
a certified duality gap; of FitConfig they read only max_iter, which caps
the interior-point steps.
fit_causal_maps solves several tables, such as the bootstrap's resamples, as
one stack of problems; the pipeline fits its observed table in the same stack
as its resamples.

Both fits are one estimator: Neyman-weighted least squares of the Pauli
rows over positive semidefinite S, weights 1/sqrt(max(n, EPS_CELL)).
_neyman_quadratic writes the cost of S = sum_i z_i
E_i as (z - c)^T G (z - c) plus its minimum, with G = L^T L for the weighted
rows L and c the unconstrained solution, and optimize.psd_least_squares
solves each stack of tables: it starts at c when S(c) is positive definite,
where its gap certifies c like any other iterate, and otherwise at c lifted
along the identity.  Every cell carries a positive weight, the zeros of a
sparse table too, so G is positive definite at any N and every table gets a
certificate.  At low counts the weights, which come from the counts
themselves, cost efficiency against the Poisson maximum-likelihood estimate;
README gives the measurement.

tau_CBD is fitted over the S that cannot signal from B back to (C, D), Tr_B
S = Tr_BD S x 1/2.  A Pauli string sigma_C x sigma_B x sigma_D breaks that
exactly when sigma_B = 1 and sigma_D != 1, so those S are the span of the
other 52 strings: _NO_RETRO_BASIS holds the strings that no_retro_deviation
maps to zero, and _CBD_ROWS is the (216, 52) count model over their
coordinates.  The identity lies in the span.  The (C, D) state is fitted
over all Hermitian 4x4 S >= 0 in the coordinates of the 16 two-wire strings.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import matlin, optimize
from .causal import (
    CBD_FACTORS,
    MEAS_STACK,
    CausalChoi,
    _pauli_rows,
    _pauli_strings,
    no_retro_deviation,
)
from .quantum import PAULI_AXES as AXES, DensityOperator

DEFAULT_RUNS = 200_000
EPS_CELL = 0.5   # count floor in the weight 1/sqrt(max(n, EPS_CELL)) of a cell


def _check_counts(counts: np.ndarray) -> None:
    """ValueError unless every count is finite and non-negative."""
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be finite and non-negative")


@dataclass(frozen=True)
class CountTable:
    """Counts of one full experiment, indexed [s, t, u, c, b, d].

    Setting axes run over (x, y, z); outcome index 0 means +1, 1 means -1.
    ``n_runs`` is the designed total, positive unless every count is 0; the
    recorded counts fluctuate around n_runs/27 per setting when
    Poisson-sampled.
    """

    counts: np.ndarray
    n_runs: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=float)
        if c.shape != (3, 3, 3, 2, 2, 2):
            raise ValueError("expected a (3, 3, 3, 2, 2, 2) count array")
        _check_counts(c)
        if self.n_runs <= 0 and c.any():
            raise ValueError(f"n_runs must be positive for a table with counts, got {self.n_runs}")
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


def _cell_probabilities(cells: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Tr[mat Pi_c x Pi_b x T(Pi_d)] (tau_CBD) or Tr[mat Pi_c x T(Pi_d)] (C, D)
    for every cell of a stack of Pauli rows and the matrix mats, or each of a
    stack of them: one product of the rows with the flattened matrices, kept
    C-contiguous, as a strided real view takes the solver down another BLAS
    path."""
    size = mats.shape[-1] ** 2
    probs = np.real(cells.reshape(-1, size) @ mats.reshape(-1, size).T)
    return np.ascontiguousarray(probs).reshape((-1,) + mats.shape[:-2])


def expected_counts(tau: CausalChoi, n_runs: int = DEFAULT_RUNS) -> CountTable:
    """Noiseless count table: n_runs/27 per setting times the cell probability."""
    cells = _cell_probabilities(MEAS_STACK, tau.mat) * (n_runs / 27.0)
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
    lam, seed and restarts remain as fields, validated, so that callers of
    an earlier penalized, restarted fit keep working; the certified fits
    have no penalty, no random start and no restart, and ignore them.  The
    benchmark's fit_poisson workload passes lam, seed and restarts, its
    berkson_witness workload seed and restarts (perfbench/workloads.py),
    and the acceptance tests restarts=1.
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
    """A tau_CBD fit.  chi2 is the Neyman chi^2 sum_k (m_k - n_k)^2 /
    max(n_k, EPS_CELL) of the fitted means, the cost the fit minimizes;
    cost is chi2 less its unconstrained minimum over the no-retrocausation
    span, the chi^2 that positivity costs, 0 when the unconstrained solution
    is positive definite; gap is the certified bound on cost less its
    constrained optimum; penalty_residual is the largest no-retrocausation
    deviation of tau, CausalChoi.no_retro_residual (the schema's name)."""

    tau: CausalChoi
    cost: float
    chi2: float
    penalty_residual: float
    n_iter: int
    converged: bool
    gap: float
    params: np.ndarray
    config: FitConfig

    def report(self) -> dict:
        """The fit block of a pipeline report."""
        return {"chi2": self.chi2, "penalty_residual": self.penalty_residual,
                "gap": self.gap, "converged": self.converged, "n_iter": self.n_iter}

    def to_json(self) -> str:
        m = self.tau.mat
        out = {"tau": {"re": m.real.tolist(), "im": m.imag.tolist()},
               "chi2": None, "penalty_residual": None, "cost": self.cost}
        out.update(self.report())    # chi2 and penalty_residual keep their places
        out["config"] = {"eps_cell": EPS_CELL, "max_iter": self.config.max_iter}
        return json.dumps(out)


# The tau_CBD fit's parameter space and count model: S = sum_i z_i F_i over
# the normalized Pauli strings F that no_retro_deviation maps to zero, all
# but the 12 sigma_C x 1_B x sigma_D with sigma_D != 1, whose 216 cell means
# are _CBD_ROWS @ z.
_NO_RETRO_BASIS = np.stack([f for f in _pauli_strings(3) if not no_retro_deviation(f).any()])
_CBD_ROWS = _cell_probabilities(MEAS_STACK, _NO_RETRO_BASIS)


def _count_weights(data: np.ndarray) -> np.ndarray:
    """Weights 1/sqrt(max(n, EPS_CELL)) of the Neyman chi^2 of both fits, for
    one table of counts or a stack of them along the first axis."""
    if not np.all(data.any(axis=-1)):
        raise ValueError("the count table is empty: there are no counts to fit")
    return 1.0 / np.sqrt(np.maximum(data, EPS_CELL))


def _neyman_quadratic(rows: np.ndarray, data: np.ndarray, weights: np.ndarray):
    """The Neyman-weighted cost ||L z - n w||^2 of both fits, L the count
    rows weighted by the _count_weights w, as the quadratic (z - c)^T G (z -
    c) plus its minimum: returns G = L^T L and the least-squares solution c,
    for one table or for each of a stack of them along the first axis.
    Every product and solve is one table's own, so no table's quadratic
    depends on the tables stacked with it."""
    lw = rows * weights[..., None]
    lw_t = np.swapaxes(lw, -1, -2)
    gram = lw_t @ lw
    return gram, np.linalg.solve(gram, (lw_t @ (data * weights)[..., None]))[..., 0]


def _state_and_chi2(x, basis, rows, data, weights):
    """The result tail of both fits: the state S/Tr S of S = sum_i x_i E_i
    over ``basis``, and the Neyman chi^2 of the count ``rows`` at x."""
    s_mat = np.tensordot(x, basis, 1)
    resid = (rows @ x - data) * weights
    return matlin.hermitize(s_mat / np.trace(s_mat).real), float(resid @ resid)


def fit_causal_maps(tables: Sequence[CountTable],
                    config: FitConfig | None = None) -> list[FitResult]:
    """Reconstruct the Choi state from each of a sequence of count tables.

    The Neyman-weighted least-squares estimate over the positive
    semidefinite S that cannot signal from B back to (C, D): the 216 cell
    means m = _CBD_ROWS z of S = sum_i z_i F_i minimize sum_k (m_k - n_k)^2
    / max(n_k, EPS_CELL) by optimize.psd_least_squares on each table's
    _neyman_quadratic, all tables as one stack of problems that each stop
    at their own gap; tau is S over its trace.  ``converged`` means the
    certified gap fell to optimize.GAP_TOL within config.max_iter steps;
    otherwise tau is the last iterate, still a valid causal Choi state.
    Returns one FitResult per table, in order; an empty sequence raises
    ValueError.
    """
    config = config or FitConfig()
    if not tables:
        raise ValueError("a fit needs at least one count table")
    data = np.stack([table.counts.reshape(-1) for table in tables])
    weights = _count_weights(data)
    solved = optimize.psd_least_squares(*_neyman_quadratic(_CBD_ROWS, data, weights),
                                        _NO_RETRO_BASIS, config.max_iter)
    fits = []
    for res, counts, w in zip(solved, data, weights):
        tau_mat, chi2 = _state_and_chi2(res.x, _NO_RETRO_BASIS, _CBD_ROWS, counts, w)
        tau = CausalChoi(DensityOperator(tau_mat, CBD_FACTORS))
        fits.append(FitResult(tau=tau, cost=res.cost, chi2=chi2,
                              penalty_residual=tau.no_retro_residual, n_iter=res.n_iter,
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

# The (C, D) fit's coordinates, the 16 normalized Pauli strings of two
# wires, and its count model, whose 36 cell means are _CD_ROWS @ z.
_CD_BASIS = _pauli_strings(2)
_CD_ROWS = _cell_probabilities(_pauli_rows(2), _CD_BASIS)


def expected_conditioned_counts(state: DensityOperator, n_runs: int) -> np.ndarray:
    """Noiseless (3, 3, 2, 2) table over (s, t, c, d) for a (C, D) state whose
    D wire is a transposed input: model count (N/9) Tr[rho Pi_c x T(Pi_d)]."""
    if state.factors != CD_FACTORS:
        raise ValueError("expected a state over factors (C, D)")
    cells = _cell_probabilities(_pauli_rows(2), state.mat) * (n_runs / 9.0)
    return cells.reshape(3, 3, 2, 2)


def sample_conditioned_counts(state: DensityOperator, n_runs: int,
                              seed: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.poisson(np.clip(expected_conditioned_counts(state, n_runs), 0, None)).astype(float)


def fit_conditioned_state(counts: np.ndarray, config: FitConfig | None = None):
    """Least-squares reconstruction of the induced (C, D) state from a
    (3, 3, 2, 2) count table.

    Minimizes the weighted cost of the 36 count rows over positive
    semidefinite 4x4 S, exactly as fit_causal_maps fits tau_CBD
    (optimize.psd_least_squares on the _neyman_quadratic): S in the
    two-wire Pauli basis, no penalty term, no start or restart to choose.
    Of ``config`` only max_iter is read; it caps the interior-point steps.
    Returns the state S/Tr S and the solver's result, whose cost is the
    weighted cost of the count rows and whose gap and dual matrix certify
    its distance to the optimum, also when the unconstrained solution is
    positive definite and taken in 0 steps.
    """
    config = config or FitConfig()
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (3, 3, 2, 2):
        raise ValueError("expected a (3, 3, 2, 2) count array")
    _check_counts(counts)
    data = counts.reshape(-1)
    weights = _count_weights(data)
    [res] = optimize.psd_least_squares(*_neyman_quadratic(_CD_ROWS, data[None], weights[None]),
                                       _CD_BASIS, config.max_iter)
    rho, cost = _state_and_chi2(res.x, _CD_BASIS, _CD_ROWS, data, weights)
    return DensityOperator(rho, CD_FACTORS), replace(res, cost=cost)


class EmptyResampleError(ValueError):
    """A bootstrap resample of a sparse table drew no counts to refit."""


def bootstrap_resamples(table: CountTable, n_resamples: int,
                        seed: int | None = None) -> list[CountTable]:
    """The resamples of a parametric bootstrap around an observed count
    table: ``n_resamples`` >= 2 tables, each the observed counts
    Poisson-fluctuated, drawn in order from ``seed``.  A resample that
    draws no counts raises EmptyResampleError: it is neither skipped nor
    redrawn, either of which would bias the error bars."""
    if n_resamples < 2:
        raise ValueError(f"a standard deviation needs n_resamples >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    tables = []
    for k in range(n_resamples):
        sub_seed = int(rng.integers(0, 2**32 - 1))
        counts = np.random.default_rng(sub_seed).poisson(np.clip(table.counts, 0, None))
        if not counts.any():
            raise EmptyResampleError(f"bootstrap resample {k + 1} of {n_resamples} drew no counts, "
                                     f"so it has nothing to fit; the observed table holds only "
                                     f"{table.counts.sum():g} counts")
        tables.append(CountTable(counts.astype(float), table.n_runs))
    return tables


def bootstrap_summary(refits: Sequence[FitResult], statistic) -> dict:
    """Per-key mean and standard deviation of ``statistic`` (a FitResult ->
    dict of floats) over the refits of the bootstrap resamples."""
    samples: dict[str, list] = {}
    for fit in refits:
        for key, val in statistic(fit).items():
            samples.setdefault(key, []).append(float(val))
    return {
        "mean": {k: float(np.mean(v)) for k, v in samples.items()},
        "std": {k: float(np.std(v, ddof=1)) for k, v in samples.items()},
        "n_resamples": len(refits),
    }


def bootstrap_errorbars(table: CountTable, statistic, n_resamples: int = 20,
                        seed: int | None = None,
                        config: FitConfig | None = None) -> dict:
    """Parametric bootstrap around an observed count table: the
    bootstrap_resamples of ``table`` from ``seed``, refitted with ``config``
    by one call of fit_causal_maps, a stack of ``n_resamples`` problems that
    each keep their own certified gap, and their bootstrap_summary."""
    tables = bootstrap_resamples(table, n_resamples, seed)
    return bootstrap_summary(fit_causal_maps(tables, config), statistic)
