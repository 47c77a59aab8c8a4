"""Reference computations for checking qcausal's outputs.

Everything here is written from the definitions with numpy (and exact
fractions for the classical mixtures) and never imports qcausal, so a check
built on it does not share code, and therefore faults, with the program under
test.

Conventions are the ones the qcausal README documents: qubit basis (|H>, |V>)
is the sigma_z eigenbasis; Choi states are unit trace with factors (C, B, D);
count tables are indexed [s, t, u, c, b, d] with outcome index 0 for +1;
joint tables for the covariance witness are indexed [c, d, b].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

AXES = ("x", "y", "z")
SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SIGN = np.array([1.0, -1.0])          # outcome index -> eigenvalue
BERKSON_NEGATIVITY = 0.25 * (math.sqrt(2.0) - 1.0)
EPS_CELL = 0.5                        # variance floor of the documented WLS weights


def projector(axis: str, index: int) -> np.ndarray:
    """Projector onto the eigenstate of sigma_axis with eigenvalue SIGN[index]."""
    return (np.eye(2) + SIGN[index] * SIGMA[axis]) / 2


# ---------------------------------------------------------------------------
# States

def partial_trace(mat: np.ndarray, dims, axis: int) -> np.ndarray:
    n = len(dims)
    t = np.asarray(mat).reshape(tuple(dims) * 2)
    t = np.trace(t, axis1=axis, axis2=axis + n)
    rest = int(np.prod([d for i, d in enumerate(dims) if i != axis]))
    return t.reshape(rest, rest)


def partial_transpose(mat: np.ndarray, dims, axis: int) -> np.ndarray:
    n = len(dims)
    t = np.asarray(mat).reshape(tuple(dims) * 2)
    t = np.swapaxes(t, axis, axis + n)
    return t.reshape(mat.shape)


def state_defects(mat: np.ndarray) -> dict:
    """Hermiticity error, trace error and smallest eigenvalue of a matrix."""
    mat = np.asarray(mat)
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return {"hermiticity": herm, "trace": float(abs(np.trace(mat).real - 1.0)),
            "min_eig": float(w[0])}


def is_state(mat: np.ndarray, atol: float = 1e-9) -> bool:
    """Hermitian, PSD and trace one, each to ``atol``."""
    d = state_defects(mat)
    return d["hermiticity"] <= atol and d["trace"] <= atol and d["min_eig"] >= -atol


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2."""
    r = _psd_sqrt(rho)
    inner = r @ sigma @ r
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def no_retro_residual(tau: np.ndarray) -> float:
    """max |Tr_B tau - rho_C x 1/2| over the (C, D) matrix entries."""
    marg = partial_trace(tau, (2, 2, 2), 1)          # (C, D)
    rho_c = partial_trace(marg, (2, 2), 1)
    return float(np.max(np.abs(marg - np.kron(rho_c, np.eye(2) / 2))))


def negativity(rho: np.ndarray, dims=(2, 2), axis: int = 1) -> float:
    """(||rho^{T_axis}||_1 - 1) / 2."""
    pt = partial_transpose(rho, dims, axis)
    w = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float((np.sum(np.abs(w)) - 1.0) / 2)


def condition_on_b(tau: np.ndarray, index: int, axis: str = "z"):
    """(rho_CD, P(b)) after outcome SIGN[index] of sigma_axis on B."""
    pb = np.kron(np.kron(np.eye(2), projector(axis, index)), np.eye(2))
    reduced = partial_trace(pb @ tau @ pb, (2, 2, 2), 1)
    prob = float(np.trace(reduced).real)
    return reduced / prob, prob


# ---------------------------------------------------------------------------
# Measurement model and goodness of fit

def _setting_operators(axis_c: str, axis_b: str, axis_d: str) -> np.ndarray:
    """(2, 2, 2, 8, 8) stack Pi_c x Pi_b x T(Pi_d) over outcomes (c, b, d)."""
    ops = np.empty((2, 2, 2, 8, 8), dtype=complex)
    for c, b, d in product(range(2), repeat=3):
        ops[c, b, d] = np.kron(np.kron(projector(axis_c, c), projector(axis_b, b)),
                               projector(axis_d, d).T)
    return ops


def cell_probabilities(tau: np.ndarray) -> np.ndarray:
    """(3, 3, 3, 2, 2, 2) table of Tr[tau Pi_c x Pi_b x T(Pi_d)] over
    [s, t, u, c, b, d]: sigma_s on C, preparation sigma_t on D, sigma_u on B.
    Each setting's eight cells sum to Tr tau."""
    out = np.empty((3, 3, 3, 2, 2, 2))
    for (si, s), (ti, t), (ui, u) in product(enumerate(AXES), repeat=3):
        ops = _setting_operators(s, u, t)
        out[si, ti, ui] = np.einsum("cbdij,ji->cbd", ops, tau).real
    return out


def cd_cell_probabilities(rho: np.ndarray) -> np.ndarray:
    """(3, 3, 2, 2) table of Tr[rho Pi_c x T(Pi_d)] over [s, t, c, d]."""
    out = np.empty((3, 3, 2, 2))
    for (si, s), (ti, t), c, d in product(enumerate(AXES), enumerate(AXES),
                                          range(2), range(2)):
        op = np.kron(projector(s, c), projector(t, d).T)
        out[si, ti, c, d] = np.trace(op @ rho).real
    return out


def chi2(model: np.ndarray, counts: np.ndarray) -> float:
    """sum (m - n)^2 / max(n, 1/2): the weighted chi-square the fit minimises."""
    n = np.asarray(counts, dtype=float).reshape(-1)
    m = np.asarray(model, dtype=float).reshape(-1)
    return float(np.sum((m - n) ** 2 / np.maximum(n, EPS_CELL)))


def chi2_full(tau: np.ndarray, counts: np.ndarray, n_runs: float) -> float:
    """chi2 of a Choi estimate against a 27-setting table of n_runs runs."""
    return chi2(cell_probabilities(tau) * (n_runs / 27.0), counts)


def chi2_conditioned(rho: np.ndarray, counts: np.ndarray) -> float:
    """chi2 of a (C, D) estimate against a 9-setting post-selected table,
    whose run count is the number of recorded events."""
    counts = np.asarray(counts, dtype=float)
    return chi2(cd_cell_probabilities(rho) * (counts.sum() / 9.0), counts)


def chi2_range(n_cells: int, n_free: int, z: float = 4.75) -> tuple[float, float]:
    """Range Poisson data allows for the optimum's chi2 on n_cells cells.

    A valid estimate lies between the optimum, roughly chi2(n_cells - n_free),
    and the truth, roughly chi2(n_cells); the bounds are the z-sigma
    (p ~ 1e-6) Wilson-Hilferty quantiles of those two distributions.
    """
    def quantile(k, zz):
        a = 2.0 / (9.0 * k)
        return k * (1.0 - a + zz * math.sqrt(a)) ** 3
    return quantile(n_cells - n_free, -z), quantile(n_cells, z)


# ---------------------------------------------------------------------------
# Covariance witness

def joint_cdb(tau: np.ndarray, s: str, t: str, u: str) -> np.ndarray:
    """P(c, d, b) with sigma_s on C, sigma_u on B and the preparation on D an
    eigenstate of sigma_t drawn uniformly: P(d) P(cb|d) = Tr[tau Pi x Pi x T(Pi)]."""
    ops = _setting_operators(s, u, t)
    p_cbd = np.einsum("cbdij,ji->cbd", ops, tau).real
    return np.transpose(p_cbd, (0, 2, 1))


def ccd(p_cdb: np.ndarray) -> float:
    """C_CD = 2 sum_b b P(b)^2 Cov(c, d | b) for a joint P(c, d, b)."""
    p = np.asarray(p_cdb, dtype=float)
    total = 0.0
    for bi in range(2):
        pb = p[:, :, bi].sum()
        if pb <= 0:
            continue
        q = p[:, :, bi] / pb
        e_cd = SIGN @ q @ SIGN
        e_c = SIGN @ q.sum(axis=1)
        e_d = SIGN @ q.sum(axis=0)
        total += 2.0 * SIGN[bi] * pb ** 2 * (e_cd - e_c * e_d)
    return float(total)


# ---------------------------------------------------------------------------
# Classical mixtures (exact arithmetic)

def p_cb_given_d(weights, tables, p_lambda, p_c, p_e):
    """P(cb|d) = sum_j w_j sum_{lambda, e} P_j(b|d, e) P(e|lambda) P(c|lambda) P(lambda).

    tables[j][b][d][e], p_c[c][lambda], p_e[e][lambda]; returns out[c][b][d].
    """
    nb, nd, ne = len(tables[0]), len(tables[0][0]), len(tables[0][0][0])
    nc, nl = len(p_c), len(p_lambda)
    return [[[sum(w * t[b][d][e] * p_e[e][lam] * p_c[c][lam] * p_lambda[lam]
                  for w, t in zip(weights, tables)
                  for lam in range(nl) for e in range(ne))
              for d in range(nd)] for b in range(nb)] for c in range(nc)]


def p_cb_given_d_two_terms(w_ce, p_bd, w_cc, p_bl, p_lambda, p_c):
    """P(cb|d) = w_ce P(b|d) P(c) + w_cc sum_lambda P(b|lambda) P(c|lambda) P(lambda)."""
    nb, nd = len(p_bd), len(p_bd[0])
    nc, nl = len(p_c), len(p_lambda)
    pc = [sum(p_c[c][lam] * p_lambda[lam] for lam in range(nl)) for c in range(nc)]
    return [[[w_ce * p_bd[b][d] * pc[c]
              + w_cc * sum(p_bl[b][lam] * p_c[c][lam] * p_lambda[lam] for lam in range(nl))
              for d in range(nd)] for b in range(nb)] for c in range(nc)]


# ---------------------------------------------------------------------------
# Closed forms from the paper

def phi_plus() -> np.ndarray:
    """|Phi+><Phi+| with |Phi+> = (|HH> + |VV>)/sqrt 2."""
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def coh_choi() -> np.ndarray:
    """Coherent mixture 1/4 (1 x Phi+ + Phi+ x 1) - i/2 [1 x Phi+, Phi+ x 1] over (C, B, D)."""
    a = np.kron(np.eye(2), phi_plus())
    b = np.kron(phi_plus(), np.eye(2))
    return 0.25 * (a + b) - 0.5j * (a @ b - b @ a)


def closed_form_checks() -> dict:
    """Each reference computation against a value known in closed form."""
    tau = coh_choi()
    mixed = np.eye(8) / 8
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    cond = [condition_on_b(tau, i) for i in range(2)]
    # b uniform; c = d uniformly when b = +1, independent when b = -1: C_CD = 1/2
    p_corr = np.zeros((2, 2, 2))
    p_corr[0, 0, 0] = p_corr[1, 1, 0] = 0.25
    p_corr[:, :, 1] = 0.125
    cells = cell_probabilities(tau)
    third = Fraction(1, 3)
    return {
        "coh_is_state": is_state(tau, 1e-12),
        "coh_no_retro": no_retro_residual(tau) < 1e-15,
        "coh_berkson_negativity": all(
            abs(negativity(r) - BERKSON_NEGATIVITY) < 1e-12 and abs(p - 0.5) < 1e-12
            for r, p in cond),
        "phi_plus_negativity": abs(negativity(phi_plus()) - 0.5) < 1e-12,
        # the square roots of rank-deficient tau's round-off eigenvalues
        # (~1e-17) add ~1e-8
        "fidelity_self": (abs(fidelity(tau, tau) - 1.0) < 1e-7
                          and abs(fidelity(rho, rho) - 1.0) < 1e-12),
        "fidelity_orthogonal": fidelity(np.diag([1.0, 0, 0, 0]),
                                        np.diag([0, 1.0, 0, 0])) < 1e-12,
        "cells_sum_to_one": np.allclose(cells.sum(axis=(3, 4, 5)), 1.0, atol=1e-12),
        "cells_mixed": np.allclose(cell_probabilities(mixed), 0.125, atol=1e-15),
        "cd_cells_sum_to_one": np.allclose(
            cd_cell_probabilities(cond[0][0]).sum(axis=(2, 3)), 1.0, atol=1e-12),
        "chi2_exact_model": chi2(cells * 1000.0, cells * 1000.0) == 0.0,
        "chi2_one_cell": chi2([5.0, 0.0], [4.0, 0.0]) == 0.25,
        "ccd_correlated": abs(ccd(p_corr) - 0.5) < 1e-15,
        "ccd_product": abs(ccd(np.full((2, 2, 2), 0.125))) < 1e-15,
        "two_term_single_cause_effect": p_cb_given_d(
            [Fraction(1)], [[[[third, third], [1, 1]], [[2 * third] * 2, [0, 0]]]],
            [Fraction(1, 2)] * 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]],
        ) == p_cb_given_d_two_terms(
            Fraction(1), [[third, 1], [2 * third, 0]], Fraction(0),
            [[Fraction(1, 2)] * 2] * 2, [Fraction(1, 2)] * 2, [[1, 0], [0, 1]]),
    }
