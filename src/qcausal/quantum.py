"""Quantum-information primitives: states, Pauli observables, fidelity.

Conventions: the qubit basis is (|H>, |V>), the sigma_z eigenbasis, and every
transpose is taken in that basis.  The Choi states of causal are unit-trace,
built from the symmetric maximally entangled state bell_phi_plus with the
output factor listed first.
State validity has one definition, check_states, which DensityOperator runs
on its matrix and classification runs on a stack of computed states.  The
functionals of states take it as given: fidelity is defined on every state
check_states accepts, with no tolerance of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matlin
from .matlin import Factors, as_factors, hermitize

# tolerances of a valid density matrix; see check_states
STATE_HERM_ATOL = 1e-9
STATE_TRACE_ATOL = 1e-8
STATE_EIG_FLOOR = -1e-9

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_AXES = ("x", "y", "z")

IDENTITY_2 = np.eye(2, dtype=complex)
SWAP_4 = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)


class ShapeMismatchError(ValueError):
    pass


class StateValidationError(ValueError):
    pass


def ket_dm(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def pauli_projector(axis: str, outcome: int) -> np.ndarray:
    """Rank-1 projector onto the +1 or -1 eigenstate of a Pauli observable."""
    if axis not in SIGMA:
        raise ValueError(f"axis must be one of {PAULI_AXES}, got {axis!r}")
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return hermitize((IDENTITY_2 + outcome * SIGMA[axis]) / 2)


def check_states(mats: np.ndarray, eigvals: np.ndarray | None = None) -> None:
    """Raise StateValidationError unless every matrix of the (..., n, n) stack
    mats is a density matrix: Hermitian to STATE_HERM_ATOL, trace one to
    STATE_TRACE_ATOL, no eigenvalue below STATE_EIG_FLOOR.  The one definition
    of state validity, for DensityOperator and for batches of computed
    states.  eigvals, if given, are the eigenvalues of mats taken by the
    caller's own batched eigvalsh; they are read only after the first two
    checks pass."""
    if not matlin.is_hermitian(mats, atol=STATE_HERM_ATOL):
        raise StateValidationError("density operator is not Hermitian")
    tr = np.trace(mats, axis1=-2, axis2=-1).real.reshape(-1)
    off = np.abs(tr - 1.0) > STATE_TRACE_ATOL
    if off.any():
        raise StateValidationError(f"trace {tr[off][0]} != 1")
    w_min = float(np.min(np.linalg.eigvalsh(mats) if eigvals is None else eigvals))
    if w_min < STATE_EIG_FLOOR:
        raise StateValidationError(f"negative eigenvalue {w_min:g}")


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one PSD operator over labeled qubit factors."""

    mat: np.ndarray
    factors: Factors

    def __post_init__(self):
        factors = as_factors(self.factors)
        object.__setattr__(self, "factors", factors)
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        n = matlin.total_dim(factors)
        if mat.shape != (n, n):
            raise ShapeMismatchError(f"matrix shape {mat.shape} vs factors {factors}")
        check_states(mat)


def bell_phi_plus(labels=("C", "E")) -> DensityOperator:
    """|Phi+><Phi+| with |Phi+> = (|HH> + |VV>)/sqrt(2)."""
    psi = (np.kron(KET_H, KET_H) + np.kron(KET_V, KET_V)) / np.sqrt(2)
    return DensityOperator(ket_dm(psi), tuple((lbl, 2) for lbl in labels))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.  Both states
    passed check_states, so the eigenvalues of rho and of the inner product
    that lie below 0, by at most round-off, are clipped to 0."""
    if rho.factors != sigma.factors:
        raise ShapeMismatchError(f"factor mismatch {rho.factors} vs {sigma.factors}")
    w, v = np.linalg.eigh(rho.mat)
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    w = np.linalg.eigvalsh(hermitize(r @ sigma.mat @ r))
    return min(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 1.0)
