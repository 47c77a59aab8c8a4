"""Dense complex linear algebra for small labeled tensor-product operators.

Operators live on a tensor product of labeled factors (e.g. qubits C, B, D),
stored as plain numpy arrays in row-major lexicographic order of the factor
list.  Everything here is a pure function; nothing mutates its inputs.
"""

from __future__ import annotations

import functools

import numpy as np

Factors = tuple[tuple[str, int], ...]


class LabelError(ValueError):
    """Unknown or colliding factor label."""


def as_factors(factors) -> Factors:
    out = tuple((str(lbl), int(d)) for lbl, d in factors)
    labels = [lbl for lbl, _ in out]
    if len(set(labels)) != len(labels):
        raise LabelError(f"duplicate labels in {labels}")
    return out


def total_dim(factors: Factors) -> int:
    n = 1
    for _, d in factors:
        n *= d
    return n


def _axis(factors: Factors, label: str) -> int:
    for i, (lbl, _) in enumerate(factors):
        if lbl == label:
            return i
    raise LabelError(f"label {label!r} not in {[l for l, _ in factors]}")


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float) -> bool:
    """Whether m, or every matrix of the stack m, is Hermitian to atol."""
    return bool(np.max(np.abs(m - _dagger(m))) <= atol)


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _dagger(m))


def _split(m: np.ndarray, factors: Factors) -> np.ndarray:
    dims = [d for _, d in factors]
    return m.reshape(dims + dims)


def _join(t: np.ndarray, nfac: int) -> np.ndarray:
    dims = t.shape[:nfac]
    n = int(np.prod(dims)) if nfac else 1
    return t.reshape(n, n)


def partial_trace(m, factors, over: str):
    """Trace out the named factor; returns (matrix, remaining factors)."""
    factors = as_factors(factors)
    ax = _axis(factors, over)
    t = _split(m, factors)
    t = np.trace(t, axis1=ax, axis2=ax + len(factors))
    rest = factors[:ax] + factors[ax + 1:]
    return _join(t, len(rest)), rest


@functools.cache
def partial_transpose_index(factors, over: str) -> np.ndarray:
    """(n, n) flat-position array p with partial_transpose(m) = m.flat[p]:
    the positions 0..n^2-1 with the named factor's row and column axes
    swapped.  Cached per (factors, over) and read-only."""
    factors = as_factors(factors)
    ax = _axis(factors, over)
    n = len(factors)
    t = _split(np.arange(total_dim(factors) ** 2), factors)
    p = _join(np.swapaxes(t, ax, ax + n), n)
    p.flags.writeable = False
    return p


def partial_transpose(m, factors, over: str) -> np.ndarray:
    """Transpose the indices of the named factor only: one gather, so every
    entry is copied exactly."""
    p = partial_transpose_index(as_factors(factors), over)
    return m.reshape(p.size)[p]
