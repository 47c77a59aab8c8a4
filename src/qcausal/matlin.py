"""Dense complex linear algebra for small labeled tensor-product operators.

Operators live on a tensor product of labeled factors (e.g. qubits C, B, D),
stored as plain numpy arrays in row-major lexicographic order of the factor
list.  Everything here is a pure function; nothing mutates its inputs.
"""

from __future__ import annotations

import functools

import numpy as np

HERMITIAN_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

Factors = tuple[tuple[str, int], ...]


class LabelError(ValueError):
    """Unknown or colliding factor label."""


class NotHermitianError(ValueError):
    pass


class NotPSDError(ValueError):
    pass


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
    return np.swapaxes(m, -1, -2).conj()


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    """Whether m, or every matrix of the stack m, is Hermitian to atol."""
    return bool(np.max(np.abs(m - _dagger(m))) <= atol)


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2


def tensor_product(a, fa, b, fb):
    """Kronecker product with factor bookkeeping.

    Returns (a kron b, fa + fb).  Labels must be disjoint.
    """
    fa, fb = as_factors(fa), as_factors(fb)
    if {l for l, _ in fa} & {l for l, _ in fb}:
        raise LabelError("label collision between factors")
    return np.kron(a, b), fa + fb


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


def partial_transpose(m, factors, over: str) -> np.ndarray:
    """Transpose the indices of the named factor only."""
    factors = as_factors(factors)
    ax = _axis(factors, over)
    n = len(factors)
    t = _split(m, factors)
    t = np.swapaxes(t, ax, ax + n)
    return _join(t, n)


def reorder(m, factors, new_labels):
    """Permute the factor list to the given label order."""
    factors = as_factors(factors)
    n = len(factors)
    perm = [_axis(factors, lbl) for lbl in new_labels]
    if len(perm) != n:
        raise LabelError("new order must mention every label exactly once")
    t = _split(m, factors)
    t = np.transpose(t, perm + [p + n for p in perm])
    return _join(t, n), tuple(factors[p] for p in perm)


def hermitian_eigs(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, eigenvectors as columns).
    """
    if not is_hermitian(m, atol=1e-9):
        raise NotHermitianError("matrix is not Hermitian")
    w, v = np.linalg.eigh(hermitize(m).astype(complex))
    return w[::-1], v[:, ::-1]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, clipping small negative eigenvalues."""
    w, v = hermitian_eigs(m)
    if np.min(w) < PSD_EIG_FLOOR * max(1.0, float(np.max(np.abs(w)))):
        raise NotPSDError(f"eigenvalue {np.min(w):g} below PSD floor")
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


@functools.cache
def _strict_lower(dim: int):
    """Row and column indices of the strictly-lower triangle, row-major."""
    return np.tril_indices(dim, k=-1)


def cholesky_factor(params: np.ndarray, dim: int) -> np.ndarray:
    """Lower-triangular J with real diagonal from dim**2 real parameters.

    Layout: the first dim entries are the diagonal, followed by
    (re, im) pairs for the strictly-lower entries in row-major order.
    """
    params = np.ascontiguousarray(params, dtype=float)
    if params.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} parameters, got {params.shape}")
    j = np.zeros((dim, dim), dtype=complex)
    j.flat[::dim + 1] = params[:dim]
    rows, cols = _strict_lower(dim)
    j[rows, cols] = params[dim:].view(complex)    # (re, im) pairs
    return j


def cholesky_psd(params: np.ndarray, dim: int) -> np.ndarray:
    """PSD matrix J^dag J from the parametrized lower-triangular factor."""
    j = cholesky_factor(params, dim)
    return j.conj().T @ j


def cholesky_params(m: np.ndarray, dim: int) -> np.ndarray:
    """Parameter vector whose cholesky_psd reproduces the PSD matrix m.

    Inverse of cholesky_psd up to the eigenvalue clipping of rank-deficient
    inputs; used for fit initialization and surjectivity checks.
    """
    f = psd_sqrt(hermitize(m))
    # QL decomposition of f: J is the lower-triangular factor, so that
    # f = Q J with Q unitary and hence m = f^dag f = J^dag J.
    _, r = np.linalg.qr(f[::-1, ::-1])
    j = r[::-1, ::-1]
    # make the diagonal real nonnegative by absorbing phases
    d = np.diag(j)
    phase = np.where(np.abs(d) > 1e-300, d / np.abs(np.where(np.abs(d) > 1e-300, d, 1)), 1.0)
    j = j * phase.conj()[:, None]
    params = np.empty(dim * dim)
    params[:dim] = np.diag(j).real
    rows, cols = _strict_lower(dim)
    params[dim::2] = j[rows, cols].real
    params[dim + 1::2] = j[rows, cols].imag
    return params
