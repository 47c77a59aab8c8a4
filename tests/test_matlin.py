import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcausal import matlin


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return matlin.hermitize(g)


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


class TestFactors:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(matlin.LabelError):
            matlin.as_factors((("A", 2), ("A", 2)))

    def test_unknown_label_rejected(self):
        with pytest.raises(matlin.LabelError):
            matlin.partial_trace(np.eye(4), (("A", 2), ("B", 2)), "C")

    def test_tensor_product_collision(self):
        with pytest.raises(matlin.LabelError):
            matlin.tensor_product(np.eye(2), (("A", 2),), np.eye(2), (("A", 2),))


class TestPartialOperations:
    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(0)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        m, f = matlin.tensor_product(a, (("A", 2),), b, (("B", 3),))
        out, rest = matlin.partial_trace(m, f, "B")
        assert rest == (("A", 2),)
        assert np.allclose(out, a * np.trace(b))

    def test_partial_trace_total(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 4)
        out, f = matlin.partial_trace(m, (("A", 2), ("B", 2)), "A")
        out2, f2 = matlin.partial_trace(out, f, "B")
        assert np.allclose(out2, np.trace(m))

    def test_partial_transpose_involution(self):
        rng = np.random.default_rng(2)
        m = random_hermitian(rng, 8)
        f = (("A", 2), ("B", 2), ("C", 2))
        once = matlin.partial_transpose(m, f, "B")
        assert np.allclose(matlin.partial_transpose(once, f, "B"), m)

    def test_partial_transpose_of_product(self):
        rng = np.random.default_rng(3)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        m, f = matlin.tensor_product(a, (("A", 2),), b, (("B", 2),))
        assert np.allclose(matlin.partial_transpose(m, f, "B"), np.kron(a, b.T))

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 8)
        f = (("A", 2), ("B", 2), ("C", 2))
        swapped, fs = matlin.reorder(m, f, ("C", "A", "B"))
        back, fb = matlin.reorder(swapped, fs, ("A", "B", "C"))
        assert fb == f
        assert np.allclose(back, m)

    def test_reorder_matches_kron_swap(self):
        rng = np.random.default_rng(5)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        m, f = matlin.tensor_product(a, (("A", 2),), b, (("B", 2),))
        swapped, _ = matlin.reorder(m, f, ("B", "A"))
        assert np.allclose(swapped, np.kron(b, a))


class TestEigen:
    def test_eigendecomposition_reconstructs(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4, 8):
            m = random_hermitian(rng, n)
            w, v = matlin.hermitian_eigs(m)
            assert np.allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-10)
            assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
            assert np.all(np.diff(w) <= 1e-12)  # descending

    def test_known_eigenvalues(self):
        # sigma_x has eigenvalues +-1
        w, _ = matlin.hermitian_eigs(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(matlin.NotHermitianError):
            matlin.hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_psd_sqrt(self):
        rng = np.random.default_rng(7)
        m = random_psd(rng, 4)
        r = matlin.psd_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-9)

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(matlin.NotPSDError):
            matlin.psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


class TestCholesky:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_psd_from_params(self, seed):
        rng = np.random.default_rng(seed)
        params = rng.standard_normal(16)
        m = matlin.cholesky_psd(params, 4)
        w, _ = matlin.hermitian_eigs(m)
        assert np.min(w) >= -1e-12
        assert matlin.is_hermitian(m, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_params_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        params = matlin.cholesky_params(m, 8)
        assert np.allclose(matlin.cholesky_psd(params, 8), m, atol=1e-8 * np.trace(m).real)

    def test_factor_layout(self):
        params = np.zeros(4)
        params[:2] = [2.0, 3.0]
        params[2:] = [0.5, -0.25]
        j = matlin.cholesky_factor(params, 2)
        assert j[0, 0] == 2.0 and j[1, 1] == 3.0
        assert j[1, 0] == 0.5 - 0.25j and j[0, 1] == 0.0
