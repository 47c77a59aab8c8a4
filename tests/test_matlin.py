import numpy as np
import pytest

from qcausal import matlin


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return matlin.hermitize(g)


class TestFactors:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(matlin.LabelError):
            matlin.as_factors((("A", 2), ("A", 2)))

    def test_unknown_label_rejected(self):
        with pytest.raises(matlin.LabelError):
            matlin.partial_trace(np.eye(4), (("A", 2), ("B", 2)), "C")


class TestPartialOperations:
    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(0)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        out, rest = matlin.partial_trace(np.kron(a, b), (("A", 2), ("B", 3)), "B")
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
        f = (("A", 2), ("B", 2))
        assert np.allclose(matlin.partial_transpose(np.kron(a, b), f, "B"), np.kron(a, b.T))

    @pytest.mark.parametrize("factors", [(("C", 2), ("B", 2), ("D", 2)), (("A", 2), ("B", 2))])
    def test_partial_transpose_is_the_swapaxes_construction(self, factors):
        rng = np.random.default_rng(6)
        n = matlin.total_dim(factors)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dims = [d for _, d in factors]
        for ax, (label, _) in enumerate(factors):
            ref = np.swapaxes(m.reshape(dims + dims), ax, ax + len(factors)).reshape(n, n)
            assert np.array_equal(matlin.partial_transpose(m, factors, label), ref)
            # lists of pairs still work, through the same cached index
            listed = [list(f) for f in factors]
            assert np.array_equal(matlin.partial_transpose(m, listed, label), ref)

    def test_partial_transpose_index_is_read_only(self):
        p = matlin.partial_transpose_index((("A", 2), ("B", 2)), "B")
        with pytest.raises(ValueError):
            p[0, 0] = 1
