import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcausal import quantum
from qcausal.matlin import partial_trace
from qcausal.quantum import DensityOperator, bell_phi_plus, fidelity, ket_dm, pauli_projector


def random_state(rng, labels=("A",)):
    n = 2 ** len(labels)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, tuple((lbl, 2) for lbl in labels))


class TestProjectors:
    def test_completeness(self):
        for axis in quantum.PAULI_AXES:
            s = pauli_projector(axis, +1) + pauli_projector(axis, -1)
            assert np.allclose(s, np.eye(2))

    def test_eigenvector(self):
        for axis in quantum.PAULI_AXES:
            p = pauli_projector(axis, -1)
            assert np.allclose(quantum.SIGMA[axis] @ p, -p)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pauli_projector("w", 1)
        with pytest.raises(ValueError):
            pauli_projector("x", 0)


class TestDensityOperator:
    def test_rejects_unnormalized(self):
        with pytest.raises(quantum.StateValidationError):
            DensityOperator(np.eye(2, dtype=complex), (("A", 2),))

    def test_rejects_negative(self):
        with pytest.raises(quantum.StateValidationError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex), (("A", 2),))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(quantum.ShapeMismatchError):
            DensityOperator(np.eye(2, dtype=complex) / 2, (("A", 2), ("B", 2)))

    def test_marginal_of_bell_is_mixed(self):
        bell = bell_phi_plus(("C", "E"))
        mat, factors = partial_trace(bell.mat, bell.factors, "E")
        assert factors == (("C", 2),)
        assert np.allclose(mat, np.eye(2) / 2)

    def test_bell_is_pure(self):
        mat = bell_phi_plus().mat
        assert np.trace(mat @ mat).real == pytest.approx(1.0)


def _bad_state(mode: str, size: float) -> np.ndarray:
    """A 4x4 trace-one matrix off by size in one validation mode."""
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    if mode == "hermitian":
        m[0, 1] = size
    elif mode == "trace":
        m *= 1.0 + size
    else:
        m = np.diag([0.4, 0.3, 0.3 + size, -size]).astype(complex)
    return m


class TestCheckStates:
    """check_states on a stack decides exactly as DensityOperator does on each
    member: the one definition of a valid state."""

    FACTORS = (("A", 2), ("B", 2))

    @pytest.mark.parametrize("mode, tol", [("hermitian", 1e-9), ("trace", 1e-8),
                                           ("eigenvalue", 1e-9)])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("position", [0, 3, 5])
    def test_same_verdict_as_density_operator(self, mode, tol, factor, position):
        rng = np.random.default_rng(position)
        bad = _bad_state(mode, factor * tol)
        stack = np.stack([random_state(rng, ("A", "B")).mat for _ in range(6)])
        stack[position] = bad
        try:
            DensityOperator(bad, self.FACTORS)
            single = None
        except quantum.StateValidationError as exc:
            single = str(exc)
        assert (single is None) == (factor < 1.0)
        for batch in (stack, stack.reshape(2, 3, 4, 4)):
            for eigvals in (None, np.linalg.eigvalsh(batch)):
                if single is None:
                    quantum.check_states(batch, eigvals)
                else:
                    with pytest.raises(quantum.StateValidationError) as exc:
                        quantum.check_states(batch, eigvals)
                    assert str(exc.value) == single

    def test_first_failure_is_reported(self):
        stack = np.stack([np.eye(4) / 4, _bad_state("trace", 0.5), _bad_state("trace", 0.25)])
        with pytest.raises(quantum.StateValidationError, match="trace 1.5 != 1"):
            quantum.check_states(stack)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(12)
        rho = random_state(rng, ("A", "B"))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        h = DensityOperator(ket_dm(quantum.KET_H), (("A", 2),))
        v = DensityOperator(ket_dm(quantum.KET_V), (("A", 2),))
        assert fidelity(h, v) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed(self):
        h = DensityOperator(ket_dm(quantum.KET_H), (("A", 2),))
        mixed = DensityOperator(np.eye(2, dtype=complex) / 2, (("A", 2),))
        assert fidelity(h, mixed) == pytest.approx(0.5, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng), random_state(rng)
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_defined_on_round_off_negative_eigenvalue(self):
        # check_states accepts an eigenvalue of -5e-10; fidelity takes the
        # state as it is, with no tolerance of its own
        rho = DensityOperator(np.diag([1 + 5e-10, -5e-10]).astype(complex), (("A", 2),))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pure_states_overlap(self, seed):
        # the square roots of rho's round-off eigenvalues add about 3e-8
        rng = np.random.default_rng(seed)
        factors = (("A", 2), ("B", 2))
        psi, phi = (v / np.linalg.norm(v) for v in
                    rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        f = fidelity(DensityOperator(ket_dm(psi), factors),
                     DensityOperator(ket_dm(phi), factors))
        assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-7)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_commuting_states(self, seed):
        rng = np.random.default_rng(seed)
        p, q = rng.dirichlet(np.ones(4), size=2)
        factors = (("A", 2), ("B", 2))
        f = fidelity(DensityOperator(np.diag(p).astype(complex), factors),
                     DensityOperator(np.diag(q).astype(complex), factors))
        assert f == pytest.approx(np.sum(np.sqrt(p * q)) ** 2, abs=1e-12)
