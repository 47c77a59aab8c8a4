import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcausal import causal, matlin, quantum, tomography
from qcausal.causal import (
    CausalChoi,
    build_scenario,
    induced_state_given_b,
    induced_state_given_c,
    induced_state_given_d,
    joint_distribution,
    partial_swap,
    random_probabilistic_mixture,
)
from qcausal.quantum import DensityOperator, SWAP_4, pauli_projector

# the maximally mixed tau_CBD, a valid causal Choi state, as JSON arrays
MIXED_8 = (np.eye(8) / 8).tolist()
ZEROS_8 = np.zeros((8, 8)).tolist()


class TestPartialSwap:
    def test_unitary(self):
        for theta in (-np.pi / 2, 0.3, np.pi / 2, 2.0):
            u = partial_swap(theta)
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_endpoints(self):
        assert np.allclose(partial_swap(0.0), np.eye(4))
        u = partial_swap(np.pi)
        phase = u[0, 0]
        assert np.allclose(u / phase, SWAP_4, atol=1e-12)

    def test_half_swap_form(self):
        # theta = -pi/2 is (1 + i SWAP)/sqrt(2) up to the global phase e^{-i pi/4}
        u = partial_swap(-np.pi / 2)
        target = (np.eye(4) + 1j * SWAP_4) / np.sqrt(2)
        assert np.allclose(u / np.exp(-1j * np.pi / 4), target, atol=1e-12)


class TestScenarios:
    @pytest.mark.parametrize("sid", causal.SCENARIO_IDS)
    def test_all_valid(self, sid):
        tau = build_scenario(sid)
        assert tau.tau.factors == causal.CBD_FACTORS
        assert abs(np.trace(tau.mat).real - 1.0) < 1e-10

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build_scenario("nope")

    def test_epsmix_eps_range(self):
        # eps is checked for every scenario, not only the one that reads it
        for sid, eps in (("epsmix", 1.5), ("coh", float("nan")), ("probc", -0.1)):
            with pytest.raises(ValueError):
                build_scenario(sid, eps=eps)

    def test_epsmix_zero_is_probq(self):
        assert np.array_equal(build_scenario("epsmix", eps=0.0).mat,
                              build_scenario("probq").mat)

    def test_probc_is_diagonal(self):
        m = build_scenario("probc").mat
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-12

    def test_json_roundtrip(self):
        tau = build_scenario("coh")
        again = CausalChoi.from_json(tau.to_json())
        assert np.allclose(again.mat, tau.mat, atol=1e-15)

    @pytest.mark.parametrize("text", [
        '[1, 2]',
        '{"re": "x", "im": "y"}',
        '{"re": [[null]], "im": [[0]]}',
        '{"re": [["a"]], "im": [[0]]}',
        '{"re": [[{}]], "im": [[0]]}',
        '{"re": [[1], [1, 2]], "im": [[0]]}',
        '{"im": [[0]]}',
        # a valid state written in another factor order, or with an im that
        # would broadcast against re
        json.dumps({"labels": ["D", "B", "C"], "dim": 4, "re": MIXED_8, "im": ZEROS_8}),
        json.dumps({"re": MIXED_8, "im": [0] * 8}),
        json.dumps({"re": MIXED_8, "im": 0}),
    ])
    def test_malformed_json_is_value_error(self, text):
        with pytest.raises(ValueError):
            CausalChoi.from_json(text)

    def test_json_labels_and_dim_are_optional(self):
        # the state of the malformed documents is valid: with the labels and
        # dim that to_json writes, or without them, it is read
        for extra in ({}, {"labels": ["C", "B", "D"], "dim": 8}):
            tau = CausalChoi.from_json(json.dumps({"re": MIXED_8, "im": ZEROS_8, **extra}))
            assert np.array_equal(tau.mat, np.eye(8) / 8)

    def test_no_retro_rejects_signalling(self):
        # correlating C directly with the later input D would be retrocausal
        kets = (quantum.KET_H, quantum.KET_V)
        m = np.zeros((8, 8), dtype=complex)
        for d in range(2):
            blk = np.kron(np.kron(quantum.ket_dm(kets[d]), np.eye(2) / 2),
                          quantum.ket_dm(kets[d]))
            m += 0.5 * blk
        with pytest.raises(quantum.StateValidationError):
            CausalChoi(DensityOperator(m, causal.CBD_FACTORS))


# The circuits of the reference scenarios, written out in plain numpy: the
# gate on (D, E) and the dephasing axes of D, E and B (None: not dephased).
_PAULI = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.array([[1, 0], [0, -1]])}
_SWAP = np.eye(4)[[0, 2, 1, 3]]
CIRCUITS = {
    "coh": [((np.eye(4) + 1j * _SWAP) / np.sqrt(2), None, None, None)],
    "probq": [(np.eye(4), None, None, None), (_SWAP, None, None, None)],
    "probc": [((np.eye(4) + 1j * _SWAP) / np.sqrt(2), "z", "z", "z")],
    "physc": [((np.eye(4) - 1j * _SWAP) / np.sqrt(2), "y", "x", "z")],
}


def _on_wire(op, wire):
    """op on one of four qubit wires, the identity on the others."""
    ops = [np.eye(2)] * 4
    ops[wire] = op
    return np.kron(np.kron(ops[0], ops[1]), np.kron(ops[2], ops[3]))


def _dephased(rho, wire, axis):
    if axis is None:
        return rho
    projs = [_on_wire((np.eye(2) + o * _PAULI[axis]) / 2, wire) for o in (1, -1)]
    return sum(p @ rho @ p for p in projs)


def circuit_choi(gate, axis_d, axis_e, axis_b):
    """tau_CBD of the circuit run on |Phi+>_CE and on half of |Phi+>_RD, R
    the reference wire that becomes the Choi state's D: dephase D and E,
    apply the gate to (D, E), giving (B, F), dephase B and trace out F."""
    psi = np.einsum("ce,rd->crde", np.eye(2), np.eye(2)).reshape(16) / 2
    rho = _dephased(_dephased(np.outer(psi, psi), 2, axis_d), 3, axis_e)
    u = np.kron(np.eye(4), gate)
    rho = _dephased(u @ rho @ u.conj().T, 2, axis_b)               # wires (C, R, B, F)
    rho = np.trace(rho.reshape((2,) * 8), axis1=3, axis2=7)       # (c, r, b, c', r', b')
    return rho.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)


class TestCircuit:
    @pytest.mark.parametrize("sid", sorted(CIRCUITS))
    def test_scenario_is_its_circuit(self, sid):
        # build_scenario dephases C where the circuit dephases E, so this
        # checks (1 x A)|Phi+> = (A^T x 1)|Phi+> too; probq mixes two gates
        runs = CIRCUITS[sid]
        ref = sum(circuit_choi(*run) for run in runs) / len(runs)
        assert np.max(np.abs(build_scenario(sid).mat - ref)) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixture_is_its_isometry(self, seed):
        # the draws of random_probabilistic_mixture, with tau_BD the Choi
        # state of the isometry v from D into (env, B): v applied to half of
        # |Phi+>_DR, env traced out
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tau_cb = g @ g.conj().T / np.trace(g @ g.conj().T).real
        v = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0]
        p = rng.uniform()
        out = (v @ np.eye(2) / np.sqrt(2)).reshape(4, 4)              # (env, b r)
        tau_bd = out.T @ out.conj()                                   # Tr_env
        rho_c = np.trace(tau_cb.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        ref = p * np.kron(rho_c, tau_bd) + (1 - p) * np.kron(tau_cb, np.eye(2) / 2)
        tau = random_probabilistic_mixture(np.random.default_rng(seed))
        assert np.max(np.abs(tau.mat - ref)) <= 1e-14


class TestInducedStates:
    def test_given_d_trace_one(self):
        tau = build_scenario("coh")
        for outcome in (+1, -1):
            st_cb = induced_state_given_d(tau, pauli_projector("z", outcome))
            assert st_cb.factors == (("C", 2), ("B", 2))

    def test_given_d_known_state(self):
        # coherent mixture, prepare |H> on D: 3/4 |psi><psi| + 1/4 |VH><VH|
        tau = build_scenario("coh")
        st_cb = induced_state_given_d(tau, pauli_projector("z", +1))
        psi = (2 * np.kron(quantum.KET_H, quantum.KET_H)
               + np.exp(1j * np.pi / 4) * np.sqrt(2) * np.kron(quantum.KET_V, quantum.KET_V)) / np.sqrt(6)
        vh = np.kron(quantum.KET_V, quantum.KET_H)
        target = 0.75 * quantum.ket_dm(psi) + 0.25 * quantum.ket_dm(vh)
        assert np.allclose(st_cb.mat, target, atol=1e-10)

    def test_conditional_probabilities_sum(self):
        tau = build_scenario("probq")
        _, p_h = induced_state_given_b(tau, pauli_projector("x", +1))
        _, p_v = induced_state_given_b(tau, pauli_projector("x", -1))
        assert p_h + p_v == pytest.approx(1.0, abs=1e-10)

    def test_preparation_needs_no_outcome_probability(self):
        # pure |H> on C: D and B condition fine, only C on |V> is impossible
        phi = quantum.bell_phi_plus(("B", "D")).mat
        tau = CausalChoi(DensityOperator(np.kron(quantum.ket_dm(quantum.KET_H), phi),
                                         causal.CBD_FACTORS))
        v = pauli_projector("z", -1)
        assert induced_state_given_d(tau, v).factors == (("C", 2), ("B", 2))
        st_cd, p_v = induced_state_given_b(tau, v)
        assert st_cd.factors == (("C", 2), ("D", 2)) and p_v == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(causal.ConditioningError):
            induced_state_given_c(tau, v)

    def test_zero_probability_conditioning(self):
        # pure |H> on C: conditioning C on |V> is impossible
        phi = quantum.bell_phi_plus(("B", "D")).mat
        m = np.kron(quantum.ket_dm(quantum.KET_H), phi)
        tau = CausalChoi(DensityOperator(m, causal.CBD_FACTORS))
        with pytest.raises(causal.ConditioningError):
            induced_state_given_c(tau, pauli_projector("z", -1))

    def test_z_gather_matches_einsums(self):
        # the gather of tau's entries against the per-wire einsums of the
        # one-projector functions, two independent implementations
        rng = np.random.default_rng(11)
        maps = ([build_scenario(sid) for sid in causal.SCENARIO_IDS]
                + [random_probabilistic_mixture(rng) for _ in range(20)])
        for tau in maps:
            states, probs = causal.z_conditioned_states(tau)
            assert states.shape == (2, 3, 4, 4) and probs.shape == (2, 3)
            for k, outcome in enumerate((+1, -1)):
                proj = pauli_projector("z", outcome)
                (st_c, p_c), (st_b, p_b) = (induced_state_given_c(tau, proj),
                                            induced_state_given_b(tau, proj))
                ref_states = (st_c.mat, induced_state_given_d(tau, proj).mat, st_b.mat)
                assert np.max(np.abs(states[k] - np.array(ref_states))) <= 1e-15
                assert np.max(np.abs(probs[k] - [p_c, 0.5, p_b])) <= 1e-15

    def test_z_map_keeps_the_zero_probability_check(self):
        phi = quantum.bell_phi_plus(("B", "D")).mat
        tau = CausalChoi(DensityOperator(np.kron(quantum.ket_dm(quantum.KET_H), phi),
                                         causal.CBD_FACTORS))
        with pytest.raises(causal.ConditioningError):
            causal.z_conditioned_states(tau)


class TestPredictions:
    @pytest.mark.parametrize("sid", causal.SCENARIO_IDS)
    def test_joint_normalized(self, sid):
        tau = build_scenario(sid)
        p = joint_distribution(tau, "x", "y", "z")
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(p >= -1e-12)

    def test_joint_matches_pointwise(self):
        # P(c, b | d) = 2 P(c, d, b) is Pi_c x Pi_b measured on the (C, B)
        # state prepared by feeding the d eigenstate of sigma_x into D
        tau = build_scenario("coh")
        p = joint_distribution(tau, "z", "x", "y")
        for ci, di, bi in product(range(2), repeat=3):
            prepared = induced_state_given_d(tau, pauli_projector("x", 1 - 2 * di))
            op = np.kron(pauli_projector("z", 1 - 2 * ci), pauli_projector("y", 1 - 2 * bi))
            cond = np.trace(prepared.mat @ op).real
            assert 2 * p[ci, di, bi] == pytest.approx(cond, abs=1e-12)

    def test_uniform_d_marginal(self):
        p = joint_distribution(build_scenario("physc"), "x", "z", "y")
        assert np.allclose(p.sum(axis=(0, 2)), [0.5, 0.5], atol=1e-10)


class TestRandomMixtures:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_valid(self, seed):
        tau = random_probabilistic_mixture(np.random.default_rng(seed))
        # construction passed CausalChoi validation (trace, PSD, no-retro)
        assert abs(np.trace(tau.mat).real - 1.0) < 1e-10


# Kron-built references for the stack-based probabilities and the einsum
# conditioning in causal.

AXES = ("x", "y", "z")
PROJECTORS = [pauli_projector(a, o) for a in AXES for o in (+1, -1)]


def kron_op(s, t, u, c, b, d):
    return np.kron(np.kron(pauli_projector(s, c), pauli_projector(u, b)),
                   pauli_projector(t, d))


def kron_cell(tau, s, t, u, c, b, d):
    """Tr[T_D(tau) Pi_c x Pi_b x Pi_d], the uniform-preparation joint."""
    td = matlin.partial_transpose(tau.mat, causal.CBD_FACTORS, "D")
    return float(np.trace(td @ kron_op(s, t, u, c, b, d)).real)


def kron_conditioned(tau, proj, wire):
    """Tr_w[(Pi on wire w) tau] through the full 8x8 operator."""
    ops = [proj if lbl == wire else np.eye(2) for lbl, _ in causal.CBD_FACTORS]
    big = np.kron(np.kron(ops[0], ops[1]), ops[2])
    reduced, _ = matlin.partial_trace(big @ tau.mat, causal.CBD_FACTORS, wire)
    return reduced


def reference_maps():
    rng = np.random.default_rng(7)
    return ([build_scenario(sid) for sid in causal.SCENARIO_IDS]
            + [random_probabilistic_mixture(rng) for _ in range(3)])


class TestMeasurementStack:
    def test_bit_identical_to_kron_loop(self):
        # the rows act on vec(tau): the transpose of Pi_c x Pi_b x Pi_d^T
        rows = [np.kron(np.kron(pauli_projector(AXES[si], 1 - 2 * ci),
                                pauli_projector(AXES[ui], 1 - 2 * bi)),
                        pauli_projector(AXES[ti], 1 - 2 * di).T).T.reshape(-1)
                for si, ti, ui, ci, bi, di in product(range(3), range(3), range(3),
                                                      range(2), range(2), range(2))]
        ref = np.stack(rows)
        stack = causal.MEAS_STACK
        assert stack.shape == (3, 3, 3, 8, 64)
        assert np.array_equal(stack.reshape(216, 64), ref)
        # signed zeros too, so the tomography inputs keep every bit
        assert np.array_equal(np.signbit(stack.reshape(216, 64).view(float)),
                              np.signbit(ref.view(float)))

    def test_tomography_uses_the_same_stack(self):
        # expected_counts and joint_distribution apply the same rows of
        # MEAS_STACK to tau itself, so they agree bit for bit
        for tau in reference_maps():
            table = tomography.expected_counts(tau, 27).counts
            for (si, s), (ti, t), (ui, u) in product(enumerate(AXES), repeat=3):
                assert np.array_equal(table[si, ti, ui],
                                      joint_distribution(tau, s, t, u).transpose(0, 2, 1))


class TestAgainstKron:
    def test_joint_and_pointwise(self):
        for tau in reference_maps():
            for s, t, u in product(AXES, repeat=3):
                p = joint_distribution(tau, s, t, u)
                for ci, di, bi in product(range(2), repeat=3):
                    c, b, d = 1 - 2 * ci, 1 - 2 * bi, 1 - 2 * di
                    ref = kron_cell(tau, s, t, u, c, b, d)
                    assert abs(p[ci, di, bi] - ref) <= 1e-12

    def test_induced_states(self):
        for tau in reference_maps():
            for proj in PROJECTORS:
                for wire, given in (("B", induced_state_given_b), ("C", induced_state_given_c)):
                    reduced = kron_conditioned(tau, proj, wire)
                    prob = float(np.trace(reduced).real)
                    state, p = given(tau, proj)
                    assert abs(p - prob) <= 1e-12
                    assert np.max(np.abs(state.mat - reduced / prob)) <= 1e-12
                # 2 Tr_D[tau (1 x Pi^T)], as the causal map fed with Pi
                big = np.kron(np.eye(4), proj.T)
                ref, _ = matlin.partial_trace(2 * tau.mat @ big, causal.CBD_FACTORS, "D")
                assert np.max(np.abs(induced_state_given_d(tau, proj).mat - ref)) <= 1e-12

    def test_bad_axis_and_outcome(self):
        tau = build_scenario("coh")
        with pytest.raises(ValueError):
            joint_distribution(tau, "x", "w", "z")
        with pytest.raises(ValueError):
            pauli_projector("x", 0)
