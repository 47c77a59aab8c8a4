"""Two-qubit causal relations: circuits, their Choi states, induced states.

A causal relation between a pre-intervention system C, a repreparation D and
a later system B is represented by the tripartite Choi state tau_CBD of the
map from D to (C, B).  The four reference circuits share a single structure:
C and E start in |Phi+>, a gate takes the (D, E) wire pair to (B, F), and F
is discarded.

Every probability comes from one measurement stack, MEAS_STACK, of shape
(3, 3, 3, 8, 64) over the Pauli settings (s on C, t for the repreparation
on D, u on B): entry [s, t, u, cbd] is the row whose dot product with
vec(T_D tau) is the uniform-preparation joint P(c, b, d | s, t, u), with
T_D the partial transpose on D.  Tomography slices the same stack.
Conditioning on one wire is a single contraction of tau as a (2,)*6 tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import quantum
from .matlin import hermitize, partial_trace, partial_transpose, reorder, tensor_product
from .quantum import (
    PAULI_AXES,
    DensityOperator,
    KrausChannel,
    SIGMA,
    SWAP_4,
    bell_phi_plus,
    ket_dm,
    mix_channels,
    pauli_projector,
    unitary_channel,
)

NO_RETRO_ATOL = 1e-8
SCENARIO_IDS = ("probc", "physc", "probq", "coh", "epsmix")

CBD_FACTORS = (("C", 2), ("B", 2), ("D", 2))


class ConditioningError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


def no_retro_deviation(mat: np.ndarray) -> np.ndarray:
    """Tr_B(S) - Tr_BD(S) x 1/2 for an 8x8 S over (C, B, D), as a (c, d, c', d')
    array: the no-retrocausation constraint that CausalChoi validates and
    tomography penalizes.  Zero exactly when S cannot signal from B back to
    (C, D); real-linear in S."""
    t = mat.reshape(2, 2, 2, 2, 2, 2)
    marg = np.trace(t, axis1=1, axis2=4)       # (c, d, c', d')
    rho_c = np.trace(marg, axis1=1, axis2=3)   # (c, c')
    return marg - np.einsum("ij,kl->ikjl", rho_c, np.eye(2) / 2)


@dataclass(frozen=True)
class CausalChoi:
    """Choi state tau_CBD of a trace-preserving causal map from D to (C, B)."""

    tau: DensityOperator

    def __post_init__(self):
        if self.tau.factors != CBD_FACTORS:
            raise quantum.ShapeMismatchError(f"expected factors {CBD_FACTORS}")
        if np.max(np.abs(no_retro_deviation(self.tau.mat))) > NO_RETRO_ATOL:
            raise quantum.StateValidationError(
                "no-retrocausation violated: Tr_B(tau) != rho_C x 1/2")

    @property
    def mat(self) -> np.ndarray:
        return self.tau.mat

    def to_json(self) -> str:
        m = self.tau.mat
        return json.dumps({
            "labels": ["C", "B", "D"],
            "dim": 8,
            "re": m.real.tolist(),
            "im": m.imag.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "CausalChoi":
        data = json.loads(text)
        m = np.array(data["re"]) + 1j * np.array(data["im"])
        return cls(DensityOperator(m, CBD_FACTORS))


def partial_swap(theta: float) -> np.ndarray:
    """Unitary interpolating identity (theta=0) and swap (theta=pi) on two wires.

    Implements exp(i theta/2) (cos(theta/2) 1x1 - i sin(theta/2) SWAP); at
    theta = -pi/2 this is (1x1 + i SWAP)/sqrt(2) up to a global phase.
    """
    half = theta / 2.0
    u = np.exp(1j * half) * (np.cos(half) * np.eye(4) - 1j * np.sin(half) * SWAP_4)
    return u


def dephasing(axis_unit_vector) -> KrausChannel:
    """Complete dephasing in the eigenbasis of n.sigma."""
    n = np.asarray(axis_unit_vector, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("dephasing axis must be a unit vector")
    nsigma = n[0] * SIGMA["x"] + n[1] * SIGMA["y"] + n[2] * SIGMA["z"]
    s = 1 / np.sqrt(2)
    return KrausChannel((s * np.eye(2, dtype=complex), s * nsigma))


def _dephase_gate(u: np.ndarray, pre_d, pre_e, post_b) -> KrausChannel:
    """Wrap a (D,E)->(B,F) unitary in dephasing channels on D, E and B."""
    pre = quantum.tensor_channels(dephasing(pre_d), dephasing(pre_e))
    post = quantum.tensor_channels(dephasing(post_b), quantum.identity_channel(2))
    return quantum.compose_channels(post, quantum.compose_channels(unitary_channel(u), pre))


def causal_map_from_circuit(rho_ce: DensityOperator, gate: KrausChannel) -> CausalChoi:
    """Choi state of Tr_F o E_BF|DE( . x rho_CE ), fed with half of |Phi+> on D."""
    if gate.dim_in != 4 or gate.dim_out != 4:
        raise quantum.ShapeMismatchError("gate must act on the two-qubit (D,E) pair")
    if rho_ce.labels != ("C", "E"):
        raise quantum.ShapeMismatchError("initial state must carry labels (C, E)")
    lifted = [np.kron(np.eye(2), k) for k in gate.kraus_ops]
    blocks = {}
    for j, k in product(range(2), repeat=2):
        sigma = np.zeros((2, 2), dtype=complex)
        sigma[j, k] = 1.0
        inp, f = tensor_product(sigma, (("Dp", 2),), rho_ce.mat, rho_ce.factors)
        inp, f = reorder(inp, f, ("C", "Dp", "E"))
        out = sum(w @ inp @ w.conj().T for w in lifted)
        out, fo = partial_trace(out, (("C", 2), ("B", 2), ("F", 2)), "F")
        blocks[(j, k)] = out
    tau = np.zeros((8, 8), dtype=complex)
    for (j, k), block in blocks.items():
        ejk = np.zeros((2, 2), dtype=complex)
        ejk[j, k] = 1.0
        tau += 0.5 * np.kron(block, ejk)
    return CausalChoi(DensityOperator(hermitize(tau), CBD_FACTORS))


def _tau_probq() -> np.ndarray:
    phi = bell_phi_plus(("a", "b")).mat
    ce = np.kron(np.eye(2) / 2, phi)          # C x Phi+_BD
    cc_m, f = tensor_product(phi, (("C", 2), ("B", 2)), np.eye(2) / 2, (("D", 2),))
    return 0.5 * ce + 0.5 * cc_m


def _tau_epsmix(eps: float) -> np.ndarray:
    """Probabilistic blend of the ProbQ map with a z-basis physically mixed term."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    kets = (quantum.KET_H, quantum.KET_V)
    xor = np.zeros((8, 8), dtype=complex)
    for c, b, d in product(range(2), repeat=3):
        if b != c ^ d:
            continue
        cell = np.kron(np.kron(ket_dm(kets[c]), ket_dm(kets[b])), ket_dm(kets[d]))
        xor += 0.25 * cell                     # u(c) u(d) delta_{b, c xor d}
    mixed = np.kron(np.eye(4) / 4, np.eye(2) / 2)
    return (1 - eps) * _tau_probq() + eps * (0.5 * mixed + 0.5 * xor)


def build_scenario(scenario: str, eps: float = 0.1) -> CausalChoi:
    """Reference causal relations; all share rho_CE = |Phi+> and differ by gate."""
    scenario = scenario.lower()
    rho_ce = bell_phi_plus(("C", "E"))
    u = partial_swap(-np.pi / 2)
    if scenario == "coh":
        gate = unitary_channel(u)
    elif scenario == "probq":
        gate = mix_channels([unitary_channel(np.eye(4)), unitary_channel(SWAP_4)], [0.5, 0.5])
    elif scenario == "probc":
        gate = _dephase_gate(u, (0, 0, 1), (0, 0, 1), (0, 0, 1))
    elif scenario == "physc":
        # The opposite swap phase gives the anti-correlated XOR form of this
        # map; with theta = -pi/2 the correlations come out sign-exchanged.
        gate = _dephase_gate(partial_swap(np.pi / 2), (0, 1, 0), (1, 0, 0), (0, 0, 1))
    elif scenario == "epsmix":
        return CausalChoi(DensityOperator(_tau_epsmix(eps), CBD_FACTORS))
    else:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}")
    return causal_map_from_circuit(rho_ce, gate)


def random_probabilistic_mixture(rng=None) -> CausalChoi:
    """Random convex combination of a pure cause-effect and a pure
    common-cause relation with matched marginal on C:
    p rho_C x tau_BD + (1 - p) tau_CB x 1/2, rho_C = Tr_B(tau_CB).
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tau_cb = g @ g.conj().T
    tau_cb = tau_cb / np.trace(tau_cb).real
    rho_c, _ = partial_trace(tau_cb, (("C", 2), ("B", 2)), "B")
    # random qubit channel D -> B from a Haar-ish isometry into B x env
    v = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v, _ = np.linalg.qr(v)
    kraus = tuple(v[2 * k:2 * k + 2, :] for k in range(4))
    tau_bd = quantum.choi_of_channel(quantum.KrausChannel(kraus), "B", "D").mat
    p = float(rng.uniform())
    ce = np.kron(rho_c, tau_bd)                               # (C, B, D)
    cc, _ = tensor_product(tau_cb, (("C", 2), ("B", 2)), np.eye(2) / 2, (("D", 2),))
    return CausalChoi(DensityOperator(hermitize(p * ce + (1 - p) * cc), CBD_FACTORS))


def _measurement_stack() -> np.ndarray:
    """(3, 3, 3, 8, 64) stack over (s, t, u, cbd): the transpose of
    Pi_c x Pi_b x Pi_d, flattened, for Pauli projectors of sigma_s on C,
    sigma_u on B and sigma_t on D.  A plain broadcast product in kron order,
    so every entry, signed zeros included, equals its kron-built value."""
    p = np.array([[pauli_projector(a, o) for o in (+1, -1)] for a in PAULI_AXES])
    # axes: s, t, u, c, b, d, then the row and the column of each factor
    pc = p.reshape(3, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1)
    pb = p.reshape(1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 2, 1)
    pd = p.reshape(1, 3, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2)
    op = (pc * pb * pd).reshape(3, 3, 3, 8, 8, 8)
    return np.swapaxes(op, -1, -2).reshape(3, 3, 3, 8, 64)


MEAS_STACK = _measurement_stack()

# Tr_w[(Pi on wire w) tau] for tau as a (c, b, d, c', b', d') tensor
_TRACE_OUT = {
    "C": "xk,kbdxef->bdef",
    "B": "xk,ckdexf->cdef",
    "D": "xk,cbkefx->cbef",
}


def _project_and_trace(tau: CausalChoi, proj: np.ndarray, wire: str):
    reduced = np.einsum(_TRACE_OUT[wire], proj, tau.mat.reshape((2,) * 6)).reshape(4, 4)
    f = tuple(fac for fac in CBD_FACTORS if fac[0] != wire)
    return reduced, f, float(np.trace(reduced).real)


def induced_state_given_b(tau: CausalChoi, proj_b: np.ndarray):
    """Conditional state on (C, D) after finding outcome Pi_b on B."""
    reduced, f, prob = _project_and_trace(tau, proj_b, "B")
    if prob < 1e-12:
        raise ConditioningError("outcome probability vanishes")
    return DensityOperator(hermitize(reduced / prob), f), prob


def induced_state_given_c(tau: CausalChoi, proj_c: np.ndarray):
    """Conditional state on (B, D) after finding outcome Pi_c on C."""
    reduced, f, prob = _project_and_trace(tau, proj_c, "C")
    if prob < 1e-12:
        raise ConditioningError("outcome probability vanishes")
    return DensityOperator(hermitize(reduced / prob), f), prob


def induced_state_given_d(tau: CausalChoi, proj_d: np.ndarray) -> DensityOperator:
    """State on (C, B) prepared by feeding Pi_d into the causal map:
    2 Tr_D[tau (1 x Pi_d^T)], which equals 2 Tr_D[(1 x Pi_d^T) tau]."""
    reduced, f, _ = _project_and_trace(tau, proj_d.T, "D")
    return DensityOperator(hermitize(2.0 * reduced), f)


def _setting_cells(tau: CausalChoi, s: str, t: str, u: str) -> np.ndarray:
    """Uniform-preparation joint P(c, b, d | s, t, u) as a (c, b, d) array."""
    for a in (s, t, u):
        if a not in PAULI_AXES:
            raise ValueError(f"axis must be one of {PAULI_AXES}, got {a!r}")
    rows = MEAS_STACK[PAULI_AXES.index(s), PAULI_AXES.index(t), PAULI_AXES.index(u)]
    td = partial_transpose(tau.mat, CBD_FACTORS, "D")
    return np.real(rows @ td.reshape(-1)).reshape(2, 2, 2)


def predict_probability(tau: CausalChoi, s: str, t: str, u: str,
                        c: int, b: int, d: int) -> float:
    """P(c, b | d; s, t, u): measure sigma_s on C, sigma_u on B, prepare the
    d eigenstate of sigma_t on D."""
    if not {c, b, d} <= {+1, -1}:
        raise ValueError("outcomes must be +1 or -1")
    cells = _setting_cells(tau, s, t, u)
    return float(2.0 * cells[(1 - c) // 2, (1 - b) // 2, (1 - d) // 2])


def joint_distribution(tau: CausalChoi, s: str, t: str, u: str) -> np.ndarray:
    """Joint P(c, d, b) under uniform preparation P(d) = 1/2.

    Indexed [ci, di, bi] with index 0 for outcome +1 and 1 for outcome -1.
    """
    return _setting_cells(tau, s, t, u).transpose(0, 2, 1)
