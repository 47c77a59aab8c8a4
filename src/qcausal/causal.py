"""Two-qubit causal relations: circuits, their Choi states, induced states.

A causal relation between a pre-intervention system C, a repreparation D and
a later system B is represented by the tripartite Choi state tau_CBD of the
map from D to (C, B).  The four reference circuits share a single structure:
C and E start in |Phi+>, a unitary gate takes the (D, E) wire pair to
(B, F), and F is discarded; its tau_CBD is one contraction of the gate with
rho_CE (_circuit_choi).  The classical scenarios dephase that Choi state
wire by wire (_dephase): D and B as themselves, and E, entangled with C in
|Phi+>, as C.  probq mixes the Choi states of two gates, and the fifth,
epsmix, blends probq with a z-basis physically mixed term.

Every Pauli measurement row comes from one builder, _pauli_rows(n): a row
dotted with vec(rho) is the probability of its cell, Tr[rho Pi_1 x ... x
Pi_n^T], transposed on the prepared wire D there and nowhere else.  Its
(3, 3, 3, 8, 64) stack MEAS_STACK over the settings (s on C, t for the
repreparation on D, u on B) gives the uniform-preparation joint
P(c, b, d | s, t, u); tomography uses it, and the two-wire stack for the
(C, D) states of the Berkson analysis.  The same broadcast product gives
the normalized Pauli strings (_pauli_strings), the coordinates of both
tomographic fits.  Conditioning on a projector is one contraction of tau as
a (2,)*6 tensor (induced_state_given_c/d/b).  For a z outcome that state is
a diagonal block of the tensor, so classification takes its six induced
states, both z outcomes on C, D and B, as one gather (z_conditioned_states).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import quantum
from .matlin import hermitize, partial_trace
from .quantum import (
    IDENTITY_2,
    PAULI_AXES,
    DensityOperator,
    SIGMA,
    SWAP_4,
    bell_phi_plus,
    pauli_projector,
)

NO_RETRO_ATOL = 1e-8
SCENARIO_IDS = ("probc", "physc", "probq", "coh", "epsmix")

CBD_FACTORS = (("C", 2), ("B", 2), ("D", 2))


class ConditioningError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


def no_retro_deviation(mat: np.ndarray) -> np.ndarray:
    """Tr_B(S) - Tr_BD(S) x 1/2 for an 8x8 S over (C, B, D), as a (c, d, c', d')
    array: the no-retrocausation constraint that CausalChoi validates and
    whose null space is the basis of tomography's tau_CBD fit.  Zero exactly
    when S cannot signal from B back to (C, D); real-linear in S."""
    t = mat.reshape(2, 2, 2, 2, 2, 2)
    marg = np.trace(t, axis1=1, axis2=4)       # (c, d, c', d')
    rho_c = np.trace(marg, axis1=1, axis2=3)   # (c, c')
    return marg - np.einsum("ij,kl->ikjl", rho_c, np.eye(2) / 2)


@dataclass(frozen=True)
class CausalChoi:
    """Choi state tau_CBD of a trace-preserving causal map from D to (C, B).
    no_retro_residual is the largest entry of |no_retro_deviation(tau)|, which
    the validation bounds by NO_RETRO_ATOL."""

    tau: DensityOperator
    no_retro_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tau.factors != CBD_FACTORS:
            raise quantum.ShapeMismatchError(f"expected factors {CBD_FACTORS}")
        residual = float(np.max(np.abs(no_retro_deviation(self.tau.mat))))
        if residual > NO_RETRO_ATOL:
            raise quantum.StateValidationError(
                "no-retrocausation violated: Tr_B(tau) != rho_C x 1/2")
        object.__setattr__(self, "no_retro_residual", residual)

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
        """Raises ValueError unless the document is an object with numeric re
        and im arrays of one shape and, if given, to_json's labels and dim;
        and the validation errors of CausalChoi."""
        data = json.loads(text)
        if not isinstance(data, dict) or not {"re", "im"} <= data.keys():
            raise ValueError("Choi JSON must be an object with 're' and 'im' arrays")
        if (data.get("labels", ["C", "B", "D"]), data.get("dim", 8)) != (["C", "B", "D"], 8):
            raise ValueError(f"Choi JSON must have labels ['C', 'B', 'D'] and dim 8, got "
                             f"{data.get('labels')!r} and {data.get('dim')!r}")
        try:
            re, im = np.array(data["re"], dtype=float), np.array(data["im"], dtype=float)
        except TypeError as exc:          # an object or a list of them
            raise ValueError(f"'re' and 'im' must be numeric arrays: {exc}") from exc
        if re.shape != im.shape:
            raise ValueError(f"'re' and 'im' must have one shape, got {re.shape} and {im.shape}")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):    # null converts to nan
            raise ValueError("'re' and 'im' must hold finite numbers")
        return cls(DensityOperator(re + 1j * im, CBD_FACTORS))


def partial_swap(theta: float) -> np.ndarray:
    """Unitary interpolating identity (theta=0) and swap (theta=pi) on two wires.

    Implements exp(i theta/2) (cos(theta/2) 1x1 - i sin(theta/2) SWAP); at
    theta = -pi/2 this is (1x1 + i SWAP)/sqrt(2) up to a global phase.
    """
    half = theta / 2.0
    u = np.exp(1j * half) * (np.cos(half) * np.eye(4) - 1j * np.sin(half) * SWAP_4)
    return u


def _circuit_choi(u: np.ndarray) -> np.ndarray:
    """tau_CBD of Tr_F o U( . x rho_CE ), rho_CE = |Phi+><Phi+|, fed with half
    of |Phi+> on D, for a unitary u taking the (D, E) wire pair to (B, F):
    tau[c b d, c' b' d'] = 1/2 sum_f U[b f, d e] rho_CE[c e, c' e'] conj(U[b' f, d' e'])."""
    k = np.asarray(u, dtype=complex).reshape(2, 2, 2, 2)      # (b, f, d, e)
    rho = bell_phi_plus(("C", "E")).mat.reshape(2, 2, 2, 2)   # (c, e, c', e')
    tau = 0.5 * np.einsum("bfde,cexy,zfwy->cbdxzw", k, rho, k.conj()).reshape(8, 8)
    return hermitize(tau)


def _dephase(tau: np.ndarray, wire: str, axis: str) -> np.ndarray:
    """Complete dephasing of one wire of tau_CBD in the eigenbasis of
    sigma_axis: the sum of Pi tau Pi over both projectors Pi on that wire.  A
    projector pair is its own transpose, so this on D dephases the input D;
    on C it dephases E before the gate, since (1 x A)|Phi+> = (A^T x 1)|Phi+>
    and the gate does not touch C."""
    stacks = [IDENTITY_2[None]] * 3
    stacks["CBD".index(wire)] = np.array([pauli_projector(axis, o) for o in (+1, -1)])
    p = _wire_product(stacks).reshape(2, 8, 8)
    return (p @ tau @ p).sum(axis=0)


def build_scenario(scenario: str, eps: float = 0.1) -> CausalChoi:
    """Reference causal relations: coh a partial swap's _circuit_choi, probq
    the 50/50 mix of identity's and swap's, probc and physc a partial swap's
    dephased on D, E (as C) and B.  epsmix blends probq with weight 1 - eps
    into a z-basis physically mixed term; eps must lie in [0, 1] for all."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    scenario = scenario.lower()
    if scenario == "coh":
        tau = _circuit_choi(partial_swap(-np.pi / 2))
    elif scenario == "probq":
        tau = 0.5 * (_circuit_choi(np.eye(4)) + _circuit_choi(SWAP_4))
    elif scenario == "probc":
        tau = _circuit_choi(partial_swap(-np.pi / 2))
        for wire in "DCB":
            tau = _dephase(tau, wire, "z")
    elif scenario == "physc":
        # The opposite swap phase gives the anti-correlated XOR form of this
        # map; with theta = -pi/2 the correlations come out sign-exchanged.
        tau = _circuit_choi(partial_swap(np.pi / 2))
        for wire, axis in (("D", "y"), ("C", "x"), ("B", "z")):
            tau = _dephase(tau, wire, axis)
    elif scenario == "epsmix":
        # u(c) u(d) delta_{b, c xor d} over (c, b, d)
        xor = np.diag([0.25 * (b == c ^ d) for c, b, d in product(range(2), repeat=3)])
        mixed = np.eye(8) / 8
        tau = (1 - eps) * build_scenario("probq").mat + eps * (0.5 * mixed + 0.5 * xor)
    else:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}")
    return CausalChoi(DensityOperator(tau, CBD_FACTORS))


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
    # random qubit channel D -> B from a Haar-ish isometry into env x B: its
    # Choi state 1/2 sum_k K_k x conj(K_k) over the 2x2 blocks K_k
    v = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v, _ = np.linalg.qr(v)
    k = v.reshape(4, 2, 2)                                    # (env, b, d)
    tau_bd = hermitize(0.5 * np.einsum("nbd,nxy->bdxy", k, k.conj()).reshape(4, 4))
    p = float(rng.uniform())
    ce = np.kron(rho_c, tau_bd)                               # (C, B, D)
    cc = np.kron(tau_cb, np.eye(2) / 2)
    return CausalChoi(DensityOperator(hermitize(p * ce + (1 - p) * cc), CBD_FACTORS))


def _wire_product(stacks) -> np.ndarray:
    """Every product over n wires of 2x2 operators, one from the k-th stack
    of the sequence stacks on wire k, in kron order: a plain broadcast
    product, so every entry, signed zeros included, equals its kron-built
    value.  Each leading axis of the (equal-shaped) stacks comes back as n
    axes, wire 1 first, followed by the 2**n rows and the 2**n columns."""
    n = len(stacks)
    # stack k on the axes of wire k
    factors = [p.reshape([m if j == k else 1 for m in p.shape for j in range(n)])
               for k, p in enumerate(stacks)]
    op = functools.reduce(np.multiply, factors)
    return op.reshape(op.shape[:-2 * n] + (2 ** n, 2 ** n))


@functools.cache
def _pauli_rows(n: int) -> np.ndarray:
    """(3,)*n + (2**n, 4**n) stack over the Pauli settings and outcomes of n
    wires in kron order, the last wire prepared: the transpose of
    Pi_1 x ... x Pi_(n-1) x Pi_n^T, flattened, so that a row dotted with
    vec(rho) is Tr[rho Pi_1 x ... x Pi_n^T].  Cached per n and read-only."""
    p = np.array([[pauli_projector(a, o) for o in (+1, -1)] for a in PAULI_AXES])
    op = _wire_product([p] * (n - 1) + [p.swapaxes(-1, -2)]).reshape((3,) * n + (2 ** n,) * 3)
    rows = np.swapaxes(op, -1, -2).reshape((3,) * n + (2 ** n, 4 ** n))
    rows.flags.writeable = False
    return rows


def _pauli_strings(n: int) -> np.ndarray:
    """The 4**n Pauli strings of n wires in kron order over sqrt(2**n), as a
    (4**n, 2**n, 2**n) stack: a trace-orthonormal basis of the Hermitian
    matrices.  String i holds sigma_(i_k) on wire k, the base-4 digits i_k of
    i with wire 1 first, and sigma_0 = 1 then x, y, z."""
    p = np.array([IDENTITY_2] + [SIGMA[a] for a in PAULI_AXES])
    return _wire_product([p] * n).reshape(4 ** n, 2 ** n, 2 ** n) / np.sqrt(2 ** n)


# (3, 3, 3, 8, 64) over (s, t, u, cbd): sigma_s on C, sigma_t on D, sigma_u on B
MEAS_STACK = np.ascontiguousarray(_pauli_rows(3).transpose(0, 2, 1, 3, 4))

# Tr_w[(Pi on wire w) tau] for tau as a (c, b, d, c', b', d') tensor; D is fed
# Pi^T, whose row and column the einsum swaps
_CONDITION = {
    "C": "xk,kbdxef->bdef",
    "D": "kx,cbkefx->cbef",
    "B": "xk,ckdexf->cdef",
}
# the factors left after conditioning on (or preparing) each wire
_REMAINING = {w: tuple(f for f in CBD_FACTORS if f[0] != w) for w in _CONDITION}

# (2, 3, 4, 4) positions in vec(tau) of the unnormalized states after outcome
# k of z on C, D and B: diagonal blocks of the (c, b, d, c', b', d') tensor
_CBD_POSITIONS = np.arange(64).reshape((2,) * 6)
_Z_INDEX = np.array([[_CBD_POSITIONS[k, :, :, k], _CBD_POSITIONS[:, :, k, :, :, k],
                      _CBD_POSITIONS[:, k, :, :, k]] for k in range(2)]).reshape(2, 3, 4, 4)


def _normalized(raw: np.ndarray, wires: str):
    """(states, probs) from the unnormalized induced states raw, whose axis
    -3 runs over the wires named in the string wires."""
    probs = np.trace(raw, axis1=-2, axis2=-1).real
    # C and B states are normalized by their probability; dividing by 1/2 is
    # the exact doubling of the preparation on D
    norm = np.where([w == "D" for w in wires], 0.5, probs)
    if norm.min() < 1e-12:
        raise ConditioningError("outcome probability vanishes")
    return hermitize(raw / norm[..., None, None]), probs


def z_conditioned_states(tau: CausalChoi):
    """The six induced states of classification as one gather of tau's
    entries: (states, probs) of shapes (2, 3, 4, 4) and (2, 3), states[k, i]
    that of induced_state_given_c/d/b at pauli_projector("z", (+1, -1)[k]) for
    wire i of C, D, B, and probs[k, i] its probability, 1/2 on D.  A
    probability below 1e-12 on C or B raises ConditioningError."""
    return _normalized(tau.mat.reshape(-1)[_Z_INDEX], "CDB")


def _induced_state(tau: CausalChoi, proj: np.ndarray, wire: str):
    raw = np.einsum(_CONDITION[wire], np.asarray(proj), tau.mat.reshape((2,) * 6))
    states, probs = _normalized(raw.reshape(1, 4, 4), wire)
    return DensityOperator(states[0], _REMAINING[wire]), float(probs[0])


def induced_state_given_b(tau: CausalChoi, proj_b: np.ndarray):
    """Conditional state on (C, D) after finding outcome Pi_b on B."""
    return _induced_state(tau, proj_b, "B")


def induced_state_given_c(tau: CausalChoi, proj_c: np.ndarray):
    """Conditional state on (B, D) after finding outcome Pi_c on C."""
    return _induced_state(tau, proj_c, "C")


def induced_state_given_d(tau: CausalChoi, proj_d: np.ndarray) -> DensityOperator:
    """State on (C, B) prepared by feeding Pi_d into the causal map:
    2 Tr_D[tau (1 x Pi_d^T)], which equals 2 Tr_D[(1 x Pi_d^T) tau]."""
    return _induced_state(tau, proj_d, "D")[0]


def joint_distribution(tau: CausalChoi, s: str, t: str, u: str) -> np.ndarray:
    """Joint P(c, d, b) under uniform preparation P(d) = 1/2 at Pauli settings
    s on C, t on D and u on B: one slice of MEAS_STACK.

    Indexed [ci, di, bi] with index 0 for outcome +1 and 1 for outcome -1.
    """
    for a in (s, t, u):
        if a not in PAULI_AXES:
            raise ValueError(f"axis must be one of {PAULI_AXES}, got {a!r}")
    rows = MEAS_STACK[PAULI_AXES.index(s), PAULI_AXES.index(t), PAULI_AXES.index(u)]
    return np.real(rows @ tau.mat.reshape(-1)).reshape(2, 2, 2).transpose(0, 2, 1)
