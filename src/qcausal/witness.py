"""Witnesses and classification of two-qubit causal relations.

Three witness families: pathway negativities (entanglement of the induced
states), the covariance witness C_CD that vanishes on every probabilistic
mixture of cause-effect and common-cause, and the Berkson-type test (induced
entanglement between C and D for every outcome on B).

classify works on arrays, with no per-state objects: the six induced states
(both z outcomes on C, D and B) come from causal.conditioned_states as one
stack, and one eigvalsh over them and their six partial transposes serves
both their validation (quantum.check_states) and the negativities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import causal, matlin, quantum
from .causal import CausalChoi
from .quantum import DensityOperator, pauli_projector

NEG_FLOOR = 1e-12
DEFAULT_THRESHOLD = 1e-6
DEFAULT_CCD_SETTINGS = ("x", "y", "z")

CLASS_LABELS = ("ProbC", "PhysC", "ProbQ", "PhysQ", "Coh")

# the H/V conditioning basis of every pathway witness
_OUTCOMES = ("H", "V")
_Z_PROJECTORS = np.array([pauli_projector("z", +1), pauli_projector("z", -1)])


def _negativities(pts: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Negativities (trace norm - 1)/2 from a (n, d, d) stack of partial
    transposes, with one batched eigvalsh unless their eigenvalues w come
    from the caller's; values below NEG_FLOOR read 0."""
    if not matlin.is_hermitian(pts, atol=1e-9):
        raise matlin.NotHermitianError("partial transpose is not Hermitian")
    if w is None:
        w = np.linalg.eigvalsh(matlin.hermitize(pts))
    n = 0.5 * (np.abs(w).sum(axis=-1) - 1.0)
    return np.where(n < NEG_FLOOR, 0.0, n)


def negativity(rho: DensityOperator, over: str) -> float:
    """Entanglement negativity (trace norm of the partial transpose - 1)/2."""
    if len(rho.factors) != 2:
        raise ValueError("negativity is defined here for bipartite states")
    pt = matlin.partial_transpose(rho.mat, rho.factors, over)
    return float(_negativities(pt[None])[0])


def _check_normalized(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2, 2):
        raise ValueError("expected a (c, d, b) array of shape (2, 2, 2)")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p


# Rows give, from p reshaped to [(c, d), b], the moments sum x p(., ., b) of
# x = 1, c, d and c d for both outcomes of b at once.
_CCD_MOMENTS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


def witness_ccd_from_distribution(p: np.ndarray) -> float:
    """Covariance form 2 sum_b b P(b)^2 cov(c, d | b).

    p is indexed [ci, di, bi] with index 0 for outcome +1, 1 for -1.  From
    the unnormalized moments m_x(b) = sum x p(., ., b), P(b)^2 cov(c, d | b)
    = P(b) m_cd - m_c m_d, all taken in one product; an outcome of b with
    probability 0 adds nothing.
    """
    p = _check_normalized(p)
    (pb_h, pb_v), (c_h, c_v), (d_h, d_v), (cd_h, cd_v) = (
        _CCD_MOMENTS @ p.reshape(4, 2)).tolist()
    h = pb_h * cd_h - c_h * d_h if pb_h > 0 else 0.0
    v = pb_v * cd_v - c_v * d_v if pb_v > 0 else 0.0
    return 2.0 * (h - v)


def witness_ccd_product_form(p: np.ndarray) -> float:
    """Equivalent product form 8 sum_b b [P(++b)P(--b) - P(+-b)P(-+b)]."""
    p = _check_normalized(p)
    out = 0.0
    for bi, bsign in enumerate((1.0, -1.0)):
        out += 8.0 * bsign * (p[0, 0, bi] * p[1, 1, bi] - p[0, 1, bi] * p[1, 0, bi])
    return out


def witness_ccd_from_counts(counts: np.ndarray) -> float:
    """C_CD directly from raw count numbers for one fixed (s, t, u) setting.

    counts is indexed like the distribution form.  Identical to normalizing
    the counts first; the overall factor 8 is kept so that all three forms
    agree exactly.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (2, 2, 2):
        raise ValueError("expected a (c, d, b) array of shape (2, 2, 2)")
    total = counts.sum()
    if total <= 0:
        raise ValueError("zero total counts")
    out = 0.0
    for bi, bsign in enumerate((1.0, -1.0)):
        out += bsign * (counts[0, 0, bi] * counts[1, 1, bi]
                        - counts[0, 1, bi] * counts[1, 0, bi])
    return 8.0 * out / total ** 2


def witness_ccd0(p: np.ndarray) -> float:
    """Expectation value sum_{cdb} c d b P(c, d, b); equals C_CD when the
    (c, b) and (d, b) marginals are uniform."""
    p = np.asarray(p, dtype=float)
    sign = np.array([1.0, -1.0])
    return float(np.einsum("cdb,c,d,b->", p, sign, sign, sign))


def distribution_from_choi(tau: CausalChoi, settings=DEFAULT_CCD_SETTINGS) -> np.ndarray:
    """Joint P(c, d, b) generated by a Choi state at Pauli settings (s, t, u)."""
    s, t, u = settings
    joint = causal.joint_distribution(tau, s, t, u)
    return joint


@dataclass(frozen=True)
class Thresholds:
    negativity: float = DEFAULT_THRESHOLD
    ccd: float = DEFAULT_THRESHOLD


@dataclass(frozen=True)
class WitnessReport:
    """All witness values for one causal map plus the resulting class label.

    The pathway tests are sufficient conditions: a flag reports "witnessed at
    these settings", never "proven absent".
    """

    neg_c_bd: dict
    neg_d_cb: dict
    neg_b_cd: dict
    ccd: float
    ccd0: float
    label: str
    thresholds: Thresholds
    ccd_settings: tuple = DEFAULT_CCD_SETTINGS
    stddevs: dict = field(default_factory=dict)

    @property
    def quantum_cause_effect(self) -> bool:
        return min(self.neg_c_bd.values()) > self.thresholds.negativity

    @property
    def quantum_common_cause(self) -> bool:
        return min(self.neg_d_cb.values()) > self.thresholds.negativity

    @property
    def physical_mixture(self) -> bool:
        return abs(self.ccd) > self.thresholds.ccd

    @property
    def berkson(self) -> bool:
        return min(self.neg_b_cd.values()) > self.thresholds.negativity

    def to_json(self) -> str:
        return json.dumps({
            "neg_c_bd": self.neg_c_bd,
            "neg_d_cb": self.neg_d_cb,
            "neg_b_cd": self.neg_b_cd,
            "ccd": self.ccd,
            "ccd0": self.ccd0,
            "ccd_settings": list(self.ccd_settings),
            "label": self.label,
            "thresholds": {"negativity": self.thresholds.negativity,
                           "ccd": self.thresholds.ccd},
            "stddevs": self.stddevs,
        })


def _assign_label(quantum_both: bool, physical: bool, berkson: bool) -> str:
    if berkson and quantum_both:
        return "Coh"
    if quantum_both and physical:
        return "PhysQ"
    if quantum_both:
        return "ProbQ"
    if physical:
        return "PhysC"
    return "ProbC"


def classify(tau: CausalChoi, thresholds: Thresholds | None = None,
             ccd_settings=DEFAULT_CCD_SETTINGS, stddevs: dict | None = None) -> WitnessReport:
    """Evaluate all witnesses in the H/V conditioning bases and label the map.

    ccd_settings picks one member of the covariance-witness family; (x, y, z)
    is the default but a single setting can miss some physical mixtures.
    """
    thresholds = thresholds or Thresholds()
    # (outcome H, V) x (C|BD, D|CB, B|CD); the (B, D), (C, B) and (C, D)
    # states are each transposed on their second factor: D, B and D.  The
    # states come out hermitized, so their transposes are exactly Hermitian.
    states = causal.conditioned_states(tau, _Z_PROJECTORS, "CDB")[0].reshape(6, 4, 4)
    pts = np.swapaxes(states.reshape(6, 2, 2, 2, 2), 2, 4).reshape(6, 4, 4)
    w = np.linalg.eigvalsh(np.concatenate([states, pts]))
    quantum.check_states(states, w[:6])
    negs = _negativities(pts, w[6:]).reshape(len(_OUTCOMES), 3)
    neg_c_bd, neg_d_cb, neg_b_cd = ({k: float(v) for k, v in zip(_OUTCOMES, col)}
                                    for col in negs.T)
    p = distribution_from_choi(tau, ccd_settings)
    ccd = witness_ccd_from_distribution(p)
    ccd0 = witness_ccd0(p)
    quantum_both = (min(neg_c_bd.values()) > thresholds.negativity
                    and min(neg_d_cb.values()) > thresholds.negativity)
    physical = abs(ccd) > thresholds.ccd
    berkson = min(neg_b_cd.values()) > thresholds.negativity
    return WitnessReport(
        neg_c_bd=neg_c_bd, neg_d_cb=neg_d_cb, neg_b_cd=neg_b_cd,
        ccd=ccd, ccd0=ccd0,
        label=_assign_label(quantum_both, physical, berkson),
        thresholds=thresholds, ccd_settings=tuple(ccd_settings),
        stddevs=stddevs or {},
    )
