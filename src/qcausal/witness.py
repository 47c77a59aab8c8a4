"""Witnesses and classification of two-qubit causal relations.

Three witness families: pathway negativities (entanglement of the induced
states), the covariance witness C_CD that vanishes on every probabilistic
mixture of cause-effect and common-cause, and the Berkson-type test (induced
entanglement between C and D for every outcome on B).  bootstrap_thresholds
is the rule that turns bootstrap deviations of witness_values into thresholds.

classify works on arrays: the six induced states (both z outcomes on C, D
and B) come from causal.z_conditioned_states, and one gather by a precomputed
index lays out each state beside its partial transpose.  One eigvalsh over
the 12 matrices serves both the states' validation (quantum.check_states) and
the negativities; C_CD and its expectation-value form come from one product
of moments.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import causal, matlin, quantum
from .causal import CausalChoi
from .quantum import DensityOperator

NEG_FLOOR = 1e-12
DEFAULT_THRESHOLD = 1e-6
THRESHOLD_TAIL = math.erfc(3.0 / math.sqrt(2.0))   # two-sided tail of a 3-sigma normal test
DEFAULT_CCD_SETTINGS = ("x", "y", "z")

# the H/V (z) outcomes of every pathway witness, as causal.z_conditioned_states orders them
_OUTCOMES = ("H", "V")
# Positions, in a flattened two-qubit state, of the state and then of its
# partial transpose on the second factor: the transposed factor of each of
# classify's (B, D), (C, B) and (C, D) states.
_STATE_AND_PT = np.concatenate(
    [np.arange(16), matlin.partial_transpose_index((("A", 2), ("B", 2)), "B").reshape(-1)])


def _negativities(pts: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Negativities (trace norm - 1)/2 from a (n, d, d) stack of partial
    transposes, with one batched eigvalsh unless their eigenvalues w come
    from the caller's; values below NEG_FLOOR read 0.  pts are transposes of
    states that passed check_states: partial transposition permutes the
    entries of M - M^dagger, so they are as Hermitian as those states."""
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


def _ccd_forms(p: np.ndarray) -> tuple[float, float]:
    """(C_CD, sum c d b P) from the moments of a normalized (c, d, b) array
    p, taken as given: the covariance form and the expectation value
    m_cd(H) - m_cd(V)."""
    (pb_h, pb_v), (c_h, c_v), (d_h, d_v), (cd_h, cd_v) = (
        _CCD_MOMENTS @ p.reshape(4, 2)).tolist()
    h = pb_h * cd_h - c_h * d_h if pb_h > 0 else 0.0
    v = pb_v * cd_v - c_v * d_v if pb_v > 0 else 0.0
    return 2.0 * (h - v), cd_h - cd_v


def witness_ccd_from_distribution(p: np.ndarray) -> float:
    """Covariance form 2 sum_b b P(b)^2 cov(c, d | b).

    p is indexed [ci, di, bi] with index 0 for outcome +1, 1 for -1.  From
    the unnormalized moments m_x(b) = sum x p(., ., b), P(b)^2 cov(c, d | b)
    = P(b) m_cd - m_c m_d, all taken in one product; an outcome of b with
    probability 0 adds nothing.
    """
    return _ccd_forms(_check_normalized(p))[0]


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


@dataclass(frozen=True)
class Thresholds:
    negativity: float = DEFAULT_THRESHOLD
    ccd: float = DEFAULT_THRESHOLD


@dataclass(frozen=True)
class WitnessReport:
    """The witness values of one causal map, the thresholds they are
    compared with and the covariance setting of ccd; ``label`` is the class
    they witness, and to_dict/to_json the report block."""

    neg_c_bd: dict
    neg_d_cb: dict
    neg_b_cd: dict
    ccd: float
    ccd0: float
    thresholds: Thresholds
    ccd_settings: tuple

    @property
    def label(self) -> str:
        """The classification rule.  Both pathways are quantum when both
        outcomes of neg_c_bd and of neg_d_cb exceed the negativity
        threshold; the map is then Coh if both outcomes of the Berkson test
        neg_b_cd do too, else PhysQ or ProbQ as |ccd| exceeds the ccd
        threshold or not.  Otherwise it is PhysC or ProbC by the same ccd
        test.  Each test is a sufficient condition: a witnessed property
        means "witnessed at these settings", never "proven absent"."""
        def witnessed(neg: dict) -> bool:
            return min(neg.values()) > self.thresholds.negativity

        physical = abs(self.ccd) > self.thresholds.ccd
        if witnessed(self.neg_c_bd) and witnessed(self.neg_d_cb):
            return "Coh" if witnessed(self.neg_b_cd) else "PhysQ" if physical else "ProbQ"
        return "PhysC" if physical else "ProbC"

    def to_dict(self) -> dict:
        """The report's fields with its label, as to_json writes them."""
        return {
            "neg_c_bd": self.neg_c_bd,
            "neg_d_cb": self.neg_d_cb,
            "neg_b_cd": self.neg_b_cd,
            "ccd": self.ccd,
            "ccd0": self.ccd0,
            "ccd_settings": list(self.ccd_settings),
            "label": self.label,
            "thresholds": {"negativity": self.thresholds.negativity,
                           "ccd": self.thresholds.ccd},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def classify(tau: CausalChoi, thresholds: Thresholds | None = None,
             ccd_settings=DEFAULT_CCD_SETTINGS) -> WitnessReport:
    """Evaluate all witnesses in the H/V conditioning bases and label the map.

    ccd_settings picks one member of the covariance-witness family; (x, y, z)
    is the default but a single setting can miss some physical mixtures.
    """
    thresholds = thresholds or Thresholds()
    # (outcome H, V) x (C|BD, D|CB, B|CD), each state beside its partial
    # transpose.  The states come out hermitized, so their transposes are
    # exactly Hermitian.
    states = causal.z_conditioned_states(tau)[0].reshape(6, 16)
    both = states[:, _STATE_AND_PT].reshape(6, 2, 4, 4)
    w = np.linalg.eigvalsh(both)
    quantum.check_states(both[:, 0], w[:, 0])
    negs = _negativities(both[:, 1], w[:, 1]).reshape(len(_OUTCOMES), 3)
    neg_c_bd, neg_d_cb, neg_b_cd = ({k: float(v) for k, v in zip(_OUTCOMES, col)}
                                    for col in negs.T)
    # tau passed check_states when it was made, so its joint distribution
    # is taken as given
    ccd, ccd0 = _ccd_forms(causal.joint_distribution(tau, *ccd_settings))
    return WitnessReport(
        neg_c_bd=neg_c_bd, neg_d_cb=neg_d_cb, neg_b_cd=neg_b_cd,
        ccd=ccd, ccd0=ccd0, thresholds=thresholds, ccd_settings=tuple(ccd_settings),
    )


def witness_values(tau: CausalChoi, ccd_settings=DEFAULT_CCD_SETTINGS) -> dict:
    """The witnesses of tau that bootstrap thresholds rest on: ccd and the
    six negativities, keyed neg_c_bd_H, neg_c_bd_V and so on."""
    r = classify(tau, ccd_settings=ccd_settings).to_dict()
    return {"ccd": r["ccd"], **{f"{fam}_{k}": v for fam in ("neg_c_bd", "neg_d_cb", "neg_b_cd")
                                for k, v in r[fam].items()}}


@functools.cache
def threshold_sigmas(n_resamples: int) -> float:
    """The multiplier of bootstrap_thresholds, the two-sided Student-t quantile
    with nu = n_resamples - 1 degrees of freedom at THRESHOLD_TAIL: 235.80 at 2
    resamples, 4.0943 at 10, toward 3 as they grow.  P(|T| <= t) is a finite
    sum in theta = arctan(t / sqrt(nu)) (Abramowitz & Stegun 26.7.3-4), bisected."""
    nu = n_resamples - 1
    if nu < 1:
        raise ValueError(f"a standard deviation needs n_resamples >= 2, got {n_resamples}")
    odd = nu % 2
    j = np.arange(1, nu // 2)
    ratio = (2 * j - 1 + odd) / (2 * j + odd)

    def central(theta):       # P(|T| <= sqrt(nu) tan(theta))
        c, s = math.cos(theta), math.sin(theta)
        series = 1.0 + np.cumprod(ratio * c * c).sum()
        return 2.0 / math.pi * (theta + s * c * series * (nu > 1)) if odd else s * series

    lo, hi = 0.0, math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if central(mid) < 1.0 - THRESHOLD_TAIL else (lo, mid)
    return math.sqrt(nu) * math.tan(mid)


def bootstrap_thresholds(summary: dict) -> Thresholds:
    """threshold_sigmas(K) times the standard deviations of witness_values in
    ``summary``, their tomography.bootstrap_summary over K refits: one
    negativity threshold from the largest of the six negativity deviations,
    one for ccd, each at least DEFAULT_THRESHOLD."""
    sigmas, std = threshold_sigmas(summary["n_resamples"]), summary["std"]
    neg_std = max(v for k, v in std.items() if k.startswith("neg"))
    return Thresholds(negativity=max(sigmas * neg_std, DEFAULT_THRESHOLD),
                      ccd=max(sigmas * std["ccd"], DEFAULT_THRESHOLD))
