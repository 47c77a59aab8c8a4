"""Classical Berkson analysis: discrete distributions, mutual information,
posterior inversion for probabilistic mixtures, and the induced-correlation
upper bound that physical mixtures can exceed.

Probabilities may be floats or fractions.Fraction; the two-term reduction is
exact algebra when fed rationals.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .causal import ConditioningError


class NotProbabilisticMixtureError(ValueError):
    """A mechanism depends on both D and E, so the control variable acts as a
    common cause itself."""


@dataclass(frozen=True)
class JointDistribution:
    """Discrete joint distribution over named variables."""

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "variables", tuple((str(n), int(c)) for n, c in self.variables))
        if probs.shape != tuple(c for _, c in self.variables):
            raise ValueError("probability table shape does not match cardinalities")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}")


def mutual_information(joint: np.ndarray, base: float = 2.0) -> float:
    """I(X:Y) of a two-variable joint probability table, in base-`base` units."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise ValueError("expected a two-variable joint distribution")
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mi = 0.0
    for i, j in product(range(p.shape[0]), range(p.shape[1])):
        if p[i, j] > 0:
            mi += p[i, j] * math.log(p[i, j] / (px[i] * py[j])) / math.log(base)
    return max(mi, 0.0)


def conditional_mutual_information(joint: np.ndarray, base: float = 2.0) -> dict:
    """I(X:Y | Z=z) for each z of a three-variable table indexed [x, y, z]."""
    p = np.asarray(joint, dtype=float)
    out = {}
    for z in range(p.shape[2]):
        pz = p[:, :, z].sum()
        if pz > 0:
            out[z] = mutual_information(p[:, :, z] / pz, base=base)
    return out


@dataclass(frozen=True)
class ClassicalMixtureSpec:
    """Probabilistic mixture P(B|DE) = (1-p) P_D(B|D) + p P_E(B|E).

    Mechanism tables are indexed [b, cause_value] and column-normalized.
    """

    p: float
    mechanism_d: np.ndarray
    mechanism_e: np.ndarray

    def __post_init__(self):
        md = np.asarray(self.mechanism_d, dtype=float)
        me = np.asarray(self.mechanism_e, dtype=float)
        object.__setattr__(self, "mechanism_d", md)
        object.__setattr__(self, "mechanism_e", me)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("weight p must lie in [0, 1]")
        for m in (md, me):
            if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12:
                raise ValueError("mechanism columns must be normalized over B")


def berkson_posterior(spec: ClassicalMixtureSpec, b: int):
    """Posterior P(D, E | B=b) under uniform priors, and the modified weight q.

    Returns (JointDistribution over D and E, q_b).
    """
    md, me = spec.mechanism_d, spec.mechanism_e
    nd, ne = md.shape[1], me.shape[1]
    wd = md[b, :].sum() / nd                     # sum_D P_D(b|D) u(D)
    we = me[b, :].sum() / ne
    pb = (1.0 - spec.p) * wd + spec.p * we
    if pb <= 0:
        raise ConditioningError(f"outcome B={b} has zero probability")
    q = spec.p * we / pb
    pd = md[b, :] / md[b, :].sum() if wd > 0 else np.full(nd, 1.0 / nd)
    pe = me[b, :] / me[b, :].sum() if we > 0 else np.full(ne, 1.0 / ne)
    joint = (1.0 - q) * np.outer(pd, np.full(ne, 1.0 / ne)) \
        + q * np.outer(np.full(nd, 1.0 / nd), pe)
    return JointDistribution((("D", nd), ("E", ne)), joint), q


def berkson_bound(n: int, base: float = 2.0) -> float:
    """Maximal I(D:E) given the common effect, over probabilistic mixtures:
    log N - (N+1)/N [log(N+1) - 1], strictly below the unconstrained log N."""
    if n < 2:
        raise ValueError("cardinality must be at least 2")
    bits = math.log2(n) - (n + 1) / n * (math.log2(n + 1) - 1.0)
    return bits * math.log(2) / math.log(base)


def extremal_mixture_spec(n: int) -> ClassicalMixtureSpec:
    """Equal-weight deterministic mechanisms that saturate berkson_bound(n)."""
    md = np.zeros((2, n))
    md[0, 0] = 1.0
    md[1, 1:] = 1.0
    return ClassicalMixtureSpec(0.5, md, md.copy())


def physc_distribution():
    """Joint P(c, b, d) of the classical physical-mixture example:
    P(cb|d) = 1/2 u(c) u(b) + 1/2 u(c) delta_{b, c xor d}, with uniform d."""
    probs = np.zeros((2, 2, 2))
    for c, b, d in product(range(2), repeat=2 + 1):
        p = 0.5 * 0.25 + 0.5 * 0.5 * (1 if b == c ^ d else 0)
        probs[c, b, d] = p * 0.5
    return JointDistribution((("c", 2), ("b", 2), ("d", 2)), probs)


# ---------------------------------------------------------------------------
# Two-term reduction of multi-term probabilistic mixtures (exact arithmetic).

@dataclass(frozen=True)
class MixtureTerm:
    """One term of a probabilistic mixture: weight and mechanism P(B|D,E),
    given as nested lists table[b][d][e] (floats or Fractions)."""

    weight: object
    table: tuple

    @staticmethod
    def _freeze(table):
        return tuple(tuple(tuple(row) for row in plane) for plane in table)

    def __post_init__(self):
        object.__setattr__(self, "table", self._freeze(self.table))


@dataclass(frozen=True)
class MixtureContext:
    """Shared latent structure: P(lambda), P(C|lambda) and P(E|lambda),
    as nested lists p_lambda[l], p_c[c][l], p_e[e][l]."""

    p_lambda: tuple
    p_c_given_lambda: tuple
    p_e_given_lambda: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_lambda", tuple(self.p_lambda))
        object.__setattr__(self, "p_c_given_lambda",
                           tuple(tuple(r) for r in self.p_c_given_lambda))
        object.__setattr__(self, "p_e_given_lambda",
                           tuple(tuple(r) for r in self.p_e_given_lambda))

    @property
    def n_lambda(self):
        return len(self.p_lambda)

    def p_c(self, c):
        return sum(self.p_c_given_lambda[c][l] * self.p_lambda[l]
                   for l in range(self.n_lambda))


def _depends_on(table, axis) -> bool:
    """Whether P(B|D,E) varies along D (axis=0) or E (axis=1)."""
    nb, nd, ne = len(table), len(table[0]), len(table[0][0])
    for b, d, e in product(range(nb), range(nd), range(ne)):
        ref = table[b][0][e] if axis == 0 else table[b][d][0]
        if table[b][d][e] != ref:
            return True
    return False


def term_kind(term: MixtureTerm) -> str:
    """'cause-effect' if the mechanism uses only D, 'common-cause' if only E."""
    dep_d = _depends_on(term.table, 0)
    dep_e = _depends_on(term.table, 1)
    if dep_d and dep_e:
        raise NotProbabilisticMixtureError(
            "mechanism depends on both D and E; this is a physical mixture")
    return "common-cause" if dep_e and not dep_d else "cause-effect"


def induced_p_cb_given_d(terms, ctx: MixtureContext):
    """P(cb|d) = sum_j w_j sum_{lambda,e} P_j(b|d,e) P(e|lambda) P(c|lambda) P(lambda).

    Nested list out[c][b][d]; exact when all inputs are Fractions.
    """
    t0 = terms[0].table
    nb, nd, ne = len(t0), len(t0[0]), len(t0[0][0])
    nc = len(ctx.p_c_given_lambda)
    out = [[[0 for _ in range(nd)] for _ in range(nb)] for _ in range(nc)]
    for term in terms:
        for c, b, d in product(range(nc), range(nb), range(nd)):
            acc = 0
            for l in range(ctx.n_lambda):
                for e in range(ne):
                    acc += (term.table[b][d][e] * ctx.p_e_given_lambda[e][l]
                            * ctx.p_c_given_lambda[c][l] * ctx.p_lambda[l])
            out[c][b][d] += term.weight * acc
    return out


def reduce_to_two_terms(terms, ctx: MixtureContext):
    """Aggregate a multi-term probabilistic mixture into one cause-effect term
    P(B|D) and one common-cause term P(B|lambda).

    Returns ((w_ce, p_b_given_d), (w_cc, p_b_given_lambda)); a vacuous side
    carries weight 0 and a uniform table.
    """
    t0 = terms[0].table
    nb, nd, ne = len(t0), len(t0[0]), len(t0[0][0])
    nl = ctx.n_lambda
    w_ce = 0
    w_cc = 0
    p_bd = [[0 for _ in range(nd)] for _ in range(nb)]
    p_bl = [[0 for _ in range(nl)] for _ in range(nb)]
    for term in terms:
        kind = term_kind(term)
        if kind == "cause-effect":
            w_ce = w_ce + term.weight
            for b, d in product(range(nb), range(nd)):
                p_bd[b][d] += term.weight * term.table[b][d][0]
        else:
            w_cc = w_cc + term.weight
            for b, l in product(range(nb), range(nl)):
                p_bl[b][l] += term.weight * sum(
                    term.table[b][0][e] * ctx.p_e_given_lambda[e][l] for e in range(ne))
    one = Fraction(1) if isinstance(w_ce + w_cc, Fraction) else 1.0
    if w_ce:
        p_bd = [[x / w_ce for x in row] for row in p_bd]
    else:
        p_bd = [[one / nb for _ in range(nd)] for _ in range(nb)]
    if w_cc:
        p_bl = [[x / w_cc for x in row] for row in p_bl]
    else:
        p_bl = [[one / nb for _ in range(nl)] for _ in range(nb)]
    return (w_ce, p_bd), (w_cc, p_bl)


def induced_from_reduction(reduced, ctx: MixtureContext, nc=None):
    """P(cb|d) implied by a two-term reduction; same layout as
    induced_p_cb_given_d."""
    (w_ce, p_bd), (w_cc, p_bl) = reduced
    nb, nd = len(p_bd), len(p_bd[0])
    nl = ctx.n_lambda
    nc = nc if nc is not None else len(ctx.p_c_given_lambda)
    out = [[[0 for _ in range(nd)] for _ in range(nb)] for _ in range(nc)]
    for c, b, d in product(range(nc), range(nb), range(nd)):
        val = w_ce * p_bd[b][d] * ctx.p_c(c)
        val += w_cc * sum(p_bl[b][l] * ctx.p_c_given_lambda[c][l] * ctx.p_lambda[l]
                          for l in range(nl))
        out[c][b][d] += val
    return out


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return Fraction(text) if "." not in text and "e" not in text.lower() else float(text)
    except ValueError:
        return float(text)


def mixture_terms_to_csv(terms) -> str:
    """Serialize terms as rows `term,weight,b,d,e,prob` (exact fractions kept)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["term", "weight", "b", "d", "e", "prob"])
    for i, term in enumerate(terms):
        nb, nd, ne = len(term.table), len(term.table[0]), len(term.table[0][0])
        for b, d, e in product(range(nb), range(nd), range(ne)):
            w.writerow([i, str(term.weight), b, d, e, str(term.table[b][d][e])])
    return buf.getvalue()


def agree(x, y) -> bool:
    """Whether numbers or nested lists of one shape agree entry by entry: exactly
    for Fractions, to 1e-12 once a float appears; the one rule of spec checks."""
    if isinstance(x, list):
        return len(x) == len(y) and all(map(agree, x, y))
    diff = x - y
    return diff == 0 if isinstance(diff, Fraction) else abs(diff) <= 1e-12


def _check_term(i, term: MixtureTerm) -> None:
    """ValueError naming term i unless its weight lies in [0, 1] and its
    table is a conditional distribution P(b | d, e)."""
    if not 0 <= term.weight <= 1:
        raise ValueError(f"term {i}: weight {term.weight} is outside [0, 1]")
    nb, nd, ne = len(term.table), len(term.table[0]), len(term.table[0][0])
    for d, e in product(range(nd), range(ne)):
        column = [term.table[b][d][e] for b in range(nb)]
        for b, p in enumerate(column):
            if not 0 <= p <= 1:
                raise ValueError(f"term {i}: P(b={b} | d={d}, e={e}) = {p} is outside [0, 1]")
        if not agree(sum(column), 1):
            raise ValueError(f"term {i}: P(b | d={d}, e={e}) sums to {sum(column)}, not 1")


def mixture_terms_from_csv(text: str):
    """Read the mixture_terms_to_csv format, skipping empty lines.  Empty text,
    another header, no term rows, a row without 6 fields, a negative index, rows
    of one term that disagree on its weight, a repeated or missing (b, d, e) cell
    or terms that are not a normalized mixture of P(b | d, e) raise ValueError."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["term", "weight", "b", "d", "e", "prob"]:
        raise ValueError("unexpected CSV header for mixture terms")
    cells: dict[int, dict] = {}
    weights: dict[int, object] = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"line {line}: expected 6 fields, got {len(row)}")
        i, cell = int(row[0]), tuple(int(x) for x in row[2:5])
        if min(i, *cell) < 0:
            raise ValueError(f"line {line}: negative index in {row}")
        weight = _parse_number(row[1])
        if i in weights and weights[i] != weight:
            raise ValueError(f"line {line}: term {i} has weight {row[1]}, "
                             f"but an earlier row gives {weights[i]}")
        if cell in cells.setdefault(i, {}):
            raise ValueError(f"line {line}: repeated cell (b, d, e) = {cell} of term {i}")
        weights[i] = weight
        cells[i][cell] = _parse_number(row[5])
    if not cells:
        raise ValueError("the spec has no mixture term rows")
    terms = []
    for i in sorted(cells):
        nb = max(b for b, _, _ in cells[i]) + 1
        nd = max(d for _, d, _ in cells[i]) + 1
        ne = max(e for _, _, e in cells[i]) + 1
        for cell in product(range(nb), range(nd), range(ne)):
            if cell not in cells[i]:
                raise ValueError(f"term {i}: no row for cell (b, d, e) = {cell}")
        table = [[[cells[i][(b, d, e)] for e in range(ne)] for d in range(nd)]
                 for b in range(nb)]
        terms.append(MixtureTerm(weights[i], table))
        _check_term(i, terms[-1])
    if not agree(sum(t.weight for t in terms), 1):
        raise ValueError(f"term weights sum to {sum(t.weight for t in terms)}, not 1")
    return terms


def uniform_context(n: int = 2) -> MixtureContext:
    """Latent lambda uniform over n values with C = E = lambda."""
    h = Fraction(1, n)
    eye = [[Fraction(int(i == l)) for l in range(n)] for i in range(n)]
    return MixtureContext([h] * n, eye, eye)


# ---------------------------------------------------------------------------
# Faculty-hiring illustration: two skills, success as their common effect.

def hiring_comprehensive() -> MixtureTerm:
    """Single institution that eliminates candidates bad at both skills:
    success (b=1) unless D=0 and E=0."""
    table = [[[Fraction(1) if (d or e) == 0 else Fraction(0) for e in range(2)]
              for d in range(2)] for _ in range(1)]
    fail = table[0]
    succ = [[Fraction(1) - fail[d][e] for e in range(2)] for d in range(2)]
    return MixtureTerm(Fraction(1), [fail, succ])


def hiring_specialized() -> ClassicalMixtureSpec:
    """Equal mixture of teaching-only and research-only selection."""
    mech = np.array([[1.0, 0.0], [0.0, 1.0]])   # success iff the one skill is good
    return ClassicalMixtureSpec(0.5, mech, mech.copy())


def hiring_comprehensive_success_posterior() -> JointDistribution:
    """P(D, E | success) for the comprehensive institution, uniform skills."""
    probs = np.zeros((2, 2))
    for d, e in product(range(2), repeat=2):
        probs[d, e] = 0.25 * (0.0 if d == 0 and e == 0 else 1.0)
    probs /= probs.sum()
    return JointDistribution((("D", 2), ("E", 2)), probs)
