"""Classical Berkson analysis: discrete distributions, mutual information,
posterior inversion for probabilistic mixtures, and the induced-correlation
upper bound that physical mixtures can exceed.

Probabilities may be floats or fractions.Fraction.  The two-term reduction of
a probabilistic mixture is exact algebra on (b, d, e) object arrays when fed
rationals; all terms share term 0's (b, d, e) shape.  `reduce_spec` is the
layout of `qcausal berkson reduce`: lambda uniform over the spec's e values,
C = E = lambda, and both output terms written on the spec's own cells.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .causal import ConditioningError


class NotProbabilisticMixtureError(ValueError):
    """A mechanism depends on both D and E, so the control variable acts as a
    common cause itself."""


def _check_probabilities(probs: np.ndarray, what: str) -> None:
    """ValueError unless every entry lies in [0, 1], to 1e-15; a NaN entry fails."""
    if not np.all(np.abs(probs - 0.5) <= 0.5 + 1e-15):
        raise ValueError(f"{what}: probabilities must lie in [0, 1]")


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
        _check_probabilities(probs, "joint distribution")
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
            _check_probabilities(m, "mechanism")
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
    given as nested lists table[b][d][e] (floats or Fractions), and held also
    as ``array``, a read-only object array of a non-empty (b, d, e) box."""

    weight: object
    table: tuple
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.table, dtype=object)
        if array.ndim != 3 or not array.size:
            raise ValueError("a mechanism table must be a non-empty (b, d, e) box")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "table", tuple(tuple(map(tuple, plane))
                                                for plane in array.tolist()))


@dataclass(frozen=True, eq=False)
class MixtureContext:
    """Shared latent structure: P(lambda), P(C|lambda) and P(E|lambda),
    as nested lists p_lambda[l], p_c[c][l], p_e[e][l]; kept as object arrays.

    ValueError unless P(lambda) is a non-empty vector, the two conditional
    tables have one column per lambda, every entry lies in [0, 1] and
    P(lambda) and each column sum to 1, by the agree rule."""

    p_lambda: np.ndarray
    p_c_given_lambda: np.ndarray
    p_e_given_lambda: np.ndarray

    def __post_init__(self):
        for name in ("p_lambda", "p_c_given_lambda", "p_e_given_lambda"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=object))
        if self.p_lambda.ndim != 1 or not self.p_lambda.size:
            raise ValueError(f"P(lambda) must be a non-empty vector, got shape {self.p_lambda.shape}")
        n_lambda = len(self.p_lambda)
        _check_probabilities(self.p_lambda, "P(lambda)")
        if not agree(self.p_lambda.sum(), 1):
            raise ValueError(f"P(lambda) sums to {self.p_lambda.sum()}, not 1")
        for var, table in (("c", self.p_c_given_lambda), ("e", self.p_e_given_lambda)):
            if table.ndim != 2 or table.shape[1] != n_lambda:
                raise ValueError(f"P({var}|lambda) has shape {table.shape}, not "
                                 f"(n_{var}, n_lambda) with n_lambda = {n_lambda}")
            _check_probabilities(table, f"P({var}|lambda)")
            for l, total in enumerate(table.sum(axis=0)):
                if not agree(total, 1):
                    raise ValueError(f"P({var}|lambda={l}) sums to {total}, not 1")


def _mixture_shape(terms, ctx: MixtureContext | None = None) -> tuple:
    """The (n_b, n_d, n_e) shape of term 0.  ValueError naming the term unless
    every term has that shape, or, given a context, unless its P(e|lambda) is
    (n_e, n_lambda)."""
    if not terms:
        raise ValueError("a mixture needs at least one term")
    shape = terms[0].array.shape
    for i, term in enumerate(terms):
        if term.array.shape != shape:
            raise ValueError(f"term {i}: table shape (b, d, e) = {term.array.shape}, "
                             f"but term 0 has {shape}")
    if ctx is not None and ctx.p_e_given_lambda.shape != (shape[2], len(ctx.p_lambda)):
        raise ValueError(f"P(e|lambda) has shape {ctx.p_e_given_lambda.shape}, not "
                         f"(n_e, n_lambda) = {(shape[2], len(ctx.p_lambda))}")
    return shape


def term_kind(term: MixtureTerm) -> str:
    """'cause-effect' if the mechanism uses only D, 'common-cause' if only E."""
    a = term.array
    dep_d = (a[:, 1:, :] != a[:, :1, :]).any()
    dep_e = (a[:, :, 1:] != a[:, :, :1]).any()
    if dep_d and dep_e:
        raise NotProbabilisticMixtureError(
            "mechanism depends on both D and E; this is a physical mixture")
    return "common-cause" if dep_e and not dep_d else "cause-effect"


def induced_p_cb_given_d(terms, ctx: MixtureContext):
    """P(cb|d) = sum_j w_j sum_{lambda,e} P_j(b|d,e) P(e|lambda) P(c|lambda) P(lambda).

    Nested list out[c][b][d]; exact when all inputs are Fractions.
    """
    _mixture_shape(terms, ctx)
    mech = sum(term.weight * term.array for term in terms)
    return np.einsum("bde,el,cl,l->cbd", mech, ctx.p_e_given_lambda,
                     ctx.p_c_given_lambda, ctx.p_lambda).tolist()


def reduce_to_two_terms(terms, ctx: MixtureContext):
    """Aggregate a multi-term probabilistic mixture into one cause-effect term
    P(B|D) and one common-cause term P(B|lambda).

    Returns ((w_ce, p_b_given_d), (w_cc, p_b_given_lambda)); a vacuous side
    carries weight 0 and a uniform table.
    """
    nb, nd, _ = _mixture_shape(terms, ctx)
    kinds = [term_kind(term) for term in terms]

    def side(kind, cut):
        picked = [t for t, k in zip(terms, kinds) if k == kind]
        return sum(t.weight for t in picked), sum(t.weight * cut(t.array) for t in picked)

    (w_ce, p_bd), (w_cc, p_be) = (side("cause-effect", lambda a: a[:, :, 0]),
                                  side("common-cause", lambda a: a[:, 0, :]))
    one = Fraction(1) if isinstance(w_ce + w_cc, Fraction) else 1.0
    p_bd = p_bd / w_ce if w_ce else np.full((nb, nd), one / nb)
    p_bl = (p_be.dot(ctx.p_e_given_lambda) / w_cc if w_cc
            else np.full((nb, len(ctx.p_lambda)), one / nb))
    return (w_ce, p_bd.tolist()), (w_cc, p_bl.tolist())


def induced_from_reduction(reduced, ctx: MixtureContext):
    """P(cb|d) implied by a two-term reduction; same layout as
    induced_p_cb_given_d."""
    (w_ce, p_bd), (w_cc, p_bl) = reduced
    c_l = ctx.p_c_given_lambda * ctx.p_lambda
    ce = np.einsum("bd,cl->cbd", np.array(p_bd, dtype=object), c_l)
    cc = np.einsum("bl,cl->cb", np.array(p_bl, dtype=object), c_l)
    return (w_ce * ce + w_cc * cc[:, :, None]).tolist()


def reduce_spec(terms):
    """Reduce a spec's terms against lambda uniform over the spec's own e
    values, with C = E = lambda.  Returns the cause-effect and common-cause
    output terms, both written on the spec's (b, d, e) cells, and whether the
    induced P(cb|d) agrees before and after the reduction."""
    shape = _mixture_shape(terms)
    ctx = uniform_context(shape[2])
    reduced = reduce_to_two_terms(terms, ctx)
    ok = agree(induced_p_cb_given_d(terms, ctx), induced_from_reduction(reduced, ctx))
    (w_ce, p_bd), (w_cc, p_be) = reduced
    out = [MixtureTerm(w_ce, np.broadcast_to(np.array(p_bd, dtype=object)[:, :, None], shape)),
           MixtureTerm(w_cc, np.broadcast_to(np.array(p_be, dtype=object)[:, None, :], shape))]
    return out, ok


def _parse_number(text: str, what: str):
    """A spec field as a Fraction, or as a float when it is written with a
    point or an exponent or is not a rational ("inf", "nan"); a zero
    denominator raises ValueError naming ``what``."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{what} {text!r} has a zero denominator") from None
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
        for (b, d, e), p in np.ndenumerate(term.array):
            w.writerow([i, str(term.weight), b, d, e, str(p)])
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
    for (b, d, e), p in np.ndenumerate(term.array):
        if not 0 <= p <= 1:
            raise ValueError(f"term {i}: P(b={b} | d={d}, e={e}) = {p} is outside [0, 1]")
    for (d, e), total in np.ndenumerate(term.array.sum(axis=0)):
        if not agree(total, 1):
            raise ValueError(f"term {i}: P(b | d={d}, e={e}) sums to {total}, not 1")


def mixture_terms_from_csv(text: str):
    """Read the mixture_terms_to_csv format, skipping empty lines.  Empty text,
    another header, no term rows, a row without 6 fields, a negative index, rows
    of one term that disagree on its weight, a fraction over 0, a repeated or
    missing (b, d, e) cell, terms of different (b, d, e) shapes or terms that
    are not a normalized mixture of P(b | d, e) raise ValueError."""
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
        weight = _parse_number(row[1], f"line {line}: weight")
        if i in weights and weights[i] != weight:
            raise ValueError(f"line {line}: term {i} has weight {row[1]}, "
                             f"but an earlier row gives {weights[i]}")
        if cell in cells.setdefault(i, {}):
            raise ValueError(f"line {line}: repeated cell (b, d, e) = {cell} of term {i}")
        weights[i] = weight
        cells[i][cell] = _parse_number(row[5], f"line {line}: prob")
    if not cells:
        raise ValueError("the spec has no mixture term rows")
    terms = []
    for i in sorted(cells):
        nb, nd, ne = (int(n) + 1 for n in np.max(list(cells[i]), axis=0))
        # lazily, so that a stray huge index costs one step, not the whole box
        for cell in ((b, d, e) for b in range(nb) for d in range(nd) for e in range(ne)):
            if cell not in cells[i]:
                raise ValueError(f"term {i}: no row for cell (b, d, e) = {cell}")
        table = np.array([p for _, p in sorted(cells[i].items())], dtype=object)
        terms.append(MixtureTerm(weights[i], table.reshape(nb, nd, ne)))
        _check_term(i, terms[-1])
    _mixture_shape(terms)
    if not agree(sum(t.weight for t in terms), 1):
        raise ValueError(f"term weights sum to {sum(t.weight for t in terms)}, not 1")
    return terms


def uniform_context(n: int = 2) -> MixtureContext:
    """Latent lambda uniform over n values with C = E = lambda."""
    h = Fraction(1, n)
    eye = [[Fraction(int(i == l)) for l in range(n)] for i in range(n)]
    return MixtureContext([h] * n, eye, eye)
