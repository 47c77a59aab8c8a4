"""Classical Berkson analysis: discrete distributions, mutual information,
posterior inversion for probabilistic mixtures, and the induced-correlation
upper bound that physical mixtures can exceed; information is in bits.

Probabilities may be floats or fractions.Fraction.  Every table of them is
checked where its object is made, by one rule (`_check_distribution`): each
entry lies in [0, 1], exactly for Fractions and ints and to 1e-15 for floats,
and each column sums to 1 by `agree`.  The two-term reduction of a
probabilistic mixture is exact algebra on (b, d, e) object arrays when fed
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


def _check_distribution(table, what: str) -> None:
    """ValueError naming the table ``what`` unless it holds probabilities of
    the variable on its axis 0: every entry lies in [0, 1], exactly for
    Fractions and ints and to 1e-15 for floats (NaN fails), and at each index
    of the other axes the entries sum to 1 by `agree`.  The message names the
    first bad entry, or the column what[:, ...] whose sum is off."""
    a = np.asarray(table)
    for index, p in np.ndenumerate(a):
        slack = 1e-15 if isinstance(p, float) else 0
        if not -slack <= p <= 1 + slack:
            raise ValueError(f"{what}: probabilities must lie in [0, 1], "
                             f"but entry {list(index)} is {p}")
    for column, total in np.ndenumerate(a.sum(axis=0)):
        if not agree(total, 1):
            at = f"[:, {', '.join(map(str, column))}]" if column else ""
            raise ValueError(f"{what}{at} sums to {total}, not 1")


@dataclass(frozen=True)
class JointDistribution:
    """A discrete joint probability table, one axis per variable."""

    probs: np.ndarray

    def __post_init__(self):
        _check_distribution(np.reshape(self.probs, -1), "joint distribution")
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))


def mutual_information(joint: np.ndarray) -> float:
    """I(X:Y) of a two-variable joint probability table, in bits."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise ValueError("expected a two-variable joint distribution")
    nz = p > 0
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))[nz]
    return max(float(np.sum(p[nz] * np.log2(p[nz] / outer))), 0.0)


def conditional_mutual_information(joint: np.ndarray) -> dict:
    """I(X:Y | Z=z) in bits for each z of a three-variable table indexed [x, y, z]."""
    p = np.asarray(joint, dtype=float)
    pz = p.sum(axis=(0, 1))
    return {z: mutual_information(p[:, :, z] / pz[z]) for z in range(len(pz)) if pz[z] > 0}


@dataclass(frozen=True)
class ClassicalMixtureSpec:
    """Probabilistic mixture P(B|DE) = (1-p) P_D(B|D) + p P_E(B|E).

    Mechanism tables are non-empty 2-D arrays indexed [b, cause_value] and
    column-normalized, and both run over the same values of B.
    """

    p: float
    mechanism_d: np.ndarray
    mechanism_e: np.ndarray

    def __post_init__(self):
        _check_distribution([self.p, 1 - self.p], "(p, 1 - p)")
        for name in ("mechanism_d", "mechanism_e"):
            shape = np.shape(getattr(self, name))
            if len(shape) != 2 or 0 in shape:
                raise ValueError(f"{name} must be a non-empty [b, cause_value] table, "
                                 f"got shape {shape}")
            _check_distribution(getattr(self, name), name)
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.mechanism_d.shape[0] != self.mechanism_e.shape[0]:
            raise ValueError(f"mechanism_d of shape {self.mechanism_d.shape} and mechanism_e "
                             f"of shape {self.mechanism_e.shape} differ in the values of B")


def berkson_posterior(spec: ClassicalMixtureSpec, b: int):
    """Posterior P(D, E | B=b) under uniform priors, and the modified weight q.

    Returns (JointDistribution with axes (D, E), q_b); a b that is not an
    integer in range(n_B) raises ValueError.
    """
    md, me = spec.mechanism_d, spec.mechanism_e
    if not isinstance(b, (int, np.integer)) or b not in range(md.shape[0]):
        raise ValueError(f"outcome B={b} is not one of the {md.shape[0]} values of B")
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
    return JointDistribution(joint), q


def berkson_bound(n: int) -> float:
    """Maximal I(D:E) given the common effect, over probabilistic mixtures, in
    bits: log N - (N+1)/N [log(N+1) - 1], strictly below the unconstrained log N."""
    if n < 2:
        raise ValueError("cardinality must be at least 2")
    return math.log2(n) - (n + 1) / n * (math.log2(n + 1) - 1.0)


def physc_distribution():
    """Joint P(c, b, d) of the classical physical-mixture example, a
    JointDistribution with axes (c, b, d):
    P(cb|d) = 1/2 u(c) u(b) + 1/2 u(c) delta_{b, c xor d}, with uniform d."""
    probs = np.zeros((2, 2, 2))
    for c, b, d in product(range(2), repeat=2 + 1):
        p = 0.5 * 0.25 + 0.5 * 0.5 * (1 if b == c ^ d else 0)
        probs[c, b, d] = p * 0.5
    return JointDistribution(probs)


# ---------------------------------------------------------------------------
# Two-term reduction of multi-term probabilistic mixtures (exact arithmetic).

@dataclass(frozen=True)
class MixtureTerm:
    """One term of a probabilistic mixture: weight and mechanism P(B|D,E),
    given as nested lists table[b][d][e] (floats or Fractions), and held also
    as ``array``, a read-only object array of a non-empty (b, d, e) box.

    ValueError unless the table is such a box, the weight lies in [0, 1] and
    the table is a conditional distribution P(b | d, e)."""

    weight: object
    table: tuple
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.table, dtype=object)
        if array.ndim != 3 or not array.size:
            raise ValueError("a mechanism table must be a non-empty (b, d, e) box")
        _check_distribution([self.weight, 1 - self.weight], "(weight, 1 - weight)")
        _check_distribution(array, "P(b | d, e)")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "table", tuple(tuple(map(tuple, plane))
                                                for plane in array.tolist()))


@dataclass(frozen=True, eq=False)
class MixtureContext:
    """Shared latent structure: P(lambda), P(C|lambda) and P(E|lambda),
    as nested lists p_lambda[l], p_c[c][l], p_e[e][l]; kept as object arrays.

    ValueError unless P(lambda) is a non-empty vector, the two conditional
    tables have one column per lambda and all three are distributions by
    `_check_distribution`."""

    p_lambda: np.ndarray
    p_c_given_lambda: np.ndarray
    p_e_given_lambda: np.ndarray

    def __post_init__(self):
        for name in ("p_lambda", "p_c_given_lambda", "p_e_given_lambda"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=object))
        if self.p_lambda.ndim != 1 or not self.p_lambda.size:
            raise ValueError(f"P(lambda) must be a non-empty vector, got shape {self.p_lambda.shape}")
        n_lambda = len(self.p_lambda)
        _check_distribution(self.p_lambda, "P(lambda)")
        for var, table in (("c", self.p_c_given_lambda), ("e", self.p_e_given_lambda)):
            if table.ndim != 2 or table.shape[1] != n_lambda:
                raise ValueError(f"P({var}|lambda) has shape {table.shape}, not "
                                 f"(n_{var}, n_lambda) with n_lambda = {n_lambda}")
            _check_distribution(table, f"P({var}|lambda)")


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
    one = 1.0 if isinstance(w_ce + w_cc, float) else Fraction(1)
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


def mixture_terms_from_csv(text: str):
    """Read the mixture_terms_to_csv format, skipping empty lines.  Empty text,
    another header, no term rows, a row without 6 fields, a non-integer or
    negative index, rows of one term that disagree on its weight, a fraction
    over 0, a repeated or missing (b, d, e) cell, a term that `MixtureTerm`
    rejects (the message then starts with ``term {i}: ``), terms of different
    (b, d, e) shapes or weights that do not sum to 1 raise ValueError."""
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
        try:
            i, cell = int(row[0]), tuple(int(x) for x in row[2:5])
        except ValueError:
            raise ValueError(f"line {line}: non-integer index in {row}") from None
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
        try:
            terms.append(MixtureTerm(weights[i], table.reshape(nb, nd, ne)))
        except ValueError as exc:
            raise ValueError(f"term {i}: {exc}") from None
    _mixture_shape(terms)
    if not agree(sum(t.weight for t in terms), 1):
        raise ValueError(f"term weights sum to {sum(t.weight for t in terms)}, not 1")
    return terms


def uniform_context(n: int = 2) -> MixtureContext:
    """Latent lambda uniform over n values with C = E = lambda."""
    h = Fraction(1, n)
    eye = [[Fraction(int(i == l)) for l in range(n)] for i in range(n)]
    return MixtureContext([h] * n, eye, eye)
