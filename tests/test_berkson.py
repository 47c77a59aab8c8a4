import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcausal import berkson
from qcausal.berkson import (
    ClassicalMixtureSpec,
    JointDistribution,
    MixtureContext,
    MixtureTerm,
    berkson_bound,
    berkson_posterior,
    conditional_mutual_information,
    induced_from_reduction,
    induced_p_cb_given_d,
    mixture_terms_from_csv,
    mixture_terms_to_csv,
    mutual_information,
    physc_distribution,
    reduce_spec,
    reduce_to_two_terms,
    term_kind,
    uniform_context,
)

BOUND_2 = 2.5 - 1.5 * math.log2(3.0)


def extremal_mixture_spec(n: int) -> ClassicalMixtureSpec:
    """Equal-weight deterministic mechanisms that saturate berkson_bound(n)."""
    md = np.zeros((2, n))
    md[0, 0] = 1.0
    md[1, 1:] = 1.0
    return ClassicalMixtureSpec(0.5, md, md.copy())


class TestMutualInformation:
    def test_independent(self):
        assert mutual_information(np.full((2, 2), 0.25)) == 0.0

    def test_perfectly_correlated(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_base_change(self):
        p = np.array([[0.4, 0.1], [0.1, 0.4]])
        bits = mutual_information(p, base=2)
        nats = mutual_information(p, base=math.e)
        assert nats == pytest.approx(bits * math.log(2), abs=1e-12)

    def test_conditional(self):
        jd = physc_distribution()
        cmi = conditional_mutual_information(jd.probs.transpose(0, 2, 1))
        assert set(cmi) == {0, 1}


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDistribution((("X", 2),), np.array([0.7, 0.2]))
        with pytest.raises(ValueError):
            JointDistribution((("X", 2),), np.array([1.2, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            JointDistribution((("X", 2),), np.array([np.nan, 1.0]))


class TestClassicalMixtureSpec:
    @pytest.mark.parametrize("column", [[1.5, -0.5], [np.nan, 1.0], [np.nan, np.nan]],
                             ids=["outside", "nan", "all_nan"])
    @pytest.mark.parametrize("side", ["d", "e"])
    def test_rejects_bad_mechanism(self, column, side):
        good = np.array([[1.0, 0.0], [0.0, 1.0]])
        bad = good.copy()
        bad[:, 1] = column
        md, me = (bad, good) if side == "d" else (good, bad)
        with pytest.raises(ValueError, match="mechanism"):
            ClassicalMixtureSpec(0.5, md, me)


class TestBound:
    def test_binary_value(self):
        assert berkson_bound(2) == pytest.approx(BOUND_2, abs=1e-15)

    def test_below_log_n(self):
        for n in range(2, 8):
            assert 0.0 < berkson_bound(n) < math.log2(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            berkson_bound(1)

    def test_extremal_spec_saturates(self):
        for n in (2, 3, 5):
            spec = extremal_mixture_spec(n)
            joint, _ = berkson_posterior(spec, 0)
            assert mutual_information(joint.probs) == pytest.approx(
                berkson_bound(n), abs=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_posteriors_respect_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        md = rng.dirichlet(np.ones(2), size=n).T
        me = rng.dirichlet(np.ones(2), size=n).T
        spec = ClassicalMixtureSpec(float(rng.uniform()), md, me)
        for b in range(2):
            try:
                joint, q = berkson_posterior(spec, b)
            except berkson.ConditioningError:
                continue
            assert 0.0 <= q <= 1.0
            assert abs(joint.probs.sum() - 1.0) < 1e-12
            assert mutual_information(joint.probs) <= berkson_bound(n) + 1e-10


class TestPhyscExample:
    def test_conditional_mi_value(self):
        jd = physc_distribution()
        cmi = conditional_mutual_information(jd.probs.transpose(0, 2, 1))
        for v in cmi.values():
            assert v == pytest.approx(0.19, abs=0.005)
            assert v > berkson_bound(2)          # exceeds the probabilistic bound


def const_table(b_star):
    """Deterministic mechanism ignoring both inputs: B = b_star."""
    return [[[Fraction(int(b == b_star)) for _ in range(2)] for _ in range(2)]
            for b in range(2)]


def d_table(flip):
    return [[[Fraction(int(b == (d ^ flip))) for _ in range(2)] for d in range(2)]
            for b in range(2)]


def e_table(flip):
    return [[[Fraction(int(b == (e ^ flip))) for e in range(2)] for _ in range(2)]
            for b in range(2)]


def wide_table():
    """P(b | d, e) = delta_{b, d mod 2} over d in {0, 1, 2}."""
    return [[[Fraction(int(b == d % 2)) for _ in range(2)] for d in range(3)]
            for b in range(2)]


def _distribution(draw, n):
    """n rationals with small numerators summing to 1, zeros allowed."""
    raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    return [Fraction(r, sum(raw)) for r in raw]


@st.composite
def rational_mixtures(draw):
    """Terms of cause-effect and common-cause kind over n_b, n_d, n_e, n_c and
    n_lambda in {1, 2, 3}, with the context as lists p_lambda, p_c, p_e."""
    nb, nd, ne, nc, nl = (draw(st.integers(1, 3)) for _ in range(5))
    p_l = _distribution(draw, nl)
    p_c = [list(row) for row in zip(*(_distribution(draw, nc) for _ in range(nl)))]
    p_e = [list(row) for row in zip(*(_distribution(draw, ne) for _ in range(nl)))]
    weights = _distribution(draw, draw(st.integers(1, 4)))
    terms = []
    for w in weights:
        if draw(st.booleans()):                   # cause-effect: column per d
            cols = [_distribution(draw, nb) for _ in range(nd)]
            table = [[[cols[d][b]] * ne for d in range(nd)] for b in range(nb)]
        else:                                     # common-cause: column per e
            cols = [_distribution(draw, nb) for _ in range(ne)]
            table = [[[cols[e][b] for e in range(ne)] for _ in range(nd)] for b in range(nb)]
        terms.append(MixtureTerm(w, table))
    return terms, (p_l, p_c, p_e)


def loop_p_cb_given_d(terms, p_l, p_c, p_e):
    """induced_p_cb_given_d entry by entry, from the lists of the context."""
    nb, nd, ne = len(terms[0].table), len(terms[0].table[0]), len(terms[0].table[0][0])
    return [[[sum(t.weight * t.table[b][d][e] * p_e[e][l] * p_c[c][l] * p_l[l]
                  for t in terms for l in range(len(p_l)) for e in range(ne))
              for d in range(nd)] for b in range(nb)] for c in range(len(p_c))]


class TestReduction:
    def test_term_kinds(self):
        assert term_kind(MixtureTerm(Fraction(1), d_table(0))) == "cause-effect"
        assert term_kind(MixtureTerm(Fraction(1), e_table(1))) == "common-cause"
        assert term_kind(MixtureTerm(Fraction(1), const_table(0))) == "cause-effect"

    def test_xor_rejected(self):
        xor = [[[Fraction(int(b == d ^ e)) for e in range(2)] for d in range(2)]
               for b in range(2)]
        with pytest.raises(berkson.NotProbabilisticMixtureError):
            term_kind(MixtureTerm(Fraction(1), xor))

    def test_exact_equivalence_three_terms(self):
        terms = [MixtureTerm(Fraction(1, 2), d_table(0)),
                 MixtureTerm(Fraction(1, 3), e_table(0)),
                 MixtureTerm(Fraction(1, 6), const_table(1))]
        ctx = uniform_context(2)
        direct = induced_p_cb_given_d(terms, ctx)
        via = induced_from_reduction(reduce_to_two_terms(terms, ctx), ctx)
        assert direct == via                      # exact Fraction equality

    def test_one_sided_mixture(self):
        terms = [MixtureTerm(Fraction(1), e_table(0))]
        ctx = uniform_context(2)
        (w_ce, _), (w_cc, p_bl) = reduce_to_two_terms(terms, ctx)
        assert w_ce == 0 and w_cc == 1
        assert p_bl == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    @given(rational_mixtures())
    @settings(max_examples=200, deadline=None)
    def test_reduction_is_exact(self, mixture):
        terms, lists = mixture
        ctx = MixtureContext(*lists)
        direct = induced_p_cb_given_d(terms, ctx)
        assert direct == loop_p_cb_given_d(terms, *lists)
        assert induced_from_reduction(reduce_to_two_terms(terms, ctx), ctx) == direct

    @pytest.mark.parametrize("table", [[], [[[]]], [[0, 1], [1, 0]], [[[1], [1, 0]]],
                                       [[[[1]]]]],
                             ids=["empty", "empty_e", "two_axes", "ragged", "four_axes"])
    def test_term_rejects_non_box(self, table):
        with pytest.raises(ValueError, match=r"non-empty \(b, d, e\) box"):
            MixtureTerm(Fraction(1), table)

    def test_term_array_is_read_only(self):
        term = MixtureTerm(Fraction(1), d_table(0))
        assert term.array.shape == (2, 2, 2) and term.array.tolist() == d_table(0)
        with pytest.raises(ValueError):
            term.array[0, 0, 0] = 0

    @pytest.mark.parametrize("wide_first", [False, True])
    def test_mismatched_shapes_name_the_term(self, wide_first):
        terms = [MixtureTerm(Fraction(1, 2), d_table(0)),
                 MixtureTerm(Fraction(1, 2), wide_table())][::-1 if wide_first else 1]
        ctx = uniform_context(2)
        for call in (lambda: reduce_to_two_terms(terms, ctx),
                     lambda: induced_p_cb_given_d(terms, ctx),
                     lambda: reduce_spec(terms),
                     lambda: mixture_terms_from_csv(mixture_terms_to_csv(terms))):
            with pytest.raises(ValueError, match=r"term 1: table shape \(b, d, e\)"):
                call()

    def test_context_rejects_negative_probabilities(self):
        # P(lambda) = (2, -1) and P(c|lambda) columns (3, -2), (-2, 3) sum to 1
        # but are no distributions; before validation they reduced to
        # "probabilities" 7 and -11/2
        eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(ValueError, match=r"P\(lambda\): probabilities must lie in \[0, 1\]"):
            MixtureContext([Fraction(2), Fraction(-1)], [[3, -2], [-2, 3]], eye)
        half = [Fraction(1, 2)] * 2
        with pytest.raises(ValueError, match=r"P\(c\|lambda\): probabilities must lie"):
            MixtureContext(half, [[3, -2], [-2, 3]], eye)

    @pytest.mark.parametrize("p_lambda, p_c, message", [
        ([Fraction(1, 2), Fraction(1, 3)], None, r"P\(lambda\) sums to 5/6, not 1"),
        ([0.5, 0.5 + 1e-9], None, r"P\(lambda\) sums to"),
        (None, [[Fraction(1, 2), 1], [Fraction(1, 3), 0]], r"P\(c\|lambda=0\) sums to 5/6"),
        (None, [[1, 0, 0], [0, 1, 1]], r"P\(c\|lambda\) has shape \(2, 3\)"),
        ([], None, r"P\(lambda\) must be a non-empty vector"),
        ([[Fraction(1)]], None, r"P\(lambda\) must be a non-empty vector"),
    ], ids=["lambda-sum", "lambda-float-sum", "c-column-sum", "c-shape", "empty", "matrix"])
    def test_context_rejects_non_distributions(self, p_lambda, p_c, message):
        ctx = uniform_context(2)
        p_lambda = ctx.p_lambda.tolist() if p_lambda is None else p_lambda
        p_c = ctx.p_c_given_lambda.tolist() if p_c is None else p_c
        with pytest.raises(ValueError, match=message):
            MixtureContext(p_lambda, p_c, ctx.p_e_given_lambda.tolist())

    def test_context_accepts_float_rounding(self):
        third = 1.0 / 3.0
        ctx = MixtureContext([third, third, third], [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]],
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ctx.p_lambda.shape == (3,)

    def test_context_must_match_e_values(self):
        terms = [MixtureTerm(Fraction(1), e_table(0))]
        for call in (reduce_to_two_terms, induced_p_cb_given_d):
            with pytest.raises(ValueError, match=r"P\(e\|lambda\) has shape \(3, 3\)"):
                call(terms, uniform_context(3))

    def test_reduce_spec_keeps_the_cells(self):
        d_is_2 = [[[Fraction(int(b == (d == 2))) for _ in range(2)] for d in range(3)]
                  for b in range(2)]
        terms = [MixtureTerm(Fraction(1, 3), wide_table()),
                 MixtureTerm(Fraction(1, 3), d_is_2),
                 MixtureTerm(Fraction(1, 3), [[[Fraction(int(b == e)) for e in range(2)]
                                                for _ in range(3)] for b in range(2)])]
        (ce, cc), ok = reduce_spec(terms)
        assert ok
        assert (ce.weight, cc.weight) == (Fraction(2, 3), Fraction(1, 3))
        assert ce.array.shape == cc.array.shape == (2, 3, 2)
        assert ce.table[0][2] == (Fraction(1, 2),) * 2      # P(b=0 | d=2) = (1 + 0)/2
        assert [term_kind(ce), term_kind(cc)] == ["cause-effect", "common-cause"]

    def test_reduce_spec_three_e_values(self):
        table = [[[Fraction(int(b == (e == 2))) for e in range(3)] for _ in range(2)]
                 for b in range(2)]
        (ce, cc), ok = reduce_spec([MixtureTerm(Fraction(1), table)])
        assert ok and ce.weight == 0 and cc.weight == 1
        assert cc.table == MixtureTerm(1, table).table
        assert ce.array.shape == (2, 2, 3)

    def test_csv_roundtrip(self):
        terms = [MixtureTerm(Fraction(2, 5), d_table(1)),
                 MixtureTerm(Fraction(3, 5), e_table(0))]
        again = mixture_terms_from_csv(mixture_terms_to_csv(terms))
        assert len(again) == 2
        assert again[0].weight == Fraction(2, 5)
        assert again[0].table == terms[0].table
        assert again[1].table == terms[1].table

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            mixture_terms_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("text", ["", "\n", "term,weight,b,d,e,prob\n",
                                      "term,weight,b,d,e,prob\n\n"],
                             ids=["empty", "blank", "header_only", "header_and_blank"])
    def test_csv_rejects_empty_spec(self, text):
        with pytest.raises(ValueError):
            mixture_terms_from_csv(text)

    def test_csv_skips_blank_lines(self):
        terms = [MixtureTerm(Fraction(2, 5), d_table(1)),
                 MixtureTerm(Fraction(3, 5), e_table(0))]
        text = mixture_terms_to_csv(terms)
        lines = text.splitlines()
        spaced = "\n".join(lines[:3] + [""] + lines[3:]) + "\n\n"
        for variant in (text + "\n", spaced):
            again = mixture_terms_from_csv(variant)
            assert [t.table for t in again] == [t.table for t in terms]

    @pytest.mark.parametrize("weights, tables, message", [
        (("1", "1"), (d_table(0), e_table(0)), "weights sum to 2, not 1"),
        (("1/2", "1/3"), (d_table(0), e_table(0)), "weights sum to 5/6, not 1"),
        (("0.5", "0.5000001"), (d_table(0), e_table(0)), "weights sum to"),
        (("3/2", "-1/2"), (d_table(0), e_table(0)), "term 0: weight 3/2 is outside"),
        (("1",), ([[[2, 2], [0, 0]], [[-1, -1], [1, 1]]],), r"term 0: P\(b=0 \| d=0, e=0\) = 2"),
        (("1",), ([[[1, 1], [0, 0]], [[1, 0], [1, 1]]],), r"term 0: P\(b \| d=0, e=0\) sums to 2"),
        (("1",), ([[[0.5, 0.5], [0, 0]], [[0.5, 0.5000001], [1, 1]]],), r"d=0, e=1\) sums to"),
    ], ids=["weights_2", "weights_5_6", "float_weights", "weight_range", "prob_range",
            "column_sum", "float_column"])
    def test_csv_rejects_unnormalized_spec(self, weights, tables, message):
        text = "term,weight,b,d,e,prob\n" + "".join(
            f"{i},{w},{b},{d},{e},{t[b][d][e]}\n"
            for i, (w, t) in enumerate(zip(weights, tables))
            for b, d, e in product(range(2), repeat=3))
        with pytest.raises(ValueError, match=message):
            mixture_terms_from_csv(text)

    def test_csv_float_sums_within_round_off(self):
        # 0.7 + 0.2 + 0.1 is 1 - 1.1e-16 in floats
        tables = [d_table(0), e_table(0), const_table(1)]
        text = mixture_terms_to_csv([MixtureTerm(w, t) for w, t in zip((0.7, 0.2, 0.1), tables)])
        assert [t.weight for t in mixture_terms_from_csv(text)] == [0.7, 0.2, 0.1]

    def test_csv_missing_cell_names_term_and_cell(self):
        lines = mixture_terms_to_csv([MixtureTerm(Fraction(1), d_table(1))]).splitlines()
        del lines[2]                                  # the (0, 0, 1) row
        with pytest.raises(ValueError, match=r"term 0: no row for cell \(b, d, e\) = \(0, 0, 1\)"):
            mixture_terms_from_csv("\n".join(lines))

    def test_csv_huge_index_names_the_first_missing_cell(self):
        lines = mixture_terms_to_csv([MixtureTerm(Fraction(1), d_table(1))]).splitlines()
        lines.append(f"0,1,{10 ** 30},0,0,0")
        with pytest.raises(ValueError, match=r"term 0: no row for cell \(b, d, e\) = \(2, 0, 0\)"):
            mixture_terms_from_csv("\n".join(lines))

    def test_csv_short_row_names_its_line(self):
        lines = mixture_terms_to_csv([MixtureTerm(Fraction(1), d_table(1))]).splitlines()
        lines[2] = "0,1,0"
        with pytest.raises(ValueError, match="line 3: expected 6 fields, got 3"):
            mixture_terms_from_csv("\n".join(lines))

    def test_csv_negative_index_names_its_line(self):
        lines = mixture_terms_to_csv([MixtureTerm(Fraction(1), d_table(1))]).splitlines()
        lines.append("0,1,-1,0,0,0")
        with pytest.raises(ValueError, match="line 10: negative index"):
            mixture_terms_from_csv("\n".join(lines))

    @pytest.mark.parametrize("column, line, field", [(1, 2, "weight"), (5, 3, "prob")],
                             ids=["weight", "prob"])
    def test_csv_zero_denominator_names_its_field(self, column, line, field):
        lines = mixture_terms_to_csv([MixtureTerm(Fraction(1), d_table(1))]).splitlines()
        row = lines[line - 1].split(",")
        row[column] = "1/0"
        lines[line - 1] = ",".join(row)
        with pytest.raises(ValueError, match=f"line {line}: {field} '1/0' has a zero denominator"):
            mixture_terms_from_csv("\n".join(lines))

    def test_agree_is_the_reader_rule(self):
        third = Fraction(1, 3)
        assert berkson.agree([[third, 1]], [[third, Fraction(1)]])
        assert not berkson.agree([[third]], [[third + Fraction(1, 10 ** 15)]])
        assert berkson.agree([[0.7 + 0.2 + 0.1]], [[1]])
        assert berkson.agree([[1 / 3]], [[third]])
        assert not berkson.agree([[0.5]], [[0.5 + 1e-11]])
        assert not berkson.agree([[1, 1]], [[1]])
