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
    MixtureTerm,
    berkson_bound,
    berkson_posterior,
    conditional_mutual_information,
    extremal_mixture_spec,
    induced_from_reduction,
    induced_p_cb_given_d,
    mixture_terms_from_csv,
    mixture_terms_to_csv,
    mutual_information,
    physc_distribution,
    reduce_to_two_terms,
    term_kind,
    uniform_context,
)

BOUND_2 = 2.5 - 1.5 * math.log2(3.0)


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


class TestHiringExamples:
    def test_comprehensive_posterior_exceeds_bound(self):
        jd = berkson.hiring_comprehensive_success_posterior()
        assert mutual_information(jd.probs) > berkson_bound(2)

    def test_specialized_respects_bound(self):
        spec = berkson.hiring_specialized()
        joint, _ = berkson_posterior(spec, 1)
        assert mutual_information(joint.probs) <= berkson_bound(2) + 1e-12

    def test_comprehensive_term_is_physical(self):
        with pytest.raises(berkson.NotProbabilisticMixtureError):
            term_kind(berkson.hiring_comprehensive())


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

    def test_agree_is_the_reader_rule(self):
        third = Fraction(1, 3)
        assert berkson.agree([[third, 1]], [[third, Fraction(1)]])
        assert not berkson.agree([[third]], [[third + Fraction(1, 10 ** 15)]])
        assert berkson.agree([[0.7 + 0.2 + 0.1]], [[1]])
        assert berkson.agree([[1 / 3]], [[third]])
        assert not berkson.agree([[0.5]], [[0.5 + 1e-11]])
        assert not berkson.agree([[1, 1]], [[1]])
