import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcausal import causal, matlin, witness
from qcausal.causal import build_scenario, joint_distribution, random_probabilistic_mixture
from qcausal.quantum import DensityOperator, bell_phi_plus, ket_dm, pauli_projector, KET_H, KET_V
from qcausal.witness import (
    Thresholds,
    WitnessReport,
    classify,
    negativity,
    witness_ccd0,
    witness_ccd_from_counts,
    witness_ccd_from_distribution,
    witness_ccd_product_form,
)

QUARTER = 0.25 * (np.sqrt(2.0) - 1.0)

# The paper's class for each (both pathways quantum, physical mixture,
# Berkson entanglement) of the witnessed properties
LABELS = {
    (False, False, False): "ProbC", (False, False, True): "ProbC",
    (False, True, False): "PhysC", (False, True, True): "PhysC",
    (True, False, False): "ProbQ", (True, False, True): "Coh",
    (True, True, False): "PhysQ", (True, True, True): "Coh",
}


def random_distribution(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    return p


class TestNegativity:
    def test_bell_state(self):
        assert negativity(bell_phi_plus(("A", "B")), "B") == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        m = np.kron(ket_dm(KET_H), np.eye(2) / 2)
        rho = DensityOperator(m, (("A", 2), ("B", 2)))
        assert negativity(rho, "B") == 0.0

    def test_werner_threshold(self):
        # Werner state p |Phi+> + (1-p) 1/4 is entangled iff p > 1/3
        phi = bell_phi_plus(("A", "B")).mat
        for p, entangled in ((0.2, False), (0.5, True)):
            m = p * phi + (1 - p) * np.eye(4) / 4
            rho = DensityOperator(m, (("A", 2), ("B", 2)))
            assert (negativity(rho, "B") > 1e-9) == entangled

    def test_requires_bipartite(self):
        tau = build_scenario("coh")
        with pytest.raises(ValueError):
            negativity(tau.tau, "B")


class TestCcdForms:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_three_forms_agree(self, seed):
        p = random_distribution(seed)
        a = witness_ccd_from_distribution(p)
        b = witness_ccd_product_form(p)
        c = witness_ccd_from_counts(p * 123456.0)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from([None, 0, 1]))
    @settings(max_examples=50, deadline=None)
    def test_matches_conditional_covariance_loop(self, seed, empty_b):
        # reference: per outcome of b, normalize and take cov(c, d | b);
        # an outcome of b with probability 0 contributes nothing
        p = random_distribution(seed)
        if empty_b is not None:
            p[:, :, empty_b] = 0.0
            p /= p.sum()
        sign = np.array([1.0, -1.0])
        want = 0.0
        for bi in range(2):
            pb = p[:, :, bi].sum()
            if pb <= 0:
                continue
            cond = p[:, :, bi] / pb
            cov = sign @ cond @ sign - (sign @ cond.sum(axis=1)) * (cond.sum(axis=0) @ sign)
            want += 2.0 * sign[bi] * pb ** 2 * cov
        assert witness_ccd_from_distribution(p) == pytest.approx(want, abs=1e-15)

    def test_counts_scale_invariant(self):
        p = random_distribution(3)
        assert witness_ccd_from_counts(10.0 * p) == pytest.approx(
            witness_ccd_from_counts(1000.0 * p), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            witness_ccd_from_distribution(np.full((2, 2, 2), 1.0))

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            witness_ccd_from_counts(np.zeros((2, 2, 2)))

    def test_ccd0_equals_ccd_for_uniform_marginals(self):
        p = joint_distribution(build_scenario("physc"), "x", "y", "z")
        assert witness_ccd0(p) == pytest.approx(witness_ccd_from_distribution(p), abs=1e-10)


class TestScenarioValues:
    def test_physc_value(self):
        p = joint_distribution(build_scenario("physc"), "x", "y", "z")
        assert witness_ccd_from_distribution(p) == pytest.approx(0.5, abs=1e-10)

    def test_coh_value(self):
        p = joint_distribution(build_scenario("coh"), "x", "y", "z")
        assert witness_ccd_from_distribution(p) == pytest.approx(-0.5, abs=1e-10)

    def test_probabilistic_scenarios_vanish(self):
        for sid in ("probc", "probq"):
            p = joint_distribution(build_scenario(sid), "x", "y", "z")
            assert abs(witness_ccd_from_distribution(p)) < 1e-10

    def test_epsmix_needs_the_right_setting(self):
        tau = build_scenario("epsmix", eps=0.1)
        blind = witness_ccd_from_distribution(joint_distribution(tau, "x", "y", "z"))
        seeing = witness_ccd_from_distribution(joint_distribution(tau, "z", "z", "z"))
        assert abs(blind) < 1e-10
        assert seeing == pytest.approx(0.05, abs=1e-10)

    def test_coh_berkson_negativity(self):
        report = classify(build_scenario("coh"))
        for v in report.neg_b_cd.values():
            assert v == pytest.approx(QUARTER, abs=1e-9)


class TestClassification:
    @pytest.mark.parametrize("sid,label", [
        ("probc", "ProbC"), ("physc", "PhysC"), ("probq", "ProbQ"), ("coh", "Coh"),
    ])
    def test_reference_labels(self, sid, label):
        assert classify(build_scenario(sid)).label == label

    def test_epsmix_is_physq_at_the_diagnostic_setting(self):
        tau = build_scenario("epsmix", eps=0.1)
        assert classify(tau, ccd_settings=("z", "z", "z")).label == "PhysQ"
        # the default setting misses the physical-mixture signal
        assert classify(tau).label == "ProbQ"

    def test_random_mixtures_never_flag_physical(self):
        # neither C_CD nor the Berkson test exceeds its threshold
        rng = np.random.default_rng(42)
        for _ in range(20):
            report = classify(random_probabilistic_mixture(rng))
            assert abs(report.ccd) <= report.thresholds.ccd
            assert min(report.neg_b_cd.values()) <= report.thresholds.negativity
            assert report.label in ("ProbC", "ProbQ")

    def test_thresholds_respected(self):
        # raising the negativity threshold above 1/4(sqrt2 - 1) hides Coh
        loose = Thresholds(negativity=0.2, ccd=1e-6)
        assert classify(build_scenario("coh"), loose).label == "PhysQ"

    def test_report_json(self):
        report = classify(build_scenario("coh"))
        data = json.loads(report.to_json())
        assert data["label"] == "Coh"
        assert set(data["neg_b_cd"]) == {"H", "V"}
        assert data["ccd_settings"] == ["x", "y", "z"]
        assert data["thresholds"]["negativity"] == witness.DEFAULT_THRESHOLD

    def test_zero_probability_conditioning_raises(self):
        # pure |H> on C: conditioning C on |V> is impossible
        m = np.kron(ket_dm(KET_H), bell_phi_plus(("B", "D")).mat)
        tau = causal.CausalChoi(DensityOperator(m, causal.CBD_FACTORS))
        with pytest.raises(causal.ConditioningError):
            classify(tau)

    def test_flags(self):
        # which witnesses exceed their thresholds at both outcomes
        def flags(r):
            t = r.thresholds.negativity
            return ([min(neg.values()) > t for neg in (r.neg_c_bd, r.neg_d_cb, r.neg_b_cd)],
                    abs(r.ccd) > r.thresholds.ccd)

        assert flags(classify(build_scenario("coh"))) == ([True, True, True], True)
        assert flags(classify(build_scenario("physc"))) == ([False, False, False], True)

    @pytest.mark.parametrize("cause_effect, common_cause, physical, berkson",
                             list(product((False, True), repeat=4)))
    def test_label_rule(self, cause_effect, common_cause, physical, berkson):
        # a witnessed family exceeds the threshold at both outcomes; one
        # outcome at the threshold, or |ccd| at it, witnesses nothing
        t = Thresholds(negativity=0.1, ccd=0.01)

        def neg(witnessed):
            return {"H": 0.3, "V": 0.2 if witnessed else 0.1}

        report = WitnessReport(neg_c_bd=neg(cause_effect), neg_d_cb=neg(common_cause),
                               neg_b_cd=neg(berkson), ccd=-0.02 if physical else 0.01,
                               ccd0=0.0, thresholds=t, ccd_settings=("x", "y", "z"))
        assert report.label == LABELS[cause_effect and common_cause, physical, berkson]


# bootstrap standard deviations of the seven witness_values, built by hand
_NEG_KEYS = [f"{fam}_{k}" for fam in ("neg_c_bd", "neg_d_cb", "neg_b_cd") for k in ("H", "V")]


class TestBootstrapThresholds:
    def test_witness_values_are_classify_flattened(self):
        tau = build_scenario("coh")
        r = classify(tau, ccd_settings=("z", "z", "z"))
        values = witness.witness_values(tau, ("z", "z", "z"))
        assert list(values) == ["ccd"] + _NEG_KEYS
        assert values["ccd"] == r.ccd
        assert values["neg_b_cd_V"] == r.neg_b_cd["V"] and values["neg_d_cb_H"] == r.neg_d_cb["H"]

    @pytest.mark.parametrize("largest", _NEG_KEYS)
    def test_three_sigma_of_the_largest_negativity_deviation(self, largest):
        # the multiplier is the two-sided t quantile at the 3-sigma normal
        # tail, 4.0943 for the 9 degrees of freedom of 10 resamples
        std = {"ccd": 0.02, **{k: 1e-3 for k in _NEG_KEYS}, largest: 0.01}
        t = witness.bootstrap_thresholds({"std": std, "n_resamples": 10})
        sigmas = witness.threshold_sigmas(10)
        assert sigmas == pytest.approx(4.0943, rel=1e-4)
        assert t == Thresholds(negativity=sigmas * 0.01, ccd=sigmas * 0.02)

    def test_default_threshold_floors_both(self):
        def thresholds(std):
            return witness.bootstrap_thresholds({"std": std, "n_resamples": 40})

        sigmas = witness.threshold_sigmas(40)
        std = {"ccd": 1e-9, **{k: 2e-8 for k in _NEG_KEYS}}
        assert thresholds(std) == Thresholds(negativity=witness.DEFAULT_THRESHOLD,
                                             ccd=witness.DEFAULT_THRESHOLD)
        # one floored, the other not
        std["ccd"] = 1e-3
        assert thresholds(std) == Thresholds(negativity=witness.DEFAULT_THRESHOLD,
                                             ccd=sigmas * 1e-3)
        std = {"ccd": 0.0, **{k: 0.0 for k in _NEG_KEYS}, "neg_c_bd_H": 1e-3}
        assert thresholds(std) == Thresholds(negativity=sigmas * 1e-3,
                                             ccd=witness.DEFAULT_THRESHOLD)

    @pytest.mark.parametrize("n_resamples, quantile", [
        (3, 19.207), (4, 9.2189), (5, 6.6202), (10, 4.0943), (40, 3.2042)])
    def test_multiplier_is_the_t_quantile(self, n_resamples, quantile):
        # two-sided Student-t quantiles at p = erfc(3 / sqrt(2)) = 0.0027, both
        # parities of the degrees of freedom
        assert witness.THRESHOLD_TAIL == pytest.approx(0.0027, rel=1e-3)
        assert witness.threshold_sigmas(n_resamples) == pytest.approx(quantile, rel=1e-4)

    def test_multiplier_at_one_degree_of_freedom_is_closed_form(self):
        # t with one degree of freedom is Cauchy: the quantile is cot(pi p / 2)
        cot = 1.0 / math.tan(math.pi * witness.THRESHOLD_TAIL / 2)
        assert witness.threshold_sigmas(2) == pytest.approx(cot, rel=1e-12)
        assert cot == pytest.approx(235.80, rel=1e-4)

    def test_multiplier_falls_toward_three(self):
        sigmas = [witness.threshold_sigmas(k) for k in (2, 3, 6, 11, 40, 101, 1000, 10_000)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        assert 3.0 < sigmas[-1] < 3.001

    def test_multiplier_needs_two_resamples(self):
        with pytest.raises(ValueError):
            witness.threshold_sigmas(1)


def kron_joint(tau, s, t, u):
    """P(c, d, b) as Tr[T_D(tau) Pi_c x Pi_b x Pi_d], one kron per cell."""
    td = matlin.partial_transpose(tau.mat, causal.CBD_FACTORS, "D")
    p = np.empty((2, 2, 2))
    for ci, di, bi in product(range(2), repeat=3):
        op = np.kron(np.kron(pauli_projector(s, 1 - 2 * ci), pauli_projector(u, 1 - 2 * bi)),
                     pauli_projector(t, 1 - 2 * di))
        p[ci, di, bi] = np.trace(td @ op).real
    return p


def reference_report(tau, settings):
    """classify's values, one negativity call per conditioned state."""
    neg = {"neg_c_bd": {}, "neg_d_cb": {}, "neg_b_cd": {}}
    for name, outcome in (("H", +1), ("V", -1)):
        pj = pauli_projector("z", outcome)
        neg["neg_c_bd"][name] = negativity(causal.induced_state_given_c(tau, pj)[0], "D")
        neg["neg_d_cb"][name] = negativity(causal.induced_state_given_d(tau, pj), "B")
        neg["neg_b_cd"][name] = negativity(causal.induced_state_given_b(tau, pj)[0], "D")
    p = kron_joint(tau, *settings)
    return neg, witness_ccd_from_distribution(p), witness_ccd0(p)


class TestClassifyAgainstReference:
    def test_scenarios_and_random_mixtures(self):
        rng = np.random.default_rng(2024)
        maps = [build_scenario(sid) for sid in causal.SCENARIO_IDS]
        maps += [random_probabilistic_mixture(rng) for _ in range(60)]
        t = witness.DEFAULT_THRESHOLD
        for tau in maps:
            for settings in (("x", "y", "z"), ("z", "z", "z")):
                report = classify(tau, ccd_settings=settings)
                neg, ccd, ccd0 = reference_report(tau, settings)
                for family, values in neg.items():
                    got = getattr(report, family)
                    assert got.keys() == values.keys()
                    for k in values:
                        assert abs(got[k] - values[k]) <= 1e-12
                assert abs(report.ccd - ccd) <= 1e-12
                assert abs(report.ccd0 - ccd0) <= 1e-12
                quantum_both = min(neg["neg_c_bd"].values()) > t and min(neg["neg_d_cb"].values()) > t
                berkson = min(neg["neg_b_cd"].values()) > t
                assert report.label == LABELS[quantum_both, abs(ccd) > t, berkson]
