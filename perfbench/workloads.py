"""The benchmark's three workloads.

A workload makes its inputs in ``prepare`` (not timed), runs one job in
``run`` (timed) and checks the job's outputs in ``check`` (not timed), which
raises ``CheckFailed`` on a wrong output and otherwise returns the job's
quality figures (chi2 and 1 - fidelity of each reconstruction).  Every check
rests on ``reference`` or on a property of the method, never on a stored copy
of an earlier output.

qcausal functions are always called through their module attributes
(``tomography.fit_causal_map``), so the tracer's wrappers see them.

Inputs whose noise decides a quality figure are drawn at the fixed seed
FIXED_SEED: across sample seeds a single Poisson fit's 1 - F ranges over a
factor of five (coh: 0.0017-0.0090), and its iteration count from 1250 to
2000, so seed-dependent tables would make neither figure repeat.  ``--seed``
draws the inputs that are only checked: the order of the fit_poisson cycle,
and berkson_witness's random probabilistic mixtures and rational classical
mixtures.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

import reference as ref

SCENARIOS = ("probc", "physc", "probq", "coh", "epsmix")
EXPECTED_LABELS = {"probc": "ProbC", "physc": "PhysC", "probq": "ProbQ", "coh": "Coh"}
N_RUNS = 200_000
FIXED_SEED = 0
PIPELINE_SEED = 1
MIN_FIDELITY = 0.97
STATE_ATOL = 1e-9
NO_RETRO_ATOL = 1e-8


class CheckFailed(Exception):
    """An output of the program is wrong."""


class JobError(Exception):
    """The program reported a failure instead of an output."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_state(mat, what):
    d = ref.state_defects(mat)
    require(d["hermiticity"] <= STATE_ATOL and d["trace"] <= STATE_ATOL
            and d["min_eig"] >= -STATE_ATOL, f"{what}: not a valid state: {d}")


def check_choi_estimate(tau, truth):
    """Validity of a reconstructed tau_CBD; returns its 1 - F to the truth."""
    check_state(tau, "tau")
    residual = ref.no_retro_residual(tau)
    require(residual <= NO_RETRO_ATOL, f"no-retrocausation residual {residual:g}")
    fid = ref.fidelity(tau, truth)
    require(fid >= MIN_FIDELITY, f"fidelity {fid:.4f} < {MIN_FIDELITY}")
    return 1.0 - fid


def check_chi2(value, n_cells, n_free):
    lo, hi = ref.chi2_range(n_cells, n_free)
    require(lo <= value <= hi, f"chi2 {value:.2f} outside [{lo:.1f}, {hi:.1f}]")


def check_count_table(counts, shape):
    counts = np.asarray(counts)
    require(counts.shape == shape, f"count table shape {counts.shape}")
    require(np.all(counts >= 0) and np.all(counts == np.round(counts)),
            "counts are not non-negative integers")


class FitPoisson:
    """sample_counts then fit_causal_map at N = 2e5, cycling the five
    scenarios, each at FIXED_SEED; ``--seed`` rotates the cycle."""

    name = "fit_poisson"
    round_size = len(SCENARIOS)

    def __init__(self, qc, seed, workdir):
        self.qc = qc
        self.order = [SCENARIOS[(seed + k) % len(SCENARIOS)] for k in range(self.round_size)]
        self.truth = {s: qc.causal.build_scenario(s) for s in SCENARIOS}
        # the `fit` command's configuration: --lambda 1e7 --restarts 1 --seed 0
        self.config = qc.tomography.FitConfig(lam=1e7, restarts=1, seed=FIXED_SEED)

    def prepare(self, job):
        return self.order[job % self.round_size]

    def run(self, scenario):
        tomography = self.qc.tomography
        table = tomography.sample_counts(self.truth[scenario], N_RUNS, seed=FIXED_SEED)
        return table, tomography.fit_causal_map(table, self.config)

    def check(self, scenario, out):
        table, fit = out
        truth = self.truth[scenario].mat
        check_count_table(table.counts, (3, 3, 3, 2, 2, 2))
        # the sampled table follows the documented model around the truth
        check_chi2(ref.chi2_full(truth, table.counts, N_RUNS), 216, 0)
        tau = fit.tau.mat
        infidelity = check_choi_estimate(tau, truth)
        chi2 = ref.chi2_full(tau, table.counts, N_RUNS)
        check_chi2(chi2, 216, 52)
        return {"chi2": [chi2], "infidelity": [infidelity]}


def _random_distribution(rng, n):
    """n positive rationals with small denominators summing to 1."""
    raw = [int(x) for x in rng.integers(1, 10, size=n)]
    return [Fraction(r, sum(raw)) for r in raw]


def random_rational_mixture(rng, berkson):
    """Classical probabilistic mixture of 2-5 mechanisms P(b|d, e), each a
    cause-effect (depends on d only) or a common-cause (on e only) term, over
    a latent lambda with 2-3 values; every number is an exact Fraction."""
    n_lambda = int(rng.integers(2, 4))
    p_lambda = _random_distribution(rng, n_lambda)
    p_c = [list(col) for col in zip(*[_random_distribution(rng, 2) for _ in range(n_lambda)])]
    p_e = [list(col) for col in zip(*[_random_distribution(rng, 2) for _ in range(n_lambda)])]
    n_terms = int(rng.integers(2, 6))
    weights = _random_distribution(rng, n_terms)
    tables = []
    for _ in range(n_terms):
        q = [list(col) for col in zip(*[_random_distribution(rng, 2) for _ in range(2)])]
        if rng.integers(2):      # cause-effect: q[b][d]
            tables.append([[[q[b][d]] * 2 for d in range(2)] for b in range(2)])
        else:                    # common-cause: q[b][e]
            tables.append([[q[b][:] for _ in range(2)] for b in range(2)])
    terms = [berkson.MixtureTerm(w, t) for w, t in zip(weights, tables)]
    ctx = berkson.MixtureContext(p_lambda, p_c, p_e)
    return terms, ctx, (weights, tables, p_lambda, p_c, p_e)


class BerksonWitness:
    """The paper's witness analysis without an 8x8 fit: classify the five
    scenarios and N_MIXTURES random probabilistic mixtures; fit the (C, D)
    state conditioned on each z outcome of B for each scenario from Poisson
    counts at N P(b) and take its Berkson negativity and its fidelity to the
    true conditioned state; reduce N_RATIONAL exact classical mixtures to two
    terms."""

    name = "berkson_witness"
    round_size = 1
    N_MIXTURES = 100
    N_RATIONAL = 20

    def __init__(self, qc, seed, workdir):
        self.qc = qc
        self.seed = seed
        self.scenarios = {s: qc.causal.build_scenario(s) for s in SCENARIOS}
        self.config = qc.tomography.FitConfig(restarts=1, seed=FIXED_SEED)
        self.conditioned = []
        for s, tau in self.scenarios.items():
            for b in range(2):
                rho, prob = ref.condition_on_b(tau.mat, b)
                state = qc.quantum.DensityOperator(rho, qc.tomography.CD_FACTORS)
                self.conditioned.append((s, b, state, int(round(N_RUNS * prob))))
        # epsmix's physical mixing shows in C_CD at some setting
        eps = self.scenarios["epsmix"].mat
        self.epsmix_max_ccd = max(
            abs(ref.ccd(ref.joint_cdb(eps, s, t, u)))
            for s in ref.AXES for t in ref.AXES for u in ref.AXES)

    def prepare(self, job):
        rng = np.random.default_rng([self.seed, job])
        maps = [self.qc.causal.random_probabilistic_mixture(rng)
                for _ in range(self.N_MIXTURES)]
        mixtures = [random_rational_mixture(rng, self.qc.berkson)
                    for _ in range(self.N_RATIONAL)]
        return maps, mixtures

    def run(self, inputs):
        maps, mixtures = inputs
        tomography, witness = self.qc.tomography, self.qc.witness
        scenario_reports = {s: witness.classify(tau) for s, tau in self.scenarios.items()}
        map_reports = [witness.classify(m) for m in maps]
        fits = []
        for _, _, state, n in self.conditioned:
            counts = tomography.sample_conditioned_counts(state, n, seed=FIXED_SEED)
            rho, _ = tomography.fit_conditioned_state(counts, self.config)
            fits.append((counts, rho, witness.negativity(rho, "D"),
                         self.qc.quantum.fidelity(rho, state)))
        reductions = [self.qc.berkson.reduce_to_two_terms(terms, ctx)
                      for terms, ctx, _ in mixtures]
        return scenario_reports, map_reports, fits, reductions

    def check(self, inputs, out):
        maps, mixtures = inputs
        scenario_reports, map_reports, fits, reductions = out
        for s, report in scenario_reports.items():
            tau = self.scenarios[s].mat
            want = ref.ccd(ref.joint_cdb(tau, *report.ccd_settings))
            require(abs(report.ccd - want) <= 1e-12, f"{s}: C_CD {report.ccd} != {want}")
            for name, b in (("H", 0), ("V", 1)):
                neg = ref.negativity(ref.condition_on_b(tau, b)[0])
                require(abs(report.neg_b_cd[name] - neg) <= 1e-9,
                        f"{s}: Berkson negativity {name} {report.neg_b_cd[name]} != {neg}")
            if s in EXPECTED_LABELS:
                require(report.label == EXPECTED_LABELS[s],
                        f"{s} labelled {report.label}")
        for name in ("H", "V"):
            neg = scenario_reports["coh"].neg_b_cd[name]
            require(abs(neg - ref.BERKSON_NEGATIVITY) <= 1e-9,
                    f"coh Berkson negativity {name} {neg}")
        require(self.epsmix_max_ccd > 1e-6, "epsmix has C_CD = 0 at every setting")
        for m, report in zip(maps, map_reports):
            require(abs(report.ccd) <= 1e-10, f"probabilistic mixture with C_CD {report.ccd:g}")
            require(abs(ref.ccd(ref.joint_cdb(m.mat, "x", "y", "z"))) <= 1e-10,
                    "random_probabilistic_mixture made a physical mixture")
            require(report.label in ("ProbC", "ProbQ"),
                    f"probabilistic mixture labelled {report.label}")
        chi2s, infidelities = [], []
        for (s, b, state, n), (counts, rho, neg, fid_q) in zip(self.conditioned, fits):
            check_count_table(counts, (3, 3, 2, 2))
            check_chi2(ref.chi2_conditioned(state.mat, counts), 36, 0)
            check_state(rho.mat, f"{s}|b={b}")
            fid = ref.fidelity(rho.mat, state.mat)
            require(fid >= MIN_FIDELITY, f"{s}|b={b}: fidelity {fid:.4f}")
            # square roots of round-off eigenvalues of a pure truth add ~1e-8
            require(abs(fid_q - fid) <= 1e-6, f"{s}|b={b}: fidelity {fid_q} != {fid}")
            chi2 = ref.chi2_conditioned(rho.mat, counts)
            check_chi2(chi2, 36, 16)
            want = ref.negativity(rho.mat)
            require(abs(neg - max(want, 0.0)) <= 1e-9,
                    f"{s}|b={b}: negativity {neg} != {want}")
            chi2s.append(chi2)
            infidelities.append(1.0 - fid)
        for (terms, ctx, exact), reduced in zip(mixtures, reductions):
            weights, tables, p_lambda, p_c, p_e = exact
            (w_ce, p_bd), (w_cc, p_bl) = reduced
            require(w_ce + w_cc == 1, "reduced weights do not sum to 1")
            require(all(sum(col) == 1 for col in zip(*p_bd))
                    and all(sum(col) == 1 for col in zip(*p_bl)),
                    "reduced mechanisms are not distributions")
            require(ref.p_cb_given_d(weights, tables, p_lambda, p_c, p_e)
                    == ref.p_cb_given_d_two_terms(w_ce, p_bd, w_cc, p_bl, p_lambda, p_c),
                    "two-term reduction changes P(cb|d)")
        return {"chi2": chi2s, "infidelity": infidelities}


class PipelineBootstrap:
    """``qcausal pipeline --scenario coh --runs 200000 --resamples 10 --seed 1``
    through cli.main, with the report written to a file in the output
    directory.  The report carries no tau, so its quality figures are the
    report's own fit.chi2 and 1 - fidelity."""

    name = "pipeline_bootstrap"
    round_size = 1

    def __init__(self, qc, seed, workdir):
        import jsonschema

        self.qc = qc
        schema_path = os.path.join(os.path.dirname(qc.cli.__file__), "report_schema.json")
        with open(schema_path) as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.out_path = os.path.join(workdir, "pipeline_report.json")
        self.argv = ["pipeline", "--scenario", "coh", "--runs", str(N_RUNS),
                     "--resamples", "10", "--seed", str(PIPELINE_SEED),
                     "--out", self.out_path]
        self.truth = ref.coh_choi()

    def prepare(self, job):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return None

    def run(self, _):
        return self.qc.cli.main(self.argv)

    def check(self, _, rc):
        if rc != 0:
            raise JobError(f"cli.main returned {rc}")
        with open(self.out_path) as fh:
            report = json.load(fh)
        os.remove(self.out_path)
        error = next(self.validator.iter_errors(report), None)
        require(error is None, f"report violates its schema: {error and error.message}")
        cfg = report["config"]
        require((cfg["scenario"], cfg["runs"], cfg["seed"], cfg["resamples"])
                == ("coh", N_RUNS, PIPELINE_SEED, 10), f"config {cfg}")
        require(report["bootstrap"]["n_resamples"] == 10, "bootstrap.n_resamples != 10")
        truth, fitted = report["truth"], report["fitted"]
        require(truth["label"] == "Coh" and fitted["label"] == "Coh",
                f"labels {truth['label']} / {fitted['label']}")
        for key in ("negativity", "ccd"):
            v = fitted["thresholds"][key]
            require(math.isfinite(v) and v > 0, f"threshold {key} = {v}")
        for name in ("H", "V"):
            require(abs(truth["neg_b_cd"][name] - ref.BERKSON_NEGATIVITY) <= 1e-9,
                    f"truth Berkson negativity {name} {truth['neg_b_cd'][name]}")
        want = ref.ccd(ref.joint_cdb(self.truth, *cfg["ccd_settings"]))
        require(abs(truth["ccd"] - want) <= 1e-12, f"truth C_CD {truth['ccd']} != {want}")
        require(report["fidelity"] >= MIN_FIDELITY, f"fidelity {report['fidelity']}")
        check_chi2(report["fit"]["chi2"], 216, 52)
        return {"chi2": [report["fit"]["chi2"]], "infidelity": [1.0 - report["fidelity"]]}


WORKLOADS = {w.name: w for w in (FitPoisson, PipelineBootstrap, BerksonWitness)}
