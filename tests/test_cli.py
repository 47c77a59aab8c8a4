import json
import re
from dataclasses import asdict
from fractions import Fraction
from functools import partial
from importlib import resources

import jsonschema
import numpy as np
import pytest

from qcausal import berkson, causal, cli, quantum, tomography, witness
from qcausal.quantum import bell_phi_plus


# the maximally mixed tau_CBD, a valid causal Choi state, as JSON arrays
MIXED_8 = (np.eye(8) / 8).tolist()
ZEROS_8 = np.zeros((8, 8)).tolist()

# P(b | d, e) = delta_{b, d}
DE_TABLE = [[[1, 1], [0, 0]], [[0, 0], [1, 1]]]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("qcausal").joinpath("report_schema.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="module")
def witness_schema(schema):
    """The report schema's witness_report definition, as a schema of its own."""
    return {"$schema": schema["$schema"], "$ref": "#/definitions/witness_report",
            "definitions": schema["definitions"]}


class TestExitCodes:
    def test_bad_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["scenario", "--scenario", "nope"])
        assert exc.value.code == 2          # argparse rejects the choice

    def test_bad_eps(self, tmp_path):
        # eps is checked for every scenario: a NaN would reach the pipeline
        # report as a token that no strict JSON parser reads
        for argv in (["scenario", "--scenario", "epsmix", "--eps", "2.0"],
                     ["pipeline", "--scenario", "coh", "--eps", "nan", "--runs", "2000"]):
            assert run(argv + ["--out", str(tmp_path / "x.json")]) == cli.EXIT_USAGE
            assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("text", [
        '{"re": "x", "im": "y"}',
        '[1, 2]',
        '{"re": [[null]], "im": [[0]]}',
        '{"re": [["a"]], "im": [[0]]}',
        # a valid state written in another factor order, or with an im that
        # would broadcast against re
        json.dumps({"labels": ["D", "B", "C"], "dim": 4, "re": MIXED_8, "im": ZEROS_8}),
        json.dumps({"re": MIXED_8, "im": [0] * 8}),
        json.dumps({"re": MIXED_8, "im": 0}),
    ])
    def test_malformed_input_file(self, text, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(text)
        assert run(["witness", "--in", str(path)]) == cli.EXIT_USAGE

    def test_missing_input_file(self):
        assert run(["witness", "--in", "/nonexistent/tau.json"]) == cli.EXIT_USAGE

    def test_non_psd_input_file(self, tmp_path):
        # unit trace and no retrocausation, but one negative eigenvalue
        m = np.diag([0.3, 0.2, -0.05, 0.05, 0.25, 0.25, 0.0, 0.0])
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"labels": ["C", "B", "D"], "dim": 8,
                                    "re": m.tolist(), "im": np.zeros((8, 8)).tolist()}))
        assert run(["witness", "--in", str(path)]) == cli.EXIT_USAGE

    def test_retrocausal_input_file_is_usage_error(self, tmp_path, capsys):
        # a valid state, but C is correlated with the later input D
        m = np.zeros((8, 8))
        for d in range(2):
            m[4 * d + d, 4 * d + d] = m[4 * d + 2 + d, 4 * d + 2 + d] = 0.25
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"labels": ["C", "B", "D"], "dim": 8,
                                    "re": m.tolist(), "im": np.zeros((8, 8)).tolist()}))
        assert run(["witness", "--in", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "no-retrocausation" in err

    def test_invalid_computed_state_is_numerical(self, monkeypatch, capsys):
        def invalid(tau):
            # one conditioned state with a negative eigenvalue fails validation
            states = np.broadcast_to(np.eye(4) / 4, (2, 3, 4, 4)).copy()
            states[1, 2] = np.diag([0.6, 0.5, 0.0, -0.1])
            return states, np.full((2, 3), 0.5)

        monkeypatch.setattr(cli.causal, "z_conditioned_states", invalid)
        assert run(["witness", "--scenario", "coh"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_zero_probability_conditioning_input_is_usage_error(self, tmp_path, capsys):
        # pure |H> on C: classify cannot condition C on |V>
        m = np.kron(np.diag([1.0, 0.0]), bell_phi_plus(("B", "D")).mat)
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"labels": ["C", "B", "D"], "dim": 8,
                                    "re": m.real.tolist(), "im": m.imag.tolist()}))
        assert run(["witness", "--in", str(path)]) == cli.EXIT_USAGE
        assert "probability vanishes" in capsys.readouterr().err

    def test_linalg_failure_is_numerical(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli.tomography, "fit_causal_map", fail)
        assert run(["fit", "--runs", "27000", "--out", str(tmp_path / "f.json")]) \
            == cli.EXIT_NUMERICAL

    def test_non_hermitian_computed_matrix_is_numerical(self, monkeypatch, capsys):
        def fail(pts, *eigenvalues):
            raise quantum.StateValidationError("density operator is not Hermitian")

        monkeypatch.setattr(cli.witness, "_negativities", fail)
        assert run(["witness", "--scenario", "coh"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_uncertified_fit_is_numerical(self, tmp_path, monkeypatch):
        # with the fit budget at one step, the coh fit stops uncertified: the
        # fit is written, with its gap, and the exit code says it is not
        # certified
        monkeypatch.setattr(tomography, "FitConfig", partial(tomography.FitConfig, max_iter=1))
        out = tmp_path / "fit.json"
        assert run(["fit", "--scenario", "coh", "--runs", "20000", "--out", str(out)]) \
            == cli.EXIT_NUMERICAL
        fit = json.loads(out.read_text())
        assert fit["converged"] is False and fit["n_iter"] == 1
        assert fit["gap"] > 1e-6 and fit["config"]["max_iter"] == 1

    def test_sparse_fit_is_certified(self, tmp_path):
        # a table of 4 runs is certified like any other
        out = tmp_path / "fit.json"
        assert run(["fit", "--scenario", "probq", "--runs", "4", "--seed", "2638",
                    "--out", str(out)]) == cli.EXIT_OK
        fit = json.loads(out.read_text())
        assert fit["converged"] is True and fit["gap"] <= 1e-6 and fit["n_iter"] == 8

    @pytest.mark.parametrize("argv, name", [
        # the options of an earlier penalized, restarted fit are gone, and a
        # script that still passes them fails as usage
        (["pipeline", "--restarts", "0"], "restarts"),
        (["fit", "--restarts", "-2"], "restarts"),
        (["pipeline", "--lambda", "-1"], "lam"),
        (["fit", "--lambda", "nan"], "lam"),
        (["pipeline", "--runs", "0"], "--runs"),
        (["fit", "--runs", "-5"], "--runs"),
    ])
    def test_bad_fit_flag_is_usage_error(self, argv, name, monkeypatch, tmp_path, capsys):
        def fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli.tomography, "fit_causal_map", fit)
        try:
            code = run(argv + ["--out", str(tmp_path / "out.json")])
        except SystemExit as exc:       # argparse refuses an unknown option
            code = exc.code
        assert code == cli.EXIT_USAGE
        assert name in capsys.readouterr().err


class TestScenario:
    def test_writes_choi_json(self, tmp_path):
        out = tmp_path / "tau.json"
        assert run(["scenario", "--scenario", "coh", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert np.array(data["re"]).shape == (8, 8)
        assert data["labels"] == ["C", "B", "D"]

    def test_probc_is_diagonal(self, tmp_path):
        out = tmp_path / "tau.json"
        assert run(["scenario", "--scenario", "probc", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        m = np.array(data["re"]) + 1j * np.array(data["im"])
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-12


class TestWitness:
    @pytest.mark.parametrize("scenario", causal.SCENARIO_IDS)
    def test_report_passes_the_schema(self, tmp_path, witness_schema, scenario):
        out = tmp_path / "w.json"
        assert run(["witness", "--scenario", scenario, "--out", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), witness_schema)

    def test_labels(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["witness", "--scenario", "physc", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["label"] == "PhysC"

    def test_from_file(self, tmp_path):
        tau_path = tmp_path / "tau.json"
        run(["scenario", "--scenario", "coh", "--out", str(tau_path)])
        out = tmp_path / "w.json"
        assert run(["witness", "--in", str(tau_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["label"] == "Coh"

    def test_from_file_at_the_trace_tolerance(self, tmp_path):
        # tau scaled by 1 + 5e-9 passes check_states (trace to 1e-8), and
        # so does every step of classify: C_CD takes its joint distribution
        # as given
        data = json.loads(causal.build_scenario("coh").to_json())
        data["re"] = (np.array(data["re"]) * (1 + 5e-9)).tolist()
        data["im"] = (np.array(data["im"]) * (1 + 5e-9)).tolist()
        tau_path = tmp_path / "tau.json"
        tau_path.write_text(json.dumps(data))
        out = tmp_path / "w.json"
        assert run(["witness", "--in", str(tau_path), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["label"] == "Coh"

    def test_ccd_settings_flag(self, tmp_path):
        out = tmp_path / "w.json"
        run(["witness", "--scenario", "epsmix", "--ccd-settings", "z", "z", "z",
             "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["label"] == "PhysQ"
        assert data["ccd"] == pytest.approx(0.05, abs=1e-9)


def _spec_rows(weights, table_0, drop=None):
    """The rows of a two-term spec, term 0 of table_0 and term 1 of b = e,
    without the row that starts with ``drop``; written as text, since a
    MixtureTerm of an invalid table cannot be built."""
    tables = (table_0, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]])
    rows = [f"{i},{w},{b},{d},{e},{t[b][d][e]}" for i, (w, t) in enumerate(zip(weights, tables))
            for b in range(2) for d in range(2) for e in range(2)]
    return [r for r in rows if drop is None or not r.startswith(drop)]


class TestBerkson:
    def test_bound(self, capsys):
        assert run(["berkson", "bound", "--n", "2"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(0.1226, abs=1e-3)

    def test_mi(self, capsys):
        assert run(["berkson", "mi"]) == 0
        data = json.loads(capsys.readouterr().out)
        for v in data["conditional_mi_bits"].values():
            assert v == pytest.approx(0.19, abs=0.005)
        assert data["bound_bits"] < min(data["conditional_mi_bits"].values())

    def test_unknown_flag(self):
        # mi has no options but --out: argparse refuses any other
        with pytest.raises(SystemExit) as exc:
            run(["berkson", "mi", "--preset", "physc"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_reduce(self, tmp_path, capsys):
        spec = tmp_path / "terms.csv"
        rows = ["term,weight,b,d,e,prob"]
        # 1/2 (b = d) + 1/4 (b = e) + 1/4 (b random)
        tables = [
            (0, "1/2", lambda b, d, e: int(b == d)),
            (1, "1/4", lambda b, d, e: int(b == e)),
            (2, "1/4", lambda b, d, e: "1/2"),
        ]
        for i, w, fn in tables:
            for b in range(2):
                for d in range(2):
                    for e in range(2):
                        rows.append(f"{i},{w},{b},{d},{e},{fn(b, d, e)}")
        spec.write_text("\n".join(rows) + "\n")
        out = tmp_path / "reduced.csv"
        assert run(["berkson", "reduce", "--spec", str(spec), "--out", str(out)]) == 0
        assert "equivalence OK" in capsys.readouterr().err
        reduced = out.read_text().splitlines()
        assert reduced[0] == "term,weight,b,d,e,prob"
        weights = {line.split(",")[1] for line in reduced[1:]}
        assert weights == {"3/4", "1/4"}

    @pytest.mark.parametrize("text", ["", "term,weight,b,d,e,prob\n"],
                             ids=["empty", "header_only"])
    def test_reduce_empty_spec_is_usage_error(self, tmp_path, capsys, text):
        spec = tmp_path / "terms.csv"
        spec.write_text(text)
        assert run(["berkson", "reduce", "--spec", str(spec)]) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        # two terms of weight 1 each
        (_spec_rows((1, 1), DE_TABLE), "weights sum to 2, not 1"),
        # a term whose probabilities are 2 and -1
        (_spec_rows((Fraction(1, 2),) * 2, [[[2, 2], [0, 0]], [[-1, -1], [1, 1]]]),
         r"term 0: P\(b \| d, e\): probabilities must lie in \[0, 1\], but entry \[0, 0, 0\] is 2"),
        # a term without its (0, 0, 1) cell
        (_spec_rows((Fraction(1, 2),) * 2, DE_TABLE, drop="1,1/2,0,0,1,"),
         r"term 1: no row for cell \(b, d, e\) = \(0, 0, 1\)"),
        # a term index and a cell index that are not integers
        (["x,1,0,0,0,1"], r"line 2: non-integer index"),
        (["0,1,0,y,0,1"], r"line 2: non-integer index"),
    ], ids=["weights", "probabilities", "missing_cell", "term_index", "cell_index"])
    def test_reduce_bad_spec_is_usage_error(self, rows, message, tmp_path, capsys):
        spec = tmp_path / "terms.csv"
        spec.write_text("\n".join(["term,weight,b,d,e,prob", *rows]))
        assert run(["berkson", "reduce", "--spec", str(spec)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(message, err)

    def test_reduce_spec_with_trailing_blank_line(self, tmp_path, capsys):
        # an editor's final newline leaves one empty row after the terms
        terms = [berkson.MixtureTerm(Fraction(1, 2), [[[1, 1], [0, 0]], [[0, 0], [1, 1]]]),
                 berkson.MixtureTerm(Fraction(1, 2), [[[1, 0], [1, 0]], [[0, 1], [0, 1]]])]
        spec = tmp_path / "terms.csv"
        spec.write_text(berkson.mixture_terms_to_csv(terms) + "\n")
        assert run(["berkson", "reduce", "--spec", str(spec),
                    "--out", str(tmp_path / "reduced.csv")]) == cli.EXIT_OK
        assert "equivalence OK" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        # seven rows give the weight 1/2, the last row 1
        (lambda rows: [r.replace("0,1,", "0,1/2,", 1) for r in rows[:8]] + rows[8:],
         "line 9: term 0 has weight 1, but an earlier row gives 1/2"),
        # P(b=0 | d=0, e=1) first read as 0, then as 1 by a repeated row
        (lambda rows: rows[:2] + ["0,1,0,0,1,0"] + rows[3:] + [rows[2]],
         r"line 10: repeated cell \(b, d, e\) = \(0, 0, 1\) of term 0"),
    ], ids=["weights", "cell"])
    def test_reduce_conflicting_rows_are_usage_error(self, edit, message, tmp_path, capsys):
        rows = berkson.mixture_terms_to_csv([berkson.MixtureTerm(1, DE_TABLE)]).splitlines()
        spec = tmp_path / "terms.csv"
        spec.write_text("\n".join(edit(rows)) + "\n")
        assert run(["berkson", "reduce", "--spec", str(spec)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(message, err)

    @pytest.mark.parametrize("column", [1, 5], ids=["weight", "prob"])
    def test_reduce_zero_denominator_is_usage_error(self, column, tmp_path, capsys):
        rows = berkson.mixture_terms_to_csv([berkson.MixtureTerm(1, DE_TABLE)]).splitlines()
        fields = rows[1].split(",")
        fields[column] = "1/0"
        rows[1] = ",".join(fields)
        spec = tmp_path / "terms.csv"
        spec.write_text("\n".join(rows) + "\n")
        assert run(["berkson", "reduce", "--spec", str(spec)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:") and "'1/0' has a zero denominator" in err

    @staticmethod
    def _spec(tmp_path, fns, nd=2, ne=2):
        """A spec of equal-weight terms P(b | d, e) = fn(b, d, e) over b in {0, 1}."""
        w = f"1/{len(fns)}"
        rows = ["term,weight,b,d,e,prob"] + [
            f"{i},{w},{b},{d},{e},{fn(b, d, e)}" for i, fn in enumerate(fns)
            for b in range(2) for d in range(nd) for e in range(ne)]
        spec = tmp_path / "terms.csv"
        spec.write_text("\n".join(rows) + "\n")
        return spec

    @pytest.mark.parametrize("wide_first", [False, True])
    def test_reduce_mismatched_shapes_is_usage_error(self, wide_first, tmp_path, capsys):
        narrow = [[[1, 1], [0, 0]], [[0, 0], [1, 1]]]
        wide = [[[1, 1], [0, 0], [1, 1]], [[0, 0], [1, 1], [0, 0]]]   # b = d mod 2
        tables = [wide, narrow] if wide_first else [narrow, wide]
        spec = tmp_path / "terms.csv"
        spec.write_text(berkson.mixture_terms_to_csv(
            [berkson.MixtureTerm(Fraction(1, 2), t) for t in tables]))
        assert run(["berkson", "reduce", "--spec", str(spec)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: term 1: table shape (b, d, e)")

    def test_reduce_three_e_values(self, tmp_path, capsys):
        spec = self._spec(tmp_path, [lambda b, d, e: int(b == d),
                                     lambda b, d, e: int(b == (e == 2))], ne=3)
        out = tmp_path / "reduced.csv"
        assert run(["berkson", "reduce", "--spec", str(spec), "--out", str(out)]) == 0
        assert "equivalence OK" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2 * 3

    def test_reduce_writes_the_input_cells(self, tmp_path, capsys):
        spec = self._spec(tmp_path, [lambda b, d, e: int(b == d % 2),
                                     lambda b, d, e: int(b == e)], nd=3)
        out = tmp_path / "reduced.csv"
        assert run(["berkson", "reduce", "--spec", str(spec), "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        for term in ("0", "1"):
            cells = {tuple(int(x) for x in r[2:5]) for r in rows if r[0] == term}
            assert cells == {(b, d, e) for b in range(2) for d in range(3) for e in range(2)}
        assert len(rows) == 2 * 2 * 3 * 2
        again = tmp_path / "again.csv"
        assert run(["berkson", "reduce", "--spec", str(out), "--out", str(again)]) == 0
        assert capsys.readouterr().err.count("equivalence OK") == 2
        assert again.read_text() == out.read_text()

    def test_reduce_float_spec_is_equivalent(self, tmp_path, capsys):
        # the reduction of 0.7/0.2/0.1 differs from the direct sum by round-off
        tables = (DE_TABLE, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
                  [[[1, 1], [1, 1]], [[0, 0], [0, 0]]])
        terms = [berkson.MixtureTerm(w, t) for w, t in zip((0.7, 0.2, 0.1), tables)]
        spec = tmp_path / "terms.csv"
        spec.write_text(berkson.mixture_terms_to_csv(terms))
        assert run(["berkson", "reduce", "--spec", str(spec),
                    "--out", str(tmp_path / "reduced.csv")]) == cli.EXIT_OK
        assert "equivalence OK" in capsys.readouterr().err


class TestPipeline:
    def test_noiseless_report(self, tmp_path, schema):
        out = tmp_path / "report.json"
        code = run(["pipeline", "--scenario", "coh", "--noise", "none",
                    "--runs", "27000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        assert set(report["config"]) == set(schema["properties"]["config"]["required"])
        assert report["truth"]["label"] == "Coh"
        assert report["fitted"]["label"] == "Coh"
        assert report["fidelity"] >= 0.999
        assert report["fit"]["converged"] is True

    def test_poisson_with_bootstrap(self, tmp_path, schema):
        out = tmp_path / "report.json"
        code = run(["pipeline", "--scenario", "probq", "--noise", "poisson",
                    "--runs", "50000", "--seed", "4", "--resamples", "3",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        assert report["bootstrap"]["n_resamples"] == 3
        # the deviations appear once, under bootstrap.std
        assert "stddevs" not in report["truth"] and "stddevs" not in report["fitted"]
        # C_CD of a probabilistic mixture stays within 3 sigma of zero
        assert abs(report["fitted"]["ccd"]) <= 3.0 * report["bootstrap"]["std"]["ccd"]

    def test_default_thresholds_under_noise_warn(self, tmp_path, capsys):
        argv = ["pipeline", "--scenario", "probc", "--runs", "27000"]
        assert run(argv + ["--noise", "poisson", "--out", str(tmp_path / "a.json")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "--resamples" in err
        assert run(argv + ["--noise", "none", "--out", str(tmp_path / "b.json")]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("resamples", ["1", "-3"])
    def test_too_few_resamples_is_usage_error(self, tmp_path, capsys, resamples):
        # one refit has no standard deviation; the thresholds would fall back to 1e-6
        assert run(["pipeline", "--scenario", "probc", "--runs", "27000",
                    "--resamples", resamples, "--out", str(tmp_path / "r.json")]) \
            == cli.EXIT_USAGE
        assert "--resamples" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_resamples_without_noise_is_usage_error(self, tmp_path, capsys):
        assert run(["pipeline", "--scenario", "coh", "--noise", "none", "--runs", "27000",
                    "--resamples", "3", "--out", str(tmp_path / "r.json")]) \
            == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--resamples" in err and "--noise" in err
        assert not (tmp_path / "r.json").exists()

    def test_empty_resample_is_numerical(self, tmp_path, capsys, monkeypatch):
        # the simulated table holds 2 counts and the second resample draws
        # none: a numerical failure of the bootstrap, not a usage error,
        # raised before anything is fitted
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the resamples were drawn")

        monkeypatch.setattr(tomography, "fit_causal_maps", no_fit)
        assert run(["pipeline", "--runs", "3", "--resamples", "2", "--seed", "5",
                    "--out", str(tmp_path / "r.json")]) == cli.EXIT_NUMERICAL
        assert "resample 2 of 2 drew no counts" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_fit_and_bootstrap_are_their_own_calls(self, tmp_path, schema):
        # the observed table is fitted in one stack with its resamples: the
        # report's fit and bootstrap are those of fit_causal_map and
        # bootstrap_errorbars of the same table, bit for bit
        out = tmp_path / "report.json"
        assert run(["pipeline", "--scenario", "physc", "--runs", "30000", "--seed", "13",
                    "--resamples", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        table = tomography.sample_counts(causal.build_scenario("physc"), 30_000, seed=13)
        fit = tomography.fit_causal_map(table)
        assert report["fit"] == {"converged": fit.converged, "chi2": fit.chi2,
                                 "penalty_residual": fit.tau.no_retro_residual,
                                 "n_iter": fit.n_iter, "gap": fit.gap}
        settings = ("x", "y", "z")
        bootstrap = tomography.bootstrap_errorbars(
            table, lambda f: witness.witness_values(f.tau, settings), n_resamples=3, seed=13)
        assert report["bootstrap"] == {**bootstrap, "multiplier": witness.threshold_sigmas(3)}
        assert report["fitted"]["thresholds"] == asdict(
            witness.bootstrap_thresholds(bootstrap))

    def test_uncertified_fit_reports_its_gap(self, tmp_path, schema, monkeypatch):
        # with the fit budget at one step the fit stops uncertified (see
        # TestExitCodes.test_uncertified_fit_is_numerical): the report is
        # written, with the gap, and the exit code is numerical
        monkeypatch.setattr(tomography, "FitConfig", partial(tomography.FitConfig, max_iter=1))
        out = tmp_path / "report.json"
        assert run(["pipeline", "--scenario", "coh", "--runs", "20000", "--resamples", "2",
                    "--out", str(out)]) == cli.EXIT_NUMERICAL
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        assert report["fit"]["converged"] is False and report["fit"]["n_iter"] == 1
        assert report["fit"]["gap"] > 1e-6

    def test_large_table_report_passes_the_schema(self, tmp_path, schema):
        # a table of 1e10 runs, whose certified gap came out below 0 when
        # Tr(S Z) was summed in coordinates: the report must still validate
        out = tmp_path / "report.json"
        assert run(["pipeline", "--scenario", "probc", "--runs", "10000000000", "--seed", "6",
                    "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        assert 0.0 <= report["fit"]["gap"] <= 1e-6 and report["fit"]["converged"] is True

    def test_null_gap_fails_the_schema(self, tmp_path, schema):
        # every stopped fit has a finite gap, so a report without one is invalid
        out = tmp_path / "report.json"
        assert run(["pipeline", "--scenario", "coh", "--noise", "none", "--runs", "27000",
                    "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        report["fit"]["gap"] = None
        with pytest.raises(jsonschema.ValidationError, match="None is not of type 'number'"):
            jsonschema.validate(report, schema)

    @pytest.mark.parametrize("block, key", [
        (("fitted",), "anything"), (("fitted",), "stddevs"), (("truth",), "anything"),
        (("fitted", "thresholds"), "anything"), (("fitted", "neg_b_cd"), "X")],
        ids=["fitted", "fitted_stddevs", "truth", "thresholds", "neg_pair"])
    def test_extra_witness_key_fails_the_schema(self, tmp_path, schema, block, key):
        # the witness blocks hold exactly WitnessReport.to_dict's keys
        out = tmp_path / "report.json"
        assert run(["pipeline", "--scenario", "coh", "--noise", "none", "--runs", "27000",
                    "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
        target = report
        for name in block:
            target = target[name]
        target[key] = 0.0
        with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
            jsonschema.validate(report, schema)

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["pipeline", "--scenario", "physc", "--noise", "poisson",
                "--runs", "30000", "--seed", "13"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
