import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from qcausal import cli, matlin
from qcausal.quantum import DensityOperator


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("qcausal").joinpath("report_schema.json").read_text()
    return json.loads(text)


class TestExitCodes:
    def test_bad_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["scenario", "--scenario", "nope"])
        assert exc.value.code == 2          # argparse rejects the choice

    def test_bad_eps(self, tmp_path):
        assert run(["scenario", "--scenario", "epsmix", "--eps", "2.0",
                    "--out", str(tmp_path / "x.json")]) == cli.EXIT_USAGE

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
        def invalid(tau, proj):
            # a conditioned state with a negative eigenvalue fails validation
            return DensityOperator(np.diag([0.6, 0.5, 0.0, -0.1]), (("B", 2), ("D", 2))), 0.5

        monkeypatch.setattr(cli.causal, "induced_state_given_c", invalid)
        assert run(["witness", "--scenario", "coh"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_failure_is_numerical(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli.tomography, "fit_causal_map", fail)
        assert run(["fit", "--runs", "27000", "--out", str(tmp_path / "f.json")]) \
            == cli.EXIT_NUMERICAL

    def test_non_hermitian_computed_matrix_is_numerical(self, monkeypatch, capsys):
        def fail(pts):
            raise matlin.NotHermitianError("partial transpose is not Hermitian")

        monkeypatch.setattr(cli.witness, "_negativities", fail)
        assert run(["witness", "--scenario", "coh"]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
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
        assert run(argv + ["--out", str(tmp_path / "out.json")]) == cli.EXIT_USAGE
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

    def test_ccd_settings_flag(self, tmp_path):
        out = tmp_path / "w.json"
        run(["witness", "--scenario", "epsmix", "--ccd-settings", "z", "z", "z",
             "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["label"] == "PhysQ"
        assert data["ccd"] == pytest.approx(0.05, abs=1e-9)


class TestBerkson:
    def test_bound(self, capsys):
        assert run(["berkson", "bound", "--n", "2"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(0.1226, abs=1e-3)

    def test_mi(self, capsys):
        assert run(["berkson", "mi", "--preset", "physc"]) == 0
        data = json.loads(capsys.readouterr().out)
        for v in data["conditional_mi_bits"].values():
            assert v == pytest.approx(0.19, abs=0.005)
        assert data["bound_bits"] < min(data["conditional_mi_bits"].values())

    def test_unknown_preset(self):
        assert run(["berkson", "mi", "--preset", "bogus"]) == cli.EXIT_USAGE

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


class TestPipeline:
    def test_noiseless_report(self, tmp_path, schema):
        out = tmp_path / "report.json"
        code = run(["pipeline", "--scenario", "coh", "--noise", "none",
                    "--runs", "27000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schema)
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

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["pipeline", "--scenario", "physc", "--noise", "poisson",
                "--runs", "30000", "--seed", "13"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
