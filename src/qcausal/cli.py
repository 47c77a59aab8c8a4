"""Command-line front end.

Subcommands:
  scenario   build a reference causal relation and write its Choi JSON
  witness    classify a scenario (or a Choi JSON file) noiselessly
  fit        simulate a counting experiment and reconstruct the Choi state
  pipeline   full simulate -> fit -> witness -> classify run with a JSON report
  berkson    classical Berkson quantities (bound / mi / reduce)

The front end parses, runs and assembles: the bootstrap threshold rule is
witness's, and each report block comes from the object it describes.

Exit codes: 0 success, 2 usage or malformed input, 3 numerical failure.
All randomness is controlled by --seed; reports embed the full configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import berkson as berkson_mod
from . import causal, quantum, tomography, witness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))


def _load_tau(args) -> causal.CausalChoi:
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            text = fh.read()
        try:
            return causal.CausalChoi.from_json(text)
        except quantum.StateValidationError as exc:
            # an invalid state read from a file is malformed input, not a
            # numerical failure
            raise ValueError(f"{args.infile}: {exc}") from exc
    return causal.build_scenario(args.scenario, eps=args.eps)


def cmd_scenario(args) -> int:
    tau = causal.build_scenario(args.scenario, eps=args.eps)
    _write_out(tau.to_json(), args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    tau = _load_tau(args)
    report = witness.classify(tau, ccd_settings=tuple(args.ccd_settings))
    _write_out(report.to_json(), args.out)
    return EXIT_OK


def _simulate(tau, args) -> tomography.CountTable:
    if args.runs < 1:
        raise ValueError(f"--runs {args.runs}: the experiment needs at least one run")
    if args.noise == "poisson":
        return tomography.sample_counts(tau, args.runs, seed=args.seed)
    return tomography.expected_counts(tau, args.runs)


def cmd_fit(args) -> int:
    tau = causal.build_scenario(args.scenario, eps=args.eps)
    table = _simulate(tau, args)
    fit = tomography.fit_causal_map(table)
    _write_out(fit.to_json(), args.out)
    return EXIT_OK if fit.converged else EXIT_NUMERICAL


def cmd_pipeline(args) -> int:
    if args.resamples < 0 or args.resamples == 1:
        raise ValueError(f"--resamples {args.resamples}: pass 0 (off) or at least 2, "
                         f"since a standard deviation needs two refits")
    if args.resamples and args.noise != "poisson":
        raise ValueError(f"--resamples {args.resamples} needs --noise poisson: "
                         f"the bootstrap resamples Poisson noise, and --noise "
                         f"{args.noise} has none")
    tau = causal.build_scenario(args.scenario, eps=args.eps)
    settings = tuple(args.ccd_settings)
    truth = witness.classify(tau, ccd_settings=settings)
    table = _simulate(tau, args)
    resamples = (tomography.bootstrap_resamples(table, args.resamples, seed=args.seed)
                 if args.resamples else [])
    # the observed table and its resamples as one stack of problems: each
    # fit is the one it gets alone, so fit is fit_causal_map(table)
    fit, *refits = tomography.fit_causal_maps([table, *resamples])

    bootstrap = None
    thresholds = witness.Thresholds()
    if args.resamples:
        bootstrap = tomography.bootstrap_summary(
            refits, lambda f: witness.witness_values(f.tau, settings))
        bootstrap["multiplier"] = witness.threshold_sigmas(bootstrap["n_resamples"])
        thresholds = witness.bootstrap_thresholds(bootstrap)
    elif args.noise == "poisson":
        print(f"warning: fitted witnesses are compared with the default "
              f"{witness.DEFAULT_THRESHOLD:g} thresholds, below Poisson noise; pass --resamples K "
              f"for bootstrap thresholds at the 3-sigma tail of a Student t with K - 1 dof",
              file=sys.stderr)
    fitted = witness.classify(fit.tau, thresholds, ccd_settings=settings)

    report = {
        "config": {
            "scenario": args.scenario, "eps": args.eps, "runs": args.runs,
            "seed": args.seed, "noise": args.noise, "resamples": args.resamples,
            "ccd_settings": list(settings),
        },
        "truth": truth.to_dict(),
        "fitted": fitted.to_dict(),
        "fidelity": float(quantum.fidelity(fit.tau.tau, tau.tau)),
        "fit": fit.report(),
        "bootstrap": bootstrap,
    }
    _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
    return EXIT_OK if fit.converged else EXIT_NUMERICAL


def cmd_berkson(args) -> int:
    if args.berkson_cmd == "bound":
        _write_out(repr(berkson_mod.berkson_bound(args.n)), args.out)
        return EXIT_OK
    if args.berkson_cmd == "mi":
        jd = berkson_mod.physc_distribution()
        cmi = berkson_mod.conditional_mutual_information(jd.probs.transpose(0, 2, 1))
        _write_out(json.dumps({"conditional_mi_bits": {str(k): v for k, v in cmi.items()},
                               "bound_bits": berkson_mod.berkson_bound(2)}), args.out)
        return EXIT_OK
    # reduce
    with open(args.spec) as fh:
        terms = berkson_mod.mixture_terms_from_csv(fh.read())
    out_terms, ok = berkson_mod.reduce_spec(terms)
    _write_out(berkson_mod.mixture_terms_to_csv(out_terms), args.out)
    print(f"equivalence {'OK' if ok else 'FAILED'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _add_scenario_flags(p, with_infile=False):
    p.add_argument("--scenario", choices=causal.SCENARIO_IDS, default="coh")
    p.add_argument("--eps", type=float, default=0.1)
    if with_infile:
        p.add_argument("--in", dest="infile", default=None,
                       help="read the Choi state from a JSON file instead")


def _add_experiment_flags(p):
    p.add_argument("--runs", type=int, default=tomography.DEFAULT_RUNS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=("none", "poisson"), default="poisson")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcausal",
                                 description="Simulate, witness and reconstruct "
                                             "two-qubit causal relations.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("scenario", help="write a reference Choi state as JSON")
    _add_scenario_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("witness", help="classify a causal relation noiselessly")
    _add_scenario_flags(p, with_infile=True)
    p.add_argument("--ccd-settings", nargs=3, default=witness.DEFAULT_CCD_SETTINGS,
                   metavar=("S", "T", "U"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("fit", help="simulate counts and reconstruct the Choi state")
    _add_scenario_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("pipeline", help="simulate, fit, witness, classify, report")
    _add_scenario_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--resamples", type=int, default=0,
                   help="bootstrap resamples K, 0 (off) or at least 2, for thresholds at the "
                        "3-sigma tail of a Student t with K - 1 dof; needs --noise poisson")
    p.add_argument("--ccd-settings", nargs=3, default=witness.DEFAULT_CCD_SETTINGS,
                   metavar=("S", "T", "U"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("berkson", help="classical Berkson quantities")
    bsub = p.add_subparsers(dest="berkson_cmd", required=True)
    b = bsub.add_parser("bound")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--out", default=None)
    b = bsub.add_parser("mi")
    b.add_argument("--out", default=None)
    b = bsub.add_parser("reduce")
    b.add_argument("--spec", required=True)
    b.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_berkson)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # the numerical classes subclass ValueError, so they are caught first;
    # a StateValidationError here comes from computed data, since _load_tau
    # maps the StateValidationError of an input file
    except (ArithmeticError, np.linalg.LinAlgError, quantum.StateValidationError,
            tomography.EmptyResampleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
