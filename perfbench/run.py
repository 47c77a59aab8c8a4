"""Benchmark of the qcausal tomography pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qcausal is imported from ./src.  The
run times whole rounds of one workload's jobs until S seconds have passed,
checks every job's outputs, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

import os

# One BLAS thread, fixed here rather than inherited: on 2 cores, two threads
# made a Poisson fit slower (2.8-3.0 s against 2.1-2.3 s), and once a fit had
# run, sample_counts took ~8 ms instead of 0.1-0.2 ms in the (216, 64) matvec.
# Set before numpy is first imported; probe processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import probe
import reference
import spans
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAYERS = ("causal", "tomography", "optimize", "witness", "matlin", "quantum",
          "berkson", "cli")
SETUP_PROBES = 7
clock = time.perf_counter


class SetupProbes:
    """Set-up cost measured in SETUP_PROBES fresh processes (see probe.py).

    The probes are spread over the run, between jobs, so that their median
    covers the same stretch of time as the job times rather than the few
    seconds before them.  One discarded probe first fills the file cache and
    writes bytecode; bytecode writing is switched on for the probes, as in an
    installed package, so set-up time does not depend on
    PYTHONDONTWRITEBYTECODE.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.results = []
        self.busy_s = 0.0
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._run()               # discarded
        self.busy_s = 0.0

    def _run(self):
        t0 = clock()
        proc = subprocess.run([sys.executable, probe.__file__, str(SRC)], cwd=ROOT,
                              env=self.env, capture_output=True, text=True,
                              timeout=120, check=True)
        self.busy_s += clock() - t0
        return json.loads(proc.stdout.splitlines()[-1])

    def due(self, elapsed):
        """Run the probes whose share of the run has elapsed."""
        while (len(self.results) < SETUP_PROBES
               and elapsed >= len(self.results) * self.seconds / SETUP_PROBES):
            self.results.append(self._run())

    def finish(self):
        while len(self.results) < SETUP_PROBES:
            self.results.append(self._run())
        return self.results


def import_qcausal():
    sys.path.insert(0, str(SRC))
    import qcausal
    from qcausal import berkson, causal, cli, matlin, optimize, quantum, tomography, witness

    if not Path(qcausal.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: qcausal imported from {qcausal.__file__}, not {SRC}")
    return types.SimpleNamespace(causal=causal, tomography=tomography, optimize=optimize,
                                 witness=witness, matlin=matlin, quantum=quantum,
                                 berkson=berkson, cli=cli)


def run_jobs(workload, seconds, tracer, probes):
    """Whole rounds of the workload until `seconds`, not counting set-up
    probes, have passed.

    With a tracer, rounds alternate untraced and traced, and an even number
    of rounds is run so that both kinds are timed under the same conditions.
    Returns job times by traced flag, counts, and the quality figures of the
    first successful job at each round position.
    """
    times = {False: [], True: []}
    attempted = failed = wrong = 0
    quality = {}
    start = clock()

    def elapsed():
        return clock() - start - probes.busy_s

    job = rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        for pos in range(workload.round_size):
            probes.due(elapsed())
            attempted += 1
            try:
                inputs = workload.prepare(job)
                if traced:
                    tracer.job = job
                    tracer.install()
                try:
                    t0 = clock()
                    out = workload.run(inputs)
                    job_s = clock() - t0
                finally:
                    if traced:
                        tracer.uninstall()
                q = workload.check(inputs, out)
                if pos in quality and q != quality[pos]:
                    raise CheckFailed(f"not deterministic: {q} != {quality[pos]}")
                quality.setdefault(pos, q)
                times[traced].append(job_s)
            except CheckFailed:
                failed += 1
                wrong += 1
                traceback.print_exc()
            except Exception:
                failed += 1
                traceback.print_exc()
            job += 1
        rnd += 1
        if elapsed() >= seconds and (tracer is None or rnd % 2 == 0):
            break
    return times, attempted, failed, wrong, quality


def end_to_end_metrics(times, quality, probes):
    chi2 = [v for q in quality.values() for v in q["chi2"]]
    infid = [v for q in quality.values() for v in q["infidelity"]]
    return {
        "job_p50_s": (statistics.median(times[False]), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "chi2_mean": (statistics.fmean(chi2), "1"),
        "infidelity_mean": (statistics.fmean(infid), "1"),
        "infidelity_max": (max(infid), "1"),
    }


OBSERVERS = {
    "tomography.fit_causal_map": lambda r: (r.n_iter, r.config.max_iter, r.tau.mat),
    "tomography.fit_conditioned_state": lambda r: r[1].n_iter,
    "tomography.bootstrap_errorbars": lambda r: r["n_resamples"],
}


def per_layer_metrics(tracer, times, probes):
    n_jobs = len(times[True])
    s = tracer.summary()

    def per_call(name):
        calls = s["fn_calls"].get(name, 0)
        return s["fn_s"].get(name, 0.0) / calls if calls else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s["layer_self_s"].get(layer, 0.0) / n_jobs, "s")
        out[f"{layer}.calls"] = (s["layer_calls"].get(layer, 0) / n_jobs, "count")
    fits = tracer.records["tomography.fit_causal_map"]
    iters = sum(f[0] for f in fits)
    out["tomography.fit_causal_map_s"] = (per_call("tomography.fit_causal_map"), "s")
    out["tomography.fit_n_iter"] = (iters / len(fits) if fits else 0.0, "count")
    out["tomography.fit_s_per_iter"] = (
        s["fn_s"].get("tomography.fit_causal_map", 0.0) / iters if iters else 0.0, "s")
    out["tomography.fit_at_max_iter"] = (
        sum(f[0] >= f[1] for f in fits) / len(fits) if fits else 0.0, "1")
    out["tomography.fit_constraint_residual"] = (
        max((reference.no_retro_residual(f[2]) for f in fits), default=0.0), "1")
    resamples = sum(tracer.records["tomography.bootstrap_errorbars"])
    out["tomography.bootstrap_resample_s"] = (
        s["fn_s"].get("tomography.bootstrap_errorbars", 0.0) / resamples
        if resamples else 0.0, "s")
    cond = tracer.records["tomography.fit_conditioned_state"]
    out["tomography.fit_conditioned_state_s"] = (
        per_call("tomography.fit_conditioned_state"), "s")
    out["tomography.cond_fit_n_iter"] = (sum(cond) / len(cond) if cond else 0.0, "count")
    out["tomography.sample_counts_s"] = (per_call("tomography.sample_counts"), "s")
    out["matlin.hermitian_eigs_s"] = (per_call("matlin.hermitian_eigs"), "s")
    out["witness.classify_s"] = (per_call("witness.classify"), "s")
    out["quantum.fidelity_s"] = (per_call("quantum.fidelity"), "s")
    out["berkson.reduce_to_two_terms_s"] = (per_call("berkson.reduce_to_two_terms"), "s")
    out["tomography.fit_first_call_extra_s"] = (
        statistics.median(p["extra_s"]["fit_causal_map"] for p in probes), "s")
    out["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    traced_p50 = statistics.median(times[True])
    out["trace.job_p50_s"] = (traced_p50, "s")
    out["trace.overhead_ratio"] = (traced_p50 / statistics.median(times[False]), "1")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcausal" / "__init__.py").is_file():
        print(f"error: no qcausal sources under {SRC}", file=sys.stderr)
        return 2
    failing = [k for k, ok in reference.closed_form_checks().items() if not ok]
    if failing:
        print(f"error: reference computations fail {failing}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)

    probes = SetupProbes(args.seconds)
    qc = import_qcausal()
    probe.main(str(SRC))          # fill this process's caches before timing
    workload = WORKLOADS[args.workload](qc, args.seed, str(OUT))
    tracer = None
    if args.trace:
        tracer = spans.Tracer([getattr(qc, layer) for layer in LAYERS], OBSERVERS)
    times, attempted, failed, wrong, quality = run_jobs(workload, args.seconds, tracer, probes)
    probes = probes.finish()
    if not times[False] or (tracer and not times[True]):
        print("error: no job succeeded", file=sys.stderr)
        return 1

    if tracer:
        metrics = per_layer_metrics(tracer, times, probes)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(times, quality, probes)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
