"""Set-up cost of one fresh process: run as ``python3 probe.py SRC_DIR``.

Times ``import qcausal`` (numpy included), then the first call of each entry
point the workloads use against the median of three repeats of the same call.
The first call pays for lazily built caches such as the quadratic-form tensors
of the fit; the repeats do not.  Fits run with a two-iteration budget so that
the difference is not buried in iteration time; they read noiseless
tables, which a short budget fits without fault.  Prints one JSON object.
"""

import json
import statistics
import sys
import time

clock = time.perf_counter


def main(src: str) -> dict:
    t0 = clock()
    sys.path.insert(0, src)
    from qcausal import berkson, causal, cli, quantum, tomography, witness
    import_s = clock() - t0

    cfg = tomography.FitConfig(restarts=1, max_iter=2)
    tau = causal.build_scenario("coh")
    table = tomography.expected_counts(tau, 200_000)
    state, _ = causal.induced_state_given_b(tau, quantum.pauli_projector("z", 1))
    cond = tomography.expected_conditioned_counts(state, 100_000)
    terms = [berkson.MixtureTerm(1, [[[1, 1], [0, 0]], [[0, 0], [1, 1]]])]
    calls = {
        "fit_causal_map": lambda: tomography.fit_causal_map(table, cfg),
        "fit_conditioned_state": lambda: tomography.fit_conditioned_state(cond, cfg),
        "sample_counts": lambda: tomography.sample_counts(tau, 200_000, seed=0),
        "classify": lambda: witness.classify(tau),
        "fidelity": lambda: quantum.fidelity(tau.tau, tau.tau),
        "reduce_to_two_terms": lambda: berkson.reduce_to_two_terms(
            terms, berkson.uniform_context(2)),
        "build_parser": cli.build_parser,
    }
    extra = {}
    for name, call in calls.items():
        times = []
        for _ in range(4):
            t = clock()
            call()
            times.append(clock() - t)
        extra[name] = times[0] - statistics.median(times[1:])
    return {"import_s": import_s, "extra_s": extra,
            "setup_s": import_s + sum(extra.values())}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
