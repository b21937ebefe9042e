"""Set-up probe: one fresh interpreter's cost to get a workload going.

    python3 perfbench/probe.py <workload> <seed>

Times `import btdm`, `harness.build_components` and the first fit: a
noise-free instance at the workload's point with min(K, K_bar) users and one
restart, decoded by receiver.demodulate. An exact fit must decode every user
(checks.check_noise_free). Reads the OpenBLAS thread count outside the fit
and, through a wrapped `solver.init_random`, inside it. Prints one JSON line.
"""

from __future__ import annotations

import json
import sys
import time

import spec


def main(name: str, seed: int) -> dict:
    spec.use_checkout_package()
    start = time.perf_counter()
    import btdm
    from btdm import blas, channel, harness, receiver, solver
    imported = time.perf_counter()
    spec.check_imported(btdm)
    import numpy as np  # already loaded by btdm

    import checks
    workload = spec.WORKLOADS[name]
    cfg = harness.ExperimentConfig(**workload.experiment(seed))
    t0 = time.perf_counter()
    params1, params2, outer, kbar = harness.build_components(cfg)
    t1 = time.perf_counter()

    K = min(workload.K, kbar)
    rng = np.random.default_rng((seed, 9000))
    payloads = spec.distinct_payloads(rng, K, cfg.b0)
    sent = {checks.message(p) for p in payloads}
    Y, _ = channel.transmit([outer.encode(p) for p in payloads], params1, params2,
                            channel.ChannelConfig(n_antennas=cfg.n_antennas, n_users=K,
                                                  ebn0_db=0.0, symbol_energy=cfg.energy),
                            cfg.b0, np.random.default_rng((seed, 9001)))
    threads = {"outside_fit": blas.OPENBLAS[1]() if blas.OPENBLAS else None}
    init_random = solver.init_random

    def reading_threads(*args, **kwargs):
        threads["inside_fit"] = blas.OPENBLAS[1]() if blas.OPENBLAS else None
        return init_random(*args, **kwargs)

    solver.init_random = reading_threads
    try:
        decoded, diag = receiver.demodulate(
            Y, params1, params2, outer, receiver.ReceiverConfig(assumed_terms=K),
            solver.SolverConfig(max_iterations=cfg.max_iterations, restarts=1,
                                seed=seed))
    finally:
        solver.init_random = init_random
    t2 = time.perf_counter()
    return {
        "import_s": imported - start,
        "components_s": t1 - t0,
        "first_fit_s": t2 - t1,
        "setup_s": (imported - start) + (t2 - t0),
        "openblas_threads": threads,
        "noise_free": {"K": K, "relative_residual": diag.relative_residual,
                       "iterations": diag.solver_iterations},
        "errors": checks.check_noise_free(diag.relative_residual, sent, decoded),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
