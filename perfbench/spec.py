"""Workload definitions and the checkout layout, with no import of btdm.

The setup probe reads this module before it starts timing `import btdm`, so
nothing here may import the package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The desk point (T1=10, T2=8, N=8; K_bar = 7) and the paper's full-scale
# point (T1=30, T2=24, N=25), as ExperimentConfig fields.
DESK = dict(t1=10, t2=8, l=2, b0=20, b_bch=65, b1=37, b2=28,
            n_antennas=8, bch_m=9, bch_t=5)
FULL = dict(t1=30, t2=24, l=2, b0=204, b_bch=220, b1=124, b2=96,
            n_antennas=25, bch_m=8, bch_t=2)


@dataclass(frozen=True)
class Workload:
    """One closed loop of Monte-Carlo trials, run back to back.

    `sweep` workloads go through `btdm simulate` (cli.main ->
    harness.run_monte_carlo), one call per round with `trials` trials per
    Eb/N0 cell; `serial` workloads run `trials` trials per round, one at a
    time, through channel.transmit and receiver.successive_cancellation.
    """
    kind: str
    point: dict
    K: int
    ebn0: tuple[float, ...]
    sc_iterations: int
    restarts: int
    max_iterations: int
    trials: int = 1
    workers: int = 1

    def experiment(self, seed: int) -> dict:
        """ExperimentConfig keyword arguments for this workload."""
        return dict(self.point, k_list=(self.K,), ebn0_list=self.ebn0,
                    sc_iterations=self.sc_iterations, restarts=self.restarts,
                    max_iterations=self.max_iterations, trials=self.trials,
                    workers=self.workers, seed=seed)


WORKLOADS = {
    # The everyday sweep, and the only workload through the harness's trial
    # pool: default solver settings, two Eb/N0 cells of 4 trials per round.
    "desk-sweep": Workload(kind="sweep", point=DESK, K=4, ebn0=(12.0, 16.0),
                           sc_iterations=0, restarts=5, max_iterations=500,
                           trials=4, workers=2),
    # K = K_bar = 7, the largest unique fit at the desk point (308 parameters),
    # run serially: the dense dogleg solve dominates, and SC subtracts and
    # refits whenever the first pass misses a user. With a 60-iteration cap
    # some fits stop short and lose users, so the cap is the default 500.
    "desk-k7-sc": Workload(kind="serial", point=DESK, K=7, ebn0=(16.0,),
                           sc_iterations=1, restarts=2, max_iterations=500,
                           trials=4),
    # Not in BENCHMARK.json, since their fits stall on some seeds and miss
    # users, so the failed share varies from run to run (see README.md):
    # one user above the uniqueness bound, and the paper's full-scale point.
    "desk-overload-sc": Workload(kind="serial", point=DESK, K=8, ebn0=(12.0,),
                                 sc_iterations=1, restarts=2, max_iterations=60,
                                 trials=4),
    "full-k10": Workload(kind="serial", point=FULL, K=10, ebn0=(10.0,),
                         sc_iterations=0, restarts=1, max_iterations=40),
}


def distinct_payloads(rng, K: int, bits: int) -> list:
    """K distinct payloads of `bits` random bits from the numpy Generator `rng`."""
    payloads = {}
    while len(payloads) < K:
        payload = rng.integers(0, 2, bits, dtype="uint8")
        payloads.setdefault(payload.tobytes(), payload)
    return list(payloads.values())


def use_checkout_package():
    """Put the checkout's src/ first on sys.path; exit 2 if it is missing.

    The benchmark measures the package built from this checkout's sources,
    never a copy installed elsewhere.
    """
    if not (SRC / "btdm" / "__init__.py").is_file():
        print(f"perfbench: no btdm sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit 2 unless `module` was loaded from the checkout's src/."""
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: btdm was imported from {module.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
