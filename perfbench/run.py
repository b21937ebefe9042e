"""The btdm benchmark: closed-loop Monte-Carlo trials, timed from outside.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 45 --trace 0

Runs whole rounds of one workload (spec.WORKLOADS) back to back in this
process until --seconds have passed, checks every round's outputs, and prints
the run record followed by one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. An operation is one sent
user message in one trial; it fails when the decoded set lacks it, and every
decoded message that was never sent is one more failure. Set-up (import,
build_components, first fit) is timed in fresh interpreters by probe.py.

The traced run first runs rounds untraced for half the time, then the same
rounds again with every layer's public functions wrapped (tracer.Tracer);
the per-layer numbers come from the second half and the tracing overhead is
the ratio of the two halves' wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spec

spec.use_checkout_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import btdm  # noqa: E402
from btdm import blas, channel, cli, codec, harness, receiver  # noqa: E402
from btdm.outer_code import OuterCode  # noqa: E402
from btdm.solver import SolverConfig  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

spec.check_imported(btdm)

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Span names are "<layer>.<function>"; the benchmark's own spans are "bench.*".
LAYERS = ("harness", "channel", "codec", "outer_code", "solver", "receiver")


def run_probes(name: str, seed: int) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=spec.ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: setup probe exited with {proc.returncode}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


class Tally:
    """Operations attempted and failed, per-trial wall times, per-round
    (trials, users decoded, wall s, CPU s), and check errors."""

    def __init__(self):
        self.attempted = self.missed = self.fabricated = 0
        self.trial_s: list[float] = []
        self.rounds: list[tuple[int, int, float, float]] = []
        self.errors: list[str] = []

    def add_trial(self, sent: set, decoded: set) -> None:
        missed, fabricated = checks.count_failures(sent, decoded)
        self.attempted += len(sent)
        self.missed += missed
        self.fabricated += fabricated

    @property
    def failed(self) -> int:
        return self.missed + self.fabricated


class SerialLoop:
    """`trials` trials per round, one at a time: the benchmark draws the
    payloads from its own generator, sends them through channel.transmit and
    decodes them with receiver.successive_cancellation."""

    def __init__(self, workload: spec.Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.cfg = harness.ExperimentConfig(**workload.experiment(seed))
        self.params1, self.params2, self.outer, _ = harness.build_components(self.cfg)

    def trial(self, r: int, t: int) -> tuple[set, set]:
        cfg, w = self.cfg, self.workload
        base = (self.seed, r, t)
        payloads = spec.distinct_payloads(np.random.default_rng((*base, 0)), w.K, cfg.b0)
        Y, _ = channel.transmit(
            [self.outer.encode(p) for p in payloads], self.params1, self.params2,
            channel.ChannelConfig(n_antennas=cfg.n_antennas, n_users=w.K,
                                  ebn0_db=w.ebn0[0], symbol_energy=cfg.energy),
            cfg.b0, np.random.default_rng((*base, 1)), np.random.default_rng((*base, 2)))
        solver_seed = int(np.random.SeedSequence((*base, 3)).generate_state(1)[0])
        decoded, _ = receiver.successive_cancellation(
            Y, self.params1, self.params2, self.outer,
            receiver.ReceiverConfig(assumed_terms=w.K, sc_iterations=w.sc_iterations),
            SolverConfig(max_iterations=w.max_iterations, restarts=w.restarts,
                         seed=solver_seed))
        return {checks.message(p) for p in payloads}, decoded

    def run_round(self, r: int, tracer, tally: Tally) -> None:
        for t in range(self.workload.trials):
            with tracer.span("bench.trial", trial=(r, t)) as span:
                sent, decoded = self.trial(r, t)
            tally.trial_s.append(span[2] - span[1])
            tally.add_trial(sent, decoded)

    def finish(self, rounds, tally: Tally) -> None:
        """Serial rounds have no CSV to check."""


class SweepLoop:
    """One `btdm simulate` call per round (cli.main -> harness.run_monte_carlo).

    Trials run inside the harness's pool, so the benchmark sees them through
    wrappers: harness.run_trial (trial time and returned PUPE),
    channel.transmit (the coded words sent) and
    receiver.successive_cancellation (the decoded set).
    """

    def __init__(self, workload: spec.Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.b0 = workload.point["b0"]
        self.records: dict = {}
        self.csv: dict[int, str] = {}

    def round_seed(self, r: int) -> int:
        return self.seed * 100_000 + r

    def simulate(self, r: int, workers: int) -> str:
        settings = self.workload.experiment(self.round_seed(r))
        settings["workers"] = workers
        argv = ["simulate", "--seed", str(settings.pop("seed"))]
        for key, value in settings.items():
            if isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            argv += ["--set", f"{key}={value}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"btdm simulate exited with {code}")
        return out.getvalue()

    def _record(self, trial) -> dict:
        return self.records.setdefault(trial, {"sent": set(), "decoded": set()})

    def on_run_trial(self, args, kwargs, result, trial) -> None:
        self._record(trial)["pupe"] = result[0]

    def on_transmit(self, args, kwargs, result, trial) -> None:
        # The outer code is systematic: a coded word starts with its payload.
        self._record(trial)["sent"].update(checks.message(p[:self.b0]) for p in args[0])

    def on_decoded(self, decoded: set, trial) -> None:
        self._record(trial)["decoded"].update(decoded)

    def run_round(self, r: int, tracer, tally: Tally) -> None:
        first = len(tracer.spans)
        text = self.simulate(r, self.workload.workers)
        if r in self.csv:   # the traced half repeats the untraced half's rounds
            tally.errors += checks.check_same_columns(self.csv[r], text)
        self.csv[r] = text
        tally.trial_s += [end - start for name, start, end, parent, _ in tracer.spans[first:]
                          if parent < 0 and name == "harness.run_trial"]
        w = self.workload
        rows = checks.parse_csv(self.csv[r])
        returned = {}
        for cell, ebn0 in enumerate(w.ebn0):
            returned[ebn0] = []
            for t in range(w.trials):
                record = self.records.pop((self.round_seed(r), cell, t), None)
                if record is None or "pupe" not in record:
                    tally.errors.append(f"round {r}: no run_trial return for cell {cell} trial {t}")
                    continue
                returned[ebn0].append(record["pupe"])
                tally.add_trial(record["sent"], record["decoded"])
                tally.errors += checks.check_harness_misses(
                    record["pupe"], len(record["sent"] - record["decoded"]), w.K)
        tally.errors += checks.check_row_pupe(rows, returned, w.K, w.trials)
        tally.errors += checks.check_pupe_monotone(rows)

    def finish(self, rounds, tally: Tally) -> None:
        """The harness promises results independent of scheduling: round 0
        again with one worker must give the same deterministic columns."""
        tally.errors += checks.check_same_columns(self.csv[rounds[0]],
                                                  self.simulate(rounds[0], 1))


def install(tracer: Tracer, loop, full: bool) -> dict:
    """Wrap what the run must observe; with `full`, every layer's public
    functions, at the attribute through which their callers reach them.

    Returns the lists the observers fill: gndl_fit's (Y, SolveResult) for the
    residual check, and the DemodDiagnostics and ScDiagnostics returned.
    """
    seen = {"fits": [], "demods": [], "sc": []}
    sweep = isinstance(loop, SweepLoop)

    def on_sc(args, kwargs, result, trial):
        if sweep:
            loop.on_decoded(result[0], trial)
        seen["sc"].append(result[1])

    if sweep:
        tracer.wrap(harness, "run_trial", "harness.run_trial",
                    trial_of=lambda a, k: (a[0].seed, a[7], a[8]),
                    observe=loop.on_run_trial)
    if sweep or full:
        tracer.wrap(channel, "transmit", "channel.transmit",
                    observe=loop.on_transmit if sweep else None)
        tracer.wrap(receiver, "successive_cancellation",
                    "receiver.successive_cancellation", observe=on_sc)
    if full:
        tracer.wrap(receiver, "demodulate", "receiver.demodulate",
                    observe=lambda a, k, res, t: seen["demods"].append(res[1]))
        # receiver imports gndl_fit by name, so that is the attribute callers use.
        tracer.wrap(receiver, "gndl_fit", "solver.gndl_fit",
                    observe=lambda a, k, res, t: seen["fits"].append((a[0], res)))
        tracer.wrap(codec, "build_symbol", "codec.build_symbol")
        tracer.wrap(codec, "demap_symbol", "codec.demap_symbol")
        tracer.wrap(OuterCode, "encode", "outer_code.encode")
        tracer.wrap(OuterCode, "decode", "outer_code.decode")
    return seen


def run_rounds(loop, tracer: Tracer, tally: Tally, seconds: float = 0.0, rounds=None):
    """Run the given rounds, or whole rounds 0, 1, ... until `seconds` have
    passed (at least one). Returns (rounds run, wall s, process CPU s)."""
    done = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        if rounds is not None:
            if len(done) == len(rounds):
                break
            r = rounds[len(done)]
        else:
            if done and time.perf_counter() - wall0 >= seconds:
                break
            r = len(done)
        trials, found = len(tally.trial_s), tally.attempted - tally.missed
        start, cpu = time.perf_counter(), time.process_time()
        loop.run_round(r, tracer, tally)
        tally.rounds.append((len(tally.trial_s) - trials, tally.attempted - tally.missed - found,
                             time.perf_counter() - start, time.process_time() - cpu))
        done.append(r)
    return done, time.perf_counter() - wall0, time.process_time() - cpu0


def end_to_end(tally: Tally, probes: list[dict]) -> dict:
    """Rates are medians over rounds, so that a round slowed by a neighbour
    on the host, or by one slow instance, moves the figure little."""
    def per_round(f):
        return statistics.median(f(*r) for r in tally.rounds)

    return {
        "trials_per_s": (per_round(lambda n, found, wall, cpu: n / wall), "trials/s"),
        "trial_ms_p50": (statistics.median(tally.trial_s) * 1e3, "ms"),
        "users_decoded_per_s": (per_round(lambda n, found, wall, cpu: found / wall), "users/s"),
        "cpu_s_per_trial": (per_round(lambda n, found, wall, cpu: cpu / n), "s/trial"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
    }


def per_layer(tracer: Tracer, seen: dict, untraced_wall: float, wall: float, cpu: float,
              probes: list[dict]) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)      # inclusive seconds per span name
    self_s = defaultdict(float)     # self seconds per span name
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[i]
    roots = [end - start for _, start, end, parent, _ in spans if parent < 0]
    n, trial_s = len(roots), sum(roots)
    layer_s = {layer: sum(own for name, own in self_s.items()
                          if name.partition(".")[0] == layer)
               for layer in LAYERS}
    fits = [result for _, result in seen["fits"]]
    iterations = sum(r.iterations for r in fits)

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def per_trial_count(field):
        return sum(getattr(d, field) for d in seen["demods"]) / n

    metrics = {
        "harness.cpu_per_wall": (cpu / wall, "ratio"),
        "solver.fit_ms": (per_call("solver.gndl_fit", 1e3), "ms"),
        "solver.share": (total["solver.gndl_fit"] / trial_s, "ratio"),
        "solver.iter_ms": (total["solver.gndl_fit"] / iterations * 1e3 if iterations else 0.0,
                           "ms"),
        "solver.iterations": (iterations / n, "count/trial"),
        "solver.fits_per_trial": (len(fits) / n, "count/trial"),
        "solver.converged_ratio": (sum(r.converged for r in fits) / len(fits) if fits else 0.0,
                                   "ratio"),
        "receiver.sc_self_ms": (self_s["receiver.successive_cancellation"] / n * 1e3, "ms"),
        "receiver.sc_passes": (sum(len(d.pass_diags) for d in seen["sc"]) / n, "count/trial"),
        "receiver.demap_ms": (self_s["receiver.demodulate"] / n * 1e3, "ms"),
        "receiver.terms_kept": (per_trial_count("terms_kept"), "count/trial"),
        "receiver.power_discards": (per_trial_count("power_discards"), "count/trial"),
        "receiver.demap_failures": (per_trial_count("demap_failures"), "count/trial"),
        "receiver.outer_rejects": (per_trial_count("outer_rejects"), "count/trial"),
        "codec.build_symbol_us": (per_call("codec.build_symbol", 1e6), "us"),
        "codec.demap_symbol_us": (per_call("codec.demap_symbol", 1e6), "us"),
        "outer_code.encode_us": (per_call("outer_code.encode", 1e6), "us"),
        "outer_code.decode_us": (per_call("outer_code.decode", 1e6), "us"),
        "channel.transmit_ms": (per_call("channel.transmit", 1e3), "ms"),
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.components_s": (statistics.median(p["components_s"] for p in probes), "s"),
        "setup.first_fit_s": (statistics.median(p["first_fit_s"] for p in probes), "s"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_ms"] = (layer_s[layer] / n * 1e3, "ms")
    metrics["trace.trial_ms"] = (trial_s / n * 1e3, "ms")
    metrics["trace.remainder_ms"] = ((trial_s - sum(layer_s.values())) / n * 1e3, "ms")
    metrics["trace.overhead"] = (wall / untraced_wall - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = spec.WORKLOADS[args.workload]

    probes = run_probes(args.workload, args.seed)
    loop = (SweepLoop if workload.kind == "sweep" else SerialLoop)(workload, args.seed)
    tally = Tally()
    for probe in probes:
        tally.errors += probe["errors"]
    if not args.trace:
        tracer = Tracer()
        install(tracer, loop, full=False)
        rounds, _, _ = run_rounds(loop, tracer, tally, seconds=args.seconds)
        tracer.restore()
        loop.finish(rounds, tally)
        metrics = end_to_end(tally, probes)
    else:
        untraced = Tracer()
        install(untraced, loop, full=False)
        rounds, untraced_wall, _ = run_rounds(loop, untraced, tally, seconds=args.seconds / 2)
        untraced.restore()
        tracer = Tracer()
        seen = install(tracer, loop, full=True)
        _, wall, cpu = run_rounds(loop, tracer, tally, rounds=rounds)
        tracer.restore()
        loop.finish(rounds, tally)
        for Y, result in seen["fits"]:
            factors = [(t.A, t.B, t.h) for t in result.model.terms]
            tally.errors += checks.check_residual(Y, factors, result.relative_residual)
        path = spec.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        print(f"perfbench: {len(tracer.spans)} spans written to {path.relative_to(spec.ROOT)}")
        metrics = per_layer(tracer, seen, untraced_wall, wall, cpu, probes)

    threads = probes[0]["openblas_threads"]
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"perfbench: cpu_count={os.cpu_count()} usable_cores={len(os.sched_getaffinity(0))} "
          f"openblas_threads: main={blas.OPENBLAS[1]() if blas.OPENBLAS else None} "
          f"probe_outside_fit={threads['outside_fit']} "
          f"probe_inside_fit={threads.get('inside_fit')} "
          f"numpy={np.__version__} scipy={scipy.__version__}")
    print(f"perfbench: rounds={len(rounds)} trials={len(tally.trial_s)} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"(missed {tally.missed}, never sent {tally.fabricated})")
    nf = probes[0]["noise_free"]
    print(f"perfbench: setup first fit: noise-free K={nf['K']}, relative residual "
          f"{nf['relative_residual']:.3g} after {nf['iterations']} iterations")
    for error in tally.errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not tally.errors
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
