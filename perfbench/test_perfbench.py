"""Tests of the benchmark itself: each workload at a tiny size, and each
correctness check against a deliberately wrong output.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spec
from tracer import Tracer, self_times

# Each workload shrunk to a round of a second or two.
TINY = {
    "desk-sweep": dict(trials=1, restarts=1, max_iterations=40),
    "desk-k7-sc": dict(trials=1, restarts=1, max_iterations=30),
    "desk-overload-sc": dict(trials=1, restarts=1, max_iterations=30),
    "full-k10": dict(K=2, max_iterations=15),
}


def tiny_loop(name, seed=5):
    workload = dataclasses.replace(spec.WORKLOADS[name], **TINY[name])
    return (run.SweepLoop if workload.kind == "sweep" else run.SerialLoop)(workload, seed)


def one_round(loop, full=False):
    tally, tracer = run.Tally(), Tracer()
    seen = run.install(tracer, loop, full=full)
    try:
        rounds, wall, cpu = run.run_rounds(loop, tracer, tally, rounds=[0])
    finally:
        tracer.restore()
    loop.finish(rounds, tally)
    return tally, tracer, seen, wall, cpu


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_workload_round_passes_its_checks(name):
    loop = tiny_loop(name)
    tally = one_round(loop)[0]
    assert tally.errors == []
    trials = loop.workload.trials * len(loop.workload.ebn0)
    assert tally.attempted == trials * loop.workload.K
    assert len(tally.trial_s) == trials
    assert [r[0] for r in tally.rounds] == [len(tally.trial_s)]
    metrics = run.end_to_end(tally, [{"setup_s": 1.0}])
    assert set(metrics) == {"trials_per_s", "trial_ms_p50", "users_decoded_per_s",
                            "cpu_s_per_trial", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["desk-sweep", "desk-k7-sc"])
def test_traced_round_accounts_for_the_trial(name):
    loop = tiny_loop(name)
    tally, tracer, seen, wall, cpu = one_round(loop, full=True)
    assert tally.errors == []
    probe = {"import_s": 0.1, "components_s": 0.01, "first_fit_s": 0.1}
    metrics = run.per_layer(tracer, seen, wall, wall, cpu, [probe])
    layers = sum(metrics[f"layer.{layer}_ms"][0] for layer in run.LAYERS)
    trial = metrics["trace.trial_ms"][0]
    assert layers + metrics["trace.remainder_ms"][0] == pytest.approx(trial)
    assert 0 <= metrics["trace.remainder_ms"][0] < trial
    assert metrics["solver.fits_per_trial"][0] >= 1
    assert metrics["codec.demap_symbol_us"][0] > 0
    assert seen["fits"]
    for Y, result in seen["fits"]:
        factors = [(t.A, t.B, t.h) for t in result.model.terms]
        assert checks.check_residual(Y, factors, result.relative_residual) == []
    # Every wrapper is gone again.
    assert not hasattr(run.receiver.gndl_fit, "__wrapped__")
    assert not hasattr(run.OuterCode.encode, "__wrapped__")


def _tamper_sc(monkeypatch, change):
    original = run.receiver.successive_cancellation

    def tampered(*args, **kwargs):
        decoded, diag = original(*args, **kwargs)
        return change(set(decoded)), diag

    monkeypatch.setattr(run.receiver, "successive_cancellation", tampered)


@pytest.mark.parametrize("name", ["desk-sweep", "desk-k7-sc"])
def test_dropped_user_is_a_failed_operation(monkeypatch, name):
    clean = one_round(tiny_loop(name))[0]
    _tamper_sc(monkeypatch, lambda d: set(sorted(d)[1:]))
    tally = one_round(tiny_loop(name))[0]
    trials = len(clean.trial_s)
    assert (tally.missed, tally.fabricated) == (clean.missed + trials, clean.fabricated)
    assert tally.failed == clean.failed + trials
    assert tally.errors == []   # the harness's PUPE sees the same drop


@pytest.mark.parametrize("name", ["desk-sweep", "desk-k7-sc"])
def test_fabricated_message_is_a_failed_operation(monkeypatch, name):
    clean = one_round(tiny_loop(name))[0]
    _tamper_sc(monkeypatch, lambda d: d | {"1" * 20})
    tally = one_round(tiny_loop(name))[0]
    trials = len(clean.trial_s)
    assert (tally.missed, tally.fabricated) == (clean.missed, clean.fabricated + trials)


def test_harness_pupe_must_match_the_message_sets(monkeypatch):
    _tamper_sc(monkeypatch, lambda d: set(sorted(d)[1:]))
    monkeypatch.setattr(run.receiver, "pupe", lambda sent, decoded: 0.0)
    tally = one_round(tiny_loop("desk-sweep"))[0]
    assert tally.errors and all("run_trial returned PUPE" in e for e in tally.errors)
    assert checks.check_harness_misses(0.25, 0, 4)
    assert checks.check_harness_misses(0.25, 1, 4) == []


def test_noise_free_check_rejects_dropped_and_fabricated_users():
    sent = {"0011", "0101", "1110"}
    assert checks.check_noise_free(1e-13, sent, set(sent)) == []
    assert checks.check_noise_free(1e-13, sent, sent - {"0011"})
    assert checks.check_noise_free(1e-13, sent, sent | {"1111"})
    # Not an exact fit: uniqueness says nothing, so the check is silent.
    assert checks.check_noise_free(1e-3, sent, sent - {"0011"}) == []


def test_residual_check_rejects_a_residual_off_by_a_factor(monkeypatch):
    rng = np.random.default_rng(0)
    factors = [(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)),
                rng.standard_normal(4)) for _ in range(3)]
    exact = sum(np.einsum("il,jl,n->ijn", A, B, h) for A, B, h in factors)
    Y = exact + 0.1 * rng.standard_normal(exact.shape)
    reported = np.linalg.norm(Y - exact) / np.linalg.norm(Y)
    assert checks.check_residual(Y, factors, reported) == []
    assert checks.check_residual(Y, factors, 2 * reported)
    assert checks.check_residual(Y, factors, reported * (1 + 1e-4))

    # The same through a traced round whose fits misreport their residual.
    original = run.receiver.gndl_fit

    def misreporting(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, relative_residual=2 * result.relative_residual)

    monkeypatch.setattr(run.receiver, "gndl_fit", misreporting)
    _, _, seen, _, _ = one_round(tiny_loop("desk-k7-sc"), full=True)
    errors = [e for Y, res in seen["fits"]
              for e in checks.check_residual(Y, [(t.A, t.B, t.h) for t in res.model.terms],
                                             res.relative_residual)]
    assert len(errors) == len(seen["fits"]) > 0


def test_csv_that_differs_between_worker_counts_is_rejected(monkeypatch):
    loop = tiny_loop("desk-sweep")
    simulate = loop.simulate

    def drifting(r, workers):
        text = simulate(r, workers)
        if workers == 1:   # one column changes with the worker count
            rows = text.splitlines()
            cells = rows[1].split(",")
            cells[7] = str(float(cells[7]) + 1)
            rows[1] = ",".join(cells)
            text = "\n".join(rows) + "\n"
        return text

    monkeypatch.setattr(loop, "simulate", drifting)
    tally = one_round(loop)[0]
    assert len(tally.errors) == 1 and "worker counts" in tally.errors[0]


def test_csv_checks_reject_wrong_rows():
    header = "ebn0_db,K,G,sc_iters,trials,pupe_mean,pupe_ci95,mean_solver_iters,mean_runtime_ms,seed\n"
    good = header + "8,4,1,0,2,0.125,0.245,20,500,1\n12,4,1,0,2,0,0,18,480,1\n"
    rows = checks.parse_csv(good)
    returned = {8.0: [0.25, 0.0], 12.0: [0.0, 0.0]}
    assert checks.check_row_pupe(rows, returned, K=4, trials=2) == []
    assert checks.check_row_pupe(rows, {8.0: [0.0, 0.0], 12.0: [0.0, 0.0]}, K=4, trials=2)
    assert checks.check_row_pupe(rows, {8.0: [0.25], 12.0: [0.0, 0.0]}, K=4, trials=2)
    assert checks.check_pupe_monotone(rows) == []
    rising = checks.parse_csv(header + "8,4,1,0,2,0,0,20,500,1\n12,4,1,0,2,0.5,0.1,18,480,1\n")
    assert checks.check_pupe_monotone(rising)
    # Wall time may differ between worker counts; nothing else may.
    assert checks.check_same_columns(good, good.replace(",500,", ",900,")) == []
    assert checks.check_same_columns(good, good.replace(",20,", ",21,"))


def test_self_times_subtract_direct_children():
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_keeps_threads_apart():
    import threading
    tracer = Tracer()

    def work(trial):
        with tracer.span("outer", trial=trial):
            with tracer.span("inner"):
                pass

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    for name, _, _, parent, trial in tracer.spans:
        if name == "inner":
            assert tracer.spans[parent][0] == "outer" and tracer.spans[parent][4] == trial


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "desk-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
