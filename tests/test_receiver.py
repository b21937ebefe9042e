import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from btdm import blas, channel, codec, harness, receiver, solver
from btdm import tensor_core as tc
from btdm.outer_code import OuterCode
from btdm.solver import SolverConfig

from conftest import crandn


# Small desk setup used throughout: T1=6, T2=5, L=2, B0=10, coded 22 bits
# via the unshortened-equivalent BCH shortened from (15, 7)... too small for
# 22 coded bits, so these tests run without an outer code unless stated.
P1 = codec.CodecParams(6, 2, 12)
P2 = codec.CodecParams(5, 2, 10)
SOLVER = SolverConfig(seed=0, restarts=3, max_iterations=200)


def make_scene(rng_seed, K, ebn0_db=40.0, n_antennas=4, payload_bits=22):
    rng = np.random.default_rng((rng_seed, 0))
    payloads = []
    seen = set()
    while len(payloads) < K:
        p = rng.integers(0, 2, payload_bits).astype(np.uint8)
        key = receiver.bits_to_message(p)
        if key not in seen:
            seen.add(key)
            payloads.append(p)
    cfg = channel.ChannelConfig(n_antennas=n_antennas, n_users=K,
                                ebn0_db=ebn0_db, symbol_energy=30.0)
    Y, model = channel.transmit(payloads, P1, P2, cfg, b0=10,
                                channel_rng=np.random.default_rng((rng_seed, 1)),
                                noise_rng=np.random.default_rng((rng_seed, 2)))
    sent = {receiver.bits_to_message(p) for p in payloads}
    return Y, sent


class TestMessageCodec:
    def test_roundtrip(self, rng):
        bits = rng.integers(0, 2, 37).astype(np.uint8)
        msg = receiver.bits_to_message(bits)
        assert set(msg) <= {"0", "1"}
        np.testing.assert_array_equal(receiver.message_to_bits(msg), bits)


class TestUniquenessBound:
    def test_full_scale_operating_points(self):
        assert receiver.uniqueness_bound(30, 24, 2, 25) == 25
        assert receiver.uniqueness_bound(10, 8, 2, 8) == 7

    def test_hand_checked_small(self):
        # T1=T2=4, L=2, N=4: r1=r2=2, condition 1 gives K=2 (2+2 >= K+2);
        # condition 2 caps at 2K+2 <= 2+2+min(4,K).
        assert receiver.uniqueness_bound(4, 4, 2, 4) == 2

    def test_monotone_in_antennas(self):
        vals = [receiver.uniqueness_bound(10, 8, 2, n) for n in range(1, 12)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_t1(self):
        vals = [receiver.uniqueness_bound(t, 8, 2, 6) for t in range(4, 20, 2)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            receiver.uniqueness_bound(0, 8, 2, 4)


class TestDof:
    def test_full_scale_value(self):
        assert receiver.dof_total(25, 30, 24, 2) == 2500

    def test_formula(self):
        assert receiver.dof_total(3, 6, 5, 2) == 3 * (6 + 5 - 4) * 2


class TestPupe:
    def test_all_decoded(self):
        assert receiver.pupe({"01", "10"}, {"01", "10", "11"}) == 0.0

    def test_half_missed(self):
        assert receiver.pupe({"01", "10"}, {"01"}) == 0.5

    def test_empty_sent(self):
        with pytest.raises(ValueError):
            receiver.pupe(set(), {"01"})


class TestDemodulate:
    def test_noiseless_two_users(self):
        Y, sent = make_scene(11, K=2)
        rx = receiver.ReceiverConfig(assumed_terms=2)
        decoded, diag = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        assert decoded == sent
        assert diag.terms_kept == 2 and diag.solver_converged

    def test_single_user(self):
        Y, sent = make_scene(12, K=1)
        rx = receiver.ReceiverConfig(assumed_terms=1)
        decoded, _ = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        assert decoded == sent

    def test_moderate_noise(self):
        Y, sent = make_scene(13, K=2, ebn0_db=25.0)
        rx = receiver.ReceiverConfig(assumed_terms=2)
        decoded, _ = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        assert receiver.pupe(sent, decoded) == 0.0

    def test_power_filter_discards_weak_terms(self):
        # One real user, but the receiver assumes three terms: the surplus
        # terms absorb noise energy and must fall below the power floor.
        Y, sent = make_scene(14, K=1, ebn0_db=40.0)
        rx = receiver.ReceiverConfig(assumed_terms=3, power_threshold=0.05)
        decoded, diag = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        assert sent <= decoded
        assert diag.power_discards >= 1

    def test_duplicate_payloads_collapse(self):
        rng = np.random.default_rng(42)
        p = rng.integers(0, 2, 22).astype(np.uint8)
        cfg = channel.ChannelConfig(n_antennas=4, n_users=2, ebn0_db=40.0,
                                    symbol_energy=30.0)
        Y, _ = channel.transmit([p, p], P1, P2, cfg, b0=10,
                                channel_rng=np.random.default_rng(1),
                                noise_rng=np.random.default_rng(2))
        rx = receiver.ReceiverConfig(assumed_terms=2)
        decoded, _ = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        assert decoded <= {receiver.bits_to_message(p)}


class TestFittedTerms:
    """Each term is demapped from its factors as fitted. The fit is made to
    return a chosen model: one restart from it, with no step taken."""

    @staticmethod
    def scene():
        rng = np.random.default_rng(31)
        payloads = [rng.integers(0, 2, 22).astype(np.uint8) for _ in range(3)]
        cfg = channel.ChannelConfig(n_antennas=4, n_users=3, ebn0_db=40.0,
                                    symbol_energy=30.0)
        Y, truth = channel.transmit(payloads, P1, P2, cfg, b0=10,
                                    channel_rng=np.random.default_rng(32))
        messages = [receiver.bits_to_message(p) for p in payloads]
        assert len(set(messages)) == 3
        return Y, truth, messages

    @staticmethod
    def demodulate_from(monkeypatch, Y, start, rx):
        def fit_from_start(Y, K, L, cfg):
            return solver.gndl_fit(Y, K, L, replace(cfg, restarts=1, max_iterations=0),
                                   init=start)
        monkeypatch.setattr(receiver, "gndl_fit", fit_from_start)
        return receiver.demodulate(Y, P1, P2, None, rx, SOLVER)

    def test_rank_deficient_term_is_demap_failure(self, monkeypatch):
        # Term 1's A has two parallel columns; its energy is the true term's.
        Y, truth, messages = self.scene()
        t = truth.terms[1]
        bad = tc.BlockTerm(A=np.hstack([t.A[:, :1], t.A[:, :1]]), B=t.B, h=t.h)
        start = tc.BTDModel(terms=(truth.terms[0], bad, truth.terms[2]))
        decoded, diag = self.demodulate_from(monkeypatch, Y, start,
                                             receiver.ReceiverConfig(assumed_terms=3))
        assert decoded == {messages[0], messages[2]}
        assert (diag.terms_kept, diag.power_discards, diag.demap_failures) == (3, 0, 1)

    def test_zero_energy_term_is_power_discard(self, monkeypatch):
        # Term 1 keeps its true A and B but has h = 0: with the floor at 0 it
        # is still discarded, never demapped.
        Y, truth, messages = self.scene()
        t = truth.terms[1]
        silent = tc.BlockTerm(A=t.A, B=t.B, h=np.zeros_like(t.h))
        start = tc.BTDModel(terms=(truth.terms[0], silent, truth.terms[2]))
        rx = receiver.ReceiverConfig(assumed_terms=3, power_threshold=0.0)
        decoded, diag = self.demodulate_from(monkeypatch, Y, start, rx)
        assert decoded == {messages[0], messages[2]}
        assert (diag.terms_kept, diag.power_discards, diag.demap_failures) == (2, 1, 0)


class TestOuterCodeIntegration:
    # 65 coded bits via BCH(m=9, t=5) shortened to (65, 20): T1=10, T2=8,
    # payload 20 bits, symbols carry 37 + 28 coded bits.
    p1 = codec.CodecParams(10, 2, 37)
    p2 = codec.CodecParams(8, 2, 28)
    outer = OuterCode.from_lengths(65, 20, m=9, t=5)

    def make(self, seed, K, ebn0_db=40.0):
        rng = np.random.default_rng((seed, 0))
        payloads = [rng.integers(0, 2, 20).astype(np.uint8) for _ in range(K)]
        coded = [self.outer.encode(p) for p in payloads]
        cfg = channel.ChannelConfig(n_antennas=8, n_users=K, ebn0_db=ebn0_db,
                                    symbol_energy=80.0)
        Y, _ = channel.transmit(coded, self.p1, self.p2, cfg, b0=20,
                                channel_rng=np.random.default_rng((seed, 1)),
                                noise_rng=np.random.default_rng((seed, 2)))
        return Y, {receiver.bits_to_message(p) for p in payloads}

    def test_validated_messages_returned(self):
        Y, sent = self.make(21, K=2)
        rx = receiver.ReceiverConfig(assumed_terms=2)
        decoded, diag = receiver.demodulate(Y, self.p1, self.p2, self.outer,
                                            rx, SOLVER)
        assert decoded == sent
        assert diag.outer_rejects == 0

    def test_noise_only_rejected(self):
        # No users at all: every fitted term is junk and the outer code
        # (45 parity bits) must reject what survives the power filter.
        rng = np.random.default_rng(99)
        Y = 0.1 * crandn(rng, 10, 8, 8)
        rx = receiver.ReceiverConfig(assumed_terms=3)
        cfg = SolverConfig(seed=0, restarts=1, max_iterations=60)
        decoded, _ = receiver.demodulate(Y, self.p1, self.p2, self.outer, rx, cfg)
        assert decoded == set()


class TestEarlyStop:
    """With an outer code, the fit stops at the first restart whose K terms
    all decode to K distinct valid messages. Desk point, E_s = T1*T2."""
    p1, p2 = TestOuterCodeIntegration.p1, TestOuterCodeIntegration.p2
    outer = TestOuterCodeIntegration.outer

    def scene(self, seed, K=4, ebn0_db=16.0):
        rng = np.random.default_rng((seed, 0))
        payloads = harness._distinct_payloads(K, 20, rng)
        cfg = channel.ChannelConfig(n_antennas=8, n_users=K, ebn0_db=ebn0_db,
                                    symbol_energy=80.0)
        Y, truth = channel.transmit([self.outer.encode(p) for p in payloads], self.p1,
                                    self.p2, cfg, b0=20,
                                    channel_rng=np.random.default_rng((seed, 1)),
                                    noise_rng=np.random.default_rng((seed, 2)))
        return Y, {receiver.bits_to_message(p) for p in payloads}, truth

    def demodulate(self, Y, K, outer=outer, seed=0):
        return receiver.demodulate(Y, self.p1, self.p2, outer,
                                   receiver.ReceiverConfig(assumed_terms=K),
                                   SolverConfig(seed=seed, restarts=5))

    def test_stops_at_first_restart(self):
        Y, sent, _ = self.scene(1)
        decoded, diag = self.demodulate(Y, 4)
        assert decoded == sent
        assert diag.restarts_run == 1
        assert (diag.terms_kept, diag.power_discards, diag.demap_failures,
                diag.outer_rejects) == (4, 0, 0, 0)

    def test_no_outer_code_scans_every_restart(self):
        Y, _, _ = self.scene(1)
        _, diag = self.demodulate(Y, 4, outer=None)
        assert diag.restarts_run == 5

    def test_surplus_terms_scan_every_restart(self, monkeypatch):
        Y, _, _ = self.scene(1)
        decoded, diag = self.demodulate(Y, 5)
        assert (diag.restarts_run, diag.als_starts) == (10, 5)

        def best_of_restarts(Y, K, L, cfg, accept=None):
            return solver.gndl_fit(Y, K, L, cfg)

        monkeypatch.setattr(receiver, "gndl_fit", best_of_restarts)
        # The same answer as the GN scan alone, after five rejected ALS starts.
        best_decoded, best_diag = self.demodulate(Y, 5)
        assert best_decoded == decoded
        assert best_diag.total_iterations < diag.total_iterations
        assert replace(best_diag, restarts_run=10, als_starts=5,
                       total_iterations=diag.total_iterations) == diag

    def test_accepted_demap_is_reused(self, monkeypatch):
        Y, sent, _ = self.scene(1)
        calls = []
        demap = codec.demap_symbol

        def spy(*args):
            calls.append(args)
            return demap(*args)

        monkeypatch.setattr(codec, "demap_symbol", spy)
        decoded, diag = self.demodulate(Y, 4)
        assert decoded == sent and diag.restarts_run == 1
        # One stacked demap of the accepted fit's K A-factors, one of its B-factors.
        assert [(args[0].shape, args[1]) for args in calls] == [
            ((4, self.p1.T, 2), self.p1), ((4, self.p2.T, 2), self.p2)]

    def test_repeated_message_is_not_accepted(self, monkeypatch):
        Y, _, truth = self.scene(1)
        checks = []

        def capture(Y, K, L, cfg, accept):
            checks.append(accept)
            raise solver.SolverFailure

        monkeypatch.setattr(receiver, "gndl_fit", capture)
        assert self.demodulate(Y, 4)[1].solver_failed
        t = truth.terms
        assert checks[0](truth)
        # Every term decodes, but two of them to the same user.
        assert not checks[0](tc.BTDModel(terms=(t[0], t[0], t[2], t[3])))

    def test_diagnostics_count_the_scanned_restarts(self, monkeypatch):
        fits = []
        fit = receiver.gndl_fit

        def spy(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(receiver, "gndl_fit", spy)
        Y, _, _ = self.scene(1)
        for K in (4, 5):
            _, diag = self.demodulate(Y, K)
            assert diag.restarts_run == len(fits[-1].restart_iterations)
            assert diag.total_iterations == sum(fits[-1].restart_iterations)
        assert [len(f.restart_iterations) for f in fits] == [1, 10]

    def test_stop_fires_on_most_desk_scenes(self):
        # Work gate with no clock in it: at 12 dB restart 0 usually decodes
        # every user, so a mean above 1.5 restarts means the stop stopped firing.
        runs = []
        for seed in range(20):
            Y, sent, _ = self.scene(100 + seed, ebn0_db=12.0)
            decoded, diag = self.demodulate(Y, 4, seed=seed)
            assert decoded == sent, seed
            runs.append(diag.restarts_run)
        assert np.mean(runs) <= 1.5, runs


class TestSuccessiveCancellation:
    def test_sc_zero_matches_demodulate(self):
        Y, _ = make_scene(31, K=2)
        rx = receiver.ReceiverConfig(assumed_terms=2, sc_iterations=0)
        d1, _ = receiver.demodulate(Y, P1, P2, None, rx, SOLVER)
        d2, sc = receiver.successive_cancellation(Y, P1, P2, None, rx, SOLVER)
        assert d1 == d2
        assert len(sc.pass_diags) == 1

    def test_superset_of_single_pass(self):
        Y, _ = make_scene(32, K=3, ebn0_db=20.0)
        rx0 = receiver.ReceiverConfig(assumed_terms=3, sc_iterations=0)
        rx2 = receiver.ReceiverConfig(assumed_terms=3, sc_iterations=2)
        d0, _ = receiver.demodulate(Y, P1, P2, None, rx0, SOLVER)
        d2, _ = receiver.successive_cancellation(Y, P1, P2, None, rx2, SOLVER)
        assert d0 <= d2

    def test_fixed_point_when_all_decoded(self):
        Y, sent = make_scene(33, K=2)
        rx = receiver.ReceiverConfig(assumed_terms=2, sc_iterations=3)
        decoded, sc = receiver.successive_cancellation(Y, P1, P2, None, rx, SOLVER)
        assert decoded == sent
        # All terms explained after pass one; no further passes run.
        assert len(sc.pass_diags) == 1

    def test_one_diagnostics_entry_per_pass(self, monkeypatch):
        # The surplus term is left unexplained after pass one, so a second runs.
        Y, _ = make_scene(33, K=3, ebn0_db=20.0)
        diags = []
        demodulate = receiver.demodulate

        def spy(*args):
            result = demodulate(*args)
            diags.append(result[1])
            return result

        monkeypatch.setattr(receiver, "demodulate", spy)
        rx = receiver.ReceiverConfig(assumed_terms=4, sc_iterations=2)
        _, sc = receiver.successive_cancellation(Y, P1, P2, None, rx, SOLVER)
        assert len(diags) == 2
        assert all(a is b for a, b in zip(sc.pass_diags, diags, strict=True))

    def test_subtraction_removes_known_user(self):
        Y, sent = make_scene(34, K=2)
        msg = next(iter(sent))
        residual = receiver._subtract_messages(Y, {msg}, P1, P2, None)
        # The residual still contains the other user but less total energy.
        assert np.linalg.norm(residual) < np.linalg.norm(Y)
        rx = receiver.ReceiverConfig(assumed_terms=1)
        decoded, _ = receiver.demodulate(residual, P1, P2, None, rx, SOLVER)
        assert decoded <= sent


class TestGroups:
    def payload_sets(self):
        Y1, s1 = make_scene(41, K=2)
        Y2, s2 = make_scene(42, K=2)
        return [Y1, Y2], s1 | s2

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "process"])
    def test_union_over_groups(self, max_workers):
        ys, sent = self.payload_sets()
        rx = receiver.ReceiverConfig(assumed_terms=2)
        decoded, diags = receiver.demodulate_groups(
            ys, P1, P2, None, [rx] * len(ys), SOLVER, max_workers=max_workers)
        assert decoded == sent
        assert len(diags) == len(ys)

    def test_pool_is_kept_across_calls(self):
        ys, sent = self.payload_sets()
        rx = receiver.ReceiverConfig(assumed_terms=2)
        pids = []
        for _ in range(2):
            decoded, _ = receiver.demodulate_groups(
                ys, P1, P2, None, [rx] * len(ys), SOLVER, max_workers=2)
            assert decoded == sent
            pids.append({p.pid for p in multiprocessing.active_children()})
        assert len(pids[0]) == 2 and pids[1] == pids[0]

    def test_groups_decode_in_the_pool(self, monkeypatch):
        ys, sent = self.payload_sets()
        rx = receiver.ReceiverConfig(assumed_terms=2)
        receiver.demodulate_groups(ys, P1, P2, None, [rx] * 2, SOLVER, max_workers=2)
        fits = []
        fit = receiver.gndl_fit

        def spy(*args, **kwargs):
            fits.append(os.getpid())
            return fit(*args, **kwargs)

        monkeypatch.setattr(receiver, "gndl_fit", spy)
        for max_workers in (2, 1):
            decoded, _ = receiver.demodulate_groups(ys, P1, P2, None, [rx] * 2, SOLVER,
                                                    max_workers=max_workers)
            assert decoded == sent
        # The pooled call fitted nothing here; in process, fits run in turn.
        assert fits == [os.getpid()] * 2
        # One group decodes here, whatever max_workers is.
        receiver.demodulate_groups(ys[:1], P1, P2, None, [rx], SOLVER, max_workers=2)
        assert fits == [os.getpid()] * 3

    def test_group_order_irrelevant(self):
        ys, _ = self.payload_sets()
        rx = receiver.ReceiverConfig(assumed_terms=2)
        d1, _ = receiver.demodulate_groups(ys, P1, P2, None, [rx] * len(ys), SOLVER,
                                           max_workers=1)
        d2, _ = receiver.demodulate_groups(ys[::-1], P1, P2, None, [rx] * len(ys), SOLVER,
                                           max_workers=1)
        assert d1 == d2

    def test_diagnostics_independent_of_workers(self):
        # Two desk groups through the pool, their fits' restarts in process:
        # the first stops at an accepted restart, the second assumes a
        # surplus term and scans every restart.
        stop = TestEarlyStop()
        scenes = [stop.scene(seed, ebn0_db=12.0) for seed in (1, 2)]
        rx_cfgs = [receiver.ReceiverConfig(assumed_terms=K, sc_iterations=1) for K in (4, 5)]
        decoded, diags = zip(*(receiver.demodulate_groups(
            [Y for Y, _, _ in scenes], stop.p1, stop.p2, stop.outer, rx_cfgs,
            SolverConfig(seed=0, restarts=5), max_workers=w) for w in (1, 2)))
        assert decoded[0] == decoded[1] == scenes[0][1] | scenes[1][1]
        assert diags[0] == diags[1]
        assert [d.pass_diags[0].restarts_run for d in diags[0]] == [1, 10]

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "process"])
    def test_failing_group_raises(self, max_workers):
        ys, _ = self.payload_sets()
        # gndl_fit rejects a tensor that is not finite.
        ys[1][0, 0, 0] = np.nan
        rx = receiver.ReceiverConfig(assumed_terms=2)
        with pytest.raises(ValueError):
            receiver.demodulate_groups(ys, P1, P2, None, [rx] * 2, SOLVER,
                                       max_workers=max_workers)


def _worker_blas_threads(_):
    # A tiny fit, as every group decode runs, then the count it leaves.
    Y = np.random.default_rng(0).standard_normal((4, 3, 2)).astype(complex)
    solver.gndl_fit(Y, 1, 2, SolverConfig(restarts=1, max_iterations=3))
    return blas.OPENBLAS[1]()


def _os_threads_descent(y_vec, dims, K, L, x0, config):
    # In place of a descent: the start point, with the worker's OS thread
    # count as its iteration count.
    return x0, 1.0, len(os.listdir("/proc/self/task")), False, [1.0]


@pytest.mark.skipif(blas.OPENBLAS is None, reason="numpy's BLAS is not OpenBLAS")
class TestBlasPinning:
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_pool_worker_runs_one_blas_thread(self, method):
        set_threads, get_threads = blas.OPENBLAS
        parent = get_threads()
        # At least two threads in the parent, so that a forked worker
        # inheriting the parent's count would report more than one.
        set_threads(max(parent, 2))
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=2, mp_context=multiprocessing.get_context(method)) as pool:
                counts = list(pool.map(_worker_blas_threads, range(2)))
        finally:
            set_threads(parent)
        assert counts == [1, 1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork"
                        or not os.path.isdir("/proc/self/task"),
                        reason="needs forked workers and /proc/self/task")
    def test_restart_workers_start_no_blas_thread(self, monkeypatch):
        # A worker that calls the OpenBLAS setter restarts its thread pool,
        # whose new thread busy-waits beside the worker's own work. The
        # groups' fits run in the workers, each with the stand-in descent.
        solver.shutdown_pool()
        monkeypatch.setattr(solver, "_run_gndl", _os_threads_descent)
        set_threads, get_threads = blas.OPENBLAS
        parent = get_threads()
        set_threads(max(parent, 2))
        try:
            ys, _ = TestGroups().payload_sets()
            rx = receiver.ReceiverConfig(assumed_terms=2)
            _, diags = receiver.demodulate_groups(
                ys, P1, P2, None, [rx] * 2, SolverConfig(restarts=2, max_iterations=3),
                max_workers=2)
        finally:
            set_threads(parent)
            solver.shutdown_pool()   # its workers were forked with the stand-in
        # Each descent reports its worker's OS thread count as its iterations.
        assert [(d.pass_diags[0].restarts_run, d.pass_diags[0].total_iterations)
                for d in diags] == [(2, 2), (2, 2)]

    def test_pooled_decode_leaves_parent_pinned_and_quiet(self):
        # OpenBLAS stops its threads at a fork. A set call in the parent
        # after the pool restarts them, and they busy-wait beside the caller.
        set_threads, get_threads = blas.OPENBLAS
        parent = get_threads()
        set_threads(2)
        time.sleep(0.3)   # let threads started by that set call go to sleep
        try:
            ys, _ = TestGroups().payload_sets()
            rx = receiver.ReceiverConfig(assumed_terms=2)
            before = time.process_time() - time.thread_time()
            receiver.demodulate_groups(ys, P1, P2, None, [rx] * 2, SOLVER, max_workers=2)
            time.sleep(0.3)
            other_threads_s = time.process_time() - time.thread_time() - before
            after = get_threads()
        finally:
            if get_threads() != parent:
                set_threads(parent)
        assert after == 1
        assert other_threads_s < 0.03, f"{other_threads_s * 1e3:.1f} ms on other threads"

    def test_fit_runs_single_threaded(self, monkeypatch, rng):
        seen = []
        run = solver._run_gndl

        def spy(*args):
            seen.append(blas.OPENBLAS[1]())
            return run(*args)

        monkeypatch.setattr(solver, "_run_gndl", spy)
        set_threads, get_threads = blas.OPENBLAS
        parent = get_threads()
        set_threads(2)
        try:
            solver.gndl_fit(crandn(rng, 4, 3, 2), 1, 2,
                            SolverConfig(restarts=2, max_iterations=3))
            after = get_threads()
        finally:
            set_threads(parent)
        assert seen == [1, 1] and after == 1


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            receiver.ReceiverConfig(assumed_terms=0)
        with pytest.raises(ValueError):
            receiver.ReceiverConfig(assumed_terms=1.5)
        with pytest.raises(ValueError):
            receiver.ReceiverConfig(assumed_terms=1, power_threshold=1.0)
