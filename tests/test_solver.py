import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from btdm import solver
from btdm import tensor_core as tc

from conftest import crandn


def random_model(rng, dims=(6, 5, 4), K=2, L=2):
    T1, T2, N = dims
    terms = tuple(
        tc.BlockTerm(A=crandn(rng, T1, L), B=crandn(rng, T2, L), h=crandn(rng, N))
        for _ in range(K))
    return tc.BTDModel(terms=terms)


def subspace_gap(A1, A2):
    Q1, Q2 = np.linalg.qr(A1)[0], np.linalg.qr(A2)[0]
    s = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - np.min(s) ** 2)))


def match_terms(fitted, truth):
    """Greedy matching of fitted terms to ground-truth terms by column-space gap."""
    pairs = []
    used = set()
    for t in truth.terms:
        best, gap = None, np.inf
        for i, ft in enumerate(fitted.terms):
            if i in used:
                continue
            g = subspace_gap(ft.A, t.A) + subspace_gap(ft.B, t.B)
            if g < gap:
                best, gap = i, g
        used.add(best)
        pairs.append((fitted.terms[best], t, gap))
    return pairs


def synthesised(x, dims, K, L):
    """vec(model) of packed x, synthesised by tensor_core over the solver's
    stacked views: an oracle independent of the solver's own synthesis."""
    terms = tuple(tc.BlockTerm(A=A, B=B, h=h)
                  for A, B, h in zip(*solver._stacked(x, dims, K, L)))
    return tc.synthesize_received(tc.BTDModel(terms=terms)).ravel(order="F")


class TestPacking:
    def test_roundtrip(self, rng):
        dims, K, L = (4, 3, 2), 3, 2
        factors = [(crandn(rng, 4, L), crandn(rng, 3, L), crandn(rng, 2))
                   for _ in range(K)]
        x = solver.pack_factors(factors)
        assert x.shape == (K * (4 * L + 3 * L + 2),)
        for (A, B, h), A2, B2, h2 in zip(factors, *solver._stacked(x, dims, K, L)):
            np.testing.assert_array_equal(A, A2)
            np.testing.assert_array_equal(B, B2)
            np.testing.assert_array_equal(h, h2)
        model = tc.BTDModel(terms=tuple(tc.BlockTerm(A=A, B=B, h=h) for A, B, h in factors))
        np.testing.assert_array_equal(synthesised(x, dims, K, L),
                                      tc.synthesize_received(model).ravel(order="F"))

    def test_real_complex_roundtrip(self, rng):
        x = crandn(rng, 17)
        np.testing.assert_array_equal(
            solver.real_to_complex(solver.complex_to_real(x)), x)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        dims, K, L = (4, 3, 2), 1, 2
        Y = crandn(rng, *dims)
        x = crandn(rng, K * (4 * L + 3 * L + 2))
        g = solver.gradient_real(Y, x, K, L)
        xr = solver.complex_to_real(x)
        eps = 1e-6
        for idx in rng.choice(len(xr), size=10, replace=False):
            xp, xm = xr.copy(), xr.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fd = (solver.objective(Y, solver.real_to_complex(xp), K, L)
                  - solver.objective(Y, solver.real_to_complex(xm), K, L)) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_zero_at_exact_fit(self, rng):
        model = random_model(rng, K=1)
        Y = tc.synthesize_received(model)
        t = model.terms[0]
        x = solver.pack_factors([(t.A, t.B, t.h)])
        assert np.linalg.norm(solver.gradient_real(Y, x, 1, 2)) <= 1e-10


def _fd_jacobian(factors, dims, L, eps=1e-6):
    """Central differences of the model in each complex parameter (the model
    is holomorphic, so a real step gives the complex derivative)."""
    K = len(factors)
    x = solver.pack_factors(factors)
    cols = []
    for p in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[p] += eps
        xm[p] -= eps
        cols.append((synthesised(xp, dims, K, L) - synthesised(xm, dims, K, L))
                    / (2 * eps))
    return np.stack(cols, axis=1)


def _dense_jacobian(factors, dims, L):
    """d vec(model) / d x as a dense complex matrix: the oracle for the
    solver's matrix-free products and for its Gramian.

    Row m = i + T1*j + T1*T2*n of vec(model) is entry (i, j, n), so the
    C-ordered rows reshape to (N, T2, T1). The A-columns of term k hold
    h[n] B[j, l] where i is their own row index i', the B-columns h[n] A[i, l]
    where j = j', and the h-columns (A B^T)[i, j] where n = n'.
    """
    T1, T2, N = dims
    na, nb, nh = T1 * L, T2 * L, N
    per = na + nb + nh
    J = np.zeros((T1 * T2 * N, per * len(factors)), dtype=np.complex128)
    J4 = J.reshape(N, T2, T1, -1)
    i1, i2, iN = np.arange(T1), np.arange(T2), np.arange(N)
    ell = np.arange(L)[:, None]
    for k, (A, B, h) in enumerate(factors):
        s = k * per
        # Advanced indices on axes 2 and 3 stay in place: (N, T2, L, T1).
        J4[:, :, i1, s + ell * T1 + i1] = (h[:, None, None] * B)[..., None]
        # On axes 1 and 3 they move to the front: (L, T2, N, T1).
        J4[:, i2, :, s + na + ell * T2 + i2] = \
            (h[:, None, None] * A).transpose(2, 0, 1)[:, None]
        J4[iN, :, :, s + na + nb + iN] = (A @ B.T).T
    return J


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# Distinct T1, T2, N so that a mixed-up axis cannot go unnoticed.
SHAPES = [((4, 3, 2), 1, 2), ((3, 5, 4), 2, 1), ((5, 4, 3), 3, 2), ((4, 5, 6), 2, 3)]


class TestJacobian:
    @staticmethod
    def _point(rng, dims, K, L):
        factors = [(t.A, t.B, t.h) for t in random_model(rng, dims, K, L).terms]
        x = solver.pack_factors(factors)
        return factors, x, solver._Linearisation(x, dims, K, L)

    @pytest.mark.parametrize("dims,K,L", SHAPES)
    def test_matches_finite_differences(self, rng, dims, K, L):
        factors, _, _ = self._point(rng, dims, K, L)
        J = _dense_jacobian(factors, dims, L)
        np.testing.assert_allclose(J, _fd_jacobian(factors, dims, L), atol=1e-8)

    @pytest.mark.parametrize("dims,K,L", SHAPES)
    def test_model_equals_synthesis(self, rng, dims, K, L):
        _, x, lin = self._point(rng, dims, K, L)
        want = synthesised(x, dims, K, L)
        assert _rel_err(lin.model(), want) <= 1e-12

    @pytest.mark.parametrize("dims,K,L", SHAPES)
    def test_gramian_equals_dense_product(self, rng, dims, K, L):
        factors, x, lin = self._point(rng, dims, K, L)
        J = _dense_jacobian(factors, dims, L)
        dense = J.conj().T @ J
        G = solver._gramian(lin, np.full((x.size, x.size), np.nan, dtype=complex))
        np.testing.assert_allclose(G, dense, rtol=0,
                                   atol=1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("dims,K,L", SHAPES)
    def test_gradient_equals_dense_product(self, rng, dims, K, L):
        factors, _, lin = self._point(rng, dims, K, L)
        r = crandn(rng, int(np.prod(dims)))
        want = _dense_jacobian(factors, dims, L).conj().T @ r
        assert _rel_err(lin.rmatvec(r), want) <= 1e-12

    @pytest.mark.parametrize("dims,K,L", SHAPES)
    def test_directional_derivative_equals_dense_product(self, rng, dims, K, L):
        factors, x, lin = self._point(rng, dims, K, L)
        d = crandn(rng, x.size)
        want = _dense_jacobian(factors, dims, L) @ d
        assert _rel_err(lin.matvec(d), want) <= 1e-12


class TestFit:
    def test_single_term_noiseless(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=1)
        Y = tc.synthesize_received(model)
        res = solver.gndl_fit(Y, 1, 2, solver.SolverConfig(seed=3))
        assert res.converged
        assert res.relative_residual <= 1e-8
        assert res.iterations <= 50
        _, _, gap = match_terms(res.model, model)[0]
        assert gap <= 1e-6

    def test_three_terms_noiseless(self, rng):
        model = random_model(rng, dims=(8, 6, 5), K=3)
        Y = tc.synthesize_received(model)
        res = solver.gndl_fit(Y, 3, 2, solver.SolverConfig(seed=7))
        assert res.relative_residual <= 1e-8
        for _, _, gap in match_terms(res.model, model):
            assert gap <= 1e-5

    def test_synthesis_matches_canonical_terms(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=1))
        rebuilt = tc.synthesize_received(res.model)
        assert tc.frobenius(Y - rebuilt) <= 1e-7 * tc.frobenius(Y)

    def test_monotone_accepted_history(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model) + 0.05 * crandn(rng, 6, 5, 4)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=2))
        hist = res.residual_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_reported_residual_matches_synthesis(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model) + 0.05 * crandn(rng, 6, 5, 4)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=2, restarts=2))
        want = tc.frobenius(Y - tc.synthesize_received(res.model)) / tc.frobenius(Y)
        assert res.relative_residual == pytest.approx(want, rel=1e-9)

    def test_memory_layout_does_not_matter(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model) + 0.05 * crandn(rng, 6, 5, 4)
        cfg = solver.SolverConfig(seed=2, restarts=1, max_iterations=30)
        r1 = solver.gndl_fit(Y, 2, 2, cfg)
        r2 = solver.gndl_fit(np.asfortranarray(Y), 2, 2, cfg)
        assert r1.relative_residual == r2.relative_residual
        assert r1.residual_history == r2.residual_history

    def test_noise_only_does_not_crash(self, rng):
        Y = crandn(rng, 6, 5, 4)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=0, restarts=2,
                                                           max_iterations=60))
        assert np.isfinite(res.relative_residual)

    def test_deterministic(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model)
        cfg = solver.SolverConfig(seed=9)
        r1 = solver.gndl_fit(Y, 2, 2, cfg)
        r2 = solver.gndl_fit(Y, 2, 2, cfg)
        for t1, t2 in zip(r1.model.terms, r2.model.terms):
            np.testing.assert_array_equal(t1.A, t2.A)
            np.testing.assert_array_equal(t1.B, t2.B)
            np.testing.assert_array_equal(t1.h, t2.h)
        assert r1.residual_history == r2.residual_history

    def test_warm_start_honoured(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=4, restarts=1),
                              init=model)
        assert res.converged and res.iterations <= 3

    def test_rank_deficient_term_is_undecodable(self, rng):
        # A rank-deficient term is kept as fitted and reported, not canonicalised.
        model = random_model(rng, dims=(6, 5, 4), K=3)
        a = crandn(rng, 6, 1)
        bad = tc.BlockTerm(A=np.hstack([a, a]), B=crandn(rng, 5, 2), h=crandn(rng, 4))
        init = tc.BTDModel(terms=(model.terms[0], bad, model.terms[2]))
        cfg = solver.SolverConfig(restarts=1, max_iterations=0)
        res = solver.gndl_fit(tc.synthesize_received(model), 3, 2, cfg, init=init)
        assert res.undecodable == (1,)
        np.testing.assert_array_equal(res.model.terms[1].A, bad.A)

    def test_input_validation(self, rng):
        cfg = solver.SolverConfig()
        with pytest.raises(ValueError):
            solver.gndl_fit(crandn(rng, 4, 3), 1, 2, cfg)
        with pytest.raises(ValueError):
            solver.gndl_fit(crandn(rng, 4, 3, 2), 0, 2, cfg)
        with pytest.raises(ValueError):
            solver.SolverConfig(restarts=0)


    def test_restart_iterations(self, rng):
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model) + 0.05 * crandn(rng, 6, 5, 4)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=2, restarts=3,
                                                           max_iterations=60))
        assert len(res.restart_iterations) == 3
        assert res.restart_iterations[res.restart_index] == res.iterations


# Stand-ins for _run_gndl in pool workers. A worker finds them by name, so
# they live at module level.
def _raising_descent(*_):
    raise FloatingPointError("descent failed in a worker")


def _dying_descent(*_):
    os._exit(3)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRestartPool:
    @staticmethod
    def noisy_desk():
        rng = np.random.default_rng(21)
        model = random_model(rng, dims=(10, 8, 8), K=4)
        return model, tc.synthesize_received(model) + 0.3 * crandn(rng, 10, 8, 8)

    @staticmethod
    def fits(Y, K, cfg, init=None):
        """The in-process fit and the pooled fit, with two workers."""
        return (solver.gndl_fit(Y, K, 2, cfg, init=init),
                solver.gndl_fit(Y, K, 2, replace(cfg, workers=2), init=init))

    @staticmethod
    def assert_same(r1, r2):
        for name in ("relative_residual", "iterations", "converged", "restart_index",
                     "residual_history", "undecodable", "restart_iterations"):
            assert getattr(r1, name) == getattr(r2, name), name
        for t1, t2 in zip(r1.model.terms, r2.model.terms, strict=True):
            assert np.array_equal(t1.A, t2.A)
            assert np.array_equal(t1.B, t2.B)
            assert np.array_equal(t1.h, t2.h)

    @pytest.mark.parametrize("warm", [False, True], ids=["random", "init"])
    def test_pooled_fit_equals_in_process(self, warm):
        model, Y = self.noisy_desk()
        init = None
        if warm:
            rng = np.random.default_rng(5)
            init = tc.BTDModel(terms=tuple(
                tc.BlockTerm(A=t.A + 0.3 * crandn(rng, *t.A.shape), B=t.B, h=t.h)
                for t in model.terms))
        r1, r2 = self.fits(Y, 4, solver.SolverConfig(seed=3, restarts=5, max_iterations=80),
                           init=init)
        assert len(r1.restart_iterations) == 5
        self.assert_same(r1, r2)

    def test_early_stop_picks_the_same_restart(self):
        # Noise-free: restart 2 runs to its cap and restart 3 is the first exact fit.
        Y = tc.synthesize_received(random_model(np.random.default_rng(24), dims=(6, 5, 4), K=4))
        r1, r2 = self.fits(Y, 4, solver.SolverConfig(seed=24, restarts=5, max_iterations=100))
        assert r1.restart_index == 3 and r1.restart_iterations == (36, 31, 100, 22)
        self.assert_same(r1, r2)

    def test_workers_are_reused(self):
        _, Y = self.noisy_desk()
        cfg = solver.SolverConfig(restarts=2, max_iterations=5, workers=2)
        solver.gndl_fit(Y, 4, 2, cfg)
        first = {p.pid for p in multiprocessing.active_children()}
        solver.gndl_fit(Y, 4, 2, cfg)
        assert len(first) == 2
        assert {p.pid for p in multiprocessing.active_children()} == first

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs two usable CPUs")
    def test_workers_spread_over_cpus(self):
        _, Y = self.noisy_desk()
        cpus = sorted(os.sched_getaffinity(0))
        solver.shutdown_pool()
        solver.gndl_fit(Y, 4, 2, solver.SolverConfig(restarts=2, max_iterations=5, workers=2))
        workers = multiprocessing.active_children()
        for _ in range(100):   # a worker that got no restart may still be starting
            masks = [os.sched_getaffinity(w.pid) for w in workers]
            if all(len(mask) == 1 for mask in masks):
                break
            time.sleep(0.05)
        assert sorted(min(mask) for mask in masks) == cpus[:2]
        assert os.sched_getaffinity(0) == set(cpus)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        _, Y = self.noisy_desk()
        cfg = solver.SolverConfig(restarts=2, max_iterations=5, workers=2)
        # Fork the workers before the patch: a worker forked after it would
        # keep the stand-in as its own _run_gndl.
        solver.gndl_fit(Y, 4, 2, cfg)
        monkeypatch.setattr(solver, "_run_gndl", _raising_descent)
        with pytest.raises(FloatingPointError):
            solver.gndl_fit(Y, 4, 2, cfg)
        monkeypatch.undo()
        assert np.isfinite(solver.gndl_fit(Y, 4, 2, cfg).relative_residual)

    def test_dead_worker_breaks_one_fit_only(self, monkeypatch):
        _, Y = self.noisy_desk()
        cfg = solver.SolverConfig(restarts=2, max_iterations=5, workers=2)
        solver.shutdown_pool()
        monkeypatch.setattr(solver, "_run_gndl", _dying_descent)
        with pytest.raises(BrokenProcessPool):
            solver.gndl_fit(Y, 4, 2, cfg)
        monkeypatch.undo()
        assert np.isfinite(solver.gndl_fit(Y, 4, 2, cfg).relative_residual)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(workers=0)

    @staticmethod
    def run_python(code):
        src = str(Path(solver.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=10)

    def test_in_process_fit_starts_no_pool(self):
        done = self.run_python(
            "import sys\n"
            "import numpy as np\n"
            "from btdm import solver\n"
            "Y = np.random.default_rng(0).standard_normal((6, 5, 4)) + 0j\n"
            "solver.gndl_fit(Y, 2, 2, solver.SolverConfig(restarts=2, max_iterations=5))\n"
            "print('concurrent.futures.process' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_process_exit_stops_the_pool(self):
        code = ("import multiprocessing\n"
                "import numpy as np\n"
                "from btdm import solver\n"
                "Y = np.random.default_rng(0).standard_normal((6, 5, 4)) + 0j\n"
                "solver.gndl_fit(Y, 2, 2, solver.SolverConfig(restarts=2, max_iterations=5,"
                " workers=2))\n"
                "print(*(p.pid for p in multiprocessing.active_children()))\n")
        done = self.run_python(code)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)


class TestStepReuse:
    @staticmethod
    def _descend():
        # This seeded descent rejects three of its eight trial steps, the last
        # one included, so every point it reaches gets a Gauss-Newton step.
        rng = np.random.default_rng(3)
        model = random_model(rng, dims=(6, 5, 4), K=2)
        Y = tc.synthesize_received(model) + 0.05 * crandn(rng, 6, 5, 4)
        res = solver.gndl_fit(Y, 2, 2, solver.SolverConfig(seed=2, restarts=1,
                                                           max_iterations=8))
        accepted = len(res.residual_history) - 1
        assert res.iterations == 8 and res.iterations - accepted == 3
        return res

    def test_one_gramian_per_accepted_point(self, monkeypatch):
        calls = []
        gramian = solver._gramian
        monkeypatch.setattr(solver, "_gramian",
                            lambda *args: calls.append(1) or gramian(*args))
        res = self._descend()
        assert len(calls) == len(res.residual_history)

    def test_one_linearisation_per_evaluated_point(self, monkeypatch):
        # The start point and each of the eight trial points are synthesised
        # once; an accepted point's linearisation is kept for its step.
        built = []

        class Counting(solver._Linearisation):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(solver, "_Linearisation", Counting)
        res = self._descend()
        assert len(built) == 1 + res.iterations == 9


class TestMemory:
    def test_full_scale_fit_never_holds_the_dense_jacobian(self, rng):
        # The dense Jacobian at (30, 24, 25), K=10, L=2 alone is 18000 x 1330
        # complex (383 MB); the Gauss-Newton matrix is 28 MB.
        dims, K, L = (30, 24, 25), 10, 2
        Y = tc.synthesize_received(solver.init_random(dims, K, L, seed=1))
        cfg = solver.SolverConfig(seed=0, restarts=1, max_iterations=2)
        tracemalloc.start()
        try:
            solver.gndl_fit(Y, K, L, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"


class TestCanonicalization:
    def test_synthesis_preserved(self, rng):
        term = tc.BlockTerm(A=crandn(rng, 5, 2), B=crandn(rng, 4, 2), h=crandn(rng, 3))
        canon = solver.orthonormalize_term(term)
        np.testing.assert_allclose(tc.synthesize_block_term(canon),
                                   tc.synthesize_block_term(term), atol=1e-12)

    def test_canonical_properties(self, rng):
        term = tc.BlockTerm(A=crandn(rng, 5, 2), B=crandn(rng, 4, 2), h=crandn(rng, 3))
        canon = solver.orthonormalize_term(term)
        assert np.linalg.norm(canon.h) == pytest.approx(1.0)
        for F in (canon.A, canon.B):
            assert abs(np.vdot(F[:, 0], F[:, 1])) <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(canon.A, axis=0),
                                   np.linalg.norm(canon.B, axis=0), atol=1e-10)

    def test_idempotent_up_to_phase(self, rng):
        term = tc.BlockTerm(A=crandn(rng, 5, 2), B=crandn(rng, 4, 2), h=crandn(rng, 3))
        c1 = solver.orthonormalize_term(term)
        c2 = solver.orthonormalize_term(c1)
        np.testing.assert_allclose(np.abs(c1.A), np.abs(c2.A), atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(c1.h), np.linalg.norm(c2.h))

    def test_rank_deficient_raises(self, rng):
        a = crandn(rng, 5, 1)
        for A in (np.hstack([a, a]), np.zeros((5, 2))):
            term = tc.BlockTerm(A=A, B=crandn(rng, 4, 2), h=crandn(rng, 3))
            with pytest.raises(solver.CanonicalizationFailure):
                solver.orthonormalize_term(term)


class TestInitRandom:
    def test_deterministic_by_seed(self):
        m1 = solver.init_random((5, 4, 3), 2, 2, seed=(0, 1))
        m2 = solver.init_random((5, 4, 3), 2, 2, seed=(0, 1))
        m3 = solver.init_random((5, 4, 3), 2, 2, seed=(0, 2))
        np.testing.assert_array_equal(m1.terms[0].A, m2.terms[0].A)
        assert not np.array_equal(m1.terms[0].A, m3.terms[0].A)

    def test_orthonormal_columns(self):
        m = solver.init_random((5, 4, 3), 1, 2, seed=0)
        A = m.terms[0].A
        np.testing.assert_allclose(A.conj().T @ A, np.eye(2), atol=1e-12)


class TestCpdFit:
    def test_rank1_recovery(self, rng):
        terms = tuple(
            tc.BlockTerm(A=crandn(rng, 6, 1), B=crandn(rng, 5, 1), h=crandn(rng, 4))
            for _ in range(2))
        model = tc.BTDModel(terms=terms)
        Y = tc.synthesize_received(model)
        res = solver.cpd_fit(Y, 2, solver.SolverConfig(seed=5))
        assert res.relative_residual <= 1e-8
        for _, _, gap in match_terms(res.model, model):
            assert gap <= 1e-6

    def test_equivalent_to_gndl_l1(self, rng):
        Y = crandn(rng, 5, 4, 3)
        cfg = solver.SolverConfig(seed=6, restarts=2, max_iterations=40)
        r1 = solver.cpd_fit(Y, 1, cfg)
        r2 = solver.gndl_fit(Y, 1, 1, cfg)
        assert r1.relative_residual == r2.relative_residual
