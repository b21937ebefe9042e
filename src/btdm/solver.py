"""Gauss-Newton dogleg trust-region fitting of rank-(L,L,1) block terms.

The factors are complex; because the model is holomorphic in its parameters,
the Gauss-Newton normal equations over the interleaved real/imag coordinates
reduce exactly to their complex counterparts, which is what is implemented
(same steps, half the memory).  The real-coordinate gradient is exposed for
finite-difference checks.

The Jacobian is never formed. Its products are mode contractions and
first-order syntheses of the factors (:class:`_Linearisation`), and the
Gauss-Newton matrix J^H J is assembled from the factors' small Gram matrices
(:func:`_gramian`), so memory stays O(P^2) for P parameters. The model at
each point the descent evaluates is read from that point's linearisation, so
it is synthesised once, and an accepted point keeps its linearisation for its
step. A rejected trial step reuses the gradient, Gauss-Newton step and Cauchy
step of its point (:class:`_Dogleg`).
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass

import numpy as np

from . import blas
from .tensor_core import RANK_TOL, BTDModel, BlockTerm, check_finite

TIKHONOV = 1e-12
# Trust region: the initial radius relative to max(1, ||x0||), its cap, and
# the least ratio of actual to predicted decrease that accepts a step.
TRUST_RADIUS_INIT = 1.0
TRUST_RADIUS_MAX = 1e3
STEP_ACCEPT_RATIO = 0.1
# Convergence: an accepted step that lowers the residual by less than this
# relative amount, or a gradient norm below GRAD_TOL, ends the descent.
REL_RESIDUAL_TOL = 1e-8
GRAD_TOL = 1e-8


class SolverFailure(Exception):
    """All restarts diverged (non-finite residual)."""


class CanonicalizationFailure(Exception):
    """A fitted factor is rank deficient; the term cannot be demapped."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    restarts: int = 5
    seed: int = 0
    workers: int = 1               # processes that run the restarts' descents

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    model: BTDModel
    relative_residual: float
    iterations: int
    converged: bool
    restart_index: int
    residual_history: tuple[float, ...] = ()
    undecodable: tuple[int, ...] = ()
    restart_iterations: tuple[int, ...] = ()   # of every restart that ran, in order


# ---------------------------------------------------------------------------
# Parameter packing: per term [vec(A) | vec(B) | h], Fortran order, complex.
# ---------------------------------------------------------------------------

def _factor_sizes(dims, L):
    T1, T2, N = dims
    return T1 * L, T2 * L, N


def pack_factors(factors) -> np.ndarray:
    chunks = []
    for A, B, h in factors:
        chunks.extend([A.ravel(order="F"), B.ravel(order="F"), h])
    return np.concatenate(chunks)


def complex_to_real(x: np.ndarray) -> np.ndarray:
    out = np.empty(2 * x.size)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def real_to_complex(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def _stacked(x: np.ndarray, dims, K: int, L: int):
    """Views of packed x as stacked factors: A (K, T1, L), B (K, T2, L), h (K, N)."""
    T1, T2, N = dims
    na, nb, _ = _factor_sizes(dims, L)
    X = x.reshape(K, -1)
    A = X[:, :na].reshape(K, L, T1).transpose(0, 2, 1)
    B = X[:, na:na + nb].reshape(K, L, T2).transpose(0, 2, 1)
    return A, B, X[:, na + nb:]


class _Linearisation:
    """The model at one point and its Jacobian J = d vec(model) / d x, applied
    without forming it.

    Row m = i + T1*j + T1*T2*n of vec(model) is entry (i, j, n), so a vector
    over the rows reshapes to (N, T2, T1) in C order. With W_k = A_k B_k^T:
        J d     = sum_k (dA_k B_k^T + A_k dB_k^T) o h_k + W_k o dh_k,
        J^H r   = per term, R contracted with conj(B_k) and conj(h_k) (A-block),
                  with conj(A_k) and conj(h_k) (B-block), and with conj(W_k) (h).
    Both cost O(T1*T2*N*K*L) and O(T1*T2*N + P) memory, against O(M*P) for
    the dense matrix (383 MB at (30, 24, 25), K=10).
    """

    def __init__(self, x, dims, K, L):
        self.dims, self.K, self.L = dims, K, L
        self.A, self.B, self.h = _stacked(x, dims, K, L)
        self.Wt = (self.B @ self.A.transpose(0, 2, 1)).reshape(K, -1)   # W_k^T, flat

    def model(self) -> np.ndarray:
        """vec(model) at the point, sum_k W_k o h_k."""
        return (self.h.T @ self.Wt).ravel()

    def matvec(self, d: np.ndarray) -> np.ndarray:
        """J d, the first-order change of vec(model) along d."""
        dA, dB, dh = _stacked(d, self.dims, self.K, self.L)
        Vt = self.B @ dA.transpose(0, 2, 1) + dB @ self.A.transpose(0, 2, 1)
        return (self.h.T @ Vt.reshape(self.K, -1) + dh.T @ self.Wt).ravel()

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """J^H r in the packed layout; -2 J^H r is the gradient of ||r||^2."""
        T1, T2, N = self.dims
        R = r.reshape(N, T2 * T1)
        Rh = (self.h.conj() @ R).reshape(self.K, T2, T1)            # R x_3 conj(h_k)
        gA = self.B.conj().transpose(0, 2, 1) @ Rh                   # (K, L, T1)
        gB = self.A.conj().transpose(0, 2, 1) @ Rh.transpose(0, 2, 1)  # (K, L, T2)
        gh = self.Wt.conj() @ R.T                                    # (K, N)
        return np.concatenate([gA.reshape(self.K, -1), gB.reshape(self.K, -1), gh],
                              axis=1).ravel()


def _gramian(lin: _Linearisation, out: np.ndarray) -> np.ndarray:
    """J^H J at the point of ``lin``, assembled from the factors' small Grams.

    Every entry of ``out`` (P x P complex) is written, and ``out`` is returned.
    A descent passes one buffer for all its points: a fresh P x P array per
    point is the largest allocation of an iteration, and glibc would hand its
    pages back and fault them in again each time (a sixth of a desk fit's
    wall time).

    With W_k = A_k B_k^T, the blocks between terms k and q are
        A-A: (h_k^H h_q) (B_k^H B_q) kron I_T1
        B-B: (h_k^H h_q) (A_k^H A_q) kron I_T2
        h-h: <W_k, W_q> I_N
        A-B: (h_k^H h_q) conj(B_k[j', l]) A_q[i', m]
        A-h: conj(h_k[n']) (W_q conj(B_k))[i', l]
        B-h: conj(h_k[n']) (W_q^T conj(A_k))[j', l]
    and the rest are their Hermitian transposes. It equals the dense product
    to rounding without its T1*T2*N-long inner sums.
    """
    T1, T2, N = lin.dims
    K = lin.K
    na, nb, nh = _factor_sizes(lin.dims, lin.L)
    per = na + nb + nh
    As, Bs, Hs = lin.A, lin.B, lin.h                 # (K, T1, L), (K, T2, L), (K, N)
    Ws = lin.Wt.reshape(K, T2, T1).transpose(0, 2, 1)  # (K, T1, T2)
    Ac, Bc, Hc = As.conj(), Bs.conj(), Hs.conj()
    hh = Hc @ Hs.T                                   # (k, q)
    BhB = np.tensordot(Bc, Bs, axes=(1, 1)) * hh[:, None, :, None]   # (k, l, q, m)
    AhA = np.tensordot(Ac, As, axes=(1, 1)) * hh[:, None, :, None]
    WhW = lin.Wt.conj() @ lin.Wt.T
    WBc = (Ws[None] @ Bc[:, None]).transpose(0, 3, 2, 1)                # (k, l, i, q)
    WAc = (Ws.transpose(0, 2, 1)[None] @ Ac[:, None]).transpose(0, 3, 2, 1)  # (k, l, j, q)
    G = out.reshape(K, per, K, per)
    a, b, c = slice(0, na), slice(na, na + nb), slice(na + nb, per)
    # Index order (k, l, i, q, m, i') etc. flattens to the column order of the
    # packed parameters: vec(A) is i + T1*l, vec(B) is j + T2*l.
    G[:, a, :, a] = (BhB[:, :, None, :, :, None]
                     * np.eye(T1)[:, None, None, :]).reshape(K, na, K, na)
    G[:, b, :, b] = (AhA[:, :, None, :, :, None]
                     * np.eye(T2)[:, None, None, :]).reshape(K, nb, K, nb)
    G[:, c, :, c] = (WhW[:, None, :, None] * np.eye(N)[:, None, :]).reshape(K, nh, K, nh)
    G[:, a, :, b] = (hh[:, None, None, :, None, None]
                     * Bc.transpose(0, 2, 1)[:, :, None, None, None, :]
                     * As.transpose(1, 0, 2)[None, None, :, :, :, None]).reshape(K, na, K, nb)
    G[:, a, :, c] = (WBc[..., None] * Hc[:, None, None, None, :]).reshape(K, na, K, nh)
    G[:, b, :, c] = (WAc[..., None] * Hc[:, None, None, None, :]).reshape(K, nb, K, nh)
    G[:, b, :, a] = G[:, a, :, b].conj().transpose(2, 3, 0, 1)
    G[:, c, :, a] = G[:, a, :, c].conj().transpose(2, 3, 0, 1)
    G[:, c, :, b] = G[:, b, :, c].conj().transpose(2, 3, 0, 1)
    return out


def objective(Y: np.ndarray, x: np.ndarray, K: int, L: int) -> float:
    """Squared Frobenius misfit of the packed complex parameter vector."""
    r = Y.ravel(order="F") - _Linearisation(x, Y.shape, K, L).model()
    return float(np.vdot(r, r).real)


def gradient_real(Y: np.ndarray, x: np.ndarray, K: int, L: int) -> np.ndarray:
    """Gradient of :func:`objective` w.r.t. interleaved real/imag coordinates."""
    lin = _Linearisation(x, Y.shape, K, L)
    r = Y.ravel(order="F") - lin.model()
    return -2.0 * complex_to_real(lin.rmatvec(r))


# ---------------------------------------------------------------------------
# Dogleg trust-region core.
# ---------------------------------------------------------------------------

class _Dogleg:
    """Cauchy/Gauss-Newton dogleg for min ||r - J d|| within ||d|| <= radius.

    The gradient g = J^H r, the Gauss-Newton step and the Cauchy step depend
    only on the point, not on the radius. The descent keeps one instance per
    accepted point, so a rejected trial, which only shrinks the radius, is
    answered from these pieces instead of recomputing them.
    """

    def __init__(self, lin: _Linearisation, r: np.ndarray):
        self.lin = lin
        self.g = lin.rmatvec(r)
        self._sd = None

    def solve(self, G: np.ndarray) -> None:
        """Gauss-Newton step from G = J^H J, overwritten with its Tikhonov-regularised form."""
        lam = TIKHONOV * max(1.0, float(np.max(G.diagonal().real)))
        G[np.diag_indices_from(G)] += lam
        try:
            self.d_gn = np.linalg.solve(G, self.g)
        except np.linalg.LinAlgError:
            self.d_gn = np.linalg.lstsq(G, self.g, rcond=None)[0]
        self.n_gn = np.linalg.norm(self.d_gn)

    def __call__(self, radius: float) -> np.ndarray:
        g, d_gn = self.g, self.d_gn
        if self.n_gn <= radius:
            return d_gn
        if self._sd is None:
            Jg = self.lin.matvec(g)
            t = float(np.vdot(g, g).real / max(np.vdot(Jg, Jg).real, 1e-300))
            d_sd = t * g
            self._sd = d_sd, np.linalg.norm(d_sd)
        d_sd, n_sd = self._sd
        if n_sd >= radius:
            return (radius / np.linalg.norm(g)) * g
        diff = d_gn - d_sd
        a = float(np.vdot(diff, diff).real)
        b = 2.0 * float(np.vdot(d_sd, diff).real)
        c = n_sd * n_sd - radius * radius
        s = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        return d_sd + s * diff


def _run_gndl(y_vec, dims, K, L, x0, config):
    """One GN-dogleg descent from x0; returns (x, residual, iters, converged, history)."""
    x = x0.copy()
    lin = _Linearisation(x, dims, K, L)
    r = y_vec - lin.model()
    res = float(np.linalg.norm(r))
    history = [res]
    radius = TRUST_RADIUS_INIT * max(1.0, float(np.linalg.norm(x)))
    converged = False
    step = None
    G = np.empty((x.size, x.size), dtype=np.complex128)
    it = 0
    for it in range(1, config.max_iterations + 1):
        if step is None:
            step = _Dogleg(lin, r)
            if 2.0 * np.linalg.norm(step.g) < GRAD_TOL:
                converged = True
                it -= 1
                break
            step.solve(_gramian(lin, G))
        d = step(radius)
        pred = res * res - float(np.linalg.norm(r - lin.matvec(d)) ** 2)
        x_new = x + d
        lin_new = _Linearisation(x_new, dims, K, L)
        r_new = y_vec - lin_new.model()
        res_new = float(np.linalg.norm(r_new))
        if not np.isfinite(res_new):
            radius *= 0.25
            continue
        actual = res * res - res_new * res_new
        rho = actual / pred if pred > 0 else -1.0
        if rho > 0.75:
            radius = min(2.0 * radius, TRUST_RADIUS_MAX)
        elif rho < 0.1:
            radius *= 0.25
        if rho >= STEP_ACCEPT_RATIO and actual > 0:
            rel_change = abs(res - res_new) / max(res, 1e-300)
            x, lin, r, res = x_new, lin_new, r_new, res_new
            history.append(res)
            step = None
            if rel_change < REL_RESIDUAL_TOL:
                converged = True
                break
        if radius < 1e-14:
            break
    return x, res, it, converged, history


def init_random(dims, K: int, L: int, seed) -> BTDModel:
    """Random model: Gaussian factors with A, B column-orthonormalized."""
    rng = np.random.default_rng(seed)
    T1, T2, N = dims

    def gauss(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    terms = []
    for _ in range(K):
        A = np.linalg.qr(gauss(T1, L))[0]
        B = np.linalg.qr(gauss(T2, L))[0]
        terms.append(BlockTerm(A=A, B=B, h=gauss(N)))
    return BTDModel(terms=tuple(terms))


def orthonormalize_term(term: BlockTerm) -> BlockTerm:
    """Canonical form: A, B get orthogonal columns of equal norm (the core's
    singular values and the channel magnitude split between the pair), h is
    scaled to unit norm.  The synthesized tensor is unchanged."""
    Qa, Ra = np.linalg.qr(term.A)
    Qb, Rb = np.linalg.qr(term.B)
    U, S, Vh = np.linalg.svd(Ra @ Rb.T)
    hn = np.linalg.norm(term.h)
    if hn == 0 or S[-1] <= RANK_TOL * S[0]:
        raise CanonicalizationFailure("rank-deficient block term")
    scale = np.sqrt(S * hn)
    return BlockTerm(A=(Qa @ U) * scale, B=(Qb @ Vh.T) * scale, h=term.h / hn)


_pool = None   # (workers, ProcessPoolExecutor) once a pooled fit has needed one


@atexit.register
def shutdown_pool() -> None:
    """Stop the restart pool's workers; the next pooled fit starts new ones."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


def _start_worker(count, cpus):
    """Pool initializer: one BLAS thread, and each worker on the next usable CPU
    (left to the scheduler, workers woken through their pipes can share one)."""
    blas.pin_to_one_thread()
    with count.get_lock():
        count.value += 1
        if cpus:
            os.sched_setaffinity(0, {cpus[(count.value - 1) % len(cpus)]})


def _descents(jobs, workers: int):
    """_run_gndl(*job) for each job, in order. With workers > 1 and several
    jobs they run in the restart pool, forked after gndl_fit pins BLAS and
    rebuilt when workers changes or a worker dies; closing cancels the rest."""
    if workers == 1 or len(jobs) < 2:
        yield from (_run_gndl(*job) for job in jobs)
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import Value
    global _pool
    if _pool is not None and _pool[0] != workers:
        shutdown_pool()
    if _pool is None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        _pool = workers, ProcessPoolExecutor(workers, initializer=_start_worker,
                                             initargs=(Value("i", 0), cpus))
    try:
        yield from _pool[1].map(_run_gndl, *zip(*jobs))
    except BrokenProcessPool:
        shutdown_pool()
        raise


def gndl_fit(Y: np.ndarray, K: int, L: int, config: SolverConfig,
             init: BTDModel | None = None) -> SolveResult:
    """Best-of-restarts GN-dogleg fit of K rank-(L,L,1) terms to Y."""
    blas.pin_to_one_thread()
    Y = check_finite(np.asarray(Y, dtype=np.complex128))
    if Y.ndim != 3:
        raise ValueError("Y must be a third-order tensor")
    if K < 1:
        raise ValueError("K must be >= 1")
    dims = Y.shape
    y_vec = Y.ravel(order="F")
    y_norm = max(float(np.linalg.norm(y_vec)), 1e-300)

    models = [] if init is None else [init]
    models += [init_random(dims, K, L, seed=(config.seed, restart))
               for restart in range(len(models), config.restarts)]
    jobs = [(y_vec, dims, K, L, pack_factors([(t.A, t.B, t.h) for t in m.terms]), config)
            for m in models]
    best = None
    restart_iterations = []
    for restart, (x, res, iters, converged, history) in enumerate(
            _descents(jobs, config.workers)):
        restart_iterations.append(iters)
        if not np.isfinite(res):
            continue
        if best is None or res < best[1]:
            best = (x, res, iters, converged, history, restart)
        if converged and res / y_norm < 1e-10:
            break
    if best is None:
        raise SolverFailure("all restarts diverged")

    x, res, iters, converged, history, restart = best
    terms = []
    undecodable = []
    for k, (A, B, h) in enumerate(zip(*_stacked(x, dims, K, L))):
        term = BlockTerm(A=A, B=B, h=h)
        try:
            term = orthonormalize_term(term)
        except CanonicalizationFailure:
            undecodable.append(k)
        terms.append(term)
    return SolveResult(
        model=BTDModel(terms=tuple(terms)),
        relative_residual=res / y_norm,
        iterations=iters,
        converged=converged,
        restart_index=restart,
        residual_history=tuple(history),
        undecodable=tuple(undecodable),
        restart_iterations=tuple(restart_iterations),
    )


def cpd_fit(Y: np.ndarray, K: int, config: SolverConfig,
            init: BTDModel | None = None) -> SolveResult:
    """Rank-1-terms baseline: gndl_fit with L = 1."""
    return gndl_fit(Y, K, 1, config, init=init)
