"""Fitting of rank-(L,L,1) block terms: alternating least squares (ALS)
starts certified by the caller, then Gauss-Newton dogleg trust-region
descents.

An ALS sweep solves for A, then B, then h, each a linear least-squares
problem with KL x KL or K x K normal equations (:func:`_als_sweep`), against
a P x P system per Gauss-Newton step. An ALS descent carries no convergence
guarantee and can stall in a swamp, so :func:`gndl_fit` keeps an ALS start
only when the caller's ``accept`` check certifies its model (the receiver's
outer code does), and otherwise runs the Gauss-Newton scan.

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
from .tensor_core import BTDModel, BlockTerm, check_finite

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
# An ALS sweep that lowers the residual by less than this relative amount
# ends an ALS descent.
ALS_REL_RESIDUAL_TOL = 1e-7
# A residual at or below this fraction of ||Y|| is an exact fit: it ends an
# ALS descent, and the GN scan.
EXACT_FIT = 1e-10


class SolverFailure(Exception):
    """All restarts diverged (non-finite residual)."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500      # per descent: GN iterations, or ALS sweeps
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    model: BTDModel
    relative_residual: float
    iterations: int
    converged: bool
    restart_index: int             # of the returned start, within its engine's scan
    residual_history: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()   # of every descent scanned, in order
    engine: str = "gn"             # "als" or "gn": the descent that gave the model
    als_starts: int = 0            # leading entries of restart_iterations that are ALS


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


def _gram_blocks(rows_c, rows, hh) -> np.ndarray:
    """(h_k^H h_q)(F_k^H F_q) as a (K, L, K, L) array, the (k, l, q, m) entry.

    Row k*L + l of ``rows`` (K*L, T) is column l of the factor F_k, so the
    Grams of every pair of terms are one matrix product; ``rows_c`` is its
    conjugate and ``hh`` the (K, K) matrix h_k^H h_q.
    """
    K = len(hh)
    L = len(rows) // K
    return (rows_c @ rows.T).reshape(K, L, K, L) * hh[:, None, :, None]


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
    BhB = _gram_blocks(Bc.transpose(0, 2, 1).reshape(-1, T2),        # (k, l, q, m)
                       Bs.transpose(0, 2, 1).reshape(-1, T2), hh)
    AhA = _gram_blocks(Ac.transpose(0, 2, 1).reshape(-1, T1),
                       As.transpose(0, 2, 1).reshape(-1, T1), hh)
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


def _solve_normal(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^{-1} rhs for a Hermitian normal matrix G, overwritten with its
    Tikhonov-regularised form; least squares if that is still singular."""
    diagonal = np.einsum("ii->i", G)                 # a writable view
    diagonal += TIKHONOV * max(1.0, float(diagonal.real.max()))
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, rhs, rcond=None)[0]


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
        self.d_gn = _solve_normal(G, self.g)
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


def _flat_w(a, b, K, L) -> np.ndarray:
    """W_k^T = B_k A_k^T for every term, flattened to (K, T2*T1), from the
    packed entries of A (vec(A_k) per term, in K rows or K*L rows of T1) and
    of B likewise."""
    return (b.reshape(K, L, -1).transpose(0, 2, 1) @ a.reshape(K, L, -1)).reshape(K, -1)


def _residual(R, x, dims, K, L) -> float:
    """||Y - model(x)|| by one synthesis; R is vec(Y) as an (N, T2*T1) array."""
    na, nb, _ = _factor_sizes(dims, L)
    X = x.reshape(K, -1)
    Wt = _flat_w(X[:, :na], X[:, na:na + nb], K, L)
    return float(np.linalg.norm(R - X[:, na + nb:].T @ Wt))


def _als_sweep(R, x, dims, K, L):
    """One ALS sweep from packed x; returns (x_new, residual at x_new).

    A, then B, then h is each the regularised least-squares solution with
    the other two held (De Lathauwer & Nion, SIAM J. Matrix Anal. Appl.
    30(3), 2008). R is vec(Y) as an (N, T2*T1) array. The normal matrices
    are _gramian's diagonal blocks without their identity factors,
        A: (h_k^H h_q)(B_k^H B_q),   B: (h_k^H h_q)(A_k^H A_q),   h: <W_k, W_q>,
    and the right-hand sides are Y contracted as in _Linearisation.rmatvec,
    so a sweep costs two KL x KL solves and one K x K solve. A and B are
    held as their packed rows (K*L, T1) and (K*L, T2), row k*L + l being
    column l of the term's factor, so that each Gram is one matrix product.
    """
    T1, T2, N = dims
    na, nb, _ = _factor_sizes(dims, L)
    X = x.reshape(K, -1)
    b, h = X[:, na:na + nb].reshape(K * L, T2), X[:, na + nb:]
    hc = h.conj()
    Rh = (hc @ R).reshape(K, T2, T1)                                # Y x_3 conj(h_k)
    hh = hc @ h.T
    bc = b.conj()
    a = _solve_normal(_gram_blocks(bc, b, hh).reshape(K * L, K * L),
                      (bc.reshape(K, L, T2) @ Rh).reshape(K * L, T1))
    ac = a.conj()
    b = _solve_normal(_gram_blocks(ac, a, hh).reshape(K * L, K * L),
                      (ac.reshape(K, L, T1) @ Rh.transpose(0, 2, 1)).reshape(K * L, T2))
    Wt = _flat_w(a, b, K, L)
    h = _solve_normal(Wt.conj() @ Wt.T, Wt.conj() @ R.T)
    x_new = np.concatenate([a.reshape(K, -1), b.reshape(K, -1), h], axis=1).ravel()
    return x_new, float(np.linalg.norm(R - h.T @ Wt))


def _run_als(y_vec, dims, K, L, x0, config):
    """One ALS descent from x0; returns (x, residual, sweeps, converged, history).

    After sweep `it` from x, the extrapolated point x + it^(1/3) (x_sweep - x)
    replaces the sweep's point when its residual is lower. The descent ends
    at an exact fit, after a sweep that lowers the residual by less than
    ALS_REL_RESIDUAL_TOL of it, or after max_iterations sweeps. A sweep that
    does not lower it at all leaves x where it was: from there the next one
    would do the same.
    """
    T1, T2, N = dims
    R = y_vec.reshape(N, T2 * T1)
    exact = EXACT_FIT * float(np.linalg.norm(y_vec))
    x = x0
    res = _residual(R, x, dims, K, L)
    history = [res]
    converged = res <= exact
    it = 0
    while not converged and it < config.max_iterations:
        it += 1
        x_new, res_new = _als_sweep(R, x, dims, K, L)
        if it > 1:
            x_ls = x + it ** (1 / 3) * (x_new - x)
            res_ls = _residual(R, x_ls, dims, K, L)
            if res_ls < res_new:
                x_new, res_new = x_ls, res_ls
        if not res_new < res:
            converged = bool(np.isfinite(res_new))
            break
        converged = res - res_new < ALS_REL_RESIDUAL_TOL * res or res_new <= exact
        x, res = x_new, res_new
        history.append(res)
    return x, res, it, converged, history


def _model(x, dims, K, L) -> BTDModel:
    """The packed factors x as a model, each term's factors as views of x."""
    return BTDModel(terms=tuple(BlockTerm(A=A, B=B, h=h)
                                for A, B, h in zip(*_stacked(x, dims, K, L))))


def init_random(dims, K: int, L: int, seed) -> BTDModel:
    """Random model: Gaussian factors with A, B column-orthonormalized.

    One standard_normal block holds every term's entries in the order a
    term-by-term draw takes them: per term, A's real then imaginary parts, then
    B's, then h's, each as tensor_core.complex_gaussian forms them.
    """
    rng = np.random.default_rng(seed)
    T1, T2, N = dims
    sizes = (T1 * L, T1 * L, T2 * L, T2 * L, N, N)
    parts = np.split(rng.standard_normal((K, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    a, b, h = ((re + 1j * im) / np.sqrt(2) for re, im in zip(parts[0::2], parts[1::2]))
    A = np.linalg.qr(a.reshape(K, T1, L))[0]
    B = np.linalg.qr(b.reshape(K, T2, L))[0]
    return BTDModel(terms=tuple(BlockTerm(A=A[k], B=B[k], h=h[k]) for k in range(K)))


_pool = None   # (processes, ProcessPoolExecutor) once a pooled map has needed one


@atexit.register
def shutdown_pool() -> None:
    """Stop the pool's workers; the next pooled map starts new ones."""
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


def pool_map(fn, jobs, workers: int) -> list:
    """[fn(*job) for job in jobs], the package's one parallel map; its one
    caller maps a trial's user groups (receiver.demodulate_groups).

    With workers > 1 and at least two jobs they run in one process pool,
    forked after the BLAS pin, kept for the life of the process, and rebuilt
    when its size changes or a worker dies. The pool has one process per
    usable CPU at most: a second process pinned to a CPU runs nothing more
    at once, and it fixes which jobs share that CPU before their lengths
    are known, where free processes pulling the next job balance the load.
    Otherwise they run here in order. fn must be reachable by name from its
    module, and must not map through the pool itself. Returns once every
    job has finished.
    """
    if workers == 1 or len(jobs) < 2:
        return [fn(*job) for job in jobs]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import Value
    global _pool
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    processes = min(workers, len(cpus) or workers)
    if _pool is not None and _pool[0] != processes:
        shutdown_pool()
    if _pool is None:
        blas.pin_to_one_thread()
        _pool = processes, ProcessPoolExecutor(processes, initializer=_start_worker,
                                               initargs=(Value("i", 0), cpus))
    futures = []
    try:
        futures = [_pool[1].submit(fn, *job) for job in jobs]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        shutdown_pool()
        raise
    finally:   # after a failed job the rest are dropped, as Executor.map does
        for future in futures:
            future.cancel()


def gndl_fit(Y: np.ndarray, K: int, L: int, config: SolverConfig,
             init: BTDModel | None = None, accept=None) -> SolveResult:
    """Fit K rank-(L,L,1) terms to Y from several starts: ALS descents
    certified by ``accept``, then GN-dogleg descents.

    The starts are ``init``, if given, then seeded random points, each drawn
    when a scan reaches it; every descent runs here. With ``accept``,
    an ALS descent runs from each start in order, and the fit returns the
    first whose model ``accept(model)`` approves: the check certifies the
    model, so it needs no Gauss-Newton polish. When none is approved, and
    always without ``accept``, a GN-dogleg descent runs from each start in
    order. The fit returns the first that ``accept`` approves, and otherwise
    the one with the least residual; an exact fit also ends that scan.
    ``restart_iterations`` counts every scanned descent, ALS first.

    The returned factors are as fitted. Each term is fixed only up to an
    invertible L x L factor between A and B and a scale between A B^T and h;
    the demapper reads column spaces, which this leaves alone.
    """
    blas.pin_to_one_thread()
    Y = check_finite(np.asarray(Y, dtype=np.complex128))
    if Y.ndim != 3:
        raise ValueError("Y must be a third-order tensor")
    if K < 1:
        raise ValueError("K must be >= 1")
    dims = Y.shape
    y_vec = Y.ravel(order="F")
    y_norm = max(float(np.linalg.norm(y_vec)), 1e-300)

    def start(restart):
        model = (init if restart == 0 and init is not None
                 else init_random(dims, K, L, seed=(config.seed, restart)))
        return pack_factors([(t.A, t.B, t.h) for t in model.terms])

    restart_iterations = []
    best = None
    if accept is not None:
        for restart in range(config.restarts):
            x, res, iters, converged, history = _run_als(y_vec, dims, K, L, start(restart),
                                                         config)
            restart_iterations.append(iters)
            if np.isfinite(res) and accept(_model(x, dims, K, L)):
                best = (x, res, iters, converged, history, restart, "als")
                break
    als_starts = len(restart_iterations)
    if best is None:
        for restart in range(config.restarts):
            x, res, iters, converged, history = _run_gndl(y_vec, dims, K, L, start(restart),
                                                          config)
            restart_iterations.append(iters)
            if not np.isfinite(res):
                continue
            outcome = (x, res, iters, converged, history, restart, "gn")
            if accept is not None and accept(_model(x, dims, K, L)):
                best = outcome
                break
            if best is None or res < best[1]:
                best = outcome
            if converged and res / y_norm < EXACT_FIT:
                break
    if best is None:
        raise SolverFailure("all restarts diverged")

    x, res, iters, converged, history, restart, engine = best
    return SolveResult(
        model=_model(x, dims, K, L),
        relative_residual=res / y_norm,
        iterations=iters,
        converged=converged,
        restart_index=restart,
        residual_history=tuple(history),
        restart_iterations=tuple(restart_iterations),
        engine=engine,
        als_starts=als_starts,
    )
