"""End-to-end demodulation pipeline.

Fit a block-term decomposition to the received tensor, demap each term above
the power floor from its factors as fitted, validate with the outer code, and
report the decoded message set. With an outer code, the fit stops at the
first start, ALS descents first, whose every term decodes to a distinct
valid message. Optional successive cancellation subtracts validated users
and re-decomposes the residual; user groups demodulate independently, in a
process pool when asked for.

Messages are represented as '0'/'1' strings so that sets of payloads are
hashable and trivially reversible to bit arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .outer_code import OuterCode
from .solver import SolverConfig, SolverFailure, gndl_fit, pool_map
from .tensor_core import BlockTerm, frobenius


@dataclass(frozen=True)
class ReceiverConfig:
    assumed_terms: int
    power_threshold: float = 0.05
    sc_iterations: int = 0

    def __post_init__(self):
        if not isinstance(self.assumed_terms, numbers.Integral):
            raise ValueError(f"assumed_terms must be an integer, got {self.assumed_terms!r}")
        if self.assumed_terms < 1:
            raise ValueError("assumed_terms must be >= 1")
        if not (0 <= self.power_threshold < 1):
            raise ValueError("power_threshold must be in [0, 1)")
        if self.sc_iterations < 0:
            raise ValueError("sc_iterations must be >= 0")


@dataclass
class DemodDiagnostics:
    solver_iterations: int = 0
    relative_residual: float = float("nan")
    solver_converged: bool = False
    terms_kept: int = 0
    power_discards: int = 0
    demap_failures: int = 0
    outer_rejects: int = 0
    solver_failed: bool = False
    restarts_run: int = 0          # descents the fit scanned, ALS and GN
    total_iterations: int = 0      # their iterations, summed
    als_starts: int = 0            # of them, ALS descents


@dataclass
class ScDiagnostics:
    pass_diags: list = field(default_factory=list)    # DemodDiagnostics per pass


def bits_to_message(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).astype(np.uint8))


def message_to_bits(message: str) -> np.ndarray:
    return np.frombuffer(message.encode(), dtype=np.uint8) - ord("0")


def uniqueness_conditions(T1: int, T2: int, L: int, N: int) -> tuple[int, int]:
    """Largest K satisfying each uniqueness condition, 0 where none does.

    Condition 1: N >= K and min(T1//L, K) + min(T2//L, K) >= K + 2.
    Condition 2: T1*T2 // L^2 >= K and
                 min(T1//L, K) + min(T2//L, K) + min(N, K) >= 2K + 2.
    """
    if L < 1 or min(T1, T2, N) < 1:
        raise ValueError("dims must be positive")
    r1, r2 = T1 // L, T2 // L
    k1 = k2 = 0
    for K in range(1, max(N, T1 * T2 // (L * L)) + 2):
        if N >= K and min(r1, K) + min(r2, K) >= K + 2:
            k1 = K
        if (T1 * T2) // (L * L) >= K and \
                min(r1, K) + min(r2, K) + min(N, K) >= 2 * K + 2:
            k2 = K
    return k1, k2


def uniqueness_bound(T1: int, T2: int, L: int, N: int) -> int:
    """Largest K for which the decomposition is essentially unique: the
    larger of the two uniqueness_conditions, 0 when neither holds for K >= 1."""
    return max(uniqueness_conditions(T1, T2, L, N))


def dof_total(K: int, T1: int, T2: int, L: int) -> int:
    """Total degrees of freedom: K * (T1 + T2 - 2L) * L."""
    return K * (T1 + T2 - 2 * L) * L


def pupe(sent, decoded) -> float:
    """Fraction of sent messages missing from the decoded set."""
    sent = set(sent)
    if not sent:
        raise ValueError("sent message set must be nonempty")
    return len(sent - set(decoded)) / len(sent)


def _term_energy(term: BlockTerm) -> float:
    return float(np.linalg.norm(term.A @ term.B.T) ** 2 * np.linalg.norm(term.h) ** 2)


def _term_message(term: BlockTerm, params1, params2, outer, floor: float,
                  diag: DemodDiagnostics) -> str | None:
    """The term's decoded message, or None after counting in diag why it has none."""
    if _term_energy(term) <= floor:
        diag.power_discards += 1
        return None
    diag.terms_kept += 1
    try:
        coded = np.concatenate([codec.demap_symbol(term.A, params1),
                                codec.demap_symbol(term.B, params2)])
    except codec.DemapFailure:
        diag.demap_failures += 1
        return None
    if outer is None:
        return bits_to_message(coded)
    res = outer.decode(coded)
    if not res.valid:
        diag.outer_rejects += 1
        return None
    return bits_to_message(res.payload)


def demodulate(Y: np.ndarray, params1: codec.CodecParams, params2: codec.CodecParams,
               outer: OuterCode | None, rx_cfg: ReceiverConfig,
               solver_cfg: SolverConfig) -> tuple[set[str], DemodDiagnostics]:
    """Single-pass BTD demodulation: fit, filter, demap, validate, dedupe.

    With an outer code the fit stops at the first start, ALS descents
    before GN ones, whose K terms all clear the power floor, demap, pass the
    outer code and give K distinct messages; by the uniqueness of the
    decomposition those are the users. That start's messages are returned
    without a second demap.
    """
    diag = DemodDiagnostics()
    K = rx_cfg.assumed_terms
    floor = rx_cfg.power_threshold * frobenius(Y) ** 2 / K
    accepted = []

    def every_term_decodes(model) -> bool:
        # One failing term rejects the start, so each check runs on all K
        # terms at once: the floor, the A demap, the B demap, then BCH.
        terms = model.terms
        if any(_term_energy(term) <= floor for term in terms):
            return False
        try:
            coded = np.concatenate(
                [codec.demap_symbol(np.stack([term.A for term in terms]), params1),
                 codec.demap_symbol(np.stack([term.B for term in terms]), params2)], axis=1)
        except codec.DemapFailure:
            return False
        messages = set()
        for word in coded:
            res = outer.decode(word)
            if not res.valid:
                return False
            messages.add(bits_to_message(res.payload))
        if len(messages) < K:
            return False
        accepted.append(messages)
        return True

    try:
        if outer is None:   # nothing certifies a fit: no ALS, and every GN restart runs
            result = gndl_fit(Y, K, params1.L, solver_cfg)
        else:
            result = gndl_fit(Y, K, params1.L, solver_cfg, accept=every_term_decodes)
    except SolverFailure:
        diag.solver_failed = True
        return set(), diag
    diag.solver_iterations = result.iterations
    diag.relative_residual = result.relative_residual
    diag.solver_converged = result.converged
    diag.restarts_run = len(result.restart_iterations)
    diag.total_iterations = sum(result.restart_iterations)
    diag.als_starts = result.als_starts
    if accepted:
        diag.terms_kept = K
        return accepted[0], diag
    messages = {_term_message(term, params1, params2, outer, floor, diag)
                for term in result.model.terms}
    return messages - {None}, diag


def _reencode_symbols(messages, params1, params2, outer) -> np.ndarray:
    """The (n, T1, T2) matrix signals A B^T of the messages, in order."""
    payloads = np.stack([message_to_bits(m) for m in messages])
    coded = np.stack([outer.encode(p) for p in payloads]) if outer is not None else payloads
    A = codec.build_symbol(coded[:, :params1.ell], params1)
    B = codec.build_symbol(coded[:, params1.ell:], params2)
    return A @ B.transpose(0, 2, 1)


def _subtract_messages(Y, messages, params1, params2, outer):
    """Least-squares channel re-estimation and subtraction of known symbols."""
    S = _reencode_symbols(sorted(messages), params1, params2, outer)
    Phi = np.ascontiguousarray(S.transpose(0, 2, 1).reshape(len(S), -1).T)  # column m: vec(S_m)
    Y3 = Y.reshape(-1, Y.shape[2], order="F")  # (T1*T2, N)
    H, *_ = np.linalg.lstsq(Phi, Y3, rcond=None)
    return (Y3 - Phi @ H).reshape(Y.shape, order="F")


def successive_cancellation(Y: np.ndarray, params1, params2,
                            outer: OuterCode | None, rx_cfg: ReceiverConfig,
                            solver_cfg: SolverConfig
                            ) -> tuple[set[str], ScDiagnostics]:
    """Demodulate, subtract validated users, and re-demodulate the residual.

    Runs 1 + sc_iterations passes at most; stops early when a pass adds no
    new message or no unexplained terms remain.
    """
    sc_diag = ScDiagnostics()
    found: set[str] = set()
    for it in range(rx_cfg.sc_iterations + 1):
        remaining = rx_cfg.assumed_terms - len(found)
        if remaining < 1:
            break
        if found:
            residual_Y = _subtract_messages(Y, found, params1, params2, outer)
        else:
            residual_Y = Y
        pass_cfg = ReceiverConfig(
            assumed_terms=remaining,
            power_threshold=rx_cfg.power_threshold,
            sc_iterations=0,
        )
        messages, diag = demodulate(residual_Y, params1, params2, outer,
                                    pass_cfg, solver_cfg)
        new = messages - found
        found |= new
        sc_diag.pass_diags.append(diag)
        if not new:
            # Nothing new decoded; further passes see the same tensor.
            break
    return found, sc_diag


def demodulate_groups(Y_list, params1, params2, outer, rx_cfgs,
                      solver_cfg: SolverConfig, max_workers: int = 1
                      ) -> tuple[set[str], list[ScDiagnostics]]:
    """Union of per-group demodulation, and each group's ScDiagnostics.

    Group g is decoded with rx_cfgs[g]. With max_workers > 1, two or more
    groups decode in the solver's process pool, each group's fits in its
    worker; a single group decodes here. The results do not depend on
    max_workers. An exception in any group propagates.
    """
    results = pool_map(successive_cancellation,
                       [(Y, params1, params2, outer, rx_cfg, solver_cfg)
                        for Y, rx_cfg in zip(Y_list, rx_cfgs, strict=True)],
                       max_workers)
    return set().union(*(m for m, _ in results)), [sc_diag for _, sc_diag in results]
