"""End-to-end demodulation pipeline.

Fit a block-term decomposition to the received tensor, canonicalize and demap
each surviving term, validate with the outer code, and report the decoded
message set.  Optional successive cancellation subtracts validated users and
re-decomposes the residual; user groups demodulate independently, in turn.

Messages are represented as '0'/'1' strings so that sets of payloads are
hashable and trivially reversible to bit arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import codec
from .outer_code import OuterCode
from .solver import SolveResult, SolverConfig, SolverFailure, gndl_fit
from .tensor_core import BTDModel, BlockTerm, frobenius


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


@dataclass
class ScDiagnostics:
    passes: list = field(default_factory=list)        # message set after each pass
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


def _demap_terms(result: SolveResult, params1, params2, outer, rx_cfg,
                 y_energy: float, diag: DemodDiagnostics) -> set[str]:
    floor = rx_cfg.power_threshold * y_energy / rx_cfg.assumed_terms
    messages: set[str] = set()
    for k, term in enumerate(result.model.terms):
        if k in result.undecodable:
            diag.demap_failures += 1
            continue
        if _term_energy(term) < floor:
            diag.power_discards += 1
            continue
        diag.terms_kept += 1
        try:
            bits_a, _ = codec.demap_symbol(term.A, params1)
            bits_b, _ = codec.demap_symbol(term.B, params2)
        except codec.DemapFailure:
            diag.demap_failures += 1
            continue
        coded = np.concatenate([bits_a, bits_b])
        if outer is None:
            messages.add(bits_to_message(coded))
            continue
        res = outer.decode(coded)
        if res.valid:
            messages.add(bits_to_message(res.payload))
        else:
            diag.outer_rejects += 1
    return messages


def demodulate(Y: np.ndarray, params1: codec.CodecParams, params2: codec.CodecParams,
               outer: OuterCode | None, rx_cfg: ReceiverConfig,
               solver_cfg: SolverConfig) -> tuple[set[str], DemodDiagnostics]:
    """Single-pass BTD demodulation: fit, filter, demap, validate, dedupe."""
    diag = DemodDiagnostics()
    try:
        result = gndl_fit(Y, rx_cfg.assumed_terms, params1.L, solver_cfg)
    except SolverFailure:
        diag.solver_failed = True
        return set(), diag
    diag.solver_iterations = result.iterations
    diag.relative_residual = result.relative_residual
    diag.solver_converged = result.converged
    messages = _demap_terms(result, params1, params2, outer, rx_cfg,
                            frobenius(Y) ** 2, diag)
    return messages, diag


def _reencode_symbols(message: str, params1, params2, outer) -> np.ndarray:
    payload = message_to_bits(message)
    coded = outer.encode(payload) if outer is not None else payload
    A = codec.build_symbol(coded[:params1.ell], params1)
    B = codec.build_symbol(coded[params1.ell:], params2)
    return A @ B.T


def _subtract_messages(Y, messages, params1, params2, outer):
    """Least-squares channel re-estimation and subtraction of known symbols."""
    S = [_reencode_symbols(m, params1, params2, outer) for m in sorted(messages)]
    Phi = np.stack([s.ravel(order="F") for s in S], axis=1)
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
        sc_diag.passes.append(set(found))
        sc_diag.pass_diags.append(diag)
        if not new:
            # Nothing new decoded; further passes see the same tensor.
            break
    return found, sc_diag


def demodulate_groups(Y_list, params1, params2, outer, rx_cfgs,
                      solver_cfg: SolverConfig, max_workers: int = 1
                      ) -> tuple[set[str], list[ScDiagnostics]]:
    """Union of per-group demodulation, and each group's ScDiagnostics.

    Group g is decoded with rx_cfgs[g], in this process and in order. Every
    fit runs its restarts on max_workers processes (SolverConfig.workers).
    An exception in any group propagates.
    """
    solver_cfg = replace(solver_cfg, workers=max_workers)
    results = [successive_cancellation(Y, params1, params2, outer, rx_cfg, solver_cfg)
               for Y, rx_cfg in zip(Y_list, rx_cfgs, strict=True)]
    return set().union(*(m for m, _ in results)), [sc_diag for _, sc_diag in results]
