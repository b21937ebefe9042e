"""Rayleigh-faded, AWGN-corrupted tensor signal synthesis.

Each active user's coded payload is split across the two Grassmann
sub-constellations, the resulting matrix signal is scaled to the per-user
energy target, faded by an i.i.d. complex Gaussian channel vector, and the
block terms plus noise are summed into the received tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from .tensor_core import BTDModel, BlockTerm, complex_gaussian, synthesize_received


@dataclass(frozen=True)
class ChannelConfig:
    n_antennas: int
    n_users: int
    ebn0_db: float
    symbol_energy: float  # per-user transmit energy target E_s

    def __post_init__(self):
        if self.n_antennas < 1 or self.n_users < 1:
            raise ValueError("n_antennas and n_users must be >= 1")
        if self.symbol_energy <= 0:
            raise ValueError("symbol_energy must be positive")


def sample_channels(K: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """K channel vectors of length N with i.i.d. CN(0,1) entries."""
    return complex_gaussian(rng, K, N)


def noise_sigma(ebn0_db: float, symbol_energy: float, b0: int) -> float:
    """Per-complex-entry noise standard deviation for the given Eb/N0.

    Eb = E_s / B0 and sigma^2 = N0 = Eb / 10^(ebn0_db/10).
    """
    if symbol_energy <= 0 or b0 <= 0:
        raise ValueError("symbol_energy and b0 must be positive")
    eb = symbol_energy / b0
    return float(np.sqrt(eb / 10.0 ** (ebn0_db / 10.0)))


def transmit(payloads, params1: codec.CodecParams, params2: codec.CodecParams,
             config: ChannelConfig, b0: int,
             channel_rng: np.random.Generator,
             noise_rng: np.random.Generator | None = None
             ) -> tuple[np.ndarray, BTDModel]:
    """Synthesize the received tensor for the given coded payloads.

    Each payload of params1.ell + params2.ell bits maps to the symbol pair
    (A_k, B_k); A_k absorbs the power scale so that ||A_k B_k^T||_F^2 equals
    the configured symbol energy.  Returns (Y, ground_truth_model).
    """
    if len(payloads) != config.n_users:
        raise ValueError(f"expected {config.n_users} payloads, got {len(payloads)}")
    if params1.L != params2.L:
        raise ValueError("sub-constellations must share L")
    L = params1.L
    b1, b2 = params1.ell, params2.ell
    scale = np.sqrt(config.symbol_energy / L)
    H = sample_channels(config.n_users, config.n_antennas, channel_rng)
    payloads = [np.asarray(payload, dtype=np.uint8) for payload in payloads]
    for k, payload in enumerate(payloads):
        if payload.shape != (b1 + b2,):
            raise ValueError(f"payload {k} must have {b1 + b2} bits")
    coded = np.stack(payloads)
    A = scale * codec.build_symbol(coded[:, :b1], params1)
    B = codec.build_symbol(coded[:, b1:], params2)
    terms = [BlockTerm(A=A[k], B=B[k], h=H[k]) for k in range(config.n_users)]
    model = BTDModel(terms=tuple(terms))
    dims = (params1.T, params2.T, config.n_antennas)
    noise = None
    if noise_rng is not None:
        sigma = noise_sigma(config.ebn0_db, config.symbol_energy, b0)
        noise = sigma * complex_gaussian(noise_rng, *dims)
    return synthesize_received(model, noise), model
