"""Block-term-decomposition modulation (BTDM) for massive unsourced random access.

Subpackages: tensor_core (block-term tensor arithmetic), codec (Grassmann
constellation encode/demap), solver (BTD fit by alternating least squares
starts with a Gauss-Newton dogleg fallback), outer_code
(shortened BCH), channel (faded tensor synthesis), receiver (demodulation
pipeline with successive cancellation and grouping), harness (Monte-Carlo
sweeps) and cli (command-line entry point).
"""

from .tensor_core import BTDModel, BlockTerm, synthesize_block_term, synthesize_received
from .codec import CodecParams, DemapFailure, build_symbol, demap_symbol
from .solver import SolverConfig, SolveResult, gndl_fit
from .outer_code import OuterCode, DecodeStatus
from .channel import ChannelConfig, transmit, noise_sigma
from .receiver import ReceiverConfig, demodulate, successive_cancellation, pupe, uniqueness_bound
from .harness import ExperimentConfig, run_monte_carlo

__all__ = [
    "BTDModel", "BlockTerm", "synthesize_block_term", "synthesize_received",
    "CodecParams", "DemapFailure", "build_symbol", "demap_symbol",
    "SolverConfig", "SolveResult", "gndl_fit",
    "OuterCode", "DecodeStatus",
    "ChannelConfig", "transmit", "noise_sigma",
    "ReceiverConfig", "demodulate", "successive_cancellation", "pupe", "uniqueness_bound",
    "ExperimentConfig", "run_monte_carlo",
]

__version__ = "0.1.0"
