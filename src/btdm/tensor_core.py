"""Dense complex third-order tensor arithmetic for rank-(L,L,1) block terms.

Memory layout convention: a tensor of dims (T1, T2, N) is stored as a numpy
array of shape (T1, T2, N); its vectorization uses Fortran (column-major)
ordering, i.e. mode 1 varies fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def _as_complex(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def check_finite(tensor: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(tensor)):
        raise ValueError("tensor contains NaN or Inf entries")
    return tensor


def complex_gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex Gaussian: unit variance per complex entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@dataclass(frozen=True)
class BlockTerm:
    """One user's factor triple (A: T1xL, B: T2xL, h: length-N).

    The faded sub-tensor (A @ B.T) x h is synthesized on demand, never stored.
    Construction checks shapes only; the factors need not have full rank.
    """

    A: np.ndarray
    B: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        A = _as_complex(self.A, "A", 2)
        B = _as_complex(self.B, "B", 2)
        h = _as_complex(self.h, "h", 1)
        if A.shape[1] != B.shape[1]:
            raise ValueError("A and B must have the same number of columns")
        L = A.shape[1]
        if L >= 2 and L >= min(A.shape[0], B.shape[0]):
            raise ValueError(f"L={L} must be < min(T1, T2) = {min(A.shape[0], B.shape[0])}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "h", h)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.B.shape[0], self.h.shape[0])

    @property
    def L(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class BTDModel:
    """Ordered list of block terms sharing identical dims and L."""

    terms: tuple[BlockTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if terms:
            dims, L = terms[0].dims, terms[0].L
            for t in terms[1:]:
                if t.dims != dims or t.L != L:
                    raise ValueError("all terms must share (T1, T2, N, L)")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)


def synthesize_block_term(term: BlockTerm) -> np.ndarray:
    """Entry (i,j,n) = (A @ B.T)_{ij} * h_n."""
    return check_finite(np.einsum("il,jl,n->ijn", term.A, term.B, term.h))


def synthesize_received(model: BTDModel, noise: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sum of per-term synthesis plus optional noise."""
    if len(model) == 0:
        if noise is None:
            raise ValueError("empty model requires explicit noise to fix dims")
        return check_finite(np.array(noise, dtype=np.complex128))
    Y = np.zeros(model.terms[0].dims, dtype=np.complex128)
    for term in model.terms:
        Y += synthesize_block_term(term)
    if noise is not None:
        noise = _as_complex(noise, "noise", 3)
        if noise.shape != Y.shape:
            raise ValueError(f"noise dims {noise.shape} do not match {Y.shape}")
        Y += noise
    return check_finite(Y)


def frobenius(tensor: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(tensor).ravel()))
