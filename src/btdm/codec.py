"""Grassmann constellation codec.

Maps bit payloads to T x L unitary matrix symbols and back.  A symbol carries
two bit groups: the first group selects the pair of dominant rows (the region
of the Grassmann manifold), the second fills the remaining rows with complex
scalars strictly inside the unit disc via the cube-split mapping (normal
quantiles of mid-cell probabilities).

A fitted block term fixes each factor only up to an invertible L x L right
factor, so demapping reads the estimate's column space alone: it accepts any
basis of the estimated subspace and is invariant to any invertible right
factor.  :func:`demap_symbol` is where an estimate enters the codec and the
one place it is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .tensor_core import RANK_TOL

ORTHO_INPUT_TOL = 1e-8
DET_TOL = 1e-12
# Radial clamp for disc points pushed outside the unit circle by noise.
CLAMP_RADIUS = 1.0 - 1e-9


class DemapFailure(Exception):
    """Symbol could not be demapped; treated as an erasure upstream."""


def bits_to_int(bits) -> int:
    """MSB-first bit array to integer."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    if value < 0 or (width == 0 and value != 0) or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bit_budget(T: int, L: int, ell: int) -> tuple[int, int, tuple[int, ...]]:
    """Split an ell-bit payload into the dominant-row index bits and the
    per-scalar coordinate bit lengths.

    Returns (ell1, ell2, part_lengths).  Coordinate bits are divided as evenly
    as possible; the longer parts go to the lowest part indices.  Zero-length
    parts are allowed (the corresponding quantile index is fixed to 0).
    """
    if L == 2:
        if T < 3:
            raise ValueError("L=2 requires T >= 3")
        ell1 = int(math.floor(math.log2(T * (T - 1) / 2)))
        n_parts = 4 * T - 8
    elif L == 1:
        if T < 2:
            raise ValueError("L=1 requires T >= 2")
        ell1 = int(math.floor(math.log2(T)))
        n_parts = 2 * (T - 1)
    else:
        raise ValueError(f"only L in {{1, 2}} is supported, got {L}")
    if ell < ell1:
        raise ValueError(f"payload of {ell} bits is smaller than ell1={ell1}")
    ell2 = ell - ell1
    base, extra = divmod(ell2, n_parts)
    parts = tuple(base + 1 if i < extra else base for i in range(n_parts))
    return ell1, ell2, parts


@dataclass(frozen=True)
class CodecParams:
    """All constellation constants for one sub-constellation; the bit budget
    (ell1, ell2, part_lengths) follows from (T, L, ell)."""

    T: int
    L: int
    ell: int
    f: float = 2.0
    ell1: int = field(init=False)
    ell2: int = field(init=False)
    part_lengths: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.f <= math.sqrt(2.0):
            raise ValueError("pilot constant f must be strictly greater than sqrt(2)")
        budget = zip(("ell1", "ell2", "part_lengths"), bit_budget(self.T, self.L, self.ell))
        for name, value in budget:
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Dominant-pair injection (lexicographic over 1 <= p < q <= T).
# ---------------------------------------------------------------------------

def pair_index(p: int, q: int, T: int) -> int:
    """Lexicographic index of the ordered pair (p, q), zero-based."""
    if not (1 <= p < q <= T):
        raise ValueError(f"need 1 <= p < q <= T, got ({p}, {q}) with T={T}")
    before = (p - 1) * T - p * (p - 1) // 2
    return before + (q - p - 1)


def pair_from_index(index: int, T: int) -> tuple[int, int]:
    if not (0 <= index < T * (T - 1) // 2):
        raise ValueError(f"pair index {index} out of range for T={T}")
    p = 1
    while index >= T - p:
        index -= T - p
        p += 1
    return p, p + index + 1


def pair_from_bits(b1, T: int) -> tuple[int, int]:
    return pair_from_index(bits_to_int(b1), T)


def bits_from_pair(p: int, q: int, T: int, ell1: int) -> np.ndarray:
    idx = pair_index(p, q, T)
    if idx >= (1 << ell1):
        raise DemapFailure(f"pair ({p}, {q}) lies outside the {ell1}-bit injection image")
    return int_to_bits(idx, ell1)


# ---------------------------------------------------------------------------
# Cube-split scalar mapping and its inverse.
# ---------------------------------------------------------------------------

def cube_split_scalar(x_odd: int, x_even: int, L_odd: int, L_even: int) -> complex:
    """Map two quantile indices to a point strictly inside the unit disc.

    omega = ndtri((2*x_odd+1) / 2^(L_odd+1)) + 1j * ndtri((2*x_even+1) / 2^(L_even+1));
    the radius is compressed by sqrt((1 - e^(-|w|^2/2)) / (1 + e^(-|w|^2/2))).
    """
    for x, Lb, name in ((x_odd, L_odd, "x_odd"), (x_even, L_even, "x_even")):
        if not (0 <= x < (1 << Lb)):
            raise ValueError(f"{name}={x} out of range for {Lb} bits")
    w = ndtri((2 * x_odd + 1) / 2 ** (L_odd + 1)) + 1j * ndtri((2 * x_even + 1) / 2 ** (L_even + 1))
    r = abs(w)
    if r == 0.0:
        return 0j
    e = math.exp(-r * r / 2.0)
    return complex(math.sqrt((1.0 - e) / (1.0 + e)) / r * w)


def inverse_cube_split(alpha: complex, L_odd: int, L_even: int) -> tuple[int, int]:
    """Nearest-cell hard decision inverting :func:`cube_split_scalar`.

    Inputs with |alpha| >= 1 are radially clamped just inside the disc.
    """
    alpha = complex(alpha)
    r = abs(alpha)
    if r >= 1.0:
        alpha *= CLAMP_RADIUS / r
        r = CLAMP_RADIUS
    if r == 0.0:
        w = 0j
    else:
        r2 = r * r
        R = math.sqrt(-2.0 * math.log((1.0 - r2) / (1.0 + r2)))
        w = R / r * alpha
    x_odd = min((1 << L_odd) - 1, max(0, int(math.floor(ndtr(w.real) * (1 << L_odd)))))
    x_even = min((1 << L_even) - 1, max(0, int(math.floor(ndtr(w.imag) * (1 << L_even)))))
    return x_odd, x_even


def _coords_from_bits(b2, parts: tuple[int, ...]) -> np.ndarray:
    """Decode the coordinate bit parts into the complex vector a."""
    xs = []
    pos = 0
    for length in parts:
        xs.append(bits_to_int(b2[pos:pos + length]))
        pos += length
    assert pos == len(b2)
    n_alpha = len(parts) // 2
    return np.array(
        [cube_split_scalar(xs[2 * t], xs[2 * t + 1], parts[2 * t], parts[2 * t + 1])
         for t in range(n_alpha)],
        dtype=np.complex128,
    )


def _bits_from_coords(a: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    bits = []
    for t, alpha in enumerate(a):
        x_odd, x_even = inverse_cube_split(alpha, parts[2 * t], parts[2 * t + 1])
        bits.append(int_to_bits(x_odd, parts[2 * t]))
        bits.append(int_to_bits(x_even, parts[2 * t + 1]))
    return np.concatenate(bits) if bits else np.zeros(0, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Symbol construction and demapping, L = 2.
# ---------------------------------------------------------------------------

def build_symbol(b, params: CodecParams) -> np.ndarray:
    """The T x L column-orthonormal symbol carrying the payload bits b."""
    b = np.asarray(b, dtype=np.uint8)
    if b.shape != (params.ell,):
        raise ValueError(f"payload must have {params.ell} bits, got {b.shape}")
    if params.L == 1:
        return build_symbol_rank1(b, params)
    T, f = params.T, params.f
    p, q = pair_from_bits(b[:params.ell1], T)
    a = _coords_from_bits(b[params.ell1:], params.part_lengths)
    half = T - 2
    i_p = complex(np.vdot(a[:half], a[half:]))
    U = np.zeros((T, 2), dtype=np.complex128)
    U[p - 1] = (f, -i_p / f)
    U[q - 1] = (0.0, f)
    rest = [i for i in range(T) if i not in (p - 1, q - 1)]
    U[rest, 0] = a[:half]
    U[rest, 1] = a[half:]
    # Exact column orthogonality before scaling: col1^H col2 = -i_p + i_p = 0.
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return U


def detect_dominant_pair(Mhat: np.ndarray) -> tuple[int, int]:
    """Indices (1-based, p < q) of the two largest squared row norms.

    Ties within 1e-12 of each other are broken toward the smaller row index.
    """
    M = np.asarray(Mhat, dtype=np.complex128)
    norms = np.sum(np.abs(M) ** 2, axis=1)
    if not np.any(norms > 0):
        raise ValueError("matrix is zero")
    tie = 1e-12 * max(norms.max(), 1.0)
    order = sorted(range(len(norms)), key=lambda i: (-norms[i], i))
    top = [order[0], order[1]]
    # Prefer a smaller index when the runner-up is within the tie tolerance.
    for cand in order[2:]:
        if norms[top[1]] - norms[cand] <= tie and cand < top[1]:
            top[1] = cand
        else:
            break
    p, q = sorted(t + 1 for t in top)
    return p, q


def chordal_distance(M, N) -> float:
    """d = sqrt(2 - |tr(M^H N N^H M)|) for column-orthonormal M, N."""
    M, N = np.asarray(M, dtype=np.complex128), np.asarray(N, dtype=np.complex128)
    for X, name in ((M, "M"), (N, "N")):
        if np.linalg.norm(X.conj().T @ X - np.eye(X.shape[1])) > ORTHO_INPUT_TOL:
            raise ValueError(f"{name} is not column-orthonormal")
    t = abs(np.trace(M.conj().T @ N @ N.conj().T @ M))
    return math.sqrt(max(0.0, 2.0 - t))


def cell_point(p: int, q: int, T: int) -> np.ndarray:
    """Region representative G^(p,q): ones at (p,1) and (q,2)."""
    if not (1 <= p < q <= T):
        raise ValueError(f"need 1 <= p < q <= T, got ({p}, {q})")
    G = np.zeros((T, 2), dtype=np.complex128)
    G[p - 1, 0] = 1.0
    G[q - 1, 1] = 1.0
    return G


def solve_pilot_inner_product(W: np.ndarray, f: float) -> complex:
    """Closed-form solution of the one-variable linear equation for the
    coordinate-halves inner product: with C = W^H W,
    i_p = f^2 C_12 / (1 + C_11)."""
    C = W.conj().T @ W
    return complex(f * f * C[0, 1] / (1.0 + C[0, 0]))


def demap_symbol(Ahat, params: CodecParams) -> tuple[np.ndarray, float]:
    """Recover the payload bits from any basis of the estimated subspace.

    Ahat is any T x L matrix whose columns span the estimate: the result is
    invariant to any invertible right factor, so a fitted factor is passed
    as it is.  Returns (bits, confidence); confidence is the negated chordal
    distance between the estimate and the re-encoded symbol.  Raises
    ValueError for a wrongly shaped or non-finite input, and DemapFailure
    when the estimate is rank deficient or cannot correspond to any
    constellation point.
    """
    A = np.asarray(Ahat, dtype=np.complex128)
    if A.shape != (params.T, params.L):
        raise ValueError(f"estimate must be {params.T} x {params.L}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("estimate contains NaN or Inf entries")
    Q, R = np.linalg.qr(A)
    r = np.abs(R.diagonal())
    if r.min() <= RANK_TOL * r.max():
        raise DemapFailure("estimate is numerically rank deficient")
    if params.L == 1:
        return demap_symbol_rank1(Q, params)
    T, f = params.T, params.f
    p, q = detect_dominant_pair(Q)
    b1 = bits_from_pair(p, q, T, params.ell1)
    A1 = Q[[p - 1, q - 1], :]
    A2 = np.delete(Q, [p - 1, q - 1], axis=0)
    det = A1[0, 0] * A1[1, 1] - A1[0, 1] * A1[1, 0]
    if abs(det) < DET_TOL * np.linalg.norm(A1) ** 2:
        raise DemapFailure("dominant-row block is numerically singular")
    W = A2 @ np.linalg.inv(A1)
    i_p = solve_pilot_inner_product(W, f)
    A2_rec = W @ np.array([[f, -i_p / f], [0.0, f]], dtype=np.complex128)
    a = np.concatenate([A2_rec[:, 0], A2_rec[:, 1]])
    b2 = _bits_from_coords(a, params.part_lengths)
    bits = np.concatenate([b1, b2])
    confidence = -chordal_distance(Q, build_symbol(bits, params))
    return bits, confidence


# ---------------------------------------------------------------------------
# L = 1 baseline (single dominant entry).
# ---------------------------------------------------------------------------

def build_symbol_rank1(b, params: CodecParams) -> np.ndarray:
    b = np.asarray(b, dtype=np.uint8)
    if params.L != 1 or b.shape != (params.ell,):
        raise ValueError("params/payload mismatch for rank-1 symbol")
    T, f = params.T, params.f
    p = bits_to_int(b[:params.ell1])  # zero-based dominant index
    a = _coords_from_bits(b[params.ell1:], params.part_lengths)
    x = np.zeros((T, 1), dtype=np.complex128)
    x[p, 0] = f
    rest = [i for i in range(T) if i != p]
    x[rest, 0] = a
    x /= np.linalg.norm(x)
    return x


def demap_symbol_rank1(q: np.ndarray, params: CodecParams) -> tuple[np.ndarray, float]:
    """Demap a unit-norm T x 1 estimate, as checked by :func:`demap_symbol`."""
    x = q.reshape(-1)
    p = int(np.argmax(np.abs(x)))
    if p >= (1 << params.ell1):
        raise DemapFailure(f"dominant index {p} outside the injection image")
    b1 = int_to_bits(p, params.ell1)
    a = np.delete(x, p) * (params.f / x[p])
    b2 = _bits_from_coords(a, params.part_lengths)
    bits = np.concatenate([b1, b2])
    # Sine of the principal angle between the two lines (0 at a perfect match).
    overlap = abs(np.vdot(x, build_symbol_rank1(bits, params).reshape(-1)))
    confidence = -math.sqrt(max(0.0, 1.0 - overlap * overlap))
    return bits, confidence
