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
from statistics import NormalDist

import numpy as np

# demap_symbol's full-rank test: an estimate is rank deficient when the
# smallest |diagonal of R| of its QR is at most RANK_TOL times the largest.
RANK_TOL = 1e-10
DET_TOL = 1e-12
# Radial clamp for disc points pushed outside the unit circle by noise.
CLAMP_RADIUS = 1.0 - 1e-9
# The standard normal whose quantiles place the cube-split cells.
_NORMAL = NormalDist()
# Longest coordinate part bit_budget allows.  The cells of a b-bit part
# nearest the centre and the tails put 1 - r^2 or 1 - e^(-|w|^2/2) within
# about 2^(-2b) of 1, so each added bit quadruples the float64 error of the
# round trip: at 24 bits a cell comes back within 0.4% of a cell width of its
# centre, and from 27 bits on some cells come back as a neighbour.
MAX_PART_BITS = 24


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
    parts are allowed (the corresponding quantile index is fixed to 0); parts
    longer than MAX_PART_BITS are not.
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
    if parts[0] > MAX_PART_BITS:
        raise ValueError(f"coordinate parts of {parts[0]} bits exceed the "
                         f"{MAX_PART_BITS}-bit cube-split limit")
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
# Bit parts. A payload's bits are read as consecutive MSB-first parts.
# ---------------------------------------------------------------------------

def _shifts(parts) -> np.ndarray:
    """Each payload bit's place value exponent within its part."""
    ends = np.cumsum(parts, dtype=np.int64)
    return np.repeat(ends, parts) - 1 - np.arange(ends[-1])


def _ints_from_bits(bits, parts) -> np.ndarray:
    """The integers of the consecutive parts of `bits` (..., sum(parts)),
    as int64 (..., len(parts)); a zero-length part reads 0."""
    ends = np.cumsum(parts, dtype=np.int64)
    weighted = np.asarray(bits, dtype=np.int64) << _shifts(parts)
    total = np.concatenate([np.zeros(weighted.shape[:-1] + (1,), dtype=np.int64),
                            np.cumsum(weighted, axis=-1)], axis=-1)
    return total[..., ends] - total[..., ends - np.asarray(parts)]


def _bits_from_ints(values, parts) -> np.ndarray:
    """Inverse of :func:`_ints_from_bits`: (..., len(parts)) to uint8 bits."""
    spread = np.repeat(np.asarray(values, dtype=np.int64), parts, axis=-1)
    return ((spread >> _shifts(parts)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# Dominant-pair injection (lexicographic over 1 <= p < q <= T), elementwise.
# ---------------------------------------------------------------------------

def pair_index(p, q, T: int):
    """Lexicographic index of each ordered pair (p, q), zero-based."""
    p, q = np.asarray(p), np.asarray(q)
    if not ((1 <= p) & (p < q) & (q <= T)).all():
        raise ValueError(f"need 1 <= p < q <= T, got ({p}, {q}) with T={T}")
    return (p - 1) * T - p * (p - 1) // 2 + (q - p - 1)


def pair_from_index(index, T: int):
    """The pair (p, q) of each lexicographic index."""
    index = np.asarray(index)
    if not ((0 <= index) & (index < T * (T - 1) // 2)).all():
        raise ValueError(f"pair index {index} out of range for T={T}")
    starts = np.arange(1, T)
    first = (starts - 1) * T - starts * (starts - 1) // 2   # the index of (p, p + 1)
    p = np.searchsorted(first, index, side="right")
    return p, p + 1 + index - first[p - 1]


# ---------------------------------------------------------------------------
# Cube-split scalar mapping and its inverse.
# ---------------------------------------------------------------------------

def cube_split_scalar(x_odd: int, x_even: int, L_odd: int, L_even: int) -> complex:
    """Map two quantile indices to a point strictly inside the unit disc.

    omega = Q((2*x_odd+1) / 2^(L_odd+1)) + 1j * Q((2*x_even+1) / 2^(L_even+1)),
    with Q the standard normal quantile;
    the radius is compressed by sqrt((1 - e^(-|w|^2/2)) / (1 + e^(-|w|^2/2))).
    """
    for x, Lb, name in ((x_odd, L_odd, "x_odd"), (x_even, L_even, "x_even")):
        if not (0 <= x < (1 << Lb)):
            raise ValueError(f"{name}={x} out of range for {Lb} bits")
    w = complex(_NORMAL.inv_cdf((2 * x_odd + 1) / 2 ** (L_odd + 1)),
                _NORMAL.inv_cdf((2 * x_even + 1) / 2 ** (L_even + 1)))
    r = abs(w)
    if r == 0.0:
        return 0j
    e = math.exp(-r * r / 2.0)
    return math.sqrt((1.0 - e) / (1.0 + e)) / r * w


# numpy's log differs from math.log in the last bit on some inputs, and numpy
# has no erf, so the inverse takes both from math, one call per element.
_LOG = np.frompyfunc(math.log, 1, 1)
_ERF = np.frompyfunc(math.erf, 1, 1)
_SQRT2 = math.sqrt(2.0)


def _normal_cell(x, bits):
    """min(2^bits - 1, floor(Phi(x) 2^bits)), with Phi as statistics.NormalDist.cdf."""
    cdf = 0.5 * (1.0 + np.asarray(_ERF(x / _SQRT2), dtype=np.float64))
    top = np.ldexp(1.0, bits)
    return np.clip(np.floor(cdf * top), 0.0, top - 1.0).astype(np.int64)


def inverse_cube_split(alpha, L_odd, L_even):
    """Nearest-cell hard decision inverting :func:`cube_split_scalar`,
    elementwise over arrays of alpha and part lengths.

    Inputs with |alpha| >= 1 are radially clamped just inside the disc. Each
    element takes the same float64 operations as one complex scalar would in
    Python, so a cell boundary falls in the same place.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    re, im = alpha.real, alpha.imag
    r = np.hypot(re, im)                              # Python's abs(complex)
    clamp = np.where(r >= 1.0, CLAMP_RADIUS / np.where(r > 0.0, r, 1.0), 1.0)
    re, im = re * clamp, im * clamp
    r = np.where(r >= 1.0, CLAMP_RADIUS, r)
    r2 = r * r
    R = np.sqrt(-2.0 * np.asarray(_LOG((1.0 - r2) / (1.0 + r2)), dtype=np.float64))
    g = R / np.where(r > 0.0, r, 1.0)                 # 0 at alpha = 0, where w = 0
    return _normal_cell(g * re, L_odd), _normal_cell(g * im, L_even)


def _coords_from_ints(xs, parts: tuple[int, ...]) -> np.ndarray:
    """The complex vectors a (..., len(parts) // 2) of the coordinate part
    integers xs (..., len(parts)), one cube_split_scalar call per distinct cell."""
    lengths = np.broadcast_to(np.asarray(parts, dtype=np.int64), xs.shape)
    cells = list(zip(*(v.ravel().tolist() for v in (xs[..., 0::2], xs[..., 1::2],
                                                     lengths[..., 0::2], lengths[..., 1::2]))))
    values = {cell: cube_split_scalar(*cell) for cell in set(cells)}
    return np.array([values[cell] for cell in cells],
                    dtype=np.complex128).reshape(xs.shape[:-1] + (-1,))


def _payload_bits(index, a: np.ndarray, params: CodecParams) -> np.ndarray:
    """The (n, ell) payload bits of the dominant-row indices (n,) and the
    coordinate vectors a (n, len(part_lengths) // 2)."""
    lengths = np.asarray(params.part_lengths, dtype=np.int64)
    x_odd, x_even = inverse_cube_split(a, lengths[0::2], lengths[1::2])
    xs = np.concatenate([index[:, None], np.stack([x_odd, x_even], axis=-1).reshape(len(a), -1)],
                        axis=1)
    return _bits_from_ints(xs, (params.ell1,) + params.part_lengths)


def _over(z: np.ndarray, f: float) -> np.ndarray:
    """z / f as Python divides a complex by a float, each part by f (numpy
    would multiply by 1 / f)."""
    out = np.empty_like(z)
    out.real, out.imag = z.real / f, z.imag / f
    return out


def _frobenius(M: np.ndarray) -> np.ndarray:
    """np.linalg.norm(M[i]) for each matrix of an (n, T, L) stack, bit for
    bit: norm adds the dot products of the real and imaginary parts, which
    are strided views, and matmul of such vectors calls the same BLAS dot."""
    n = len(M)
    re, im = M.real.reshape(n, -1), M.imag.reshape(n, -1)
    return np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0]
                   + (im[:, None, :] @ im[:, :, None])[:, 0, 0])


# ---------------------------------------------------------------------------
# Symbol construction and demapping.  Each takes one payload or estimate, or
# a stack of them along a leading axis.
# ---------------------------------------------------------------------------

def build_symbol(b, params: CodecParams) -> np.ndarray:
    """The T x L column-orthonormal symbol carrying the payload bits b, or the
    (n, T, L) symbols of an (n, ell) stack of payloads."""
    b = np.asarray(b, dtype=np.uint8)
    if b.ndim not in (1, 2) or b.shape[-1] != params.ell:
        raise ValueError(f"payload must have {params.ell} bits, got {b.shape}")
    stack = b.reshape(-1, params.ell)
    n, T, f = len(stack), params.T, params.f
    rows = np.arange(n)
    xs = _ints_from_bits(stack, (params.ell1,) + params.part_lengths)
    a = _coords_from_ints(xs[:, 1:], params.part_lengths)
    rest = np.ones((n, T), dtype=bool)
    U = np.zeros((n, T, params.L), dtype=np.complex128)
    if params.L == 1:
        p = xs[:, 0]   # zero-based
        U[rows, p, 0] = f
        rest[rows, p] = False
        U[rest, 0] = a.ravel()
        U /= _frobenius(U)[:, None, None]
    else:
        p, q = pair_from_index(xs[:, 0], T)
        half = T - 2
        i_p = (a[:, None, :half].conj() @ a[:, half:, None])[:, 0, 0]    # np.vdot per row
        U[rows, p - 1, 0] = f
        U[rows, p - 1, 1] = _over(-i_p, f)
        U[rows, q - 1, 1] = f
        rest[rows, p - 1] = rest[rows, q - 1] = False
        U[rest] = np.stack([a[:, :half], a[:, half:]], axis=-1).reshape(-1, 2)
        # Exact column orthogonality before scaling: col1^H col2 = -i_p + i_p = 0.
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U if b.ndim == 2 else U[0]


def detect_dominant_pair(Mhat):
    """Indices (1-based, p < q) of the two largest squared row norms of a
    matrix, or arrays of them for an (n, T, L) stack.

    Ties within 1e-12 of each other are broken toward the smaller row index.
    """
    M = np.asarray(Mhat, dtype=np.complex128)
    norms = (np.abs(M) ** 2).sum(axis=-1).reshape(-1, M.shape[-2])
    if not (norms > 0).any(axis=1).all():
        raise ValueError("matrix is zero")
    tie = 1e-12 * np.maximum(norms.max(axis=1), 1.0)
    order = np.argsort(-norms, axis=1, kind="stable")
    top = order[:, :2].copy()
    if norms.shape[1] > 2:
        rows = np.arange(len(norms))
        # Prefer a smaller index when the runner-up is within the tie
        # tolerance: rare, so the scan runs per matrix, only where it moves.
        moves = ((norms[rows, top[:, 1]] - norms[rows, order[:, 2]] <= tie)
                 & (order[:, 2] < top[:, 1]))
        for i in np.flatnonzero(moves):
            for cand in order[i, 2:]:
                if norms[i, top[i, 1]] - norms[i, cand] <= tie[i] and cand < top[i, 1]:
                    top[i, 1] = cand
                else:
                    break
    p, q = top.min(axis=1) + 1, top.max(axis=1) + 1
    if M.ndim == 2:
        return int(p[0]), int(q[0])
    return p.reshape(M.shape[:-2]), q.reshape(M.shape[:-2])


def solve_pilot_inner_product(W: np.ndarray, f: float):
    """Closed-form solution of the one-variable linear equation for the
    coordinate-halves inner product: with C = W^H W,
    i_p = f^2 C_12 / (1 + C_11); per matrix of a stack."""
    C = np.swapaxes(W.conj(), -1, -2) @ W
    return f * f * C[..., 0, 1] / (1.0 + C[..., 0, 0])


def demap_symbol(Ahat, params: CodecParams) -> np.ndarray:
    """Recover the payload bits from any basis of the estimated subspace.

    Ahat is any T x L matrix whose columns span the estimate, or an
    (n, T, L) stack of them: the result is invariant to any invertible right
    factor, so a fitted factor is passed as it is.  Returns the payload bits,
    (n, ell) for a stack.  Raises ValueError for a wrongly shaped or
    non-finite input, and DemapFailure when an estimate is rank deficient or
    cannot correspond to any constellation point.
    """
    A = np.asarray(Ahat, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-2:] != (params.T, params.L):
        raise ValueError(f"estimate must be {params.T} x {params.L}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("estimate contains NaN or Inf entries")
    Q, R = np.linalg.qr(A.reshape(-1, params.T, params.L))
    r = np.abs(np.diagonal(R, axis1=1, axis2=2))
    if (r.min(axis=1) <= RANK_TOL * r.max(axis=1)).any():
        raise DemapFailure("estimate is numerically rank deficient")
    bits = (_demap_rank1 if params.L == 1 else _demap_rank2)(Q, params)
    return bits if A.ndim == 3 else bits[0]


def _demap_rank2(Q: np.ndarray, params: CodecParams) -> np.ndarray:
    """Bits of each orthonormal (T, 2) basis of an (n, T, 2) stack."""
    n, T, f = len(Q), params.T, params.f
    rows = np.arange(n)
    p, q = detect_dominant_pair(Q)
    index = pair_index(p, q, T)
    if (index >= (1 << params.ell1)).any():
        raise DemapFailure("a dominant pair lies outside the injection image")
    A1 = Q[rows[:, None], np.stack([p - 1, q - 1], axis=1)]
    rest = np.ones((n, T), dtype=bool)
    rest[rows, p - 1] = rest[rows, q - 1] = False
    A2 = Q[rest].reshape(n, T - 2, 2)
    # det and |det| as numpy's complex scalars compute them.
    a, b, c, d = A1[:, 0, 0], A1[:, 1, 1], A1[:, 0, 1], A1[:, 1, 0]
    det_re = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    det_im = (a.real * b.imag + a.imag * b.real) - (c.real * d.imag + c.imag * d.real)
    if (np.hypot(det_re, det_im) < DET_TOL * _frobenius(A1) ** 2).any():
        raise DemapFailure("dominant-row block is numerically singular")
    W = A2 @ np.linalg.inv(A1)
    i_p = solve_pilot_inner_product(W, f)
    pilot = np.zeros((n, 2, 2), dtype=np.complex128)
    pilot[:, 0, 0] = pilot[:, 1, 1] = f
    pilot[:, 0, 1] = _over(-i_p, f)
    a = (W @ pilot).transpose(0, 2, 1).reshape(n, -1)   # column 1, then column 2
    return _payload_bits(index, a, params)


# ---------------------------------------------------------------------------
# L = 1 baseline (single dominant entry).
# ---------------------------------------------------------------------------

def _demap_rank1(Q: np.ndarray, params: CodecParams) -> np.ndarray:
    """Bits of each unit-norm (T, 1) estimate of an (n, T, 1) stack."""
    n, T = Q.shape[:2]
    rows = np.arange(n)
    x = Q[:, :, 0]
    p = np.argmax(np.abs(x), axis=1)
    if (p >= (1 << params.ell1)).any():
        raise DemapFailure("dominant index outside the injection image")
    rest = np.ones((n, T), dtype=bool)
    rest[rows, p] = False
    a = x[rest].reshape(n, T - 1) * (params.f / x[rows, p])[:, None]
    return _payload_bits(p, a, params)
