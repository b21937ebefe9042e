"""The stacked codec and start draw against their term-by-term originals.

``codec.build_symbol``, ``codec.demap_symbol`` and ``solver.init_random`` take
a whole trial's terms in one numpy pass. The ``_reference_*`` functions below
are the term-by-term versions they replaced, kept as the oracle: every symbol
and start must equal theirs bit for bit, and every demap must give the same
bits and the same failures.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from btdm import codec, solver
from btdm.codec import (CLAMP_RADIUS, DET_TOL, RANK_TOL, DemapFailure, bits_to_int,
                        cube_split_scalar, int_to_bits)
from btdm.tensor_core import BlockTerm, BTDModel, complex_gaussian

from conftest import crandn

_NORMAL = NormalDist()


# ---------------------------------------------------------------------------
# The term-by-term oracle.
# ---------------------------------------------------------------------------

def _pair_index(p: int, q: int, T: int) -> int:
    return (p - 1) * T - p * (p - 1) // 2 + (q - p - 1)


def _pair_from_index(index: int, T: int) -> tuple[int, int]:
    p = 1
    while index >= T - p:
        index -= T - p
        p += 1
    return p, p + index + 1


def _reference_inverse_cube_split(alpha, L_odd: int, L_even: int) -> tuple[int, int]:
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
    x_odd = min((1 << L_odd) - 1, max(0, int(math.floor(_NORMAL.cdf(w.real) * (1 << L_odd)))))
    x_even = min((1 << L_even) - 1, max(0, int(math.floor(_NORMAL.cdf(w.imag) * (1 << L_even)))))
    return x_odd, x_even


def _coords_from_bits(b2, parts) -> np.ndarray:
    xs, pos = [], 0
    for length in parts:
        xs.append(bits_to_int(b2[pos:pos + length]))
        pos += length
    return np.array([cube_split_scalar(xs[2 * t], xs[2 * t + 1], parts[2 * t], parts[2 * t + 1])
                     for t in range(len(parts) // 2)], dtype=np.complex128)


def _bits_from_coords(a: np.ndarray, parts) -> np.ndarray:
    bits = []
    for t, alpha in enumerate(a):
        x_odd, x_even = _reference_inverse_cube_split(alpha, parts[2 * t], parts[2 * t + 1])
        bits.append(int_to_bits(x_odd, parts[2 * t]))
        bits.append(int_to_bits(x_even, parts[2 * t + 1]))
    return np.concatenate(bits) if bits else np.zeros(0, dtype=np.uint8)


def _reference_detect_dominant_pair(M: np.ndarray) -> tuple[int, int]:
    norms = np.sum(np.abs(M) ** 2, axis=1)
    tie = 1e-12 * max(norms.max(), 1.0)
    order = sorted(range(len(norms)), key=lambda i: (-norms[i], i))
    top = [order[0], order[1]]
    for cand in order[2:]:
        if norms[top[1]] - norms[cand] <= tie and cand < top[1]:
            top[1] = cand
        else:
            break
    p, q = sorted(t + 1 for t in top)
    return p, q


def _reference_build_symbol(b, params) -> np.ndarray:
    b = np.asarray(b, dtype=np.uint8)
    T, f = params.T, params.f
    a = _coords_from_bits(b[params.ell1:], params.part_lengths)
    if params.L == 1:
        p = bits_to_int(b[:params.ell1])
        x = np.zeros((T, 1), dtype=np.complex128)
        x[p, 0] = f
        x[[i for i in range(T) if i != p], 0] = a
        x /= np.linalg.norm(x)
        return x
    p, q = _pair_from_index(bits_to_int(b[:params.ell1]), T)
    half = T - 2
    i_p = complex(np.vdot(a[:half], a[half:]))
    U = np.zeros((T, 2), dtype=np.complex128)
    U[p - 1] = (f, -i_p / f)
    U[q - 1] = (0.0, f)
    rest = [i for i in range(T) if i not in (p - 1, q - 1)]
    U[rest, 0] = a[:half]
    U[rest, 1] = a[half:]
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return U


def _reference_demap_symbol(Ahat, params) -> np.ndarray:
    A = np.asarray(Ahat, dtype=np.complex128)
    Q, R = np.linalg.qr(A)
    r = np.abs(R.diagonal())
    if r.min() <= RANK_TOL * r.max():
        raise DemapFailure("estimate is numerically rank deficient")
    T, f = params.T, params.f
    if params.L == 1:
        x = Q.reshape(-1)
        p = int(np.argmax(np.abs(x)))
        if p >= (1 << params.ell1):
            raise DemapFailure("dominant index outside the injection image")
        a = np.delete(x, p) * (f / x[p])
        return np.concatenate([int_to_bits(p, params.ell1),
                               _bits_from_coords(a, params.part_lengths)])
    p, q = _reference_detect_dominant_pair(Q)
    idx = _pair_index(p, q, T)
    if idx >= (1 << params.ell1):
        raise DemapFailure("pair outside the injection image")
    A1 = Q[[p - 1, q - 1], :]
    A2 = np.delete(Q, [p - 1, q - 1], axis=0)
    det = A1[0, 0] * A1[1, 1] - A1[0, 1] * A1[1, 0]
    if abs(det) < DET_TOL * np.linalg.norm(A1) ** 2:
        raise DemapFailure("dominant-row block is numerically singular")
    W = A2 @ np.linalg.inv(A1)
    C = W.conj().T @ W
    i_p = complex(f * f * C[0, 1] / (1.0 + C[0, 0]))
    A2_rec = W @ np.array([[f, -i_p / f], [0.0, f]], dtype=np.complex128)
    a = np.concatenate([A2_rec[:, 0], A2_rec[:, 1]])
    return np.concatenate([int_to_bits(idx, params.ell1),
                           _bits_from_coords(a, params.part_lengths)])


def _reference_init_random(dims, K: int, L: int, seed) -> BTDModel:
    rng = np.random.default_rng(seed)
    T1, T2, N = dims
    terms = []
    for _ in range(K):
        A = np.linalg.qr(complex_gaussian(rng, T1, L))[0]
        B = np.linalg.qr(complex_gaussian(rng, T2, L))[0]
        terms.append(BlockTerm(A=A, B=B, h=complex_gaussian(rng, N)))
    return BTDModel(terms=tuple(terms))


def _reference_outcome(estimate, params):
    """The oracle's bits for one estimate, or None on a demap failure."""
    try:
        return _reference_demap_symbol(estimate, params)
    except DemapFailure:
        return None


# ---------------------------------------------------------------------------
# Points: (T, ell) of both sub-constellations at the desk and full-scale
# points, and one payload that leaves coordinate parts empty.
# ---------------------------------------------------------------------------

DESK, FULL = ((10, 37), (8, 28)), ((30, 124), (24, 96))
ZERO_PARTS = ((10, 20),)    # ell1 = 5: 15 bits over 32 parts, 17 of them empty
POINTS = {"desk": DESK, "full": FULL, "zero-parts": ZERO_PARTS}


def codecs(point, L, f=2.0):
    return [codec.CodecParams(T, L, ell, f=f) for T, ell in POINTS[point]]


def payloads(rng, n, params):
    return rng.integers(0, 2, (n, params.ell), dtype=np.uint8)


class TestStackedBuild:
    @pytest.mark.parametrize("n", [1, 4, 7, 25])
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_equals_term_by_term(self, point, L, n):
        rng = np.random.default_rng((n, L, len(point)))
        for params in codecs(point, L) + codecs(point, L, f=2.5):
            for _ in range(4):
                b = payloads(rng, n, params)
                U = codec.build_symbol(b, params)
                assert U.shape == (n, params.T, L)
                for k in range(n):
                    np.testing.assert_array_equal(U[k], _reference_build_symbol(b[k], params))
                    np.testing.assert_array_equal(codec.build_symbol(b[k], params), U[k])

    def test_zero_length_parts_give_alpha_zero(self):
        # A cell of two empty parts is w = 0, so alpha = 0 exactly.
        params = codec.CodecParams(10, 2, 20)
        b = np.zeros((3, params.ell), dtype=np.uint8)
        U = codec.build_symbol(b, params)
        assert not np.any(U[0, 2:, 1])       # pair (1, 2); alphas 8 to 15 are 0
        for k in range(3):
            np.testing.assert_array_equal(U[k], _reference_build_symbol(b[k], params))

    def test_payload_shape_checked(self):
        params = codec.CodecParams(10, 2, 37)
        for bad in (np.zeros(36), np.zeros((2, 36)), np.zeros((2, 2, 37))):
            with pytest.raises(ValueError):
                codec.build_symbol(bad, params)


class TestStackedStart:
    @pytest.mark.parametrize("K", [1, 4, 7, 25])
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("dims", [(10, 8, 8), (30, 24, 25)], ids=["desk", "full"])
    def test_equals_term_by_term(self, dims, L, K):
        for seed in ((3, 0), (3, 4), (11, 1, 2)):
            got = solver.init_random(dims, K, L, seed=seed)
            want = _reference_init_random(dims, K, L, seed)
            assert len(got) == K
            for g, w in zip(got.terms, want.terms):
                np.testing.assert_array_equal(g.A, w.A)
                np.testing.assert_array_equal(g.B, w.B)
                np.testing.assert_array_equal(g.h, w.h)


def noisy_estimates(rng, params, n):
    """n estimates of random symbols: each under a random invertible right
    factor and complex scale, with noise of a random level between 1e-4 and
    3 (at the top, most estimates lose their dominant pair)."""
    U = codec.build_symbol(payloads(rng, n, params), params)
    L = params.L
    S = crandn(rng, n, L, L) + 2 * np.eye(L)
    c = crandn(rng, n)[:, None, None]
    sigma = 10.0 ** rng.uniform(-4, 0.5, n)[:, None, None]
    return c * (U @ S + sigma * crandn(rng, n, params.T, L))


def special_estimates(rng, params):
    """Estimates that each end at one branch of the demap."""
    T, L = params.T, params.L
    out = [np.zeros((T, L)),                                    # rank 0
           crandn(rng, T, 1) @ np.ones((1, L)),                 # parallel columns
           crandn(rng, T, L) * 1e-300]                          # tiny but full rank
    M = np.zeros((T, L), dtype=complex)
    if L == 2:
        M[T - 2, 0], M[T - 1, 1] = 1.0, 1.0                     # pair (T-1, T): outside image
        out.append(M)
        S = 0.1 * crandn(rng, T, 2)
        S[1] = S[4] = (3.0, 3.0)                                # dominant block of rank 1
        out.append(S)
        c = 0.1 * crandn(rng, T, 2)
        c[2], c[5], c[7] = (2.0, 1.0), (1.0, 2.0), (1.0, 2.0)   # rows 6 and 8 tie exactly
        out.append(c)
        W = crandn(rng, T, 2)
        W[0], W[1] = (1.0, 0.0), (0.0, 1.0)
        W[2:] *= 40.0 / np.abs(W[2:]).max()                     # |alpha| >= 1: clamped
        W[0], W[1] = (60.0, 0.0), (0.0, 60.0)
        out.append(W)
    else:
        M[T - 1, 0] = 1.0                                       # index T-1: outside image
        out.append(M)
        x = 0.01 * crandn(rng, T, 1)
        x[0] = 1.0
        x[3] = 1.2 * np.exp(0.3j)                               # |alpha| >= 1: clamped
        out.append(x)
    return out


def assert_demap_agrees(params, estimates):
    """The stacked demap of the stack gives the oracle's bits, or raises
    DemapFailure when any estimate fails; the estimates the oracle demaps
    give its bits as a stack, and each failing one fails alone."""
    estimates = np.asarray(estimates, dtype=np.complex128)
    want = [_reference_outcome(e, params) for e in estimates]
    ok = [w is not None for w in want]
    if all(ok):
        np.testing.assert_array_equal(codec.demap_symbol(estimates, params), np.stack(want))
        return 0
    with pytest.raises(DemapFailure):
        codec.demap_symbol(estimates, params)
    if any(ok):
        np.testing.assert_array_equal(codec.demap_symbol(estimates[ok], params),
                                      np.stack([w for w in want if w is not None]))
    for e, w in zip(estimates, want):
        if w is None:
            with pytest.raises(DemapFailure):
                codec.demap_symbol(e, params)
    return len(ok) - sum(ok)


class TestStackedDemap:
    @pytest.mark.parametrize("point,L,count", [
        ("desk", 2, 10_000), ("full", 2, 10_000), ("zero-parts", 2, 2_000),
        ("desk", 1, 10_000), ("full", 1, 10_000), ("zero-parts", 1, 2_000)])
    def test_noisy_estimates(self, point, L, count):
        # count estimates per point, over its sub-constellations, and a
        # tenth as many again with another pilot constant f.
        rng = np.random.default_rng((L, count, len(point)))
        runs = [(params, count // len(POINTS[point])) for params in codecs(point, L)]
        runs.append((codecs(point, L, f=2.5)[0], count // 10))
        tried = failed = 0
        for params, estimates in runs:
            for n in (1, 4, 7, 25) * -(-estimates // 37):
                failed += assert_demap_agrees(params, noisy_estimates(rng, params, n))
                tried += n
        # The noise levels reach both branches often.
        assert count <= tried - count // 10 and 0.005 * tried < failed < 0.8 * tried, failed

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_special_estimates(self, point, L):
        rng = np.random.default_rng(7)
        for params in codecs(point, L):
            special = special_estimates(rng, params)
            clean = codec.build_symbol(payloads(rng, 1, params), params)[0]
            for e in special:
                assert_demap_agrees(params, [e])
                assert_demap_agrees(params, [clean, e, clean])   # a failure off the front
            assert_demap_agrees(params, special)
            assert_demap_agrees(params, special[::-1])
            assert_demap_agrees(params, special[-1:] * 3)

    def test_special_estimates_take_their_branch(self):
        # Each planted estimate fails, or demaps, where it was built to.
        params = codecs("desk", 2)[0]
        outcomes = [_reference_outcome(e, params)
                    for e in special_estimates(np.random.default_rng(7), params)]
        assert [o is None for o in outcomes] == [True, True, False, True, True, False, False]

    def test_tie_scan_moves_the_runner_up(self):
        # Zero-based rows 9, 8 and 4 tie within 1e-12. Exactly tied, they
        # sort by index and nothing moves; in matrix 1 row 9 leads by 2e-13,
        # and the scan moves the runner-up to row 8, then to row 4, and stops
        # at the gap to row 2; in matrix 2 row 4 drops out, and it stops at 8.
        M = np.zeros((3, 10, 2), dtype=complex)
        M[:, 0, 0] = 2.0
        M[:, 9, 1] = M[:, 8, 1] = M[:, 4, 1] = 1.0
        M[:, 2, 1] = 0.9
        M[1:, 9, 1] += 1e-13
        M[1, 4, 1] -= 1e-13
        M[2, 4, 1] = 0.5
        got = codec.detect_dominant_pair(M)
        want = [_reference_detect_dominant_pair(m) for m in M]
        assert [(int(p), int(q)) for p, q in zip(*got)] == want == [(1, 5), (1, 5), (1, 9)]

    def test_a_gap_of_exactly_the_tolerance_is_a_tie(self):
        # Norms 1, 2e-12 and 1e-12 in zero-based rows 1, 9 and 0, all exact:
        # row 0 trails the runner-up by the tolerance itself, and replaces it.
        M = np.zeros((2, 10, 2), dtype=complex)
        M[:, 1, 0], M[:, 9], M[:, 0, 0] = 1.0, (1e-6, 1e-6), 1e-6
        assert _reference_detect_dominant_pair(M[0]) == (1, 2)
        assert codec.detect_dominant_pair(M[0]) == (1, 2)
        assert [(int(p), int(q)) for p, q in zip(*codec.detect_dominant_pair(M))] == [(1, 2)] * 2

    def test_dominant_pairs_of_near_ties(self):
        rng = np.random.default_rng(5)
        M = crandn(rng, 2000, 8, 2)
        n = np.sqrt(np.sum(np.abs(M) ** 2, axis=2))
        # Copy a row's norm onto up to 4 others, to within 1e-13 relative.
        for i in range(len(M)):
            rows = rng.choice(8, rng.integers(2, 6), replace=False)
            scale = n[i, rows[0]] / n[i, rows] * (1 + 1e-13 * rng.uniform(-1, 1, len(rows)))
            M[i, rows] *= scale[:, None]
        got = codec.detect_dominant_pair(M)
        assert [(int(p), int(q)) for p, q in zip(*got)] == [
            _reference_detect_dominant_pair(m) for m in M]


class TestStackedInverseCubeSplit:
    def test_random_and_boundary_points(self):
        # Points on and next to the cell boundaries, where a last-bit
        # difference in log or erf would move a cell, plus |alpha| >= 1 and 0.
        rng = np.random.default_rng(17)
        alphas, lengths = [0j, 1.0, -1j, 1 + 1e-16, 3 - 4j, CLAMP_RADIUS], []
        for bits in (0, 1, 2, 5, 12, 24):
            edges = [_NORMAL.inv_cdf(j / 2 ** bits) for j in range(1, min(2 ** bits, 64))]
            for w_re in edges + list(rng.normal(0, 2, 40)):
                for w_im in (rng.normal(0, 2), edges[0] if edges else 0.0):
                    w = complex(w_re, w_im) or 1e-300
                    e = math.exp(-abs(w) ** 2 / 2)
                    alpha = math.sqrt((1 - e) / (1 + e)) / abs(w) * w
                    for nudge in (1.0, 1 + 2 ** -52, 1 - 2 ** -52):
                        alphas.append(alpha * nudge)
            lengths += [bits] * (len(alphas) - len(lengths))
        alphas += list(crandn(rng, 20_000) * rng.uniform(0, 1.2, 20_000))
        lengths += list(rng.integers(0, 25, len(alphas) - len(lengths)))
        alphas, lengths = np.array(alphas), np.array(lengths)
        evens = lengths[::-1].copy()
        x_odd, x_even = codec.inverse_cube_split(alphas, lengths, evens)
        want = [_reference_inverse_cube_split(a, int(lo), int(le))
                for a, lo, le in zip(alphas, lengths, evens)]
        assert list(zip(x_odd.tolist(), x_even.tolist())) == want
