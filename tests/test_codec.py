import math

import numpy as np
import pytest

from btdm import codec

from conftest import crandn, random_unitary, subspace_distance


class TestBitBudget:
    def test_full_scale_symbol_one(self):
        # T=30, ell=124: ell1 = floor(log2(435)) = 8, 116 bits over 112 parts.
        ell1, ell2, parts = codec.bit_budget(30, 2, 124)
        assert (ell1, ell2) == (8, 116)
        assert len(parts) == 112
        assert parts[:4] == (2, 2, 2, 2) and set(parts[4:]) == {1}

    def test_full_scale_symbol_two(self):
        ell1, ell2, parts = codec.bit_budget(24, 2, 96)
        assert (ell1, ell2) == (8, 88)
        assert parts == (1,) * 88

    def test_small(self):
        ell1, ell2, parts = codec.bit_budget(4, 2, 10)
        assert (ell1, ell2) == (2, 8)
        assert parts == (1,) * 8

    def test_rank1(self):
        ell1, _, parts = codec.bit_budget(8, 1, 10)
        assert ell1 == 3
        assert len(parts) == 14

    def test_payload_too_small(self):
        with pytest.raises(ValueError):
            codec.bit_budget(30, 2, 5)

    def test_zero_length_parts_allowed(self):
        _, ell2, parts = codec.bit_budget(10, 2, 20)
        assert sum(parts) == ell2 and 0 in parts

    def test_bad_f(self):
        with pytest.raises(ValueError):
            codec.CodecParams(4, 2, 10, f=1.2)

    def test_longest_part_round_trips(self):
        # The extreme and central cells of both coordinates, at the longest
        # part bit_budget allows, come back as the cell they started from.
        b = codec.MAX_PART_BITS
        n = 1 << b
        cells = [*range(4), *range(n // 2 - 2, n // 2 + 2), *range(n - 4, n)]
        for lo, le in ((b, b), (b, b - 1)):
            for xo in cells:
                for xe in (x >> (b - le) for x in cells):
                    alpha = codec.cube_split_scalar(xo, xe, lo, le)
                    assert codec.inverse_cube_split(alpha, lo, le) == (xo, xe)

    def test_longer_part_is_rejected(self):
        # T=3, L=2: ell1 = 1 and 4 coordinate parts.
        _, _, parts = codec.bit_budget(3, 2, 1 + 4 * codec.MAX_PART_BITS)
        assert parts == (codec.MAX_PART_BITS,) * 4
        with pytest.raises(ValueError, match="cube-split"):
            codec.bit_budget(3, 2, 2 + 4 * codec.MAX_PART_BITS)

    def test_params_derive_the_budget(self):
        params = codec.CodecParams(30, 2, 124)
        assert (params.ell1, params.ell2, params.part_lengths) == codec.bit_budget(30, 2, 124)
        with pytest.raises(TypeError):
            codec.CodecParams(30, 2, 124, ell1=8)


class TestPairInjection:
    def test_lexicographic_t4(self):
        expected = [(1, 2), (1, 3), (1, 4), (2, 3)]
        for idx, pq in enumerate(expected):
            assert codec.pair_from_index(idx, 4) == pq
            assert codec.pair_index(*pq, 4) == idx

    def test_first_pair_t30(self):
        assert codec.pair_from_index(0, 30) == (1, 2)

    def test_roundtrip_full_image_t30(self):
        for v in range(1 << 8):
            assert codec.pair_index(*codec.pair_from_index(v, 30), 30) == v
        every = np.arange(30 * 29 // 2)
        np.testing.assert_array_equal(codec.pair_index(*codec.pair_from_index(every, 30), 30),
                                      every)

    def test_pair_outside_image_is_demap_failure(self):
        # (29, 30) has lexicographic index 434 >= 2^8.
        M = np.zeros((30, 2))
        M[28, 0] = M[29, 1] = 1.0
        with pytest.raises(codec.DemapFailure, match="injection image"):
            codec.demap_symbol(M, codec.CodecParams(30, 2, 124))


def normal_quantile(p):
    """Standard normal quantile by bisection on the CDF 0.5 * erfc(-q / sqrt(2))."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCubeSplit:
    def test_quantile_oracle(self):
        # Independent oracle: quantiles by bisection, then the closed form
        # at every cell centre of parts up to 8 bits.
        quantiles = {(b, x): normal_quantile((2 * x + 1) / 2 ** (b + 1))
                     for b in range(9) for x in range(1 << b)}
        for (lo, xo), qo in quantiles.items():
            for (le, xe), qe in quantiles.items():
                w = complex(qo, qe)
                alpha = codec.cube_split_scalar(xo, xe, lo, le)
                e = math.exp(-abs(w) ** 2 / 2)
                expected = math.sqrt((1 - e) / (1 + e)) * w / abs(w)
                assert abs(alpha - expected) <= 1e-12, (lo, xo, le, xe)
        assert codec.cube_split_scalar(0, 0, 1, 1).real == pytest.approx(-0.3344, abs=5e-5)

    def test_negation_symmetry(self):
        assert codec.cube_split_scalar(1, 1, 1, 1) == pytest.approx(
            -codec.cube_split_scalar(0, 0, 1, 1))

    @pytest.mark.parametrize("lo,le", [(1, 1), (2, 3), (0, 2), (3, 3)])
    def test_inside_unit_disc(self, lo, le):
        for xo in range(1 << lo):
            for xe in range(1 << le):
                assert abs(codec.cube_split_scalar(xo, xe, lo, le)) < 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            codec.cube_split_scalar(2, 0, 1, 1)

    @pytest.mark.parametrize("lo,le", [(1, 1), (2, 2), (3, 3), (3, 1)])
    def test_inverse_roundtrip(self, lo, le):
        for xo in range(1 << lo):
            for xe in range(1 << le):
                alpha = codec.cube_split_scalar(xo, xe, lo, le)
                assert codec.inverse_cube_split(alpha, lo, le) == (xo, xe)

    def test_perturbed_stays_in_cell(self):
        alpha = codec.cube_split_scalar(0, 0, 2, 2)
        for delta in (1e-3, -1e-3, 1e-3j, -1e-3j):
            # Oracle: exhaustive nearest-cell check over all cell centers.
            perturbed = alpha + delta
            centers = {(xo, xe): codec.cube_split_scalar(xo, xe, 2, 2)
                       for xo in range(4) for xe in range(4)}
            nearest = min(centers, key=lambda k: abs(centers[k] - perturbed))
            assert codec.inverse_cube_split(perturbed, 2, 2) == nearest == (0, 0)

    def test_near_boundary_maps_to_corner_cell(self):
        # Close to the disc boundary the back-mapped point has a huge radius,
        # so both coordinates saturate at their extreme quantile cells.
        assert codec.inverse_cube_split(0.999 * (1 - 1j) / math.sqrt(2), 2, 2) == (3, 0)

    def test_clamp_outside_disc(self):
        xo, xe = codec.inverse_cube_split(1.5 + 0.5j, 2, 2)
        assert 0 <= xo < 4 and 0 <= xe < 4


class TestBuildSymbol:
    def test_t4_all_zero_coordinates(self):
        params = codec.CodecParams(4, 2, 10)
        b = np.zeros(10, dtype=np.uint8)  # pair index 0 -> (1, 2)
        U = codec.build_symbol(b, params)
        # Rows 3, 4 hold the (0,0)-cell scalar in both columns (oracle below).
        alpha = codec.cube_split_scalar(0, 0, 1, 1)
        i_p = np.conj(alpha) * alpha * 2
        raw = np.array([[2.0, -i_p / 2.0], [0.0, 2.0],
                        [alpha, alpha], [alpha, alpha]], dtype=complex)
        raw /= np.linalg.norm(raw, axis=0, keepdims=True)
        np.testing.assert_allclose(U, raw, atol=1e-12)
        assert np.linalg.norm(U.conj().T @ U - np.eye(2)) <= 1e-10

    def test_unitarity_random_payloads(self, rng):
        params = codec.CodecParams(7, 2, 16)
        for _ in range(50):
            b = rng.integers(0, 2, 16).astype(np.uint8)
            U = codec.build_symbol(b, params)
            assert np.linalg.norm(U.conj().T @ U - np.eye(2)) <= 1e-10

    def test_full_scale_shape(self, rng):
        params = codec.CodecParams(30, 2, 124)
        b = rng.integers(0, 2, 124).astype(np.uint8)
        assert codec.build_symbol(b, params).shape == (30, 2)

    def test_dominance_margin(self, rng):
        params = codec.CodecParams(6, 2, 12)
        for _ in range(50):
            b = rng.integers(0, 2, 12).astype(np.uint8)
            U = codec.build_symbol(b, params)
            p, q = codec.pair_from_index(codec.bits_to_int(b[:params.ell1]), 6)
            norms = np.sum(np.abs(U) ** 2, axis=1)
            dom = {p - 1, q - 1}
            assert min(norms[i] for i in dom) > max(
                norms[i] for i in range(6) if i not in dom)

    def test_column_orthogonality(self, rng):
        params = codec.CodecParams(8, 2, 20)
        b = rng.integers(0, 2, 20).astype(np.uint8)
        U = codec.build_symbol(b, params)
        assert abs(np.vdot(U[:, 0], U[:, 1])) <= 1e-14


class TestDetectDominantPair:
    def test_constructed_symbol(self, rng):
        params = codec.CodecParams(6, 2, 12)
        idx = codec.pair_index(2, 5, 6)
        b = np.concatenate([codec.int_to_bits(idx, params.ell1),
                            rng.integers(0, 2, params.ell2).astype(np.uint8)])
        U = codec.build_symbol(b, params)
        assert codec.detect_dominant_pair(U) == (2, 5)

    def test_rotation_scale_invariance(self, rng):
        params = codec.CodecParams(6, 2, 12)
        idx = codec.pair_index(2, 5, 6)
        b = np.concatenate([codec.int_to_bits(idx, params.ell1),
                            rng.integers(0, 2, params.ell2).astype(np.uint8)])
        U = codec.build_symbol(b, params)
        for _ in range(100):
            R = random_unitary(rng, 2)
            c = 0.37 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert codec.detect_dominant_pair(c * U @ R) == (2, 5)

    def test_region_representative(self):
        # The region representative of (1, 3): ones at (1, 1) and (3, 2).
        M = np.zeros((5, 2), dtype=complex)
        M[0, 0] = M[2, 1] = 1.0
        assert codec.detect_dominant_pair(M) == (1, 3)

    def test_tie_break_smaller_index(self):
        M = np.zeros((4, 2), dtype=complex)
        M[0, 0] = 1.0
        M[1, 1] = 0.5
        M[2, 0] = 0.5  # exact tie with row 2; smaller index wins deterministically
        assert codec.detect_dominant_pair(M) == (1, 2)


class TestDemapSymbol:
    @pytest.mark.parametrize("T,ell", [(4, 10), (10, 24), (30, 124)])
    def test_noiseless_roundtrip(self, rng, T, ell):
        params = codec.CodecParams(T, 2, ell)
        for _ in range(20):
            b = rng.integers(0, 2, ell).astype(np.uint8)
            bits = codec.demap_symbol(codec.build_symbol(b, params), params)
            np.testing.assert_array_equal(bits, b)

    def test_rotation_scale_invariance(self, rng):
        # Any basis of the subspace demaps: a scaled, invertible but
        # non-unitary right factor is passed as it is, without a QR.
        params = codec.CodecParams(10, 2, 24)
        for _ in range(50):
            b = rng.integers(0, 2, 24).astype(np.uint8)
            U = codec.build_symbol(b, params)
            S = crandn(rng, 2, 2) + 2 * np.eye(2)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            bits = codec.demap_symbol(c * U @ S, params)
            np.testing.assert_array_equal(bits, b)

    @pytest.mark.parametrize("L", [1, 2])
    def test_malformed_estimate_raises(self, rng, L):
        params = codec.CodecParams(6, L, 12)
        nan = crandn(rng, 6, L)
        nan[2, 0] = np.nan
        for bad in (crandn(rng, 5, L), crandn(rng, 6, L + 1), nan):
            with pytest.raises(ValueError):
                codec.demap_symbol(bad, params)

    def test_rank_deficient_estimate_is_demap_failure(self, rng):
        params = codec.CodecParams(6, 2, 12)
        for bad in (np.zeros((6, 2)), crandn(rng, 6, 1) @ np.ones((1, 2))):
            with pytest.raises(codec.DemapFailure):
                codec.demap_symbol(bad, params)
        with pytest.raises(codec.DemapFailure):
            codec.demap_symbol(np.zeros((6, 1)), codec.CodecParams(6, 1, 12))

    def test_zero_w_gives_zero_inner_product(self):
        assert codec.solve_pilot_inner_product(np.zeros((3, 2)), 2.0) == 0j

    def test_exhaustive_small(self):
        params = codec.CodecParams(4, 2, 10)
        for v in range(1 << 10):
            b = codec.int_to_bits(v, 10)
            bits = codec.demap_symbol(codec.build_symbol(b, params), params)
            np.testing.assert_array_equal(bits, b)

    def test_distinct_payloads_have_positive_distance(self, rng):
        params = codec.CodecParams(6, 2, 12)
        for _ in range(50):
            b1 = rng.integers(0, 2, 12).astype(np.uint8)
            b2 = rng.integers(0, 2, 12).astype(np.uint8)
            if np.array_equal(b1, b2):
                continue
            d = subspace_distance(codec.build_symbol(b1, params),
                                  codec.build_symbol(b2, params))
            assert d > 1e-6


class TestRank1:
    def test_roundtrip(self, rng):
        params = codec.CodecParams(8, 1, 10)
        assert params.ell1 == 3
        for _ in range(50):
            b = rng.integers(0, 2, 10).astype(np.uint8)
            bits = codec.demap_symbol(codec.build_symbol(b, params), params)
            np.testing.assert_array_equal(bits, b)

    def test_phase_rotation_invariance(self, rng):
        params = codec.CodecParams(8, 1, 10)
        for _ in range(50):
            b = rng.integers(0, 2, 10).astype(np.uint8)
            x = codec.build_symbol(b, params)
            # Any nonzero complex scale, not only a phase: the 1 x 1 right factor.
            c = rng.standard_normal() + 1j * rng.standard_normal()
            bits = codec.demap_symbol(c * x, params)
            np.testing.assert_array_equal(bits, b)

    def test_dominant_index_outside_image(self):
        params = codec.CodecParams(5, 1, 6)  # ell1 = 2, indices 0..3
        x = np.zeros((5, 1), dtype=complex)
        x[4, 0] = 1.0
        with pytest.raises(codec.DemapFailure):
            codec.demap_symbol(x, params)
