import numpy as np
import pytest

from btdm import tensor_core as tc

from conftest import crandn


def make_term(rng, T1=4, T2=3, N=2, L=2):
    return tc.BlockTerm(A=crandn(rng, T1, L), B=crandn(rng, T2, L), h=crandn(rng, N))


class TestSynthesizeBlockTerm:
    def test_unit_vectors(self):
        T1, T2, N = 3, 4, 2
        e = lambda n, i: np.eye(n)[:, [i]]
        term = tc.BlockTerm(A=e(T1, 0), B=e(T2, 0), h=np.eye(N)[0])
        Y = tc.synthesize_block_term(term)
        expected = np.zeros((T1, T2, N))
        expected[0, 0, 0] = 1.0
        np.testing.assert_allclose(Y, expected)

    def test_zero_channel(self, rng):
        term = tc.BlockTerm(A=crandn(rng, 4, 2), B=crandn(rng, 3, 2), h=np.zeros(2))
        np.testing.assert_array_equal(tc.synthesize_block_term(term), np.zeros((4, 3, 2)))

    def test_triple_loop_oracle(self, rng):
        term = make_term(rng)
        Y = tc.synthesize_block_term(term)
        # Independent brute-force oracle.
        expected = np.zeros((4, 3, 2), dtype=complex)
        for i in range(4):
            for j in range(3):
                for n in range(2):
                    expected[i, j, n] = sum(
                        term.A[i, l] * term.B[j, l] * term.h[n] for l in range(2))
        np.testing.assert_allclose(Y, expected, atol=1e-12)


class TestSynthesizeReceived:
    def test_single_term(self, rng):
        term = make_term(rng)
        model = tc.BTDModel(terms=(term,))
        np.testing.assert_array_equal(
            tc.synthesize_received(model), tc.synthesize_block_term(term))

    def test_two_identical_terms(self, rng):
        term = make_term(rng)
        model = tc.BTDModel(terms=(term, term))
        np.testing.assert_allclose(
            tc.synthesize_received(model), 2 * tc.synthesize_block_term(term))

    def test_summation_oracle(self, rng):
        terms = tuple(make_term(rng) for _ in range(3))
        noise = crandn(rng, 4, 3, 2)
        Y = tc.synthesize_received(tc.BTDModel(terms=terms), noise)
        expected = sum(tc.synthesize_block_term(t) for t in terms) + noise
        np.testing.assert_allclose(Y, expected, atol=1e-12)

    def test_noise_dims_mismatch(self, rng):
        model = tc.BTDModel(terms=(make_term(rng),))
        with pytest.raises(ValueError):
            tc.synthesize_received(model, noise=crandn(rng, 4, 3, 3))

    def test_linearity_over_concatenation(self, rng):
        a = tuple(make_term(rng) for _ in range(2))
        b = tuple(make_term(rng) for _ in range(3))
        Yab = tc.synthesize_received(tc.BTDModel(terms=a + b))
        Ya = tc.synthesize_received(tc.BTDModel(terms=a))
        Yb = tc.synthesize_received(tc.BTDModel(terms=b))
        assert tc.frobenius(Yab - Ya - Yb) <= 1e-10 * tc.frobenius(Yab)


class TestInvariants:
    def test_block_term_scaling_invariance(self, rng):
        # (A, B, h) ~ (a1*A*S, a2*B*S^-T, a3*h) whenever a1*a2*a3 = 1.
        term = make_term(rng, T1=5, T2=4, N=3)
        S = crandn(rng, 2, 2) + 2 * np.eye(2)
        a1, a2 = 0.7 + 0.2j, -1.3 + 0.5j
        a3 = 1.0 / (a1 * a2)
        other = tc.BlockTerm(A=a1 * term.A @ S, B=a2 * term.B @ np.linalg.inv(S).T,
                             h=a3 * term.h)
        Y1, Y2 = tc.synthesize_block_term(term), tc.synthesize_block_term(other)
        assert tc.frobenius(Y1 - Y2) <= 1e-9 * tc.frobenius(Y1)

    def test_norm_product_identity(self, rng):
        term = make_term(rng, T1=6, T2=5, N=4)
        lhs = tc.frobenius(tc.synthesize_block_term(term))
        rhs = np.linalg.norm(term.A @ term.B.T) * np.linalg.norm(term.h)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestValidation:
    def test_rank_deficient_factor_rejected(self, rng):
        A = crandn(rng, 4, 1) @ np.ones((1, 2))  # rank 1, two columns
        with pytest.raises(ValueError):
            tc.BlockTerm(A=A, B=crandn(rng, 3, 2), h=crandn(rng, 2))

    def test_l_bound(self, rng):
        with pytest.raises(ValueError):
            tc.BlockTerm(A=crandn(rng, 2, 2), B=crandn(rng, 3, 2), h=crandn(rng, 2))

    def test_mixed_dims_rejected(self, rng):
        with pytest.raises(ValueError):
            tc.BTDModel(terms=(make_term(rng, T1=4), make_term(rng, T1=5)))

    def test_non_finite_rejected(self, rng):
        Y = crandn(rng, 2, 2, 2)
        Y[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            tc.check_finite(Y)

    def test_finite_check_accepts_any_layout(self, rng):
        Y = crandn(rng, 2, 3, 4)
        for view in (np.asfortranarray(Y), Y[:, :, ::2], Y.transpose(2, 0, 1)):
            assert tc.check_finite(view) is view
        Y[1, 2, 2] = np.inf
        with pytest.raises(ValueError):
            tc.check_finite(Y[:, :, ::2])
