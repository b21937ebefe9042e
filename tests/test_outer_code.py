import numpy as np
import pytest

from btdm.outer_code import DecodeStatus, OuterCode


def flip(word, positions):
    out = np.array(word, dtype=np.uint8)
    for p in positions:
        out[p] ^= 1
    return out


class TestParameters:
    def test_short_code_220_204(self):
        code = OuterCode.from_lengths(220, 204, m=8, t=2)
        p = code.params
        assert (p.n, p.k) == (255, 239)
        assert (p.n_eff, p.k_eff, p.shorten) == (220, 204, 35)

    def test_long_code_440_395(self):
        code = OuterCode.from_lengths(440, 395, m=9, t=5)
        p = code.params
        assert (p.n, p.k) == (511, 466)
        assert (p.n_eff, p.k_eff, p.shorten) == (440, 395, 71)

    def test_desk_code_65_20(self):
        code = OuterCode.from_lengths(65, 20, m=9, t=5)
        assert code.params.shorten == 446

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            OuterCode.from_lengths(221, 204, m=8, t=2)

    def test_bad_shorten(self):
        with pytest.raises(ValueError):
            OuterCode(4, 2, shorten=400)


class TestEncode:
    def test_systematic_prefix(self, rng):
        code = OuterCode(4, 2)  # (15, 7)
        payload = rng.integers(0, 2, 7).astype(np.uint8)
        cw = code.encode(payload)
        assert cw.shape == (15,)
        np.testing.assert_array_equal(cw[:7], payload)

    def test_parity_by_polynomial_division_oracle(self, rng):
        # Independent oracle: long division of x^(n-k) * payload(x) by g(x)
        # using numpy polynomial coefficient arrays over GF(2).
        code = OuterCode(4, 2)
        g_int = code._g
        g = np.array([(g_int >> i) & 1 for i in range(g_int.bit_length())][::-1],
                     dtype=np.uint8)
        for _ in range(20):
            payload = rng.integers(0, 2, 7).astype(np.uint8)
            rem = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])
            for i in range(len(rem) - len(g) + 1):
                if rem[i]:
                    rem[i:i + len(g)] ^= g
            np.testing.assert_array_equal(code.encode(payload)[7:], rem[-8:])

    def test_linearity(self, rng):
        code = OuterCode(4, 2)
        a = rng.integers(0, 2, 7).astype(np.uint8)
        b = rng.integers(0, 2, 7).astype(np.uint8)
        np.testing.assert_array_equal(
            code.encode(a ^ b), code.encode(a) ^ code.encode(b))

    def test_zero_payload(self):
        code = OuterCode(4, 2)
        np.testing.assert_array_equal(code.encode(np.zeros(7, dtype=np.uint8)),
                                      np.zeros(15, dtype=np.uint8))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            OuterCode(4, 2).encode(np.zeros(8, dtype=np.uint8))

    def test_golden_vector(self):
        # Frozen output for the (15, 7) t=2 code, payload 1011001.
        code = OuterCode(4, 2)
        cw = code.encode(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8))
        got = "".join(map(str, cw))
        assert got == "101100100011110"


class TestDecode:
    def test_clean_word_ok(self, rng):
        code = OuterCode(4, 2)
        payload = rng.integers(0, 2, 7).astype(np.uint8)
        res = code.decode(code.encode(payload))
        assert res.status is DecodeStatus.OK and res.valid
        np.testing.assert_array_equal(res.payload, payload)

    def test_exhaustive_single_bit(self):
        code = OuterCode(4, 2)
        payload = np.array([1, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
        cw = code.encode(payload)
        for pos in range(15):
            res = code.decode(flip(cw, [pos]))
            assert res.status is DecodeStatus.CORRECTED
            assert res.corrected_bits == 1
            np.testing.assert_array_equal(res.payload, payload)

    def test_double_bit_corrected(self, rng):
        code = OuterCode(4, 2)
        for _ in range(50):
            payload = rng.integers(0, 2, 7).astype(np.uint8)
            cw = code.encode(payload)
            pos = rng.choice(15, size=2, replace=False)
            res = code.decode(flip(cw, pos))
            assert res.status is DecodeStatus.CORRECTED
            np.testing.assert_array_equal(res.payload, payload)

    def test_t_errors_shortened_production_code(self, rng):
        code = OuterCode.from_lengths(220, 204, m=8, t=2)
        payload = rng.integers(0, 2, 204).astype(np.uint8)
        cw = code.encode(payload)
        res = code.decode(flip(cw, rng.choice(220, size=2, replace=False)))
        assert res.status is DecodeStatus.CORRECTED
        np.testing.assert_array_equal(res.payload, payload)

    def test_beyond_t_detected(self, rng):
        code = OuterCode.from_lengths(220, 204, m=8, t=2)
        payload = rng.integers(0, 2, 204).astype(np.uint8)
        cw = code.encode(payload)
        res = code.decode(flip(cw, rng.choice(220, size=5, replace=False)))
        assert res.status is DecodeStatus.UNCORRECTABLE
        assert not res.valid

    def test_t5_code(self, rng):
        code = OuterCode.from_lengths(440, 395, m=9, t=5)
        payload = rng.integers(0, 2, 395).astype(np.uint8)
        cw = code.encode(payload)
        res = code.decode(flip(cw, rng.choice(440, size=5, replace=False)))
        assert res.status is DecodeStatus.CORRECTED
        np.testing.assert_array_equal(res.payload, payload)

    def test_detection_rate_beyond_t(self, rng):
        # t+3 random flips on the t=5 code should essentially never slip through.
        code = OuterCode.from_lengths(65, 20, m=9, t=5)
        payload = rng.integers(0, 2, 20).astype(np.uint8)
        cw = code.encode(payload)
        for _ in range(100):
            res = code.decode(flip(cw, rng.choice(65, size=8, replace=False)))
            if res.status is not DecodeStatus.UNCORRECTABLE:
                # A miscorrection must still land on a codeword, but never
                # silently return the original payload unchanged.
                assert not np.array_equal(res.payload, payload)

    def test_random_words_mostly_rejected(self, rng):
        code = OuterCode.from_lengths(65, 20, m=9, t=5)
        accepted = sum(
            code.decode(rng.integers(0, 2, 65).astype(np.uint8)).valid
            for _ in range(300))
        assert accepted == 0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            OuterCode(4, 2).decode(np.zeros(14, dtype=np.uint8))


def all_words(width):
    """Every width-bit word, MSB first, one per row."""
    return ((np.arange(1 << width)[:, None] >> np.arange(width)[::-1]) & 1).astype(np.uint8)


@pytest.mark.parametrize("t,shorten", [(2, 0), (2, 2), (3, 0)], ids=["0", "2", "t3"])
def test_exhaustive_bounded_distance(t, shorten):
    # Oracle: for every word of the (15, 7) t=2 code, its (13, 5) shortening
    # and the (15, 5) t=3 code, the nearest codeword by brute force. A word
    # within t of it decodes to that codeword's payload with the distance as
    # corrected_bits; every other word is rejected.
    code = OuterCode(4, t, shorten=shorten)
    p = code.params
    payloads = all_words(p.k_eff)
    codewords = np.array([code.encode(u) for u in payloads], dtype=np.int64)
    words = all_words(p.n_eff)
    dist = words.sum(1)[:, None] + codewords.sum(1) - 2 * (words @ codewords.T)
    nearest = dist.argmin(1)
    wrong = []
    for word, i, d in zip(words, nearest, dist.min(1)):
        res = code.decode(word)
        if d > p.t:
            ok = res.status is DecodeStatus.UNCORRECTABLE
        else:
            ok = (res.status is (DecodeStatus.OK if d == 0 else DecodeStatus.CORRECTED)
                  and res.corrected_bits == d and np.array_equal(res.payload, payloads[i]))
        if not ok:
            wrong.append((word.tolist(), int(d), res.status, res.corrected_bits))
    assert wrong == []
