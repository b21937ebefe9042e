"""Shortened binary BCH outer code for payload validation.

Narrow-sense primitive BCH over GF(2^m), shortened to the configured lengths.
GF(2^m) is a pair of numpy exp/log tables, and the generator g(x) is the
product of (x + alpha^c) over the union of the cyclotomic cosets of 1..2t.
Encoding is systematic: the payload bits appear verbatim at the front of the
codeword (most-significant bit first), followed by n - k parity bits.
Decoding is syndrome based. The syndromes XOR-reduce a precomputed table of
alpha^(i * position) over the word's set bits. Berlekamp-Massey finds the
error locator, and a Chien search over the kept positions only finds the
errors: a locator with a root in the shortened part has fewer than L roots
there and is rejected. A locator with L <= t roots there always gives a
codeword (the proof is at the Chien search), so nothing is re-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .codec import bits_to_int, int_to_bits

_PRIMITIVE_POLY = {
    3: 0o13, 4: 0o23, 5: 0o45, 6: 0o103, 7: 0o211,
    8: 0o435, 9: 0o1021, 10: 0o2011,
}


class DecodeStatus(enum.Enum):
    OK = "ok"
    CORRECTED = "corrected"
    UNCORRECTABLE = "detected_uncorrectable"


@dataclass(frozen=True)
class DecodeResult:
    payload: np.ndarray
    status: DecodeStatus
    corrected_bits: int = 0

    @property
    def valid(self) -> bool:
        return self.status is not DecodeStatus.UNCORRECTABLE


def _poly_mod(a: int, g: int) -> int:
    gdeg = g.bit_length() - 1
    while a.bit_length() - 1 >= gdeg and a:
        a ^= g << (a.bit_length() - 1 - gdeg)
    return a


@dataclass(frozen=True)
class OuterCodeParams:
    field_exponent: int
    t: int
    shorten: int
    n: int
    k: int
    n_eff: int
    k_eff: int


class OuterCode:
    """Systematic shortened BCH encoder/decoder."""

    def __init__(self, m: int, t: int, shorten: int = 0):
        if t < 1:
            raise ValueError("t must be >= 1")
        if m not in _PRIMITIVE_POLY:
            raise ValueError(f"m = {m} is not supported; use one of {sorted(_PRIMITIVE_POLY)}")
        n = (1 << m) - 1
        exp = [1]
        for _ in range(n - 1):
            x = exp[-1] << 1
            exp.append(x ^ _PRIMITIVE_POLY[m] if x >> m else x)
        self._exp = np.array(exp * 2, dtype=np.int64)
        self._log = np.zeros(n + 1, dtype=np.int64)
        self._log[self._exp[:n]] = np.arange(n)
        roots = {(s << j) % n for s in range(1, 2 * t + 1) for j in range(m)}  # cosets of 1..2t
        g = np.ones(1, dtype=np.int64)  # GF(2^m) coefficients, constant term first
        for c in roots:  # g(x) * (x + alpha^c)
            g = np.append(0, g) ^ np.append(np.where(g > 0, self._exp[self._log[g] + c], 0), 0)
        assert set(g.tolist()) <= {0, 1}, "generator polynomial must be binary"
        self._g = sum(coef << i for i, coef in enumerate(g.tolist()))
        k = n - len(roots)
        if shorten < 0 or shorten >= k:
            raise ValueError(f"shorten must be in [0, {k})")
        self.params = OuterCodeParams(
            field_exponent=m, t=t, shorten=shorten,
            n=n, k=k, n_eff=n - shorten, k_eff=k - shorten,
        )
        # Row i, column j: alpha^(i * e_j), where word bit j has exponent e_j = n_eff - 1 - j.
        self._powers = self._exp[np.outer(np.arange(2 * t + 1), np.arange(n - shorten)[::-1]) % n]

    @classmethod
    def from_lengths(cls, n_eff: int, k_eff: int, m: int, t: int) -> "OuterCode":
        code = cls(m, t, shorten=0)
        shorten = code.params.k - k_eff
        code = cls(m, t, shorten=shorten)
        if code.params.n_eff != n_eff:
            raise ValueError(
                f"BCH(m={m}, t={t}) shortened to k_eff={k_eff} has n_eff="
                f"{code.params.n_eff}, not {n_eff}")
        return code

    def _mul(self, a: int, b: int) -> int:
        return int(self._exp[self._log[a] + self._log[b]]) if a and b else 0

    def encode(self, payload) -> np.ndarray:
        payload = np.asarray(payload, dtype=np.uint8)
        p = self.params
        if payload.shape != (p.k_eff,):
            raise ValueError(f"payload must have {p.k_eff} bits, got {payload.shape}")
        nparity = p.n - p.k
        parity = _poly_mod(bits_to_int(payload) << nparity, self._g)
        return np.concatenate([payload, int_to_bits(parity, nparity)])

    def _syndromes(self, word) -> list[int]:
        return np.bitwise_xor.reduce(self._powers[1:, word != 0], axis=1).tolist()

    def _berlekamp_massey(self, syn) -> tuple[list[int], int]:
        C, B = [1], [1]
        L, shift, b = 0, 1, 1
        for n_i, s in enumerate(syn):
            d = s
            for i in range(1, L + 1):
                if i < len(C):
                    d ^= self._mul(C[i], syn[n_i - i])
            if d == 0:
                shift += 1
                continue
            coef = int(self._exp[self._log[d] + self.params.n - self._log[b]])
            upd = [0] * shift + [self._mul(coef, c) for c in B]
            newC = [a ^ b2 for a, b2 in
                    zip(C + [0] * max(0, len(upd) - len(C)),
                        upd + [0] * max(0, len(C) - len(upd)))]
            if 2 * L <= n_i:
                B, b, L = C, d, n_i + 1 - L
                shift = 1
            else:
                shift += 1
            C = newC
        while len(C) > 1 and C[-1] == 0:
            C.pop()
        return C, L

    def decode(self, word) -> DecodeResult:
        word = np.asarray(word, dtype=np.uint8)
        p = self.params
        if word.shape != (p.n_eff,):
            raise ValueError(f"word must have {p.n_eff} bits, got {word.shape}")
        syn = self._syndromes(word)
        if not any(syn):
            return DecodeResult(payload=word[:p.k_eff].copy(), status=DecodeStatus.OK)
        rejected = DecodeResult(payload=word[:p.k_eff].copy(),
                                status=DecodeStatus.UNCORRECTABLE)
        C, L = self._berlekamp_massey(syn)
        if L > p.t or L != len(C) - 1:
            return rejected
        # Chien search: bit j is in error iff x^L C(1/x) vanishes at alpha^e_j.
        terms = [self._exp[self._log[c] + self._log[self._powers[L - i]]]
                 for i, c in enumerate(C) if c]
        roots = np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)
        if len(roots) != L:
            return rejected
        # The corrected word is a codeword, so no syndrome re-check is needed.
        # C(x) = prod_j (1 - X_j x) over the L distinct roots X_j = alpha^e_j,
        # so every sequence C generates is S_i = sum_j Y_j X_j^i for some Y_j
        # (S_1..S_L fix the Y_j through a Vandermonde matrix). The word is
        # binary, so S_2i = S_i^2 for i = 1..t, i.e. sum_j (Y_j + Y_j^2)
        # (X_j^2)^i = 0; with L <= t and the X_j^2 distinct and nonzero, that
        # Vandermonde system forces Y_j + Y_j^2 = 0, so Y_j is 0 or 1. A Y_j of
        # 0 would leave an LFSR shorter than L generating S, and BM's L is the
        # shortest, so every Y_j is 1: flipping the L root bits zeroes
        # S_1..S_2t, and a binary word with those syndromes zero is divisible
        # by g(x).
        corrected = word.copy()
        corrected[roots] ^= 1
        return DecodeResult(payload=corrected[:p.k_eff].copy(),
                            status=DecodeStatus.CORRECTED, corrected_bits=L)
