"""Shortened binary BCH outer code for payload validation.

Narrow-sense primitive BCH over GF(2^m), shortened to the configured lengths.
Encoding is systematic: the payload bits appear verbatim at the front of the
codeword (most-significant bit first), followed by n - k parity bits.
Decoding is syndrome based: Berlekamp-Massey for the error locator, Chien
search for the error positions, and a final syndrome re-check so that any
inconsistent correction is reported as detected_uncorrectable.
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


class _GF:
    """GF(2^m) with exp/log tables."""

    def __init__(self, m: int):
        self.m = m
        self.size = (1 << m) - 1
        poly = _PRIMITIVE_POLY[m]
        self.exp = [0] * (2 * self.size)
        self.log = [0] * (self.size + 1)
        x = 1
        for i in range(self.size):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly
        for i in range(self.size, 2 * self.size):
            self.exp[i] = self.exp[i - self.size]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return self.exp[self.size - self.log[a]]

    def pow_alpha(self, e: int) -> int:
        return self.exp[e % self.size]


def _clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) multiplication of bit-polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod(a: int, g: int) -> int:
    gdeg = g.bit_length() - 1
    while a.bit_length() - 1 >= gdeg and a:
        a ^= g << (a.bit_length() - 1 - gdeg)
    return a


def _minimal_poly(gf: _GF, s: int) -> int:
    """Minimal GF(2) polynomial of alpha^s as a bit-polynomial."""
    coset = set()
    c = s % gf.size
    while c not in coset:
        coset.add(c)
        c = (2 * c) % gf.size
    # Product of (x + alpha^c) with coefficients in GF(2^m).
    poly = [1]
    for c in coset:
        root = gf.pow_alpha(c)
        poly = [0] + poly
        for i in range(len(poly) - 1):
            poly[i] ^= gf.mul(poly[i + 1], root)
    out = 0
    for i, coef in enumerate(poly):
        assert coef in (0, 1), "minimal polynomial must be binary"
        out |= coef << i
    return out


def _generator_poly(gf: _GF, t: int) -> int:
    g = 1
    seen = set()
    for s in range(1, 2 * t + 1):
        mp = _minimal_poly(gf, s)
        if mp not in seen:
            seen.add(mp)
            g = _clmul(g, mp)
    return g


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
        self._gf = _GF(m)
        self._g = _generator_poly(self._gf, t)
        n = (1 << m) - 1
        k = n - (self._g.bit_length() - 1)
        if shorten < 0 or shorten >= k:
            raise ValueError(f"shorten must be in [0, {k})")
        self.params = OuterCodeParams(
            field_exponent=m, t=t, shorten=shorten,
            n=n, k=k, n_eff=n - shorten, k_eff=k - shorten,
        )

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

    def encode(self, payload) -> np.ndarray:
        payload = np.asarray(payload, dtype=np.uint8)
        p = self.params
        if payload.shape != (p.k_eff,):
            raise ValueError(f"payload must have {p.k_eff} bits, got {payload.shape}")
        nparity = p.n - p.k
        parity = _poly_mod(bits_to_int(payload) << nparity, self._g)
        return np.concatenate([payload, int_to_bits(parity, nparity)])

    def _syndromes(self, word) -> list[int]:
        p, gf = self.params, self._gf
        positions = [p.n - 1 - p.shorten - j for j in range(p.n_eff)]
        syn = []
        for i in range(1, 2 * p.t + 1):
            s = 0
            for j, bit in enumerate(word):
                if bit:
                    s ^= gf.pow_alpha(i * positions[j])
            syn.append(s)
        return syn

    def _berlekamp_massey(self, syn) -> tuple[list[int], int]:
        gf = self._gf
        C, B = [1], [1]
        L, shift, b = 0, 1, 1
        for n_i, s in enumerate(syn):
            d = s
            for i in range(1, L + 1):
                if i < len(C):
                    d ^= gf.mul(C[i], syn[n_i - i])
            if d == 0:
                shift += 1
                continue
            coef = gf.mul(d, gf.inv(b))
            upd = [0] * shift + [gf.mul(coef, c) for c in B]
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
        p, gf = self.params, self._gf
        if word.shape != (p.n_eff,):
            raise ValueError(f"word must have {p.n_eff} bits, got {word.shape}")
        syn = self._syndromes(word)
        if not any(syn):
            return DecodeResult(payload=word[:p.k_eff].copy(), status=DecodeStatus.OK)
        C, L = self._berlekamp_massey(syn)
        if L > p.t or L != len(C) - 1:
            return DecodeResult(payload=word[:p.k_eff].copy(),
                                status=DecodeStatus.UNCORRECTABLE)
        # Chien search over all exponents of the parent code.
        roots = []
        for pos in range(p.n):
            acc = 0
            for i, c in enumerate(C):
                if c:
                    acc ^= gf.exp[(gf.log[c] + (gf.size - pos % gf.size) * i) % gf.size]
            if acc == 0:
                roots.append(pos)
        if len(roots) != L:
            return DecodeResult(payload=word[:p.k_eff].copy(),
                                status=DecodeStatus.UNCORRECTABLE)
        corrected = word.copy()
        for pos in roots:
            idx = p.n - 1 - pos
            if idx < p.shorten:
                return DecodeResult(payload=word[:p.k_eff].copy(),
                                    status=DecodeStatus.UNCORRECTABLE)
            corrected[idx - p.shorten] ^= 1
        if any(self._syndromes(corrected)):
            return DecodeResult(payload=word[:p.k_eff].copy(),
                                status=DecodeStatus.UNCORRECTABLE)
        return DecodeResult(payload=corrected[:p.k_eff].copy(),
                            status=DecodeStatus.CORRECTED, corrected_bits=L)
