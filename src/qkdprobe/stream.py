"""numpy's ``default_rng`` stream, bit for bit, in plain Python.

Every seeded draw of the package comes from here: the scan restarts and
penalty starts of :mod:`qkdprobe.search`, the counts of
:mod:`qkdprobe.simulate` and the hash bits of
:func:`qkdprobe.distill.pa_empirical_check`.  :class:`_Generator` is
``numpy.random.default_rng([seed, *streams])``: PCG64 (XSL-RR 128/64;
O'Neill, HMC-CS-2014-0905) seeded through ``SeedSequence``, so every seed
gives numpy's draws while the module imports only :mod:`math`.

Its binomial draws are numpy's: inversion for n*p <= 30, otherwise BTPE
(Kachitvichyanukul & Schmeiser, Comm. ACM 31, 216 (1988)), with p > 1/2
drawn as n minus a draw at 1 - p.  Its ``bits`` are numpy's
``integers(0, 2, size)``: Lemire's bounded draw on 32-bit words, each
64-bit PCG64 output giving its low half first and keeping its high half
for the next word.  Its ``uniform`` is numpy's ``uniform(0.0, high,
size)``, one 53-bit double per 64-bit output.
"""

from __future__ import annotations

import math
from typing import Iterable

_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# SeedSequence's hash constants, and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: Iterable[int], n_words: int) -> list[int]:
    """numpy's SeedSequence(entropy).generate_state(n_words): uint32 words.

    Each non-negative integer enters as its 32-bit words, low word first;
    the words are hashed into a pool of four, which is then hashed out.
    """
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            # Shifting a negative int never reaches 0.
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


def _int64(value: int) -> int:
    """value wrapped to a C int64, as numpy's compiled arithmetic wraps."""
    return (value + 2**63 & _MASK64) - 2**63


class _Generator:
    """numpy's ``default_rng([seed, *streams])``: PCG64, its binomial
    draws, its ``integers(0, 2, size)`` and its ``uniform(0.0, high,
    size)``, step for step, so every seed gives numpy's numbers."""

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int, *streams: int) -> None:
        words = _seed_state((seed, *streams), 8)
        seed_hi, seed_lo, inc_hi, inc_lo = (
            words[i] | words[i + 1] << 32 for i in range(0, 8, 2)
        )
        self._inc = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
        state = self._inc + (seed_hi << 64 | seed_lo) & _MASK128
        self._state = state * _PCG64_MULT + self._inc & _MASK128
        # The high half of a 64-bit output, kept for the next 32-bit draw.
        self._has_uint32 = False
        self._uinteger = 0

    def _next_uint64(self) -> int:
        state = self._state * _PCG64_MULT + self._inc & _MASK128
        self._state = state
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << 64 - rot) & _MASK64

    def _next_double(self) -> float:
        return (self._next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def _next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        value = self._next_uint64()
        self._has_uint32 = True
        self._uinteger = value >> 32
        return value & _MASK32

    def uniform(self, high: float, count: int) -> list[float]:
        """numpy's ``uniform(0.0, high, size=count)`` for a finite
        high >= 0, or any shape of count entries read row-major: high * u
        for each next double u (numpy's 0.0 + high * u, whose sum changes
        no such product).  A kept 32-bit half is left kept, as in numpy."""
        return [high * self._next_double() for _ in range(count)]

    def bits(self, count: int) -> list[int]:
        """numpy's ``integers(0, 2, size=count)``, or any shape of count
        entries read row-major: Lemire's bounded draw with range 2 never
        rejects, so each bit is bit 31 of the next 32-bit word."""
        return [self._next_uint32() >> 31 for _ in range(count)]

    def binomial(self, n: int, p: float) -> int:
        """One Binomial(n, p) draw, refused as numpy refuses it."""
        # A numpy integer n would overflow in the int64 emulation of BTPE.
        n = int(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError("p < 0, p > 1 or p is NaN")
        if n < 0:
            raise ValueError("n < 0")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * n <= 30.0:
                return self._inversion(n, p)
            return self._btpe(n, p)
        q = 1.0 - p
        if q * n <= 30.0:
            return n - self._inversion(n, q)
        return n - self._btpe(n, q)

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        np_ = n * p
        limit = np_ + 10.0 * math.sqrt(np_ * q + 1)
        bound = n if n < limit else int(limit)
        x = 0
        px = qn
        u = self._next_double()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self._next_double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        # Steps 0-6 of the paper, for p <= 1/2, in numpy's floating-point
        # order; n + 1 and -k * k are int64 there, and wrap near n = 2**63.
        q = 1.0 - p
        fm = n * p + p
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * p)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * p * q
        while True:
            # Step 1: the triangle, accepted at once.
            u = self._next_double() * p4
            v = self._next_double()
            if u <= p1:
                return math.floor(xm - p1 * v + u)
            if u <= p2:
                # Step 2: the parallelograms.
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:
                # Step 3: the left exponential tail.
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                # Step 4: the right exponential tail.
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr

            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:
                # Step 5.1: the exact ratio f(y) / f(m), by recursion.
                s = p / q
                a = s * _int64(n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y

            # Step 5.2: squeeze on log(v).
            rho = (k / nrq) * (
                (k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5
            )
            t = _int64(-k * k) / (2 * nrq)
            # C's log is -inf at 0 and NaN below; either accepts y.
            big_a = math.log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue

            # Step 5.3: the final test, with Stirling's corrections.
            if big_a > _stirling_bound(n, p, q, m, xm, y):
                continue
            return y


def _stirling_bound(n: int, p: float, q: float, m: int, xm: float, y: int
                    ) -> float:
    """BTPE step 5.3's bound on log f(y) / f(m), f the Binomial(n, p) mass,
    as numpy computes it, term for term and in its order of addition.

    The four Stirling corrections enter as numpy writes them, which is not
    the exact ratio: those of y + 1 and n - y + 1 are added where the
    ratio subtracts them, and the leading constant is 13680 where 1/(12 t)
    needs 13860 (``TestStirlingBound`` in tests/test_simulate.py).
    """
    x1 = float(y + 1)
    f1 = float(m + 1)
    z = float(n + 1 - m)
    w = float(n - y + 1)
    bound = (
        xm * math.log(f1 / x1)
        + (n - m + 0.5) * math.log(z / w)
        + (y - m) * math.log(w * p / (x1 * q))
    )
    for term in (f1, z, x1, w):
        term2 = term * term
        bound += (
            (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / term2)
                                 / term2) / term2) / term2)
            / term / 166320.0
        )
    return bound
