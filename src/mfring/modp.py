"""Linear algebra over F_p for rank certificates.

For p = 1 (mod L) the cyclotomic polynomial Phi_L splits mod p, and
sending zeta_L to one of its roots r is a ring map from the p-integral
elements of Q(zeta_L) onto F_p.  A ring map can only lower the rank of a
matrix, so a rank mod p is a lower bound on the exact rank (Stein,
*Modular Forms: A Computational Approach*, AMS GSM 79, ch. 7).  The primes
are fixed: the largest ones below 2^61 that are 1 mod L, so every run
reduces with the same map.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .cyclo import CycloNum, FieldCtx

PRIME_CEILING = 1 << 61
PRIMES_PER_FIELD = 2

# these bases decide primality for every n < 3.3 * 10^24 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Reduction:
    """The map Q(zeta_L) -> F_p, zeta_L -> r, on elements whose denominators p does not divide."""

    __slots__ = ("p", "powers")

    def __init__(self, p: int, powers: tuple[int, ...]):
        self.p = p
        self.powers = powers  # r^0, ..., r^(phi(L)-1) mod p

    def __call__(self, c: CycloNum) -> int:
        return self.series(c)[0]

    def series(self, f) -> list[int]:
        """The coefficients of a QSeries reduced mod p, with one inverse of its
        denominator; a CycloNum, stored the same way, is a series of one coefficient."""
        p, d = self.p, len(self.powers)
        if f.den % p == 0:
            raise ZeroDivisionError(f"denominator {f.den} is divisible by {p}")
        inv, nums, powers = pow(f.den, -1, p), f.nums, self.powers
        return [sum(map(operator.mul, nums[n:n + d], powers)) * inv % p
                for n in range(0, len(nums), d)]


@lru_cache(maxsize=None)
def reductions(ctx: FieldCtx) -> tuple[Reduction, ...]:
    """The reductions of Q(zeta_L) at the PRIMES_PER_FIELD largest primes
    p = 1 (mod L) below PRIME_CEILING, largest first."""
    L, out = ctx.L, []
    n = (PRIME_CEILING - 2) // L * L + 1
    while len(out) < PRIMES_PER_FIELD:
        if is_prime(n):
            r = _root_of_cyclotomic(L, n)
            out.append(Reduction(n, tuple(pow(r, k, n) for k in range(ctx.degree))))
        n -= L
    return tuple(out)


def _root_of_cyclotomic(L: int, p: int) -> int:
    """An element of order exactly L in F_p^*, that is, a root of Phi_L mod p."""
    a = 2
    while True:
        r = pow(a, (p - 1) // L, p)
        if all(pow(r, d, p) != 1 for d in range(1, L)):
            return r
        a += 1


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Truncated product mod p of two equal-length coefficient lists in [0, p).

    Each list is packed into one integer, coefficient n in slot n, and one
    big-int multiply convolves them.  A product slot sums at most len(a)
    terms below p^2, so slots of 2*bits(p) + bits(len(a)) bits never carry.
    """
    n = len(a)
    nb = (2 * p.bit_length() + n.bit_length() + 7) // 8  # slot width in whole bytes

    def pack(xs):
        return int.from_bytes(b"".join(x.to_bytes(nb, "little") for x in xs), "little")

    width = nb * n
    raw = (pack(a) * pack(b)) & ((1 << (8 * width)) - 1)
    buf = memoryview(raw.to_bytes(width, "little"))
    return [int.from_bytes(buf[i:i + nb], "little") % p for i in range(0, width, nb)]


def rank(rows, p: int) -> int:
    """Rank over F_p by elimination; pivot on the leftmost nonzero entry.

    Each pivot row was reduced by every earlier one before it was stored, so
    reducing by the pivots in insertion order clears all their columns.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [x % p for x in row]
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [v * inv % p for v in row]))
    return len(pivots)
