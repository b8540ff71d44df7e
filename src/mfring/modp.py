"""Linear algebra over F_p for rank certificates, on packed 64-bit slots.

For p = 1 (mod L) the cyclotomic polynomial Phi_L splits mod p, and
sending zeta_L to one of its roots r is a ring map from the p-integral
elements of Q(zeta_L) onto F_p.  A ring map can only lower the rank of a
matrix, so a rank mod p is a lower bound on the exact rank (Stein,
*Modular Forms: A Computational Approach*, AMS GSM 79, ch. 7).

A vector of n residues is one int of n unsigned 64-bit slots, residue j
in bits [64j, 64j + 64), packed and unpacked in C by ``struct``; a series
longer than n coefficients is reduced to its first n, so a rank can read
fewer coefficients than were computed (the verifier's rank width, below
its precision).  The prime depends on the width n only: the largest
p = 1 (mod L) below ``prime_ceiling(n)`` = 2^floor((64 - bits(n)) / 2),
so that n * (p - 1)^2 + p < 2^64 and no slot ever carries.  A truncated product
is one big-int multiply (Kronecker substitution: a slot sums at most n
products below p^2), and reducing a vector by an echelon basis is one
big-int multiply-add per pivot (each of at most n pivots adds a multiple
below p^2 to a slot that started below p).  Every run reduces with the same
primes and roots.

An ``Echelon`` basis grows one vector at a time and is never stopped at a
bound: its size is the rank mod p of every vector inserted, so a caller can
compare it with a known upper bound on either side.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from struct import Struct

from .cyclo import FieldCtx

SLOT = (1 << 64) - 1

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


def prime_ceiling(n: int) -> int:
    """The bound below which the primes for vectors of n residues lie."""
    return 1 << ((64 - n.bit_length()) // 2)


@lru_cache(maxsize=None)
def _slots(n: int) -> Struct:
    return Struct(f"<{n}Q")


def pack(xs) -> int:
    """The residues xs, each below 2^64, as one int with xs[j] in slot j."""
    return int.from_bytes(_slots(len(xs)).pack(*xs), "little")


class Reduction:
    """The map Q(zeta_L) -> F_p, zeta_L -> r, on elements whose denominators
    p does not divide, and linear algebra on packed vectors of n residues."""

    __slots__ = ("p", "n", "powers", "struct", "mask", "nbytes")

    def __init__(self, p: int, n: int, powers: tuple[int, ...]):
        if p >= prime_ceiling(n):  # a slot could carry
            raise ValueError(f"prime {p} is not below prime_ceiling({n})")
        self.p = p
        self.n = n
        self.powers = powers  # r^0, ..., r^(phi(L)-1) mod p
        self.struct = _slots(n)  # packs and unpacks a vector of n residues
        self.mask = (1 << 64 * n) - 1  # keeps the first n slots of a product
        self.nbytes = 8 * n

    def series(self, f) -> int:
        """The first n coefficients (at least one) of a QSeries reduced mod p
        and packed, with one inverse of its denominator; a CycloNum, a series
        of one coefficient, reduces to the int of its one slot."""
        p, d = self.p, len(self.powers)
        if f.den % p == 0:
            raise ZeroDivisionError(f"denominator {f.den} is divisible by {p}")
        inv, nums = pow(f.den, -1, p), f.nums[:max(self.n, 1) * d]
        acc = nums[::d]  # coordinate k of every coefficient is one column, weighed by r^k
        for k in range(1, d):
            acc = list(map(operator.add, acc, map(operator.mul, nums[k::d], repeat(self.powers[k]))))
        return pack(tuple(map(operator.mod, map(operator.mul, acc, repeat(inv)), repeat(p))))

    def mul(self, a: int, b: int) -> int:
        """Truncated product mod p of two packed vectors of n residues in [0, p)."""
        st = self.struct
        raw = st.unpack(((a * b) & self.mask).to_bytes(self.nbytes, "little"))
        return int.from_bytes(st.pack(*map(operator.mod, raw, repeat(self.p))), "little")

    def inverse(self, a: int) -> int:
        """The inverse mod (p, q^n) of a packed vector of n residues in [0, p)
        read as a truncated power series in q, whose slot 0 is nonzero:
        h_0 = 1 / a_0 and h_k = -(a_1 h_(k-1) + ... + a_k h_0) / a_0."""
        p = self.p
        a = self.struct.unpack(a.to_bytes(self.nbytes, "little"))
        inv0 = pow(a[0], -1, p)
        h = [inv0]
        for k in range(1, self.n):
            h.append(-sum(map(operator.mul, a[1:k + 1], reversed(h))) * inv0 % p)
        return pack(h)


class Echelon:
    """An echelon basis over F_p of packed vectors of n residues in [0, p),
    grown by ``insert``; its length is the rank of every vector inserted.

    A pivot is kept as its column's bit offset and the negation of its row
    scaled to lead 1, so clearing the column adds c times it.  Each pivot row
    was reduced by every earlier one before it was stored, so reducing by the
    pivots in insertion order clears all their columns.
    """

    __slots__ = ("red", "pivots")

    def __init__(self, red: Reduction):
        self.red = red
        self.pivots: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.pivots)

    def insert(self, row: int) -> bool:
        """Reduce row by the basis, pivot on its leftmost nonzero entry and
        keep it; whether it was independent of the basis."""
        red = self.red
        p, st, nbytes = red.p, red.struct, red.nbytes
        for shift, neg in self.pivots:
            c = ((row >> shift) & SLOT) % p
            if c:
                row += c * neg
        slots = st.unpack(row.to_bytes(nbytes, "little"))
        for lead, v in enumerate(slots):
            if v % p:
                break
        else:
            return False
        neg_inv = p - pow(v, -1, p)
        self.pivots.append((64 * lead, int.from_bytes(
            st.pack(*[x * neg_inv % p for x in slots]), "little")))
        return True


@lru_cache(maxsize=None)
def reduction(ctx: FieldCtx, n: int) -> Reduction | None:
    """The reduction of Q(zeta_L) for vectors of n residues, at the largest
    prime p = 1 (mod L) below prime_ceiling(n); None if there is no such prime."""
    found = _prime_and_powers(ctx, prime_ceiling(n))
    return None if found is None else Reduction(found[0], n, found[1])


@lru_cache(maxsize=None)
def _prime_and_powers(ctx: FieldCtx, ceiling: int) -> tuple[int, tuple[int, ...]] | None:
    """The largest prime p = 1 (mod L) below ceiling and the powers of a root
    of Phi_L mod p, or None."""
    L = ctx.L
    for p in range((ceiling - 2) // L * L + 1, 1, -L):
        if is_prime(p):
            r = _root_of_cyclotomic(L, p)
            return p, tuple(pow(r, k, p) for k in range(ctx.degree))
    return None


def _root_of_cyclotomic(L: int, p: int) -> int:
    """An element of order exactly L in F_p^*, that is, a root of Phi_L mod p."""
    a = 2
    while True:
        r = pow(a, (p - 1) // L, p)
        if all(pow(r, d, p) != 1 for d in range(1, L)):
            return r
        a += 1
