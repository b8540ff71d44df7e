"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored by their coordinates in the power basis
1, z, ..., z^(phi(L)-1) where z is a primitive L-th root of unity, as
integers `nums` over one positive common denominator `den`, kept
canonical (gcd(den, *nums) == 1, see ``canonical``) so that equality is
coordinatewise; q-series store each coefficient the same way.  Every
operation reduces modulo the L-th cyclotomic polynomial, through one table
per field (``FieldCtx.powers``) of the powers of z reduced: it gives the
fold rows of a product, the roots of unity and the rows of complex
conjugation.  Linear maps of the field that q-series apply coefficient by
coefficient (multiplication by an element, complex conjugation) are integer
matrices whose row k is the image of z^k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, floordiv, sub

from .errors import ConductorMismatch, ContextMismatch


def canonical(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """(den, nums) divided by gcd(den, *nums), signed so that den > 0."""
    nums = tuple(nums)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return den // g, tuple(map(floordiv, nums, repeat(g)))
    return den, nums


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic with integer coefficients, so the quotient stays integral
    num = list(num)
    d = len(den) - 1
    q = [0] * max(1, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - d] = c
        for j in range(d + 1):
            num[i - d + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the L-th cyclotomic polynomial.

    One exact division per prime p of L, Phi_(pm)(x) = Phi_m(x^p) / Phi_m(x)
    for p not dividing m, builds Phi_r for the radical r of L; then
    Phi_L(x) = Phi_r(x^(L/r)).
    """
    if L < 1:
        raise ValueError("conductor must be positive")
    poly, r, rest, p = [-1, 1], 1, L, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            poly, rem = _poly_divmod_int(_substitute_power(poly, p), poly)
            assert not any(rem)
            r *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(_substitute_power(poly, L // r))


def _substitute_power(poly: list[int], k: int) -> list[int]:
    """The coefficients of poly(x^k)."""
    out = [0] * (k * (len(poly) - 1) + 1)
    out[::k] = poly
    return out


class FieldCtx:
    """Field context for Q(zeta_L): conductor, minimal polynomial, the powers of z reduced."""

    __slots__ = ("L", "degree", "minpoly", "powers", "zero", "one")

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("conductor must be positive")
        self.L = L
        self.minpoly = cyclotomic_polynomial(L)
        d = self.degree = len(self.minpoly) - 1
        # powers[k] = z^k reduced for k = 0..L-1, integral because the minimal
        # polynomial is monic.  A product folds rows up to 2d-2; where 2d-1 > L
        # (L = 5, 7, 9, 11, 13, 21, ...) they go on as the rows k-L themselves,
        # not copies, since z^L = 1.
        row, top = (1,) + (0,) * (d - 1), [-c for c in self.minpoly[:-1]]
        powers = []
        for _ in range(L):
            powers.append(row)
            row = _times_zeta(row, top)
        self.powers = tuple(powers + powers[:max(0, 2 * d - 1 - L)])
        self.zero = CycloNum(self, (0,) * self.degree)
        self.one = CycloNum(self, (1,) + (0,) * (self.degree - 1))

    def __repr__(self):
        return f"FieldCtx(L={self.L})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.L == self.L

    def __hash__(self):
        return hash(("FieldCtx", self.L))

    def from_rational(self, value) -> "CycloNum":
        value = Fraction(value)
        return CycloNum(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def zeta_power(self, e: int) -> "CycloNum":
        """z^e, a row of the table."""
        return CycloNum(self, self.powers[e % self.L])


@lru_cache(maxsize=None)
def cyclo_context(L: int) -> FieldCtx:
    return FieldCtx(L)


def root_of_unity(ctx: FieldCtx, a: int, b: int) -> "CycloNum":
    """The root e^(2*pi*i*a/b) as an element of Q(zeta_L); needs b | L."""
    if b < 1 or ctx.L % b != 0:
        raise ConductorMismatch(f"order {b} does not divide conductor {ctx.L}")
    return ctx.zeta_power((a % b) * (ctx.L // b))


def roots_of_unity(ctx: FieldCtx, m: int) -> list[tuple[int, ...]]:
    """Integer coordinates of e^(2*pi*i*j/m) for j = 0..m-1; needs m | L.

    They are the rows z^(j*L/m) of the field's table, not copies.
    """
    if m < 1 or ctx.L % m != 0:
        raise ConductorMismatch(f"order {m} does not divide conductor {ctx.L}")
    return list(ctx.powers[:ctx.L:ctx.L // m])


def fold_buckets(buckets, powers, degree: int, start: int = 0) -> list:
    """Flat power-basis coordinates of consecutive blocks of len(powers) buckets,
    bucket j of a block weighing the field element with integer coordinates
    powers[j] (a root of unity, a power of z to reduce, a matrix row).

    Column j (bucket j of every block) is added into coordinate i of every
    block with one slice assignment per nonzero coordinate of powers[j].  The
    first `start` rows (start <= degree) must be the unit rows z^0, z^1, ...:
    their columns are copied into place, not folded.
    """
    m = len(powers)
    out = [0] * (len(buckets) // m * degree)
    for j in range(start):
        out[j::degree] = buckets[j::m]
    for j in range(start, m):
        p, col = powers[j], buckets[j::m]
        if not any(col):
            continue
        for i, x in enumerate(p):
            if x == 1:
                out[i::degree] = map(add, out[i::degree], col)
            elif x == -1:
                out[i::degree] = map(sub, out[i::degree], col)
            elif x:
                out[i::degree] = [o + x * c for o, c in zip(out[i::degree], col)]
    return out


def embed(c: "CycloNum", ctx: FieldCtx) -> "CycloNum":
    """c, an element of Q(zeta_M), as an element of Q(zeta_L) for M | L."""
    powers = roots_of_unity(ctx, c.ctx.L)[:c.ctx.degree]
    return CycloNum(ctx, fold_buckets(c.nums, powers, ctx.degree), c.den)


def _times_zeta(v: tuple[int, ...], top_row) -> tuple[int, ...]:
    """v*z reduced, for a coordinate tuple v; top_row is z^degree reduced."""
    top = v[-1]
    v = (0,) + v[:-1]
    if top:
        v = tuple([x + top * t for x, t in zip(v, top_row)])
    return v


def multiplication_matrix(c: "CycloNum") -> tuple[int, list[tuple[int, ...]]]:
    """(D, M) with row k of the integer matrix M the coordinates of D*c*z^k.

    D is c's denominator, the least common denominator of its coordinates,
    so a coordinate vector a maps to a*c = (1/D) * sum_k a_k M[k].
    """
    d, powers = c.ctx.degree, c.ctx.powers
    rows = [c.nums]
    for _ in range(d - 1):
        rows.append(_times_zeta(rows[-1], powers[d]))
    return c.den, rows


class CycloNum:
    """Element of Q(zeta_L): coordinate i is nums[i] / den; immutable."""

    __slots__ = ("ctx", "den", "nums")

    def __init__(self, ctx: FieldCtx, nums, den: int = 1):
        self.ctx = ctx
        self.den, self.nums = canonical(den, nums)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, built on each access; perfbench's tracer reads them."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(f"L={self.ctx.L} vs L={other.ctx.L}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other, op add or sub, coordinatewise over one denominator."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return CycloNum(self.ctx, map(op, self.nums, o.nums), da)
        return CycloNum(self.ctx, [op(x * db, y * da) for x, y in zip(self.nums, o.nums)], da * db)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return CycloNum(self.ctx, [-x for x in self.nums], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.ctx.degree
        raw = [0] * (2 * d - 1)
        for i, ai in enumerate(self.nums):
            if not ai:
                continue
            for j, bj in enumerate(o.nums):
                if bj:
                    raw[i + j] += ai * bj
        # fold the terms of z^d..z^(2d-2) with their rows of the table
        out = raw[:d]
        for c, tail in zip(raw[d:], self.ctx.powers[d:2 * d - 1]):
            if c:
                for j in range(d):
                    out[j] += c * tail[j]
        return CycloNum(self.ctx, out, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, self.ctx.one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.ctx.L, self.den, self.nums))

    def __bool__(self):
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def invert(self) -> "CycloNum":
        """Solve self*y = 1 as a linear system over the integers.

        With (D, M) = multiplication_matrix(self), y's coordinates satisfy
        sum_k y_k M[k] = D*e_0, which fraction-free elimination solves
        with exact integer divisions only.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        if self.is_rational():
            return CycloNum(self.ctx, (self.den,) + (0,) * (self.ctx.degree - 1), self.nums[0])
        den, rows = multiplication_matrix(self)
        system = [list(col) + [den if j == 0 else 0] for j, col in enumerate(zip(*rows))]
        nums, det = _bareiss_solve(system)
        return CycloNum(self.ctx, nums, det)

    def __repr__(self):
        return f"CycloNum({render_cyclo(self)!r}, L={self.ctx.L})"

    def __str__(self):
        return render_cyclo(self)


def power(x, n: int, one):
    """x**n for n >= 0 by binary powering, with one = x**0.  The result
    starts from x itself, not from one * x, and x is squared (one object on
    both sides, which q-series products take as a squaring) only while
    bits of n remain."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if not n:
        return one
    while not n & 1:
        x = x * x
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            out = out * x
        n >>= 1
    return out


def _bareiss_solve(a: list[list[int]]) -> tuple[list[int], int]:
    """Solve the n x (n+1) augmented integer system a, which must be nonsingular.

    Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968): step k
    replaces each row r below the pivot row p by (p_k*r - r_k*p) / p_(k-1),
    where p_k is the pivot, and every entry it makes is a minor of the
    row-permuted system, so each division is exact.  A row with r_k = 0 would
    only be scaled by p_k / p_(k-1); those scalings telescope, so the row is
    left alone and scaled once, exactly, when it is next used, and sparse
    systems skip most of the work.  Returns (X, D) with solution X/D, where D
    is the last pivot, the determinant up to sign; X is then integral by
    Cramer's rule, and back substitution divides exactly too.
    """
    n = len(a)
    piv = [1]  # piv[k] divides at step k: the pivot of step k-1
    since = [0] * n  # row i holds its entries from before step since[i]

    def current(i, k):  # row i as it stands before step k
        if piv[k] != piv[since[i]]:
            a[i] = [x * piv[k] // piv[since[i]] for x in a[i]]
        since[i] = k
        return a[i]

    for k in range(n):
        i = next(i for i in range(k, n) if a[i][k])
        a[k], a[i], since[k], since[i] = a[i], a[k], since[i], since[k]
        rk = current(k, k)
        pk, prev, tail = rk[k], piv[k], rk[k + 1:]
        for i in range(k + 1, n):
            if a[i][k]:
                ri = current(i, k)
                c = ri[k]
                a[i] = [0] * (k + 1) + [(pk * x - c * y) // prev for x, y in zip(ri[k + 1:], tail)]
                since[i] = k + 1
        piv.append(pk)
    det = piv[n]
    xs = [0] * n
    for i in range(n - 1, -1, -1):
        ri = a[i]
        s = det * ri[n] - sum(ri[j] * xs[j] for j in range(i + 1, n))
        xs[i] = s // ri[i]
    return xs, det


def signed_texts(nums, den: int, suffixes) -> list[str]:
    """The signed text ' + m' or ' - m' of each integer coordinate c of nums over
    den, '' for a zero: m is |c|/den in lowest terms followed by c's suffix, zipped
    from suffixes.  Every text carries its separator, so texts concatenate; a
    magnitude 1 keeps its '1', as in ' - 1*q^2'."""
    if den == 1:  # most series: no gcd, no quotient (BENCH_render.json, "integer_fork")
        return [f" - {-c}{s}" if c < 0 else f" + {c}{s}" if c else ""
                for c, s in zip(nums, suffixes)]
    gs = list(map(gcd, nums, repeat(den)))
    over = {g: f"/{den // g}" if g != den else "" for g in set(gs)}
    return [f" - {-c // g}{over[g]}{s}" if c < 0 else f" + {c // g}{over[g]}{s}" if c else ""
            for c, g, s in zip(nums, gs, suffixes)]


def column_texts(L: int, k: int, col, den: int) -> list[str]:
    """``signed_texts`` of a column of coordinates at place k of the power basis,
    each followed by '*z<L>^k' ('*z<L>' for k = 1, nothing for k = 0); a magnitude
    1 at k >= 1 is written as its power of z alone, as in ' - z12^2'."""
    if not k:
        return signed_texts(col, den, repeat(""))
    z = f"z{L}" if k == 1 else f"z{L}^{k}"
    texts = signed_texts(col, den, repeat("*" + z))
    if den in col or -den in col:
        bare = {f" + 1*{z}": f" + {z}", f" - 1*{z}": f" - {z}"}
        texts = [bare.get(t, t) for t in texts]
    return texts


def first_sign(text: str) -> str:
    """Concatenated signed texts with the first separator dropped, or written '-';
    '0' if there are none."""
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def render_coords(L: int, nums, den: int) -> str:
    """Canonical text of sum_i (nums[i]/den) z<L>^i: ascending powers, e.g. '1/2 - 3*z12^2'."""
    return first_sign("".join([column_texts(L, k, (c,), den)[0] for k, c in enumerate(nums)]))


def render_cyclo(x: CycloNum) -> str:
    """Canonical text form: ascending powers of z<L>, e.g. '1/2 - 3*z12^2'."""
    return render_coords(x.ctx.L, x.nums, x.den)
