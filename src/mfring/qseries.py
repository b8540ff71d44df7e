"""Truncated q-expansions over a cyclotomic field.

A QSeries stores exactly `prec` coefficients: the series is known
modulo q^prec.  Binary operations truncate to the shorter precision;
the substitution q -> q^h expands precision to h*(prec-1)+1.

Storage is one positive common denominator `den` and flat integer
coordinates `nums`: coordinate k of coefficient n (in the power basis
1, z, ..., z^(d-1), d = phi(L)) is nums[n*d + k] / den.  The pair is kept
canonical, gcd(den, *nums) == 1, so equal series have equal storage; a
CycloNum stores one coefficient the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add, sub
from struct import Struct

from .cyclo import (
    CycloNum,
    FieldCtx,
    canonical,
    column_texts,
    first_sign,
    fold_buckets,
    multiplication_matrix,
    power,
    signed_texts,
)
from .errors import BadLeadingShape, ContextMismatch

# the most integer coordinates, prec * phi(L), that one series may hold; it bounds
# memory, not time (varpi11 at prec 10000, 40000 coordinates, takes about 10 s).
# The catalog refuses a larger series; rendering keeps no table beyond it.
MAX_COORDINATES = 1_000_000


class QSeries:
    """Immutable truncated power series in q with coefficients in Q(zeta_L)."""

    __slots__ = ("ctx", "prec", "den", "nums")

    def __init__(self, ctx: FieldCtx, nums, den: int = 1):
        """The series with coordinate k of coefficient n equal to nums[n*d + k] / den."""
        if den < 1:
            raise ValueError("need den >= 1")
        self.ctx = ctx
        self.den, self.nums = canonical(den, nums)
        self.prec, extra = divmod(len(self.nums), ctx.degree)
        if extra or self.prec < 1:
            raise ValueError("need a positive whole number of coefficients")

    @classmethod
    def one(cls, ctx: FieldCtx, prec: int) -> "QSeries":
        return cls(ctx, [1] + [0] * (prec * ctx.degree - 1))

    @classmethod
    def zero(cls, ctx: FieldCtx, prec: int) -> "QSeries":
        return cls(ctx, [0] * (prec * ctx.degree))

    def coefficient(self, n: int) -> CycloNum:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} beyond precision {self.prec}")
        d = self.ctx.degree
        return CycloNum(self.ctx, self.nums[n * d:(n + 1) * d], self.den)

    @property
    def coeffs(self) -> tuple[CycloNum, ...]:
        """The coefficients as CycloNums, built on each access; perfbench's tracer reads them."""
        return tuple(self.coefficient(n) for n in range(self.prec))

    def _check(self, other: "QSeries"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"L={self.ctx.L} vs L={other.ctx.L}")

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        return QSeries(self.ctx, self.nums[:prec * self.ctx.degree], self.den)

    def _aligned(self, other: "QSeries"):
        """Both coordinate lists over one denominator, cut to the shorter precision."""
        self._check(other)
        n = min(self.prec, other.prec) * self.ctx.degree
        a, b = self.nums[:n], other.nums[:n]
        da, db = self.den, other.den
        if da == db:
            return a, b, da
        den = lcm(da, db)
        ma, mb = den // da, den // db
        if ma != 1:
            a = [x * ma for x in a]
        if mb != 1:
            b = [x * mb for x in b]
        return a, b, den

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._aligned(other)
        return QSeries(self.ctx, map(add, a, b), den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._aligned(other)
        return QSeries(self.ctx, map(sub, a, b), den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        n = min(self.prec, other.prec) * self.ctx.degree
        a = self.nums[:n]
        b = a if other is self else other.nums[:n]
        return QSeries(self.ctx, _kronecker_product(self.ctx, a, b), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        if not isinstance(c, CycloNum):
            c = self.ctx.from_rational(c)
        elif c.ctx is not self.ctx and c.ctx != self.ctx:
            raise ContextMismatch(f"L={self.ctx.L} vs L={c.ctx.L}")
        if not c.is_rational():
            den, rows = multiplication_matrix(c)
            return QSeries(self.ctx, fold_buckets(self.nums, rows, self.ctx.degree), self.den * den)
        a = c.nums[0]
        return QSeries(self.ctx, [x * a for x in self.nums], self.den * c.den)

    def __pow__(self, n: int) -> "QSeries":
        return power(self, n, QSeries.one(self.ctx, self.prec))

    def v_operator(self, h: int, keep: int | None = None) -> "QSeries":
        """Substitute q -> q^h; precision becomes h*(prec-1)+1, or `keep` if smaller."""
        if h < 1:
            raise ValueError("h must be positive")
        new_prec = h * (self.prec - 1) + 1
        if keep is not None and keep < new_prec:
            new_prec = keep
        if h == 1:
            return self if new_prec == self.prec else self.truncate(new_prec)
        d = self.ctx.degree
        count = (new_prec - 1) // h + 1  # coefficients that land below new_prec
        out = [0] * (new_prec * d)
        for k in range(d):
            out[k::h * d] = self.nums[k:count * d:d]
        return QSeries(self.ctx, out, self.den)

    def lowered(self, h: int) -> "QSeries":
        """(1/a)(f - f(q^h)) for f = 1 + a*q + ... and h >= 2; starts q + O(q^2)."""
        if h < 2:
            raise ValueError("h must be at least 2")
        if self.prec < 2:
            raise BadLeadingShape("need at least two coefficients")
        if self.coefficient(0) != self.ctx.one:
            raise BadLeadingShape("constant term must be 1")
        a = self.coefficient(1)
        if a.is_zero():
            raise BadLeadingShape("q coefficient must be nonzero")
        return (self - self.v_operator(h, self.prec)).scale(a.invert())

    def conj(self) -> "QSeries":
        if self.ctx.degree == 1:
            return self
        d, L, powers = self.ctx.degree, self.ctx.L, self.ctx.powers
        rows = [powers[-k % L] for k in range(d)]  # z^k goes to z^(-k)
        return QSeries(self.ctx, fold_buckets(self.nums, rows, d), self.den)

    def vanishing_order(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to precision."""
        for i, x in enumerate(self.nums):
            if x:
                return i // self.ctx.degree
        return None

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.ctx == other.ctx and self.prec == other.prec
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.ctx.L, self.den, self.nums))

    def __repr__(self):
        return f"QSeries({render_qseries(self)!r})"

    def __str__(self):
        return render_qseries(self)


# struct codes of the slot widths, in bytes, that pack and unpack in C
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _slots(code: str, n: int) -> Struct:
    return Struct(f"<{n}{code}")


def _to_bytes(slots, nb: int, n: int) -> bytes:
    """n unsigned slot values of nb bytes each, little-endian."""
    code = _CODES.get(nb)
    if code:
        return _slots(code, n).pack(*slots)
    return b"".join(map(int.to_bytes, slots, repeat(nb), repeat("little")))


def _from_bytes(buf: bytes, nb: int):
    """The unsigned slot values of nb bytes each in buf."""
    code = _CODES.get(nb)
    if code:
        return _slots(code, len(buf) // nb).unpack(buf)
    cuts = map(slice, range(0, len(buf), nb), range(nb, len(buf) + 1, nb))
    return map(int.from_bytes, map(buf.__getitem__, cuts), repeat("little"))


def _columns_used(xs, d: int) -> int:
    """One past the last power-basis coordinate that is nonzero in some
    coefficient of xs (d coordinates each); 1 if only coordinate 0 is."""
    for k in range(d - 1, 0, -1):
        if any(xs[k::d]):
            return k + 1
    return 1


def _kronecker_product(ctx: FieldCtx, xa, xb) -> list[int]:
    """Truncated product of two equal-length integer coordinate lists, exactly;
    pass the same object twice to square.

    A factor uses its first e coordinates in the power basis, those up to its
    last one that is nonzero in some coefficient (e = 1 for a rational series;
    never looked for when d = phi(L) = 1).  Coefficient n of a factor and
    coordinate k of its zeta-part become slot n*(e_a+e_b-1)+k of one integer in
    base 2^W, so a single big-int multiply convolves in q and in zeta at once.
    A product slot sums at most p*min(e_a, e_b) terms (p coefficients), each
    bounded by max|a|*max|b|, so W bits hold it as a signed value; slots are
    read back with an offset of 2^(W-1) that makes every one of them
    nonnegative.  W is rounded up to 8, 16, 32 or 64 bits, packed by one
    ``struct`` call, or else to whole bytes.  Columns below phi(L) of a
    product's blocks are its coordinates; only the columns from phi(L) on are
    folded, with the rows z^phi(L), ... of the field's table of reduced powers.
    """
    d, n = ctx.degree, len(xa)
    square = xb is xa
    top = max(map(abs, xa))
    height = top * (top if square else max(map(abs, xb)))
    if not height:  # a zero operand; its coordinates may not fit the slots
        return [0] * n
    p = n // d
    ea = eb = stride = 1
    if d > 1:
        ea = _columns_used(xa, d)
        eb = ea if square else _columns_used(xb, d)
        stride = ea + eb - 1
        height *= min(ea, eb)
    nb = ((height * p).bit_length() + 2 + 7) // 8  # slot width in whole bytes
    if nb <= 8:
        nb = 1 << (nb - 1).bit_length()
    half = 1 << (8 * nb - 1)
    size = p * stride
    offset = int.from_bytes(half.to_bytes(nb, "little") * size, "little")

    def pack(xs, e):
        if not e == stride == d:  # else xs is laid out as the slots already
            slots = [0] * size
            for k in range(e):
                slots[k::stride] = xs[k::d]
            xs = slots
        return int.from_bytes(_to_bytes(map(add, xs, repeat(half)), nb, size), "little") - offset

    a = pack(xa, ea)
    raw = (a * (a if square else pack(xb, eb)) + offset) & ((1 << (8 * nb * size)) - 1)
    out = list(map(sub, _from_bytes(raw.to_bytes(nb * size, "little"), nb), repeat(half)))
    return out if stride == d else fold_buckets(out, ctx.powers[:stride], d, min(stride, d))


# the suffix of coefficient n, '' then '*q', '*q^2', ...: grown to the largest
# precision rendered, up to MAX_COORDINATES entries
_Q_POWERS: list[str] = []


def _q_suffixes(prec: int) -> list[str]:
    """At least the suffixes of coefficients 0..prec-1: the table, grown to prec
    entries, or beyond MAX_COORDINATES a longer list that is not kept."""
    table = _Q_POWERS
    if len(table) < prec:
        more = [f"*q^{n}" if n > 1 else ("", "*q")[n] for n in range(len(table), prec)]
        if prec > MAX_COORDINATES:
            return table + more
        table += more
    return table


def render_qseries(f: QSeries) -> str:
    """Canonical rendering 'c0 + c1*q + ... + O(q^P)', omitting zero terms.

    Every term is written in one step with its separator, ' + ' or ' - ', from
    the integer coordinates (``signed_texts``) and a table of suffixes '*q^n'.
    A series whose coefficients are all rational (every phi(L) = 1 series) is
    written from its column nums[::d] alone, as over Q, since no term names z.
    Otherwise each coordinate column nums[k::d] is written with its
    '*z<L>^k' (``column_texts``) and the columns are zipped into one block per
    coefficient: a block with one nonzero text is that text and '*q^n', any
    other nonzero block '+ (...)*q^n' with its first sign inside.  The terms
    concatenate; one pass drops the '1*' before q, and ``first_sign`` writes
    the sign of the first term.
    """
    d, den, nums = f.ctx.degree, f.den, f.nums
    qs = _q_suffixes(f.prec)
    if d == 1 or not any(any(nums[k::d]) for k in range(1, d)):  # rational coefficients
        terms = signed_texts(nums[::d], den, qs)
    else:  # "".join gives a block's text, tuple.count its zeros, both in C
        blocks = list(zip(*[column_texts(f.ctx.L, k, nums[k::d], den) for k in range(d)]))
        one = d - 1
        terms = [t + q if zeros == one else "" if zeros == d else
                 f" + ({t[3:]}){q}" if t[1] == "+" else f" + (-{t[3:]}){q}"
                 for t, zeros, q in zip(map("".join, blocks), map(tuple.count, blocks, repeat("")), qs)]
    return f"{first_sign(''.join(terms).replace(' 1*', ' '))} + O(q^{f.prec})"
