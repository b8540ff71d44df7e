"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored by their coordinates in the power basis
1, z, ..., z^(phi(L)-1) where z is a primitive L-th root of unity;
every operation reduces modulo the L-th cyclotomic polynomial, so
equality is coordinatewise.  All coordinates are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatch, ContextMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """Coefficients (ascending) of the L-th cyclotomic polynomial."""
    if L < 1:
        raise ValueError("conductor must be positive")
    if L == 1:
        return (-1, 1)
    poly = [0] * (L + 1)
    poly[0], poly[L] = -1, 1  # x^L - 1
    for d in range(1, L):
        if L % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert all(c == 0 for c in rem)
    return tuple(poly)


class FieldCtx:
    """Field context for Q(zeta_L): conductor, minimal polynomial, reduction data."""

    __slots__ = ("L", "degree", "minpoly", "_red", "zero", "one")

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("conductor must be positive")
        self.L = L
        self.minpoly = cyclotomic_polynomial(L)
        self.degree = len(self.minpoly) - 1
        # x^(degree+i) mod minpoly for i = 0..degree-2, used to fold products;
        # integral because the minimal polynomial is monic
        red: list[tuple[int, ...]] = []
        cur = [-c for c in self.minpoly[:-1]]  # x^degree reduced
        red.append(tuple(cur))
        for _ in range(self.degree - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]  # multiply by x
            if top:
                for j in range(self.degree):
                    cur[j] += top * red[0][j]
            red.append(tuple(cur))
        self._red = tuple(red)
        self.zero = CycloNum(self, (_ZERO,) * self.degree)
        one = [_ZERO] * self.degree
        one[0] = _ONE
        self.one = CycloNum(self, tuple(one))

    def __repr__(self):
        return f"FieldCtx(L={self.L})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.L == self.L

    def __hash__(self):
        return hash(("FieldCtx", self.L))

    def from_rational(self, value) -> "CycloNum":
        coords = [_ZERO] * self.degree
        coords[0] = Fraction(value)
        return CycloNum(self, tuple(coords))

    def reduce(self, raw: list[Fraction]) -> "CycloNum":
        """Reduce an arbitrary-degree coefficient list modulo the minimal polynomial."""
        d = self.degree
        raw = list(raw)
        for i in range(len(raw) - 1, d - 1, -1):
            c = raw[i]
            if c:
                raw[i] = _ZERO
                for j in range(d):
                    raw[i - d + j] -= c * self.minpoly[j]
        coords = raw[:d] + [_ZERO] * (d - len(raw))
        return CycloNum(self, tuple(coords[:d]))

    def zeta_power(self, e: int) -> "CycloNum":
        e %= self.L
        if e < self.degree:
            coords = [_ZERO] * self.degree
            coords[e] = _ONE
            return CycloNum(self, tuple(coords))
        raw = [_ZERO] * (e + 1)
        raw[e] = _ONE
        return self.reduce(raw)


@lru_cache(maxsize=None)
def cyclo_context(L: int) -> FieldCtx:
    return FieldCtx(L)


def root_of_unity(ctx: FieldCtx, a: int, b: int) -> "CycloNum":
    """The root e^(2*pi*i*a/b) as an element of Q(zeta_L); needs b | L."""
    if b < 1 or ctx.L % b != 0:
        raise ConductorMismatch(f"order {b} does not divide conductor {ctx.L}")
    return ctx.zeta_power((a % b) * (ctx.L // b))


class CycloNum:
    """Element of Q(zeta_L) in the power basis; immutable."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords: tuple):
        self.ctx = ctx
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(f"L={self.ctx.L} vs L={other.ctx.L}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.ctx, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum(self.ctx, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloNum(self.ctx, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.ctx.degree
        a, b = self.coords, o.coords
        raw = [_ZERO] * (2 * d - 1) if d > 0 else [_ZERO]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    raw[i + j] += ai * bj
        # fold x^(d+i) terms using the precomputed reduced powers
        coords = list(raw[:d])
        red = self.ctx._red
        for i in range(d, len(raw)):
            c = raw[i]
            if c:
                tail = red[i - d]
                for j in range(d):
                    coords[j] += c * tail[j]
        return CycloNum(self.ctx, tuple(coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.ctx == other.ctx and self.coords == other.coords

    def __hash__(self):
        return hash((self.ctx.L, self.coords))

    def __bool__(self):
        return any(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def is_integer(self) -> bool:
        return self.is_rational() and self.coords[0].denominator == 1

    def invert(self) -> "CycloNum":
        """Extended Euclid against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        if self.is_rational():
            return self.ctx.from_rational(1 / self.coords[0])
        # r0 = minpoly, r1 = self; track s with r = s*self (mod minpoly)
        r0 = [Fraction(c) for c in self.ctx.minpoly]
        r1 = list(self.coords)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while len(r1) > 1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                return self.ctx.reduce([c * inv for c in s1])
            q, r = _poly_divmod_frac(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s

    def conj(self) -> "CycloNum":
        """Complex conjugation: zeta -> zeta^(L-1)."""
        L = self.ctx.L
        if self.ctx.degree <= 1:
            return self
        raw = [_ZERO] * L
        for i, c in enumerate(self.coords):
            if c:
                raw[(L - i) % L] += c
        return self.ctx.reduce(raw)

    def __repr__(self):
        return f"CycloNum({render_cyclo(self)!r}, L={self.ctx.L})"

    def __str__(self):
        return render_cyclo(self)


def _poly_divmod_frac(num, den):
    num = list(num)
    d = len(den) - 1
    lead = den[d]
    q = [_ZERO] * max(1, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if not c:
            continue
        c = c / lead
        q[i - d] = c
        for j in range(d + 1):
            num[i - d + j] -= c * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def render_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_cyclo(x: CycloNum) -> str:
    """Canonical text form: ascending powers of z<L>, e.g. '1/2 - 3*z12^2'."""
    sym = f"z{x.ctx.L}"
    parts = []
    for i, c in enumerate(x.coords):
        if not c:
            continue
        if i == 0:
            term = render_fraction(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else render_fraction(mag) + "*"
            term = head + (sym if i == 1 else f"{sym}^{i}")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts) if parts else "0"
