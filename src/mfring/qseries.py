"""Truncated q-expansions over a cyclotomic field.

A QSeries stores exactly `prec` coefficients: the series is known
modulo q^prec.  Binary operations truncate to the shorter precision;
the substitution q -> q^h expands precision to h*(prec-1)+1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import CycloNum, FieldCtx, render_cyclo, render_fraction
from .errors import BadLeadingShape, ContextMismatch


class QSeries:
    """Immutable truncated power series in q with CycloNum coefficients."""

    __slots__ = ("ctx", "prec", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs, prec: int | None = None):
        coeffs = tuple(coeffs)
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise ValueError("precision must be positive")
        if len(coeffs) != prec:
            raise ValueError("coefficient count must equal precision")
        self.ctx = ctx
        self.prec = prec
        self.coeffs = coeffs

    @classmethod
    def one(cls, ctx: FieldCtx, prec: int) -> "QSeries":
        return cls(ctx, [ctx.one] + [ctx.zero] * (prec - 1))

    @classmethod
    def zero(cls, ctx: FieldCtx, prec: int) -> "QSeries":
        return cls(ctx, [ctx.zero] * prec)

    def coefficient(self, n: int) -> CycloNum:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def _check(self, other: "QSeries"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"L={self.ctx.L} vs L={other.ctx.L}")

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        return QSeries(self.ctx, self.coeffs[:prec])

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        p = min(self.prec, other.prec)
        return QSeries(self.ctx, [a + b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        p = min(self.prec, other.prec)
        return QSeries(self.ctx, [a - b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    def __neg__(self):
        return QSeries(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        p = min(self.prec, other.prec)
        return QSeries(self.ctx, _kronecker_product(self.ctx, self.coeffs[:p], other.coeffs[:p]))

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        if not isinstance(c, CycloNum):
            c = self.ctx.from_rational(c)
        return QSeries(self.ctx, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative series powers unsupported")
        result = QSeries.one(self.ctx, self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def v_operator(self, h: int, keep: int | None = None) -> "QSeries":
        """Substitute q -> q^h; precision becomes h*(prec-1)+1, or `keep` if smaller."""
        if h < 1:
            raise ValueError("h must be positive")
        new_prec = h * (self.prec - 1) + 1
        if keep is not None and keep < new_prec:
            new_prec = keep
        if h == 1:
            return self if new_prec == self.prec else self.truncate(new_prec)
        out = [self.ctx.zero] * new_prec
        for i in range((new_prec - 1) // h + 1):
            out[h * i] = self.coeffs[i]
        return QSeries(self.ctx, out)

    def lowered(self, h: int) -> "QSeries":
        """(1/a)(f - f(q^h)) for f = 1 + a*q + ...; starts q + O(q^2)."""
        if self.prec < 2:
            raise BadLeadingShape("need at least two coefficients")
        if self.coeffs[0] != self.ctx.one:
            raise BadLeadingShape("constant term must be 1")
        a = self.coeffs[1]
        if a.is_zero():
            raise BadLeadingShape("q coefficient must be nonzero")
        return (self - self.v_operator(h, self.prec)).scale(a.invert())

    def conj(self) -> "QSeries":
        return QSeries(self.ctx, [c.conj() for c in self.coeffs])

    def vanishing_order(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to precision."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return None

    def is_zero(self) -> bool:
        return self.vanishing_order() is None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.ctx == other.ctx and self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.L, self.coeffs))

    def __repr__(self):
        return f"QSeries({render_qseries(self)!r})"

    def __str__(self):
        return render_qseries(self)


def _integer_coords(coeffs) -> tuple[int, list[int]]:
    """Common denominator D and the flat integer coordinates of D*coeffs."""
    flat = [x for c in coeffs for x in c.coords]
    den = lcm(*[x.denominator for x in flat])
    return den, [x.numerator * (den // x.denominator) for x in flat]


def _kronecker_product(ctx: FieldCtx, a, b) -> list[CycloNum]:
    """Truncated product of two equal-length coefficient tuples, exactly.

    Coefficient n of a series and coordinate k of its zeta-part become
    slot n*(2d-1)+k of one integer in base 2^W (d = phi(L)), so a single
    big-int multiply convolves in q and in zeta at once.  A product slot
    sums at most p*d terms, each bounded by max|a|*max|b|, so W bits hold
    it as a signed value; slots are read back with an offset of 2^(W-1)
    that makes every one of them nonnegative.  Powers zeta^(>=d) are then
    folded with the integer reduction table (Phi_L is monic).
    """
    p, d = len(a), ctx.degree
    stride = 2 * d - 1
    da, xa = _integer_coords(a)
    db, xb = _integer_coords(b)
    height = max(map(abs, xa)) * max(map(abs, xb)) * p * d
    if not height:  # a zero operand; its coordinates may not fit the slots
        return [ctx.zero] * p
    nb = (height.bit_length() + 2 + 7) // 8  # slot width in whole bytes
    half = 1 << (8 * nb - 1)
    half_slot = half.to_bytes(nb, "little")
    pad = half_slot * (d - 1)
    offset = int.from_bytes(half_slot * (p * stride), "little")

    def pack(xs):
        parts = []
        for n in range(0, p * d, d):
            parts.extend((v + half).to_bytes(nb, "little") for v in xs[n:n + d])
            parts.append(pad)
        return int.from_bytes(b"".join(parts), "little") - offset

    raw = (pack(xa) * pack(xb) + offset) & ((1 << (8 * nb * p * stride)) - 1)
    buf = memoryview(raw.to_bytes(nb * p * stride, "little"))
    slots = [int.from_bytes(buf[i:i + nb], "little") - half
             for i in range(0, len(buf), nb)]
    den = da * db
    red = ctx._red
    out = []
    for base in range(0, p * stride, stride):
        coords = slots[base:base + d]
        for i, c in enumerate(slots[base + d:base + stride]):
            if c:
                tail = red[i]
                for j in range(d):
                    coords[j] += c * tail[j]
        out.append(CycloNum(ctx, tuple(Fraction(v, den) for v in coords)))
    return out


def _coeff_term(c: CycloNum, n: int) -> tuple[str, str]:
    """(sign, magnitude-text) for coefficient c of q^n."""
    qpart = "q" if n == 1 else f"q^{n}"
    nonzero = [i for i in range(len(c.coords)) if c.coords[i]]
    if len(nonzero) != 1:
        # general cyclotomic coefficient: parenthesize
        body = f"({render_cyclo(c)})"
        return "+", body if n == 0 else f"{body}*{qpart}"
    i = nonzero[0]
    val = c.coords[i]
    sign = "-" if val < 0 else "+"
    mag = abs(val)
    sym = "" if i == 0 else (f"z{c.ctx.L}" if i == 1 else f"z{c.ctx.L}^{i}")
    if sym:
        coeff_txt = sym if mag == 1 else f"{render_fraction(mag)}*{sym}"
    else:
        coeff_txt = render_fraction(mag)
    if n == 0:
        return sign, coeff_txt
    if coeff_txt == "1":
        return sign, qpart
    return sign, f"{coeff_txt}*{qpart}"


def render_qseries(f: QSeries) -> str:
    """Canonical rendering 'c0 + c1*q + ... + O(q^P)', omitting zero terms."""
    parts: list[str] = []
    for n, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        sign, text = _coeff_term(c, n)
        if not parts:
            parts.append(text if sign == "+" else f"-{text}")
        else:
            parts.append(f"{'+' if sign == '+' else '-'} {text}")
    if not parts:
        parts = ["0"]
    return " ".join(parts) + f" + O(q^{f.prec})"
