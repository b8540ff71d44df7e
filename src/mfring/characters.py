"""Unit groups (Z/N)^x, Dirichlet characters, and twisted divisor sums.

Character values are kept abstractly as fractions of a full turn
(chi(n) = e^(2*pi*i*t) stored as t mod 1) and embedded into a concrete
cyclotomic field only on evaluation, so one character can serve any
field context whose conductor is a multiple of the value order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclo import CycloNum, FieldCtx, root_of_unity
from .errors import GroupMismatch, ImprimitiveCharacter, InvalidOrder, ParityViolation, UnknownForm


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _order_mod(a: int, n: int) -> int:
    if n == 1:
        return 1
    x, k = a % n, 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


def _primitive_root(q: int) -> int:
    # q an odd prime power; smallest generator of (Z/q)^x
    phi = sum(1 for a in range(1, q) if gcd(a, q) == 1)
    for g in range(2, q):
        if gcd(g, q) == 1 and _order_mod(g, q) == phi:
            return g
    raise ValueError(f"no primitive root mod {q}")


def _crt_lift(residues: list[tuple[int, int]], N: int) -> int:
    # residues: list of (value, modulus) with coprime moduli multiplying to N
    x = 0
    for v, m in residues:
        rest = N // m
        x += v * rest * pow(rest, -1, m)
    return x % N


class UnitGroup:
    """(Z/N)^x with a fixed direct-product decomposition into cyclic factors."""

    def __init__(self, N: int):
        self.N = N
        gens: list[int] = []
        orders: list[int] = []
        for p, e in _factorize(N) if N > 1 else []:
            q = p**e
            if p == 2:
                if e == 1:
                    local: list[tuple[int, int]] = []
                elif e == 2:
                    local = [(q - 1, 2)]
                else:
                    local = [(q - 1, 2), (5, 2 ** (e - 2))]
            else:
                local = [(_primitive_root(q), q // p * (p - 1))]
            for g0, d in local:
                # lift to be 1 modulo the complementary part of N
                g = g0 % N if q == N else _crt_lift([(g0 % q, q), (1, N // q)], N)
                gens.append(g)
                orders.append(d)
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.units = tuple(a for a in range(N) if gcd(a, N) == 1) if N > 1 else (0,)
        self.phi = len(self.units)
        # discrete logs by enumeration; doubles as a generation check
        dlog: dict[int, tuple[int, ...]] = {}
        exps = [0] * len(gens)
        total = 1
        for d in orders:
            total *= d
        if total != self.phi:
            raise ValueError(f"decomposition orders {orders} do not multiply to phi({N})")
        for flat in range(total):
            rem, vec = flat, []
            for d in orders:
                vec.append(rem % d)
                rem //= d
            val = 1 % N
            for g, e in zip(gens, vec):
                val = val * pow(g, e, N) % N if N > 1 else 0
            if val in dlog:
                raise ValueError(f"generators {gens} do not generate (Z/{N})^x")
            dlog[val] = tuple(vec)
        self._dlog = dlog

    def dlog(self, a: int) -> tuple[int, ...] | None:
        """Exponent vector of a on the generators, or None off the units."""
        a = a % self.N if self.N > 1 else 0
        return self._dlog.get(a)

    def __eq__(self, other):
        return isinstance(other, UnitGroup) and other.N == self.N

    def __hash__(self):
        return hash(("UnitGroup", self.N))

    def __repr__(self):
        return f"UnitGroup(N={self.N}, gens={self.gens}, orders={self.orders})"


@lru_cache(maxsize=None)
def unit_group(N: int) -> UnitGroup:
    if N < 1:
        raise ValueError("modulus must be positive")
    return UnitGroup(N)


class DirichletCharacter:
    """Character of (Z/N)^x given by value exponents on the group generators."""

    def __init__(self, group: UnitGroup, exps):
        exps = tuple(e % d for e, d in zip(exps, group.orders))
        if len(exps) != len(group.orders):
            raise ValueError("one exponent per generator required")
        self.group = group
        self.exps = exps

    @property
    def modulus(self) -> int:
        return self.group.N

    def value_fraction(self, n: int) -> Fraction | None:
        """chi(n) as a turn fraction in [0,1), or None when gcd(n,N) > 1."""
        vec = self.group.dlog(n)
        if vec is None:
            return None
        t = Fraction(0)
        for e, x, d in zip(self.exps, vec, self.group.orders):
            t += Fraction(e * x, d)
        return t % 1

    def eval(self, n: int, ctx: FieldCtx) -> CycloNum:
        """chi(n) embedded in Q(zeta_L); zero off the units."""
        t = self.value_fraction(n)
        if t is None:
            return ctx.zero
        return root_of_unity(ctx, t.numerator, t.denominator)

    def order(self) -> int:
        out = 1
        for e, d in zip(self.exps, self.group.orders):
            o = d // gcd(e, d)
            out = out * o // gcd(out, o)
        return out

    def parity(self) -> int:
        """chi(-1), which is +1 or -1."""
        if self.group.N <= 2:
            return 1
        t = self.value_fraction(self.group.N - 1)
        return 1 if t == 0 else -1

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)

    def conductor(self) -> int:
        """Smallest modulus d | N through which the character factors."""
        N = self.group.N
        for d in divisors(N):
            # trivial on the kernel of reduction mod d?
            kernel = (u for u in self.group.units if N > 1 and u % d == 1 % d)
            if all(self.value_fraction(u) == 0 for u in kernel):
                return d
        return N

    def is_primitive(self) -> bool:
        return self.conductor() == self.group.N

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.group != self.group:
            raise GroupMismatch(f"moduli {self.modulus} vs {other.modulus}")
        return DirichletCharacter(self.group, [a + b for a, b in zip(self.exps, other.exps)])

    def __pow__(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self.group, [e * k for e in self.exps])

    def conj(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, [-e for e in self.exps])

    def lift(self, M: int) -> "DirichletCharacter":
        """The character mod M (a multiple of N) induced by composition with reduction."""
        if M % self.group.N != 0:
            raise ValueError(f"{M} is not a multiple of {self.group.N}")
        tgt = unit_group(M)
        exps = []
        for g, d in zip(tgt.gens, tgt.orders):
            t = self.value_fraction(g)
            if t is None:
                raise ValueError("lift undefined: generator not a unit at base modulus")
            e = t * d
            if e.denominator != 1:
                raise InvalidOrder(f"value order {t.denominator} incompatible with {d}")
            exps.append(int(e))
        return DirichletCharacter(tgt, exps)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and other.group == self.group
            and other.exps == self.exps
        )

    def __hash__(self):
        return hash(("DirichletCharacter", self.group.N, self.exps))

    def __repr__(self):
        return f"DirichletCharacter(N={self.group.N}, exps={self.exps})"


def character(group: UnitGroup, assignments) -> DirichletCharacter:
    """The unique character with chi(u) = e^(2*pi*i*t) for each (u, t) given."""
    pairs = []
    for u, t in assignments:
        t = Fraction(t) % 1
        vec = group.dlog(u)
        if vec is None:
            raise InvalidOrder(f"{u} is not a unit mod {group.N}")
        elem_order = 1
        for x, d in zip(vec, group.orders):
            o = d // gcd(x, d)
            elem_order = elem_order * o // gcd(elem_order, o)
        if elem_order % t.denominator != 0:
            raise InvalidOrder(
                f"value of order {t.denominator} on element of order {elem_order}"
            )
        pairs.append((u, t))
    # the group is tiny: scan the full character lattice for the match
    total = 1
    for d in group.orders:
        total *= d
    for flat in range(total):
        rem, exps = flat, []
        for d in group.orders:
            exps.append(rem % d)
            rem //= d
        chi = DirichletCharacter(group, exps)
        if all(chi.value_fraction(u) == t for u, t in pairs):
            return chi
    raise InvalidOrder(f"no character mod {group.N} satisfies {assignments}")


def trivial_character(N: int) -> DirichletCharacter:
    """Unit indicator mod N: 1 on units, 0 elsewhere (imprimitive for N > 1)."""
    g = unit_group(N)
    return DirichletCharacter(g, [0] * len(g.gens))


_NAMED_DEFS: dict[str, tuple[int, list[tuple[int, Fraction]]] | tuple[str, int]] = {
    "rho3": (3, [(2, Fraction(1, 2))]),
    "rho4": (4, [(3, Fraction(1, 2))]),
    "chi5": (5, [(2, Fraction(1, 4))]),
    "rho5": ("chi5", 2),
    "chi7": (7, [(3, Fraction(1, 6))]),
    "rho7": ("chi7", 3),
    "rho8": (8, [(7, Fraction(1, 2)), (5, Fraction(1, 2))]),
    "chi9": (9, [(2, Fraction(1, 6))]),
    "chi11": (11, [(2, Fraction(1, 10))]),
    "rho11": ("chi11", 5),
    "chi13": (13, [(2, Fraction(1, 12))]),
    "rho13": ("chi13", 6),
    "chi16": (16, [(15, Fraction(1, 2)), (5, Fraction(1, 4))]),
    # 2 is not a generator mod 17 (order 8); 3 is the smallest primitive root
    "chi17": (17, [(3, Fraction(1, 16))]),
    "rho17": ("chi17", 8),
    "chi19": (19, [(2, Fraction(1, 18))]),
    "rho19": ("chi19", 9),
    "chi23": (23, [(5, Fraction(1, 22))]),
    "rho23": ("chi23", 11),
}


@lru_cache(maxsize=None)
def named_character(name: str) -> DirichletCharacter:
    if name not in _NAMED_DEFS:
        raise UnknownForm(f"unknown character name {name!r}")
    spec = _NAMED_DEFS[name]
    if isinstance(spec[0], str):
        return named_character(spec[0]) ** spec[1]
    N, assignments = spec
    return character(unit_group(N), assignments)


def character_names() -> list[str]:
    return sorted(_NAMED_DEFS)


def require_primitive(chi: DirichletCharacter):
    if not chi.is_primitive():
        raise ImprimitiveCharacter(
            f"character mod {chi.modulus} has conductor {chi.conductor()}"
        )


def require_parity(chi_parity: int, k: int):
    if chi_parity != (-1) ** k:
        raise ParityViolation(f"chi(-1) = {chi_parity} but weight {k} needs {(-1) ** k}")


def sigma_twisted(k: int, rho: DirichletCharacter, n: int, ctx: FieldCtx) -> CycloNum:
    """(sigma_k * rho)(n) = sum over d | n of rho(d) * d^k."""
    out = ctx.zero
    for d in divisors(n):
        v = rho.eval(d, ctx)
        if not v.is_zero():
            out = out + v * (d**k)
    return out


def sigma_upper_twisted(k: int, chi: DirichletCharacter, n: int, ctx: FieldCtx) -> CycloNum:
    """sum over d | n of chi(n/d) * d^(k-1)."""
    out = ctx.zero
    for d in divisors(n):
        v = chi.eval(n // d, ctx)
        if not v.is_zero():
            out = out + v * (d ** (k - 1))
    return out


def sigma_two_char(
    k: int, chi: DirichletCharacter, psi: DirichletCharacter, n: int, ctx: FieldCtx
) -> CycloNum:
    """sum over d | n of chi(d) * psi(n/d) * d^(k-1)."""
    out = ctx.zero
    for d in divisors(n):
        a = chi.eval(d, ctx)
        if a.is_zero():
            continue
        b = psi.eval(n // d, ctx)
        if not b.is_zero():
            out = out + a * b * (d ** (k - 1))
    return out
