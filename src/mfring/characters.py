"""Dirichlet characters as residue value tables, and twisted divisor sums.

A character mod N is stored as its value at every residue, as a fraction
of a full turn (chi(a) = e^(2*pi*i*t) stored as t mod 1, None off the
units), and embedded into a concrete cyclotomic field only by the sums
that use it, so one character can serve any field context whose
conductor is a multiple of the value order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, sub

from .cyclo import FieldCtx, roots_of_unity
from .errors import GroupMismatch, ImprimitiveCharacter, InvalidOrder, ParityViolation, UnknownForm


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def units(N: int) -> tuple[int, ...]:
    """The residues 0 <= a < N prime to N; (0,) for N = 1."""
    return tuple(a for a in range(N) if gcd(a, N) == 1)


class DirichletCharacter:
    """Character mod N given by its turn fraction at every residue."""

    def __init__(self, modulus: int, turns):
        self.modulus = modulus
        self.turns = tuple(turns)
        self._order = self._conductor = None  # each computed on first use

    def _map(self, f) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus, (None if t is None else f(t) % 1 for t in self.turns)
        )

    def order(self) -> int:
        if self._order is None:
            self._order = lcm(*(t.denominator for t in self.turns if t is not None))
        return self._order

    def parity(self) -> int:
        """chi(-1), which is +1 or -1."""
        return 1 if self.turns[self.modulus - 1] == 0 else -1

    def conductor(self) -> int:
        """Smallest modulus d | N through which the character factors."""
        if self._conductor is None:
            N = self.modulus
            # the first d trivial on the kernel of reduction mod d; N itself always is
            self._conductor = next(d for d in divisors(N) if all(
                self.turns[u] == 0 for u in units(N) if u % d == 1 % d))
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.modulus != self.modulus:
            raise GroupMismatch(f"moduli {self.modulus} vs {other.modulus}")
        return DirichletCharacter(
            self.modulus,
            (None if a is None else (a + b) % 1 for a, b in zip(self.turns, other.turns)),
        )

    def __pow__(self, k: int) -> "DirichletCharacter":
        return self._map(lambda t: t * k)

    def conj(self) -> "DirichletCharacter":
        return self._map(lambda t: -t)

    def lift(self, M: int) -> "DirichletCharacter":
        """The character mod M (a multiple of N) induced by composition with reduction."""
        if M % self.modulus != 0:
            raise ValueError(f"{M} is not a multiple of {self.modulus}")
        return DirichletCharacter(
            M, (self.turns[a % self.modulus] if gcd(a, M) == 1 else None for a in range(M))
        )

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and other.modulus == self.modulus
            and other.turns == self.turns
        )

    def __hash__(self):
        return hash(("DirichletCharacter", self.modulus, self.turns))

    def __repr__(self):
        return f"DirichletCharacter(N={self.modulus}, turns={self.turns})"


def character(N: int, assignments) -> DirichletCharacter:
    """The character mod N with chi(u) = e^(2*pi*i*t) for each (u, t) given.

    The values are closed under multiplication; they must be consistent
    and must reach every unit mod N.
    """
    gens = []
    for u, t in assignments:
        if gcd(u, N) != 1:
            raise InvalidOrder(f"{u} is not a unit mod {N}")
        gens.append((u % N, Fraction(t) % 1))
    turns: list[Fraction | None] = [None] * N
    turns[1 % N] = Fraction(0)
    frontier = [1 % N]
    while frontier:
        x = frontier.pop()
        for g, t in gens:
            y, ty = x * g % N, (turns[x] + t) % 1
            if turns[y] is None:
                turns[y] = ty
                frontier.append(y)
            elif turns[y] != ty:
                raise InvalidOrder(f"values {assignments} are not a character mod {N}")
    if any(turns[u] is None for u in units(N)):
        raise InvalidOrder(f"values {assignments} do not reach every unit mod {N}")
    return DirichletCharacter(N, turns)


@lru_cache(maxsize=None)
def trivial_character(N: int) -> DirichletCharacter:
    """Unit indicator mod N: 1 on units, 0 elsewhere (imprimitive for N > 1)."""
    return DirichletCharacter(N, (Fraction(0) if gcd(a, N) == 1 else None for a in range(N)))


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
    return character(N, assignments)


def require_primitive(chi: DirichletCharacter):
    if not chi.is_primitive():
        raise ImprimitiveCharacter(
            f"character mod {chi.modulus} has conductor {chi.conductor()}"
        )


def require_parity(chi_parity: int, k: int):
    if chi_parity != (-1) ** k:
        raise ParityViolation(f"chi(-1) = {chi_parity} but weight {k} needs {(-1) ** k}")


def divisor_sums(
    k: int, chi: DirichletCharacter, psi: DirichletCharacter, prec: int, ctx: FieldCtx
) -> list[int]:
    """Coefficients 0..prec-1 of sum_n (sum over d | n of chi(d) psi(n/d) d^(k-1)) q^n,
    as flat integer coordinates: coordinate j of coefficient n is entry n*phi(L) + j.

    The pair (d, m = n/d) adds d^(k-1) times the root zeta_m0^(turn chi(d) +
    turn psi(m)), m0 the lcm of the two orders (needs m0 | L), straight into
    the coordinates of coefficient d*m: one slice per nonzero coordinate of
    the root.  The pairs with d*m < prec are split by the Dirichlet
    hyperbola at D ~ sqrt(prec*N/M), N and M the moduli of chi and psi.  A
    divisor d <= D takes its multiples with m = r mod M together, d*M
    coefficients apart and all of weight d^(k-1); a cofactor m <= (prec-1)
    // (D+1) takes the divisors d > D with d = s mod N together, N*m
    coefficients apart, and adds the matching slice of the powers.  That is
    at most about 2*sqrt(prec*N*M) progressions, not prec Python steps; a
    progression of one term is added as one entry, not as a slice.  No
    bucket array is kept and nothing is folded afterwards.
    """
    m0 = lcm(chi.order(), psi.order())
    roots = [[(i, x) for i, x in enumerate(r) if x] for r in roots_of_unity(ctx, m0)]
    a_of, b_of = (
        [None if t is None else t.numerator * m0 // t.denominator for t in c.turns]
        for c in (chi, psi)
    )
    N, M, deg = chi.modulus, psi.modulus, ctx.degree
    top = prec - 1
    D = min(top, isqrt(top * N // M))
    pw = list(map(pow, range(prec), repeat(k - 1)))
    out = [0] * (prec * deg)
    for d in range(1, D + 1):  # all m, by residue class mod M
        a = a_of[d % N]
        if a is None:
            continue
        w, last, step = pw[d], top // d, d * M * deg
        for r in range(1, min(M, last) + 1):
            b = b_of[r % M]
            if b is None:
                continue
            start = d * r * deg
            if r + M > last:  # the class holds one multiple
                for i, x in roots[(a + b) % m0]:
                    out[start + i] += x * w
                continue
            for i, x in roots[(a + b) % m0]:
                v = x * w
                out[start + i::step] = map(v.__add__, out[start + i::step])
    for m in range(1, top // (D + 1) + 1):  # d > D, by residue class mod N
        b = b_of[m % M]
        if b is None:
            continue
        hi, step = top // m, N * m * deg
        for d0 in range(D + 1, min(D + N, hi) + 1):
            a = a_of[d0 % N]
            if a is None:
                continue
            start = d0 * m * deg
            if d0 + N > hi:  # the class holds one divisor
                for i, x in roots[(a + b) % m0]:
                    out[start + i] += x * pw[d0]
                continue
            col = pw[d0:hi + 1:N]
            for i, x in roots[(a + b) % m0]:
                cut = slice(start + i, None, step)
                if x == 1:
                    out[cut] = map(add, out[cut], col)
                elif x == -1:
                    out[cut] = map(sub, out[cut], col)
                else:
                    out[cut] = map(add, out[cut], map(x.__mul__, col))
    return out
