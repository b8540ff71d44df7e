import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring.characters import (
    _NAMED_DEFS,
    character,
    divisor_sums,
    named_character,
    trivial_character,
    units,
)
from mfring.cyclo import cyclo_context, root_of_unity, roots_of_unity
from mfring.errors import ConductorMismatch, GroupMismatch, InvalidOrder

C2 = cyclo_context(2)
C4 = cyclo_context(4)
C6 = cyclo_context(6)


def _value(chi, n, ctx):
    """chi(n) in ctx; zero off the units."""
    t = chi.turns[n % chi.modulus]
    return ctx.zero if t is None else root_of_unity(ctx, t.numerator, t.denominator)


def _phi(N):
    return sum(1 for a in range(1, N + 1) if gcd(a, N) == 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 24, 25])
def test_unit_group_generates(N):
    us = units(N)
    assert len(us) == _phi(N) and all(0 <= a < N for a in us)
    # (Z/N)^x: closed under products, every element invertible
    assert {a * b % N for a in us for b in us} == set(us)
    assert all(pow(a, -1, N) in us for a in us)


@pytest.mark.parametrize("name", sorted(_NAMED_DEFS))
def test_named_tables_match_generator_powers(name):
    # independent of the closure: chi(prod g_i^e_i) = sum e_i t_i for every
    # exponent vector, so each unit gets the turn of some vector reaching it
    spec, power = _NAMED_DEFS[name], 1
    if isinstance(spec[0], str):  # a power of another named character
        spec, power = _NAMED_DEFS[spec[0]], spec[1]
    N, gens = spec
    chi = named_character(name)
    seen = {}
    for exps in product(range(N), repeat=len(gens)):
        u = prod(pow(g, e, N) for (g, _), e in zip(gens, exps)) % N
        t = sum(e * t for (_, t), e in zip(gens, exps)) % 1
        seen.setdefault(u, t)
        assert seen[u] == t, (name, u)
    assert sorted(seen) == list(units(N))
    for a in range(N):
        want = seen[a] * power % 1 if a in seen else None
        assert chi.turns[a % chi.modulus] == want, (name, a)


def test_character_construction_and_eval():
    rho4 = named_character("rho4")
    assert _value(rho4, 3, C2) == -1
    assert _value(rho4, 2, C2).is_zero()
    chi5 = named_character("chi5")
    assert _value(chi5, 4, C4) == -1
    assert _value(chi5, 2, C4) == C4.zeta_power(1)
    rho3 = named_character("rho3")
    assert _value(rho3, 3 - 1, C2) == -1  # value at -1 mod 3
    chi7 = named_character("chi7")
    assert _value(chi7, 3, C6) * _value(chi7, 3, C6) == _value(chi7, 2, C6)


def test_invalid_order_rejected():
    # conflicting values: the order of the value does not divide that of the unit
    with pytest.raises(InvalidOrder):
        character(5, [(2, Fraction(1, 3))])
    with pytest.raises(InvalidOrder):
        character(4, [(3, Fraction(1, 4))])
    # conflicting values: 4 = 2^2 mod 5 gets two turns
    with pytest.raises(InvalidOrder):
        character(5, [(2, Fraction(1, 4)), (4, Fraction(1, 4))])
    with pytest.raises(InvalidOrder, match="not a unit"):
        character(6, [(5, Fraction(1, 2)), (2, Fraction(1, 2))])
    # 4 has order 2 mod 5, so its powers miss 2 and 3
    with pytest.raises(InvalidOrder, match="reach every unit"):
        character(5, [(4, Fraction(1, 2))])
    with pytest.raises(InvalidOrder, match="reach every unit"):
        character(8, [(7, Fraction(1, 2))])
    assert character(5, [(2, Fraction(1, 4)), (4, Fraction(1, 2))]) == named_character("chi5")


def test_char_ops():
    chi5 = named_character("chi5")
    rho5 = named_character("rho5")
    assert chi5**2 == rho5
    assert rho5.order() == 2
    assert chi5.conj() == chi5**3
    triv = trivial_character(5)
    assert chi5 * triv == chi5
    with pytest.raises(GroupMismatch):
        chi5 * named_character("rho3")


def test_named_relations_pointwise():
    chi9, rho3 = named_character("chi9"), named_character("rho3")
    for u in units(9):
        assert (chi9**3).turns[u % 9] == rho3.turns[u % 3]
    chi16 = named_character("chi16")
    prod = named_character("rho4").lift(16) * named_character("rho8").lift(16)
    for u in units(16):
        assert (chi16**2).turns[u % 16] == prod.turns[u % 16]


def test_parity_and_primitivity():
    assert named_character("rho4").parity() == -1
    assert named_character("rho3").parity() == -1
    assert named_character("rho5").parity() == 1
    assert trivial_character(7).parity() == 1
    lifted = named_character("rho3").lift(9)
    assert not lifted.is_primitive()
    assert lifted.conductor() == 3
    for name in ("rho3", "rho4", "chi5", "chi7", "rho7", "rho8", "chi9",
                 "chi11", "chi13", "chi16", "chi17", "chi19", "chi23"):
        assert named_character(name).is_primitive(), name


def test_multiplicativity_random():
    rng = random.Random(123)
    for name, L in (("chi5", 4), ("chi7", 6), ("chi9", 6)):
        chi = named_character(name)
        ctx = cyclo_context(L)
        N = chi.modulus
        for _ in range(20):
            m, n = rng.randint(1, 50), rng.randint(1, 50)
            if gcd(m, N) > 1 or gcd(n, N) > 1:
                continue
            assert _value(chi, m * n, ctx) == _value(chi, m, ctx) * _value(chi, n, ctx)


def test_orthogonality():
    for name, L in (("chi5", 4), ("rho3", 2), ("chi9", 6), ("rho8", 2)):
        chi = named_character(name)
        ctx = cyclo_context(L)
        total = ctx.zero
        for u in units(chi.modulus):
            total = total + _value(chi, u, ctx)
        assert total.is_zero(), name


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _rows(flat, ctx):
    """divisor_sums output split into one integer coordinate row per coefficient."""
    d = ctx.degree
    return [tuple(flat[n:n + d]) for n in range(0, len(flat), d)]


def _ints(c):
    assert c.den == 1
    return c.nums


def test_twisted_sigma_against_enumeration():
    triv1 = trivial_character(1)
    assert _rows(divisor_sums(2, triv1, triv1, 7, C2), C2)[6] == (12,)
    got = _rows(divisor_sums(1, named_character("rho4"), triv1, 6, C2), C2)
    assert got[5] == (2,)
    assert got[3] == (0,)
    for rho in (named_character("rho3"), trivial_character(6)):
        assert _rows(divisor_sums(1, rho, triv1, 2, C2), C2)[1] == (1,)
    # ordinary sigma_(k-1) via the unit indicator mod 1
    for k in (1, 2, 4):
        got = _rows(divisor_sums(k, triv1, triv1, 30, C2), C2)
        assert got[0] == (0,)
        for n in range(1, 30):
            assert got[n] == (sum(d ** (k - 1) for d in _divisors(n)),)
    # indicator mod 2 keeps only odd divisors
    got = _rows(divisor_sums(2, trivial_character(2), triv1, 20, C2), C2)
    for n in range(1, 20):
        assert got[n] == (sum(d for d in _divisors(n) if d % 2 == 1),)


def test_twisted_sigma_other_shapes():
    triv1, rho3 = trivial_character(1), named_character("rho3")
    # psi on the codivisor, as in the g-family
    got = _rows(divisor_sums(3, triv1, rho3, 3, C2), C2)[2]
    want = _value(rho3, 2, C2) * 1 + _value(rho3, 1, C2) * 4
    assert got == _ints(want) == (3,)
    rho5, chi5 = named_character("rho5"), named_character("chi5")
    got = _rows(divisor_sums(1, rho5, chi5, 6, C4), C4)
    assert got[5] == (0, 0)
    assert got[1] == (1, 0)


_SUM_CHARACTERS = [trivial_character(1)] + [named_character(n) for n in sorted(_NAMED_DEFS)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SUM_CHARACTERS), st.sampled_from(_SUM_CHARACTERS),
       st.integers(1, 6), st.integers(1, 80), st.integers(1, 3))
def test_divisor_sums_equal_the_enumerated_sums(chi, psi, k, prec, cofactor):
    ctx = cyclo_context(lcm(chi.order(), psi.order()) * cofactor)
    got = _rows(divisor_sums(k, chi, psi, prec, ctx), ctx)
    assert len(got) == prec
    assert got[0] == (0,) * ctx.degree
    for n in range(1, prec):
        want = ctx.zero
        for d in _divisors(n):
            want = want + _value(chi, d, ctx) * _value(psi, n // d, ctx) * d ** (k - 1)
        assert got[n] == _ints(want), (n, chi, psi)


@pytest.mark.parametrize("name", ["triv1"] + sorted(_NAMED_DEFS))
def test_divisor_sums_with_many_multiples_per_divisor(name):
    # prec 200-600 puts the hyperbola split D = isqrt((prec-1)*N/M) well inside
    # the range (N, M the moduli of chi and psi), so divisors d <= D add long
    # classes of m = n/d mod M and cofactors add long classes of d > D mod N
    psi = trivial_character(1) if name == "triv1" else named_character(name)
    rng = random.Random(name)
    chi = rng.choice(_SUM_CHARACTERS)
    k, prec = rng.randint(1, 5), rng.randint(200, 600)
    ctx = cyclo_context(lcm(chi.order(), psi.order()))
    got = _rows(divisor_sums(k, chi, psi, prec, ctx), ctx)
    chi_of = [_value(chi, n, ctx) for n in range(chi.modulus)]
    psi_of = [_value(psi, n, ctx) for n in range(psi.modulus)]
    want = [ctx.zero] * prec
    for d in range(1, prec):
        for n in range(d, prec, d):
            want[n] += chi_of[d % chi.modulus] * psi_of[(n // d) % psi.modulus] * d ** (k - 1)
    assert got == [_ints(w) for w in want], (chi, psi, k, prec)


def _reference_sums(k, chi, psi, prec, ctx):
    """divisor_sums by the definition: every pair d*m < prec adds d^(k-1) times
    the coordinates of chi(d) psi(m), taken from a table of field products."""
    N, M, deg = chi.modulus, psi.modulus, ctx.degree
    table = {(r, s): _ints(_value(chi, r, ctx) * _value(psi, s, ctx))
             for r in range(N) for s in range(M)}
    out = [0] * (prec * deg)
    for d in range(1, prec):
        w = d ** (k - 1)
        for m in range(1, (prec - 1) // d + 1):
            for i, x in enumerate(table[d % N, m % M]):
                out[d * m * deg + i] += x * w
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_SUM_CHARACTERS), st.sampled_from(_SUM_CHARACTERS),
       st.integers(1, 6), st.integers(1, 160), st.integers(1, 2))
def test_divisor_sums_truncate_to_every_lower_precision(chi, psi, k, prec, cofactor):
    # the split point moves with the precision; the sums must not
    ctx = cyclo_context(lcm(chi.order(), psi.order()) * cofactor)
    full = divisor_sums(k, chi, psi, prec, ctx)
    for p in range(1, prec):
        assert divisor_sums(k, chi, psi, p, ctx) == full[:p * ctx.degree], (p, chi, psi)


def _split_precisions(N, M, top):
    """Precisions next to the split of (prec-1)*N//M at a square: prec = s^2 and
    s^2 +- 1, and the first t with t*N//M >= s^2, minus one, plus one."""
    out = set()
    for s in range(1, isqrt(top * N // M) + 2):
        t = -(-s * s * M // N)
        out |= {s * s - 1, s * s, s * s + 1, t - 1, t, t + 1}
    return sorted(1 + x for x in out if 0 <= x < top)


@pytest.mark.parametrize("chi_name, psi_name", [
    ("triv1", "triv1"), ("chi5", "triv1"), ("triv1", "chi23"), ("rho19", "rho23"),
    ("chi13", "rho11"), ("chi16", "chi9"), ("rho3", "chi17"),
])
def test_divisor_sums_next_to_the_split(chi_name, psi_name):
    chi, psi = (trivial_character(1) if n == "triv1" else named_character(n)
                for n in (chi_name, psi_name))
    ctx, top = cyclo_context(lcm(chi.order(), psi.order())), 300
    want = _reference_sums(3, chi, psi, top + 1, ctx)
    precs = _split_precisions(chi.modulus, psi.modulus, top)
    assert len(precs) > 10
    for p in precs:
        assert divisor_sums(3, chi, psi, p, ctx) == want[:p * ctx.degree], p


@pytest.mark.parametrize("chi_name, psi_name", [
    ("triv1", "triv1"), ("chi7", "triv1"), ("triv1", "rho13"), ("chi11", "chi5"),
])
def test_divisor_sums_at_weights_up_to_30(chi_name, psi_name):
    chi, psi = (trivial_character(1) if n == "triv1" else named_character(n)
                for n in (chi_name, psi_name))
    ctx = cyclo_context(lcm(chi.order(), psi.order()))
    for k in range(1, 31):
        got = divisor_sums(k, chi, psi, 150, ctx)
        assert got == _reference_sums(k, chi, psi, 150, ctx), k
    assert max(map(abs, got)).bit_length() > 200  # 149^29 alone has 210 bits


def test_divisor_sums_with_a_root_coordinate_of_two():
    # characters of orders 5 and 7 take values in the 35th roots of unity, and in
    # Q(zeta_105) two of those have a power-basis coordinate of +-2, which the
    # sieve adds as x*w rather than as a sum or a difference
    ctx = cyclo_context(105)
    roots = roots_of_unity(ctx, 35)
    big = {j for j, r in enumerate(roots) if any(abs(x) > 1 for x in r)}
    assert big
    five, seven = named_character("chi11") ** 2, character(29, [(2, Fraction(1, 7))])
    assert (five.order(), seven.order()) == (5, 7)
    prec = 200
    for chi, psi in ((five, seven), (seven, five)):
        N, M, top = chi.modulus, psi.modulus, prec - 1
        D = isqrt(top * N // M)
        hits = {d > D for d in range(1, prec) for m in range(1, top // d + 1)
                if chi.turns[d % N] is not None and psi.turns[m % M] is not None
                and (chi.turns[d % N] + psi.turns[m % M]) * 35 % 35 in big}
        assert hits == {False, True}  # both sides of the split meet such a root
        want = _reference_sums(2, chi, psi, prec, ctx)
        assert divisor_sums(2, chi, psi, prec, ctx) == want
        assert divisor_sums(2, chi, psi, 37, ctx) == want[:37 * ctx.degree]


def test_divisor_sums_refuse_a_field_without_the_values():
    chi5, triv1 = named_character("chi5"), trivial_character(1)
    with pytest.raises(ConductorMismatch):
        divisor_sums(1, chi5, triv1, 5, C2)
    with pytest.raises(ConductorMismatch):
        divisor_sums(2, triv1, named_character("chi7"), 5, C4)


def test_lift_roundtrip():
    rho3 = named_character("rho3")
    lifted = rho3.lift(12)
    for u in units(12):
        assert lifted.turns[u % 12] == rho3.turns[u % 3]


def test_trivial_characters_and_character_invariants_are_kept():
    assert trivial_character(6) is trivial_character(6)
    chi = named_character("chi13") ** 4
    assert (chi.order(), chi.conductor()) == (3, 13) == (chi.order(), chi.conductor())
    lifted = named_character("rho3").lift(12)
    assert (lifted.order(), lifted.conductor(), lifted.is_primitive()) == (2, 3, False)
