"""Base q-expansions: Eisenstein series, character Eisenstein series, theta series.

All constructors take an explicit precision and field context and
return exact QSeries values.  The weight-2 level-1 series is only
quasi-modular; it is exposed for building the level-N weight-2
series but is never registered as a modular form by the catalog.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul, sub

from .characters import (
    DirichletCharacter,
    divisor_sums,
    require_parity,
    require_primitive,
    trivial_character,
)
from .cyclo import (
    CycloNum,
    FieldCtx,
    cyclo_context,
    embed,
    fold_buckets,
    multiplication_matrix,
    roots_of_unity,
)
from .errors import BadWeight, NotPositiveDefinite
from .qseries import QSeries

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number (B1 = -1/2 convention)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if len(_bernoulli_cache) <= k:
        # grow at least twofold, so that calls for k = 0, 1, 2, ... build about log2(k) tables
        _bernoulli_cache[:] = _bernoulli_numbers(max(k, 2 * len(_bernoulli_cache)))
    return _bernoulli_cache[k]


def _bernoulli_numbers(k: int) -> list[Fraction]:
    """B_0, ..., B_k from the tangent numbers T_1, ..., T_m, m = k // 2, all integers.

    T_j is (2j-1)! times the coefficient of x^(2j-1) in tan x, built in place
    by Brent and Harvey's recurrence (*Fast computation of Bernoulli, tangent
    and secant numbers*, 2011), and B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).
    The odd numbers past B_1 vanish.
    """
    m = k // 2
    t = [0, 1] + [0] * (m - 1)  # t[j] = T_j; t[0] unused
    for j in range(2, m + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, m + 1):
        for j in range(i, m + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)]
    for j in range(1, m + 1):
        four = 4 ** j
        out += [Fraction((-1) ** (j - 1) * 2 * j * t[j], four * (four - 1)), Fraction(0)]
    return out[:k + 1]


def gen_bernoulli(k: int, chi: DirichletCharacter, ctx: FieldCtx) -> CycloNum:
    """Generalized Bernoulli number N^(k-1) * sum chi(a) B_k(a/N), a = 1..N.

    N^(k-1) B_k(a/N) = sum_j C(k,j) B_j N^(j-1) a^(k-j), so the residues a
    on which chi takes one value need only their integer power sums
    S_e = sum a^e: that bucket is sum_j c_j S_(k-j), c_j = C(k,j) B_j N^(j-1),
    one integer dot product over the common denominator N * lcm(den B_j):
    c_j times it is C(k,j) num(B_j) N^j times lcm/den(B_j), built on ints
    with C(k,j) and N^j stepped along j.  The buckets are then folded into the
    power basis once."""
    N, m0 = chi.modulus, chi.order()
    powers = roots_of_unity(ctx, m0)
    bernoulli(k)  # grows the table through B_k
    bern = _bernoulli_cache[:k + 1]
    big = lcm(*(b.denominator for b in bern))
    scaled, binom, npow = [], 1, 1  # C(k, j) and N^j
    for j, b in enumerate(bern):
        scaled.append(binom * npow * b.numerator * (big // b.denominator))
        binom, npow = binom * (k - j) // (j + 1), npow * N
    den = N * big
    residues: list[list[int]] = [[] for _ in range(m0)]
    for a in range(1, N + 1):
        t = chi.turns[a % N]
        if t is not None:
            residues[t.numerator * m0 // t.denominator].append(a)
    ints = []
    for res in residues:
        sums, pw = [], [1] * len(res)  # sums[e] = S_e
        for _ in range(k + 1):
            sums.append(sum(pw))
            pw = list(map(mul, pw, res))
        ints.append(sum(map(mul, scaled, reversed(sums))))
    return CycloNum(ctx, fold_buckets(ints, powers, ctx.degree), den)


def eisenstein_e(k: int, prec: int, ctx: FieldCtx) -> QSeries:
    """Level-1 weight-k series 1 - (2k/B_k) sum sigma_(k-1)(n) q^n, k even >= 2:
    f_k at the trivial character mod 1."""
    if k <= 0 or k % 2 != 0:
        raise BadWeight(f"weight {k} outside the even positive domain")
    return eis_f(k, trivial_character(1), prec, ctx)


def eisenstein_c(N: int, prec: int, ctx: FieldCtx) -> QSeries:
    """Weight-2 level-N series (N E2(q^N) - E2(q)) / (N-1); constant term 1."""
    if N < 2:
        raise BadWeight("level must be at least 2")
    # E2 = 1 - 24 sum sigma(n) q^n, so coefficient n > 0 is 24 (sigma(n) - N sigma(n/N)) / (N-1)
    d, one = ctx.degree, trivial_character(1)
    nums = [24 * x for x in divisor_sums(2, one, one, prec, ctx)]
    nums[::N * d] = map(sub, nums[::N * d], map(N.__mul__, nums[::d]))
    nums[0] = N - 1
    return QSeries(ctx, nums, N - 1)


@lru_cache(maxsize=None)
def eisenstein_lead(k: int, chi: DirichletCharacter) -> CycloNum:
    """-2k/B_(k,chi), once per (k, chi) in a process: every precision and field
    of f_k(chi) embeds it.  It lies in Q(zeta_m), m = ord chi, whose degree can
    be far below that of the field a series is built over."""
    return gen_bernoulli(k, chi, cyclo_context(chi.order())).invert() * (-2 * k)


def eis_f(k: int, chi: DirichletCharacter, prec: int, ctx: FieldCtx) -> QSeries:
    """1 - (2k/B_(k,chi)) sum (sigma_(k-1)*chi)(n) q^n for primitive chi of matching parity."""
    if k < 1:
        raise BadWeight("weight must be positive")
    require_primitive(chi)
    require_parity(chi.parity(), k)
    lead = embed(eisenstein_lead(k, chi), ctx)
    sums = divisor_sums(k, chi, trivial_character(1), prec, ctx)
    if lead.is_rational():
        den, nums = lead.den, list(map(lead.nums[0].__mul__, sums))
    else:
        den, rows = multiplication_matrix(lead)
        nums = fold_buckets(sums, rows, ctx.degree)
    nums[0] = den  # sums start with a zero coefficient, and 1 = den/den
    return QSeries(ctx, nums, den)


def eis_g(k: int, chi: DirichletCharacter, prec: int, ctx: FieldCtx) -> QSeries:
    """sum_n (sum_{d|n} chi(n/d) d^(k-1)) q^n, k >= 2; zero constant term."""
    if k < 2:
        raise BadWeight("this family needs weight at least 2")
    return eis_g2(k, trivial_character(1), chi, prec, ctx)


def eis_g2(
    k: int,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    prec: int,
    ctx: FieldCtx,
) -> QSeries:
    """sum_n (sum_{d|n} chi(d) psi(n/d) d^(k-1)) q^n; k = 1 allowed."""
    if k < 1:
        raise BadWeight("weight must be positive")
    require_primitive(chi)
    require_primitive(psi)
    require_parity(chi.parity() * psi.parity(), k)
    return QSeries(ctx, divisor_sums(k, chi, psi, prec, ctx))


def theta_series(prec: int, ctx: FieldCtx) -> QSeries:
    """sum over n in Z of q^(n^2)."""
    counts = [0] * prec
    counts[0] = 1
    n = 1
    while n * n < prec:
        counts[n * n] = 2
        n += 1
    return _rational_series(counts, ctx)


def theta_bqf(a: int, b: int, c: int, prec: int, ctx: FieldCtx) -> QSeries:
    """Lattice count series sum over (m,n) in Z^2 of q^(a m^2 + b m n + c n^2)."""
    disc = 4 * a * c - b * b
    if a <= 0 or disc <= 0:
        raise NotPositiveDefinite(f"form ({a},{b},{c}) is not positive definite")
    # 4a*Q(m,n) = (2am + bn)^2 + disc*n^2, so Q < prec needs disc*n^2 <= 4a(prec-1),
    # and for each n, m lies between the roots of a m^2 + bn m + c n^2 - (prec-1);
    # Q(-m,-n) = Q(m,n), so row n > 0 counts for itself and row -n
    top = prec - 1
    bound = isqrt(4 * a * top // disc) + 1
    counts = [0] * prec
    for n in range(bound + 1):
        root_disc = 4 * a * top - disc * n * n
        if root_disc < 0:
            break
        r = isqrt(root_disc)
        weight = 2 if n else 1
        for m in range((-b * n - r) // (2 * a) - 1, (-b * n + r) // (2 * a) + 2):
            val = a * m * m + b * m * n + c * n * n
            if val < prec:
                counts[val] += weight
    return _rational_series(counts, ctx)


def _rational_series(counts: list[int], ctx: FieldCtx) -> QSeries:
    """The series sum counts[n] q^n, whose coefficients are integers."""
    nums = [0] * (len(counts) * ctx.degree)
    nums[::ctx.degree] = counts
    return QSeries(ctx, nums)
