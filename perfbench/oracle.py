"""Correctness oracle for the three workloads.

* ``verify_all``: golden reports (``golden/verify_all.json``), every field but
  ``elapsed_ms``, keyed by ``case|check``.
* ``qexp_forms``: golden rendered terms of every catalog form at the top
  precision of the workload (``golden/qexp_forms.json``); the expected text of
  a request is those terms truncated to its precision.
* ``qexp_constructors``: independent formulas.  Coefficients are recomputed
  here from divisor sums, Bernoulli numbers and character tables with their
  own arithmetic in Q(zeta_L), then rendered in the program's canonical text
  form.  Nothing in this file imports the program.

Golden files are written by ``make_golden.py`` from the program at the
commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------------------
# Dirichlet characters: (modulus, [(unit, turn)]) or (base name, power).
# The definitions follow the README: each named character is fixed by its
# values on generators of the unit group (chi17 on 3, rho8 on 5 and 7).

F = Fraction
CHARACTER_DEFS: dict[str, tuple] = {
    "rho3": (3, [(2, F(1, 2))]),
    "rho4": (4, [(3, F(1, 2))]),
    "chi5": (5, [(2, F(1, 4))]),
    "rho5": ("chi5", 2),
    "chi7": (7, [(3, F(1, 6))]),
    "rho7": ("chi7", 3),
    "rho8": (8, [(7, F(1, 2)), (5, F(1, 2))]),
    "chi9": (9, [(2, F(1, 6))]),
    "chi11": (11, [(2, F(1, 10))]),
    "rho11": ("chi11", 5),
    "chi13": (13, [(2, F(1, 12))]),
    "rho13": ("chi13", 6),
    "chi16": (16, [(15, F(1, 2)), (5, F(1, 4))]),
    "chi17": (17, [(3, F(1, 16))]),
    "rho17": ("chi17", 8),
    "chi19": (19, [(2, F(1, 18))]),
    "rho19": ("chi19", 9),
    "chi23": (23, [(5, F(1, 22))]),
    "rho23": ("chi23", 11),
}


@dataclass(frozen=True)
class CharTable:
    modulus: int
    turns: dict  # unit mod N -> chi(unit) as a fraction of a full turn

    @property
    def order(self) -> int:
        out = 1
        for t in self.turns.values():
            out = out * t.denominator // gcd(out, t.denominator)
        return out

    @property
    def parity(self) -> int:
        return 1 if self.turns[(self.modulus - 1) % self.modulus] == 0 else -1

    def turn(self, n: int):
        return self.turns.get(n % self.modulus)


@lru_cache(maxsize=None)
def character_table(name: str) -> CharTable:
    """Values on all units, by closing the generator values under products."""
    spec = CHARACTER_DEFS[name]
    if isinstance(spec[0], str):
        base = character_table(spec[0])
        return CharTable(base.modulus, {u: (t * spec[1]) % 1 for u, t in base.turns.items()})
    N, gens = spec
    turns = {1: F(0)}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g, t in gens:
            y, ty = x * g % N, (turns[x] + t) % 1
            if y not in turns:
                turns[y] = ty
                frontier.append(y)
            elif turns[y] != ty:
                raise ValueError(f"{name}: generator values are not a character")
    if len(turns) != sum(1 for a in range(1, N) if gcd(a, N) == 1):
        raise ValueError(f"{name}: generators do not span the unit group")
    return CharTable(N, turns)


def conductor(chars) -> int:
    """Field of a constructor: lcm of its characters' value orders, and 2 for parity."""
    L = 1
    for name in chars:
        o = character_table(name).order
        L = L * o // gcd(L, o)
    return L * 2 // gcd(L, 2) if chars else 1


# ---------------------------------------------------------------------------
# Q(zeta_L): power-basis coordinates, reduced by the cyclotomic polynomial
# obtained from the Moebius product of (x^d - 1).


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic(L: int) -> tuple[int, ...]:
    num, den = [1], [1]
    for d in range(1, L + 1):
        if L % d == 0 and _mobius(L // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if _mobius(L // d) > 0:
                num = _pmul(num, factor)
            else:
                den = _pmul(den, factor)
    # exact division of monic integer polynomials
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, y in enumerate(den):
            num[i + j] -= c * y
    if any(num):
        raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(q)


def reduce_ring(vec, L: int) -> tuple:
    """Coefficients of zeta^0..zeta^(len-1) to power-basis coordinates."""
    phi = cyclotomic(L)
    d = len(phi) - 1
    v = list(vec)
    for e in range(len(v) - 1, d - 1, -1):
        c = v[e]
        if c:
            v[e] = 0
            for j in range(d):
                v[e - d + j] -= c * phi[j]
    v += [0] * (d - len(v))
    return tuple(v[:d])


def fmul(a, b, L: int) -> tuple:
    return reduce_ring(_pmul(a, b), L)


def finv(a, L: int) -> tuple:
    """Inverse via the norm: 1/a = prod of the other conjugates / N(a)."""
    rest = None
    for t in range(2, L):
        if gcd(t, L) == 1:
            conj = [0] * L
            for e, c in enumerate(a):
                conj[e * t % L] += c
            conj = reduce_ring(conj, L)
            rest = conj if rest is None else fmul(rest, conj, L)
    if rest is None:  # degree-1 fields
        return (F(1) / a[0],)
    norm = fmul(a, rest, L)
    if any(norm[1:]) or not norm[0]:
        raise ArithmeticError("norm is not a nonzero rational")
    return tuple(F(c) / norm[0] for c in rest)


# ---------------------------------------------------------------------------
# Bernoulli numbers (Akiyama-Tanigawa, then B1 = -1/2 as in B_k(x))


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    if k == 1:
        return F(-1, 2)  # the sweep below yields the +1/2 convention
    a = [F(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def bernoulli_poly(k: int, x: Fraction) -> Fraction:
    return sum(comb(k, j) * bernoulli(j) * x ** (k - j) for j in range(k + 1))


def gen_bernoulli(k: int, chi: CharTable, L: int) -> tuple:
    """B_(k,chi) = N^(k-1) sum_a chi(a) B_k(a/N), in power-basis coordinates."""
    N = chi.modulus
    vec = [F(0)] * L
    for a in range(1, N + 1):
        t = chi.turn(a)
        if t is not None:
            vec[int(t * L)] += bernoulli_poly(k, F(a, N))
    return tuple(c * N ** (k - 1) for c in reduce_ring(vec, L))


# ---------------------------------------------------------------------------
# constructor series, coefficient lists in power-basis coordinates


def _sigma(e: int, prec: int) -> list[int]:
    out = [0] * prec
    for d in range(1, prec):
        w = d**e
        for n in range(d, prec, d):
            out[n] += w
    return out


def _scalar(c, L: int) -> tuple:
    d = len(cyclotomic(L)) - 1
    return (F(c),) + (F(0),) * (d - 1)


def _twisted(prec: int, L: int, weight, char_of):
    """sum over d | n of weight(d, n/d) * zeta_L^(L * char_of(d, n/d))."""
    acc = [[0] * L for _ in range(prec)]
    for d in range(1, prec):
        for n in range(d, prec, d):
            t = char_of(d, n // d)
            if t is not None:
                acc[n][int(t * L)] += weight(d)
    return [reduce_ring(v, L) for v in acc]


def constructor_series(expr: str, prec: int) -> tuple[int, list]:
    """(L, coefficients) of a constructor expression, from first principles."""
    if expr == "theta":
        coeffs = [0] * prec
        coeffs[0] = 1
        m = 1
        while m * m < prec:
            coeffs[m * m] = 2
            m += 1
        return 1, [_scalar(c, 1) for c in coeffs]
    if expr.startswith("bqf["):
        a, b, c = (int(x) for x in expr[4:-1].split(","))
        disc = 4 * a * c - b * b
        counts = [0] * prec
        nb, mb = isqrt(4 * a * prec // disc) + 1, isqrt(4 * c * prec // disc) + 1
        for n in range(-nb, nb + 1):
            for m in range(-mb, mb + 1):
                v = a * m * m + b * m * n + c * n * n
                if v < prec:
                    counts[v] += 1
        return 1, [_scalar(x, 1) for x in counts]
    if expr[0] == "E":
        k = int(expr[1:])
        lead = F(-2 * k) / bernoulli(k)
        sig = _sigma(k - 1, prec)
        return 1, [_scalar(1, 1)] + [_scalar(lead * s, 1) for s in sig[1:]]
    if expr[0] == "C":
        N = int(expr[1:])
        sig = _sigma(1, prec)
        coeffs = [_scalar(1, 1)]
        for n in range(1, prec):
            v = 24 * sig[n] - (24 * N * sig[n // N] if n % N == 0 else 0)
            coeffs.append(_scalar(F(v, N - 1), 1))
        return 1, coeffs
    head, body = expr[:-1].split("[", 1)
    k_text, chars_text = body.split(";")
    k = int(k_text)
    chars = chars_text.split(",")
    L = conductor(chars)
    tables = [character_table(c) for c in chars]
    zero = _scalar(0, L)
    if head == "f":
        (chi,) = tables
        lead = fmul(_scalar(-2 * k, L), finv(gen_bernoulli(k, chi, L), L), L)
        sums = _twisted(prec, L, lambda d: d ** (k - 1), lambda d, e: chi.turn(d))
        return L, [_scalar(1, L)] + [fmul(lead, s, L) for s in sums[1:]]
    if len(tables) == 1:
        (chi,) = tables
        sums = _twisted(prec, L, lambda d: d ** (k - 1), lambda d, e: chi.turn(e))
    else:
        chi, psi = tables

        def both(d, e):
            a, b = chi.turn(d), psi.turn(e)
            return None if a is None or b is None else (a + b) % 1

        sums = _twisted(prec, L, lambda d: d ** (k - 1), both)
    return L, [zero] + sums[1:]


# ---------------------------------------------------------------------------
# canonical text form, as printed by ``mfring qexp``


def _frac(f) -> str:
    f = F(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _zeta(L: int, i: int) -> str:
    return f"z{L}" if i == 1 else f"z{L}^{i}"


def _cyclo_text(coords, L: int) -> str:
    parts = []
    for i, c in enumerate(coords):
        if not c:
            continue
        mag = abs(c)
        term = _frac(mag) if i == 0 else ("" if mag == 1 else _frac(mag) + "*") + _zeta(L, i)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append(("-" if c < 0 else "") + term)
    return " ".join(parts)


def render_term(coords, n: int, L: int) -> tuple[str, str] | None:
    """(sign, text) of the q^n term, or None for a zero coefficient."""
    nonzero = [i for i, c in enumerate(coords) if c]
    if not nonzero:
        return None
    qpart = "q" if n == 1 else f"q^{n}"
    if len(nonzero) > 1:
        body = f"({_cyclo_text(coords, L)})"
        return "+", body if n == 0 else f"{body}*{qpart}"
    i = nonzero[0]
    val = coords[i]
    mag = abs(val)
    if i:
        text = _zeta(L, i) if mag == 1 else f"{_frac(mag)}*{_zeta(L, i)}"
    else:
        text = _frac(mag)
    if n:
        text = qpart if text == "1" else f"{text}*{qpart}"
    return ("-" if val < 0 else "+"), text


def assemble(terms, prec: int) -> str:
    """Join (n, sign, text) terms with n < prec into 'c0 + c1*q + ... + O(q^P)'."""
    parts = []
    for n, sign, text in terms:
        if n >= prec:
            break
        if parts:
            parts.append(f"{sign} {text}")
        else:
            parts.append(text if sign == "+" else f"-{text}")
    return " ".join(parts or ["0"]) + f" + O(q^{prec})"


def render_series(coeffs, L: int) -> str:
    terms = []
    for n, c in enumerate(coeffs):
        t = render_term(c, n, L)
        if t is not None:
            terms.append((n,) + t)
    return assemble(terms, len(coeffs))


# ---------------------------------------------------------------------------
# per-workload expected outputs


def load_golden(name: str) -> dict:
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_record(report) -> dict:
    """A report's fields as compared against the golden copy: all but elapsed_ms."""
    rec = json.loads(report.to_json())
    rec.pop("elapsed_ms")
    return rec


def digest(kind: str, value) -> str:
    """SHA-256 of an output: the qexp text, or a report record as sorted JSON."""
    text = value if kind == "qexp" else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digests(workload: str, ops) -> dict:
    """Map op key -> digest of its expected output, or None where there is no reference."""
    expected = expected_outputs(workload, ops)
    out = {}
    for op in ops:
        want = expected.get(op.key)
        out[op.key] = None if want is None else digest(op.kind, want)
    return out


def expected_outputs(workload: str, ops) -> dict:
    """Map op key -> expected output (report record or qexp text)."""
    if workload == "verify_all":
        golden = load_golden("verify_all")
        return {op.key: golden.get(op.key) for op in ops}
    if workload == "qexp_forms":
        golden = load_golden("qexp_forms")
        out = {}
        for op in ops:
            entry = golden.get(op.name)
            if entry is not None and op.prec <= entry["prec"]:
                out[op.key] = assemble(entry["terms"], op.prec)
        return out
    out = {}
    for op in ops:
        L, coeffs = constructor_series(op.name, op.prec)
        out[op.key] = render_series(coeffs, L)
    return out
