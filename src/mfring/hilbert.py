"""Hilbert series of weighted graded rings, exactly.

A series is numerator / prod(1 - t^w) with integer numerator
coefficients.  The grading variable tracks doubled weights so
half-integral gradings stay integral; rendering divides by two.
"""

from __future__ import annotations

from operator import le, mul, sub


class HilbertSeries:
    """numerator(t) / prod over w in den_weights2 of (1 - t^w), t in doubled weight."""

    __slots__ = ("num", "den_weights2")

    def __init__(self, num, den_weights2):
        # num: iterable of (coeff, doubled degree)
        terms: dict[int, int] = {}
        for coeff, deg in num:
            terms[deg] = terms.get(deg, 0) + coeff
        self.num = tuple(sorted((d, c) for d, c in terms.items() if c))
        self.den_weights2 = tuple(sorted(den_weights2))
        if any(w <= 0 for w in self.den_weights2):
            raise ValueError("denominator weights must be positive")

    def expand(self, horizon2: int) -> list[int]:
        """Exact power series coefficients for doubled degrees 0..horizon2: the
        numerator, then one running sum of step w for each factor 1/(1 - t^w)."""
        out = [0] * (horizon2 + 1)
        for d, c in self.num:
            if d <= horizon2:
                out[d] += c
        for w in self.den_weights2:
            for n in range(w, horizon2 + 1):
                out[n] += out[n - w]
        return out

    def render(self) -> str:
        """Human form with t in plain weight units, e.g. '(1 + t^2) / ((1-t)(1-t^2))'."""
        def tpow(d2: int) -> str:
            if d2 % 2 == 0:
                k = d2 // 2
                return "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            return f"t^({d2}/2)"

        parts = []
        for d, c in self.num:
            mag = abs(c)
            body = tpow(d)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append((("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")) + text)
        num_text = " ".join(parts) if parts else "0"
        den_text = "".join(f"(1-{tpow(w)})" for w in self.den_weights2)
        return f"({num_text}) / ({den_text})"

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and other.num == self.num
            and other.den_weights2 == self.den_weights2
        )

    def __repr__(self):
        return f"HilbertSeries({self.render()!r})"


def monomial_quotient(gens, weights2) -> HilbertSeries:
    """The Hilbert series of k[x]/<gens> for monomials gens (exponent tuples)
    in variables of doubled weights weights2.  Its numerator obeys
    N(J + <m>) = N(J) - t^deg(m) N(J : m), where J : m is generated by the
    g / gcd(g, m) for g in J (Bayer and Stillman, *Computation of Hilbert
    functions*, J. Symbolic Comput. 14, 1992); gens and each J : m keep only
    their minimal generators."""
    kept: list[tuple[int, ...]] = []  # a proper divisor sorts before its multiples
    for a in sorted(set(gens)):
        if not any(all(map(le, b, a)) for b in kept):
            kept.append(a)
    num = [(1, 0)]
    for i, m in enumerate(kept):
        colon = monomial_quotient([tuple(map(sub, map(max, g, m), m)) for g in kept[:i]], weights2)
        num += [(-c, e + sum(map(mul, m, weights2))) for e, c in colon.num]
    return HilbertSeries(num, weights2)


def dim_mismatches(coeffs: list[int], dim_at, lattice_mod: int = 1):
    """The (j2, coefficient, dim) triples where an expansion, coeffs[j2] at
    doubled degree j2, differs from a dimension callback on the case's weight
    lattice, the j2 with j2 % lattice_mod == 0.

    Weights off the lattice are skipped before ``dim_at`` is asked: a group's
    rows may cover them for another case.  ``dim_at(j2)`` returns the
    expected dimension or None when the weight is outside the table, where
    the coefficient must be zero.
    """
    return [(j2, coeffs[j2], want) for j2 in range(0, len(coeffs), lattice_mod)
            if coeffs[j2] != (want := dim_at(j2) or 0)]
