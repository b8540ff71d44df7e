"""Gröbner bases over Q(zeta_L) of weighted-homogeneous ideals, truncated at a weight.

A polynomial is a dict {exponent tuple: nonzero CycloNum} whose terms all
have one weight, sum(e_i * w_i) for the doubled weights w_i of the
variables; the leading term is the lexicographically largest exponent.
Buchberger's algorithm takes the inputs and the S-pairs in ascending weight
of their lcm and leaves out every S-pair above the top weight, and those
whose leading monomials are coprime (Buchberger's first criterion).  For a
homogeneous ideal I this gives a basis whose leading monomials generate the
leading-term ideal of I in every weight up to the top, so the monomials of
weight k that none of them divides, the standard monomials, are a basis of
(R/I)_k and dim I_k = #monomials - #standard monomials (Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 and 9); the kernel check
counts them from the Hilbert series of the leading monomials
(``hilbert.monomial_quotient``).  ``border`` gives the candidates of the
rank filtration of the span and kernel checks (``verify.Filtration``).
"""

from __future__ import annotations

from operator import add, le, mul, sub


def leading_monomials(polys, weights2, top2: int) -> list[tuple[int, ...]]:
    """The leading monomials of a Gröbner basis over Q(zeta_L), truncated at
    doubled weight top2, of the ideal the homogeneous polys generate; none of
    the polys is changed."""

    def weight(e):
        return sum(map(mul, e, weights2))

    basis: list[tuple[tuple[int, ...], dict]] = []  # (leading monomial, monic polynomial)
    # per weight, in order of arrival: input polynomials, then pairs of basis indices
    todo: list[list] = [[] for _ in range(top2 + 1)]
    for f in polys:
        if f and (w2 := weight(next(iter(f)))) <= top2:
            todo[w2].append(dict(f))
    for jobs in todo:
        for job in jobs:  # new pairs go to higher weights: no other lead divides a new one
            h = job if isinstance(job, dict) else _s_polynomial(basis[job[0]], basis[job[1]])
            lead = _top_reduce(h, basis)
            if lead is None:
                continue
            inv = h[lead].invert()
            for j, (other, _) in enumerate(basis):
                if any(map(min, lead, other)):  # coprime leading monomials reduce to zero
                    lcm = tuple(map(max, lead, other))
                    if (w2 := weight(lcm)) <= top2:
                        todo[w2].append((j, len(basis)))
            basis.append((lead, {e: c * inv for e, c in h.items()}))
    return [lead for lead, _ in basis]


def _s_polynomial(f, g) -> dict:
    """x^(m-a) f - x^(m-b) g for monic f and g with leading monomials a and b
    and m their lcm: the leading terms cancel."""
    (a, fp), (b, gp) = f, g
    m = tuple(map(max, a, b))
    shift = tuple(map(sub, m, a))
    out = {tuple(map(add, e, shift)): c for e, c in fp.items()}
    _subtract(out, gp, gp[b], tuple(map(sub, m, b)))  # gp[b] is one: gp is monic
    return out


def _subtract(h: dict, g: dict, c, shift: tuple[int, ...]) -> None:
    """h -= c * x^shift * g, in place, dropping zero terms."""
    for e, v in g.items():
        k = tuple(map(add, e, shift))
        r = h[k] - c * v if k in h else -(c * v)
        if r:
            h[k] = r
        else:
            del h[k]


def _top_reduce(h: dict, basis) -> tuple[int, ...] | None:
    """Reduce h in place until no leading monomial of the basis divides its
    leading monomial; that monomial, or None if h reduced to zero."""
    while h:
        lead = max(h)
        for a, g in basis:
            if all(map(le, a, lead)):
                _subtract(h, g, h[lead], tuple(map(sub, lead, a)))
                break
        else:
            return lead
    return None


def border(weights2, lower, k2: int) -> list[tuple]:
    """The monomials m of doubled weight k2 such that m / x_i lies in
    lower(k2 - w_i) for every variable x_i dividing m, in ascending
    lexicographic order, each as (m, i, m / x_i) for the first variable x_i
    dividing m; at k2 = 0, (1, None, None).  A set of monomials closed under
    division lies, weight by weight, in the border of its members below.

    Each x_i * b for b in lower(k2 - w_i) is one hit on the product, so m
    is kept when its hits number the variables it contains; the variables
    are walked in order, so the first hit on m is by its first variable.
    """
    if k2 == 0:
        return [((0,) * len(weights2), None, None)]
    hits: dict[tuple[int, ...], list] = {}
    for i, w in enumerate(weights2):
        if w <= k2:
            for b in lower(k2 - w):
                m = b[:i] + (b[i] + 1,) + b[i + 1:]
                hit = hits.get(m)
                if hit is None:
                    hits[m] = [1, i, b]
                else:
                    hit[0] += 1
    return sorted((m, i, b) for m, (h, i, b) in hits.items() if h == len(m) - m.count(0))
