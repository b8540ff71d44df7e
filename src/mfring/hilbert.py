"""Hilbert series of weighted graded rings, exactly.

A series is numerator / prod(1 - t^w) with integer numerator
coefficients.  The grading variable tracks doubled weights so
half-integral gradings stay integral; rendering divides by two.
"""

from __future__ import annotations


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
        """Exact power series coefficients for doubled degrees 0..horizon2."""
        den = [1]
        for w in self.den_weights2:
            # multiply by (1 - t^w)
            new = den + [0] * w
            for i, c in enumerate(den):
                new[i + w] -= c
            den = new
        num = [0] * (horizon2 + 1)
        for d, c in self.num:
            if d <= horizon2:
                num[d] += c
        out = [0] * (horizon2 + 1)
        for n in range(horizon2 + 1):
            acc = num[n]
            for i in range(1, min(n, len(den) - 1) + 1):
                if den[i]:
                    acc -= den[i] * out[n - i]
            if acc % den[0]:
                raise ValueError("non-integral expansion")
            out[n] = acc // den[0]
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


def dim_mismatches(hs: HilbertSeries, dim_at, horizon2: int, lattice_mod: int = 1):
    """The (j2, coefficient, dim) triples, up to horizon2, where the expansion
    differs from a dimension callback.

    ``dim_at(j2)`` returns the expected dimension or None when the weight is
    outside the table; such weights must carry coefficient zero unless they
    are off the case's weight lattice entirely (j2 % lattice_mod != 0), in
    which case they are skipped.
    """
    out = []
    for j2, got in enumerate(hs.expand(horizon2)):
        want = dim_at(j2)
        if want is None:
            if j2 % lattice_mod != 0:
                continue
            want = 0
        if got != want:
            out.append((j2, got, want))
    return out
