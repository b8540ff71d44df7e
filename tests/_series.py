"""Field elements into series, for tests.

The program builds every series from flat integer coordinates,
``QSeries(ctx, nums, den)``.  Tests often think in CycloNum coefficients
instead; these helpers turn those into the one constructor's input.
"""

from math import lcm

from mfring.qseries import QSeries


def series_of(ctx, coeffs) -> QSeries:
    """The series whose coefficient n is the CycloNum coeffs[n]."""
    coeffs = tuple(coeffs)
    den = lcm(*(c.den for c in coeffs))
    return QSeries(ctx, [x * (den // c.den) for c in coeffs for x in c.nums], den)


def conj(x):
    """The complex conjugate of a CycloNum, by the series conjugation the
    program runs, on a one-coefficient series."""
    return series_of(x.ctx, [x]).conj().coefficient(0)
