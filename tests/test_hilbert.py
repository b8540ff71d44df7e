from math import comb
from operator import le

from hypothesis import given, settings
from hypothesis import strategies as st

from mfring.hilbert import HilbertSeries, dim_mismatches, monomial_quotient
from mfring.verify import weighted_monomials


def test_free_single_and_pair():
    ones = HilbertSeries([(1, 0)], [2])
    assert ones.expand(10) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    # weights [1, n]: coefficient floor(k/n) + 1
    for n in (2, 3, 5):
        hs = HilbertSeries([(1, 0)], [2, 2 * n])
        got = hs.expand(24)[::2]
        assert got == [k // n + 1 for k in range(13)]


def test_weights_2_3_shifted_form():
    # coefficient of t^k equals [ (k+2)/2 ] - [ (k+2)/3 ]
    hs = HilbertSeries([(1, 0)], [4, 6])
    got = hs.expand(40)[::2]
    assert got[0] == 1
    assert got[1] == 0  # degree-1 coefficient vanishes
    for k, c in enumerate(got):
        assert c == (k + 2) // 2 - (k + 2) // 3


def test_division_inverse_invariant():
    for weights in ([2], [2, 4], [2, 4, 6], [1, 1, 2]):
        hs = HilbertSeries([(1, 0)], weights)
        horizon = 20
        coeffs = hs.expand(horizon)
        den = [1]
        for w in weights:
            new = den + [0] * w
            for i, c in enumerate(den):
                new[i + w] -= c
            den = new
        prod = [0] * (horizon + 1)
        for i in range(horizon + 1):
            for j, d in enumerate(den):
                if j <= i:
                    prod[i] += coeffs[i - j] * d
        assert prod == [1] + [0] * horizon


def test_lemma4_shapes():
    # a free ring extended by one degree-n generator whose square lies in it
    ext = HilbertSeries([(1, 0), (1, 4)], [2, 2])
    assert ext.expand(16)[::2] == [1, 2, 4, 6, 8, 10, 12, 14, 16]
    ext2 = HilbertSeries([(1, 0), (1, 6)], [2, 4])
    assert ext2.expand(20)[::2] == [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # (1+t^n)(1-t^n) telescopes to a free ring on weight 2n
    sq = HilbertSeries([(1, 0), (1, 2)], [4])
    assert sq.expand(12) == HilbertSeries([(1, 0)], [2]).expand(12)


def test_lemma5_sequences_and_monomial_count():
    for n in range(1, 6):
        hs = HilbertSeries([(1, 0), (n - 1, 2)], [2, 2])
        got = hs.expand(20)[::2]
        assert got == [n * k + 1 for k in range(11)]
        # ideal Hilbert series = free(n+2 unit weights) - quotient
        for k in range(11):
            free_count = comb(k + n + 1, n + 1)
            assert free_count - (n * k + 1) >= 0


def test_lemma6_sequence():
    hs = HilbertSeries([(1, 0), (1, 2), (1, 4)], [2, 4])
    got = hs.expand(24)[::2]
    assert got == [k + k // 2 + 1 for k in range(13)]


def test_nonnegativity_of_ring_series():
    for num, den in [([(1, 0), (-1, 4)], [2, 2, 2]),
                     ([(1, 0), (-3, 4), (2, 6)], [2, 2, 2, 2]),
                     ([(1, 0), (-1, 12)], [2, 4, 6]),
                     ([(1, 0), (-2, 3), (-1, 4), (2, 5)], [1, 1, 2, 2])]:
        hs = HilbertSeries(num, den)
        assert all(c >= 0 for c in hs.expand(60))


def test_dim_mismatches_callback():
    hs = HilbertSeries([(1, 0), (-1, 4)], [2, 2, 2])

    def dims(j2):
        if j2 % 2:
            return None
        return j2 + 1

    coeffs = hs.expand(30)
    assert dim_mismatches(coeffs, dims, lattice_mod=2) == []
    assert dim_mismatches(coeffs, lambda j2: 5 if j2 == 6 else dims(j2), 2) == [(6, 7, 5)]
    # a lattice weight without a dimension row counts as dimension 0; off the lattice it is skipped
    assert dim_mismatches(coeffs, lambda j2: None if j2 == 4 else dims(j2), 2) == [(4, 5, 0)]
    assert dim_mismatches(coeffs, dims, lattice_mod=1) == []


@st.composite
def _monomial_ideals(draw):
    """(doubled weights, monomial generators, top doubled weight)."""
    weights2 = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    n = len(weights2)
    mons = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(0, 3)] * n))
    return weights2, draw(st.lists(mons, max_size=8)), draw(st.integers(0, 24))


@settings(max_examples=150, deadline=None)
@given(_monomial_ideals())
def test_monomial_quotient_counts_the_monomials_no_generator_divides(ideal):
    weights2, gens, top2 = ideal
    every = [weighted_monomials(weights2, k2) for k2 in range(top2 + 1)]
    assert HilbertSeries([(1, 0)], weights2).expand(top2) == [len(mons) for mons in every]
    assert monomial_quotient(gens, weights2).expand(top2) == [
        sum(not any(all(map(le, g, m)) for g in gens) for m in mons) for mons in every]


def test_render():
    hs = HilbertSeries([(1, 0), (1, 4)], [2, 2])
    assert hs.render() == "(1 + t^2) / ((1-t)(1-t))"
    half = HilbertSeries([(1, 0), (-1, 1)], [1, 2])
    assert "t^(1/2)" in half.render()
