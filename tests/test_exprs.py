from fractions import Fraction

import pytest

from mfring.cyclo import cyclo_context
from mfring.errors import CatalogError, UnknownForm
from mfring.exprs import (
    MAX_CONSTRUCTOR_WEIGHT,
    SCALAR_POWER_BITS,
    Evaluator,
    atoms,
    constructor,
    parse_character,
    parse_expr,
    parse_poly,
    parse_scalar,
)

C1 = cyclo_context(1)
C4 = cyclo_context(4)
C10 = cyclo_context(10)


def test_parse_expr_shapes():
    ast = parse_expr("(scale 1/1728 (sub (pow E4 3) (pow E6 2)))")
    assert ast[0] == "scale" and ast[1] == "1/1728"
    assert parse_expr("(v 2 theta)") == ("v", 2, ("atom", "theta"))
    assert parse_expr("(mul f[1;pow(chi11,3)] x)")[1][0] == ("atom", "f[1;pow(chi11,3)]")
    with pytest.raises(CatalogError):
        parse_expr("(frobnicate x y)")
    with pytest.raises(CatalogError):
        parse_expr("(add x)")
    with pytest.raises(CatalogError):
        parse_expr("(sub x y) trailing")
    for bad in ("(add x", "(pow x y)", "(pow x -1)", "(v 0 x)", "(low x y)", "(scale"):
        with pytest.raises(CatalogError):
            parse_expr(bad)


@pytest.mark.parametrize("name, w2, order", [
    ("E4", 8, 1),
    ("C2", 4, 1),
    ("f[1;rho3]", 2, 2),
    ("f[1;pow(chi11,3)]", 2, 10),
    ("g[1;rho5,chi5]", 2, 4),
    ("theta", 1, 1),
    ("bqf[1,1,6]", 2, 1),
])
def test_constructor_weight_and_order(name, w2, order):
    got = constructor(name)
    assert (got.w2, got.order()) == (w2, order)


def test_constructor_rejects_what_it_cannot_build():
    with pytest.raises(UnknownForm):
        constructor("alpha1")
    with pytest.raises(CatalogError):
        constructor("g[1;rho3,rho4,chi5]")


def test_constructor_weight_ceiling():
    top = MAX_CONSTRUCTOR_WEIGHT
    assert constructor(f"E{top}").w2 == 2 * top
    assert constructor(f"g[{top};rho3]").w2 == 2 * top
    for bad in (f"E{top + 2}", f"f[{top + 1};rho3]", f"g[{top + 2};rho3]",
                f"g[{top + 1};rho5,chi5]", "E1000000000"):
        with pytest.raises(CatalogError, match=f"exceeds {top}"):
            constructor(bad)


def test_atoms():
    assert atoms(parse_expr("(scale 2 (add (pow E4 3) (mul f[1;pow(chi11,3)] E4) (v 2 theta)))")) \
        == {"E4", "f[1;pow(chi11,3)]", "theta"}
    assert atoms(parse_expr("alpha1")) == {"alpha1"}


def test_parse_scalar():
    assert parse_scalar("1/1728", C1) == Fraction(1, 1728)
    assert parse_scalar("-3", C1) == -3
    assert parse_scalar("z4/2", C4) == C4.zeta_power(1) * Fraction(1, 2)
    assert parse_scalar("1-z4", C4) == C4.one - C4.zeta_power(1)
    phi = parse_scalar("-4*z10^4+5*z10^3+z10", C10)
    z = C10.zeta_power(1)
    assert phi == z**4 * (-4) + z**3 * 5 + z


def test_scalar_power_bit_budget():
    top = SCALAR_POWER_BITS
    assert parse_scalar(f"2^{top}", C1) == 2**top
    assert parse_scalar("z10^99999999999", C10) == C10.zeta_power(9)  # roots of unity stay small
    for bad in (f"2^{top + 1}", f"2^-{top + 1}", f"(1+z4)^{top + 1}", f"(2^{top // 2})^3"):
        with pytest.raises(CatalogError, match="bits"):
            parse_scalar(bad, C4)


def test_parse_poly():
    terms = parse_poly("(1+z4)*x^2 - 2*x*y + y^2/2", ["x", "y"], C4)
    assert terms[(2, 0)] == C4.one + C4.zeta_power(1)
    assert terms[(1, 1)] == -2
    assert terms[(0, 2)] == Fraction(1, 2)
    assert parse_poly("x - x", ["x"], C1) == {}
    with pytest.raises(CatalogError):
        parse_poly("x + unknown", ["x"], C1)
    with pytest.raises(CatalogError):
        parse_poly("x / y", ["x", "y"], C1)


def test_parse_character_expressions():
    assert parse_character("chi5").order() == 4
    assert parse_character("pow(chi13,3)").order() == 4
    assert parse_character("conj(chi5)") == parse_character("pow(chi5,3)")
    prod = parse_character("mul(rho3,rho4)")
    assert prod.modulus == 12 and prod.parity() == 1
    with pytest.raises(UnknownForm):
        parse_character("chi6")
    with pytest.raises(CatalogError):
        parse_character("pow(chi5)")


def test_evaluator_precision_contract():
    ev = Evaluator(C1, {})
    # the V-operator child is rebuilt at reduced precision, output exact to prec
    out = ev.series("(v 3 E4)", 10)
    assert out.prec == 10
    assert out.coefficient(3) == 240
    assert all(out.coefficient(n).is_zero() for n in (1, 2, 4, 5, 7, 8))
    with pytest.raises(UnknownForm):
        ev.series("nosuchform", 5)


def test_evaluator_caching_returns_truncations():
    ev = Evaluator(C1, {})
    long = ev.series("E4", 20)
    short = ev.series("E4", 5)
    assert short.prec == 5 and short.coeffs == long.coeffs[:5]
