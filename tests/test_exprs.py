from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfring import exprs
from mfring.catalog import load_catalog
from mfring.cyclo import cyclo_context
from mfring.errors import CatalogError, MfringError, UnknownForm
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
from mfring.qseries import QSeries

C1 = cyclo_context(1)
C4 = cyclo_context(4)
C10 = cyclo_context(10)
CAT = load_catalog()
FORMS = {name: form.expr for name, form in CAT.forms.items()}


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
    for bad in ("(add x", "(pow x y)", "(pow x -1)", "(v 0 x)", "(low 1 x)", "(low x y)",
                "(scale"):
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


def _subtrees(ast) -> set:
    """Every node of a parsed expression, itself included; atoms are not resolved."""
    return {ast}.union(*map(_subtrees, exprs._children(ast)))


# the lowered nodes of the shipped forms, each with its form's conductor
_LOWERED = sorted({(node, f.L) for f in CAT.forms.values()
                   for node in _subtrees(parse_expr(f.expr)) if node[0] == "low"}, key=repr)


def test_a_lowered_series_at_one_coefficient_is_its_truncation_at_two():
    """(low h f) reads the q coefficient of f at every precision, so prec 1 on
    a fresh Evaluator is prec 2 truncated; only a zero q coefficient raises."""
    assert len(_LOWERED) >= 3
    for node, L in [(parse_expr("(low 2 E4)"), 1)] + _LOWERED:
        ctx = cyclo_context(L)
        one = Evaluator(ctx, FORMS).series(node, 1)
        assert one == Evaluator(ctx, FORMS).series(node, 2).truncate(1), node
        assert one.coefficient(0).is_zero() and one.prec == 1, node
    with pytest.raises(MfringError, match="q coefficient must be nonzero"):
        Evaluator(C1, FORMS).series("(low 2 (v 2 theta))", 1)


def _count_products(monkeypatch) -> list:
    """Record every QSeries product and power from now on."""
    seen = []
    for name in ("__mul__", "__pow__"):
        def counted(a, b, _f=getattr(QSeries, name), _name=name):
            seen.append(_name)
            return _f(a, b)
        monkeypatch.setattr(QSeries, name, counted)
    return seen


# every catalog form of conductor 4, the 13 ones among them sharing cubic terms,
# and constructor expressions whose fields divide 4
_FIELD4 = sorted(n for n, f in CAT.forms.items() if f.L == 4) + [
    "E4", "(pow F13 3)", "(mul (pow F13 2) alpha13)", "(scale z4/2 (add E4 (pow theta 8)))",
    "(sub (v 2 theta) (scale -3+z4 theta))", "(low 2 E6)", "(conj (scale z4 f[1;rho3]))",
    "(add (pow theta 2) bqf[1,0,1] (v 2 C2))", "(scale 1/2 (add f[1;rho3] (conj f[1;rho3])))",
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELD4), st.integers(1, 30)), min_size=1, max_size=6))
def test_one_evaluator_gives_what_a_fresh_one_gives(requests):
    """A sequence of requests on one Evaluator, whose cache fills and is
    answered by truncation, returns each time what a fresh Evaluator does,
    and raises where it raises."""

    def outcome(ev, expr, prec):
        try:
            got = ev.series(expr, prec)
        except MfringError as exc:
            return type(exc)
        return got.prec, got

    shared = Evaluator(C4, FORMS)
    for expr, prec in requests:
        assert outcome(shared, expr, prec) == outcome(Evaluator(C4, FORMS), expr, prec)


def test_forms_sharing_terms_multiply_them_once(monkeypatch):
    """zeta13 after epsilon13 runs no product or power for the nodes they
    share, such as (pow F13 3), and runs all the others."""
    prec = 20
    zeta, epsilon = parse_expr(FORMS["zeta13"]), parse_expr(FORMS["epsilon13"])
    common = _subtrees(zeta) & _subtrees(epsilon)
    assert ("pow", ("atom", "F13"), 3) in common
    products = _count_products(monkeypatch)

    def products_of(ev, *asts) -> int:
        before = len(products)
        for ast in asts:
            ev.series(ast, prec)
        return len(products) - before

    in_common = products_of(Evaluator(C4, FORMS), *common)
    alone = products_of(Evaluator(C4, FORMS), zeta)
    warm = Evaluator(C4, FORMS)
    products_of(warm, epsilon)
    assert in_common > 0
    assert products_of(warm, zeta) == alone - in_common
    assert products_of(warm, *common) == 0


def test_bad_input_raises_on_every_call():
    """A failed evaluation leaves nothing cached that a later call trusts."""
    ev = Evaluator(C1, {"bad": "(scale 1/0 E4)"})
    for text, error in (("(add E4", CatalogError), ("nosuchform", UnknownForm),
                        ("(scale 1/0 E4)", CatalogError), ("(add E4 bad)", CatalogError),
                        ("(mul E4 E[4])", UnknownForm)):
        for _ in range(3):
            with pytest.raises(error):
                ev.series(text, 6)
    assert ev.series("(scale 1/2 E4)", 6) == Evaluator(C1, {}).series("(scale 1/2 E4)", 6)


def test_each_scale_literal_is_parsed_once_per_field(monkeypatch):
    calls = []

    def counted(text, ctx, _f=exprs.parse_scalar):
        calls.append((text, ctx.L))
        return _f(text, ctx)

    monkeypatch.setattr(exprs, "parse_scalar", counted)
    for ctx in (C1, C4):
        ev = Evaluator(ctx, {"half": "(scale 1/2 E4)"})
        for prec in (5, 10, 20, 10):  # each rise rebuilds the scale nodes
            ev.series("(add (scale 1/2 E6) half (scale 3 (scale 1/2 theta)))", prec)
            ev.series("(scale 1/2 (pow E4 2))", prec)
    assert sorted(calls) == [("1/2", 1), ("1/2", 4), ("3", 1), ("3", 4)]
