import json
import re
from collections import Counter
from importlib import resources
from math import gcd, lcm
from pathlib import Path

import pytest

from mfring import catalog, exprs, verify
from mfring.catalog import (
    Catalog,
    group_index,
    load_catalog,
    psi_index,
    sturm_bound2,
)
from mfring.errors import CatalogError, OutOfTable, QuasiModularUse

CAT = load_catalog()
FORMS_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "qexp_forms.json"


# -- independent index oracles ------------------------------------------


def _p1_size(N):
    """Projective line over Z/N by direct orbit enumeration."""
    units = [u for u in range(N) if gcd(u, N) == 1]
    seen = set()
    count = 0
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1:
                continue
            if (c, d) in seen:
                continue
            count += 1
            for u in units:
                seen.add((u * c % N, u * d % N))
    return count


def _gamma_h_index_oracle(N, H):
    """Coset count of the congruence image inside PSL2(Z/N)."""
    sub = {1 % N}
    frontier = [1 % N]
    gens = tuple(H) + (N - 1,)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % N
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    sl2 = [
        (a, b, c, d)
        for a in range(N) for b in range(N) for c in range(N) for d in range(N)
        if (a * d - b * c) % N == 1
    ]
    h = [(a, b, c, d) for (a, b, c, d) in sl2 if c == 0 and d % N in sub]
    plus_minus = set(h)
    for (a, b, c, d) in h:
        plus_minus.add(((-a) % N, (-b) % N, (-c) % N, (-d) % N))
    return len(sl2) // len(plus_minus)


def test_group_index_examples_and_oracles():
    assert group_index(CAT.group("g1")) == 1
    assert group_index(CAT.group("g0_2")) == 3 == _p1_size(2)
    assert psi_index(6) == _p1_size(6)
    assert psi_index(12) == _p1_size(12)
    assert group_index(CAT.group("g7")) == 24 == _gamma_h_index_oracle(7, [1])
    assert group_index(CAT.group("g11h3")) == 12 == _gamma_h_index_oracle(11, [3])
    assert group_index(CAT.group("g5")) == 12 == _gamma_h_index_oracle(5, [1])


def test_full_report_computes_each_group_index_once(monkeypatch):
    """Every Sturm bound needs its group's index; the index is computed once
    per group, not once per bound."""
    group_index.cache_clear()
    levels = []
    psi = catalog.psi_index
    monkeypatch.setattr(catalog, "psi_index", lambda N: levels.append(N) or psi(N))
    verify.full_report(CAT)
    assert levels
    # one psi_index per computed index, and only groups other than the full one need it
    assert Counter(levels) <= Counter(g.level for g in CAT.groups.values() if g.kind != "full")


def test_sturm_bounds():
    assert CAT.sturm2("g0_2", 8) == 3
    assert CAT.sturm2("g11h3", 12) == 8
    assert CAT.sturm2("g1", 24) == 3
    # half-integral: bound of the squared weight, halved rounding up
    g4 = CAT.group("g4")
    full = sturm_bound2(g4, 2)  # weight 1
    half = sturm_bound2(g4, 1)  # weight 1/2
    assert half == ((1 * group_index(g4)) // 12 + 2 + 1) // 2 == 1
    assert full >= half


def test_dimension_rows():
    assert CAT.dim2("g1", 4) == 0  # weight 2, the dropped residue
    assert CAT.dim2("g1", 24) == 2
    assert CAT.dim2("g7", 6) == 7
    assert CAT.dim2("g19h4", 6) == 5
    assert CAT.dim2("g13h3", 8) == 9
    assert CAT.dim2("g14h9", 2) == 2
    assert CAT.dim2("g17", 4) == 20
    assert {CAT.dim2(label, 0) for label in CAT.groups} == {1}  # the constants
    with pytest.raises(OutOfTable):
        CAT.dim2("g1", 6)  # odd weight on an even-only row
    # a "k in N" row at its smallest weight
    assert CAT.dim2("g11h3", 2) == 1
    assert CAT.dim2("g25h6", 10) == 26


def test_half_integral_dim_overrides():
    # doubled weight j: dim M_{j/2}(4,1) = floor(j/4) + 1
    assert [CAT.dim2("g4", j) for j in range(9)] == [1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert [CAT.dim2("g8", j) for j in range(5)] == [1, 2, 3, 4, 5]
    assert [CAT.dim2("g12", j) for j in range(6)] == [1, 2, 5, 6, 9, 10]
    assert [CAT.dim2("g16h9", j) for j in range(5)] == [1, 3, 5, 7, 9]
    assert [CAT.dim2("g16", j) for j in range(5)] == [1, 3, 7, 7, 15]


# The integral rows of the five groups with half-integral weights, and the rows
# their half-integral cases (half4, half8, half12, half16h9, 16full) carried
# before a group's rows covered both gradings.
_INTEGRAL_ROWS = {
    "g4": [{"mod": 2, "res": [0], "floor": [1, 4], "c": 1}],
    "g8": [{"mod": 2, "res": [0], "cj": [1, 1], "c": 1}],
    "g12": [{"mod": 2, "res": [0], "cj": [2, 1], "c": 1}],
    "g16h9": [{"mod": 2, "res": [0], "cj": [2, 1], "c": 1}],
    "g16": [{"mod": 2, "res": [0], "jmin": 2, "cj": [4, 1], "c": -1}],
}
_HALF_CASE_ROWS = {
    "g4": [{"mod": 1, "res": [0], "floor": [1, 4], "c": 1}],
    "g8": [{"mod": 1, "res": [0], "cj": [1, 1], "c": 1}],
    "g12": [{"mod": 2, "res": [0], "cj": [2, 1], "c": 1}, {"mod": 2, "res": [1], "cj": [2, 1]}],
    "g16h9": [{"mod": 1, "res": [0], "cj": [2, 1], "c": 1}],
    "g16": [{"mod": 2, "res": [1], "cj": [2, 1], "c": 1},
            {"mod": 2, "res": [0], "jmin": 2, "cj": [4, 1], "c": -1}],
}


def test_group_rows_are_the_half_integral_case_rows_at_odd_and_the_integral_rows_at_even():
    for label, rows in _INTEGRAL_ROWS.items():
        for j2 in range(1, 401):
            got = CAT.dim2(label, j2)
            assert got == catalog.eval_dim_branches(_HALF_CASE_ROWS[label], j2), (label, j2)
            if j2 % 2 == 0:
                assert got == catalog.eval_dim_branches(rows, j2), (label, j2)
    # every case on these groups reads their rows; none carries its own
    assert {c.group for c in CAT.cases.values() if c.label.startswith("half")} == {
        "g4", "g8", "g12", "g16h9"}
    assert CAT.cases["16full"].group == "g16"


def test_a_case_with_its_own_dimension_rows_is_refused_naming_its_group():
    raw = _shipped_raw()
    case = next(c for c in raw["cases"] if c["label"] == "half4")
    case["dim"] = [{"mod": 1, "res": [0], "floor": [1, 4], "c": 1}]
    with pytest.raises(CatalogError, match="half4: dimension rows belong to its group g4"):
        Catalog(raw)


@pytest.mark.parametrize("key, value", [
    ("span_kmax2", 0), ("span_kmax2", -2), ("span_kmax2", "8"), ("span_kmax2", 8.0),
    ("span_kmax2", True), ("span_kmax2", None),
    ("kernel_kmax2", 0), ("kernel_kmax2", -2), ("kernel_kmax2", "8"), ("kernel_kmax2", None),
])
def test_a_case_top_weight_that_is_not_a_positive_int_is_refused_naming_the_case(key, value):
    """A top weight of 0 once ran the span check to weight 4 and reported
    k_range (0, 8), one of -2 passed with no weights, and "8" raised inside
    the check; each is now a CatalogError on load (exit 3)."""
    raw = _shipped_raw()
    next(c for c in raw["cases"] if c["label"] == "7")[key] = value
    with pytest.raises(CatalogError, match=f"^case 7: {key} must be a positive int, got "):
        Catalog(raw)


def test_span_generators_without_a_top_weight_are_refused():
    raw = _shipped_raw()
    del next(c for c in raw["cases"] if c["label"] == "7")["span_kmax2"]
    with pytest.raises(CatalogError, match="^case 7: span_gens without span_kmax2$"):
        Catalog(raw)
    # a case with neither is a case with no span check
    del next(c for c in raw["cases"] if c["label"] == "7")["span_gens"]
    assert verify.check_plan(Catalog(raw), "span", "7").skip == "no spanning generator set"


@pytest.mark.parametrize("label, key, value, message", [
    ("11full", "span_kmax2", 40, "span_kmax2 without span_gens"),
    ("8", "kernel_kmax2", 12, "kernel_kmax2 without a presentation"),
])
def test_a_top_weight_that_no_check_reads_is_refused_naming_the_case(label, key, value, message):
    """A span_kmax2 on a case without span_gens, or a kernel_kmax2 on one
    without a presentation, schedules no check, so the catalog would ship a
    weight nothing reads; each is a CatalogError on load (exit 3)."""
    raw = _shipped_raw()
    case = next(c for c in raw["cases"] if c["label"] == label)
    case[key] = value
    with pytest.raises(CatalogError, match=f"^case {label}: {message}$"):
        Catalog(raw)
    # no shipped case carries either
    for c in _shipped_raw()["cases"]:
        assert ("span_kmax2" in c) == ("span_gens" in c), c["label"]
        assert "kernel_kmax2" not in c or "presentation" in c, c["label"]


def _least_conductor(forms: dict, exprs_: list[str], polys: list[str] = ()) -> int:
    """The lcm of the conductors of the catalog forms the expressions name, of
    the root-of-unity orders of their constructors and of the z<n> in their
    scale literals and in the polynomials' coefficients."""
    L = 1
    for text in exprs_:
        ast = exprs.parse_expr(text)
        L = lcm(L, *exprs.root_orders(ast), *(forms[a]["L"] if a in forms
                                                else exprs.constructor(a).order()
                                                for a in exprs.atoms(ast)))
    for poly in polys:
        L = lcm(L, *(int(n) for n in re.findall(r"(?<!\w)z(\d+)(?!\w)", poly) if int(n)))
    return L


def test_every_shipped_conductor_is_the_least_one():
    """Each form, identity and case declares as L the least conductor its
    series need: a larger one evaluates in a larger field for nothing, and
    a field of conductor 2 is Q again, with a cache apart from conductor 1's."""
    raw = _shipped_raw()
    forms = {f["name"]: f for f in raw["forms"]}
    cases = {c["label"]: c for c in raw["cases"]}

    def gens(case: dict) -> list[dict]:
        pres = case.get("presentation", {})
        base = cases[pres["base"]]["presentation"]["gens"] if "base" in pres else []
        return case.get("span_gens", []) + base + pres.get("gens", []) + pres.get("aux", [])

    least = {f["name"]: _least_conductor(forms, [f["expr"]]) for f in raw["forms"]}
    least.update((i["name"], _least_conductor(forms, [i["expr"]])) for i in raw["identities"])
    least.update((c["label"], _least_conductor(
        forms, [g["expr"] for g in gens(c)],
        [r["poly"] for r in c.get("presentation", {}).get("relations", [])]))
        for c in raw["cases"])
    declared = {e.get("name", e.get("label")): e["L"]
                for section in ("forms", "identities", "cases") for e in raw[section]}
    assert len(declared) == len(least) == 97
    assert declared == least
    assert (least["c7_sq"], least["half4"], least["half8"], least["11full"]) == (2, 1, 1, 10)


def test_identity_cutoffs_come_from_the_weights_of_their_atoms():
    """The three identities on theta are half-integral, certified at twice their
    weight, because theta has doubled weight 1; the others' atoms are integral."""
    cutoffs = {name: verify.check_plan(CAT, "identity", name).cutoff for name in CAT.identities}
    assert cutoffs == {
        "c13_prod": 6, "c2_vop2": 3, "c2_vop3": 4, "c3_sq": 2, "c3_vop2": 4, "c4_sq": 3,
        "c5_prod": 4, "c7_prod": 6, "c7_sq": 6, "e4_level2": 3, "e4_low3": 3,
        "g2_rho13": 6, "g2_rho5": 4, "theta_mul3": 10, "theta_mul4": 18, "theta_quad": 18,
    }
    for name in ("theta_mul3", "theta_mul4", "theta_quad"):
        ident = CAT.identities[name]
        assert cutoffs[name] == CAT.sturm2(ident.group, 2 * ident.w2) > CAT.sturm2(
            ident.group, ident.w2)


def test_group_by_key():
    assert CAT.group_by_key("gammaH", 11, [3]).label == "g11h3"
    assert CAT.group_by_key("gamma0", 2).label == "g0_2"
    assert CAT.group_by_key("full", 1).label == "g1"
    with pytest.raises(OutOfTable):
        CAT.group_by_key("gammaH", 11, [2])


def test_lookup_form_fixtures():
    alpha1 = CAT.lookup_form("alpha1", 5)
    assert list(alpha1.coeffs) == [0, 1, -24, 252, -1472]
    alpha4 = CAT.lookup_form("alpha4", 12)
    for n in range(1, 12):
        want = sum(d for d in range(1, n + 1) if n % d == 0) if n % 2 else 0
        assert alpha4.coefficient(n) == want
    f5 = CAT.lookup_form("F5", 12)
    assert all(c.is_rational() for c in f5.coeffs)
    with pytest.raises(Exception):
        CAT.lookup_form("nosuch", 5)


def _joined(terms, prec):
    """'c0 + c1*q + ... + O(q^prec)' from golden (n, sign, text) terms."""
    parts = []
    for _, sign, text in terms:
        if parts:
            parts.append(f"{sign} {text}")
        else:
            parts.append(text if sign == "+" else f"-{text}")
    return " ".join(parts or ["0"]) + f" + O(q^{prec})"


def test_every_catalog_form_renders_as_its_golden_expansion():
    # the benchmark's reference expansions, only read here
    golden = json.loads(FORMS_GOLDEN.read_text())
    assert sorted(golden) == sorted(CAT.forms)
    for name, ref in golden.items():
        got = str(CAT.lookup_form(name, ref["prec"]))
        assert got == _joined(ref["terms"], ref["prec"]), name


def test_one_evaluator_per_conductor():
    assert CAT.evaluator(10) is CAT.evaluator(10)
    assert CAT.evaluator(1) is not CAT.evaluator(10)
    assert CAT.evaluator(10).ctx.L == 10


def test_a_shared_series_cache_serves_lower_precisions_exactly():
    # each form first at a high precision, then at a lower one from the cache
    raw = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    warm = Catalog(raw)
    for name in sorted(warm.forms):
        warm.lookup_form(name, 61)
        assert warm.lookup_form(name, 17) == Catalog(raw).lookup_form(name, 17), name


def test_catalog_closure_and_weights_validated_on_load():
    # loading ran the full validation; spot-check a couple of weights
    assert CAT.forms["alpha1"].w2 == 24
    assert CAT.forms["u16"].w2 == 1
    assert CAT.identities["theta_quad"].w2 == 2
    for case in CAT.cases.values():
        if case.presentation and case.presentation.hilbert_den:
            gens = CAT.case_gens(case, presentation=True)
            assert sorted(case.presentation.hilbert_den) == sorted(g.w2 for g in gens)


def test_quasi_modular_guard():
    raw = {
        "groups": [{"label": "g", "kind": "gamma0", "level": 2,
                    "dim": [{"mod": 4, "res": [0], "floor": [1, 8], "c": 1}]}],
        "forms": [],
        "identities": [],
        "cases": [{"label": "bad", "group": "g", "L": 1,
                   "span_gens": [{"name": "E2", "w2": 4, "expr": "E2"}],
                   "span_kmax2": 8}],
    }
    with pytest.raises(QuasiModularUse):
        Catalog(raw)


def test_quasi_modular_guard_looks_through_catalog_forms():
    """E2 hidden in a form, one form or two below a generator, is refused on
    load as E2 written into the generator is; E2 in a form no generator names,
    or in an identity, is not."""
    raw = _shipped_raw()
    raw["forms"].append({"name": "qm", "w2": 8, "L": 1, "expr": "(pow E2 2)"})
    Catalog(raw)
    raw["forms"].append({"name": "qm2", "w2": 8, "L": 1, "expr": "(add qm E4 E4)"})
    gen = next(c for c in raw["cases"] if c["label"] == "1")["span_gens"][0]
    assert gen["expr"] == "E4"
    for expr in ("qm", "qm2", "(pow E2 2)"):
        gen["expr"] = expr
        with pytest.raises(QuasiModularUse, match="case 1 gen E4"):
            Catalog(raw)


def test_self_named_generator_is_checked_against_its_definition():
    raw = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    pres = next(c for c in raw["cases"] if c["label"] == "1")["presentation"]
    pres["gens"][0]["w2"] = 10  # E4, whose expression is its own name, has weight 4
    pres["hilbert"]["den"] = [10, 12]
    with pytest.raises(CatalogError, match="gen E4: declared w2=10, computed 8"):
        Catalog(raw)


def _one_case_catalog(forms=(), span_gens=()):
    return {
        "groups": [{"label": "g", "kind": "full", "level": 1,
                    "dim": [{"mod": 4, "res": [0], "floor": [1, 24], "c": 1}]}],
        "forms": list(forms),
        "identities": [],
        "cases": [{"label": "c", "group": "g", "L": 1, "span_gens": list(span_gens),
                   "span_kmax2": 8}],
    }


def test_declared_weights_are_checked_where_atoms_resolve():
    # a form's own declared weight, not only its weight where another form names it
    with pytest.raises(CatalogError, match="form bad: declared w2=10, computed 8"):
        Catalog(_one_case_catalog(forms=[{"name": "bad", "w2": 10, "L": 1, "expr": "E4"}]))
    # a generator's name labels relations only: a sibling's name does not resolve
    gens = [{"name": "a", "w2": 20, "expr": "(mul b E6)"}, {"name": "b", "w2": 8, "expr": "E6"}]
    with pytest.raises(CatalogError, match="gen a: cannot resolve 'b'"):
        Catalog(_one_case_catalog(span_gens=gens))
    # an atom that resolves nowhere is a defect of the file, named with its entry
    with pytest.raises(CatalogError, match="form bad: cannot resolve 'nosuch'"):
        Catalog(_one_case_catalog(forms=[{"name": "bad", "w2": 8, "L": 1, "expr": "nosuch"}]))
    forms = [{"name": "a", "w2": 8, "L": 1, "expr": "(mul b E4)"},
             {"name": "b", "w2": 0, "L": 1, "expr": "a"}]
    with pytest.raises(CatalogError, match="cyclic"):
        Catalog(_one_case_catalog(forms=forms))


def test_inhomogeneous_expression_rejected():
    raw = {
        "groups": [{"label": "g", "kind": "full", "level": 1,
                    "dim": [{"mod": 4, "res": [0], "floor": [1, 24], "c": 1}]}],
        "forms": [{"name": "bad", "w2": 8, "L": 1, "expr": "(add E4 E6)"}],
        "identities": [],
        "cases": [],
    }
    with pytest.raises(CatalogError):
        Catalog(raw)


def test_catalog_file_is_read_again_after_a_rewrite(tmp_path):
    raw = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    assert "alpha23" in load_catalog(str(path)).forms
    raw["forms"] = [f for f in raw["forms"] if f["name"] != "alpha23"]
    path.write_text(json.dumps(raw))
    assert "alpha23" not in load_catalog(str(path)).forms
    assert load_catalog() is load_catalog()  # the built-in catalog is read once


def _shipped_raw():
    return json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())


def test_relations_are_weighed_by_position_over_a_base_ring_and_aux():
    # 16full's variables are half16h9's generators (u16, u16_bar, theta2), its own
    # two, then aux theta, theta2, theta4: theta2 is named twice
    case = CAT.cases["16full"]
    names = [g.name for g in CAT.case_gens(case, presentation=True) + case.presentation.aux]
    assert len(names) == 8 and names.count("theta2") == 2
    for rel in case.presentation.relations:
        assert all(len(exps) == 8 for exps in CAT.relation_terms(case, rel))
    raw = _shipped_raw()
    pres = next(c for c in raw["cases"] if c["label"] == "16full")["presentation"]
    pres["relations"][0]["poly"] = "fchi16^2 - u16_bar*theta*theta2"
    with pytest.raises(CatalogError, match="relation O16: term of weight 3, declared 4"):
        Catalog(raw)
    pres["relations"][0]["poly"] = "fchi16^2 - theta2^3"
    with pytest.raises(CatalogError, match="relation O16: term of weight 3, declared 4"):
        Catalog(raw)


def test_records_are_immutable():
    case = CAT.cases["7"]
    L = case.L
    with pytest.raises(AttributeError):
        case.L = L + 1
    with pytest.raises(AttributeError):
        CAT.forms["alpha1"].w2 = 2
    assert case.L == L


def test_each_relation_is_parsed_once_from_load_to_full_report(monkeypatch):
    calls = []
    parse = exprs.parse_poly

    def counted(text, names, ctx):
        if names:  # a scalar literal is parsed with no variables
            calls.append(text)
        return parse(text, names, ctx)

    for module in (exprs, catalog, verify):  # wherever the name is bound
        if hasattr(module, "parse_poly"):
            monkeypatch.setattr(module, "parse_poly", counted)
    cat = load_catalog(str(resources.files("mfring").joinpath("data/catalog.json")))
    relations = [(label, rel.poly) for label, case in cat.cases.items() if case.presentation
                 for rel in case.presentation.relations]
    assert len(calls) == len(relations) == len(set(relations)) > 20
    reports = verify.full_report(cat)
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert sorted(calls) == sorted(poly for _, poly in relations)


def test_an_atom_weight_is_resolved_once(monkeypatch):
    resolved = []
    resolve = catalog.resolve
    monkeypatch.setattr(catalog, "resolve", lambda name, forms: resolved.append(name)
                        or resolve(name, forms))
    cat = Catalog(_shipped_raw())
    assert len(resolved) == len(set(resolved)) >= len(cat.forms)


@pytest.mark.parametrize("section, key", [("groups", "label"), ("forms", "name"),
                                          ("identities", "name"), ("cases", "label")])
def test_a_repeated_label_is_refused_in_every_section(section, key):
    raw = _shipped_raw()
    first = raw[section][0]
    raw[section].append(dict(first))
    with pytest.raises(CatalogError, match=f"duplicate .* {first[key]}$"):
        Catalog(raw)


def test_an_empty_catalog_path_is_named_not_taken_for_the_built_in_one():
    with pytest.raises(CatalogError) as err:
        load_catalog("")
    assert "cannot read ''" in str(err.value) and "built-in" not in str(err.value)
