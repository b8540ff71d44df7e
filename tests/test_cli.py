import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfring
from mfring.catalog import load_catalog, require_coordinates
from mfring.cli import EXIT_PIPE_CLOSED, main
from mfring.errors import PrecisionTooHigh
from mfring.verify import GUARD

SHIPPED = json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qexp_fixtures(capsys):
    code, out, _ = _run(capsys, "qexp", "E4", "--prec", "4")
    assert code == 0
    assert out.strip() == "1 + 240*q + 2160*q^2 + 6720*q^3 + O(q^4)"
    code, out, _ = _run(capsys, "qexp", "theta", "--prec", "5")
    assert code == 0
    assert out.strip() == "1 + 2*q + 2*q^4 + O(q^5)"
    code, out, _ = _run(capsys, "qexp", "f[1;rho3]", "--prec", "3")
    assert code == 0
    assert out.strip() == "1 + 6*q + O(q^3)"


def test_qexp_json_and_errors(capsys):
    code, out, _ = _run(capsys, "qexp", "alpha23", "--prec", "4", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "alpha23" and data["prec"] == 4
    code, _, err = _run(capsys, "qexp", "nosuchthing")
    assert code == 2 and "unknown" in err
    code, _, err = _run(capsys, "qexp", "E4", "--prec", "0")
    assert code == 3


@pytest.mark.parametrize("expr, want", [
    ("(add E4", 3),           # unbalanced: ran out of tokens
    ("(pow E4 x)", 3),        # exponent is not an integer
    ("(v 0 E4)", 3),          # q -> q^0 is not a substitution
    ("(low 1 E4)", 3),        # (f - f(q))/a is zero, not q + O(q^2)
    ("(low 0 E4)", 3),
    ("f[1;pow(chi5)]", 3),    # character operator with a missing argument
    ("f[1;rho9]", 2),         # no character of that name
    ("(scale 2^ E4)", 3),     # scalar exponent missing
    ("(scale 2^x E4)", 3),    # scalar exponent is not an integer
    ("(scale 2^99999999999 E4)", 3),  # scalar power past the bit budget, refused unbuilt
    ("E4 E6", 3),             # two atoms are not one expression
    ("f[0;rho5]", 2),         # weight outside the constructor's domain
    ("(scale z0 E4)", 3),     # a root of unity of order 0 is a malformed literal
    ("(scale 2*z0 E4)", 3),
    ("(scale z00 E4)", 3),
])
def test_qexp_bad_expressions_exit_without_traceback(capsys, expr, want):
    code, out, err = _run(capsys, "qexp", expr, "--prec", "5")
    assert code == want
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("expr, want", [
    ("(v 99999999999 E4)", "1 + O(q^4)"),
    ("(low 99999999999 E4)", "q + 9*q^2 + 28*q^3 + O(q^4)"),
])
def test_qexp_huge_h_builds_only_the_kept_coefficients(capsys, expr, want):
    code, out, err = _run(capsys, "qexp", expr, "--prec", "4")
    assert code == 0 and err == ""
    assert out.strip() == want


def test_qexp_of_a_lowered_series_below_two_coefficients(capsys):
    """(low h f) reads the q coefficient of f at any precision: prec 1 prints
    the constant term 0, and a zero q coefficient still fails."""
    assert _run(capsys, "qexp", "(low 2 E4)", "--prec", "1") == (0, "0 + O(q^1)\n", "")
    code, out, err = _run(capsys, "qexp", "(low 2 (v 2 theta))", "--prec", "1")
    assert code == 2 and out == "" and "q coefficient must be nonzero" in err


def test_qexp_prints_coefficients_past_the_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, "qexp", "(scale 2^20000 E4)", "--prec", "2")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit  # lifted only while main runs
    sys.set_int_max_str_digits(0)
    try:
        want = f"{2**20000} + {240 * 2**20000}*q + O(q^2)"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.strip() == want


def test_qexp_character_expression_conductor(capsys):
    code, out, _ = _run(capsys, "qexp", "f[1;pow(chi5,3)]", "--prec", "3")
    assert code == 0
    assert out.strip() == "1 + (3 + z4)*q + (4 - 2*z4)*q^2 + O(q^3)"


def test_qexp_scale_literal_roots_of_unity_set_the_conductor(capsys):
    code, out, err = _run(capsys, "qexp", "(scale z4 E4)", "--prec", "3")
    assert code == 0 and err == ""
    assert out.strip() == "z4 + 240*z4*q + 2160*z4*q^2 + O(q^3)"
    code, out, _ = _run(capsys, "qexp", "(add (scale z3 E4) (scale z4 E4))", "--prec", "2")
    assert code == 0
    # z3 + z4 in Q(zeta_12): z3 = z12^4 = z12^2 - 1 and z4 = z12^3
    assert out.strip() == "(-1 + z12^2 + z12^3) + (-240 + 240*z12^2 + 240*z12^3)*q + O(q^2)"
    code, _, err = _run(capsys, "qexp", "(scale z9999 E4)", "--prec", "3")
    assert code == 3 and "9999" in err and "Traceback" not in err


def test_qexp_scale_literal_with_parentheses_is_refused_by_name(capsys):
    code, out, err = _run(capsys, "qexp", "(scale (1+z4) f[1;chi5])", "--prec", "3")
    assert code == 3 and out == ""
    assert "a scale literal cannot contain parentheses" in err
    code, out, _ = _run(capsys, "qexp", "(scale 1+z4 f[1;chi5])", "--prec", "3")
    assert code == 0 and out.startswith("(1 + z4)")


def test_dims(capsys):
    code, out, _ = _run(capsys, "dims", "--group", "gammaH:11:[3]", "--kmax", "5")
    assert code == 0
    assert out.splitlines() == ["k=0: 1"] + [f"k={k}: {k}" for k in range(1, 6)]
    code, out, _ = _run(capsys, "dims", "--group", "gamma0:2", "--kmax", "8")
    assert code == 0
    assert out.splitlines() == ["k=0: 1", "k=2: 1", "k=4: 2", "k=6: 2", "k=8: 3"]
    code, out, _ = _run(capsys, "dims", "--group", "full", "--kmax", "12")
    assert code == 0
    assert out.splitlines()[-1] == "k=12: 2"
    code, _, err = _run(capsys, "dims", "--group", "gammaH:11:[2]")
    assert code == 2
    code, _, err = _run(capsys, "dims", "--group", "whatever")
    assert code == 3


def test_dims_finds_a_group_by_the_subgroup_its_h_generates(capsys):
    """An H is matched by the subgroup it generates mod N, not by its list;
    -1 is not added, and a level no group has exits 2 with no traceback."""
    spellings = {"gammaH:13:[3]": ["gammaH:13:[3,9]", "gammaH:13:[9]"],
                 "gammaH:11:[3]": ["gammaH:11:[5]"],
                 "gammaH:7:[1]": ["gammaH:7:[]", "gammaH:7:[8]"]}
    for shipped, others in spellings.items():
        code, want, _ = _run(capsys, "dims", "--group", shipped, "--kmax", "6")
        assert code == 0 and len(want.splitlines()) == 7
        for other in others:
            assert _run(capsys, "dims", "--group", other, "--kmax", "6") == (0, want, ""), other
    for missing in ("gammaH:13:[5]", "gammaH:13:[0]", "gammaH:0:[1]"):
        code, _, err = _run(capsys, "dims", "--group", missing)
        assert code == 2 and err.startswith("error: no group"), missing


def test_hilbert_command(capsys):
    code, out, _ = _run(capsys, "hilbert", "--case", "7", "--horizon", "6")
    assert code == 0
    assert "(1 - t^2)" in out
    code, _, err = _run(capsys, "hilbert", "--case", "zzz")
    assert code == 2
    code, _, err = _run(capsys, "hilbert", "--case", "8")
    assert code == 2  # no claimed Hilbert series for that case


def test_hilbert_command_shows_no_dimension_off_the_case_lattice(capsys):
    """Integral case 4 shares g4 with half4, whose rows cover the odd doubled
    weights; case 4's display and comparison skip them, half4's use them."""
    code, out, _ = _run(capsys, "hilbert", "--case", "4")
    assert code == 0
    assert "dims:      1,-,1,-,2,-,2,-,3,-,3,-,4," in out
    code, out, _ = _run(capsys, "hilbert", "--case", "4", "--output", "json")
    assert code == 0 and json.loads(out)["dims"][:5] == [1, None, 1, None, 2]
    code, out, _ = _run(capsys, "hilbert", "--case", "half4")
    assert code == 0 and "dims:      1,1,1,1,2,2,2,2,3," in out


def test_hilbert_command_compares_weights_without_a_dimension_row_to_0(tmp_path, capsys):
    raw = json.loads(json.dumps(SHIPPED))
    case1 = next(c for c in raw["cases"] if c["label"] == "1")
    case1["presentation"]["hilbert"]["num"] = [[1, 0], [1, 2]]  # claims a form of weight 1
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    code, out, _ = _run(capsys, "--catalog", str(path), "hilbert", "--case", "1")
    assert code == 1 and "MISMATCH at j2=2: coefficient 1, dim 0" in out
    code, out, _ = _run(capsys, "--catalog", str(path), "hilbert", "--case", "1",
                        "--output", "json")
    assert code == 1 and json.loads(out)["mismatched_weights2"][0] == 2
    code, out, _ = _run(capsys, "--catalog", str(path), "verify", "hilbert", "--case", "1")
    assert code == 1 and '"j2": 2' in out


def test_verify_identity_json_schema(capsys):
    code, out, _ = _run(capsys, "verify", "identity", "--case", "c3_sq",
                        "--output", "json")
    assert code == 0
    data = json.loads(out.strip())
    assert set(data) == {"case", "check", "k_range", "precision", "status",
                         "details", "elapsed_ms"}
    assert data["status"] == "pass"


def test_verify_exit_codes(capsys):
    code, out, _ = _run(capsys, "verify", "relations", "--case", "7")
    assert code == 0
    code, _, err = _run(capsys, "verify", "span", "--case", "doesnotexist")
    assert code == 2
    code, _, err = _run(capsys, "verify", "span", "--case", "7", "--kmax", "0")
    assert code == 3
    # the plan covers the weights --kmax selects: weight 1 needs 4 coefficients
    code, out, _ = _run(capsys, "verify", "span", "--case", "7", "--kmax", "1",
                        "--output", "json")
    assert code == 0 and json.loads(out)["precision"] == 4 + GUARD
    code, out, _ = _run(capsys, "verify", "kernel", "--case", "7", "--kmax", "12",
                        "--output", "json")
    assert code == 0 and json.loads(out)["precision"] == 26 + GUARD
    # a kernel check's cutoff covers its relations' 18, and its report states where they ran
    code, out, _ = _run(capsys, "verify", "kernel", "--case", "half12", "--kmax", "1",
                        "--output", "json")
    assert code == 0 and json.loads(out)["precision"] == 26
    code, out, err = _run(capsys, "verify", "hilbert", "--case", "1", "--horizon", "-1")
    assert code == 3 and out == "" and "horizon" in err


def test_verify_small_batch_text(capsys):
    code, out, _ = _run(capsys, "verify", "presentation", "--case", "14h9")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # relation, kernel, hilbert
    assert all("PASS" in line for line in lines)


@pytest.mark.parametrize("argv, want", [
    (["verify", "kernel", "--case", "11full"],
     [("kernel", "no kernel bound (kernel_kmax2) in the catalog")]),
    (["verify", "span", "--case", "11full"], [("span", "no spanning generator set")]),
    (["verify", "presentation", "--case", "8"],
     [("relation", "no presentation"), ("kernel", "no presentation"),
      ("hilbert", "no presentation")]),
    (["verify", "relations", "--case", "5"],
     [("relation", "free presentation, nothing to vanish")]),
])
def test_a_selected_check_that_cannot_run_reports_why(capsys, argv, want):
    code, out, _ = _run(capsys, *argv, "--output", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["check"], r["details"].get("reason")) for r in reports] == want
    assert all(r["status"] == "skipped" for r in reports)


@pytest.mark.parametrize("selector, label", [
    ("identity", "7"),       # a case label
    ("integrality", "7"),    # a case label
    ("span", "c3_sq"),       # an identity label
    ("presentation", "alpha1"),  # an integrality form
])
def test_a_label_no_selected_check_applies_to_is_unknown(capsys, selector, label):
    code, out, err = _run(capsys, "verify", selector, "--case", label)
    assert code == 2 and out == ""
    assert f"verify {selector} does not apply to {label!r}" in err
    # verify all has a check for each of them
    code, out, _ = _run(capsys, "verify", "all", "--case", label)
    assert code == 0 and out


def test_one_label_no_selected_check_applies_to_fails_the_selection(capsys):
    code, out, err = _run(capsys, "verify", "identity", "--case", "c3_sq", "--case", "7")
    assert code == 2 and out == "" and "'7'" in err


def test_verify_all_reports_only_what_the_catalog_claims(capsys):
    code, out, _ = _run(capsys, "verify", "all", "--output", "json")
    assert code == 0
    assert len(out.splitlines()) == 76
    code, out, _ = _run(capsys, "verify", "all", "--case", "8", "--output", "json")
    statuses = [(r["check"], r["status"]) for r in map(json.loads, out.splitlines())]
    assert statuses == [("span", "pass"), ("relation", "skipped"), ("kernel", "skipped"),
                        ("hilbert", "skipped")]


def _readme_cli_block():
    """The (argv, printed line or None) pairs of the README's CLI examples."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    examples = []
    for line in block:
        if line.startswith("mfring "):
            examples.append([shlex.split(line.split("  #")[0])[1:], None])
        elif line.startswith("# ") and examples:
            examples[-1][1] = line[2:]
    return examples


def test_readme_cli_examples_run(capsys):
    examples = _readme_cli_block()
    assert len(examples) == 9
    for argv, printed in examples:
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err)
        if printed is not None:
            assert out.strip() == printed, argv
    assert any(printed for _, printed in examples)


def test_catalog_list(capsys):
    code, out, _ = _run(capsys, "catalog", "list")
    assert code == 0
    assert "11h3" in out and "alpha23" in out and "theta_quad" in out


def test_custom_catalog_and_failure_exit_code(tmp_path, capsys):
    import json as _json
    from importlib import resources

    raw = _json.loads(resources.files("mfring").joinpath("data/catalog.json").read_text())
    for ident in raw["identities"]:
        if ident["name"] == "c3_sq":
            # doctored: a nonzero but weight-homogeneous combination
            ident["expr"] = "(sub C3 (scale 2 (pow f[1;rho3] 2)))"
    path = tmp_path / "broken.json"
    path.write_text(_json.dumps(raw))
    code, out, _ = _run(capsys, "--catalog", str(path),
                        "verify", "identity", "--case", "c3_sq")
    assert code == 1
    assert "FAIL" in out


def test_kernel_check_of_a_presentation_with_aux_series_is_skipped(tmp_path, capsys):
    raw = json.loads(json.dumps(SHIPPED))
    pres = next(c for c in raw["cases"] if c["label"] == "7")["presentation"]
    # frho7 written once through an auxiliary series r = f[1;rho7]
    pres["aux"] = [{"name": "r", "w2": 2, "expr": "f[1;rho7]"}]
    pres["relations"][0]["poly"] = "r*frho7 - fchi7*fchi7_bar"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    code, out, _ = _run(capsys, "--catalog", str(path), "verify", "presentation",
                        "--case", "7", "--output", "json")
    assert code == 0
    reports = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert reports["relation"]["status"] == "pass"
    assert reports["kernel"]["status"] == "skipped"
    assert "auxiliary series" in reports["kernel"]["details"]["reason"]
    code, out, _ = _run(capsys, "--catalog", str(path), "verify", "kernel", "--case", "7")
    assert code == 0 and "SKIPPED" in out


def _without_group(raw):
    del raw["cases"][0]["group"]
    return json.dumps(raw)


def _self_named_generator_of_wrong_weight(raw):
    pres = raw["cases"][0]["presentation"]  # case 1: E4 and E6, expressions their own names
    assert pres["gens"][0] == {"name": "E4", "w2": 8, "expr": "E4"}
    pres["gens"][0]["w2"] = 10
    pres["hilbert"]["den"] = [10, 12]
    return json.dumps(raw)


def _case_repeated(raw):
    raw["cases"].append(dict(raw["cases"][0]))
    return json.dumps(raw)


def _case_with_its_own_dimension_rows(raw):
    raw["cases"][0]["dim"] = [{"mod": 4, "res": [0], "floor": [1, 24], "c": 1}]
    return json.dumps(raw)


def _quasi_modular_form_as_a_generator(raw):
    raw["forms"].append({"name": "qm", "w2": 8, "L": 1, "expr": "(pow E2 2)"})
    gen = raw["cases"][0]["span_gens"][0]  # case 1's E4
    assert gen == {"name": "E4", "w2": 8, "expr": "E4"}
    gen["expr"] = "qm"
    return json.dumps(raw)


def _top_weight_no_check_reads(raw, label: str, key: str):
    """A top weight on a case that has no check to read it: a span_kmax2
    without span_gens, or a kernel_kmax2 without a presentation."""
    case = next(c for c in raw["cases"] if c["label"] == label)
    assert key not in case and ("span_gens" if key == "span_kmax2" else "presentation") not in case
    case[key] = 40 if key == "span_kmax2" else 12
    return json.dumps(raw)


def _form_above_the_weight_ceiling(raw):
    raw["forms"].append({"name": "heavy", "w2": 2000, "L": 1, "expr": "E1000", "group": "g1"})
    return json.dumps(raw)


@pytest.mark.parametrize("content", [
    None,  # no such file
    "{",  # malformed JSON
    "[]",  # not an object
    _without_group(json.loads(json.dumps(SHIPPED))),  # a case with no group
    _self_named_generator_of_wrong_weight(json.loads(json.dumps(SHIPPED))),
    _form_above_the_weight_ceiling(json.loads(json.dumps(SHIPPED))),
    _case_repeated(json.loads(json.dumps(SHIPPED))),
    _case_with_its_own_dimension_rows(json.loads(json.dumps(SHIPPED))),
    _quasi_modular_form_as_a_generator(json.loads(json.dumps(SHIPPED))),
    _top_weight_no_check_reads(json.loads(json.dumps(SHIPPED)), "11full", "span_kmax2"),
    _top_weight_no_check_reads(json.loads(json.dumps(SHIPPED)), "8", "kernel_kmax2"),
], ids=["missing", "truncated", "list", "no-group", "self-named-weight", "heavy-form",
        "repeated-case", "case-dim", "e2-in-form", "span-top-without-gens",
        "kernel-top-without-presentation"])
def test_bad_catalog_exits_3_without_traceback(tmp_path, capsys, content):
    path = tmp_path / "catalog.json"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, "--catalog", str(path), "catalog", "list")
    assert code == 3
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, selector", [
    ("span_kmax2", -2, "span"), ("span_kmax2", 0, "span"), ("span_kmax2", "8", "span"),
    ("kernel_kmax2", -2, "kernel"),
])
def test_a_case_top_weight_that_is_not_a_positive_int_exits_3(tmp_path, capsys, key, value,
                                                             selector):
    """Refused on load, naming the case: not a passing check with no weights,
    a check to a default weight, or a failure (exit 1) inside the check."""
    raw = json.loads(json.dumps(SHIPPED))
    next(c for c in raw["cases"] if c["label"] == "7")[key] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    code, out, err = _run(capsys, "--catalog", str(path), "verify", selector, "--case", "7")
    assert code == 3 and out == ""
    assert err == f"error: bad catalog: case 7: {key} must be a positive int, got {value!r}\n"


def _key_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, prefix + (i,))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(_key_paths(SHIPPED))))
def test_catalog_missing_any_key_exits_0_or_3(key_path):
    raw = json.loads(json.dumps(SHIPPED))
    node = raw
    for step in key_path[:-1]:
        node = node[step]
    del node[key_path[-1]]
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(raw, fh)
        assert main(["--catalog", path, "catalog", "list"]) in (0, 3), key_path
    finally:
        os.unlink(path)


def test_qexp_character_of_large_modulus_is_fast(capsys):
    # mul(chi23,chi19) has modulus 437 and field degree 60; inverting its
    # generalized Bernoulli number once took seconds
    start = time.perf_counter()
    code, out, err = _run(capsys, "qexp", "f[2;mul(chi23,chi19)]", "--prec", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out.startswith("1 + (") and out.strip().endswith("*q^2 + O(q^3)")


@pytest.mark.parametrize("expr", ["E1200", "E10000", "f[1000000000;rho3]",
                                  "g[10000;rho3]", "g[1000000000;rho5,chi5]"])
def test_qexp_weight_above_the_ceiling_exits_3_at_once(capsys, expr):
    start = time.perf_counter()
    code, out, err = _run(capsys, "qexp", expr, "--prec", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "exceeds" in err and "Traceback" not in err


# A small grammar of qexp inputs: the operators, constructors of weight <= 6
# or far above the weight ceiling, scalar literals, h up to 10^11, then
# optionally truncated or salted with garbage.  Scalar exponents reach past
# the 4300-digit int-to-str limit (9^5000, 2^20000) and past the scalar bit
# budget (2^99999999999).
_CHARS = st.sampled_from([
    "rho3", "rho4", "chi5", "rho5", "chi7", "rho7", "rho8", "chi9", "rho9",
    "pow(chi5,3)", "conj(chi7)", "mul(rho3,rho4)", "pow(chi5)", "mul(rho3)",
])
_WEIGHT = st.one_of(st.integers(0, 6), st.sampled_from([10**4, 10**9]))
_ATOMS = st.one_of(
    st.sampled_from(["E2", "E3", "E4", "E6", "E10000", "E1000000000", "C1", "C2", "C7",
                     "theta", "bqf[1,1,6]", "bqf[1,0,-1]", "alpha23", "nosuch"]),
    st.builds("f[{};{}]".format, _WEIGHT, _CHARS),
    st.builds("g[{};{}]".format, _WEIGHT, _CHARS),
    st.builds("g[{};{},{}]".format, _WEIGHT, _CHARS, _CHARS),
)
_SCALARS = st.one_of(
    st.builds(str, st.integers(-30, 30)),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-2, 9)),
    st.builds("{}^{}".format, st.integers(0, 9),
              st.sampled_from(["", "x", "-", "-1", "2", "12", "99", "5000", "20000",
                               "99999999999"])),
    st.builds("z{}^{}".format, st.sampled_from([1, 2, 3, 4, 5, 12]), st.integers(0, 12)),
    st.sampled_from(["z4/2", "(1+z4)", "1+", "*", "z", "2^^3"]),
)
_H = st.one_of(st.integers(0, 4), st.integers(0, 10**11))
_EXPRS = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.builds("(add {} {})".format, sub, sub),
    st.builds("(mul {} {} {})".format, sub, sub, sub),
    st.builds("(sub {} {})".format, sub, sub),
    st.builds("(pow {} {})".format, sub, st.integers(-1, 12)),
    st.builds("(scale {} {})".format, _SCALARS, sub),
    st.builds("({} {} {})".format, st.sampled_from(["v", "low"]), _H, sub),
    st.builds("(conj {})".format, sub),
), max_leaves=4)
_GARBAGE = st.sampled_from(["(", ")", "^", "(add", "(v", "f[", "g[2;", "]", ";", ",", "zz", "E"])


@st.composite
def _qexp_inputs(draw):
    expr = draw(_EXPRS)
    cut = draw(st.integers(0, len(expr)))
    mode = draw(st.sampled_from(["whole", "truncate", "insert"]))
    if mode == "truncate":
        expr = expr[:cut]
    elif mode == "insert":
        expr = expr[:cut] + draw(_GARBAGE) + expr[cut:]
    return expr, str(draw(st.integers(-1, 10)))


@settings(max_examples=150, deadline=None)
@given(_qexp_inputs())
def test_qexp_fuzz_exit_code_contract(args):
    expr, prec = args
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["qexp", expr, "--prec", prec])
        except SystemExit as exc:  # argparse refusing an argv
            code = exc.code
    assert code in (0, 2, 3), (expr, prec, err.getvalue())
    assert "Traceback" not in err.getvalue()


# argv for the other subcommands: flags in any order, each value drawn from
# good values, out-of-range numbers and garbage.  verify always names one case,
# so an example costs at most one small case.
_INTS = st.one_of(st.builds(str, st.integers(-3, 12)),
                  st.sampled_from(["x", "", "1.5", "-0", "10**3"]))
# dims --kmax and the --horizon flags, also at and past their ceiling (verify --kmax is
# drawn past it only: at the ceiling a span check would rank to weight 10000)
_SIZES = st.one_of(_INTS, st.sampled_from(["10000", "10001", "100000000"]))
_OUTPUTS = st.sampled_from(["text", "json", "xml"])
_GROUPS = st.one_of(
    st.sampled_from(["full", "whatever", "", ":", "gamma0:", "gamma0:x", "gammaH:7:3",
                     "gammaH:11:[3]", "gammaH:11:[a]", "gammaH:11:[3", "gammaH::[]",
                     "gammaH:13:[3,9]", "gamma0:4:1"]),
    st.builds("gamma0:{}".format, st.integers(-2, 30)),
    st.builds("gammaH:{}:[{}]".format, st.integers(-2, 30), st.integers(-2, 30)),
)
_CASES = st.sampled_from(["7", "14h9", "half12", "c3_sq", "alpha1", "nosuch", "", "8"])
_SMALL_CASES = st.sampled_from(["7", "c3_sq", "alpha1", "nosuch", ""])


@st.composite
def _flags(draw, options):
    argv = []
    for flag in draw(st.permutations(list(options))):
        if draw(st.booleans()):
            argv += [flag, draw(options[flag])]
    return argv


_ARGVS = st.one_of(
    st.tuples(st.builds(lambda group: ["dims", "--group", group], _GROUPS),
              _flags({"--kmax": _SIZES, "--output": _OUTPUTS})),
    st.tuples(st.builds(lambda case: ["hilbert", "--case", case], _CASES),
              _flags({"--horizon": _SIZES, "--output": _OUTPUTS})),
    st.tuples(st.just(["catalog"]), st.lists(st.sampled_from(["list", "show", "", "--x"]),
                                             max_size=2)),
    st.tuples(st.builds(lambda sel, case: ["verify", sel, "--case", case],
                        st.sampled_from(["all", "span", "kernel", "relations", "identity",
                                         "hilbert", "integrality", "presentation", "nope"]),
                        _SMALL_CASES),
              _flags({"--kmax": st.one_of(_INTS, st.sampled_from(["10001", "100000000"])),
                      "--horizon": _SIZES, "--output": _OUTPUTS})),
)


@settings(max_examples=120, deadline=None)
@given(_ARGVS)
def test_other_subcommands_fuzz_exit_code_contract(argv):
    head, tail = argv
    argv = head + tail
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["dims", "--group", "full", "--kmax"],
    ["hilbert", "--case", "7", "--horizon"],
    ["verify", "hilbert", "--case", "7", "--horizon"],
    ["verify", "span", "--case", "1", "--kmax"],
])
def test_size_flags_stop_at_their_ceiling(capsys, argv):
    # verify --kmax starts at 1, and its ceiling bounds the weights a check lists,
    # not the cost of ranking them: a span check to weight 10000 is not run
    low = 1 if argv[-1] == "--kmax" and argv[0] == "verify" else 0
    if not low:
        code, _, _ = _run(capsys, *argv, "10000")
        assert code == 0
    for value in ("10001", "100000000"):
        t0 = time.monotonic()
        code, out, err = _run(capsys, *argv, value)
        assert time.monotonic() - t0 < 1
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"must be between {low} and 10000" in err


@pytest.mark.parametrize("argv", [
    ["qexp", "E4", "--prec", "1000000000"],
    ["qexp", "(scale z2520 E4)", "--prec", "100000"],
    ["qexp", "(scale z2520 E4)", "--prec", "1737"],  # 1737 * phi(2520) = 1000512
    ["qexp", "varpi11", "--prec", "250001"],  # 250001 * phi(10) = 1000004
    ["qexp", "(scale z7 E4)", "--prec", "166667"],  # 166667 * phi(7) = 1000002
])
def test_precision_past_the_coordinate_ceiling_exits_3_at_once(capsys, argv):
    """prec * phi(L) above catalog.MAX_COORDINATES is refused before anything is
    evaluated: one error line, no traceback, no allocation of the series."""
    t0 = time.monotonic()
    code, out, err = _run(capsys, *argv)
    assert time.monotonic() - t0 < 1
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the ceiling of 1000000" in err and "Traceback" not in err


def test_verify_prec_is_a_usage_error():
    """verify has no --prec: each check runs at the precision of its plan.  A
    script that still passes the flag fails loudly, with argparse's usage
    error (exit 2) and no traceback, rather than having the flag ignored."""
    env = dict(os.environ, PYTHONPATH=str(Path(mfring.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mfring.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)

    proc = run("verify", "span", "--case", "7", "--prec", "5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: mfring")
    assert "unrecognized arguments: --prec 5" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run("verify", "--help")
    assert proc.returncode == 0 and "--kmax" in proc.stdout and "--prec" not in proc.stdout


def test_the_coordinate_ceiling_counts_prec_times_phi():
    require_coordinates(1, 1_000_000)
    require_coordinates(2520, 1736)  # 999936 coordinates
    for L, prec in ((1, 1_000_001), (2520, 1737), (6, 500_001)):
        with pytest.raises(PrecisionTooHigh):
            require_coordinates(L, prec)
    with pytest.raises(PrecisionTooHigh):
        load_catalog().lookup_form("E4", 10**9)


@pytest.mark.parametrize("argv, nread", [
    # 17 KB of reports fit in a pipe's buffer: close it before the first byte is written
    (["verify", "all", "--output", "json"], 0),
    # megabytes of series cannot: the writer is still writing when 20 bytes have been read
    (["qexp", "E4", "--prec", "20000"], 20),
])
def test_a_closed_stdout_pipe_exits_141_without_a_traceback(argv, nread):
    """A reader that goes away early, as `| head -c 20` does: the command
    writes nothing to stderr and exits 141, the status of SIGPIPE, not the
    1 that means a verification failed."""
    assert EXIT_PIPE_CLOSED == 141
    env = dict(os.environ, PYTHONPATH=str(Path(mfring.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "mfring.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(nread)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE_CLOSED
    assert err == b""
    assert len(head) == nread
