"""Catalog of groups, dimension rows, named forms, identities and presentations.

The catalog is plain data (``data/catalog.json``), loaded once and
validated: every expression must parse, every name must resolve, all
weights must be consistent, and claimed Hilbert denominators must match
generator weights.  Weights are stored doubled throughout so that
half-integral gradings stay in integer arithmetic.

Schema (top-level keys):

* ``groups``: ``{label, kind: full|gamma0|gammaH, level, H?, dim?}`` where
  ``dim`` is a list of branches over the doubled weight ``j``; a branch
  ``{mod, res, jmin?, cj?: [p,q], floor?: [p,q], c?}`` applies when
  ``j % mod in res`` and ``j >= jmin`` and evaluates to
  ``p*j/q + p'*floor(j/q') + c``.  Weight 0 needs no branch: ``Catalog.dim2``
  gives dim M_0 = 1 (the constants) on every group.  Rows at odd ``j`` are
  the group's half-integral weights (theta multiplier), on groups g4, g8,
  g12, g16h9 and g16; a case reads its group's rows and has none of its own.
* ``forms``: ``{name, w2, L, group?, expr}`` with prefix expressions.
* ``identities``: ``{name, group, L, w2, expr, note?}``; the expression
  must evaluate to the zero series.  It is half-integral, and certified at
  twice its weight, when an atom it names has odd doubled weight.
* ``cases``: ``{label, group, L, span_gens?, span_kmax2?,
  kernel_kmax2?, presentation?}``; ``span_kmax2`` and ``kernel_kmax2`` are
  the doubled top weights of the span and kernel checks, each a positive
  int where given; ``span_gens`` and ``span_kmax2`` come together, and
  ``kernel_kmax2`` needs a presentation.  A presentation
  is ``{gens, aux?, relations, relations_unknown?, base?, hilbert?}`` with
  relations given as infix polynomials in the generator names and
  ``hilbert`` as ``{num: [[coeff, deg2], ...], den: [deg2, ...]}``.

An atom of any expression names a catalog form, else a constructor
(``exprs.resolve``).  A generator's or aux series' ``name`` only labels it
in relation polynomials; its series is its ``expr``.  So an atom means one
series in a given field, and ``Catalog.evaluator(L)`` keeps one Evaluator
per conductor, whose cache holds one series per distinct atom, at the
largest precision asked, for the life of the Catalog.  Likewise each
relation polynomial is parsed once, on load, and kept for every check
(``Catalog.relation_terms``).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .characters import units
from .cyclo import cyclo_context
from .errors import CatalogError, OutOfTable, PrecisionTooHigh, QuasiModularUse, UnknownForm
from .exprs import Evaluator, atoms, constructor, parse_expr, parse_poly, resolve, root_orders
from .qseries import MAX_COORDINATES, QSeries

# the largest field lookup_form builds: Phi_L alone takes seconds to compute past it
MAX_CONDUCTOR = 2520


def require_coordinates(L: int, prec: int) -> None:
    """Refuse a precision at which one series over Q(zeta_L) would hold more
    than MAX_COORDINATES integer coordinates."""
    d = cyclo_context(L).degree
    if prec * d > MAX_COORDINATES:
        raise PrecisionTooHigh(f"precision {prec} over Q(zeta_{L}) needs {prec * d} coordinates, "
                               f"above the ceiling of {MAX_COORDINATES}")


# The records are NamedTuples rather than frozen dataclasses: just as
# immutable, without the import and class-building cost of ``dataclasses``.
class GroupSpec(NamedTuple):
    label: str
    kind: str  # full | gamma0 | gammaH
    level: int
    H: tuple[int, ...] = ()


class SpanGen(NamedTuple):
    name: str
    w2: int
    expr: str


class Relation(NamedTuple):
    name: str
    w2: int
    poly: str


class Presentation(NamedTuple):
    gens: tuple[SpanGen, ...]
    aux: tuple[SpanGen, ...]
    relations: tuple[Relation, ...]
    relations_unknown: bool
    base: str | None
    hilbert_num: tuple[tuple[int, int], ...] | None  # (coeff, doubled degree)
    hilbert_den: tuple[int, ...] | None


class Case(NamedTuple):
    label: str
    group: str
    L: int
    span_gens: tuple[SpanGen, ...] | None
    span_kmax2: int | None
    kernel_kmax2: int | None
    presentation: Presentation | None


class FormEntry(NamedTuple):
    name: str
    w2: int
    L: int
    group: str | None
    expr: str


class Identity(NamedTuple):
    name: str
    group: str
    L: int
    w2: int
    expr: str
    note: str | None


def psi_index(N: int) -> int:
    """Index of Gamma0(N) in PSL2(Z): N * prod (1 + 1/p)."""
    out = N
    for p in range(2, N + 1):
        if N % p == 0 and all(p % d for d in range(2, p)):
            out = out // p * (p + 1)
    return out


def _subgroup(N: int, gens) -> frozenset[int]:
    """The residues mod N that products of gens reach, 1 included."""
    seen = {1 % N}
    frontier = [1 % N]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % N
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


@lru_cache(maxsize=None)
def group_index(group: GroupSpec) -> int:
    """Index of the image in PSL2(Z), computed once per group: every Sturm
    bound needs it."""
    if group.kind == "full":
        return 1
    if group.kind == "gamma0":
        return psi_index(group.level)
    N = group.level
    order = len(_subgroup(N, group.H + (N - 1,)))
    return psi_index(N) * (len(units(N)) // order)


def sturm_bound2(group: GroupSpec, w2: int) -> int:
    """Certified coefficient cutoff for doubled weight w2 on this group.

    Two forms of this weight agreeing to this many coefficients are equal.
    Half-integral weights use the bound of the squared weight, halved
    rounding up.
    """
    m = group_index(group)
    if w2 % 2 == 0:
        return (w2 * m) // 24 + 2
    squared = (w2 * m) // 12 + 2
    return (squared + 1) // 2


def eval_dim_branches(branches, j2: int) -> int:
    for br in branches:
        mod = br.get("mod", 1)
        if j2 % mod not in br.get("res", [0]):
            continue
        if j2 < br.get("jmin", 0):
            continue
        val = br.get("c", 0)
        if "cj" in br:
            p, q = br["cj"]
            num = p * j2
            if num % q:
                raise CatalogError(f"non-integral dimension at j2={j2}")
            val += num // q
        if "floor" in br:
            p, q = br["floor"]
            val += p * (j2 // q)
        if val < 0:
            raise CatalogError(f"negative dimension at j2={j2}")
        return val
    raise OutOfTable(f"no dimension branch covers doubled weight {j2}")


def _gens(entries) -> tuple[SpanGen, ...]:
    return tuple(SpanGen(g["name"], g["w2"], g["expr"]) for g in entries)


def _top_weight(c: dict, key: str) -> int | None:
    """A case's span_kmax2 or kernel_kmax2: absent, or a positive int."""
    top = c.get(key)
    if key in c and (type(top) is not int or top < 1):  # bool is a subclass of int
        raise CatalogError(f"case {c['label']}: {key} must be a positive int, got {top!r}")
    return top


def _case(c: dict) -> Case:
    pres = None
    if "presentation" in c:
        p = c["presentation"]
        pres = Presentation(
            gens=_gens(p["gens"]),
            aux=_gens(p.get("aux", [])),
            relations=tuple(Relation(r["name"], r["w2"], r["poly"])
                            for r in p.get("relations", [])),
            relations_unknown=bool(p.get("relations_unknown", False)),
            base=p.get("base"),
            hilbert_num=tuple(tuple(t) for t in p["hilbert"]["num"]) if "hilbert" in p else None,
            hilbert_den=tuple(p["hilbert"]["den"]) if "hilbert" in p else None,
        )
    if "dim" in c:
        raise CatalogError(f"case {c['label']}: dimension rows belong to its group {c['group']}")
    span_kmax2, kernel_kmax2 = _top_weight(c, "span_kmax2"), _top_weight(c, "kernel_kmax2")
    if ("span_gens" in c) != (span_kmax2 is not None):
        raise CatalogError(f"case {c['label']}: span_gens without span_kmax2" if span_kmax2 is None
                           else f"case {c['label']}: span_kmax2 without span_gens")
    if kernel_kmax2 is not None and pres is None:  # no check would read it
        raise CatalogError(f"case {c['label']}: kernel_kmax2 without a presentation")
    # L is the field conductor: the lcm of the root-of-unity orders the case needs
    return Case(c["label"], c["group"], c["L"],
                _gens(c["span_gens"]) if "span_gens" in c else None,
                span_kmax2, kernel_kmax2, pres)


def _unique(section: str, records) -> dict:
    """The records of one catalog section by their label, the first field;
    a label that repeats is a CatalogError."""
    out = {}
    for rec in records:
        if rec[0] in out:
            raise CatalogError(f"duplicate {section} {rec[0]}")
        out[rec[0]] = rec
    return out


class Catalog:
    def __init__(self, raw: dict):
        groups = raw.get("groups", [])
        self.groups: dict[str, GroupSpec] = _unique("group", (
            GroupSpec(g["label"], g["kind"], g["level"], tuple(g.get("H", []))) for g in groups))
        self.dims: dict[str, tuple] = {g["label"]: tuple(g["dim"]) for g in groups if "dim" in g}
        self.forms: dict[str, FormEntry] = _unique("form", (
            FormEntry(f["name"], f["w2"], f["L"], f.get("group"), f["expr"])
            for f in raw.get("forms", [])))
        self.identities: dict[str, Identity] = _unique("identity", (
            Identity(i["name"], i["group"], i["L"], i["w2"], i["expr"], i.get("note"))
            for i in raw.get("identities", [])))
        self.cases: dict[str, Case] = _unique("case", map(_case, raw.get("cases", [])))
        self._exprs = {name: e.expr for name, e in self.forms.items()}
        self._evaluators: dict[int, Evaluator] = {}
        self._atom_w2: dict[str, int] = {}  # atom name -> its doubled weight, once computed
        # E2 and the forms below which it lies, found as their weights are computed
        self._quasi = {"E2"} - self._exprs.keys()  # a form's name shadows a constructor's
        self._relation_terms: dict[tuple[str, str], dict] = {}  # (case label, poly) -> terms
        self._validate()

    # -- lookups ----------------------------------------------------------

    def group(self, label: str) -> GroupSpec:
        if label not in self.groups:
            raise OutOfTable(f"unknown group {label!r}")
        return self.groups[label]

    def group_by_key(self, kind: str, level: int, H=()) -> GroupSpec:
        """The group of this kind and level whose H generates the same
        subgroup mod the level as the given H does."""
        for g in self.groups.values():
            if (g.kind, g.level) == (kind, level) and _subgroup(level, g.H) == _subgroup(level, H):
                return g
        raise OutOfTable(f"no group {kind}:{level}:{list(H)}")

    def dim2(self, label: str, j2: int) -> int:
        """Dimension at doubled weight j2 on a group; 1 at weight 0, where
        the forms are the constants, on every group."""
        if j2 == 0:
            return 1
        if label not in self.dims:
            raise OutOfTable(f"no dimension table for group {label!r}")
        return eval_dim_branches(self.dims[label], j2)

    def sturm2(self, group_label: str, w2: int) -> int:
        return sturm_bound2(self.group(group_label), w2)

    def case_gens(self, case: Case, presentation: bool = False) -> tuple[SpanGen, ...]:
        if presentation:
            pres = case.presentation
            if pres is None:
                raise CatalogError(f"case {case.label} has no presentation")
            gens = pres.gens
            if pres.base is not None:
                base = self.cases[pres.base].presentation
                gens = tuple(base.gens) + gens
            return gens
        if case.span_gens is None:
            raise CatalogError(f"case {case.label} has no span generators")
        return case.span_gens

    def evaluator(self, L: int) -> Evaluator:
        """The one Evaluator, and so the one series cache, of conductor L."""
        if L not in self._evaluators:
            self._evaluators[L] = Evaluator(cyclo_context(L), self._exprs)
        return self._evaluators[L]

    def lookup_form(self, name: str, prec: int) -> QSeries:
        """Resolve a catalog form name or prefix expression to a q-expansion.

        The field is the lcm of the conductors of the forms the expression
        names, of the root-of-unity orders of its constructors and of the
        roots of unity its scale literals name.  A precision past the
        coordinate ceiling is refused before anything is evaluated.
        """
        ast = parse_expr(name)
        L = lcm(*(self.forms[a].L if a in self.forms else constructor(a).order()
                  for a in atoms(ast)), *root_orders(ast))
        if L > MAX_CONDUCTOR:
            raise CatalogError(f"field conductor {L} exceeds {MAX_CONDUCTOR} in {name!r}")
        require_coordinates(L, prec)
        return self.evaluator(L).series(ast, prec)

    def relation_terms(self, case: Case, rel: Relation) -> dict:
        """The relation as {exponent vector: CycloNum}, over the presentation
        generators (the base ring's first) and then the aux series; parsed
        once per case and polynomial.  Callers must not mutate it."""
        key = (case.label, rel.poly)
        terms = self._relation_terms.get(key)
        if terms is None:
            names = [g.name for g in self.case_gens(case, presentation=True)
                     + case.presentation.aux]
            terms = self._relation_terms[key] = parse_poly(rel.poly, names, cyclo_context(case.L))
        return terms

    # -- validation -------------------------------------------------------

    def weight2(self, ast, stack: tuple = ()) -> int:
        """Doubled weight of a parsed expression; atoms resolve as the Evaluator resolves them."""
        op = ast[0]
        if op == "atom":
            name = ast[1]
            if name in stack:
                raise CatalogError(f"cyclic definition through {name!r}")
            w2 = self._atom_w2.get(name)
            if w2 is None:  # an atom that raised is not stored, so it raises again
                got = resolve(name, self._exprs)
                w2 = (self.weight2(parse_expr(got), stack + (name,)) if isinstance(got, str)
                      else got.w2)
                self._atom_w2[name] = w2
            if name in self._quasi:  # so it lies below every form whose weight is in progress
                self._quasi.update(stack)
            return w2
        if op in ("add", "mul"):
            weights = [self.weight2(a, stack) for a in ast[1]]
            if op == "add":
                if len(set(weights)) != 1:
                    raise CatalogError(f"inhomogeneous sum: weights {weights}")
                return weights[0]
            return sum(weights)
        if op == "sub":
            w1 = self.weight2(ast[1], stack)
            w2 = self.weight2(ast[2], stack)
            if w1 != w2:
                raise CatalogError(f"inhomogeneous difference: {w1} vs {w2}")
            return w1
        if op == "pow":
            return self.weight2(ast[1], stack) * ast[2]
        return self.weight2(ast[-1], stack)  # conj, scale, v and low keep the weight

    def _check_w2(self, where: str, declared: int, expr: str, modular: bool = False):
        ast = parse_expr(expr)
        try:
            got = self.weight2(ast)
        except UnknownForm as exc:
            raise CatalogError(f"{where}: {exc}") from exc
        if modular and self._quasi & atoms(ast):  # weight2 has resolved each of its atoms
            raise QuasiModularUse(f"{where}: E2 is quasi-modular and cannot be a form member")
        if got != declared:
            raise CatalogError(f"{where}: declared w2={declared}, computed {got}")

    def _validate(self):
        for name, entry in self.forms.items():
            if entry.group is not None and entry.group not in self.groups:
                raise CatalogError(f"form {name}: unknown group {entry.group}")
            self._check_w2(f"form {name}", entry.w2, entry.expr)
        for ident in self.identities.values():
            if ident.group not in self.groups:
                raise CatalogError(f"identity {ident.name}: unknown group {ident.group}")
            self._check_w2(f"identity {ident.name}", ident.w2, ident.expr)
        for case in self.cases.values():
            if case.group not in self.groups:
                raise CatalogError(f"case {case.label}: unknown group {case.group}")
            pres = case.presentation
            if pres is not None and pres.base is not None and pres.base not in self.cases:
                raise CatalogError(f"case {case.label}: unknown base {pres.base}")
            pres_gens = self.case_gens(case, presentation=True) + pres.aux if pres else ()
            for gen in (case.span_gens or ()) + pres_gens:
                self._check_w2(f"case {case.label} gen {gen.name}", gen.w2, gen.expr,
                               modular=True)
            if pres is None:
                continue
            for rel in pres.relations:
                # by position: a name may be both a base generator and an aux series
                for exps in self.relation_terms(case, rel):
                    w = sum(e * g.w2 for e, g in zip(exps, pres_gens))
                    if w != rel.w2:
                        raise CatalogError(
                            f"relation {rel.name}: term of weight {w}, declared {rel.w2}"
                        )
            if pres.hilbert_den is not None:
                gen_w = sorted(g.w2 for g in self.case_gens(case, presentation=True))
                if sorted(pres.hilbert_den) != gen_w:
                    raise CatalogError(
                        f"case {case.label}: Hilbert denominator {sorted(pres.hilbert_den)} "
                        f"vs generator weights {gen_w}"
                    )


def load_catalog(path: str | None = None) -> Catalog:
    """Read and validate a catalog; every defect of the file is a CatalogError.

    The built-in catalog is read once per process; a file given by `path`
    is read again on every call, so a rewritten file is never served stale.
    """
    return _builtin_catalog() if path is None else _read_catalog(path)


@lru_cache(maxsize=None)
def _builtin_catalog() -> Catalog:
    return _read_catalog(None)


def _read_catalog(path: str | None) -> Catalog:
    where = "built-in catalog" if path is None else repr(path)
    try:
        # the package data by path: importlib.resources costs more to import than this module
        if path is None:
            path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable file, bad encoding or bad JSON
        raise CatalogError(f"cannot read {where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CatalogError(f"{where}: top level must be a JSON object")
    try:
        return Catalog(raw)
    except KeyError as exc:
        raise CatalogError(f"{where}: an entry lacks the key {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise CatalogError(f"{where}: malformed entry: {exc}") from exc
