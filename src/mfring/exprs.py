"""Expression languages for the catalog.

Two small languages live here:

* prefix series expressions, e.g. ``(scale 1/1728 (sub (pow E4 3) (pow E6 2)))``
  with operators add/sub/mul/pow/scale/v/low/conj and atoms that are catalog
  form names or constructor calls (``E4``, ``C2``, ``f[1;rho3]``,
  ``g[1;rho5,chi5]``, ``theta``, ``bqf[1,1,6]``);

* infix polynomials with cyclotomic scalar coefficients, e.g.
  ``(2+4*z10^4+z10)*(x*y - z^2)``, used for ring relations and for scalar
  literals (a scalar is a polynomial in no variables).
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm
from typing import Callable, NamedTuple

from .characters import DirichletCharacter, named_character
from .constructors import (
    eis_f,
    eis_g,
    eis_g2,
    eisenstein_c,
    eisenstein_e,
    theta_bqf,
    theta_series,
)
from .cyclo import CycloNum, FieldCtx, power, root_of_unity
from .errors import CatalogError, UnknownForm
from .qseries import QSeries

# ---------------------------------------------------------------------------
# prefix series expressions

# atoms may carry bracketed segments with parentheses inside, e.g. f[1;pow(chi11,3)]
_SEXPR_TOKEN = re.compile(r"\(|\)|(?:[^\s()\[\]]+|\[[^\]]*\])+")


@lru_cache(maxsize=None)
def parse_expr(text: str):
    """Parse a prefix expression into a nested-tuple AST, once per text."""
    tokens = _SEXPR_TOKEN.findall(text)
    pos = 0

    def walk():
        nonlocal pos
        if pos >= len(tokens):
            raise CatalogError(f"unexpected end of expression: {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise CatalogError(f"unbalanced ')' in {text!r}")
        if tok != "(":
            return ("atom", tok)
        op = tokens[pos]
        pos += 1
        args: list = []
        if op in ("add", "mul"):
            while tokens[pos] != ")":
                args.append(walk())
            if len(args) < 2:
                raise CatalogError(f"{op} needs at least two operands in {text!r}")
            node = (op, tuple(args))
        elif op == "sub":
            node = ("sub", walk(), walk())
        elif op == "conj":
            node = ("conj", walk())
        elif op == "pow":
            base = walk()
            k = int(tokens[pos])
            pos += 1
            if k < 0:
                raise CatalogError(f"negative power in {text!r}")
            node = ("pow", base, k)
        elif op in ("v", "low"):
            h = int(tokens[pos])
            pos += 1
            least = 1 if op == "v" else 2  # (low 1 f) would be (f - f)/a = 0
            if h < least:
                raise CatalogError(f"{op} needs h >= {least} in {text!r}")
            node = (op, h, walk())
        elif op == "scale":
            scalar = tokens[pos]
            if scalar == "(":
                raise CatalogError(f"a scale literal cannot contain parentheses in {text!r}")
            pos += 1
            node = ("scale", scalar, walk())
        else:
            raise CatalogError(f"unknown operator {op!r} in {text!r}")
        if tokens[pos] != ")":
            raise CatalogError(f"missing ')' after {op} in {text!r}")
        pos += 1
        return node

    try:
        ast = walk()
    except IndexError:
        raise CatalogError(f"unexpected end of expression: {text!r}") from None
    except ValueError:  # only int() of an exponent or an h raises it
        raise CatalogError(f"expected an integer in {text!r}") from None
    if pos != len(tokens):
        raise CatalogError(f"trailing tokens in {text!r}")
    return ast


# ---------------------------------------------------------------------------
# infix polynomials / scalars

_POLY_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|/|\+|-|\(|\)")


class _Poly:
    """Polynomial in a fixed variable list with CycloNum coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def const(cls, nvars: int, c: CycloNum) -> "_Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int, ctx: FieldCtx) -> "_Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): ctx.one})

    def __add__(self, o):
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out[e] + c if e in out else c
        return _Poly(self.nvars, out)

    def __sub__(self, o):
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out[e] - c if e in out else -c
        return _Poly(self.nvars, out)

    def __neg__(self):
        return _Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, o):
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return _Poly(self.nvars, out)

    def constant_value(self) -> CycloNum | None:
        zero_exp = (0,) * self.nvars
        if all(e == zero_exp for e in self.terms):
            return self.terms.get(zero_exp)
        return None


# the largest scalar power a literal may build; a 2^16-bit integer prints in milliseconds
SCALAR_POWER_BITS = 1 << 16

# the largest weight of E<k>, f[k;chi] and g[k;chi]; coefficients grow like n^(k-1),
# and inverting B_(k,chi) grows with k (the largest part of f[199;chi23])
MAX_CONSTRUCTOR_WEIGHT = 200


def _power_bits(c: CycloNum, k: int) -> int:
    """An estimate of the bits of c^k, from the common denominator of c and
    the sum of its absolute coordinates over it (0 for a root of unity)."""
    num = sum(map(abs, c.nums))
    return k * (max(num, c.den) - 1).bit_length()


def parse_poly(text: str, var_names, ctx: FieldCtx) -> dict:
    """Parse an infix polynomial; returns {exponent-vector: CycloNum}."""
    names = list(var_names)
    nvars = len(names)
    tokens = _POLY_TOKEN.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise CatalogError(f"unrecognized characters in {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise CatalogError(f"unexpected end of {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum():
        if peek() == "-":
            take()
            acc = -parse_term()
        else:
            if peek() == "+":
                take()
            acc = parse_term()
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term():
        acc = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            f = parse_factor()
            if op == "*":
                acc = acc * f
            else:
                c = f.constant_value()
                if c is None or c.is_zero():
                    raise CatalogError(f"division only by nonzero scalars in {text!r}")
                acc = acc * _Poly.const(nvars, c.invert())
        return acc

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            tok = take()
            if not tok.isdigit():
                raise CatalogError(f"exponent must be an integer in {text!r}")
            k = int(tok)
            c = base.constant_value()
            if c is not None and _power_bits(c, k) > SCALAR_POWER_BITS:
                raise CatalogError(f"power ^{tok} exceeds {SCALAR_POWER_BITS} bits in {text!r}")
            if neg:
                if c is None or c.is_zero():
                    raise CatalogError(f"negative power of non-scalar in {text!r}")
                return _Poly.const(nvars, c.invert() ** k)
            return power(base, k, _Poly.const(nvars, ctx.one))
        return base

    def parse_atom():
        tok = peek()
        if tok is None:
            raise CatalogError(f"unexpected end of {text!r}")
        if tok == "(":
            take()
            inner = parse_sum()
            if take() != ")":
                raise CatalogError(f"missing ')' in {text!r}")
            return inner
        take()
        if tok.isdigit():
            return _Poly.const(nvars, ctx.from_rational(int(tok)))
        if tok in names:
            return _Poly.var(nvars, names.index(tok), ctx)
        m = re.fullmatch(r"z(\d+)", tok)
        if m:
            if not int(m.group(1)):
                raise CatalogError(f"root of unity {tok!r} of order 0 in {text!r}")
            return _Poly.const(nvars, root_of_unity(ctx, 1, int(m.group(1))))
        raise CatalogError(f"unknown symbol {tok!r} in {text!r}")

    result = parse_sum()
    if pos != len(tokens):
        raise CatalogError(f"trailing tokens in {text!r}")
    return result.terms


def parse_scalar(text: str, ctx: FieldCtx) -> CycloNum:
    """Evaluate a scalar literal such as '1/1728', 'z4/2' or '-4*z10^4+5*z10^3+z10'."""
    terms = parse_poly(text, [], ctx)
    return terms.get((), ctx.zero)


# ---------------------------------------------------------------------------
# character expressions inside constructor atoms

@lru_cache(maxsize=None)
def parse_character(text: str) -> DirichletCharacter:
    """name | conj(c) | pow(c,k) | mul(c,c), composed freely; once per text."""
    text = text.strip()
    m = re.fullmatch(r"(conj|pow|mul)\((.*)\)", text)
    if not m:
        return named_character(text)
    op, args = m.group(1), _split_top_level(m.group(2))
    if len(args) != (1 if op == "conj" else 2) or (
            op == "pow" and not re.fullmatch(r"\s*-?\d+\s*", args[1])):
        raise CatalogError(f"malformed character expression {text!r}")
    if op == "conj":
        (a,) = args
        return parse_character(a).conj()
    if op == "pow":
        a, k = args
        return parse_character(a) ** int(k)
    a, b = (parse_character(x) for x in args)
    m = lcm(a.modulus, b.modulus)
    return a.lift(m) * b.lift(m)


# ---------------------------------------------------------------------------
# constructor atoms and atom resolution

_CONSTRUCTOR = re.compile(
    r"E(?P<E>\d+)|C(?P<C>\d+)|f\[(?P<f>\d+);(?P<fchars>.+)\]"
    r"|g\[(?P<g>\d+);(?P<gchars>.+)\]|theta|bqf\[(?P<bqf>-?\d+,-?\d+,-?\d+)\]"
)


def _split_top_level(text: str) -> list[str]:
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return args


class Constructor(NamedTuple):
    """A parsed constructor atom.

    Its character texts are parsed only when its field order or its series
    is asked for, so weight checks never build character tables.
    """

    w2: int  # doubled weight
    chars: tuple[str, ...]  # character expressions
    build: Callable  # (*characters, prec, ctx) -> QSeries

    def order(self) -> int:
        """The root-of-unity order its coefficients need; parity values need -1."""
        if not self.chars:
            return 1
        return lcm(2, *(parse_character(c).order() for c in self.chars))

    def series(self, prec: int, ctx: FieldCtx) -> QSeries:
        return self.build(*map(parse_character, self.chars), prec, ctx)


@lru_cache(maxsize=None)
def constructor(name: str) -> Constructor:
    """Parse E<k>, C<N>, f[k;chi], g[k;chi], g[k;chi,psi], theta or bqf[a,b,c],
    once per name.

    The builders look the constructor functions up when they run.
    """
    m = _CONSTRUCTOR.fullmatch(name)
    if m is None:
        raise UnknownForm(f"cannot resolve {name!r}")
    k = int(m["E"] or m["f"] or m["g"] or 0)
    if k > MAX_CONSTRUCTOR_WEIGHT:
        raise CatalogError(f"weight {k} exceeds {MAX_CONSTRUCTOR_WEIGHT} in {name!r}")
    if m["E"]:
        return Constructor(2 * k, (), lambda *a: eisenstein_e(k, *a))
    if m["C"]:
        N = int(m["C"])
        return Constructor(4, (), lambda *a: eisenstein_c(N, *a))
    if m["f"]:
        return Constructor(2 * k, (m["fchars"],), lambda *a: eis_f(k, *a))
    if m["g"]:
        chars = tuple(_split_top_level(m["gchars"]))
        if len(chars) > 2:
            raise CatalogError(f"too many characters in {name!r}")
        return Constructor(2 * k, chars, lambda *a: (eis_g if len(chars) == 1 else eis_g2)(k, *a))
    if m["bqf"]:
        a, b, c = (int(x) for x in m["bqf"].split(","))
        # two-variable lattice sums have weight 1, the one-variable theta weight 1/2
        return Constructor(2, (), lambda *rest: theta_bqf(a, b, c, *rest))
    return Constructor(1, (), lambda *a: theta_series(*a))


def _children(ast) -> list:
    return ast[1] if ast[0] in ("add", "mul") else [x for x in ast[1:] if isinstance(x, tuple)]


def atoms(ast) -> set[str]:
    """The atom names a parsed expression mentions."""
    if ast[0] == "atom":
        return {ast[1]}
    return set().union(*map(atoms, _children(ast)))


def root_orders(ast) -> set[int]:
    """The orders n >= 1 of the roots of unity z<n> its scale literals name."""
    own = set()
    if ast[0] == "scale":
        for tok in _POLY_TOKEN.findall(ast[1]):
            m = re.fullmatch(r"z(\d+)", tok)
            if m and int(m[1]):
                own.add(int(m[1]))
    return own.union(*map(root_orders, _children(ast)))


def resolve(name: str, forms: dict) -> str | Constructor:
    """What an atom names: the expression of its catalog form, else the
    constructor it spells.

    Evaluation and the catalog's weight check both resolve atoms here, so a
    series and its checked weight come from one definition.
    """
    text = forms.get(name)
    return text if text is not None else constructor(name)


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Evaluates series expressions of one field at a requested precision,
    computing each distinct subexpression once.

    An atom resolves (see ``resolve``) to a catalog form, else to constructor
    syntax, so it names one series; so does every other AST node.  The cache
    holds one series per atom name and per distinct node, at the largest
    precision asked, and answers a lower precision by truncation, so a term
    shared within a form or across forms is built once.  Callers may keep
    other series there under keys of their own (``cached``).  Each scale
    literal is parsed once into the field.  Series are immutable, so sharing
    them cannot change a result.
    """

    def __init__(self, ctx: FieldCtx, forms: dict):
        self.ctx = ctx
        self.forms = forms  # catalog form name -> expression text
        self._cache: dict = {}  # atom name or AST node -> QSeries
        self._scalars: dict[str, CycloNum] = {}  # scale literal -> its value in ctx

    def series(self, expr, prec: int) -> QSeries:
        """Evaluate a parsed AST or source string to exactly `prec` coefficients."""
        if isinstance(expr, str):
            expr = parse_expr(expr)
        got = self._eval(expr, prec)
        return got.truncate(prec) if got.prec > prec else got

    def cached(self, key, prec: int, build):
        """The series stored under key, truncated to prec, if it has at least
        prec coefficients; else build(prec), which replaces it."""
        hit = self._cache.get(key)
        if hit is not None and hit.prec >= prec:
            return hit.truncate(prec) if hit.prec > prec else hit
        val = build(prec)
        self._cache[key] = val
        return val

    def _eval(self, ast, prec: int) -> QSeries:
        if ast[0] == "atom":
            return self.cached(ast[1], prec, lambda p: self._atom(ast[1], p))
        return self.cached(ast, prec, lambda p: self._node(ast, p))

    def _node(self, ast, prec: int) -> QSeries:
        op = ast[0]
        if op == "add":
            out = self._eval(ast[1][0], prec)
            for sub in ast[1][1:]:
                out = out + self._eval(sub, prec)
            return out
        if op == "mul":
            out = self._eval(ast[1][0], prec)
            for sub in ast[1][1:]:
                out = out * self._eval(sub, prec)
            return out
        if op == "sub":
            return self._eval(ast[1], prec) - self._eval(ast[2], prec)
        if op == "pow":
            return self._eval(ast[1], prec) ** ast[2]
        if op == "conj":
            return self._eval(ast[1], prec).conj()
        if op == "scale":
            return self._eval(ast[2], prec).scale(self._scalar(ast[1]))
        if op == "v":
            h = ast[1]
            child_prec = (prec - 2) // h + 2 if h > 1 else prec
            return self._eval(ast[2], child_prec).v_operator(h, prec)
        if op == "low":  # the child's q coefficient is read at every prec, 1 included
            return self._eval(ast[2], max(prec, 2)).lowered(ast[1]).truncate(prec)
        raise CatalogError(f"unknown AST node {op!r}")

    def _scalar(self, text: str) -> CycloNum:
        c = self._scalars.get(text)
        if c is None:
            c = self._scalars[text] = parse_scalar(text, self.ctx)
        return c

    def _atom(self, name: str, prec: int) -> QSeries:
        got = resolve(name, self.forms)
        return self.series(got, prec) if isinstance(got, str) else got.series(prec, self.ctx)
