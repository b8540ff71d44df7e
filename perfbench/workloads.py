"""Seeded op lists for the three workloads.

Each generator takes the seed (and, for ``verify_all``, the loaded catalog)
and returns a list of ``Op`` values.  The seed decides which inputs are drawn
and in what order; the program only ever sees the generated inputs.

The draws are stratified so that the total work of an op list barely moves
from one seed to the next: end-to-end timings are compared across seeds, so
a seed that happened to draw every expensive input would look like a
regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import CHARACTER_DEFS, character_table, conductor

WORKLOADS = ("verify_all", "qexp_forms", "qexp_constructors")

# verify_all: the checks ``full_report`` runs, in its selection order
CHECK_FUNCS = {
    "identity": "verify_identity",
    "span": "verify_span",
    "relation": "verify_relations",
    "kernel": "verify_kernel",
    "hilbert": "verify_hilbert",
    "integrality": "verify_integrality",
}

# qexp_forms: every catalog form appears once near each of these precisions.
# The four L=10 forms cost about 7 s each at prec 120, so the ladder stops
# near 60 to keep one pass near 8 s on a 2-vCPU machine.  Their cost grows
# like prec^2.3, so a narrow jitter keeps the work of a pass nearly equal
# across seeds.
FORM_PRECS = (36, 60)
FORM_JITTER = 1

# qexp_constructors: precision range and draws per stratum.  A stratum groups
# expressions of one family and similar field degree, which cost about the
# same; each seed draws a fixed number from each and spreads their
# precisions evenly over the range.
CTOR_PREC = (200, 600)
CTOR_QUOTA = {
    ("E", "low"): 8,
    ("C", "low"): 12,
    ("theta", "low"): 1,
    ("bqf", "low"): 80,
    ("f", "low"): 15,
    ("f", "mid"): 6,
    ("f", "high"): 3,
    ("g", "low"): 12,
    ("g", "mid"): 4,
    ("g", "high"): 2,
    ("g2", "low"): 18,
    ("g2", "mid"): 14,
    ("g2", "high"): 9,
}
CTOR_MAX_L = 12  # larger conductors cost 2-30x more per coefficient


@dataclass(frozen=True)
class Op:
    kind: str  # a check name for verify_all, "qexp" otherwise
    name: str  # case, identity or form label, or the series expression
    prec: int = 0

    @property
    def key(self) -> str:
        return f"{self.name}|{self.kind}" if self.kind != "qexp" else f"{self.name}@{self.prec}"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def verify_ops(catalog, integrality_forms, seed: int) -> list[Op]:
    """Every check ``full_report`` runs at catalog defaults, in a seeded order."""
    ops = [Op("identity", n) for n in sorted(catalog.identities)]
    for label in sorted(catalog.cases):
        case = catalog.cases[label]
        pres = case.presentation
        if case.span_gens is not None:
            ops.append(Op("span", label))
        if pres is not None and (pres.relations or pres.relations_unknown):
            ops.append(Op("relation", label))
        if pres is not None and case.kernel_kmax2:
            ops.append(Op("kernel", label))
        if pres is not None and pres.hilbert_num is not None:
            ops.append(Op("hilbert", label))
    ops += [Op("integrality", n) for n in integrality_forms]
    rng_for("verify_all", seed).shuffle(ops)
    return ops


def _spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of [lo, hi], shuffled."""
    cuts = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    out = [rng.randrange(a, b) for a, b in zip(cuts, cuts[1:])]
    rng.shuffle(out)
    return out


def form_ops(form_names, seed: int) -> list[Op]:
    """Each catalog form once near each ladder precision, shuffled."""
    rng = rng_for("qexp_forms", seed)
    ops = [Op("qexp", name, p + rng.randint(-FORM_JITTER, FORM_JITTER))
           for name in sorted(form_names) for p in FORM_PRECS]
    rng.shuffle(ops)
    return ops


def _parity(name: str) -> int:
    return character_table(name).parity


def constructor_universe() -> dict[tuple[str, str], list[str]]:
    """Valid constructor expressions with conductor <= CTOR_MAX_L, by stratum."""
    names = sorted(CHARACTER_DEFS)
    entries: list[tuple[str, str, tuple[str, ...]]] = []
    entries += [("E", f"E{k}", ()) for k in range(2, 31, 2)]
    entries += [("C", f"C{N}", ()) for N in range(2, 26)]
    entries.append(("theta", "theta", ()))
    entries += [
        ("bqf", f"bqf[{a},{b},{c}]", ())
        for a in range(1, 5) for b in range(0, 4) for c in range(a, 8)
        if 4 * a * c - b * b > 0
    ]
    for k in range(1, 7):
        entries += [("f", f"f[{k};{x}]", (x,)) for x in names if _parity(x) == (-1) ** k]
    for k in range(2, 7):
        entries += [("g", f"g[{k};{x}]", (x,)) for x in names if _parity(x) == (-1) ** k]
    for k in range(1, 4):
        entries += [
            ("g2", f"g[{k};{x},{y}]", (x, y))
            for x in names for y in names
            if _parity(x) * _parity(y) == (-1) ** k
        ]
    out: dict[tuple[str, str], list[str]] = {}
    for family, expr, chars in entries:
        L = conductor(chars)
        if L > CTOR_MAX_L:
            continue
        band = "low" if L <= 2 else ("mid" if L <= 6 else "high")
        out.setdefault((family, band), []).append(expr)
    return out


def constructor_ops(seed: int) -> list[Op]:
    """Distinct constructor expressions, stratified draws, precisions spread evenly."""
    rng = rng_for("qexp_constructors", seed)
    universe = constructor_universe()
    lo, hi = CTOR_PREC
    ops: list[Op] = []
    for stratum, quota in CTOR_QUOTA.items():
        picked = rng.sample(universe[stratum], quota)
        ops += [Op("qexp", expr, p) for expr, p in zip(picked, _spread(rng, quota, lo, hi))]
    rng.shuffle(ops)
    return ops
