"""Seeded inputs for the four workloads.

Everything here is plain data built from the workload seed: expression
texts, interval unions, target breakpoints and CLI argument lists.  The
program under test receives only these inputs.

Expressions are drawn as small trees and kept only when their max-min
expansion has a chosen number of distinct difference hyperplanes.  That
count is computed here, from the tree, without calling the program, so a
change to the program's normal form or fan code cannot change which
expressions a seed selects.  Arrangement size is what fan construction
and the norm LP scale with, so fixing it per slot keeps the work of a
round nearly the same from seed to seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BADLY_SCALED_FILE = HERE / "badly_scaled.txt"
NAMES = ("a", "b", "c", "e")

# (stratum, generators, hyperplanes, cells for n = 3, space): the float norm
# slots.  Cell counts are the most common ones for their plane count.
NORM_FLOAT_SLOTS = (
    [("l1-n2", 2, h, None, "l1") for h in (3, 6, 10, 15, 20)]
    + [("l1-n3", 3, h, c, "l1") for h, c in ((3, 6), (6, 24), (9, 48), (12, 84))]
    + [("l1-n4", 4, h, None, "l1") for h in (3, 6, 8)]
    + [("linf-n2", 2, 6, None, "linf"), ("linf-n3", 3, 3, 6, "linf"),
       ("linf-n3", 3, 6, 24, "linf")]
)
# Rational slots (exact=True, scalars k/8).
NORM_EXACT_SLOTS = (("exact-n2", 2, 1, None), ("exact-n2", 2, 4, None), ("exact-n3", 3, 3, 6))
# (generators, hyperplanes, max-min groups) for the oracle and lemma34 slots.
# One oracle evaluation costs a numpy call per group, so the group count
# is fixed too.  Two functionals give one hyperplane and three give three,
# so a count of two never occurs.
ORACLE_BUDGET = 20000  # as acceptance criterion 2; at 10000, 1 bound in 180 misses by > 1e-3
ORACLE_SLOTS = ((1, 0, 1), (1, 1, 2), (2, 1, 2), (2, 4, 3), (3, 1, 2), (3, 4, 4))
LEMMA34_BUDGET = 2000
LEMMA34_SLOTS = ((1, 1, 2), (2, 1, 2), (2, 3, 2), (3, 3, 3))
MAX_SIZE = 400  # bound on the max-min size, far below the program's cap


# ---------------------------------------------------------------------------
# expression trees: ("gen", name) | ("scale", c, t) | ("sum"|"join"|"meet", l, r)
# | ("abs", t)


def to_text(t) -> str:
    """Fully parenthesised concrete syntax accepted by fblab's parser."""
    kind = t[0]
    if kind == "gen":
        return f"d({t[1]})"
    if kind == "scale":
        return f"{t[1]!r}*({to_text(t[2])})"
    if kind == "abs":
        return f"|{to_text(t[1])}|"
    op = {"sum": "+", "join": "v", "meet": "^"}[kind]
    return f"({to_text(t[1])}) {op} ({to_text(t[2])})"


def _functionals(t, gens):
    """The set of linear functionals of the tree's max-min expansion.

    Scaling scales the set, a sum is the Minkowski sum, join, meet and
    absolute value take unions.  The arithmetic matches fblab's expansion
    operation for operation, so the floats agree.
    """
    kind = t[0]
    if kind == "gen":
        return {tuple(1.0 if g == t[1] else 0.0 for g in gens)}
    if kind == "scale":
        c = t[1]
        if c == 0:
            return {tuple(0.0 for _ in gens)}
        return {tuple(c * x for x in f) for f in _functionals(t[2], gens)}
    if kind == "abs":
        inner = _functionals(t[1], gens)
        return inner | {tuple(-1.0 * x for x in f) for f in inner}
    left, right = _functionals(t[1], gens), _functionals(t[2], gens)
    if kind == "sum":
        return {tuple(a + b for a, b in zip(fa, fb)) for fa in left for fb in right}
    return left | right


def maxmin_groups(t, gens) -> set:
    """The groups of the tree's max-min form, each a frozenset of functionals.

    The same expansion rules as fblab's to_maxmin, which also drops repeated
    functionals within a group and repeated groups, so the counts agree.
    """
    kind = t[0]
    if kind == "gen":
        return {frozenset(_functionals(t, gens))}
    if kind == "abs":
        return maxmin_groups(("join", t[1], ("scale", -1.0, t[1])), gens)
    if kind == "scale":
        c = t[1]
        if c == 0:
            return {frozenset({tuple(0.0 for _ in gens)})}
        child = maxmin_groups(t[2], gens)
        if c > 0:
            return {frozenset(tuple(c * x for x in f) for f in g) for g in child}
        return {frozenset(tuple(c * x for x in f) for f in choice)
                for choice in itertools.product(*child)}
    left, right = maxmin_groups(t[1], gens), maxmin_groups(t[2], gens)
    if kind == "join":
        return left | right
    if kind == "sum":
        return {frozenset(tuple(a + b for a, b in zip(fa, fb)) for fa in ga for fb in gb)
                for ga in left for gb in right}
    return {ga | gb for ga in left for gb in right}


def _group_sizes(t, limit):
    """Upper bound on the group sizes of the max-min form, or None past limit."""
    kind = t[0]
    if kind == "gen":
        return [1]
    if kind == "abs":
        return _group_sizes(("join", t[1], ("scale", -1.0, t[1])), limit)
    if kind == "scale":
        if t[1] == 0:
            return [1]
        child = _group_sizes(t[2], limit)
        if child is None or t[1] > 0:
            return child
        count = math.prod(child)
        if count * len(child) > limit:
            return None
        return [len(child)] * count
    left, right = _group_sizes(t[1], limit), _group_sizes(t[2], limit)
    if left is None or right is None:
        return None
    if kind == "join":
        out = left + right
    elif kind == "sum":
        out = [a * b for a in left for b in right]
    else:
        out = [a + b for a in left for b in right]
    return out if sum(out) <= limit else None


def hyperplane_normals(t, gens) -> list:
    """Distinct hyperplanes spanned by pairwise functional differences.

    Normals are scaled so their first nonzero coefficient is 1 and compared
    after rounding to 12 digits, which is how fblab deduplicates them.
    """
    fs = list(_functionals(t, gens))
    normals = {}
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            d = [a - b for a, b in zip(fs[i], fs[j])]
            lead = next((x for x in d if x != 0), None)
            if lead is not None:
                normals.setdefault(tuple(round(x / lead, 12) + 0.0 for x in d),
                                   np.array([x / lead for x in d]))
    return list(normals.values())


def cell_count_3d(normals) -> int:
    """Full-dimensional cells of a central arrangement of planes in R^3.

    On the unit sphere each common line L of m_L >= 2 planes is a pair of
    vertices of degree 2 m_L, so Euler's formula gives 2 + 2 sum (m_L - 1).
    """
    if len(normals) < 2:
        return 2 * len(normals) or 1
    lines = {}
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            c = np.cross(normals[i], normals[j])
            c = c / np.linalg.norm(c)
            if next(x for x in c if abs(x) > 1e-9) < 0:
                c = -c
            lines.setdefault(tuple(np.round(c, 9) + 0.0), c)
    return 2 + 2 * sum(
        sum(abs(np.dot(v, c)) <= 1e-9 * np.linalg.norm(v) for v in normals) - 1
        for c in lines.values())


def _support(t) -> set:
    if t[0] == "gen":
        return {t[1]}
    if t[0] == "scale":
        return _support(t[2])
    if t[0] == "abs":
        return _support(t[1])
    return _support(t[1]) | _support(t[2])


def _decimal_scalar(rng) -> float:
    c = round(float(rng.uniform(-2.5, 2.5)), 3)
    return c if c != 0.0 else 1.0


def _dyadic_scalar(rng) -> float:
    k = int(rng.integers(-16, 17))
    return float(Fraction(k if k else 8, 8))


def _draw_tree(rng, gens, depth, scalar):
    if depth <= 0 or rng.random() < 0.3:
        return ("gen", str(rng.choice(gens)))
    r = rng.random()
    if r < 0.25:
        return ("scale", scalar(rng), _draw_tree(rng, gens, depth - 1, scalar))
    if r < 0.85:
        kind = "sum" if r < 0.5 else "join" if r < 0.7 else "meet"
        return (kind, _draw_tree(rng, gens, depth - 1, scalar),
                _draw_tree(rng, gens, depth - 1, scalar))
    return ("abs", _draw_tree(rng, gens, depth - 1, scalar))


def draw_expression(rng, n, hyperplanes, cells=None, scalar=_decimal_scalar,
                    groups=None, tries=200_000):
    """A tree over exactly n generators with the given arrangement size.

    cells, for n = 3, also fixes the number of full-dimensional cells: the
    same count of planes can cut space into 24 or 88 cells, and fan
    construction costs follow the cells.  groups fixes the number of
    max-min groups.
    """
    gens = NAMES[:n]
    for _ in range(tries):
        if hyperplanes >= 10:
            # A join of two deeper trees reaches large arrangements about ten
            # times as often as a single tree, which keeps set-up time short.
            t = ("join", _draw_tree(rng, gens, 4, scalar), _draw_tree(rng, gens, 4, scalar))
        else:
            t = _draw_tree(rng, gens, int(rng.integers(2, 6)), scalar)
        if _support(t) != set(gens) or _group_sizes(t, MAX_SIZE) is None:
            continue
        normals = hyperplane_normals(t, gens)
        if (len(normals) == hyperplanes
                and (cells is None or cell_count_3d(normals) == cells)
                and (groups is None or len(maxmin_groups(t, gens)) == groups)):
            return t
    raise RuntimeError(f"no expression with n={n}, {hyperplanes} hyperplanes, "
                       f"{cells} cells, {groups} groups")


def linear_combination(rng, n):
    """sum_i lam_i d(g_i) and its norm sum_i |lam_i|."""
    lam = [_decimal_scalar(rng) for _ in range(n)]
    t = ("scale", lam[0], ("gen", NAMES[0]))
    for x, g in zip(lam[1:], NAMES[1:n]):
        t = ("sum", t, ("scale", x, ("gen", g)))
    return t, sum(abs(x) for x in lam)


# ---------------------------------------------------------------------------
# workload inputs


@dataclass(frozen=True)
class NormInput:
    stratum: str
    text: str
    space: str  # "l1" or "linf"
    exact: bool = False
    known: float | None = None  # the norm, where it is known in closed form


@dataclass(frozen=True)
class OracleInput:
    kind: str  # "oracle" or "lemma34"
    text: str
    seed: int
    budget: int
    gen: str | None = None


@dataclass(frozen=True)
class SectionInput:
    kind: str  # "section" or "hom_pair"
    K: tuple  # ((a, b), ...) Fractions, ascending, disjoint
    targets: tuple  # one or two breakpoint tuples ((point, value), ...)


@dataclass(frozen=True)
class CliCommand:
    kind: str  # "main" or "replay"
    argv: tuple


def read_badly_scaled():
    lines = BADLY_SCALED_FILE.read_text().splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]


def norm_inputs(seed: int):
    rng = np.random.default_rng([seed, 1])
    items = []
    for stratum, n, h, cells, space in NORM_FLOAT_SLOTS:
        items.append(NormInput(stratum, to_text(draw_expression(rng, n, h, cells)), space))
    for n in (1, 2, 3, 4) * 3:
        t, known = linear_combination(rng, n)
        items.append(NormInput("linear", to_text(t), "l1", known=known))
    for text in read_badly_scaled():
        items.append(NormInput("badly-scaled", text, "l1"))
    for stratum, n, h, cells in NORM_EXACT_SLOTS:
        t = draw_expression(rng, n, h, cells, scalar=_dyadic_scalar)
        items.append(NormInput(stratum, to_text(t), "l1", exact=True))
    return items


def oracle_inputs(seed: int):
    rng = np.random.default_rng([seed, 2])
    items = []
    for n, h, g in ORACLE_SLOTS:
        t = draw_expression(rng, n, h, groups=g)
        items.append(OracleInput("oracle", to_text(t), int(rng.integers(1 << 30)),
                                 ORACLE_BUDGET))
    for n, h, g in LEMMA34_SLOTS:
        t = draw_expression(rng, n, h, groups=g)
        gen = NAMES[int(rng.integers(0, n))]
        items.append(OracleInput("lemma34", to_text(t), int(rng.integers(1 << 30)),
                                 LEMMA34_BUDGET, gen))
    return items


def _grid_points(rng, K, count, denom=32):
    """count distinct grid points k/denom interior to K's proper intervals."""
    pool = [Fraction(k, denom) for k in range(1, denom)
            if any(a < Fraction(k, denom) < b for a, b in K)]
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(picks)]


def _target(rng, K, interior):
    pts = sorted({p for iv in K for p in iv} | set(_grid_points(rng, K, interior)))
    return tuple((p, Fraction(int(rng.integers(-8, 9)), 4)) for p in pts)


def _union(rng, parts):
    """parts disjoint intervals of [0, 1] on the 1/16 grid, gaps of distinct
    lengths of at least 2/16, so the slice table always has as many
    breakpoints (section_inputs)."""
    while True:
        cuts = sorted(rng.choice(np.arange(1, 16), size=2 * (parts - 1), replace=False))
        ends = [0] + [int(c) for c in cuts] + [16]
        pairs = list(zip(ends[0::2], ends[1::2]))
        gaps = [a2 - b1 for (_, b1), (a2, _) in zip(pairs, pairs[1:])]
        if min(gaps) >= 2 and len(set(gaps)) == len(gaps):
            return tuple((Fraction(a, 16), Fraction(b, 16)) for a, b in pairs)


INTERVAL = ((Fraction(0), Fraction(1)),)
TWO_POINTS = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
# Two crossing lines on [0, 1], and a generic pair on {0, 1}.
INTERVAL_PAIR = (((Fraction(0), Fraction(5, 4)), (Fraction(1), Fraction(-2))),
                 ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1))))
TWO_POINT_PAIR = (((Fraction(0), Fraction(3, 4)), (Fraction(1), Fraction(1, 4))),
                  ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(-1, 2))))


def section_inputs(seed: int):
    rng = np.random.default_rng([seed, 3])
    items = []
    for K, interior in ((INTERVAL, 1), (INTERVAL, 2), (TWO_POINTS, 0)):
        items.append(SectionInput("section", K, (_target(rng, K, interior),)))
    for parts in (2, 3):
        K = _union(rng, parts)
        for interior in (0, 1):
            items.append(SectionInput("section", K, (_target(rng, K, interior),)))
    # Hom-law pairs stay on endpoint-only targets: a pair on a union of two
    # intervals takes minutes today.  Their cost swings up to sixfold with
    # the target values, so both pairs are fixed; the seed varies the
    # sections above.
    items.append(SectionInput("hom_pair", INTERVAL, INTERVAL_PAIR))
    items.append(SectionInput("hom_pair", TWO_POINTS, TWO_POINT_PAIR))
    return items


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cli_inputs(seed: int, outdir: Path):
    rng = np.random.default_rng([seed, 4])
    out = str(outdir)
    cmds = []

    def add(kind, *argv):
        cmds.append(CliCommand(kind, tuple(str(a) for a in argv) + ("--json-only",)))

    certs = [f"{out}/cli-norm-l1.cert.json", f"{out}/cli-norm-linf.cert.json",
             f"{out}/cli-oracle.cert.json", f"{out}/cli-section.cert.json"]
    add("main", "norm", "--expr", to_text(draw_expression(rng, 2, 6)),
        "--space", "l1", "--cert", certs[0])
    add("main", "norm", "--expr", to_text(draw_expression(rng, 2, 3)),
        "--space", "linf", "--cert", certs[1])
    add("main", "oracle", "--expr", to_text(draw_expression(rng, 2, 3)),
        "--budget", 2000, "--seed", int(rng.integers(1 << 30)), "--cert", certs[2])
    add("main", "lemma34-check", "--expr", to_text(draw_expression(rng, 2, 1)),
        "--gen", str(rng.choice(NAMES[:2])), "--budget", 1000,
        "--seed", int(rng.integers(1 << 30)))
    add("main", "phi-demo", "--n", int(rng.integers(3, 6)))
    eps = float(rng.choice((0.05, 0.1, 0.2)))
    add("main", "extract-l1", "--instance", "disjoint", "--n", 8, "--eps", eps,
        "--len", 4, "--seed", int(rng.integers(1 << 30)))
    add("main", "extract-l1", "--instance", "perturbed", "--n", 6, "--eps", eps,
        "--len", 3, "--seed", int(rng.integers(1 << 30)))
    K = _union(rng, 2)
    h = _target(rng, K, 1)
    add("main", "ck-section",
        "--k", "union:" + ";".join(f"{_frac_text(a)},{_frac_text(b)}" for a, b in K),
        "--h", ",".join(f"{_frac_text(p)}:{_frac_text(v)}" for p, v in h),
        "--cert", certs[3])
    for path in certs:
        add("replay", "replay-cert", path)
    return cmds


BUILDERS = {
    "norm": norm_inputs,
    "oracle": oracle_inputs,
    "sections": section_inputs,
}  # cli_inputs also needs the directory its certificates go to
