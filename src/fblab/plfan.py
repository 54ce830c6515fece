"""Piecewise-linear homogeneous functions on sorted rays, and cube sup norms.

A Fan over two generators is a sorted list of rays, among them +/-e1 and
+/-e2, so that every sector between consecutive rays is narrower than pi;
arrangement_fan adds the sup-scaled null directions +/-(-b, a) of every
line a*s + b*t = 0 of an arrangement.  The rays are sorted
counter-clockwise from (1, 0) by a square pseudo-angle, the position of
the direction on the boundary of [-1, 1]^2 (_angle): no trigonometry, and
exact in Fractions.  Cell i is the sector from rays[i] to rays[i + 1], and
a stored PLFunction attaches one linear piece per cell.  With one
generator the rays are +1 and -1 and the cells the two half-lines.

A point is located by bisecting on its pseudo-angle, with no tolerance; a
point exactly on a ray takes the sector that starts there (its
counter-clockwise side).

Operations on stored functions run over the merged rays of both operands,
so that each merged sector lies in one sector of each; one linear pass over
the two sorted angle lists merges the rays and locates every merged sector
in both operands (_refine).  pl_equal compares
the two pieces at both ends of every merged sector, pl_lincomb combines
them, and pl_pointwise_max splits a sector (p, q) where the difference d
of the two pieces changes sign, at the crossing ray |d(q)| p + |d(p)| q.
Pieces always come from the operands and are never solved for, so all
three are exact in Fractions and stay accurate in floats in thin sectors.
No library code calls these operations any more: the section hom laws are
decided in one merge of the four sections' rays (ckretract.verify_hom_laws),
and only the tests, as a referee, and the benchmark's traced spans reach
them.
A stored function is linear on every sector, so it breaks only on the
lines through its rays: a fan's hyperplanes are derived from them.

The norm takes a max-min form, over any number of generators, or a stored
PLFunction, and reads only break hyperplanes, zero sets and values;
pl_parts alone tells the two apart.  A form breaks on the pairwise
differences of its functionals and is evaluated through them.

The sup norm on the cube takes a max-min form and solves one small exact
LP per group of the form and of its negation (sup_norm_on_cube): the max
of a group's min over the cube is an LP, and f is the max of its groups.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .expr import (
    MAXMIN_CAP, LinearFunctional, MaxMinEvaluator, MaxMinForm, SpaceError, finite_values,
)
from .lp import solve_lp
from .numeric import as_fraction

__all__ = [
    "Fan",
    "PLFunction",
    "FanError",
    "DegenerateNormalError",
    "canonical_normal",
    "arrangement_fan",
    "pl_from_maxmin",
    "pl_parts",
    "sup_norm_on_cube",
    "pl_equal",
    "pl_pointwise_max",
    "pl_lincomb",
    "pl_sector",
    "pl_value",
    "pl_value_many",
    "exact_functional",
    "fan_to_json",
    "fan_from_json",
    "plfunction_to_json",
    "plfunction_from_json",
]

class FanError(RuntimeError):
    pass


class DegenerateNormalError(FanError):
    """A zero normal vector cannot define a hyperplane."""


@dataclass(frozen=True)
class Fan:
    """Sorted rays of a fan over one or two generators.

    Every fan has at least two rays: +1 and -1 over one generator, and at
    least the four axis rays over two.
    """

    generators: tuple
    rays: tuple  # sup-scaled, counter-clockwise from (1, 0), each once

    def __post_init__(self):
        if len(self.rays) < 2:
            raise FanError(f"a fan needs at least two rays, not {len(self.rays)}")

    @property
    def cells(self) -> tuple:
        """The sectors (rays[i], rays[i + 1]) in angular order; with one
        generator the half-lines (r, r)."""
        if self.rays and len(self.rays[0]) == 1:
            return tuple((r, r) for r in self.rays)
        return tuple(zip(self.rays, self.rays[1:] + self.rays[:1]))

    @cached_property
    def angles(self) -> tuple:
        """_angle of every ray, ascending; filled in when a fan is built
        from rays whose angles are already known (_sorted_fan)."""
        return tuple(_angle(r) for r in self.rays)

    @cached_property
    def hyperplanes(self) -> tuple:
        """The line through every ray, with normal (-r[1], r[0]) (the
        coordinate itself over one generator), canonical and each once by
        exact value, in ray order; Fraction rays give Fraction lines."""
        g, exact = self.generators, isinstance(self.rays[0][0], Fraction)
        maps = ({g[0]: 1} if len(r) == 1 else {g[0]: -r[1], g[1]: r[0]} for r in self.rays)
        return tuple(dict.fromkeys(
            canonical_normal(LinearFunctional.from_map(m), exact) for m in maps))


@dataclass(frozen=True)
class PLFunction:
    """A stored function: one linear piece per cell of a fan over one or
    two generators."""

    fan: Fan
    pieces: tuple  # LinearFunctional per cell, aligned with fan.cells


def canonical_normal(fn: LinearFunctional, exact: bool) -> LinearFunctional:
    """Scale so the first nonzero coefficient (generator-sorted) is +1.

    The items tuple of LinearFunctional is already sorted by generator name,
    so "first nonzero" is well defined.  Callers deduplicate hyperplanes by
    the exact value of this form (dict.fromkeys), with no rounded key: in
    floats two normals of one line can differ in the last bits of their
    quotients and then both stay, which costs a candidate, never a verdict.
    Raises for the zero functional.  A normal whose lead is 1 already, as
    the line of a slice ray is, is only put in the arithmetic (Fraction or
    float coefficients): dividing by 1 would change no value.
    """
    if fn.is_zero:
        raise DegenerateNormalError("zero normal")
    lead = fn.items[0][1]
    if lead == 1:
        kind = Fraction if exact else float
        if all(type(c) is kind for _, c in fn.items):
            return fn
        return LinearFunctional(tuple((g, kind(c)) for g, c in fn.items))
    if exact:
        return LinearFunctional(
            tuple((g, as_fraction(c) / as_fraction(lead)) for g, c in fn.items)
        )
    lead = float(lead)
    return LinearFunctional(tuple((g, float(c) / lead) for g, c in fn.items))


def _angle(p):
    """Counter-clockwise position of the direction p on the boundary of
    [-1, 1]^2, from (1, 0), in [0, 8); a one-generator p reads as (p[0], 0).

    Monotone in the angle, exact in Fractions, and _angles gives the same
    floats for many points at once.  A sup-scaled ray has +/-1 where this
    divides, and dividing by +/-1 is exact in both arithmetics, so its
    quotient is read off as the numerator or its negative.
    """
    x, y = (p[0], p[1]) if len(p) == 2 else (p[0], 0 * p[0])  # a zero of its type
    if x > 0 and x >= abs(y):
        q = y if x == 1 else y / x
        return q if y >= 0 else 8 + q
    if y > 0 and y >= abs(x):
        return 2 - (x if y == 1 else x / y)
    if x < 0 and -x >= abs(y):
        return 4 + (-y if x == -1 else y / x)
    if y < 0:
        return 6 - (-x if y == -1 else x / y)
    return 0


def _angles(P: np.ndarray) -> np.ndarray:
    """_angle of every row of a float (m, 1) or (m, 2) array."""
    x = P[:, 0]
    y = P[:, 1] if P.shape[1] == 2 else np.zeros_like(x)
    ax, ay = np.abs(x), np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.select(
            [(x > 0) & (x >= ay), (y > 0) & (y >= ax), (x < 0) & (-x >= ay), y < 0],
            [np.where(y >= 0, y / x, 8 + y / x), 2 - x / y, 4 + y / x, 6 - x / y],
            0.0,
        )


def pl_sector(fan: Fan, point) -> int:
    """Index of the cell that holds point: the one starting at or before its
    angle, so a point on a ray takes the sector that starts there.  The
    comparison is exact, also for a Fraction point against float angles;
    the angle of a float ray (1, t) with 0 <= t <= 1 is t itself."""
    return bisect_right(fan.angles, _angle(point)) - 1


def _line_rays(rows) -> list:
    """The two sup-scaled directions of every row's line: its null
    directions +/-(-b, a) in two dimensions, the half-lines in one."""
    rays = []
    for row in rows:
        scale = max(abs(v) for v in row)
        r = (row[0] / scale,) if len(row) == 1 else (-row[1] / scale, row[0] / scale)
        rays += [r, tuple(-v for v in r)]
    return rays


def _axes(n: int, exact: bool) -> list:
    one = Fraction(1) if exact else 1.0
    zero = one - one
    if n == 1:
        return [(one,), (-one,)]
    return [(one, zero), (zero, one), (-one, zero), (zero, -one)]


def _sorted_rays(rays) -> tuple:
    """(rays, angles): rays sorted by _angle, the first of every direction
    kept, and their angles."""
    by_angle = {}
    for r in rays:
        by_angle.setdefault(_angle(r), r)
    angles = tuple(sorted(by_angle))
    return tuple(by_angle[a] for a in angles), angles


def _fan_generators(generators) -> tuple:
    """generators as a tuple; raises FanError unless there are one or two."""
    generators = tuple(generators)
    if not 1 <= len(generators) <= 2:
        raise FanError(f"fans take one or two generators, not {len(generators)}")
    return generators


def _sorted_fan(generators, rays, angles) -> Fan:
    """A Fan of rays already sorted by _angle, with those angles cached."""
    fan = Fan(generators, rays)
    fan.__dict__["angles"] = angles  # where cached_property keeps Fan.angles
    return fan


def arrangement_fan(normals, generators, exact: bool = False) -> Fan:
    """Fan of the central arrangement of the given normals over one or two
    generators.

    The normals are put in canonical_normal form and deduplicated by exact
    value, as in Fan.hyperplanes.  The rays are the sup-scaled null
    directions of those h lines and +/-e1, +/-e2 (+1 and -1 for one
    generator), sorted by _angle: at most 2h + 4 of them, with no LP, no
    sampling and no tolerance, exact in Fractions.  Raises FanError for
    three or more generators and DegenerateNormalError on a zero normal.
    """
    generators = _fan_generators(generators)
    lines = dict.fromkeys(canonical_normal(hp, exact) for hp in normals)
    rows = [hp.vector(generators) for hp in lines]
    rays, angles = _sorted_rays(_line_rays(rows) + _axes(len(generators), exact))
    return _sorted_fan(generators, rays, angles)


def exact_functional(fn: LinearFunctional) -> LinearFunctional:
    """fn with its coefficients read exactly, as Fractions."""
    return LinearFunctional(tuple((g, as_fraction(c)) for g, c in fn.items))


def _exact_form(m: MaxMinForm) -> MaxMinForm:
    return MaxMinForm(tuple(tuple(map(exact_functional, grp)) for grp in m.groups))


def pl_from_maxmin(m: MaxMinForm, generators, exact: bool = False) -> MaxMinForm:
    """The form itself, with Fraction coefficients when exact.

    The norm and the cube sup take the form directly.  This survives only
    for the benchmark's workloads, which call it by name, and goes once they
    reach the norm through norm_of_expression (ROADMAP item 1).
    """
    return _exact_form(m) if exact else m


def pl_parts(f, generators, exact: bool = False):
    """(breaks, zero_sets, values, value) of f, a max-min form or a stored
    PLFunction, over the generator tuple.

    f is linear off the break hyperplanes, and each of its pieces is one of
    the zero_sets functionals.  values(points) gives f at a list of points,
    value(point) at one.  When exact, a form's functionals, or a stored
    function's rays and pieces, are read exactly once (exact_functional):
    the pseudo-angle of a float ray off the first octant is rounded, so
    locating points against it would not be exact.  A form's breaks are
    the nonzero pairwise differences of its functionals, and its float
    values come from one MaxMinEvaluator.batch call.  A stored function
    gives its fan's hyperplanes, its pieces and pl_value.  In floats,
    values raises OverflowError where a finite point gets a value that is
    not finite (expr.finite_values).  Raises SpaceError when the generators
    miss one of a form's or differ from a stored one's.
    """
    generators = tuple(generators)
    if isinstance(f, PLFunction):
        if f.fan.generators != generators:
            raise SpaceError("function and space generator order differ")
        if exact:
            # rounding to a float never reverses two angles: the order holds
            rays = tuple(tuple(map(as_fraction, r)) for r in f.fan.rays)
            fan = Fan(generators, rays)
            f = PLFunction(fan, tuple(map(exact_functional, f.pieces)))
        breaks, zero_sets = f.fan.hyperplanes, f.pieces

        def value(x):
            return pl_value(f, x)
    else:
        f.check_generators(generators)
        m = _exact_form(f) if exact else f
        zero_sets = m.functionals()
        pairs = itertools.combinations(zero_sets, 2)
        breaks = [d for p, q in pairs if not (d := p.minus(q)).is_zero]

        def value(x):
            return m.value(dict(zip(generators, x)))

    if exact:
        return breaks, zero_sets, lambda points: [value(x) for x in points], value
    if isinstance(f, PLFunction):

        def values(points):
            return finite_values(points, [value(x) for x in points])
    else:
        evaluator = MaxMinEvaluator(m, generators)

        def values(points):
            X = np.array(points, dtype=float).reshape(len(points), len(generators))
            return evaluator.batch(X).tolist()

    return breaks, zero_sets, values, value


def sup_norm_on_cube(m: MaxMinForm, generators, exact: bool = False):
    """max |f| over the closed cube [-1, 1]^n, for f the max-min form m over
    the generators, by one small LP per group of m and of -m.

    The min over a group G is concave, so its max over the cube is the LP
    max t s.t. t <= phi(x) for phi in G and x in the cube (_group_argmax),
    and max f is the largest of these over the groups of m; max -f is the
    same over the groups of m.negated.  At a group's optimal vertex f is at
    least that group's max and at most max f, so the largest |f| at all
    the vertices is the sup.  |f| is read there in the route's own
    arithmetic: exactly, or by one MaxMinEvaluator batch, which raises
    OverflowError past the float range.  Raises SpaceError when the
    generators miss one of m's, and MaxMinSizeError when the form of -f
    passes expr.MAXMIN_CAP.
    """
    gens = tuple(generators)
    m.check_generators(gens)
    points = [_group_argmax(g, gens) for form in (m, m.negated(MAXMIN_CAP))
              for g in form.groups]
    if exact:
        m = _exact_form(m)
        return max(abs(m.value(dict(zip(gens, x)))) for x in points)
    X = np.array(points, dtype=float).reshape(len(points), len(gens))
    return float(np.abs(MaxMinEvaluator(m, gens).batch(X)).max())


def _group_argmax(group, gens) -> list:
    """A point of [-1, 1]^n where min over the group's functionals phi is
    largest, in Fractions.

    With y = x + 1 in [0, 2]^n and t' = t + M, M the largest l1 norm of the
    phi, the LP maximize t' s.t. t' - phi(y) <= M - phi(1), y <= 2 and
    y, t' >= 0 has every right-hand side >= 0, so lp.solve_lp starts at
    the origin; t' >= 0 cuts off no optimum, since min phi >= -M on the
    cube.  It runs in Fractions in both modes: a float tableau drops
    coefficients below its 1e-9 tolerance.
    """
    n = len(gens)
    rows = [[as_fraction(c) for c in phi.vector(gens)] for phi in group]
    bound = max(sum(map(abs, row)) for row in rows)
    unit = [[int(i == j) for j in range(n)] + [0] for i in range(n)]
    res = solve_lp(
        [0] * n + [1],
        A_ub=[[-c for c in row] + [1] for row in rows] + unit,
        b_ub=[bound - sum(row) for row in rows] + [2] * n,
        exact=True,
    )
    return [y - 1 for y in res.x[:n]]


def pl_value(f: PLFunction, point):
    """f at one point: the piece of the sector that holds it (pl_sector)."""
    return f.pieces[pl_sector(f.fan, point)].evaluate(dict(zip(f.fan.generators, point)))


def pl_value_many(f: PLFunction, points: np.ndarray) -> np.ndarray:
    """Float values at many points (rows): the sectors found by
    np.searchsorted on the pseudo-angle and each piece applied elementwise,
    with the arithmetic of pl_value, so a point's value does not depend on
    the other points."""
    pts = np.asarray(points, dtype=float)
    return _values_at(f, pts, _angles(pts))


def _values_at(f: PLFunction, pts: np.ndarray, where: np.ndarray) -> np.ndarray:
    """pl_value_many at the float rows pts whose _angles are where, so that
    callers evaluating several functions at one sample find its angles
    once."""
    fan = f.fan
    cells = np.searchsorted(np.array(fan.angles, dtype=float), where, side="right") - 1
    coeffs = np.array([[float(c) for c in p.vector(fan.generators)] for p in f.pieces])[cells]
    out = np.zeros(len(pts))
    for j in range(pts.shape[1]):
        out += coeffs[:, j] * pts[:, j]
    return out


def _refine(f: PLFunction, g: PLFunction, what: str):
    """The fan of the merged rays of f and g, and per sector the pieces of f
    and of g on it.

    The merge is one linear pass over the two fans' cached angles, which
    ascend; on equal angles f's ray is kept.  A merged sector lies in the
    sector of f that starts at the last ray of f at or before its own start,
    and that ray's position is the count of f's rays the pass has taken;
    likewise for g.  Angles are only compared, never recomputed, so the
    rays are the sorted union and the pieces are the ones a bisection of
    each merged ray (pl_sector) would pick, in either arithmetic.
    """
    if f.fan.generators != g.fan.generators:
        raise FanError(f"{what} needs a shared generator tuple")
    fa, ga = f.fan.angles, g.fan.angles
    rays, angles, pairs = [], [], []
    i = j = 0
    while i < len(fa) or j < len(ga):
        if j == len(ga) or (i < len(fa) and fa[i] <= ga[j]):
            rays.append(f.fan.rays[i])
            angles.append(fa[i])
            if j < len(ga) and ga[j] == fa[i]:
                j += 1
            i += 1
        else:
            rays.append(g.fan.rays[j])
            angles.append(ga[j])
            j += 1
        pairs.append((f.pieces[i - 1], g.pieces[j - 1]))
    return _sorted_fan(f.fan.generators, tuple(rays), tuple(angles)), pairs


def pl_equal(f: PLFunction, g: PLFunction) -> bool:
    """Equality as functions, decided at the merged rays of both operands.

    Both inputs must live over the same ordered generator tuple.  On every
    merged sector (p, q) the pieces of f and g are compared at p and at q,
    which span the plane, so this is equality of the pieces.  The values
    are compared with ==, so the verdict is exact only for Fraction inputs;
    float inputs decide equality of the rounded values, with no tolerance.
    """
    fan, pairs = _refine(f, g, "pl_equal")
    for (p, q), (pf, pg) in zip(fan.cells, pairs):
        for r in (p, q):
            point = dict(zip(fan.generators, r))
            if pf.evaluate(point) != pg.evaluate(point):
                return False
    return True


def pl_pointwise_max(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise maximum of two PLFunctions on their merged rays.

    On a merged sector (p, q) the difference d of the two pieces is linear,
    so the larger piece holds on the whole sector unless d(p) and d(q)
    have opposite signs; then the crossing ray |d(q)| p + |d(p)| q, where
    d vanishes, splits it.  The maximum changes pieces only at these rays,
    so its hyperplanes, the lines through its rays, list every line it
    breaks on, an axis ray that neither operand breaks on included.
    """
    fan, pairs = _refine(f, g, "pl_pointwise_max")
    gens = fan.generators
    rays, angles, pieces = [], [], []
    ends = fan.angles[1:] + (8,)
    for (p, q), (pf, pg), lo, hi in zip(fan.cells, pairs, fan.angles, ends):
        d = pf.minus(pg)
        dp, dq = (d.evaluate(dict(zip(gens, r))) for r in (p, q))
        rays.append(p)
        angles.append(lo)
        if min(dp, dq) < 0 < max(dp, dq):
            r = tuple(abs(dq) * u + abs(dp) * v for u, v in zip(p, q))
            scale = max(abs(v) for v in r)
            r = tuple(v / scale for v in r)
            # a float crossing may round onto an end of a thin sector
            if lo < (angle := _angle(r)) < hi:
                rays.append(r)
                angles.append(angle)
                pieces += [pf, pg] if dp > 0 else [pg, pf]
                continue
        pieces.append(pf if dp + dq >= 0 else pg)
    return PLFunction(_sorted_fan(gens, tuple(rays), tuple(angles)), tuple(pieces))


def pl_lincomb(a, f: PLFunction, b, g: PLFunction) -> PLFunction:
    """a*f + b*g on the merged rays of f and g, piece by piece."""
    fan, pairs = _refine(f, g, "pl_lincomb")
    return PLFunction(fan, tuple(pf.scaled(a).plus(pg.scaled(b)) for pf, pg in pairs))


# ---------------------------------------------------------------------------
# JSON encoding


def _num_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def _num_from_json(v):
    if isinstance(v, str):
        num, den = v.split("/")
        return Fraction(int(num), int(den))
    return float(v)


def _functional_to_json(fn: LinearFunctional) -> dict:
    return {g: _num_to_json(c) for g, c in fn.items}


def _functional_from_json(obj) -> LinearFunctional:
    return LinearFunctional.from_map({g: _num_from_json(c) for g, c in obj.items()})


def fan_to_json(fan: Fan) -> dict:
    return {
        "generators": list(fan.generators),
        "rays": [[_num_to_json(v) for v in r] for r in fan.rays],
    }


def fan_from_json(obj) -> Fan:
    """fan_to_json's shape; an earlier "hyperplanes" key is ignored.
    Raises FanError unless there are one or two generators, every ray has
    one entry per generator and the rays' pseudo-angles strictly ascend,
    since lookups bisect on them."""
    gens = _fan_generators(obj["generators"])
    rays = tuple(tuple(_num_from_json(v) for v in r) for r in obj["rays"])
    if any(len(r) != len(gens) for r in rays):
        raise FanError(f"a ray over {len(gens)} generators needs {len(gens)} entries")
    angles = tuple(map(_angle, rays))
    if any(b <= a for a, b in zip(angles, angles[1:])):
        raise FanError("the rays do not ascend counter-clockwise from (1, 0)")
    return _sorted_fan(gens, rays, angles)


def plfunction_to_json(f: PLFunction) -> dict:
    """generators, rays and one piece per sector."""
    out = fan_to_json(f.fan)
    out["pieces"] = [_functional_to_json(p) for p in f.pieces]
    return out


def plfunction_from_json(obj) -> PLFunction:
    """Read plfunction_to_json's shape, or the earlier one that stored a
    witness point per cell of the hyperplanes' arrangement instead of rays.

    An earlier cell is the sector between consecutive rays of the
    hyperplanes alone; each sector of the new fan takes the piece of the
    earlier cell its first ray lies in, found through that cell's witness.
    """
    pieces = tuple(_functional_from_json(p) for p in obj["pieces"])
    if "rays" in obj:
        fan = fan_from_json(obj)
    else:
        gens = _fan_generators(obj["generators"])
        witnesses = [tuple(_num_from_json(v) for v in c["witness"]) for c in obj["cells"]]
        rows = [_functional_from_json(h).vector(gens) for h in obj["hyperplanes"]]
        exact = isinstance(witnesses[0][0], Fraction)
        rays, angles = _sorted_rays(_line_rays(rows) + _axes(len(gens), exact))
        fan = _sorted_fan(gens, rays, angles)
        walls = _sorted_rays(_line_rays(rows))[1]

        def cell(x):
            return (bisect_right(walls, _angle(x)) - 1) % max(1, len(walls))

        by_cell = {cell(w): piece for w, piece in zip(witnesses, pieces)}
        pieces = tuple(by_cell[cell(p)] for p, _ in fan.cells)
    if len(pieces) != len(fan.cells):
        raise FanError(f"{len(pieces)} pieces for {len(fan.cells)} sectors")
    return PLFunction(fan, pieces)
