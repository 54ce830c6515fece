"""Piecewise-linear homogeneous functions on sorted rays, and cube sup norms.

A Fan over two generators is a sorted list of rays: the sup-scaled null
directions +/-(-b, a) of every line a*s + b*t = 0 of its (deduplicated,
canonically scaled) hyperplane list, together with +/-e1 and +/-e2, so
that every sector between consecutive rays is narrower than pi.  The rays
are sorted counter-clockwise from (1, 0) by a square pseudo-angle, the
position of the direction on the boundary of [-1, 1]^2 (_angle): no
trigonometry, and exact in Fractions.  Cell i is the sector from rays[i]
to rays[i + 1], and a stored PLFunction attaches one linear piece per
cell.  With one generator the rays are +1 and -1 and the cells the two
half-lines.

A point is located by bisecting on its pseudo-angle, with no tolerance; a
point exactly on a ray takes the sector that starts there (its
counter-clockwise side).

Operations on stored functions run over the merged rays of both operands,
so that each merged sector lies in one sector of each.  pl_equal compares
the two pieces at both ends of every merged sector, pl_lincomb combines
them, and pl_pointwise_max splits a sector (p, q) where the difference d
of the two pieces changes sign, at the crossing ray |d(q)| p + |d(p)| q.
Pieces always come from the operands and are never solved for, so all
three are exact in Fractions and stay accurate in floats in thin sectors.
A result's hyperplanes list every line it breaks on: for the maximum,
every nonzero d that vanishes on a closed sector, since the larger piece
may change on an axis ray that neither operand breaks on.

The norm and the cube sup norm take a max-min form, over any number of
generators, or a stored PLFunction, and read only break hyperplanes, zero
sets and values; pl_parts alone tells the two apart.  A form breaks on the
pairwise differences of its functionals and is evaluated through them.

The sup norm on the cube runs no LP (sup_norm_on_cube): it evaluates f at
the vertices of (closed cell) intersect cube, one block of generators tied
together by hyperplanes at a time, and enumerates each cube face's vertices
from the rows that cross that face.  Nothing in this module solves an LP.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .expr import LinearFunctional, MaxMinEvaluator, MaxMinForm, SpaceError
from .numeric import (
    as_fraction,
    candidate_rays,
    canonical_ray,
    null_direction,
    pivot_columns,
    ray_key,
)

__all__ = [
    "Fan",
    "PLFunction",
    "FanError",
    "FanSizeError",
    "DegenerateNormalError",
    "canonical_normal",
    "dedup_normals",
    "arrangement_fan",
    "pl_from_maxmin",
    "pl_parts",
    "sup_norm_on_cube",
    "pl_equal",
    "pl_pointwise_max",
    "pl_lincomb",
    "pl_value",
    "pl_value_many",
    "fan_to_json",
    "fan_from_json",
    "plfunction_to_json",
    "plfunction_from_json",
]

# Faces plus null-direction solves sup_norm_on_cube may spend on one block
# before it raises FanSizeError, so that a block too large for vertex
# enumeration fails within seconds instead of running for minutes.
SUP_WORK_CAP = 1_000_000


class FanError(RuntimeError):
    pass


class FanSizeError(FanError):
    pass


class DegenerateNormalError(FanError):
    """A zero normal vector cannot define a hyperplane."""


@dataclass(frozen=True)
class Fan:
    """Sorted rays of a fan over one or two generators, and its hyperplanes.

    Every fan has at least two rays: +1 and -1 over one generator, and at
    least the four axis rays over two.
    """

    generators: tuple
    hyperplanes: tuple  # LinearFunctional normals, canonical and deduplicated
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
        return tuple(_angle(r) for r in self.rays)


@dataclass(frozen=True)
class PLFunction:
    """A stored function: one linear piece per cell of a fan over one or
    two generators."""

    fan: Fan
    pieces: tuple  # LinearFunctional per cell, aligned with fan.cells


def canonical_normal(fn: LinearFunctional, exact: bool) -> LinearFunctional:
    """Scale so the first nonzero coefficient (generator-sorted) is +1.

    The items tuple of LinearFunctional is already sorted by generator name,
    so "first nonzero" is well defined.  Raises for the zero functional.
    """
    if fn.is_zero:
        raise DegenerateNormalError("zero normal")
    lead = fn.items[0][1]
    if exact:
        return LinearFunctional(
            tuple((g, as_fraction(c) / as_fraction(lead)) for g, c in fn.items)
        )
    lead = float(lead)
    return LinearFunctional(tuple((g, float(c) / lead) for g, c in fn.items))


def _rounded(values, exact: bool) -> tuple:
    """Dedup key of a coefficient tuple: exact, or rounded to 12 digits."""
    if exact:
        return tuple(values)
    return tuple(round(v, 12) for v in values)


def _normal_key(fn: LinearFunctional, exact: bool):
    return tuple(g for g, _ in fn.items), _rounded((c for _, c in fn.items), exact)


def dedup_normals(fns, exact: bool):
    """Canonicalize and deduplicate normals, keeping first-appearance order."""
    seen = {}
    out = []
    for fn in fns:
        cn = canonical_normal(fn, exact)
        key = _normal_key(cn, exact)
        if key not in seen:
            seen[key] = True
            out.append(cn)
    return out


def _angle(p):
    """Counter-clockwise position of the direction p on the boundary of
    [-1, 1]^2, from (1, 0), in [0, 8); a one-generator p reads as (p[0], 0).

    Monotone in the angle, exact in Fractions, and _angles gives the same
    floats for many points at once.
    """
    x, y = (p[0], p[1]) if len(p) == 2 else (p[0], 0)
    if x > 0 and x >= abs(y):
        return y / x if y >= 0 else 8 + y / x
    if y > 0 and y >= abs(x):
        return 2 - x / y
    if x < 0 and -x >= abs(y):
        return 4 + y / x
    if y < 0:
        return 6 - x / y
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


def _sector(fan: Fan, point) -> int:
    """Index of the cell that holds point: the one starting at or before its
    angle, so a point on a ray takes the sector that starts there."""
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
    """rays sorted by _angle, the first of every direction kept."""
    by_angle = {}
    for r in rays:
        by_angle.setdefault(_angle(r), r)
    return tuple(by_angle[a] for a in sorted(by_angle))


def _merge_parallel(rows, exact):
    """Keep the first of every family of parallel rows.

    Rows are compared after scaling the first nonzero entry to +1, on the
    key dedup_normals uses (12 digits in float mode).
    """
    merged = {}
    for row in rows:
        lead = next(v for v in row if v != 0)
        merged.setdefault(_rounded((v / lead for v in row), exact), row)
    return list(merged.values())


def arrangement_fan(normals, generators, exact: bool = False) -> Fan:
    """Fan of the central arrangement of the given normals over one or two
    generators.

    The rays are the sup-scaled null directions of the deduplicated lines
    and +/-e1, +/-e2 (+1 and -1 for one generator), sorted by _angle: at
    most 2h + 4 of them for h lines, with no LP, no sampling and no
    tolerance, exact in Fractions.  Raises FanError for three or more
    generators and DegenerateNormalError on a zero normal.
    """
    generators = tuple(generators)
    n = len(generators)
    if not 1 <= n <= 2:
        raise FanError(f"fans take one or two generators, not {n}")
    hyps = dedup_normals(normals, exact)
    rows = [hp.vector(generators) for hp in hyps]
    return Fan(generators, tuple(hyps), _sorted_rays(_line_rays(rows) + _axes(n, exact)))


def _exact_form(m: MaxMinForm) -> MaxMinForm:
    return MaxMinForm(tuple(
        tuple(LinearFunctional(tuple((g, as_fraction(c)) for g, c in f.items)) for f in grp)
        for grp in m.groups
    ))


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
    value(point) at one.  A form is exactified once when exact; its breaks
    are the nonzero pairwise differences of its functionals, and its float
    values come from one MaxMinEvaluator.batch call.  A stored function
    gives its fan's hyperplanes, its pieces and pl_value.  Raises SpaceError
    when the generators miss one of a form's or differ from a stored one's.
    """
    generators = tuple(generators)
    if isinstance(f, PLFunction):
        if f.fan.generators != generators:
            raise SpaceError("function and space generator order differ")
        breaks, zero_sets = f.fan.hyperplanes, f.pieces

        def value(x):
            return pl_value(f, x, exact)
    else:
        f.check_generators(generators)
        m = _exact_form(f) if exact else f
        zero_sets = m.functionals()
        pairs = itertools.combinations(zero_sets, 2)
        breaks = [d for p, q in pairs if not (d := p.minus(q)).is_zero]

        def value(x):
            return m.value(dict(zip(generators, x)))

    if exact or isinstance(f, PLFunction):
        return breaks, zero_sets, lambda points: [value(x) for x in points], value
    evaluator = MaxMinEvaluator(m, generators)

    def values(points):
        X = np.array(points, dtype=float).reshape(len(points), len(generators))
        return evaluator.batch(X).tolist()

    return breaks, zero_sets, values, value


def sup_norm_on_cube(f, generators, exact: bool = False):
    """max |f| over the closed cube [-1, 1]^n, for f a max-min form or a
    stored PLFunction over the generators (pl_parts), from evaluations alone.

    The generators split into blocks, the connected components of "some
    hyperplane involves both" (a generator in no hyperplane is a block of
    its own).  A piece's coefficients on a block change only across that
    block's walls, so f is a sum of one PL function per block, and max f
    (min f) over the cube is attained by putting a maximizer (minimizer) of
    every block's part side by side.  Each part is maximized and minimized
    over the block's origin and the vertices of (closed cell) intersect
    cube of the block's arrangement (_cube_vertex_rays); sup |f| is the
    larger of |f| at the two assembled points.  No LP runs, and the work
    grows with the largest block, not with n: a linear f costs 2n + 2
    evaluations.  Raises FanSizeError when a block needs more than
    SUP_WORK_CAP faces and solves.
    """
    gens = tuple(generators)
    n = len(gens)
    breaks, _, values, _ = pl_parts(f, gens, exact)
    rows = [list(h.vector(gens)) for h in dedup_normals(breaks, exact)]
    zero = Fraction(0) if exact else 0.0
    top, bottom = [zero] * n, [zero] * n
    for block in _blocks(rows, n):
        sub = [[row[j] for j in block] for row in rows if any(row[j] for j in block)]
        points = []
        for v in _cube_vertex_rays(sub, len(block), exact):
            x = [zero] * n
            for j, vj in zip(block, v):
                x[j] = vj
            points.append(x)
        hi = lo = zero
        for x, fx in zip(points, values(points)):
            if fx > hi:
                hi = fx
                for j in block:
                    top[j] = x[j]
            if fx < lo:
                lo = fx
                for j in block:
                    bottom[j] = x[j]
    return max(abs(v) for v in values([top, bottom]))


def _blocks(rows, n):
    """Coordinates grouped by "some row is nonzero on both", each sorted."""
    blocks = [{j} for j in range(n)]
    for row in rows:
        support = {j for j, v in enumerate(row) if v}
        joined = [b for b in blocks if b & support]
        blocks = [b for b in blocks if not b & support] + [set().union(*joined)]
    return sorted(sorted(b) for b in blocks)


def _cube_vertex_rays(rows, n, exact):
    """Directions through every vertex of (closed cell) intersect [-1, 1]^n.

    rows are the nonzero normals of a central arrangement in R^n; every
    direction is scaled to sup norm 1 and listed once.  A vertex on exactly
    one cube facet is a ray of the fan (_fan_rays).

    A vertex whose active facets are x_i = s_i for i in a face S of k >= 2
    coordinates lies on the plane x_i = s_i s_j x_j (j the first index of
    S), with coordinates (x_j, x_F) for F the indices off S.  There a row h
    reads (c, h_F) with c = sum over S of s_i h_i, and the vertex is a ray
    of the arrangement of those rows that cross the face's relative
    interior, |c| < sum over F of |h_i|; the others cannot vanish there.
    Parallel rows are merged first, so the work per face follows the rows
    the face sees, and a face crossed by no row is a cube vertex.  A vertex
    needs n independent active constraints, so k >= n - rank(rows).  Raises
    FanSizeError once the faces and solves of k >= 2 pass SUP_WORK_CAP.
    """
    rays, _ = _fan_rays(rows, n, exact)
    seen = {ray_key(d, exact) for d in rays}
    rank = len(pivot_columns(rows, n, exact)) if rows else 0
    budget = SUP_WORK_CAP
    for k in range(max(2, n - rank), n + 1):
        for face in itertools.combinations(range(n), k):
            off = [i for i in range(n) if i not in face]
            for signs in itertools.product((1, -1), repeat=k - 1):
                signs = (1,) + signs
                restricted = []
                for h in rows:
                    c = sum(s * h[i] for i, s in zip(face, signs))
                    width = sum(abs(h[i]) for i in off)
                    if abs(c) < width:
                        restricted.append([c] + [h[i] for i in off])
                if restricted:
                    restricted = _merge_parallel(restricted, exact)
                face_rays, solves = _fan_rays(restricted, n - k + 1, exact)
                budget -= 1 + solves
                if budget < 0:
                    raise FanSizeError(
                        f"cube sup needs more than {SUP_WORK_CAP} faces and solves"
                    )
                for t, *y in face_rays:
                    x = [0] * n
                    for i, s in zip(face, signs):
                        x[i] = s * t
                    for i, v in zip(off, y):
                        x[i] = v
                    x = canonical_ray(x, exact)
                    key = ray_key(x, exact)
                    if key not in seen:
                        seen.add(key)
                        rays.append(tuple(x))
    return rays


def _fan_rays(rows, n, exact):
    """numeric.candidate_rays of rows, and the number of solves it took.

    Below rank n - 1 no n-1 rows have a one-dimensional null space, and at
    rank n - 1 every n-1 rows that have one share the null space of all
    rows, so the (n-1)-subsets are only enumerated at full rank.
    """
    rank = len(pivot_columns(rows, n, exact)) if rows else 0
    if rank == n:
        return candidate_rays(rows, n, exact), math.comb(len(rows), n - 1)
    d = null_direction(rows, n, exact) if rank == n - 1 else None
    if d is None:
        return [], 1
    return [tuple(canonical_ray(d, exact)), tuple(canonical_ray([-v for v in d], exact))], 1


def pl_value(f: PLFunction, point, exact: bool = False):
    """f at one point: the piece of the sector that holds it (_sector)."""
    return f.pieces[_sector(f.fan, point)].evaluate(dict(zip(f.fan.generators, point)))


def pl_value_many(f: PLFunction, points: np.ndarray) -> np.ndarray:
    """Float values at many points (rows): the sectors found by
    np.searchsorted on the pseudo-angle and each piece applied elementwise,
    with the arithmetic of pl_value, so a point's value does not depend on
    the other points."""
    fan = f.fan
    pts = np.asarray(points, dtype=float)
    cells = np.searchsorted(np.array(fan.angles, dtype=float), _angles(pts), side="right") - 1
    coeffs = np.array([[float(c) for c in p.vector(fan.generators)] for p in f.pieces])[cells]
    out = np.zeros(len(pts))
    for j in range(pts.shape[1]):
        out += coeffs[:, j] * pts[:, j]
    return out


def _refine(f: PLFunction, g: PLFunction, exact: bool, what: str):
    """The fan of the merged rays of f and g, with both hyperplane lists,
    and per sector the pieces of f and of g on it."""
    if f.fan.generators != g.fan.generators:
        raise FanError(f"{what} needs a shared generator tuple")
    fan = Fan(
        f.fan.generators,
        tuple(dedup_normals(f.fan.hyperplanes + g.fan.hyperplanes, exact)),
        _sorted_rays(f.fan.rays + g.fan.rays),
    )
    pairs = [(f.pieces[_sector(f.fan, p)], g.pieces[_sector(g.fan, p)]) for p, _ in fan.cells]
    return fan, pairs


def pl_equal(f: PLFunction, g: PLFunction, exact: bool = False) -> bool:
    """Equality as functions, decided at the merged rays of both operands.

    Both inputs must live over the same ordered generator tuple.  On every
    merged sector (p, q) the pieces of f and g are compared at p and at q,
    which span the plane, so this is equality of the pieces.  The values
    are compared with ==, so the verdict is exact only for Fraction inputs;
    float inputs decide equality of the rounded values, with no tolerance.
    """
    fan, pairs = _refine(f, g, exact, "pl_equal")
    for (p, q), (pf, pg) in zip(fan.cells, pairs):
        for r in (p, q):
            point = dict(zip(fan.generators, r))
            if pf.evaluate(point) != pg.evaluate(point):
                return False
    return True


def pl_pointwise_max(f: PLFunction, g: PLFunction, exact: bool = False) -> PLFunction:
    """Pointwise maximum of two PLFunctions on their merged rays.

    On a merged sector (p, q) the difference d of the two pieces is linear,
    so the larger piece holds on the whole sector unless d(p) and d(q)
    have opposite signs; then the crossing ray |d(q)| p + |d(p)| q, where
    d vanishes, splits it.  Wherever d(p) * d(q) <= 0 for a nonzero d,
    the maximum may change pieces on d's line (inside the sector, or at
    an end that no operand breaks on, such as an axis ray), so d joins
    the hyperplanes.
    """
    fan, pairs = _refine(f, g, exact, "pl_pointwise_max")
    gens = fan.generators
    rays, pieces, breaks = [], [], []
    ends = fan.angles[1:] + (8,)
    for (p, q), (pf, pg), lo, hi in zip(fan.cells, pairs, fan.angles, ends):
        d = pf.minus(pg)
        dp, dq = (d.evaluate(dict(zip(gens, r))) for r in (p, q))
        rays.append(p)
        if dp * dq <= 0 and not d.is_zero:
            breaks.append(d)
        if min(dp, dq) < 0 < max(dp, dq):
            r = tuple(abs(dq) * u + abs(dp) * v for u, v in zip(p, q))
            scale = max(abs(v) for v in r)
            r = tuple(v / scale for v in r)
            # a float crossing may round onto an end of a thin sector
            if lo < _angle(r) < hi:
                rays.append(r)
                pieces += [pf, pg] if dp > 0 else [pg, pf]
                continue
        pieces.append(pf if dp + dq >= 0 else pg)
    hyps = dedup_normals(list(fan.hyperplanes) + breaks, exact)
    return PLFunction(Fan(gens, tuple(hyps), tuple(rays)), tuple(pieces))


def pl_lincomb(a, f: PLFunction, b, g: PLFunction, exact: bool = False) -> PLFunction:
    """a*f + b*g on the merged rays of f and g, piece by piece."""
    fan, pairs = _refine(f, g, exact, "pl_lincomb")
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
        "hyperplanes": [_functional_to_json(h) for h in fan.hyperplanes],
        "rays": [[_num_to_json(v) for v in r] for r in fan.rays],
    }


def fan_from_json(obj) -> Fan:
    return Fan(
        tuple(obj["generators"]),
        tuple(_functional_from_json(h) for h in obj["hyperplanes"]),
        tuple(tuple(_num_from_json(v) for v in r) for r in obj["rays"]),
    )


def plfunction_to_json(f: PLFunction) -> dict:
    """generators, hyperplanes, rays and one piece per sector."""
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
        gens = tuple(obj["generators"])
        hyps = tuple(_functional_from_json(h) for h in obj["hyperplanes"])
        witnesses = [tuple(_num_from_json(v) for v in c["witness"]) for c in obj["cells"]]
        rows = [h.vector(gens) for h in hyps]
        exact = isinstance(witnesses[0][0], Fraction)
        fan = Fan(gens, hyps, _sorted_rays(_line_rays(rows) + _axes(len(gens), exact)))
        walls = [_angle(r) for r in _sorted_rays(_line_rays(rows))]

        def cell(x):
            return (bisect_right(walls, _angle(x)) - 1) % max(1, len(walls))

        by_cell = {cell(w): piece for w, piece in zip(witnesses, pieces)}
        pieces = tuple(by_cell[cell(p)] for p, _ in fan.cells)
    if len(pieces) != len(fan.cells):
        raise FanError(f"{len(pieces)} pieces for {len(fan.cells)} sectors")
    return PLFunction(fan, pieces)
