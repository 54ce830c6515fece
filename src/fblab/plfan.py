"""Central line arrangements and piecewise-linear homogeneous functions.

A Fan is the cell complex of a central arrangement in one or two
dimensions: every full-dimensional cell is recorded as its sign vector over
the (deduplicated, canonically scaled) hyperplane list together with a
strictly interior witness point in the open cube.  A stored PLFunction
attaches one linear piece per cell.

Cell discovery needs no LP and no sampling, and is exact in Fractions: with
one generator the two half-lines, with two every line a*s + b*t = 0
contributes the two rays +/-(-b, a), scaled to sup norm 1.  Sorting the
rays by angle (half-plane test, then cross product) lists the cells as the
open sectors between consecutive rays; the witness of a sector is the sum
of its two bounding rays times 1/4, and a single line gives the two
half-planes.  Parallel rows are merged on the key of dedup_normals.  Cells
are sorted by sign string, so fans are deterministic.

A function given by a max-min form (pl_from_maxmin) keeps the form and
its break hyperplanes, the pairwise differences of its functionals.  From
three generators up it has no cells: it is evaluated through the form,
and the norm and the cube sup norm need only hyperplanes and values.

Lower-dimensional faces are never materialized; evaluation on a boundary
picks any incident cell, which is safe because adjacent pieces agree there.

The sup norm on the cube runs no LP (sup_norm_on_cube): it evaluates f at
the vertices of (closed cell) intersect cube, one block of generators tied
together by hyperplanes at a time, and enumerates each cube face's vertices
from the rows that cross that face.  Nothing in this module solves an LP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

import numpy as np

from .expr import LinearFunctional, MaxMinEvaluator, MaxMinForm
from .numeric import (
    as_fraction,
    candidate_rays,
    canonical_ray,
    null_direction,
    pivot_columns,
    ray_key,
)

__all__ = [
    "Cone",
    "Fan",
    "PLFunction",
    "FanError",
    "FanSizeError",
    "DegenerateNormalError",
    "canonical_normal",
    "dedup_normals",
    "arrangement_fan",
    "pl_from_maxmin",
    "sup_norm_on_cube",
    "pl_equal",
    "pl_pointwise_max",
    "pl_lincomb",
    "pl_value",
    "pl_values",
    "pl_value_many",
    "locate_cell",
    "fan_to_json",
    "fan_from_json",
    "plfunction_to_json",
    "plfunction_from_json",
]

SIGN_TOL = 1e-9
MAX_CELLS_DEFAULT = 100_000
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
class Cone:
    """Full-dimensional cell: sign per hyperplane plus an interior witness."""

    signs: str
    witness: tuple


@dataclass(frozen=True)
class Fan:
    generators: tuple
    hyperplanes: tuple  # LinearFunctional normals, canonical and deduplicated
    cells: tuple  # Cone instances, sorted by sign string

    def normal_rows(self) -> np.ndarray:
        return np.array(
            [[float(c) for c in h.vector(self.generators)] for h in self.hyperplanes],
            dtype=float,
        ).reshape(len(self.hyperplanes), len(self.generators))


@dataclass(frozen=True)
class PLFunction:
    """A piece per cell of a fan, or a max-min form over break hyperplanes.

    A function from pl_from_maxmin keeps its form, and every evaluation
    goes through it; from three generators up its fan lists only the break
    hyperplanes and no cells, and pieces is empty.
    """

    fan: Fan
    pieces: tuple  # LinearFunctional per cell, aligned with fan.cells
    form: Optional[MaxMinForm] = None


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


def _angle_order(p, q) -> int:
    """Counter-clockwise order of plane vectors, starting at angle 0.

    Upper half-plane (angle in [0, pi)) first, then by cross product within
    a half; no trigonometry, so Fraction inputs compare exactly.
    """
    hp = 0 if p[1] > 0 or (p[1] == 0 and p[0] > 0) else 1
    hq = 0 if q[1] > 0 or (q[1] == 0 and q[0] > 0) else 1
    if hp != hq:
        return hp - hq
    cross = p[0] * q[1] - p[1] * q[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def _planar_cells(vectors) -> dict:
    """Sign string -> witness for the sectors of a central line arrangement.

    Exact for Fraction coefficients: only division, sums and products.
    """
    rays = []
    for a, b in vectors:
        scale = max(abs(a), abs(b))
        r = (-b / scale, a / scale)
        rays += [r, (-r[0], -r[1])]
    if len(vectors) == 1:
        # the two half-planes, witnessed by +/- half the sup-scaled normal
        witnesses = [(y / 2, -x / 2) for x, y in rays]
    else:
        rays.sort(key=cmp_to_key(_angle_order))
        witnesses = [
            ((p[0] + q[0]) / 4, (p[1] + q[1]) / 4)
            for p, q in zip(rays, rays[1:] + rays[:1])
        ]
    cells = {}
    for w in witnesses:
        chars = []
        for a, b in vectors:
            m = a * w[0] + b * w[1]
            if m == 0:
                raise FanError(f"sector witness {w!r} lies on a line")
            chars.append("+" if m > 0 else "-")
        signs = "".join(chars)
        if signs in cells:
            raise FanError(f"two sectors share the sign vector {signs}")
        cells[signs] = w
    return cells


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


def arrangement_fan(
    normals,
    generators,
    exact: bool = False,
    max_cells: int = MAX_CELLS_DEFAULT,
) -> Fan:
    """Fan of the central arrangement of the given normals over one or two
    generators.

    One generator gives the two half-lines, two the planar sort
    (_planar_cells): no LP and no sampling, exact in Fractions.  Cells are
    sorted by sign string, so the result is deterministic.  Raises FanError
    for three or more generators, DegenerateNormalError on a zero normal
    and FanSizeError past the cell cap.
    """
    generators = tuple(generators)
    n = len(generators)
    if not 1 <= n <= 2:
        raise FanError(f"fans take one or two generators, not {n}")
    hyps = dedup_normals(normals, exact)
    h = len(hyps)
    half = Fraction(1, 2) if exact else 0.5
    if h == 0:
        return Fan(generators, (), (Cone("", tuple([half] * n)),))
    if 2 * h > max_cells:
        raise FanSizeError(f"cell count exceeds cap {max_cells}")
    if n == 1:
        # the one canonical normal is +d(a)
        cells = {"+": (half,), "-": (-half,)}
    else:
        cells = _planar_cells([list(hp.vector(generators)) for hp in hyps])
    cones = tuple(Cone(s, cells[s]) for s in sorted(cells))
    return Fan(generators, tuple(hyps), cones)


def _exactify(fn: LinearFunctional) -> LinearFunctional:
    return LinearFunctional(tuple((g, as_fraction(c)) for g, c in fn.items))


def pl_from_maxmin(m: MaxMinForm, generators, exact: bool = False) -> PLFunction:
    """The max-min form as a PLFunction, with its break hyperplanes.

    The hyperplanes are the pairwise differences of the form's functionals:
    off them every group minimum and the overall maximum are attained by
    fixed functionals.  The form is kept and evaluates f.  With one or two
    generators the fan's cells are built too, with the piece read off at
    each witness (adjacent pieces agree on shared boundaries by continuity),
    so pl_equal, pl_pointwise_max, pl_lincomb and JSON apply; from three
    generators up no cells are built.
    """
    generators = tuple(generators)
    if exact:
        m = MaxMinForm(tuple(tuple(_exactify(f) for f in g) for g in m.groups))
    funcs = m.functionals()
    diffs = []
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            d = funcs[i].minus(funcs[j])
            if not d.is_zero:
                diffs.append(d)
    if len(generators) > 2:
        fan = Fan(generators, tuple(dedup_normals(diffs, exact)), ())
        return PLFunction(fan, (), m)
    fan = arrangement_fan(diffs, generators, exact=exact)
    pieces = []
    for cell in fan.cells:
        point = dict(zip(generators, cell.witness))
        best = None
        best_val = None
        for group in m.groups:
            gmin = None
            gmin_f = None
            for f in group:
                v = f.evaluate(point)
                if gmin is None or v < gmin:
                    gmin = v
                    gmin_f = f
            if best_val is None or gmin > best_val:
                best_val = gmin
                best = gmin_f
        pieces.append(best)
    return PLFunction(fan, tuple(pieces), m)


def sup_norm_on_cube(f: PLFunction, exact: bool = False):
    """max |f| over the closed cube [-1, 1]^n, from evaluations alone.

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
    gens = f.fan.generators
    n = len(gens)
    rows = [list(h.vector(gens)) for h in f.fan.hyperplanes]
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
        for x, fx in zip(points, pl_values(f, points, exact)):
            if fx > hi:
                hi = fx
                for j in block:
                    top[j] = x[j]
            if fx < lo:
                lo = fx
                for j in block:
                    bottom[j] = x[j]
    return max(abs(v) for v in pl_values(f, [top, bottom], exact))


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


def _point_signs(fan: Fan, point, exact: bool):
    chars = []
    pd = dict(zip(fan.generators, point))
    tol = 0 if exact else SIGN_TOL
    for hp in fan.hyperplanes:
        v = hp.evaluate(pd)
        if v > tol:
            chars.append("+")
        elif v < -tol:
            chars.append("-")
        else:
            chars.append("0")
    return "".join(chars)


def locate_cell(f_or_fan, point, exact: bool = False) -> int:
    """Index of a cell whose closure contains the point.

    Boundary points (sign '0' somewhere) match several cells; the first one
    in canonical order is returned, which is safe for evaluation because
    incident pieces agree on the boundary.
    """
    fan = f_or_fan.fan if isinstance(f_or_fan, PLFunction) else f_or_fan
    s = _point_signs(fan, point, exact)
    for idx, cell in enumerate(fan.cells):
        ok = True
        for ch, cch in zip(s, cell.signs):
            if ch != "0" and ch != cch:
                ok = False
                break
        if ok:
            return idx
    raise FanError(f"no cell contains point {point!r}; fan incomplete")


def pl_value(f: PLFunction, point, exact: bool = False):
    pd = dict(zip(f.fan.generators, point))
    if f.form is not None:
        return f.form.value(pd)
    return f.pieces[locate_cell(f, point, exact)].evaluate(pd)


def pl_values(f: PLFunction, points, exact: bool = False) -> list:
    """f at each point, as pl_value gives it, except that a float max-min
    form is evaluated at all points in one MaxMinEvaluator.batch call."""
    if f.form is None or exact:
        return [pl_value(f, x, exact) for x in points]
    X = np.array(points, dtype=float).reshape(len(points), len(f.fan.generators))
    return MaxMinEvaluator(f.form, f.fan.generators).batch(X).tolist()


def pl_value_many(f: PLFunction, points: np.ndarray) -> np.ndarray:
    """Vectorized float evaluation at many points (rows): through the
    max-min form when f has one, else one product per cell of points."""
    fan = f.fan
    pts = np.asarray(points, dtype=float)
    if f.form is not None:
        return MaxMinEvaluator(f.form, fan.generators).batch(pts)
    n_pts = pts.shape[0]
    out = np.full(n_pts, np.nan)
    if len(fan.hyperplanes) == 0:
        vec = np.array([float(c) for c in f.pieces[0].vector(fan.generators)])
        return pts @ vec
    margins = pts @ fan.normal_rows().T
    unassigned = np.ones(n_pts, dtype=bool)
    for cell, piece in zip(fan.cells, f.pieces):
        if not unassigned.any():
            break
        mask = unassigned.copy()
        for k, s in enumerate(cell.signs):
            if s == "+":
                mask &= margins[:, k] >= -SIGN_TOL
            else:
                mask &= margins[:, k] <= SIGN_TOL
            if not mask.any():
                break
        if mask.any():
            vec = np.array([float(c) for c in piece.vector(fan.generators)])
            out[mask] = pts[mask] @ vec
            unassigned &= ~mask
    if unassigned.any():
        raise FanError("points not covered by any cell; fan incomplete")
    return out


def _pieces_equal(a: LinearFunctional, b: LinearFunctional, exact: bool) -> bool:
    d = a.minus(b)
    if exact:
        return d.is_zero
    scale = max([1.0] + [abs(c) for _, c in a.items + b.items])
    return all(abs(c) <= 1e-9 * scale for _, c in d.items)


def pl_equal(f: PLFunction, g: PLFunction, exact: bool = False) -> bool:
    """Equality as functions, decided on a common refinement.

    Both inputs must live over the same ordered generator tuple.  On every
    cell of the joint arrangement the two pieces are compared coefficient
    by coefficient (exactly in rational mode; in float mode within 1e-9
    times max(1, the largest |coefficient| of either piece)).
    """
    if f.fan.generators != g.fan.generators:
        raise FanError("pl_equal needs a shared generator tuple")
    normals = list(f.fan.hyperplanes) + list(g.fan.hyperplanes)
    if not normals:
        return _pieces_equal(f.pieces[0], g.pieces[0], exact)
    fan = arrangement_fan(normals, f.fan.generators, exact=exact)
    for cell in fan.cells:
        pf = f.pieces[locate_cell(f, cell.witness, exact)]
        pg = g.pieces[locate_cell(g, cell.witness, exact)]
        if not _pieces_equal(pf, pg, exact):
            return False
    return True


def pl_pointwise_max(f: PLFunction, g: PLFunction, exact: bool = False) -> PLFunction:
    """Pointwise maximum of two PLFunctions over a joint refinement.

    The refinement includes every difference of an f piece and a g piece, so
    the larger function is constant per cell and can be read at the witness.
    """
    if f.fan.generators != g.fan.generators:
        raise FanError("pl_pointwise_max needs a shared generator tuple")
    normals = list(f.fan.hyperplanes) + list(g.fan.hyperplanes)
    for pf in f.pieces:
        for pg in g.pieces:
            d = pf.minus(pg)
            if not d.is_zero:
                normals.append(d)
    fan = arrangement_fan(normals, f.fan.generators, exact=exact)
    pieces = []
    for cell in fan.cells:
        pd = dict(zip(fan.generators, cell.witness))
        pf = f.pieces[locate_cell(f, cell.witness, exact)]
        pg = g.pieces[locate_cell(g, cell.witness, exact)]
        pieces.append(pf if pf.evaluate(pd) >= pg.evaluate(pd) else pg)
    return PLFunction(fan, tuple(pieces))


def pl_lincomb(a, f: PLFunction, b, g: PLFunction, exact: bool = False) -> PLFunction:
    """a*f + b*g as a PLFunction on the joint fan."""
    if f.fan.generators != g.fan.generators:
        raise FanError("pl_lincomb needs a shared generator tuple")
    normals = list(f.fan.hyperplanes) + list(g.fan.hyperplanes)
    fan = arrangement_fan(normals, f.fan.generators, exact=exact)
    pieces = []
    for cell in fan.cells:
        pf = f.pieces[locate_cell(f, cell.witness, exact)]
        pg = g.pieces[locate_cell(g, cell.witness, exact)]
        pieces.append(pf.scaled(a).plus(pg.scaled(b)))
    return PLFunction(fan, tuple(pieces))


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
        "cells": [
            {"signs": c.signs, "witness": [_num_to_json(v) for v in c.witness]}
            for c in fan.cells
        ],
    }


def fan_from_json(obj) -> Fan:
    return Fan(
        tuple(obj["generators"]),
        tuple(_functional_from_json(h) for h in obj["hyperplanes"]),
        tuple(
            Cone(c["signs"], tuple(_num_from_json(v) for v in c["witness"]))
            for c in obj["cells"]
        ),
    )


def plfunction_to_json(f: PLFunction) -> dict:
    if not f.fan.cells:
        raise FanError("a function without cells has no JSON form")
    out = fan_to_json(f.fan)
    out["pieces"] = [_functional_to_json(p) for p in f.pieces]
    return out


def plfunction_from_json(obj) -> PLFunction:
    fan = fan_from_json(obj)
    return PLFunction(fan, tuple(_functional_from_json(p) for p in obj["pieces"]))
