"""Fans and piecewise-linear calculus: enumeration, cube sup norms, equality."""

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import comb

import numpy as np
import pytest

from fblab.expr import (
    MAXMIN_CAP, Gen, Join, LinearFunctional, MaxMinEvaluator, MaxMinSizeError, Meet, Scale,
    SpaceError, Sum, parse_expr, to_maxmin,
)
from fblab import plfan
from fblab.fblnorm import exact_fbl_norm, fbl_space, linf_vertex_space
from fblab.lp import OPTIMAL, solve_lp
from fblab.plfan import (
    DegenerateNormalError,
    FanError,
    PLFunction,
    arrangement_fan,
    fan_from_json,
    fan_to_json,
    pl_equal,
    pl_from_maxmin,
    pl_lincomb,
    pl_pointwise_max,
    pl_value,
    pl_value_many,
    plfunction_from_json,
    plfunction_to_json,
    sup_norm_on_cube,
)
from exprgen import badly_scaled_scalar, random_expr_capped
from stored import stored_from_form


def fn(**coeffs):
    return LinearFunctional.from_map(coeffs)


def rows_of(fan):
    return np.array([[float(c) for c in h.vector(fan.generators)] for h in fan.hyperplanes])


def canonical_lines(normals, exact=False):
    """The normals in canonical form, each once by exact value, in order."""
    return list(dict.fromkeys(plfan.canonical_normal(h, exact) for h in normals))


def break_normals(m, gens, exact=False):
    """The form's break hyperplanes over gens, canonical and deduplicated."""
    return canonical_lines(plfan.pl_parts(m, gens, exact)[0], exact)


def midpoint(cell):
    p, q = cell
    return tuple(a + b for a, b in zip(p, q))


def line_keys(hyps, exact=False):
    """The lines of the normals hyps, canonical, by generators and
    coefficients, the float ones rounded to 12 decimals: a float normal
    derived from a ray may differ from the canonical input normal in its
    last bit."""
    def key(h):
        coeffs = tuple(c for _, c in h.items)
        rounded = coeffs if exact else tuple(np.round(coeffs, 12).tolist())
        return tuple(g for g, _ in h.items), rounded
    return {key(h) for h in canonical_lines(hyps, exact)}


def axis_lines(gens, exact=False):
    one = Fraction(1) if exact else 1.0
    return [LinearFunctional(((g, one),)) for g in gens]


def cell_signs(fan, hyps=None):
    """Sign string of every sector's midpoint p + q against the hyperplanes
    hyps, by default the fan's ('0' where one vanishes), in angular order."""
    out = []
    for cell in fan.cells:
        point = dict(zip(fan.generators, midpoint(cell)))
        margins = [h.evaluate(point) for h in (fan.hyperplanes if hyps is None else hyps)]
        out.append("".join("+" if m > 0 else "-" if m < 0 else "0" for m in margins))
    return out


# ---------------------------------------------------------------------------
# arrangement enumeration


def test_two_hyperplanes_four_quadrants():
    normals = [fn(a=1.0), fn(b=1.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    assert set(fan.hyperplanes) == set(normals)
    assert cell_signs(fan, normals) == ["++", "-+", "--", "+-"]


def test_three_generic_lines_six_sectors():
    normals = [fn(a=1.0), fn(b=1.0), fn(a=1.0, b=1.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    # independent enumeration: sign vectors of a dense random sample
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (20_000, 2))
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    margins = pts @ rows.T
    clear = np.all(np.abs(margins) > 1e-9, axis=1)
    sampled = {
        "".join("+" if v > 0 else "-" for v in row) for row in margins[clear]
    }
    assert len(sampled) == 6
    assert len(fan.cells) == 6
    assert set(cell_signs(fan)) == sampled


def test_witnesses_satisfy_their_signs():
    # no line crosses the inside of a sector: every hyperplane has one sign
    # on both of its rays (or vanishes there) and that sign at the midpoint
    normals = [fn(a=1.0), fn(b=1.0), fn(a=1.0, b=-2.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    rows = rows_of(fan)
    for cell, signs in zip(fan.cells, cell_signs(fan)):
        assert "0" not in signs
        for s, m in zip(signs, rows @ np.array(cell).T):
            assert all(v >= 0 if s == "+" else v <= 0 for v in m)


def test_fan_is_deterministic():
    normals = [fn(a=1.0, b=0.5), fn(b=1.0), fn(a=-1.0, b=2.0)]
    assert arrangement_fan(normals, ("a", "b")) == arrangement_fan(normals, ("a", "b"))


def test_duplicate_normals_collapse():
    # three normals of the line a + b = 0: its two rays and the four axes
    fan = arrangement_fan([fn(a=1.0, b=1.0), fn(a=2.0, b=2.0), fn(a=-3.0, b=-3.0)], ("a", "b"))
    assert len(fan.rays) == 6
    assert fan.hyperplanes == (fn(b=1.0), fn(a=1.0), fn(a=1.0, b=1.0))


def test_zero_normal_rejected():
    with pytest.raises(DegenerateNormalError):
        arrangement_fan([fn(a=0.0)], ("a", "b"))


def test_fans_take_two_generators():
    for gens in ((), ("a",), ("a", "b", "c")):
        with pytest.raises(FanError, match="fans take two generators"):
            arrangement_fan([fn(a=1.0)], gens)


# ---------------------------------------------------------------------------
# the two-generator kernel, checked by direct sign computation


def random_lines(rng, h, exact):
    """h pairwise non-parallel lines through the origin, as normals over (a, b)."""
    pairs = []
    while len(pairs) < h:
        a, b = (int(v) for v in rng.integers(-6, 7, 2))
        if (a, b) != (0, 0) and all(a * q - b * p != 0 for p, q in pairs):
            pairs.append((a, b))
    num = Fraction if exact else float
    return [fn(a=num(a), b=num(b)) for a, b in pairs]


@pytest.mark.parametrize("exact", [False, True])
def test_planar_fan_has_two_cells_per_line(exact):
    # two sectors per line, and two more for each axis that is not a line
    rng = np.random.default_rng(61)
    for h in (1, 1, 2, 3, 4, 5, 6, 8, 10):
        normals = random_lines(rng, h, exact)
        fan = arrangement_fan(normals, ("a", "b"), exact=exact)
        on_axes = sum(len(hp.items) == 1 for hp in normals)
        # the lines, and the axes that are not among them
        assert line_keys(fan.hyperplanes, exact) == line_keys(
            normals + axis_lines("ab", exact), exact)
        assert len(fan.hyperplanes) == h + 2 - on_axes
        assert len(fan.cells) == 2 * h + 4 - 2 * on_axes
        assert len(set(cell_signs(fan, normals))) == 2 * h


@pytest.mark.parametrize("exact", [False, True])
def test_planar_witnesses_are_strictly_inside(exact):
    rng = np.random.default_rng(67)
    for h in (1, 2, 3, 5, 8):
        fan = arrangement_fan(random_lines(rng, h, exact), ("a", "b"), exact=exact)
        assert all("0" not in signs for signs in cell_signs(fan))
        for r in fan.rays:
            assert max(abs(v) for v in r) == 1
            if exact:
                assert all(isinstance(v, Fraction) for v in r)
        for p, q in fan.cells:
            assert p[0] * q[1] - p[1] * q[0] > 0  # counter-clockwise, under pi


def test_planar_fan_contains_every_sampled_sign_vector():
    rng = np.random.default_rng(71)
    for exact in (False, True):
        for h in (1, 3, 6, 9):
            fan = arrangement_fan(random_lines(rng, h, exact), ("a", "b"), exact=exact)
            theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
            pts = np.column_stack((np.cos(theta), np.sin(theta)))
            margins = pts @ rows_of(fan).T
            clear = np.abs(margins).min(axis=1) > 1e-9
            sampled = {
                "".join("+" if v > 0 else "-" for v in row) for row in margins[clear]
            }
            assert sampled <= set(cell_signs(fan))


def test_planar_fan_badly_scaled_lines():
    normals = [fn(a=1.0, b=1e-7), fn(b=1.0), fn(a=1.0, b=1.0 + 1e-10), fn(a=1e6, b=-1.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    assert len(fan.cells) == 10  # the four lines, and the axis a = 0
    assert line_keys(fan.hyperplanes) == line_keys(normals + [fn(a=1.0)])
    signs = cell_signs(fan, normals)
    assert len(set(signs)) == 8 and all("0" not in s for s in signs)


# ---------------------------------------------------------------------------
# three generators and up: no fan, evaluation through the form, and the
# exact cell enumeration the references below use


def cube_lp(gens, hyps, signs, objective, margin=False):
    """Exact LP over x = u - v in the closed cell of a sign string against
    the hyperplanes hyps, with 0 <= u, v <= 1.

    signs may be a prefix, which constrains the first hyperplanes only.
    The columns are u, v and, with margin, a t <= 1 that every signed row
    must clear (sign * h.x >= t).  Maximizes objective.
    """
    width = 2 * len(gens) + margin
    rows = []
    for hp, s in zip(hyps, signs):
        r = [(-1 if s == "+" else 1) * Fraction(v) for v in hp.vector(gens)]
        rows.append(r + [-v for v in r] + [1] * margin)
    b = [0] * len(rows) + [1] * width
    rows += [[int(k == j) for k in range(width)] for j in range(width)]
    return solve_lp(objective, A_ub=rows, b_ub=b, exact=True)


def exact_cells(gens, hyps):
    """Sign string -> interior point of every cell of the arrangement of hyps.

    Depth first over the hyperplanes: a prefix of signs is extended only
    while the exact margin LP finds a point of the cube that clears every
    signed row by some t > 0.
    """
    n = len(gens)
    cells = {}
    stack = [""]
    while stack:
        signs = stack.pop()
        res = cube_lp(gens, hyps, signs, [0] * (2 * n) + [1], margin=True)
        if res.status != OPTIMAL or res.value <= 0:
            continue
        if len(signs) < len(hyps):
            stack += [signs + "+", signs + "-"]
        else:
            cells[signs] = [u - v for u, v in zip(res.x[:n], res.x[n:2 * n])]
    return cells


def generic_normals(rng, n, h, exact):
    """h integer normals in R^n, every min(n, h) of them independent."""
    gens = "abcd"[:n]
    num = Fraction if exact else float
    while True:
        rows = rng.integers(-5, 6, (h, n))
        k = min(n, h)
        if all(
            np.linalg.matrix_rank(rows[list(sub)]) == k
            for sub in itertools.combinations(range(h), k)
        ):
            return [fn(**{g: num(int(v)) for g, v in zip(gens, row) if v}) for row in rows]


def zaslavsky_generic(n, h):
    """Cells of a generic central arrangement of h hyperplanes in R^n."""
    return 2 * sum(comb(h - 1, k) for k in range(n))


@pytest.mark.parametrize("exact", [False, True])
def test_generic_fans_match_zaslavsky_count(exact):
    # two generators: the fan's cells; three and four: the exact
    # enumeration that the cube sup references below rely on.  Both
    # parameters draw the same integer normals, and the enumeration's LPs
    # are exact in either arithmetic, so it runs once, on the Fractions.
    rng = np.random.default_rng(73)
    for n, hs in ((2, (1, 2, 3, 5, 8)), (3, (1, 2, 3, 4, 5, 7)), (4, (2, 4, 5))):
        gens = "abcd"[:n]
        for h in hs:
            normals = generic_normals(rng, n, h, exact)
            hyps = canonical_lines(normals, exact)
            if n == 2:
                # the fan also lists the axes that are not among the lines
                fan = arrangement_fan(normals, gens, exact=exact)
                assert line_keys(fan.hyperplanes, exact) == line_keys(
                    normals + axis_lines(gens, exact), exact)
                assert len(fan.cells) <= 2 * h + 4
                assert len(set(cell_signs(fan, hyps))) == zaslavsky_generic(n, h)
            elif exact:
                assert len(set(exact_cells(gens, hyps))) == zaslavsky_generic(n, h)
            assert len(hyps) == h


@pytest.mark.parametrize("exact", [False, True])
def test_rank_two_arrangement_in_three_dimensions_is_planar(exact):
    # a function of a and b over (a, b, c): its break planes contain the c
    # axis, so their cells are the planar sectors, and its norm and cube sup
    # are those over (a, b) (l1 over (a, b) is 1-complemented in l1 over
    # (a, b, c), so FBL norms agree), for the form and its stored function;
    # the cube sup of -f is that of f
    rng = np.random.default_rng(79)
    num = Fraction if exact else float
    for _ in range(4):
        m = to_maxmin(random_expr_capped(rng, ("a", "b"), max_size=12))
        f2 = stored_from_form(m, ("a", "b"), exact=exact)
        breaks = break_normals(m, ("a", "b", "c"), exact)
        assert line_keys(f2.fan.hyperplanes, exact) == line_keys(
            breaks + axis_lines("ab", exact), exact)
        assert set(exact_cells(("a", "b", "c"), breaks)) == set(cell_signs(f2.fan, breaks))
        n2 = exact_fbl_norm(m, fbl_space(("a", "b")), exact=exact)
        n3 = exact_fbl_norm(m, fbl_space(("a", "b", "c")), exact=exact)
        s2, s3 = sup_norm_on_cube(m, "ab", exact=exact), sup_norm_on_cube(m, "abc", exact=exact)
        assert isinstance(n3.upper, num) and isinstance(s3, num)
        if exact:
            assert n3.lower == n3.upper == n2.upper == n2.lower
            assert exact_fbl_norm(f2, fbl_space(("a", "b")), exact=True).upper == n2.upper
            assert s3 == s2 == sup_norm_on_cube(m.negated(MAXMIN_CAP), "ab", exact=True)
        else:
            assert n3.upper == pytest.approx(n2.upper, rel=1e-12)
            assert n3.lower == pytest.approx(n2.lower, rel=1e-12)
            assert s3 == pytest.approx(s2, rel=1e-12)


def test_thin_cells_between_nearly_parallel_planes():
    # planes x = y and x = 0.9999999999*y (likewise for z) bound cells
    # thinner than float rounding; norm and cube sup need none of them
    e = parse_expr("(0.9999999999*(((d(b)) v (d(b))) ^ ((d(a)) v (d(c))))) ^ (d(a))")
    gens = ("a", "b", "c")
    m = to_maxmin(e)
    assert len(exact_cells(gens, break_normals(m, gens, exact=True))) == 24
    space = fbl_space(gens)
    norm = exact_fbl_norm(m, space)
    exact_norm = exact_fbl_norm(m, space, exact=True)
    assert exact_norm.lower == exact_norm.upper == 1 + Fraction(0.9999999999)
    assert norm.upper == pytest.approx(float(exact_norm.upper), rel=1e-12)
    assert norm.lower == pytest.approx(float(exact_norm.upper), rel=1e-12)
    assert sup_norm_on_cube(m, gens, exact=True) == 1
    assert sup_norm_on_cube(m, gens) == 1


def coverage_count(fan, point):
    x, y = point
    cross = [(p[0] * y - p[1] * x, x * q[1] - y * q[0]) for p, q in fan.cells]
    if any(abs(c) <= 1e-12 for pair in cross for c in pair):
        return None  # on a ray; perturbation would resolve it
    return sum(1 for a, b in cross if a > 0 and b > 0)


def test_coverage_exactly_one_cell_per_point():
    rng = np.random.default_rng(17)
    normals = [fn(a=1.0), fn(b=1.0), fn(a=1.0, b=1.0), fn(a=1.0, b=-1.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    hits = 0
    for _ in range(1000):
        p = rng.uniform(-1.0, 1.0, 2)
        c = coverage_count(fan, p)
        if c is not None:
            assert c == 1
            hits += 1
    assert hits > 900


def test_point_on_a_ray_takes_the_sector_that_starts_there():
    # piece i is (i + 1)(a + b), so the two sides of every axis ray differ
    fan = arrangement_fan([fn(a=1.0), fn(b=1.0)], ("a", "b"))
    f = PLFunction(fan, tuple(fn(a=k, b=k) for k in (1.0, 2.0, 3.0, 4.0)))
    points = [(1.0, 0.0), (1.0, -0.0), (0.0, 2.0), (-3.0, 0.0), (0.0, -0.5), (0.5, 0.5),
              (0.0, 0.0), (1.0, -1e-300)]
    want = [1.0, 1.0, 4.0, -9.0, -2.0, 1.0, 0.0, 4.0 * (1.0 - 1e-300)]
    assert [pl_value(f, x) for x in points] == want
    assert pl_value_many(f, np.array(points)).tolist() == want


def division_angle(p):
    """_angle with a division in every branch."""
    x, y = p
    if x > 0 and x >= abs(y):
        return y / x if y >= 0 else 8 + y / x
    if y > 0 and y >= abs(x):
        return 2 - x / y
    if x < 0 and -x >= abs(y):
        return 4 + y / x
    if y < 0:
        return 6 - x / y
    return 0


def test_angle_reads_unit_divisors_off_as_the_division_would():
    """Same value, type and zero sign as dividing, on sup-scaled rays (a
    +/-1 divisor), on other points, and on both axes with signed zeros, in
    Fractions and floats; the floats are also _angles'."""
    rng = np.random.default_rng(641)
    raw = [tuple(int(v) for v in rng.integers(-9, 10, 2)) for _ in range(400)]
    raw = [r for r in raw if r != (0, 0)]
    fractions = [tuple(Fraction(v, 7) for v in r) for r in raw]
    fractions += [tuple(v / max(abs(c) for c in r) for v in r) for r in fractions]
    floats = [tuple(v / 7 for v in r) for r in raw]
    floats += [tuple(v / max(abs(c) for c in r) for v in r) for r in floats]
    floats += [(x, y) for x in (1.0, -1.0, 0.0, -0.0, 0.5) for y in (1.0, -1.0, 0.0, -0.0)]
    for p in fractions + floats:
        got, want = plfan._angle(p), division_angle(p)
        assert (type(got), repr(got)) == (type(want), repr(want)), p
    assert [plfan._angle(p) for p in floats] == plfan._angles(np.array(floats)).tolist()


# ---------------------------------------------------------------------------
# max-min forms: pl_parts, pl_from_maxmin, and stored functions built from them


def test_pl_parts_of_a_form():
    m = to_maxmin(parse_expr("(d(a) ^ 0.5*d(b)) v d(c)"))
    gens = ("a", "b", "c")
    for exact, num in ((False, float), (True, Fraction)):
        breaks, zero_sets, values, value = plfan.pl_parts(m, gens, exact)
        assert zero_sets == m.functionals()
        assert [d.vector(gens) for d in breaks] == [(1, -0.5, 0), (1, 0, -1), (0, 0.5, -1)]
        points = [(num(1), num(2), num(-1)), (num(-1), num(0), num(3))]
        assert values(points) == [value(x) for x in points] == [1, 3]
        assert all(isinstance(v, num) for v in values(points))


def test_pl_parts_of_a_stored_function():
    f = stored_from_form(to_maxmin(parse_expr("|d(a)| v d(b)")), ("a", "b"))
    breaks, zero_sets, values, value = plfan.pl_parts(f, ("a", "b"))
    assert (breaks, zero_sets) == (f.fan.hyperplanes, f.pieces)
    assert values([(-2.0, 1.0), (0.5, 1.0)]) == [value((-2.0, 1.0)), 1.0] == [2.0, 1.0]
    with pytest.raises(SpaceError):
        plfan.pl_parts(f, ("b", "a"))


def test_pl_from_maxmin_returns_the_form():
    m = to_maxmin(parse_expr("0.5*d(a) v d(b)"))
    assert pl_from_maxmin(m, ("a", "b")) is m
    assert pl_from_maxmin(m, ("a", "b", "c"), exact=True) == plfan._exact_form(m)
    assert pl_from_maxmin(m, ("a", "b"), exact=True).groups[0][0].items == (
        ("a", Fraction(1, 2)),)


def test_fans_have_at_least_two_rays():
    with pytest.raises(FanError):
        plfan.Fan(("a", "b", "c"), ())


def test_join_splits_on_difference():
    f = stored_from_form(to_maxmin(parse_expr("d(a) v d(b)")), ("a", "b"))
    diff = fn(a=1.0, b=-1.0)
    assert set(f.fan.hyperplanes) == {diff, fn(a=1.0), fn(b=1.0)}  # and the axes
    signs = cell_signs(f.fan, [diff])
    by_sign = {s: {p.vector(("a", "b")) for t, p in zip(signs, f.pieces) if t == s}
               for s in "+-"}
    assert by_sign == {"+": {(1.0, 0.0)}, "-": {(0.0, 1.0)}}


def test_agreement_with_maxmin_at_random_points():
    rng = np.random.default_rng(23)
    gens = ("a", "b")
    for _ in range(10):
        e = random_expr_capped(rng, gens)
        m = to_maxmin(e)
        f = stored_from_form(m, gens)
        pts = rng.uniform(-1.0, 1.0, (1000, 2))
        got = pl_value_many(f, pts)
        want = np.array([m.value(dict(zip(gens, p))) for p in pts])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_boundary_continuity():
    rng = np.random.default_rng(29)
    gens = ("a", "b")
    for _ in range(5):
        e = random_expr_capped(rng, gens)
        f = stored_from_form(to_maxmin(e), gens)
        # the pieces on both sides of every ray agree on it
        for i, r in enumerate(f.fan.rays):
            point = dict(zip(gens, r))
            assert abs(f.pieces[i - 1].evaluate(point) - f.pieces[i].evaluate(point)) <= 1e-9


# ---------------------------------------------------------------------------
# sup norm on the cube


def test_sup_norm_generator():
    assert sup_norm_on_cube(to_maxmin(Gen("a")), ("a",)) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_sum_of_abs():
    f = to_maxmin(parse_expr("|d(a)| + |d(b)|"))
    assert sup_norm_on_cube(f, ("a", "b")) == pytest.approx(2.0, abs=1e-9)


def test_sup_norm_difference():
    f = to_maxmin(parse_expr("d(a) - d(b)"))
    assert sup_norm_on_cube(f, ("a", "b")) == pytest.approx(2.0, abs=1e-9)


def test_sup_norm_dominates_sampling():
    rng = np.random.default_rng(31)
    gens = ("a", "b")
    for _ in range(5):
        e = random_expr_capped(rng, gens)
        m = to_maxmin(e)
        sup = sup_norm_on_cube(m, gens)
        pts = rng.uniform(-1.0, 1.0, (10_000, 2))
        sampled = float(np.max(np.abs(MaxMinEvaluator(m, gens).batch(pts))))
        assert sup >= sampled - 1e-9


def test_sup_norm_exact_mode():
    f = to_maxmin(parse_expr("0.5*d(a) - 0.25*d(b)"))
    assert sup_norm_on_cube(f, ("a", "b"), exact=True) == Fraction(3, 4)


def lp_sup_norm_on_cube(m, gens, hyps, cells):
    """Reference: max of +/- m over every closed cell of hyps, two exact
    LPs each.

    On a cell m is the functional of the form that attains it at the cell's
    interior point.
    """
    _, funcs, _, value = plfan.pl_parts(m, gens, exact=True)
    best = Fraction(0)
    for signs, x in cells.items():
        point = dict(zip(gens, x))
        piece = next(p for p in funcs if p.evaluate(point) == value(x))
        vec = [Fraction(v) for v in piece.vector(gens)]
        for sign in (1, -1):
            c = [sign * v for v in vec]
            res = cube_lp(gens, hyps, signs, c + [-v for v in c])
            assert res.status == OPTIMAL
            best = max(best, res.value)
    return best


def join_of_meets(rng, gens, groups=2, size=2):
    """A join of meets of linear forms with coefficients in quarters."""
    def linear_form():
        coeffs = (float(Fraction(int(rng.integers(-8, 9)), 4)) for _ in gens)
        return reduce(Sum, (Scale(c, Gen(g)) for c, g in zip(coeffs, gens)))

    return reduce(Join, [reduce(Meet, [linear_form() for _ in range(size)])
                         for _ in range(groups)])


@pytest.mark.parametrize("n,count", [(2, 4), (3, 3)])
def test_ray_sup_norm_matches_per_cell_lp(n, count):
    rng = np.random.default_rng(41 + n)
    gens = "abc"[:n]
    exprs = [join_of_meets(rng, gens) for _ in range(count)]
    if n == 3:
        # breaks a - b, a - 2c and b - 2c: three rows of rank 2
        exprs.append(parse_expr("((d(a) v d(b)) ^ (d(b) v 2*d(c))) - 0.75*d(c)"))
    for e in exprs:
        m = to_maxmin(e)
        hyps = break_normals(m, gens, exact=True)
        cells = exact_cells(gens, hyps)
        assert len(cells) > 2
        reference = lp_sup_norm_on_cube(m, gens, hyps, cells)
        assert sup_norm_on_cube(m, gens, exact=True) == reference
        assert sup_norm_on_cube(m, gens) == pytest.approx(float(reference), rel=1e-12)


def test_ray_sup_norm_matches_per_cell_lp_in_four_generators():
    rng = np.random.default_rng(47)
    gens = "abcd"
    summed = Sum(join_of_meets(rng, "ab", size=1), join_of_meets(rng, "cd", size=1))
    for e in (summed, join_of_meets(rng, gens)):
        m = to_maxmin(e)
        hyps = break_normals(m, gens, exact=True)
        cells = exact_cells(gens, hyps)
        assert len(cells) > 2
        reference = lp_sup_norm_on_cube(m, gens, hyps, cells)
        assert sup_norm_on_cube(m, gens, exact=True) == reference
        assert sup_norm_on_cube(m, gens) == pytest.approx(float(reference), rel=1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_sup_norm_in_eight_generators_by_blocks(exact):
    gens = "abcdefgh"
    cases = (
        ("d(a) + d(b) + d(c) + d(d) + d(e) + d(f) + d(g) + d(h)", 8),
        ("((d(a) v d(b)) ^ (d(c) v d(d))) + d(e) + d(f) + d(g) + d(h)", 5),
        ("(d(a) v d(b)) + (d(c) ^ d(d)) - |d(e) - d(f)| + 0.5*d(g) - d(h)", 5.5),
    )
    for text, expected in cases:
        assert sup_norm_on_cube(to_maxmin(parse_expr(text)), gens, exact=exact) == expected


@pytest.mark.parametrize("exact", [False, True])
def test_sup_norm_takes_a_block_at_its_origin(exact):
    # -|a| + 2|b|: max f = 0 + 2 needs a = 0
    f = to_maxmin(parse_expr("-|d(a)| + 2*|d(b)|"))
    assert sup_norm_on_cube(f, "ab", exact=exact) == 2


@pytest.mark.parametrize("exact", [False, True])
def test_sup_norm_of_the_sum_of_sixteen_and_seventeen_generators(exact):
    for gens, expected in (("abcdefghijklmnop", 16), ("abcdefghijklmnopq", 17)):
        f = to_maxmin(parse_expr("|" + " + ".join(f"d({g})" for g in gens) + "|"))
        assert sup_norm_on_cube(f, gens, exact=exact) == expected


def test_sup_norm_of_a_form_whose_negation_absorbs_groups():
    # f = 1.621|a| + g with -1 <= g <= 1 on the cube and g(1, 1) = 1; the
    # choice functions through f's groups number past the cap, while -f's
    # form, with no group inside another, fits
    e = parse_expr("1.621*(d(a) v -1.0*d(a)) + "
                   "((d(a) v (d(b) v -1.0*d(b))) ^ (1.497*d(b) v (d(b) v d(b))))")
    m = to_maxmin(e)
    assert to_maxmin(Scale(-1.0, e)) == m.negated(MAXMIN_CAP)
    assert sup_norm_on_cube(m, "ab", exact=True) == Fraction(1.621) + 1
    assert sup_norm_on_cube(m, "ab") == 1.621 + 1.0


def test_sup_norm_keeps_a_coefficient_below_the_simplex_tolerance():
    # at unit scale the 1 of d(d) is 1e-12 of the 1e12 of d(c)
    m = to_maxmin(parse_expr("1000000.0*(1000000.0*(d(c) v -1.0*d(c))) + d(d)"))
    assert sup_norm_on_cube(m, "cd") == 1000000000001.0
    assert sup_norm_on_cube(m, "cd", exact=True) == 1000000000001


def test_sup_norm_raises_where_the_negated_form_passes_the_cap():
    # five meets of seven functionals, no two shared: -f needs 7^5 groups
    # of five, none inside another
    meets = [reduce(Meet, [Scale(float(7 * i + j + 1), Gen("a")) for j in range(7)])
             for i in range(5)]
    m = to_maxmin(reduce(Join, meets))
    assert m.size == 35
    with pytest.raises(MaxMinSizeError):
        sup_norm_on_cube(m, "a")


def test_float_sup_norm_is_the_rounded_exact_one_on_badly_scaled_forms():
    rng = np.random.default_rng(53)
    for n in (1, 2, 3):
        gens = "abc"[:n]
        for _ in range(8):
            m = to_maxmin(random_expr_capped(rng, gens, max_size=24, scalar=badly_scaled_scalar))
            exact = float(sup_norm_on_cube(m, gens, exact=True))
            assert sup_norm_on_cube(m, gens) == pytest.approx(exact, rel=1e-15)


# ---------------------------------------------------------------------------
# equality, max, linear combinations


def exact_stored(text, gens):
    return stored_from_form(to_maxmin(parse_expr(text)), gens, exact=True)


def test_pl_equal_join_idempotent():
    assert pl_equal(exact_stored("d(a) v d(a)", "ab"), exact_stored("d(a)", "ab"))


def test_pl_equal_abs_as_join():
    a, b = exact_stored("|d(a)|", "ab"), exact_stored("d(a) v -d(a)", "ab")
    assert pl_equal(a, b)


def test_pl_not_equal_different_generators_values():
    a, b = exact_stored("d(a)", "ab"), exact_stored("d(b)", "ab")
    assert not pl_equal(a, b)


def test_pl_equal_compares_both_rays_of_a_sector():
    # g differs from f on the first quadrant only, where a + b and a agree
    # at the sector's first ray (1, 0) but not at its second, (0, 1)
    one = Fraction(1)
    fan = arrangement_fan([fn(a=one), fn(b=one)], ("a", "b"), exact=True)
    f = PLFunction(fan, (fn(a=one),) * 4)
    g = PLFunction(fan, (fn(a=one, b=one),) + (fn(a=one),) * 3)
    assert pl_equal(f, f)
    assert not pl_equal(f, g)


def test_pointwise_max_matches_join():
    gens = ("a", "b")
    fmax = pl_pointwise_max(exact_stored("d(a)", gens), exact_stored("d(b)", gens))
    assert pl_equal(fmax, exact_stored("d(a) v d(b)", gens))


def test_pointwise_max_lists_a_break_on_an_axis_ray():
    # (a + b) v (a - b) = a + |b| changes pieces on the axis ray (1, 0),
    # where neither operand breaks; without b among the hyperplanes the
    # norm of F = a + |b| - 2|a| misses the point (-1, 0), where |F| = 3.
    # b is the line of that ray, and a the line of the axis ray (0, 1).
    gens = ("a", "b")
    for exact in (False, True):
        def P(s):
            return stored_from_form(to_maxmin(parse_expr(s)), gens, exact=exact)

        m = pl_pointwise_max(P("d(a) + d(b)"), P("d(a) - d(b)"))
        assert [h.vector(gens) for h in m.fan.hyperplanes] == [(0, 1), (1, 0)]
        F = pl_lincomb(1, m, -2, P("|d(a)|"))
        norm = exact_fbl_norm(F, linf_vertex_space(gens), exact=exact)
        assert norm.lower == norm.upper == 3


def unlisted_breaks(f, hyps=None):
    """Rays where the pieces on their two sides differ but no hyperplane of
    hyps, by default the fan's, vanishes (exact pieces)."""
    gens = f.fan.generators
    out = []
    for i, r in enumerate(f.fan.rays):
        point = dict(zip(gens, r))
        if (not f.pieces[i - 1].minus(f.pieces[i]).is_zero
                and all(h.evaluate(point) != 0
                        for h in (f.fan.hyperplanes if hyps is None else hyps))):
            out.append(r)
    return out


def test_results_list_every_line_they_break_on():
    # integer scalars make piece differences vanish on the axes often
    rng = np.random.default_rng(31)
    gens = ("a", "b")

    def scalar(r):
        return float(r.choice((-1.0, 1.0, 2.0)))

    on_axes = 0  # maxima that break on an axis ray neither operand breaks on
    for _ in range(40):
        forms = [to_maxmin(random_expr_capped(rng, gens, 3, 12, scalar)) for _ in range(2)]
        f, g = (stored_from_form(form, gens, exact=True) for form in forms)
        m = pl_pointwise_max(f, g)
        assert unlisted_breaks(m) == []
        assert unlisted_breaks(pl_lincomb(2, m, -1, f)) == []
        operand_lines = [h for form in forms for h in break_normals(form, gens, True)]
        on_axes += any(0 in r for r in unlisted_breaks(m, operand_lines))
    assert on_axes >= 5


def test_lincomb_matches_expression():
    gens = ("a", "b")
    combo = pl_lincomb(2, exact_stored("|d(a)|", gens), -1, exact_stored("d(b)", gens))
    assert pl_equal(combo, exact_stored("2*|d(a)| - d(b)", gens))


def sorted_union_refine(f, g):
    """_refine's rays, angles and piece pairs by brute force: every ray of f
    and then of g sorted by _angle, the first of each angle kept, and per
    merged ray the pieces that bisecting its angle in each operand picks."""
    by_angle = {}
    for r in f.fan.rays + g.fan.rays:
        by_angle.setdefault(plfan._angle(r), r)
    angles = sorted(by_angle)

    def piece(h, a):
        return h.pieces[bisect_right([plfan._angle(r) for r in h.fan.rays], a) - 1]

    return [by_angle[a] for a in angles], angles, [(piece(f, a), piece(g, a)) for a in angles]


@pytest.mark.parametrize("exact", [False, True])
def test_refine_is_the_sorted_union_of_both_fans(exact):
    # g = s v t breaks on every line f = s breaks on, so the operands share
    # rays beyond the axes; a maximum and a combination go through _refine
    # again with the angles it cached.  Rays are compared by repr, since a
    # float ray may hold -0.0 where the other operand's has 0.0 at the same
    # angle, and the tie keeps the first operand's.
    rng = np.random.default_rng(41)

    def scalar(r):
        return float(r.choice((-1.0, 1.0, 2.0)))

    shared = 0  # pairs with a ray of both operands off the axes
    signed_zero_ties = 0
    gens = ("a", "b")
    for _ in range(25):
        s, t = (random_expr_capped(rng, gens, 3, 12, scalar) for _ in range(2))
        f, g, h = (stored_from_form(to_maxmin(e), gens, exact=exact)
                   for e in (s, Join(s, t), t))
        shared += len(set(f.fan.angles) & set(g.fan.angles)) > 4
        for a, b in ((f, g), (g, f), (f, h), (h, f), (pl_pointwise_max(f, h), f),
                     (g, pl_lincomb(2, f, -1, h))):
            fan, pairs = plfan._refine(a, b, "refine")
            rays, angles, want = sorted_union_refine(a, b)
            assert repr(fan.rays) == repr(tuple(rays))
            assert fan.angles == tuple(angles) == tuple(plfan._angle(r) for r in fan.rays)
            assert pairs == want
            assert set(fan.hyperplanes) == set(a.fan.hyperplanes + b.fan.hyperplanes)
            signed_zero_ties += repr(a.fan.rays[0]) != repr(b.fan.rays[0])
    assert shared >= 5
    assert exact or signed_zero_ties >= 5


# ---------------------------------------------------------------------------
# JSON round trips


def test_fan_json_roundtrip():
    fan = arrangement_fan([fn(a=1.0), fn(b=1.0)], ("a", "b"))
    assert fan_from_json(fan_to_json(fan)) == fan


def test_a_fan_read_from_a_document_takes_two_generators():
    # over one generator and over three, in today's format and in the
    # earlier witness format, which rebuilds its rays from two coordinates
    # of each hyperplane
    for gens in ("a", "abc"):
        ray, back = ([s * float(g == "a") for g in gens] for s in (1, -1))
        fan = {"generators": list(gens), "rays": [ray, back]}
        cells = {"generators": list(gens), "hyperplanes": [{"a": 1.0}],
                 "cells": [{"witness": ray}, {"witness": back}]}
        pieces = {"pieces": [{"a": 1.0}, {"a": -1.0}]}
        for read, doc in ((fan_from_json, fan), (plfunction_from_json, dict(fan, **pieces)),
                          (plfunction_from_json, dict(cells, **pieces))):
            with pytest.raises(FanError, match=f"fans take two generators, not {len(gens)}"):
                read(doc)


def test_plfunction_json_roundtrip():
    f = stored_from_form(to_maxmin(parse_expr("d(a) v (d(b) + 0.5*d(a))")), ("a", "b"))
    doc = plfunction_to_json(f)
    assert list(doc) == ["generators", "rays", "pieces"]
    assert plfunction_from_json(doc) == f


def test_plfunction_json_roundtrip_exact():
    f = exact_stored("0.5*d(a) v d(b)", ("a", "b"))
    g = plfunction_from_json(plfunction_to_json(f))
    assert g == f
    assert pl_equal(f, g)


@pytest.mark.parametrize("exact", [False, True])
def test_a_loaded_function_keeps_its_norm_with_a_repeated_unscaled_hyperplane(exact):
    """Earlier documents list hyperplanes, possibly unscaled and twice;
    today's list none.  The reader takes the lines from the rays, so every
    such document loads to the same function, with the same norm."""
    text = "(0.1*d(a) ^ d(b)) v (0.3*d(b) - 0.7*d(a)) v (-0.9*d(a) + 0.2*d(b))"
    f = stored_from_form(to_maxmin(parse_expr(text)), ("a", "b"), exact=exact)
    space = fbl_space(("a", "b"))
    want = exact_fbl_norm(f, space, exact=exact)
    doc = plfunction_to_json(f)

    def listing(hyps):
        return dict(doc, hyperplanes=[plfan._functional_to_json(h) for h in hyps])

    docs = [doc, listing(f.fan.hyperplanes)]
    docs += [listing((h.scaled(-2),) + f.fan.hyperplanes + (h.scaled(4),))
             for h in f.fan.hyperplanes]
    for k, d in enumerate(docs):
        g = plfunction_from_json(d)
        got = exact_fbl_norm(g, space, exact=exact)
        assert g == f and g.fan.hyperplanes == f.fan.hyperplanes, k
        assert (got.lower, got.upper, got.certificate, got.diagnostics) == (
            want.lower, want.upper, want.certificate, want.diagnostics), k
