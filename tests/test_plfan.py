"""Fans and piecewise-linear calculus: enumeration, cube sup norms, equality."""

import itertools
from fractions import Fraction
from functools import reduce
from math import comb

import numpy as np
import pytest

from fblab.expr import (
    Gen, Join, LinearFunctional, Meet, Scale, Sum, absval, parse_expr, to_maxmin,
)
from fblab import plfan
from fblab.fblnorm import exact_fbl_norm, fbl_space
from fblab.lp import OPTIMAL, solve_lp
from fblab.plfan import (
    DegenerateNormalError,
    FanError,
    FanSizeError,
    PLFunction,
    arrangement_fan,
    fan_from_json,
    fan_to_json,
    pl_equal,
    pl_from_maxmin,
    pl_lincomb,
    pl_pointwise_max,
    pl_value_many,
    plfunction_from_json,
    plfunction_to_json,
    sup_norm_on_cube,
)
from exprgen import random_expr_capped


def fn(**coeffs):
    return LinearFunctional.from_map(coeffs)


def cell_signs(fan):
    return {c.signs for c in fan.cells}


# ---------------------------------------------------------------------------
# arrangement enumeration


def test_one_hyperplane_two_cells():
    for num, exact in ((float, False), (Fraction, True)):
        fan = arrangement_fan([fn(a=num(1)), fn(a=num(-3))], ("a",), exact=exact)
        assert cell_signs(fan) == {"+", "-"}
        assert len(fan.cells) == 2


def test_two_hyperplanes_four_quadrants():
    fan = arrangement_fan([fn(a=1.0), fn(b=1.0)], ("a", "b"))
    assert cell_signs(fan) == {"++", "+-", "-+", "--"}


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
    assert cell_signs(fan) == sampled


def test_witnesses_satisfy_their_signs():
    normals = [fn(a=1.0), fn(b=1.0), fn(a=1.0, b=-2.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    rows = fan.normal_rows()
    for cell in fan.cells:
        margins = rows @ np.array([float(v) for v in cell.witness])
        for s, m in zip(cell.signs, margins):
            assert m > 0 if s == "+" else m < 0


def test_fan_is_deterministic():
    normals = [fn(a=1.0, b=0.5), fn(b=1.0), fn(a=-1.0, b=2.0)]
    assert arrangement_fan(normals, ("a", "b")) == arrangement_fan(normals, ("a", "b"))


def test_duplicate_normals_collapse():
    fan = arrangement_fan([fn(a=1.0), fn(a=2.0), fn(a=-3.0)], ("a",))
    assert len(fan.hyperplanes) == 1


def test_zero_normal_rejected():
    with pytest.raises(DegenerateNormalError):
        arrangement_fan([fn(a=0.0)], ("a",))


def test_cell_cap():
    normals = [fn(a=1.0), fn(b=1.0), fn(a=1.0, b=1.0)]
    with pytest.raises(FanSizeError):
        arrangement_fan(normals, ("a", "b"), max_cells=4)


def test_fans_take_one_or_two_generators():
    for gens in ((), ("a", "b", "c")):
        with pytest.raises(FanError):
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
    rng = np.random.default_rng(61)
    for h in (1, 1, 2, 3, 4, 5, 6, 8, 10):
        fan = arrangement_fan(random_lines(rng, h, exact), ("a", "b"), exact=exact)
        assert len(fan.hyperplanes) == h
        assert len(fan.cells) == 2 * h
        assert len(cell_signs(fan)) == 2 * h


@pytest.mark.parametrize("exact", [False, True])
def test_planar_witnesses_are_strictly_inside(exact):
    rng = np.random.default_rng(67)
    for h in (1, 2, 3, 5, 8):
        fan = arrangement_fan(random_lines(rng, h, exact), ("a", "b"), exact=exact)
        for cell in fan.cells:
            assert all(-1 < v < 1 for v in cell.witness)
            if exact:
                assert all(isinstance(v, Fraction) for v in cell.witness)
            point = dict(zip(("a", "b"), cell.witness))
            for hp, s in zip(fan.hyperplanes, cell.signs):
                m = hp.evaluate(point)
                assert m > 0 if s == "+" else m < 0


def test_planar_fan_contains_every_sampled_sign_vector():
    rng = np.random.default_rng(71)
    for exact in (False, True):
        for h in (1, 3, 6, 9):
            fan = arrangement_fan(random_lines(rng, h, exact), ("a", "b"), exact=exact)
            theta = rng.uniform(0.0, 2.0 * np.pi, 2000)
            pts = np.column_stack((np.cos(theta), np.sin(theta)))
            margins = pts @ fan.normal_rows().T
            clear = np.abs(margins).min(axis=1) > 1e-9
            sampled = {
                "".join("+" if v > 0 else "-" for v in row) for row in margins[clear]
            }
            assert sampled <= cell_signs(fan)


def test_planar_fan_badly_scaled_lines():
    normals = [fn(a=1.0, b=1e-7), fn(b=1.0), fn(a=1.0, b=1.0 + 1e-10), fn(a=1e6, b=-1.0)]
    fan = arrangement_fan(normals, ("a", "b"))
    assert len(fan.cells) == 8
    rows = fan.normal_rows()
    for cell in fan.cells:
        margins = rows @ np.array(cell.witness)
        assert "".join("+" if m > 0 else "-" for m in margins) == cell.signs


# ---------------------------------------------------------------------------
# three generators and up: no cells, evaluation through the form, and the
# exact cell enumeration the references below use


def cube_lp(fan, signs, objective, margin=False):
    """Exact LP over x = u - v in the closed cell of a sign string, with
    0 <= u, v <= 1.

    signs may be a prefix, which constrains the first hyperplanes only.
    The columns are u, v and, with margin, a t <= 1 that every signed row
    must clear (sign * h.x >= t).  Maximizes objective.
    """
    width = 2 * len(fan.generators) + margin
    rows = []
    for hp, s in zip(fan.hyperplanes, signs):
        r = [(-1 if s == "+" else 1) * Fraction(v) for v in hp.vector(fan.generators)]
        rows.append(r + [-v for v in r] + [1] * margin)
    b = [0] * len(rows) + [1] * width
    rows += [[int(k == j) for k in range(width)] for j in range(width)]
    return solve_lp(objective, A_ub=rows, b_ub=b, exact=True)


def exact_cells(fan):
    """Sign string -> interior point of every cell of the fan's arrangement.

    Depth first over the hyperplanes: a prefix of signs is extended only
    while the exact margin LP finds a point of the cube that clears every
    signed row by some t > 0.
    """
    n = len(fan.generators)
    cells = {}
    stack = [""]
    while stack:
        signs = stack.pop()
        res = cube_lp(fan, signs, [0] * (2 * n) + [1], margin=True)
        if res.status != OPTIMAL or res.value <= 0:
            continue
        if len(signs) < len(fan.hyperplanes):
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
    # one and two generators: the fan's cells; three and four: the exact
    # enumeration that the cube sup references below rely on
    rng = np.random.default_rng(73)
    for n, hs in ((1, (1,)), (2, (1, 2, 3, 5, 8)), (3, (1, 2, 3, 4, 5, 7)), (4, (2, 4, 5))):
        gens = "abcd"[:n]
        for h in hs:
            normals = generic_normals(rng, n, h, exact)
            if n <= 2:
                fan = arrangement_fan(normals, gens, exact=exact)
                signs = cell_signs(fan)
                assert len(fan.cells) == len(signs)
            else:
                fan = plfan.Fan(gens, tuple(plfan.dedup_normals(normals, exact)), ())
                signs = set(exact_cells(fan))
            assert len(fan.hyperplanes) == h
            assert len(signs) == zaslavsky_generic(n, h)


@pytest.mark.parametrize("exact", [False, True])
def test_rank_two_arrangement_in_three_dimensions_is_planar(exact):
    # a function of a and b over (a, b, c): its break planes contain the c
    # axis, so their cells are the planar sectors, and its norm and cube sup
    # are those over (a, b) (l1 over (a, b) is 1-complemented in l1 over
    # (a, b, c), so FBL norms agree)
    rng = np.random.default_rng(79)
    num = Fraction if exact else float
    for _ in range(4):
        m = to_maxmin(random_expr_capped(rng, ("a", "b"), max_size=12))
        f2 = pl_from_maxmin(m, ("a", "b"), exact=exact)
        f3 = pl_from_maxmin(m, ("a", "b", "c"), exact=exact)
        assert f3.fan.cells == ()
        assert f3.fan.hyperplanes == f2.fan.hyperplanes
        assert set(exact_cells(f3.fan)) == cell_signs(f2.fan)
        n2 = exact_fbl_norm(f2, fbl_space(("a", "b")), exact=exact)
        n3 = exact_fbl_norm(f3, fbl_space(("a", "b", "c")), exact=exact)
        s2, s3 = sup_norm_on_cube(f2, exact=exact), sup_norm_on_cube(f3, exact=exact)
        assert isinstance(n3.upper, num) and isinstance(s3, num)
        if exact:
            assert n3.lower == n3.upper == n2.upper == n2.lower
            assert s3 == s2
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
    f, fx = pl_from_maxmin(m, gens), pl_from_maxmin(m, gens, exact=True)
    assert f.fan.cells == fx.fan.cells == ()
    assert len(exact_cells(fx.fan)) == 24
    space = fbl_space(gens)
    norm = exact_fbl_norm(f, space)
    exact_norm = exact_fbl_norm(fx, space, exact=True)
    assert exact_norm.lower == exact_norm.upper == 1 + Fraction(0.9999999999)
    assert norm.upper == pytest.approx(float(exact_norm.upper), rel=1e-12)
    assert norm.lower == pytest.approx(float(exact_norm.upper), rel=1e-12)
    assert sup_norm_on_cube(fx, exact=True) == 1
    assert sup_norm_on_cube(f) == 1


def coverage_count(fan, point):
    rows = fan.normal_rows()
    margins = rows @ point
    if np.any(np.abs(margins) <= 1e-12):
        return None  # on a boundary; perturbation would resolve it
    signs = "".join("+" if m > 0 else "-" for m in margins)
    return sum(1 for c in fan.cells if c.signs == signs)


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


# ---------------------------------------------------------------------------
# pl_from_maxmin


def test_single_functional_single_piece():
    f = pl_from_maxmin(to_maxmin(Gen("a")), ("a",))
    assert len(f.fan.hyperplanes) == 0
    assert len(f.pieces) == 1
    assert f.pieces[0].vector(("a",)) == (1.0,)


def test_abs_two_pieces():
    f = pl_from_maxmin(to_maxmin(absval(Gen("a"))), ("a",))
    by_sign = {c.signs: p for c, p in zip(f.fan.cells, f.pieces)}
    assert by_sign["+"].vector(("a",)) == (1.0,)
    assert by_sign["-"].vector(("a",)) == (-1.0,)


def test_join_splits_on_difference():
    f = pl_from_maxmin(to_maxmin(parse_expr("d(a) v d(b)")), ("a", "b"))
    assert len(f.fan.hyperplanes) == 1
    assert f.fan.hyperplanes[0].vector(("a", "b")) == (1.0, -1.0)
    by_sign = {c.signs: p for c, p in zip(f.fan.cells, f.pieces)}
    assert by_sign["+"].vector(("a", "b")) == (1.0, 0.0)
    assert by_sign["-"].vector(("a", "b")) == (0.0, 1.0)


def test_agreement_with_maxmin_at_random_points():
    rng = np.random.default_rng(23)
    gens = ("a", "b")
    for _ in range(10):
        e = random_expr_capped(rng, gens)
        m = to_maxmin(e)
        f = pl_from_maxmin(m, gens)
        pts = rng.uniform(-1.0, 1.0, (1000, 2))
        got = pl_value_many(PLFunction(f.fan, f.pieces), pts)  # the cells alone
        want = np.array([m.value(dict(zip(gens, p))) for p in pts])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_boundary_continuity():
    rng = np.random.default_rng(29)
    gens = ("a", "b")
    for _ in range(5):
        e = random_expr_capped(rng, gens)
        f = pl_from_maxmin(to_maxmin(e), gens)
        rows = f.fan.normal_rows()
        for k in range(len(f.fan.hyperplanes)):
            h = rows[k]
            for _ in range(10):
                p = rng.uniform(-1.0, 1.0, 2)
                p = p - h * (p @ h) / (h @ h)
                margins = rows @ p
                vals = []
                for cell, piece in zip(f.fan.cells, f.pieces):
                    match = all(
                        abs(m) <= 1e-9 or (s == "+") == (m > 0)
                        for s, m in zip(cell.signs, margins)
                    )
                    if match:
                        vals.append(piece.evaluate(dict(zip(gens, p))))
                if len(vals) > 1:
                    assert max(vals) - min(vals) <= 1e-9


# ---------------------------------------------------------------------------
# sup norm on the cube


def test_sup_norm_generator():
    f = pl_from_maxmin(to_maxmin(Gen("a")), ("a",))
    assert sup_norm_on_cube(f) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_sum_of_abs():
    f = pl_from_maxmin(to_maxmin(parse_expr("|d(a)| + |d(b)|")), ("a", "b"))
    assert sup_norm_on_cube(f) == pytest.approx(2.0, abs=1e-9)


def test_sup_norm_difference():
    f = pl_from_maxmin(to_maxmin(parse_expr("d(a) - d(b)")), ("a", "b"))
    assert sup_norm_on_cube(f) == pytest.approx(2.0, abs=1e-9)


def test_sup_norm_dominates_sampling():
    rng = np.random.default_rng(31)
    gens = ("a", "b")
    for _ in range(5):
        e = random_expr_capped(rng, gens)
        f = pl_from_maxmin(to_maxmin(e), gens)
        sup = sup_norm_on_cube(f)
        pts = rng.uniform(-1.0, 1.0, (10_000, 2))
        sampled = float(np.max(np.abs(pl_value_many(f, pts))))
        assert sup >= sampled - 1e-9


def test_sup_norm_exact_mode():
    f = pl_from_maxmin(
        to_maxmin(parse_expr("0.5*d(a) - 0.25*d(b)")), ("a", "b"), exact=True
    )
    assert sup_norm_on_cube(f, exact=True) == Fraction(3, 4)


def lp_sup_norm_on_cube(f, cells):
    """Reference: max of +/- f over every closed cell, two exact LPs each.

    On a cell f is the functional of its max-min form that attains f at
    the cell's interior point.
    """
    gens = f.fan.generators
    best = Fraction(0)
    for signs, x in cells.items():
        point = dict(zip(gens, x))
        value = f.form.value(point)
        piece = next(p for p in f.form.functionals() if p.evaluate(point) == value)
        vec = [Fraction(v) for v in piece.vector(gens)]
        for sign in (1, -1):
            c = [sign * v for v in vec]
            res = cube_lp(f.fan, signs, c + [-v for v in c])
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
    for _ in range(count):
        m = to_maxmin(join_of_meets(rng, gens))
        f = pl_from_maxmin(m, gens, exact=True)
        cells = exact_cells(f.fan)
        assert len(cells) > 2
        reference = lp_sup_norm_on_cube(f, cells)
        assert sup_norm_on_cube(f, exact=True) == reference
        assert sup_norm_on_cube(pl_from_maxmin(m, gens)) == pytest.approx(
            float(reference), rel=1e-12
        )


def test_ray_sup_norm_matches_per_cell_lp_in_four_generators():
    rng = np.random.default_rng(47)
    gens = "abcd"
    summed = Sum(join_of_meets(rng, "ab", size=1), join_of_meets(rng, "cd", size=1))
    for e in (summed, join_of_meets(rng, gens)):
        m = to_maxmin(e)
        f = pl_from_maxmin(m, gens, exact=True)
        cells = exact_cells(f.fan)
        assert len(cells) > 2
        reference = lp_sup_norm_on_cube(f, cells)
        assert sup_norm_on_cube(f, exact=True) == reference
        assert sup_norm_on_cube(pl_from_maxmin(m, gens)) == pytest.approx(
            float(reference), rel=1e-12
        )


@pytest.mark.parametrize("exact", [False, True])
def test_sup_norm_in_eight_generators_by_blocks(exact):
    gens = "abcdefgh"
    cases = (
        ("d(a) + d(b) + d(c) + d(d) + d(e) + d(f) + d(g) + d(h)", 8),
        ("((d(a) v d(b)) ^ (d(c) v d(d))) + d(e) + d(f) + d(g) + d(h)", 5),
        ("(d(a) v d(b)) + (d(c) ^ d(d)) - |d(e) - d(f)| + 0.5*d(g) - d(h)", 5.5),
    )
    for text, expected in cases:
        f = pl_from_maxmin(to_maxmin(parse_expr(text)), gens, exact=exact)
        assert sup_norm_on_cube(f, exact=exact) == expected


@pytest.mark.parametrize("exact", [False, True])
def test_sup_norm_takes_a_block_at_its_origin(exact):
    # -|a| + 2|b| on blocks {a}, {b}: max f = 0 + 2 needs a = 0
    gens = "ab"
    parts = [pl_from_maxmin(to_maxmin(parse_expr(t)), gens, exact=exact)
             for t in ("-|d(a)|", "|d(b)|")]
    f = pl_lincomb(1, parts[0], 2, parts[1], exact=exact)
    assert f.form is None and len(f.fan.hyperplanes) == 2
    assert sup_norm_on_cube(f, exact=exact) == 2


def test_sup_norm_raises_past_the_work_cap(monkeypatch):
    f = pl_from_maxmin(to_maxmin(parse_expr("d(a) v d(b) v d(c) v d(d)")), "abcd")
    assert sup_norm_on_cube(f) == 1
    monkeypatch.setattr(plfan, "SUP_WORK_CAP", 10)
    with pytest.raises(FanSizeError):
        sup_norm_on_cube(f)


# ---------------------------------------------------------------------------
# equality, max, linear combinations


def test_pl_equal_join_idempotent():
    a = pl_from_maxmin(to_maxmin(parse_expr("d(a) v d(a)")), ("a",))
    b = pl_from_maxmin(to_maxmin(Gen("a")), ("a",))
    assert pl_equal(a, b)


def test_pl_equal_abs_as_join():
    a = pl_from_maxmin(to_maxmin(parse_expr("|d(a)|")), ("a",))
    b = pl_from_maxmin(to_maxmin(parse_expr("d(a) v -d(a)")), ("a",))
    assert pl_equal(a, b)


def test_pl_not_equal_different_generators_values():
    a = pl_from_maxmin(to_maxmin(Gen("a")), ("a", "b"))
    b = pl_from_maxmin(to_maxmin(Gen("b")), ("a", "b"))
    assert not pl_equal(a, b)


def test_pointwise_max_matches_join():
    gens = ("a", "b")
    fa = pl_from_maxmin(to_maxmin(Gen("a")), gens)
    fb = pl_from_maxmin(to_maxmin(Gen("b")), gens)
    fmax = pl_pointwise_max(fa, fb)
    fjoin = pl_from_maxmin(to_maxmin(parse_expr("d(a) v d(b)")), gens)
    assert pl_equal(fmax, fjoin)


def test_lincomb_matches_expression():
    gens = ("a", "b")
    fa = pl_from_maxmin(to_maxmin(parse_expr("|d(a)|")), gens)
    fb = pl_from_maxmin(to_maxmin(parse_expr("d(b)")), gens)
    combo = pl_lincomb(2.0, fa, -1.0, fb)
    direct = pl_from_maxmin(to_maxmin(parse_expr("2*|d(a)| - d(b)")), gens)
    assert pl_equal(combo, direct)


# ---------------------------------------------------------------------------
# JSON round trips


def test_fan_json_roundtrip():
    fan = arrangement_fan([fn(a=1.0), fn(b=1.0)], ("a", "b"))
    assert fan_from_json(fan_to_json(fan)) == fan


def test_plfunction_json_roundtrip():
    f = pl_from_maxmin(to_maxmin(parse_expr("d(a) v (d(b) + 0.5*d(a))")), ("a", "b"))
    g = plfunction_from_json(plfunction_to_json(f))
    assert g.fan == f.fan
    assert pl_equal(f, g)


def test_plfunction_json_roundtrip_exact():
    f = pl_from_maxmin(
        to_maxmin(parse_expr("0.5*d(a) v d(b)")), ("a", "b"), exact=True
    )
    g = plfunction_from_json(plfunction_to_json(f))
    assert pl_equal(f, g, exact=True)
