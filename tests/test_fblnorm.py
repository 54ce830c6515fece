"""Norm computations: admissibility, exact LP route, oracle, certificates."""

import contextlib
import io
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fblab.expr import Gen, Scale, Sum, evaluate, parse_expr, support, to_maxmin, to_text
from fblab.fblnorm import (
    AdmissibilitySpace,
    DualConfig,
    MaxMinEvaluator,
    NormBracket,
    SpaceError,
    abs_coordinate_product,
    admissible,
    check_lemma34,
    config_value,
    exact_fbl_norm,
    expr_evaluator,
    fbl_space,
    linf_vertex_space,
    make_certificate,
    norm_of_expression,
    oracle_lower_bound,
    pl_evaluator,
    replay_certificate,
)
from fblab import cli, plfan
from fblab.ckretract import build_section, target_from_pairs, union_of_intervals
from exprgen import badly_scaled_scalar, random_expr_capped, rounded_scalar
from stored import stored_from_form


def brute_force_lower(F, space, rng, tries=3000, max_points=3):
    """Independent randomized check: best value over raw admissible configs.

    No hill climbing and no LP; configurations are drawn uniformly and
    rescaled onto the constraint boundary, so this can only ever produce
    values at or below the true norm.
    """
    reps = np.array(space.representatives(), dtype=float)
    n = len(space.generators)
    best = 0.0
    for _ in range(tries):
        k = int(rng.integers(1, max_points + 1))
        X = rng.uniform(-1.0, 1.0, (k, n))
        worst = float(np.max(np.abs(X @ reps.T).sum(axis=0)))
        if worst <= 0.0:
            continue
        X /= worst
        val = sum(abs(float(F(x))) for x in X)
        best = max(best, val)
    return best


def assert_linf_oracle_meets_linf_norm(text, budget):
    """What `fblab oracle --space linf` prints lands at most a relative 1e-3
    below the exact norm over the sign-vector ball that `fblab norm --space
    linf` prints, and at most 1e-9 above it; returns that norm."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["norm", "--expr", text, "--space", "linf", "--json-only"]) == 0
        assert cli.run(["oracle", "--expr", text, "--space", "linf",
                        "--budget", str(budget), "--json-only"]) == 0
    norm, oracle = (json.loads(line)["payload"] for line in out.getvalue().splitlines())
    exact, lower = norm["upper"], oracle["lower"]
    assert exact - 1e-3 * abs(exact) <= lower <= exact + 1e-9 * abs(exact), (text, lower, exact)
    return exact


# ---------------------------------------------------------------------------
# no fan from three generators up


def test_norms_and_cube_sups_build_no_fan_past_two_generators(monkeypatch, capsys):
    arrangement_fan = plfan.arrangement_fan

    def fan_of_at_most_two(normals, generators, *args, **kwargs):
        assert len(tuple(generators)) <= 2, "fan over three or more generators"
        return arrangement_fan(normals, generators, *args, **kwargs)

    monkeypatch.setattr(plfan, "arrangement_fan", fan_of_at_most_two)
    for text, norm in (("(d(a) v d(b)) ^ (d(c) - 0.5*d(a))", 2.0),
                       ("(d(a) v d(d)) ^ (d(b) - 0.75*d(c))", 2.75)):
        e = parse_expr(text)
        assert norm_of_expression(e).upper == pytest.approx(norm, rel=1e-12)
        assert norm_of_expression(e, exact=True).upper == Fraction(norm)
        assert check_lemma34(e, "c", budget=500)["pass"]
        assert_linf_oracle_meets_linf_norm(text, 500)
        assert cli.run(["norm", "--expr", text, "--json-only"]) == 0
        assert cli.run(["norm", "--expr", text, "--exact", "--json-only"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])["payload"]
        assert payload["upper"] == pytest.approx(norm, rel=1e-12)


def test_norms_and_cube_sups_of_forms_build_no_fan(monkeypatch):
    # a max-min form is read directly, over two generators as over more
    def no_fan(*args, **kwargs):
        raise AssertionError("fan built for a max-min form")

    monkeypatch.setattr(plfan, "arrangement_fan", no_fan)
    e = parse_expr("(d(a) v d(b)) ^ (d(b) - 0.5*d(a))")
    assert norm_of_expression(e).upper == pytest.approx(1.5, rel=1e-12)
    assert norm_of_expression(e, exact=True).upper == Fraction(3, 2)
    assert check_lemma34(e, "a", budget=500)["sup_norm"] == 1.5


# ---------------------------------------------------------------------------
# a space must name every generator of the expression


def test_norm_rejects_a_space_that_misses_a_generator():
    e = parse_expr("d(a) v d(b) v -d(c)")
    with pytest.raises(SpaceError):
        norm_of_expression(e, fbl_space(("a", "b", "d")))
    with pytest.raises(SpaceError):
        exact_fbl_norm(to_maxmin(e), fbl_space(("a", "b")), exact=True)


def test_two_space_check_rejects_generators_that_miss_one():
    e = parse_expr("d(a) v d(b)")
    with pytest.raises(SpaceError):
        exact_fbl_norm(to_maxmin(e), linf_vertex_space(("a",)))
    with pytest.raises(SpaceError):
        expr_evaluator(e, ("a",))


def test_product_bound_rejects_a_space_that_misses_a_generator():
    # over (a, b, d) the sup of |d(c)|-scaled terms was read as 1.0 and passed
    e = parse_expr("d(a) v d(b) v -5*d(c)")
    with pytest.raises(SpaceError):
        check_lemma34(e, "a", space=fbl_space(("a", "b", "d")))
    assert check_lemma34(e, "a", budget=200)["sup_norm"] == 5.0


def test_cube_sup_and_evaluators_reject_generators_that_miss_one():
    m = to_maxmin(parse_expr("d(a) ^ d(c)"))
    with pytest.raises(SpaceError):
        plfan.sup_norm_on_cube(m, ("a", "b"))
    with pytest.raises(SpaceError):
        MaxMinEvaluator(m, ("a",))
    with pytest.raises(SpaceError):
        expr_evaluator(parse_expr("d(a) ^ d(c)"), ("c",))


# ---------------------------------------------------------------------------
# verdicts relative to the magnitude of the function


def _oracle_returning(value_of):
    def fake(F, space, budget=10_000, seed=0, degree=1):
        return NormBracket(value_of(space), DualConfig(()), math.inf, {})
    return fake


def test_product_bound_verdict_is_relative(monkeypatch):
    # at scale 1e-12 an absolute 1e-9 let a lower bound 1e-6 above the sup pass
    e = parse_expr("1e-12*(d(a) v d(b))")
    sup = check_lemma34(e, "a", budget=200)["sup_norm"]
    assert sup == pytest.approx(1e-12, rel=1e-12)
    monkeypatch.setattr("fblab.fblnorm.oracle_lower_bound",
                        _oracle_returning(lambda space: sup * (1 + 1e-6)))
    rep = check_lemma34(e, "a")
    assert not rep["pass"]
    assert rep["margin"] < 0


def test_two_space_agreement_is_relative():
    # at scale 1e-12 an absolute 1e-3 below the norm would admit a lower bound 0
    assert_linf_oracle_meets_linf_norm("1e-12*(d(a) v d(b))", 2000)


# ---------------------------------------------------------------------------
# spaces and admissibility


def test_fbl_space_vertices():
    s = fbl_space(("a", "b"))
    assert repr(s.ball_vertices) == "((1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, -1.0))"
    assert len(s.representatives()) == 2


@pytest.mark.parametrize("verts, message", [
    (((1.0, 0.0), (-1.0, 0.0, 0.0)), "dimension mismatch"),
    (((math.nan, 1.0), (-math.nan, -1.0), (0.0, 1.0), (0.0, -1.0)), "not symmetric"),
    (((0.0, 0.0),), "does not span"),
    (((2.0, 2.0), (-2.0, -2.0), (1.0, 1.0), (-1.0, -1.0)), "does not span"),
])
def test_space_errors_name_the_fault(verts, message):
    with pytest.raises(SpaceError, match=message):
        AdmissibilitySpace(("a", "b"), verts)


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
@pytest.mark.parametrize("eps", [1e-20, 1e-15, 1e-13, 1e-12, 1e-9, 1e-4])
def test_space_spans_where_matrix_rank_of_its_vertices_says_so(eps, scale):
    """Near the rank tolerance, and where V^T V underflows or is tiny, the
    verdict is np.linalg.matrix_rank's on the distinct vertices."""
    verts = [(scale, scale * eps), (scale, 0.0)]
    verts += [(-a, -b) for a, b in verts]
    spans = np.linalg.matrix_rank(np.array(verts)) == 2
    if spans:
        AdmissibilitySpace(("a", "b"), tuple(verts))
    else:
        with pytest.raises(SpaceError, match="does not span"):
            AdmissibilitySpace(("a", "b"), tuple(verts))


def test_space_rejects_asymmetric_vertices():
    with pytest.raises(SpaceError):
        AdmissibilitySpace(("a", "b"), ((1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


def test_space_rejects_non_spanning_vertices():
    with pytest.raises(SpaceError):
        AdmissibilitySpace(("a", "b"), ((1.0, 0.0), (-1.0, 0.0)))


def test_space_rejects_empty_and_duplicates():
    with pytest.raises(SpaceError):
        AdmissibilitySpace(("a",), ())
    with pytest.raises(SpaceError):
        AdmissibilitySpace(("a", "a"), ((1.0, 0.0), (-1.0, 0.0)))


def test_linf_space_size_limit():
    s = linf_vertex_space(("a", "b"))
    assert len(s.ball_vertices) == 4
    with pytest.raises(SpaceError):
        linf_vertex_space(tuple(f"g{i}" for i in range(17)))


def test_admissible_unit_vectors():
    s = fbl_space(("a", "b"))
    rep = admissible(DualConfig(((1.0, 0.0), (0.0, 1.0))), s)
    assert rep.ok
    assert rep.worst_sum == pytest.approx(1.0, abs=0)


def test_admissible_rejects_doubled_point():
    s = fbl_space(("a", "b"))
    rep = admissible(DualConfig(((1.0, 0.0), (1.0, 0.0))), s)
    assert not rep.ok
    assert rep.worst_sum == pytest.approx(2.0, abs=0)
    assert rep.worst_vertex in ((1.0, 0.0), (-1.0, 0.0))


def test_admissible_mixed_halves():
    s = fbl_space(("a", "b"))
    rep = admissible(DualConfig(((0.5, -0.5), (-0.5, 0.5))), s)
    assert rep.ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_admissible_rejects_a_non_finite_sum(bad):
    # a NaN sum never exceeded the worst sum, so NaN points passed
    rep = admissible(DualConfig(((1.0, bad),) * 5), fbl_space(("a", "b")))
    assert not rep.ok
    assert not math.isfinite(rep.worst_sum)


def dense_admissible(config, space, tol=1e-12):
    """admissible with every product of every entry, in order."""
    worst, worst_v = 0.0, None
    for v in space.ball_vertices:
        s = 0.0
        for x in config.points:
            s += abs(sum(float(a) * float(b) for a, b in zip(x, v)))
        if not math.isfinite(s):
            return False, repr(s), tuple(v)
        if s > worst:
            worst, worst_v = s, tuple(v)
    return worst <= 1.0 + tol, repr(worst), worst_v


def test_admissible_sums_nonzero_entries_as_the_dense_sum_would():
    """Verdict, worst sum (to the bit) and worst vertex, on random families
    with signed zeros and Fractions, and with an infinite or NaN coordinate
    anywhere: (0.5, inf) has the NaN sum 0.5*1 + inf*0 at (1, 0), where
    nonzero entries alone would give a finite sum there."""
    rng = np.random.default_rng(643)
    spaces = [fbl_space(("a", "b", "c")), linf_vertex_space(("a", "b", "c")),
              AdmissibilitySpace(("a", "b", "c"), ((1.0, 0.0, -0.5), (-1.0, 0.0, 0.5),
                                                   (0.0, 2.0, 0.0), (0.0, -2.0, 0.0),
                                                   (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)))]
    entries = [0.0, -0.0, 0.25, -0.125, 1 / 3, Fraction(1, 7), -0.6]
    for _ in range(300):
        k = int(rng.integers(1, 4))
        points = [[entries[i] for i in rng.integers(0, len(entries), 3)] for _ in range(k)]
        if rng.random() < 0.3:
            points[int(rng.integers(k))][int(rng.integers(3))] = [math.inf, -math.inf,
                                                                  math.nan][int(rng.integers(3))]
        config = DualConfig(tuple(tuple(x) for x in points))
        for space in spaces:
            rep = admissible(config, space)
            assert (rep.ok, repr(rep.worst_sum), rep.worst_vertex) == dense_admissible(
                config, space), (points, space.ball_vertices)
    rep = admissible(DualConfig(((0.5, math.inf),)), fbl_space(("a", "b")))
    assert (rep.ok, math.isnan(rep.worst_sum), rep.worst_vertex) == (False, True, (1.0, 0.0))


@pytest.mark.parametrize("point", [(0.5, 0.5, 9.0), (0.5,)])
def test_admissible_rejects_a_point_of_the_wrong_length(point):
    # zipping with the ball vertices dropped the extra 9.0 and padded
    # nothing for the short point, so both passed with worst sum 0.5
    rep = admissible(DualConfig((point,)), fbl_space(("a", "b")))
    assert not rep.ok
    assert math.isnan(rep.worst_sum)
    assert rep.worst_vertex is None


# ---------------------------------------------------------------------------
# config_value


def test_config_value_generator():
    F = expr_evaluator(Gen("a"), ("a",))
    assert config_value(F, DualConfig(((1.0,),))) == 1.0


def test_config_value_split_halves():
    F = expr_evaluator(Gen("a"), ("a",))
    assert config_value(F, DualConfig(((0.5,), (-0.5,)))) == 1.0


def test_config_value_join_two_points():
    F = expr_evaluator(parse_expr("d(a) v d(b)"), ("a", "b"))
    assert config_value(F, DualConfig(((1.0, 0.0), (0.0, 1.0)))) == 2.0


# ---------------------------------------------------------------------------
# exact norms


def exact_norm_of(text, gens=None):
    e = parse_expr(text)
    if gens is None:
        gens = tuple(sorted({g for g in "abc" if f"d({g})" in text}))
    space = fbl_space(gens)
    return exact_fbl_norm(to_maxmin(e), space), space, e


def test_exact_norm_single_generator():
    bracket, space, _ = exact_norm_of("d(a)")
    assert bracket.upper == pytest.approx(1.0, abs=1e-9)
    assert bracket.lower == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(bracket.upper)
    assert admissible(bracket.certificate, space).ok


def test_exact_norm_weighted_sum_is_l1():
    lam = (1.0, -2.0, 3.0)
    gens = ("a", "b", "c")
    e = Sum(Sum(Scale(lam[0], Gen("a")), Scale(lam[1], Gen("b"))), Scale(lam[2], Gen("c")))
    space = fbl_space(gens)
    bracket = exact_fbl_norm(to_maxmin(e), space)
    assert bracket.upper == pytest.approx(6.0, abs=1e-9)
    # the one-point sign configuration is admissible and already attains it
    signs = DualConfig(((1.0, -1.0, 1.0),))
    assert admissible(signs, space).ok
    F = expr_evaluator(e, gens)
    assert config_value(F, signs) == pytest.approx(6.0, abs=1e-12)
    # and no random admissible family beats the LP value
    rng = np.random.default_rng(41)
    assert brute_force_lower(F, space, rng) <= bracket.upper + 1e-9


def test_exact_norm_join():
    bracket, space, e = exact_norm_of("d(a) v d(b)")
    assert bracket.upper == pytest.approx(2.0, abs=1e-9)
    F = expr_evaluator(e, ("a", "b"))
    assert config_value(F, DualConfig(((1.0, 0.0), (0.0, 1.0)))) == 2.0
    rng = np.random.default_rng(43)
    assert brute_force_lower(F, space, rng) <= bracket.upper + 1e-9


def test_exact_norm_sum_of_abs():
    bracket, space, e = exact_norm_of("|d(a)| + |d(b)|")
    assert bracket.upper == pytest.approx(2.0, abs=1e-9)
    F = expr_evaluator(e, ("a", "b"))
    assert config_value(F, DualConfig(((1.0, 0.0), (0.0, 1.0)))) == 2.0


def antipodal_pairs(points):
    """The pairs (p, q) of points with q a positive multiple of -p, read
    exactly: rank one and a negative dot product."""
    pts = [tuple(map(Fraction, p)) for p in points]
    return [(p, q) for p, q in itertools.combinations(pts, 2)
            if sum(a * b for a, b in zip(p, q)) < 0
            and all(p[i] * q[j] == p[j] * q[i]
                    for i, j in itertools.combinations(range(len(p)), 2))]


@pytest.mark.parametrize("exact", [False, True])
def test_a_line_is_priced_on_the_side_of_its_larger_value(exact):
    """f = d(a) v -2*d(a) is 1 at +1 and 2 at -1: one candidate line,
    whose certificate point sits at -1."""
    e = parse_expr("d(a) v -2*d(a)")
    bracket = exact_fbl_norm(to_maxmin(e), fbl_space(("a",)), exact=exact)
    assert bracket.upper == bracket.lower == 2
    assert bracket.diagnostics["candidate_rays"] == 1
    assert bracket.certificate.points == ((-1.0,),)


def test_norm_bracket_invariants_on_random_expressions():
    rng = np.random.default_rng(47)
    gens = ("a", "b")
    for _ in range(20):
        e = random_expr_capped(rng, gens, depth=3, max_size=24)
        space = fbl_space(gens)
        bracket = exact_fbl_norm(to_maxmin(e), space)
        assert bracket.lower <= bracket.upper + 1e-9
        rep = admissible(bracket.certificate, space)
        assert rep.ok
        F = MaxMinEvaluator(to_maxmin(e), gens)
        assert config_value(F, bracket.certificate) == pytest.approx(
            bracket.lower, abs=1e-9
        )
        assert antipodal_pairs(bracket.certificate.points) == []


def test_exact_norm_monotone_under_abs_domination():
    rng = np.random.default_rng(53)
    gens = ("a", "b")
    space = fbl_space(gens)
    for _ in range(8):
        g = random_expr_capped(rng, gens, depth=3, max_size=16)
        h = random_expr_capped(rng, gens, depth=3, max_size=16)
        big = parse_expr(f"|{to_text(g)}| + |{to_text(h)}|")
        nb = exact_fbl_norm(to_maxmin(big), space)
        ng = exact_fbl_norm(to_maxmin(g), space)
        assert nb.upper >= ng.upper - 1e-9


@pytest.mark.parametrize("space_of, norm", [(fbl_space, 2), (linf_vertex_space, 1)])
def test_float_norm_past_the_float_range_raises(space_of, norm):
    """The norm LP's value overflows on the l1 ball, and the value at the ray
    (1, 1) on the sign-vertex ball; they came back as inf and NaN.  The
    exact route returns the Fraction, 2e308 and 1e308."""
    e = parse_expr("1e308*d(a) + 1e308*d(b)")
    space = space_of(("a", "b"))
    with pytest.raises(OverflowError, match="past the float range"):
        exact_fbl_norm(to_maxmin(e), space)
    assert exact_fbl_norm(to_maxmin(e), space, exact=True).upper == norm * Fraction(1e308)


def test_exact_mode_returns_fractions():
    gens = ("a", "b")
    e = parse_expr("0.5*d(a) - 1.25*d(b)")
    space = fbl_space(gens)
    bracket = exact_fbl_norm(to_maxmin(e), space, exact=True)
    assert isinstance(bracket.upper, Fraction)
    assert bracket.upper == Fraction(7, 4)
    assert math.isfinite(bracket.upper)


# Expressions on which the float route once failed: the first three raised
# LPError inside the witness LP of the two-generator fan, the fourth raised
# FanError because its three-generator fan missed a cell, and the last two
# raised LPError inside the witness LP of a three-generator fan.
BADLY_SCALED = (
    "d(b) + 1e-07*d(a) ^ 1e-07*(d(b) v -1.0*d(b))",
    "d(b) + 1e-07*d(a) ^ 1e-07*|d(b)|",
    "d(c) + 1e-07*d(a) ^ 1e-07*(d(c) v -1.0*d(c))",
    "((0.9999999999*(0.9999999999*(d(a)))) ^ (d(b))) + ((-1000000.0*(d(c))) v (d(a)))",
    "((d(b) v d(c)) ^ 1e-07*d(a)) v -1.0*((d(b) v d(c)) ^ 1e-07*d(a))",
    "d(a) ^ 1e-07*(d(b) v d(c)) ^ d(b)",
)


def test_float_norm_matches_rational_on_badly_scaled_expressions():
    rng = np.random.default_rng(59)
    cases = [(parse_expr(t), tuple(sorted({g for g in "abc" if f"d({g})" in t})))
             for t in BADLY_SCALED]
    for gens, count in ((("a", "b"), 60), (("a", "b", "c"), 30)):
        cases += [
            (random_expr_capped(rng, gens, max_size=12, scalar=badly_scaled_scalar), gens)
            for _ in range(count)
        ]
    for e, gens in cases:
        space = fbl_space(gens)
        fl = exact_fbl_norm(to_maxmin(e), space)
        ra = exact_fbl_norm(to_maxmin(e), space, exact=True)
        assert fl.upper == pytest.approx(float(ra.upper), rel=1e-6, abs=0), to_text(e)
        assert fl.lower == pytest.approx(float(ra.upper), rel=1e-6, abs=0), to_text(e)
        for bracket in (fl, ra):
            assert antipodal_pairs(bracket.certificate.points) == [], to_text(e)


# ---------------------------------------------------------------------------
# oracle lower bounds


def test_oracle_single_generator_converges():
    space = fbl_space(("a",))
    F = expr_evaluator(Gen("a"), ("a",))
    bracket = oracle_lower_bound(F, space, budget=10_000, seed=0)
    assert abs(bracket.lower - 1.0) <= 1e-6
    assert bracket.upper == math.inf


def test_oracle_join_reaches_two():
    space = fbl_space(("a", "b"))
    F = expr_evaluator(parse_expr("d(a) v d(b)"), ("a", "b"))
    bracket = oracle_lower_bound(F, space, budget=10_000, seed=0)
    assert bracket.lower >= 2.0 - 1e-6


def test_oracle_degree_two_product_stays_below_one():
    gens = ("a", "b")
    space = fbl_space(gens)
    F = abs_coordinate_product(expr_evaluator(Gen("b"), gens), 0)
    for budget in (1000, 5000, 20_000):
        bracket = oracle_lower_bound(F, space, budget=budget, seed=1, degree=2)
        assert bracket.lower <= 1.0 + 1e-9


def test_oracle_is_deterministic_given_seed():
    space = fbl_space(("a", "b"))
    F = expr_evaluator(parse_expr("d(a) v 2*d(b)"), ("a", "b"))
    b1 = oracle_lower_bound(F, space, budget=3000, seed=7)
    b2 = oracle_lower_bound(F, space, budget=3000, seed=7)
    assert b1.lower == b2.lower
    assert b1.certificate == b2.certificate
    assert b1.diagnostics == b2.diagnostics
    assert set(b1.diagnostics) == {
        "evaluations", "restarts", "budget", "accepted_moves", "slots", "stacked_calls"
    }
    assert b1.diagnostics["accepted_moves"] > 0
    assert 1 <= b1.diagnostics["stacked_calls"] <= b1.diagnostics["evaluations"]


def test_oracle_certificate_is_sound():
    space = fbl_space(("a", "b"))
    e = parse_expr("|d(a)| + 0.5*d(b)")
    F = expr_evaluator(e, ("a", "b"))
    bracket = oracle_lower_bound(F, space, budget=4000, seed=3)
    assert admissible(bracket.certificate, space).ok
    assert config_value(F, bracket.certificate) == pytest.approx(
        bracket.lower, abs=1e-9
    )


def test_oracle_raises_when_a_configuration_leaves_the_floats():
    """F has norm 1e308: members drift to |x| near 2, where F passes the
    float range, so the search values its rows scaled into the cube and
    finds the norm.  This came back as a lower bound of 1e308 computed from
    overflowed and NaN sums, after numpy warnings, and then as an
    OverflowError.  A norm of 2e308, past the float range, still raises."""
    def F(x):
        return 1e308 * abs(float(x[0]))

    twice = expr_evaluator(parse_expr("1e308*(|d(a)| v |d(b)|)"), ("a", "b"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle_lower_bound(F, fbl_space(("a",)), budget=2000, seed=0).lower == 1e308
        with pytest.raises(OverflowError, match="configuration's value is past the float range"):
            oracle_lower_bound(twice, fbl_space(("a", "b")), budget=2000, seed=0)


def test_oracle_rejects_inhomogeneous_evaluator():
    # at scale 1e-20 an absolute tolerance of 1e-6 let the offset pass
    space = fbl_space(("a",))
    for c in (1.0, 1e-20):
        with pytest.raises(ValueError):
            oracle_lower_bound(lambda x: c * (float(x[0]) + 1.0), space, budget=200, seed=0)


@pytest.mark.parametrize("budget", [0, -4, 2.5, True])
def test_oracle_rejects_a_budget_that_is_not_an_integer_of_at_least_one(budget):
    """At budget 0 or -4 the oracle used to return lower 0.0 with an empty
    certificate, and check_lemma34 at budget 0 passed with best_lower 0.0."""
    e = parse_expr("d(a) v d(b)")
    with pytest.raises(ValueError, match="budget"):
        oracle_lower_bound(expr_evaluator(e, ("a", "b")), fbl_space(("a", "b")),
                           budget=budget, seed=0)
    with pytest.raises(ValueError, match="budget"):
        check_lemma34(e, "a", budget=budget)


# ---------------------------------------------------------------------------
# the oracle's search: scale, budget


class _Scaled:
    """c * F, with c a power of two, so every value scales exactly."""

    def __init__(self, F, c):
        self.F, self.c = F, c

    def __call__(self, x):
        return self.c * float(self.F(x))

    def batch(self, X):
        return self.c * self.F.batch(X)


def _bits(bracket):
    return (
        bracket.lower.hex(),
        tuple(tuple(c.hex() for c in x) for x in bracket.certificate.points),
        bracket.diagnostics,
    )


@pytest.mark.parametrize("j", [-66, -10, 10, 20])
def test_oracle_is_scale_equivariant_bit_for_bit(j):
    """oracle(2**j * F) is 2**j * oracle(F), lower and certificate: an
    absolute accept threshold climbs nothing at 1e-20 and takes one-ulp
    noise for a gain above 16."""
    cases = (
        ("d(a) v d(b)", fbl_space, 1),
        ("(d(a) ^ d(b)) v (d(c) - 0.41*d(a)) v -1.7*d(b)", fbl_space, 1),
        ("|d(a) - 1.0000000001*d(c)| ^ d(b)", linf_vertex_space, 1),
        ("37.3*d(a) + 11.9*d(b) - 5.3*d(d)", fbl_space, 1),
        ("(d(a) v d(b)) ^ (0.37*d(a) - 1.3*d(b))", fbl_space, 2),
    )
    c = 2.0**j
    for text, space_of, degree in cases:
        e = parse_expr(text)
        gens = tuple(sorted(support(e)))
        F = expr_evaluator(e, gens)
        if degree == 2:
            F = abs_coordinate_product(F, 0)
        space = space_of(gens)
        got = oracle_lower_bound(_Scaled(F, c), space, budget=3000, seed=5, degree=degree)
        want = oracle_lower_bound(F, space, budget=3000, seed=5, degree=degree)
        assert want.diagnostics["accepted_moves"] > 0, text
        assert got.lower == c * want.lower, text
        assert _bits(got)[1:] == _bits(want)[1:], text


def test_oracle_climbs_at_small_scale():
    """An absolute threshold of 1e-15 gave lower 0.0 here, with no move kept."""
    e = parse_expr("1e-20*(d(a) v d(b))")
    F = expr_evaluator(e, ("a", "b"))
    bracket = oracle_lower_bound(F, fbl_space(("a", "b")), budget=4000, seed=3)
    assert bracket.lower >= 2e-20 * (1 - 1e-3)
    assert bracket.lower <= 2e-20 * (1 + 1e-9)


def test_oracle_ends_when_the_budget_runs_out_among_finished_slots():
    """Here the budget ran out while more slots finished than it could
    restart (27 finished with 13 evaluations left, among 64 slots), so the
    search went on with empty slots; a slot left empty once kept the index
    one past its last step size, and the next stacked step indexed past the
    step sizes."""
    e = parse_expr("(-0.783*((d(a)) v (d(a)))) v (2.446*((d(a)) + (d(a))))")
    F = expr_evaluator(e, ("a",))
    got = oracle_lower_bound(F, fbl_space(("a",)), budget=20_000, seed=243)
    assert got.diagnostics["evaluations"] == 20_000
    assert got.lower == pytest.approx(4.892, rel=1e-12)


def test_oracle_runs_about_four_restarts_a_slot():
    """The bench's oracle items of bench seed 1 (budget 20,000): wherever
    the slot count is not at a clamp, a slot runs about four restarts.
    Sized for 15 sweeps a restart, the slots ran 6.6-6.8 restarts each on
    the two-generator items, which run about 10 sweeps a restart."""
    items = (
        ("d(a) v -1.0*d(a)", 289562209),
        ("-0.105*(d(b) ^ d(a))", 785730564),
        ("((d(a) ^ d(a)) + -1.087*d(a) ^ d(b)) v -1.0*((d(a) ^ d(a)) + -1.087*d(a) ^ d(b))",
         148770116),
        ("d(b) + (d(c) v (d(a) v -1.0*d(a)) + (d(a) + d(c)))", 662188053),
        ("(d(a) v -1.0*d(a)) + ((d(a) + d(c) v -1.0*(d(a) + d(c))) + d(b))", 528442610),
    )
    free = 0
    for text, seed in items:
        e = parse_expr(text)
        gens = tuple(sorted(support(e)))
        d = oracle_lower_bound(expr_evaluator(e, gens), fbl_space(gens),
                               budget=20_000, seed=seed).diagnostics
        if 8 < d["slots"] < 64:
            free += 1
            assert 2.5 <= d["restarts"] / d["slots"] <= 6, (text, d)
    assert free >= 2


@pytest.mark.parametrize("text", ["-0.3*d(a)", "|d(a)|"])
def test_oracle_finishes_every_restart_in_one_step_when_no_move_gains(text):
    """On one generator |F(x)| is c|x| here, so every configuration has the
    same value and no move is kept: each stacked step runs every live
    slot's whole chain of sweeps, and one sweep per step took 60 calls for
    264 restarts in 44 slots."""
    F = expr_evaluator(parse_expr(text), ("a",))
    d = oracle_lower_bound(F, fbl_space(("a",)), budget=20_000, seed=0).diagnostics
    assert d["accepted_moves"] == 0
    assert d["evaluations"] == 20_000
    assert d["stacked_calls"] <= math.ceil(d["restarts"] / d["slots"])


@pytest.mark.parametrize("budget", [1, 7, 200, 20_000])
def test_oracle_spends_exactly_its_budget(budget):
    """Starts and visited moves add up to the budget, on 1-4 generators in
    both spaces, on 8 generators, with batch, product and plain-callable
    evaluators, and on the zero function."""
    texts = {
        1: "d(a) v -0.3*d(a)",
        2: "(d(a) v d(b)) ^ (0.37*d(a) - 1.3*d(b))",
        3: "(d(a) ^ d(b)) v (d(c) - 0.41*d(a)) v -1.7*d(b)",
        4: "(d(a) v d(d)) ^ (d(b) - 0.6*d(c))",
        8: "(d(a) v d(b) v d(c)) - (d(d) ^ d(e)) + 0.5*|d(f) - d(g)| ^ d(h)",
    }
    cases = []
    for n, text in texts.items():
        gens = tuple("abcdefgh"[:n])
        F = expr_evaluator(parse_expr(text), gens)
        cases.append((F, fbl_space(gens), 1))
        if n <= 4:
            cases.append((abs_coordinate_product(F, n - 1), linf_vertex_space(gens), 2))
        if n == 2:
            cases.append((lambda x, G=F: G(x), fbl_space(gens), 1))  # no batch method
    cases.append((expr_evaluator(parse_expr("d(a) - d(a)"), ("a", "b")), fbl_space("ab"), 1))
    for F, space, degree in cases:
        got = oracle_lower_bound(F, space, budget=budget, seed=budget, degree=degree)
        d = got.diagnostics
        assert d["evaluations"] == budget
        assert 1 <= d["restarts"] <= budget
        assert 0 <= d["accepted_moves"] <= budget - d["restarts"]
        assert 1 <= d["stacked_calls"] <= budget
        assert admissible(got.certificate, space).ok


# ---------------------------------------------------------------------------
# MaxMinEvaluator


UNEQUAL_GROUP_FORMS = (
    "(d(a) ^ d(b) ^ -0.5*d(c)) v d(b) v (2*d(a) ^ d(c))",
    "((d(a) v d(b) v d(c)) ^ 1.25*d(c)) v -d(a)",
    "(d(a) ^ d(b)) v d(c) v (d(a) ^ -d(c) ^ 0.75*d(b))",
)


def test_maxmin_batch_equals_call_bit_for_bit():
    """Dyadic coefficients and points keep every product and sum exact, so
    the comparison checks the padded group gather, not BLAS rounding."""
    rng = np.random.default_rng(11)
    gens = ("a", "b", "c")
    for text in UNEQUAL_GROUP_FORMS:
        m = to_maxmin(parse_expr(text))
        assert len({len(g) for g in m.groups}) > 1, text
        F = MaxMinEvaluator(m, gens)
        X = rng.integers(-16, 17, (200, 3)) / 8.0
        got = F.batch(X)
        assert got.shape == (200,)
        assert [v.hex() for v in got.tolist()] == [F(x).hex() for x in X], text


def test_maxmin_evaluator_matches_evaluate():
    rng = np.random.default_rng(12)
    gens = ("a", "b", "c")
    forms = [parse_expr(t) for t in UNEQUAL_GROUP_FORMS]
    forms += [random_expr_capped(rng, gens, depth=4, max_size=30) for _ in range(20)]
    for e in forms:
        F = MaxMinEvaluator(to_maxmin(e), gens)
        X = rng.uniform(-1.0, 1.0, (50, 3))
        batch = F.batch(X)
        for x, b in zip(X, batch):
            want = evaluate(e, dict(zip(gens, x)))
            assert abs(b - want) <= 1e-12 * (1.0 + abs(want)), to_text(e)
            assert abs(F(x) - want) <= 1e-12 * (1.0 + abs(want)), to_text(e)


def test_maxmin_batch_of_no_points():
    F = MaxMinEvaluator(to_maxmin(parse_expr(UNEQUAL_GROUP_FORMS[0])), ("a", "b", "c"))
    assert F.batch(np.zeros((0, 3))).shape == (0,)


def test_batch_of_a_stack_equals_batch_of_each_configuration():
    """batch takes points stacked on leading axes, and each (k, n) slice of
    an (m, k, n) stack comes out as it would alone, to the last bit."""
    rng = np.random.default_rng(13)
    gens = ("a", "b", "c")
    m = to_maxmin(parse_expr("(0.37*d(a) + 1.3*d(b)) v (d(c) ^ -2.9*d(a)) v 0.11*d(b)"))
    M = MaxMinEvaluator(m, gens)
    stored = pl_evaluator(stored_from_form(to_maxmin(parse_expr("d(a) v 0.37*d(b)")), "ab"))
    for F, n in ((M, 3), (abs_coordinate_product(M, 1), 3), (stored, 2)):
        for k in (1, 2, 5):
            S = rng.uniform(-1.0, 1.0, (30, k, n))
            got = F.batch(S)
            assert got.shape == (30, k)
            for j in range(30):
                assert got[j].tobytes() == np.asarray(F.batch(S[j].copy())).tobytes()


@pytest.mark.parametrize("m", [1, 2, 7, 277])
def test_slice_of_a_stack_does_not_depend_on_its_height(m):
    """A slice's values do not depend on how many slices share the stack,
    up to 277 (n = 3, k = 4)."""
    rng = np.random.default_rng(15)
    gens = ("a", "b", "c")
    M = MaxMinEvaluator(
        to_maxmin(parse_expr("(0.37*d(a) + 1.3*d(b)) v (d(c) ^ -2.9*d(a)) v 0.11*d(b)")),
        gens,
    )
    K = union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    pairs = [(0, Fraction(1, 3)), (Fraction(1, 4), Fraction(-5, 7)),
             (Fraction(1, 2), Fraction(2, 3)), (1, 3)]
    stored = pl_evaluator(build_section(K, target_from_pairs(K, pairs)).Sh)
    for F, n in ((M, 3), (abs_coordinate_product(M, 2), 3), (stored, 2)):
        S = rng.uniform(-1.0, 1.0, (m, 4, n))
        got = F.batch(S)
        assert got.shape == (m, 4)
        for j in range(m):
            assert got[j].tobytes() == F.batch(S[j:j + 1])[0].tobytes(), (F, j)


def test_section_batch_equals_call_bit_for_bit():
    """A stored function's pieces are applied elementwise, with pl_value's
    arithmetic, so every point of an (m, k, 2) stack, on a ray or off it,
    comes out as a call on that point alone."""
    K = union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    pairs = [(0, Fraction(1, 3)), (Fraction(1, 4), Fraction(-5, 7)),
             (Fraction(1, 2), Fraction(2, 3)), (Fraction(3, 4), Fraction(1, 11)), (1, 3)]
    Sh = build_section(K, target_from_pairs(K, pairs)).Sh
    F = pl_evaluator(Sh)
    rng = np.random.default_rng(14)
    S = rng.uniform(-1.0, 1.0, (20, 7, 2))
    rays = np.array(Sh.fan.rays, dtype=float)
    flat = S.reshape(-1, 2)
    flat[:len(rays)] = rays
    flat[len(rays):2 * len(rays)] = rays * rng.uniform(0.1, 3.0, (len(rays), 1))
    got = F.batch(S)
    assert got.shape == (20, 7)
    assert [v.hex() for v in got.ravel().tolist()] == [F(x).hex() for x in S.reshape(-1, 2)]


# ---------------------------------------------------------------------------
# product bound reports


def test_product_bound_identity_generator():
    rep = check_lemma34(Gen("a"), "a", budget=3000, seed=0)
    assert rep["sup_norm"] == pytest.approx(1.0, abs=1e-9)
    assert rep["pass"]
    assert rep["best_lower"] <= rep["sup_norm"] + 1e-9


def test_product_bound_difference():
    space = fbl_space(("a", "b", "c"))
    rep = check_lemma34(parse_expr("d(b) - d(c)"), "a", space=space, budget=3000)
    assert rep["sup_norm"] == pytest.approx(2.0, abs=1e-9)
    assert rep["pass"]


def test_product_bound_squared_abs():
    rep = check_lemma34(parse_expr("|d(a)|"), "a", budget=3000, seed=2)
    assert rep["sup_norm"] == pytest.approx(1.0, abs=1e-9)
    assert rep["best_lower"] <= 1.0 + 1e-9
    assert rep["pass"]


def test_product_bound_requires_generator_in_space():
    with pytest.raises(SpaceError):
        check_lemma34(Gen("a"), "z", budget=100)


# ---------------------------------------------------------------------------
# the two-space comparison


def test_two_space_check_single_generator():
    assert norm_of_expression(Gen("a")).upper == pytest.approx(1.0, abs=1e-9)
    assert assert_linf_oracle_meets_linf_norm("d(a)", 2000) == pytest.approx(1.0, abs=1e-9)


def test_two_space_check_sum():
    assert norm_of_expression(parse_expr("d(a) + d(b)")).upper == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < assert_linf_oracle_meets_linf_norm("d(a) + d(b)", 4000) <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# certificates


def test_certificate_roundtrip_passes():
    bracket, space, e = exact_norm_of("d(a) v d(b)")
    cert = make_certificate(
        space, bracket.certificate, float(bracket.upper), "exact",
        {"expr": to_text(e)},
    )
    rep = replay_certificate(cert)
    assert rep["pass"]
    assert rep["value_matches"]
    assert rep["value"] == cert["value"]


def test_certificate_detects_tampered_value():
    bracket, space, e = exact_norm_of("d(a) v d(b)")
    cert = make_certificate(
        space, bracket.certificate, float(bracket.upper), "exact",
        {"expr": to_text(e)},
    )
    cert["value"] = cert["value"] + 1e-6
    rep = replay_certificate(cert)
    assert not rep["pass"]
    assert not rep["value_matches"]


def test_certificate_detects_inadmissible_points():
    space = fbl_space(("a", "b"))
    cert = make_certificate(
        space, DualConfig(((1.0, 0.0), (1.0, 0.0))), 2.0, "lower",
        {"expr": "d(a)"},
    )
    rep = replay_certificate(cert)
    assert not rep["admissible"]
    assert not rep["pass"]


def test_certificate_rejects_malformed_points():
    space = fbl_space(("a", "b"))
    cert = make_certificate(space, DualConfig(((0.5, 0.5),)), 1.0, "exact", {"expr": "d(a) + d(b)"})
    assert replay_certificate(cert)["pass"]
    for points in ([[0.5, 0.5, 0.0]], [[1.0]], [[0.5, math.nan]], [[math.inf, 0.0]]):
        rep = replay_certificate({**cert, "points": points})
        assert not rep["pass"] and not rep["well_formed"], points
        assert math.isnan(rep["value"])


def test_certificate_product_function_replays():
    gens = ("a", "b")
    space = fbl_space(gens)
    config = DualConfig(((0.5, 0.5), (-0.5, 0.5)))
    cert = make_certificate(
        space, config, 1.0, "lower", {"expr": "d(b)", "times_abs": "a"},
    )
    F = abs_coordinate_product(expr_evaluator(Gen("b"), gens), 0)
    assert cert["value"] == config_value(F, config)
    rep = replay_certificate(cert)
    assert rep["pass"]


def test_certificate_lower_mode_claim_consistency():
    space = fbl_space(("a",))
    config = DualConfig(((1.0,),))
    cert = make_certificate(space, config, 0.5, "lower", {"expr": "d(a)"})
    # value 1.0 exceeds the claimed norm 0.5, so the claim is inconsistent
    rep = replay_certificate(cert)
    assert not rep["pass"]
    assert rep["admissible"]


def _unit_certificate(scale, claimed, mode):
    """One point e_a for scale*d(a): the recorded value is scale itself."""
    return make_certificate(fbl_space(("a",)), DualConfig(((1.0,),)), claimed, mode,
                            {"expr": f"{scale!r}*d(a)"})


def test_certificate_claim_check_is_relative_at_small_scale():
    # an absolute 1e-9 let 2e-14 stand for a norm of 5e-10
    assert replay_certificate(_unit_certificate(2e-14, 2e-14, "exact"))["pass"]
    assert not replay_certificate(_unit_certificate(2e-14, 5e-10, "exact"))["pass"]
    assert replay_certificate(_unit_certificate(2e-14, 2e-14, "lower"))["pass"]
    assert not replay_certificate(_unit_certificate(2e-14, 1e-14, "lower"))["pass"]


def test_certificate_claim_check_is_relative_at_large_scale():
    # at 1e9 one ulp is 1.2e-7, above an absolute 1e-9
    up, down = math.nextafter(1e9, math.inf), math.nextafter(1e9, 0.0)
    assert replay_certificate(_unit_certificate(1e9, up, "exact"))["pass"]
    assert replay_certificate(_unit_certificate(1e9, down, "lower"))["pass"]
    assert not replay_certificate(_unit_certificate(1e9, 1e9 * (1 + 1e-8), "exact"))["pass"]
    assert not replay_certificate(_unit_certificate(1e9, 1e9 * (1 - 1e-8), "lower"))["pass"]
