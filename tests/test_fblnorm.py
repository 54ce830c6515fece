"""Norm computations: admissibility, exact LP route, oracle, certificates."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fblab.expr import Gen, Scale, Sum, evaluate, parse_expr, to_maxmin, to_text
from fblab.fblnorm import (
    AdmissibilitySpace,
    DualConfig,
    MaxMinEvaluator,
    NormBracket,
    SpaceError,
    _homogeneity_spot_check,
    abs_coordinate_product,
    admissible,
    check_lemma34,
    config_value,
    exact_fbl_norm,
    expr_evaluator,
    fbl_space,
    fbl_vs_polyhedral_check,
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
        assert fbl_vs_polyhedral_check(e, budget=500)["sign_ball_agreement"]
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
    with pytest.raises(SpaceError):
        fbl_vs_polyhedral_check(parse_expr("d(a) v d(b)"), generators=("a",))


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
        return NormBracket(value_of(space), DualConfig(()), math.inf, False, {})
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


def test_two_space_agreement_is_relative(monkeypatch):
    e = parse_expr("1e-12*(d(a) v d(b))")
    norm = exact_fbl_norm(to_maxmin(e), linf_vertex_space(("a", "b"))).upper
    monkeypatch.setattr("fblab.fblnorm.oracle_lower_bound",
                        _oracle_returning(lambda space: norm * (1 + 1e-6)))
    assert not fbl_vs_polyhedral_check(e)["sign_ball_agreement"]


# ---------------------------------------------------------------------------
# spaces and admissibility


def test_fbl_space_vertices():
    s = fbl_space(("a", "b"))
    assert set(s.ball_vertices) == {
        (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
    }
    assert len(s.representatives()) == 2


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
    assert bracket.exact
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


def test_exact_mode_returns_fractions():
    gens = ("a", "b")
    e = parse_expr("0.5*d(a) - 1.25*d(b)")
    space = fbl_space(gens)
    bracket = exact_fbl_norm(to_maxmin(e), space, exact=True)
    assert isinstance(bracket.upper, Fraction)
    assert bracket.upper == Fraction(7, 4)
    assert bracket.exact


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


# ---------------------------------------------------------------------------
# oracle lower bounds


def test_oracle_single_generator_converges():
    space = fbl_space(("a",))
    F = expr_evaluator(Gen("a"), ("a",))
    bracket = oracle_lower_bound(F, space, budget=10_000, seed=0)
    assert abs(bracket.lower - 1.0) <= 1e-6
    assert bracket.upper == math.inf
    assert not bracket.exact


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
        "evaluations", "restarts", "budget", "accepted_moves", "stacked_calls"
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


def test_oracle_rejects_inhomogeneous_evaluator():
    space = fbl_space(("a",))
    with pytest.raises(ValueError):
        oracle_lower_bound(lambda x: float(x[0]) + 1.0, space, budget=100, seed=0)


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
    with pytest.raises(ValueError, match="budget"):
        fbl_vs_polyhedral_check(e, budget=budget)


# ---------------------------------------------------------------------------
# the batched oracle against the search that evaluated one move at a time


# The oracle's loop as it was before moves were evaluated in batches, kept
# verbatim: one config_val call per move, each on a (k, n) array.
def reference_oracle(
    F,
    space: AdmissibilitySpace,
    budget: int = 10_000,
    seed: int = 0,
    degree: int = 1,
) -> NormBracket:
    gens = space.generators
    n = len(gens)
    reps = np.array(space.representatives(), dtype=float)
    rng = np.random.default_rng(seed)
    _homogeneity_spot_check(F, n, degree, rng)

    has_batch = hasattr(F, "batch")
    evals = 0

    def config_val(X: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        sums = np.abs(X @ reps.T).sum(axis=0)
        sigma = sums.max()
        if sigma <= 1e-300:
            return 0.0
        Xs = X / sigma
        if has_batch:
            vals = F.batch(Xs)
        else:
            vals = np.array([F(row) for row in Xs])
        return float(np.abs(vals).sum())

    sizes = list(range(1, len(reps) + 2))
    per_restart = max(250, budget // 12)
    steps = (1.0, 0.4, 0.15, 0.05, 0.015, 0.005, 0.0015, 5e-4, 1.5e-4, 5e-5)

    best_val = 0.0
    best_X = np.zeros((0, n))
    restart = 0
    while evals < budget:
        k = sizes[restart % len(sizes)]
        if restart % 2 == 0:
            X = rng.uniform(-1.0, 1.0, (k, n))
        else:
            # Sparse signed-axis start: good corners for free-lattice spaces.
            X = np.zeros((k, n))
            for i in range(k):
                X[i, rng.integers(0, n)] = rng.choice((-1.0, 1.0))
            X += 0.01 * rng.standard_normal((k, n))
        val = config_val(X)
        start_evals = evals
        step_i = 0
        while evals < budget and evals - start_evals < per_restart:
            improved = False
            delta = steps[min(step_i, len(steps) - 1)]
            for i in range(k):
                for a in rng.permutation(n):
                    base = X[i, a]
                    for cand in (0.0, 1.0, -1.0, base + delta, base - delta):
                        if cand == base:
                            continue
                        X[i, a] = cand
                        v2 = config_val(X)
                        if v2 > val + 1e-15:
                            val = v2
                            base = cand
                            improved = True
                        else:
                            X[i, a] = base
                        if evals >= budget or evals - start_evals >= per_restart:
                            break
                    X[i, a] = base
                    if evals >= budget or evals - start_evals >= per_restart:
                        break
                if evals >= budget or evals - start_evals >= per_restart:
                    break
            if not improved:
                step_i += 1
                if step_i >= len(steps):
                    break
        if val > best_val + 1e-15:
            best_val = val
            best_X = X.copy()
        restart += 1

    # Rescale the winner onto the boundary and drop zero members.
    if best_X.shape[0]:
        sums = np.abs(best_X @ reps.T).sum(axis=0)
        sigma = sums.max()
        if sigma > 0:
            best_X = best_X / sigma
        best_X = best_X[np.abs(best_X).max(axis=1) > 0]
    config = DualConfig(tuple(tuple(float(v) for v in row) for row in best_X))
    value = config_value(F, config) if config.points else 0.0
    return NormBracket(
        lower=value,
        certificate=config,
        upper=math.inf,
        exact=False,
        diagnostics={"evaluations": evals, "restarts": restart, "budget": budget},
    )


def _bits(bracket):
    return (
        bracket.lower.hex(),
        tuple(tuple(c.hex() for c in x) for x in bracket.certificate.points),
        bracket.diagnostics["evaluations"],
        bracket.diagnostics["restarts"],
    )


ORACLE_CASE_FORMS = {
    1: ("2.5*d(a)", "d(a) v -0.3*d(a)"),
    2: ("(d(a) v d(b)) ^ (0.37*d(a) - 1.3*d(b))",
        "1000000.0*d(a) ^ (0.9999999999*d(b) v -1e-07*d(a))"),
    3: ("(d(a) ^ d(b)) v (d(c) - 0.41*d(a)) v -1.7*d(b)",
        "|d(a) - 1.0000000001*d(c)| ^ d(b)"),
    4: ("(d(a) v d(d)) ^ (d(b) - 0.6*d(c))",
        "0.37*d(a) + 1.3*d(b) - 2.9*d(c) + 0.11*d(d)"),
}


def _oracle_cases():
    """(label, F, space, degree) over both spaces, n = 1-4: max-min,
    product and plain-callable evaluators, and stored functions for n <= 2."""
    cases = []
    for n, texts in ORACLE_CASE_FORMS.items():
        gens = ("a", "b", "c", "d")[:n]
        for s, space in enumerate((fbl_space(gens), linf_vertex_space(gens))):
            for j, kind in enumerate(("maxmin", "product", "pl", "lambda")):
                if kind == "pl" and n > 2:
                    continue
                e = parse_expr(texts[(s + j) % 2])
                m = to_maxmin(e)
                F, degree = MaxMinEvaluator(m, gens), 1
                if kind == "product":
                    F, degree = abs_coordinate_product(F, j % n), 2
                elif kind == "pl":
                    F = pl_evaluator(stored_from_form(m, gens))
                elif kind == "lambda":
                    F = lambda x, G=F: G(x)  # no batch method
                label = f"{kind} {to_text(e)} {len(space.ball_vertices)} vertices"
                cases.append((label, F, space, degree))
    zero = parse_expr("d(a) - d(a)")
    for gens in (("a",), ("a", "b")):
        F = MaxMinEvaluator(to_maxmin(zero), gens)
        cases.append((f"zero over {gens}", F, fbl_space(gens), 1))
    # Plateau moves in c with values above 16, where val + 1e-15 == val: a
    # last-bit difference between a stacked and a lone evaluation is enough
    # to accept a move the one-at-a-time search rejected.
    gens = ("a", "b", "c", "d")
    e = parse_expr("37.3*d(a) + 11.9*d(b) - 5.3*d(d)")
    cases.append(("plateau", MaxMinEvaluator(to_maxmin(e), gens), fbl_space(gens), 1))
    return cases


@pytest.mark.parametrize("budget", [1, 7, 257, 1001, 3001])
def test_oracle_trajectory_matches_one_move_at_a_time(budget):
    for j, (label, F, space, degree) in enumerate(_oracle_cases()):
        seed = 1000 * budget + j
        got = oracle_lower_bound(F, space, budget=budget, seed=seed, degree=degree)
        want = reference_oracle(F, space, budget=budget, seed=seed, degree=degree)
        assert _bits(got) == _bits(want), label
        accepted = got.diagnostics["accepted_moves"]
        assert 0 <= accepted <= got.diagnostics["evaluations"] - got.diagnostics["restarts"]


def test_oracle_plateau_trajectory_over_seeds():
    gens = ("a", "b", "c", "d")
    F = MaxMinEvaluator(to_maxmin(parse_expr("37.3*d(a) + 11.9*d(b) - 5.3*d(d)")), gens)
    space = fbl_space(gens)
    for seed in range(6):
        got = oracle_lower_bound(F, space, budget=3001, seed=seed)
        want = reference_oracle(F, space, budget=3001, seed=seed)
        assert _bits(got) == _bits(want), seed


@pytest.mark.parametrize("space_of", [fbl_space, linf_vertex_space])
def test_oracle_trajectory_at_bench_size(space_of):
    """n = 3 at budget 20000: sweeps over up to five members, cut short by the
    per-restart cap of 1666 evaluations, in both spaces."""
    gens = ("a", "b", "c")
    space = space_of(gens)
    m = to_maxmin(parse_expr("(d(a) ^ d(b)) v (d(c) - 0.41*d(a)) v -1.7*d(b)"))
    for j, (F, degree) in enumerate(
        ((MaxMinEvaluator(m, gens), 1),
         (abs_coordinate_product(MaxMinEvaluator(m, gens), 2), 2))
    ):
        seed = 20_000 + j
        got = oracle_lower_bound(F, space, budget=20_000, seed=seed, degree=degree)
        want = reference_oracle(F, space, budget=20_000, seed=seed, degree=degree)
        assert _bits(got) == _bits(want), (space_of.__name__, degree)
        assert 1 <= got.diagnostics["stacked_calls"] <= got.diagnostics["evaluations"]


def test_oracle_makes_one_call_per_restart_when_nothing_improves():
    """With no move ever kept, each restart's start value and all its sweeps
    at every step size come from one stacked call."""
    for text, gens in (("d(a) - d(a)", ("a", "b")), ("2.5*d(a)", ("a",))):
        F = expr_evaluator(parse_expr(text), gens)
        got = oracle_lower_bound(F, fbl_space(gens), budget=5000, seed=3)
        assert got.diagnostics["accepted_moves"] == 0, text
        assert got.diagnostics["stacked_calls"] == got.diagnostics["restarts"], text
        assert 1 <= got.diagnostics["stacked_calls"] <= got.diagnostics["evaluations"]


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
    """The oracle evaluates (m, k, n) stacks and relies on each (k, n) slice
    coming out as it would alone, to the last bit."""
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
    """The oracle reads moves of one configuration from stacks of any height
    (277 slices: n = 3, k = 4, 23 moves per coordinate, and the start), and
    compares their values bit for bit with values from other stacks."""
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
    rep = fbl_vs_polyhedral_check(Gen("a"), budget=2000)
    assert rep["free_norm"] == pytest.approx(1.0, abs=1e-9)
    assert set(rep) == {"free_norm", "sign_ball_norm", "sign_ball_oracle",
                        "sign_ball_agreement"}


def test_two_space_check_sum():
    rep = fbl_vs_polyhedral_check(parse_expr("d(a) + d(b)"), budget=4000)
    assert rep["free_norm"] == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < rep["sign_ball_norm"] <= 2.0 + 1e-9
    assert rep["sign_ball_agreement"]


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
