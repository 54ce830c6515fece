"""Expression layer: grammar, evaluation, normal form, text round trips."""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab.expr import (
    ExprError,
    ExprSyntaxError,
    Gen,
    MAX_DEPTH,
    MAXMIN_CAP,
    Join,
    LinearFunctional,
    MaxMinSizeError,
    Meet,
    Scale,
    Sum,
    absval,
    evaluate,
    parse_expr,
    support,
    to_maxmin,
    to_text,
)
from exprgen import random_expr, random_expr_capped, random_point

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_generator():
    assert parse_expr("d(a)") == Gen("a")


def test_parse_sum_scale_join():
    e = parse_expr("0.5*d(a) + (d(b) v -d(c))")
    want = Sum(Scale(0.5, Gen("a")), Join(Gen("b"), Scale(-1.0, Gen("c"))))
    assert e == want


def test_parse_abs_desugars_to_join():
    e = parse_expr("|d(a)| ^ d(b)")
    want = Meet(Join(Gen("a"), Scale(-1.0, Gen("a"))), Gen("b"))
    assert e == want


def test_parse_reports_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("d(a) + ?")
    assert info.value.pos == 7


def test_parse_rejects_unclosed_generator():
    with pytest.raises(ExprSyntaxError):
        parse_expr("d(a")


def test_parse_rejects_bare_constant():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2.5")


def test_parse_rejects_mixed_lattice_ops_without_parens():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("d(a) v d(b) ^ d(c)")
    assert "parentheses" in str(info.value)
    # parenthesized versions are fine
    parse_expr("(d(a) v d(b)) ^ d(c)")
    parse_expr("d(a) v (d(b) ^ d(c))")


def test_parse_rejects_product_of_expressions():
    with pytest.raises(ExprSyntaxError):
        parse_expr("d(a)*d(b)")


def test_parse_scientific_notation_scalar():
    e = parse_expr("2.5e-1*d(a)")
    assert e == Scale(0.25, Gen("a"))


def test_parse_rejects_an_overflowing_literal():
    with pytest.raises(ExprSyntaxError, match="overflows"):
        parse_expr("1e309*d(a)")
    assert parse_expr("1e308*d(a)") == Scale(1e308, Gen("a"))


A, B = Gen("a"), Gen("b")


@pytest.mark.parametrize("text, want", [
    # constant folding and tree shapes
    ("2*0.5*d(a)", Scale(1.0, A)),
    ("-d(a)", Scale(-1.0, A)),
    ("|d(a)|", absval(A)),
    ("1.*d(a)", Scale(1.0, A)),
    ("2.5E+1*d(a)", Scale(25.0, A)),
    ("٣*d(a)", Scale(3.0, A)),  # an Arabic-Indic digit is a decimal digit
    # 'v' is the join only as a whole word
    ("d(a)v(d(b))", Join(A, B)),
    ("d(a) vx d(b)", ("trailing input", 5)),
    ("d(a) vd(b)", ("trailing input", 5)),
    ("d(x1) vd(b)", ("trailing input", 6)),
    ("2v d(a)", ("expression denotes a bare constant", 7)),
    # 'd(' has no space inside; the name may have spaces around it
    ("d( a )", A),
    ("d (a)", ("expected a factor", 0)),
    ("d()", ("expected a generator name", 2)),
    ("d(", ("expected a generator name", 2)),
    ("d(a", ("expected ')'", 3)),
    ("d(a b)", ("expected ')'", 4)),
    # numbers: an exponent only before a digit, no leading '.'
    ("2e*d(a)", ("trailing input", 1)),
    (".5*d(a)", ("expected a factor", 0)),
    ("1e309*d(a)", ("number literal overflows a float", 0)),
    ("2 * 1e309*d(a)", ("number literal overflows a float", 4)),
    # the bare constant inside bars is reported just past the closing bar
    ("|2| + d(a)", ("expression denotes a bare constant", 3)),
    ("| 2 | ", ("expression denotes a bare constant", 5)),
    ("", ("expected a factor", 0)),
    ("d(a) v ", ("expected a factor", 7)),
    ("d(a) v d(b) ^ d(c)", ("mixing 'v' and '^' requires parentheses", 12)),
    ("2 + d(a)", ("cannot add a constant to an expression", 8)),
    ("d(a)*d(b) ", ("product of two expressions is not in the language", 10)),
    ("d(a) ?", ("trailing input", 5)),
    # superscript digits are no decimal digits: a syntax error, not a bare
    # ValueError from float()
    ("²*d(a)", ("expected a factor", 0)),
    ("1²*d(a)", ("trailing input", 1)),
    ("d(a) + ³", ("expected a factor", 7)),
])
def test_parse_table(text, want):
    if isinstance(want, tuple):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert (str(info.value), info.value.pos) == (f"{want[0]} (at position {want[1]})", want[1])
    else:
        assert parse_expr(text) == want


@pytest.mark.parametrize("text, pos", [
    # the bracket or sign that opens one level too many
    ("(" * (MAX_DEPTH + 1) + "d(a)" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
    ("-" * (MAX_DEPTH + 1) + "d(a)", MAX_DEPTH),
    # the operator of the node one level too deep
    ("d(a)" + " + d(a)" * (MAX_DEPTH + 1), 7 * MAX_DEPTH + 5),
    ("d(a)" + " v d(a)" * (MAX_DEPTH + 1), 7 * MAX_DEPTH + 5),
    ("d(a)" + " - d(a)" * MAX_DEPTH, 7 * MAX_DEPTH - 2),  # a minus adds a Scale
    # |e| is two nodes, e v -1*e: the outermost of MAX_DEPTH // 2 + 1 bars
    ("|" * (MAX_DEPTH // 2 + 1) + "d(a)" + "|" * (MAX_DEPTH // 2 + 1), 0),
])
def test_parse_bounds_nesting_and_tree_depth(text, pos):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert info.value.pos == pos


def test_parse_takes_nesting_and_tree_depth_at_the_bound():
    assert parse_expr("(" * MAX_DEPTH + "d(a)" + ")" * MAX_DEPTH) == A
    assert parse_expr("-" * MAX_DEPTH + "d(a)") == reduce(
        lambda e, _: Scale(-1.0, e), range(MAX_DEPTH), A)
    chain = parse_expr(" + ".join(["d(a)"] * (MAX_DEPTH + 1)))
    assert parse_expr(to_text(chain)) == chain


@pytest.mark.parametrize("text", [
    "1e200*(1e200*d(a))", "1e200*1e200*d(a)", "1e308*d(a)+1e308*d(a)",
    "(1e308*d(a) v d(b)) + (1e308*d(a) ^ d(b))",
])
def test_maxmin_rejects_a_coefficient_that_is_not_finite(text):
    with pytest.raises(ExprError, match="not finite"):
        to_maxmin(parse_expr(text))


def test_roundtrip_on_handwritten_forms():
    for text in (
        "d(a)",
        "0.5*d(a) + (d(b) v -d(c))",
        "|d(a)| ^ d(b)",
        "(d(a) + d(b)) v (d(a) ^ -2.0*d(c))",
        "1.5*|d(a) + d(b)|",
    ):
        e = parse_expr(text)
        assert parse_expr(to_text(e)) == e


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_generator():
    assert evaluate(Gen("a"), {"a": 0.7}) == 0.7


def test_evaluate_join_is_max():
    e = parse_expr("d(a) v d(b)")
    assert evaluate(e, {"a": 1.0, "b": -1.0}) == 1.0


def test_evaluate_sum_of_abs():
    e = parse_expr("|d(a)| + |d(b)|")
    assert evaluate(e, {"a": -0.5, "b": 0.25}) == 0.75


def test_evaluate_missing_coordinate():
    with pytest.raises(ExprError):
        evaluate(Sum(Gen("a"), Gen("b")), {"a": 0.5})


# ---------------------------------------------------------------------------
# support


def test_support_single():
    assert support(Gen("a")) == frozenset({"a"})


def test_support_is_syntactic():
    e = parse_expr("d(a) + 0*d(b)")
    assert support(e) == frozenset({"a", "b"})


def test_support_abs_meet():
    e = parse_expr("|d(a)| ^ d(a)")
    assert support(e) == frozenset({"a"})


# ---------------------------------------------------------------------------
# max-min normal form


def groups_as_sets(m, gens):
    return {frozenset(fn.vector(gens) for fn in group) for group in m.groups}


def test_maxmin_generator():
    m = to_maxmin(Gen("a"))
    assert groups_as_sets(m, ("a",)) == {frozenset({(1.0,)})}


def test_maxmin_join():
    m = to_maxmin(parse_expr("d(a) v d(b)"))
    assert groups_as_sets(m, ("a", "b")) == {
        frozenset({(1.0, 0.0)}),
        frozenset({(0.0, 1.0)}),
    }


def test_maxmin_abs():
    m = to_maxmin(absval(Gen("a")))
    assert groups_as_sets(m, ("a",)) == {frozenset({(1.0,)}), frozenset({(-1.0,)})}


def test_maxmin_cap_reports_size():
    # distinct scales keep the summed functionals from collapsing
    e = parse_expr("d(a) v d(b)")
    for k in (10, 100, 1000, 10000):
        e = Sum(e, parse_expr(f"{k}*d(a) v {k}*d(b)"))
    with pytest.raises(MaxMinSizeError):
        to_maxmin(e, cap=20)
    assert to_maxmin(e, cap=40).size == 32


def balanced(op, terms):
    """op folded over terms as a balanced tree; a left-nested chain of a few
    hundred terms passes Python's recursion limit."""
    while len(terms) > 1:
        terms = [reduce(op, terms[i:i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


def test_meet_raises_as_its_groups_pass_the_cap():
    # 700 x 700 pairwise unions of four functionals, 1,960,000 in all: the
    # meet raises at the first distinct group past the cap
    def side(x, y):
        return balanced(Join, [Meet(Scale(float(k), Gen(x)), Scale(float(k), Gen(y)))
                               for k in range(1, 701)])

    with pytest.raises(MaxMinSizeError) as info:
        to_maxmin(Meet(side("a", "b"), side("c", "e")))
    needs = int(str(info.value).split()[3])
    assert MAXMIN_CAP < needs <= MAXMIN_CAP + 4


@pytest.mark.parametrize("text, groups, size", [
    ("(d(a) ^ d(b)) v (d(a) ^ d(c))", 2, 3),
    ("(d(a) ^ d(b) ^ d(c)) v (d(a) ^ d(e)) v d(f)", 3, 8),
    ("(d(a) ^ d(b)) v (d(c) ^ d(e)) v (d(a) ^ d(f))", 4, 10),
], ids=["shared-a", "singleton-f", "three-meets"])
def test_negative_scale_is_the_absorbed_negation(text, groups, size):
    # -2*e is e's form negated, with no group inside another, then doubled;
    # the cap meets the negation at that form's size
    m = to_maxmin(parse_expr(text))
    neg = m.negated(size)
    assert (len(neg.groups), neg.size) == (groups, size)
    with pytest.raises(MaxMinSizeError, match=f"needs {size} functionals, cap is {size - 1}$"):
        m.negated(size - 1)
    doubled = tuple(tuple(f.scaled(2.0) for f in g) for g in neg.groups)
    assert to_maxmin(Scale(-2.0, parse_expr(text))).groups == doubled


def test_negated_meet_of_joins_is_one_group_per_join():
    # the meet's form has 2**9 groups of nine; its negation is the nine
    # joins negated, where choice functions through the groups number 9**512
    e = reduce(Meet, [Join(Scale(float(k), Gen("a")), Scale(float(k), Gen("b")))
                      for k in range(1, 10)])
    assert len(to_maxmin(e).groups) == 512
    m = to_maxmin(Scale(-1.0, e))
    assert [len(g) for g in m.groups] == [2] * 9
    assert {frozenset(g) for g in m.groups} == {
        frozenset(LinearFunctional(((x, -float(k)),)) for x in "ab") for k in range(1, 10)
    }


def test_negated_join_of_disjoint_meets_passes_the_cap():
    # five meets of seven functionals, no two shared: -f needs 7**5 groups
    # of five, none inside another
    meets = [reduce(Meet, [Scale(float(7 * i + j + 1), Gen("a")) for j in range(7)])
             for i in range(5)]
    with pytest.raises(MaxMinSizeError):
        to_maxmin(Scale(-1.0, reduce(Join, meets)))


def test_normal_form_soundness_random():
    rng = np.random.default_rng(7)
    gens = ("a", "b", "c")
    for _ in range(100):
        e = random_expr_capped(rng, gens)
        m = to_maxmin(e)
        for _ in range(100):
            p = random_point(rng, gens)
            assert abs(m.value(p) - evaluate(e, p)) <= 1e-12


def test_negated_form_is_minus_f_with_no_group_inside_another():
    rng = np.random.default_rng(19)
    gens = ("a", "b", "c")
    for _ in range(40):
        m = to_maxmin(random_expr_capped(rng, gens))
        neg = m.negated(MAXMIN_CAP)
        groups = [frozenset(g) for g in neg.groups]
        assert not any(g <= h for i, g in enumerate(groups) for h in groups[i + 1:] + groups[:i])
        for _ in range(20):
            p = random_point(rng, gens)
            assert neg.value(p) == -m.value(p)


# ---------------------------------------------------------------------------
# algebraic invariants


def test_positive_homogeneity_random():
    rng = np.random.default_rng(11)
    gens = ("a", "b", "c")
    for _ in range(100):
        e = random_expr_capped(rng, gens)
        p = random_point(rng, gens)
        lam = float(rng.uniform(0.0, 1.0)) or 1.0
        scaled = {g: lam * v for g, v in p.items()}
        assert abs(evaluate(e, scaled) - lam * evaluate(e, p)) <= 1e-12


def test_lattice_laws_at_evaluation():
    rng = np.random.default_rng(13)
    gens = ("a", "b")
    for _ in range(50):
        e = random_expr_capped(rng, gens, depth=3)
        g = random_expr_capped(rng, gens, depth=3)
        p = random_point(rng, gens)
        ve, vg = evaluate(e, p), evaluate(g, p)
        assert evaluate(Join(e, g), p) == max(ve, vg)
        assert evaluate(Meet(e, g), p) == min(ve, vg)
        assert evaluate(absval(e), p) == abs(ve)


# ---------------------------------------------------------------------------
# hypothesis: structural round trips hold for arbitrary trees


def scalars():
    return st.floats(-2.5, 2.5, allow_nan=False).map(lambda v: round(v, 3) or 1.0)


expr_trees = st.recursive(
    st.sampled_from(("a", "b", "c")).map(Gen),
    lambda sub: st.one_of(
        st.tuples(scalars(), sub).map(lambda t: Scale(*t)),
        st.tuples(sub, sub).map(lambda t: Sum(*t)),
        st.tuples(sub, sub).map(lambda t: Join(*t)),
        st.tuples(sub, sub).map(lambda t: Meet(*t)),
    ),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(expr_trees)
def test_text_roundtrip(e):
    assert parse_expr(to_text(e)) == e


@settings(max_examples=60, deadline=None)
@given(expr_trees, st.sampled_from((-1.0, -0.5, -2.0, -0.25, -4.0)),
       st.tuples(*[st.integers(-8, 8)] * 3))
def test_negative_scale_property(e, c, eighths):
    # a power of two scales every coefficient exactly, so the value is c
    # times e's to the last bit
    m = to_maxmin(Scale(c, e))
    groups = [frozenset(g) for g in m.groups]
    assert not any(g <= h for i, g in enumerate(groups) for h in groups[i + 1:] + groups[:i])
    p = {g: k / 8 for g, k in zip("abc", eighths)}
    assert m.value(p) == c * to_maxmin(e).value(p)


@settings(max_examples=60, deadline=None)
@given(expr_trees, st.floats(0.01, 1.0, allow_nan=False))
def test_homogeneity_property(e, lam):
    p = {"a": 0.3, "b": -0.8, "c": 0.5}
    scaled = {g: lam * v for g, v in p.items()}
    assert abs(evaluate(e, scaled) - lam * evaluate(e, p)) <= 1e-10 * (
        1.0 + abs(evaluate(e, p))
    )


# ---------------------------------------------------------------------------
# shared subtrees: every walker visits a distinct node once


def test_bars_print_as_bars_over_one_shared_child():
    assert to_text(absval(A)) == "|d(a)|"
    assert to_text(Join(A, Scale(-1.0, Gen("a")))) == "d(a) v -1.0*d(a)"
    for text in ("||d(a)| + -2.0*d(b)|", "|d(a) v d(b)| ^ d(c)", "0.5*|d(a)|"):
        assert to_text(parse_expr(text)) == text


def test_fifty_nested_bars_compare_and_take_their_norm():
    # |e| shares e, so a walker that revisits shared nodes takes 2**50 steps
    # here; the child process keeps such a walker from hanging the suite
    script = """if True:
        import contextlib, io, json
        from fblab import cli
        from fblab.expr import parse_expr
        text = "|" * 50 + "d(a)" + "|" * 50
        e, f = parse_expr(text), parse_expr(text)
        assert e is not f and e == f and hash(e) == hash(f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["norm", "--expr", text, "--json-only"]) == 0
        rep = json.loads(out.getvalue())
        assert rep["payload"]["upper"] == 1.0, rep["payload"]
        assert rep["config"]["expr"] == rep["payload"]["expr"] == text
    """
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_walkers_take_a_chain_far_past_max_depth():
    def chain():
        return reduce(lambda e, _: Scale(-1.0, e), range(5000), A)

    e = chain()
    assert support(e) == {"a"}
    assert evaluate(e, {"a": 0.5}) == 0.5
    assert to_maxmin(e).groups == ((LinearFunctional((("a", 1.0),)),),)
    assert e == chain() and hash(e) == hash(chain())
    assert e != Scale(-1.0, e)


def ref_support(e):
    if isinstance(e, Gen):
        return {e.name}
    if isinstance(e, Scale):
        return ref_support(e.child)
    return ref_support(e.left) | ref_support(e.right)


def ref_evaluate(e, point):
    if isinstance(e, Gen):
        return point[e.name]
    if isinstance(e, Scale):
        return e.factor * ref_evaluate(e.child, point)
    a, b = ref_evaluate(e.left, point), ref_evaluate(e.right, point)
    return a + b if isinstance(e, Sum) else max(a, b) if isinstance(e, Join) else min(a, b)


def ref_equal(e, g):
    if type(e) is not type(g):
        return False
    if isinstance(e, Gen):
        return e.name == g.name
    if isinstance(e, Scale):
        return e.factor == g.factor and ref_equal(e.child, g.child)
    return ref_equal(e.left, g.left) and ref_equal(e.right, g.right)


def positions(e):
    """Every position of e in pre-order; a shared node once per position."""
    if isinstance(e, Gen):
        return [e]
    if isinstance(e, Scale):
        return [e] + positions(e.child)
    return [e] + positions(e.left) + positions(e.right)


def unshared(e, edit=lambda t: None):
    """A copy with a fresh node at every position, except where edit(t)
    gives the copy of a position t."""
    got = edit(e)
    if got is not None:
        return got
    if isinstance(e, Gen):
        return Gen(e.name)
    if isinstance(e, Scale):
        return Scale(e.factor, unshared(e.child, edit))
    return type(e)(unshared(e.left, edit), unshared(e.right, edit))


def edit_one(copy, kind, change, rng):
    """copy, an unshared tree, with change applied at one of its positions
    of kind, drawn at random; None if it has none."""
    spots = [t for t in positions(copy) if isinstance(t, kind)]
    if not spots:
        return None
    spot = spots[int(rng.integers(len(spots)))]
    return unshared(copy, lambda t: change(t) if t is spot else None)


def test_walkers_agree_with_a_recursive_referee():
    rng = np.random.default_rng(23)
    gens = ("a", "b", "c")
    for _ in range(150):
        e = random_expr(rng, gens, depth=5)
        copy = unshared(e)
        assert support(e) == ref_support(e)
        p = random_point(rng, gens)
        assert evaluate(e, p) == ref_evaluate(e, p)
        assert ref_equal(parse_expr(to_text(e)), e)
        assert e == copy and hash(e) == hash(copy) and ref_equal(e, copy)
        renamed = edit_one(copy, Gen, lambda t: Gen(t.name + "x"), rng)
        assert e != renamed and not ref_equal(e, renamed)
        rescaled = edit_one(copy, Scale, lambda t: Scale(t.factor + 0.5, t.child), rng)
        if rescaled is not None:
            assert e != rescaled and not ref_equal(e, rescaled)
