"""Weighted evaluation families and the subset-indicator instance."""

import numpy as np
import pytest

from fblab.expr import Gen, Join, Scale, Sum, absval, parse_expr, to_maxmin
from fblab.fblnorm import exact_fbl_norm, fbl_space
from fblab.homs import (
    EvalHom,
    HomError,
    PhiInstance,
    apply_hom,
    build_phi,
    check_hom_laws,
    subset_name,
)
from exprgen import random_expr_capped


def test_subset_names_sort_indices():
    assert subset_name({2, 1}) == "s1_2"
    assert subset_name((3,)) == "s3"
    assert subset_name([1, 3, 2]) == "s1_2_3"


# ---------------------------------------------------------------------------
# construction of the subset instance


def test_build_level_one():
    inst = build_phi(1)
    assert inst.subsets == ((1,),)
    assert inst.generators == ("s1",)
    assert inst.chi_points == ((1.0,),)


def test_build_level_two_points():
    inst = build_phi(2)
    assert inst.subsets == ((1,), (2,), (1, 2))
    assert inst.chi_points[0] == (1.0, 0.0, 1.0)
    assert inst.chi_points[1] == (0.0, 1.0, 1.0)


def test_build_level_three_size():
    inst = build_phi(3)
    assert len(inst.generators) == 7
    assert inst.hom.rank() == 3


def test_build_level_out_of_range():
    with pytest.raises(HomError):
        build_phi(0)
    with pytest.raises(HomError):
        build_phi(13)


def test_chi_points_are_indicator_valued():
    inst = build_phi(4)
    for n, point in enumerate(inst.chi_points, start=1):
        for subset, v in zip(inst.subsets, point):
            assert v == (1.0 if n in subset else 0.0)


# ---------------------------------------------------------------------------
# applying homomorphisms


def test_singleton_generators_lift_the_basis():
    inst = build_phi(5)
    for n in range(1, 6):
        image = apply_hom(inst.hom, Gen(subset_name({n})))
        want = tuple(1.0 if m == n else 0.0 for m in range(1, 6))
        assert image == want


def test_pair_generator_hits_two_components():
    inst = build_phi(3)
    image = apply_hom(inst.hom, Gen(subset_name({1, 2})))
    assert image == (1.0, 1.0, 0.0)


def test_join_with_negation_gives_componentwise_abs():
    inst = build_phi(2)
    e = Sum(Gen("s1"), Scale(-2.0, Gen("s1_2")))
    lhs = apply_hom(inst.hom, Join(e, Scale(-1.0, e)))
    rhs = tuple(abs(v) for v in apply_hom(inst.hom, e))
    assert lhs == rhs


def test_apply_hom_rejects_foreign_generators():
    inst = build_phi(2)
    with pytest.raises(HomError):
        apply_hom(inst.hom, Gen("zz"))


# ---------------------------------------------------------------------------
# type-level invariants


def test_negative_weight_rejected():
    with pytest.raises(HomError):
        EvalHom(("a",), ((-0.5, (1.0,)),))


def test_point_outside_cube_rejected():
    with pytest.raises(HomError):
        EvalHom(("a",), ((1.0, (1.5,)),))


def test_dimension_mismatch_rejected():
    with pytest.raises(HomError):
        EvalHom(("a", "b"), ((1.0, (0.5,)),))


# ---------------------------------------------------------------------------
# law checking


def test_laws_on_level_two_singletons():
    inst = build_phi(2)
    rep = check_hom_laws(inst.hom, [(Gen("s1"), Gen("s2"))])
    assert rep["pass"]
    assert rep["worst_deviation"]["join"] == 0.0


def test_join_law_idempotent_pair():
    inst = build_phi(2)
    e = parse_expr("d(s1) v 0.5*d(s1_2)")
    rep = check_hom_laws(inst.hom, [(e, e)])
    assert rep["pass"]


def test_laws_on_random_pairs():
    rng = np.random.default_rng(61)
    gens = ("a", "b", "c")
    hom = EvalHom(
        gens,
        tuple(
            (float(rng.uniform(0.0, 2.0)), tuple(rng.uniform(-1.0, 1.0, 3)))
            for _ in range(4)
        ),
    )
    pairs = [
        (random_expr_capped(rng, gens, depth=3), random_expr_capped(rng, gens, depth=3))
        for _ in range(100)
    ]
    rep = check_hom_laws(hom, pairs)
    assert rep["pass"], rep["failures"]
    assert rep["pairs"] == 100


def test_meet_commutes_too():
    # meet is join of negations; spot-check directly through evaluation
    inst = build_phi(2)
    e, g = Gen("s1"), Gen("s1_2")
    he = apply_hom(inst.hom, e)
    hg = apply_hom(inst.hom, g)
    from fblab.expr import Meet

    assert apply_hom(inst.hom, Meet(e, g)) == tuple(map(min, he, hg))


# ---------------------------------------------------------------------------
# norm compatibility


def test_single_point_images_stay_below_the_norm():
    rng = np.random.default_rng(67)
    inst = build_phi(2)
    gens = inst.generators
    space = fbl_space(gens)
    for _ in range(10):
        e = random_expr_capped(rng, gens, depth=3, max_size=16)
        bracket = exact_fbl_norm(to_maxmin(e), space)
        image = apply_hom(inst.hom, e)
        assert max(abs(v) for v in image) <= float(bracket.upper) + 1e-9
