"""Slack-basis simplex: known optima, statuses, input checks, exact pivoting."""

from fractions import Fraction

import numpy as np
import pytest

from fblab.lp import OPTIMAL, UNBOUNDED, LPError, solve_lp


def test_box_maximum():
    r = solve_lp([1, 1], A_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert r.status == OPTIMAL
    assert r.value == pytest.approx(5.0, abs=1e-9)
    assert r.x == pytest.approx([2.0, 3.0], abs=1e-9)


def test_classic_two_var_program():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    r = solve_lp([3, 5], A_ub=[[1, 0], [0, 2], [3, 2]], b_ub=[4, 12, 18])
    assert r.status == OPTIMAL
    assert r.value == pytest.approx(36.0, abs=1e-9)
    assert r.x == pytest.approx([2.0, 6.0], abs=1e-9)


def test_unbounded():
    r = solve_lp([1], A_ub=[], b_ub=[])
    assert r.status == UNBOUNDED


def test_exact_rational_solution():
    r = solve_lp([1], A_ub=[[2]], b_ub=[3], exact=True)
    assert r.status == OPTIMAL
    assert r.value == Fraction(3, 2)
    assert r.x == [Fraction(3, 2)]


def test_exact_matches_float_on_random_programs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, m = 3, 4
        A = [[Fraction(int(rng.integers(-3, 4)), 2) for _ in range(n)] for _ in range(m)]
        b = [Fraction(int(rng.integers(1, 6)), 1) for _ in range(m)]
        c = [Fraction(int(rng.integers(-2, 5)), 1) for _ in range(n)]
        rf = solve_lp([float(v) for v in c],
                      A_ub=[[float(v) for v in row] for row in A],
                      b_ub=[float(v) for v in b])
        rx = solve_lp(c, A_ub=A, b_ub=b, exact=True)
        assert rf.status == rx.status
        if rf.status == OPTIMAL:
            assert abs(rf.value - float(rx.value)) <= 1e-9


def test_degenerate_program_terminates():
    # many redundant constraints through the optimum; Bland's rule must not cycle
    r = solve_lp(
        [1, 1],
        A_ub=[[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]],
        b_ub=[1, 1, 2, 1, 1],
    )
    assert r.status == OPTIMAL
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_raises():
    # the slack basis would be infeasible, and there is no phase 1
    with pytest.raises(LPError):
        solve_lp([1], A_ub=[[1], [-1]], b_ub=[-2, 1])


def test_length_mismatch_raises():
    with pytest.raises(LPError):
        solve_lp([1, 1], A_ub=[[1, 0]], b_ub=[1, 1])
    with pytest.raises(LPError):
        solve_lp([1, 1], A_ub=[[1]], b_ub=[1])
