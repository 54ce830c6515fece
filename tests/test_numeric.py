"""Candidate rays.

The float minors route is checked against the exact route in order, and
the exact rays against a referee that shares no code with numeric: each
full-rank (n-1)-subset's null line solved in Fractions, in
itertools.combinations order, the first of each line kept.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fblab import numeric
from fblab.numeric import candidate_rays
from exact_lines_timing import CHAINS, hyperplane_rows


def exact_as_float(rows, n):
    return [tuple(float(v) for v in d) for d in candidate_rays(rows, n, True)]


def assert_same_rays(float_rays, exact_rays):
    """Same rays in the same order (so d oriented as the exact route
    orients it), each entry within 1e-12."""
    assert len(float_rays) == len(exact_rays)
    for d, e in zip(float_rays, exact_rays):
        assert np.max(np.abs(np.subtract(d, e))) <= 1e-12, (d, e)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_float_rays_equal_exact_rays_in_order(n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        h = int(rng.integers(n - 1, n + 5))
        rows = rng.integers(-4, 5, (h, n)).tolist()
        assert_same_rays(candidate_rays(rows, n, False), exact_as_float(rows, n))


def test_duplicate_parallel_and_rank_deficient_rows_add_nothing():
    for exact in (False, True):
        rows = [[1, 2, 0], [0, 1, -1], [2, 0, 1]]
        base = candidate_rays(rows, 3, exact)
        assert len(base) == 3  # one direction per line
        # a duplicate, a parallel and an antiparallel row: every new subset
        # repeats a ray or is singular
        extra = rows + [[1, 2, 0], [3, 6, 0], [-0.5, -1, 0]]
        assert candidate_rays(extra, 3, exact) == base
        # a stack of rank 1 has no one-dimensional null space in R^3
        assert candidate_rays([[1, 1, 1], [2, 2, 2], [-1, -1, -1]], 3, exact) == []
        # the zero row is rank-deficient with any partner
        assert candidate_rays([[0, 0, 0], [1, 0, 0]], 3, exact) == []
        assert candidate_rays([[0, 0]], 2, exact) == []


def rounded(rays):
    """The rays as a set, each entry rounded to 10 digits."""
    return {tuple(np.round(np.asarray(d, dtype=float), 10).tolist()) for d in rays}


@pytest.mark.parametrize("scale", [1e-7, 3e5])
def test_badly_scaled_rows_give_the_rational_ray_set(scale):
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        rows = (rng.integers(-4, 5, (n + 3, n)) * scale).tolist()
        fl = candidate_rays(rows, n, False)
        ex = exact_as_float(rows, n)
        assert rounded(fl) == rounded(ex)
        assert_same_rays(fl, ex)


def test_one_coordinate_and_too_few_rows():
    assert candidate_rays([], 1, False) == [(1.0,)]
    assert candidate_rays([[3]], 1, True) == [(Fraction(1),)]
    assert candidate_rays([[1, 2, 3, 4]], 4, False) == []
    assert candidate_rays([], 3, True) == []


@pytest.mark.parametrize("block", [1, 7])
def test_rays_do_not_depend_on_the_block(monkeypatch, block):
    """4 generators, 16 hyperplanes: 560 subsets in blocks of 1, 7 or the
    default give the same rays, bit for bit."""
    rng = np.random.default_rng(4)
    rows = rng.uniform(-1.0, 1.0, (16, 4)).tolist()
    rows[5] = [2.0 * v for v in rows[2]]  # rank-deficient subsets too
    default = candidate_rays(rows, 4, False)
    monkeypatch.setattr(numeric, "_RAY_BLOCK", block)
    blocked = candidate_rays(rows, 4, False)
    assert [tuple(map(float.hex, d)) for d in blocked] == \
        [tuple(map(float.hex, d)) for d in default]


def null_line(sub, n):
    """The null line of the rows sub by Gauss-Jordan elimination in
    Fractions, scaled to sup norm 1 with its last nonzero entry positive,
    or None when their rank is below n - 1."""
    m = [[Fraction(v) for v in row] for row in sub]
    pivots = []
    for c in range(n):
        r = next((r for r in range(len(pivots), len(m)) if m[r][c]), None)
        if r is None:
            continue
        k = len(pivots)
        m[k], m[r] = m[r], m[k]
        pivot = m[k][c]
        m[k] = [v / pivot for v in m[k]]
        for i, row in enumerate(m):
            if i != k and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[k])]
        pivots.append(c)
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    d = [Fraction(0)] * n
    d[free] = Fraction(1)
    for row, c in zip(m, pivots):
        d[c] = -row[free]
    lead = max(map(abs, d))  # d[free] = 1 is the last nonzero entry
    return tuple(v / lead for v in d)


def arrangements(case):
    """(n, rows) pairs: seeded integer rows with a parallel, a zero, an
    antiparallel and a repeated row, or the 25 hyperplanes of the
    three-join chain over 4 generators as exact_fbl_norm builds them."""
    if case == "chain":
        yield hyperplane_rows(CHAINS[0])
        return
    n, h, count = case
    rng = np.random.default_rng(100 + n)
    for _ in range(count):
        rows = rng.integers(-3, 4, (h, n)).tolist()
        rows[-1] = [2 * v for v in rows[0]]  # a parallel row
        yield n, rows + [[0] * n, [-v for v in rows[1]], rows[2]]


@pytest.mark.parametrize("case", [(2, 5, 8), (3, 6, 8), (4, 7, 6), (5, 7, 4), (6, 8, 1), "chain"],
                         ids=lambda c: c if c == "chain" else "-".join(map(str, c)))
def test_exact_rays_against_an_independent_referee(case):
    for n, rows in arrangements(case):
        found = (null_line(sub, n) for sub in itertools.combinations(rows, n - 1))
        referee = list(dict.fromkeys(d for d in found if d is not None))
        assert candidate_rays(rows, n, True) == referee
        if case == "chain":
            assert len(referee) == 240
