"""Candidate rays of hyperplane normals, in floats or exactly.

A null direction of n-1 rows in R^n is found one way only: as the vector
of the rows' signed maximal minors (candidate_rays), one direction per
null line; the caller reads -d off d.  Floats take the minors in numpy
blocks, with relative rank and residual tests.  Exact mode reads every
entry, float or Fraction, as an exact integer ratio, clears each row's
denominators and takes the minors as Python ints by one fraction-free
elimination (_eliminate), with no tolerance at any n.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "NULL_RTOL",
    "as_fraction",
    "candidate_rays",
]

# Relative zero test of float mode: a product counts as zero when it is at
# most NULL_RTOL times the product of its factors' sup norms.
NULL_RTOL = 1e-8
# Float candidate rays (candidate_rays): a subset is rank-deficient when its
# minors' sup norm is at most _RANK_RTOL times the product of its rows' sup
# norms; an entry counts for orientation above _ORIENT_RTOL times the sup;
# subsets go through numpy in blocks of _RAY_BLOCK.
_RANK_RTOL = 1e-11
_ORIENT_RTOL = 1e-12
_RAY_BLOCK = 4096


def as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _int_rows(rows) -> list:
    """Each row times the positive rational that makes it a primitive
    integer vector; floats and Fractions are read exactly (as_integer_ratio).
    """
    out = []
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        den = math.lcm(*(q for _, q in ratios))
        ints = [p * (den // q) for p, q in ratios]
        g = math.gcd(*ints) or 1
        out.append([v // g for v in ints])
    return out


def _eliminate(mat, n):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows.

    The list mat is permuted and its rows replaced, never changed in place.
    Each step's division by the previous pivot is exact, so every entry
    stays an integer minor of the input; on return every pivot row holds the
    same pivot D, +/- the determinant of the pivot rows on the pivot
    columns, in its pivot column and 0 in the other pivot columns.  Returns
    the pivot columns; their count is the rank.
    """
    m = len(mat)
    pivots = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        i = next((i for i in range(r, m) if mat[i][col]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        top = mat[r]
        p = top[col]
        for k in range(m):
            if k != r:
                a = mat[k][col]
                mat[k] = [(p * x - a * y) // prev for x, y in zip(mat[k], top)]
        prev = p
        pivots.append(col)
    return pivots


def _int_null_direction(rows, n):
    """The signed maximal minors of n-1 integer rows, scaled to a null
    direction of sup norm 1 whose last nonzero entry is positive, in
    Fractions, or None when all minors are 0.

    After _eliminate, with pivot D and free column f, row i reads D in its
    pivot column c_i and the minor with column c_i replaced by f in column
    f (Cramer), so d_f = D and d_{c_i} = -(row i)_f.  Entries after f are 0.
    """
    mat = list(rows)
    pivots = _eliminate(mat, n)
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    d = [0] * n
    d[free] = mat[0][pivots[0]]
    for row, c in zip(mat, pivots):
        d[c] = -row[free]
    lead = max(map(abs, d)) if d[free] > 0 else -max(map(abs, d))
    return tuple(Fraction(v, lead) for v in d)


def _float_ray_keys(rays) -> list:
    """The float dedup key of each ray of a (K, n) block: its entries
    rounded to 10 decimal digits by np.round, elementwise, so that a ray's
    key does not depend on the block it comes in.
    """
    return list(map(tuple, np.round(np.asarray(rays, dtype=float), 10).tolist()))


def _float_ray_block(rows, subsets):
    """Canonical float null directions of a block of (n-1)-subsets of rows.

    rows: (h, n) float array; subsets: (C, n-1) index array in subset order.
    Returns the directions of the subsets that pass the rank and residual
    tests, in subset order.  Every step treats each subset apart from the
    others in the block.
    """
    M = rows[subsets]  # (C, n-1, n)
    n = M.shape[2]
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    if n == 2:
        d = M[:, 0, ::-1] * signs
    else:
        drop = np.array([[c for c in range(n) if c != j] for j in range(n)])
        d = np.linalg.det(M[:, :, drop].transpose(0, 2, 1, 3)) * signs
    row_sup = np.abs(M).max(axis=2)  # (C, n-1)
    d_sup = np.abs(d).max(axis=1)
    full = d_sup > _RANK_RTOL * row_sup.prod(axis=1)
    M, d, d_sup, row_sup = M[full], d[full], d_sup[full], row_sup[full]
    d = d / d_sup[:, None]
    last = n - 1 - np.argmax(np.abs(d[:, ::-1]) > _ORIENT_RTOL, axis=1)
    d *= np.copysign(1.0, d[np.arange(len(d)), last])[:, None]
    residual = np.abs((M * d[:, None, :]).sum(axis=2))
    return d[(residual <= NULL_RTOL * row_sup).all(axis=1)]


def candidate_rays(vectors, n, exact: bool):
    """One direction per null line of the (n-1)-subsets of the row vectors.

    Each direction is scaled to sup norm 1, oriented so that its last
    nonzero entry is positive, and listed once, in subset order; its
    antipode -d is not listed.  With n == 1 the one ray is +1.

    For a subset M of n-1 rows, d is the vector of its signed maximal
    minors d_j = (-1)^j det(M without column j), the generalized cross
    product, up to a common factor.  Exact mode takes the minors in Python
    ints (_int_null_direction): a subset is rank-deficient when all are 0,
    and rays are deduplicated by exact value.  Float mode takes (b, -a) for
    n == 2, else one np.linalg.det call over the stacked minors of a block
    of _RAY_BLOCK subsets, and dedups by 10 rounded digits
    (_float_ray_keys).  There a subset is rank-deficient when sup|d| is at
    most _RANK_RTOL times the product of its rows' sup norms, each row must
    satisfy |<row, d>| <= NULL_RTOL * sup|row| * sup|d|, and "nonzero"
    means above _ORIENT_RTOL * sup|d|.  Blocks bound the memory on long
    hyperplane lists; each subset is computed apart, so a ray does not
    depend on its block.
    """
    if n == 1:
        return [(Fraction(1),) if exact else (1.0,)]
    subsets = itertools.combinations(range(len(vectors)), n - 1)
    if exact:
        ints = _int_rows(vectors)
        found = (_int_null_direction([ints[i] for i in s], n) for s in subsets)
        return list(dict.fromkeys(d for d in found if d is not None))
    rows = np.array(vectors, dtype=float)
    rays = {}
    while block := list(itertools.islice(subsets, _RAY_BLOCK)):
        d = _float_ray_block(rows, np.array(block))
        for key, canon in zip(_float_ray_keys(d), d.tolist()):
            rays.setdefault(key, tuple(canon))
    return list(rays.values())
