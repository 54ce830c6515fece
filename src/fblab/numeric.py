"""Small dual-arithmetic helpers shared by the geometry and norm modules.

Functions here accept floats or Fractions and stay exact when given exact
inputs.  Converting a float to Fraction is exact (binary expansion), so the
rational mode reproduces whatever doubles the expression layer produced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

__all__ = [
    "NULL_RTOL",
    "as_fraction",
    "pivot_columns",
    "negligible",
    "null_direction",
    "canonical_ray",
    "ray_key",
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


def _row_reduce(rows, n, exact: bool):
    """Reduced row echelon form and its pivot columns.

    Gaussian elimination with partial pivoting; exact mode uses Fractions and
    a zero pivot tolerance.  The pivot columns index a basis of the column
    space, so their count is the rank.
    """
    if exact:
        mat = [[as_fraction(v) for v in row] for row in rows]
        tol = Fraction(0)
    else:
        mat = [[float(v) for v in row] for row in rows]
        tol = 1e-11
    m = len(mat)
    pivot_cols = []
    r = 0
    for col in range(n):
        if r == m:
            break
        best = None
        best_abs = tol
        for i in range(r, m):
            a = abs(mat[i][col])
            if a > best_abs:
                best_abs = a
                best = i
        if best is None:
            continue
        mat[r], mat[best] = mat[best], mat[r]
        piv = mat[r][col]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    return mat, pivot_cols


def pivot_columns(rows, n, exact: bool):
    """Indices of n-coordinate columns that span the column space of rows."""
    return _row_reduce(rows, n, exact)[1]


def negligible(value, scale, exact: bool) -> bool:
    """Whether value counts as zero next to scale (a product of sup norms).

    Exact mode tests == 0; float mode allows a relative NULL_RTOL.
    """
    if exact:
        return value == 0
    return abs(value) <= NULL_RTOL * scale


def null_direction(rows, n, exact: bool):
    """One-dimensional null space of a stack of row vectors, or None.

    rows: sequence of length-n sequences.  Returns a direction vector when
    the null space has dimension exactly one, else None.  Float results are
    checked against the original rows, since a nearly singular stack can
    slip past the pivot tolerance and emit a direction that annihilates
    nothing.
    """
    mat, pivot_cols = _row_reduce(rows, n, exact)
    if n - len(pivot_cols) != 1:
        return None
    free = next(c for c in range(n) if c not in pivot_cols)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    d = [zero] * n
    d[free] = one
    for i, col in enumerate(pivot_cols):
        d[col] = -mat[i][free]
    if not exact:
        d_sup = max(abs(v) for v in d)
        for row in rows:
            row = [float(v) for v in row]
            row_sup = max((abs(v) for v in row), default=0.0)
            if not negligible(sum(a * b for a, b in zip(row, d)), row_sup * d_sup, False):
                return None
    return d


def canonical_ray(d, exact: bool):
    """Scale a direction by a positive factor so its largest entry is +/-1.

    Positive scaling preserves the ray (and every evaluation sign along it),
    so this is a dedup key for directions: d and -d stay distinct, positive
    multiples collapse.  Sup-norm scaling keeps every component in [-1, 1],
    which the norm LP downstream relies on for conditioning.  Returns None
    for the zero vector.
    """
    lead = max(abs(v) for v in d) if d else None
    if not lead:
        return None
    scaled = [v / lead for v in d]
    if not exact:
        scaled = [float(v) for v in scaled]
    return scaled


def ray_key(d, exact: bool) -> tuple:
    """Dedup key of a canonical ray: the ray itself, or 10 digits of it."""
    return tuple(d) if exact else _float_ray_keys([d])[0]


def _float_ray_keys(rays) -> list:
    """The float ray_key of each ray of a (K, n) block: its entries rounded
    to 10 decimal digits by np.round, elementwise, so that a ray's key does
    not depend on the block it comes in.
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
    """All +/- null directions of (n-1)-subsets of the row vectors.

    Each direction is scaled to sup norm 1 (canonical_ray) and listed once
    by ray_key, in subset order, d before -d.  With n == 1 the two rays are
    +1 and -1.

    Exact mode row-reduces each subset in Fractions (null_direction).
    Float mode takes, for a subset M of n-1 rows, the vector of its signed
    maximal minors d_j = (-1)^j det(M without column j), the generalized
    cross product, which is orthogonal to every row of M: for n == 2 that
    is (b, -a), for n >= 3 one np.linalg.det call over the stacked minors
    of a block of _RAY_BLOCK subsets.  A subset is rank-deficient when
    sup|d| is at most _RANK_RTOL times the product of its rows' sup norms,
    and, as in null_direction, d must also satisfy |<row, d>| <= NULL_RTOL
    * sup|row| * sup|d| for each row.  d is oriented so that its last entry
    above _ORIENT_RTOL * sup|d| is positive, the sign row reduction gives
    its free column.  Blocks bound the memory on long hyperplane lists;
    each subset is computed apart, so a ray does not depend on its block.
    """
    seen = set()
    rays = []

    def add(key, canon):
        if key not in seen:
            seen.add(key)
            rays.append(tuple(canon))

    if n == 1:
        one = Fraction(1) if exact else 1.0
        for canon in ((one,), (-one,)):
            add(ray_key(canon, exact), canon)
        return rays
    subsets = itertools.combinations(range(len(vectors)), n - 1)
    if exact:
        for subset in subsets:
            d = null_direction([vectors[i] for i in subset], n, exact)
            if d is None:
                continue
            for canon in (canonical_ray(d, exact), canonical_ray([-v for v in d], exact)):
                add(ray_key(canon, exact), canon)
        return rays
    rows = np.array(vectors, dtype=float)
    while block := list(itertools.islice(subsets, _RAY_BLOCK)):
        d = _float_ray_block(rows, np.array(block))
        d = np.concatenate((d, -d), axis=1).reshape(-1, n)
        for key, canon in zip(_float_ray_keys(d), d.tolist()):
            add(key, canon)
    return rays
