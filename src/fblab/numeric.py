"""Candidate rays of hyperplane normals, in floats or exactly.

candidate_rays gives one direction per null line of the (n-1)-subsets of
the rows, listed in the order of the first subset that cuts the line out;
the caller reads -d off d.  Floats take each subset's signed maximal minors
in numpy blocks, with relative rank and residual tests.  Exact mode reads
every entry, float or Fraction, as an exact integer ratio, makes each row a
primitive integer vector and finds the lines by ordered restriction in
Python ints (_lines), with no tolerance at any n.  The order matters: the
norm LP (fblnorm) pivots by Bland's rule over columns in this order, so
another order can take other pivots to another optimal certificate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
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


def _primitive(ints) -> tuple:
    """The integer vector divided by the gcd of its entries, signed so that
    its last nonzero entry is positive; the zero vector stays zero.
    """
    g = math.gcd(*ints) or 1
    if next((v for v in reversed(ints) if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _int_rows(rows) -> list:
    """Each row as the primitive integer vector of its hyperplane, with its
    last nonzero entry positive (_primitive): the entries, float or
    Fraction, are read exactly (as_integer_ratio) and cleared by their lcm.
    """
    out = []
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        den = math.lcm(*(q for _, q in ratios))
        out.append(_primitive([p * (den // q) for p, q in ratios]))
    return out


def _lines(rows, n) -> list:
    """The null lines of the (n-1)-subsets of integer rows in R^n, n >= 2,
    each as its primitive form, in the order of the lexicographically
    first subset whose null line it is.

    Zero rows are dropped and repeats kept once, first.  Row a, with last
    nonzero coordinate p, restricts every later row b to the hyperplane
    <a, x> = 0 in the coordinates q != p: b'_q = a_p b_q - b_p a_q.  The
    lines of the restricted rows lift back by x_q = a_p l_q for q != p and
    x_p = -sum_{q != p} a_q l_q.  The first subset of a line L takes the
    rows through L greedily: its first row is the first row through L, and
    as b' depends on restricted rows exactly when b depends on a and their
    rows, the rest is the first subset of L among the restricted rows,
    which by induction is where a's branch lists L first.  Earlier branches
    lie in other hyperplanes, so first-kept deduplication gives the subset
    order.  At n == 2, row (u, v) gives the line (-v, u).
    """
    rows = list(dict.fromkeys(r for r in rows if any(r)))
    if n == 2:
        return [_primitive((-v, u)) for u, v in rows]
    found = []
    for i, a in enumerate(rows):
        p = max(q for q, v in enumerate(a) if v)
        rest = a[:p] + a[p + 1:]
        sub = (_primitive([a[p] * bq - b[p] * aq for bq, aq in zip(b[:p] + b[p + 1:], rest)])
               for b in rows[i + 1:])
        for line in _lines(sub, n - 1):
            x = [a[p] * v for v in line]
            x.insert(p, -sum(c * v for c, v in zip(rest, line)))
            found.append(_primitive(x))
    return list(dict.fromkeys(found))


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

    Exact mode restricts the rows one hyperplane at a time in Python ints
    (_lines), the restriction A^H of deletion-restriction (Orlik & Terao,
    Arrangements of Hyperplanes, 1.3) taken in row order, which lists the
    lines in the same subset order as the float route; the norm LP's Bland
    pivots follow its columns' order, so another order could end at another
    certificate.  Rays are deduplicated by exact value.  Float mode takes,
    for a subset M of n-1 rows, the vector of its signed maximal minors
    d_j = (-1)^j det(M without column j), the generalized cross product:
    (b, -a) for n == 2, else one np.linalg.det call over the stacked minors
    of a block of _RAY_BLOCK subsets, deduplicated by 10 rounded digits
    (_float_ray_keys).  A subset is rank-deficient when sup|d| is at most
    _RANK_RTOL times the product of its rows' sup norms, each row must
    satisfy |<row, d>| <= NULL_RTOL * sup|row| * sup|d|, and "nonzero"
    means above _ORIENT_RTOL * sup|d|.  Blocks bound the memory on long
    hyperplane lists; each subset is computed apart, so a ray does not
    depend on its block.
    """
    if n == 1:
        return [(Fraction(1),) if exact else (1.0,)]
    if exact:
        return [tuple(Fraction(v, max(map(abs, d))) for v in d)
                for d in _lines(_int_rows(vectors), n)]
    subsets = itertools.combinations(range(len(vectors)), n - 1)
    rows = np.array(vectors, dtype=float)
    rays = {}
    while block := list(itertools.islice(subsets, _RAY_BLOCK)):
        d = _float_ray_block(rows, np.array(block))
        for key, canon in zip(_float_ray_keys(d), d.tolist()):
            rays.setdefault(key, tuple(canon))
    return list(rays.values())
