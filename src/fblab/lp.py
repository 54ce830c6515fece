"""Dense primal simplex with Bland's rule, started from the slack basis.

fblab solves two kinds of LP, both in the one form maximize c.x subject
to A_ub x <= b_ub and x >= 0, with b_ub >= 0: the norm LP
(fblnorm.exact_fbl_norm) and, in Fractions, one LP per max-min group of
a cube sup norm (plfan.sup_norm_on_cube, which shifts its box to make
every right-hand side nonnegative).  A nonnegative right-hand side makes
the slack basis feasible, so the simplex starts there and needs no phase
1, no artificial columns and no variable substitution.

One code path serves two arithmetic modes: float64 tableaus with a 1e-9
comparison tolerance, and exact Fraction tableaus (object dtype) with zero
tolerance.  Bland's rule (lowest eligible index enters, lowest basic index
breaks ratio ties) makes every run deterministic and cycle-free, so a result
is reproducible bit-for-bit for a given input and mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numeric import as_fraction

__all__ = ["LPResult", "LPError", "solve_lp", "OPTIMAL", "UNBOUNDED"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000


class LPError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str
    x: list
    value: object
    iterations: int


def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = T[row] / piv
    for i in range(len(T)):
        if i == row:
            continue
        factor = T[i][col]
        if factor != 0:
            T[i] = T[i] - factor * T[row]
    basis[row] = col


def _simplex_phase(T, basis, tol, iterations):
    """Run Bland pivots until optimal or unbounded; objective is the last row."""
    m = len(T) - 1
    width = len(T[0]) - 1
    while True:
        obj = T[m]
        enter = -1
        for j in range(width):
            if obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, iterations
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > tol:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, iterations
        _pivot(T, basis, leave, enter)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise LPError("pivot cap exceeded")


def solve_lp(c, A_ub=(), b_ub=(), exact=False):
    """Maximize c.x subject to A_ub x <= b_ub and x >= 0, where b_ub >= 0.

    Returns an LPResult; value is sum c_j*x_j in column order.  Raises
    LPError on a negative right-hand side or mismatched lengths.
    """
    num, tol = (as_fraction, Fraction(0)) if exact else (float, 1e-9)
    zero, one = num(0), num(1)
    c = [num(v) for v in c]
    rows = [[num(v) for v in row] for row in A_ub]
    b = [num(v) for v in b_ub]
    n, m = len(c), len(rows)
    if len(b) != m or any(len(row) != n for row in rows):
        raise LPError("constraint lengths mismatch")
    if any(v < 0 for v in b):
        raise LPError("negative right-hand side")

    # Columns: x, then one slack per row, then the right-hand side.
    T = [row + [one if k == i else zero for k in range(m)] + [bi]
         for i, (row, bi) in enumerate(zip(rows, b))]
    T.append([-v for v in c] + [zero] * (m + 1))
    dtype = object if exact else float
    T = [np.array(row, dtype=dtype) for row in T]
    basis = list(range(n, n + m))

    status, iterations = _simplex_phase(T, basis, tol, 0)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, [], None, iterations)

    xs = [zero] * (n + m)
    for i, j in enumerate(basis):
        xs[j] = T[i][-1]
    xs = xs[:n]
    value = sum(cv * xv for cv, xv in zip(c, xs))
    if not exact:
        xs = [float(v) for v in xs]
        value = float(value)
    return LPResult(OPTIMAL, xs, value, iterations)
