"""Free-Banach-lattice norms over finitely many generators.

For a positively homogeneous f on dual space R^G the norm computed here is

    ||f|| = sup { sum_i |f(x_i)| : sum_i |<x_i, v>| <= 1 for every ball
                  vertex v }

over finite families of dual vectors.  For the free lattice over a plain
generator set the ball vertices are +/- the coordinate unit vectors, which
makes the constraint "every coordinatewise absolute column sum is at most
one" and in particular confines each x_i to the cube.  Polyhedral variants
plug in a different symmetric, spanning vertex list.

Exactness route.  For piecewise-linear f the sup is a finite LP:

1.  Merging.  f is a max-min form or a stored PLFunction, and
    plfan.pl_parts gives its break hyperplanes (for a form, the pairwise
    differences of its functionals; for a stored function, the lines
    through its rays) and its zero sets (every functional of the form, or
    every piece).  Refine the breaks by the zero sets and by the vertex
    hyperplanes <., v> = 0.  On each refined cell |f| is linear and every
    <., v> has constant sign, so two family members in the same cell can be
    added without changing the objective or any constraint sum.  An optimal
    family therefore needs at most one point per cell.
2.  Ray decomposition.  Each refined cell is a pointed polyhedral cone (the
    vertex normals span), so its points are nonnegative combinations of its
    extreme rays, and both the objective and the constraint sums are linear
    along that decomposition.  The sup is then a finite LP over weighted
    candidate rays: maximize sum w_d |f(d)| subject to, per vertex v,
    sum_d w_d |<d, v>| <= 1 and w >= 0.  The constraints are even in d, so
    d and -d have the same constraint coefficients, and weight on the one
    with the smaller |f| can move to the other: the LP takes one column per
    line through the origin, priced at max(|f(d)|, |f(-d)|).
3.  Candidates.  Every extreme ray of every refined cell lies in the
    intersection of some n-1 independent hyperplanes of the refinement, so
    the null lines of all (n-1)-subsets of the hyperplane list form a
    complete candidate set.  Extra candidates are harmless: any feasible
    weighting *is* an admissible family, so the LP value never exceeds the
    norm, and completeness gives the reverse inequality.

The LP optimum is the exact norm; the nonzero weights assemble a replayable
certificate family.  The oracle route below shares nothing with this LP: it
is restart-based stochastic hill climbing on raw configurations, so the two
routes genuinely cross-check each other.  Its restarts climb side by side,
one stacked evaluation per step for all of them, each step running every
restart's sweeps up to its next kept move, and it accepts a move only
when the value grows by a relative 2**-40, so scaling F by a power of two
scales the bound and leaves the search unchanged.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import plfan
from .expr import (
    FLOAT_RANGE,
    LatticeExpr,
    MaxMinEvaluator,
    LinearFunctional,
    SpaceError,
    parse_expr,
    support,
    to_maxmin,
)
from .lp import OPTIMAL, solve_lp
from .numeric import as_fraction, candidate_rays

__all__ = [
    "AdmissibilitySpace",
    "DualConfig",
    "AdmissibilityReport",
    "NormBracket",
    "SpaceError",
    "fbl_space",
    "linf_vertex_space",
    "admissible",
    "config_value",
    "MaxMinEvaluator",
    "expr_evaluator",
    "pl_evaluator",
    "abs_coordinate_product",
    "exact_fbl_norm",
    "oracle_lower_bound",
    "check_lemma34",
    "norm_of_expression",
    "make_certificate",
    "write_certificate",
    "load_certificate",
    "replay_certificate",
    "ADMISSIBILITY_TOL",
]

ADMISSIBILITY_TOL = 1e-12


def _spans(V: np.ndarray, n: int) -> bool:
    """Whether np.linalg.matrix_rank(V) is n.  The eigenvalues of the Gram
    matrix V^T V are the squared singular values of V, and forming and
    solving it errs by far less than 1e-8 of the largest one while that is
    a normal float well above the subnormals.  So a smallest one above 1e-8
    of the largest proves full rank without the SVD, which takes several
    times as long on many vertices; otherwise matrix_rank decides."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        ev = np.linalg.eigvalsh(V.T @ V)
    return bool(ev[0] > 1e-8 * ev[-1] > 1e-300) or np.linalg.matrix_rank(V) >= n


@dataclass(frozen=True)
class AdmissibilitySpace:
    """Generator tuple plus the vertex list of the predual ball.

    The vertex list must be nonempty, symmetric (closed under negation) and
    spanning; those are exactly the conditions under which admissible
    configurations are bounded and the norm is finite.
    """

    generators: tuple
    ball_vertices: tuple

    def __post_init__(self):
        n = len(self.generators)
        if n == 0:
            raise SpaceError("need at least one generator")
        if len(set(self.generators)) != n:
            raise SpaceError("duplicate generator names")
        if not self.ball_vertices:
            raise SpaceError("empty ball vertex list")
        vset = {tuple(map(float, v)) for v in self.ball_vertices}
        if any(len(v) != n for v in vset):
            raise SpaceError("vertex dimension mismatch")
        if not all(tuple(map(operator.neg, v)) in vset for v in vset):
            raise SpaceError("vertex list is not symmetric")
        if not _spans(np.array(list(vset)), n):
            raise SpaceError("vertex list does not span")

    @cached_property
    def _vertex_terms(self) -> tuple:
        """Per ball vertex, its (index, float entry) pairs with a nonzero
        entry: the products admissible sums for a finite point."""
        return tuple(tuple((i, float(v[i])) for i in itertools.compress(range(len(v)), v))
                     for v in self.ball_vertices)

    def representatives(self) -> tuple:
        """One vertex per antipodal pair, first-nonzero-positive orientation."""
        def canon(v):
            return tuple(v) if next((x for x in v if x != 0), 0) >= 0 else tuple(-x for x in v)
        return tuple(dict.fromkeys(map(canon, self.ball_vertices)))


def fbl_space(generators) -> AdmissibilitySpace:
    """Free-lattice space over the generators: vertices are +/- unit vectors."""
    generators = tuple(generators)
    n = len(generators)
    verts = []
    for i in range(n):
        for zero, one in ((0.0, 1.0), (-0.0, -1.0)):
            v = [zero] * n
            v[i] = one
            verts.append(tuple(v))
    return AdmissibilitySpace(generators, tuple(verts))


def linf_vertex_space(generators) -> AdmissibilitySpace:
    """Polyhedral variant: the ball vertices are all sign vectors."""
    generators = tuple(generators)
    n = len(generators)
    if n > 16:
        raise SpaceError("sign-vertex space limited to 16 generators")
    verts = [tuple(float(s) for s in signs) for signs in itertools.product((1, -1), repeat=n)]
    return AdmissibilitySpace(generators, tuple(verts))


@dataclass(frozen=True)
class DualConfig:
    points: tuple  # tuples aligned with the space's generator order


@dataclass
class AdmissibilityReport:
    ok: bool
    worst_sum: float
    worst_vertex: Optional[tuple]


def admissible(config: DualConfig, space: AdmissibilitySpace) -> AdmissibilityReport:
    """Check sum_i |<x_i, v>| <= 1 + ADMISSIBILITY_TOL against every ball
    vertex.

    A non-finite sum is not admissible, and neither is a family with a
    point whose length is not the generator count (its sum is NaN).  For
    finite points each product sum runs over the vertex's nonzero entries
    only (space._vertex_terms): a zero product leaves a float sum as it is,
    up to the sign of a zero that abs drops.  A family with a non-finite
    coordinate takes every entry, since inf * 0 is NaN.
    """
    if any(len(x) != len(space.generators) for x in config.points):
        return AdmissibilityReport(False, math.nan, None)
    points = [[float(a) for a in x] for x in config.points]
    if all(math.isfinite(a) for x in points for a in x):
        terms = space._vertex_terms
    else:
        terms = [tuple(enumerate(map(float, v))) for v in space.ball_vertices]
    worst = 0.0
    worst_v = None
    for v, vt in zip(space.ball_vertices, terms):
        s = 0.0
        for x in points:
            s += abs(sum(x[i] * b for i, b in vt))
        if not math.isfinite(s):
            return AdmissibilityReport(False, s, tuple(v))
        if s > worst:
            worst = s
            worst_v = tuple(v)
    return AdmissibilityReport(worst <= 1.0 + ADMISSIBILITY_TOL, worst, worst_v)


def config_value(F, config: DualConfig) -> float:
    """sum_i |F(x_i)| in family order; F takes a vector in generator order."""
    return sum(abs(float(F(x))) for x in config.points)


# ---------------------------------------------------------------------------
# evaluators


def expr_evaluator(e: LatticeExpr, generators) -> MaxMinEvaluator:
    return MaxMinEvaluator(to_maxmin(e), generators)


class pl_evaluator:
    """Float evaluator of a stored PLFunction: pl_value at one point,
    pl_value_many on a stack."""

    def __init__(self, f: plfan.PLFunction):
        self.f = f

    def __call__(self, x) -> float:
        return float(plfan.pl_value(self.f, tuple(float(v) for v in x)))

    def batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return plfan.pl_value_many(self.f, X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])


class abs_coordinate_product:
    """x -> F(x) * |x_a|: the degree-two product used by the norm bound check."""

    def __init__(self, F, coordinate_index: int):
        self.F = F
        self.idx = coordinate_index

    def __call__(self, x) -> float:
        return float(self.F(x)) * abs(float(x[self.idx]))

    def batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        inner = self.F.batch(X) if hasattr(self.F, "batch") else np.array(
            [self.F(row) for row in X.reshape(-1, X.shape[-1])]
        ).reshape(X.shape[:-1])
        return inner * np.abs(X[..., self.idx])


# ---------------------------------------------------------------------------
# norm bracket


@dataclass
class NormBracket:
    lower: float
    certificate: DualConfig
    upper: float  # math.inf marks "no upper bound claimed"
    diagnostics: dict = field(default_factory=dict)


def exact_fbl_norm(
    f,
    space: AdmissibilitySpace,
    exact: bool = False,
) -> NormBracket:
    """Exact norm of f, a MaxMinForm or a stored PLFunction, by the
    merged-family LP over candidate lines.

    See the module docstring for why the LP value equals the norm.  The
    normals are deduplicated by exact value after canonical_normal.  Each
    candidate line d is priced at max(|f(d)|, |f(-d)|), and its certificate
    point lies on the side that attains it, d on a tie.  Raises
    SpaceError when the space's generators miss one of a form's or differ
    from a stored function's (plfan.pl_parts).  The certificate is the
    weighted ray family with zero weights dropped, rescaled by the worst
    vertex sum when rounding pushed it above one, and its value is
    recomputed by direct evaluation, so lower is certified independently of
    the LP bookkeeping.  The float route raises OverflowError when a
    candidate ray's value (plfan.pl_parts) or the norm is not a finite
    float.
    """
    gens = space.generators
    n = len(gens)
    breaks, zero_sets, values, value = plfan.pl_parts(f, gens, exact)

    reps = space.representatives()
    if exact:
        reps = [tuple(as_fraction(c) for c in v) for v in reps]
    hyps = list(breaks)
    hyps += [p for p in zero_sets if not p.is_zero]
    hyps += [LinearFunctional.from_map(dict(zip(gens, v))) for v in reps]
    hyps = list(dict.fromkeys(plfan.canonical_normal(h, exact) for h in hyps))

    lines = candidate_rays([list(h.vector(gens)) for h in hyps], n, exact)
    neg = [tuple(-c for c in d) for d in lines]
    vals = values(lines + neg)
    rays, cvec = [], []
    for d, e, fd, fe in zip(lines, neg, vals, vals[len(lines):]):
        rays.append(d if abs(fd) >= abs(fe) else e)
        cvec.append(max(abs(fd), abs(fe)))
    if exact:
        rows = [[abs(sum(dc * vc for dc, vc in zip(d, v))) for d in rays] for v in reps]
    else:
        rows = np.abs(np.array(reps, dtype=float) @ np.array(rays).reshape(-1, n).T).tolist()
    # The float simplex compares reduced costs with an absolute tolerance, so
    # the objective is solved at unit scale; the weights do not depend on it.
    c_scale = 1 if exact else max(cvec, default=0.0) or 1.0

    res = solve_lp(
        [c / c_scale for c in cvec],
        A_ub=rows,
        b_ub=[1] * len(rows),
        exact=exact,
    )
    if res.status != OPTIMAL:
        raise RuntimeError(f"norm LP unexpectedly {res.status}")

    w_tol = 0 if exact else 1e-12
    points = []
    for wd, d in zip(res.x, rays):
        if wd > w_tol:
            points.append(tuple(wd * dc for dc in d))

    # Rescale onto the admissible boundary if rounding overshot it.
    worst = Fraction(0) if exact else 0.0
    for v in reps:
        s = sum(abs(sum(a * b for a, b in zip(x, v))) for x in points)
        if s > worst:
            worst = s
    if worst > 1:
        points = [tuple(c / worst for c in x) for x in points]

    config = DualConfig(tuple(points))
    if exact:
        lower = sum(abs(value(x)) for x in config.points)
        upper = res.value
    else:
        lower = config_value(value, config)
        upper = float(res.value) * c_scale
        if not (math.isfinite(upper) and math.isfinite(lower)):
            raise OverflowError(f"the norm is {FLOAT_RANGE}")
    return NormBracket(
        lower=lower,
        certificate=config,
        upper=upper,
        diagnostics={
            "hyperplanes": len(hyps),
            "candidate_rays": len(rays),
            "rays_used": len(points),
            "lp_iterations": res.iterations,
            "lp_status": res.status,
        },
    )


# ---------------------------------------------------------------------------
# oracle route: restarts + coordinatewise hill climbing + boundary rescaling


def _homogeneity_spot_check(F, n: int, degree: int, rng) -> None:
    """F(lam p) against lam**degree F(p) at eight random points, relative
    1e-6; the slack of 16 units of 2**-1074 covers the rounding of subnormal
    values, where a relative tolerance alone cannot hold."""
    for _ in range(8):
        p = rng.uniform(-1.0, 1.0, n)
        lam = float(rng.uniform(0.1, 1.0))
        a = float(F(lam * p))
        b = (lam**degree) * float(F(p))
        if abs(a - b) > 1e-6 * max(abs(a), abs(b)) + 16 * 2.0**-1074:
            raise ValueError(
                f"evaluator is not positively homogeneous of degree {degree}"
            )


# A sum past the float range is reported by an OverflowError, not as a numpy
# warning.
@np.errstate(over="ignore", invalid="ignore")
def oracle_lower_bound(
    F,
    space: AdmissibilitySpace,
    budget: int = 10_000,
    seed: int = 0,
    degree: int = 1,
) -> NormBracket:
    """Certified lower bound via random restarts and coordinate hill climbing.

    The objective is scale invariant: a configuration's value is
    sum_i |F(x_i)| after the whole configuration is rescaled onto the
    admissibility boundary.  Moves adjust one coordinate of one family
    member, with proposals that include snapping to 0 and +/-1 so corner
    optima are hit exactly.  The upper field is +infinity: this route never
    claims an upper bound.

    Each restart is a first-improvement search.  A sweep visits the members
    in order and each member's coordinates in an order of its own, and tries
    the moves 0, 1, -1, x + delta and x - delta of each coordinate x,
    skipping a move that leaves x as it is.  The first move whose value
    exceeds the current one by a relative 2**-40 is kept, and the sweep goes
    on from the next coordinate.  A sweep that kept a move is followed by
    one at the same delta, one that kept none by one at the next of ten
    falling deltas; a restart ends after the last delta or after
    max(250, budget // 12) moves.  Restart sizes cycle through
    1..len(representatives)+1, with uniform and sparse signed-axis starts
    alternating.

    A sweep that keeps nothing leaves the configuration as it found it, so
    the search from a kept move (or a start) up to the next kept move is
    known in advance.  This chain of sweeps is the rest of the current one
    (none at a start), a full sweep at the same delta and a full sweep at
    each smaller delta, every new sweep with an order drawn up front.  All
    the moves of a chain are valued against the same members, and its
    distinct moves are 0, 1, -1 and x +/- each delta left, per coordinate.

    The restarts run side by side in C slots, C = budget / (200 n s) clamped
    to [8, 64], s the mean restart size: about four restarts a slot, each of
    at least one sweep of 5 n s moves at each of the ten deltas.  Each step
    of all the slots is one stacked call that runs every slot's chain, up to
    its first kept move, the end of its restart or the budget: F.batch gets
    an (N, n) array of rows, the members of every slot (padded with zero
    rows, which count for nothing) and, per distinct move of a slot's chain,
    the member the move changes; an F without batch is called row by row.
    F being positively homogeneous of the given degree, a configuration's
    value is its sum of |F| at the unscaled members over sigma**degree,
    sigma its largest vertex sum, so a move costs F at one row.  The rows
    are taken times 2**-e, 2**e past every member's largest entry plus 1,
    which puts them in the cube, so no row takes F past its sup there; a
    configuration's value does not depend on that scale, and a power of
    two leaves its bits as they are except where values of F are
    subnormal.  A slot's current value comes from the same call as its
    moves, and every comparison is relative, so for F scaled by 2**j the
    search and the certificate are the same and the bound is 2**j times as
    large, bit for bit.

    budget counts evaluations: 1 per start and 1 per move visited, up to and
    including the move kept.  The slots take their counts in slot order, a
    finished slot starts the next restart, and the slot that reaches the
    budget is cut there, keeping its move only if the move lies within the
    budget, so diagnostics["evaluations"] ends at exactly budget.  The
    winner is the restart that finishes highest, a later one replacing it
    only when higher by a relative 2**-40; it is rescaled onto the boundary,
    its zero members are dropped, and lower is its config_value.  The result
    is deterministic given (input, seed, budget).  diagnostics["slots"] is C
    and diagnostics["stacked_calls"] counts the stacked calls.  Raises
    ValueError unless budget is an integer of at least 1: with no evaluation
    the lower bound 0 would pass every check vacuously, and OverflowError
    when a configuration's value, or a sum of |F| behind it, leaves the
    floats.
    """
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
        raise ValueError(f"budget must be an integer of at least 1, got {budget!r}")
    gens = space.generators
    n = len(gens)
    reps = np.array(space.representatives(), dtype=float)
    rng = np.random.default_rng(seed)
    _homogeneity_spot_check(F, n, degree, rng)

    has_batch = hasattr(F, "batch")
    calls = 0

    def boundary_values(fsum: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Sum of |F| over configurations rescaled onto the boundary, from
        the sums at their unscaled members and their vertex sums (first
        axis, so that the max runs across rows rather than along short
        ones); a configuration with vertex sums near 0 has a sum near 0 too."""
        return fsum / np.maximum(sums.max(axis=0) ** degree, 1e-300)

    sizes = np.arange(1, len(reps) + 2)
    per_restart = max(250, budget // 12)
    steps = np.array((1.0, 0.4, 0.15, 0.05, 0.015, 0.005, 0.0015, 5e-4, 1.5e-4, 5e-5))
    S = len(steps)
    # A coordinate x has Q distinct moves, by kind: 0, 1, -1, then
    # x + steps[j] and x - steps[j] for j = 0..S-1.  A chain at step index
    # i reaches the kinds whose kind_step is at least i.
    Q = 3 + 2 * S
    shift = np.repeat(steps, 2) * np.tile((1.0, -1.0), S)
    kind_step = np.concatenate(((S, S, S), np.repeat(np.arange(S), 2)))
    # About four restarts per slot, a slot being one restart that climbs
    # inside the stacked call.  A restart runs at least one sweep of 5 n k
    # moves per step size, S sweeps; the budget cuts the last restart of
    # every slot short, so the slots stay few next to the restarts.
    slots = int(np.clip(budget / (4 * S * 5 * n * sizes.mean()), 8, 64))
    K = sizes[-1]
    gain = 1.0 + 2.0**-40
    # Summing a move's other members afresh, rather than subtracting its
    # member from the total, avoids cancellation; others[k] does it for k
    # members.
    others = [None] + [1.0 - np.eye(k) for k in range(1, K + 1)]
    member_of = np.arange(K)
    visit = np.arange(K * n)
    # Move m of a visit at step index j has kind m for m < 3, 2 j + m after.
    move = np.arange(5)
    fixed = move < 3

    X = np.zeros((slots, K, n))  # members past a slot's size stay zero
    size = np.zeros(slots, dtype=int)
    live = np.zeros(slots, dtype=bool)
    # Visit t of slot s's current sweep moves coordinate order[s, t] of X[s]
    # (flat, member order[s, t] // n).  A restart's first sweep is empty.
    order = np.zeros((slots, K * n), dtype=int)
    pos = np.zeros(slots, dtype=int)  # next visit of the current sweep
    step = np.zeros(slots, dtype=int)
    used = np.zeros(slots, dtype=int)  # evaluations of the slot's restart
    every = np.arange(slots)
    signed_axes = np.concatenate((np.eye(n), -np.eye(n)))

    best_val = 0.0
    best_X = np.zeros((0, n))
    restart = 0
    evals = accepted = 0

    def start(new: np.ndarray) -> None:
        """Start the next restarts in the slots of the mask new, in slot order."""
        nonlocal restart, evals
        new = new.nonzero()[0]
        m = len(new)
        if not m:
            return
        r = restart + np.arange(m)
        size[new] = sizes[r % len(sizes)]
        slot, member = (member_of < size[new][:, None]).nonzero()
        # Odd restarts start sparse on signed axes: good corners for
        # free-lattice spaces.
        sparse = r[slot] % 2 == 1
        q = np.count_nonzero(sparse)
        Y = np.empty((len(slot), n))
        Y[~sparse] = rng.uniform(-1.0, 1.0, (len(slot) - q, n))
        axis = (rng.random(q) * (2 * n)).astype(int)
        Y[sparse] = signed_axes[axis] + 0.01 * rng.standard_normal((q, n))
        X[new] = 0.0
        X[new[slot], member] = Y
        live[new] = True
        used[new] = 1
        pos[new] = K * n
        step[new] = 0
        restart += m
        evals += m

    start(every < budget)

    while live.any():
        # Only the first k members of any live slot are in use; the arrays
        # of this step stop there.
        k = size[live].max()
        kn = k * n
        ends = size * n * live  # visits per sweep
        Xk = X[:, :k].reshape(-1, n)
        x = Xk.reshape(slots, kn)
        cand = np.empty((slots, kn, Q))
        cand[:, :, :3] = (0.0, 1.0, -1.0)
        cand[:, :, 3:] = x[:, :, None] + shift
        # Every distinct move a chain can reach: a coordinate in use, a kind
        # at the current step or after, and a change of x.  The last row
        # stands for a coordinate that no visit moves.
        reach = np.zeros((slots * kn + 1, Q), dtype=bool)
        reach[:-1] = (
            (kind_step >= step[:, None, None])
            & (visit[:kn] < ends[:, None])[:, :, None]
            & (cand != x[:, :, None])
        ).reshape(-1, Q)
        # Each reachable move f, flat in reach, is one row of the call: kind
        # f % Q of coordinate c % kn of slot c // kn, c = f // Q.
        f = reach.reshape(-1).nonzero()[0]
        c = f // Q
        row = c // n  # member s * k + i of Xk
        Y = np.take(Xk, row, axis=0)
        Y[np.arange(len(f)), c % n] = cand.reshape(-1)[f]
        # Every row is a member, or one with a coordinate moved to 0, +/-1 or
        # by at most 1, so 2**-e puts it in the cube.
        e = math.frexp(float(np.abs(Xk).max()) + 1.0)[1]
        P = np.ldexp(np.concatenate((Xk, Y)), -e)
        A = np.abs(reps @ P.T)  # vertex sums of every row, vertices first
        Fa = np.abs(np.asarray(F.batch(P) if has_batch else [F(p) for p in P], dtype=float))
        calls += 1
        m = slots * k
        AM = A[:, :m].reshape(-1, slots, k)
        FM = np.where(member_of[:k] < size[:, None], Fa[:m].reshape(slots, k), 0.0)
        rest_A = np.take((AM.reshape(-1, k) @ others[k]).reshape(len(reps), -1), row, axis=1)
        cur = boundary_values(FM.sum(axis=1), AM.sum(axis=2))
        rest_F = (FM @ others[k]).reshape(-1)[row]
        moved = boundary_values(rest_F + Fa[m:], rest_A + A[:, m:])
        if not (np.isfinite(cur).all() and np.isfinite(moved).all()):
            raise OverflowError(f"a configuration's value is {FLOAT_RANGE}")
        V = np.full(reach.size, -np.inf)
        V[f] = moved

        # Sweep j of slot s's chain runs at step index sweep[s, j] and visits
        # coordinate orders[s, j, t] at its visit t; sweep 0 is the rest of
        # the current sweep.
        J = S + 1 - step[live].min()
        sweep = step[:, None] + np.maximum(np.arange(J) - 1, 0)
        orders = np.empty((slots, J, kn), dtype=int)
        orders[:, 0] = order[:, :kn]
        perm = rng.random((slots, J - 1, k, n)).argsort(axis=3, kind="stable")
        orders[:, 1:] = (perm + n * member_of[:k, None]).reshape(slots, J - 1, kn)
        seen = (visit[:kn] < ends[:, None, None]) & (sweep < S)[:, :, None]
        seen[:, 0] &= visit[:kn] >= pos[:, None]
        kind = np.where(fixed, move, 2 * np.minimum(sweep, S - 1)[:, :, None] + move)
        coord = np.where(seen, orders + (every * kn)[:, None, None], slots * kn)
        # Move m of visit t of sweep j of slot s, flat in reach and V.
        g = (coord[..., None] * Q + kind[:, :, None]).reshape(slots, -1)
        todo = reach.reshape(-1)[g]
        better = V[g] > (cur * gain)[:, None]
        first = better.argmax(axis=1)
        has = better[every, first]
        last = np.where(has, first, g.shape[1] - 1)
        need = (todo & (np.arange(g.shape[1]) <= last[:, None])).sum(axis=1)
        want = np.minimum(need, 1 + per_restart - used)
        take = np.minimum(want, np.maximum(budget - evals - want.cumsum() + want, 0))
        evals += int(take.sum())
        used += take
        keep = has & (take == need)
        accepted += int(np.count_nonzero(keep))

        kept = g[every, first][keep]
        val = cur.copy()
        val[keep] = V[kept]
        X.reshape(slots, -1)[keep, kept // Q % kn] = cand.reshape(-1)[kept]
        j = first[keep] // (5 * kn)
        order[keep, :kn] = orders[keep, j]
        pos[keep] = first[keep] // 5 % kn + 1
        step[keep] = sweep[keep, j]
        # A slot that kept nothing ran its chain out, or was cut.
        done = live & (~keep | (used == 1 + per_restart) | (evals >= budget))
        for s in done.nonzero()[0]:
            if val[s] > best_val * gain:
                best_val = float(val[s])
                best_X = X[s, : size[s]].copy()
        live &= ~done
        start(done & (done.cumsum() <= budget - evals))

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
        diagnostics={
            "evaluations": evals,
            "restarts": restart,
            "budget": budget,
            "accepted_moves": accepted,
            "slots": slots,
            "stacked_calls": calls,
        },
    )


# ---------------------------------------------------------------------------
# derived checks


def norm_of_expression(
    e: LatticeExpr,
    space: Optional[AdmissibilitySpace] = None,
    exact: bool = False,
) -> NormBracket:
    """Convenience pipeline: expression -> max-min form -> exact norm."""
    if space is None:
        space = fbl_space(sorted(support(e)))
    return exact_fbl_norm(to_maxmin(e), space, exact=exact)


def check_lemma34(
    e: LatticeExpr,
    a: str,
    space: Optional[AdmissibilitySpace] = None,
    budget: int = 4000,
    seed: int = 0,
) -> dict:
    """Oracle check that ||f * |d(a)||| stays below the sup norm of f.

    f is the expression's function on the cube, the product is the
    degree-two evaluator f(x)*|x_a|, and the claim is that no admissible
    family can push the product's value above max_cube |f|.  Returns a
    report dict with the best oracle lower bound, the sup norm, and the
    verdict, which allows the lower bound a relative 1e-9 above the sup.
    """
    gens = tuple(sorted(support(e))) if space is None else space.generators
    if a not in gens:
        raise SpaceError(f"generator {a!r} not in the generator set")
    if space is None:
        space = fbl_space(gens)
    m = to_maxmin(e)
    sup = float(plfan.sup_norm_on_cube(m, gens))
    F = MaxMinEvaluator(m, gens)
    product = abs_coordinate_product(F, gens.index(a))
    bracket = oracle_lower_bound(product, space, budget=budget, seed=seed, degree=2)
    bound = sup + 1e-9 * abs(sup)
    return {
        "generator": a,
        "sup_norm": sup,
        "best_lower": bracket.lower,
        "margin": bound - bracket.lower,
        "pass": bool(bracket.lower <= bound),
        "certificate": bracket.certificate,
        "diagnostics": bracket.diagnostics,
    }


# ---------------------------------------------------------------------------
# certificates


def _space_to_json(space: AdmissibilitySpace) -> dict:
    return {
        "generators": list(space.generators),
        "ball_vertices": [[float(c) for c in v] for v in space.ball_vertices],
    }


def _space_from_json(obj) -> AdmissibilitySpace:
    return AdmissibilitySpace(
        tuple(obj["generators"]),
        tuple(tuple(float(c) for c in v) for v in obj["ball_vertices"]),
    )


def _replay_evaluator(function_payload: Mapping, generators):
    if "expr" in function_payload:
        e = parse_expr(function_payload["expr"])
        F = expr_evaluator(e, generators)
        name = function_payload.get("times_abs")
        if name is not None:
            if name not in generators:
                raise SpaceError(f"product coordinate {name!r} is not a generator")
            F = abs_coordinate_product(F, tuple(generators).index(name))
        return F
    if "plfunction" in function_payload:
        f = plfan.plfunction_from_json(function_payload["plfunction"])
        if tuple(f.fan.generators) != tuple(generators):
            raise SpaceError("certificate function generators mismatch")
        return pl_evaluator(f)
    raise SpaceError("certificate carries no replayable function")


def make_certificate(
    space: AdmissibilitySpace,
    config: DualConfig,
    claimed_norm: float,
    mode: str,
    function_payload: Mapping,
) -> dict:
    """Assemble a replayable certificate document.

    The recorded value is computed here, through the same evaluator replay
    will build, so a faithful replay reproduces it bit for bit.
    """
    if mode not in ("lower", "exact"):
        raise SpaceError("mode must be 'lower' or 'exact'")
    F = _replay_evaluator(function_payload, space.generators)
    value = config_value(F, config)
    return {
        "schema": 1,
        "kind": "fbl-norm-certificate",
        "space": _space_to_json(space),
        "points": [[float(c) for c in x] for x in config.points],
        "value": value,
        "claimed_norm": float(claimed_norm),
        "mode": mode,
        "function": dict(function_payload),
    }


def write_certificate(path, cert: Mapping) -> None:
    """One line of JSON: without indent, json encodes in C."""
    Path(path).write_text(json.dumps(cert))


def load_certificate(path) -> dict:
    return json.loads(Path(path).read_text())


def _check_certificate(cert) -> None:
    """The shape replay_certificate reads; the values it checks itself."""
    if not isinstance(cert, Mapping):
        raise ValueError(f"certificate is not a JSON object but a {type(cert).__name__}")
    missing = [k for k in ("kind", "schema", "space", "points", "value", "claimed_norm",
                           "mode", "function") if k not in cert]
    if missing:
        raise ValueError(f"certificate lacks {', '.join(missing)}")
    for key, want in (("kind", "fbl-norm-certificate"), ("schema", 1)):
        if type(cert[key]) is not type(want) or cert[key] != want:
            raise ValueError(f"certificate {key} is {cert[key]!r}, not {want!r}")
    space, function, points = cert["space"], cert["function"], cert["points"]
    if not (isinstance(space, Mapping)
            and all(isinstance(space.get(k), list) for k in ("generators", "ball_vertices"))):
        raise ValueError("certificate space is not an object with the lists "
                         "generators and ball_vertices")
    if not isinstance(function, Mapping):
        raise ValueError("certificate function is not an object")
    if not (isinstance(points, list) and all(isinstance(x, list) for x in points)):
        raise ValueError("certificate points are not a list of lists")
    if cert["mode"] not in ("lower", "exact"):
        raise ValueError(f"certificate mode is {cert['mode']!r}, not 'lower' or 'exact'")


def replay_certificate(cert: Mapping) -> dict:
    """Re-check a certificate: admissibility plus bit-identical revaluation.

    Returns a report dict; "pass" is True iff every point is well formed
    (one finite coordinate per generator), the family is admissible, the
    recomputed value equals the recorded one exactly (same arithmetic), and
    the value is consistent with the claimed norm for the recorded mode:
    within a relative 1e-9 of it in "exact" mode, and at most 1e-9*|claim|
    above it in "lower" mode.  A malformed family is not evaluated; its
    value is NaN.  Raises ValueError, naming the problem, unless cert is a
    JSON object of kind "fbl-norm-certificate" and schema 1 that holds every
    key replay reads.
    """
    _check_certificate(cert)
    space = _space_from_json(cert["space"])
    config = DualConfig(tuple(tuple(float(c) for c in x) for x in cert["points"]))
    F = _replay_evaluator(cert["function"], space.generators)
    well_formed = all(len(x) == len(space.generators) and all(map(math.isfinite, x))
                      for x in config.points)
    adm = admissible(config, space)
    value = config_value(F, config) if well_formed else math.nan
    recorded = float(cert["value"])
    claimed = float(cert["claimed_norm"])
    mode = cert["mode"]
    value_matches = value == recorded
    if mode == "exact":
        claim_ok = abs(value - claimed) <= 1e-9 * max(abs(value), abs(claimed))
    else:
        claim_ok = value <= claimed + 1e-9 * abs(claimed)
    passed = well_formed and adm.ok and value_matches and claim_ok
    return {
        "pass": bool(passed),
        "well_formed": well_formed,
        "admissible": bool(adm.ok),
        "worst_vertex_sum": adm.worst_sum,
        "value": value,
        "recorded_value": recorded,
        "value_matches": bool(value_matches),
        "claimed_norm": claimed,
        "mode": mode,
        "points": len(config.points),
    }
