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
    differences of its functionals) and its zero sets (every functional of
    the form, or every piece).  Refine the breaks by the zero sets and by
    the vertex hyperplanes <., v> = 0.  On each refined cell |f| is
    linear and every <., v> has constant sign, so two family members in the
    same cell can be added without changing the objective or any
    constraint sum.  An optimal family therefore needs at most one point
    per cell.
2.  Ray decomposition.  Each refined cell is a pointed polyhedral cone (the
    vertex normals span), so its points are nonnegative combinations of its
    extreme rays, and both the objective and the constraint sums are linear
    along that decomposition.  The sup is then a finite LP over weighted
    candidate rays: maximize sum w_d |f(d)| subject to, per vertex v,
    sum_d w_d |<d, v>| <= 1 and w >= 0.
3.  Candidates.  Every extreme ray of every refined cell lies in the
    intersection of some n-1 independent hyperplanes of the refinement, so
    the +/- null directions of all (n-1)-subsets of the hyperplane list form
    a complete candidate set.  Extra candidates are harmless: any feasible
    weighting *is* an admissible family, so the LP value never exceeds the
    norm, and completeness gives the reverse inequality.

The LP optimum is the exact norm; the nonzero weights assemble a replayable
certificate family.  The oracle route below shares nothing with this LP: it
is restart-based stochastic hill climbing on raw configurations, so the two
routes genuinely cross-check each other.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import plfan
from .expr import (
    LatticeExpr,
    MaxMinEvaluator,
    LinearFunctional,
    SpaceError,
    evaluate,
    parse_expr,
    support,
    to_maxmin,
    to_text,
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
    "fbl_vs_polyhedral_check",
    "norm_of_expression",
    "make_certificate",
    "write_certificate",
    "load_certificate",
    "replay_certificate",
    "ADMISSIBILITY_TOL",
]

ADMISSIBILITY_TOL = 1e-12


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
        vset = {tuple(float(x) for x in v) for v in self.ball_vertices}
        for v in vset:
            if len(v) != n:
                raise SpaceError("vertex dimension mismatch")
            if tuple(-x for x in v) not in vset:
                raise SpaceError("vertex list is not symmetric")
        if np.linalg.matrix_rank(np.array(sorted(vset), dtype=float)) < n:
            raise SpaceError("vertex list does not span")

    def representatives(self) -> tuple:
        """One vertex per antipodal pair, first-nonzero-positive orientation."""
        seen = set()
        reps = []
        for v in self.ball_vertices:
            tv = tuple(v)
            lead = next((x for x in tv if x != 0), None)
            canon = tv if (lead is None or lead > 0) else tuple(-x for x in tv)
            if canon not in seen:
                seen.add(canon)
                reps.append(canon)
        return tuple(reps)


def fbl_space(generators) -> AdmissibilitySpace:
    """Free-lattice space over the generators: vertices are +/- unit vectors."""
    generators = tuple(generators)
    n = len(generators)
    verts = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        verts.append(tuple(e))
        verts.append(tuple(-x for x in e))
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


def admissible(
    config: DualConfig, space: AdmissibilitySpace, tol: float = ADMISSIBILITY_TOL
) -> AdmissibilityReport:
    """Check sum_i |<x_i, v>| <= 1 + tol against every ball vertex."""
    worst = 0.0
    worst_v = None
    for v in space.ball_vertices:
        s = 0.0
        for x in config.points:
            s += abs(sum(float(a) * float(b) for a, b in zip(x, v)))
        if s > worst:
            worst = s
            worst_v = tuple(v)
    return AdmissibilityReport(worst <= 1.0 + tol, worst, worst_v)


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
    exact: bool
    diagnostics: dict = field(default_factory=dict)


def _vertex_functionals(space: AdmissibilitySpace, exact: bool):
    out = []
    for v in space.representatives():
        coeffs = {}
        for g, c in zip(space.generators, v):
            if c != 0:
                coeffs[g] = as_fraction(c) if exact else float(c)
        out.append(LinearFunctional.from_map(coeffs))
    return out


def exact_fbl_norm(
    f,
    space: AdmissibilitySpace,
    exact: bool = False,
) -> NormBracket:
    """Exact norm of f, a MaxMinForm or a stored PLFunction, by the
    merged-family LP over candidate rays.

    See the module docstring for why the LP value equals the norm.  Raises
    SpaceError when the space's generators miss one of a form's or differ
    from a stored function's (plfan.pl_parts).  The certificate is the
    weighted ray family with zero weights dropped, rescaled by the worst
    vertex sum when rounding pushed it above one, and its value is
    recomputed by direct evaluation, so lower is certified independently of
    the LP bookkeeping.
    """
    gens = space.generators
    n = len(gens)
    breaks, zero_sets, values, value = plfan.pl_parts(f, gens, exact)

    hyps = list(breaks)
    hyps += [p for p in zero_sets if not p.is_zero]
    hyps += _vertex_functionals(space, exact)
    hyps = plfan.dedup_normals(hyps, exact)

    rays = candidate_rays([list(h.vector(gens)) for h in hyps], n, exact)
    reps = space.representatives()
    if exact:
        reps = [tuple(as_fraction(c) for c in v) for v in reps]

    cvec = [abs(v) for v in values(rays)]
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
    return NormBracket(
        lower=lower,
        certificate=config,
        upper=upper,
        exact=True,
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
    for _ in range(8):
        p = rng.uniform(-1.0, 1.0, n)
        lam = float(rng.uniform(0.1, 1.0))
        a = float(F(lam * p))
        b = (lam**degree) * float(F(p))
        if abs(a - b) > 1e-6 * (1.0 + abs(b)):
            raise ValueError(
                f"evaluator is not positively homogeneous of degree {degree}"
            )


def oracle_lower_bound(
    F,
    space: AdmissibilitySpace,
    budget: int = 10_000,
    seed: int = 0,
    degree: int = 1,
) -> NormBracket:
    """Certified lower bound via random restarts and coordinate hill climbing.

    The objective is scale invariant: every evaluation first rescales the
    whole configuration onto the admissibility boundary, then sums |F|.
    Moves adjust one coordinate of one family member, with proposals that
    include snapping to 0 and +/-1 so corner optima are hit exactly.  budget
    counts configuration evaluations; the result is deterministic given
    (input, seed, budget), and ties prefer the earliest restart.  The upper
    field is +infinity: this route never claims an upper bound.

    The search is first-improvement: a sweep visits the members in order and
    each member's coordinates in random order, and a move is kept as soon as
    it improves the value.  A move changes one coordinate only, so its value
    does not depend on the visiting order, and the acceptance rule is
    replayed over a table of move values made in one stacked call.  A table
    made at the start of a sweep holds, per coordinate of every member, the
    moves 0, 1, -1 and base +/- delta for this sweep's delta and each smaller
    one: a sweep that keeps no move leaves the configuration as it was, so
    every later step size replays from the same table.  Only a kept move
    makes the table stale; the sweep then evaluates the five moves
    (0, 1, -1, base +/- delta) afresh from the member's next coordinate, or
    from the next member if none is left, and, having improved, repeats at
    the same delta from a fresh sweep-start table.  Each restart's start
    value is the first slice of its first table.  Each member's permutation
    is drawn when the replay reaches it, and values past the budget are
    dropped uncounted, so the RNG stream, the trajectory, the counts and the
    result are those of evaluating one move at a time.
    diagnostics["stacked_calls"] counts the stacked calls, at least one per
    restart.  F takes one point; a batch method, if F has one, takes an
    (m, k, n) stack of configurations and returns their (m, k) values, each
    (k, n) slice computed as F.batch would compute it alone, whatever m is.
    Raises ValueError unless budget is an integer of at least 1: with no
    evaluation the lower bound 0 would pass every check vacuously.
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

    def values(Xc: np.ndarray) -> np.ndarray:
        """Value of each configuration Xc[j] (shape (m, k, n)) on the boundary.

        F.batch gets the stack itself, not its rows flattened: numpy's matmul
        treats each (k, n) slice as it treats that configuration alone, while
        flattened one-member families go through another BLAS kernel, whose
        last bits differ and can flip an accept decision.
        """
        nonlocal calls
        calls += 1
        sigma = np.abs(Xc @ reps.T).sum(axis=1).max(axis=1)
        live = sigma > 1e-300
        Xs = Xc / np.where(live, sigma, 1.0)[:, None, None]
        if has_batch:
            vals = F.batch(Xs)
        else:
            vals = np.array([F(row) for row in Xs.reshape(-1, n)]).reshape(Xs.shape[:2])
        return np.where(live, np.abs(vals).sum(axis=1), 0.0)

    sizes = list(range(1, len(reps) + 2))
    per_restart = max(250, budget // 12)
    steps = np.array((1.0, 0.4, 0.15, 0.05, 0.015, 0.005, 0.0015, 5e-4, 1.5e-4, 5e-5))
    scatter = {}  # (k, i, w, start) -> flat positions in the stack of each move

    def move_table(X: np.ndarray, i: int, lo: int, hi: int, start: bool = False):
        """Moves and values, each (k - i, n, w) nested lists, of members i.. of X.

        Per coordinate, slots 0, 1, 2 set it to 0, 1, -1 and slots 3 + 2t,
        4 + 2t to base +- steps[lo + t], for lo + t < hi.  With start, the
        stack opens with X itself, and its value is returned in a list of
        one; else that list is empty.
        """
        k = X.shape[0]
        w = 3 + 2 * (hi - lo)
        flat = scatter.get((k, i, w, start))
        if flat is None:
            # Move slot s sets coordinate s // w of the flattened X[i:].
            slot = np.arange(w * n * (k - i))
            flat = scatter[k, i, w, start] = (slot + start) * (k * n) + i * n + slot // w
        base = X[i:].reshape(-1, 1)
        moves = np.empty((base.size, w))
        moves[:, :3] = (0.0, 1.0, -1.0)
        moves[:, 3::2] = base + steps[lo:hi]
        moves[:, 4::2] = base - steps[lo:hi]
        Xc = np.repeat(X[None], flat.size + start, axis=0)
        Xc.reshape(-1)[flat] = moves.reshape(-1)
        vals = values(Xc)
        shape = (k - i, n, w)
        return (
            moves.reshape(shape).tolist(),
            vals[start:].reshape(shape).tolist(),
            vals[:start].tolist(),
        )

    best_val = 0.0
    best_X = np.zeros((0, n))
    restart = 0
    evals = accepted = 0

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
        # The start value and the first sweep's table come from one call.
        moves, vals, (val,) = move_table(X, 0, 0, len(steps), start=True)
        # The table starts at member first and step lo; first is None when stale.
        first, lo = 0, 0
        evals += 1
        limit = min(budget, evals + per_restart)
        step_i = 0
        while evals < limit:
            improved = False
            for i in range(k):
                order = rng.permutation(n).tolist()
                pos = 0
                while pos < n and evals < limit:
                    if first is None:
                        # A sweep-start table serves every later step until a
                        # move is kept; a mid-sweep one only the rest of its sweep.
                        hi = len(steps) if i == pos == 0 else step_i + 1
                        moves, vals, _ = move_table(X, i, step_i, hi)
                        first, lo = i, step_i
                    row = X[i].tolist()
                    picks = (0, 1, 2, 3 + 2 * (step_i - lo), 4 + 2 * (step_i - lo))
                    moved = False
                    for a in order[pos:]:
                        pos += 1
                        cands, cand_vals = moves[i - first][a], vals[i - first][a]
                        for q in picks:
                            cand, v2 = cands[q], cand_vals[q]
                            if cand == row[a]:
                                continue
                            evals += 1
                            if v2 > val + 1e-15:
                                X[i, a] = row[a] = cand
                                val = v2
                                accepted += 1
                                improved = moved = True
                            if evals >= limit:
                                break
                        if moved or evals >= limit:
                            break
                    if moved:
                        first = None
                if evals >= limit:
                    break
            if improved:
                first = None
            else:
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
        diagnostics={
            "evaluations": evals,
            "restarts": restart,
            "budget": budget,
            "accepted_moves": accepted,
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


def fbl_vs_polyhedral_check(
    e: LatticeExpr,
    generators=None,
    budget: int = 8000,
    seed: int = 0,
) -> dict:
    """Same expression, two admissibility spaces.

    The free-lattice norm is reported next to the norm of the sign-vector
    ball, a genuinely different norm, and an oracle run on that ball that
    must agree with it.
    """
    gens = tuple(generators) if generators is not None else tuple(sorted(support(e)))
    m = to_maxmin(e)

    b1 = exact_fbl_norm(m, fbl_space(gens))

    space_sign = linf_vertex_space(gens)
    b3 = exact_fbl_norm(m, space_sign)
    F = MaxMinEvaluator(m, gens)
    oracle = oracle_lower_bound(F, space_sign, budget=budget, seed=seed)

    return {
        "free_norm": b1.upper,
        "sign_ball_norm": b3.upper,
        "sign_ball_oracle": oracle.lower,
        "sign_ball_agreement": (
            b3.lower - 1e-3 <= oracle.lower <= b3.upper + 1e-9 * abs(b3.upper)
        ),
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
    Path(path).write_text(json.dumps(cert, indent=1))


def load_certificate(path) -> dict:
    return json.loads(Path(path).read_text())


def replay_certificate(cert: Mapping) -> dict:
    """Re-check a certificate: admissibility plus bit-identical revaluation.

    Returns a report dict; "pass" is True iff the family is admissible, the
    recomputed value equals the recorded one exactly (same arithmetic), and
    the value is consistent with the claimed norm for the recorded mode:
    within a relative 1e-9 of it in "exact" mode, and at most 1e-9*|claim|
    above it in "lower" mode.
    """
    space = _space_from_json(cert["space"])
    config = DualConfig(tuple(tuple(float(c) for c in x) for x in cert["points"]))
    F = _replay_evaluator(cert["function"], space.generators)
    adm = admissible(config, space)
    value = config_value(F, config)
    recorded = float(cert["value"])
    claimed = float(cert["claimed_norm"])
    mode = cert["mode"]
    value_matches = value == recorded
    if mode == "exact":
        claim_ok = abs(value - claimed) <= 1e-9 * max(abs(value), abs(claimed))
    else:
        claim_ok = value <= claimed + 1e-9 * abs(claimed)
    passed = adm.ok and value_matches and claim_ok
    return {
        "pass": bool(passed),
        "admissible": bool(adm.ok),
        "worst_vertex_sum": adm.worst_sum,
        "value": value,
        "recorded_value": recorded,
        "value_matches": bool(value_matches),
        "claimed_norm": claimed,
        "mode": mode,
        "points": len(config.points),
    }
