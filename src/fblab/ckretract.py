"""Sections of the evaluation map onto C(K) for K a finite union of
closed subintervals of [0,1].

Everything is built over two generators: "one" (the constant-1 function on
K, coordinate s) and "id" (the identity, coordinate t).  The evaluation map
sends a function on the cone over the dual to its restriction to the slice
points i(k) = (1, k); the section S goes the other way, from a piecewise
linear h on K to a positively homogeneous PL function Sh on (s,t)-space,
with T(Sh) = Sh(1, .) = h on K.

The section, from inside out:

  v(s,t) = (1, clip(t/s, -1, 1))        ray-invariant retraction to the slice
  phi(c) = nearest point of K            defined off the gap midpoints
  u(c)   = min(1, alpha * dist(c, gap midpoints)), alpha = 2 / min gap

and Sh(x) = h(phi(c)) * u(c) * |s| with c = clip(t/s, 0, 1).  u is 1 on K
and vanishes exactly where phi jumps, so the slice function
c -> h(phi(c)) * u(c) is continuous and piecewise linear.  Its breakpoints
are known in closed form: h's breakpoints, the ends 0 and 1, and three
points per gap of K (slice_table).  Multiplying by |s| and unwinding
c = t/s turns each segment a + b*c into the homogeneous piece
sign(s) * (a*s + b*t) on a sector of the (s,t) plane, so build_section
reads Sh's rays and pieces off that table in one walk, in Fractions, and
rounds the result for the float section.  Special slices of K:

  full interval [0,1]: no gaps, u == 1, phi = clip, classic retraction;
  the pair {0,1}:       u(c) = |2c - 1|, phi = threshold at 1/2.

Verification helpers decide the section identity T(Sh) = h on all of K
(exactly, on the segments between kinks of Sh(1, .) and h, within a
tolerance relative to sup|h|), check the norm bound ||Sh|| <= sup|h| (over
the two-generator space; reports flag the restriction) and decide the
lattice-homomorphism laws of S in Fractions.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import plfan
from .expr import LinearFunctional
from .fblnorm import exact_fbl_norm, fbl_space
from .numeric import as_fraction

__all__ = [
    "KSpec",
    "TargetFunction",
    "SectionBundle",
    "CKError",
    "interval01",
    "two_points",
    "union_of_intervals",
    "target_from_pairs",
    "target_join",
    "target_lincomb",
    "sup_norm",
    "build_section",
    "verify_section",
    "verify_norm_bound",
    "verify_hom_laws",
]

GENERATORS = ("one", "id")


class CKError(ValueError):
    pass


@dataclass(frozen=True)
class KSpec:
    """A finite union of closed subintervals of [0,1], kept sorted.

    Degenerate intervals (a == b) are single points, so the two-point space
    {0, 1} is the union [0,0] and [1,1].
    """

    kind: str
    intervals: tuple  # of (Fraction, Fraction) pairs

    def __post_init__(self):
        if not self.intervals:
            raise CKError("K must be nonempty")
        prev_b = None
        for a, b in self.intervals:
            if not (0 <= a <= b <= 1):
                raise CKError("intervals must satisfy 0 <= a <= b <= 1")
            if prev_b is not None and a <= prev_b:
                raise CKError("intervals must be disjoint and ascending")
            prev_b = b

    def contains(self, c) -> bool:
        return any(a <= c <= b for a, b in self.intervals)

    def gaps(self) -> tuple:
        """The (b, a) between consecutive intervals (., b) and (a, .)."""
        return tuple((b, a) for (_, b), (a, _) in zip(self.intervals, self.intervals[1:]))


def interval01() -> KSpec:
    return KSpec("interval01", ((Fraction(0), Fraction(1)),))


def two_points() -> KSpec:
    return KSpec("two_points", ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


def union_of_intervals(pairs) -> KSpec:
    ivs = tuple(
        (as_fraction(a), as_fraction(b)) for a, b in sorted(pairs, key=lambda p: p[0])
    )
    return KSpec("union_of_intervals", ivs)


@dataclass(frozen=True)
class TargetFunction:
    """Piecewise-linear h on K: sorted (point, value) breakpoints.

    Every interval endpoint of K must appear as a breakpoint, every
    breakpoint must lie in K, and h is linear between neighbours inside an
    interval.  Values at points outside K are never requested: the slice
    table reads h at its breakpoints only.  value(c) is one _segment lookup
    in the breakpoints, read into segments on first use.
    """

    K: KSpec
    breakpoints: tuple  # of (Fraction point, Fraction value), ascending

    def __post_init__(self):
        pts = [p for p, _ in self.breakpoints]
        if not pts or any(q <= p for p, q in zip(pts, pts[1:])):
            raise CKError("breakpoints must be ascending and nonempty")
        for p in pts:
            if not self.K.contains(p):
                raise CKError(f"breakpoint {p} lies outside K")
        have = set(pts)
        for a, b in self.K.intervals:
            if a not in have or b not in have:
                raise CKError("every K interval endpoint needs a breakpoint")

    @cached_property
    def _lookup(self) -> tuple:
        return _segments(self.breakpoints)

    def value(self, c) -> Fraction:
        c = as_fraction(c)
        a, b = _segment(self._lookup, c)
        return a + b * c


def _segments(table) -> tuple:
    """(points, segments) of the function linear between the ascending
    (point, value) pairs of table and constant beyond its ends, read for
    _segment: segments[i] is the (a, b) of points[i - 1] < c <= points[i],
    and the first and last entries are the constants beyond the ends."""
    segments = [(table[0][1], Fraction(0))]
    for (c0, v0), (c1, v1) in zip(table, table[1:]):
        b = (v1 - v0) / (c1 - c0)
        segments.append((v0 - b * c0, b))
    segments.append((table[-1][1], Fraction(0)))
    return [c for c, _ in table], segments


def _segment(segs, c) -> tuple:
    """(a, b) such that a + b*c is the value at c of the function that
    _segments read: one bisect_left on its points, with c at or beyond an
    end reading the constant there.  The (a, b) were formed from the table
    once, so c in Fractions keeps the value exact."""
    points, segments = segs
    if c >= points[-1]:
        return segments[-1]
    return segments[bisect_left(points, c)]


def target_from_pairs(K: KSpec, pairs) -> TargetFunction:
    bps = tuple(
        sorted(((as_fraction(p), as_fraction(v)) for p, v in pairs), key=lambda t: t[0])
    )
    return TargetFunction(K, bps)


def sup_norm(h: TargetFunction) -> Fraction:
    return max(abs(v) for _, v in h.breakpoints)


def _merged_points(h1: TargetFunction, h2: TargetFunction) -> list:
    pts = {p for p, _ in h1.breakpoints} | {p for p, _ in h2.breakpoints}
    return sorted(pts)


def target_join(h1: TargetFunction, h2: TargetFunction) -> TargetFunction:
    """max(h1, h2) as a TargetFunction; inserts segment crossing points."""
    if h1.K != h2.K:
        raise CKError("join needs a common K")
    pts = _merged_points(h1, h2)
    v1, v2 = [h1.value(p) for p in pts], [h2.value(p) for p in pts]
    bps = dict(zip(pts, map(max, v1, v2)))
    diffs = [a - b for a, b in zip(v1, v2)]
    for p0, p1, d0, d1 in zip(pts, pts[1:], diffs, diffs[1:]):
        if d0 * d1 < 0 and any(a <= p0 and p1 <= b for a, b in h1.K.intervals):
            c = p0 + (p1 - p0) * d0 / (d0 - d1)
            bps[c] = max(h1.value(c), h2.value(c))
    return TargetFunction(h1.K, tuple(sorted(bps.items())))


def target_lincomb(a, h1: TargetFunction, b, h2: TargetFunction) -> TargetFunction:
    if h1.K != h2.K:
        raise CKError("linear combination needs a common K")
    a = as_fraction(a)
    b = as_fraction(b)
    pts = _merged_points(h1, h2)
    bps = tuple((p, a * h1.value(p) + b * h2.value(p)) for p in pts)
    return TargetFunction(h1.K, bps)


# ---------------------------------------------------------------------------
# the slice function and the section


def slice_table(K: KSpec, h: TargetFunction) -> tuple:
    """The slice function c -> h(phi(c)) * u(c) on [0, 1], as the ascending
    (point, value) table of its breakpoints, read off h and K's gaps.

    On K, u is 1 and phi is the identity, so every breakpoint of h enters
    with its value.  Below K's first point phi is that point, and above its
    last point that one: the ends are (0, h(a_1)) and (1, h(b_last)).  In a
    gap (b, a) with midpoint m, and r half the smallest gap, u is 1 up to
    m - r, where phi is still b, falls to 0 at m and is 1 again from m + r,
    where phi is a: (m - r, h(b)), (m, 0) and (m + r, h(a)).  In a gap of
    the smallest length m - r is b and m + r is a, so those entries are h's
    own.  The points arrive in ascending order, and a dict keeps one entry
    per point.
    """
    gaps = dict(K.gaps())
    r = min(a - b for b, a in gaps.items()) / 2 if gaps else None
    value = dict(h.breakpoints)
    table = {Fraction(0): h.breakpoints[0][1]}
    for p, v in h.breakpoints:
        table[p] = v
        if p in gaps:
            a = gaps[p]
            m = (p + a) / 2
            table[m - r] = v
            table[m] = Fraction(0)
            table[m + r] = value[a]
    table[Fraction(1)] = h.breakpoints[-1][1]
    return tuple(table.items())


@dataclass
class SectionBundle:
    K: KSpec
    h: TargetFunction
    generators: tuple
    Sh: plfan.PLFunction
    table: tuple  # slice breakpoint table
    h_sup: Fraction


def build_section(K: KSpec, h: TargetFunction, exact: bool = False) -> SectionBundle:
    """Sh as a PLFunction over ("one", "id"), read off the slice table in
    one walk.

    For table points 0 = c_0 < ... < c_n = 1, Sh has the rays
    (1, c_0) ... (1, c_n), (0, 1), (-1, 1), (-1, -c_0) ... (-1, -c_n),
    (0, -1) and (1, -1), counter-clockwise from (1, 0); it breaks on the
    lines through them, s, t, t - s, t + s and t - c_k*s for every interior
    c_k (plfan.Fan.hyperplanes).  A sector of s-sign sigma on which t/s
    runs over the table segment a + b*c carries the piece sigma*(a*s + b*t).  So the sectors from (1, 0) take the n
    segments in order and then the constant at 1 (t/s > 1); the two from
    (0, 1) to (-1, 0) take the constant at 0, negated (t/s < 0); the
    sectors from (-1, 0) take the segments again, negated, then the
    constant at 1, negated; and the two from (0, -1) to (1, 0) the constant
    at 0.

    All of this is computed in Fractions.  The float section is the exact
    one rounded, coefficient by coefficient; the axis rays (1, -0) and
    (-0, -1) keep the signed zeros of the null directions of t and s.
    Where two table points round to one float, the sector between them is
    empty and is dropped, and with it the repeated line.
    """
    if h.K != K:
        raise CKError("h is defined on a different K")
    table = slice_table(K, h)
    num = Fraction if exact else float
    one, zero = num(1), num(0)
    inner = [num(c) for c, _ in table[1:-1]]
    rays = [(one, -zero), *((one, c) for c in inner), (one, one), (zero, one),
            (-one, one), (-one, zero), *((-one, -c) for c in inner), (-one, -one),
            (-zero, -one), (one, -one)]

    # the constant at 0, the n table segments, the constant at 1
    up = [(num(a), num(b)) for a, b in _segments(table)[1]]
    down = [(-a, -b) for a, b in up]
    coeffs = up[1:] + down[:1] * 2 + down[1:] + up[:1] * 2
    pieces = [LinearFunctional.from_map({"one": a, "id": b}) for a, b in coeffs]
    keep = [i for i, r in enumerate(rays) if r != rays[i + 1 - len(rays)]]
    fan = plfan.Fan(GENERATORS, tuple(rays[i] for i in keep))
    Sh = plfan.PLFunction(fan, tuple(pieces[i] for i in keep))
    return SectionBundle(
        K=K, h=h, generators=GENERATORS, Sh=Sh, table=table, h_sup=sup_norm(h)
    )


# ---------------------------------------------------------------------------
# verification


def verify_section(b: SectionBundle) -> dict:
    """Decide Sh(1, k) = h(k) on all of K, within 1e-12 * sup|h|.

    On s = 1 the sector of Sh's fan changes only where a ray (1, k) crosses
    the slice, and h bends only at its breakpoints.  Cutting every interval
    of K at those points leaves segments on which one piece and h are both
    affine, so their difference peaks at the ends.  At every cut point each
    piece whose closed sector holds (1, k) is evaluated in Fractions (the
    stored coefficients read exactly, plfan.exact_functional) and compared
    with h(k).  That covers each segment's own piece at both ends,
    single-point intervals, and sectors that meet K in one point only.
    `checked` counts these evaluations.

    The holding sectors are found by plfan.pl_sector, the lookup pl_value
    uses: on the slice a ray's pseudo-angle is its slope k, and the sector
    starting at or before k holds (1, k).  When k is a ray's angle, the
    sector ending there holds it too; at k = 0 that is the last sector,
    which wraps around to (1, 0).  Both are evaluated in ascending index
    order, so the verdict, `checked` and the failures come out as a test
    of every sector would give them.
    """
    fan = b.Sh.fan
    pieces = [plfan.exact_functional(p) for p in b.Sh.pieces]
    bends = [as_fraction(t) for s, t in fan.rays if s == 1 and 0 <= t <= 1]
    bends += [p for p, _ in b.h.breakpoints]
    limit = 1e-12 * float(b.h_sup)
    worst = 0.0
    checked = 0
    failures = []
    for lo, hi in b.K.intervals:
        for k in sorted({lo, hi}.union(x for x in bends if lo < x < hi)):
            want = b.h.value(k)
            i = plfan.pl_sector(fan, (1, k))
            near = sorted({i, (i - 1) % len(fan.rays)}) if fan.angles[i] == k else [i]
            for idx in near:
                got = pieces[idx].evaluate({"one": 1, "id": k})
                dev = float(abs(got - want))
                checked += 1
                worst = max(worst, dev)
                if dev > limit:
                    failures.append({"k": float(k), "cell": idx, "Sh": float(got),
                                     "h": float(want), "deviation": dev})
    return {
        "pass": not failures,
        "worst_deviation": worst,
        "checked": checked,
        "failures": failures[:10],
    }


def verify_norm_bound(b: SectionBundle) -> dict:
    """exact_fbl_norm(Sh) <= sup|h| * (1 + 1e-9), over the two-generator
    space.

    The norm is computed over the generators ("one", "id") only; reports
    carry a flag saying so.
    """
    space = fbl_space(GENERATORS)
    bracket = exact_fbl_norm(b.Sh, space)
    h_sup = float(b.h_sup)
    return {
        "pass": float(bracket.upper) <= h_sup + 1e-9 * h_sup,
        "norm_upper": float(bracket.upper),
        "norm_lower": float(bracket.lower),
        "h_sup": h_sup,
        "two_generator_restriction": True,
        "bracket": bracket,
    }


def _law_verdicts(S1, S2, Sj, Sl) -> tuple:
    """(join law, linear law) for the exact sections S1, S2, Sj and Sl, in
    one linear merge of their fans' cached angles (verify_hom_laws).

    Every fan starts at the ray (1, 0).  Each step takes the smallest angle
    still waiting and advances every fan whose next ray has it; a merged
    sector then lies in the sector of each fan that starts at the last ray
    it gave, so its piece there is read off the count of rays taken.
    """
    fs = (S1, S2, Sj, Sl)
    angles = [f.fan.angles for f in fs]
    coeffs = [[p.vector(GENERATORS) for p in f.pieces] for f in fs]
    taken = [0, 0, 0, 0]
    rays, cells = [], []
    while live := [k for k in range(4) if taken[k] < len(angles[k])]:
        a = min(angles[k][taken[k]] for k in live)
        for k in live:
            if angles[k][taken[k]] == a:
                ray = fs[k].fan.rays[taken[k]]
                taken[k] += 1
        rays.append(ray)
        cells.append([coeffs[k][taken[k] - 1] for k in range(4)])
    join = linear = True
    for p, q, (c1, c2, cj, cl) in zip(rays, rays[1:] + rays[:1], cells):
        if linear and cl != (2 * c1[0] - c2[0], 2 * c1[1] - c2[1]):
            linear = False
        if join:
            d0, d1 = c1[0] - c2[0], c1[1] - c2[1]
            dp, dq = d0 * p[0] + d1 * p[1], d0 * q[0] + d1 * q[1]
            join = dp * dq >= 0 and cj == (c1 if dp + dq >= 0 else c2)
        if not (join or linear):
            break
    return join, linear


def verify_hom_laws(K: KSpec, pairs: Sequence, samples: int = 10_000) -> dict:
    """S(h1 v h2) = S(h1) v S(h2) and S(2*h1 - h2) = 2*S(h1) - S(h2), in
    Fractions.

    The sections S1 = S(h1), S2 = S(h2), Sj = S(target_join(h1, h2)) and
    Sl = S(target_lincomb(2, h1, -1, h2)) are built exactly, and one merge
    of their rays decides both laws (_law_verdicts).  Every section's fan
    holds the four axis rays, so every merged sector (p, q), the wrapping
    one included, is narrower than pi: p and q span the plane, and each
    section is one linear piece there.  That piece is compared at both p
    and q, which for two linear pieces is equality of their coefficients.
    One value per merged ray would not do: a stored function need not be
    continuous across a ray, and a piece wrong only inside its sector would
    pass.  The linear law holds iff Sl = 2*S1 - S2 on every sector.  The
    join law holds iff Sj = max(S1, S2) at both ends of every sector and
    S1 - S2 never has strictly opposite signs at p and q: with such a sign
    change max(S1, S2) bends inside the sector, where Sj cannot.  `pass`
    is both laws, reported as join_pl_equal and linear_pl_equal.

    As a float cross-check only, the four sections are evaluated at
    `samples` random points of [-1, 1]^2 (seed 0, drawn once per call):
    join_sample_dev is max |Sj - max(S1, S2)| and linear_sample_dev
    max |Sl - (2*S1 - S2)| over them, 0.0 when samples is 0.  Raises
    ValueError unless samples is an integer of at least 0.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 0:
        raise ValueError(f"samples must be an integer of at least 0, got {samples!r}")
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (samples, 2))
    where = plfan._angles(pts)
    results = []
    for h1, h2 in pairs:
        targets = (h1, h2, target_join(h1, h2), target_lincomb(2, h1, -1, h2))
        S = [build_section(K, h, exact=True).Sh for h in targets]
        join, linear = _law_verdicts(*S)
        join_dev = linear_dev = 0.0
        if samples:
            v1, v2, vj, vl = (plfan._values_at(f, pts, where) for f in S)
            join_dev = float(np.max(np.abs(vj - np.maximum(v1, v2))))
            linear_dev = float(np.max(np.abs(vl - (2 * v1 - v2))))
        results.append(
            {
                "join_pl_equal": join,
                "join_sample_dev": join_dev,
                "linear_pl_equal": linear,
                "linear_sample_dev": linear_dev,
                "pass": join and linear,
            }
        )
    return {"pass": all(r["pass"] for r in results), "pairs": results}
