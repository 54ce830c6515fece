"""Interval retract sections: pipeline, symbolic assembly, bounds, laws."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fblab.ckretract import (
    CKError,
    KSpec,
    build_section,
    interval01,
    slice_table,
    sup_norm,
    target_from_pairs,
    target_join,
    target_lincomb,
    two_points,
    union_of_intervals,
    verify_hom_laws,
    verify_norm_bound,
    verify_section,
)
from fblab.ckretract import _segment, _segments
from fblab import ckretract, plfan
from fblab.expr import LinearFunctional
from fblab.plfan import PLFunction, pl_value, pl_value_many
from fblab.fblnorm import DualConfig, admissible, config_value, exact_fbl_norm, fbl_space


def v_eval(x) -> tuple:
    """The ray-invariant retraction v(s, t) = (1, clip(t/s, -1, 1)), in floats."""
    s, t = float(x[0]), float(x[1])
    if s != 0.0:
        w = min(max(t / s, -1.0), 1.0)
    else:
        w = 0.0 if t == 0 else math.copysign(1.0, t)
    return (1.0, w)


def nearest(K, c):
    """The nearest point of K to c; at a gap midpoint the left one."""
    best = None
    for a, b in K.intervals:
        p = min(max(c, a), b)
        if best is None or abs(c - p) < abs(c - best):
            best = p
    return best


def ramp(K, c):
    """u(c): 1 on K, 0 at gap midpoints, slope 2 / (smallest gap) between."""
    ivs = K.intervals
    gaps = [(b1, a2) for (_, b1), (a2, _) in zip(ivs, ivs[1:])]
    if not gaps:
        return Fraction(1)
    alpha = 2 / min(a2 - b1 for b1, a2 in gaps)
    return min(Fraction(1), alpha * min(abs(c - (b1 + a2) / 2) for b1, a2 in gaps))


def phi_eval(K, x) -> float:
    """The nearest point of K to the clipped slice coordinate of x."""
    w = v_eval(x)[1]
    return float(nearest(K, Fraction(min(max(w, 0.0), 1.0))))


def u_eval(K, x) -> float:
    """u at the clipped slice coordinate of x."""
    w = v_eval(x)[1]
    return float(ramp(K, Fraction(min(max(w, 0.0), 1.0))))


def pipeline_value(b, x):
    """Independent composition of the maps; no symbolic assembly involved."""
    s = float(x[0])
    if s == 0.0:
        return 0.0
    c = Fraction(phi_eval(b.K, x))
    return float(b.h.value(c)) * u_eval(b.K, x) * abs(s)


def H(K, *pairs):
    return target_from_pairs(K, [(Fraction(c), Fraction(v)) for c, v in pairs])


def sample_K(K, rng, size):
    """size points of K: length-weighted over intervals, endpoints for points."""
    lengths = [float(b - a) for a, b in K.intervals]
    total = sum(lengths)
    out = []
    for _ in range(size):
        if total == 0.0:
            a, b = K.intervals[rng.integers(0, len(K.intervals))]
            out.append(float(a))
        else:
            u = rng.uniform(0.0, total)
            for (a, b), ln in zip(K.intervals, lengths):
                if u <= ln or (a, b) == K.intervals[-1]:
                    out.append(float(a) + min(u, ln))
                    break
                u -= ln
    return out


# ---------------------------------------------------------------------------
# K specifications


def test_kspec_rejects_bad_intervals():
    with pytest.raises(CKError):
        union_of_intervals([(Fraction(1, 2), Fraction(1, 4))])
    with pytest.raises(CKError):
        union_of_intervals([(0, Fraction(1, 2)), (Fraction(1, 4), 1)])
    with pytest.raises(CKError):
        union_of_intervals([(0, Fraction(3, 2))])
    with pytest.raises(CKError):
        union_of_intervals([])


def test_target_requires_breakpoints_in_K():
    K = two_points()
    with pytest.raises(CKError):
        target_from_pairs(K, [(0, 1), (Fraction(1, 2), 0), (1, 1)])


def test_target_join_inserts_crossing():
    K = interval01()
    h1 = H(K, (0, 0), (1, 1))
    h2 = H(K, (0, 1), (1, 0))
    j = target_join(h1, h2)
    assert j.value(Fraction(1, 2)) == Fraction(1, 2)
    assert (Fraction(1, 2), Fraction(1, 2)) in j.breakpoints
    assert j.value(Fraction(1, 8)) == Fraction(7, 8)


def test_target_lincomb():
    K = interval01()
    h1 = H(K, (0, 1), (1, 3))
    h2 = H(K, (0, 0), (1, 4))
    g = target_lincomb(2, h1, -1, h2)
    assert g.value(Fraction(0)) == 2
    assert g.value(Fraction(1)) == 2
    assert g.value(Fraction(1, 2)) == 2


# ---------------------------------------------------------------------------
# the two-point section in closed form


def test_two_point_section_closed_form():
    K = two_points()
    b = build_section(K, H(K, (0, 0), (1, 1)))
    cases = [
        ((1.0, 0.2), 0.0),
        ((1.0, 0.5), 0.0),
        ((1.0, 0.75), 0.5),
        ((1.0, 1.0), 1.0),
        ((1.0, 2.0), 1.0),
        ((2.0, 0.5), 0.0),
        ((2.0, 1.5), 1.0),
        ((2.0, 3.0), 2.0),
        ((1.0, -0.3), 0.0),
        ((0.0, 0.7), 0.0),
        ((0.0, 0.0), 0.0),
        ((-1.0, -0.75), 0.5),
    ]
    for x, want in cases:
        assert pl_value(b.Sh, x) == pytest.approx(want, abs=1e-12)
        assert pipeline_value(b, x) == pytest.approx(want, abs=1e-12)


def test_symbolic_assembly_matches_pipeline_on_grid():
    specs = [
        (interval01(), ((0, Fraction(1, 2)), (Fraction(1, 4), -1), (1, Fraction(3, 4)))),
        (two_points(), ((0, 3), (1, -2))),
        (
            union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)]),
            ((0, 1), (Fraction(1, 4), -1), (Fraction(1, 2), 2), (1, 0)),
        ),
    ]
    grid = np.linspace(-1.5, 1.5, 13)
    for K, pairs in specs:
        b = build_section(K, H(K, *pairs))
        for s in grid:
            for t in grid:
                got = pl_value(b.Sh, (float(s), float(t)))
                want = pipeline_value(b, (float(s), float(t)))
                assert abs(got - want) <= 1e-9, (K.kind, s, t)


# ---------------------------------------------------------------------------
# section identity


def test_identity_section_on_interval():
    K = interval01()
    b = build_section(K, H(K, (0, 0), (1, 1)))
    assert pl_value(b.Sh, (1.0, 0.25)) == pytest.approx(0.25, abs=1e-12)
    rep = verify_section(b)
    assert rep["pass"], rep["failures"]
    assert rep["worst_deviation"] <= 1e-12


def test_two_point_section_values():
    K = two_points()
    b = build_section(K, H(K, (0, 3), (1, -2)))
    assert pl_value(b.Sh, (1.0, 0.0)) == pytest.approx(3.0, abs=1e-12)
    assert pl_value(b.Sh, (1.0, 1.0)) == pytest.approx(-2.0, abs=1e-12)
    rep = verify_section(b)
    assert rep["pass"]


def test_zero_target_gives_zero_section():
    K = interval01()
    b = build_section(K, H(K, (0, 0), (1, 0)))
    rng = np.random.default_rng(83)
    for _ in range(100):
        x = tuple(rng.uniform(-2.0, 2.0, 2))
        assert pl_value(b.Sh, x) == 0.0
    rep = verify_norm_bound(b)
    assert rep["norm_upper"] == pytest.approx(0.0, abs=1e-12)


def test_union_section_identity():
    K = union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    h = H(K, (0, 1), (Fraction(1, 8), 2), (Fraction(1, 4), 0), (Fraction(1, 2), -1), (1, 1))
    b = build_section(K, h)
    rep = verify_section(b)
    assert rep["pass"], rep["failures"]


# Sections whose pieces are mutated one cell at a time below: every kind of
# K, and a target whose float coefficients round at the 1e-10 level.
MUTATION_CASES = [
    (interval01(), ((0, 0), (Fraction(1, 3), 2), (1, -1))),
    (interval01(), ((0, 0), (Fraction(1, 3), 10**6), (1, 7))),
    (two_points(), ((0, 3), (1, -2))),
    (
        union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)]),
        ((0, 1), (Fraction(1, 8), 2), (Fraction(1, 4), 0), (Fraction(1, 2), -1), (1, 1)),
    ),
]


def _with_piece(b, idx, piece):
    pieces = list(b.Sh.pieces)
    pieces[idx] = piece
    return dataclasses.replace(b, Sh=PLFunction(b.Sh.fan, tuple(pieces)))


def _slice_ranges(fan, idx, K):
    """[p, q] with {1} x [p, q] = closed sector idx meet {1} x I, per interval I of K.

    Computed in Fractions from the sector's two boundary rays r1, r2 (counter-
    clockwise): the sector is cross(r1, x) >= 0 and cross(x, r2) >= 0.
    """
    r1, r2 = ([Fraction(v) for v in r] for r in fan.cells[idx])
    out = []
    for lo, hi in K.intervals:
        # at x = (1, k): r1.s * k >= r1.t and r2.t >= r2.s * k
        for alpha, beta in ((r1[0], r1[1]), (-r2[0], -r2[1])):
            if alpha > 0:
                lo = max(lo, beta / alpha)
            elif alpha < 0:
                hi = min(hi, beta / alpha)
            elif beta > 0:
                hi = lo - 1
        if lo <= hi:
            out.append((lo, hi))
    return out


@pytest.mark.parametrize("K, pairs", MUTATION_CASES)
def test_identity_fails_exactly_on_cells_meeting_K(K, pairs):
    b = build_section(K, H(K, *pairs))
    assert verify_section(b)["pass"]
    bump = LinearFunctional.from_map({"one": 1e-9 * max(1.0, float(b.h_sup))})
    meets = []
    for idx in range(len(b.Sh.fan.cells)):
        meets.append(bool(_slice_ranges(b.Sh.fan, idx, K)))
        rep = verify_section(_with_piece(b, idx, b.Sh.pieces[idx].plus(bump)))
        assert rep["pass"] is not meets[-1], (idx, b.Sh.fan.cells[idx])
    assert any(meets) and not all(meets)


@pytest.mark.parametrize(
    "K, pairs", [case for case in MUTATION_CASES if case[0].kind != "two_points"]
)
def test_identity_reads_each_segments_own_piece(K, pairs):
    """A piece turned about its segment's midpoint, or about one end, agrees
    with h at that point only; every such mutant fails."""
    b = build_section(K, H(K, *pairs))
    scale = max(1.0, float(b.h_sup))
    turned = 0
    for idx in range(len(b.Sh.fan.cells)):
        for p, q in _slice_ranges(b.Sh.fan, idx, K):
            if p == q:
                continue
            delta = 2e-6 * scale / float(q - p)
            for pivot in (p, (p + q) / 2, q):
                turn = LinearFunctional.from_map({"id": delta, "one": -delta * float(pivot)})
                mutant = _with_piece(b, idx, b.Sh.pieces[idx].plus(turn))
                assert not verify_section(mutant)["pass"], (idx, p, q, pivot)
            turned += 1
    assert turned >= len(K.intervals)


def _random_union_target(rng, grid=16):
    """2-3 disjoint intervals on the 1/grid grid; breakpoints on the
    1/(2*grid) grid with values k/4."""
    parts = int(rng.integers(2, 4))
    ends = sorted(int(e) for e in rng.choice(grid + 1, size=2 * parts, replace=False))
    K = union_of_intervals(
        [(Fraction(a, grid), Fraction(b, grid)) for a, b in zip(ends[0::2], ends[1::2])]
    )
    return K, _random_target_on(rng, K, 2 * grid)


def _random_target_on(rng, K, grid=32):
    pts = {p for iv in K.intervals for p in iv}
    pts |= {Fraction(int(k), grid) for k in rng.integers(0, grid + 1, 4)
            if K.contains(Fraction(int(k), grid))}
    vals = {p: Fraction(int(rng.integers(-8, 9)), 4) for p in pts}
    return target_from_pairs(K, sorted(vals.items()))


def test_union_sections_property():
    rng = np.random.default_rng(613)
    pair_rng = np.random.default_rng(617)
    interior = 0
    for _ in range(20):
        K, h = _random_union_target(rng)
        b = build_section(K, h)
        h_sup = float(sup_norm(h))
        tol = 1e-12 * max(1.0, h_sup)
        sec = verify_section(b)
        assert sec["pass"], (K, h, sec["failures"])
        assert sec["worst_deviation"] <= tol
        nb = verify_norm_bound(b)
        assert nb["pass"], (K, h, nb)
        assert abs(nb["norm_upper"] - h_sup) <= 1e-9 * max(1.0, h_sup)
        # independent reference: float evaluation at sampled points of K
        ks = np.array(sample_K(K, rng, 2000))
        got = pl_value_many(b.Sh, np.column_stack([np.ones_like(ks), ks]))
        want = np.interp(ks, [float(p) for p, _ in h.breakpoints],
                         [float(v) for _, v in h.breakpoints])
        assert np.max(np.abs(got - want)) <= tol
        # the hom laws, decided in Fractions, with a second target on K
        h2 = _random_target_on(pair_rng, K)
        ends = {e for iv in K.intervals for e in iv}
        interior += any(p not in ends for p, _ in h2.breakpoints)
        laws = verify_hom_laws(K, [(h, h2)], samples=200)
        assert laws["pass"], (K, h, h2, laws)
        assert laws["pairs"][0]["join_pl_equal"] and laws["pairs"][0]["linear_pl_equal"]
    assert interior >= 10


# ---------------------------------------------------------------------------
# the slice table in closed form, against a per-point referee


def slice_referee(K, h, c):
    """u(c) * h(phi(c)), with the tests' own nearest point, ramp and walk
    of h's breakpoints."""
    p = nearest(K, c)
    a, b = scan_segment(h.breakpoints, p)
    return ramp(K, c) * (a + b * p)


SLICE_TABLE_CASES = [
    (interval01(), ((0, 0), (Fraction(1, 3), 2), (1, -1))),
    (two_points(), ((0, 3), (1, -2))),
    # K touching neither 0 nor 1
    (union_of_intervals([(Fraction(1, 4), Fraction(3, 4))]),
     ((Fraction(1, 4), 1), (Fraction(1, 2), -2), (Fraction(3, 4), 3))),
    (union_of_intervals([(Fraction(1, 8), Fraction(3, 8)), (Fraction(5, 8), Fraction(7, 8))]),
     ((Fraction(1, 8), -1), (Fraction(3, 8), 2), (Fraction(5, 8), 1), (Fraction(7, 8), -3))),
    # single-point intervals, at an end and inside
    (union_of_intervals([(0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), 1)]),
     ((0, 2), (Fraction(1, 3), -1), (Fraction(1, 2), 3), (1, 1))),
    (union_of_intervals([(Fraction(1, 5), Fraction(1, 5)), (Fraction(3, 5), Fraction(3, 5))]),
     ((Fraction(1, 5), 4), (Fraction(3, 5), -4))),
    # three gaps of the smallest length and a wider one
    (union_of_intervals([(0, Fraction(1, 8)), (Fraction(1, 4), Fraction(3, 8)),
                         (Fraction(1, 2), Fraction(9, 16)), (Fraction(11, 16), Fraction(11, 16)),
                         (Fraction(15, 16), 1)]),
     ((0, 1), (Fraction(1, 8), -1), (Fraction(1, 4), 2), (Fraction(3, 8), 0),
      (Fraction(1, 2), -2), (Fraction(9, 16), 1), (Fraction(11, 16), 3),
      (Fraction(15, 16), -1), (1, 2))),
]


def test_slice_table_matches_the_referee():
    """At every table point and every midpoint between two, on [0, 1]; the
    table is linear between its points, so these pin the slice function."""
    rng = np.random.default_rng(641)
    cases = [(K, H(K, *pairs)) for K, pairs in SLICE_TABLE_CASES]
    cases += [_random_union_target(rng, grid) for grid in (16, 21, 37, 64) for _ in range(10)]
    for K, h in cases:
        table = slice_table(K, h)
        pts = [c for c, _ in table]
        assert pts[0] == 0 and pts[-1] == 1 and pts == sorted(set(pts)), (K, h)
        for c, v in table:
            assert v == slice_referee(K, h, c), (K, h, c)
        for (c0, v0), (c1, v1) in zip(table, table[1:]):
            assert (v0 + v1) / 2 == slice_referee(K, h, (c0 + c1) / 2), (K, h, c0, c1)


# ---------------------------------------------------------------------------
# sorted lookups against brute-force scans


def scan_segment(table, c):
    """(a, b) of the segment holding c, by walking the ascending (point,
    value) table; the constant at or beyond an end."""
    if c <= table[0][0]:
        return table[0][1], Fraction(0)
    if c >= table[-1][0]:
        return table[-1][1], Fraction(0)
    for (c0, v0), (c1, v1) in zip(table, table[1:]):
        if c <= c1:
            b = (v1 - v0) / (c1 - c0)
            return v0 - b * c0, b


def scan_verify_section(b):
    """verify_section's report from the exact cross-product test of every
    sector at every cut point, with h read by scan_segment."""
    fan = b.Sh.fan
    rows = [[Fraction(v) for v in hp.vector(b.generators)] for hp in fan.hyperplanes]
    cells = [[[Fraction(v) for v in r] for r in cell] for cell in fan.cells]
    pieces = [[Fraction(v) for v in p.vector(b.generators)] for p in b.Sh.pieces]
    bends = [-a / c for a, c in rows if c != 0] + [p for p, _ in b.h.breakpoints]
    limit = 1e-12 * float(b.h_sup)
    worst, checked, failures = 0.0, 0, []
    for lo, hi in b.K.intervals:
        for k in sorted({lo, hi}.union(x for x in bends if lo < x < hi)):
            a, c = scan_segment(b.h.breakpoints, k)
            want = a + c * k
            for idx, (p, q) in enumerate(cells):
                if p[0] * k - p[1] >= 0 and q[1] - k * q[0] >= 0:
                    a, c = pieces[idx]
                    got = a + c * k
                    dev = float(abs(got - want))
                    checked += 1
                    worst = max(worst, dev)
                    if dev > limit:
                        failures.append({"k": float(k), "cell": idx, "Sh": float(got),
                                         "h": float(want), "deviation": dev})
    return {"pass": not failures, "worst_deviation": worst, "checked": checked,
            "failures": failures[:10]}


# Every K endpoint inside (0, 1) is the slope of a fan ray (in float fans
# when it is dyadic), so cut points fall on rays, and 0 is in every K of the
# fixed cases.  A non-dyadic breakpoint rounds in float fans; single-point
# intervals meet sectors in one point.  The seeded cases are bench-like
# unions of 2-3 intervals with rational ends and breakpoints, dyadic and not.
_lookup_rng = np.random.default_rng(641)
_SEEDED_UNIONS = [_random_union_target(_lookup_rng, grid)
                  for grid in (16, 21, 40) for _ in range(2)]
LOOKUP_CASES = [
    (interval01(), ((0, 0), (Fraction(1, 3), 2), (1, -1))),
    (two_points(), ((0, 3), (1, -2))),
    (union_of_intervals([(0, 0), (Fraction(1, 4), 1)]),
     ((0, 2), (Fraction(1, 4), 1), (Fraction(2, 3), -1), (1, 1))),
    (union_of_intervals([(0, Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(2, 3), 1)]),
     ((0, 1), (Fraction(1, 3), -1), (Fraction(1, 2), 3), (Fraction(2, 3), 0), (1, 2))),
    MUTATION_CASES[3],
    *((K, h.breakpoints) for K, h in _SEEDED_UNIONS),
]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("K, pairs", LOOKUP_CASES)
def test_verify_section_matches_a_scan_of_every_sector(K, pairs, exact):
    """The full report, failures in order, for the section, for each piece
    bumped by a relative 1e-9, and for all pieces scaled by 1.5."""
    b = build_section(K, H(K, *pairs), exact=exact)
    one = Fraction(1) if exact else 1.0
    bump = LinearFunctional.from_map({"one": one / 10**9 * max(1, b.h_sup)})
    mutants = [b, dataclasses.replace(
        b, Sh=PLFunction(b.Sh.fan, tuple(p.scaled(3 * one / 2) for p in b.Sh.pieces)))]
    mutants += [_with_piece(b, idx, b.Sh.pieces[idx].plus(bump))
                for idx in range(len(b.Sh.pieces))]
    reports = [verify_section(m) for m in mutants]
    assert reports == [scan_verify_section(m) for m in mutants]
    assert reports[0]["pass"] and not reports[1]["pass"]
    assert sum(not r["pass"] for r in reports[2:]) >= 2


def test_verify_section_matches_a_scan_on_random_unions():
    rng = np.random.default_rng(619)
    for _ in range(6):
        K, h = _random_union_target(rng)
        for exact in (False, True):
            b = build_section(K, h, exact=exact)
            assert verify_section(b) == scan_verify_section(b)


def witness_lookup_pieces(fan, table, exact):
    """Sh's pieces read sector by sector: each sector (p, q) at its witness
    p + q, with s-sign sigma and the slice segment a + b*c holding the ratio
    t/s there (scan_segment), gives sigma*(a*s + b*t)."""
    pieces = []
    for p, q in fan.cells:
        ws, wt = Fraction(p[0] + q[0]), Fraction(p[1] + q[1])
        sigma = 1 if ws > 0 else -1
        a, b = scan_segment(table, wt / ws)
        coeffs = {"one": sigma * a, "id": sigma * b}
        pieces.append(LinearFunctional.from_map(
            {g: c if exact else float(c) for g, c in coeffs.items()}))
    return tuple(pieces)


def rounded_section(b):
    """(hyperplanes, [(cell, piece), ...]) of the exact section b rounded to
    floats: every coefficient rounded, each sector whose two rays round to
    one float dropped, and a hyperplane that rounds onto an earlier one."""
    def rounded(fn):
        return LinearFunctional.from_map({g: float(c) for g, c in fn.items})

    hyps = tuple(dict.fromkeys(rounded(hp) for hp in b.Sh.fan.hyperplanes))
    cells = [(tuple(tuple(map(float, r)) for r in cell), rounded(piece))
             for cell, piece in zip(b.Sh.fan.cells, b.Sh.pieces)]
    return hyps, [(cell, piece) for cell, piece in cells if cell[0] != cell[1]]


# Targets on [0, 1] at the edges of the float section.  1/3 and 1/3 + 1e-14
# agree to 12 decimals but are distinct floats, and so are the lines
# t - s/3 and t - (1/3 + 1e-14)s.  The floats just below and above 0.6000000000085 are apart, but
# the witness ratio of the sector between them rounds onto its lower end.
# 1/3 and 1/3 + 1e-20 round to one float, so the sector between them is
# empty in floats.
WALK_EDGE_TARGETS = [
    ((0, 0), (Fraction(1, 3), 1), (Fraction(1, 3) + Fraction(1, 10**14), -1), (1, 2)),
    ((0, 0), (0.6000000000085, 1), (0.6000000000085001, -1), (1, 2)),
    ((0, 0), (Fraction(1, 3), 1), (Fraction(1, 3) + Fraction(1, 10**20), -1), (1, 2)),
]


def test_the_norm_keeps_lines_that_agree_to_twelve_decimals():
    """The float section of the 1/3, 1/3 + 1e-14 target breaks on
    t - s/3 and t - (1/3 + 1e-14)s, and the zero set of its steep piece is
    a third line between them.  Dedup by exact value keeps all three, so
    the norm counts 8 hyperplanes; a 12-digit rounded key merged them and
    counted 6."""
    K = interval01()
    b = build_section(K, H(K, *WALK_EDGE_TARGETS[0]), exact=False)
    bracket = exact_fbl_norm(b.Sh, fbl_space(b.Sh.fan.generators))
    assert len(b.Sh.fan.hyperplanes) == 6
    assert bracket.diagnostics["hyperplanes"] == 8


@pytest.mark.parametrize("exact", [False, True])
def test_table_walk_matches_a_witness_lookup_of_every_sector(exact):
    """Exact sections equal the witness lookup of every sector; float
    sections equal the exact ones rounded, sector by sector, and away from
    the edges the float witness lookup too."""
    rng = np.random.default_rng(631)
    # on the 1/21 grid most points round in floats
    generic = [_random_union_target(rng, grid) for grid in (16, 21) for _ in range(8)]
    generic += [(K, H(K, *pairs)) for K, pairs in LOOKUP_CASES]
    edges = [(interval01(), H(interval01(), *pairs)) for pairs in WALK_EDGE_TARGETS]
    builds = []
    for i, (K, h) in enumerate(generic + edges):
        b = build_section(K, h, exact=exact)
        builds.append(b)
        if i < len(generic) or exact:
            assert b.Sh.pieces == witness_lookup_pieces(b.Sh.fan, b.table, exact), (K, h)
        if not exact:
            hyps, cells = rounded_section(build_section(K, h, exact=True))
            assert b.Sh.fan.hyperplanes == hyps, (K, h)
            assert list(zip(b.Sh.fan.cells, b.Sh.pieces)) == cells, (K, h)
    merged, thin, dropped = builds[len(generic):]
    for b in (merged, thin):
        assert len(b.Sh.fan.rays) == 2 * len(b.table) + 4
        assert len(b.Sh.fan.hyperplanes) == len(b.table) + 2
    # the witness of the thin sector reads the segment below it in floats
    a, c = (r[1] for r in thin.Sh.fan.rays[1:3])
    assert (Fraction(a + c) / 2 == a) is not exact
    if not exact:
        assert thin.Sh.pieces != witness_lookup_pieces(thin.Sh.fan, thin.table, False)
    # one ray, one sector and one hyperplane fewer in floats
    assert len(dropped.Sh.fan.rays) == 2 * len(dropped.table) + (4 if exact else 2)
    assert len(dropped.Sh.fan.hyperplanes) == len(dropped.table) + (2 if exact else 1)


@pytest.mark.parametrize("exact", [False, True])
def test_a_section_breaks_on_the_lines_of_its_table(exact):
    """s, t, t - s and t + s, and t - c*s for every interior table point c,
    as it rounds: 1/3 + 1e-20 is 1/3 in floats, so one line fewer."""
    num = Fraction if exact else float
    cases = LOOKUP_CASES + [(interval01(), pairs) for pairs in WALK_EDGE_TARGETS]
    for K, pairs in cases:
        b = build_section(K, H(K, *pairs), exact=exact)
        lines = [{"one": 1}, {"id": 1}, {"id": 1, "one": -1}, {"id": 1, "one": 1}]
        lines += [{"id": 1, "one": -num(c)} for c, _ in b.table[1:-1]]
        want = {LinearFunctional.from_map({g: num(v) for g, v in m.items()}) for m in lines}
        assert set(b.Sh.fan.hyperplanes) == want, (K, pairs)
        assert len(b.Sh.fan.hyperplanes) == len(want)


def test_segment_lookup_matches_a_walk_of_the_table():
    """At every table point, between neighbours and beyond both ends."""
    tables = [build_section(K, H(K, *pairs)).table for K, pairs in LOOKUP_CASES]
    tables += [H(K, *pairs).breakpoints for K, pairs in LOOKUP_CASES]
    tables.append(((Fraction(1, 2), Fraction(3)),))
    for table in tables:
        segs = _segments(table)
        pts = [c for c, _ in table]
        probes = pts + [(c0 + c1) / 2 for c0, c1 in zip(pts, pts[1:])] + [pts[0] - 1, pts[-1] + 1]
        for c in probes:
            assert _segment(segs, c) == scan_segment(table, c), (table, c)
    for K, pairs in LOOKUP_CASES:
        h = H(K, *pairs)
        for c, v in h.breakpoints:
            assert h.value(c) == v


def test_hom_laws_on_a_union_with_interior_breakpoints():
    K = union_of_intervals([(0, Fraction(1, 3)), (Fraction(1, 2), 1)])
    h1 = H(K, (0, 1), (Fraction(1, 6), -1), (Fraction(1, 3), 2), (Fraction(1, 2), 0),
           (Fraction(3, 4), 3), (1, -1))
    h2 = H(K, (0, -1), (Fraction(1, 4), 2), (Fraction(1, 3), 0), (Fraction(1, 2), 1),
           (Fraction(5, 8), -2), (1, 2))
    # h1 - h2 changes sign inside both intervals, so the join gains breakpoints
    own = {p for p, _ in h1.breakpoints + h2.breakpoints}
    assert len({p for p, _ in target_join(h1, h2).breakpoints} - own) >= 2
    rep = verify_hom_laws(K, [(h1, h2), (h2, h1)], samples=200)
    assert rep["pass"], rep
    for pair in rep["pairs"]:
        assert pair["join_pl_equal"] and pair["linear_pl_equal"]
        assert pair["join_sample_dev"] <= 1e-12 and pair["linear_sample_dev"] <= 1e-12
    # the join law at exact points of the slice and off it, with no fan merge
    S1, S2, Sj = (build_section(K, h, exact=True).Sh for h in (h1, h2, target_join(h1, h2)))
    points = [(Fraction(1), Fraction(k, 24)) for k in range(-3, 28)]
    for x in points + [(Fraction(-2), Fraction(1, 5))]:
        assert pl_value(Sj, x) == max(pl_value(S1, x), pl_value(S2, x))


# ---------------------------------------------------------------------------
# u, phi, v behavior


def test_u_and_phi_on_the_embedded_copy():
    for K in (
        interval01(),
        two_points(),
        union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)]),
    ):
        rng = np.random.default_rng(89)
        for k in sample_K(K, rng, 50):
            assert u_eval(K, (1.0, k)) == pytest.approx(1.0, abs=1e-12)
            assert phi_eval(K, (1.0, k)) == pytest.approx(k, abs=1e-12)


def test_u_vanishes_at_gap_midpoints():
    K = union_of_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert u_eval(K, (1.0, 0.375)) == 0.0
    assert u_eval(K, (1.0, 0.3125)) == pytest.approx(0.5, abs=1e-12)


def test_two_point_u_is_distance_ramp():
    K = two_points()
    assert u_eval(K, (1.0, 0.5)) == 0.0
    assert u_eval(K, (1.0, 0.25)) == pytest.approx(0.5, abs=1e-12)
    assert u_eval(K, (1.0, 1.0)) == 1.0


def test_v_is_ray_invariant():
    rng = np.random.default_rng(97)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 2)
        lam = float(rng.uniform(0.05, 1.0))
        v1 = v_eval(tuple(x))
        v2 = v_eval(tuple(lam * x))
        assert v1[0] == v2[0] == 1.0
        assert abs(v1[1] - v2[1]) <= 1e-9


# ---------------------------------------------------------------------------
# norm bounds


def test_norm_bound_constant_target():
    K = two_points()
    b = build_section(K, H(K, (0, 1), (1, 1)))
    rep = verify_norm_bound(b)
    assert rep["pass"]
    assert rep["norm_upper"] <= 1.0 + 1e-9
    assert rep["two_generator_restriction"]


def test_norm_bound_identity_target_is_tight():
    K = interval01()
    b = build_section(K, H(K, (0, 0), (1, 1)))
    rep = verify_norm_bound(b)
    assert rep["pass"]
    assert rep["norm_upper"] <= 1.0 + 1e-9
    assert rep["norm_lower"] >= 1.0 - 1e-9
    # the single admissible point (1, 1) already attains the bound
    space = fbl_space(b.generators)
    single = DualConfig(((1.0, 1.0),))
    assert admissible(single, space).ok
    val = config_value(lambda x: pl_value(b.Sh, x), single)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_norm_bound_random_targets():
    rng = np.random.default_rng(101)
    K = interval01()
    for _ in range(5):
        vals = [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(3)]
        h = H(K, (0, vals[0]), (Fraction(1, 2), vals[1]), (1, vals[2]))
        b = build_section(K, h)
        rep = verify_norm_bound(b)
        assert rep["pass"], rep
        assert rep["norm_upper"] <= float(sup_norm(h)) + 1e-9


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2**45)])
def test_section_and_norm_verdicts_are_scale_free(scale):
    """Pieces scaled by 1.5 miss h by half its size and break the norm bound
    by half of sup|h|, at any scale; the untampered section passes both."""
    K = interval01()
    b = build_section(K, H(K, (0, 0), (Fraction(1, 3), 2 * scale), (1, -scale)))
    tampered = dataclasses.replace(
        b, Sh=PLFunction(b.Sh.fan, tuple(p.scaled(1.5) for p in b.Sh.pieces))
    )
    assert verify_section(b)["pass"] and verify_norm_bound(b)["pass"]
    assert not verify_section(tampered)["pass"]
    assert not verify_norm_bound(tampered)["pass"]


def test_exact_norm_of_a_float_section_reads_it_exactly():
    """exact=True on a float stored function reads its rays and pieces as
    Fractions, so the bracket closes, in Fractions, on the norm of the same
    function read exactly.  Reading the pieces alone is not enough: a float
    ray's pseudo-angle off the first octant is rounded."""
    rng = np.random.default_rng(7)
    K = interval01()
    targets = [H(K, (0, 0), (Fraction(1, 3), 1), (1, Fraction(1, 10)))]
    targets += [_random_target_on(rng, K, 40) for _ in range(30)]
    space = fbl_space(("one", "id"))
    for h in targets:
        f = build_section(K, h).Sh
        exactly = PLFunction(
            plfan.Fan(f.fan.generators, tuple(tuple(map(Fraction, r)) for r in f.fan.rays)),
            tuple(map(plfan.exact_functional, f.pieces)))
        got = exact_fbl_norm(f, space, exact=True)
        want = exact_fbl_norm(exactly, space, exact=True)
        assert type(got.lower) is Fraction and type(got.upper) is Fraction
        assert got.lower == got.upper == want.lower == want.upper, h


# ---------------------------------------------------------------------------
# homomorphism laws


def test_hom_laws_identity_and_reflection():
    K = interval01()
    h1 = H(K, (0, 0), (1, 1))
    h2 = H(K, (0, 1), (1, 0))
    rep = verify_hom_laws(K, [(h1, h2)])
    assert rep["pass"], rep


def test_hom_laws_idempotent_pair():
    K = two_points()
    h = H(K, (0, 2), (1, -1))
    rep = verify_hom_laws(K, [(h, h)])
    assert rep["pass"]
    assert rep["pairs"][0]["join_pl_equal"]


LARGE_PAIR_SPACES = [
    (interval01(), Fraction(1, 2)),
    (union_of_intervals([(0, Fraction(1, 3)), (Fraction(2, 3), 1)]), Fraction(2, 3)),
]


def _large_pair(K, mid, big):
    """Targets with values near +-big/3 and a third breakpoint at mid in K."""
    h1 = H(K, (0, Fraction(1, 3)), (Fraction(1, 3), Fraction(big, 3)),
           (mid, Fraction(5, 7)), (1, 7))
    h2 = H(K, (0, Fraction(5, 3)), (Fraction(1, 3), Fraction(-big, 7)),
           (mid, Fraction(-big, 11)), (1, 1))
    return h1, h2


@pytest.mark.parametrize("big", [10**6, 10**9, 10**12])
@pytest.mark.parametrize("K, mid", LARGE_PAIR_SPACES)
def test_hom_laws_tolerances_are_relative_to_sup_target(K, mid, big):
    h1, h2 = _large_pair(K, mid, big)
    for pair in ((h1, h2), (h2, h1)):
        rep = verify_hom_laws(K, [pair])
        assert rep["pass"], rep
        assert rep["pairs"][0]["join_pl_equal"], rep
        assert rep["pairs"][0]["linear_pl_equal"], rep


def test_float_pointwise_max_in_a_thin_sector():
    # at 1e9 the lines where pieces of the two sections cross pass within
    # about 1e-9 of this point; the max takes its pieces from the operands,
    # so it is h2's value here, not a piece solved in a thin cell
    h1, h2 = _large_pair(interval01(), Fraction(1, 2), 10**9)
    b1, b2 = build_section(h1.K, h1), build_section(h2.K, h2)
    x = (0.5, -1.375e-9)
    assert pl_value(b1.Sh, x) == pytest.approx(1 / 6, rel=1e-12)
    assert pl_value(b2.Sh, x) == pytest.approx(5 / 6, rel=1e-12)
    assert pl_value(plfan.pl_pointwise_max(b1.Sh, b2.Sh), x) == pytest.approx(5 / 6, rel=1e-12)


def _bump_top_piece(b):
    """The bundle b with the piece of Sh at its largest |value| on its
    sector's rays scaled by 1 + 1e-8."""
    f = b.Sh

    def top(i):
        return max(abs(f.pieces[i].evaluate(dict(zip(f.fan.generators, r))))
                   for r in f.fan.cells[i])

    j = max(range(len(f.pieces)), key=top)
    return _with_piece(b, j, f.pieces[j].scaled(1 + Fraction(1, 10**8)))


@pytest.mark.parametrize("referee, law", [
    ("pl_pointwise_max", "join_pl_equal"), ("pl_lincomb", "linear_pl_equal"),
])
@pytest.mark.parametrize("big", [10**6, 10**9, 10**12])
@pytest.mark.parametrize("K, mid", LARGE_PAIR_SPACES)
def test_hom_laws_catch_a_relative_bump_of_one_piece(K, mid, big, referee, law,
                                                     monkeypatch):
    """The join section or the combination section, as built, with one piece
    bumped: its own law fails, as the stored-function referee finds too,
    and the other law still holds."""
    h1, h2 = _large_pair(K, mid, big)
    join = referee == "pl_pointwise_max"
    bumped = target_join(h1, h2) if join else target_lincomb(2, h1, -1, h2)
    build = ckretract.build_section

    def build_bumped(K, h, exact=False):
        b = build(K, h, exact)
        return _bump_top_piece(b) if h == bumped else b

    monkeypatch.setattr(ckretract, "build_section", build_bumped)
    rep = verify_hom_laws(K, [(h1, h2)])
    assert not rep["pass"], rep
    assert [k for k in ("join_pl_equal", "linear_pl_equal")
            if not rep["pairs"][0][k]] == [law], rep
    S1, S2, S = (build_bumped(K, h, exact=True).Sh for h in (h1, h2, bumped))
    other = plfan.pl_pointwise_max(S1, S2) if join else plfan.pl_lincomb(2, S1, -1, S2)
    assert not plfan.pl_equal(S, other)


def _join_without_crossings(h1, h2):
    """max(h1, h2) at the breakpoints of h1 and h2 only: where h1 - h2
    changes sign between two of them, the crossing point is missing."""
    pts = sorted({p for p, _ in h1.breakpoints + h2.breakpoints})
    return target_from_pairs(h1.K, [(p, max(h1.value(p), h2.value(p))) for p in pts])


def _double_minus(f, g):
    return plfan.pl_lincomb(2, f, -1, g)


def test_hom_law_verdicts_match_the_stored_function_referee(monkeypatch):
    """On 102 seeded pairs over [0,1], {0,1} and unions of 2-3 intervals,
    each verdict of verify_hom_laws equals pl_equal against pl_pointwise_max
    or pl_lincomb of S(h1) and S(h2): for the four sections as built, for
    each of them with one random piece bumped, and for a join section whose
    target lacks its crossing points.  verify_hom_laws builds S(h1), S(h2),
    the join's and the combination's sections in that order; the stand-in
    build hands out each variant's sections and checks the targets.  The
    variants share most sections, so each referee call runs once per pair
    and operands."""
    rng = np.random.default_rng(1901)
    bump = LinearFunctional.from_map({"one": Fraction(1, 10**8)})
    queue, memo = [], {}

    def build_next(K, h, exact=False):
        want, b = queue.pop(0)
        assert exact and h == want
        return b

    def referee(f, *args):
        key = (f, *map(id, args))
        if key not in memo:
            memo[key] = f(*args)
        return memo[key]

    build = ckretract.build_section
    monkeypatch.setattr(ckretract, "build_section", build_next)
    verdicts = {True: 0, False: 0}
    missed_crossings = 0
    for n in range(102):
        K = (interval01(), two_points(), None)[n % 3] or _random_union_target(rng)[0]
        h1, h2 = _random_target_on(rng, K), _random_target_on(rng, K)
        targets = (h1, h2, target_join(h1, h2), target_lincomb(2, h1, -1, h2))
        built = [build(K, h, exact=True) for h in targets]
        variants = [built]
        for k, b in enumerate(built):  # one random piece's "one" raised by 1e-8
            j = int(rng.integers(len(b.Sh.pieces)))
            bumped = _with_piece(b, j, b.Sh.pieces[j].plus(bump))
            variants.append(built[:k] + [bumped] + built[k + 1:])
        free = _join_without_crossings(h1, h2)
        variants.append(built[:2] + [build(K, free, exact=True)] + built[3:])
        memo.clear()  # ids are unique among live objects only
        for bundles in variants:
            queue[:] = zip(targets, bundles)
            pair = verify_hom_laws(K, [(h1, h2)], samples=0)["pairs"][0]
            assert not queue
            S1, S2, Sj, Sl = (b.Sh for b in bundles)
            pmax = referee(plfan.pl_pointwise_max, S1, S2)
            assert pair["join_pl_equal"] == referee(plfan.pl_equal, Sj, pmax)
            plin = referee(_double_minus, S1, S2)
            assert pair["linear_pl_equal"] == referee(plfan.pl_equal, Sl, plin)
            verdicts[pair["pass"]] += 1
        missed_crossings += free != targets[2]
    assert verdicts[True] >= 120 and verdicts[False] >= 400, verdicts
    assert missed_crossings >= 50


@pytest.mark.parametrize("K, h1, h2", [
    (interval01(), ((0, Fraction(5, 4)), (1, -2)), ((0, -1), (1, 1))),
    (union_of_intervals([(0, Fraction(1, 3)), (Fraction(1, 2), 1)]),
     ((0, 1), (Fraction(1, 3), -1), (Fraction(1, 2), 0), (1, 2)),
     ((0, -1), (Fraction(1, 3), 1), (Fraction(1, 2), 0), (1, 2))),
])
def test_join_section_without_its_crossing_ray_fails_the_join_law_only(K, h1, h2,
                                                                        monkeypatch):
    """Sj built from max(h1, h2) at the targets' own breakpoints lacks the
    ray where S(h1) - S(h2) changes sign, so max(S1, S2) bends inside one
    of its sectors: the join law fails, and the linear law still holds."""
    h1, h2 = H(K, *h1), H(K, *h2)
    assert _join_without_crossings(h1, h2) != target_join(h1, h2)
    monkeypatch.setattr(ckretract, "target_join", _join_without_crossings)
    pair = verify_hom_laws(K, [(h1, h2)], samples=2000)["pairs"][0]
    assert pair["join_pl_equal"] is False and pair["linear_pl_equal"] is True
    assert pair["pass"] is False
    assert pair["join_sample_dev"] > 1e-3 and pair["linear_sample_dev"] <= 1e-12


@pytest.mark.parametrize("samples", [-1, 2.5, True, False, "10", None, 1e3])
def test_hom_laws_reject_bad_samples_before_any_work(samples, monkeypatch):
    K = interval01()
    h1, h2 = H(K, (0, 0), (1, 1)), H(K, (0, 1), (1, 0))

    def no_build(*args, **kwargs):
        raise AssertionError("a section was built")

    monkeypatch.setattr(ckretract, "build_section", no_build)
    with pytest.raises(ValueError, match="samples must be an integer of at least 0"):
        verify_hom_laws(K, [(h1, h2)], samples=samples)


@pytest.mark.parametrize("samples", [0, 1, np.int64(7)])
def test_hom_laws_take_any_integer_samples_of_at_least_zero(samples):
    K = interval01()
    h1, h2 = H(K, (0, 0), (1, 1)), H(K, (0, 1), (1, 0))
    pair = verify_hom_laws(K, [(h1, h2)], samples=samples)["pairs"][0]
    assert pair["pass"]
    assert pair["join_sample_dev"] <= 1e-12 and pair["linear_sample_dev"] <= 1e-12
    if samples == 0:
        assert pair["join_sample_dev"] == pair["linear_sample_dev"] == 0.0


def test_join_with_negation_is_abs():
    K = interval01()
    h = H(K, (0, -1), (Fraction(1, 2), 1), (1, -1))
    neg = target_lincomb(0, h, -1, h)
    b_abs = build_section(K, target_join(h, neg))
    b = build_section(K, h)
    rng = np.random.default_rng(103)
    for _ in range(500):
        x = tuple(rng.uniform(-1.5, 1.5, 2))
        assert pl_value(b_abs.Sh, x) == pytest.approx(
            abs(pl_value(b.Sh, x)), abs=1e-9
        )


# ---------------------------------------------------------------------------
# homogeneity and continuity at s = 0


def test_section_homogeneity_and_slope_bound():
    rng = np.random.default_rng(107)
    for K, pairs in (
        (interval01(), ((0, 2), (Fraction(1, 2), -1), (1, 1))),
        (two_points(), ((0, -3), (1, 2))),
    ):
        h = H(K, *pairs)
        b = build_section(K, h)
        hs = float(sup_norm(h))
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, 2)
            lam = float(rng.uniform(0.01, 1.0))
            vx = pl_value(b.Sh, tuple(x))
            vlx = pl_value(b.Sh, tuple(lam * x))
            assert abs(vlx - lam * vx) <= 1e-12
            assert abs(vx) <= hs * abs(float(x[0])) + 1e-12
