"""Output checks that do not trust the program's own arithmetic.

Every check recomputes a property from the program's output with code of
its own: ball vertices, admissibility sums, closed forms in Fractions, and
fblab's tree evaluator expr.evaluate, which shares nothing with the max-min
form, the fans or the LPs.  No check compares against a stored copy of an
earlier output.  Each function returns a list of problems, empty when all
checks pass.  Failed operations (result None) are counted elsewhere and
not checked here.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

from fblab import ckretract, expr, fblnorm, plfan

from workloads import kspec

REL = 1e-9


def _rel_close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def ball_vertices(space, n):
    """+-e_i for the free lattice, all sign vectors for the l-infinity variant."""
    if space == "l1":
        return [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return list(itertools.product((1, -1), repeat=n))


def _admissible_sum(points, verts):
    return max((sum(abs(sum(a * b for a, b in zip(x, v))) for x in points) for v in verts),
               default=0.0)


def family_value(e, gens, points, times_abs=None):
    """sum_i |f(x_i)| by the tree evaluator, optionally times |x_a|."""
    total = 0.0
    for x in points:
        v = expr.evaluate(e, dict(zip(gens, (float(c) for c in x))))
        if times_abs is not None:
            v *= abs(float(x[gens.index(times_abs)]))
        total += abs(v)
    return total


def triangle_bound(e) -> float:
    """||f|| <= this, from |f v g|, |f ^ g|, |f + g| <= |f| + |g| and ||d(a)|| <= 1."""
    if isinstance(e, expr.Gen):
        return 1.0
    if isinstance(e, expr.Scale):
        return abs(e.factor) * triangle_bound(e.child)
    return triangle_bound(e.left) + triangle_bound(e.right)


def sampled_sup(e, gens, verts, rng, samples=200):
    """max |f(x)| / max_v |<x, v>|: single admissible points, sampled."""
    n = len(gens)
    pts = list(rng.uniform(-1.0, 1.0, (samples, n)))
    pts += [np.array(v, dtype=float) for v in itertools.product((1, 0, -1), repeat=n) if any(v)]
    best = 0.0
    for x in pts:
        scale = max(abs(float(np.dot(x, v))) for v in verts)
        best = max(best, abs(expr.evaluate(e, dict(zip(gens, x.tolist())))) / scale)
    return best


def _check_replay(label, res, problems):
    rep = res.get("replay")
    if rep is None:
        problems.append(f"{label}: certificate replay failed")
    elif not (rep["report"]["pass"] and rep["report"]["value_matches"]):
        problems.append(f"{label}: certificate does not replay: {rep['report']}")


def check_exact_norm(label, e, gens, space, upper, points, problems, rng):
    """Both sides of an exact norm claim, recomputed outside the program."""
    verts = ball_vertices(space, len(gens))
    if _admissible_sum(points, verts) > 1 + 1e-12:
        problems.append(f"{label}: certificate family is not admissible")
    value = family_value(e, gens, points)
    if value < upper - REL * abs(upper) or value > upper + REL * abs(upper) + 1e-300:
        problems.append(f"{label}: certificate value {value!r} does not reach upper {upper!r}")
    low = sampled_sup(e, gens, verts, rng)
    if low > upper * (1 + REL):
        problems.append(f"{label}: sampled sup {low!r} exceeds upper {upper!r}")
    if upper > triangle_bound(e) * (1 + REL):
        problems.append(f"{label}: upper {upper!r} exceeds the triangle bound")


def check_norm(items, results, seed):
    rng = np.random.default_rng([seed, 11])
    problems = []
    for item, res in zip(items, results):
        if res is None:
            continue
        label = f"norm {item.stratum} {item.text}"
        e = expr.parse_expr(item.text)
        upper = float(res["upper"])
        check_exact_norm(label, e, res["gens"], item.space, upper, res["points"], problems, rng)
        if item.known is not None and not _rel_close(upper, item.known):
            problems.append(f"{label}: norm {upper!r}, expected sum |lambda| = {item.known!r}")
        if item.exact:
            if not isinstance(res["upper"], Fraction):
                problems.append(f"{label}: rational route returned {type(res['upper']).__name__}")
            space = fblnorm.fbl_space(res["gens"])
            float_route = float(fblnorm.norm_of_expression(e, space).upper)
            if not _rel_close(upper, float_route):
                problems.append(f"{label}: rational {upper!r} vs float {float_route!r}")
        _check_replay(label, res, problems)
    return problems


def check_oracle(items, results, seed):
    rng = np.random.default_rng([seed, 12])
    problems = []
    for item, res in zip(items, results):
        if res is None:
            continue
        label = f"{item.kind} {item.text}"
        e = expr.parse_expr(item.text)
        gens = res["gens"]
        verts = ball_vertices("l1", len(gens))
        lower = res["lower"]
        if _admissible_sum(res["points"], verts) > 1 + 1e-12:
            problems.append(f"{label}: certificate family is not admissible")
        times_abs = item.gen if item.kind == "lemma34" else None
        value = family_value(e, gens, res["points"], times_abs)
        if not _rel_close(value, lower) and abs(value - lower) > 1e-15:
            problems.append(f"{label}: certificate value {value!r} != reported {lower!r}")
        if item.kind == "oracle":
            exact = float(fblnorm.norm_of_expression(e, fblnorm.fbl_space(gens)).upper)
            if not exact - 1e-3 <= lower <= exact + 1e-9:
                problems.append(f"{label}: bound {lower!r} outside [{exact!r} - 1e-3, + 1e-9]")
        else:
            sup = res["sup_norm"]
            if lower > sup + 1e-9 or not res["pass"]:
                problems.append(f"{label}: best lower {lower!r} above sup norm {sup!r}")
            cube = sampled_sup(e, gens, verts, rng)
            if cube > sup * (1 + REL) + 1e-15:
                problems.append(f"{label}: sampled cube sup {cube!r} above sup norm {sup!r}")
        _check_replay(label, res, problems)
    return problems


# ---------------------------------------------------------------------------
# sections: the closed form of Sh, in Fractions


def _nearest(K, c):
    best = None
    for a, b in K:
        p = min(max(c, a), b)
        if best is None or abs(c - p) < abs(c - best):
            best = p
    return best


def _ramp(K, c):
    """u(c): 1 on K, 0 at gap midpoints, slope 2 / (smallest gap) between."""
    gaps = [(b1, a2) for (_, b1), (a2, _) in zip(K, K[1:])]
    if not gaps:
        return Fraction(1)
    alpha = 2 / min(a2 - b1 for b1, a2 in gaps)
    return min(Fraction(1), alpha * min(abs(c - (b1 + a2) / 2) for b1, a2 in gaps))


def _interpolate(bps, x):
    for (p0, v0), (p1, v1) in zip(bps, bps[1:]):
        if p0 <= x <= p1:
            return v0 if x == p0 else v0 + (v1 - v0) * (x - p0) / (p1 - p0)
    return bps[0][1] if x <= bps[0][0] else bps[-1][1]


def section_closed_form(K, h_at, s, t):
    """h(phi(c)) * u(c) * |s| with c = clip(t/s, 0, 1); h_at evaluates h on K."""
    if s == 0:
        return Fraction(0)
    c = min(max(t / s, Fraction(0)), Fraction(1))
    return h_at(_nearest(K, c)) * _ramp(K, c) * abs(s)


def _sample_points(rng, count):
    out = []
    for _ in range(count):
        s = Fraction(int(rng.integers(1, 257)), 256) * (1 if rng.random() < 0.7 else -1)
        out.append((s, Fraction(int(rng.integers(-256, 257)), 256)))
    return out


def _check_closed_form(label, K, Sh, h_at, pts, problems):
    for s, t in pts:
        want = float(section_closed_form(K, h_at, s, t))
        got = float(plfan.pl_value(Sh, (float(s), float(t))))
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"{label}: Sh({s}, {t}) = {got!r}, closed form {want!r}")
            return


def check_sections(items, results, seed):
    rng = np.random.default_rng([seed, 13])
    problems = []
    for item, res in zip(items, results):
        if res is None:
            continue
        label = f"{item.kind} K={[(str(a), str(b)) for a, b in item.K]}"
        pts = _sample_points(rng, 200)
        if item.kind == "section":
            bps = item.targets[0]
            _check_closed_form(label, item.K, res["bundle"].Sh,
                               lambda x: _interpolate(bps, x), pts, problems)
            if not (res["section"]["pass"] and res["norm"]["pass"]):
                problems.append(f"{label}: verify_section or verify_norm_bound failed")
            h_sup = float(max(abs(v) for _, v in bps))
            if not _rel_close(res["norm"]["norm_upper"], h_sup):
                problems.append(f"{label}: ||Sh|| = {res['norm']['norm_upper']!r}, sup|h| = {h_sup!r}")
            _check_replay(label, res, problems)
        else:
            if not res["report"]["pass"]:
                problems.append(f"{label}: hom laws fail: {res['report']['pairs']}")
            K = kspec(item.K)
            h1, h2 = (ckretract.target_from_pairs(K, t) for t in item.targets)
            joined = ckretract.build_section(K, ckretract.target_join(h1, h2))
            b1, b2 = item.targets
            _check_closed_form(label + " join", item.K, joined.Sh,
                               lambda x: max(_interpolate(b1, x), _interpolate(b2, x)),
                               pts, problems)
    return problems


# ---------------------------------------------------------------------------
# cli: properties recomputed from each report


def _instance_value(instance, name, y):
    """f_n(y) for the built-in extraction families (see fblab.ellone)."""
    n = int(name[1:])
    value = float(y.get(name, 0.0))
    if instance == "perturbed":
        prefix = "s" + "_".join(str(i) for i in range(1, n + 1))
        value += 2.0 ** (-n) * float(y.get(prefix, 0.0))
    return value


def _check_cli_payload(label, sub, p, problems, rng):
    if sub == "norm":
        e = expr.parse_expr(p["expr"])
        check_exact_norm(label, e, p["generators"], p["space"], p["upper"],
                         p["certificate_points"], problems, rng)
    elif sub == "oracle":
        e = expr.parse_expr(p["expr"])
        verts = ball_vertices(p["space"], len(p["generators"]))
        if _admissible_sum(p["certificate_points"], verts) > 1 + 1e-12:
            problems.append(f"{label}: certificate family is not admissible")
        value = family_value(e, p["generators"], p["certificate_points"])
        if not _rel_close(value, p["lower"]) and abs(value - p["lower"]) > 1e-15:
            problems.append(f"{label}: certificate value {value!r} != lower {p['lower']!r}")
    elif sub == "lemma34-check":
        if not (p["pass"] and p["best_lower"] <= p["sup_norm"] + 1e-9):
            problems.append(f"{label}: best lower {p['best_lower']!r} above {p['sup_norm']!r}")
    elif sub == "phi-demo":
        gens, chi, N = p["generators"], p["chi_points"], p["N"]
        for n in range(1, N + 1):
            image = [chi[j][gens.index(f"s{n}")] for j in range(N)]
            unit = [1.0 if j == n - 1 else 0.0 for j in range(N)]
            if image != unit or p["singleton_images"][f"s{n}"] != unit:
                problems.append(f"{label}: image of d(s{n}) is not e_{n}")
    elif sub == "extract-l1":
        seen = set()
        for y in p["ys"]:
            if seen & set(y):
                problems.append(f"{label}: certificate supports overlap")
            seen |= set(y)
        names = [f"s{n}" for n in p["selected"]]
        for rep in p["verifications"]:
            lam = rep["lambdas"]
            value = sum(abs(sum(l * _instance_value(p["instance"], nm, y)
                                for l, nm in zip(lam, names))) for y in p["ys"])
            floor = (1 - p["eps"]) * sum(abs(l) for l in lam)
            if value < floor - 1e-9 or not _rel_close(value, rep["certified_value"]):
                problems.append(f"{label}: certified {value!r} below (1 - eps) sum |lambda| = {floor!r}")
        if p["exhausted"] or len(p["selected"]) != p["requested_length"]:
            problems.append(f"{label}: extraction exhausted")
    elif sub == "ck-section":
        h_sup = max(abs(float(Fraction(v))) for _, v in p["h_breakpoints"])
        nb = p["norm_bound"]
        if not (p["section_check"]["pass"] and nb["pass"]) or not _rel_close(nb["norm_upper"], h_sup):
            problems.append(f"{label}: section check failed or ||Sh|| != sup|h| = {h_sup!r}")
    elif sub == "replay-cert":
        if not (p["pass"] and p["value"] == p["recorded_value"]):
            problems.append(f"{label}: certificate does not replay")


def check_cli(items, results, seed):
    rng = np.random.default_rng([seed, 14])
    problems = []
    for cmd, res in zip(items, results):
        if res is None:
            continue
        label = "fblab " + " ".join(cmd.argv[:3])
        _check_cli_payload(label, cmd.argv[0], res["report"]["payload"], problems, rng)
    return problems


CHECKS = {
    "norm": check_norm,
    "oracle": check_oracle,
    "sections": check_sections,
    "cli": check_cli,
}


def same_outputs(first, later) -> bool:
    """Later rounds must reproduce the first round's outputs exactly."""
    def digests(results):
        out = []
        for r in results:
            if r is None:
                out.append(None)
                continue
            replay = r.get("replay")
            out.append(json.dumps([r["digest"], replay and replay["digest"]], default=str))
        return out
    return digests(first) == digests(later)
