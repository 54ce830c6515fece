"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test computes one criterion, records a one-line verdict on the shared
log (the terminal summary hook prints them after the run), then asserts.
Certificates written along the way are replayed wholesale by criterion 8.
"""

import functools
import json
import time
from fractions import Fraction

import numpy as np

from fblab import cli, ckretract, ellone, fblnorm, homs, plfan
from fblab.expr import Gen, Scale, Sum, parse_expr, to_text

from exprgen import random_expr_capped, random_rational_expr


def linear_expr(lambdas, gens):
    terms = [Scale(float(l), Gen(g)) for l, g in zip(lambdas, gens)]
    return functools.reduce(Sum, terms)


def stash(cert_store, criterion, space, config, claimed, mode, payload):
    n = cert_store["counter"][0]
    cert_store["counter"][0] += 1
    path = cert_store["dir"] / f"crit{criterion}-{n:03d}.cert.json"
    cert = fblnorm.make_certificate(space, config, claimed, mode, payload)
    fblnorm.write_certificate(path, cert)
    cert_store["files"].append((criterion, str(path)))


# ---------------------------------------------------------------------------
# 1. generator combinations have the l1 norm


def test_criterion_1_generator_l1_isometry(acceptance_log, cert_store):
    rng = np.random.default_rng(101)
    names = ("a", "b", "c", "e")
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(1, 5))
        gens = names[:n]
        lam = [float(v) for v in rng.uniform(-3.0, 3.0, n)]
        e = linear_expr(lam, gens)
        space = fblnorm.fbl_space(gens)
        br = fblnorm.norm_of_expression(e, space)
        dev = abs(float(br.upper) - sum(abs(v) for v in lam))
        worst = max(worst, dev)
        if i < 10:
            stash(cert_store, 1, space, br.certificate, float(br.upper),
                  "exact", {"expr": to_text(e)})
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-9 and elapsed < 10.0
    acceptance_log.record(
        1, "generator-l1-isometry", passed,
        f"50 random combinations over 1..4 generators, "
        f"worst |norm - sum|lambda|| = {worst:.2e}", elapsed,
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. the randomized oracle brackets the exact norm


def test_criterion_2_oracle_exact_agreement(acceptance_log, cert_store):
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    bad = []
    worst_gap = 0.0
    for i in range(50):
        k = int(rng.integers(1, 4))
        gens = ("a", "b", "c")[:k]
        e = random_expr_capped(rng, gens, depth=int(rng.integers(2, 5)),
                               max_size=40)
        space = fblnorm.fbl_space(gens)
        br = fblnorm.norm_of_expression(e, space)
        exact = float(br.upper)
        F = fblnorm.expr_evaluator(e, gens)
        orc = fblnorm.oracle_lower_bound(
            F, space, budget=20_000, seed=int(rng.integers(1 << 30))
        )
        worst_gap = max(worst_gap, exact - orc.lower)
        if not (exact - 1e-3 <= orc.lower <= exact + 1e-9):
            bad.append((to_text(e), exact, orc.lower))
        if i < 8:
            stash(cert_store, 2, space, br.certificate, exact, "exact",
                  {"expr": to_text(e)})
        elif i < 12:
            stash(cert_store, 2, space, orc.certificate, orc.lower, "lower",
                  {"expr": to_text(e)})
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 120.0
    acceptance_log.record(
        2, "oracle-exact-agreement", passed,
        f"50 expressions at budget 20000, worst exact-oracle gap "
        f"{worst_gap:.2e}, {len(bad)} outside [exact-1e-3, exact+1e-9]",
        elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. products with a coordinate absolute value stay under the sup norm


def test_criterion_3_product_bound_suite(acceptance_log, cert_store):
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    bad = []
    worst_margin = -float("inf")
    for i in range(100):
        k = int(rng.integers(1, 4))
        gens = ("a", "b", "c")[:k]
        e = random_expr_capped(rng, gens, depth=3, max_size=24)
        a = gens[int(rng.integers(0, k))]
        space = fblnorm.fbl_space(gens)
        rep = fblnorm.check_lemma34(
            e, a, space=space, budget=4000, seed=int(rng.integers(1 << 30))
        )
        excess = rep["best_lower"] - rep["sup_norm"]
        worst_margin = max(worst_margin, excess)
        if rep["best_lower"] > rep["sup_norm"] + 1e-9:
            bad.append((to_text(e), a, rep["best_lower"], rep["sup_norm"]))
        if i < 10:
            stash(cert_store, 3, space, rep["certificate"],
                  rep["best_lower"], "lower",
                  {"expr": to_text(e), "times_abs": a})
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 120.0
    acceptance_log.record(
        3, "product-sup-bound", passed,
        f"100 (f, a) pairs, worst lower-minus-sup = {worst_margin:+.2e}, "
        f"{len(bad)} violations", elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. the subset-family homomorphism lifts the basis exactly


def test_criterion_4_basis_lift(acceptance_log):
    t0 = time.monotonic()
    bad = []
    for N in range(1, 9):
        inst = homs.build_phi(N)
        for n in range(1, N + 1):
            img = list(homs.apply_hom(inst.hom, parse_expr(f"d(s{n})")))
            want = [1.0 if j == n else 0.0 for j in range(1, N + 1)]
            if img != want or not all(float(v).is_integer() for v in img):
                bad.append((N, n, img))
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 1.0
    acceptance_log.record(
        4, "subset-basis-lift", passed,
        f"all singleton images over N = 1..8 equal the truncated basis "
        f"vectors exactly, {len(bad)} mismatches", elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 5. extraction certifies (1 - eps) of the l1 mass


def test_criterion_5_extraction_lower_bounds(acceptance_log, cert_store):
    rng = np.random.default_rng(505)
    t0 = time.monotonic()
    bad = []
    combos = (
        ("disjoint", ellone.build_disjoint_instance, 8, 4),
        ("perturbed", ellone.build_perturbed_instance, 6, 3),
    )
    for label, build, N, length in combos:
        for eps in (0.05, 0.1, 0.2):
            inp = build(N)
            res = ellone.extract(inp, ellone.EpsilonSchedule(eps), length=length)
            if res.exhausted:
                bad.append((label, eps, "exhausted"))
                continue
            seen = set()
            disjoint = True
            for y in res.ys:
                sup = set(y)
                disjoint = disjoint and not (sup & seen)
                seen |= sup
            rows = tuple(
                tuple(float(y.get(g, 0.0)) for g in inp.L) for y in res.ys
            )
            adm = fblnorm.admissible(
                fblnorm.DualConfig(rows), fblnorm.fbl_space(inp.L), tol=0.0
            )
            if not (disjoint and adm.ok):
                bad.append((label, eps, "family", disjoint, adm.ok))
            for _ in range(100):
                lam = [float(v) for v in rng.uniform(-2.0, 2.0, length)]
                rep = ellone.verify_lower_bound(res, inp.fs, lam)
                floor = (1.0 - eps) * sum(abs(v) for v in lam) - 1e-9
                if not (rep["pass"] and rep["certified_value"] >= floor):
                    bad.append((label, eps, lam, rep["certified_value"]))
            names = [f"s{n}" for n in res.selected]
            gens = tuple(sorted(set(names).union(*[set(y) for y in res.ys])))
            e = linear_expr([(-1.0) ** j for j in range(length)], names)
            config = fblnorm.DualConfig(
                tuple(tuple(float(y.get(g, 0.0)) for g in gens)
                      for y in res.ys)
            )
            value = fblnorm.config_value(
                fblnorm.expr_evaluator(parse_expr(to_text(e)), gens), config
            )
            stash(cert_store, 5, fblnorm.fbl_space(gens), config, value,
                  "lower", {"expr": to_text(e)})
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 30.0
    acceptance_log.record(
        5, "l1-extraction-bound", passed,
        f"2 families x eps in {{0.05, 0.1, 0.2}} x 100 lambdas, "
        f"{len(bad)} failures", elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. interval sections: identity, norm bound, join commutation


def _random_target(K, rng, max_interior):
    if K.kind == "two_points":
        pts = [Fraction(0), Fraction(1)]
    else:
        interior = sorted(set(int(v) for v in
                              rng.integers(1, 16, max_interior)))
        pts = [Fraction(0)] + [Fraction(k, 16) for k in interior] + [Fraction(1)]
    vals = [Fraction(int(rng.integers(-8, 9)), 4) for _ in pts]
    return ckretract.target_from_pairs(K, list(zip(pts, vals)))


def test_criterion_6_section_suite(acceptance_log, cert_store):
    rng = np.random.default_rng(606)
    t0 = time.monotonic()
    bad = []
    worst_identity = 0.0
    for K in (ckretract.interval01(), ckretract.two_points()):
        for i in range(20):
            h = _random_target(K, rng, max_interior=2)
            b = ckretract.build_section(K, h)
            sec = ckretract.verify_section(b)
            nb = ckretract.verify_norm_bound(b)
            worst_identity = max(worst_identity, sec["worst_deviation"])
            if not sec["pass"] or sec["worst_deviation"] > 1e-12:
                bad.append((K.kind, i, "identity", sec["worst_deviation"]))
            if not nb["pass"]:
                bad.append((K.kind, i, "norm", nb["norm_upper"], nb["h_sup"]))
            if i < 4:
                bracket = nb["bracket"]
                stash(cert_store, 6, fblnorm.fbl_space(b.generators),
                      bracket.certificate, float(bracket.upper), "exact",
                      {"plfunction": plfan.plfunction_to_json(b.Sh)})
        pairs = [(_random_target(K, rng, 1), _random_target(K, rng, 1))
                 for _ in range(10)]
        laws = ckretract.verify_hom_laws(K, pairs)
        if not laws["pass"]:
            bad.append((K.kind, "join-commutation", laws["pairs"]))
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 60.0
    acceptance_log.record(
        6, "interval-sections", passed,
        f"20 targets per K with identity dev <= {worst_identity:.2e}, "
        f"norm <= sup|h|, and 10 join pairs per K, {len(bad)} failures",
        elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. sections are homogeneous and small near s = 0


def test_criterion_7_section_homogeneity(acceptance_log):
    rng = np.random.default_rng(707)
    t0 = time.monotonic()
    bad = []
    for K in (ckretract.interval01(), ckretract.two_points()):
        for _ in range(3):
            h = _random_target(K, rng, max_interior=2)
            b = ckretract.build_section(K, h)
            hs = float(ckretract.sup_norm(h))
            for _ in range(1000):
                x = rng.uniform(-2.0, 2.0, 2)
                lam = float(rng.uniform(0.0, 1.0))
                vx = plfan.pl_value(b.Sh, tuple(x))
                vlx = plfan.pl_value(b.Sh, tuple(lam * x))
                if abs(vx) > hs * abs(float(x[0])) + 1e-12:
                    bad.append((K.kind, "growth", tuple(x), vx))
                if abs(vlx - lam * vx) > 1e-12:
                    bad.append((K.kind, "homogeneity", tuple(x), lam))
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 10.0
    acceptance_log.record(
        7, "section-homogeneity", passed,
        f"|Sh| <= sup|h|*|s| and Sh(lam*x) = lam*Sh(x) on 1000 samples "
        f"per target, {len(bad)} failures", elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 8. every certificate replays bit for bit


def test_criterion_8_certificate_replay(acceptance_log, cert_store, capsys):
    t0 = time.monotonic()
    files = cert_store["files"]
    covered = {c for c, _ in files}
    bad = []
    if not covered >= {1, 2, 3, 5, 6}:
        bad.append(("coverage", sorted(covered)))
    for criterion, path in files:
        code = cli.run(["replay-cert", path, "--json-only"])
        out = capsys.readouterr().out
        rep = json.loads(out) if out.strip() else None
        if code != 0 or rep is None:
            bad.append((criterion, path, "exit", code))
            continue
        p = rep["payload"]
        if not (p["pass"] and p["value"] == p["recorded_value"]):
            bad.append((criterion, path, p["value"], p["recorded_value"]))
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 10.0
    acceptance_log.record(
        8, "certificate-replay", passed,
        f"{len(files)} certificates from criteria "
        f"{sorted(covered)} replayed bit-identically, {len(bad)} failures",
        elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 9. rational arithmetic referees the float route


def test_criterion_9_exact_mode_referee(acceptance_log):
    rng = np.random.default_rng(909)
    gens = ("a", "b")
    space = fblnorm.fbl_space(gens)
    t0 = time.monotonic()
    bad = []
    worst = 0.0
    for _ in range(10):
        e = random_rational_expr(rng, gens)
        br_f = fblnorm.norm_of_expression(e, space)
        br_q = fblnorm.norm_of_expression(e, space, exact=True)
        dev = abs(float(br_q.upper) - float(br_f.upper))
        worst = max(worst, dev)
        if dev > 1e-9:
            bad.append((to_text(e), float(br_f.upper), br_q.upper))
    elapsed = time.monotonic() - t0
    passed = not bad and elapsed < 60.0
    acceptance_log.record(
        9, "exact-mode-referee", passed,
        f"10 rational expressions, worst |rational - float| = {worst:.2e}",
        elapsed,
    )
    assert not bad, bad[:3]
    assert elapsed < 60.0
