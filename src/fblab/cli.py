"""Batch command-line front end.

Every workflow is a subcommand that prints one JSON RunReport to stdout and
a short human summary to stderr (suppressed by --json-only).  Reports are
deterministic: the payload depends only on argv (including --seed, which
only the randomized subcommands take), never on wall time, which is
reported outside the payload.

Exit codes: 0 on pass, 1 when a checked property fails, 2 on usage errors
and on any other error, which is reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import ckretract, ellone, fblnorm, homs, plfan
from .expr import ExprError, parse_expr, support, to_text

__all__ = ["run", "main"]

SCHEMA = 1


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _report(args, payload, started: float) -> dict:
    return {
        "schema": SCHEMA,
        "subcommand": args.cmd,
        "config": {
            k: _jsonable(v) for k, v in sorted(vars(args).items()) if k != "func"
        },
        "seed": getattr(args, "seed", None),
        "arithmetic": "rational" if getattr(args, "exact", False) else "float",
        "payload": _jsonable(payload),
        "wall_time_s": round(time.monotonic() - started, 6),
    }


def _emit(args, payload, started: float, ok: bool, summary: str) -> int:
    print(json.dumps(_report(args, payload, started), allow_nan=False))
    if not args.json_only:
        print(summary, file=sys.stderr)
    return 0 if ok else 1


def _space_for(name: str, gens):
    if name == "l1":
        return fblnorm.fbl_space(gens)
    if name == "linf":
        return fblnorm.linf_vertex_space(gens)
    raise ExprError(f"unknown space {name!r}")


def _write_cert_if_asked(args, space, config, claimed, mode, function_payload):
    if not getattr(args, "cert", None):
        return None
    cert = fblnorm.make_certificate(space, config, claimed, mode, function_payload)
    fblnorm.write_certificate(args.cert, cert)
    return args.cert


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_norm(args) -> int:
    started = time.monotonic()
    e = parse_expr(args.expr)
    gens = tuple(sorted(support(e)))
    space = _space_for(args.space, gens)
    bracket = fblnorm.norm_of_expression(e, space, exact=args.exact)
    try:
        upper, lower = float(bracket.upper), float(bracket.lower)
    except OverflowError:  # an exact norm that no float holds
        raise OverflowError(f"the norm is {fblnorm.FLOAT_RANGE}") from None
    cert_path = _write_cert_if_asked(
        args, space, bracket.certificate, upper, "exact", {"expr": to_text(e)},
    )
    ok = lower <= upper + 1e-9 * abs(upper)
    payload = {
        "expr": to_text(e),
        "generators": list(gens),
        "space": args.space,
        "value": upper,
        "lower": lower,
        "upper": upper,
        "exact_value": bracket.upper if args.exact else None,
        "certificate_points": [list(p) for p in bracket.certificate.points],
        "diagnostics": bracket.diagnostics,
        "certificate_path": cert_path,
    }
    return _emit(
        args, payload, started, ok,
        f"norm {to_text(e)} over {args.space}: {upper!r}",
    )


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    e = parse_expr(args.expr)
    gens = tuple(sorted(support(e)))
    space = _space_for(args.space, gens)
    F = fblnorm.expr_evaluator(e, gens)
    bracket = fblnorm.oracle_lower_bound(
        F, space, budget=args.budget, seed=args.seed
    )
    cert_path = _write_cert_if_asked(
        args, space, bracket.certificate, bracket.lower, "lower",
        {"expr": to_text(e)},
    )
    payload = {
        "expr": to_text(e),
        "generators": list(gens),
        "space": args.space,
        "lower": bracket.lower,
        "upper": "inf",
        "diagnostics": bracket.diagnostics,
        "certificate_points": [list(p) for p in bracket.certificate.points],
        "certificate_path": cert_path,
    }
    return _emit(
        args, payload, started, True,
        f"oracle lower bound for {to_text(e)}: {bracket.lower!r} "
        f"({bracket.diagnostics['evaluations']} evaluations)",
    )


def _cmd_lemma34(args) -> int:
    started = time.monotonic()
    e = parse_expr(args.expr)
    rep = fblnorm.check_lemma34(e, args.gen, budget=args.budget, seed=args.seed)
    payload = {
        "expr": to_text(e),
        "generator": args.gen,
        "sup_norm": rep["sup_norm"],
        "best_lower": rep["best_lower"],
        "margin": rep["margin"],
        "pass": rep["pass"],
        "certificate_points": [list(p) for p in rep["certificate"].points],
    }
    verdict = "pass" if rep["pass"] else "FAIL"
    return _emit(
        args, payload, started, rep["pass"],
        f"product bound {to_text(e)} * |d({args.gen})|: best lower "
        f"{rep['best_lower']!r} vs sup {rep['sup_norm']!r} -> {verdict}",
    )


# phi-demo's hom-law pairs: {top} is the subset {1..N}, which is a
# non-singleton generator from N = 2 on, and {last} is the singleton {N}
PHI_LAW_PAIRS = (
    ("d(s1)", "d({top})"),
    ("d(s1) - 0.5*d({top})", "-d({last})"),
    ("|d({top}) - 2*d({last})|", "d({last}) ^ -3*d(s1)"),
)


def _cmd_phi_demo(args) -> int:
    started = time.monotonic()
    inst = homs.build_phi(args.n)
    images = {}
    basis_ok = True
    for n in range(1, args.n + 1):
        name = f"s{n}"
        img = homs.apply_hom(inst.hom, parse_expr(f"d({name})"))
        images[name] = list(img)
        want = [1.0 if j == n else 0.0 for j in range(1, args.n + 1)]
        basis_ok = basis_ok and list(img) == want
    names = {"top": inst.generators[-1], "last": f"s{args.n}"}
    pairs = [tuple(parse_expr(t.format(**names)) for t in pair)
             for pair in PHI_LAW_PAIRS]
    laws = homs.check_hom_laws(inst.hom, pairs)
    verdicts = {law: not failed for law, failed in laws["failures"].items()}
    payload = {
        "N": args.n,
        "subsets": [list(a) for a in inst.subsets],
        "generators": list(inst.generators),
        "chi_points": [list(p) for p in inst.chi_points],
        "singleton_images": images,
        "basis_lift_exact": basis_ok,
        "hom_laws": {
            **laws,
            "pairs": [[to_text(e), to_text(g)] for e, g in pairs],
            "verdicts": verdicts,
        },
    }
    if not args.json_only:
        for g, a in zip(inst.generators, inst.subsets):
            print(f"  {g:>12}  A={set(a)}", file=sys.stderr)
        for n in range(1, args.n + 1):
            print(f"  chi_{n} = {inst.chi_points[n - 1]}", file=sys.stderr)
    law_text = ", ".join(f"{law} {'pass' if ok else 'FAIL'}"
                         for law, ok in verdicts.items())
    return _emit(
        args, payload, started, basis_ok and laws["pass"],
        f"subset family at N={args.n}: {len(inst.generators)} generators, "
        f"basis lift {'exact' if basis_ok else 'FAILED'}, "
        f"hom laws on {len(pairs)} pairs: {law_text}",
    )


def _cmd_extract(args) -> int:
    started = time.monotonic()
    if args.instance == "disjoint":
        inp = ellone.build_disjoint_instance(args.n)
    else:
        inp = ellone.build_perturbed_instance(args.n)
    res = ellone.extract(inp, ellone.EpsilonSchedule(args.eps), length=args.len)
    rng = np.random.default_rng(args.seed)
    checks = []
    for _ in range(5):
        lambdas = [float(v) for v in rng.uniform(-2.0, 2.0, len(res.selected))]
        checks.append(ellone.verify_lower_bound(res, inp.fs, lambdas))
    failed = sum(not rep["pass"] for rep in checks)
    payload = {
        "instance": args.instance,
        "selected": list(res.selected),
        "nu": list(res.nu),
        "stage_indices": list(res.stage_indices),
        "F_sets": [list(F) for F in res.F_sets],
        "ys": [dict(y) for y in res.ys],
        "f_at_y": list(res.f_at_y),
        "eps": res.eps,
        "requested_length": res.requested_length,
        "exhausted": res.exhausted,
        "exhaustion_note": res.exhaustion_note,
        "transcript": res.transcript,
        "verifications": checks,
    }
    got = len(res.selected)
    verdict = (f"{failed}/{len(checks)} lower-bound checks FAIL" if failed
               else "all lower-bound checks pass")
    if res.exhausted:
        verdict = f"EXHAUSTED: {res.exhaustion_note}; {verdict}"
    return _emit(
        args, payload, started, not (res.exhausted or failed),
        f"extracted {got}/{args.len} terms from the {args.instance} family: "
        f"indices {list(res.selected)}; {verdict}",
    )


def _parse_kspec(text: str) -> ckretract.KSpec:
    if text == "interval":
        return ckretract.interval01()
    if text == "twopoints":
        return ckretract.two_points()
    if text.startswith("union:"):
        parts = text[len("union:"):].split(";")
        return ckretract.union_of_intervals([_fractions(p, ",", "interval") for p in parts])
    raise ExprError(f"unknown K spec {text!r}")


def _parse_target(K, text: str) -> ckretract.TargetFunction:
    pairs = [_fractions(p, ":", "breakpoint") for p in text.split(",")]
    return ckretract.target_from_pairs(K, pairs)


def _fractions(entry: str, sep: str, what: str) -> tuple:
    """The two fractions of 'x<sep>y'; a malformed entry raises CKError
    naming it."""
    try:
        a, b = entry.split(sep)
        return Fraction(a), Fraction(b)
    except (ValueError, ZeroDivisionError):
        raise ckretract.CKError(f"{what} {entry!r} is not two fractions x{sep}y") from None


def _cmd_ck_section(args) -> int:
    started = time.monotonic()
    K = _parse_kspec(args.k)
    h = _parse_target(K, args.h)
    bundle = ckretract.build_section(K, h)
    sec = ckretract.verify_section(bundle)
    nb = ckretract.verify_norm_bound(bundle)
    bracket = nb.pop("bracket")
    cert_path = _write_cert_if_asked(
        args,
        fblnorm.fbl_space(bundle.generators),
        bracket.certificate,
        float(bracket.upper),
        "exact",
        {"plfunction": plfan.plfunction_to_json(bundle.Sh)},
    )
    ok = sec["pass"] and nb["pass"]
    payload = {
        "K": {"kind": K.kind, "intervals": [[a, b] for a, b in K.intervals]},
        "h_breakpoints": [[p, v] for p, v in h.breakpoints],
        "h_sup": float(bundle.h_sup),
        "slice_table": [[c, v] for c, v in bundle.table],
        "cells": len(bundle.Sh.fan.cells),
        "section_check": sec,
        "norm_bound": nb,
        "certificate_path": cert_path,
    }
    return _emit(
        args, payload, started, ok,
        f"section over {K.kind}: identity worst dev {sec['worst_deviation']:.2e}, "
        f"norm {nb['norm_upper']!r} <= sup|h| {nb['h_sup']!r} "
        f"-> {'pass' if ok else 'FAIL'}",
    )


def _cmd_replay(args) -> int:
    started = time.monotonic()
    cert = fblnorm.load_certificate(args.file)
    rep = fblnorm.replay_certificate(cert)
    return _emit(
        args, rep, started, rep["pass"],
        f"replay {args.file}: value {rep['value']!r} "
        f"{'==' if rep['value_matches'] else '!='} recorded, "
        f"admissible={rep['admissible']} -> {'pass' if rep['pass'] else 'FAIL'}",
    )


# ---------------------------------------------------------------------------
# parser assembly


def _budget(text: str) -> int:
    """An evaluation budget: at least one, else a check passes vacuously."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, budget_default=None, seeded=False):
    if seeded:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-only", action="store_true", dest="json_only")
    if budget_default is not None:
        p.add_argument("--budget", type=_budget, default=budget_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fblab",
        description="free-lattice norm workbench: exact and oracle norms, "
        "subsequence extraction, subset homomorphisms, interval sections",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("norm", help="exact norm of a lattice expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--space", choices=("l1", "linf"), default="l1")
    p.add_argument("--cert", default=None, help="write certificate JSON here")
    p.add_argument("--exact", action="store_true",
                   help="rational arithmetic throughout")
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("oracle", help="randomized lower bound for a norm")
    p.add_argument("--expr", required=True)
    p.add_argument("--space", choices=("l1", "linf"), default="l1")
    p.add_argument("--cert", default=None)
    _add_common(p, budget_default=10_000, seeded=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "lemma34-check",
        help="product-with-coordinate norm never exceeds the sup norm",
    )
    p.add_argument("--expr", required=True)
    p.add_argument("--gen", required=True)
    _add_common(p, budget_default=4000, seeded=True)
    p.set_defaults(func=_cmd_lemma34)

    p = sub.add_parser("phi-demo", help="subset-family homomorphism demo")
    p.add_argument("--n", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_phi_demo)

    p = sub.add_parser("extract-l1", help="disjoint-certificate extraction")
    p.add_argument("--instance", choices=("disjoint", "perturbed"),
                   default="disjoint")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--len", type=int, default=4)
    _add_common(p, seeded=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("ck-section", help="build and verify an interval section")
    p.add_argument("--k", required=True,
                   help="interval | twopoints | union:a1,b1;a2,b2")
    p.add_argument("--h", required=True, help="breakpoints as c:v,c:v,...")
    p.add_argument("--cert", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_ck_section)

    p = sub.add_parser("replay-cert", help="re-check a certificate file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_replay)

    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, plfan.FanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
