"""One round of each workload, as calls into fblab's public functions.

A round runs every input of the workload once, then replays every
certificate the round wrote.  Each operation goes through ctx.call, which
times it from outside and counts it as attempted or failed.  The program
is reached through module attributes at call time, so a traced round sees
the wrappers spans.Tracer installs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from fblab import ckretract, expr, fblnorm, plfan

import inputs

HERE = Path(__file__).resolve().parent
CONSOLE_SCRIPT = "import sys; from fblab.cli import main; sys.argv[0] = 'fblab'; main()"


def space_for(name, gens):
    return fblnorm.fbl_space(gens) if name == "l1" else fblnorm.linf_vertex_space(gens)


def kspec(K):
    if K == inputs.INTERVAL:
        return ckretract.interval01()
    if K == inputs.TWO_POINTS:
        return ckretract.two_points()
    return ckretract.union_of_intervals(K)


def _replay(path):
    rep = fblnorm.replay_certificate(fblnorm.load_certificate(path))
    return {"report": rep, "digest": (rep["pass"], rep["value"])}


def _replay_all(ctx, results):
    for res in results:
        if res is not None and "cert" in res:
            res["replay"] = ctx.call("replay", lambda p=res["cert"]: _replay(p))


# ---------------------------------------------------------------------------
# norm: exact norms with certificates, as `fblab norm --cert` computes them


def _norm(item, path):
    e = expr.parse_expr(item.text)
    gens = tuple(sorted(expr.support(e)))
    space = space_for(item.space, gens)
    m = expr.to_maxmin(e)
    f = plfan.pl_from_maxmin(m, gens, exact=item.exact)
    br = fblnorm.exact_fbl_norm(f, space, exact=item.exact)
    cert = fblnorm.make_certificate(space, br.certificate, float(br.upper), "exact",
                                    {"expr": expr.to_text(e)})
    fblnorm.write_certificate(path, cert)
    return {"gens": gens, "upper": br.upper, "points": br.certificate.points,
            "cert": path, "digest": (float(br.upper), float(br.lower))}


def norm_round(items, ctx):
    results = [ctx.call("main", lambda it=it, i=i: _norm(it, ctx.outdir / f"norm-{i:02d}.cert.json"))
               for i, it in enumerate(items)]
    _replay_all(ctx, results)
    return results


# ---------------------------------------------------------------------------
# oracle: randomized lower bounds and product-bound checks


def _oracle(item, path):
    e = expr.parse_expr(item.text)
    gens = tuple(sorted(expr.support(e)))
    space = fblnorm.fbl_space(gens)
    text = expr.to_text(e)
    if item.kind == "oracle":
        F = fblnorm.expr_evaluator(e, gens)
        br = fblnorm.oracle_lower_bound(F, space, budget=item.budget, seed=item.seed)
        lower, config, payload = br.lower, br.certificate, {"expr": text}
        out = {"lower": lower}
    else:
        rep = fblnorm.check_lemma34(e, item.gen, space=space, budget=item.budget, seed=item.seed)
        lower, config = rep["best_lower"], rep["certificate"]
        payload = {"expr": text, "times_abs": item.gen}
        out = {"lower": lower, "sup_norm": rep["sup_norm"], "pass": rep["pass"]}
    cert = fblnorm.make_certificate(space, config, lower, "lower", payload)
    fblnorm.write_certificate(path, cert)
    out.update(gens=gens, points=config.points, cert=path, digest=(lower,))
    return out


def oracle_round(items, ctx):
    results = [ctx.call("main", lambda it=it, i=i: _oracle(it, ctx.outdir / f"oracle-{i:02d}.cert.json"))
               for i, it in enumerate(items)]
    _replay_all(ctx, results)
    return results


# ---------------------------------------------------------------------------
# sections: build and verify sections, then the hom-law pairs


def _section(item, path):
    K = kspec(item.K)
    h = ckretract.target_from_pairs(K, item.targets[0])
    b = ckretract.build_section(K, h)
    sec = ckretract.verify_section(b)
    nb = ckretract.verify_norm_bound(b)
    br = nb["bracket"]
    cert = fblnorm.make_certificate(fblnorm.fbl_space(b.generators), br.certificate,
                                    float(br.upper), "exact",
                                    {"plfunction": plfan.plfunction_to_json(b.Sh)})
    fblnorm.write_certificate(path, cert)
    return {"bundle": b, "section": sec, "norm": nb, "cert": path,
            "digest": (nb["norm_upper"], sec["worst_deviation"])}


def _hom_pair(item):
    K = kspec(item.K)
    h1, h2 = (ckretract.target_from_pairs(K, t) for t in item.targets)
    rep = ckretract.verify_hom_laws(K, [(h1, h2)], samples=2000)
    return {"report": rep, "digest": json.dumps(rep["pairs"])}


def sections_round(items, ctx):
    results = []
    for i, it in enumerate(items):
        if it.kind == "section":
            path = ctx.outdir / f"section-{i:02d}.cert.json"
            results.append(ctx.call("main", lambda it=it, p=path: _section(it, p)))
        else:
            results.append(ctx.call("main", lambda it=it: _hom_pair(it)))
    _replay_all(ctx, results)
    return results


# ---------------------------------------------------------------------------
# cli: every subcommand as a child process, one at a time


def spawn(argv, outdir: Path):
    """Run a child to completion; returns (exit code, stdout, stderr, max RSS in KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p)
    out_path, err_path = outdir / "child.out", outdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


def _command(cmd, ctx):
    if ctx.tracer is None:
        argv = [sys.executable, "-c", CONSOLE_SCRIPT, *cmd.argv]
    else:
        trace_path = ctx.outdir / "child.trace.json"
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *cmd.argv]
    code, out, err, rss_kib = spawn(argv, ctx.outdir)
    ctx.child_rss_kib = max(ctx.child_rss_kib, rss_kib)
    if ctx.tracer is not None:
        child = json.loads(trace_path.read_text())
        ctx.tracer.absorb(child["spans"], child["counts"])
    if code != 0:
        raise RuntimeError(f"fblab {cmd.argv[0]} exited {code}: {err.strip()[-300:]}")
    report = json.loads(out.strip().splitlines()[-1])
    return {"argv": cmd.argv, "report": report,
            "digest": json.dumps(report["payload"], sort_keys=True)}


def cli_round(items, ctx):
    return [ctx.call(cmd.kind, lambda cmd=cmd: _command(cmd, ctx)) for cmd in items]


ROUNDS = {
    "norm": norm_round,
    "oracle": oracle_round,
    "sections": sections_round,
    "cli": cli_round,
}
