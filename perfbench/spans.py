"""Spans and counts around fblab's public functions, from outside the program.

Tracer.install() replaces each traced function, in every loaded fblab
module that refers to it, with a wrapper that records a span (name, start,
end, parent span) and adds counts read from the call's arguments and
result.  uninstall() puts the originals back.  Spans stay in memory; the
benchmark writes them out when the run ends.  Nothing under src/ changes.

A span's self time is its duration minus the durations of its direct
children, so time inside a traced callee is charged to the callee.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _lp_span(args, kwargs):
    exact = kwargs.get("exact", args[7] if len(args) > 7 else False)
    return "lp.rational" if exact else "lp.float"


def _count_lp(counts, res, args, kwargs, parent):
    c = args[0]
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else ())
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else ())
    bounds = kwargs.get("bounds", args[5] if len(args) > 5 else None) or ()
    rows = len(a_ub) + len(a_eq) + sum(lo is not None and hi is not None for lo, hi in bounds)
    counts["lp.solve_lp.calls"] += 1
    counts["lp.pivots"] += res.iterations
    counts["lp.tableau_entries"] += (rows + 1) * (len(c) + rows + 1)
    if parent == "plfan.arrangement_fan":
        counts["plfan.witness_lps"] += 1
    elif parent == "plfan.sup_norm_on_cube":
        counts["plfan.sup_lps"] += 1
    elif parent == "fblnorm.exact_fbl_norm":
        counts["fblnorm.norm_lp_pivots"] += res.iterations


def _count_calls(key):
    def count(counts, res, args, kwargs, parent):
        counts[key] += 1
    return count


def _count_maxmin(counts, res, args, kwargs, parent):
    counts["expr.to_maxmin.calls"] += 1
    counts["expr.maxmin_functionals"] += res.size


def _count_fan(counts, fan, args, kwargs, parent):
    counts["plfan.arrangement_fan.calls"] += 1
    counts["plfan.hyperplanes"] += len(fan.hyperplanes)
    counts["plfan.cells"] += len(fan.cells)


def _count_points(counts, res, args, kwargs, parent):
    counts["plfan.pl_value_many.points"] += len(res)


def _count_norm(counts, bracket, args, kwargs, parent):
    counts["fblnorm.candidate_rays"] += bracket.diagnostics["candidate_rays"]
    counts["fblnorm.rays_used"] += len(bracket.certificate.points)


def _count_oracle(counts, bracket, args, kwargs, parent):
    counts["fblnorm.oracle.evals"] += bracket.diagnostics["evaluations"]
    counts["fblnorm.oracle.restarts"] += bracket.diagnostics["restarts"]


def _count_stages(counts, res, args, kwargs, parent):
    counts["ellone.stages"] += len(res.stage_indices)


# (module, function, span name or function of the call, count or None)
TARGETS = (
    ("fblab.expr", "parse_expr", "expr.parse_expr", None),
    ("fblab.expr", "to_maxmin", "expr.to_maxmin", _count_maxmin),
    ("fblab.lp", "solve_lp", _lp_span, _count_lp),
    ("fblab.plfan", "arrangement_fan", "plfan.arrangement_fan", _count_fan),
    ("fblab.plfan", "pl_from_maxmin", "plfan.pl_from_maxmin", None),
    ("fblab.plfan", "sup_norm_on_cube", "plfan.sup_norm_on_cube", None),
    ("fblab.plfan", "pl_value", "plfan.pl_value", _count_calls("plfan.pl_value.calls")),
    ("fblab.plfan", "pl_value_many", "plfan.pl_value_many", _count_points),
    ("fblab.plfan", "pl_equal", "plfan.pl_equal", None),
    ("fblab.plfan", "pl_pointwise_max", "plfan.pl_pointwise_max", None),
    ("fblab.plfan", "pl_lincomb", "plfan.pl_lincomb", None),
    ("fblab.fblnorm", "exact_fbl_norm", "fblnorm.exact_fbl_norm", _count_norm),
    ("fblab.fblnorm", "oracle_lower_bound", "fblnorm.oracle", _count_oracle),
    ("fblab.fblnorm", "make_certificate", "fblnorm.make_certificate", None),
    ("fblab.fblnorm", "replay_certificate", "fblnorm.replay_certificate", None),
    ("fblab.ckretract", "build_section", "ckretract.build_section", None),
    ("fblab.ckretract", "verify_section", "ckretract.verify_section", None),
    ("fblab.ckretract", "verify_norm_bound", "ckretract.verify_norm_bound", None),
    ("fblab.ckretract", "verify_hom_laws", "ckretract.verify_hom_laws", None),
    ("fblab.homs", "build_phi", "homs.build_phi", None),
    ("fblab.homs", "apply_hom", "homs.apply_hom", _count_calls("homs.apply_hom.calls")),
    ("fblab.ellone", "extract", "ellone.extract", _count_stages),
    ("fblab.cli", "run", "cli.run", None),
)

# Per-layer metrics: (name, unit).  Counts and seconds are per traced round.
LAYER_METRICS = (
    ("expr.to_maxmin.calls", "count"),
    ("expr.to_maxmin.s", "s"),
    ("expr.maxmin_functionals", "count"),
    ("expr.parse_expr.s", "s"),
    ("plfan.arrangement_fan.calls", "count"),
    ("plfan.arrangement_fan.s", "s"),
    ("plfan.hyperplanes", "count"),
    ("plfan.cells", "count"),
    ("plfan.witness_lps", "count"),
    ("plfan.witness_yield", "ratio"),
    ("plfan.pl_from_maxmin.s", "s"),
    ("plfan.sup_norm_on_cube.s", "s"),
    ("plfan.sup_lps", "count"),
    ("plfan.pl_value.calls", "count"),
    ("plfan.pl_value.s", "s"),
    ("plfan.pl_value_many.points", "count"),
    ("plfan.pl_value_many.s", "s"),
    ("plfan.pl_equal.s", "s"),
    ("plfan.pl_pointwise_max.s", "s"),
    ("plfan.pl_lincomb.s", "s"),
    ("lp.solve_lp.calls", "count"),
    ("lp.float.s", "s"),
    ("lp.rational.s", "s"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_call", "ratio"),
    ("lp.tableau_entries", "count"),
    ("fblnorm.exact_fbl_norm.s", "s"),
    ("fblnorm.candidate_rays", "count"),
    ("fblnorm.rays_used", "count"),
    ("fblnorm.ray_yield", "ratio"),
    ("fblnorm.norm_lp_pivots", "count"),
    ("fblnorm.oracle.s", "s"),
    ("fblnorm.oracle.evals", "count"),
    ("fblnorm.oracle.evals_per_s", "1/s"),
    ("fblnorm.oracle.restarts", "count"),
    ("fblnorm.make_certificate.s", "s"),
    ("fblnorm.replay_certificate.s", "s"),
    ("ckretract.build_section.s", "s"),
    ("ckretract.verify_section.s", "s"),
    ("ckretract.verify_norm_bound.s", "s"),
    ("ckretract.verify_hom_laws.s", "s"),
    ("homs.build_phi.s", "s"),
    ("homs.apply_hom.calls", "count"),
    ("ellone.extract.s", "s"),
    ("ellone.stages", "count"),
    ("cli.run.s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, span, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([span(args, kwargs) if callable(span) else span, 0.0, 0.0, parent])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(counts, result, args, kwargs, spans[parent][0] if parent >= 0 else None)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fblab" or name.startswith("fblab.")]
        for modname, attr, span, count in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(span, original, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def absorb(self, spans, counts):
        """Append another process's spans and counts (parent indices shift)."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        self.counts.update(counts)


def layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics per traced round, from the recorded spans and counts."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for (name, start, end, _), inner in zip(tracer.spans, child):
        self_s[name] += end - start - inner
        total_s[name] += end - start
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    values = {name: c[name] / rounds for name, unit in LAYER_METRICS if unit == "count"}
    values.update({name: self_s[name[:-2]] / rounds
                   for name, unit in LAYER_METRICS if unit == "s"})
    values.update({
        "plfan.witness_yield": ratio(c["plfan.cells"], c["plfan.witness_lps"]),
        "lp.pivots_per_call": ratio(c["lp.pivots"], c["lp.solve_lp.calls"]),
        "fblnorm.ray_yield": ratio(c["fblnorm.rays_used"], c["fblnorm.candidate_rays"]),
        "fblnorm.oracle.evals_per_s": ratio(c["fblnorm.oracle.evals"], total_s["fblnorm.oracle"]),
        "trace.overhead_pct": overhead_pct,
    })
    units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in LAYER_METRICS}
