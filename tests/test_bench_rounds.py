"""One round of the benchmark's in-process workloads, with its own checks.

perfbench/workloads.py calls library functions by name (pl_from_maxmin,
exact_fbl_norm on its result, verify_hom_laws with samples=), so a library
change that breaks one of those calls would otherwise show only when the
benchmark runs.  Likewise perfbench/spans.py wraps library functions by
name and reads counts off their results, so one traced round per workload
runs here too.  The cli workload spawns child processes and is left out;
test_cli covers the subcommands.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["norm", "oracle", "sections"])
def test_one_round_runs_and_passes_its_checks(workload, tmp_path):
    items = run.build_inputs(workload, 1, tmp_path)
    ctx = run.Context(tmp_path)
    results = workloads.ROUNDS[workload](items, ctx)
    assert ctx.failed == 0, ctx.errors
    assert checks.CHECKS[workload](items, results, 1) == []


@pytest.mark.parametrize("workload, span", [
    ("norm", "fblnorm.exact_fbl_norm"),
    ("oracle", "fblnorm.oracle"),
    ("sections", "ckretract.build_section"),
])
def test_one_traced_round_reports_every_layer_metric(workload, span, tmp_path):
    items = run.build_inputs(workload, 1, tmp_path)
    ctx = run.Context(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        results = workloads.ROUNDS[workload](items, ctx)
    finally:
        tracer.uninstall()
    assert ctx.failed == 0, ctx.errors
    assert checks.CHECKS[workload](items, results, 1) == []
    metrics = spans.layer_metrics(tracer, 1, 0.0)
    named = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for m in named:
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    assert metrics[f"{span}.s"]["value"] > 0
    if workload == "oracle":
        # every cube sup LP is counted; spans._count_lp reads its keywords
        assert metrics["plfan.sup_lps"]["value"] > 0
