"""One round of the benchmark's in-process workloads, with its own checks.

perfbench/workloads.py calls library functions by name (pl_from_maxmin,
exact_fbl_norm on its result, verify_hom_laws with samples=), so a library
change that breaks one of those calls would otherwise show only when the
benchmark runs.  The cli workload spawns child processes and is left out;
test_cli covers the subcommands.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["norm", "oracle", "sections"])
def test_one_round_runs_and_passes_its_checks(workload, tmp_path):
    items = run.build_inputs(workload, 1, tmp_path)
    ctx = run.Context(tmp_path)
    results = workloads.ROUNDS[workload](items, ctx)
    assert ctx.failed == 0, ctx.errors
    assert checks.CHECKS[workload](items, results, 1) == []
