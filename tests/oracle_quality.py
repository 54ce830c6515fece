"""The oracle's quality over many inputs: misses, gaps and wall time.

    python3 tests/oracle_quality.py

Runs one `oracle` round of the benchmark (perfbench/workloads.py) for each
bench seed 1-100 and checks it with perfbench's own check_oracle: every
`oracle` bound lies in [exact - 1e-3, exact + 1e-9], every `lemma34` bound
is at most its sup norm + 1e-9, and every certificate replays; over the
`oracle` items it reports the worst gap exact - lower, the worst and mean
relative gap (exact - lower) / exact, and how many relative gaps exceed
1e-9.  Then it runs acceptance criterion 2's loop (50 random expressions at
budget 20,000) on rng seeds 202-205.  It prints one line per miss and a summary, and exits 1
on a miss.  pytest does not collect it: it takes about 30 s.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from exprgen import random_expr_capped  # noqa: E402
from fblab import expr, fblnorm  # noqa: E402

BENCH_SEEDS = range(1, 101)
CRITERION_2_SEEDS = range(202, 206)


def exact_norm(text, gens):
    return float(fblnorm.norm_of_expression(expr.parse_expr(text), fblnorm.fbl_space(gens)).upper)


def bench_rounds(outdir):
    """Misses, the worst exact - lower and the relative gaps
    (exact - lower) / exact over the bench seeds' oracle items."""
    misses, worst, rel = [], -np.inf, []
    for seed in BENCH_SEEDS:
        items = run.build_inputs("oracle", seed, outdir)
        ctx = run.Context(outdir)
        results = workloads.oracle_round(items, ctx)
        misses += [f"bench seed {seed}: failed operation: {e}" for e in ctx.errors]
        misses += [f"bench seed {seed}: {p}" for p in checks.check_oracle(items, results, seed)]
        for item, res in zip(items, results):
            if item.kind == "oracle" and res is not None:
                exact = exact_norm(item.text, res["gens"])
                worst = max(worst, exact - res["lower"])
                rel.append((exact - res["lower"]) / exact if exact else 0.0)
    return misses, worst, np.array(rel)


def criterion_2(seed):
    """Acceptance criterion 2's loop on rng seed `seed`."""
    rng = np.random.default_rng(seed)
    misses, worst = [], -np.inf
    for _ in range(50):
        k = int(rng.integers(1, 4))
        gens = ("a", "b", "c")[:k]
        e = random_expr_capped(rng, gens, depth=int(rng.integers(2, 5)), max_size=40)
        space = fblnorm.fbl_space(gens)
        exact = float(fblnorm.norm_of_expression(e, space).upper)
        orc = fblnorm.oracle_lower_bound(
            fblnorm.expr_evaluator(e, gens), space, budget=20_000,
            seed=int(rng.integers(1 << 30)),
        )
        worst = max(worst, exact - orc.lower)
        if not exact - 1e-3 <= orc.lower <= exact + 1e-9:
            misses.append(f"criterion 2 seed {seed}: {expr.to_text(e)}: "
                          f"bound {orc.lower!r} outside [{exact!r} - 1e-3, + 1e-9]")
    return misses, worst


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        misses, bench_worst, rel = bench_rounds(Path(tmp))
    t1 = time.perf_counter()
    crit_worst = -np.inf
    for seed in CRITERION_2_SEEDS:
        m, w = criterion_2(seed)
        misses += m
        crit_worst = max(crit_worst, w)
    t2 = time.perf_counter()
    for line in misses:
        print(line)
    print(f"bench seeds {BENCH_SEEDS.start}-{BENCH_SEEDS.stop - 1} "
          f"(600 oracle, 400 lemma34 items): "
          f"worst exact-oracle gap {bench_worst:.2e} (relative {rel.max():.2e}), "
          f"{np.count_nonzero(rel > 1e-9)} of {len(rel)} oracle items with a relative "
          f"gap above 1e-9, mean relative gap {rel.mean():.2e}, {t1 - t0:.1f} s")
    print(f"criterion 2 on rng seeds {CRITERION_2_SEEDS.start}-{CRITERION_2_SEEDS.stop - 1} "
          f"(200 expressions): worst exact-oracle gap {crit_worst:.2e}, {t2 - t1:.1f} s")
    print(f"{len(misses)} misses, {t2 - t0:.1f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
