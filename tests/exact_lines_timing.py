"""Wall time and output digest of the exact candidate-line kernel.

    python3 tests/exact_lines_timing.py

For each input it prints the number of hyperplane rows h, the number of
candidate lines, the best of 3 wall times of
numeric.candidate_rays(rows, n, True) and a digest of the ordered line
list (the first 12 hex digits of the sha256 of its repr), so two versions
of the kernel can be compared for speed and for the exact list they return.
The inputs are the 4- and 5-generator join chains, with their hyperplanes
built as fblnorm.exact_fbl_norm builds them, and seeded generic integer
arrangements (entries in -9..9) for n = 3..5 and h = 10, 15, 20.  pytest
does not collect it: the 5-generator chain takes seconds per run.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fblab import expr, fblnorm, plfan  # noqa: E402
from fblab.numeric import as_fraction, candidate_rays  # noqa: E402

CHAINS = (
    "(d(a) v d(b)) + (d(b) v d(c)) + (d(c) v d(d))",
    "(d(a) v d(b)) + (d(b) v d(c)) + (d(c) v d(d)) + (d(d) v d(e))",
)


def hyperplane_rows(text):
    """n and the exact hyperplane rows that exact_fbl_norm hands to
    candidate_rays for the expression over its support: its breaks, its
    nonzero zero sets and the ball's vertex hyperplanes, canonical and
    deduplicated by exact value."""
    e = expr.parse_expr(text)
    gens = tuple(sorted(expr.support(e)))
    breaks, zero_sets, _, _ = plfan.pl_parts(expr.to_maxmin(e), gens, True)
    reps = [tuple(as_fraction(c) for c in v) for v in fblnorm.fbl_space(gens).representatives()]
    hyps = list(breaks)
    hyps += [p for p in zero_sets if not p.is_zero]
    hyps += [expr.LinearFunctional.from_map(dict(zip(gens, v))) for v in reps]
    hyps = dict.fromkeys(plfan.canonical_normal(h, True) for h in hyps)
    return len(gens), [list(h.vector(gens)) for h in hyps]


def inputs():
    for k, text in enumerate(CHAINS, start=4):
        yield f"chain {k}", *hyperplane_rows(text)
    for n in (3, 4, 5):
        for h in (10, 15, 20):
            rng = np.random.default_rng(1000 * n + h)
            yield f"generic n={n} h={h}", n, rng.integers(-9, 10, (h, n)).tolist()


def main() -> int:
    for name, n, rows in inputs():
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            lines = candidate_rays(rows, n, True)
            best = min(best, time.perf_counter() - t)
        digest = hashlib.sha256(repr(lines).encode()).hexdigest()[:12]
        print(f"{name:18} h={len(rows):3}  {len(lines):6} lines  {best:8.4f} s  {digest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
