"""Regenerate badly_scaled.txt, the fixed badly scaled stratum of `norm`.

    python3 perfbench/make_badly_scaled.py

The stratum does not depend on the workload seed.  It holds the three
expressions on which the float route fails today, written out by hand, and
nine expressions drawn from a fixed seed with every scalar in
{+-1e-7, +-1e6, +-(1 + 1e-10), +-(1 - 1e-10)}.  Keeping the stratum fixed
means a failure in it fails on every run, so the share of failed operations
stays the same from run to run.

A draw on which the float norm raises is skipped and printed to stderr, so
that the three hand-written expressions stay the only failures.  Those
skips are faults of the program; CHANGES.md records them.
"""

import sys
from pathlib import Path

import numpy as np

from inputs import BADLY_SCALED_FILE, draw_expression, to_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from fblab import expr, fblnorm  # noqa: E402

KNOWN_FAILURES = (
    "d(b) + 1e-07*d(a) ^ 1e-07*(d(b) v -1.0*d(b))",
    "d(b) + 1e-07*d(a) ^ 1e-07*|d(b)|",
    "d(c) + 1e-07*d(a) ^ 1e-07*(d(c) v -1.0*d(c))",
)
SCALARS = (1e-7, 1e6, 1 + 1e-10, 1 - 1e-10)
SLOTS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (3, 6))


def badly_scaled_scalar(rng) -> float:
    return float(rng.choice(SCALARS)) * float(rng.choice((1.0, -1.0)))


def main() -> None:
    rng = np.random.default_rng(20021242)
    drawn = []
    for n, h in SLOTS:
        while True:
            text = to_text(draw_expression(rng, n, h, scalar=badly_scaled_scalar))
            try:
                fblnorm.norm_of_expression(expr.parse_expr(text))
            except Exception as exc:  # any failure disqualifies the draw
                print(f"skipped {text}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            drawn.append(text)
            break
    header = [
        "# Badly scaled stratum of the norm workload; one expression per line.",
        "# Regenerate with: python3 perfbench/make_badly_scaled.py",
        "# The first three fail in the float route (LPError from the witness LP).",
    ]
    Path(BADLY_SCALED_FILE).write_text("\n".join(header + list(KNOWN_FAILURES) + drawn) + "\n")


if __name__ == "__main__":
    main()
