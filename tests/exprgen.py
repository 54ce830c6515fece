"""Seeded random lattice expressions for the property tests.

The generator favors small trees: scalars are rounded so printed forms stay
readable (or, on request, badly scaled), and anything whose max-min normal
form exceeds the size cap is regenerated.  All randomness flows through the numpy Generator passed in, so
test runs are reproducible from their seeds.
"""

from fractions import Fraction

from fblab.expr import (
    Gen,
    Join,
    Meet,
    Scale,
    Sum,
    absval,
    MaxMinSizeError,
    to_maxmin,
)


def rounded_scalar(rng):
    c = round(float(rng.uniform(-2.5, 2.5)), 3)
    return 1.0 if c == 0.0 else c


def badly_scaled_scalar(rng):
    """+-1e-7, +-1e6 or +-(1 +- 1e-10)."""
    c = float(rng.choice((1e-7, 1e6, 1 + 1e-10, 1 - 1e-10)))
    return c * float(rng.choice((1.0, -1.0)))


def random_expr(rng, gens, depth, scalar=rounded_scalar):
    """One random tree of at most the given depth over the generator names."""
    if depth <= 0 or rng.random() < 0.3:
        return Gen(str(rng.choice(list(gens))))
    r = rng.random()
    if r < 0.25:
        return Scale(scalar(rng), random_expr(rng, gens, depth - 1, scalar))
    if r < 0.50:
        return Sum(random_expr(rng, gens, depth - 1, scalar),
                   random_expr(rng, gens, depth - 1, scalar))
    if r < 0.70:
        return Join(random_expr(rng, gens, depth - 1, scalar),
                    random_expr(rng, gens, depth - 1, scalar))
    if r < 0.85:
        return Meet(random_expr(rng, gens, depth - 1, scalar),
                    random_expr(rng, gens, depth - 1, scalar))
    return absval(random_expr(rng, gens, depth - 1, scalar))


def random_expr_capped(rng, gens, depth=4, max_size=40, scalar=rounded_scalar):
    """Regenerate until the max-min form stays within max_size functionals."""
    while True:
        e = random_expr(rng, gens, depth, scalar)
        try:
            m = to_maxmin(e, cap=max(max_size, 64))
        except MaxMinSizeError:
            continue
        if m.size <= max_size:
            return e


def random_rational_expr(rng, gens, depth=3, max_size=16):
    """Like random_expr_capped but every scalar is an exact eighth."""

    def build(d):
        if d <= 0 or rng.random() < 0.35:
            return Gen(str(rng.choice(list(gens))))
        r = rng.random()
        if r < 0.3:
            k = int(rng.integers(-16, 17))
            if k == 0:
                k = 8
            return Scale(float(Fraction(k, 8)), build(d - 1))
        if r < 0.55:
            return Sum(build(d - 1), build(d - 1))
        if r < 0.8:
            return Join(build(d - 1), build(d - 1))
        return Meet(build(d - 1), build(d - 1))

    while True:
        e = build(depth)
        try:
            m = to_maxmin(e, cap=max(max_size, 64))
        except MaxMinSizeError:
            continue
        if m.size <= max_size:
            return e


def random_point(rng, gens):
    return {g: float(rng.uniform(-1.0, 1.0)) for g in gens}
