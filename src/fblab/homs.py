"""Finite-rank lattice homomorphisms out of the free lattice.

A lattice homomorphism into R^m that is determined by generator images is a
weighted evaluation family: component j of the image of f is c_j * f(x_j)
for a weight c_j >= 0 and a dual point x_j in the cube.  Nonnegative weights
are exactly what makes every component commute with the lattice operations,
so law checking is mechanical.

The subset instance: fix N and let the generators be the nonempty subsets A
of {1..N}, ordered by size then lexicographically.  For n <= N the point
chi_n has coordinate 1 at each A containing n and 0 elsewhere, and the
homomorphism with unit weights at chi_1..chi_N sends each generator delta_A
to the 0/1 vector (indicator of A, truncated at N).  In particular the
singleton generators map exactly onto the canonical basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .expr import Join, LatticeExpr, Scale, Sum, evaluate, support

__all__ = [
    "EvalHom",
    "PhiInstance",
    "HomError",
    "apply_hom",
    "build_phi",
    "subset_name",
    "check_hom_laws",
]


class HomError(ValueError):
    pass


@dataclass(frozen=True)
class EvalHom:
    """Weighted evaluation family over a fixed generator tuple."""

    generators: tuple
    targets: tuple  # of (weight, point-tuple) pairs, aligned with generators

    def __post_init__(self):
        for c, x in self.targets:
            if c < 0:
                raise HomError("negative weight in evaluation family")
            if len(x) != len(self.generators):
                raise HomError("target point dimension mismatch")
            if any(abs(v) > 1 for v in x):
                raise HomError("target point outside the cube")


def apply_hom(h: EvalHom, e: LatticeExpr) -> tuple:
    """Componentwise c_j * e(x_j); raises if e uses unknown generators."""
    extra = support(e) - set(h.generators)
    if extra:
        raise HomError(f"expression uses generators outside the family: {sorted(extra)}")
    out = []
    for c, x in h.targets:
        point = dict(zip(h.generators, x))
        out.append(c * evaluate(e, point))
    return tuple(out)


def subset_name(subset) -> str:
    """Generator name for a subset of indices, e.g. {2, 1} -> 's1_2'."""
    return "s" + "_".join(str(i) for i in sorted(subset))


@dataclass(frozen=True)
class PhiInstance:
    """The subset family at truncation level N.

    subsets: nonempty subsets of {1..N} by size then lexicographic order.
    chi_points: row n-1 is the 0/1 point (1 at each subset containing n).
    hom: unit-weight evaluation family at the chi points, rank N.
    """

    N: int
    subsets: tuple  # of tuples of ints, each sorted
    generators: tuple  # names aligned with subsets
    chi_points: tuple  # N rows, each aligned with generators
    hom: EvalHom


def build_phi(N: int) -> PhiInstance:
    if not 1 <= N <= 12:
        raise HomError("truncation level must be between 1 and 12")
    subsets = []
    for size in range(1, N + 1):
        subsets.extend(combinations(range(1, N + 1), size))
    subsets = tuple(subsets)
    generators = tuple(subset_name(a) for a in subsets)
    chi_points = tuple(
        tuple(1.0 if n in a else 0.0 for a in subsets) for n in range(1, N + 1)
    )
    hom = EvalHom(generators, tuple((1.0, p) for p in chi_points))
    return PhiInstance(N, subsets, generators, chi_points, hom)


def check_hom_laws(h: EvalHom, pairs: Sequence) -> dict:
    """Check the homomorphism laws componentwise on expression pairs.

    For each (e, g): join h(e v g) = h(e) v h(g), additivity
    h(e + g) = h(e) + h(g), and homogeneity h(2.5*e) = 2.5*h(e).  A law
    holds in a component when its two sides agree within 1e-12 of the
    largest magnitude among its operands and both sides there.  Returns a
    report with per-law worst absolute deviations and failure lists.
    """
    pairs = list(pairs)
    laws = {"join": [], "sum": [], "scale": []}
    worst = {"join": 0.0, "sum": 0.0, "scale": 0.0}
    for idx, (e, g) in enumerate(pairs):
        he = apply_hom(h, e)
        hg = apply_hom(h, g)
        checks = (
            ("join", apply_hom(h, Join(e, g)), tuple(map(max, he, hg)), (he, hg)),
            ("sum", apply_hom(h, Sum(e, g)), tuple(a + b for a, b in zip(he, hg)), (he, hg)),
            ("scale", apply_hom(h, Scale(2.5, e)), tuple(2.5 * a for a in he), (he,)),
        )
        for law, got, want, operands in checks:
            devs = [(abs(c[0] - c[1]), max(map(abs, c))) for c in zip(got, want, *operands)]
            worst[law] = max([worst[law]] + [dev for dev, _ in devs])
            if any(dev > 1e-12 * mag for dev, mag in devs):
                laws[law].append(idx)
    return {
        "pass": all(not v for v in laws.values()),
        "failures": laws,
        "worst_deviation": worst,
        "pairs": len(pairs),
    }
