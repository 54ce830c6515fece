"""Expression layer for the vector lattice generated by point evaluations.

An expression denotes a positively homogeneous, piecewise-linear function of
finitely many dual coordinates.  The atoms are generators ``d(a)`` (the
evaluation functional of the free abstraction at ``a``); expressions are
closed under scalar multiples, sums, joins ``v`` and meets ``^``.  Absolute
value is sugar: ``|e|`` desugars to ``e v (-1*e)`` at parse time, so the tree
grammar has exactly five node kinds.

Concrete syntax (parsed by :func:`parse_expr`)::

    lattice := arith (('v' | '^') arith)*        # mixing v and ^ needs parens
    arith   := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := NUMBER | '-' factor | 'd(' ident ')' | '|' lattice '|' | '(' lattice ')'

Lexical rules (one regular expression, ``_TOKEN``): whitespace between
tokens is skipped.  A NUMBER is decimal digits, then optionally ``.`` and
more digits, then an exponent ``e``/``E`` with an optional sign only when a
digit follows it; there is no leading ``.`` and no sign in the literal.  An
ident is a nonempty run of ASCII letters, digits and ``_``.  ``d(`` is one
token with no space inside, so ``d (a)`` is not a generator, while
``d( a )`` is.  ``v`` is the join only as a whole word: ``d(a) vd(b)`` and
``d(a) vx d(b)`` stop at the ``v``.

``v`` and ``^`` bind loosest and are mutually non-associative; ``*`` binds
tighter than ``+``/``-``; numbers act only as scalar multipliers (there is no
function-times-function product in this language).  Scalars are IEEE doubles.
Brackets and unary minus signs nest at most ``MAX_DEPTH`` deep, and a tree
has at most ``MAX_DEPTH`` nodes above a generator on any path.

The normal form computed by :func:`to_maxmin` writes an expression as a max
over groups of mins of linear functionals, via bottom-up distribution:

* ``join``: union of the two group lists,
* ``meet``: pairwise unions of groups (min of maxes = max of pairwise mins),
* ``sum``: pairwise groups of pairwise sums,
* negative ``scale``: the child's form negated (:meth:`MaxMinForm.negated`,
  max-min duality with absorption), then scaled by ``|c|``; its group count
  can grow as the product of the child's group sizes.

A hard size cap guards every step.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Gen",
    "Scale",
    "Sum",
    "Join",
    "Meet",
    "LatticeExpr",
    "LinearFunctional",
    "MaxMinForm",
    "MaxMinEvaluator",
    "MAXMIN_CAP",
    "ExprError",
    "ExprSyntaxError",
    "MaxMinSizeError",
    "SpaceError",
    "absval",
    "support",
    "evaluate",
    "to_maxmin",
    "parse_expr",
    "to_text",
    "valid_generator_name",
]

# The functional cap of a max-min form (to_maxmin, MaxMinForm.negated).
MAXMIN_CAP = 10_000

# The bound on the nesting of brackets and unary minus signs and on the depth
# of a parsed tree: the parser recurses four frames per bracket and the tree
# walkers one per node, far below Python's default recursion limit of 1000.
MAX_DEPTH = 100

# The tail of the error raised for a float value that is no finite float.
FLOAT_RANGE = f"past the float range (|x| <= {sys.float_info.max:.4g})"

_NAME = re.compile(r"[A-Za-z0-9_]+")


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ExprSyntaxError(ExprError):
    """Raised on malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class MaxMinSizeError(ExprError):
    """Raised when normal-form construction exceeds the functional cap."""


class SpaceError(ValueError):
    """A generator tuple or admissibility space that does not fit its use."""


def valid_generator_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Gen:
    name: str

    def __post_init__(self):
        if not valid_generator_name(self.name):
            raise ExprError(f"invalid generator name {self.name!r}")


@dataclass(frozen=True)
class Scale:
    factor: float
    child: "LatticeExpr"


@dataclass(frozen=True)
class Sum:
    left: "LatticeExpr"
    right: "LatticeExpr"


@dataclass(frozen=True)
class Join:
    left: "LatticeExpr"
    right: "LatticeExpr"


@dataclass(frozen=True)
class Meet:
    left: "LatticeExpr"
    right: "LatticeExpr"


LatticeExpr = Union[Gen, Scale, Sum, Join, Meet]


def absval(e: LatticeExpr) -> LatticeExpr:
    """|e| as a derived node: e v (-1*e)."""
    return Join(e, Scale(-1.0, e))


def support(e: LatticeExpr) -> frozenset:
    """Syntactic support: every generator mentioned in the tree.

    Zero scalars do not shrink the support; 0*d(a) still depends on a
    syntactically.
    """
    if isinstance(e, Gen):
        return frozenset((e.name,))
    if isinstance(e, Scale):
        return support(e.child)
    if isinstance(e, (Sum, Join, Meet)):
        return support(e.left) | support(e.right)
    raise ExprError(f"not a lattice expression: {e!r}")


def evaluate(e: LatticeExpr, point: Mapping[str, float]) -> float:
    """Evaluate the expression at a dual point given coordinatewise.

    The point must assign a value to every generator in the support; a
    missing coordinate raises ExprError.  Evaluation is exact for 0/1
    coordinates and integer scalars, and positively homogeneous in general.
    """
    if isinstance(e, Gen):
        try:
            return float(point[e.name])
        except KeyError:
            raise ExprError(f"point is missing coordinate {e.name!r}") from None
    if isinstance(e, Scale):
        return e.factor * evaluate(e.child, point)
    if isinstance(e, Sum):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Join):
        return max(evaluate(e.left, point), evaluate(e.right, point))
    if isinstance(e, Meet):
        return min(evaluate(e.left, point), evaluate(e.right, point))
    raise ExprError(f"not a lattice expression: {e!r}")


# ---------------------------------------------------------------------------
# linear functionals and the max-min normal form


@dataclass(frozen=True)
class LinearFunctional:
    """Finitely supported linear functional, stored as sorted (name, coeff) pairs.

    Zero coefficients are dropped at construction so that equality and
    hashing agree with mathematical equality (for the arithmetic in use).
    """

    items: tuple

    @staticmethod
    def from_map(coeffs: Mapping[str, float]) -> "LinearFunctional":
        pruned = tuple(sorted((g, c) for g, c in coeffs.items() if c != 0))
        return LinearFunctional(pruned)

    def vector(self, generators) -> tuple:
        d = dict(self.items)
        return tuple(d.get(g, 0) for g in generators)

    def evaluate(self, point: Mapping[str, float]):
        return sum((c * point[g] for g, c in self.items), start=0)

    def scaled(self, c) -> "LinearFunctional":
        if c == 0:
            return LinearFunctional(())
        return LinearFunctional(tuple((g, c * v) for g, v in self.items))

    def plus(self, other: "LinearFunctional") -> "LinearFunctional":
        out = dict(self.items)
        for g, v in other.items:
            out[g] = out.get(g, 0) + v
        return LinearFunctional.from_map(out)

    def minus(self, other: "LinearFunctional") -> "LinearFunctional":
        return self.plus(other.scaled(-1))

    @property
    def is_zero(self) -> bool:
        return not self.items


ZERO_FUNCTIONAL = LinearFunctional(())


@dataclass(frozen=True)
class MaxMinForm:
    """Max over groups of min over linear functionals.

    groups is a nonempty tuple of nonempty tuples.  The represented function
    is x -> max_g min_{l in g} l(x); it agrees with the source expression
    everywhere.
    """

    groups: tuple

    @property
    def size(self) -> int:
        return sum(len(g) for g in self.groups)

    def functionals(self) -> list:
        """Distinct functionals across all groups, in first-appearance order."""
        return list(dict.fromkeys(f for g in self.groups for f in g))

    def value(self, point: Mapping[str, float]) -> float:
        return max(min(f.evaluate(point) for f in g) for g in self.groups)

    def check_generators(self, generators) -> None:
        """Raise SpaceError unless generators name every generator the form
        uses; LinearFunctional.vector would drop the others silently."""
        used = {g for grp in self.groups for f in grp for g, c in f.items if c}
        missing = sorted(used - set(generators))
        if missing:
            raise SpaceError(f"generators {list(generators)} miss {missing} of the function")

    def matrix(self, generators):
        """(row matrix of all functionals, list of per-group row-index arrays).

        Intended for vectorized evaluation: stack functional rows once, then
        value(points) = max over groups of min over the group's rows.
        """
        rows = []
        group_idx = []
        for g in self.groups:
            idx = []
            for f in g:
                idx.append(len(rows))
                rows.append([float(c) for c in f.vector(generators)])
            group_idx.append(np.array(idx, dtype=int))
        return np.array(rows, dtype=float), group_idx

    def negated(self, cap: int) -> "MaxMinForm":
        """The form of -f, with no group that contains another.

        -max_G min_{l in G} l = min_G max_{l in G} -l, so the groups of -f are
        the minimal sets that meet every negated group.  All of them hold the
        set S of negated singleton groups, so the fold starts from S and
        skips every group that meets S.  The other groups fold in one at a
        time: each kept group H and each negated functional n of the next
        group give the group H + {n}.  A group that contains another never
        attains the max and is dropped.  As no kept H contains another, the
        dropped ones are exactly: every H + {n} with n outside H when H holds
        some n (H itself stays), and H + {n} when a kept group holding n lies
        in H + {n}.  Raises MaxMinSizeError as soon as a step passes cap
        functionals.
        """
        neg_groups = [list(dict.fromkeys(f.scaled(-1) for f in g)) for g in self.groups]
        start = frozenset(negs[0] for negs in neg_groups if len(negs) == 1)
        _check_cap(len(start), cap)
        kept = [start]
        for negs in neg_groups:
            if not start.isdisjoint(negs):
                continue
            holding = {f: [h for h in kept if f in h] for f in negs}
            out, size = [], 0
            for h in kept:
                if not h.isdisjoint(negs):
                    grown = [h]
                else:
                    grown = [h | {f} for f in negs
                             if not any(g - {f} <= h for g in holding[f])]
                for g in grown:
                    size += len(g)
                    _check_cap(size, cap)
                out += grown
            kept = out
        return MaxMinForm(tuple(_dedup_group(h) for h in kept))


class MaxMinEvaluator:
    """Vectorized evaluator of a max-min form over a fixed generator order.

    Each group's row indices are padded with its own first index to one
    width, so a single fancy index gathers every group; min and max do not
    round, so the padding changes no value.  A finite point whose value is
    not a finite float raises OverflowError (finite_values).
    """

    def __init__(self, m: MaxMinForm, generators):
        m.check_generators(generators)
        self.generators = tuple(generators)
        self.rows, group_idx = m.matrix(self.generators)
        width = max(len(idx) for idx in group_idx)
        self.idx = np.array(
            [np.concatenate((idx, np.full(width - len(idx), idx[0]))) for idx in group_idx]
        )

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.rows @ x
        value = float(vals[self.idx].min(axis=1).max())
        return value if math.isfinite(value) else finite_values(x, value)

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the points of X, shape (..., n), stacked on leading axes."""
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = X @ self.rows.T
        return finite_values(X, vals[..., self.idx].min(axis=-1).max(axis=-1))


def finite_values(points, values):
    """values, unless one of them is not finite while every coordinate of
    points is: then the function left the floats, and OverflowError says
    so, naming the float range."""
    if not np.isfinite(values).all() and np.isfinite(points).all():
        raise OverflowError(f"a value of the function is {FLOAT_RANGE}")
    return values


def _dedup_group(group: Iterable[LinearFunctional]) -> tuple:
    return tuple(sorted(dict.fromkeys(group), key=lambda f: f.items))


def _dedup_groups(groups: Iterable[tuple]) -> tuple:
    return tuple(dict.fromkeys(groups))


def _check_cap(n_functionals: int, cap: int):
    if n_functionals > cap:
        raise MaxMinSizeError(
            f"max-min form needs {n_functionals} functionals, cap is {cap}"
        )


def to_maxmin(e: LatticeExpr, cap: int = MAXMIN_CAP) -> MaxMinForm:
    """Normal form of an expression, with subterm memoization and a size cap.

    c*t for c < 0 is t's form negated (MaxMinForm.negated), then scaled by
    |c|.  The cap bounds the total functional count (sum of group sizes) of
    every intermediate form; exceeding it raises MaxMinSizeError rather than
    grinding on, and a meet or a negation raises as soon as the groups it
    has built pass it.  A coefficient that leaves the floats (a product or
    sum of scalars past the largest float) raises ExprError.
    """
    memo: dict = {}  # by id: every node lives under e for the whole call

    def rec(t: LatticeExpr) -> MaxMinForm:
        got = memo.get(id(t))
        if got is not None:
            return got
        if isinstance(t, Gen):
            m = MaxMinForm(((LinearFunctional(((t.name, 1.0),)),),))
        elif isinstance(t, Scale):
            child = rec(t.child)
            c = float(t.factor)
            if c == 0:
                m = MaxMinForm(((ZERO_FUNCTIONAL,),))
            else:
                m = child if c > 0 else child.negated(cap)
                if abs(c) != 1:
                    m = MaxMinForm(tuple(tuple(f.scaled(abs(c)) for f in g) for g in m.groups))
        elif isinstance(t, Sum):
            a, b = rec(t.left), rec(t.right)
            _check_cap(a.size * b.size, cap)
            groups = []
            for ga in a.groups:
                for gb in b.groups:
                    groups.append(
                        _dedup_group(fa.plus(fb) for fa in ga for fb in gb)
                    )
            m = MaxMinForm(_dedup_groups(groups))
        elif isinstance(t, Join):
            a, b = rec(t.left), rec(t.right)
            m = MaxMinForm(_dedup_groups(a.groups + b.groups))
        elif isinstance(t, Meet):
            a, b = rec(t.left), rec(t.right)
            groups, size = {}, 0
            for ga in a.groups:
                for gb in b.groups:
                    g = _dedup_group(ga + gb)
                    if g not in groups:
                        groups[g] = None
                        size += len(g)
                        _check_cap(size, cap)
            m = MaxMinForm(tuple(groups))
        else:
            raise ExprError(f"not a lattice expression: {t!r}")
        _check_cap(m.size, cap)
        memo[id(t)] = m
        return m

    m = rec(e)
    if not all(math.isfinite(c) for g in m.groups for f in g for _, c in f.items):
        raise ExprError("a coefficient of the max-min form is not finite")
    return m


# ---------------------------------------------------------------------------
# concrete syntax


# One token per match: a number, 'd(' with the generator name after it, a
# word of name characters, or one other non-space character.  Whitespace
# before a token is skipped.
_TOKEN = re.compile(r"\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|d\(\s*[A-Za-z0-9_]*|[A-Za-z0-9_]+|\S)")


class _SyntaxAt(Exception):
    """A syntax error at the next token, offset characters into it, or, if
    at is set, at the token that was next when len(toks) was at; parse_expr
    turns it into an ExprSyntaxError with the position."""

    def __init__(self, message: str, offset: int = 0, at: int = 0):
        super().__init__(message)
        self.offset = offset
        self.at = at


def parse_expr(text: str) -> LatticeExpr:
    """Parse concrete syntax into a tree; see the module docstring for grammar."""
    # The tokens in reverse on top of the end marker "": pop() takes the next.
    toks = [""] + _TOKEN.findall(text)[::-1]
    try:
        e, _ = _parse_lattice(toks, 0)
        if toks[-1]:
            raise _SyntaxAt("trailing input")
        return _require_expr(e)
    except _SyntaxAt as err:
        starts = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
        pos = starts[len(starts) - (err.at or len(toks))] + err.offset
        raise ExprSyntaxError(str(err), pos) from None


def _require_expr(v, offset: int = 0) -> LatticeExpr:
    if isinstance(v, float):
        raise _SyntaxAt("expression denotes a bare constant", offset)
    return v


def _deeper(at: int, *depths) -> int:
    """The depth of a node over children of the given depths; past
    MAX_DEPTH a syntax error at the node's token, the next one when
    len(toks) was at.  Every _parse_ function takes the nesting of the
    brackets and unary minus signs around it and returns a constant or a
    tree with its depth (0 for either leaf)."""
    depth = 1 + max(depths)
    if depth > MAX_DEPTH:
        raise _SyntaxAt(f"expression deeper than {MAX_DEPTH} operators", at=at)
    return depth


def _parse_lattice(toks: list, nest: int):
    left, depth = _parse_arith(toks, nest)
    op = None
    while toks[-1] in ("v", "^"):
        if op not in (None, toks[-1]):
            raise _SyntaxAt("mixing 'v' and '^' requires parentheses")
        at = len(toks)
        op = toks.pop()
        right, rdepth = _parse_arith(toks, nest)
        left = (Join if op == "v" else Meet)(_require_expr(left), _require_expr(right))
        depth = _deeper(at, depth, rdepth)
    return left, depth


def _parse_arith(toks: list, nest: int):
    left, depth = _parse_term(toks, nest)
    while toks[-1] in ("+", "-"):
        at = len(toks)
        sign = toks.pop()
        right, rdepth = _parse_term(toks, nest)
        if sign == "-":
            right, rdepth = _negate(right, rdepth, at)
        left = _add(left, right)
        depth = _deeper(at, depth, rdepth) if isinstance(left, Sum) else 0
    return left, depth


def _add(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        raise _SyntaxAt("cannot add a constant to an expression")
    return Sum(a, b)


def _negate(v, depth: int, at: int):
    if isinstance(v, float):
        return -v, 0
    return Scale(-1.0, v), _deeper(at, depth)


def _parse_term(toks: list, nest: int):
    at = len(toks)
    factors = [_parse_factor(toks, nest)]
    while toks[-1] == "*":
        toks.pop()
        factors.append(_parse_factor(toks, nest))
    coeff = 1.0
    expr = None
    for f, depth in factors:
        if isinstance(f, float):
            coeff *= f
        elif expr is None:
            expr = f, depth
        else:
            raise _SyntaxAt("product of two expressions is not in the language")
    if expr is None:
        return coeff, 0
    if coeff == 1.0 and len(factors) == 1:
        return expr
    return Scale(coeff, expr[0]), _deeper(at, expr[1])


def _parse_factor(toks: list, nest: int):
    tok = toks[-1]
    if tok[:1].isdecimal():
        value = float(tok)
        if math.isinf(value):
            raise _SyntaxAt("number literal overflows a float")
        toks.pop()
        return value, 0
    if tok in ("(", "|", "-") and nest == MAX_DEPTH:
        raise _SyntaxAt(f"brackets and signs nested deeper than {MAX_DEPTH}")
    at = len(toks)
    if tok[:2] == "d(":
        name = tok[2:].lstrip()
        if not name:
            raise _SyntaxAt("expected a generator name", len(tok))
        toks.pop()
        inner, depth, close = Gen(name), 0, ")"
    elif tok in ("(", "|"):
        toks.pop()
        inner, depth = _parse_lattice(toks, nest + 1)
        close = ")" if tok == "(" else "|"
    elif tok == "-":
        toks.pop()
        return _negate(*_parse_factor(toks, nest + 1), at)
    else:
        raise _SyntaxAt("expected a factor")
    if toks[-1] != close:
        raise _SyntaxAt(f"expected {close!r}")
    if tok == "|":
        inner, depth = absval(_require_expr(inner, 1)), _deeper(at, depth + 1)
    toks.pop()
    return inner, depth


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr to a structurally equal tree)

_LV_LATTICE, _LV_SUM, _LV_TERM, _LV_FACTOR = 0, 1, 2, 3


def _level(e: LatticeExpr) -> int:
    if isinstance(e, Gen):
        return _LV_FACTOR
    if isinstance(e, Scale):
        return _LV_TERM
    if isinstance(e, Sum):
        return _LV_SUM
    return _LV_LATTICE


def to_text(e: LatticeExpr) -> str:
    return _fmt(e, _LV_LATTICE, None)


def _fmt(e: LatticeExpr, ctx: int, lattice_kind) -> str:
    if isinstance(e, Gen):
        s = f"d({e.name})"
    elif isinstance(e, Scale):
        s = f"{e.factor!r}*{_fmt(e.child, _LV_FACTOR, None)}"
    elif isinstance(e, Sum):
        s = f"{_fmt(e.left, _LV_SUM, None)} + {_fmt(e.right, _LV_TERM, None)}"
    elif isinstance(e, (Join, Meet)):
        kind = "v" if isinstance(e, Join) else "^"
        left = _fmt(e.left, _LV_LATTICE, kind)
        right = _fmt(e.right, _LV_SUM, None)
        s = f"{left} {kind} {right}"
    else:
        raise ExprError(f"not a lattice expression: {e!r}")
    lvl = _level(e)
    if lvl < ctx:
        return f"({s})"
    if lvl == _LV_LATTICE and ctx == _LV_LATTICE and lattice_kind is not None:
        mine = "v" if isinstance(e, Join) else "^"
        if mine != lattice_kind:
            return f"({s})"
    return s
