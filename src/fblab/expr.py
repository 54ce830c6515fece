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

``v`` and ``^`` bind loosest and are mutually non-associative; ``*`` binds
tighter than ``+``/``-``; numbers act only as scalar multipliers (there is no
function-times-function product in this language).  Scalars are IEEE doubles.

The normal form computed by :func:`to_maxmin` writes an expression as a max
over groups of mins of linear functionals, via bottom-up distribution:

* ``join``: union of the two group lists,
* ``meet``: pairwise unions of groups (min of maxes = max of pairwise mins),
* ``sum``: pairwise groups of pairwise sums,
* negative ``scale``: one group per choice function through the child's
  groups (max-min duality), which is the step that can blow up; a hard size
  cap guards it.
"""

from __future__ import annotations

import json
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
    "ExprError",
    "ExprSyntaxError",
    "MaxMinSizeError",
    "SpaceError",
    "neg",
    "absval",
    "support",
    "evaluate",
    "to_maxmin",
    "parse_expr",
    "to_text",
    "expr_to_json",
    "expr_from_json",
    "expr_dumps",
    "expr_loads",
    "valid_generator_name",
]

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


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
    return bool(name) and all(ch in _NAME_CHARS for ch in name)


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


def neg(e: LatticeExpr) -> LatticeExpr:
    return Scale(-1.0, e)


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

    def coeff(self, name: str):
        for g, c in self.items:
            if g == name:
                return c
        return 0

    def as_dict(self) -> dict:
        return dict(self.items)

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
        seen = []
        for g in self.groups:
            for f in g:
                if f not in seen:
                    seen.append(f)
        return seen

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


class MaxMinEvaluator:
    """Vectorized evaluator of a max-min form over a fixed generator order.

    Each group's row indices are padded with its own first index to one
    width, so a single fancy index gathers every group; min and max do not
    round, so the padding changes no value.
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
        vals = self.rows @ np.asarray(x, dtype=float)
        return float(vals[self.idx].min(axis=1).max())

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the points of X, shape (..., n), stacked on leading axes."""
        vals = np.asarray(X, dtype=float) @ self.rows.T
        return vals[..., self.idx].min(axis=-1).max(axis=-1)


def _dedup_group(group: Iterable[LinearFunctional]) -> tuple:
    out = []
    for f in group:
        if f not in out:
            out.append(f)
    return tuple(sorted(out, key=lambda f: f.items))


def _dedup_groups(groups: Iterable[tuple]) -> tuple:
    out = []
    for g in groups:
        if g not in out:
            out.append(g)
    return tuple(out)


def _check_cap(n_functionals: int, cap: int):
    if n_functionals > cap:
        raise MaxMinSizeError(
            f"max-min form needs {n_functionals} functionals, cap is {cap}"
        )


def to_maxmin(e: LatticeExpr, cap: int = 10_000) -> MaxMinForm:
    """Normal form of an expression, with subterm memoization and a size cap.

    The cap bounds the total functional count (sum of group sizes) of every
    intermediate form; exceeding it raises MaxMinSizeError rather than
    grinding on.
    """
    memo: dict = {}

    def rec(t: LatticeExpr) -> MaxMinForm:
        got = memo.get(t)
        if got is not None:
            return got
        if isinstance(t, Gen):
            m = MaxMinForm(((LinearFunctional(((t.name, 1.0),)),),))
        elif isinstance(t, Scale):
            child = rec(t.child)
            c = float(t.factor)
            if c == 0:
                m = MaxMinForm(((ZERO_FUNCTIONAL,),))
            elif c > 0:
                m = MaxMinForm(
                    tuple(tuple(f.scaled(c) for f in g) for g in child.groups)
                )
            else:
                # c*max_i min_j f_ij = max over choice functions sigma of
                # min_i c*f_{i,sigma(i)}; enumerate choices with the cap as
                # a guard since the count is the product of group sizes.
                total = 1
                for g in child.groups:
                    total *= len(g)
                    _check_cap(total * len(child.groups), cap)
                groups = []
                idx = [0] * len(child.groups)
                while True:
                    groups.append(
                        _dedup_group(
                            child.groups[i][idx[i]].scaled(c)
                            for i in range(len(child.groups))
                        )
                    )
                    j = len(idx) - 1
                    while j >= 0:
                        idx[j] += 1
                        if idx[j] < len(child.groups[j]):
                            break
                        idx[j] = 0
                        j -= 1
                    if j < 0:
                        break
                m = MaxMinForm(_dedup_groups(groups))
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
            groups = []
            for ga in a.groups:
                for gb in b.groups:
                    groups.append(_dedup_group(ga + gb))
            m = MaxMinForm(_dedup_groups(groups))
        else:
            raise ExprError(f"not a lattice expression: {t!r}")
        _check_cap(m.size, cap)
        memo[t] = m
        return m

    return rec(e)


# ---------------------------------------------------------------------------
# concrete syntax


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.peek() == ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_char(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def read_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected a generator name", start)
        return self.text[start:self.pos]

    def try_number(self):
        self.skip_ws()
        start = self.pos
        i = self.pos
        text = self.text
        while i < len(text) and text[i].isdigit():
            i += 1
        if i == self.pos:
            return None
        if i < len(text) and text[i] == ".":
            i += 1
            while i < len(text) and text[i].isdigit():
                i += 1
        if i < len(text) and text[i] in "eE":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            if j < len(text) and text[j].isdigit():
                i = j
                while i < len(text) and text[i].isdigit():
                    i += 1
        self.pos = i
        return float(text[start:i])


def parse_expr(text: str) -> LatticeExpr:
    """Parse concrete syntax into a tree; see the module docstring for grammar."""
    sc = _Scanner(text)
    e = _parse_lattice(sc)
    sc.skip_ws()
    if not sc.at_end():
        raise ExprSyntaxError("trailing input", sc.pos)
    return _require_expr(e, sc.pos)


def _require_expr(v, pos) -> LatticeExpr:
    if isinstance(v, float):
        raise ExprSyntaxError("expression denotes a bare constant", pos)
    return v


def _parse_lattice(sc: _Scanner):
    left = _parse_arith(sc)
    op = None
    while True:
        sc.skip_ws()
        ch = sc.peek()
        is_join = False
        if ch == "v":
            # 'v' is an operator only when it stands alone; a longer word is
            # the start of something malformed and falls through to the caller.
            nxt = sc.pos + 1
            if nxt >= len(sc.text) or sc.text[nxt] not in _NAME_CHARS:
                is_join = True
        if is_join or ch == "^":
            kind = "v" if is_join else "^"
            if op is None:
                op = kind
            elif op != kind:
                raise ExprSyntaxError(
                    "mixing 'v' and '^' requires parentheses", sc.pos
                )
            sc.pos += 1
            right = _parse_arith(sc)
            l = _require_expr(left, sc.pos)
            r = _require_expr(right, sc.pos)
            left = Join(l, r) if kind == "v" else Meet(l, r)
        else:
            return left


def _parse_arith(sc: _Scanner):
    left = _parse_term(sc)
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "+" or ch == "-":
            sc.pos += 1
            right = _parse_term(sc)
            if ch == "-":
                right = _negate(right)
            left = _add(left, right, sc.pos)
        else:
            return left


def _add(a, b, pos):
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        raise ExprSyntaxError("cannot add a constant to an expression", pos)
    return Sum(a, b)


def _negate(v):
    if isinstance(v, float):
        return -v
    return Scale(-1.0, v)


def _parse_term(sc: _Scanner):
    factors = [_parse_factor(sc)]
    while True:
        sc.skip_ws()
        if sc.try_char("*"):
            factors.append(_parse_factor(sc))
        else:
            break
    coeff = 1.0
    expr = None
    for f in factors:
        if isinstance(f, float):
            coeff *= f
        elif expr is None:
            expr = f
        else:
            raise ExprSyntaxError(
                "product of two expressions is not in the language", sc.pos
            )
    if expr is None:
        return coeff
    if coeff == 1.0 and len(factors) == 1:
        return expr
    return Scale(coeff, expr)


def _parse_factor(sc: _Scanner):
    sc.skip_ws()
    ch = sc.peek()
    if ch == "-":
        sc.pos += 1
        return _negate(_parse_factor(sc))
    if ch == "(":
        sc.pos += 1
        inner = _parse_lattice(sc)
        sc.expect(")")
        return inner
    if ch == "|":
        sc.pos += 1
        inner = _parse_lattice(sc)
        sc.expect("|")
        return absval(_require_expr(inner, sc.pos))
    num = sc.try_number()
    if num is not None:
        return num
    if ch == "d":
        nxt = sc.pos + 1
        if nxt < len(sc.text) and sc.text[nxt] == "(":
            sc.pos += 2
            name = sc.read_ident()
            sc.expect(")")
            return Gen(name)
    raise ExprSyntaxError("expected a factor", sc.pos)


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


# ---------------------------------------------------------------------------
# JSON encoding: kind tag plus children, scalars as IEEE doubles


def expr_to_json(e: LatticeExpr) -> dict:
    if isinstance(e, Gen):
        return {"kind": "gen", "name": e.name}
    if isinstance(e, Scale):
        return {"kind": "scale", "factor": e.factor, "child": expr_to_json(e.child)}
    for klass, tag in ((Sum, "sum"), (Join, "join"), (Meet, "meet")):
        if isinstance(e, klass):
            return {
                "kind": tag,
                "left": expr_to_json(e.left),
                "right": expr_to_json(e.right),
            }
    raise ExprError(f"not a lattice expression: {e!r}")


def expr_from_json(obj: Mapping) -> LatticeExpr:
    kind = obj.get("kind")
    if kind == "gen":
        return Gen(obj["name"])
    if kind == "scale":
        return Scale(float(obj["factor"]), expr_from_json(obj["child"]))
    if kind in ("sum", "join", "meet"):
        klass = {"sum": Sum, "join": Join, "meet": Meet}[kind]
        return klass(expr_from_json(obj["left"]), expr_from_json(obj["right"]))
    raise ExprError(f"unknown expression node kind {kind!r}")


def expr_dumps(e: LatticeExpr) -> str:
    return json.dumps(expr_to_json(e))


def expr_loads(text: str) -> LatticeExpr:
    return expr_from_json(json.loads(text))
