"""Subsequence extraction with a disjoint-support dual certificate.

Input: functions f_1..f_N on the cube [-1,1]^L with dual points x_1..x_N
satisfying f_n(x_n) = 1, where each f_n eventually vanishes on any fixed
finite coordinate set.  Pointwise decay is not checkable at a finite
truncation, so the extraction asks instead for a later point that vanishes
exactly on the coordinates already used.

The extraction runs two passes.

Pass (a) builds stages: stage k picks the first index m_k > m_{k-1} whose
point x_{m_k} vanishes exactly on the previous coordinate set F_{m_{k-1}}
(a linear scan, recorded in the transcript with delta 0), then grows
F_{m_k} from F_{m_{k-1}} by adding coordinates in decreasing |x_{m_k}|
order until the truncated point y_{m_k} = x_{m_k} restricted to F_{m_k}
satisfies |f_{m_k}(y_{m_k}) - 1| <= eps_kk.  Greedy growth can miss a
valid F for non-monotone f, so a capped exhaustive subset search is the
fallback; the result records which strategy produced each stage.
Because the F sets are nested and each new point vanishes on the previous
set, the y supports are pairwise disjoint, and disjoint cube truncations
form an admissible family (every coordinate column sums to at most one).

Pass (b) thins the stages: nu_1 = 1, and nu_p is the first later stage
whose function is small at all chosen y's and whose y is small under all
chosen functions, with thresholds from the epsilon schedule.  Stages are
created lazily while pass (b) scans, and running out of indices is an
exhaustion report rather than an exception.

The payoff, checked by verify_lower_bound: for any scalars lambda_k,
sum_i |sum_k lambda_k f_{n_k}(y_i)| >= (1 - eps) * sum_k |lambda_k|, so the
selected subsequence spans an isomorphic copy of ell_1 at scale 1 - eps and
the y family is the replayable certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .homs import build_phi, subset_name

__all__ = [
    "EpsilonSchedule",
    "ExtractionInput",
    "ExtractionResult",
    "ExtractionError",
    "HypothesisViolation",
    "schedule",
    "extract",
    "verify_lower_bound",
    "build_disjoint_instance",
    "build_perturbed_instance",
]

POINT_EVAL_TOL = 1e-9
EXHAUSTIVE_CAP = 100_000


class ExtractionError(ValueError):
    pass


class HypothesisViolation(ExtractionError):
    pass


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps_{ij} = eps * 2^-(i+j): symmetric, and the double series sums to eps."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ExtractionError("epsilon must lie strictly between 0 and 1")

    def entry(self, i: int, j: int) -> float:
        if i < 1 or j < 1:
            raise ExtractionError("schedule indices start at 1")
        return self.eps * 2.0 ** (-(i + j))


def schedule(eps: float) -> EpsilonSchedule:
    return EpsilonSchedule(eps)


@dataclass
class ExtractionInput:
    """The extraction hypotheses packaged as evaluators.

    fs[n] is a callable on points given as dicts over L; xs[n] is the dual
    point with fs[n](xs[n]) = 1 (checked lazily, within 1e-9, the first
    time an index is touched).
    """

    fs: Sequence[Callable]
    xs: Sequence[dict]
    L: tuple
    N_max: int

    def __post_init__(self):
        if self.N_max > min(len(self.fs), len(self.xs)):
            raise ExtractionError("N_max exceeds the provided families")
        if self.N_max < 1:
            raise ExtractionError("need at least one index")
        self.L = tuple(self.L)


@dataclass
class _Stage:
    m: int
    F: tuple
    y: dict
    f_at_y: float
    strategy: str


@dataclass
class ExtractionResult:
    selected: tuple  # chosen original indices m_{nu_1} < m_{nu_2} < ...
    nu: tuple  # positions within the stage sequence
    stage_indices: tuple  # all m_k built by pass (a)
    F_sets: tuple  # F for each selected stage
    ys: tuple  # truncated dual points (dicts) for each selected stage
    f_at_y: tuple  # f_{m_nu_k}(y_{m_nu_k}) for each selected stage
    eps: float
    requested_length: int
    exhausted: bool
    exhaustion_note: str
    strategies: tuple  # per selected stage: "greedy" or "exhaustive"
    transcript: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.exhausted


def _check_hypotheses(inp: ExtractionInput, n: int) -> None:
    x = inp.xs[n - 1]
    for c, v in x.items():
        if abs(v) > 1.0 + 1e-12:
            raise HypothesisViolation(f"x_{n} leaves the cube at coordinate {c!r}")
    val = inp.fs[n - 1](x)
    if abs(val - 1.0) > POINT_EVAL_TOL:
        raise HypothesisViolation(f"f_{n}(x_{n}) = {val!r}, expected 1 within 1e-9")


def _truncate(x: dict, F) -> dict:
    return {c: x[c] for c in F if c in x and x[c] != 0.0}


def _prune_F(f, x, F_prev: tuple, F: list, tol: float) -> tuple:
    """Drop added coordinates that are not needed to stay inside the window.

    Minimality matters beyond tidiness: every later stage must vanish on
    this F, so an F padded with incidental coordinates can wall off the
    rest of the family.  Only coordinates beyond F_prev are candidates, so
    nesting is preserved.
    """
    keep = list(F)
    for c in reversed(F[len(F_prev):]):
        trial = [d for d in keep if d != c]
        if abs(f(_truncate(x, trial)) - 1.0) <= tol:
            keep = trial
    return tuple(keep)


def _grow_F(inp: ExtractionInput, n: int, F_prev: tuple, tol: float):
    """Find F >= F_prev with |f_n(x_n|F) - 1| <= tol.

    Greedy first: add coordinates by decreasing |x_n| (ties by generator
    order), testing after each addition, then prune to a minimal set.
    Fallback: exhaustive search over subsets of x_n's support, smallest
    first, capped.
    """
    x = inp.xs[n - 1]
    f = inp.fs[n - 1]
    support = [c for c in inp.L if x.get(c, 0.0) != 0.0 and c not in F_prev]
    order = {c: i for i, c in enumerate(inp.L)}
    support.sort(key=lambda c: (-abs(x[c]), order[c]))

    F = list(F_prev)
    if abs(f(_truncate(x, F)) - 1.0) <= tol:
        return tuple(F), "greedy"
    for c in support:
        F.append(c)
        if abs(f(_truncate(x, F)) - 1.0) <= tol:
            return _prune_F(f, x, F_prev, F, tol), "greedy"

    tried = 0
    for r in range(len(support) + 1):
        for combo in itertools.combinations(support, r):
            tried += 1
            if tried > EXHAUSTIVE_CAP:
                return None, "exhausted"
            F = list(F_prev) + list(combo)
            if abs(f(_truncate(x, F)) - 1.0) <= tol:
                return tuple(F), "exhaustive"
    return None, "exhausted"


def extract(
    inp: ExtractionInput, sched: EpsilonSchedule, length: int = 4
) -> ExtractionResult:
    """Run both passes; see the module docstring for the algorithm."""
    if length < 1:
        raise ExtractionError("requested length must be positive")
    transcript: list = []
    stages: list = []

    def build_next_stage() -> bool:
        k = len(stages) + 1
        prev_F = stages[-1].F if stages else ()
        start = (stages[-1].m + 1) if stages else 1
        n = next((m for m in range(start, inp.N_max + 1)
                  if all(inp.xs[m - 1].get(c, 0.0) == 0.0 for c in prev_F)), None)
        transcript.append(
            {"call": len(transcript) + 1, "F": list(prev_F), "delta": 0.0,
             "start": start, "result": n}
        )
        if n is None:
            return False
        _check_hypotheses(inp, n)
        tol = sched.entry(k, k)
        F, strategy = _grow_F(inp, n, prev_F, tol)
        if F is None:
            return False
        y = _truncate(inp.xs[n - 1], F)
        stages.append(_Stage(n, F, y, inp.fs[n - 1](y), strategy))
        return True

    def ensure_stage(k: int) -> bool:
        while len(stages) < k:
            if not build_next_stage():
                return False
        return True

    exhausted = False
    note = ""
    nu: list = []
    while len(nu) < length:
        p = len(nu) + 1
        if p == 1:
            if not ensure_stage(1):
                exhausted, note = True, "no stage satisfies the vanishing step"
                break
            nu.append(1)
            continue
        cand = nu[-1] + 1
        found = False
        while True:
            if not ensure_stage(cand):
                exhausted = True
                note = f"ran out of stages while selecting term {p}"
                break
            st = stages[cand - 1]
            ok = True
            for j, nj in enumerate(nu, start=1):
                prev = stages[nj - 1]
                if abs(inp.fs[st.m - 1](prev.y)) > sched.entry(j, p):
                    ok = False
                    break
                if abs(inp.fs[prev.m - 1](st.y)) > sched.entry(p, j):
                    ok = False
                    break
            if ok:
                nu.append(cand)
                found = True
                break
            cand += 1
        if not found:
            break

    chosen = [stages[i - 1] for i in nu]
    return ExtractionResult(
        selected=tuple(st.m for st in chosen),
        nu=tuple(nu),
        stage_indices=tuple(st.m for st in stages),
        F_sets=tuple(st.F for st in chosen),
        ys=tuple(dict(st.y) for st in chosen),
        f_at_y=tuple(st.f_at_y for st in chosen),
        eps=sched.eps,
        requested_length=length,
        exhausted=exhausted,
        exhaustion_note=note,
        strategies=tuple(st.strategy for st in chosen),
        transcript=transcript,
    )


def verify_lower_bound(res: ExtractionResult, fs, lambdas: Sequence[float]) -> dict:
    """Certify ||sum_k lambda_k f_{n_k}|| >= (1 - eps) sum |lambda_k|.

    The certificate family is res.ys; the certified value is
    sum_i |sum_k lambda_k f_{n_k}(y_i)|, a true lower bound because the
    family is admissible.  It passes within a relative slack of 1e-9.
    """
    lambdas = list(lambdas)
    if len(lambdas) != len(res.selected):
        raise ExtractionError("lambda length does not match the selection")
    certified = 0.0
    for y in res.ys:
        s = sum(lam * fs[n - 1](y) for lam, n in zip(lambdas, res.selected))
        certified += abs(s)
    bound = (1.0 - res.eps) * sum(abs(l) for l in lambdas)
    return {
        "certified_value": certified,
        "bound": bound,
        "pass": certified >= bound - 1e-9 * bound,
        "lambdas": lambdas,
    }


# ---------------------------------------------------------------------------
# demo instance families over the subset generators


def build_disjoint_instance(N: int = 8) -> ExtractionInput:
    """f_n = delta over the singleton {n}; x_n = the subset indicator point.

    Truncating x_n to F = {singleton n} leaves the unit coordinate vector,
    so every stage lands on f value exactly 1 with slack 0.
    """
    inst = build_phi(N)
    gens = inst.generators
    fs = []
    xs = []
    for n in range(1, N + 1):
        name = f"s{n}"
        fs.append(lambda y, _name=name: float(y.get(_name, 0.0)))
        xs.append(
            {g: float(v) for g, v in zip(gens, inst.chi_points[n - 1]) if v != 0.0}
        )
    return ExtractionInput(fs=fs, xs=xs, L=gens, N_max=N)


def build_perturbed_instance(N: int = 10) -> ExtractionInput:
    """f_n = delta_{singleton n} + 2^-n * delta_{full prefix {1..n}}.

    The points are the subset indicators rescaled by 1/(1 + 2^-n) so that
    f_n(x_n) = 1 holds exactly; the rescaling keeps supports and the
    vanishing pattern intact.  Growing F greedily meets the stage target
    once the singleton coordinate joins F and the prefix coordinate stays
    out (or contributes within tolerance).
    """
    inst = build_phi(N)
    gens = inst.generators
    fs = []
    xs = []
    for n in range(1, N + 1):
        single = f"s{n}"
        prefix = subset_name(range(1, n + 1))
        w = 2.0 ** (-n)

        def f(y, _s=single, _p=prefix, _w=w):
            return float(y.get(_s, 0.0)) + _w * float(y.get(_p, 0.0))

        fs.append(f)
        scale = 1.0 / (1.0 + w)
        xs.append(
            {
                g: scale * float(v)
                for g, v in zip(gens, inst.chi_points[n - 1])
                if v != 0.0
            }
        )
    return ExtractionInput(fs=fs, xs=xs, L=gens, N_max=N)
