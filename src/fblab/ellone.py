"""Subsequence extraction with a disjoint-support dual certificate.

Input: functions f_1..f_N on the cube [-1,1]^L with dual points x_1..x_N
satisfying f_n(x_n) = 1, where each f_n eventually vanishes on any fixed
finite coordinate set.  Pointwise decay is not checkable at a finite
truncation, so the extraction asks instead for a later point that vanishes
exactly on the coordinates already used.

The extraction runs one loop.  Stage k picks the first index m_k > m_{k-1}
whose point x_{m_k} vanishes exactly on the previous coordinate set
F_{m_{k-1}} (a linear scan, recorded in the transcript with delta 0), then
grows F_{m_k} from F_{m_{k-1}} by adding coordinates in decreasing |x_{m_k}|
order until the truncated point y_{m_k} = x_{m_k} restricted to F_{m_k}
satisfies |f_{m_k}(y_{m_k}) - 1| <= eps_kk.  There is no subset search:
the last addition leaves x_{m_k} whole, so greedy growth can fail only when
eps_kk is below the 1e-9 of the hypothesis check.  Because the F sets are
nested and each new point vanishes on the previous set, the y supports are
pairwise disjoint, and disjoint cube truncations form an admissible family
(every coordinate column sums to at most one).

A built stage is kept as term p of the selection when its function is
small at every kept y and its y is small under every kept function, with
thresholds from the epsilon schedule; stage 1 is always kept, and a
rejected stage still extends F.  The loop stops at the requested number of
kept stages, or when no stage can be built, which is an exhaustion report
rather than an exception.  Its note says whether the vanishing scan ran out
of indices or greedy growth missed a stage's window (naming the stage and
its index).

The payoff, checked by verify_lower_bound: for any scalars lambda_k,
sum_i |sum_k lambda_k f_{n_k}(y_i)| >= (1 - eps) * sum_k |lambda_k|, so the
selected subsequence spans an isomorphic copy of ell_1 at scale 1 - eps and
the y family is the replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .homs import build_phi, subset_name

__all__ = [
    "EpsilonSchedule",
    "ExtractionInput",
    "ExtractionResult",
    "ExtractionError",
    "HypothesisViolation",
    "extract",
    "verify_lower_bound",
    "build_disjoint_instance",
    "build_perturbed_instance",
]

POINT_EVAL_TOL = 1e-9


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


@dataclass
class ExtractionResult:
    selected: tuple  # chosen original indices m_{nu_1} < m_{nu_2} < ...
    nu: tuple  # positions within the stage sequence
    stage_indices: tuple  # all m_k built, kept or not
    F_sets: tuple  # F for each selected stage
    ys: tuple  # truncated dual points (dicts) for each selected stage
    f_at_y: tuple  # f_{m_nu_k}(y_{m_nu_k}) for each selected stage
    eps: float
    requested_length: int
    exhausted: bool
    exhaustion_note: str
    transcript: list = field(default_factory=list)


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
    """Find F >= F_prev with |f_n(x_n|F) - 1| <= tol, or None.

    Add coordinates by decreasing |x_n| (ties by generator order), testing
    after each addition, then prune to a minimal set.  x_n vanishes on
    F_prev, so the last test truncates nothing and reads f_n(x_n), which
    the hypothesis check puts within 1e-9 of 1.
    """
    x = inp.xs[n - 1]
    f = inp.fs[n - 1]
    support = [c for c in inp.L if x.get(c, 0.0) != 0.0 and c not in F_prev]
    support.sort(key=lambda c: -abs(x[c]))  # stable: ties keep L's order
    for r in range(len(support) + 1):
        F = list(F_prev) + support[:r]
        if abs(f(_truncate(x, F)) - 1.0) <= tol:
            return _prune_F(f, x, F_prev, F, tol)
    return None


def extract(
    inp: ExtractionInput, sched: EpsilonSchedule, length: int = 4
) -> ExtractionResult:
    """Build, thin and keep stages in one loop; see the module docstring."""
    if length < 1:
        raise ExtractionError("requested length must be positive")
    transcript: list = []
    stages: list = []
    nu: list = []
    F: tuple = ()
    start = 1
    miss = ""
    while len(nu) < length:
        n = next((m for m in range(start, inp.N_max + 1)
                  if all(inp.xs[m - 1].get(c, 0.0) == 0.0 for c in F)), None)
        transcript.append(
            {"call": len(transcript) + 1, "F": list(F), "delta": 0.0,
             "start": start, "result": n}
        )
        if n is None:
            break
        _check_hypotheses(inp, n)
        k = len(stages) + 1
        F = _grow_F(inp, n, F, sched.entry(k, k))
        if F is None:
            miss = f"greedy growth misses the window of stage {k} at index {n}"
            break
        f = inp.fs[n - 1]
        y = _truncate(inp.xs[n - 1], F)
        stages.append(_Stage(n, F, y, f(y)))
        start = n + 1
        p = len(nu) + 1
        kept = (stages[i - 1] for i in nu)
        if all(abs(f(st.y)) <= sched.entry(j, p)
               and abs(inp.fs[st.m - 1](y)) <= sched.entry(p, j)
               for j, st in enumerate(kept, start=1)):
            nu.append(k)

    exhausted = len(nu) < length
    if miss or not exhausted:
        note = miss
    elif nu:
        note = f"ran out of stages while selecting term {len(nu) + 1}"
    else:
        note = "no stage satisfies the vanishing step"
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
