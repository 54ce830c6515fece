"""Subsequence extraction and its disjoint dual certificates."""

import numpy as np
import pytest

from fblab.ellone import (
    EpsilonSchedule,
    ExtractionError,
    ExtractionInput,
    HypothesisViolation,
    build_disjoint_instance,
    build_perturbed_instance,
    extract,
    verify_lower_bound,
)
from fblab.expr import Gen, Scale, Sum
from fblab.fblnorm import DualConfig, admissible, fbl_space, norm_of_expression


def as_config(res, generators):
    rows = []
    for y in res.ys:
        rows.append(tuple(float(y.get(g, 0.0)) for g in generators))
    return DualConfig(tuple(rows))


# ---------------------------------------------------------------------------
# the epsilon schedule


def test_schedule_entry_value():
    s = EpsilonSchedule(0.5)
    assert s.entry(1, 1) == 0.125


def test_schedule_symmetry():
    s = EpsilonSchedule(0.3)
    for i in range(1, 6):
        for j in range(1, 6):
            assert s.entry(i, j) == s.entry(j, i)


def test_schedule_total_converges():
    s = EpsilonSchedule(0.7)
    total = sum(s.entry(i, j) for i in range(1, 41) for j in range(1, 41))
    assert total >= 0.7 - 1e-9
    assert total <= 0.7 + 1e-12


def test_schedule_rejects_out_of_range():
    with pytest.raises(ExtractionError):
        EpsilonSchedule(0.0)
    with pytest.raises(ExtractionError):
        EpsilonSchedule(1.0)
    with pytest.raises(ExtractionError):
        EpsilonSchedule(-0.1)


# ---------------------------------------------------------------------------
# disjoint instance


def test_disjoint_extraction_basics():
    inp = build_disjoint_instance(8)
    res = extract(inp, EpsilonSchedule(0.1), length=4)
    assert not res.exhausted
    assert len(res.selected) == 4
    assert list(res.nu) == sorted(res.nu)
    # each truncation is the bare unit coordinate, so f lands exactly on 1
    for n, y, v in zip(res.selected, res.ys, res.f_at_y):
        assert v == 1.0
        assert set(y) == {f"s{n}"}
        assert y[f"s{n}"] == 1.0


def test_disjoint_supports_are_disjoint():
    inp = build_disjoint_instance(8)
    res = extract(inp, EpsilonSchedule(0.1), length=4)
    seen = set()
    for y in res.ys:
        sup = {g for g, v in y.items() if v != 0.0}
        assert not (sup & seen)
        seen |= sup


def test_disjoint_family_is_admissible_exactly():
    inp = build_disjoint_instance(8)
    res = extract(inp, EpsilonSchedule(0.1), length=4)
    space = fbl_space(inp.L)
    rep = admissible(as_config(res, inp.L), space)
    assert rep.worst_sum <= 1.0


def test_disjoint_lower_bounds():
    inp = build_disjoint_instance(8)
    res = extract(inp, EpsilonSchedule(0.1), length=4)
    rep = verify_lower_bound(res, inp.fs, [1.0, 1.0, 1.0, 1.0])
    assert rep["certified_value"] == pytest.approx(4.0, abs=1e-12)
    assert rep["bound"] == pytest.approx(3.6, abs=1e-12)
    assert rep["pass"]
    rep = verify_lower_bound(res, inp.fs, [1.0, -1.0, 2.0, -2.0])
    assert rep["certified_value"] == pytest.approx(6.0, abs=1e-12)
    assert rep["pass"]
    rep = verify_lower_bound(res, inp.fs, [0.0, 0.0, 0.0, 0.0])
    assert rep["certified_value"] == 0.0
    assert rep["pass"]


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_lower_bound_slack_is_relative(scale):
    # a zero family certifies nothing at any lambda scale; the disjoint
    # family certifies sum |lambda| at every scale
    inp = build_disjoint_instance(6)
    res = extract(inp, EpsilonSchedule(0.1), length=3)
    lam = [scale, -scale, scale]
    zeros = [lambda y: 0.0] * len(inp.fs)
    assert not verify_lower_bound(res, zeros, lam)["pass"]
    rep = verify_lower_bound(res, inp.fs, lam)
    assert rep["certified_value"] == 3 * scale
    assert rep["pass"]


def test_disjoint_random_lambdas():
    inp = build_disjoint_instance(8)
    res = extract(inp, EpsilonSchedule(0.05), length=4)
    rng = np.random.default_rng(71)
    for _ in range(100):
        lam = [float(v) for v in rng.uniform(-3.0, 3.0, 4)]
        rep = verify_lower_bound(res, inp.fs, lam)
        assert rep["pass"]


def test_exhaustion_is_reported_not_raised():
    inp = build_disjoint_instance(3)
    res = extract(inp, EpsilonSchedule(0.1), length=5)
    assert res.exhausted
    assert res.exhaustion_note == "ran out of stages while selecting term 4"
    assert res.selected == (1, 2, 3)
    assert res.nu == (1, 2, 3)
    assert res.stage_indices == (1, 2, 3)
    assert [entry["result"] for entry in res.transcript] == [1, 2, 3, None]
    assert res.transcript[-1]["start"] == 4


def test_transcript_records_oracle_calls():
    inp = build_disjoint_instance(6)
    res = extract(inp, EpsilonSchedule(0.1), length=3)
    assert res.transcript
    for entry in res.transcript:
        assert set(entry) == {"call", "F", "delta", "start", "result"}


# ---------------------------------------------------------------------------
# perturbed instance


def test_perturbed_extraction_succeeds_at_every_budget():
    for eps in (0.05, 0.1, 0.2):
        inp = build_perturbed_instance(10)
        res = extract(inp, EpsilonSchedule(eps), length=3)
        assert not res.exhausted, res.exhaustion_note
        assert len(res.selected) == 3
        sched = EpsilonSchedule(eps)
        for k, v in enumerate(res.f_at_y, start=1):
            assert abs(v - 1.0) <= sched.entry(k, k)


def test_perturbed_family_disjoint_and_admissible():
    inp = build_perturbed_instance(10)
    res = extract(inp, EpsilonSchedule(0.2), length=3)
    seen = set()
    for y in res.ys:
        sup = set(y)
        assert not (sup & seen)
        seen |= sup
    rep = admissible(as_config(res, inp.L), fbl_space(inp.L))
    assert rep.worst_sum <= 1.0


def test_perturbed_random_lambdas():
    inp = build_perturbed_instance(10)
    res = extract(inp, EpsilonSchedule(0.1), length=3)
    rng = np.random.default_rng(73)
    for _ in range(100):
        lam = [float(v) for v in rng.uniform(-2.0, 2.0, 3)]
        rep = verify_lower_bound(res, inp.fs, lam)
        assert rep["pass"]


# ---------------------------------------------------------------------------
# stage rejection and exhaustion, pinned field by field


def cross_term_instance(N, w):
    """f_n = e_n + w*e_{n+1} and x_n = e_n over coordinates c1..c{N+1}.

    Each stage truncates to its own unit vector, so stage n+1 is rejected
    against a kept stage n exactly when w exceeds the schedule entry.
    """
    L = tuple(f"c{i}" for i in range(1, N + 2))
    fs = [lambda y, a=L[n], b=L[n + 1]: float(y.get(a, 0.0)) + w * float(y.get(b, 0.0))
          for n in range(N)]
    xs = [{L[n]: 1.0} for n in range(N)]
    return ExtractionInput(fs=fs, xs=xs, L=L, N_max=N)


def scan(call, F, start, result):
    return {"call": call, "F": F, "delta": 0.0, "start": start, "result": result}


@pytest.mark.parametrize("w,selected,built", [
    # entry(2, 1) = 0.0125 < w: stage 2 fails against stage 1, 4 against 3
    (0.05, (1, 3, 5), (1, 2, 3, 4, 5)),
    # w passes entry(2, 1) but not entry(3, 2) = 0.003125
    (0.005, (1, 2, 4), (1, 2, 3, 4)),
])
def test_thinning_rejects_a_stage_whose_cross_term_exceeds_its_entry(w, selected, built):
    res = extract(cross_term_instance(6, w), EpsilonSchedule(0.1), length=3)
    assert not res.exhausted and res.exhaustion_note == ""
    assert res.selected == selected
    assert res.nu == selected
    assert res.stage_indices == built
    assert res.ys == tuple({f"c{n}": 1.0} for n in selected)
    assert res.F_sets[-1] == tuple(f"c{i}" for i in range(1, selected[-1] + 1))
    assert res.transcript == [
        scan(k, [f"c{i}" for i in range(1, k)], k, k) for k in built
    ]


def test_exhaustion_after_a_rejected_stage():
    res = extract(cross_term_instance(4, 0.05), EpsilonSchedule(0.1), length=3)
    assert res.exhausted
    assert res.exhaustion_note == "ran out of stages while selecting term 3"
    assert res.selected == (1, 3)
    assert res.nu == (1, 3)
    assert res.stage_indices == (1, 2, 3, 4)
    assert res.transcript == [
        scan(k, [f"c{i}" for i in range(1, k)], k, k) for k in range(1, 5)
    ] + [scan(5, ["c1", "c2", "c3", "c4"], 5, None)]


def test_a_stage_that_misses_its_window_ends_the_extraction():
    # f(x) = 1 + 5e-10 meets the hypothesis (within 1e-9) but not the stage-1
    # window eps/4 = 2.5e-13
    inp = ExtractionInput(
        fs=[lambda y: (1.0 + 5e-10) * float(y.get("c", 0.0))],
        xs=[{"c": 1.0}],
        L=("c",),
        N_max=1,
    )
    res = extract(inp, EpsilonSchedule(1e-12), length=2)
    assert res.exhausted
    assert res.exhaustion_note == "greedy growth misses the window of stage 1 at index 1"
    assert res.selected == () and res.nu == () and res.stage_indices == ()
    assert res.transcript == [scan(1, [], 1, 1)]


def test_a_growth_miss_names_its_stage_and_index():
    # stage 1 is x_1 itself; x_2 does not vanish on F = (c1), so stage 2 is
    # index 3, whose f misses the stage-2 window by 5e-10
    inp = ExtractionInput(
        fs=[lambda y: float(y.get("c1", 0.0)), lambda y: float(y.get("c1", 0.0)),
            lambda y: (1.0 + 5e-10) * float(y.get("c3", 0.0))],
        xs=[{"c1": 1.0}, {"c1": 1.0}, {"c3": 1.0}],
        L=("c1", "c2", "c3"),
        N_max=3,
    )
    res = extract(inp, EpsilonSchedule(1e-12), length=2)
    assert res.exhausted
    assert res.exhaustion_note == "greedy growth misses the window of stage 2 at index 3"
    assert res.selected == (1,) and res.nu == (1,) and res.stage_indices == (1,)
    assert res.transcript == [scan(1, [], 1, 1), scan(2, ["c1"], 2, 3)]


def test_growth_is_greedy_only():
    # no prefix of the |x| order meets the window, only the subset {c2};
    # growth does not search subsets, so no stage is built
    inp = ExtractionInput(
        fs=[lambda y: 2.0 * float(y.get("c2", 0.0)) + 5e-10 * float(y.get("c1", 0.0))],
        xs=[{"c1": 1.0, "c2": 0.5}],
        L=("c1", "c2"),
        N_max=1,
    )
    res = extract(inp, EpsilonSchedule(1e-12), length=1)
    assert res.exhausted
    assert res.exhaustion_note == "greedy growth misses the window of stage 1 at index 1"
    assert res.selected == () and res.stage_indices == ()
    assert res.transcript == [scan(1, [], 1, 1)]


# ---------------------------------------------------------------------------
# input validation


def test_hypothesis_violation_detected():
    bad = ExtractionInput(
        fs=[lambda y: 2.0 * float(y.get("s1", 0.0))],
        xs=[{"s1": 1.0}],
        L=("s1",),
        N_max=1,
    )
    with pytest.raises(HypothesisViolation):
        extract(bad, EpsilonSchedule(0.1), length=1)


def test_cube_violation_detected():
    bad = ExtractionInput(
        fs=[lambda y: float(y.get("s1", 0.0)) / 1.5],
        xs=[{"s1": 1.5}],
        L=("s1",),
        N_max=1,
    )
    with pytest.raises(HypothesisViolation):
        extract(bad, EpsilonSchedule(0.1), length=1)


def test_lambda_length_must_match():
    inp = build_disjoint_instance(4)
    res = extract(inp, EpsilonSchedule(0.1), length=2)
    with pytest.raises(ExtractionError):
        verify_lower_bound(res, inp.fs, [1.0, 2.0, 3.0])


def test_requested_length_must_be_positive():
    inp = build_disjoint_instance(4)
    with pytest.raises(ExtractionError):
        extract(inp, EpsilonSchedule(0.1), length=0)


# ---------------------------------------------------------------------------
# cross-check against the exact norm


def test_certified_value_never_beats_the_exact_norm():
    inp = build_disjoint_instance(6)
    res = extract(inp, EpsilonSchedule(0.1), length=3)
    rng = np.random.default_rng(79)
    names = [f"s{n}" for n in res.selected]
    for _ in range(5):
        lam = [float(v) for v in rng.uniform(-2.0, 2.0, 3)]
        e = Sum(
            Sum(Scale(lam[0], Gen(names[0])), Scale(lam[1], Gen(names[1]))),
            Scale(lam[2], Gen(names[2])),
        )
        bracket = norm_of_expression(e, fbl_space(tuple(names)))
        rep = verify_lower_bound(res, inp.fs, lam)
        assert float(bracket.upper) >= rep["certified_value"] - 1e-9
