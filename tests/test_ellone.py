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
    schedule,
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
    s = schedule(0.5)
    assert s.entry(1, 1) == 0.125


def test_schedule_symmetry():
    s = schedule(0.3)
    for i in range(1, 6):
        for j in range(1, 6):
            assert s.entry(i, j) == s.entry(j, i)


def test_schedule_total_converges():
    s = schedule(0.7)
    total = sum(s.entry(i, j) for i in range(1, 41) for j in range(1, 41))
    assert total >= 0.7 - 1e-9
    assert total <= 0.7 + 1e-12


def test_schedule_rejects_out_of_range():
    with pytest.raises(ExtractionError):
        schedule(0.0)
    with pytest.raises(ExtractionError):
        schedule(1.0)
    with pytest.raises(ExtractionError):
        schedule(-0.1)


# ---------------------------------------------------------------------------
# disjoint instance


def test_disjoint_extraction_basics():
    inp = build_disjoint_instance(8)
    res = extract(inp, schedule(0.1), length=4)
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
    res = extract(inp, schedule(0.1), length=4)
    seen = set()
    for y in res.ys:
        sup = {g for g, v in y.items() if v != 0.0}
        assert not (sup & seen)
        seen |= sup


def test_disjoint_family_is_admissible_exactly():
    inp = build_disjoint_instance(8)
    res = extract(inp, schedule(0.1), length=4)
    space = fbl_space(inp.L)
    rep = admissible(as_config(res, inp.L), space, tol=0.0)
    assert rep.ok


def test_disjoint_lower_bounds():
    inp = build_disjoint_instance(8)
    res = extract(inp, schedule(0.1), length=4)
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
    res = extract(inp, schedule(0.1), length=3)
    lam = [scale, -scale, scale]
    zeros = [lambda y: 0.0] * len(inp.fs)
    assert not verify_lower_bound(res, zeros, lam)["pass"]
    rep = verify_lower_bound(res, inp.fs, lam)
    assert rep["certified_value"] == 3 * scale
    assert rep["pass"]


def test_disjoint_random_lambdas():
    inp = build_disjoint_instance(8)
    res = extract(inp, schedule(0.05), length=4)
    rng = np.random.default_rng(71)
    for _ in range(100):
        lam = [float(v) for v in rng.uniform(-3.0, 3.0, 4)]
        rep = verify_lower_bound(res, inp.fs, lam)
        assert rep["pass"]


def test_exhaustion_is_reported_not_raised():
    inp = build_disjoint_instance(3)
    res = extract(inp, schedule(0.1), length=5)
    assert res.exhausted
    assert len(res.selected) < 5
    assert res.exhaustion_note
    assert not res.ok()


def test_transcript_records_oracle_calls():
    inp = build_disjoint_instance(6)
    res = extract(inp, schedule(0.1), length=3)
    assert res.transcript
    for entry in res.transcript:
        assert set(entry) == {"call", "F", "delta", "start", "result"}


# ---------------------------------------------------------------------------
# perturbed instance


def test_perturbed_extraction_succeeds_at_every_budget():
    for eps in (0.05, 0.1, 0.2):
        inp = build_perturbed_instance(10)
        res = extract(inp, schedule(eps), length=3)
        assert not res.exhausted, res.exhaustion_note
        assert len(res.selected) == 3
        sched = schedule(eps)
        for k, v in enumerate(res.f_at_y, start=1):
            assert abs(v - 1.0) <= sched.entry(k, k)


def test_perturbed_family_disjoint_and_admissible():
    inp = build_perturbed_instance(10)
    res = extract(inp, schedule(0.2), length=3)
    seen = set()
    for y in res.ys:
        sup = set(y)
        assert not (sup & seen)
        seen |= sup
    rep = admissible(as_config(res, inp.L), fbl_space(inp.L), tol=0.0)
    assert rep.ok


def test_perturbed_random_lambdas():
    inp = build_perturbed_instance(10)
    res = extract(inp, schedule(0.1), length=3)
    rng = np.random.default_rng(73)
    for _ in range(100):
        lam = [float(v) for v in rng.uniform(-2.0, 2.0, 3)]
        rep = verify_lower_bound(res, inp.fs, lam)
        assert rep["pass"]


def test_strategies_are_reported():
    inp = build_perturbed_instance(10)
    res = extract(inp, schedule(0.2), length=3)
    assert len(res.strategies) == len(res.selected)
    assert set(res.strategies) <= {"greedy", "exhaustive"}


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
        extract(bad, schedule(0.1), length=1)


def test_cube_violation_detected():
    bad = ExtractionInput(
        fs=[lambda y: float(y.get("s1", 0.0)) / 1.5],
        xs=[{"s1": 1.5}],
        L=("s1",),
        N_max=1,
    )
    with pytest.raises(HypothesisViolation):
        extract(bad, schedule(0.1), length=1)


def test_lambda_length_must_match():
    inp = build_disjoint_instance(4)
    res = extract(inp, schedule(0.1), length=2)
    with pytest.raises(ExtractionError):
        verify_lower_bound(res, inp.fs, [1.0, 2.0, 3.0])


def test_requested_length_must_be_positive():
    inp = build_disjoint_instance(4)
    with pytest.raises(ExtractionError):
        extract(inp, schedule(0.1), length=0)


# ---------------------------------------------------------------------------
# cross-check against the exact norm


def test_certified_value_never_beats_the_exact_norm():
    inp = build_disjoint_instance(6)
    res = extract(inp, schedule(0.1), length=3)
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
