"""Command-line front end: run reports, determinism, exit codes."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fblab import ckretract, cli, fblnorm, homs, plfan
from fblab.expr import MAX_DEPTH, Scale, parse_expr, support
from fblab.lp import LPError


DATA = Path(__file__).parent / "data"


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def run_cli(capsys, argv):
    """Run fblab in-process; the report must be strict JSON (no NaN or
    Infinity)."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    report = (json.loads(captured.out, parse_constant=_reject_constant)
              if captured.out.strip() else None)
    return code, report, captured.err


# ---------------------------------------------------------------------------
# report shape and determinism


def test_report_shape():
    code = cli.run(["norm", "--expr", "d(a)", "--json-only"])
    assert code == 0


def test_report_keys_and_config(capsys):
    code, rep, err = run_cli(capsys, ["norm", "--expr", "d(a)", "--json-only"])
    assert code == 0
    assert set(rep) == {
        "schema", "subcommand", "config", "seed", "arithmetic",
        "payload", "wall_time_s",
    }
    assert rep["schema"] == 1
    assert rep["subcommand"] == "norm"
    assert rep["seed"] is None
    assert rep["arithmetic"] == "float"
    assert "func" not in rep["config"]
    assert rep["config"]["expr"] == "d(a)"
    assert "wall_time_s" not in rep["payload"]
    assert err == ""


def test_summary_goes_to_stderr_unless_json_only(capsys):
    code, rep, err = run_cli(capsys, ["norm", "--expr", "d(a)"])
    assert code == 0
    assert err == "norm d(a) over l1: 1.0\n"


def test_payload_is_deterministic(capsys):
    argv = ["oracle", "--expr", "d(a) v d(b)", "--budget", "2000",
            "--seed", "5", "--json-only"]
    _, r1, _ = run_cli(capsys, argv)
    _, r2, _ = run_cli(capsys, argv)
    assert r1["payload"] == r2["payload"]
    assert r1["config"] == r2["config"]
    assert r1["payload"]["diagnostics"]["accepted_moves"] > 0


# ---------------------------------------------------------------------------
# norm


def test_norm_join_value_two(capsys):
    code, rep, _ = run_cli(
        capsys, ["norm", "--expr", "d(a) v d(b)", "--json-only"]
    )
    assert code == 0
    p = rep["payload"]
    assert p["value"] == pytest.approx(2.0, abs=1e-9)
    assert p["lower"] == pytest.approx(p["upper"], abs=1e-9)
    assert p["generators"] == ["a", "b"]
    assert p["certificate_points"]
    assert p["diagnostics"]["candidate_rays"] == 3  # the lines of a, b and a - b
    assert p["diagnostics"]["rays_used"] == len(p["certificate_points"])


def test_norm_exact_mode_reports_fraction(capsys):
    code, rep, _ = run_cli(
        capsys,
        ["norm", "--expr", "0.5*d(a) - 1.25*d(b)", "--exact", "--json-only"],
    )
    assert code == 0
    assert rep["arithmetic"] == "rational"
    assert rep["payload"]["exact_value"] == "7/4"
    assert rep["payload"]["value"] == pytest.approx(1.75, abs=1e-12)


def test_norm_linf_space(capsys):
    # over the sign-vector ball the vertex (1, 1) bounds the sum directly
    code, rep, _ = run_cli(
        capsys,
        ["norm", "--expr", "d(a) + d(b)", "--space", "linf", "--json-only"],
    )
    assert code == 0
    assert rep["payload"]["space"] == "linf"
    assert rep["payload"]["value"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("expr,upper", [
    ("1000000000.0*(-1.148*d(b) + ((d(b) v -1.0*d(b)) + d(b)) + d(a))", 2.148e9),
    ("1000000000000.0*(0.868*(d(b) v 1.522*d(a)))", 0.868 * 2.522e12),
])
def test_norm_bracket_check_is_relative_at_large_magnitude(capsys, expr, upper):
    # lower exceeds upper by a few ulps, far more than an absolute 1e-9
    code, rep, _ = run_cli(capsys, ["norm", "--expr", expr, "--json-only"])
    p = rep["payload"]
    assert p["lower"] > p["upper"] + 1e-9
    assert code == 0
    assert p["upper"] == pytest.approx(upper, rel=1e-12)


def test_norm_bracket_check_is_relative_at_small_magnitude(capsys, monkeypatch):
    # a lower bound a relative 1e-6 above upper fails, however small upper is
    real = fblnorm.exact_fbl_norm

    def inflated(*args, **kwargs):
        br = real(*args, **kwargs)
        return dataclasses.replace(br, lower=br.upper * (1 + 1e-6))

    monkeypatch.setattr(fblnorm, "exact_fbl_norm", inflated)
    code, rep, _ = run_cli(capsys, ["norm", "--expr", "1e-12*d(a)", "--json-only"])
    assert rep["payload"]["upper"] == pytest.approx(1e-12, rel=1e-12)
    assert code == 1


# ---------------------------------------------------------------------------
# certificates through the CLI


def test_norm_writes_replayable_certificate(tmp_path, capsys):
    cert = tmp_path / "join.cert.json"
    code, rep, _ = run_cli(
        capsys,
        ["norm", "--expr", "d(a) v d(b)", "--cert", str(cert), "--json-only"],
    )
    assert code == 0
    assert rep["payload"]["certificate_path"] == str(cert)
    assert cert.exists()

    code, rep, _ = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 0
    assert rep["payload"]["pass"] is True
    assert rep["payload"]["value_matches"] is True
    assert rep["payload"]["admissible"] is True


def test_replay_rejects_tampered_certificate(tmp_path, capsys):
    cert = tmp_path / "t.cert.json"
    run_cli(capsys, ["norm", "--expr", "d(a) v d(b)", "--cert", str(cert),
                     "--json-only"])
    doc = json.loads(cert.read_text())
    doc["value"] = doc["value"] + 0.5
    cert.write_text(json.dumps(doc))
    code, rep, _ = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 1
    assert rep["payload"]["value_matches"] is False


@pytest.mark.parametrize("h, points, value", [
    # a third coordinate was dropped by admissibility, and a point of
    # length 3 was evaluated outside its sector: ||Sh|| = 1, not 99.9
    ("0:0,1/100:1,1:1", [[0.001, 0.999, 0.0]], 99.9),
    # NaN made every vertex sum NaN, which never exceeded the worst sum
    ("0:1,1:1", [[1.0, float("nan")]] * 5, 5.0),
], ids=["extra-coordinate", "nan-coordinate"])
def test_replay_rejects_malformed_points(tmp_path, capsys, h, points, value):
    cert = tmp_path / "forged.cert.json"
    code, _, _ = run_cli(capsys, ["ck-section", "--k", "interval", "--h", h,
                                  "--cert", str(cert), "--json-only"])
    assert code == 0
    doc = json.loads(cert.read_text())
    doc.update(points=points, value=value, claimed_norm=value)
    cert.write_text(json.dumps(doc))
    code, rep, err = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 1
    p = rep["payload"]
    assert p["pass"] is False
    assert p["well_formed"] is False
    assert p["value"] == "nan"
    assert err == ""


def test_replay_missing_file_is_usage_error(capsys):
    code, rep, err = run_cli(capsys, ["replay-cert", "/nonexistent/x.json",
                                      "--json-only"])
    assert code == 2
    assert rep is None
    assert "error:" in err


@pytest.mark.parametrize("edit, problem", [
    # each of the first three used to end in a bare TypeError, KeyError
    # 'space', or a replay as if of schema 1
    (lambda doc: [1], "not a JSON object"),
    (lambda doc: {}, "lacks kind, schema, space"),
    (lambda doc: {**doc, "schema": 2}, "schema is 2, not 1"),
    (lambda doc: {**doc, "kind": "fbl-norm-report"},
     "kind is 'fbl-norm-report', not 'fbl-norm-certificate'"),
    (lambda doc: {**doc, "space": {"generators": ["a", "b"]}}, "space is not an object"),
    (lambda doc: {**doc, "points": [1.0, 0.0]}, "points are not a list of lists"),
    (lambda doc: {**doc, "mode": "upper"}, "mode is 'upper', not 'lower' or 'exact'"),
], ids=["list", "empty", "schema", "kind", "space", "points", "mode"])
def test_replay_names_what_is_wrong_with_a_malformed_certificate(
        tmp_path, capsys, edit, problem):
    cert = tmp_path / "c.cert.json"
    run_cli(capsys, ["norm", "--expr", "d(a) v d(b)", "--cert", str(cert), "--json-only"])
    cert.write_text(json.dumps(edit(json.loads(cert.read_text()))))
    code, rep, err = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 2
    assert rep is None
    assert err.startswith("error: certificate ") and problem in err
    assert err.count("\n") == 1


def test_oracle_certificate_replays(tmp_path, capsys):
    cert = tmp_path / "o.cert.json"
    code, rep, _ = run_cli(
        capsys,
        ["oracle", "--expr", "d(a) - d(b)", "--budget", "2000",
         "--cert", str(cert), "--json-only"],
    )
    assert code == 0
    code, rep, _ = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 0
    assert rep["payload"]["mode"] == "lower"


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("text", ["1e-320*d(a)", "1e-320*(d(a) v d(b))"])
def test_oracle_at_subnormal_scale(capsys, text):
    """F's values are subnormal here, and a purely relative homogeneity
    check rejected the evaluator with exit 2."""
    code, rep, _ = run_cli(capsys, ["oracle", "--expr", text, "--budget", "4000",
                                    "--json-only"])
    assert code == 0
    _, norm, _ = run_cli(capsys, ["norm", "--expr", text, "--json-only"])
    exact = norm["payload"]["upper"]
    assert 0 < rep["payload"]["lower"] <= exact * (1 + 1e-3)


def test_oracle_single_generator(capsys):
    code, rep, _ = run_cli(
        capsys, ["oracle", "--expr", "d(a)", "--budget", "2000", "--json-only"]
    )
    assert code == 0
    p = rep["payload"]
    assert p["upper"] == "inf"
    assert abs(p["lower"] - 1.0) <= 1e-6
    assert p["diagnostics"]["evaluations"] <= 2000
    # |x_a| over the boundary scale is 1 for every family: no move improves.
    assert p["diagnostics"]["accepted_moves"] == 0


# ---------------------------------------------------------------------------
# product bound check


def test_lemma34_check(capsys):
    code, rep, _ = run_cli(
        capsys,
        ["lemma34-check", "--expr", "d(a) - d(b)", "--gen", "a",
         "--budget", "2000", "--json-only"],
    )
    assert code == 0
    p = rep["payload"]
    assert p["pass"] is True
    assert p["sup_norm"] == pytest.approx(2.0, abs=1e-12)
    assert p["best_lower"] <= p["sup_norm"] + 1e-9


def test_lemma34_check_in_eight_generators(capsys):
    expr = " + ".join(f"d({g})" for g in "abcdefgh")
    code, rep, _ = run_cli(
        capsys,
        ["lemma34-check", "--expr", expr, "--gen", "a", "--budget", "200", "--json-only"],
    )
    assert code == 0
    assert rep["payload"]["sup_norm"] == 8.0
    assert rep["payload"]["pass"] is True


def test_lemma34_foreign_generator_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, ["lemma34-check", "--expr", "d(b)", "--gen", "a", "--json-only"]
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# subset-family demo


def test_phi_demo_two(capsys):
    code, rep, _ = run_cli(capsys, ["phi-demo", "--n", "2", "--json-only"])
    assert code == 0
    p = rep["payload"]
    assert p["N"] == 2
    assert p["chi_points"] == [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    assert p["basis_lift_exact"] is True
    assert p["singleton_images"]["s1"] == [1.0, 0.0]


@pytest.mark.parametrize("n", range(1, 13))
def test_phi_demo_reports_the_hom_laws(capsys, n):
    code, rep, err = run_cli(capsys, ["phi-demo", "--n", str(n)])
    assert code == 0
    laws = rep["payload"]["hom_laws"]
    assert laws["pass"] is True
    assert laws["verdicts"] == {"join": True, "sum": True, "scale": True}
    assert len(laws["pairs"]) == len(cli.PHI_LAW_PAIRS)
    names = {g for pair in laws["pairs"] for text in pair for g in support(parse_expr(text))}
    assert names <= set(rep["payload"]["generators"])
    # from N = 2 on some pair uses a generator of a subset with two or more elements
    assert any("_" in g for g in names) == (n >= 2)
    assert "join pass, sum pass, scale pass" in err


_apply_hom, _check_hom_laws = homs.apply_hom, homs.check_hom_laws


def _failing_scale(h, e):
    # check_hom_laws scales by 2.5, a factor no pair of phi-demo uses
    out = _apply_hom(h, e)
    return (out[0] + 1.0,) + out[1:] if isinstance(e, Scale) and e.factor == 2.5 else out


def _failing_join_report(h, pairs):
    rep = _check_hom_laws(h, pairs)
    return {**rep, "pass": False, "failures": {**rep["failures"], "join": [0]}}


@pytest.mark.parametrize("target, tampered, law", [
    ("apply_hom", _failing_scale, "scale"),
    ("check_hom_laws", _failing_join_report, "join"),
])
def test_phi_demo_exits_one_when_a_hom_law_fails(capsys, monkeypatch, target, tampered, law):
    monkeypatch.setattr(homs, target, tampered)
    code, rep, err = run_cli(capsys, ["phi-demo", "--n", "3"])
    assert code == 1
    p = rep["payload"]
    assert p["basis_lift_exact"] is True
    assert p["hom_laws"]["pass"] is False
    assert [k for k, ok in p["hom_laws"]["verdicts"].items() if not ok] == [law]
    assert f"{law} FAIL" in err


# ---------------------------------------------------------------------------
# extraction


def test_extract_disjoint_default(capsys):
    code, rep, _ = run_cli(capsys, ["extract-l1", "--json-only"])
    assert code == 0
    p = rep["payload"]
    assert set(p) == {
        "instance", "selected", "nu", "stage_indices", "F_sets", "ys", "f_at_y",
        "eps", "requested_length", "exhausted", "exhaustion_note", "transcript",
        "verifications",
    }
    assert p["instance"] == "disjoint"
    assert len(p["selected"]) == 4
    assert p["nu"] == [1, 2, 3, 4]
    assert p["exhausted"] is False
    assert len(p["verifications"]) == 5
    assert all(v["pass"] for v in p["verifications"])


def test_extract_perturbed(capsys):
    code, rep, _ = run_cli(
        capsys,
        ["extract-l1", "--instance", "perturbed", "--n", "6",
         "--eps", "0.1", "--len", "3", "--json-only"],
    )
    assert code == 0
    p = rep["payload"]
    assert len(p["selected"]) == 3
    assert all(abs(v - 1.0) <= 0.2 for v in p["f_at_y"])
    assert all(v["pass"] for v in p["verifications"])


def test_extract_exhaustion_exits_one(capsys):
    """Exhaustion alone exits 1: the summary names its note and gives the
    lower-bound checks' own verdict, which passes in the second run."""
    code, rep, _ = run_cli(
        capsys, ["extract-l1", "--n", "3", "--len", "5", "--json-only"]
    )
    assert code == 1
    p = rep["payload"]
    assert p["exhausted"] is True
    assert p["exhaustion_note"]
    code, rep, err = run_cli(
        capsys, ["extract-l1", "--instance", "disjoint", "--n", "2", "--eps", "0.5",
                 "--len", "9"]
    )
    assert code == 1
    p = rep["payload"]
    assert p["exhausted"] is True
    assert len(p["verifications"]) == 5 and all(v["pass"] for v in p["verifications"])
    note = "ran out of stages while selecting term 3"
    assert p["exhaustion_note"] == note
    assert f"EXHAUSTED: {note}; all lower-bound checks pass" in err
    assert "FAIL" not in err


# ---------------------------------------------------------------------------
# interval sections


def test_ck_section_twopoints(tmp_path, capsys):
    cert = tmp_path / "s.cert.json"
    code, rep, _ = run_cli(
        capsys,
        ["ck-section", "--k", "twopoints", "--h", "0:0,1:1",
         "--cert", str(cert), "--json-only"],
    )
    assert code == 0
    p = rep["payload"]
    assert p["K"]["kind"] == "two_points"
    assert p["section_check"]["pass"] is True
    assert p["norm_bound"]["pass"] is True
    assert p["cells"] >= 4
    # Fractions serialize as p/q strings
    assert all(isinstance(c, str) and "/" in c
               for pair in p["slice_table"] for c in pair)

    code, rep, _ = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 0
    assert rep["payload"]["pass"] is True


def test_replay_of_a_section_certificate_with_cell_witnesses(capsys):
    # written by `fblab ck-section --k "union:0,1/4;1/2,1" --h
    # "0:1,1/4:-1,1/2:2,3/4:1/2,1:3" --cert` when stored functions kept a
    # sign string and a witness point per cell instead of sorted rays
    path = DATA / "ck-section-union-cells.cert.json"
    code, rep, _ = run_cli(capsys, ["replay-cert", str(path), "--json-only"])
    assert code == 0
    assert rep["payload"]["pass"] is True
    assert rep["payload"]["value"] == rep["payload"]["recorded_value"] == 3.0
    # every witness lands in the sector holding today's piece
    f = plfan.plfunction_from_json(fblnorm.load_certificate(path)["function"]["plfunction"])
    K = cli._parse_kspec("union:0,1/4;1/2,1")
    b = ckretract.build_section(K, cli._parse_target(K, "0:1,1/4:-1,1/2:2,3/4:1/2,1:3"))
    assert f.fan == b.Sh.fan and f.pieces == b.Sh.pieces


def test_replay_of_a_section_certificate_that_lists_hyperplanes(capsys):
    # written by `fblab ck-section --k "union:0,1/4;1/2,1" --h
    # "0:2/3,1/4:-5/7,1/2:1/7,3/5:-9/11,1:1/9" --cert` when a fan stored
    # its hyperplanes next to its rays; the norm is attained at (1, 0.6),
    # on the interior breakpoint's ray
    path = DATA / "ck-section-union-rays.cert.json"
    doc = fblnorm.load_certificate(path)
    assert "hyperplanes" in doc["function"]["plfunction"]
    code, rep, _ = run_cli(capsys, ["replay-cert", str(path), "--json-only"])
    assert code == 0
    assert rep["payload"]["pass"] is True
    assert rep["payload"]["value"] == rep["payload"]["recorded_value"] == 0.8181818181818181
    f = plfan.plfunction_from_json(doc["function"]["plfunction"])
    K = cli._parse_kspec("union:0,1/4;1/2,1")
    b = ckretract.build_section(K, cli._parse_target(K, "0:2/3,1/4:-5/7,1/2:1/7,3/5:-9/11,1:1/9"))
    assert f == b.Sh


def _reverse(fn):
    fn["rays"].reverse()
    fn["pieces"].reverse()


def _cut_rays(fn):
    fn["rays"] = [r[:1] for r in fn["rays"]]


def _three_generators(fn):
    fn["generators"].append("x")


@pytest.mark.parametrize("malform, problem", [
    (_reverse, "do not ascend"),
    (_cut_rays, "needs 2 entries"),
    (_three_generators, "fans take two generators"),
])
def test_replay_rejects_a_malformed_stored_fan(tmp_path, capsys, malform, problem):
    """A certificate's fan comes from outside the program: out of order, or
    with rays of the wrong length, a lookup reads arbitrary pieces, and on
    this section the first two replayed with `pass` true."""
    cert = tmp_path / "s.cert.json"
    code, _, _ = run_cli(capsys, ["ck-section", "--k", "interval", "--h", "0:2,1:1",
                                  "--cert", str(cert), "--json-only"])
    assert code == 0
    doc = json.loads(cert.read_text())
    malform(doc["function"]["plfunction"])
    cert.write_text(json.dumps(doc))
    code, rep, err = run_cli(capsys, ["replay-cert", str(cert), "--json-only"])
    assert code == 2 and rep is None
    assert err.startswith("error: ") and err.count("\n") == 1 and problem in err


def test_ck_section_union(capsys):
    code, rep, _ = run_cli(
        capsys,
        ["ck-section", "--k", "union:0,1/4;1/2,1",
         "--h", "0:1,1/4:-1,1/2:2,1:0", "--json-only"],
    )
    assert code == 0
    assert rep["payload"]["K"]["kind"] == "union_of_intervals"
    assert rep["payload"]["norm_bound"]["norm_upper"] <= 2.0 + 1e-9


@pytest.mark.parametrize("scale", [10**6, 10**9, 10**12])
def test_ck_section_tolerances_are_relative_to_sup_h(capsys, scale):
    """Rounding of large float coefficients is not a failed identity or bound."""
    for k, h in (("interval", f"0:0,1/3:{scale},1:7"),
                 ("union:0,1/3;2/3,1", f"0:1/3,1/3:{scale}/3,2/3:5,1:7")):
        code, rep, _ = run_cli(capsys, ["ck-section", "--k", k, "--h", h, "--json-only"])
        p = rep["payload"]
        assert code == 0, p
        assert p["section_check"]["pass"] and p["norm_bound"]["pass"]
        assert p["section_check"]["worst_deviation"] <= 1e-12 * p["h_sup"]
        assert abs(p["norm_bound"]["norm_upper"] - p["h_sup"]) <= 1e-9 * p["h_sup"]


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_two():
    assert cli.run(["frobnicate"]) == 2


def test_missing_required_argument_exits_two():
    assert cli.run(["norm"]) == 2


def test_bad_expression_exits_two(capsys):
    code, rep, err = run_cli(capsys, ["norm", "--expr", "d(a) +", "--json-only"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "(" * 300 + "d(a)" + ")" * 300,
    "-" * 1200 + "d(a)",
    " + ".join(["d(a)"] * 2000),
], ids=["brackets", "signs", "sum"])
def test_deep_expressions_are_syntax_errors(capsys, text):
    """Each ended in "error: RecursionError: maximum recursion depth
    exceeded", in the parser or, for the sum, in the tree walkers."""
    code, rep, err = run_cli(capsys, ["norm", f"--expr={text}", "--json-only"])
    assert code == 2
    assert rep is None
    assert err.startswith("error: ") and "(at position" in err
    assert "RecursionError" not in err


@pytest.mark.parametrize("text, norm", [
    ("(" * MAX_DEPTH + "d(a)" + ")" * MAX_DEPTH, 1),
    ("-" * MAX_DEPTH + "d(a)", 1),
    (" + ".join(["d(a)"] * (MAX_DEPTH + 1)), MAX_DEPTH + 1),
], ids=["brackets", "signs", "sum"])
def test_expressions_at_the_depth_bound_have_their_norm(capsys, text, norm):
    code, rep, _ = run_cli(capsys, ["norm", f"--expr={text}", "--json-only"])
    assert code == 0
    assert rep["payload"]["value"] == norm


@pytest.mark.parametrize("text", [
    "1e309*d(a)",  # the literal overflows
    "1e200*(1e200*d(a))",  # a product of scalars overflows
    "1e200*1e200*d(a)",
    "1e308*d(a)+1e308*d(a)",  # a sum of coefficients overflows
])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_non_finite_scalars_are_usage_errors(capsys, text, exact):
    """These printed "value": NaN with exit 0, or exited 1, or raised
    OverflowError in exact mode."""
    argv = ["norm", "--expr", text, "--json-only"] + (["--exact"] if exact else [])
    code, rep, err = run_cli(capsys, argv)
    assert code == 2
    assert rep is None
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--space", "linf"], ["--exact"]],
                         ids=["l1", "linf", "exact"])
def test_a_norm_past_the_float_range_is_an_error(capsys, extra):
    """Each scalar is finite, the norm 2e308 is not: l1 printed "value":
    "inf" with exit 0, linf "nan" with exit 1, and --exact ended in
    "error: OverflowError: integer division result too large for a float"."""
    argv = ["norm", "--expr", "1e308*d(a) + 1e308*d(b)", "--json-only"] + extra
    code, rep, err = run_cli(capsys, argv)
    assert code == 2
    assert rep is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "past the float range" in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--budget", "200"],
    ["lemma34-check", "--gen", "a", "--budget", "200"],
])
def test_oracle_and_lemma34_past_the_float_range_are_errors(capsys, argv):
    """lemma34-check reported "sup_norm" and "margin" "inf" with "pass" true
    and exit 0; oracle printed six numpy overflow warnings and exit 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the run
        code, rep, err = run_cli(capsys, argv + ["--expr", "1e308*d(a) + 1e308*d(b)",
                                                 "--json-only"])
    assert code == 2
    assert rep is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "past the float range" in err and "Warning" not in err


def test_reports_map_non_finite_floats_to_strings():
    got = cli._jsonable({"a": float("nan"), "b": [float("-inf"), np.float64("inf")], "c": 1.5})
    assert got == {"a": "nan", "b": ["-inf", "inf"], "c": 1.5}
    json.dumps(got, allow_nan=False)


def test_bad_kspec_exits_two(capsys):
    code, _, err = run_cli(
        capsys, ["ck-section", "--k", "circle", "--h", "0:1", "--json-only"]
    )
    assert code == 2
    assert "error:" in err
    # a malformed --k or --h entry is named, with no exception class name
    for k, h, entry in [("union:0,1;", "0:1,1:1", "''"),
                        ("interval", "0:1,1", "'1'"),
                        ("interval", "0:1,1:1/0", "'1:1/0'"),
                        ("union:0,1;2,x", "0:1,1:1", "'2,x'")]:
        code, _, err = run_cli(capsys, ["ck-section", "--k", k, "--h", h, "--json-only"])
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert entry in lines[0] and "Error" not in lines[0], err


def test_exact_is_rejected_where_it_is_not_honoured(capsys):
    code, rep, _ = run_cli(
        capsys, ["oracle", "--expr", "d(a)", "--exact", "--json-only"]
    )
    assert code == 2
    assert rep is None
    code, _, _ = run_cli(
        capsys, ["ck-section", "--k", "interval", "--h", "0:0,1:1", "--exact"]
    )
    assert code == 2
    # --tol only ever echoed its value and is gone
    code, _, _ = run_cli(capsys, ["norm", "--expr", "d(a)", "--tol", "1e-6"])
    assert code == 2


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["oracle", "--expr", "d(a) v d(b)"],
    ["lemma34-check", "--expr", "d(a) v d(b)", "--gen", "a"],
], ids=["oracle", "lemma34-check"])
def test_budget_below_one_is_usage_error(capsys, argv, budget):
    """lemma34-check at budget 0 used to pass with best_lower 0.0."""
    code, rep, err = run_cli(capsys, argv + ["--budget", budget, "--json-only"])
    assert code == 2
    assert rep is None
    assert "--budget: must be at least 1" in err


def test_seed_is_taken_only_where_a_seed_is_read(capsys):
    for argv in (["norm", "--expr", "d(a)"],
                 ["ck-section", "--k", "interval", "--h", "0:0,1:1"],
                 ["phi-demo", "--n", "2"]):
        code, rep, _ = run_cli(capsys, argv + ["--seed", "1", "--json-only"])
        assert code == 2, argv
        assert rep is None
        code, rep, _ = run_cli(capsys, argv + ["--json-only"])
        assert code == 0, argv
        assert rep["seed"] is None
        assert "seed" not in rep["config"]
    code, rep, _ = run_cli(
        capsys, ["extract-l1", "--n", "4", "--len", "2", "--seed", "3", "--json-only"]
    )
    assert code == 0
    assert rep["seed"] == 3
    assert rep["config"]["seed"] == 3


def test_internal_error_exits_two_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise LPError("pivot cap exceeded")

    monkeypatch.setattr(fblnorm, "exact_fbl_norm", broken)
    code, rep, err = run_cli(capsys, ["norm", "--expr", "d(a) v d(b)"])
    assert code == 2
    assert rep is None
    assert err == "error: LPError: pivot cap exceeded\n"
