"""End-to-end CLI contract: commands, file formats, exit codes, determinism."""

import dataclasses
import json
import re
import time
import warnings

import numpy as np
import pytest

import ctrules as ct
from ctrules.cli import AXIOMS, BOUNDS, RULES, build_parser, ladder_rule, load_profile, main
from helpers import FailingHighs, single_minded_profile

SP_DOC = {"n": 2, "m": 2, "prefs": [[0.5, 0.5], [0.0, 1.0]]}
CORE_DOC = {
    "n": 10,
    "m": 3,
    "prefs": [[1, 0, 0]] * 3 + [[0.5, 0.5, 0]] * 3 + [[0, 0, 1]] * 4,
}


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------


def test_load_profile_renormalizes_small_drift(tmp_path):
    doc = {"n": 1, "m": 2, "prefs": [[0.5000001, 0.5]]}
    profile, _ = load_profile(write_doc(tmp_path / "p.json", doc))
    assert profile.prefs.sum() == pytest.approx(1.0, abs=1e-12)


def test_load_profile_rejects_large_drift(tmp_path):
    doc = {"n": 1, "m": 2, "prefs": [[0.6, 0.5]]}
    with pytest.raises(ValueError):
        load_profile(write_doc(tmp_path / "p.json", doc))


def test_load_profile_rejects_shape_mismatch(tmp_path):
    doc = {"n": 3, "m": 2, "prefs": [[0.5, 0.5]]}
    with pytest.raises(ValueError):
        load_profile(write_doc(tmp_path / "p.json", doc))


def test_gen_then_load_round_trip_is_bit_identical(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen", "--kind", "dirichlet:2.0", "--n", "5", "--m", "3", "--seed", "11", "--out", str(out)]) == 0
    on_disk = json.loads(out.read_text())
    profile, meta = load_profile(out)
    assert meta["seed"] == 11
    assert np.array_equal(profile.prefs, np.array(on_disk["prefs"]))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_single_minded_rows_are_unit_vectors(tmp_path):
    out = tmp_path / "sm.json"
    assert main(["gen", "--kind", "single-minded", "--n", "6", "--m", "3", "--seed", "4", "--out", str(out)]) == 0
    profile, _ = load_profile(out)
    assert profile.is_single_minded()
    assert profile.n == 6 and profile.m == 3


def test_gen_groups_reproduces_block_profile(tmp_path):
    out = tmp_path / "groups.json"
    code = main(["gen", "--kind", "groups:3:1,0,0;3:.5,.5,0;4:0,0,1", "--out", str(out)])
    assert code == 0
    profile, _ = load_profile(out)
    assert profile.n == 10 and profile.m == 3
    assert np.array_equal(profile.prefs, np.array(CORE_DOC["prefs"], dtype=float))


def test_gen_dirichlet_rows_normalized(tmp_path):
    out = tmp_path / "d.json"
    assert main(["gen", "--kind", "dirichlet:0.5", "--n", "8", "--m", "4", "--seed", "1", "--out", str(out)]) == 0
    profile, _ = load_profile(out)
    assert np.allclose(profile.prefs.sum(axis=1), 1.0, atol=1e-9)


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "dirichlet:1.0", "--n", "4", "--m", "3", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_kind_exits_one(tmp_path):
    assert main(["gen", "--kind", "zipf", "--n", "2", "--m", "2", "--out", str(tmp_path / "x.json")]) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_sp_example(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    out = tmp_path / "report.json"
    assert main(["solve", "--profile", prof, "--rule", "nash", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["converged"]
    assert np.allclose(report["allocation"], [0.25, 0.75], atol=1e-6)
    assert report["mrsGap"] <= 1e-7
    assert set(report) == {"allocation", "satisfactions", "objective", "mrsGap", "iterations", "converged"}


def test_solve_unanimous_any_rule(tmp_path):
    prof = write_doc(tmp_path / "u.json", {"n": 3, "m": 2, "prefs": [[0.3, 0.7]] * 3})
    for rule in ("nash", "power:0.5", "negpower:2", "quad", "util", "egal"):
        out = tmp_path / f"{rule.replace(':', '_')}.json"
        assert main(["solve", "--profile", prof, "--rule", rule, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert np.allclose(report["allocation"], [0.3, 0.7], atol=1e-6), rule


def test_solve_core_example(tmp_path):
    prof = write_doc(tmp_path / "core.json", CORE_DOC)
    out = tmp_path / "r.json"
    assert main(["solve", "--profile", prof, "--rule", "nash", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert np.allclose(report["allocation"], [0.5, 0.0, 0.5], atol=1e-3)


def test_solve_missing_file_exits_one(tmp_path):
    assert main(["solve", "--profile", str(tmp_path / "nope.json"), "--rule", "nash"]) == 1


def test_steep_solve_that_ends_uncertified_exits_two(tmp_path, capsys):
    """negexppower:3 on 2000 single-minded agents over 10 alternatives ends
    uncertified at the rounding floor: the report is written and the exit
    code is 2, with no numpy warning (an overflowing Newton system once made
    it exit 1, the code for bad input)."""
    prof = write_doc(tmp_path / "sm.json", {"n": 2000, "m": 10, "prefs": single_minded_profile(0, 2000, 10).prefs.tolist()})
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--profile", prof, "--rule", "negexp:3", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert not report["converged"] and np.isfinite(report["mrsGap"])
    assert "Warning" not in capsys.readouterr().err


def test_solve_bad_rule_exits_one(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    assert main(["solve", "--profile", prof, "--rule", "borda"]) == 1
    assert main(["solve", "--profile", prof, "--rule", "power"]) == 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_nash_output_afs_and_rr(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = tmp_path / "alloc.json"
    assert main(["solve", "--profile", prof, "--rule", "nash", "--out", str(alloc)]) == 0
    out = tmp_path / "checks.json"
    code = main(
        ["check", "--profile", prof, "--allocation", str(alloc), "--axioms", "rr,ifs,prop,afs", "--lambda", "1.0", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["holds"] for r in reports)
    prop = next(r for r in reports if r["axiom"] == "PROP")
    assert not prop["applicable"]


def test_check_core_example_fails_with_witness(tmp_path):
    prof = write_doc(tmp_path / "core.json", CORE_DOC)
    alloc = tmp_path / "alloc.json"
    assert main(["solve", "--profile", prof, "--rule", "nash", "--out", str(alloc)]) == 0
    out = tmp_path / "checks.json"
    code = main(
        ["check", "--profile", prof, "--allocation", str(alloc), "--axioms", "core", "--resolution", "0.05", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())[0]
    assert not report["holds"]
    assert report["witness"]["budget"] == pytest.approx(0.6)


def test_check_accepts_bare_share_array(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "rr"]) == 0


M6_GUARD = "error: grid has 96560646 points, exceeding the guard of 10000000\n"


def test_check_guard_violation_exits_three(tmp_path, capsys):
    # only the point guard refuses: 13 agents pass, six alternatives pass
    # at the default resolution 0.05 and exit 3 at 0.01
    rng = np.random.default_rng(0)
    prof = write_doc(tmp_path / "big.json", {"n": 13, "m": 2, "prefs": rng.dirichlet(np.ones(2), 13).tolist()})
    alloc = write_doc(tmp_path / "x.json", [0.5, 0.5])
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "core"]) in (0, 2)
    wide = write_doc(tmp_path / "wide.json", {"n": 2, "m": 6, "prefs": rng.dirichlet(np.ones(6), 2).tolist()})
    alloc = write_doc(tmp_path / "y.json", [1 / 6] * 6)
    assert main(["check", "--profile", wide, "--allocation", alloc, "--axioms", "core"]) in (0, 2)
    capsys.readouterr()
    argv = ["check", "--profile", wide, "--allocation", alloc, "--axioms", "core", "--resolution", "0.01"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", M6_GUARD)


def test_check_grid_guard_exits_three_at_once(tmp_path, capsys):
    # at 1e-3 the one-agent core grids fit the 1e7-point guard but the
    # grand coalition's does not; the guard must fire before any search
    prefs = np.random.default_rng(1).dirichlet(np.ones(4), 10).tolist()
    prof = write_doc(tmp_path / "m4.json", {"n": 10, "m": 4, "prefs": prefs})
    alloc = write_doc(tmp_path / "x.json", [0.25] * 4)
    for axiom, resolution in (("core", "1e-3"), ("core", "1e-9")):
        argv = ["check", "--profile", prof, "--allocation", alloc, "--axioms", axiom, "--resolution", resolution]
        start = time.perf_counter()
        assert main(argv) == 3, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_overflowing_grid_exits_three(tmp_path, capsys):
    # budget / 1e-320 overflows to inf: no finite grid, so the guard refuses it
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    check = ["check", "--profile", prof, "--allocation", alloc, "--resolution", "1e-320", "--axioms"]
    for argv in (
        check + ["core"],
        ["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", "1e-320"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3, (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("mode", ["status", "error", "nonfinite"])
def test_a_failed_efficiency_lp_exits_two(tmp_path, monkeypatch, capsys, mode):
    # a failed LP is reported as an error, never as holds
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    monkeypatch.setattr(FailingHighs, "mode", mode)
    monkeypatch.setattr(ct.solver.highs, "_Highs", FailingHighs)
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "eff"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the efficiency LP failed\n"


def test_an_efficiency_witness_that_leaves_an_agent_worse_off_exits_two(tmp_path, monkeypatch, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    monkeypatch.setattr(ct.solver._LP, "solve", lambda self: (0, -10.0, np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])))
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "eff"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the efficiency LP's witness leaves an agent worse off\n"


def test_an_efficiency_resolution_below_the_rounding_floor_exits_one(tmp_path, capsys):
    # the SP example's Nash optimum, where rounding noise would count as a gain
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    argv = ["check", "--profile", prof, "--allocation", alloc, "--axioms", "efficiency"]
    assert main([*argv, "--resolution", "1e-16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: resolution 1e-16 is below the rounding floor")
    assert main([*argv, "--resolution", "1e-12"]) == 0


def test_huge_grid_is_refused_with_a_short_point_count(tmp_path, capsys):
    # C(1e300 + 2, 2) has 600 digits; the guard prints three significant ones
    prof = str(tmp_path / "g.json")
    assert main(["gen", "--kind", "dirichlet:1.0", "--n", "6", "--m", "3", "--seed", "0", "--out", prof]) == 0
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.25, 0.5])
    for argv, count in (
        (["check", "--profile", prof, "--allocation", alloc, "--axioms", "core,eff", "--resolution", "1e-300"], "1.39e+598"),
        (["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", "1e-300"], "5e+599"),
    ):
        capsys.readouterr()
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: grid has {count} points, exceeding the guard of 10000000\n"


# every axiom's report, each failing with its witness, pinned byte for byte
PINNED_CHECKS = [
    {
        "axiom": "RR",
        "holds": False,
        "applicable": True,
        "witness": {"alternative": 2, "share": 0.0, "min": 0.009421998390462288, "max": 0.9472799041889961},
    },
    {
        "axiom": "IFS",
        "holds": False,
        "applicable": True,
        "witness": {"agent": 3, "satisfaction": 0.05272009581100384, "threshold": 0.2},
    },
    {"axiom": "PROP", "holds": True, "applicable": False, "witness": None},
    {
        "axiom": "AFS",
        "holds": False,
        "applicable": True,
        "witness": {
            "members": [3],
            "alpha": 0.2,
            "mean_satisfaction": 0.05272009581100384,
            "bound": 0.1672502061900747,
            "lambda": 0.9,
        },
    },
    {
        "axiom": "core",
        "holds": False,
        "applicable": True,
        "witness": {
            "members": [3],
            "budget": 0.2,
            "deviation": [0.0, 0.0, 0.2],
            "satisfactions_before": [0.05272009581100384],
            "satisfactions_after": [0.2],
            "resolution": 0.05,
        },
    },
] + 2 * [
    {
        "axiom": "efficiency",
        "holds": False,
        "applicable": True,
        "witness": {
            "dominating": [0.4155562521160524, 0.3905780016095377, 0.1938657462744099],
            "satisfactions_before": [
                0.4078009182309967,
                0.7522368010553819,
                0.5745200554608888,
                0.05272009581100384,
                0.31679751678846574,
            ],
            "satisfactions_after": [
                0.4078009182309966,
                0.7522368010553819,
                0.6706568051976611,
                0.24658584208541373,
                0.5106632630628756,
            ],
            "resolution": 0.05,
        },
    }
]


def test_check_output_is_pinned(tmp_path, capsys):
    prof = str(tmp_path / "p.json")
    assert main(["gen", "--kind", "dirichlet:0.5", "--n", "5", "--m", "3", "--seed", "3", "--out", prof]) == 0
    alloc = write_doc(tmp_path / "x.json", [0.6, 0.4, 0.0])
    argv = ["check", "--profile", prof, "--allocation", alloc, "--axioms", "rr,ifs,prop,afs,core,eff,efficiency"]
    assert main(argv + ["--lambda", "0.9", "--resolution", "0.05"]) == 2
    assert capsys.readouterr().out == json.dumps(PINNED_CHECKS, indent=2) + "\n"


def test_check_unknown_axiom_exits_one(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.5, 0.5])
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "pareto"]) == 1


def test_empty_axiom_and_bound_lists_exit_one(tmp_path, capsys):
    # an empty list would check nothing and read as success
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.5, 0.5])
    for names in ("", ",", " , "):
        assert_refused(capsys, ["check", "--profile", prof, "--allocation", alloc, "--axioms", names])
        assert_refused(capsys, ["bounds", "--which", names, "--lambda", "1", "--m", "3", "--n", "4"])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_gamma_table_value(tmp_path, capsys):
    assert main(["bounds", "--which", "gamma", "--lambda", "10", "--m", "3", "--n", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload[0]["value"] - 0.475) < 1e-3
    assert payload[0]["kind"] == "EL-gamma"


def test_bounds_wl_and_ifs(tmp_path, capsys):
    assert main(["bounds", "--which", "wl,ifs-share,min-agent,afs,el-sm,wl-sm", "--lambda", "1", "--m", "3", "--n", "11", "--alpha", "0.5"]) == 0
    payload = {r["kind"]: r["value"] for r in json.loads(capsys.readouterr().out)}
    assert payload["WL"] == pytest.approx(0.6)
    assert payload["IFS-share"] == pytest.approx(1.0 / 21.0)
    assert payload["AFS-exponent"] == pytest.approx(0.5)


def test_bounds_large_lambda_limit(capsys):
    assert main(["bounds", "--which", "ifs-share", "--lambda", "1e9", "--m", "5", "--n", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["value"] == pytest.approx(0.2, abs=1e-4)


def test_bounds_take_their_limits_where_the_power_overflows(sweep_dir, capsys):
    # m^lambda and (n - 1)^(1/lambda) leave the float range; each bound
    # prints its finite limit instead of ending in a traceback (or nan)
    for which, lam, m, want in (
        ("wl", "1e300", "3", 1.0),
        ("wl", "1020", "2", 1.0),
        ("ifs-share", "1e-300", "3", 0.0),
        ("el-sm", "1e-300", "3", 1.0),
    ):
        assert main(["bounds", "--which", which, "--lambda", lam, "--m", m, "--n", "5"]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err and err == ""
        assert json.loads(out)[0]["value"] == want
    # a sweep reaches the same closed forms: 3^(1/0.001) overflows at n = 4
    assert main(["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "0.001:1:2"]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err and err == ""
    header, *rows = out.splitlines()
    share_bound = header.split(",").index("min_share_bound")
    assert [float(row.split(",")[share_bound]) for row in rows if row.startswith("0.001,")] == [0.0, 0.0]


# the output of the table-driven bounds command, pinned byte for byte: the
# order of the rows, of each row's keys and of its params, and every digit
PINNED_BOUNDS = [
    {"kind": "WL", "params": {"lambda": 0.5, "m": 4}, "value": 0.4},
    {"kind": "WL-single-minded", "params": {"lambda": 0.5, "m": 4}, "value": 0.25},
    {"kind": "IFS-share", "params": {"lambda": 0.5, "m": 4, "n": 9}, "value": 0.0051813471502590676},
    {"kind": "EL-single-minded", "params": {"lambda": 0.5, "m": 4, "n": 9}, "value": 0.9792746113989638},
    {"kind": "minAgent", "params": {"lambda": 0.5, "m": 4, "n": 9}, "value": 0.0030864197530864196},
    {"kind": "AFS-exponent", "params": {"lambda": 0.5, "alpha": 0.3}, "value": 0.09},
    {
        "kind": "EL-gamma",
        "params": {"lambda": 0.5, "m": 4, "n": 9, "omega_star": 0.24975633507710882},
        "value": 0.9990253403084353,
    },
]


def test_bounds_output_is_pinned(capsys):
    argv = ["bounds", "--which", "wl,wl-sm,ifs-share,el-sm,min-agent,afs,gamma", "--lambda", "0.5", "--m", "4", "--n", "9"]
    assert main(argv + ["--alpha", "0.3"]) == 0
    assert capsys.readouterr().out == json.dumps(PINNED_BOUNDS, indent=2) + "\n"


def test_bounds_bad_params_exit_one():
    assert main(["bounds", "--which", "wl", "--lambda", "-1", "--m", "3"]) == 1
    assert main(["bounds", "--which", "nope", "--lambda", "1"]) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture()
def sweep_dir(tmp_path):
    d = tmp_path / "profiles"
    d.mkdir()
    for seed in (1, 2):
        main(["gen", "--kind", "dirichlet:1.0", "--n", "4", "--m", "3", "--seed", str(seed), "--out", str(d / f"p{seed}.json")])
    return d


def test_sweep_rows_and_bounds(sweep_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "0.5:2:3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["lambda", "rule", "m", "n", "seed", "wl_emp", "wl_bound", "el_emp", "el_bound", "min_share", "min_share_bound", "afs_worst"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 6  # 2 profiles x 3 lambdas
    for row in rows:
        assert float(row["wl_emp"]) <= float(row["wl_bound"]) + 1e-6
        assert float(row["el_emp"]) <= float(row["el_bound"]) + 1e-6
        assert float(row["min_share"]) >= float(row["min_share_bound"]) - 1e-6
    nash_rows = [r for r in rows if abs(float(r["lambda"]) - 1.0) < 1e-12]
    assert nash_rows and all(r["rule"] == "nash" for r in nash_rows)
    assert all(float(r["afs_worst"]) >= 1.0 - 1e-6 for r in nash_rows)


def test_sweep_is_byte_deterministic(sweep_dir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "0.5:2:3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_ladder_rows_match_cold_solves(tmp_path):
    """Each rung starts from the previous rung's optimum; the certificate
    pins every row to the cold solve's optimum, and the bytes stay
    deterministic."""
    d = tmp_path / "ladder"
    d.mkdir()
    for seed, kind in ((3, "dirichlet:1.0"), (4, "dirichlet:0.3"), (5, "single-minded")):
        main(["gen", "--kind", kind, "--n", "6", "--m", "4", "--seed", str(seed), "--out", str(d / f"p{seed}.json")])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--profile-dir", str(d), "--lambda-grid", "0.25:4:5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 15
    for row in rows:
        profile, _ = load_profile(d / f"p{row['seed']}.json")
        cold = ct.solve_ctr(profile, ladder_rule(float(row["lambda"])))
        assert cold.converged
        assert abs(float(row["min_share"]) - cold.satisfactions.min()) <= 1e-6


def test_sweep_writes_rows_for_one_agent_profiles(tmp_path):
    """A one-agent profile gets its rows with nan for the two-agent bounds,
    and the rest of the sweep runs as before."""
    d = tmp_path / "mixed"
    d.mkdir()
    write_doc(d / "a_one.json", {"n": 1, "m": 3, "prefs": [[0.5, 0.3, 0.2]]})
    write_doc(d / "b_two.json", {"n": 2, "m": 3, "prefs": [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]})
    out = tmp_path / "mixed.csv"
    assert main(["sweep", "--profile-dir", str(d), "--lambda-grid", "0.5:2:3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["n"] for r in rows] == ["1"] * 3 + ["2"] * 3
    for row in rows[:3]:
        assert row["el_bound"] == row["min_share_bound"] == "nan"
        assert float(row["min_share"]) == 1.0 and float(row["wl_emp"]) == 0.0
    for row in rows[3:]:
        lam = float(row["lambda"])
        assert float(row["el_bound"]) == pytest.approx(ct.gamma(3, 2, lam)[0], abs=1e-11)
        assert float(row["min_share_bound"]) == pytest.approx(ct.ifs_share_bound(lam, 3, 2), abs=1e-11)


@pytest.mark.parametrize("reference,column", [("solve_utilitarian", "wl_emp"), ("solve_egalitarian", "el_emp")])
def test_sweep_writes_nan_losses_for_an_uncertified_reference(sweep_dir, tmp_path, monkeypatch, capsys, reference, column):
    """An uncertified reference leaves its loss column nan; every row is
    still written, listed on stderr, and the sweep exits 2."""
    args = ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "0.5:2:3", "--out"]
    assert main(args + [str(tmp_path / "certified.csv")]) == 0
    solve = getattr(ct.cli, reference)
    monkeypatch.setattr(ct.cli, reference, lambda *a, **k: dataclasses.replace(solve(*a, **k), converged=False))
    assert main(args + [str(tmp_path / "uncertified.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("warning: 6 rows did not converge: p1.json@lambda=0.5, ") and "Traceback" not in err
    certified, uncertified = ((tmp_path / f"{name}.csv").read_text().splitlines() for name in ("certified", "uncertified"))
    header = certified[0].split(",")
    assert uncertified[0] == certified[0] and len(uncertified) == len(certified) == 7
    for before, after in zip(certified[1:], uncertified[1:]):
        before, after = dict(zip(header, before.split(","))), dict(zip(header, after.split(",")))
        assert after.pop(column) == "nan" and before.pop(column) != "nan"
        assert after == before


def test_sweep_past_the_subset_cap_writes_nan_afs_ratios(tmp_path):
    """Past MAX_SUBSET_AGENTS agents the cohesive-group table is not
    enumerated: every afs_worst cell is nan and the sweep still exits 0."""
    d = tmp_path / "wide"
    n = ct.axioms.MAX_SUBSET_AGENTS + 1
    assert main(["gen", "--kind", "dirichlet:1", "--n", str(n), "--m", "3", "--seed", "2", "--out", str(d / "p.json")]) == 0
    out = tmp_path / "wide.csv"
    assert main(["sweep", "--profile-dir", str(d), "--lambda-grid", "0.5:2:3", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert len(rows) == 3 and all(row["n"] == str(n) for row in rows)
    assert [row["afs_worst"] for row in rows] == ["nan"] * 3


# one profile of each kind a sweep treats apart: Dirichlet, single-minded
# and groups (the last two with groups that are not cohesive), one agent
# (nan two-agent bounds) and one past the subset cap (nan afs_worst)
PINNED_SWEEP_PROFILES = [
    ("a_dirichlet", ["--kind", "dirichlet:0.5", "--n", "5", "--m", "3", "--seed", "3"]),
    ("b_single_minded", ["--kind", "single-minded", "--n", "6", "--m", "3", "--seed", "4"]),
    ("c_groups", ["--kind", "groups:2:1,0,0;2:.5,.5,0;1:0,0,1", "--seed", "5"]),
    ("d_one_agent", ["--kind", "dirichlet:1", "--n", "1", "--m", "3", "--seed", "6"]),
    ("e_past_the_cap", ["--kind", "dirichlet:1", "--n", str(ct.axioms.MAX_SUBSET_AGENTS + 1), "--m", "3", "--seed", "7"]),
]
PINNED_SWEEP = """\
lambda,rule,m,n,seed,wl_emp,wl_bound,el_emp,el_bound,min_share,min_share_bound,afs_worst
0.25,power:0.75,3,5,3,0,0.208368997933,0.638581944031,0.999951783917,0.169459717677,0.00194931773879,12.1638048154
0.5,power:0.5,3,5,3,0.00135683565505,0.366025403784,0.629732952989,0.99315036356,0.173608784108,0.030303030303,3.05056372291
1,nash,3,5,3,0.034923860964,0.6,0.410816015511,0.923076923122,0.276253358189,0.111111111111,1.38126679094
2,negpower:1,3,5,3,0.0934724276369,0.857142857143,0.219895420197,0.750000000116,0.365771160762,0.2,1.28221591582
4,negpower:3,3,5,3,0.134232697201,0.984802431611,0.0869805535737,0.539523667074,0.428091555111,0.261203874964,1.15788378528
0.25,power:0.75,3,6,4,0.00127795527157,0.208368997933,0.996805111821,0.999980248394,0.00159744408946,0.000799360511591,2.07028753994
0.5,power:0.5,3,6,4,0.0307692307692,0.366025403784,0.923076923077,0.995594628272,0.0384615384615,0.0196078431373,1.38461538462
1,nash,3,6,4,0.133333333333,0.6,0.666666666667,0.937500000116,0.166666666667,0.0909090909091,1
2,negpower:1,3,6,4,0.2472135955,0.857142857143,0.38196601125,0.772991677397,0.309016994375,0.182743997632,0.82917960675
4,negpower:3,3,6,4,0.320596465721,0.984802431611,0.198508835698,0.560362735647,0.400745582151,0.250582757614,0.719105301419
0.25,power:0.75,3,5,5,0.0151515151515,0.208368997933,0.909090909091,0.999951783917,0.0454545454545,0.00194931773879,11.6363636364
0.5,power:0.5,3,5,5,0.0555555555556,0.366025403784,0.666666666667,0.99315036356,0.166666666667,0.030303030303,2.66666666667
1,nash,3,5,5,0.1,0.6,0.4,0.923076923122,0.3,0.111111111111,1.2
2,negpower:1,3,5,5,0.130601937482,0.857142857143,0.216388375109,0.750000000116,0.391805812446,0.2,1.10819418755
4,negpower:3,3,5,5,0.147998429429,0.984802431611,0.112009423428,0.539523667074,0.443995288286,0.261203874964,1.05600471171
0.25,power:0.75,3,1,6,0,0.208368997933,0,nan,1,nan,1
0.5,power:0.5,3,1,6,0,0.366025403784,0,nan,1,nan,1
1,nash,3,1,6,0,0.6,0,nan,1,nan,1
2,negpower:1,3,1,6,0,0.857142857143,0,nan,1,nan,1
4,negpower:3,3,1,6,0,0.984802431611,0,nan,1,nan,1
0.25,power:0.75,3,21,7,0,0.208368997933,0.200576906594,0.999999922817,0.39956242988,3.12499023441e-06,nan
0.5,power:0.5,3,21,7,0,0.366025403784,0.200576906594,0.999722376349,0.39956242988,0.00124843945069,nan
1,nash,3,21,7,0.000530321369233,0.6,0.195033786661,0.983606557478,0.402332955885,0.0243902439024,nan
2,negpower:1,3,21,7,0.00938453290189,0.857142857143,0.133941605826,0.878965210752,0.432867650745,0.100560403924,nan
4,negpower:3,3,21,7,0.0190237750713,0.984802431611,0.0897744059546,0.674395195558,0.454943012149,0.191223416784,nan
"""


def test_sweep_output_is_pinned(tmp_path, capsys):
    for name, args in PINNED_SWEEP_PROFILES:
        assert main(["gen", *args, "--out", str(tmp_path / f"{name}.json")]) == 0
    assert main(["sweep", "--profile-dir", str(tmp_path), "--lambda-grid", "0.25:4:5"]) == 0
    assert capsys.readouterr().out == PINNED_SWEEP


def test_sweep_empty_directory(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--profile-dir", str(d), "--lambda-grid", "1:1:1", "--out", str(out)]) == 0
    assert out.read_text().strip() == "lambda,rule,m,n,seed,wl_emp,wl_bound,el_emp,el_bound,min_share,min_share_bound,afs_worst"


def test_sweep_missing_directory_exits_one(tmp_path):
    assert main(["sweep", "--profile-dir", str(tmp_path / "nope"), "--lambda-grid", "1:1:1"]) == 1


def test_sweep_bad_grid_exits_one(sweep_dir):
    assert main(["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "2:1:3"]) == 1


def test_sweep_refuses_a_lambda_whose_complement_rounds_to_one(sweep_dir, capsys):
    # the ladder rule below 1 is power with p = 1 - lambda, which is 1.0 here
    assert main(["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "1e-300:1:2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "lambda 1e-300" in err and "1 - lambda rounds to 1" in err


def test_ladder_rule_names_lambda_where_negpower_overflows():
    # the ladder rule above 1 is negpower with p = lambda - 1, whose f'' at
    # the utility floor overflows from lambda about 32.9 on
    assert ladder_rule(32.5) == ct.make_utility("negpower", p=31.5)
    with pytest.raises(ValueError) as exc:
        ladder_rule(33.0)
    assert str(exc.value) == "lambda 33.0 is too large for a ladder rule: negpower:32 overflows f'' at the utility floor"


def test_sweep_afs_ratio_skips_targets_that_underflow(sweep_dir, capsys):
    # alpha^(1/lambda) underflows to 0 for every cohesive group of these
    # profiles at lambda 1e-4, and for some of them at 1e-3; a group with no
    # positive target has ratio inf, computed without a division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "1e-4:1e-3:2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    afs = header.split(",").index("afs_worst")
    by_lambda = {}
    for row in rows:
        by_lambda.setdefault(row.split(",")[0], []).append(float(row.split(",")[afs]))
    assert by_lambda["0.0001"] == [np.inf, np.inf]
    assert len(by_lambda["0.001"]) == 2 and all(np.isfinite(by_lambda["0.001"]))


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------


def test_oracle_verify_sp_example(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    assert main(["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]
    assert payload["gap"] <= payload["tolerance"]


def test_oracle_verify_unanimous_zero_gap(tmp_path, capsys):
    prof = write_doc(tmp_path / "u.json", {"n": 2, "m": 2, "prefs": [[0.25, 0.75]] * 2})
    assert main(["oracle-verify", "--profile", prof, "--rule", "util", "--resolution", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["gap"]) <= 1e-9


def test_oracle_verify_random_corpus(tmp_path, capsys):
    for seed in range(3):
        prof = tmp_path / f"r{seed}.json"
        assert main(["gen", "--kind", "dirichlet:1.0", "--n", "4", "--m", "3", "--seed", str(seed), "--out", str(prof)]) == 0
        assert main(["oracle-verify", "--profile", str(prof), "--rule", "nash", "--resolution", "0.01"]) == 0
        capsys.readouterr()


def test_oracle_verify_guard(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the grid guard")

    monkeypatch.setattr(ct.cli, "solve_ctr", no_solve)
    prefs = np.random.default_rng(0).dirichlet(np.ones(6), 3).tolist()
    prof = write_doc(tmp_path / "wide.json", {"n": 3, "m": 6, "prefs": prefs})
    assert main(["oracle-verify", "--profile", prof, "--rule", "nash"]) == 3
    assert capsys.readouterr() == ("", M6_GUARD)


@pytest.mark.parametrize("rule", ["nash", "egal", "util", "negpower:3"])
def test_oracle_verify_passes_at_five_alternatives(tmp_path, capsys, rule):
    # 4,598,126 grid points at resolution 0.01, under the 1e7 guard
    prefs = np.random.default_rng(8).dirichlet(np.ones(5), 8).tolist()
    prof = write_doc(tmp_path / "m5.json", {"n": 8, "m": 5, "prefs": prefs})
    assert main(["oracle-verify", "--profile", prof, "--rule", rule, "--resolution", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_load_profile_keeps_labels_as_metadata(tmp_path):
    path = write_doc(tmp_path / "labeled.json", {"n": 1, "m": 2, "prefs": [[0.5, 0.5]], "labels": ["roads", "parks"], "seed": 3})
    profile, meta = load_profile(path)
    assert meta["labels"] == ["roads", "parks"] and meta["seed"] == 3
    assert profile.n == 1


@pytest.mark.parametrize("command", ["gen", "solve", "check", "bounds", "sweep", "oracle-verify"])
def test_out_into_a_missing_directory_creates_it(sweep_dir, tmp_path, capsys, command):
    """Every --out creates its missing parent directories, and the file holds
    what the command writes where its parent exists."""
    prof = str(sweep_dir / "p1.json")
    alloc = write_doc(tmp_path / "x.json", [0.2, 0.3, 0.5])
    argv = {
        "gen": ["gen", "--kind", "dirichlet:1.0", "--n", "6", "--m", "3", "--seed", "1"],
        "solve": ["solve", "--profile", prof, "--rule", "nash"],
        "check": ["check", "--profile", prof, "--allocation", alloc, "--axioms", "rr,eff"],
        "bounds": ["bounds", "--which", "wl,gamma", "--lambda", "2", "--m", "3", "--n", "4"],
        "sweep": ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "0.5:2:3"],
        "oracle-verify": ["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", "0.05"],
    }[command]
    out = tmp_path / "new" / "deeper" / "out.txt"
    code = main(argv + ["--out", str(out)])
    assert code in (0, 2), capsys.readouterr().err
    if command == "gen":  # gen has no stdout form: compare with a file in an existing directory
        flat = tmp_path / "flat.json"
        assert main(argv + ["--out", str(flat)]) == 0
        assert out.read_text(encoding="utf-8") == flat.read_text(encoding="utf-8")
        return
    capsys.readouterr()
    assert main(argv) == code
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


# ---------------------------------------------------------------------------
# bad input: refused with exit 1 and an error line, never a traceback
# ---------------------------------------------------------------------------


def assert_refused(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, (argv, err)
    assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    return err


def test_non_finite_tol_is_refused(tmp_path, sweep_dir, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    for tol in ("nan", "inf"):
        assert_refused(capsys, ["solve", "--profile", prof, "--rule", "nash", "--tol", tol])
        assert_refused(capsys, ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "1:1:1", "--tol", tol])
        assert_refused(capsys, ["oracle-verify", "--profile", prof, "--rule", "nash", "--tol", tol])


def test_non_finite_profile_or_allocation_is_refused(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    nan_prof = write_doc(tmp_path / "nan.json", {"n": 2, "m": 2, "prefs": [[float("nan"), 1.0], [0.5, 0.5]]})
    nan_alloc = write_doc(tmp_path / "x.json", [float("nan"), 1.0])
    assert_refused(capsys, ["solve", "--profile", nan_prof, "--rule", "nash"])
    assert_refused(capsys, ["check", "--profile", prof, "--allocation", nan_alloc, "--axioms", "rr"])


def test_non_finite_lambda_is_refused(sweep_dir, capsys):
    for lam in ("nan", "inf"):
        assert_refused(capsys, ["bounds", "--which", "gamma,wl", "--lambda", lam, "--m", "3", "--n", "5"])
        for which in ("wl-sm", "ifs-share", "el-sm", "min-agent", "afs"):
            assert_refused(capsys, ["bounds", "--which", which, "--lambda", lam])
        assert_refused(capsys, ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", f"1:{lam}:2"])


def test_unevaluable_rule_parameter_is_refused(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    for rule in ("negpower:32", "negpower:40", "negpower:nan", "negpower:inf", "negexp:nan", "power:nan"):
        assert_refused(capsys, ["solve", "--profile", prof, "--rule", rule])


def test_rule_without_a_parameter_refuses_one(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    for rule in ("nash:2", "quad:1", "util:1", "egal:1"):
        assert_refused(capsys, ["solve", "--profile", prof, "--rule", rule])
        assert_refused(capsys, ["oracle-verify", "--profile", prof, "--rule", rule])


def test_bound_sizes_are_refused(capsys):
    # fewer than two alternatives, or fewer agents than the closed form covers
    for which, m, n in (
        ("wl", "-3", "2"),
        ("wl", "1", "2"),
        ("wl-sm", "0", "2"),
        ("ifs-share", "-2", "5"),
        ("ifs-share", "3", "1"),
        ("el-sm", "3", "0"),
        ("min-agent", "3", "-2"),
        ("min-agent", "3", "0"),
        ("gamma", "1", "5"),
        ("gamma", "3", "1"),
    ):
        assert_refused(capsys, ["bounds", "--which", which, "--lambda", "1", "--m", m, "--n", n])


def test_bad_resolution_is_refused(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    for resolution in ("0", "-0.1", "nan", "inf"):
        for axiom in ("core", "eff"):
            argv = ["check", "--profile", prof, "--allocation", alloc, "--axioms", axiom, "--resolution", resolution]
            assert_refused(capsys, argv)
        assert_refused(capsys, ["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", resolution])


MALFORMED_PROFILES = [
    {"prefs": [[{}, 0.5]]},
    {"prefs": {"a": 1}},
    {"prefs": [[0.5, [0.5]], [0.0, 1.0]]},
    {"prefs": [["0.5", "0.5"], [True, False]]},
    {"prefs": [[0.5, 0.5], [0.0, True]]},
]
MALFORMED_ALLOCATIONS = [
    {"allocation": {"a": 1}},
    {"shares": [0.5, "x"]},
    [[0.5], 0.5],
    [{}, 0.5],
    ["0.25", "0.75"],
    {"shares": [False, True]},
]


def test_non_numbers_in_a_file_are_refused_with_its_path(tmp_path, capsys):
    # an object, a string, a boolean or a ragged list where a number belongs
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    for k, doc in enumerate(MALFORMED_PROFILES):
        bad = write_doc(tmp_path / f"bad_profile_{k}.json", doc)
        for argv in (
            ["solve", "--profile", bad, "--rule", "nash"],
            ["check", "--profile", bad, "--allocation", alloc, "--axioms", "rr"],
        ):
            assert f"error: {bad}: prefs" in assert_refused(capsys, argv)
    for k, doc in enumerate(MALFORMED_ALLOCATIONS):
        bad = write_doc(tmp_path / f"bad_allocation_{k}.json", doc)
        argv = ["check", "--profile", prof, "--allocation", bad, "--axioms", "rr"]
        assert f"error: {bad}: " in assert_refused(capsys, argv)


# (argv, message): refusals of gen's spec, a rule's parameter, the sweep
# grid and the file loaders; {name} stands for a file of REFUSAL_FILES,
# {out} for an output path and {dir} for a directory
REFUSAL_FILES = {
    "prof": SP_DOC,
    "listdoc": [0.5, 0.5],
    "flat": {"prefs": [0.5, 0.5]},
    "noalloc": {"weights": [0.25, 0.75]},
}
REFUSALS = {
    "gen-dirichlet-without-n-m": (["gen", "--kind", "dirichlet"], "dirichlet generation needs --n and --m"),
    "gen-single-minded-without-m": (["gen", "--kind", "single-minded", "--n", "3"], "single-minded generation needs --n and --m"),
    "gen-concentration": (["gen", "--kind", "dirichlet:0", "--n", "3", "--m", "2"], "dirichlet concentration must be positive"),
    "gen-concentration-nan": (
        ["gen", "--kind", "dirichlet:nan", "--n", "3", "--m", "2"],
        "dirichlet concentration must be finite, got 'nan'",
    ),
    "gen-concentration-infinite": (
        ["gen", "--kind", "dirichlet:inf", "--n", "3", "--m", "2"],
        "dirichlet concentration must be finite, got 'inf'",
    ),
    "gen-concentration-not-a-number": (
        ["gen", "--kind", "dirichlet:abc", "--n", "3", "--m", "2"],
        "dirichlet concentration must be a number, got 'abc'",
    ),
    "gen-groups-without-spec": (["gen", "--kind", "groups"], 'groups generation needs a spec, e.g. groups:"3:1,0,0;3:.5,.5,0"'),
    "gen-group-size": (["gen", "--kind", "groups:0:1,0"], "group size must be positive in '0:1,0'"),
    "gen-group-size-not-an-integer": (["gen", "--kind", "groups:x:1,0"], "group size must be an integer in 'x:1,0'"),
    "gen-group-weights-not-numbers": (["gen", "--kind", "groups:2:a,b"], "group weights must be numbers in '2:a,b'"),
    "gen-group-weights": (["gen", "--kind", "groups:2:0.5,0.4"], "group weights must sum to 1 in '2:0.5,0.4'"),
    "gen-group-weights-infinite": (["gen", "--kind", "groups:2:inf,-inf"], "group weights must be finite in '2:inf,-inf'"),
    "gen-group-weights-nan": (["gen", "--kind", "groups:2:1,nan"], "group weights must be finite in '2:1,nan'"),
    "gen-ragged-groups": (["gen", "--kind", "groups:2:1,0;3:1,0,0"], "group '3:1,0,0' has 3 weights, the first group has 2"),
    "gen-groups-n": (["gen", "--kind", "groups:2:1,0", "--n", "3"], "--n 3 does not match the groups spec total 2"),
    "gen-groups-m": (["gen", "--kind", "groups:2:1,0", "--m", "3"], "--m 3 does not match the groups spec width 2"),
    "gen-unknown-kind": (["gen", "--kind", "zipf", "--n", "2", "--m", "2"], "unknown generator kind 'zipf'"),
    "sweep-malformed-grid": (["sweep", "--profile-dir", "{dir}", "--lambda-grid", "1:2"], "lambda grid must look like lo:hi:count, got '1:2'"),
    "sweep-lambda-too-large": (
        ["sweep", "--profile-dir", "{dir}", "--lambda-grid", "1:40:2"],
        "lambda 40.0 is too large for a ladder rule: negpower:39 overflows f'' at the utility floor",
    ),
    "profile-not-a-document": (["solve", "--profile", "{listdoc}", "--rule", "nash"], "{listdoc}: not a profile document"),
    "prefs-not-a-matrix": (["solve", "--profile", "{flat}", "--rule", "nash"], "{flat}: prefs must be a matrix"),
    "no-allocation": (["check", "--profile", "{prof}", "--allocation", "{noalloc}", "--axioms", "rr"], "{noalloc}: no allocation found"),
    "rule-parameter-not-a-number": (
        ["solve", "--profile", "{prof}", "--rule", "negpower:abc"],
        "rule 'negpower' needs a number parameter, got 'abc'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_is_one_error_line(tmp_path, capsys, case):
    argv, message = REFUSALS[case]
    paths = {name: write_doc(tmp_path / f"{name}.json", doc) for name, doc in REFUSAL_FILES.items()}
    out = tmp_path / "out.json"
    paths.update(dir=str(tmp_path), out=str(out))
    if argv[0] == "gen":
        argv = [*argv, "--out", "{out}"]
    err = assert_refused(capsys, [arg.format(**paths) for arg in argv])
    assert err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("seed", None), ("seed", 1.7), ("seed", "7"), ("seed", True), ("n", True), ("m", 2.0)])
def test_profile_metadata_must_be_integers(tmp_path, sweep_dir, capsys, key, value):
    # null used to end in a traceback, 1.7 was printed as seed 1, "7" and
    # true were read as 7 and 1, and a declared n of true matched n = 1
    doc = {"n": 1, "m": 2, "prefs": [[0.25, 0.75]], "seed": 3, key: value}
    bad = write_doc(tmp_path / "bad.json", doc)
    assert f"error: {bad}: {key} must be an integer" in assert_refused(capsys, ["solve", "--profile", bad, "--rule", "nash"])
    write_doc(sweep_dir / "bad.json", doc)
    assert_refused(capsys, ["sweep", "--profile-dir", str(sweep_dir), "--lambda-grid", "1:1:1"])


# ---------------------------------------------------------------------------
# --help reads the same tables as parsing
# ---------------------------------------------------------------------------


def help_text(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_parser_is_built_once_and_each_parse_starts_afresh(capsys):
    assert build_parser() is build_parser()
    assert main(["bounds", "--which", "wl", "--lambda", "2", "--m", "5"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["params"] == {"lambda": 2.0, "m": 5}
    # the second parse takes the default m, not the first call's value
    assert main(["bounds", "--which", "wl", "--lambda", "2"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["params"] == {"lambda": 2.0, "m": 2}
    err = assert_refused(capsys, ["bounds", "--which", "wl"])
    assert err == "error: ctr bounds: the following arguments are required: --lambda\n"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["solve", "--rule", "nash"], "ctr solve: the following arguments are required: --profile"),
        (["solve", "--profile", "{prof}", "--rule", "nash", "--tol", "1e-9"], "ctr: unrecognized arguments: --tol 1e-9"),
        (["solve", "--profile", "{prof}", "--rule", "nash", "--tol", "abc"], "ctr: unrecognized arguments: --tol abc"),
        (["bounds", "--which", "wl", "--lambda", "abc"], "ctr bounds: argument --lambda: invalid float value: 'abc'"),
        (["bogus"], "ctr: argument command: invalid choice: 'bogus'"),
        ([], "ctr: the following arguments are required: command"),
    ],
    ids=["missing-profile", "tol", "tol-abc", "bad-float", "unknown-command", "no-command"],
)
def test_usage_errors_exit_1_with_one_error_line(tmp_path, capsys, argv, fragment):
    # exit 2 is left to non-convergence and failed checks, so a script can
    # tell a mistyped command from a failed solve
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    err = assert_refused(capsys, [arg.format(prof=prof) for arg in argv])
    assert err.startswith(f"error: {fragment}") and err.count("\n") == 1


def test_help_lists_exactly_the_table_names(capsys):
    rules = re.search(r"--rule RULE ((?:\S+ \| )+\S+)", help_text(capsys, "solve")).group(1)
    assert [r.removesuffix(":p") for r in rules.split(" | ")] == list(RULES)
    axioms = re.search(r"--axioms AXIOMS comma list: (\S+)", help_text(capsys, "check")).group(1)
    assert axioms.split(",") == list(AXIOMS)
    bounds = re.search(r"--which WHICH comma list: (\S+)", help_text(capsys, "bounds")).group(1)
    assert bounds.split(",") == list(BOUNDS)
