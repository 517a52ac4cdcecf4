"""End-to-end CLI contract: commands, file formats, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

import ctrules as ct
from ctrules.cli import load_profile, main, save_profile

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


def test_check_guard_violation_exits_three(tmp_path):
    rng = np.random.default_rng(0)
    prefs = rng.dirichlet(np.ones(2), 13).tolist()
    prof = write_doc(tmp_path / "big.json", {"n": 13, "m": 2, "prefs": prefs})
    alloc = write_doc(tmp_path / "x.json", [0.5, 0.5])
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "core"]) == 3


def test_check_grid_guard_exits_three_at_once(tmp_path, capsys):
    # at 1e-3 the one-agent core grids fit the 1e7-point guard but the
    # grand coalition's does not; the guard must fire before any search
    prefs = np.random.default_rng(1).dirichlet(np.ones(4), 10).tolist()
    prof = write_doc(tmp_path / "m4.json", {"n": 10, "m": 4, "prefs": prefs})
    alloc = write_doc(tmp_path / "x.json", [0.25] * 4)
    for axiom, resolution in (("eff", "1e-6"), ("core", "1e-3"), ("core", "1e-9")):
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
        check + ["eff"],
        check + ["core"],
        ["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", "1e-320"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3, (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_check_unknown_axiom_exits_one(tmp_path):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.5, 0.5])
    assert main(["check", "--profile", prof, "--allocation", alloc, "--axioms", "pareto"]) == 1


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


def test_oracle_verify_guard(tmp_path):
    rng = np.random.default_rng(0)
    prefs = rng.dirichlet(np.ones(5), 3).tolist()
    prof = write_doc(tmp_path / "wide.json", {"n": 3, "m": 5, "prefs": prefs})
    assert main(["oracle-verify", "--profile", prof, "--rule", "nash"]) == 3


def test_save_profile_includes_labels(tmp_path):
    p = ct.Profile([[0.5, 0.5]])
    path = tmp_path / "labeled.json"
    save_profile(path, p, labels=["roads", "parks"], seed=3)
    profile, meta = load_profile(path)
    assert meta["labels"] == ["roads", "parks"]
    assert profile.n == 1


# ---------------------------------------------------------------------------
# bad input: refused with exit 1 and an error line, never a traceback
# ---------------------------------------------------------------------------


def assert_refused(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, (argv, err)
    assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


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
    for rule in ("negpower:40", "negpower:nan", "negpower:inf", "negexp:nan", "power:nan"):
        assert_refused(capsys, ["solve", "--profile", prof, "--rule", rule])


def test_bad_resolution_is_refused(tmp_path, capsys):
    prof = write_doc(tmp_path / "sp.json", SP_DOC)
    alloc = write_doc(tmp_path / "x.json", [0.25, 0.75])
    for resolution in ("0", "-0.1", "nan", "inf"):
        for axiom in ("core", "eff"):
            argv = ["check", "--profile", prof, "--allocation", alloc, "--axioms", axiom, "--resolution", resolution]
            assert_refused(capsys, argv)
        assert_refused(capsys, ["oracle-verify", "--profile", prof, "--rule", "nash", "--resolution", resolution])
