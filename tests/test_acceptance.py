"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 compares the exact gamma maximin against a reference
table at 3 decimals and 5e-4.  Three entries of that table, (3, 10), (8, 10)
and (20, 100), were corrected from 0.474, 0.519 and 0.094 to 0.475, 0.520
and 0.095: the old values came from maximizing over a w-grid of step 1e-3,
whose best point lies below the crossing.  The exact values 0.474745,
0.519507 and 0.094692 were checked with scipy's brentq on the same crossing.
test_bounds.py asserts the closed form m(n-1)/(m(n-1)+1) of the lambda = 1
entries and the equalizer identity m*w* = 1 - (w*/(n-1))^(1/lambda) at the
three corrected entries.
"""

import time

import numpy as np
import pytest

import ctrules as ct
from ctrules.cli import ladder_rule
from helpers import GAMMA_TABLE_N100, core_example_profile, perturbed_start_ascent, sp_example_profile, two_group_profile

LADDER = (0.25, 0.5, 1.0, 2.0, 10.0)


def _line(num: int, ok: bool, name: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: {status} - {name}{suffix}")


def _oracle_report(profile: ct.Profile, objective: str) -> ct.SolveReport:
    vec, val = ct.brute_force_best(profile, objective, ct.GridSpec(profile.m, 0.01))
    alloc = ct.Allocation(vec)
    return ct.SolveReport(
        allocation=alloc,
        satisfactions=ct.satisfaction_vector(profile, alloc),
        objective=val,
        mrs_gap=0.0,
        iterations=0,
        converged=True,
    )


def test_criterion_01_sp_counterexample():
    truthful = sp_example_profile()
    misreported = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    ok = True
    worst_time = 0.0
    for f in (ct.make_utility("log"), ct.make_utility("power", p=0.5), ct.make_utility("negpower", p=2.0)):
        t0 = time.perf_counter()
        honest = ct.solve_ctr(truthful, f)
        lied = ct.solve_ctr(misreported, f)
        probe = ct.probe_strategyproofness(truthful, f, 0, resolution=0.05)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        ok &= honest.converged and np.allclose(honest.allocation.shares, [0.25, 0.75], atol=1e-4)
        ok &= lied.converged and np.allclose(lied.allocation.shares, [0.5, 0.5], atol=1e-4)
        ok &= (not probe.holds) and probe.witness["gain"] >= 0.25 - 1e-3
        ok &= elapsed < 1.0
    _line(1, ok, "manipulation counterexample", f"max {worst_time:.2f}s per rule")
    assert ok


def test_criterion_02_core_violation_example():
    profile = core_example_profile()
    report = ct.solve_ctr(profile, ct.make_utility("log"))
    ok = report.converged and np.allclose(report.allocation.shares, [0.5, 0.0, 0.5], atol=1e-3)
    core = ct.check_core(profile, report.allocation, resolution=0.05)
    ok &= not core.holds
    w = core.witness
    ok &= abs(w["budget"] - 0.6) <= 1e-9
    after = np.array(w["satisfactions_after"])
    ok &= bool(np.all(after >= 0.55 - 0.05 - 1e-9))
    _line(2, ok, "blocking coalition on the three-group example")
    assert ok


def test_criterion_03_only_nash_is_proportional():
    rng = np.random.default_rng(2024)
    nash = ct.make_utility("log")
    profiles = []
    ok = True
    for _ in range(100):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, 21))
        rows = np.zeros((n, m))
        rows[np.arange(n), rng.integers(0, m, size=n)] = 1.0
        p = ct.Profile(rows)
        profiles.append(p)
        report = ct.solve_ctr(p, nash)
        target = p.prefs.mean(axis=0)
        ok &= report.converged and np.abs(report.allocation.shares - target).max() <= 1e-4
    for f in (ct.make_utility("power", p=0.5), ct.make_utility("negpower", p=1.0)):
        deviated = False
        for p in profiles:
            report = ct.solve_ctr(p, f)
            target = p.prefs.mean(axis=0)
            if np.abs(report.allocation.shares - target).max() > 0.01:
                deviated = True
                break
        ok &= deviated
    _line(3, ok, "proportionality holds for the log rule only")
    assert ok


def test_criterion_04_two_group_closed_form():
    ok = True
    worst = 0.0
    for s1, s2 in ((1, 3), (2, 5), (1, 9)):
        for lam in (0.5, 1.0, 2.0):
            report = ct.solve_ctr(two_group_profile(s1, s2), ladder_rule(lam))
            x1, x2 = report.allocation.shares
            expected = (s2 / s1) ** (1.0 / lam)
            rel = abs(x2 / x1 - expected) / expected
            worst = max(worst, rel)
            ok &= report.converged and rel <= 1e-3
    _line(4, ok, "two-group share ratios", f"worst relative error {worst:.1e}")
    assert ok


def test_criterion_05_gamma_reference_table():
    t0 = time.perf_counter()
    values = {(m, lam): ct.gamma(m, 100, lam)[0] for (m, lam) in GAMMA_TABLE_N100}
    elapsed = time.perf_counter() - t0
    mismatches = []
    for key, printed in GAMMA_TABLE_N100.items():
        v = values[key]
        if round(v, 3) != printed or abs(v - printed) > 5e-4:
            mismatches.append(f"m={key[0]} lambda={key[1]:g}: exact {v:.6f} vs printed {printed:.3f}")
    ok = not mismatches and elapsed < 0.010
    detail = f"{16 - len(mismatches)}/16 entries, {elapsed * 1e3:.1f}ms"
    _line(5, ok, "gamma reference table at 3 decimals / 5e-4", detail)
    assert elapsed < 0.010
    assert not mismatches, "; ".join(mismatches)


def test_criterion_06_bound_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    violations = []
    for idx in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        profile = ct.Profile(rng.dirichlet(np.ones(m), size=n))
        util_ref = _oracle_report(profile, "welfare")
        egal_ref = _oracle_report(profile, "maxmin")
        for lam in LADDER:
            f = ladder_rule(lam)
            report = ct.solve_ctr(profile, f)
            if not report.converged:
                violations.append(f"instance {idx} lambda={lam:g}: no convergence")
                continue
            for check in ct.verify_bounds(profile, f, report, util_ref, egal_ref):
                if not check.satisfied:
                    violations.append(
                        f"instance {idx} lambda={lam:g} {check.kind}: "
                        f"empirical {check.empirical:.6f} vs bound {check.bound:.6f}"
                    )
            if lam <= 1.0:
                afs = ct.check_afs(profile, report.allocation, lam=lam)
                if not afs.holds:
                    violations.append(f"instance {idx} lambda={lam:g} AFS: {afs.witness}")
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    _line(6, ok, "bound fuzz over 200 instances x 5 rules", f"{elapsed:.0f}s")
    assert elapsed < 300.0
    assert not violations, violations[:5]


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        profile = ct.Profile(rng.dirichlet(np.ones(3), size=n))
        for f in (ct.make_utility("log"), ct.make_utility("power", p=0.5), ct.make_utility("negpower", p=2.0)):
            r1 = ct.solve_ctr(profile, f)
            sats, converged = perturbed_start_ascent(profile, f, seed=99)
            ok &= r1.converged and converged
            ok &= float(np.abs(r1.satisfactions.values - sats).max()) <= 1e-4
            _, best = ct.brute_force_best(profile, "ctr", ct.GridSpec(3, 0.01), f=f)
            lipschitz = profile.n * float(f.deriv(f.floor))
            ok &= r1.objective >= best - lipschitz * 0.01
    _line(7, ok, "grid-oracle agreement and perturbed-start equivalence")
    assert ok


def test_criterion_08_closed_form_unit_checks():
    ok = ct.wl_bound(1.0, 3) == pytest.approx(0.6, abs=1e-12)
    for m, n in ((2, 5), (5, 9), (7, 3)):
        ok &= abs(ct.ifs_share_bound(1e6, m, n) - 1.0 / m) <= 1e-4
        ok &= abs(ct.min_agent_bound(1e6, m, n) - 1.0 / m) <= 1e-4
    for alpha in (0.1, 0.33, 0.75, 1.0):
        ok &= ct.afs_bound(alpha, 1.0) == alpha
    _line(8, ok, "closed-form limits and exact values")
    assert ok


def test_criterion_09_iav_analytics():
    ts = np.linspace(0.01, 1.0, 100)
    ok = True
    for f, expected in (
        (ct.make_utility("log"), 1.0),
        (ct.make_utility("power", p=0.3), 0.7),
        (ct.make_utility("power", p=0.5), 0.5),
        (ct.make_utility("negpower", p=1.0), 2.0),
        (ct.make_utility("negpower", p=2.0), 3.0),
    ):
        numeric = -ts * np.asarray(f.second(ts)) / np.asarray(f.deriv(ts))
        ok &= float(np.abs(numeric - expected).max()) <= 1e-7
    rng = np.random.default_rng(5)
    f = ct.make_utility("negexppower", p=1.0)
    for _ in range(1000):
        t = float(rng.uniform(0.01, 1.0))
        alpha = float(rng.uniform(1.0 + 1e-9, 1.0 / t)) if t < 1.0 else 1.0 + 1e-9
        ratio = float(f.deriv(t) / f.deriv(alpha * t))
        ok &= ratio >= alpha**2 - 1e-9
    _line(9, ok, "inequality-aversion analytics")
    assert ok


def test_criterion_10_performance():
    rng = np.random.default_rng(31337)
    worst = 0.0
    ok = True
    for _ in range(3):
        profile = ct.Profile(rng.dirichlet(np.ones(20), size=100))
        t0 = time.perf_counter()
        report = ct.solve_ctr(profile, ct.make_utility("log"))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok &= report.converged and report.mrs_gap <= 1e-7 and elapsed < 1.0
    _line(10, ok, "n=100, m=20 solve under one second", f"worst {worst:.3f}s")
    assert ok
