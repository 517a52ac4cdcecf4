"""Axiom checkers: certified holds, re-checkable witnesses, and probes."""

import numpy as np
import pytest

import ctrules as ct
from ctrules import solver
from helpers import core_example_profile, dirichlet_profile, sp_example_profile

NASH = ct.make_utility("log")


# ---------------------------------------------------------------------------
# Range respect
# ---------------------------------------------------------------------------


def test_rr_unanimous_ideal_holds():
    p = ct.Profile([[0.4, 0.6]] * 3)
    assert ct.check_rr(p, ct.Allocation([0.4, 0.6])).holds


def test_rr_inside_hull_holds():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    assert ct.check_rr(p, ct.Allocation([0.5, 0.5])).holds


def test_rr_outside_hull_fails_with_witness():
    p = ct.Profile([[1.0, 0.0], [1.0, 0.0]])
    x = ct.Allocation([0.5, 0.5])
    report = ct.check_rr(p, x)
    assert not report.holds
    # the second alternative has no supporter at all, yet receives 0.5
    assert p.prefs[:, 1].max() < x.shares[1]
    w = report.witness
    assert not w["min"] - 1e-9 <= w["share"] <= w["max"] + 1e-9


# ---------------------------------------------------------------------------
# Individual fair share
# ---------------------------------------------------------------------------


def test_ifs_sp_outcome_holds():
    report = ct.check_ifs(sp_example_profile(), ct.Allocation([0.25, 0.75]))
    assert report.holds


def test_ifs_unanimous_holds():
    p = ct.Profile([[0.5, 0.5]] * 4)
    assert ct.check_ifs(p, ct.Allocation([0.5, 0.5])).holds


def test_ifs_starved_agent_fails():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    report = ct.check_ifs(p, ct.Allocation([1.0, 0.0]))
    assert not report.holds
    w = report.witness
    assert w["agent"] == 1
    assert ct.satisfaction_vector(p, ct.Allocation([1.0, 0.0])).values[1] == pytest.approx(w["satisfaction"])
    assert w["satisfaction"] < w["threshold"] - 1e-9


# ---------------------------------------------------------------------------
# Proportionality
# ---------------------------------------------------------------------------


def test_prop_nash_on_two_groups():
    p = ct.Profile([[1.0, 0.0]] + [[0.0, 1.0]] * 3)
    report = ct.solve_ctr(p, NASH)
    assert ct.check_prop(p, report.allocation).holds


def test_prop_power_rule_fails():
    p = ct.Profile([[1.0, 0.0]] + [[0.0, 1.0]] * 3)
    report = ct.solve_ctr(p, ct.make_utility("power", p=0.5))
    assert np.allclose(report.allocation.shares, [0.1, 0.9], atol=1e-4)
    check = ct.check_prop(p, report.allocation)
    assert not check.holds
    w = check.witness
    assert abs(w["share"] - w["proportional"]) > 1e-6


def test_prop_unanimous_single_minded():
    p = ct.Profile([[0.0, 1.0]] * 5)
    assert ct.check_prop(p, ct.Allocation([0.0, 1.0])).holds


def test_prop_not_applicable_on_fractional_profile():
    report = ct.check_prop(sp_example_profile(), ct.Allocation([0.25, 0.75]))
    assert not report.applicable
    assert report.holds  # vacuous


# ---------------------------------------------------------------------------
# Cohesive groups
# ---------------------------------------------------------------------------


def test_cohesive_groups_unanimous():
    p = ct.Profile([[0.5, 0.5]] * 3)
    alpha, mean = ct.cohesive_groups(p, np.ones(3))
    assert len(alpha) == 7
    # every raw cohesion is 1, so the |S|/n cap decides
    popcount = np.array([bin(mask).count("1") for mask in range(1, 8)])
    assert alpha == pytest.approx(popcount / 3)
    assert mean == pytest.approx(np.ones(7))


def test_cohesive_groups_disjoint_pair():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    alpha, _ = ct.cohesive_groups(p, np.ones(2))
    assert alpha[0b11 - 1] == pytest.approx(0.0)


def test_cohesive_groups_core_example_joint_group():
    p = core_example_profile()
    alpha, _ = ct.cohesive_groups(p, np.ones(p.n))
    assert alpha[0b111111 - 1] == pytest.approx(0.5)


def test_cohesive_groups_guard():
    p = dirichlet_profile(0, 21, 2)
    with pytest.raises(ct.GuardError):
        ct.cohesive_groups(p, np.ones(21))


# ---------------------------------------------------------------------------
# Average fair share
# ---------------------------------------------------------------------------


def test_afs_nash_outputs_hold_on_random_profiles():
    for seed in range(8):
        p = dirichlet_profile(seed, 3 + seed % 5, 3)
        report = ct.solve_ctr(p, NASH)
        assert report.converged
        assert ct.check_afs(p, report.allocation, lam=1.0).holds


def test_afs_unanimous_ideal_holds():
    p = ct.Profile([[0.3, 0.7]] * 4)
    assert ct.check_afs(p, ct.Allocation([0.3, 0.7]), lam=1.0).holds


def test_afs_low_iav_rule_meets_relaxed_guarantee():
    f = ct.make_utility("power", p=0.75)  # inequality aversion 0.25
    for seed in range(6):
        p = dirichlet_profile(seed + 10, 4 + seed % 4, 3)
        report = ct.solve_ctr(p, f)
        assert report.converged
        assert ct.check_afs(p, report.allocation, lam=0.25).holds


def test_afs_failure_witness_revalidates():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    report = ct.check_afs(p, ct.Allocation([1.0, 0.0]), lam=1.0)
    assert not report.holds
    w = report.witness
    sats = ct.satisfaction_vector(p, ct.Allocation([1.0, 0.0])).values
    assert float(sats[w["members"]].mean()) == pytest.approx(w["mean_satisfaction"])
    assert w["mean_satisfaction"] < w["bound"] - 1e-9


def test_afs_lambda_validation():
    p = sp_example_profile()
    with pytest.raises(ValueError):
        ct.check_afs(p, ct.Allocation([0.5, 0.5]), lam=1.5)


# ---------------------------------------------------------------------------
# Core stability
# ---------------------------------------------------------------------------


def test_core_example_blocked():
    p = core_example_profile()
    report = ct.check_core(p, ct.Allocation([0.5, 0.0, 0.5]), resolution=0.05)
    assert not report.holds
    w = report.witness
    assert w["budget"] == pytest.approx(0.6)
    assert w["members"] == [0, 1, 2, 3, 4, 5]
    # re-validate: deviation budget, weak improvement, one strict gain
    y = np.array(w["deviation"])
    assert y.sum() == pytest.approx(0.6, abs=1e-9)
    before = np.array(w["satisfactions_before"])
    after = np.minimum(p.prefs[w["members"]], y).sum(axis=1)
    assert np.allclose(after, w["satisfactions_after"])
    assert np.all(after >= before - 1e-9)
    assert np.any(after > before + 0.05)


def test_core_unanimous_holds():
    p = ct.Profile([[0.5, 0.25, 0.25]] * 4)
    assert ct.check_core(p, ct.Allocation([0.5, 0.25, 0.25]), resolution=0.05).holds


def test_core_single_agent_ideal_holds():
    p = ct.Profile([[0.75, 0.25]])
    assert ct.check_core(p, ct.Allocation([0.75, 0.25]), resolution=0.05).holds


def test_core_single_agent_inefficient_allocation_blocked():
    # alone, the agent can deviate to her ideal with the full budget
    p = ct.Profile([[0.75, 0.25]])
    report = ct.check_core(p, ct.Allocation([0.25, 0.75]), resolution=0.05)
    assert not report.holds


def test_core_guards():
    with pytest.raises(ct.GuardError):
        ct.check_core(dirichlet_profile(0, 13, 2), ct.Allocation([0.5, 0.5]), resolution=0.1)
    with pytest.raises(ct.GuardError):
        ct.check_core(dirichlet_profile(0, 2, 5), ct.Allocation.uniform(5), resolution=0.1)


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------


def test_efficiency_of_converged_output():
    p = dirichlet_profile(17, 4, 3)
    report = ct.solve_ctr(p, NASH)
    assert report.converged
    assert ct.check_efficiency(p, report.allocation, resolution=0.02).holds


def test_efficiency_fails_with_wasted_mass():
    p = ct.Profile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    report = ct.check_efficiency(p, ct.Allocation([0.25, 0.25, 0.5]), resolution=0.05)
    assert not report.holds
    w = report.witness
    y = np.array(w["dominating"])
    after = np.minimum(p.prefs, y).sum(axis=1)
    before = ct.satisfaction_vector(p, ct.Allocation([0.25, 0.25, 0.5])).values
    assert np.all(after >= before - 1e-9)
    assert np.any(after > before + 0.05)


def test_efficiency_unanimous_ideal_holds():
    p = ct.Profile([[0.2, 0.8]] * 3)
    assert ct.check_efficiency(p, ct.Allocation([0.2, 0.8]), resolution=0.05).holds


def test_efficiency_guard():
    # the LP walks no grid, so efficiency has no m guard: at m = 5-8 the Nash
    # optimum holds and an allocation that puts mass where nobody wants it fails
    for m in range(5, 9):
        p = ct.Profile(np.insert(dirichlet_profile(m, 2 * m, m - 1).prefs, 0, 0.0, axis=1))
        report = ct.solve_ctr(p, NASH)
        assert report.converged
        assert ct.check_efficiency(p, report.allocation, resolution=0.01).holds
        wasteful = ct.Allocation(0.5 * report.allocation.shares + 0.5 * np.eye(m)[0])
        failed = ct.check_efficiency(p, wasteful, resolution=0.01)
        assert not failed.holds
        _revalidate(p, wasteful, failed)


# ---------------------------------------------------------------------------
# Participation
# ---------------------------------------------------------------------------


def test_participation_holds_on_random_instances():
    for seed in range(12):
        p = dirichlet_profile(seed + 200, 3 + seed % 3, 3)
        report = ct.probe_participation(p, NASH, seed % p.n)
        assert report.holds


def test_participation_unanimous_equality():
    p = ct.Profile([[0.5, 0.5]] * 3)
    report = ct.probe_participation(p, NASH, 0)
    assert report.holds


def test_participation_fuzz_over_rules():
    rng = np.random.default_rng(7)
    rules = [NASH, ct.make_utility("power", p=0.5), ct.make_utility("negpower", p=1.0)]
    for trial in range(50):
        p = dirichlet_profile(int(rng.integers(1 << 30)), int(rng.integers(2, 5)), 3)
        f = rules[trial % len(rules)]
        i = int(rng.integers(p.n))
        assert ct.probe_participation(p, f, i).holds


def test_participation_refuses_an_uncertified_solve(monkeypatch):
    # one polish step certifies neither the full nor the reduced solve
    p = dirichlet_profile(0, 6, 3)
    monkeypatch.setattr(solver, "_MAX_ITERS", 1)
    assert not ct.solve_ctr(p, NASH).converged
    with pytest.raises(RuntimeError, match="participation probe"):
        ct.probe_participation(p, NASH, 0)


def test_participation_needs_two_agents():
    with pytest.raises(ValueError):
        ct.probe_participation(ct.Profile([[0.5, 0.5]]), NASH, 0)


# ---------------------------------------------------------------------------
# Strategyproofness
# ---------------------------------------------------------------------------


def test_sp_counterexample_gain():
    report = ct.probe_strategyproofness(sp_example_profile(), NASH, 0, resolution=0.05)
    assert not report.holds
    w = report.witness
    assert w["gain"] >= 0.25 - 1e-3
    assert np.allclose(w["misreport"], [1.0, 0.0], atol=1e-9)
    # re-validate the manipulation end to end
    manipulated = ct.solve_ctr(sp_example_profile().replace_row(0, w["misreport"]), NASH)
    sat = float(np.minimum(sp_example_profile().prefs[0], manipulated.allocation.shares).sum())
    assert sat == pytest.approx(w["manipulated_satisfaction"], abs=1e-9)


def test_sp_counterexample_gains_for_every_rule_kind():
    # the manipulation pays off no matter which concave utility drives the rule
    p = sp_example_profile()
    for f in (
        ct.make_utility("power", p=0.25),
        ct.make_utility("negpower", p=0.5),
        ct.make_utility("negexppower", p=1.0),
        ct.make_utility("quadratic"),
    ):
        report = ct.probe_strategyproofness(p, f, 0, resolution=0.25)
        assert not report.holds, f.kind
        assert report.witness["gain"] > 1e-3, f.kind


def test_sp_unanimous_no_gain():
    p = ct.Profile([[0.5, 0.5]] * 2)
    report = ct.probe_strategyproofness(p, NASH, 0, resolution=0.1)
    assert report.holds


def test_sp_single_agent_no_gain():
    p = ct.Profile([[0.3, 0.7]])
    report = ct.probe_strategyproofness(p, NASH, 0, resolution=0.25)
    assert report.holds


def test_sp_guard():
    with pytest.raises(ct.GuardError):
        ct.probe_strategyproofness(dirichlet_profile(0, 2, 5), NASH, 0, resolution=0.25)


def test_sp_grid_guard_fires_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ctr ran before the grid guard")

    monkeypatch.setattr(ct.axioms, "solve_ctr", no_solve)
    with pytest.raises(ct.GuardError):
        ct.probe_strategyproofness(dirichlet_profile(0, 3, 3), NASH, 0, resolution=1e-6)


@pytest.mark.parametrize("seed", range(1, 6))
def test_sp_refuses_uncertified_misreport_solves(seed):
    # steep negexppower leaves several of these misreport re-solves
    # uncertified; a gain read off them is not the rule's, so the probe
    # raises as the participation probe does
    f = ct.make_utility("negexppower", p=8)
    p = ct.Profile(np.random.default_rng(seed).dirichlet(np.full(3, 0.5), size=5))
    with pytest.raises(RuntimeError, match="strategyproofness probe"):
        ct.probe_strategyproofness(p, f, 0, resolution=0.25)


def test_sp_refuses_an_uncertified_honest_solve(monkeypatch):
    p = dirichlet_profile(0, 6, 3)
    monkeypatch.setattr(solver, "_MAX_ITERS", 1)
    assert not ct.solve_ctr(p, NASH).converged
    with pytest.raises(RuntimeError, match="strategyproofness probe"):
        ct.probe_strategyproofness(p, NASH, 0, resolution=0.25)


def test_sp_rejects_bad_resolution():
    for resolution in (0.0, float("nan")):
        with pytest.raises(ValueError):
            ct.probe_strategyproofness(sp_example_profile(), NASH, 0, resolution=resolution)


def test_prop_fails_for_each_non_log_kind_on_three_alternatives():
    # three single-minded groups with sizes 1/1/2
    p = ct.Profile([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
    for f in (
        ct.make_utility("power", p=0.5),
        ct.make_utility("negpower", p=1.0),
        ct.make_utility("negexppower", p=1.0),
        ct.make_utility("quadratic"),
    ):
        report = ct.solve_ctr(p, f)
        assert report.converged, f.kind
        assert not ct.check_prop(p, report.allocation).holds, f.kind
    nash_report = ct.solve_ctr(p, NASH)
    assert ct.check_prop(p, nash_report.allocation).holds


# ---------------------------------------------------------------------------
# Blanket witness re-validation
# ---------------------------------------------------------------------------


def _revalidate(profile, x, report):
    """Recompute a failing report's claim from raw data."""
    w = report.witness
    pi = ct.satisfaction_vector(profile, x).values
    if report.axiom == "RR":
        j = w["alternative"]
        lo, hi = profile.prefs[:, j].min(), profile.prefs[:, j].max()
        assert (lo, hi) == (w["min"], w["max"])
        assert not lo - 1e-9 <= x.shares[j] <= hi + 1e-9
    elif report.axiom == "IFS":
        assert pi[w["agent"]] == pytest.approx(w["satisfaction"])
        assert w["satisfaction"] < 1.0 / profile.n - 1e-9
    elif report.axiom == "PROP":
        j = w["alternative"]
        assert profile.prefs[:, j].mean() == pytest.approx(w["proportional"])
        assert abs(x.shares[j] - w["proportional"]) > 1e-6
    elif report.axiom == "AFS":
        members = w["members"]
        raw = profile.prefs[members].min(axis=0).sum()
        assert min(raw, len(members) / profile.n) == pytest.approx(w["alpha"])
        assert pi[members].mean() == pytest.approx(w["mean_satisfaction"])
        assert w["mean_satisfaction"] < w["bound"] - 1e-9
    elif report.axiom == "core":
        members = w["members"]
        y = np.array(w["deviation"])
        assert y.sum() == pytest.approx(len(members) / profile.n, abs=1e-9)
        after = np.minimum(profile.prefs[members], y).sum(axis=1)
        assert np.all(after >= pi[members] - 1e-9)
        assert np.any(after > pi[members] + w["resolution"])
    elif report.axiom == "efficiency":
        y = np.array(w["dominating"])
        after = np.minimum(profile.prefs, y).sum(axis=1)
        assert np.all(after >= pi - 1e-9)
        assert np.any(after > pi + w["resolution"])
    else:
        raise AssertionError(f"unexpected axiom {report.axiom}")


def test_every_failing_witness_revalidates():
    rng = np.random.default_rng(31415)
    failures = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        if rng.random() < 0.5:
            rows = np.zeros((n, m))
            rows[np.arange(n), rng.integers(0, m, size=n)] = 1.0
            profile = ct.Profile(rows)
        else:
            profile = ct.Profile(rng.dirichlet(np.ones(m), size=n))
        x = ct.Allocation(rng.dirichlet(np.full(m, 0.5)))
        checks = [
            ct.check_rr(profile, x),
            ct.check_ifs(profile, x),
            ct.check_prop(profile, x),
            ct.check_afs(profile, x, lam=1.0),
            ct.check_core(profile, x, resolution=0.1),
            ct.check_efficiency(profile, x, resolution=0.1),
        ]
        for report in checks:
            if report.applicable and not report.holds:
                failures += 1
                assert report.witness is not None
                _revalidate(profile, x, report)
    # random allocations against adversarial profiles must trip plenty of axioms
    assert failures > 20
