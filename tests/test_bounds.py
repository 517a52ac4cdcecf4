"""Closed-form bounds, loss measurements, and the verification harness."""

import dataclasses

import numpy as np
import pytest

import ctrules as ct
from helpers import GAMMA_TABLE_N100, core_example_profile, dirichlet_profile, single_minded_profile

NASH = ct.make_utility("log")


# ---------------------------------------------------------------------------
# Welfare and losses
# ---------------------------------------------------------------------------


def test_welfare_unanimous():
    p = ct.Profile([[0.5, 0.5]] * 6)
    assert ct.welfare(p, ct.Allocation([0.5, 0.5])) == pytest.approx(6.0)


def test_welfare_core_example():
    assert ct.welfare(core_example_profile(), ct.Allocation([0.5, 0.0, 0.5])) == pytest.approx(5.0)


def test_welfare_two_group_split():
    p = ct.Profile([[1.0, 0.0]] + [[0.0, 1.0]] * 3)
    assert ct.welfare(p, ct.Allocation([0.25, 0.75])) == pytest.approx(2.5)


def test_welfare_loss_zero_at_reference():
    p = dirichlet_profile(1, 5, 3)
    ref = ct.solve_utilitarian(p)
    assert ct.welfare_loss(p, ref.allocation, ref) == pytest.approx(0.0, abs=1e-9)


def test_welfare_loss_two_group_nash():
    p = ct.Profile([[1.0, 0.0]] + [[0.0, 1.0]] * 3)
    ref = ct.solve_utilitarian(p)
    assert ref.objective == pytest.approx(3.0, abs=1e-6)
    nash = ct.solve_ctr(p, NASH)
    assert ct.welfare_loss(p, nash.allocation, ref) == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_welfare_loss_against_oracle_reference():
    p = dirichlet_profile(11, 5, 3)
    solver_ref = ct.solve_utilitarian(p)
    _, oracle_w = ct.brute_force_best(p, "welfare", ct.GridSpec(3, 0.01))
    assert solver_ref.objective == pytest.approx(oracle_w, abs=1e-3)


def test_welfare_loss_requires_converged_reference():
    p = dirichlet_profile(2, 3, 3)
    ref = ct.solve_utilitarian(p)
    broken = ct.SolveReport(
        allocation=ref.allocation,
        satisfactions=ref.satisfactions,
        objective=ref.objective,
        mrs_gap=ref.mrs_gap,
        iterations=ref.iterations,
        converged=False,
    )
    with pytest.raises(ValueError):
        ct.welfare_loss(p, ref.allocation, broken)


def test_egalitarian_loss_requires_converged_reference():
    p = dirichlet_profile(2, 3, 3)
    ref = ct.solve_egalitarian(p)
    broken = dataclasses.replace(ref, converged=False)
    with pytest.raises(ValueError, match="egalitarian reference did not converge"):
        ct.egalitarian_loss(p, ref.allocation, broken)


def test_egalitarian_loss_zero_at_reference():
    p = dirichlet_profile(3, 4, 3)
    ref = ct.solve_egalitarian(p)
    assert ct.egalitarian_loss(p, ref.allocation, ref) == pytest.approx(0.0, abs=1e-7)


def test_egalitarian_loss_single_minded_identity():
    # with every alternative supported the maxmin is uniform at 1/m
    p = ct.Profile([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
    ref = ct.solve_egalitarian(p)
    x = ct.Allocation([0.5, 0.3, 0.2])
    min_sat = ct.satisfaction_vector(p, x).min()
    assert ct.egalitarian_loss(p, x, ref) == pytest.approx(1.0 - 3 * min_sat, abs=1e-8)


def test_egalitarian_loss_against_oracle_reference():
    p = dirichlet_profile(13, 5, 3)
    ref = ct.solve_egalitarian(p)
    _, oracle_mm = ct.brute_force_best(p, "maxmin", ct.GridSpec(3, 0.00025))
    assert ref.objective == pytest.approx(oracle_mm, abs=1e-3)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_wl_bound_values():
    assert ct.wl_bound(1.0, 3) == pytest.approx(0.6)
    assert ct.wl_bound(1.0, 15) == pytest.approx(15.0 / 17.0)
    assert ct.wl_bound(1e-9, 3) == pytest.approx(0.0, abs=1e-6)


def test_wl_bound_single_minded_values():
    assert ct.wl_bound_single_minded(1.0, 3) == pytest.approx(1.0 / 3.0)
    assert ct.wl_bound_single_minded(1e9, 15) == pytest.approx(14.0 / 15.0, abs=1e-6)
    assert ct.wl_bound_single_minded(1.0, 2) == pytest.approx(0.25)


def test_ifs_share_bound_values():
    assert ct.ifs_share_bound(1e9, 5, 7) == pytest.approx(0.2, abs=1e-6)
    assert ct.ifs_share_bound(1.0, 3, 11) == pytest.approx(1.0 / 21.0)
    assert ct.ifs_share_bound(1.0, 2, 2) == pytest.approx(0.5)


def test_el_bound_single_minded_values():
    assert ct.el_bound_single_minded(1e9, 4, 9) == pytest.approx(0.0, abs=1e-6)
    assert ct.el_bound_single_minded(10.0, 3, 20) == pytest.approx(1.0 - 3.0 / (1.0 + 2.0 * 19.0**0.1))
    assert ct.el_bound_single_minded(100.0, 15, 100) == pytest.approx(1.0 - 15.0 / (1.0 + 14.0 * 99.0**0.01))


def test_min_agent_bound_values():
    assert ct.min_agent_bound(1e9, 4, 6) == pytest.approx(0.25, abs=1e-6)
    assert ct.min_agent_bound(1.0, 2, 4) == pytest.approx(0.125)
    assert ct.min_agent_bound(3.0, 5, 1) == pytest.approx(0.2)


def test_afs_bound_values():
    assert ct.afs_bound(0.37, 1.0) == pytest.approx(0.37)
    assert ct.afs_bound(1.0, 0.2) == pytest.approx(1.0)
    assert ct.afs_bound(0.25, 0.5) == pytest.approx(0.0625)


def test_bound_parameter_validation():
    with pytest.raises(ValueError):
        ct.wl_bound(0.0, 3)
    with pytest.raises(ValueError):
        ct.ifs_share_bound(1.0, 3, 1)
    with pytest.raises(ValueError):
        ct.afs_bound(0.5, 2.0)
    for alpha in (0.0, 1.5, np.array([0.5, 0.0])):
        with pytest.raises(ValueError, match="alpha must lie in"):
            ct.afs_bound(alpha, 0.5)
    with pytest.raises(ValueError):
        ct.gamma(1, 10, 1.0)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ct.wl_bound(lam, 3)
        with pytest.raises(ValueError):
            ct.gamma(3, 10, lam)


@pytest.mark.parametrize("lam", [True, False, "2", None, np.bool_(True)])
def test_lambda_must_be_a_real_number(lam):
    # True passed for lambda = 1: wl_bound(True, 3) read 0.6
    p = ct.Profile([[0.5, 0.5]])
    for call in (
        lambda: ct.wl_bound(lam, 3),
        lambda: ct.wl_bound_single_minded(lam, 3),
        lambda: ct.ifs_share_bound(lam, 3, 4),
        lambda: ct.el_bound_single_minded(lam, 3, 4),
        lambda: ct.min_agent_bound(lam, 3, 4),
        lambda: ct.gamma(3, 4, lam),
    ):
        with pytest.raises(ValueError, match="lambda must be"):
            call()
    with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\]$"):
        ct.afs_bound(0.5, lam)
    with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\]$"):
        ct.check_afs(p, ct.Allocation([0.5, 0.5]), lam=lam)
    if isinstance(lam, bool):
        with pytest.raises(ValueError, match=f"^lambda must be a real number, got {lam}$"):
            ct.wl_bound(lam, 3)
    # numpy's numbers are real numbers
    assert ct.wl_bound(np.float64(1.0), 3) == ct.wl_bound(1.0, 3)
    assert ct.afs_bound(0.25, np.float64(0.5)) == ct.afs_bound(0.25, 0.5)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_equalizer_property():
    cases = [(3, 100, 10.0), (8, 100, 10.0), (20, 100, 100.0), (8, 100, 1.0), (15, 100, 0.5), (4, 12, 2.0)]
    for m, n, lam in cases:
        value, omega = ct.gamma(m, n, lam)
        assert m * omega == pytest.approx(value, abs=1e-8)
        assert m * omega == pytest.approx(1.0 - (omega / (n - 1)) ** (1.0 / lam), abs=1e-8)


def test_gamma_lambda_one_closed_form():
    # at lambda = 1 the crossing m*w = 1 - w/(n-1) solves to m(n-1)/(m(n-1)+1)
    n = 100
    for m in sorted({m for m, _ in GAMMA_TABLE_N100}):
        value, _ = ct.gamma(m, n, 1.0)
        assert value == pytest.approx(m * (n - 1) / (m * (n - 1) + 1), abs=1e-9)


def test_gamma_table_within_print_precision():
    for (m, lam), printed in GAMMA_TABLE_N100.items():
        value, _ = ct.gamma(m, 100, lam)
        assert abs(value - printed) < 1e-3, (m, lam, value, printed)


def test_gamma_vanishes_for_large_lambda():
    value, _ = ct.gamma(5, 50, 1e6)
    assert value == pytest.approx(0.0, abs=1e-3)
    v1, _ = ct.gamma(5, 50, 10.0)
    v2, _ = ct.gamma(5, 50, 100.0)
    v3, _ = ct.gamma(5, 50, 1000.0)
    assert v1 > v2 > v3


def _monotone(seq, direction, strict_below=1.0 - 1e-9):
    """Monotone overall; strict away from the float-saturated plateau at 1."""
    for a, b in zip(seq, seq[1:]):
        if direction == "up":
            assert b >= a
            if max(a, b) < strict_below:
                assert b > a
        else:
            assert b <= a
            if max(a, b) < strict_below:
                assert b < a


def test_monotonicity_spot_checks():
    lams = np.geomspace(0.1, 50, 8)
    for m in (3, 6, 12):
        _monotone([ct.wl_bound(l, m) for l in lams], "up")
        _monotone([ct.gamma(m, 40, l)[0] for l in lams], "down")
    for lam in (0.5, 1.0, 4.0):
        _monotone([ct.wl_bound(lam, m) for m in (2, 3, 5, 9, 17)], "up")
        _monotone([ct.gamma(m, 40, lam)[0] for m in (2, 3, 5, 9, 17)], "up")


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------


def _references(p):
    return ct.solve_utilitarian(p), ct.solve_egalitarian(p)


def test_verify_bounds_nash_on_random_profiles():
    for seed in range(5):
        p = dirichlet_profile(seed + 300, 5, 3)
        report = ct.solve_ctr(p, NASH)
        util_ref, egal_ref = _references(p)
        checks = ct.verify_bounds(p, NASH, report, util_ref, egal_ref)
        kinds = {c.kind for c in checks}
        assert {"WL", "EL-gamma", "IFS-share", "minAgent", "AFS-exponent"} <= kinds
        assert all(c.satisfied for c in checks), [c for c in checks if not c.satisfied]


def test_verify_bounds_power_rule_welfare_loss():
    f = ct.make_utility("power", p=0.5)
    for seed in range(5):
        p = dirichlet_profile(seed + 400, 4, 3)
        report = ct.solve_ctr(p, f)
        checks = ct.verify_bounds(p, f, report, *_references(p))
        wl = next(c for c in checks if c.kind == "WL")
        assert wl.satisfied
        assert wl.bound == pytest.approx(ct.wl_bound(0.5, 3))


def test_verify_bounds_negpower_single_minded_shares():
    f = ct.make_utility("negpower", p=1.5)
    for seed in range(5):
        p = single_minded_profile(seed + 500, 6, 3)
        report = ct.solve_ctr(p, f)
        checks = ct.verify_bounds(p, f, report, *_references(p))
        share = next(c for c in checks if c.kind == "IFS-share")
        assert share.satisfied
        assert share.bound == pytest.approx(ct.ifs_share_bound(2.5, 3, 6))


@pytest.mark.parametrize("f,lam", [(NASH, 1.0), (ct.make_utility("power", p=0.5), 0.5), (ct.make_utility("negpower", p=1.0), 2.0)])
def test_verify_bounds_single_minded_refinements(f, lam):
    for seed in range(4):
        p = single_minded_profile(seed + 900, 6, 3)
        report = ct.solve_ctr(p, f)
        util_ref, egal_ref = _references(p)
        checks = {c.kind: c for c in ct.verify_bounds(p, f, report, util_ref, egal_ref)}
        wl, el = checks["WL-single-minded"], checks["EL-single-minded"]
        assert wl.bound == ct.wl_bound_single_minded(lam, 3)
        assert el.bound == ct.el_bound_single_minded(lam, 3, 6)
        assert wl.empirical == checks["WL"].empirical and el.empirical == checks["EL-gamma"].empirical
        assert wl.satisfied and el.satisfied, (seed, wl, el)


def test_verify_bounds_negexppower_skips_welfare_side():
    f = ct.make_utility("negexppower", p=1.0)
    p = dirichlet_profile(600, 4, 3)
    report = ct.solve_ctr(p, f)
    util_ref, egal_ref = _references(p)
    checks = ct.verify_bounds(p, f, report, util_ref, egal_ref)
    kinds = {c.kind for c in checks}
    assert "WL" not in kinds
    assert "EL-gamma" in kinds
    assert all(c.satisfied for c in checks)


def test_verify_bounds_skips_afs_above_subset_guard():
    p = dirichlet_profile(800, 21, 3)
    report = ct.solve_ctr(p, NASH)
    util_ref, egal_ref = _references(p)
    kinds = {c.kind for c in ct.verify_bounds(p, NASH, report, util_ref, egal_ref)}
    assert kinds == {"WL", "EL-gamma", "IFS-share", "minAgent"}


def test_verify_bounds_quadratic_has_no_certified_side():
    f = ct.make_utility("quadratic")
    p = dirichlet_profile(700, 3, 3)
    report = ct.solve_ctr(p, f)
    with pytest.raises(ValueError):
        ct.verify_bounds(p, f, report, *_references(p))
