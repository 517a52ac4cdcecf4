"""Solver behavior: known optima, certificates, references, and geometry."""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

import ctrules as ct
import ctrules.solver as solver_module
from helpers import (
    core_example_profile,
    dirichlet_profile,
    perturbed_start_ascent,
    random_allocation,
    single_minded_profile,
    sp_example_profile,
    two_group_profile,
)

RULES = [ct.make_utility("log"), ct.make_utility("power", p=0.5), ct.make_utility("negpower", p=2.0)]


# ---------------------------------------------------------------------------
# solve_ctr on instances with known optima
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f", RULES, ids=lambda f: f.kind)
def test_sp_example_optimum(f):
    report = ct.solve_ctr(sp_example_profile(), f)
    assert report.converged
    assert np.allclose(report.allocation.shares, [0.25, 0.75], atol=1e-6)


@pytest.mark.parametrize("f", RULES, ids=lambda f: f.kind)
def test_opposed_single_minded_pair_splits_evenly(f):
    report = ct.solve_ctr(ct.Profile([[1.0, 0.0], [0.0, 1.0]]), f)
    assert report.converged
    assert np.allclose(report.allocation.shares, [0.5, 0.5], atol=1e-6)


def test_core_example_nash_optimum():
    report = ct.solve_ctr(core_example_profile(), ct.make_utility("log"))
    assert report.converged
    assert np.allclose(report.allocation.shares, [0.5, 0.0, 0.5], atol=1e-3)


def test_unanimous_profile_returns_shared_ideal():
    ideal = [0.3, 0.45, 0.25]
    p = ct.Profile([ideal] * 5)
    for f in RULES:
        report = ct.solve_ctr(p, f)
        assert report.converged
        assert np.allclose(report.allocation.shares, ideal, atol=1e-9)


@pytest.mark.parametrize("sizes", [(1, 3), (2, 5)])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_two_group_share_ratio_follows_iav(sizes, lam):
    s1, s2 = sizes
    if lam == 1.0:
        f = ct.make_utility("log")
    elif lam < 1.0:
        f = ct.make_utility("power", p=1.0 - lam)
    else:
        f = ct.make_utility("negpower", p=lam - 1.0)
    report = ct.solve_ctr(two_group_profile(s1, s2), f)
    assert report.converged
    x1, x2 = report.allocation.shares
    assert x2 / x1 == pytest.approx((s2 / s1) ** (1.0 / lam), rel=1e-4)


def test_single_agent_gets_ideal_immediately():
    p = ct.Profile([[0.1, 0.2, 0.7]])
    report = ct.solve_ctr(p, ct.make_utility("log"))
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(report.allocation.shares, p.prefs[0])
    assert report.satisfactions.values[0] == pytest.approx(1.0)


def test_identity_rejected():
    with pytest.raises(ValueError):
        ct.solve_ctr(sp_example_profile(), ct.make_utility("identity"))


def test_unsupported_alternative_gets_nothing():
    p = ct.Profile([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
    report = ct.solve_ctr(p, ct.make_utility("log"))
    assert report.converged
    assert report.allocation.shares[2] == 0.0


def test_report_objective_matches_satisfactions():
    f = ct.make_utility("log")
    report = ct.solve_ctr(dirichlet_profile(5, 6, 4), f)
    recomputed = float(f.value(report.satisfactions.values).sum())
    assert report.objective == pytest.approx(recomputed, abs=1e-9)


# ---------------------------------------------------------------------------
# MRS gap
# ---------------------------------------------------------------------------


def test_mrs_gap_at_solver_output_is_within_tol():
    f = ct.make_utility("log")
    for seed in range(5):
        p = dirichlet_profile(seed, 5, 3)
        report = ct.solve_ctr(p, f)
        assert report.converged
        assert ct.mrs_gap(p, report.allocation, f) <= ct.SolverOptions().tol


def test_mrs_gap_sp_truthful_at_even_split():
    # agent 1 (sat 0.5) pushes alternative 2 with f'(0.5)=2; the cheapest
    # donor is alternative 1 held only weakly by agent 0 at f'(1)=1
    gap = ct.mrs_gap(sp_example_profile(), ct.Allocation([0.5, 0.5]), ct.make_utility("log"))
    assert gap == pytest.approx(1.0)


def test_mrs_gap_unanimous_at_ideal_nonpositive():
    p = ct.Profile([[0.6, 0.4]] * 3)
    gap = ct.mrs_gap(p, ct.Allocation([0.6, 0.4]), ct.make_utility("log"))
    assert gap <= 0.0


# ---------------------------------------------------------------------------
# Utilitarian and egalitarian references
# ---------------------------------------------------------------------------


def test_utilitarian_single_minded_concentrates_on_plurality():
    p = single_minded_profile(3, 9, 3)
    counts = p.prefs.sum(axis=0)
    report = ct.solve_utilitarian(p)
    assert report.converged
    j = int(np.argmax(report.allocation.shares))
    assert counts[j] == counts.max()
    assert report.allocation.shares[j] == pytest.approx(1.0)
    assert report.objective == pytest.approx(counts.max(), abs=1e-6)


def test_utilitarian_unanimous():
    ideal = [0.25, 0.25, 0.5]
    p = ct.Profile([ideal] * 4)
    report = ct.solve_utilitarian(p)
    assert report.converged
    assert np.allclose(report.allocation.shares, ideal, atol=1e-9)
    assert report.objective == pytest.approx(4.0, abs=1e-6)


def test_utilitarian_matches_grid_oracle():
    for seed in range(4):
        p = dirichlet_profile(seed + 100, 4, 3)
        report = ct.solve_utilitarian(p)
        assert report.converged
        _, best = ct.brute_force_best(p, "welfare", ct.GridSpec(3, 0.01))
        assert report.objective >= best - 1e-3


def test_egalitarian_single_minded_full_support_is_uniform():
    p = ct.Profile([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    report = ct.solve_egalitarian(p)
    assert report.converged
    assert np.allclose(report.allocation.shares, 1.0 / 3.0, atol=1e-8)
    assert report.objective == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_egalitarian_unanimous():
    ideal = [0.7, 0.1, 0.2]
    report = ct.solve_egalitarian(ct.Profile([ideal] * 3))
    assert report.converged
    assert report.objective == pytest.approx(1.0, abs=1e-9)


def test_egalitarian_matches_fine_grid_oracle():
    for seed in range(3):
        p = dirichlet_profile(seed + 50, 5, 3)
        report = ct.solve_egalitarian(p)
        assert report.converged
        _, best = ct.brute_force_best(p, "maxmin", ct.GridSpec(3, 0.00025))
        assert abs(report.objective - best) <= 1e-3


def full_lp_maxmin(prefs: np.ndarray) -> float:
    """Independent maxmin reference: the full LP with one variable
    v_ij <= min(x_j, ideal_ij) per agent and alternative (the solver's
    formulation before the cutting-plane loop)."""
    n, m = prefs.shape
    nv = n * m

    rows, cols, data = [], [], []
    r = 0
    for i in range(n):
        for j in range(m):
            rows += [r, r]
            cols += [m + i * m + j, j]
            data += [1.0, -1.0]
            r += 1
    for i in range(n):
        rows += [r] * (m + 1)
        cols += [m + nv] + [m + i * m + j for j in range(m)]
        data += [1.0] + [-1.0] * m
        r += 1
    a_ub = sp.coo_matrix((data, (rows, cols)), shape=(r, m + nv + 1))
    b_ub = np.zeros(r)
    a_eq = sp.coo_matrix((np.ones(m), (np.zeros(m, dtype=int), np.arange(m))), shape=(1, m + nv + 1))
    c = np.zeros(m + nv + 1)
    c[-1] = -1.0
    bounds = [(0.0, 1.0)] * m + [(0.0, float(prefs[i, j])) for i in range(n) for j in range(m)] + [(0.0, 1.0)]

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.array([1.0]), bounds=bounds, method="highs")
    assert res.status == 0
    return -float(res.fun)


def egal_reference_profiles():
    """About forty seeded profiles, with the shapes the cut loop must handle."""
    rng = np.random.default_rng(2024)
    out = []
    for k in range(28):
        n, m = int(rng.integers(2, 31)), int(rng.integers(2, 8))
        out.append(rng.dirichlet(np.full(m, [0.3, 1.0, 3.0][k % 3]), size=n))
    sm = single_minded_profile(7, 9, 4).prefs
    out.append(np.vstack([sm[:4], dirichlet_profile(8, 5, 4).prefs]))  # single-minded rows
    out.append(single_minded_profile(9, 12, 3).prefs)
    out.append(np.repeat(dirichlet_profile(10, 4, 5).prefs, 3, axis=0))  # duplicate rows
    out.append(np.vstack([dirichlet_profile(11, 20, 3).prefs] * 2))
    out.append(np.hstack([dirichlet_profile(12, 7, 3).prefs, np.zeros((7, 1))]))  # unsupported column
    out.append(np.insert(dirichlet_profile(13, 25, 4).prefs, 1, 0.0, axis=1))
    out.append(dirichlet_profile(14, 1, 4).prefs)  # one agent
    out.append(dirichlet_profile(15, 1, 2).prefs)
    out.append(dirichlet_profile(16, 9, 2).prefs)  # two alternatives
    out.append(dirichlet_profile(17, 40, 2, conc=0.3).prefs)
    out.append(two_group_profile(3, 5).prefs)
    out.append(core_example_profile().prefs)
    return [ct.Profile(p) for p in out]


@pytest.mark.parametrize("profile", egal_reference_profiles(), ids=lambda p: f"{p.n}x{p.m}")
def test_egalitarian_matches_full_lp_reference(profile):
    report = ct.solve_egalitarian(profile)
    assert report.converged
    assert report.objective == pytest.approx(full_lp_maxmin(profile.prefs), abs=1e-9)
    assert report.mrs_gap <= ct.SolverOptions().tol
    raw = np.minimum(profile.prefs, report.allocation.shares).sum(axis=1).min()
    assert report.objective == raw
    assert np.array_equal(report.satisfactions.values, np.minimum(profile.prefs, report.allocation.shares).sum(axis=1))


def test_egalitarian_round_cap_reports_unconverged():
    # this profile needs three cut rounds; one round leaves a gap of 0.08
    p = dirichlet_profile(0, 20, 6)
    assert ct.solve_egalitarian(p).converged
    capped = ct.solve_egalitarian(p, ct.SolverOptions(max_iters=1))
    assert not capped.converged
    assert capped.mrs_gap > 1e-2
    assert capped.objective == np.minimum(p.prefs, capped.allocation.shares).sum(axis=1).min()


def test_egalitarian_stops_when_a_round_adds_no_new_cut(monkeypatch):
    # no gap of a float LP reaches 1e-300, so the loop must end because
    # every cut it would add is already in the LP, not at the round cap
    calls = []

    def counting_linprog(*args, **kwargs):
        res = linprog(*args, **kwargs)
        calls.append(res.nit)
        return res

    monkeypatch.setattr(solver_module, "linprog", counting_linprog)
    p = dirichlet_profile(0, 20, 6)
    reference = ct.solve_egalitarian(p)
    rounds = len(calls)
    assert rounds > 1
    assert reference.iterations == sum(calls)
    strict = ct.solve_egalitarian(p, ct.SolverOptions(tol=1e-300))
    assert len(calls) - rounds <= rounds + 1
    assert strict.converged == (strict.mrs_gap <= 1e-300)
    assert strict.objective == pytest.approx(reference.objective, abs=1e-12)


def test_egalitarian_lp_failure_falls_back_to_uniform(monkeypatch):
    failed = OptimizeResult(x=None, fun=None, status=4, nit=7, message="numerical difficulties")
    monkeypatch.setattr(solver_module, "linprog", lambda *args, **kwargs: failed)
    p = dirichlet_profile(3, 6, 4)
    report = ct.solve_egalitarian(p)
    assert not report.converged
    assert np.array_equal(report.allocation.shares, np.full(4, 0.25))
    assert report.iterations == 7
    # the gap is still an upper bound: no satisfaction exceeds 1
    assert report.mrs_gap == pytest.approx(1.0 - report.objective)


def test_egalitarian_scales_to_2000_agents():
    p = dirichlet_profile(1, 2000, 50)
    start = time.perf_counter()
    report = ct.solve_egalitarian(p)
    assert time.perf_counter() - start < 5.0
    assert report.converged
    assert report.mrs_gap <= ct.SolverOptions().tol


# ---------------------------------------------------------------------------
# Displacement and directional derivatives
# ---------------------------------------------------------------------------


def displacement(x: ct.Allocation, y: ct.Allocation):
    """(jx, jy, deltas, delta) of the move from x to y, read off the
    directional derivatives of the single-minded agents (agent j wants
    only alternative j, so its derivative is the signed share moved to j).

    jx holds the alternatives where x gives at least as much as y, jy the
    rest; deltas are the absolute share differences and delta the mass
    moved out of jx.
    """
    m = x.m
    moves = np.array([ct.directional_derivative(ct.Profile(np.eye(m)), x, y, j) for j in range(m)])
    jx = tuple(int(j) for j in np.flatnonzero(moves <= 0.0))
    jy = tuple(int(j) for j in np.flatnonzero(moves > 0.0))
    deltas = np.abs(moves)
    return jx, jy, deltas, float(deltas[list(jx)].sum())


def test_displacement_identical_allocations():
    x = ct.Allocation([0.5, 0.5])
    _, _, deltas, delta = displacement(x, x)
    assert delta == 0.0
    assert np.all(deltas == 0.0)


def test_displacement_example():
    jx, jy, _, delta = displacement(ct.Allocation([0.5, 0.5]), ct.Allocation([0.25, 0.75]))
    assert jx == (0,)
    assert jy == (1,)
    assert delta == pytest.approx(0.25)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_displacement_sides_balance(seed):
    x = random_allocation(seed, 4)
    y = random_allocation(seed + 1, 4)
    jx, jy, deltas, _ = displacement(x, y)
    assert set(jx) | set(jy) == set(range(4))
    assert not set(jx) & set(jy)
    assert deltas[list(jx)].sum() == pytest.approx(deltas[list(jy)].sum(), abs=1e-9)


def test_directional_derivative_zero_at_same_point():
    p = sp_example_profile()
    x = ct.Allocation([0.5, 0.5])
    assert ct.directional_derivative(p, x, x, 0) == 0.0


def test_directional_derivative_single_gainer():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    d = ct.directional_derivative(p, ct.Allocation([0.5, 0.5]), ct.Allocation([0.75, 0.25]), 0)
    assert d == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_directional_derivative_dominates_actual_gain(seed):
    p = dirichlet_profile(seed, 4, 3)
    x = random_allocation(seed + 1, 3)
    y = random_allocation(seed + 2, 3)
    gains = ct.satisfaction_vector(p, y).values - ct.satisfaction_vector(p, x).values
    for i in range(p.n):
        lhs = ct.directional_derivative(p, x, y, i)
        gain = gains[i]
        assert lhs >= gain - 1e-9


# ---------------------------------------------------------------------------
# Solver invariants
# ---------------------------------------------------------------------------


def test_certificate_soundness_against_grid_oracle():
    f = ct.make_utility("log")
    for seed in range(6):
        p = dirichlet_profile(seed + 20, 5, 3)
        report = ct.solve_ctr(p, f)
        assert report.converged
        _, best = ct.brute_force_best(p, "ctr", ct.GridSpec(3, 0.01), f=f)
        assert best <= report.objective + 1e-3


def test_solution_equivalence_across_seeds():
    """The objective is concave, so an ascent from a seeded perturbed start
    certifies the same satisfactions as the uniform start."""
    f = ct.make_utility("power", p=0.5)
    for seed in range(4):
        p = dirichlet_profile(seed + 40, 6, 4)
        report = ct.solve_ctr(p, f)
        for start_seed in (0, 123):
            sats, converged = perturbed_start_ascent(p, f, start_seed)
            assert report.converged and converged
            assert np.abs(sats - report.satisfactions.values).max() <= 1e-4


def test_outputs_are_efficient_on_grid():
    f = ct.make_utility("log")
    for seed in range(4):
        p = dirichlet_profile(seed + 60, 4, 3)
        report = ct.solve_ctr(p, f)
        assert report.converged
        pi = report.satisfactions.values
        for y in ct.enumerate_grid(ct.GridSpec(3, 0.02)):
            alt = np.minimum(p.prefs, y).sum(axis=1)
            assert not (np.all(alt >= pi - 1e-9) and np.any(alt > pi + 1e-3))


def test_outputs_are_range_respecting():
    f = ct.make_utility("negpower", p=1.0)
    for seed in range(6):
        p = dirichlet_profile(seed + 80, 5, 4)
        report = ct.solve_ctr(p, f)
        assert report.converged
        lo = p.prefs.min(axis=0) - 1e-6
        hi = p.prefs.max(axis=0) + 1e-6
        assert np.all(report.allocation.shares >= lo)
        assert np.all(report.allocation.shares <= hi)


def test_objective_is_monotone_in_iteration_budget():
    p = dirichlet_profile(99, 8, 5)
    f = ct.make_utility("log")
    objectives = []
    for cap in (5, 20, 80, 200, 400, 2000):
        rep = ct.solve_ctr(p, f, ct.SolverOptions(max_iters=cap))
        objectives.append(rep.objective)
    assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_exhausted_budget_reports_best_iterate_unconverged():
    p = dirichlet_profile(123, 10, 6)
    report = ct.solve_ctr(p, ct.make_utility("log"), ct.SolverOptions(max_iters=3))
    assert not report.converged
    assert report.mrs_gap > 1e-7
    assert abs(report.allocation.shares.sum() - 1.0) <= 1e-9


def test_solver_options_validation():
    with pytest.raises(ValueError):
        ct.SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        ct.SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        ct.SolverOptions(tol=float("nan"))
