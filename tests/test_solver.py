"""Solver behavior: known optima, certificates, references, and geometry."""

import ast
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import ctrules as ct
import ctrules.solver as solver_module
from ctrules.cli import ladder_rule
from ctrules.core import overlap
from helpers import (
    FailingHighs,
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


def test_profile_supporting_one_alternative_gets_its_vertex_in_zero_steps():
    p = ct.Profile([[0.0, 1.0, 0.0]] * 4)
    for f in RULES:
        for start in (None, ct.Allocation([0.5, 0.25, 0.25])):
            report = ct.solve_ctr(p, f, start=start)
            assert report.converged and report.iterations == 0
            assert np.array_equal(report.allocation.shares, [0.0, 1.0, 0.0])


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
        assert ct.mrs_gap(p, report.allocation, f) <= solver_module._TOL


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


def full_lp_optimum(prefs: np.ndarray, objective: str) -> float:
    """Independent reference: the full LP with one variable
    v_ij <= min(x_j, ideal_ij) per agent and alternative, and a level
    t <= sum_j v_ij for every agent.  "maxmin" maximizes t (the maxmin
    solver's formulation before the cutting-plane loop), "welfare" the sum
    of every v_ij."""
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
    if objective == "maxmin":
        c[-1] = -1.0
    else:
        c[m:-1] = -1.0
    bounds = [(0.0, 1.0)] * m + [(0.0, float(prefs[i, j])) for i in range(n) for j in range(m)] + [(0.0, 1.0)]

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.array([1.0]), bounds=bounds, method="highs")
    assert res.status == 0
    return -float(res.fun)


def egal_reference_profiles():
    """About forty-five seeded profiles, with the shapes the cut loop must handle."""
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
    # n well above the 2(m + 1) worst-off agents the cut LP is seeded with
    out.append(dirichlet_profile(18, 120, 4, conc=0.3).prefs)
    out.append(np.vstack([single_minded_profile(19, 30, 3).prefs, dirichlet_profile(20, 30, 3).prefs]))
    out.append(np.repeat(dirichlet_profile(21, 30, 5).prefs, 5, axis=0))
    return [ct.Profile(p) for p in out]


@pytest.mark.parametrize("profile", egal_reference_profiles(), ids=lambda p: f"{p.n}x{p.m}")
def test_egalitarian_matches_full_lp_reference(profile):
    report = ct.solve_egalitarian(profile)
    assert report.converged
    assert report.objective == pytest.approx(full_lp_optimum(profile.prefs, "maxmin"), abs=1e-9)
    assert report.mrs_gap <= solver_module._TOL
    raw = np.minimum(profile.prefs, report.allocation.shares).sum(axis=1).min()
    assert report.objective == raw
    assert np.array_equal(report.satisfactions.values, np.minimum(profile.prefs, report.allocation.shares).sum(axis=1))


@pytest.mark.parametrize("profile", egal_reference_profiles(), ids=lambda p: f"{p.n}x{p.m}")
def test_utilitarian_water_filling_matches_full_lp_reference(profile):
    report = ct.solve_utilitarian(profile)
    assert report.converged
    assert report.iterations == 0
    assert report.objective == pytest.approx(full_lp_optimum(profile.prefs, "welfare"), abs=1e-9)
    # the identity MRS gap compares supporter counts, integers, exactly
    assert report.mrs_gap <= 0.0


def test_utilitarian_fills_the_lower_of_two_tied_columns_first():
    # alternatives 0 and 1 have the same ideal shares, so moving mass
    # between them keeps total satisfaction; the fill takes alternative 0 to
    # its kink first and leaves alternative 1 the remainder
    p = ct.Profile([[0.25, 0.25, 0.25, 0.25], [0.2, 0.2, 0.2, 0.4], [0.15, 0.15, 0.4, 0.3]])
    report = ct.solve_utilitarian(p)
    assert report.allocation.shares.tobytes() == ct.solve_utilitarian(p).allocation.shares.tobytes()
    assert report.converged and report.mrs_gap <= 0.0
    assert report.allocation.shares[0] == 0.25
    assert report.allocation.shares == pytest.approx([0.25, 0.2, 0.25, 0.3], abs=1e-15)
    swapped = ct.Allocation(report.allocation.shares[[1, 0, 2, 3]])
    assert ct.welfare(p, swapped) == pytest.approx(report.objective, abs=1e-15)


def test_egalitarian_round_cap_reports_unconverged(monkeypatch):
    # this profile needs three cut rounds; one round leaves a gap of 0.08
    p = dirichlet_profile(0, 20, 6)
    assert ct.solve_egalitarian(p).converged
    monkeypatch.setattr(solver_module, "_MAX_ITERS", 1)
    capped = ct.solve_egalitarian(p)
    assert not capped.converged
    assert capped.mrs_gap > 1e-2
    assert capped.objective == np.minimum(p.prefs, capped.allocation.shares).sum(axis=1).min()


def test_egalitarian_stops_when_a_round_adds_no_new_cut(monkeypatch):
    # no gap of a float LP reaches 1e-300, so the loop must end because
    # every cut it would add is already in the LP, not at the round cap
    calls = []
    solve = solver_module._LP.solve

    def counting_solve(self):
        out = solve(self)
        calls.append(out[0])
        return out

    monkeypatch.setattr(solver_module._LP, "solve", counting_solve)
    p = dirichlet_profile(0, 20, 6)
    reference = ct.solve_egalitarian(p)
    rounds = len(calls)
    assert rounds > 1
    assert reference.iterations == sum(calls)
    monkeypatch.setattr(solver_module, "_TOL", 1e-300)
    strict = ct.solve_egalitarian(p)
    assert len(calls) - rounds <= rounds + 1
    assert strict.converged == (strict.mrs_gap <= 1e-300)
    assert strict.objective == pytest.approx(reference.objective, abs=1e-12)


def test_only_the_lp_class_constructs_a_highs_model():
    # the binding is private scipy API; with one construction site, a module
    # that moves in a scipy release is mended in one place
    sites = []
    for path in sorted(Path(solver_module.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        inside = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and node.name == "_LP":
                inside.update(range(node.lineno, node.end_lineno + 1))
        for k, line in enumerate(text.splitlines(), 1):
            if "_Highs" in line:
                sites.append((path.name, k, k in inside))
    assert [site for site in sites if not site[2]] == []
    assert len(sites) == 1


@pytest.mark.parametrize("failure", ["solve", "status", "error"])
def test_egalitarian_lp_failure_falls_back_to_uniform(monkeypatch, failure):
    p = dirichlet_profile(3, 6, 4)
    if failure == "solve":
        monkeypatch.setattr(solver_module._LP, "solve", lambda self: (7, None, None))
        iterations = 7
    else:
        # HiGHS runs the first round's LP, then reports the failure
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_MAX_ITERS", 1)
            iterations = ct.solve_egalitarian(p).iterations
        monkeypatch.setattr(FailingHighs, "mode", failure)
        monkeypatch.setattr(solver_module.highs, "_Highs", FailingHighs)
    report = ct.solve_egalitarian(p)
    assert not report.converged
    assert np.array_equal(report.allocation.shares, np.full(4, 0.25))
    assert report.iterations == iterations
    # the gap is still an upper bound: no satisfaction exceeds 1
    assert report.mrs_gap == pytest.approx(1.0 - report.objective)


def test_egalitarian_scales_to_2000_agents():
    p = dirichlet_profile(1, 2000, 50)
    start = time.perf_counter()
    report = ct.solve_egalitarian(p)
    assert time.perf_counter() - start < 5.0
    assert report.converged
    assert report.mrs_gap <= solver_module._TOL
    # each round adds only its fresh cuts to one HiGHS model, so the dual
    # simplex restarts from the last basis: about 500 simplex iterations
    # here, against about 2,500 when every round solves from scratch
    assert report.iterations <= 1000


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
# Warm starts
# ---------------------------------------------------------------------------

CERTIFIED_KINDS = [
    ct.make_utility("log"),
    ct.make_utility("power", p=0.5),
    ct.make_utility("negpower", p=2.0),
    ct.make_utility("negexppower", p=1.0),
    ct.make_utility("quadratic"),
]


def warm_start_profile(seed: int, n: int, m: int, shape: int) -> ct.Profile:
    """Dirichlet, single-minded, or Dirichlet with the last column unsupported."""
    if shape == 0:
        return dirichlet_profile(seed, n, m)
    if shape == 1:
        return single_minded_profile(seed, n, m)
    rows = np.random.default_rng(seed).dirichlet(np.ones(m - 1), size=n)
    return ct.Profile(np.hstack([rows, np.zeros((n, 1))]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    m=st.integers(2, 5),
    shape=st.integers(0, 2),
    kind_idx=st.integers(0, len(CERTIFIED_KINDS) - 1),
)
def test_warm_start_certifies_the_cold_optimum(seed, n, m, shape, kind_idx):
    profile = warm_start_profile(seed, n, m, shape)
    f = CERTIFIED_KINDS[kind_idx]
    tol = solver_module._TOL
    cold = ct.solve_ctr(profile, f)
    assert cold.converged
    vertex = np.zeros(m)
    vertex[seed % m] = 1.0
    unsupported = np.zeros(m)
    unsupported[-1] = 1.0
    starts = [np.full(m, 1.0 / m), vertex, profile.prefs[seed % n], unsupported]
    for shares in starts:
        warm = ct.solve_ctr(profile, f, start=ct.Allocation(shares))
        assert warm.converged, (shares, warm.mrs_gap)
        assert warm.mrs_gap <= tol
        assert abs(warm.objective - cold.objective) <= n * tol


def test_start_at_the_optimum_needs_no_polish_step():
    p = dirichlet_profile(7, 6, 4)
    for f in RULES:
        cold = ct.solve_ctr(p, f)
        warm = ct.solve_ctr(p, f, start=cold.allocation)
        assert warm.converged and warm.iterations == 0
        assert np.array_equal(warm.allocation.shares, cold.allocation.shares)


def test_start_at_a_certified_optimum_is_a_fixed_point():
    """Optima whose shares sum to 1 only within rounding come back bit for
    bit too: the start is renormalised only when its sum is off by more
    than 1e-9."""
    rng = np.random.default_rng(8080)
    off_one = 0
    for _ in range(40):
        n, m = int(rng.integers(2, 20)), int(rng.integers(2, 7))
        profile = ct.Profile(rng.dirichlet(np.ones(m), size=n))
        for f in CERTIFIED_KINDS[:4]:
            cold = ct.solve_ctr(profile, f)
            assert cold.converged
            off_one += cold.allocation.shares.sum() != 1.0
            warm = ct.solve_ctr(profile, f, start=cold.allocation)
            assert warm.converged and warm.iterations == 0
            assert np.array_equal(warm.allocation.shares, cold.allocation.shares)
    assert off_one > 10


def test_start_without_supported_mass_is_a_cold_start():
    p = ct.Profile([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
    f = ct.make_utility("log")
    cold = ct.solve_ctr(p, f)
    warm = ct.solve_ctr(p, f, start=ct.Allocation([0.0, 0.0, 1.0]))
    assert np.array_equal(warm.allocation.shares, cold.allocation.shares)
    assert (warm.iterations, warm.mrs_gap, warm.converged) == (cold.iterations, cold.mrs_gap, True)


def test_ladder_leaves_only_rounding_level_gaps():
    """A sweep-style ladder up to lambda = 10 over single-minded profiles,
    where negpower:9's marginals reach ~1e8: every rung certifies, or its
    gap is at the float rounding of its n-term marginal sums."""
    eps = np.finfo(float).eps
    for seed in range(40):
        profile = single_minded_profile(seed, 6 + seed % 14, 3 + seed % 4)
        report = None
        for lam in np.geomspace(0.25, 10.0, 7):
            f = ladder_rule(float(lam))
            report = ct.solve_ctr(profile, f, start=report.allocation if report else None)
            if report.converged:
                continue
            x = report.allocation
            mc_up = max(ct.marginal_contribution(profile, x, f, j, "up") for j in range(profile.m))
            assert report.mrs_gap <= profile.n * eps * max(1.0, mc_up), (seed, lam, report.mrs_gap)


@pytest.mark.parametrize("start", [[0.25, 0.75], np.array([0.25, 0.75]), "uniform"])
def test_start_must_be_an_allocation(start):
    with pytest.raises(ValueError, match="Allocation"):
        ct.solve_ctr(sp_example_profile(), ct.make_utility("log"), start=start)


@pytest.mark.parametrize("m", [1, 3])
def test_start_must_match_the_profile_width(m):
    with pytest.raises(ValueError, match="m=2"):
        ct.solve_ctr(sp_example_profile(), ct.make_utility("log"), start=ct.Allocation(np.full(m, 1.0 / m)))


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------


def test_stiff_utility_certifies_after_a_falling_warmup_start():
    """Guards the cold start against the uniform-start stall: polished from
    the uniform allocation, this negexppower:3 profile stays uncertified at
    gap 6.7e3; from the mean ideal it certifies."""
    rng = np.random.default_rng(1270)
    n, m = int(rng.integers(1, 25)), int(rng.integers(2, 7))
    assert (n, m) == (5, 6)
    profile = ct.Profile(rng.dirichlet(np.full(m, 0.3), size=n))
    report = ct.solve_ctr(profile, ct.make_utility("negexppower", p=3.0))
    assert report.converged


def certificate_guard_profiles():
    """200 seeded small profiles: Dirichlet 1 and 0.3, single-minded, and
    rows on the 0.1 grid, n 1-12, m 2-5."""
    rng = np.random.default_rng(2718)
    for case in range(200):
        n, m = int(rng.integers(1, 13)), int(rng.integers(2, 6))
        style = case % 4
        if style == 0:
            prefs = rng.dirichlet(np.ones(m), size=n)
        elif style == 1:
            prefs = rng.dirichlet(np.full(m, 0.3), size=n)
        elif style == 2:
            prefs = np.eye(m)[rng.integers(0, m, size=n)]
        else:
            cuts = np.sort(rng.integers(0, 11, size=(n, m - 1)), axis=1)
            prefs = np.diff(np.hstack([np.zeros((n, 1)), cuts, np.full((n, 1), 10)]), axis=1) / 10
        yield ct.Profile(prefs)


def test_every_cold_solve_on_small_profiles_is_certified():
    rules = [
        ct.make_utility("log"),
        ct.make_utility("power", p=0.5),
        ct.make_utility("negpower", p=3.0),
        ct.make_utility("negexppower", p=1.0),
    ]
    uncertified = []
    for case, profile in enumerate(certificate_guard_profiles()):
        reports = [ct.solve_ctr(profile, f) for f in rules] + [ct.solve_utilitarian(profile)]
        uncertified += [(case, r.mrs_gap) for r in reports if not r.converged]
    assert uncertified == []


def test_cold_nash_solve_of_a_single_minded_profile_is_the_proportional_point():
    """The cold start is the mean ideal, on single-minded profiles the
    proportional allocation, which the Nash rule selects: no polish step
    moves it."""
    f = ct.make_utility("log")
    for seed in range(40):
        profile = single_minded_profile(seed, 2 + seed % 15, 2 + seed % 5)
        report = ct.solve_ctr(profile, f)
        assert report.converged and report.iterations == 0
        assert np.array_equal(report.allocation.shares, profile.prefs.mean(axis=0))
        assert ct.check_prop(profile, report.allocation).holds


def test_cold_solve_is_the_solve_started_at_the_mean_ideal():
    profiles = [p for p in certificate_guard_profiles() if (p.prefs.max(axis=0) > 0.0).all()]
    assert len(profiles) > 100
    for profile in profiles:
        mean_ideal = ct.Allocation(profile.prefs.mean(axis=0))
        for f in CERTIFIED_KINDS:
            cold = ct.solve_ctr(profile, f)
            warm = ct.solve_ctr(profile, f, start=mean_ideal)
            assert np.array_equal(cold.allocation.shares, warm.allocation.shares)
            assert (cold.iterations, cold.mrs_gap, cold.converged) == (warm.iterations, warm.mrs_gap, warm.converged)


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
    certifies the same satisfactions as the cold start."""
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


def test_objective_is_monotone_in_iteration_budget(monkeypatch):
    p = dirichlet_profile(99, 8, 5)
    f = ct.make_utility("log")
    objectives = []
    for cap in (5, 20, 80, 200, 400, 2000):
        monkeypatch.setattr(solver_module, "_MAX_ITERS", cap)
        objectives.append(ct.solve_ctr(p, f).objective)
    assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_exhausted_budget_reports_best_iterate_unconverged(monkeypatch):
    p = dirichlet_profile(123, 10, 6)
    monkeypatch.setattr(solver_module, "_MAX_ITERS", 3)
    report = ct.solve_ctr(p, ct.make_utility("log"))
    assert not report.converged
    assert report.mrs_gap > 1e-7
    assert abs(report.allocation.shares.sum() - 1.0) <= 1e-9


def test_solve_capped_at_the_steps_it_needs_is_certified(monkeypatch):
    """The cap ends the polish after its last step, not before the gap of
    the point that step reached is known."""
    p = ct.Profile(np.random.default_rng(123).dirichlet(np.ones(6), size=10))
    f = ct.make_utility("log")
    assert ct.solve_ctr(p, f).iterations == 10
    monkeypatch.setattr(solver_module, "_MAX_ITERS", 10)
    capped = ct.solve_ctr(p, f)
    assert capped.iterations == 10 and capped.converged
    assert capped.mrs_gap <= solver_module._TOL
    monkeypatch.setattr(solver_module, "_MAX_ITERS", 9)
    short = ct.solve_ctr(p, f)
    assert short.iterations == 9 and not short.converged


def cycling_profile(case: int) -> ct.Profile:
    """Case `case` of the certificate scan's Dirichlet-0.3 rows."""
    rng = np.random.default_rng(10000 + case)
    n, m = rng.integers(1, 25), rng.integers(2, 7)
    return ct.Profile(rng.dirichlet(np.full(m, 0.3), size=n))


def report_recheck_solves():
    """Seeded (profile, f, tol, start, cap) solves that end every way a
    rule solve can: certified cold and warm, at m = 20 and with an
    unsupported or a single supported column, capped at cap steps (and cut
    rounds) in place of solver._MAX_ITERS, held to tol in place of
    solver._TOL, and stopped on a repeated state."""
    log, neg3 = ct.make_utility("log"), ct.make_utility("negpower", p=3.0)
    default, uncapped = solver_module._TOL, solver_module._MAX_ITERS
    for seed in (1, 2):
        wide = dirichlet_profile(seed, 300, 20, conc=0.5)
        yield wide, log, default, None, uncapped
        yield wide, neg3, default, ct.Allocation.uniform(20), uncapped
    rows = np.random.default_rng(5).dirichlet(np.ones(4), size=9)
    unsupported = ct.Profile(np.hstack([rows, np.zeros((9, 1))]))
    for f in CERTIFIED_KINDS:
        yield unsupported, f, default, None, uncapped
        yield unsupported, f, default, ct.Allocation([0.1, 0.2, 0.3, 0.2, 0.2]), uncapped
    single = ct.Profile([[0.0, 1.0, 0.0]] * 4)
    yield single, log, default, None, uncapped
    yield single, neg3, default, ct.Allocation([0.5, 0.25, 0.25]), uncapped
    needs_10 = ct.Profile(np.random.default_rng(123).dirichlet(np.ones(6), size=10))
    for cap in (1, 3, 9, 10):
        yield needs_10, log, default, None, cap
    yield cycling_profile(77), ct.make_utility("negexppower", p=3.0), default, None, uncapped
    yield dirichlet_profile(4, 8, 5), log, 1e-14, None, uncapped


def assert_report_rechecks(profile, f, report, tol):
    """The report's certificate, satisfactions and objective equal their
    recomputation from the profile and the reported allocation bit for bit."""
    sats = report.satisfactions.values
    assert report.mrs_gap == ct.mrs_gap(profile, report.allocation, f)
    assert np.array_equal(sats, overlap(profile.prefs, report.allocation.shares))
    assert report.objective == f.value(sats).sum()
    assert report.converged == (report.mrs_gap <= tol)


def test_every_report_equals_its_recomputation_bit_for_bit():
    outcomes = set()
    identity = ct.make_utility("identity")
    for profile, f, tol, start, cap in report_recheck_solves():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_MAX_ITERS", cap)
            mp.setattr(solver_module, "_TOL", tol)
            report = ct.solve_ctr(profile, f, start=start)
            util = ct.solve_utilitarian(profile)
            egal = ct.solve_egalitarian(profile)
        assert_report_rechecks(profile, f, report, tol)
        outcomes.add((profile.m, report.converged, report.iterations == cap))
        assert_report_rechecks(profile, identity, util, tol)
        assert np.array_equal(egal.satisfactions.values, overlap(profile.prefs, egal.allocation.shares))
        assert egal.objective == egal.satisfactions.min()
        assert egal.converged == (egal.mrs_gap <= tol)
    # certified and uncertified, capped and not, and the 300 x 20 solves all ran
    assert {(20, True, False), (6, False, True), (6, True, True), (4, False, False)} <= outcomes


def test_polish_that_returns_to_an_earlier_state_stops():
    """A polish step is a function of x and of the count of smooth stops
    before it, so a polish that returns to a state it held within the last
    solver._CYCLE steps would cycle forever: it stops there, uncertified,
    instead of running out the 300-step stall window.  The first profile
    returns to its state two steps earlier; the second cycles through three
    states, which a comparison with the last two alone runs out."""
    f = ct.make_utility("negexppower", p=3.0)
    profile = cycling_profile(229)
    assert (profile.n, profile.m) == (7, 3)
    report = ct.solve_ctr(profile, f)
    assert not report.converged
    assert report.mrs_gap == pytest.approx(5.066e-7, rel=1e-3)
    assert report.iterations < 100
    three = cycling_profile(5)
    assert (three.n, three.m) == (9, 3)
    report = ct.solve_ctr(three, f)
    assert not report.converged and report.iterations < 100
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_CYCLE", 2)
        assert ct.solve_ctr(three, f).iterations > 300

