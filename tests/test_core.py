"""Core types, overlap satisfaction, support masks, and the utility family."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrules as ct
from ctrules.core import support_masks
from helpers import core_example_profile, dirichlet_profile, random_allocation, sp_example_profile

CONSTANT_IAV = [("log", None, 1.0), ("power", 0.5, 0.5), ("power", 0.25, 0.75), ("negpower", 2.0, 3.0), ("negpower", 1.0, 2.0)]


# ---------------------------------------------------------------------------
# Profile / Allocation validation
# ---------------------------------------------------------------------------


def test_profile_rejects_bad_rows():
    with pytest.raises(ValueError):
        ct.Profile([[0.5, 0.4]])
    with pytest.raises(ValueError):
        ct.Profile([[1.2, -0.2]])
    with pytest.raises(ValueError):
        ct.Profile([[1.0]])  # m must be at least 2
    with pytest.raises(ValueError):
        ct.Profile([[float("nan"), 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        ct.Profile([[float("inf"), 0.0]])
    with pytest.raises(ValueError, match="must be 2-dimensional"):
        ct.Profile([0.5, 0.5])
    with pytest.raises(ValueError, match="at least one agent"):
        ct.Profile(np.zeros((0, 3)))


def test_allocation_validation():
    with pytest.raises(ValueError):
        ct.Allocation([0.5, 0.6])
    with pytest.raises(ValueError):
        ct.Allocation([-0.1, 1.1])
    with pytest.raises(ValueError):
        ct.Allocation([float("nan"), 1.0])
    with pytest.raises(ValueError, match="flat vector"):
        ct.Allocation([[0.5, 0.5]])
    assert ct.Allocation.uniform(4).shares.sum() == pytest.approx(1.0)


def test_profile_without():
    p = sp_example_profile()
    reduced = p.without(0)
    assert reduced.n == 1
    assert np.array_equal(reduced.prefs[0], p.prefs[1])
    with pytest.raises(ValueError):
        p.without([0, 1])


@pytest.mark.parametrize("i", [-1, 2, 7])
def test_profile_refuses_agent_indices_out_of_range(i):
    p = sp_example_profile()
    with pytest.raises(IndexError):
        p.without(i)
    with pytest.raises(IndexError):
        p.without([0, i])
    with pytest.raises(IndexError):
        p.replace_row(i, [1.0, 0.0])
    with pytest.raises(IndexError):
        ct.probe_participation(p, ct.make_utility("log"), i)


@pytest.mark.parametrize("i", [1.5, 1.0, np.float64(1.0), "1", True, None])
def test_profile_refuses_agent_indices_that_are_not_integers(i):
    # a float index used to be truncated to agent 1
    p = sp_example_profile()
    x = ct.Allocation.uniform(2)
    with pytest.raises(IndexError, match="must be an integer"):
        p.without(i)
    with pytest.raises(IndexError, match="must be an integer"):
        p.without([0, i])
    with pytest.raises(IndexError, match="must be an integer"):
        p.replace_row(i, [1.0, 0.0])
    with pytest.raises(IndexError, match="must be an integer"):
        ct.directional_derivative(p, x, ct.Allocation([1.0, 0.0]), i)
    with pytest.raises(IndexError, match="must be an integer"):
        ct.probe_participation(p, ct.make_utility("log"), i)


def test_profile_accepts_numpy_integer_agent_indices():
    p = sp_example_profile()
    assert np.array_equal(p.without(np.int64(1)).prefs, p.without(1).prefs)
    assert np.array_equal(p.replace_row(np.int32(1), [1.0, 0.0]).prefs, p.replace_row(1, [1.0, 0.0]).prefs)


NASH = ct.make_utility("log")
ALLOCATION_READERS = {
    "check_rr": lambda p, x: ct.check_rr(p, x),
    "check_ifs": lambda p, x: ct.check_ifs(p, x),
    "check_prop": lambda p, x: ct.check_prop(p, x),
    "check_afs": lambda p, x: ct.check_afs(p, x),
    "check_core": lambda p, x: ct.check_core(p, x, resolution=0.1),
    "check_efficiency": lambda p, x: ct.check_efficiency(p, x, resolution=0.1),
    "mrs_gap": lambda p, x: ct.mrs_gap(p, x, NASH),
    "marginal_contribution": lambda p, x: ct.marginal_contribution(p, x, NASH, 0, "up"),
    "directional_derivative_at": lambda p, x: ct.directional_derivative(p, x, ct.Allocation.uniform(p.m), 0),
    "directional_derivative_toward": lambda p, x: ct.directional_derivative(p, ct.Allocation.uniform(p.m), x, 0),
    "satisfaction_vector": lambda p, x: ct.satisfaction_vector(p, x),
    "welfare": lambda p, x: ct.welfare(p, x),
    "welfare_loss": lambda p, x: ct.welfare_loss(p, x, ct.solve_utilitarian(p)),
    "egalitarian_loss": lambda p, x: ct.egalitarian_loss(p, x, ct.solve_egalitarian(p)),
    "solve_ctr_start": lambda p, x: ct.solve_ctr(p, NASH, start=x),
}


@pytest.mark.parametrize("shares", [[1.0], [0.5, 0.5], [0.25] * 4])
@pytest.mark.parametrize("reader", sorted(ALLOCATION_READERS))
def test_allocation_of_another_length_is_refused(reader, shares):
    # a length-1 allocation would broadcast over the m = 3 alternatives
    p = ct.Profile([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])
    with pytest.raises(ValueError, match="the profile has m=3"):
        ALLOCATION_READERS[reader](p, ct.Allocation(shares))
    with pytest.raises(ValueError, match="expected an Allocation"):
        ALLOCATION_READERS[reader](p, [0.2, 0.3, 0.5])


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def test_satisfaction_half_half_vs_quarter():
    p = sp_example_profile()
    assert ct.satisfaction_vector(p, ct.Allocation([0.25, 0.75])).values[0] == pytest.approx(0.75)


def test_satisfaction_own_ideal_is_one():
    p = dirichlet_profile(0, 4, 3)
    for i in range(p.n):
        assert ct.satisfaction_vector(p, ct.Allocation(p.prefs[i])).values[i] == pytest.approx(1.0)


def test_satisfaction_single_minded_half():
    p = ct.Profile([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert ct.satisfaction_vector(p, ct.Allocation([0.5, 0.0, 0.5])).values[0] == pytest.approx(0.5)


def test_satisfaction_index_error():
    p = sp_example_profile()
    with pytest.raises(IndexError):
        ct.satisfaction_vector(p, ct.Allocation([0.5, 0.5])).values[2]


def test_satisfaction_vector_uniform_profile_is_constant():
    p = ct.Profile([[0.2, 0.3, 0.5]] * 5)
    vec = ct.satisfaction_vector(p, ct.Allocation([0.5, 0.25, 0.25]))
    assert np.allclose(vec.values, vec.values[0])


def test_satisfaction_vector_core_example():
    p = core_example_profile()
    vec = ct.satisfaction_vector(p, ct.Allocation([0.5, 0.0, 0.5]))
    assert np.allclose(vec.values, 0.5)


def test_satisfaction_vector_matches_per_agent_calls():
    p = dirichlet_profile(7, 6, 4)
    x = random_allocation(8, 4)
    vec = ct.satisfaction_vector(p, x)
    expected = [ct.satisfaction_vector(ct.Profile(p.prefs[[i]]), x).values[0] for i in range(p.n)]
    assert np.allclose(vec.values, expected)


# ---------------------------------------------------------------------------
# Support masks: column j holds the supporters of alternative j, row i the
# alternatives agent i supports
# ---------------------------------------------------------------------------


def members(mask) -> set[int]:
    return {int(i) for i in np.flatnonzero(mask)}


def test_support_sets_single_minded_interior():
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    up, down = support_masks(p.prefs, ct.Allocation([0.3, 0.7]).shares)
    assert members(up[:, 0]) == members(down[:, 0]) == {0}
    assert members(up[:, 1]) == members(down[:, 1]) == {1, 2}


def test_support_sets_sp_example_ties():
    up, down = support_masks(sp_example_profile().prefs, ct.Allocation([0.5, 0.5]).shares)
    assert members(up[:, 0]) == set()
    assert members(down[:, 0]) == {0}
    assert members(up[:, 1]) == {1}
    assert members(down[:, 1]) == {0, 1}


def test_support_sets_unanimous_at_ideal():
    p = ct.Profile([[0.4, 0.6]] * 3)
    up, down = support_masks(p.prefs, ct.Allocation([0.4, 0.6]).shares)
    for j in range(2):
        assert members(up[:, j]) == set()
        assert members(down[:, j]) == {0, 1, 2}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_support_sets_transposition_invariant(seed):
    p = dirichlet_profile(seed, 5, 3)
    x = random_allocation(seed + 1, 3)
    up, down = support_masks(p.prefs, x.shares)
    for i in range(p.n):
        for j in range(p.m):
            assert (i in members(up[:, j])) == (j in members(up[i]))
            assert (i in members(down[:, j])) == (j in members(down[i]))
            assert members(up[:, j]) <= members(down[:, j])


# ---------------------------------------------------------------------------
# Marginal contributions
# ---------------------------------------------------------------------------


def test_marginal_contribution_empty_support_is_zero():
    p = ct.Profile([[1.0, 0.0], [1.0, 0.0]])
    f = ct.make_utility("log")
    assert ct.marginal_contribution(p, ct.Allocation([0.5, 0.5]), f, 1, "up") == 0.0


def test_marginal_contribution_sp_example_down():
    f = ct.make_utility("log")
    x = ct.Allocation([0.5, 0.5])
    # agent 0 has satisfaction 1.0, agent 1 has 0.5: 1/1 + 1/0.5 = 3
    assert ct.marginal_contribution(sp_example_profile(), x, f, 1, "down") == pytest.approx(3.0)


def test_marginal_contribution_single_minded_groups_equalized():
    p = ct.Profile([[1.0, 0.0]] + [[0.0, 1.0]] * 3)
    f = ct.make_utility("log")
    x = ct.Allocation([0.25, 0.75])
    assert ct.marginal_contribution(p, x, f, 0, "up") == pytest.approx(4.0)
    assert ct.marginal_contribution(p, x, f, 1, "up") == pytest.approx(4.0)


@pytest.mark.parametrize("direction", ["dn", "UP", "Down", "", None])
def test_marginal_contribution_refuses_unknown_direction(direction):
    f = ct.make_utility("log")
    with pytest.raises(ValueError):
        ct.marginal_contribution(sp_example_profile(), ct.Allocation([0.5, 0.5]), f, 1, direction)


@pytest.mark.parametrize("j", [-1, 2])
def test_marginal_contribution_refuses_alternatives_out_of_range(j):
    f = ct.make_utility("log")
    with pytest.raises(IndexError, match=f"alternative index {j} out of range for m=2"):
        ct.marginal_contribution(sp_example_profile(), ct.Allocation([0.5, 0.5]), f, j, "up")


# ---------------------------------------------------------------------------
# Utility family
# ---------------------------------------------------------------------------


def test_make_utility_values():
    assert ct.make_utility("log").value(0.5) == pytest.approx(np.log(0.5))
    pw = ct.make_utility("power", p=0.5)
    assert pw.value(0.25) == pytest.approx(0.5)
    assert pw.deriv(0.25) == pytest.approx(1.0)
    assert ct.make_utility("negpower", p=2.0).value(0.5) == pytest.approx(-4.0)


def test_make_utility_parameter_validation():
    with pytest.raises(ValueError):
        ct.make_utility("power", p=1.5)
    with pytest.raises(ValueError):
        ct.make_utility("negpower", p=-1.0)
    with pytest.raises(ValueError):
        ct.make_utility("power")
    with pytest.raises(ValueError):
        ct.make_utility("log", p=2.0)
    with pytest.raises(ValueError):
        ct.make_utility("wat")  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "kind,p,message",
    [
        ("power", 2.0, r"power utilities need p in \(0, 1\), got 2.0"),
        ("log", 3.0, "kind 'log' takes no parameter"),
        ("negpower", float("nan"), "kind 'negpower' needs a finite p, got nan"),
        ("cubic", None, "unknown utility kind 'cubic'"),
        ("negexppower", None, "kind 'negexppower' requires a parameter p"),
        # True would build p = 1, and "2" would end in math.isfinite's TypeError
        ("negpower", True, "kind 'negpower' needs a real number p, got True"),
        ("negexppower", True, "kind 'negexppower' needs a real number p, got True"),
        ("negpower", "2", "kind 'negpower' needs a real number p, got '2'"),
    ],
    ids=["power:2", "log:3", "negpower:nan", "cubic", "negexppower", "negpower:True", "negexppower:True", "negpower:str"],
)
def test_utility_function_refuses_members_outside_the_family(kind, p, message):
    # direct construction runs make_utility's checks: no convex or unknown f
    # reaches a solver, which would certify it or fail deep inside
    with pytest.raises(ValueError, match=f"^{message}$"):
        ct.UtilityFunction(kind, p=p)


def test_replacing_a_utility_parameter_is_checked_too():
    f = ct.make_utility("negpower", p=3.0)
    with pytest.raises(ValueError, match=r"^kind 'negpower' needs p > 0, got -3.0$"):
        dataclasses.replace(f, p=-3.0)
    assert dataclasses.replace(f, p=2.0) == ct.make_utility("negpower", p=2.0)


def test_utility_fields_are_kind_and_p_and_the_floor_is_fixed():
    assert ct.make_utility is ct.UtilityFunction
    assert [field.name for field in dataclasses.fields(ct.UtilityFunction)] == ["kind", "p"]
    assert ct.UtilityFunction.floor == ct.make_utility("log").floor == 1e-9
    with pytest.raises(TypeError):
        ct.make_utility("log", floor=1e-6)


@pytest.mark.parametrize("kind", ["power", "negpower", "negexppower"])
@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_make_utility_refuses_non_finite_p(kind, p):
    with pytest.raises(ValueError, match="finite"):
        ct.make_utility(kind, p=p)


def test_negpower_p_is_capped_where_the_floor_derivative_overflows():
    # log p + log(p + 1) + (p + 2) * 20.72 crosses log(float max) = 709.78 at
    # p = 31.93, below where f' alone overflows (p = 33.08)
    for good in (31.0, 31.9):
        f = ct.make_utility("negpower", p=good)
        with np.errstate(all="raise"):
            assert np.isfinite(f.deriv(0.0)) and np.isfinite(f.second(0.0))
            assert ct.iav(f, f.floor) == pytest.approx(1.0 + good, rel=1e-12)
    p = ct.Profile([[1.0, 0.0], [0.5, 0.5]])
    assert np.isfinite(ct.mrs_gap(p, ct.Allocation([0.0, 1.0]), ct.make_utility("negpower", p=31.0)))
    for bad in (32.0, 33.0, 33.1, 40.0, 1e6):
        with pytest.raises(ValueError, match="overflows"):
            ct.make_utility("negpower", p=bad)


def test_steep_negexppower_clips_without_overflow_warnings():
    # at p = 40, t^-p overflows at the floor (1e360) and 2^40 lies far past
    # the exponent clip at 0.5, so every value is a clipped one
    f = ct.make_utility("negexppower", p=40.0)
    clipped = (-np.exp(690.0), np.exp(705.0), -np.exp(705.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (f.floor, 0.5, np.array([f.floor, 0.5])):
            for got, want in zip((f.value(t), f.deriv(t), f.second(t)), clipped):
                assert np.all(got == want), (t, got, want)


def test_floor_applies_below_threshold():
    f = ct.make_utility("log")
    assert f.value(0.0) == pytest.approx(np.log(1e-9))
    assert f.deriv(1e-12) == pytest.approx(1e9)


@pytest.mark.parametrize(
    "kind,p",
    [("log", None), ("power", 0.5), ("power", 0.9), ("negpower", 2.0), ("negexppower", 1.0), ("quadratic", None)],
)
def test_derivatives_match_finite_differences(kind, p):
    f = ct.make_utility(kind, p=p)
    h1, h2 = 1e-6, 1e-5
    for t in np.linspace(0.05, 0.95, 13):
        fd1 = (f.value(t + h1) - f.value(t - h1)) / (2 * h1)
        fd2 = (f.value(t + h2) - 2 * f.value(t) + f.value(t - h2)) / h2**2
        assert f.deriv(t) == pytest.approx(fd1, rel=1e-5)
        assert f.second(t) == pytest.approx(fd2, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize(
    "kind,p",
    [("log", None), ("power", 0.5), ("negpower", 2.0), ("negexppower", 1.0), ("quadratic", None)],
)
def test_increasing_and_strictly_concave(kind, p):
    f = ct.make_utility(kind, p=p)
    # quadratic flattens exactly at t=1, so sample just inside
    for t in np.linspace(f.floor, 1.0 - 1e-9, 50):
        assert f.deriv(t) > 0.0
        assert f.second(t) < 0.0


def test_identity_is_not_strictly_concave():
    f = ct.make_utility("identity")
    assert not f.strictly_concave
    assert float(f.second(0.5)) == 0.0


def test_iav_analytic_values():
    for t in np.linspace(0.01, 1.0, 25):
        assert ct.iav(ct.make_utility("log"), t) == pytest.approx(1.0, abs=1e-9)
        assert ct.iav(ct.make_utility("power", p=0.5), t) == pytest.approx(0.5, abs=1e-9)
        assert ct.iav(ct.make_utility("negpower", p=2.0), t) == pytest.approx(3.0, abs=1e-9)


def test_iav_errors():
    f = ct.make_utility("log")
    with pytest.raises(ValueError):
        ct.iav(f, 1e-12)  # below floor
    with pytest.raises(ValueError):
        ct.iav(ct.make_utility("quadratic"), 1.0)  # f'(1) = 0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_iav_refuses_non_finite_points(t):
    for f in (ct.make_utility("log"), ct.make_utility("negpower", p=2.0), ct.make_utility("quadratic")):
        with pytest.raises(ValueError, match="finite"):
            ct.iav(f, t)


def test_iav_bound_of_catalog():
    assert ct.iav_bound_of(ct.make_utility("log")) == ct.IavBound(1.0, 1.0)
    assert ct.iav_bound_of(ct.make_utility("power", p=0.25)) == ct.IavBound(0.75, 0.75)
    assert ct.iav_bound_of(ct.make_utility("negpower", p=2.0)) == ct.IavBound(3.0, 3.0)
    b = ct.iav_bound_of(ct.make_utility("negexppower", p=1.0))
    assert b.lower == pytest.approx(2.0) and b.upper is None
    q = ct.iav_bound_of(ct.make_utility("quadratic"))
    assert q.lower is None and q.upper is None
    with pytest.raises(ValueError):
        ct.iav_bound_of(ct.make_utility("identity"))


def test_iav_bound_ordering():
    with pytest.raises(ValueError):
        ct.IavBound(2.0, 1.0)
    with pytest.raises(ValueError, match="lower IAV bound must be nonnegative"):
        ct.IavBound(-0.5, None)
    with pytest.raises(ValueError, match="upper IAV bound must be positive"):
        ct.IavBound(None, 0.0)


# ---------------------------------------------------------------------------
# Overlap identities (property tests)
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), theta=st.floats(0.0, 1.0))
def test_overlap_is_concave_in_the_allocation(seed, theta):
    p = dirichlet_profile(seed, 4, 3)
    x = random_allocation(seed + 1, 3)
    y = random_allocation(seed + 2, 3)
    mix = ct.Allocation(theta * x.shares + (1 - theta) * y.shares)
    at_mix, at_x, at_y = (ct.satisfaction_vector(p, z).values for z in (mix, x, y))
    for i in range(p.n):
        lhs = at_mix[i]
        rhs = theta * at_x[i] + (1 - theta) * at_y[i]
        assert lhs >= rhs - 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_overlap_symmetry_and_l1_identity(seed):
    p = dirichlet_profile(seed, 3, 4)
    x = random_allocation(seed + 3, 4)
    sats = ct.satisfaction_vector(p, x).values
    for i in range(p.n):
        pi = sats[i]
        swapped = float(np.minimum(x.shares, p.prefs[i]).sum())
        assert pi == pytest.approx(swapped)
        assert 1.0 - pi == pytest.approx(0.5 * np.abs(p.prefs[i] - x.shares).sum())


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(0.01, 1.0),
    alpha_frac=st.floats(0.001, 1.0),
    kind_idx=st.integers(0, len(CONSTANT_IAV) - 1),
)
def test_derivative_ratio_lemma_constant_iav(t, alpha_frac, kind_idx):
    kind, p, lam = CONSTANT_IAV[kind_idx]
    f = ct.make_utility(kind, p=p)
    alpha = 1.0 + alpha_frac * (1.0 / t - 1.0)
    if alpha <= 1.0:
        return
    ratio = float(f.deriv(t) / f.deriv(alpha * t))
    assert ratio == pytest.approx(alpha**lam, rel=1e-9, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.01, 1.0), alpha_frac=st.floats(0.001, 1.0), p=st.floats(0.5, 2.0))
def test_derivative_ratio_lemma_negexppower_inequality(t, alpha_frac, p):
    f = ct.make_utility("negexppower", p=p)
    alpha = 1.0 + alpha_frac * (1.0 / t - 1.0)
    if alpha <= 1.0:
        return
    ratio = float(f.deriv(t) / f.deriv(alpha * t))
    assert ratio >= alpha ** (1.0 + p) - 1e-9
