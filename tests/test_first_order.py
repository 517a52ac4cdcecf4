"""The paper's first-order quantities against the MRS certificate: the
marginal contributions and directional derivatives are the terms the
solver's gap compares, near-ties, floored satisfactions and steep
utilities keep them well defined, the exchange line search (its galloping
kink search and its Newton stops) agrees with the tuple-list bisection it
replaced, the Newton step's search along a general direction agrees with a
bisection oracle, the smooth stop reaches its root when Newton steps creep,
the binary searches in the sorted columns agree with the mask comparisons,
also on columns crowded within ulps of their thresholds, and the strict
mask and tie lists the polish carries from step to step equal fresh ones."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrules as ct
import ctrules.solver as solver_module
from ctrules.cli import ladder_rule
from ctrules.core import EQUALITY_TOL, overlap, support_masks
from helpers import dirichlet_profile, single_minded_profile

UTILITIES = [
    ct.make_utility("log"),
    ct.make_utility("power", p=0.5),
    ct.make_utility("negpower", p=2.0),
    ct.make_utility("negexppower", p=1.0),
    ct.make_utility("quadratic"),
    ct.make_utility("identity"),
]

# Profiles and allocations on the grid of multiples of 2^-GRID_BITS, so an
# exchange of EXCHANGE = 2^-(GRID_BITS + 2) is exact in floating point and
# stops short of every kink (kinks are at least one grid step apart).
GRID_BITS = 20
EXCHANGE = 2.0 ** -(GRID_BITS + 2)


def dyadic_rows(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """Stochastic rows whose entries are multiples of 2^-GRID_BITS, some of
    them zero."""
    scale = 1 << GRID_BITS
    out = np.zeros((rows, m))
    for r in range(rows):
        cuts = np.sort(rng.integers(0, scale + 1, size=m - 1))
        out[r] = np.diff(np.concatenate(([0], cuts, [scale]))) / scale
    return out


def dyadic_cases():
    """Seeded (profile, allocation) pairs: random grid allocations and
    allocations on an agent's ideal (a tie on every alternative)."""
    rng = np.random.default_rng(6061)
    for case in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        prefs = dyadic_rows(rng, n, m)
        if case % 4 == 3:
            prefs[-1] = prefs[0]
        profile = ct.Profile(prefs)
        if case % 2:
            yield profile, ct.Allocation(prefs[int(rng.integers(0, n))])
        else:
            yield profile, ct.Allocation(dyadic_rows(rng, 1, m)[0])


def mc(profile, x, f, j, direction):
    return ct.marginal_contribution(profile, x, f, j, direction)


@pytest.mark.parametrize("f", UTILITIES, ids=lambda f: f.kind)
def test_mrs_gap_is_the_spread_of_marginal_contributions(f):
    for profile, x in dyadic_cases():
        shares = x.shares
        best_up = max(mc(profile, x, f, j, "up") for j in range(profile.m) if shares[j] < 1.0)
        worst_down = min(mc(profile, x, f, k, "down") for k in range(profile.m) if shares[k] > 0.0)
        assert ct.mrs_gap(profile, x, f) == best_up - worst_down


@pytest.mark.parametrize("f", UTILITIES, ids=lambda f: f.kind)
def test_exchange_derivative_is_the_marginal_contribution_difference(f):
    exchanges = 0
    for profile, x in dyadic_cases():
        shares = x.shares
        fp = f.deriv(ct.satisfaction_vector(profile, x).values)
        for j in range(profile.m):
            for k in range(profile.m):
                if j == k or shares[j] >= 1.0 or shares[k] <= 0.0:
                    continue
                moved = shares.copy()
                moved[j] += EXCHANGE
                moved[k] -= EXCHANGE
                y = ct.Allocation(moved)
                lhs = sum(fp[i] * ct.directional_derivative(profile, x, y, i) for i in range(profile.n))
                up, down = mc(profile, x, f, j, "up"), mc(profile, x, f, k, "down")
                rhs = EXCHANGE * (up - down)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * EXCHANGE * (abs(up) + abs(down)))
                exchanges += 1
    assert exchanges > 100


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    m=st.integers(2, 5),
    shift=st.floats(-EQUALITY_TOL / 2, EQUALITY_TOL / 2),
)
def test_near_tie_is_weak_support_only(seed, n, m, shift):
    profile = dirichlet_profile(seed, n, m)
    i = seed % n
    j, k = seed % m, (seed + 1) % m
    shares = profile.prefs[i].copy()
    shares[j] += shift
    shares[k] -= shift
    x = ct.Allocation(shares)
    up, down = support_masks(profile.prefs, x.shares)
    assert down[i].all() and not up[i].any()
    assert not (up & ~down).any()
    # the tied agent is the gap between the weak and the strict contribution
    f = ct.make_utility("log")
    pi_i = ct.satisfaction_vector(profile, x).values[i]
    for a in (j, k):
        weak = mc(profile, x, f, a, "down")
        assert weak - mc(profile, x, f, a, "up") >= float(f.deriv(pi_i)) - 1e-12 * weak


def tie_heavy_cases():
    """Seeded (profile, x) pairs with many agents tied at some share:
    single-minded rows and rows on the 0.1 grid, at 0.1-grid allocations
    with zero shares and at an agent's own ideal."""
    rng = np.random.default_rng(2611)
    for case in range(40):
        n, m = int(rng.integers(2, 40)), int(rng.integers(2, 6))
        if case % 2:
            profile = single_minded_profile(case, n, m)
        else:
            profile = ct.Profile(rng.multinomial(10, np.full(m, 1.0 / m), size=n) / 10.0)
        yield profile, ct.Allocation(rng.multinomial(10, np.full(m, 1.0 / m)) / 10.0)
        yield profile, ct.Allocation(profile.prefs[int(rng.integers(0, n))])


@pytest.mark.parametrize("f", UTILITIES, ids=lambda f: f.kind)
def test_tie_sums_equal_the_dense_weak_mask_product(f):
    """The weak marginal contribution is the strict one plus f' summed over
    the agents tied at the share; on tie-heavy profiles it equals f'(pi)
    @ down, the product with the dense weak mask it replaced, within n eps
    relative, and the strict one equals f'(pi) @ up."""
    eps = np.finfo(float).eps
    tied = 0
    for profile, x in tie_heavy_cases():
        prefs, shares = profile.prefs, x.shares
        fp = f.deriv(overlap(prefs, shares))
        up, down = support_masks(prefs, shares)
        mc_up, mc_down = solver_module._marginals(fp, *solver_module._supporters(prefs, shares))
        dense = fp @ down.astype(float)
        assert np.array_equal(mc_up, fp @ up.astype(float))
        assert np.all(np.abs(mc_down - dense) <= profile.n * eps * (np.abs(fp) @ down))
        for j in range(profile.m):
            assert mc(profile, x, f, j, "down") == mc_down[j]
        tied += int((down & ~up).sum())
    assert tied > 1000


FLOOR_KINDS = [("log", None), ("power", 0.3), ("negpower", 8.0), ("negexppower", 8.0), ("quadratic", None)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), m=st.integers(2, 5), kind_idx=st.integers(0, len(FLOOR_KINDS) - 1))
def test_utility_floor_keeps_marginals_finite(seed, n, m, kind_idx):
    kind, p = FLOOR_KINDS[kind_idx]
    f = ct.make_utility(kind, p=p)
    rng = np.random.default_rng(seed)
    starved = np.zeros(m)
    starved[0] = 1.0
    profile = ct.Profile(np.vstack([rng.dirichlet(np.ones(m), size=n), starved]))
    shares = np.concatenate(([0.0], rng.dirichlet(np.ones(m - 1))))
    x = ct.Allocation(shares)
    assert ct.satisfaction_vector(profile, x).values[-1] == 0.0
    for j in range(m):
        for direction in ("up", "down"):
            assert np.isfinite(mc(profile, x, f, j, direction))
    assert np.isfinite(ct.mrs_gap(profile, x, f))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), m=st.integers(2, 4), p=st.floats(1.0, 8.0))
def test_steep_negexppower_solve_certifies_or_reports_a_finite_gap(seed, n, m, p):
    profile = dirichlet_profile(seed, n, m, conc=0.5)
    report = ct.solve_ctr(profile, ct.make_utility("negexppower", p=p))
    assert np.isfinite(report.mrs_gap)
    assert np.isfinite(report.allocation.shares).all()
    if report.converged:
        assert report.mrs_gap <= solver_module._TOL


STIFF_5X4 = [
    [0.1309002340873449, 0.6937098893799967, 0.002664090198205111, 0.17272578633445326],
    [0.0010733448108663532, 0.7571593419809874, 0.06575954384711186, 0.17600776936103452],
    [0.15237881589825603, 0.03930379177043864, 0.551723307750779, 0.2565940845805263],
    [0.33900930058780626, 0.5117654633271268, 0.14920974891921943, 1.5487165847475973e-05],
    [0.4042134748544852, 0.0034146283088878826, 0.5604936071756063, 0.031878289661020756],
]


def test_stiff_profile_on_a_segment_of_optima_certifies_in_few_steps(monkeypatch):
    """One of the derandomized examples above: negexppower p = 4.18 on a 5x4
    profile whose optima form a segment (the supporters of alternatives 0
    and 3 add up to those of 1 and 2, so the face's reduced Newton system
    is singular).  Pair steps alone zigzag between (2, 1) and (3, 0) for
    69,458 steps and end uncertified; the Newton step solves the system on
    its range and certifies within a few."""
    f = ct.make_utility("negexppower", p=4.175797009176113)
    monkeypatch.setattr(solver_module, "_MAX_ITERS", 20)
    report = ct.solve_ctr(ct.Profile(STIFF_5X4), f)
    assert report.converged and report.iterations <= 20
    assert report.mrs_gap <= solver_module._TOL


def test_newton_slope_at_clipped_marginals_keeps_its_sign_without_overflow():
    """500 single-minded agents over 50 alternatives (the rows that
    default_rng([3, 0]) draws) under negexppower p = 1, solved cold.  A
    Newton step's ray ends where shrinking shares leave 120 agents with f'
    clipped near 1.6e306, so the end-of-ray slope overflowed in the product
    (a RuntimeWarning, which fails the suite).  The slope's sign is read
    from the sum scaled by its largest f' when the plain sum is not
    finite.  The solve stops at the
    rounding floor of marginal contributions near 1e25, uncertified, and its
    report is the polish's own: mrs_gap and overlap at its allocation."""
    rows = np.zeros((500, 50))
    rows[np.arange(500), np.random.default_rng([3, 0]).integers(0, 50, size=500)] = 1.0
    profile = ct.Profile(rows)
    f = ct.make_utility("negexppower", p=1.0)
    report = ct.solve_ctr(profile, f)
    assert np.isfinite(report.mrs_gap) and report.iterations > 0
    assert report.mrs_gap == ct.mrs_gap(profile, report.allocation, f)
    assert np.array_equal(report.satisfactions.values, overlap(profile.prefs, report.allocation.shares))


# ---------------------------------------------------------------------------
# Line search: safeguarded Newton against the bisection it replaced
# ---------------------------------------------------------------------------


def bisection_line_search(prefs, x, pi, f, j, k):
    """Reference line search: kink and zero landings as in the solver
    (among kinks at one step, j's before k's, and on one side the first the
    exchange reaches), and an 80-step bisection on the sign of the right
    derivative for a smooth interior stop."""
    cj = prefs[:, j]
    ck = prefs[:, k]
    xj = float(x[j])
    xk = float(x[k])
    dmax = xk
    base_j = np.minimum(cj, xj)
    base_k = np.minimum(ck, xk)

    def deriv(d, right):
        p = pi + (np.minimum(cj, xj + d) - base_j) + (np.minimum(ck, xk - d) - base_k)
        fp = f.deriv(p)
        if right:
            up = cj > xj + d + EQUALITY_TOL
            dn = ck >= xk - d - EQUALITY_TOL
        else:
            up = cj >= xj + d - EQUALITY_TOL
            dn = ck > xk - d + EQUALITY_TOL
        return float(fp[up].sum() - fp[dn].sum())

    if deriv(dmax, right=False) >= 0.0:
        return dmax, ("zero", None)
    # the kinks: j's strict supporters and the agents outside k's weak
    # mask, up to the agents the left derivative at dmax counts
    cands = []
    for v in cj[support_masks(cj, xj)[0] & (cj < xj + dmax - EQUALITY_TOL)]:
        cands.append((float(v - xj), "j", float(v)))
    for v in ck[~support_masks(ck, xk)[1] & (ck > xk - dmax + EQUALITY_TOL)]:
        cands.append((float(xk - v), "k", float(v)))
    cands.sort(key=lambda c: (c[0], c[1], c[2] if c[1] == "j" else -c[2]))
    merged = []
    for c in cands:
        if merged and c[0] - merged[-1][0] <= EQUALITY_TOL:
            continue
        merged.append(c)
    lo_d, hi_idx = 0.0, None
    lo_i, hi_i = 0, len(merged) - 1
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        if deriv(merged[mid][0], right=True) <= 0.0:
            hi_idx = mid
            hi_i = mid - 1
        else:
            lo_d = merged[mid][0]
            lo_i = mid + 1
    if hi_idx is not None:
        b, side, v = merged[hi_idx]
        if deriv(b, right=False) >= 0.0:
            return b, (side, v)
        hi_d = b
    else:
        hi_d = dmax
    lo, hi = lo_d, hi_d
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid, right=True) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (None, None)


def line_search(prefs, x, pi, f, j, k):
    """The solver's line search from x, with the sorted columns and the
    minima min(prefs, x) it is given inside the polish."""
    return solver_module._line_search(prefs, np.sort(prefs, axis=0), np.minimum(prefs, x), x, pi, f, j, k)


@contextmanager
def recorded_line_searches():
    """Record every line search the solver makes inside the block, as
    (arguments, result, number of f' evaluations) triples; the arguments
    are those of ``line_search`` below and of the bisection oracle."""
    records = []
    inside = [False]
    evals = [0]
    solver_line_search = solver_module._line_search
    deriv = ct.UtilityFunction.deriv

    def counting_deriv(self, t):
        evals[0] += inside[0]
        return deriv(self, t)

    def recording_line_search(prefs, srt, mins, x, pi, f, j, k):
        evals[0], inside[0] = 0, True
        try:
            out = solver_line_search(prefs, srt, mins, x, pi, f, j, k)
        finally:
            inside[0] = False
        records.append(((prefs, x.copy(), pi.copy(), f, j, k), out, evals[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_line_search", recording_line_search)
        mp.setattr(ct.UtilityFunction, "deriv", counting_deriv)
        yield records


@pytest.fixture(scope="module")
def criterion_06_line_searches():
    """Every pair line search of a sweep over criterion 06's corpus and the
    next 40 profiles of its draw (seed 777: 240 Dirichlet profiles, n 2-8,
    m 2-4, the five-rung ladder; the first rung starts cold, each later one
    from the rung before), with the number of f' evaluations each one made.
    The Newton steps take over some of the polish, so 200 profiles now make
    fewer than the 1,000 searches the mean below is taken over."""
    rng = np.random.default_rng(777)
    with recorded_line_searches() as records:
        for _ in range(240):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 9))
            profile = ct.Profile(rng.dirichlet(np.ones(m), size=n))
            report = None
            for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
                report = ct.solve_ctr(profile, ladder_rule(lam), start=report.allocation if report else None)
                assert report.converged
    return records


def test_newton_line_search_agrees_with_bisection(criterion_06_line_searches):
    smooth = 0
    for args, (d, landing), _ in criterion_06_line_searches[::4]:
        ref_d, ref_landing = bisection_line_search(*args)
        assert landing == ref_landing
        if landing == (None, None):
            smooth += 1
            assert abs(d - ref_d) <= 1e-12, (d, ref_d)
        else:
            assert d == ref_d
    assert smooth > 100


def test_line_search_makes_few_derivative_evaluations(criterion_06_line_searches):
    evals = [count for _, _, count in criterion_06_line_searches]
    assert len(evals) > 1000
    assert np.mean(evals) <= 15.0


def assert_agrees_with_bisection(records):
    """Kink and zero landings equal the oracle's exactly, smooth stops to
    1e-12; returns the number of each landing kind."""
    kinds = {"zero": 0, "j": 0, "k": 0, None: 0}
    for args, (d, landing), _ in records:
        ref_d, ref_landing = bisection_line_search(*args)
        assert landing == ref_landing
        if landing == (None, None):
            assert abs(d - ref_d) <= 1e-12, (d, ref_d)
        else:
            assert d == ref_d
        kinds[landing[0]] += 1
    return kinds


# ---------------------------------------------------------------------------
# Newton step: the search along a general direction against bisection
# ---------------------------------------------------------------------------


def ray_search_oracle(prefs, x, pi, f, d):
    """Reference search along x + t d over a face's columns: the first
    breakpoint over every (agent, column) entry and every shrinking share's
    zero, and an 80-step bisection on the sign of the derivative before it,
    with the satisfactions read from ``overlap`` at x + t d (plus what the
    other columns give, which does not move)."""
    cands = [(-x[j] / d[j], j, 0.0) for j in range(len(x)) if d[j] < 0.0]
    for i, j in np.ndindex(*prefs.shape):
        if d[j] != 0.0 and (prefs[i, j] - x[j]) / d[j] > 0.0:
            cands.append(((prefs[i, j] - x[j]) / d[j], j, float(prefs[i, j])))
    end, c, v = min(cands)
    rest = pi - overlap(prefs, x)
    # the support pattern, and so the rate of every satisfaction, is fixed
    # on the open segment before the first breakpoint
    rate = (prefs > x + 0.5 * end * d).astype(float) @ d

    def slope(t):
        return float(f.deriv(rest + overlap(prefs, x + t * d)) @ rate)

    if slope(end) >= 0.0:
        return end, c, v
    lo, hi = 0.0, end
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), None, None


def free_face(prefs, x):
    """The free face {j : x_j > 0, no agent tied at x_j} by the masks."""
    up, down = support_masks(prefs, x)
    return np.flatnonzero((x > 0.0) & (up.sum(axis=0) == down.sum(axis=0)))


def seeded_faces():
    """Every Newton search in cold solves of seeded Dirichlet profiles, as
    (kind, prefs, x, args): the profile's prefs, the polish's point and the
    arguments (above, below, x_F, pi, fp, second, f, supp, d) of
    ``_ray_search``, each
    search followed by one on the same face along a random ascent direction
    with sum 0 and max |d_j| = 1."""
    searches = []
    at = {}
    ray_search, newton_step = solver_module._ray_search, solver_module._newton_step

    def remembering_newton_step(srt, bins, x, *rest):
        at["x"] = x.copy()
        return newton_step(srt, bins, x, *rest)

    def recording_ray_search(*args):
        searches.append((at["prefs"], at["x"], args))
        return ray_search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_newton_step", remembering_newton_step)
        mp.setattr(solver_module, "_ray_search", recording_ray_search)
        for seed in range(30):
            profile = dirichlet_profile(seed, 3 + seed % 10, 3 + seed % 4, conc=0.7)
            at["prefs"] = profile.prefs
            for f in UTILITIES[:5]:
                ct.solve_ctr(profile, f)
    rng = np.random.default_rng(1982)
    for prefs, x, (above, below, xf, pi, fp, second, f, supp, d) in searches:
        yield "newton", prefs, x, (above, below, xf, pi, fp, second, f, supp, d)
        d = rng.normal(size=len(xf))
        d -= d.mean()
        d /= np.abs(d).max()
        yield "random", prefs, x, (above, below, xf, pi, fp, second, f, supp, d if fp @ (supp @ d) > 0.0 else -d)


def test_smooth_stop_along_a_general_direction_agrees_with_bisection():
    kinds = {"kink": 0, "smooth": 0, "newton": 0, "random": 0}
    for direction, prefs, x, args in seeded_faces():
        kinds[direction] += 1
        _, _, xf, pi, _, _, f, _, d = args
        t, c, v = solver_module._ray_search(*args)
        ref_t, ref_c, ref_v = ray_search_oracle(prefs[:, free_face(prefs, x)], xf, pi, f, d)
        assert (c, v) == (ref_c, ref_v)
        if c is None:
            assert abs(t - ref_t) <= 1e-12, (t, ref_t)
            kinds["smooth"] += 1
        else:
            assert t == ref_t
            kinds["kink"] += 1
    assert kinds["kink"] >= 20 and kinds["smooth"] >= 20 and kinds["newton"] >= 20, kinds


def test_smooth_stop_reaches_the_root_when_newton_steps_creep():
    # negexppower p=1: f' at the 200 agents at 0.01 is about 3e47 and falls
    # by orders of magnitude across the bracket, so Newton steps from the
    # left end advance 1e-4 to 1.5e-3 each, and 80 of them stop at 0.031,
    # where the slope is still about +4e15, far short of the root near 0.117
    f = ct.make_utility("negexppower", p=1.0)
    pi = np.concatenate([np.full(200, 0.01), np.full(300, 0.25)])
    rate = np.concatenate([np.ones(200), -np.ones(300)])

    def slope(t):
        return float(f.deriv(pi + t * rate) @ rate)

    t = solver_module._smooth_stop(f, lambda t: pi + t * rate, rate, 0.0, 0.24, math.ulp(1.0))
    lo, hi = 0.0, 0.24
    while hi - lo > math.ulp(1.0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    assert abs(t - lo) <= 2.0 * math.ulp(1.0), (t, lo)
    assert abs(slope(t)) < 1.0


def first_kink(above, below, x, d):
    """The column, step and value of the first kink along d, as
    ``_ray_search`` reads them off the kinks next to each share."""
    target = np.where(d > 0.0, above, below)
    steps = np.divide(target - x, d, out=np.full_like(d, np.inf), where=d != 0.0)
    c = int(np.argmin(steps))
    return c, steps[c], target[c]


def test_sorted_copy_gives_the_free_face_and_first_kinks_of_the_masks():
    """The Newton step reads its free face from the carried tie list and
    the ideal shares next to each free share from the sorted columns.  On
    every seeded face they equal the mask expressions: the face's columns and strict supporters,
    the smallest strictly supporting ideal share above each free share, the
    largest other one below it (or zero), and so the first kink's column,
    step and value along both directions."""
    faces = 0
    for _, prefs, x, (above, below, xf, _, _, _, _, supp, d) in seeded_faces():
        free = free_face(prefs, x)
        face = prefs[:, free]
        assert np.array_equal(xf, x[free])
        assert np.array_equal(supp, support_masks(prefs, x)[0][:, free])
        mask_above = np.where(supp > 0.0, face, np.inf).min(axis=0)
        mask_below = np.maximum(np.where(supp > 0.0, -np.inf, face).max(axis=0), 0.0)
        assert np.array_equal(above, mask_above)
        assert np.array_equal(below, mask_below)
        assert first_kink(above, below, xf, d) == first_kink(mask_above, mask_below, xf, d)
        faces += 1
    assert faces >= 40


def duplicate_row_profile(seed: int, n: int, m: int) -> ct.Profile:
    """n rows drawn from a few distinct Dirichlet rows, so kinks coincide."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(m), size=max(1, n // 3))
    return ct.Profile(rows[rng.integers(0, len(rows), size=n)])


def test_kink_search_agrees_with_bisection_on_duplicate_and_single_minded_rows():
    with recorded_line_searches() as records:
        for seed in range(12):
            n, m = 4 + seed % 9, 2 + seed % 4
            for profile in (duplicate_row_profile(seed, n, m), single_minded_profile(seed, n, m)):
                for f in UTILITIES[:4]:
                    assert ct.solve_ctr(profile, f).converged
                    assert ct.solve_ctr(profile, f, start=ct.Allocation.uniform(m)).converged
                assert ct.solve_utilitarian(profile).converged
    kinds = assert_agrees_with_bisection(records)
    assert kinds["j"] + kinds["k"] > 50 and kinds["zero"] > 10, kinds


def test_kink_search_keeps_the_first_breakpoint_of_each_near_tie_chain():
    """Breakpoints 2^-41 apart (within EQUALITY_TOL of their neighbours)
    along the exchange e_0 - e_1: j kinks at five consecutive ones and a k
    kink tied exactly with the fourth, so the chain spans more than
    EQUALITY_TOL.  The merge keeps the first breakpoint and the fourth, the
    first one more than EQUALITY_TOL past it; the search lands on the fourth,
    on its j side, which sorts before the k side on an equal step."""
    delta = 2.0**-41
    assert 2 * delta <= EQUALITY_TOL < 3 * delta
    rows = [[0.375 + i * delta, 0.0, 0.625 - i * delta] for i in range(5)]
    rows += [[0.0, 0.375 - 3 * delta, 0.625 + 3 * delta], [0.0, 1.0, 0.0]]
    prefs = np.array(rows)
    x = np.array([0.25, 0.5, 0.25])
    pi = np.minimum(prefs, x).sum(axis=1)
    f = ct.make_utility("log")
    out = line_search(prefs, x, pi, f, 0, 1)
    assert out == bisection_line_search(prefs, x, pi, f, 0, 1)
    assert out == (0.125 + 3 * delta, ("j", 0.375 + 3 * delta))


def test_kink_search_agrees_with_bisection_at_a_thousand_agents():
    profile = dirichlet_profile(31, 1000, 8, conc=0.5)
    with recorded_line_searches() as records:
        for f in UTILITIES[:4]:
            assert ct.solve_ctr(profile, f).converged
        assert ct.solve_utilitarian(profile).converged
    kinds = assert_agrees_with_bisection(records[::2])
    assert sum(kinds.values()) >= 20 and kinds["j"] + kinds["k"] >= 5, kinds


def test_kink_search_gallops_past_several_doublings():
    """Twenty j kinks at steps i/64 along e_0 - e_1 against `fans` agents
    who want only alternative 1, under the identity utility: the right
    derivative at kink t is (19 - t) - fans, so the first nonpositive kink
    is 19 - fans, and its left derivative is positive.  Over every fan count
    from 1 to 19 the landing kink runs from 18 down to 0: with one fan the
    gallop probes 0, 1, 3, 7, 15 and the capped last kink 19 before it
    bisects; with nine it lands on kink 10, bisecting between 7 and 15."""
    x = np.array([0.25, 0.5, 0.25])
    f = ct.make_utility("identity")
    for fans in range(1, 20):
        rows = [[0.25 + i / 64, 0.0, 0.75 - i / 64] for i in range(1, 21)] + [[0.0, 1.0, 0.0]] * fans
        prefs = np.array(rows)
        pi = np.minimum(prefs, x).sum(axis=1)
        out = line_search(prefs, x, pi, f, 0, 1)
        assert out == bisection_line_search(prefs, x, pi, f, 0, 1)
        kink = 19 - fans
        assert out == ((kink + 1) / 64, ("j", 0.25 + (kink + 1) / 64))


def test_kink_search_without_a_qualifying_kink_brackets_up_to_dmax():
    """Eleven j kinks at steps i/256 along e_0 - e_1 with two single-minded
    agents, one on each moved alternative, under the quadratic utility:
    the right derivative is positive at every kink (the gallop probes 0, 1,
    3, 7 and the last, 10), and negative at dmax = 0.5, so the stop is
    smooth, past the last kink.  There phi'(d) = 0.5 - 4d is linear, and
    the Newton stop is its root 0.125 exactly; the reference bisection
    stops within a few ulps of it."""
    rows = [[0.25 + i / 256, 0.0, 0.75 - i / 256] for i in range(1, 12)] + [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    prefs = np.array(rows)
    x = np.array([0.25, 0.5, 0.25])
    pi = np.minimum(prefs, x).sum(axis=1)
    f = ct.make_utility("quadratic")
    assert line_search(prefs, x, pi, f, 0, 1) == (0.125, (None, None))
    ref_d, ref_landing = bisection_line_search(prefs, x, pi, f, 0, 1)
    assert ref_landing == (None, None) and abs(ref_d - 0.125) <= 1e-12


def test_kink_search_sorts_every_kink_once_the_gallop_passes_the_prefix():
    """Forty j kinks at steps i/128 along e_0 - e_1, more than the sorted
    prefix of solver._KINK_PREFIX, against three agents who want only
    alternative 1, under the identity utility: the right derivative at kink
    t is 36 - t, so every kink of the prefix has a positive one and the
    first nonpositive kink, 36, lies past it.  The search must go on over
    every kink and land there, not stop smoothly past the prefix."""
    kinks = 40
    assert solver_module._KINK_PREFIX < 37 < kinks
    x = np.array([0.25, 0.5, 0.25])
    f = ct.make_utility("identity")
    rows = [[0.25 + i / 128, 0.0, 0.75 - i / 128] for i in range(1, kinks + 1)] + [[0.0, 1.0, 0.0]] * 3
    prefs = np.array(rows)
    pi = np.minimum(prefs, x).sum(axis=1)
    out = line_search(prefs, x, pi, f, 0, 1)
    assert out == bisection_line_search(prefs, x, pi, f, 0, 1)
    assert out == (37 / 128, ("j", 0.25 + 37 / 128))


def test_flat_derivative_from_the_qualifying_kink_lands_on_zero():
    """Along e_0 - e_1 from x = (0.25, 0.5, 0.25) under the identity
    utility, one agent gains from x_0 up to its kink at step 0.25, one from
    all of it, and one loses all of x_1: the right derivative is 1 before
    the kink and exactly 0 from it to dmax = 0.5.  The kink qualifies with a
    zero right derivative and a positive left one, but the objective is
    flat up to dmax, whose left derivative is 0, so the donor empties: a
    zero landing, as the bisection oracle lands."""
    prefs = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([0.25, 0.5, 0.25])
    pi = np.minimum(prefs, x).sum(axis=1)
    f = ct.make_utility("identity")
    out = line_search(prefs, x, pi, f, 0, 1)
    assert out == bisection_line_search(prefs, x, pi, f, 0, 1)
    assert out == (0.5, ("zero", None))


def crowded_line_searches():
    """Seeded line searches along e_0 - e_1 whose columns crowd the
    thresholds the kink runs and the probes compare with: values within 6
    ulps of x_0 -+ EQUALITY_TOL, x_0 + room and x_0 + dmax - EQUALITY_TOL
    in column 0, and of x_1 +- EQUALITY_TOL, x_1 - room and x_1 - dmax +
    EQUALITY_TOL in column 1 (dmax = x_1, room = dmax - EQUALITY_TOL), each
    crowd present or not at random.  Agents who gain from x_0 all the way,
    agents tied at x_1 who lose from the start and one agent on
    alternative 2 alone fill the profile; the utility is one of five kinds.
    Yields the arguments of ``line_search``."""
    rng = np.random.default_rng(2612)
    for _ in range(400):
        xj, xk = (float(rng.choice([0.1, 0.25, 0.3, 1.0 / 3.0, rng.random() / 2])) for _ in range(2))
        dmax = xk
        room = dmax - EQUALITY_TOL

        def crowd(*edges):
            sizes = [int(rng.integers(1, 24)) if rng.random() < 0.5 else 0 for _ in edges]
            return np.concatenate([e + np.spacing(e) * rng.integers(-6, 7, size=s) for e, s in zip(edges, sizes)])

        top = min(1.0, xj + xk + 0.1)
        rows = [[v, 0.0, 1.0 - v] for v in crowd(xj - EQUALITY_TOL, xj + EQUALITY_TOL, xj + room, xj + dmax - EQUALITY_TOL)]
        rows += [[0.0, v, 1.0 - v] for v in crowd(xk + EQUALITY_TOL, xk - EQUALITY_TOL, xk - room, xk - dmax + EQUALITY_TOL)]
        rows += [[top, 0.0, 1.0 - top]] * int(rng.integers(1, 9)) + [[0.0, xk, 1.0 - xk]] * int(rng.integers(0, 4))
        prefs = np.asfortranarray(rows + [[0.0, 0.0, 1.0]])
        x = np.array([xj, xk, 1.0 - xj - xk])
        yield prefs, x, np.minimum(prefs, x).sum(axis=1), UTILITIES[int(rng.integers(0, 5))], 0, 1


def test_kink_runs_at_the_ulp_edges_agree_with_bisection():
    """Each end of the line search's two kink runs is one binary search
    for its threshold in the sorted column, and the bisection oracle takes
    its kinks from the masks.  On columns crowded within a few ulps of
    every threshold, with equal values and values on both sides of each,
    the landings agree, among them landings on the first and the last kink
    of both runs and zero landings past a kink within 2 EQUALITY_TOL of
    dmax, where the probes at the kink and at dmax do not nest."""
    records = [(args, line_search(*args), 0) for args in crowded_line_searches()]
    kinds = assert_agrees_with_bisection(records)
    edges = {"j first": 0, "j last": 0, "k first": 0, "k last": 0}
    for (_, x, *_), (_, (side, v)), _ in records:
        if side in ("j", "k"):
            xj, xk = x[0], x[1]
            first, last = (xj + EQUALITY_TOL, xj + xk) if side == "j" else (xk - EQUALITY_TOL, 0.0)
            edges[f"{side} {'first' if abs(v - first) < abs(v - last) else 'last'}"] += 1
    assert kinds["zero"] >= 10 and kinds[None] >= 100, kinds
    assert min(edges.values()) >= 3, edges


@pytest.mark.parametrize(
    "f, bound", [(ct.make_utility("log"), 5.0), (ct.make_utility("negpower", p=3.0), 5.5)], ids=["log", "negpower"]
)
def test_line_search_makes_few_derivative_evaluations_at_size(f, bound):
    """At 2000 x 50 an exchange has about 1,700 kinks, and the landing is
    usually among the first few, which the gallop reaches in a few probes;
    bisecting all of them takes 13-14 f' evaluations per line search.  The
    left derivative at the qualifying kink reuses the f' of the right probe
    there: the means are 4.4 (log) and 5.01 (negpower) evaluations per
    search, and one more each when that derivative evaluates f' again."""
    profile = dirichlet_profile(11, 2000, 50, conc=0.5)
    with recorded_line_searches() as records:
        assert ct.solve_ctr(profile, f).converged
    evals = [count for _, _, count in records]
    assert len(evals) > 50
    assert np.mean(evals) <= bound


def test_carried_support_masks_equal_fresh_masks_after_every_step():
    """The polish carries its strict support mask as 0/1 floats, the agents
    tied at each share as one flat list, and the elementwise minima whose
    row sums are the satisfactions, and recomputes only the columns each
    step moves; at every iterate the strict mask equals support_masks',
    each column's entries in the tie list are, in index order, exactly the
    agents on which the weak and strict masks differ (none at a share at
    zero, where the gap reads no weak contribution), the list holds no
    other entry, and the satisfactions equal overlap bit for bit, through
    kink, zero and smooth landings of pair steps and of Newton steps.  A
    300-agent profile of 0.1-grid rows, polished also from a vertex, ties
    dozens of agents at a share, and its moved columns drop their ties,
    regain ties later, replace one nonempty tie list by another and move to
    zero where agents have a zero ideal share."""
    marginals = solver_module._marginals
    exchange_terms = solver_module._exchange_terms
    newton_step = solver_module._newton_step
    solving = {}
    checked = [0]
    tied_steps = [0]
    most_ties = [0]
    changes = {"dropped": 0, "regained": 0, "replaced": 0, "zeroed": 0}
    newton = {True: 0, False: 0}

    def remembering_deriv(self, t):
        # the polish takes f' of the satisfactions right before the gap
        solving["pi"] = t
        return deriv(self, t)

    def remembering_marginals(weights, up, tied, bins):
        solving["carried"] = up.copy(), tied.copy(), bins.copy()
        return marginals(weights, up, tied, bins)

    def checking_exchange_terms(x, mc_up, mc_down):
        prefs = solving["prefs"]
        up, tied, bins = solving["carried"]
        fresh_up, fresh_down = support_masks(prefs, x)
        assert np.array_equal(up, fresh_up.astype(float))
        held = []
        for c in range(prefs.shape[1]):
            fresh_ties = np.flatnonzero(fresh_down[:, c] & ~fresh_up[:, c])
            # a share at zero carries no ties: the gap never reads its weak contribution
            if x[c] == 0.0:
                changes["zeroed"] += bool(len(fresh_ties) and solving["x"][c] > 0.0)
                fresh_ties = fresh_ties[:0]
            assert np.array_equal(tied[bins == c], fresh_ties)
            held.append(fresh_ties)
        assert len(tied) == len(bins) == sum(map(len, held))
        assert np.array_equal(solving["pi"], overlap(prefs, x))
        for c, (before, after) in enumerate(zip(solving["held"], held)):
            if len(before) and not len(after):
                changes["dropped"] += 1
                solving["lost"].add(c)
            elif len(after) and not len(before):
                changes["regained"] += c in solving["lost"]
            elif len(after) and not np.array_equal(before, after):
                changes["replaced"] += 1
        solving["held"], solving["x"] = held, x.copy()
        checked[0] += 1
        tied_steps[0] += bool(len(bins))
        most_ties[0] = max(most_ties[0], max(map(len, held)))
        return exchange_terms(x, mc_up, mc_down)

    def counting_newton_step(*args):
        step = newton_step(*args)
        if step is not None:
            newton[step[1]] += 1
        return step

    with recorded_line_searches() as records, pytest.MonkeyPatch.context() as mp:
        deriv = ct.UtilityFunction.deriv  # the line-search recorder's counting f'
        mp.setattr(solver_module, "_marginals", remembering_marginals)
        mp.setattr(solver_module, "_exchange_terms", checking_exchange_terms)
        mp.setattr(ct.UtilityFunction, "deriv", remembering_deriv)
        mp.setattr(solver_module, "_newton_step", counting_newton_step)
        grid = ct.Profile(np.random.default_rng(1).multinomial(10, [0.3, 0.3, 0.2, 0.15, 0.05], size=300) / 10.0)
        runs = [(grid, (None, ct.Allocation.uniform(5), ct.Allocation(np.eye(5)[0])))]
        for seed in range(8):
            n, m = 4 + seed % 9, 2 + seed % 4
            starts = (None, ct.Allocation.uniform(m))
            runs += [
                (dirichlet_profile(seed, n, m, conc=0.5), starts),
                (single_minded_profile(seed, n, m), starts),
                (duplicate_row_profile(seed, n, m), starts),
            ]
        for profile, starts in runs:
            solving["prefs"] = profile.prefs
            for f in UTILITIES[:4]:
                for start in starts:
                    solving["held"], solving["lost"], solving["x"] = [], set(), np.zeros(profile.m)
                    ct.solve_ctr(profile, f, start=start)
    landings = [landing[0] for _, (_, landing), _ in records]
    assert landings.count("j") + landings.count("k") > 20 and landings.count("zero") > 5
    assert landings.count(None) > 20
    assert newton[True] > 20 and newton[False] > 0, newton
    assert checked[0] > len(records) + sum(newton.values())
    assert tied_steps[0] > checked[0] // 3
    assert most_ties[0] >= 24 and min(changes.values()) > 0, (most_ties, changes)
