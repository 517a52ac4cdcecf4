"""Rule solvers: concave-utility aggregation, utilitarian and egalitarian
references, and the first-order optimality certificate.

The aggregation objective sum_i f(satisfaction_i(x)) is concave but only
piecewise smooth: its kinks sit where some share x_j equals some ideal
x^i_j, and optima frequently land exactly on those kinks.  The solver
therefore runs in two phases:

1. a short entropic (multiplicative-weights) warmup from the uniform
   allocation, which keeps iterates interior and localizes the optimum;
2. an exchange polish that repeatedly shifts mass from the alternative with
   the smallest weak marginal contribution to the one with the largest
   strict marginal contribution, using an exact concave line search whose
   steps land bit-exactly on kink values (or on zero).

The polish stops when the marginal-rate-of-substitution gap

    max_{j: x_j < 1} mc_up_j  -  min_{k: x_k > 0} mc_down_k

drops below tolerance; a nonpositive gap certifies global optimality of the
concave program, so the certificate does not rely on smoothness.

The paper's first-order quantities live here, computed one way: the
marginal contributions mc_up / mc_down come from ``_marginals``, which the
certificate, the warmup and ``marginal_contribution`` all read, and
``directional_derivative`` reads the same strict/weak support masks.

The utilitarian baseline shares this machinery with the identity utility
(marginal contributions become supporter counts).  The egalitarian maxmin
reference is solved exactly by Kelley's cutting-plane method (Kelley 1960)
instead: each overlap is the minimum of affine pieces, so a linear program
over the allocation and the level t alone, with one cut t <= piece per
collected piece, relaxes the maxmin problem.  Each round adds the piece
active at the LP's allocation for every agent below the LP value.  The LP
value minus the achieved minimum satisfaction is a true optimality gap,
reported as ``mrs_gap``; ``iterations`` sums the HiGHS simplex iterations
over the rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.optimize import linprog

from .core import (
    EQUALITY_TOL,
    Allocation,
    Profile,
    SatisfactionVector,
    UtilityFunction,
    make_utility,
    overlap,
    support_masks,
)

_WARMUP_ITERS = 200
_STALL_WINDOW = 300
# Up to this many agents the maxmin cut LP is also seeded at every agent's
# ideal.  Its n * (n + 2) seed rows then cost less than the ~2 ms fixed
# overhead of one more linprog call, and they settle most small profiles in
# one round; past about 24 agents the rows cost more than the rounds saved.
_IDEAL_SEED_AGENTS = 16


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the iterative solver.

    tol is the gap tolerance certifying convergence: the MRS gap for rule
    solves, the cut-LP bound minus the achieved minimum for the maxmin
    reference.  max_iters caps the warmup and polish iterations together,
    and the cutting-plane rounds of the maxmin reference.
    """

    tol: float = 1e-7
    max_iters: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: allocation, satisfactions, objective and certificate."""

    allocation: Allocation
    satisfactions: SatisfactionVector
    objective: float
    mrs_gap: float
    iterations: int
    converged: bool


def marginal_contribution(
    profile: Profile,
    x: Allocation,
    f: UtilityFunction,
    j: int,
    direction: Literal["up", "down"],
) -> float:
    """Sum of f'(satisfaction) over the chosen support set of alternative j.

    This is the one-sided partial derivative of the rule objective in the
    direction of alternative j (up: increase x_j, down: decrease it), read
    from the terms the MRS certificate compares.
    """
    if not 0 <= j < profile.m:
        raise IndexError(f"alternative index {j} out of range for m={profile.m}")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    mc_up, mc_down, _ = _marginals(profile.prefs, x.shares, f)
    return float((mc_up if direction == "up" else mc_down)[j])


def directional_derivative(profile: Profile, x: Allocation, y: Allocation, i: int) -> float:
    """One-sided derivative of agent i's satisfaction at x toward y.

    Always at least the actual satisfaction gain pi_i(y) - pi_i(x): gains
    are counted in full on strictly supported growing alternatives while
    losses are only counted on weakly supported shrinking ones.
    """
    if not 0 <= i < profile.n:
        raise IndexError(f"agent index {i} out of range for n={profile.n}")
    up, down = support_masks(profile.prefs[i], x.shares)
    move = y.shares - x.shares
    return float(move @ np.where(move > 0, up, down))


def mrs_gap(profile: Profile, x: Allocation, f: UtilityFunction) -> float:
    """First-order optimality residual of x for the f-aggregation objective.

    Nonpositive (in particular below solver tolerance) certifies a global
    maximum: no strict marginal contribution of a growable alternative
    exceeds any weak marginal contribution of a shrinkable one.
    """
    return _mrs_terms(profile.prefs, x.shares, f)[0]


# ---------------------------------------------------------------------------
# First-order engine
# ---------------------------------------------------------------------------


def _marginals(prefs: np.ndarray, x: np.ndarray, f: UtilityFunction):
    """Strict and weak marginal contributions of every alternative at x.

    Returns (mc_up, mc_down, pi): mc_up[j] sums f'(pi_i) over the agents
    whose satisfaction grows with x_j, mc_down[j] over those whose
    satisfaction shrinks with it, and pi holds the satisfactions at x.
    """
    pi = overlap(prefs, x)
    fp = f.deriv(pi)
    up, down = support_masks(prefs, x)
    return fp @ up, fp @ down, pi


def _mrs_terms(prefs: np.ndarray, x: np.ndarray, f: UtilityFunction):
    """The MRS gap with its exchange pair and the satisfactions at x.

    Returns (gap, j, k, pi): j is the growable alternative with the largest
    strict marginal contribution, k the shrinkable one with the smallest
    weak marginal contribution.
    """
    mc_up, mc_down, pi = _marginals(prefs, x, f)
    mc_up = np.where(x < 1.0, mc_up, -np.inf)
    mc_down = np.where(x > 0.0, mc_down, np.inf)
    j = int(np.argmax(mc_up))
    k = int(np.argmin(mc_down))
    return float(mc_up[j] - mc_down[k]), j, k, pi


def _line_search(prefs: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, j: int, k: int):
    """Maximize the objective along x + d (e_j - e_k) for d in [0, dmax].

    Returns (d, landing) where landing records an exact stopping value:
    ("zero", None) when the donor empties, ("j", v) / ("k", v) when a share
    lands on a preference kink v, or (None, None) for a smooth interior
    stop.  Exact landings let the MRS certificate see ties exactly.
    """
    cj = prefs[:, j]
    ck = prefs[:, k]
    xj = float(x[j])
    xk = float(x[k])
    dmax = xk
    base_j = np.minimum(cj, xj)
    base_k = np.minimum(ck, xk)

    def deriv(d: float, right: bool) -> float:
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

    # membership-change breakpoints strictly inside (0, dmax)
    cands: list[tuple[float, str, float]] = []
    for v in cj[(cj > xj + EQUALITY_TOL) & (cj - xj < dmax - EQUALITY_TOL)]:
        cands.append((float(v - xj), "j", float(v)))
    for v in ck[(ck < xk - EQUALITY_TOL) & (xk - ck < dmax - EQUALITY_TOL)]:
        cands.append((float(xk - v), "k", float(v)))
    cands.sort(key=lambda c: c[0])
    merged: list[tuple[float, str, float]] = []
    for c in cands:
        if merged and c[0] - merged[-1][0] <= EQUALITY_TOL:
            continue
        merged.append(c)

    # first breakpoint where the right derivative is no longer positive
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

    # smooth sign change inside (lo_d, hi_d): plain bisection
    lo, hi = lo_d, hi_d
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid, right=True) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (None, None)


def _apply_move(x: np.ndarray, j: int, k: int, d: float, landing) -> np.ndarray:
    out = x.copy()
    side, v = landing
    if side == "zero":
        out[j] = x[j] + x[k]
        out[k] = 0.0
    elif side == "j":
        out[j] = v
        out[k] = x[k] - (v - x[j])
    elif side == "k":
        out[k] = v
        out[j] = x[j] + (x[k] - v)
    else:
        out[j] = x[j] + d
        out[k] = x[k] - d
    if out[k] < 0.0:
        out[j] += out[k]
        out[k] = 0.0
    return out


def _ascend(prefs: np.ndarray, f: UtilityFunction, opts: SolverOptions, x0: np.ndarray):
    """Warmup + exchange polish on a full-support preference matrix."""
    n, m = prefs.shape
    x = x0.copy()
    iters = 0

    # phase 1: entropic steps keep iterates interior; keep the best iterate,
    # scoring each one from the satisfactions its gradient already computed
    best_x, best_obj = x, -np.inf
    warmup = min(_WARMUP_ITERS, opts.max_iters)
    for t in range(1, warmup + 1):
        _, g, pi = _marginals(prefs, x, f)
        obj = float(f.value(pi).sum())
        if obj > best_obj:
            best_x, best_obj = x, obj
        eta = 1.0 / (1.0 + float(np.abs(g).max())) / t**0.5
        x = x * np.exp(eta * (g - g.max()))
        x /= x.sum()
    if float(f.value(overlap(prefs, x)).sum()) > best_obj:
        best_x = x
    iters += warmup
    x = best_x

    # phase 2: exchange polish until the MRS certificate passes
    converged = False
    stall = 0
    best_gap = np.inf
    while iters < opts.max_iters:
        gap, j, k, pi = _mrs_terms(prefs, x, f)
        if gap <= opts.tol:
            converged = True
            break
        if gap < best_gap - 1e-14:
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall > _STALL_WINDOW:
                break
        d, landing = _line_search(prefs, x, pi, f, j, k)
        if d <= 0.0:
            break
        x = _apply_move(x, j, k, d, landing)
        iters += 1

    return x, iters, converged


def _solve_first_order(profile: Profile, f: UtilityFunction, opts: SolverOptions) -> SolveReport:
    prefs = profile.prefs
    n, m = prefs.shape

    if n == 1:
        return _make_report(profile, prefs[0].copy(), f, iterations=0, converged=True, opts=opts)

    supported = prefs.max(axis=0) > 0.0
    sub = prefs[:, supported]
    ms = int(supported.sum())
    if ms == 1:
        x = np.zeros(m)
        x[int(np.flatnonzero(supported)[0])] = 1.0
        return _make_report(profile, x, f, iterations=0, converged=True, opts=opts)

    x_sub, iters, converged = _ascend(sub, f, opts, np.full(ms, 1.0 / ms))
    x = np.zeros(m)
    x[supported] = x_sub
    return _make_report(profile, x, f, iterations=iters, converged=converged, opts=opts)


def _make_report(
    profile: Profile,
    x: np.ndarray,
    f: UtilityFunction,
    iterations: int,
    converged: bool,
    opts: SolverOptions,
) -> SolveReport:
    s = x.sum()
    if abs(s - 1.0) > 1e-9:
        x = x / s
    allocation = Allocation(np.maximum(x, 0.0))
    sats = SatisfactionVector(overlap(profile.prefs, allocation.shares))
    objective = float(f.value(sats.values).sum())
    gap = mrs_gap(profile, allocation, f)
    return SolveReport(
        allocation=allocation,
        satisfactions=sats,
        objective=objective,
        mrs_gap=gap,
        iterations=iterations,
        converged=bool(converged and gap <= opts.tol),
    )


def solve_ctr(profile: Profile, f: UtilityFunction, opts: SolverOptions | None = None) -> SolveReport:
    """Maximize sum_i f(satisfaction_i) over the simplex.

    Requires a strictly concave utility; the identity baseline is rejected
    (use solve_utilitarian).  The objective is concave, so one ascent from
    the uniform allocation suffices: converged is True exactly when its MRS
    gap certifies a global optimum.
    """
    if not f.strictly_concave:
        raise ValueError("solve_ctr needs a strictly concave utility; use solve_utilitarian")
    return _solve_first_order(profile, f, opts or SolverOptions())


def solve_utilitarian(profile: Profile, opts: SolverOptions | None = None) -> SolveReport:
    """Maximize total satisfaction (piecewise-linear) via the shared scheme.

    With the identity utility marginal contributions are supporter counts,
    so the MRS certificate reduces to an integer comparison.
    """
    return _solve_first_order(profile, make_utility("identity"), opts or SolverOptions())


def solve_egalitarian(profile: Profile, opts: SolverOptions | None = None) -> SolveReport:
    """Maximize the minimum satisfaction exactly, by Kelley's cutting planes.

    Each overlap is the minimum of the affine pieces sum_{j in S} x_j +
    sum_{j not in S} ideal_ij, so max_x min_i overlap_i(x) is an LP over
    (x, t) once every piece is a cut t <= piece.  The loop keeps a subset of
    the pieces, seeded with every agent's piece at the uniform allocation
    and at the mean ideal (and, for small profiles, at every agent's ideal).
    Each round solves the cut LP with HiGHS, recomputes the overlaps at its
    allocation, and adds the piece active there for every agent below the LP
    value.

    The cut LP relaxes the maxmin problem, so its value minus the minimum
    satisfaction of the best allocation found is a true optimality gap,
    reported as mrs_gap; converged means that gap is at most tol.
    iterations sums the HiGHS simplex iterations over the rounds.  The loop
    also ends, unconverged, at max_iters rounds, when a round adds no new
    cut, or when an LP fails.  A failed LP keeps the best allocation so far
    (the uniform one if the first LP fails) and the last LP bound (1 before
    any), so the reported gap stays a true gap.
    """
    opts = opts or SolverOptions()
    prefs = profile.prefs
    n, m = prefs.shape

    uniform = np.full(m, 1.0 / m)
    seeds = [uniform, prefs.mean(axis=0)]
    if n <= _IDEAL_SEED_AGENTS:
        seeds.append(prefs)
    cuts, rhs = _overlap_cuts(prefs, np.vstack(seeds))
    keys, first = np.unique(_cut_keys(cuts, rhs), return_index=True)
    cuts, rhs = cuts[first], rhs[first]
    # maximize t; sum_j x_j = 1; no agent gains from x_j above the column max
    c = np.append(np.zeros(m), -1.0)
    a_eq = np.append(np.ones(m), 0.0)[None, :]
    bounds = np.column_stack([np.zeros(m + 1), np.append(prefs.max(axis=0), 1.0)])

    best_x, best_min = uniform, float(overlap(prefs, uniform).min())
    upper = 1.0  # no overlap exceeds 1
    iterations = 0
    for _ in range(opts.max_iters):
        # presolve is skipped: on these dense (m + 1)-column LPs it costs
        # more than it saves, about a fifth of each round at size
        a_ub = np.hstack([-cuts.astype(float), np.ones((len(rhs), 1))])
        res = linprog(
            c, A_ub=a_ub, b_ub=rhs, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs", options={"presolve": False}
        )
        iterations += int(res.nit)
        if res.status != 0:
            break
        t = -float(res.fun)
        upper = min(upper, t)
        x = np.maximum(res.x[:m], 0.0)
        x /= x.sum()
        pi = overlap(prefs, x)
        if pi.min() > best_min:
            best_x, best_min = x, float(pi.min())
        if upper - best_min <= opts.tol:
            break
        new_cuts, new_rhs = _overlap_cuts(prefs[pi < t], x)
        new_keys, first = np.unique(_cut_keys(new_cuts, new_rhs), return_index=True)
        fresh = ~np.isin(new_keys, keys)
        if not fresh.any():
            break
        keys = np.concatenate([keys, new_keys[fresh]])
        cuts = np.vstack([cuts, new_cuts[first[fresh]]])
        rhs = np.concatenate([rhs, new_rhs[first[fresh]]])

    sats = SatisfactionVector(overlap(prefs, best_x))
    gap = upper - sats.min()
    return SolveReport(
        allocation=Allocation(best_x),
        satisfactions=sats,
        objective=sats.min(),
        mrs_gap=gap,
        iterations=iterations,
        converged=bool(gap <= opts.tol),
    )


def _overlap_cuts(prefs: np.ndarray, points: np.ndarray):
    """The overlap piece active at each point, for every agent.

    For points of shape (k, m) returns (cuts, rhs) with k * n rows: the cut
    of agent i at point y is the set S = {j : y_j <= ideal_ij} as a boolean
    row, and rhs = sum_{j not in S} ideal_ij, so overlap_i(x) <= x[S].sum()
    + rhs for every allocation x, with equality at x = y.
    """
    cuts = prefs[None, :, :] >= np.atleast_2d(points)[:, None, :]
    rhs = np.where(cuts, 0.0, prefs).sum(axis=2)
    return cuts.reshape(-1, prefs.shape[1]), rhs.ravel()


def _cut_keys(cuts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per cut row, so equal cuts compare equal."""
    raw = np.hstack([np.packbits(cuts, axis=1), np.ascontiguousarray(rhs)[:, None].view(np.uint8)])
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
