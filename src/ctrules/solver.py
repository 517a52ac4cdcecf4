"""Rule solvers: concave-utility aggregation, utilitarian and egalitarian
references, and the first-order optimality certificate.

The aggregation objective sum_i f(satisfaction_i(x)) is concave but only
piecewise smooth: its kinks sit where some share x_j equals some ideal
x^i_j, and optima frequently land exactly on those kinks.  The solver runs
one exchange polish.  A cold solve starts it from the mean of the agents'
ideals, which on single-minded profiles is the proportional allocation the
Nash rule selects; a warm start (``solve_ctr(..., start=x)``, such as the
previous rung of a lambda ladder) starts it from x.  Each step shifts mass
from the alternative with the smallest weak marginal contribution to the
one with the largest strict marginal contribution, using an exact concave
line search whose steps land bit-exactly on kink values (or on zero): it
gallops over the kinks along the exchange in sorted order (indices 0, 1, 3,
7, ..., then a bisection inside the last doubling; Bentley and Yao 1976) for
the sign change of the one-sided derivative, which usually comes within the
first few kinks.  So it sorts only the smallest few kinks and probes only
the agents whose satisfaction can change that far, and sorts every kink
only when its gallop passes them; its probes and landings are those of a
search over every kink and agent, bit for bit.  Between kinks the support
pattern is fixed, and a safeguarded Newton iteration finds the smooth stop.

Pair steps are first order, so on a smooth face they zigzag between pairs.
After two smooth stops in a row, when the pair lies on the free face F =
{j : x_j > 0, no agent tied at x_j}, the polish takes a projected Newton
step instead (Bertsekas 1982): on F the satisfactions are affine in x_F,
so the objective's gradient and Hessian there are f'(pi) and f''(pi)
carried through the supporters, and the Newton direction solves the system
reduced to sum(d) = 0, on its range when singular (columns whose
supporters add up alike leave flat exchanges).  Its exact line search
lands on the first kink or zero along the direction, snapped to that
value, or stops smoothly with the pair search's safeguarded Newton
iteration.  A step with no predicted gain above rounding, or that moves
x only at the rounding level, is left to the pair search.

The polish works on the profile's column-major prefs over all m columns
(an alternative no agent supports has no strict marginal contribution, so
it never gains mass).  It builds the support masks and the elementwise
minima min(ideal_ij, x_j), whose row sums are the satisfactions, once;
after each step it recomputes only the columns the step moved.  A step
that returns the polish to a state it held within the last few steps ends
it: the step is a function of x and of the count of smooth stops before
it, so such a polish would cycle without ever certifying.

The polish stops when the marginal-rate-of-substitution gap

    max_{j: x_j < 1} mc_up_j  -  min_{k: x_k > 0} mc_down_k

drops to _TOL = 1e-7; a nonpositive gap certifies global optimality of
the concave program, so the certificate relies neither on smoothness nor
on where the polish started.  The report carries the satisfactions and the gap
of the point the polish stopped at, which equal ``overlap`` and ``mrs_gap``
there bit for bit, so no solve computes its certificate twice.  Every
solver reports converged as gap <= _TOL, one constant no caller can set.

The paper's first-order quantities live here, computed one way: the
marginal contributions mc_up / mc_down are the agent weights times the
strict/weak support masks, a product ``_exchange_terms`` (the certificate)
and ``marginal_contribution`` both take, and ``directional_derivative``
reads the same masks.  Every LP, the maxmin cut LP below and the
efficiency check's Pareto LP, is a HiGHS model built by one class, ``_LP``.

The utilitarian reference is exact in one pass: total satisfaction is
separable across alternatives, each term concave and piecewise linear, so
water-filling its segments in order of decreasing slope solves it.  Its
report carries the MRS gap under unit agent weights (marginal contributions
become supporter counts) as the certificate, and ``iterations`` is 0.  The
egalitarian maxmin reference is solved exactly by Kelley's cutting-plane
method (Kelley 1960): each overlap is the minimum of affine pieces, so a
linear program over the allocation and the level t alone, with one cut
t <= piece per collected piece, relaxes the maxmin problem.  The LP starts
from the pieces of the 2(m + 1) worst-off agents at two points (at most
m + 1 rows are tight at an LP vertex), and each round adds the piece active
at the LP's allocation for every agent below the LP value.  The cut LP is
one HiGHS model for the whole solve, so each round's dual simplex restarts
from the previous optimal basis.  The LP value minus the achieved minimum
satisfaction is a true optimality gap, reported as ``mrs_gap``;
``iterations`` sums the HiGHS simplex iterations over the rounds.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
# The HiGHS binding that scipy.optimize.linprog(method="highs") itself builds
# its solver from; _LP is the one place that constructs a model from it.
from scipy.optimize._highspy import _core as highs

from .core import (
    EQUALITY_TOL,
    Allocation,
    Profile,
    SatisfactionVector,
    UtilityFunction,
    check_agent,
    check_allocation,
    overlap,
    support_masks,
)

_STALL_WINDOW = 300
# The certificate every solve is held to: converged means the MRS gap of a
# rule solve, or the cut-LP bound minus the achieved minimum of the maxmin
# reference, is at most this.
_TOL = 1e-7
# The cap on the polish steps of a rule solve and on the cutting-plane
# rounds of the maxmin reference.
_MAX_ITERS = 200_000
# The exchange line search sorts this many of the smallest kink steps first.
# Its landing is usually among the first few, which the gallop reaches in a
# few probes; it sorts every kink only when its gallop would pass these.
_KINK_PREFIX = 32
# The Newton step drops the eigenvalues of its unit-diagonal reduced system
# below this fraction of the largest: their directions are the face's flat
# exchanges, along which no satisfaction moves.
_SINGULAR = 1e-12
# The polish stops on a state (x, smooth-stop count) that it reached within
# this many steps before.
_CYCLE = 8


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
    prefs, shares = profile.prefs, check_allocation(profile, x)
    up, down = support_masks(prefs, shares)
    return float((f.deriv(overlap(prefs, shares)) @ (up if direction == "up" else down))[j])


def directional_derivative(profile: Profile, x: Allocation, y: Allocation, i: int) -> float:
    """One-sided derivative of agent i's satisfaction at x toward y.

    Always at least the actual satisfaction gain pi_i(y) - pi_i(x): gains
    are counted in full on strictly supported growing alternatives while
    losses are only counted on weakly supported shrinking ones.
    """
    shares = check_allocation(profile, x)
    up, down = support_masks(profile.prefs[check_agent(profile, i)], shares)
    move = check_allocation(profile, y) - shares
    return float(move @ np.where(move > 0, up, down))


def mrs_gap(profile: Profile, x: Allocation, f: UtilityFunction) -> float:
    """First-order optimality residual of x for the f-aggregation objective.

    Nonpositive certifies a global maximum: no strict marginal contribution
    of a growable alternative exceeds any weak marginal contribution of a
    shrinkable one.  The solvers count a gap of at most _TOL as certified.
    """
    prefs, shares = profile.prefs, check_allocation(profile, x)
    return _exchange_terms(shares, f.deriv(overlap(prefs, shares)), *support_masks(prefs, shares))[0]


# ---------------------------------------------------------------------------
# First-order engine
# ---------------------------------------------------------------------------


def _exchange_terms(x: np.ndarray, weights: np.ndarray, up: np.ndarray, down: np.ndarray):
    """The MRS gap at x with its exchange pair, under the agent weights
    ``weights`` (f'(pi) for a rule, ones for the utilitarian reference).

    (up, down) are the support masks at x, bool or 0/1 floats.  The strict
    and weak marginal contributions are mc_up = weights @ up and mc_down =
    weights @ down: mc_up[j] sums the weights of the agents whose
    satisfaction grows with x_j, mc_down[j] of those whose satisfaction
    shrinks with it.  Returns (gap, j, k): j is the growable alternative
    with the largest strict marginal contribution, k the shrinkable one
    with the smallest weak marginal contribution.
    """
    mc_up = np.where(x < 1.0, weights @ up, -np.inf)
    mc_down = np.where(x > 0.0, weights @ down, np.inf)
    j = int(np.argmax(mc_up))
    k = int(np.argmin(mc_down))
    return float(mc_up[j] - mc_down[k]), j, k


def _line_search(prefs: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, j: int, k: int):
    """Maximize the objective along x + d (e_j - e_k) for d in [0, dmax].

    Returns (d, landing) where landing records an exact stopping value:
    ("zero", None) when the donor empties, ("j", v) / ("k", v) when a share
    lands on a preference kink v, or (None, None) for a smooth interior
    stop.  Exact landings let the MRS certificate see ties exactly.

    The kink search sorts only the _KINK_PREFIX smallest kink steps, and
    probes only the agents whose satisfaction can move up to the last of
    them; it sorts every kink, and probes every agent, only once its gallop
    would pass that prefix.  Both give the probes and the landing of a
    search over every kink and agent bit for bit.  The probe at dmax for a
    zero landing is made only when no kink qualifies or the qualifying
    kink's right derivative is exactly 0: by concavity any other qualifying
    kink has a negative left derivative at dmax.
    """
    cj = prefs[:, j]
    ck = prefs[:, k]
    xj = float(x[j])
    xk = float(x[k])
    dmax = xk
    base_j = np.minimum(cj, xj)
    base_k = np.minimum(ck, xk)

    def derivative_over(rows):
        """The one-sided derivative along the exchange, summed over rows;
        exact for every d at which no other agent is in either sum."""
        cj_r, ck_r, pi_r, base_j_r, base_k_r = cj[rows], ck[rows], pi[rows], base_j[rows], base_k[rows]

        def deriv(d: float, right: bool) -> float:
            p = pi_r + (np.minimum(cj_r, xj + d) - base_j_r) + (np.minimum(ck_r, xk - d) - base_k_r)
            fp = f.deriv(p)
            if right:
                up = cj_r > xj + d + EQUALITY_TOL
                dn = ck_r >= xk - d - EQUALITY_TOL
            else:
                up = cj_r >= xj + d - EQUALITY_TOL
                dn = ck_r > xk - d + EQUALITY_TOL
            return float(fp[up].sum() - fp[dn].sum())

        return deriv

    full_deriv = derivative_over(slice(None))

    # membership-change breakpoints strictly inside (0, dmax), the j side
    # first; the stable sort keeps j before k on equal steps.  Breakpoints
    # within EQUALITY_TOL of the last one kept are one kink: keep the first
    # of each such chain (a Python pass, run only when some gap is that
    # small).  Merging a prefix of the sorted steps keeps what merging all
    # of them keeps within it.
    vj = cj[(cj > xj + EQUALITY_TOL) & (cj - xj < dmax - EQUALITY_TOL)]
    vk = ck[(ck < xk - EQUALITY_TOL) & (xk - ck < dmax - EQUALITY_TOL)]
    all_steps = np.concatenate((vj - xj, xk - vk))

    def merged_kinks(order):
        steps = all_steps[order]
        if len(steps) > 1 and np.diff(steps).min() <= EQUALITY_TOL:
            keep = [0]
            for i in range(1, len(steps)):
                if steps[i] - steps[keep[-1]] > EQUALITY_TOL:
                    keep.append(i)
            order, steps = order[keep], steps[keep]
        return order, steps

    # the prefix is every step up to the _KINK_PREFIX-th smallest, ties
    # included, in index order before the stable sort, so it is exactly the
    # head of the full stable order.  At any d in [0, reach] only agents
    # with cj >= xj - EQUALITY_TOL or ck >= xk - reach - EQUALITY_TOL can
    # pass either comparison of the derivative (float rounding is monotone,
    # so this holds as evaluated), and the others drop out of both sums.
    complete = len(all_steps) <= _KINK_PREFIX
    if complete:
        order, steps = merged_kinks(np.argsort(all_steps, kind="stable"))
        deriv = full_deriv
    else:
        reach = np.partition(all_steps, _KINK_PREFIX - 1)[_KINK_PREFIX - 1]
        head = np.flatnonzero(all_steps <= reach)
        order, steps = merged_kinks(head[np.argsort(all_steps[head], kind="stable")])
        deriv = derivative_over(np.flatnonzero((cj >= xj - EQUALITY_TOL) | (ck >= xk - reach - EQUALITY_TOL)))

    # first breakpoint where the right derivative is no longer positive.  It
    # is usually among the first few, so gallop over indices 0, 1, 3, 7, ...
    # (capped at the last) until one qualifies, then bisect inside the last
    # doubling; both phases keep lo_d at the last breakpoint found positive.
    # A gallop that would pass the prefix goes on over every kink and agent
    lo_d, hit, hit_slope = 0.0, None, 0.0
    lo_i, hi_i = 0, len(steps) - 1
    mid, galloping = 0, True
    while lo_i <= hi_i:
        slope = deriv(float(steps[mid]), right=True)
        if slope <= 0.0:
            hit, hit_slope, hi_i = mid, slope, mid - 1
            galloping = False
        else:
            lo_d, lo_i = float(steps[mid]), mid + 1
        if galloping and not complete and 2 * mid + 1 > hi_i:
            order, steps = merged_kinks(np.argsort(all_steps, kind="stable"))
            hi_i, complete, deriv = len(steps) - 1, True, full_deriv
        mid = min(2 * mid + 1, hi_i) if galloping else (lo_i + hi_i) // 2

    if (hit is None or hit_slope == 0.0) and full_deriv(dmax, right=False) >= 0.0:
        return dmax, ("zero", None)
    if hit is not None:
        b, o = float(steps[hit]), int(order[hit])
        if deriv(b, right=False) >= 0.0:
            return b, (("j", float(vj[o])) if o < len(vj) else ("k", float(vk[o - len(vj)])))
        hi_d = b
    else:
        hi_d = dmax

    # smooth sign change inside (lo_d, hi_d).  No breakpoint lies inside, so
    # the support pattern a_i = [cj_i > xj + d] - [ck_i > xk - d] is fixed
    # there; only the agents with a_i != 0 move.  A step below one ulp of
    # xj + xk no longer changes the moved shares.
    centre = 0.5 * (lo_d + hi_d)
    a = (cj > xj + centre).astype(float) - (ck > xk - centre)
    act = np.flatnonzero(a)
    a, cj, ck, pi, base_j, base_k = a[act], cj[act], ck[act], pi[act], base_j[act], base_k[act]

    def sats(d: float) -> np.ndarray:
        return pi + (np.minimum(cj, xj + d) - base_j) + (np.minimum(ck, xk - d) - base_k)

    return _smooth_stop(f, sats, a, lo_d, hi_d, math.ulp(xj + xk)), (None, None)


def _smooth_stop(f: UtilityFunction, sats, rate: np.ndarray, lo: float, hi: float, ulps: float) -> float:
    """The root of phi'(t) = f'(sats(t)) @ rate inside (lo, hi), where the
    satisfactions sats(t) move at the fixed rates ``rate`` (no kink lies
    inside), phi'(lo) > 0 and phi'(hi) <= 0.

    phi''(t) = f''(sats(t)) @ rate^2.  Newton steps from lo keep the sign
    bracket [lo, hi] and fall back to bisection when a step leaves it or
    phi'' is not negative; a step of at most ulps ends the search.  Both
    line searches stop this way: a pair exchange, whose rates are +-1 (so
    rate^2 is exactly 1), and a Newton direction.
    """
    square = rate * rate
    t = lo
    for _ in range(80):
        p = sats(t)
        slope = float(f.deriv(p) @ rate)
        curve = float((f.second(p) * square).sum())
        if slope > 0.0:
            lo = t
        else:
            hi = t
        nxt = t - slope / curve if math.isfinite(curve) and curve < 0.0 else math.nan
        if abs(nxt - t) <= ulps:
            return min(max(nxt, lo), hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= ulps:
                return nxt
        t = nxt
    return t


def _newton_direction(f: UtilityFunction, pi: np.ndarray, supp: np.ndarray) -> np.ndarray | None:
    """The Newton direction d, with sum(d) = 0 and max |d_j| = 1, on a face
    whose satisfactions move at the rates supp @ d; None when its predicted
    gain is not above rounding.

    supp holds the strict supporters (0/1 floats) of the face's columns.
    On the face the objective has the gradient g = f'(pi) @ supp and the
    Hessian -Q, Q = supp^T diag(-f''(pi)) supp.  With d = (z, -sum z),
    eliminating the column r whose supporters carry the least curvature, z
    solves (Z^T Q Z) z = Z^T g, where the columns of supp Z are supp_a -
    supp_r.  The reduced system is solved on its range: scaled to a unit
    diagonal, its eigenvalues below _SINGULAR of the largest are dropped.
    Their directions (two columns with the same supporters, or supporter
    sets that add up alike) move no satisfaction, so the objective is flat
    along them; a face with no other direction has none.  The predicted
    gain g @ d must exceed n eps sum_j |g_j d_j|, about the rounding of g.
    """
    weight = -f.second(pi)
    r = int(np.argmin(weight @ supp))
    cols = np.arange(supp.shape[1]) != r
    reduced = supp[:, cols] - supp[:, [r]]
    system = reduced.T @ (reduced * weight[:, None])
    diag = np.diag(system)
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0.0)
    vals, vecs = np.linalg.eigh(system * scale[:, None] * scale)
    if not vals[-1] > 0.0:
        return None
    kept = vals > _SINGULAR * vals[-1]
    vals, vecs = vals[kept], vecs[:, kept]
    grad = f.deriv(pi) @ supp
    z = vecs @ (((grad[cols] - grad[r]) * scale) @ vecs / vals) * scale
    d = np.empty(supp.shape[1])
    d[cols] = z
    d[r] = -z.sum()
    if not grad @ d > len(pi) * np.finfo(float).eps * (np.abs(grad) @ np.abs(d)):
        return None
    return d / np.abs(d).max()


def _ray_search(prefs: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, supp: np.ndarray, d: np.ndarray):
    """Maximize the objective along x + t d for t from 0 to the first kink.

    prefs, x and d hold the face's columns (max |d_j| = 1), supp their
    strict supporters (0/1 floats), and no agent is tied with any x_j.  Up
    to the first kink the satisfactions are pi + t (supp @ d).  The first
    kink is the nearest value, over the columns, that x_j reaches moving
    along d_j: the smallest ideal share above x_j when it grows, the
    largest below x_j (or zero) when it shrinks.  Returns (t, c, v): when
    the objective still rises into the first kink, t is its step and column
    c lands on v (an ideal share, or zero); otherwise t is the smooth stop
    before it, and c and v are None.
    """
    rate = supp @ d
    above = np.where(supp > 0.0, prefs, np.inf).min(axis=0)
    below = np.maximum(np.where(supp > 0.0, -np.inf, prefs).max(axis=0), 0.0)
    target = np.where(d > 0.0, above, below)
    steps = np.divide(target - x, d, out=np.full_like(d, np.inf), where=d != 0.0)
    c = int(np.argmin(steps))
    end = float(steps[c])
    act = np.flatnonzero(rate)
    rate, pi = rate[act], pi[act]
    if float(f.deriv(pi + end * rate) @ rate) >= 0.0:
        return end, c, float(target[c])

    def sats(t: float) -> np.ndarray:
        return pi + t * rate

    return _smooth_stop(f, sats, rate, 0.0, end, math.ulp(x.sum())), None, None


def _newton_step(prefs: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, up: np.ndarray, down: np.ndarray, j: int, k: int):
    """A Newton step on the free face of x: (the point it reaches, whether
    it stopped smoothly), or None when it is not taken.

    The free face is F = {j : x_j > 0, no agent tied at x_j}; near x the
    satisfactions are affine in x_F.  The step is taken only when the MRS
    pair (j, k) lies in F: otherwise the gap is held by a column at zero or
    on a kink, which only a pair step moves (at the optimum of its face the
    pairs inside F have no gap).  It searches along ``_newton_direction``
    with ``_ray_search``, and a landing column takes its kink or zero value
    exactly.  The largest other share of F then takes what keeps sum(x_F)
    unchanged, so the step changes the sum of x only by rounding, as a pair
    step does.  A smooth stop no farther than one ulp of sum(x_F), the
    resolution of its search, and a step that leaves x unchanged are not
    taken: at the rounding floor such steps would only shuffle last bits.
    """
    free = (x > 0.0) & (up.sum(axis=0) == down.sum(axis=0))
    if not (free[j] and free[k]):
        return None
    free = np.flatnonzero(free)
    supp = up[:, free]
    d = _newton_direction(f, pi, supp)
    if d is None:
        return None
    old = x[free]
    t, c, v = _ray_search(prefs[:, free], old, pi, f, supp, d)
    # a smooth stop within the search's resolution of 0 is rounding noise
    if not (t > 0.0 if c is not None else t > math.ulp(old.sum())):
        return None
    new = np.maximum(old + t * d, 0.0)
    if c is not None:
        new[c] = v
    b = int(np.argmax(np.where(np.arange(len(free)) == c, -np.inf, new)))
    new[b] = 0.0
    new[b] = max(old.sum() - new.sum(), 0.0)
    moved = x.copy()
    moved[free] = new
    if np.array_equal(moved, x):
        return None
    return moved, c is None


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


def _ascend(prefs: np.ndarray, f: UtilityFunction, x: np.ndarray):
    """Exchange polish of a profile's prefs from x, any point of the
    simplex, until the MRS certificate passes.

    Each step is a pair step along the MRS pair (j, k), or a Newton step
    (``_newton_step``) when the last two steps stopped smoothly; a Newton
    step that is not taken leaves the step to the pair search.  The support
    masks are built once, as 0/1 floats (a bool mask would be cast on every
    product with f'), and so are the minima min(prefs, x), in the profile's
    column-major layout; after each step only the columns it moved (j and
    k, or the free columns a Newton step moved) are recomputed, with the
    comparisons of ``support_masks``.  The satisfactions are the row sums
    of the minima, which equal ``overlap`` bit for bit at a fraction of its
    cost (a running update of them would drift by rounding), so the gap
    equals ``mrs_gap`` at the same point.  The polish also ends,
    uncertified, when a step returns it to a state (x, smooth-stop count)
    it held within the last _CYCLE steps (the step is a function of that
    state, so the polish would repeat forever), when its gap stalls, when
    the line search makes no move, and after _MAX_ITERS steps.  A step
    changes the sum of x only by rounding.

    Returns (x, pi, gap, iterations): the point the polish stopped at, its
    satisfactions and MRS gap, and the number of polish steps.
    """
    up, down = (mask.astype(float) for mask in support_masks(prefs, x))
    mins = np.minimum(prefs, x)
    smooth = 0
    recent = collections.deque([(x.tobytes(), smooth)], maxlen=_CYCLE)
    iters = 0
    repeated = False
    stall = 0
    best_gap = np.inf
    while True:
        pi = mins.sum(axis=1)
        gap, j, k = _exchange_terms(x, f.deriv(pi), up, down)
        if gap <= _TOL or repeated or iters >= _MAX_ITERS:
            return x, pi, gap, iters
        if gap < best_gap - 1e-14:
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall > _STALL_WINDOW:
                return x, pi, gap, iters
        step = _newton_step(prefs, x, pi, f, up, down, j, k) if smooth == 2 else None
        if step is None:
            d, landing = _line_search(prefs, x, pi, f, j, k)
            if d <= 0.0:
                return x, pi, gap, iters
            step = _apply_move(x, j, k, d, landing), landing[0] is None
        moved, smoothly = step
        after = min(smooth + 1, 2) if smoothly else 0
        iters += 1
        state = (moved.tobytes(), after)
        repeated = state in recent
        recent.append(state)
        before, x, smooth = x, moved, after
        for c in np.flatnonzero(x != before).tolist():
            mins[:, c] = np.minimum(prefs[:, c], x[c])
            col = prefs[:, c] - x[c]
            up[:, c] = col > EQUALITY_TOL
            down[:, c] = col >= -EQUALITY_TOL


def _on_simplex(x: np.ndarray) -> np.ndarray:
    """x divided by its sum, unless that sum is already 1 within 1e-9: a
    point on the simplex (such as a solve's own optimum) is kept bit for bit."""
    s = x.sum()
    return x / s if abs(s - 1.0) > 1e-9 else x


def _report(x: np.ndarray, pi: np.ndarray, objective: float, gap: float, iterations: int) -> SolveReport:
    """The report of a solve that stopped at x, where the satisfactions are
    pi and the certificate is gap; converged means gap <= _TOL."""
    return SolveReport(
        allocation=Allocation(x),
        satisfactions=SatisfactionVector(pi),
        objective=float(objective),
        mrs_gap=gap,
        iterations=iterations,
        converged=bool(gap <= _TOL),
    )


def solve_ctr(profile: Profile, f: UtilityFunction, *, start: Allocation | None = None) -> SolveReport:
    """Maximize sum_i f(satisfaction_i) over the simplex.

    Requires a strictly concave utility; the identity baseline is rejected
    (use solve_utilitarian).  The objective is concave, so one ascent
    suffices: converged is True exactly when the MRS gap the polish stopped
    on is at most _TOL, which certifies a global optimum wherever it
    started.  The report's mrs_gap and satisfactions are those of the
    polish's last point, equal bit for bit to ``mrs_gap`` and ``overlap``
    at the reported allocation.

    Without start the polish is cold: it starts from the mean of the agents'
    ideals (on single-minded profiles, the proportional allocation; on a
    profile that supports one alternative only, that alternative's vertex).
    With start (an allocation over the profile's m alternatives, such as
    the optimum of a nearby rule) it starts from start restricted to the
    supported alternatives and renormalised; a start with no mass on any
    supported alternative falls back to the cold start.  A start that sums
    to 1 within 1e-9 is not renormalised, so a certified optimum given as
    its own start comes back bit for bit.  iterations counts polish steps.
    """
    if start is not None:
        check_allocation(profile, start)
    if not f.strictly_concave:
        raise ValueError("solve_ctr needs a strictly concave utility; use solve_utilitarian")
    prefs = profile.prefs

    # polish from the start's mass on the supported columns, or from the mean
    # ideal; the certificate does not depend on where the polish began
    x0 = np.where(prefs.max(axis=0) > 0.0, np.maximum(start.shares, 0.0), 0.0) if start is not None else None
    if x0 is None or not x0.sum() > 0.0:
        x0 = np.maximum(prefs.mean(axis=0), 0.0)
    x, pi, gap, iters = _ascend(prefs, f, _on_simplex(x0))
    return _report(x, pi, f.value(pi).sum(), gap, iters)


def solve_utilitarian(profile: Profile) -> SolveReport:
    """Maximize total satisfaction by water-filling.

    Total satisfaction is separable: sum_j g_j(x_j) with g_j(v) = sum_i
    min(ideal_ij, v), concave and piecewise linear, of slope the number of
    agents whose ideal share of j exceeds v.  Sorting each column gives
    every segment of every g_j; filling them in order of decreasing slope
    (equal slopes in increasing column order) until the budget of 1 is spent
    is optimal.  Every filled column's share is its last kink value exactly,
    and the one partial column gets the remainder.  The report carries the
    MRS gap under unit agent weights, which is ``mrs_gap`` under the identity
    utility (supporter counts, so an exact integer comparison), as its
    certificate, held to _TOL; iterations is 0.
    """
    prefs = profile.prefs
    n, m = prefs.shape
    # row r >= 1 of the zero row over the ascending sort ends, in every
    # column, the segment of slope n + 1 - r, so the row-major order of the
    # segment lengths is the fill order; a column with c filled segments
    # stands at its kink in row c.  Rows sum to 1 only within 1e-9, so the
    # segments may end short of the budget; the last one then takes the rest
    kinks = np.vstack([np.zeros(m), np.sort(np.maximum(prefs, 0.0), axis=0)])
    lengths = np.diff(kinks, axis=0).ravel()
    last = min(int(np.searchsorted(np.cumsum(lengths), 1.0)), n * m - 1)
    filled = last // m + (np.arange(m) < last % m)
    x = kinks[filled, np.arange(m)]
    partial = last % m
    x[partial] = max(1.0 - np.delete(x, partial).sum(), 0.0)
    pi = overlap(prefs, x)
    gap = _exchange_terms(x, np.ones(n), *support_masks(prefs, x))[0]
    return _report(x, pi, pi.sum(), gap, 0)


def solve_egalitarian(profile: Profile) -> SolveReport:
    """Maximize the minimum satisfaction exactly, by Kelley's cutting planes.

    Each overlap is the minimum of the affine pieces sum_{j in S} x_j +
    sum_{j not in S} ideal_ij, so max_x min_i overlap_i(x) is an LP over
    (x, t) once every piece is a cut t <= piece.  The loop keeps a subset of
    the pieces, seeded with the pieces of the 2(m + 1) agents with the
    smallest overlaps at the uniform allocation and at the mean ideal (at
    most m + 1 rows are tight at an LP vertex).  Each round solves the cut
    LP, recomputes the overlaps at its allocation, and adds the piece active
    there for every agent below the LP value.  The cut LP is one HiGHS
    model for the whole solve: a round adds only its fresh cuts, and the
    dual simplex restarts from the previous round's optimal basis.

    The cut LP relaxes the maxmin problem, so its value minus the minimum
    satisfaction of the best allocation found is a true optimality gap,
    reported as mrs_gap; converged means that gap is at most _TOL.
    iterations sums the HiGHS simplex iterations over the rounds.  The loop
    also ends, unconverged, at _MAX_ITERS rounds, when a round adds no new
    cut, or when an LP fails.  A failed LP keeps the best allocation so far
    (the uniform one if the first LP fails) and the last LP bound (1 before
    any), so the reported gap stays a true gap.
    """
    prefs = profile.prefs
    m = profile.m

    uniform = np.full(m, 1.0 / m)
    mean = prefs.mean(axis=0)
    best_x, best_pi = uniform, overlap(prefs, uniform)
    seeds = []
    for y, pi in ((uniform, best_pi), (mean, overlap(prefs, mean))):
        worst = np.argsort(pi, kind="stable")[: 2 * (m + 1)]
        seeds.append(_overlap_cuts(prefs[worst], y))
    cuts, rhs = (np.concatenate(parts) for parts in zip(*seeds))
    keys, first = np.unique(_cut_keys(cuts, rhs), return_index=True)
    # minimize -t over the columns x_0..x_{m-1}, t with 0 <= x_j <= col_max_j
    # (no agent gains from x_j above its column's largest ideal share) and
    # 0 <= t <= 1, subject to sum_j x_j = 1 and the cuts t - x[S] <= rhs
    lp = _LP(np.append(np.zeros(m), -1.0), np.zeros(m + 1), np.append(prefs.max(axis=0), 1.0))
    lp.add_rows(np.ones(1), np.ones(1), np.zeros(1), np.arange(m), np.ones(m))
    lp.add_rows(np.full(len(first), -highs.kHighsInf), rhs[first], *_cut_rows(cuts[first]))

    upper = 1.0  # no overlap exceeds 1
    iterations = 0
    for _ in range(_MAX_ITERS):
        nit, value, cols = lp.solve()
        iterations += nit
        if value is None:
            break
        t = -value
        upper = min(upper, t)
        x = np.maximum(cols[:m], 0.0)
        x /= x.sum()
        pi = overlap(prefs, x)
        if pi.min() > best_pi.min():
            best_x, best_pi = x, pi
        if upper - best_pi.min() <= _TOL:
            break
        new_cuts, new_rhs = _overlap_cuts(prefs[pi < t], x)
        new_keys, first = np.unique(_cut_keys(new_cuts, new_rhs), return_index=True)
        fresh = ~np.isin(new_keys, keys)
        if not fresh.any():
            break
        keys = np.concatenate([keys, new_keys[fresh]])
        first = first[fresh]
        lp.add_rows(np.full(len(first), -highs.kHighsInf), new_rhs[first], *_cut_rows(new_cuts[first]))

    worst = float(best_pi.min())
    return _report(best_x, best_pi, worst, upper - worst, iterations)


class _LP:
    """One HiGHS model: minimize cost . v over lower <= v <= upper and the
    rows added so far.

    Rows come in compressed form, as HiGHS takes them.  Presolve is off: on
    these small LPs it costs more than it saves.  Rows added to a solved
    model, and new costs, keep its basis, so the next solve restarts the
    simplex from the previous optimum.
    """

    def __init__(self, cost: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.model = highs._Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.setOptionValue("presolve", "off")
        no_entries = np.zeros(0, dtype=np.int32)
        self.model.addCols(len(cost), cost, lower, upper, 0, no_entries, no_entries, np.zeros(0))

    def add_rows(self, lower, upper, starts: np.ndarray, index: np.ndarray, value: np.ndarray) -> None:
        """Add the rows lower_r <= sum_k value_k v[index_k] <= upper_r, where
        row r's entries k run from starts[r] to the next row's start."""
        self.model.addRows(len(lower), lower, upper, len(index), starts.astype(np.int32), index.astype(np.int32), value)

    def set_cost(self, cost: np.ndarray) -> None:
        self.model.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)

    def solve(self):
        """(simplex iterations, objective, column values), with objective
        and column values None when the LP does not solve to optimality."""
        status = self.model.run()
        nit = int(self.model.getInfoValue("simplex_iteration_count")[1])
        if status == highs.HighsStatus.kError or self.model.getModelStatus() != highs.HighsModelStatus.kOptimal:
            return nit, None, None
        return nit, self.model.getObjectiveValue(), np.array(self.model.getSolution().col_value)


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


def _cut_rows(cuts: np.ndarray):
    """The cuts t - x[S] as compressed rows (starts, index, value): each
    row's mask columns with -1, then the level t (column m) with +1."""
    k, m = cuts.shape
    rows, cols = np.nonzero(np.hstack([cuts, np.ones((k, 1), dtype=bool)]))
    return np.searchsorted(rows, np.arange(k)), cols, np.where(cols == m, 1.0, -1.0)


def _cut_keys(cuts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per cut row, so equal cuts compare equal."""
    raw = np.hstack([np.packbits(cuts, axis=1), np.ascontiguousarray(rhs)[:, None].view(np.uint8)])
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
