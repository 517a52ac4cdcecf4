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
first few kinks.  So it merges only the smallest few kinks and probes only
the agents whose satisfaction can change that far, and merges every kink
only when its gallop passes them.  A probe evaluates f' once at its step,
and each one-sided derivative there is a product of f' with the support
masks, so the left derivative at the landing kink reuses the right
probe's f'.  Its derivatives differ from those of a probe over every
agent only by rounding, so the search lands where a search over every kink
and agent lands unless a probed derivative lies within that rounding of
zero.
Between kinks the support pattern is fixed, and a safeguarded Newton
iteration finds the smooth stop.

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
it never gains mass).  It sorts each column once and finds the line
search's kinks and the ideal shares next to each free share by binary
search in that sorted copy.  It carries the strict support mask, the
agents tied at each positive share and the elementwise minima
min(ideal_ij, x_j), whose row sums are the satisfactions.  After each step
it recomputes only the columns the step moved, the mask and the ties with
the comparison ``mrs_gap`` makes for every column.  A step that returns
the polish to a state it held within the last few steps ends it: the step
is a function of x and of the count of smooth stops before it, so such a
polish would cycle without ever certifying.

The polish stops when the marginal-rate-of-substitution gap

    max_{j: x_j < 1} mc_up_j  -  min_{k: x_k > 0} mc_down_k

drops to _TOL = 1e-7; a nonpositive gap certifies global optimality of
the concave program, so the certificate relies neither on smoothness nor
on where the polish started.  The report carries the satisfactions and the gap
of the point the polish stopped at, which equal ``overlap`` and ``mrs_gap``
there bit for bit, so no solve computes its certificate twice.  Every
solver reports converged as gap <= _TOL, one constant no caller can set.

The paper's first-order quantities live here, computed one way: the strict
marginal contribution mc_up is the agent weights times the strict support
mask, and the weak one mc_down adds the weights of the agents tied at the
share (the weak and strict masks differ exactly there), summed by
``_marginals``, which the polish, ``mrs_gap``, ``marginal_contribution``
and the utilitarian certificate all call; ``directional_derivative`` reads
the support masks themselves.  Every LP, the maxmin cut LP below and the
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
at the LP's allocation for every agent below the LP value.  The loop
solves the cut LP as its dual, column generation (Dantzig and Wolfe 1960):
the dual has one row per alternative and one for t, so its basis stays
(m + 1) x (m + 1) however many cuts it collects, and each cut is one
column.  It is one HiGHS model for the whole solve; columns added to it
keep the previous optimal basis primal feasible, so each round's primal
simplex restarts from there.  The dual's value is the LP bound t and its
row duals are the allocation.  The LP value minus the achieved minimum
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
    _check_index,
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
    _check_index(j, profile.m, "alternative", "m")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    prefs, shares = profile.prefs, check_allocation(profile, x)
    mc_up, mc_down = _marginals(f.deriv(overlap(prefs, shares)), *_supporters(prefs, shares))
    return float((mc_up if direction == "up" else mc_down)[j])


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
    return _exchange_terms(shares, *_marginals(f.deriv(overlap(prefs, shares)), *_supporters(prefs, shares)))[0]


# ---------------------------------------------------------------------------
# First-order engine
# ---------------------------------------------------------------------------


def _supporters(prefs: np.ndarray, shares: np.ndarray):
    """The strict support mask at shares and the agents tied there, as
    ``_marginals`` takes them: (up, tied, bins), where agent tied[r] is
    tied at share bins[r], column by column and in agent order."""
    up, down = support_masks(prefs, shares)
    bins, tied = (down & ~up).T.nonzero()
    return up.astype(float), tied, bins


def _marginals(weights: np.ndarray, up: np.ndarray, tied: np.ndarray, bins: np.ndarray):
    """The strict and weak marginal contributions (mc_up, mc_down) under
    the agent weights ``weights`` (f'(pi) for a rule, ones for the
    utilitarian reference).

    up is the strict support mask as C-ordered 0/1 floats, and agent
    tied[r] is tied at share bins[r].  mc_up = weights @ up sums the
    weights of the agents whose satisfaction grows with x_j; mc_down adds
    to it the weights of the agents tied at x_j, whose satisfaction shrinks
    with x_j but does not grow.  One bincount sums each column's ties in
    list order, and every caller lists a column's ties together and in
    agent order, so the sums agree bit for bit whoever built the list.
    """
    mc_up = weights @ up
    return mc_up, mc_up + np.bincount(bins, weights[tied], minlength=up.shape[1])


def _exchange_terms(x: np.ndarray, mc_up: np.ndarray, mc_down: np.ndarray):
    """The MRS gap at x with its exchange pair: (gap, j, k), where j is the
    growable alternative with the largest strict marginal contribution and
    k the shrinkable one with the smallest weak marginal contribution.  It
    masks the caller's fresh mc_up and mc_down in place."""
    mc_up[x >= 1.0] = -np.inf
    mc_down[x <= 0.0] = np.inf
    j, k = int(mc_up.argmax()), int(mc_down.argmin())
    return float(mc_up[j] - mc_down[k]), j, k


def _line_search(prefs: np.ndarray, srt: np.ndarray, mins: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, j: int, k: int):
    """Maximize the objective along x + d (e_j - e_k) for d in [0, dmax].

    srt holds the profile's columns sorted, and mins the minima
    min(prefs, x) whose row sums are pi.  Returns (d, landing) where landing
    records an exact stopping value: ("zero", None) when the donor empties,
    ("j", v) / ("k", v) when a share lands on a preference kink v, or (None,
    None) for a smooth interior stop.  Exact landings let the MRS
    certificate see ties exactly.

    The kinks along the exchange are two runs of the sorted columns, each
    in the order the exchange reaches them: the ideal shares v of j with
    x_j + EQUALITY_TOL < v < x_j + dmax - EQUALITY_TOL and those of k with
    x_k - dmax + EQUALITY_TOL < v < x_k - EQUALITY_TOL.  Each end is one
    binary search for a threshold that another comparison makes in the
    same float form: the inner ends are ``support_masks``' thresholds at
    x_j and x_k, the outer ends the left derivative probe's at dmax.  The
    search merges only the first _KINK_PREFIX kinks, and probes only the
    agents whose satisfaction can move up to the last of those; it merges
    every kink, and probes every agent, only once its gallop would pass
    that prefix.  A probe at step d evaluates f' once and takes either
    one-sided derivative from it as f' times the gaining agents' mask minus
    f' times the losing agents' mask; the qualifying kink's left derivative
    reuses its right probe.  A probe of the prefix counts the agents that
    a probe of every agent counts at d, so its derivative differs from
    that one only by the rounding of the products, and the landing is
    that of a search over every kink and agent unless a probed derivative
    lies within that rounding of zero (among kinks at one step on one
    side, the first the exchange reaches lands).  The probe at dmax for a zero
    landing is made when no kink qualifies, when the qualifying kink's
    right derivative is exactly 0, or when the right probe's thresholds at
    the kink pass the left probe's at dmax (a kink within about 2
    EQUALITY_TOL of dmax); otherwise every agent counted at dmax is counted
    at the kink, and by concavity the left derivative at dmax is negative.
    """
    cj = prefs[:, j]
    ck = prefs[:, k]
    xj = float(x[j])
    xk = float(x[k])
    dmax = xk
    base_j = mins[:, j]
    base_k = mins[:, k]

    def derivatives_over(rows):
        """The probe over rows: probe(d) evaluates f' at step d and returns
        slope(right), the right (True) or left (False) derivative along the
        exchange, f' times the mask of the agents gaining at d minus f'
        times the mask of those losing.  It counts the agents a probe over
        every row counts at each d at which no other agent is in either
        mask."""
        cj_r, ck_r, pi_r, base_j_r, base_k_r = cj[rows], ck[rows], pi[rows], base_j[rows], base_k[rows]

        def probe(d: float):
            fp = f.deriv(pi_r + (np.minimum(cj_r, xj + d) - base_j_r) + (np.minimum(ck_r, xk - d) - base_k_r))

            def slope(right: bool) -> float:
                if right:
                    up = cj_r > xj + d + EQUALITY_TOL
                    dn = ck_r >= xk - d - EQUALITY_TOL
                else:
                    up = cj_r >= xj + d - EQUALITY_TOL
                    dn = ck_r > xk - d + EQUALITY_TOL
                return float(fp @ up - fp @ dn)

            return slope

        return probe

    full_probe = derivatives_over(slice(None))

    # membership-change breakpoints inside (0, dmax): the j run ascending,
    # then the k run descending, so both runs of steps ascend; the stable
    # merge keeps j before k on equal steps.  Breakpoints within
    # EQUALITY_TOL of the last one kept are one kink: keep the first of each
    # such chain (a Python pass, run only when some gap is that small).
    # Merging a prefix of the sorted steps keeps what merging all of them
    # keeps within it.
    sj, sk = srt[:, j], srt[:, k]
    vj = sj[sj.searchsorted(xj + EQUALITY_TOL, "right") : sj.searchsorted(xj + dmax - EQUALITY_TOL)]
    vk = sk[sk.searchsorted(xk - dmax + EQUALITY_TOL, "right") : sk.searchsorted(xk - EQUALITY_TOL)][::-1]
    all_steps = np.concatenate((vj - xj, xk - vk))

    def merged_kinks(order):
        steps = all_steps[order]
        if len(steps) > 1 and (steps[1:] - steps[:-1]).min() <= EQUALITY_TOL:
            keep = [0]
            for i in range(1, len(steps)):
                if steps[i] - steps[keep[-1]] > EQUALITY_TOL:
                    keep.append(i)
            order, steps = order[keep], steps[keep]
        return order, steps

    # the prefix is the first _KINK_PREFIX steps of the merge, which lie
    # within the first _KINK_PREFIX of each run.  At any d in [0, reach]
    # only agents with cj >= xj - EQUALITY_TOL or ck >= xk - reach -
    # EQUALITY_TOL can pass either comparison of the derivative (float
    # rounding is monotone, so this holds as evaluated), and the others drop
    # out of both sums.
    complete = len(all_steps) <= _KINK_PREFIX
    if complete:
        order, steps = merged_kinks(all_steps.argsort(kind="stable"))
        probe = full_probe
    else:
        head = np.concatenate((np.arange(min(len(vj), _KINK_PREFIX)), len(vj) + np.arange(min(len(vk), _KINK_PREFIX))))
        head = head[all_steps[head].argsort(kind="stable")[:_KINK_PREFIX]]
        reach = all_steps[head[-1]]
        order, steps = merged_kinks(head)
        probe = derivatives_over(((cj >= xj - EQUALITY_TOL) | (ck >= xk - reach - EQUALITY_TOL)).nonzero()[0])

    # first breakpoint where the right derivative is no longer positive.  It
    # is usually among the first few, so gallop over indices 0, 1, 3, 7, ...
    # (capped at the last) until one qualifies, then bisect inside the last
    # doubling; both phases keep lo_d at the last breakpoint found positive.
    # A gallop that would pass the prefix goes on over every kink and agent.
    # The qualifying kink's left derivative reuses its right probe's f'
    lo_d, hit, hit_slope, hit_probe = 0.0, None, 0.0, None
    lo_i, hi_i = 0, len(steps) - 1
    mid, galloping = 0, True
    while lo_i <= hi_i:
        at = probe(float(steps[mid]))
        slope = at(right=True)
        if slope <= 0.0:
            hit, hit_slope, hit_probe, hi_i = mid, slope, at, mid - 1
            galloping = False
        else:
            lo_d, lo_i = float(steps[mid]), mid + 1
        if galloping and not complete and 2 * mid + 1 > hi_i:
            order, steps = merged_kinks(all_steps.argsort(kind="stable"))
            hi_i, complete, probe = len(steps) - 1, True, full_probe
        mid = min(2 * mid + 1, hi_i) if galloping else (lo_i + hi_i) // 2

    b = dmax if hit is None else float(steps[hit])
    near_end = xj + b + EQUALITY_TOL >= xj + dmax - EQUALITY_TOL or xk - b - EQUALITY_TOL <= xk - dmax + EQUALITY_TOL
    if (near_end or hit_slope == 0.0) and full_probe(dmax)(right=False) >= 0.0:
        return dmax, ("zero", None)
    if hit is not None and hit_probe(right=False) >= 0.0:
        o = int(order[hit])
        return b, (("j", float(vj[o])) if o < len(vj) else ("k", float(vk[o - len(vj)])))
    hi_d = b

    # smooth sign change inside (lo_d, hi_d).  No breakpoint lies inside, so
    # the support pattern a_i = [cj_i > xj + d] - [ck_i > xk - d] is fixed
    # there; only the agents with a_i != 0 move.  A step below one ulp of
    # xj + xk no longer changes the moved shares.
    centre = 0.5 * (lo_d + hi_d)
    a = (cj > xj + centre).astype(float) - (ck > xk - centre)
    act = a.nonzero()[0]
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
    phi'' is not negative; a step of at most ulps ends the search.  After 80
    steps without that end, bisection shrinks the bracket to ulps.  Both
    line searches stop this way: a pair exchange, whose rates are +-1 (so
    rate^2 is exactly 1), and a Newton direction.
    """
    square = rate * rate
    t = lo
    for _ in range(80):
        p = sats(t)
        slope = float(f.deriv(p) @ rate)
        curve = float(np.add.reduce(f.second(p) * square))
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
    # where f' spans many orders of magnitude across the bracket, Newton
    # steps from its steep end creep and run out inside it; bisection
    # finishes the bracket
    while hi - lo > ulps:
        t = 0.5 * (lo + hi)
        if not lo < t < hi:
            break
        if float(f.deriv(sats(t)) @ rate) > 0.0:
            lo = t
        else:
            hi = t
    return 0.5 * (lo + hi)


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


def _ray_search(above: np.ndarray, below: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, supp: np.ndarray, d: np.ndarray):
    """Maximize the objective along x + t d for t from 0 to the first kink.

    x and d hold the face's shares and direction (max |d_j| = 1), supp
    their strict supporters (0/1 floats), and no agent is tied with any
    x_j.  Up to the first kink the satisfactions are pi + t (supp @ d).  The
    first kink is the nearest value, over the columns, that x_j reaches
    moving along d_j: above[j], the smallest ideal share above x_j, when it
    grows, and below[j], the largest below x_j (or zero), when it shrinks.
    Returns (t, c, v): when the objective still rises into the first kink,
    t is its step and column c lands on v (an ideal share, or zero);
    otherwise t is the smooth stop before it, and c and v are None.
    """
    rate = supp @ d
    target = np.where(d > 0.0, above, below)
    steps = np.divide(target - x, d, out=np.full_like(d, np.inf), where=d != 0.0)
    c = int(steps.argmin())
    end = float(steps[c])
    act = rate.nonzero()[0]
    rate, pi = rate[act], pi[act]
    fp = f.deriv(pi + end * rate)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = float(fp @ rate)
    if not math.isfinite(slope):
        # f' clipped near the float range on a few agents overflows the
        # sum; scaled by the largest f', it keeps its sign and stays finite
        slope = float((fp / fp.max()) @ rate)
    if slope >= 0.0:
        return end, c, float(target[c])

    def sats(t: float) -> np.ndarray:
        return pi + t * rate

    return _smooth_stop(f, sats, rate, 0.0, end, math.ulp(x.sum())), None, None


def _newton_step(srt: np.ndarray, bins: np.ndarray, x: np.ndarray, pi: np.ndarray, f: UtilityFunction, up: np.ndarray, j: int, k: int):
    """A Newton step on the free face of x: (the point it reaches, whether
    it stopped smoothly), or None when it is not taken.

    srt holds the profile's columns sorted, up the strict support mask, and
    bins the share each tied agent is tied at, as ``_marginals`` takes it.
    The free face is F = {j : x_j > 0, no agent tied at x_j}; near x the
    satisfactions are affine in x_F.  The step is taken only when the MRS
    pair (j, k) lies in F: otherwise the gap is held by a column at zero or
    on a kink, which only a pair step moves (at the optimum of its face the
    pairs inside F have no gap).  It searches along ``_newton_direction``
    with ``_ray_search``, whose kinks are the ideal shares next to each
    free share: with no agent tied there, a free column's strict supporters
    are the top entries of its sorted column, so they are the sorted
    entries on either side of the first strict one.  A landing column
    takes its kink or zero value exactly.  The largest other share of F
    then takes what keeps sum(x_F) unchanged, so the step changes the sum
    of x only by rounding, as a pair step does.  A smooth stop no farther than one ulp of sum(x_F),
    the resolution of its search, and a step that leaves x unchanged are
    not taken: at the rounding floor such steps would only shuffle last
    bits.
    """
    free = (x > 0.0) & (np.bincount(bins, minlength=len(x)) == 0)
    if not (free[j] and free[k]):
        return None
    free = np.flatnonzero(free)
    supp = up[:, free]
    d = _newton_direction(f, pi, supp)
    if d is None:
        return None
    old = x[free]
    n = len(srt)
    first = n - supp.sum(axis=0).astype(int)
    above = np.where(first < n, srt[np.minimum(first, n - 1), free], np.inf)
    below = np.where(first > 0, srt[np.maximum(first - 1, 0), free], 0.0)
    t, c, v = _ray_search(above, below, old, pi, f, supp, d)
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


def _ascend(prefs: np.ndarray, srt: np.ndarray, f: UtilityFunction, x: np.ndarray):
    """Exchange polish of a profile's prefs, whose columns sorted are srt,
    from x, any point of the simplex, until the MRS certificate passes.

    Each step is a pair step along the MRS pair (j, k), or a Newton step
    (``_newton_step``) when the last two steps stopped smoothly; a Newton
    step that is not taken leaves the step to the pair search; both read
    their kinks from the sorted columns.  The polish carries the strict
    support mask as 0/1 floats (a bool mask would be cast on every product
    with f'), the minima min(prefs, x) in the profile's column-major
    layout, and the agents tied at each positive share as the flat pair
    (tied, bins) that ``_marginals`` adds to the strict contributions, each
    column's ties together and in agent order.  ``_supporters`` builds them
    at the first point, as ``mrs_gap`` does; after each step only the
    columns it moved (j and k, or the free columns a Newton step moved) are
    recomputed, the mask and the ties by ``support_masks`` on that one
    column, as ``_supporters`` finds them in every column; the column's new
    ties replace its old ones at the end of the list.  The satisfactions
    are the row sums of the minima, which equal ``overlap`` bit for bit at
    a fraction of its cost (a running update of them would drift by
    rounding), so the gap equals ``mrs_gap`` at the same point.  The polish also ends, uncertified, when a step returns it
    to a state (x, smooth-stop count) it held within the last _CYCLE steps
    (the step is a function of that state, so the polish would repeat
    forever), when more than _STALL_WINDOW steps in a row set no new best
    gap, when the line search makes no move, and after _MAX_ITERS steps.
    A step changes the sum of x only by rounding.

    Returns (x, pi, gap, iterations): the point the polish stopped at, its
    satisfactions and MRS gap, and the number of polish steps.
    """
    mins = np.minimum(prefs, x)
    up, tied, bins = _supporters(prefs, x)
    # a share at zero keeps no ties: the gap never reads its weak
    # contribution, and a column nobody supports would tie every agent
    positive = x[bins] > 0.0
    tied, bins = tied[positive], bins[positive]

    def place(c: int) -> None:
        """Recompute column c's minima, strict mask and ties at x_c; its
        ties move to the end of the flat list, in agent order."""
        nonlocal tied, bins
        share, col = x.item(c), prefs[:, c]
        np.minimum(col, share, out=mins[:, c])
        strict, weak = support_masks(col, share)
        up[:, c] = strict
        ties = (weak & ~strict).nonzero()[0] if share > 0.0 else bins[:0]
        held = bins == c
        if len(ties) or held.any():
            tied = np.concatenate((tied[~held], ties))
            bins = np.concatenate((bins[~held], np.full(len(ties), c)))

    smooth = 0
    recent = collections.deque([(x.tobytes(), smooth)], maxlen=_CYCLE)
    iters = 0
    repeated = False
    stall = 0
    best_gap = np.inf
    while True:
        pi = mins.sum(axis=1)
        gap, j, k = _exchange_terms(x, *_marginals(f.deriv(pi), up, tied, bins))
        if gap <= _TOL or repeated or iters >= _MAX_ITERS:
            return x, pi, gap, iters
        if gap < best_gap - 1e-14:
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall > _STALL_WINDOW:
                return x, pi, gap, iters
        step = _newton_step(srt, bins, x, pi, f, up, j, k) if smooth == 2 else None
        if step is None:
            d, landing = _line_search(prefs, srt, mins, x, pi, f, j, k)
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
        for c in (x != before).nonzero()[0].tolist():
            place(c)


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
    srt = np.sort(prefs, axis=0)

    # polish from the start's mass on the supported columns (those whose
    # largest ideal share is positive), or from the mean ideal; the
    # certificate does not depend on where the polish began
    x0 = np.where(srt[-1] > 0.0, np.maximum(start.shares, 0.0), 0.0) if start is not None else None
    if x0 is None or not x0.sum() > 0.0:
        x0 = np.maximum(prefs.mean(axis=0), 0.0)
    x, pi, gap, iters = _ascend(prefs, srt, f, _on_simplex(x0))
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
    gap = _exchange_terms(x, *_marginals(np.ones(n), *_supporters(prefs, x)))[0]
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
    there for every agent below the LP value.

    The loop solves the cut LP's dual, in which each cut is a column and
    which has one row for t and one per alternative, so its basis stays
    (m + 1) x (m + 1) as the cuts accumulate.  The dual's value is the LP
    bound t, and its row duals for the alternatives, clipped at 0 and
    normalised, are the LP's allocation.  It is one HiGHS model for the
    whole solve: a round adds only its fresh cuts as columns, and the
    primal simplex restarts from the previous round's optimal basis, which
    new columns leave feasible.

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
    # the dual of max t over 0 <= x_j <= u_j (u_j the column's largest ideal
    # share: no agent gains from x_j above it), 0 <= t <= 1, sum_j x_j = 1
    # and the cuts t - x[S] <= rhs: minimize w + u . z + s + rhs . y over w
    # free and z, s, y >= 0 subject to row 0, sum_c y_c + s >= 1 (for t),
    # and rows 1 + j, w + z_j - sum_{c: j in S_c} y_c >= 0 (for x_j).  Its
    # columns are w, z_0..z_{m-1}, s and then one y_c per cut
    lp = _LP(np.concatenate([[1.0], prefs.max(axis=0), [1.0]]), np.append(-np.inf, np.zeros(m + 1)), np.full(m + 2, np.inf))
    # row 0 holds s, row 1 + j holds w and z_j
    j = np.arange(1, m + 1)
    index = np.append(m + 1, np.column_stack([np.zeros(m, dtype=int), j]).ravel())
    lp.add_rows(np.append(1.0, np.zeros(m)), np.full(m + 1, np.inf), np.append(0, 2 * j - 1), index, np.ones(2 * m + 1))
    lp.add_cols(rhs[first], *_cut_cols(cuts[first]))

    upper = 1.0  # no overlap exceeds 1
    iterations = 0
    for _ in range(_MAX_ITERS):
        nit, t, _ = lp.solve()
        iterations += nit
        if t is None:
            break
        upper = min(upper, t)
        # the duals of rows 1..m are the cut LP's allocation
        x = np.maximum(lp.row_duals()[1:], 0.0)
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
        lp.add_cols(new_rhs[first], *_cut_cols(new_cuts[first]))

    worst = float(best_pi.min())
    return _report(best_x, best_pi, worst, upper - worst, iterations)


class _LP:
    """One HiGHS model: minimize cost . v over lower <= v <= upper and the
    rows and columns added so far.

    Rows and columns come in compressed form, as HiGHS takes them.  Presolve
    is off: on these small LPs it costs more than it saves.  Rows or columns
    added to a solved model, and new costs, keep its basis, so the next
    solve restarts the simplex from the previous optimum.  ``solve`` gives
    the objective and the column values, ``row_duals`` the row duals of the
    same solve.
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

    def add_cols(self, cost: np.ndarray, starts: np.ndarray, index: np.ndarray, value: np.ndarray) -> None:
        """Add the columns v_c >= 0 of cost cost_c, where column c's entries
        k, value_k in row index_k, run from starts[c] to the next column's
        start.  The new columns are nonbasic at 0, so the last optimal basis
        stays primal feasible, and the model solves by primal simplex from
        then on."""
        self.model.setOptionValue("simplex_strategy", 4)
        k = len(cost)
        self.model.addCols(k, cost, np.zeros(k), np.full(k, np.inf), len(index), starts.astype(np.int32), index.astype(np.int32), value)

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

    def row_duals(self) -> np.ndarray:
        """The row duals of the last optimal solve."""
        return np.array(self.model.getSolution().row_dual)


def _overlap_cuts(prefs: np.ndarray, y: np.ndarray):
    """The overlap piece active at the point y, for every agent.

    Returns (cuts, rhs) with one row per agent: the cut of agent i is the
    set S = {j : y_j <= ideal_ij} as a boolean row, and rhs = sum_{j not in
    S} ideal_ij, so overlap_i(x) <= x[S].sum() + rhs for every allocation
    x, with equality at x = y.
    """
    cuts = prefs >= y
    return cuts, np.where(cuts, 0.0, prefs).sum(axis=1)


def _cut_cols(cuts: np.ndarray):
    """The cuts' dual columns as compressed columns (starts, index, value):
    each column's row 0 (the level t) with +1, then row 1 + j with -1 for
    every j in its mask."""
    k = len(cuts)
    cols, rows = np.nonzero(np.hstack([np.ones((k, 1), dtype=bool), cuts]))
    return np.searchsorted(cols, np.arange(k)), rows, np.where(rows == 0, 1.0, -1.0)


def _cut_keys(cuts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per cut, so equal cuts compare equal."""
    raw = np.hstack([np.packbits(cuts, axis=1), np.ascontiguousarray(rhs)[:, None].view(np.uint8)])
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
