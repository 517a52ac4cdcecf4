"""Axiom checkers for (profile, allocation) pairs and rule-level probes.

Allocation-level checks (range respect, fair-share axioms, core stability,
efficiency) either certify the axiom or return a re-checkable witness of
its violation.  The core's grid refutation is sound for violations but only
resolution-complete for satisfaction; efficiency is decided over the whole
simplex by one exact LP, and a failed LP raises instead of answering.  Both
reports carry the resolution, the least gain a witness must show.
Rule-level probes (participation, strategyproofness) re-solve perturbed
instances cold, as ``ctr solve`` does, and search for profitable
deviations; an uncertified solve makes them raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import EQUALITY_TOL, Allocation, GuardError, Profile, UtilityFunction, _is_real, check_agent, check_allocation, overlap
from .oracle import GridSpec, _BlockOverlap, _check_resolution, _composition_chunks, _count_text, enumerate_grid
from .solver import _LP, solve_ctr

MAX_SUBSET_AGENTS = 20
# The most misreports the strategyproofness probe re-solves: 100,000 is
# about 48 s of re-solves at 3x5, where one took 0.48 ms (1,001 misreports
# at resolution 0.1 in 0.48 s on a shared 2-core host); larger profiles
# cost more per re-solve.  Resolution 0.01 at m = 5 (4,598,126 misreports,
# under the grid guard) would run for about 36 minutes.
_MAX_PROBE_SOLVES = 100_000
_PROBE_GAIN_TOL = 1e-6


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    A failing report always carries a witness payload from which the
    violation can be recomputed from raw data.  ``applicable`` is False when
    the axiom's antecedent does not hold (for example proportionality on a
    profile that is not single-minded); such reports never count as
    failures.
    """

    axiom: str
    holds: bool
    witness: dict[str, Any] | None = None
    applicable: bool = True


def check_rr(profile: Profile, x: Allocation) -> AxiomReport:
    """Range respect: every share lies within the agents' span for that
    alternative, within 1e-9."""
    shares = check_allocation(profile, x)
    lo = profile.prefs.min(axis=0)
    hi = profile.prefs.max(axis=0)
    bad = (shares < lo - 1e-9) | (shares > hi + 1e-9)
    if not bad.any():
        return AxiomReport("RR", True)
    j = int(np.argmax(bad))
    return AxiomReport(
        "RR",
        False,
        witness={"alternative": j, "share": float(shares[j]), "min": float(lo[j]), "max": float(hi[j])},
    )


def check_ifs(profile: Profile, x: Allocation) -> AxiomReport:
    """Individual fair share: every agent's satisfaction reaches 1/n."""
    pi = overlap(profile.prefs, check_allocation(profile, x))
    threshold = 1.0 / profile.n
    bad = pi < threshold - 1e-9
    if not bad.any():
        return AxiomReport("IFS", True)
    i = int(np.argmax(bad))
    return AxiomReport(
        "IFS", False, witness={"agent": i, "satisfaction": float(pi[i]), "threshold": threshold}
    )


def check_prop(profile: Profile, x: Allocation) -> AxiomReport:
    """Proportionality on single-minded profiles: x_j equals the supporter
    fraction s_j/n within 1e-6.  Not applicable otherwise."""
    shares = check_allocation(profile, x)
    if not profile.is_single_minded():
        return AxiomReport("PROP", True, applicable=False)
    target = profile.prefs.mean(axis=0)
    dev = np.abs(shares - target)
    if dev.max() <= 1e-6:
        return AxiomReport("PROP", True)
    j = int(np.argmax(dev))
    return AxiomReport(
        "PROP",
        False,
        witness={"alternative": j, "share": float(shares[j]), "proportional": float(target[j])},
    )


def cohesive_groups(profile: Profile, sats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capped cohesion and mean satisfaction of every nonempty agent subset.

    Entry k of both tables is the subset with bitmask k + 1 (bit i is agent
    i).  ``alpha`` is min(alpha_S, |S|/n), where alpha_S is the mass of the
    intersection of the members' ideals; ``mean`` averages ``sats`` over the
    members.  sats may also hold one row of satisfactions per allocation,
    such as the rungs of a lambda ladder: ``mean`` then has one row per row
    of sats, and the cohesion table, which depends on the profile alone, is
    built once for all of them.  The tables double over agents: masks in
    [2^i, 2^(i+1)) are the masks below 2^i joined by agent i.  Time is
    O(2^n (m + r)) and memory O(2^n (r + 2)) for r rows of sats.
    """
    n = profile.n
    if n > MAX_SUBSET_AGENTS:
        raise GuardError(f"subset enumeration is limited to n <= {MAX_SUBSET_AGENTS}")
    size = 1 << n
    alpha = np.zeros(size)
    col = np.empty(size)
    for column in profile.prefs.T:
        col[0] = 1.0
        for i in range(n):
            np.minimum(col[: 1 << i], column[i], out=col[1 << i : 2 << i])
        alpha += col
    # the mean table reuses col as the member counts, and the sums of its
    # rows become their means in place
    sats = np.asarray(sats, dtype=float)
    total = np.empty(sats.shape[:-1] + (size,))
    total[..., 0] = 0.0
    count = col
    count[0] = 0.0
    for i in range(n):
        np.add(total[..., : 1 << i], sats[..., i, None], out=total[..., 1 << i : 2 << i])
        np.add(count[: 1 << i], 1.0, out=count[1 << i : 2 << i])
    mean = np.divide(total[..., 1:], count[1:], out=total[..., 1:])
    return np.minimum(alpha[1:], count[1:] / n, out=alpha[1:]), mean


def _check_afs_lambda(lam: float) -> None:
    """Refuse an AFS exponent that is not a real number in (0, 1]."""
    if not (_is_real(lam) and 0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")


def _afs_floor(alpha, lam: float):
    """The AFS floor alpha^(1/lam) of a cohesion or, elementwise, of a table
    of them: the one formula of every AFS check, bound and sweep ratio."""
    return alpha ** (1.0 / lam)


def _cohesive_entries(alpha: np.ndarray, mean: np.ndarray):
    """``cohesive_groups``' tables (alpha, mean) at the cohesive groups
    (alpha > 0) only, selected once along the last axis for every row of
    mean, and uncopied when every group is cohesive.  Their cohesions lie
    in (0, 1] by construction, so callers need not check them."""
    cohesive = alpha > 0.0
    if cohesive.all():
        return alpha, mean
    cohesive = np.flatnonzero(cohesive)
    return alpha[cohesive], mean[..., cohesive]


def check_afs(profile: Profile, x: Allocation, lam: float = 1.0) -> AxiomReport:
    """Average fair share, exactly at lam=1 and approximately below.

    Every group whose capped cohesion is alpha must average satisfaction at
    least alpha^(1/lam) - 1e-9.  Checks all 2^n - 1 subsets; the witness is
    the violating subset with the lowest bitmask.
    """
    _check_afs_lambda(lam)
    alpha, mean = cohesive_groups(profile, overlap(profile.prefs, check_allocation(profile, x)))
    bound = _afs_floor(alpha, lam)
    bad = (alpha > 0.0) & (mean < bound - 1e-9)
    if not bad.any():
        return AxiomReport("AFS", True)
    k = int(np.argmax(bad))
    return AxiomReport(
        "AFS",
        False,
        witness={
            "members": [i for i in range(profile.n) if (k + 1) >> i & 1],
            "alpha": float(alpha[k]),
            "mean_satisfaction": float(mean[k]),
            "bound": float(bound[k]),
            "lambda": lam,
        },
    )


def _blocking_witness(profile: Profile, x: Allocation, resolution: float) -> dict | None:
    """Witness for the lowest-bitmask coalition s that a grid deviation
    y >= 0 of budget |s|/n blocks (every member weakly better off, one by
    more than the resolution plus EQUALITY_TOL), at the first such y in lex
    order, or None.
    With W the agents a point leaves not worse off and B (inside W) those
    it leaves better off by more than the resolution, its lowest blocked
    coalition of size k is W's k lowest agents if they meet B, else W's
    k - 1 lowest plus B's lowest.  Every size's grid is built and guarded
    first, then walked by increasing size until 2^k - 1 exceeds the best
    bitmask."""
    pi = overlap(profile.prefs, check_allocation(profile, x))
    specs = [(k, GridSpec.snapped(profile.m, k / profile.n, resolution)) for k in range(1, profile.n + 1)]
    ones, best, found = np.ones(profile.n), np.inf, None
    for k, spec in specs:
        if best < (1 << k) - 1:
            break
        block_overlap = _BlockOverlap(profile.prefs, spec)
        for block in _composition_chunks(spec):
            after = block_overlap(block)
            # on grid-aligned inputs an exact gain of the resolution can sum a few ulps above it
            fit, gain = after >= pi - 1e-9, after - pi > resolution + EQUALITY_TOL
            # most points block nothing: count W and B before the closed form
            rows = np.flatnonzero((fit @ ones >= k) & (gain @ ones > 0.0))
            if not rows.size:
                continue
            fit, gain = fit[rows], gain[rows]
            rank = np.cumsum(fit, axis=1)
            coalition = fit & (rank <= k)
            swap = np.flatnonzero(~(coalition & gain).any(axis=1))
            coalition[swap] &= rank[swap] < k
            coalition[swap, np.argmax(gain[swap], axis=1)] = True
            members = np.nonzero(coalition)[1].reshape(-1, k)
            # the last key sorts first, so this is bitmask order; ties keep the first point
            first = int(np.lexsort(members.T)[0])
            chosen, r = members[first], int(rows[first])
            mask = sum(1 << i for i in chosen.tolist())
            if mask < best:
                best, found = mask, {
                    "members": chosen.tolist(),
                    "budget": spec.budget,
                    "deviation": (block[r] * spec.resolution).tolist(),
                    "satisfactions_before": pi[chosen].tolist(),
                    "satisfactions_after": after[r, chosen].tolist(),
                    "resolution": resolution,
                }
            if best == (1 << k) - 1:
                break
    return found


def check_core(profile: Profile, x: Allocation, resolution: float) -> AxiomReport:
    """Core stability by grid refutation.

    For every coalition s, searches deviations y >= 0 with total budget
    |s|/n (on a grid of approximately the requested resolution) that weakly
    improve every member and strictly improve one by more than the
    resolution plus EQUALITY_TOL, so an exact gain of the resolution that
    sums a few ulps above it does not block.  Holds iff no blocking pair is
    found.
    """
    witness = _blocking_witness(profile, x, resolution)
    return AxiomReport("core", witness is None, witness or {"resolution": resolution})


def check_efficiency(profile: Profile, x: Allocation, resolution: float) -> AxiomReport:
    """Pareto efficiency by one exact LP: x fails iff some allocation y
    leaves every agent at least pi_i - 1e-9 and lifts one above pi_i +
    resolution.  A gain counts as in ``check_core``: only when it exceeds
    the resolution by more than EQUALITY_TOL, so an exact gain of the
    resolution that sums a few ulps above it is no witness.

    The paper's rules maximize increasing concave sums, so their outcomes
    pass.  The LP maximizes total satisfaction over y on the simplex and
    v_ij <= min(y_j, ideal_ij), holding every agent at sum_j v_ij >= pi_i
    exactly (x itself is feasible).  A total gain that does not count
    holds, which settles a rule optimum in one solve.  Otherwise the
    optimal y is the witness if one agent's gain counts, and if not
    the same model is re-solved for each agent's own satisfaction, in index
    order, until one such y turns up.  A witness is re-checked with
    ``overlap``; a failed LP, non-finite values, or a witness that leaves
    an agent below pi_i - 1e-9 raise RuntimeError, never a verdict.  A
    resolution below EQUALITY_TOL, where the float rounding of the
    satisfactions would count as a gain, is a ValueError.
    """
    _check_resolution(resolution)
    if resolution < EQUALITY_TOL:
        raise ValueError(f"resolution {resolution!r} is below the rounding floor {EQUALITY_TOL!r} of the satisfactions")
    prefs = profile.prefs
    n, m = prefs.shape
    pi = overlap(prefs, check_allocation(profile, x))
    # columns y_0..y_{m-1}, then v_ij at m + i m + j with 0 <= v_ij <= ideal_ij
    v = m + np.arange(n * m)
    lp = _LP(np.append(np.zeros(m), np.full(n * m, -1.0)), np.zeros(m + n * m), np.append(np.ones(m), prefs.ravel()))
    lp.add_rows(np.ones(1), np.ones(1), np.zeros(1), np.arange(m), np.ones(m))
    pairs = np.column_stack([v, np.tile(np.arange(m), n)]).ravel()
    lp.add_rows(np.full(n * m, -np.inf), np.zeros(n * m), 2 * np.arange(n * m), pairs, np.tile([1.0, -1.0], n * m))
    lp.add_rows(pi, np.full(n, np.inf), m * np.arange(n), v, np.ones(n * m))
    for agent in [None, *range(n)]:
        if agent is not None:
            lp.set_cost(np.append(np.zeros(m), np.repeat(np.arange(n) == agent, m) * -1.0))
        value, cols = lp.solve()[1:]
        if value is None or not (math.isfinite(value) and np.isfinite(cols).all()):
            raise RuntimeError("the efficiency LP failed")
        if agent is None and -value - pi.sum() <= resolution + EQUALITY_TOL:
            break
        y = np.maximum(cols[:m], 0.0)
        y /= y.sum()
        after = overlap(prefs, y)
        if (after - pi > resolution + EQUALITY_TOL).any():
            if not (after >= pi - 1e-9).all():
                raise RuntimeError("the efficiency LP's witness leaves an agent worse off")
            return AxiomReport(
                "efficiency",
                False,
                witness={
                    "dominating": y.tolist(),
                    "satisfactions_before": pi.tolist(),
                    "satisfactions_after": after.tolist(),
                    "resolution": resolution,
                },
            )
    return AxiomReport("efficiency", True, witness={"resolution": resolution})


def _satisfaction(profile: Profile, reported: Profile, f: UtilityFunction, i: int, probe: str) -> float:
    """Agent i's true satisfaction under a cold solve of reported; RuntimeError when uncertified."""
    outcome = solve_ctr(reported, f)
    if not outcome.converged:
        raise RuntimeError(f"solver failed to converge during {probe} probe")
    return float(overlap(profile.prefs, outcome.allocation.shares)[i])


def probe_participation(profile: Profile, f: UtilityFunction, i: int) -> AxiomReport:
    """Compare agent i's satisfaction when voting versus abstaining, each
    profile solved cold; raises RuntimeError when either solve is uncertified."""
    # without(i) refuses a bad index, and a profile of one agent, before any solve
    without_vote = _satisfaction(profile, profile.without(i), f, i, "participation")
    with_vote = _satisfaction(profile, profile, f, i, "participation")
    holds = with_vote >= without_vote - _PROBE_GAIN_TOL
    witness = None if holds else {"agent": i, "voting": with_vote, "abstaining": without_vote}
    return AxiomReport("participation", holds, witness=witness)


def probe_strategyproofness(profile: Profile, f: UtilityFunction, i: int, resolution: float) -> AxiomReport:
    """Search a misreport grid for a profitable manipulation by agent i.

    The witness records the best manipulation found and its gain; the probe
    holds iff no misreport gains more than _PROBE_GAIN_TOL.  Soundness is
    one-sided: a finer grid can only find more manipulations.  The honest
    profile and every misreport are solved cold, as ``ctr solve`` does, so
    the report is deterministic given (profile, f, i, resolution).  Raises
    RuntimeError when a solve is uncertified, and GuardError before any
    solve when the grid has more misreports than _MAX_PROBE_SOLVES.
    """
    i = check_agent(profile, i)
    spec = GridSpec.snapped(profile.m, 1.0, resolution)
    if spec.num_points() > _MAX_PROBE_SOLVES:
        raise GuardError(
            f"strategyproofness probe needs {_count_text(spec.num_points())} re-solves, "
            f"exceeding the guard of {_count_text(_MAX_PROBE_SOLVES)}"
        )
    honest_sat = _satisfaction(profile, profile, f, i, "strategyproofness")
    best_gain = 0.0
    best: dict[str, Any] | None = None
    for y in enumerate_grid(spec):
        sat = _satisfaction(profile, profile.replace_row(i, y), f, i, "strategyproofness")
        gain = sat - honest_sat
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = {
                "agent": i,
                "misreport": [float(v) for v in y],
                "gain": gain,
                "honest_satisfaction": honest_sat,
                "manipulated_satisfaction": sat,
            }
    return AxiomReport("strategyproofness", best_gain <= _PROBE_GAIN_TOL, witness=best)
