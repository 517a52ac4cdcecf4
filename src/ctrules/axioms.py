"""Axiom checkers for (profile, allocation) pairs and rule-level probes.

Allocation-level checks (range respect, fair-share axioms, core stability,
efficiency) either certify the axiom or return a re-checkable witness of
its violation.  The grid-based refutation searches are sound for violations
but only resolution-complete for satisfaction, so reports carry the
resolution used.  Efficiency tries a certificate before its walk: Pareto
weights w >= 1 from a small LP (Isermann 1974) bound the total gain of
every grid deviation, and when that bound rules out a witness the check
holds without walking; a failed LP or a loose bound leaves the verdict to
the walk, so reports are the walk's either way.  Rule-level probes
(participation, strategyproofness) re-solve perturbed instances and search
for profitable deviations; an uncertified solve makes them raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    EQUALITY_TOL,
    Allocation,
    GuardError,
    Profile,
    UtilityFunction,
    check_allocation,
    overlap,
    support_masks,
)
from .oracle import GridSpec, _BlockOverlap, _composition_chunks, enumerate_grid
from .solver import SolverOptions, _pareto_weights, solve_ctr

MAX_SUBSET_AGENTS = 20
MAX_CORE_AGENTS = 12
MAX_GRID_ALTERNATIVES = 4


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
    total = np.zeros(sats.shape[:-1] + (size,))
    count = col
    count[0] = 0.0
    for i in range(n):
        np.add(total[..., : 1 << i], sats[..., i, None], out=total[..., 1 << i : 2 << i])
        np.add(count[: 1 << i], 1.0, out=count[1 << i : 2 << i])
    mean = np.divide(total[..., 1:], count[1:], out=total[..., 1:])
    return np.minimum(alpha[1:], count[1:] / n, out=alpha[1:]), mean


def check_afs(profile: Profile, x: Allocation, lam: float = 1.0) -> AxiomReport:
    """Average fair share, exactly at lam=1 and approximately below.

    Every group whose capped cohesion is alpha must average satisfaction at
    least alpha^(1/lam) - 1e-9.  Checks all 2^n - 1 subsets; the witness is
    the violating subset with the lowest bitmask.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    alpha, mean = cohesive_groups(profile, overlap(profile.prefs, check_allocation(profile, x)))
    bound = alpha ** (1.0 / lam)
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


def _blocking_witness(profile: Profile, x: Allocation, resolution: float, sizes: list[int]) -> dict | None:
    """Witness for the lowest-bitmask coalition s of one of the given sizes
    that a grid deviation y >= 0 of budget |s|/n blocks (every member weakly
    better off, one by more than the resolution), at the first such y in lex
    order, or None.  With W the agents a point leaves not worse off and B
    (inside W) those it leaves better off by more than the resolution, its
    lowest blocked coalition of size k is W's k lowest agents if they meet
    B, else W's k - 1 lowest plus B's lowest.  All sizes' grids are built
    and guarded first, then walked by increasing size until 2^k - 1 exceeds
    the best bitmask."""
    pi = overlap(profile.prefs, check_allocation(profile, x))
    specs = [(k, GridSpec.snapped(profile.m, k / profile.n, resolution)) for k in sizes]
    ones, best, found = np.ones(profile.n), np.inf, None
    for k, spec in specs:
        if best < (1 << k) - 1:
            break
        block_overlap = _BlockOverlap(profile.prefs, spec)
        for block in _composition_chunks(spec):
            after = block_overlap(block)
            fit, gain = after >= pi - 1e-9, after > pi + resolution
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
    resolution.  Holds iff no blocking pair is found.
    """
    n, m = profile.n, profile.m
    if n > MAX_CORE_AGENTS:
        raise GuardError(f"core search is limited to n <= {MAX_CORE_AGENTS}")
    if m > MAX_GRID_ALTERNATIVES:
        raise GuardError(f"core search is limited to m <= {MAX_GRID_ALTERNATIVES}")
    witness = _blocking_witness(profile, x, resolution, list(range(1, n + 1)))
    return AxiomReport("core", witness is None, witness or {"resolution": resolution})


def _certified_efficient(profile: Profile, x: np.ndarray, resolution: float) -> bool:
    """True when Pareto weights prove that the efficiency walk at this
    resolution finds no witness.

    For weights w >= 1 from ``_pareto_weights`` and any y on the simplex,
    concavity bounds sum_i w_i (u_i(y) - pi_i) by the moved mass times
    their MRS gap, plus m * EQUALITY_TOL * sum(w) for the ties the support
    masks round and |sum(x) - 1| * sum(w) for x's budget drift.  A point the
    walk reports leaves every agent at least pi_i - 1e-9, so its total gain
    is at most that bound plus 1e-9 * sum(w - 1), and it exceeds
    resolution - (n - 1) * 1e-9.  The rounding slack covers the float table
    sums of the walk and of pi, the grid points' products, the weighted
    products and this comparison, each a few (n + m) ulps of sum(w).
    """
    n, m = profile.n, profile.m
    found = _pareto_weights(x, *support_masks(profile.prefs, x))
    if found is None:
        return False
    w, gap = found
    total = float(w.sum())
    bound = max(gap, 0.0) + (m * EQUALITY_TOL + abs(float(x.sum()) - 1.0)) * total + 1e-9 * (total - n)
    slack = 16 * (n + m) * np.finfo(float).eps * total
    return bound <= resolution - (n - 1) * 1e-9 - slack


def check_efficiency(profile: Profile, x: Allocation, resolution: float) -> AxiomReport:
    """Pareto efficiency by grid refutation: no grid allocation weakly
    dominates x with one gain above the resolution (the core's test for the
    grand coalition).

    The paper's rules maximize increasing concave sums, so their outcomes
    are efficient, and an efficient allocation of this piecewise-linear
    problem is a weighted-utilitarian optimum for some weights w >= 1
    (Isermann 1974).  Such weights bound the total gain of every grid
    deviation, so when the bound rules out a witness the check holds
    without walking the grid; otherwise, or when the weights' LP fails,
    the walk decides.  Both paths give the same report.
    """
    if profile.m > MAX_GRID_ALTERNATIVES:
        raise GuardError(f"efficiency search is limited to m <= {MAX_GRID_ALTERNATIVES}")
    # a grid past the size guard is refused before any LP
    GridSpec.snapped(profile.m, 1.0, resolution)
    certified = _certified_efficient(profile, check_allocation(profile, x), resolution)
    witness = None if certified else _blocking_witness(profile, x, resolution, [profile.n])
    if witness is None:
        return AxiomReport("efficiency", True, witness={"resolution": resolution})
    del witness["members"], witness["budget"]
    return AxiomReport("efficiency", False, witness={"dominating": witness.pop("deviation"), **witness})


def probe_participation(
    profile: Profile,
    f: UtilityFunction,
    i: int,
    opts: SolverOptions | None = None,
) -> AxiomReport:
    """Compare agent i's satisfaction when voting versus abstaining."""
    if profile.n < 2:
        raise ValueError("participation needs at least two agents")
    opts = opts or SolverOptions()
    full = solve_ctr(profile, f, opts)
    reduced = solve_ctr(profile.without(i), f, opts, start=full.allocation)
    if not (full.converged and reduced.converged):
        raise RuntimeError("solver failed to converge during participation probe")
    with_vote = float(full.satisfactions.values[i])
    without_vote = float(overlap(profile.prefs, reduced.allocation.shares)[i])
    holds = with_vote >= without_vote - 1e-6
    witness = None
    if not holds:
        witness = {"agent": i, "voting": with_vote, "abstaining": without_vote}
    return AxiomReport("participation", holds, witness=witness)


def probe_strategyproofness(
    profile: Profile,
    f: UtilityFunction,
    i: int,
    resolution: float,
    opts: SolverOptions | None = None,
) -> AxiomReport:
    """Search a misreport grid for a profitable manipulation by agent i.

    The witness records the best manipulation found and its gain; the probe
    holds iff no misreport gains more than 1e-6.  Soundness is one-sided:
    a finer grid can only find more manipulations.  Raises RuntimeError when
    the honest solve or any misreport re-solve is uncertified, as the
    participation probe does: a gain read off an uncertified solve is not
    the rule's.
    """
    if profile.m > MAX_GRID_ALTERNATIVES:
        raise GuardError(f"misreport search is limited to m <= {MAX_GRID_ALTERNATIVES}")
    spec = GridSpec.snapped(profile.m, 1.0, resolution)
    opts = opts or SolverOptions()
    honest = solve_ctr(profile, f, opts)
    if not honest.converged:
        raise RuntimeError("solver failed to converge during strategyproofness probe")
    honest_sat = float(honest.satisfactions.values[i])
    best_gain = 0.0
    best: dict[str, Any] | None = None
    for y in enumerate_grid(spec):
        manipulated = solve_ctr(profile.replace_row(i, y), f, opts, start=honest.allocation)
        if not manipulated.converged:
            raise RuntimeError("solver failed to converge during strategyproofness probe")
        sat = float(overlap(profile.prefs, manipulated.allocation.shares)[i])
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
    holds = best_gain <= 1e-6
    return AxiomReport("strategyproofness", holds, witness=best)
