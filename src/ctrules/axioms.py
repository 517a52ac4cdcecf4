"""Axiom checkers for (profile, allocation) pairs and rule-level probes.

Allocation-level checks (range respect, fair-share axioms, core stability,
efficiency) either certify the axiom or return a re-checkable witness of
its violation.  The grid-based refutation searches are sound for violations
but only resolution-complete for satisfaction, so reports carry the
resolution used.  Rule-level probes (participation, strategyproofness)
re-solve perturbed instances and search for profitable deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import Allocation, GuardError, Profile, UtilityFunction, overlap
from .oracle import GridSpec, _composition_chunks
from .solver import SolverOptions, solve_ctr

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


def _grid_steps(m: int, budget: float, resolution: float) -> GridSpec:
    """Grid over budget in the whole number of steps closest to the
    requested resolution (at least one).  GridSpec refuses a grid above the
    point guard with GuardError."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
    steps = max(1, round(budget / resolution))
    return GridSpec(m, budget / steps, budget)


def check_rr(profile: Profile, x: Allocation) -> AxiomReport:
    """Range respect: every share lies within the agents' span for that
    alternative, within 1e-9."""
    lo = profile.prefs.min(axis=0)
    hi = profile.prefs.max(axis=0)
    bad = (x.shares < lo - 1e-9) | (x.shares > hi + 1e-9)
    if not bad.any():
        return AxiomReport("RR", True)
    j = int(np.argmax(bad))
    return AxiomReport(
        "RR",
        False,
        witness={"alternative": j, "share": float(x.shares[j]), "min": float(lo[j]), "max": float(hi[j])},
    )


def check_ifs(profile: Profile, x: Allocation) -> AxiomReport:
    """Individual fair share: every agent's satisfaction reaches 1/n."""
    pi = overlap(profile.prefs, x.shares)
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
    if not profile.is_single_minded():
        return AxiomReport("PROP", True, applicable=False)
    target = profile.prefs.mean(axis=0)
    dev = np.abs(x.shares - target)
    if dev.max() <= 1e-6:
        return AxiomReport("PROP", True)
    j = int(np.argmax(dev))
    return AxiomReport(
        "PROP",
        False,
        witness={"alternative": j, "share": float(x.shares[j]), "proportional": float(target[j])},
    )


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def cohesive_groups(profile: Profile, sats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capped cohesion and mean satisfaction of every nonempty agent subset.

    Entry k of both arrays is the subset with bitmask k + 1 (bit i is agent
    i).  ``alpha`` is min(alpha_S, |S|/n), where alpha_S is the mass of the
    intersection of the members' ideals; ``mean`` averages ``sats`` over the
    members.  The table doubles over agents: masks in [2^i, 2^(i+1)) are the
    masks below 2^i joined by agent i.  Time is O(2^n m), memory O(2^n).
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
    total = np.zeros(size)
    count = np.zeros(size)
    for i in range(n):
        total[1 << i : 2 << i] = total[: 1 << i] + sats[i]
        count[1 << i : 2 << i] = count[: 1 << i] + 1.0
    return np.minimum(alpha[1:], count[1:] / n), total[1:] / count[1:]


def check_afs(profile: Profile, x: Allocation, lam: float = 1.0) -> AxiomReport:
    """Average fair share, exactly at lam=1 and approximately below.

    Every group whose capped cohesion is alpha must average satisfaction at
    least alpha^(1/lam) - 1e-9.  Checks all 2^n - 1 subsets; the witness is
    the violating subset with the lowest bitmask.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    alpha, mean = cohesive_groups(profile, overlap(profile.prefs, x.shares))
    bound = alpha ** (1.0 / lam)
    bad = (alpha > 0.0) & (mean < bound - 1e-9)
    if not bad.any():
        return AxiomReport("AFS", True)
    k = int(np.argmax(bad))
    return AxiomReport(
        "AFS",
        False,
        witness={
            "members": list(_mask_members(k + 1)),
            "alpha": float(alpha[k]),
            "mean_satisfaction": float(mean[k]),
            "bound": float(bound[k]),
            "lambda": lam,
        },
    )


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
    specs = [_grid_steps(m, size / n, resolution) for size in range(1, n + 1)]
    pi = overlap(profile.prefs, x.shares)
    for mask in range(1, 1 << n):
        members = list(_mask_members(mask))
        spec = specs[len(members) - 1]
        prefs_s = profile.prefs[members]
        base = pi[members]
        for block in _composition_chunks(spec.steps, spec.m, spec.resolution):
            dev_pi = np.minimum(block[:, None, :], prefs_s[None, :, :]).sum(axis=2)
            ok = (dev_pi >= base - 1e-9).all(axis=1) & (dev_pi > base + resolution).any(axis=1)
            if ok.any():
                r = int(np.argmax(ok))
                return AxiomReport(
                    "core",
                    False,
                    witness={
                        "members": members,
                        "budget": spec.budget,
                        "deviation": [float(v) for v in block[r]],
                        "satisfactions_before": [float(v) for v in base],
                        "satisfactions_after": [float(v) for v in dev_pi[r]],
                        "resolution": resolution,
                    },
                )
    return AxiomReport("core", True, witness={"resolution": resolution})


def check_efficiency(profile: Profile, x: Allocation, resolution: float) -> AxiomReport:
    """Pareto efficiency by grid refutation: no grid allocation weakly
    dominates x with one gain above the resolution."""
    if profile.m > MAX_GRID_ALTERNATIVES:
        raise GuardError(f"efficiency search is limited to m <= {MAX_GRID_ALTERNATIVES}")
    spec = _grid_steps(profile.m, 1.0, resolution)
    pi = overlap(profile.prefs, x.shares)
    prefs = profile.prefs
    for block in _composition_chunks(spec.steps, spec.m, spec.resolution):
        alt_pi = np.minimum(block[:, None, :], prefs[None, :, :]).sum(axis=2)
        ok = (alt_pi >= pi - 1e-9).all(axis=1) & (alt_pi > pi + resolution).any(axis=1)
        if ok.any():
            r = int(np.argmax(ok))
            return AxiomReport(
                "efficiency",
                False,
                witness={
                    "dominating": [float(v) for v in block[r]],
                    "satisfactions_before": [float(v) for v in pi],
                    "satisfactions_after": [float(v) for v in alt_pi[r]],
                    "resolution": resolution,
                },
            )
    return AxiomReport("efficiency", True, witness={"resolution": resolution})


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
    reduced = solve_ctr(profile.without(i), f, opts)
    if not (full.converged and reduced.converged):
        raise RuntimeError("solver failed to converge during participation probe")
    with_vote = float(full.satisfactions.values[i])
    without_vote = float(np.minimum(profile.prefs[i], reduced.allocation.shares).sum())
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
    a finer grid can only find more manipulations.
    """
    if profile.m > MAX_GRID_ALTERNATIVES:
        raise GuardError(f"misreport search is limited to m <= {MAX_GRID_ALTERNATIVES}")
    spec = _grid_steps(profile.m, 1.0, resolution)
    opts = opts or SolverOptions()
    honest = solve_ctr(profile, f, opts)
    truth = profile.prefs[i]
    honest_sat = float(honest.satisfactions.values[i])
    best_gain = 0.0
    best: dict[str, Any] | None = None
    for block in _composition_chunks(spec.steps, spec.m, spec.resolution):
        for y in block:
            manipulated = solve_ctr(profile.replace_row(i, y), f, opts)
            sat = float(np.minimum(truth, manipulated.allocation.shares).sum())
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
