"""Closed-form fairness/welfare guarantees and their empirical verification.

Every guarantee is parameterized by a bound lambda on the utility's
inequality aversion: an upper bound caps the welfare loss, a lower bound
caps the egalitarian loss and floors individual/group shares.  The
verification harness pairs each applicable guarantee with the measured
quantity on a solved instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .axioms import MAX_SUBSET_AGENTS, _afs_floor, _check_afs_lambda, _cohesive_entries, cohesive_groups
from .core import Allocation, Profile, UtilityFunction, _is_real, check_allocation, iav_bound_of, overlap
from .solver import SolveReport

_SLACK = 1e-6


@dataclass(frozen=True)
class BoundCheck:
    """A guarantee paired with the measured quantity it must dominate."""

    kind: str
    bound: float
    empirical: float
    satisfied: bool
    params: dict[str, Any] = field(default_factory=dict)


def check_lambda(lam: float) -> float:
    """Return an inequality-aversion bound after checking it is a finite,
    positive real number (not a bool); every closed-form guarantee needs one."""
    if not _is_real(lam):
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and positive, got {lam!r}")
    return lam


def check_sizes(m: int, n: int | None = None, min_agents: int = 1) -> None:
    """Refuse m < 2 alternatives and, when n is given, n < min_agents."""
    if m < 2:
        raise ValueError(f"the bound needs m >= 2, got m={m!r}")
    if n is not None and n < min_agents:
        raise ValueError(f"the bound needs n >= {min_agents}, got n={n!r}")


def welfare(profile: Profile, x: Allocation) -> float:
    """Total satisfaction across agents."""
    return float(overlap(profile.prefs, check_allocation(profile, x)).sum())


def welfare_loss(profile: Profile, x: Allocation, util_reference: SolveReport) -> float:
    """Relative welfare shortfall 1 - W(x)/W*, clamped to [0, 1]."""
    if not util_reference.converged:
        raise ValueError("utilitarian reference did not converge")
    w_ref = util_reference.objective
    return min(max(1.0 - welfare(profile, x) / w_ref, 0.0), 1.0)


def egalitarian_loss(profile: Profile, x: Allocation, egal_reference: SolveReport) -> float:
    """Relative maxmin shortfall 1 - min_i pi_i(x) / maxmin, clamped to [0, 1]."""
    if not egal_reference.converged:
        raise ValueError("egalitarian reference did not converge")
    maxmin = egal_reference.objective
    min_sat = float(overlap(profile.prefs, check_allocation(profile, x)).min())
    return min(max(1.0 - min_sat / maxmin, 0.0), 1.0)


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where it overflows the float range; the
    closed forms below then take their finite limits."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def wl_bound(lambda_upper: float, m: int) -> float:
    """Welfare-loss cap for rules with inequality aversion at most lambda."""
    lam = check_lambda(lambda_upper)
    check_sizes(m)
    scaled = lam * _power(m, lam)
    # past the float range the cap is 1 - (lam + 1) / scaled, which rounds to 1
    return 1.0 if math.isinf(scaled) else scaled / (scaled + lam + 1.0)


def wl_bound_single_minded(lambda_upper: float, m: int) -> float:
    """Tighter welfare-loss cap on single-minded profiles."""
    lam = check_lambda(lambda_upper)
    check_sizes(m)
    return (m - 1.0) / m * lam / (lam + 1.0)


def ifs_share_bound(lambda_lower: float, m: int, n: int) -> float:
    """Individual satisfaction floor for rules with IAV at least lambda."""
    check_lambda(lambda_lower)
    check_sizes(m, n, min_agents=2)
    return 1.0 / (1.0 + (m - 1.0) * _power(n - 1.0, 1.0 / lambda_lower))


def el_bound_single_minded(lambda_lower: float, m: int, n: int) -> float:
    """Egalitarian-loss cap on single-minded profiles (uniform is maxmin)."""
    check_lambda(lambda_lower)
    check_sizes(m, n)
    val = 1.0 - m / (1.0 + (m - 1.0) * _power(n - 1.0, 1.0 / lambda_lower))
    return float(np.clip(val, 0.0, 1.0))


def min_agent_bound(lambda_lower: float, m: int, n: int) -> float:
    """Coarser individual floor (1/m)(1/n)^(1/lambda)."""
    check_lambda(lambda_lower)
    check_sizes(m, n)
    return (1.0 / m) * (1.0 / n) ** (1.0 / lambda_lower)


def afs_bound(alpha: float | np.ndarray, lambda_lower: float) -> float | np.ndarray:
    """Group mean-satisfaction floor alpha^(1/lambda) for cohesion alpha, a
    number or an array of them."""
    if not np.all((0.0 < alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in (0, 1]")
    _check_afs_lambda(lambda_lower)
    return _afs_floor(alpha, lambda_lower)


def gamma(m: int, n: int, lambda_lower: float) -> tuple[float, float]:
    """Egalitarian-loss cap for general profiles, with its maximin argument.

    Maximizes min(m*w, 1 - (w/(n-1))^(1/lambda)) over w in [0, 1].  The
    first term increases and the second decreases, so the maximin sits at
    their crossing; bisection finds it to 1e-10.  Returns (value, w*).
    """
    check_lambda(lambda_lower)
    check_sizes(m, n, min_agents=2)
    inv = 1.0 / lambda_lower

    def h(w: float) -> float:
        return m * w - (1.0 - (w / (n - 1.0)) ** inv)

    lo, hi = 0.0, 1.0 / m
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    w_star = 0.5 * (lo + hi)
    return m * w_star, w_star


def verify_bounds(
    profile: Profile,
    f: UtilityFunction,
    ctr_report: SolveReport,
    util_reference: SolveReport,
    egal_reference: SolveReport,
) -> list[BoundCheck]:
    """Pair every applicable guarantee with the measured loss or share.

    Which guarantees apply depends on which side of the IAV is certified
    for f: welfare-loss caps need an upper bound, share floors and the
    egalitarian cap need a lower bound, and the group-share guarantee
    additionally needs the IAV to sit at or below 1.  A cap holds when the
    measurement is at most the bound plus _SLACK, a floor when it is at
    least the bound minus _SLACK.  Raises when no side is certified at all
    (the quadratic kind).
    """
    bound = iav_bound_of(f)
    if bound.lower is None and bound.upper is None:
        raise ValueError(f"utility kind {f.kind!r} has no certified IAV bound")

    n, m = profile.n, profile.m
    min_sat = ctr_report.satisfactions.min()
    single_minded = profile.is_single_minded()
    checks: list[BoundCheck] = []

    def cap(kind: str, b: float, measured: float, params: dict) -> None:
        checks.append(BoundCheck(kind, b, measured, measured <= b + _SLACK, dict(params)))

    def floor(kind: str, b: float, measured: float, params: dict) -> None:
        checks.append(BoundCheck(kind, b, measured, measured >= b - _SLACK, dict(params)))

    if bound.upper is not None:
        lam = bound.upper
        wl = welfare_loss(profile, ctr_report.allocation, util_reference)
        cap("WL", wl_bound(lam, m), wl, {"lambda": lam, "m": m})
        if single_minded:
            cap("WL-single-minded", wl_bound_single_minded(lam, m), wl, {"lambda": lam, "m": m})

    if bound.lower is not None:
        lam = bound.lower
        params = {"lambda": lam, "m": m, "n": n}
        if n >= 2:
            floor("IFS-share", ifs_share_bound(lam, m, n), min_sat, params)
        floor("minAgent", min_agent_bound(lam, m, n), min_sat, params)
        if n >= 2:
            el = egalitarian_loss(profile, ctr_report.allocation, egal_reference)
            cap("EL-gamma", gamma(m, n, lam)[0], el, params)
            if single_minded:
                cap("EL-single-minded", el_bound_single_minded(lam, m, n), el, params)
        if lam <= 1.0 and n <= MAX_SUBSET_AGENTS:
            alpha, mean = _cohesive_entries(*cohesive_groups(profile, ctr_report.satisfactions.values))
            # b[k] comes from the vectorised power: a scalar afs_bound(alpha[k], lam) may differ by an ulp
            b = _afs_floor(alpha, lam)
            k = int(np.argmin(mean - b))
            floor("AFS-exponent", float(b[k]), float(mean[k]), {"lambda": lam, "alpha": float(alpha[k]), "n": n})

    return checks
